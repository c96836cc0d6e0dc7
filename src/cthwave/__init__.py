"""Chaotic trigonometric Haar wavelet transform and image encryption toolkit."""
