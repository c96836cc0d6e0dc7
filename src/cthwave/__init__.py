"""Chaotic trigonometric Haar wavelet transform and image encryption toolkit."""

from cthwave.chaos import ChaosParams, LambdaStream, f1, f2, step_coupled
from cthwave.cipher import KeySchedule, decrypt, encrypt
from cthwave.wavelet import (
    ButterflyMatrix,
    SubBands,
    build_level_matrix,
    classic_haar_matrix,
    decompose,
    forward_2d,
    inverse_2d,
    reconstruct,
)

__all__ = [
    "ChaosParams",
    "LambdaStream",
    "f1",
    "f2",
    "step_coupled",
    "ButterflyMatrix",
    "SubBands",
    "classic_haar_matrix",
    "build_level_matrix",
    "forward_2d",
    "inverse_2d",
    "decompose",
    "reconstruct",
    "KeySchedule",
    "encrypt",
    "decrypt",
]

__version__ = "0.1.0"
