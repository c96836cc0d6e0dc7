#!/usr/bin/env python3
"""Run the full statistics battery on an encrypted test image.

Encrypts a 256x256 synthetic natural-looking image (or a PGM supplied on the
command line) in both cipher modes and reports histogram uniformity,
normalized entropy, adjacent-pixel correlation, mean intensity,
single-pixel NPCR, flip-image UACI, and the key-space size.
"""

import argparse
from dataclasses import asdict, replace

import numpy as np

from cthwave.chaos import ChaosParams
from cthwave.cipher import KeySchedule, encrypt
from cthwave.imageio import read_pgm, synthetic_test_image
from cthwave.metrics import (
    ANALYZE_PAIRS,
    analyze_image,
    key_space_bits,
    npcr,
    uaci,
)

DEFAULT_STAGES = tuple(
    ChaosParams(x0, 3, 4, 2.0, 2.5, 0.4) for x0 in (0.2, 0.31, 0.47, 0.59)
)


def statistics(img):
    rows = asdict(analyze_image(img, n_pairs=ANALYZE_PAIRS))
    del rows["histogram"]
    return rows


def show(rows):
    for name, value in rows.items():
        shown = "undefined" if value is None else f"{value:+.6f}"
        print(f"  {name:<18} = {shown}")


def battery(plain, ks):
    enc = encrypt(plain, ks)
    bumped = plain.copy()
    bumped[plain.shape[0] // 2, plain.shape[1] // 2] ^= 1
    flipped = np.flipud(plain).copy()
    rows = statistics(enc)
    rows["npcr_1px_percent"] = npcr(enc, encrypt(bumped, ks))
    rows["uaci_flip_percent"] = uaci(enc, encrypt(flipped, ks))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--image", help="plain PGM to analyse (default: synthetic)")
    args = parser.parse_args()

    plain = read_pgm(args.image).pixels if args.image else synthetic_test_image()

    print("plain image:")
    show(statistics(plain))

    base = KeySchedule(stages=DEFAULT_STAGES, mode="keystream")
    for mode in ("keystream", "literal"):
        print(f"\nencrypted ({mode} mode):")
        show(battery(plain, replace(base, mode=mode)))

    print("\nkey space:")
    for precision in (1e-2, 1e-3, 1e-4):
        bits = key_space_bits(precision)
        print(f"  precision {precision:g}: {bits:.2f} bits")


if __name__ == "__main__":
    main()
