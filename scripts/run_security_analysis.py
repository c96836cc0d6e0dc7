#!/usr/bin/env python3
"""Run the full statistics battery on an encrypted test image.

Encrypts a synthetic natural-looking image (or a PGM supplied on the
command line) in both cipher modes and reports histogram uniformity,
normalized entropy, adjacent-pixel correlation, mean intensity,
single-pixel NPCR, flip-image UACI, and the key-space size.
"""

import argparse
from dataclasses import replace

import numpy as np

from cthwave.chaos import ChaosParams
from cthwave.cipher import KeySchedule, encrypt
from cthwave.imageio import read_pgm, synthetic_test_image
from cthwave.metrics import (
    ANALYZE_PAIRS,
    KEYSPACE_INSTANCES,
    correlation_adjacent,
    entropy_normalized,
    key_space_bits,
    mean_intensity,
    npcr,
    uaci,
)

DEFAULT_STAGES = tuple(
    ChaosParams(x0, 3, 4, 2.0, 2.5, 0.4) for x0 in (0.2, 0.31, 0.47, 0.59)
)


def battery(plain, ks, seed, n_pairs):
    enc = encrypt(plain, ks)
    bumped = plain.copy()
    bumped[plain.shape[0] // 2, plain.shape[1] // 2] ^= 1
    flipped = np.flipud(plain).copy()
    rows = {
        "entropy_normalized": entropy_normalized(enc),
        "mean_intensity": mean_intensity(enc),
        "npcr_1px_percent": npcr(enc, encrypt(bumped, ks)),
        "uaci_flip_percent": uaci(enc, encrypt(flipped, ks)),
    }
    for d in ("horizontal", "vertical", "diagonal"):
        rows[f"corr_{d}"] = correlation_adjacent(
            enc, d, n_pairs=n_pairs, seed=seed
        )
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--image", help="plain PGM to analyse (default: synthetic)")
    parser.add_argument("--size", type=int, default=256,
                        help="side of the synthetic test image")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed for correlation pair sampling")
    parser.add_argument("--pairs", type=int, default=ANALYZE_PAIRS,
                        help="sampled pixel pairs per correlation estimate "
                             f"(default {ANALYZE_PAIRS}, as in the criterion-7 audit; "
                             "20000 pairs leave about 0.007 of sampling noise "
                             "against the 0.02 bound)")
    args = parser.parse_args()

    if args.image:
        plain = read_pgm(args.image).pixels
    else:
        plain = synthetic_test_image(args.size)

    print("plain image:")
    print(f"  entropy_normalized = {entropy_normalized(plain):.6f}")
    print(f"  mean_intensity     = {mean_intensity(plain):.4f}")
    for d in ("horizontal", "vertical", "diagonal"):
        r = correlation_adjacent(plain, d, n_pairs=args.pairs, seed=args.seed)
        print(f"  corr_{d:<10} = {r:+.6f}")

    base = KeySchedule(stages=DEFAULT_STAGES, mode="keystream")
    for mode in ("keystream", "literal"):
        ks = replace(base, mode=mode)
        print(f"\nencrypted ({mode} mode):")
        for name, value in battery(plain, ks, args.seed, args.pairs).items():
            print(f"  {name:<18} = {value:+.6f}")

    print("\nkey space:")
    for precision in (1e-2, 1e-3, 1e-4):
        bits = key_space_bits(precision, KEYSPACE_INSTANCES)
        print(f"  precision {precision:g}: {bits:.2f} bits")


if __name__ == "__main__":
    main()
