#!/usr/bin/env python3
"""Rebuild the 4x4 two-stage sloped Haar matrix from twelve fixed slopes.

Feeds the published sequence of twelve slope values through the two-stage
(raw-normalization) construction and prints the composed matrix next to
the expected one, along with the worst entry deviation.  The slopes and the
expected matrix are the reference data of the test suite
(tests/conftest.py).  Exits 1 when the deviation exceeds acceptance
criterion 1's tolerance.

Run from the repository root: PYTHONPATH=src python scripts/reproduce_worked_matrix.py
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from cthwave.wavelet import build_level_matrix

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import REFERENCE_LAMBDAS, REFERENCE_MATRIX  # noqa: E402

# Largest entry deviation criterion 1 accepts (the matrix is printed to
# three decimal places).
TOLERANCE = 1e-3


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()

    lams = iter(REFERENCE_LAMBDAS)
    h1 = build_level_matrix(4, lams, normalized=False).entries
    h2 = np.eye(4)
    h2[:2, :2] = build_level_matrix(2, lams, normalized=False).entries
    composed = h2 @ h1

    np.set_printoptions(precision=4, suppress=True)
    print("composed two-stage matrix:")
    print(composed)
    print("expected (3 decimal places):")
    print(REFERENCE_MATRIX)
    err = np.abs(composed - REFERENCE_MATRIX).max()
    print(f"max entry deviation: {err:.6f} (tolerance {TOLERANCE})")
    return 0 if err <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
