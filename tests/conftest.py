from functools import lru_cache

import numpy as np
import pytest

from cthwave.chaos import ChaosParams, LambdaStream
from cthwave.cipher import KeySchedule
from cthwave.wavelet import build_level_matrix


def random_chaos_params(rng: np.random.Generator) -> ChaosParams:
    return ChaosParams(
        x0=float(rng.uniform(0.05, 3.0)),
        n1=int(rng.integers(2, 6)),
        n2=int(rng.integers(2, 6)),
        a1=float(rng.uniform(0.5, 3.0)),
        a2=float(rng.uniform(0.5, 3.0)),
        eps=float(rng.uniform(0.05, 0.95)),
    )


def stream_matrices(params, n: int, burn_in: int):
    """One raw stage matrix per level for decompose/reconstruct: level k at
    side n >> k, from a fresh stream on params[k]."""
    sides = [n >> k for k in range(len(params))]
    return [
        build_level_matrix(s, LambdaStream(p, burn_in).lambdas(2 * s))
        for p, s in zip(params, sides)
    ]


def random_key_schedule(rng: np.random.Generator, **kwargs) -> KeySchedule:
    return KeySchedule(
        stages=tuple(random_chaos_params(rng) for _ in range(4)), **kwargs
    )


@pytest.fixture
def default_keystream_key() -> KeySchedule:
    stages = tuple(
        ChaosParams(x0=x0, n1=3, n2=4, a1=2.0, a2=2.5, eps=0.4)
        for x0 in (0.2, 0.31, 0.47, 0.59)
    )
    return KeySchedule(stages=stages, mode="keystream")


@pytest.fixture
def default_literal_key(default_keystream_key) -> KeySchedule:
    from dataclasses import replace

    return replace(default_keystream_key, mode="literal")


# The per-cell spiral-swap generator the cipher used before its swap tables
# were built with numpy, kept verbatim as the reference for them.

def _spiral_order(n: int) -> list[tuple[int, int]]:
    """Visit every cell of an n x n grid once, spiralling outward.

    Starts at 1-based (n/2, n/2+1); run lengths 1, 1, 2, 2, 3, 3, ... with
    directions cycling left, down, right, up (this matches the published
    anchor swaps).  Cells falling outside the grid are skipped.
    """
    r, c = n // 2 - 1, n // 2  # 0-based start
    cells = [(r, c)]
    seen = 1
    directions = ((0, -1), (1, 0), (0, 1), (-1, 0))  # left, down, right, up
    run, d = 1, 0
    while seen < n * n:
        dr, dc = directions[d]
        for _ in range(run):
            r += dr
            c += dc
            if 0 <= r < n and 0 <= c < n:
                cells.append((r, c))
                seen += 1
                if seen == n * n:
                    break
        d = (d + 1) % 4
        if d in (0, 2):
            run += 1
    return cells


def _band_scan(
    n: int, anchor_col: int, step: int, rows: list[int], count: int
) -> list[tuple[int, int]]:
    """Stride-3 column scan of a detail band, row by row.

    Within each row the columns move by ``step`` (+3 or -3) starting from
    anchor_col (1-based); when a row is exhausted the scan wraps to the next
    row in ``rows`` at the anchor column.  If all rows are exhausted the
    sweep restarts with the anchor shifted by one toward the interior, which
    keeps every generated cell distinct (the three sweeps cover disjoint
    column residue classes).
    """
    out: list[tuple[int, int]] = []
    for sweep in range(3):
        start = anchor_col - sweep if step < 0 else anchor_col + sweep
        for row in rows:
            col = start
            while 1 <= col <= n:
                out.append((row, col))
                if len(out) == count:
                    return out
                col += step
    raise ValueError(f"band scan exhausted before {count} cells (n={n})")


@lru_cache(maxsize=None)
def _swap_pairs(n: int) -> tuple[tuple[str, tuple[int, int], tuple[int, int]], ...]:
    """Full swap sequence for quadrant side n, 1-based indices."""
    order = _spiral_order(n)
    counts = {
        "lh": (len(order) + 2) // 3,
        "hl": (len(order) + 1) // 3,
        "hh": len(order) // 3,
    }
    # Column anchors n, 2, 3 reproduce the published first swaps
    # (1, n'), (n', 2), (1, 3); LH descends, HL and HH ascend.
    scans = {
        "lh": _band_scan(n, n, -3, list(range(1, n + 1)), counts["lh"]),
        "hl": _band_scan(n, 2, 3, list(range(n, 0, -1)), counts["hl"]),
        "hh": _band_scan(n, 3, 3, list(range(1, n + 1)), counts["hh"]),
    }
    pairs = []
    cursors = {"lh": 0, "hl": 0, "hh": 0}
    bands = ("lh", "hl", "hh")
    for i, (r, c) in enumerate(order):
        band = bands[i % 3]
        partner = scans[band][cursors[band]]
        cursors[band] += 1
        pairs.append((band, (r + 1, c + 1), partner))
    return tuple(pairs)


def reference_swap_perm(side):
    """Flat gather index of one spiral swap on a merged side x side matrix,
    from the per-cell reference pairs."""
    q = side // 2
    pairs = _swap_pairs(q)
    offset = {"lh": q * side, "hl": q, "hh": q * side + q}
    ll = np.array([(r - 1) * side + c - 1 for _, (r, c), _ in pairs])
    band = np.array([offset[b] + (r - 1) * side + c - 1 for b, _, (r, c) in pairs])
    perm = np.arange(side * side)
    perm[ll], perm[band] = band, ll
    return perm
