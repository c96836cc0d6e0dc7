"""End-to-end acceptance checks for the chaotic Haar transform and cipher.

Each test prints a single ``criterion N: PASS/FAIL`` line summarising the
measured quantities, then asserts.  Run with ``pytest -v -s`` to see the
lines inline.
"""

import math
from dataclasses import replace

import numpy as np

from cthwave.cipher import decrypt, encrypt, spiral_swap
from cthwave.cli import main
from cthwave.imageio import synthetic_test_image
from cthwave.metrics import (
    ANALYZE_PAIRS,
    correlation_adjacent,
    entropy_normalized,
    key_space_bits,
    mean_intensity,
    npcr,
    uaci,
)
from cthwave.wavelet import build_level_matrix, decompose, reconstruct

from conftest import random_chaos_params, random_key_schedule, stream_matrices
from reference import REFERENCE_LAMBDAS, REFERENCE_MATRIX, classic_haar_matrix, phi, psi


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_worked_matrix_reproduction():
    lams = iter(REFERENCE_LAMBDAS)
    h1 = build_level_matrix(4, lams, normalized=False).entries
    h2 = np.eye(4)
    h2[:2, :2] = build_level_matrix(2, lams, normalized=False).entries
    err = float(np.abs(h2 @ h1 - REFERENCE_MATRIX).max())
    report(1, err <= 1e-3, f"max entry error {err:.2e} vs tolerance 1e-3")


def test_criterion_2_classic_haar_reduction():
    zeros = iter([0.0] * 64)
    h1 = build_level_matrix(4, zeros, normalized=True).entries
    h2 = np.eye(4)
    h2[:2, :2] = build_level_matrix(2, zeros, normalized=True).entries
    err4 = float(np.abs(h2 @ h1 - classic_haar_matrix(4)).max())
    ortho = max(
        float(np.abs(classic_haar_matrix(n)
                     @ classic_haar_matrix(n).T - np.eye(n)).max())
        for n in (2, 4, 8, 16)
    )
    ok = err4 <= 1e-12 and ortho <= 1e-12
    report(2, ok, f"n=4 reduction error {err4:.2e}, orthonormality {ortho:.2e}")


def test_criterion_3_wavelet_function_laws():
    cells = 2**14
    edges = np.linspace(0.0, 1.0, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    worst_mass = worst_mean = 0.0
    for lam in np.linspace(-2.0, 2.0, 50):
        mass = float(np.sum(phi(mids, lam)) / cells)
        mean = float(np.sum(psi(mids, lam)) / cells)
        worst_mass = max(worst_mass, abs(mass - 1.0))
        worst_mean = max(worst_mean, abs(mean - 0.25 * lam))
    ok = worst_mass <= 1e-6 and worst_mean <= 1e-6
    report(3, ok, f"worst mass error {worst_mass:.2e}, "
                  f"worst mean error {worst_mean:.2e}, tolerance 1e-6")


def test_criterion_4_perfect_reconstruction():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        p1, p2 = random_chaos_params(rng), random_chaos_params(rng)
        img = rng.uniform(0.0, 255.0, (128, 128))
        matrices = stream_matrices([p1, p2], 128, 64)
        rec = reconstruct(decompose(img, matrices), matrices)
        worst = max(worst, float(np.abs(rec - img).max()))
    report(4, worst < 1e-6,
           f"worst reconstruction error {worst:.2e} over 100 keys, "
           f"tolerance 1e-6")


def test_criterion_5_cipher_round_trip():
    rng = np.random.default_rng(51)
    failures = 0
    for n in (8, 64, 256):
        ks = random_key_schedule(rng, mode="keystream")
        for _ in range(100):
            m = rng.integers(0, 256, (n, n)).astype(np.uint8)
            if not np.array_equal(decrypt(encrypt(m, ks), ks), m):
                failures += 1
    report(5, failures == 0,
           f"{failures} mismatches over 300 keystream round trips "
           f"(100 each of 8^2, 64^2, 256^2)")


def test_criterion_6_spiral_swap_involution_and_anchors():
    rng = np.random.default_rng(61)
    bad_involution = []
    for n in (4, 8, 16, 64):
        f = rng.standard_normal((2 * n, 2 * n))
        if not np.array_equal(spiral_swap(spiral_swap(f)), f):
            bad_involution.append(n)
    # In a swapped 16 x 16 arange each swapped pair holds the other's index;
    # published anchors, 1-based (LL cell, partner band origin, partner cell).
    f = spiral_swap(np.arange(256).reshape(16, 16))
    expected = [
        ((4, 5), (8, 0), (1, 8)),  # LH
        ((4, 4), (0, 8), (8, 2)),  # HL
        ((5, 4), (8, 8), (1, 3)),  # HH
    ]
    anchors_ok = all(
        f[r - 1, c - 1] == (r0 + pr - 1) * 16 + c0 + pc - 1
        and f[r0 + pr - 1, c0 + pc - 1] == (r - 1) * 16 + c - 1
        for (r, c), (r0, c0), (pr, pc) in expected
    )
    ok = not bad_involution and anchors_ok
    report(6, ok, f"involution failures at n'={bad_involution or 'none'}, "
                  f"n'=8 anchor swaps {'match' if anchors_ok else 'differ'}")


# A one-pixel plaintext change in literal mode touches one level-1 LL
# coefficient and three level-1 details; the LL one reaches four level-2
# coefficients (each stage matrix couples columns 2r, 2r+1 only with rows
# r and n/2 + r).  The swaps only move those 7 coefficients, and each
# inverse level spreads a coefficient over a 2x2 block, so at most 7 * 16
# mask pixels change, plus the plaintext pixel itself.
LITERAL_1PX_REACH = 7 * 16 + 1


def _distribution(enc):
    # Within the audit's 1M-pair budget a 256x256 image's correlations are
    # exact.  Keystream mode's values of about -0.015 sit close to the 0.02
    # bound, so a sampled estimate (noise ~0.007 at 20k pairs) would make
    # the check reflect the sampler.
    corrs = {
        d: correlation_adjacent(enc, d, n_pairs=ANALYZE_PAIRS) for d in
        ("horizontal", "vertical", "diagonal")
    }
    return entropy_normalized(enc), corrs, mean_intensity(enc)


def test_criterion_7_statistical_battery(default_keystream_key,
                                         default_literal_key):
    # The diffusion bounds apply to keystream mode, whose mask depends only
    # on the key.  Literal mode's mask is a linear, local function of the
    # plaintext: its statistics are reported, and only its one-pixel reach
    # is checked.
    plain = synthetic_test_image(256)
    ks = default_keystream_key
    enc = encrypt(plain, ks)
    ent, corrs, mean = _distribution(enc)

    s1 = ks.stages[0]
    near_key = replace(ks, stages=(replace(s1, x0=s1.x0 + 1e-10),) + ks.stages[1:])
    npcr_key = npcr(enc, encrypt(plain, near_key))

    bumped = plain.copy()
    bumped[128, 128] ^= 1
    npcr_1px = npcr(enc, encrypt(bumped, ks))

    other = encrypt(np.flipud(plain).copy(), ks)
    u = uaci(enc, other)
    u_oracle = math.fsum(
        abs(int(a) - int(b)) / 255.0
        for a, b in zip(enc.ravel().tolist(), other.ravel().tolist())
    ) / enc.size * 100.0

    lit = default_literal_key
    lit_enc = encrypt(plain, lit)
    lit_ent, lit_corrs, lit_mean = _distribution(lit_enc)
    lit_1px = int(np.count_nonzero(lit_enc != encrypt(bumped, lit)))

    checks = {
        "entropy>=0.998": ent >= 0.998,
        "|corr|<0.02": all(abs(r) < 0.02 for r in corrs.values()),
        "mean in 127.5+-2": abs(mean - 127.5) <= 2.0,
        "npcr_key>98": npcr_key > 98.0,
        "npcr_1px==100/n^2": npcr_1px == 100.0 / plain.size,
        f"literal_1px<={LITERAL_1PX_REACH}": lit_1px <= LITERAL_1PX_REACH,
        "uaci==oracle": abs(u - u_oracle) <= 1e-12 * max(u, 1.0),
    }
    failed = [k for k, v in checks.items() if not v]
    detail = (
        f"keystream: entropy={ent:.4f}, "
        f"corr={ {d: round(r, 4) for d, r in corrs.items()} }, "
        f"mean={mean:.2f}, npcr_key={npcr_key:.2f}%, "
        f"npcr_1px={npcr_1px:.6f}%, uaci_err={abs(u - u_oracle):.1e}; "
        f"literal: entropy={lit_ent:.4f}, "
        f"corr={ {d: round(r, 4) for d, r in lit_corrs.items()} }, "
        f"mean={lit_mean:.2f}, 1px_changed={lit_1px}"
        + (f"; failed: {failed}" if failed else "")
    )
    report(7, not failed, detail)


def test_criterion_8_key_space(capsys):
    bits = key_space_bits(1e-3)
    near = abs(bits - 239.2) < 0.1
    assert main(["keyspace", "--precision", "1e-2", "1e-3", "1e-4", "1e-5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    table = [float(line.split("\t")[1]) for line in lines]
    monotone = all(b < a for b, a in zip(table, table[1:]))
    with capsys.disabled():
        report(8, near and monotone,
               f"1e-3 precision x 24 instances = {bits:.4f} bits, "
               f"CLI table monotone: {monotone}")


def test_criterion_9_metrics_oracle_equivalence():
    rng = np.random.default_rng(91)
    worst = 0.0
    for _ in range(200):
        a = rng.integers(0, 256, (4, 4)).astype(np.uint8)
        b = rng.integers(0, 256, (4, 4)).astype(np.uint8)
        av, bv = a.ravel().tolist(), b.ravel().tolist()
        o_npcr = sum(x != y for x, y in zip(av, bv)) / 16 * 100.0
        o_uaci = sum(abs(x - y) / 255.0 for x, y in zip(av, bv)) / 16 * 100.0
        counts = {}
        for v in av:
            counts[v] = counts.get(v, 0) + 1
        o_ent = sum(c / 16 * math.log2(16 / c) for c in counts.values()) / 8.0
        worst = max(
            worst,
            abs(npcr(a, b) - o_npcr),
            abs(uaci(a, b) - o_uaci),
            abs(entropy_normalized(a) - o_ent),
        )
    report(9, worst <= 1e-12,
           f"worst oracle deviation {worst:.1e} over 200 4x4 images, "
           f"tolerance 1e-12")
