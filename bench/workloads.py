"""The benchmark's three workloads: inputs made from a seed, timed
operations, and the checks on every output.

Every workload is a closed loop with one client: ``group(i, rec)`` runs the
operations on input ``i`` one after another and returns when they are done.
Inputs are made before their operations' timers start.  The library is
called through its modules (``cipher.encrypt``, not a bound name), so a
tracer or a test can substitute wrappers.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from cthwave import cipher, imageio, keyfile, metrics
from cthwave.chaos import ChaosParams
from cthwave.cipher import KeySchedule

# Normalized byte entropy below which an operation's mask counts as weak.
WEAK_MASK_ENTROPY = 0.99

# The default key of the test suite (tests/conftest.py).
FIXED_KEY = KeySchedule(
    stages=tuple(
        ChaosParams(x0=x0, n1=3, n2=4, a1=2.0, a2=2.5, eps=0.4)
        for x0 in (0.2, 0.31, 0.47, 0.59)
    ),
    mode="keystream",
)

# Separates known-answer inputs from the seeded ones.
KAT_STREAM = 2**31 - 1


def plaintext(side: int, seed: int, i: int) -> np.ndarray:
    """Distinct natural-looking plaintext ``i`` of the stream for ``seed``."""
    return imageio.synthetic_test_image(side, seed=seed * 1_000_003 + i)


def random_key(seed: int, i: int) -> KeySchedule:
    """Key ``i`` of the stream for ``seed``, in the parameter ranges of
    tests/conftest.py::random_key_schedule (keystream mode, raw, burn-in 64)."""
    rng = np.random.default_rng([seed, i])
    return KeySchedule(
        stages=tuple(
            ChaosParams(
                x0=float(rng.uniform(0.05, 3.0)),
                n1=int(rng.integers(2, 6)),
                n2=int(rng.integers(2, 6)),
                a1=float(rng.uniform(0.5, 3.0)),
                a2=float(rng.uniform(0.5, 3.0)),
                eps=float(rng.uniform(0.05, 0.95)),
            )
            for _ in range(4)
        )
    )


class OpFailed(Exception):
    """An operation raised or produced a wrong result; the group stops."""


class Recorder:
    """Times operations and counts attempts, failures and weak masks."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {"encrypt": [], "decrypt": [], "audit": []}
        self.traced_samples: dict[str, list[float]] = {"encrypt": [], "decrypt": [], "audit": []}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.busy_s = 0.0
        self.megapixels = 0.0
        self.masks = 0
        self.weak_masks = 0
        self.tracer = None

    def op(self, kind: str, fn, megapixels: float = 0.0):
        """Run and time one operation; with a tracer, under a root span."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if self.tracer is None:
                out = fn()
            else:
                with self.tracer.op(kind):
                    out = fn()
        except Exception as exc:  # any library error is a failed operation
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            raise OpFailed from exc
        dt = perf_counter() - t0
        if self.tracer is None:
            self.samples[kind].append(dt)
            self.busy_s += dt
            self.megapixels += megapixels
        else:
            self.traced_samples[kind].append(dt)
        return out

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def check(self, ok: bool, why: str) -> None:
        """Charge a wrong result to the operation that produced it."""
        if not ok:
            self.fail(why)
            raise OpFailed(why)

    def mask(self, e: np.ndarray, m: np.ndarray) -> None:
        self.masks += 1
        if metrics.entropy_normalized(np.bitwise_xor(e, m)) < WEAK_MASK_ENTROPY:
            self.weak_masks += 1


def sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.uint8).tobytes())
    return h.hexdigest()


class FixedKey:
    """fixedkey-256: one keystream key loaded from a key file; each input is
    read_pgm -> encrypt -> write_pgm, then read_pgm -> decrypt -> write_pgm."""

    name = "fixedkey-256"
    side = 256
    kat_count = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.key_text = keyfile.format_key_file(FIXED_KEY)

    def prepare(self) -> None:
        (self.workdir / "fixed.key").write_text(self.key_text, encoding="utf-8")
        self.ks = keyfile.load_key_file(self.workdir / "fixed.key")

    def kat_inputs(self):
        return [(self.ks, plaintext(self.side, KAT_STREAM, k)) for k in range(self.kat_count)]

    def roundtrip(self, ks: KeySchedule, m: np.ndarray, rec: Recorder) -> np.ndarray:
        """PGM round trip of one plaintext; returns the ciphertext."""
        pt, ct, rt = (self.workdir / f"{x}.pgm" for x in ("pt", "ct", "rt"))
        imageio.write_pgm(imageio.GrayImage(m), pt)
        mpx = m.size / 1e6

        def enc():
            e = cipher.encrypt(imageio.read_pgm(pt).pixels, ks)
            imageio.write_pgm(imageio.GrayImage(e), ct)
            return e

        def dec():
            d = cipher.decrypt(imageio.read_pgm(ct).pixels, ks)
            imageio.write_pgm(imageio.GrayImage(d), rt)
            return d

        e = rec.op("encrypt", enc, mpx)
        d = rec.op("decrypt", dec, mpx)
        rec.check(np.array_equal(d, m), "decrypt: round trip differs from plaintext")
        rec.mask(e, m)
        return e

    def group(self, i: int, rec: Recorder) -> None:
        self.roundtrip(self.ks, plaintext(self.side, self.seed, i), rec)

    def kat(self, rec: Recorder) -> dict:
        cts = [self.roundtrip(ks, m, rec) for ks, m in self.kat_inputs()]
        return {"first_ciphertext_sha256": sha256(cts[:1]), "ciphertexts_sha256": sha256(cts)}


class FreshKey(FixedKey):
    """freshkey-64: every message carries its own key file text, parsed
    inside both the encrypt and the decrypt operation."""

    name = "freshkey-64"
    side = 64
    kat_count = 32

    def prepare(self) -> None:
        self.ks = None

    def kat_inputs(self):
        return [
            (random_key(KAT_STREAM, k), plaintext(self.side, KAT_STREAM, k))
            for k in range(self.kat_count)
        ]

    def roundtrip(self, ks: KeySchedule, m: np.ndarray, rec: Recorder) -> np.ndarray:
        text = keyfile.format_key_file(ks)
        mpx = m.size / 1e6
        e = rec.op("encrypt", lambda: cipher.encrypt(m, keyfile.parse_key_file(text)), mpx)
        d = rec.op("decrypt", lambda: cipher.decrypt(e, keyfile.parse_key_file(text)), mpx)
        rec.check(np.array_equal(d, m), "decrypt: round trip differs from plaintext")
        rec.mask(e, m)
        return e

    def group(self, i: int, rec: Recorder) -> None:
        self.roundtrip(random_key(self.seed, i), plaintext(self.side, self.seed, i), rec)


class LiteralAudit(FixedKey):
    """literal-audit-512: a literal-mode key; each plaintext and its twin
    with one centre pixel flipped are encrypted, each ciphertext is checked
    with the known-plaintext inverse (``verify_literal_roundtrip``, timed as
    the decrypt operation), then NPCR, UACI and analyze_image run."""

    name = "literal-audit-512"
    side = 512
    kat_count = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.key_text = keyfile.format_key_file(replace(FIXED_KEY, mode="literal"))

    def audit_pair(self, m: np.ndarray, rec: Recorder) -> tuple:
        twin = m.copy()
        c = self.side // 2
        twin[c, c] ^= 1
        ks = self.ks
        mpx = m.size / 1e6
        e1 = rec.op("encrypt", lambda: cipher.encrypt(m, ks), mpx)
        e2 = rec.op("encrypt", lambda: cipher.encrypt(twin, ks), mpx)
        for e, p in ((e1, m), (e2, twin)):
            ok = rec.op("decrypt", lambda: cipher.verify_literal_roundtrip(e, p, ks), mpx)
            rec.check(ok, "decrypt: literal ciphertext does not invert to its plaintext")
        rec.mask(e1, m)
        rec.mask(e2, twin)

        def audit():
            r = metrics.analyze_image(e1)
            return [metrics.npcr(e1, e2), metrics.uaci(e1, e2), r.mean_intensity,
                    r.entropy_normalized, r.corr_horizontal, r.corr_vertical,
                    r.corr_diagonal]

        values = rec.op("audit", audit)
        rec.check(all(v is not None and np.isfinite(v) for v in values),
                  f"audit: non-finite audit value in {values}")
        return (e1, e2), values

    def group(self, i: int, rec: Recorder) -> None:
        self.audit_pair(plaintext(self.side, self.seed, i), rec)

    def kat(self, rec: Recorder) -> dict:
        cts, audits = [], []
        for _ks, m in self.kat_inputs():
            pair, values = self.audit_pair(m, rec)
            cts += pair
            audits.append(values)
        return {"first_ciphertext_sha256": sha256(cts[:1]), "ciphertexts_sha256": sha256(cts),
                "audit_values": audits}


WORKLOADS = {w.name: w for w in (FixedKey, FreshKey, LiteralAudit)}
