"""The coupled trigonometric chaotic map and the slope stream it drives.

The map couples two trigonometric terms,

    y1 = (1/a1^2) * tan^2(N1 * arctan(sqrt(x)))
    y2 = (1/a2^2) * cot^2(N2 * arctan(x^(-1/2)))

as x_{n+1} = (1 - eps) * y1 + eps * y2.  Iterates live in [0, inf); they
are folded to slope values lambda in [-2, 2) via lambda = 4 * frac(x) - 2.

All arithmetic is IEEE binary64, and the pinned bytes are defined by glibc's
atan and tan: they round 0.07-0.28% of calls incorrectly, and a correctly
rounded libm leaves the known-answer orbits by iterate 43-158.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

# How close (in radians) an angle may come to a tan/cot pole before the
# step is rejected.  Poles are measure zero; the orbit perturbs once.
POLE_TOL = 1e-9

DEFAULT_BURN_IN = 64
# Largest burn-in a KeySchedule takes; each of a key's five streams runs it.
# LambdaStream has no ceiling: the keystream's stream runs 1000 steps more.
MAX_BURN_IN = 2**20
_BURN_CHUNK = 2**14  # the burn-in keeps at most this many iterates at once

MAX_DEGREE = 2**20  # largest N1, N2: LambdaStream.orbit's pole band holds
_HALF_PI = math.pi / 2.0


class StreamDegeneracyError(RuntimeError):
    """A LambdaStream step failed its checks again after perturbation."""


@dataclass(frozen=True)
class ChaosParams:
    """Control parameters of the coupled map: seed, degrees, scales, coupling."""

    x0: float
    n1: int
    n2: int
    a1: float
    a2: float
    eps: float

    def __post_init__(self) -> None:
        for name in ("x0", "a1", "a2", "eps"):
            v = getattr(self, name)
            if isinstance(v, bool):
                raise ValueError(f"{name} must be a number, got a bool")
            # format_key_file writes float(v), which must read back as v or be NaN.
            try:
                exact = float(v) == v or v != v
            except (TypeError, ValueError, OverflowError):  # e.g. 10**400
                exact = False
            if not exact:
                raise ValueError(f"{name} must be a real number a float "
                                 f"holds exactly, got {_shown(v)}")
            # Equal keys must drive the same float orbit (np.float32 would not).
            object.__setattr__(self, name, float(v))
        if not (math.isfinite(self.x0) and self.x0 > 0):
            raise ValueError(f"x0 must be finite and positive, got {self.x0}")
        for name, v in (("N1", self.n1), ("N2", self.n2)):
            if (n := _integer(v)) is None or not 2 <= n <= MAX_DEGREE:
                raise ValueError(f"{name} must be an integer in [2, 2**20], "
                                 f"got {_shown(v)}")
            object.__setattr__(self, name.lower(), n)
        for name, a in (("a1", self.a1), ("a2", self.a2)):
            # a * a divides y1 and y2, so it must neither underflow to 0
            # nor overflow to inf (which would make every iterate 0).
            if not (a > 0 and 0 < a * a < math.inf):
                raise ValueError(f"{name} must be positive with a finite "
                                 f"nonzero square, got {a}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")


def _integer(v: object) -> int | None:
    """v as a Python int (numpy integers too); None for a bool or a non-integer."""
    try:  # operator.index refuses np.bool_ but not bool
        return None if isinstance(v, bool) else operator.index(v)
    except TypeError:
        return None


def nonnegative_int(name: str, v: object) -> int:
    """v as a Python int; ValueError naming ``name`` unless v is an integer >= 0."""
    if (n := _integer(v)) is None:
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    return n


def _shown(v: object) -> str:
    """repr(v), but an integer of over 20 digits is not spelled out and a
    string of over 40 characters is cut to its first 40."""
    if isinstance(v, int) and abs(v) >= 10**20:
        return "an integer of over 20 digits"
    if isinstance(v, str) and len(v) > 40:
        return f"{v[:40]!r}... ({len(v)} characters)"
    return repr(v)


def _walk(p: ChaosParams, x: float, count: int, out: array) -> float:
    """Append up to ``count`` iterates from ``x`` to ``out``; return the last
    state.  Stops before a step that fails a check: state not finite and
    positive, a tan or cot pole (band: see orbit), a non-finite y1 or y2."""
    n1, n2, a2, eps = float(p.n1), float(p.n2), p.a2, p.eps
    a1a1 = p.a1 * p.a1
    c1 = 1.0 - eps
    atan, sqrt, tan, fmod = math.atan, math.sqrt, math.tan, math.fmod
    pi, half_pi, tol, inf = math.pi, _HALF_PI, POLE_TOL, math.inf
    tan_band, cot_band = (0.1 / tol) ** 2, (10.0 * tol) ** 2
    append = out.append
    for _ in range(count):
        if 0.0 < x < inf:
            s = sqrt(x)
            theta = n1 * atan(s)
            t = tan(theta)
            tt = t * t
            if tt < tan_band or abs(fmod(theta, pi) - half_pi) >= tol:
                y1 = tt / a1a1
                theta = n2 * atan(1.0 / s)
                t = tan(theta)
                tt = t * t
                if y1 < inf and (tt > cot_band or (
                        (r := fmod(theta, pi)) >= tol and pi - r >= tol)):
                    d = tt * a2 * a2
                    if d > 0.0:
                        y2 = 1.0 / d
                        if y2 < inf:
                            x = c1 * y1 + eps * y2
                            append(x)
                            continue
        break
    return x


class LambdaStream:
    """Stateful producer of slope values from the coupled map orbit.

    Single-owner mutable state: not safe for concurrent stepping.  Iterating
    the stream yields lambda values; ``orbit`` and ``step`` expose the raw
    iterates (e.g. for keystream bytes), and ``orbit`` retries a pole.
    """

    def __init__(self, params: ChaosParams, burn_in: int = DEFAULT_BURN_IN):
        self.params = params
        self.state = params.x0
        burn_in = nonnegative_int("burn_in", burn_in)
        for done in range(0, burn_in, _BURN_CHUNK):
            self.orbit(min(_BURN_CHUNK, burn_in - done))

    def step(self) -> float:
        """Advance the orbit one iterate and return the new state."""
        return self.orbit(1)[0]

    def orbit(self, count: int) -> array:
        """Advance ``count`` steps and return the iterates.

        The map runs in one loop over local variables.  A step that fails a
        check is taken again once from the state plus 1e-6 (a state of
        exactly zero included); a second failure raises
        StreamDegeneracyError, with the state left at the last iterate.

        tan(theta) comes first, and each pole test runs only when
        tt = tan(theta)^2 lies in its band, tt >= (0.1/tol)^2 for the tan
        pole and tt <= (10 tol)^2 for the cot pole (tol = POLE_TOL at call
        time).  Within tol of a tan pole |tan| > 0.9/tol, and within tol of
        a cot pole |tan| < 1.1 tol, as theta < N pi/2 <= 2^19 pi (N <=
        MAX_DEGREE) keeps the rounding of pi from moving the k-th pole by
        1e-10 <= tol/10 or more (TestOrbit::test_pole_band_precondition).
        So the band tests (tt < tan_band, tt > cot_band) only decide whether
        the exact test runs: moving an edge within that margin changes no
        iterate.
        """
        count = nonnegative_int("count", count)
        out = array("d")
        x = _walk(self.params, self.state, count, out)
        while (done := len(out)) < count:  # the step from x failed a check
            y = _walk(self.params, x + 1e-6, count - done, out)
            if len(out) == done:
                self.state = x
                raise StreamDegeneracyError(
                    f"orbit degenerate near x={x} (pole after perturbation)")
            x = y
        self.state = x
        return out

    def lambdas(self, count: int) -> np.ndarray:
        """Advance ``count`` steps and fold the iterates as ``next`` would,
        with the same IEEE operations, so the slopes are bit-identical."""
        x = np.frombuffer(self.orbit(count), dtype=float)
        return 4.0 * (x - np.floor(x)) - 2.0

    def __iter__(self) -> "LambdaStream":
        return self

    def __next__(self) -> float:
        """Advance one step and fold the iterate into lambda in [-2, 2)."""
        x = self.step()
        return 4.0 * (x - math.floor(x)) - 2.0
