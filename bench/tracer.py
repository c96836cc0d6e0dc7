"""Span tracer that times cthwave's layers from outside the library.

The tracer replaces public functions with wrappers while it is installed
and restores the originals afterwards, so untraced operations run the
library exactly as shipped.  Each wrapper records a span (name, start, end,
parent); spans stay in memory until the run writes them out.

Two hot functions are counted instead of timed, because a span per call
would cost more than the call: ``LambdaStream.step`` (orbit steps) and
``LambdaStream.__next__`` (slopes consumed).  A count is charged to the
innermost open span, which is what lets ``keystream_image`` report its own
steps apart from the burn-in steps of the stream it creates.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from cthwave import cipher, imageio, keyfile, metrics
from cthwave.chaos import LambdaStream

# (owner, attribute, span name).  cipher imports the wavelet functions by
# name, so they are wrapped where cipher looks them up.
SPANNED = (
    (cipher, "encrypt", "cipher.encrypt"),
    (cipher, "decrypt", "cipher.decrypt"),
    (cipher, "verify_literal_roundtrip", "cipher.verify_literal_roundtrip"),
    (cipher, "chaotic_image", "cipher.chaotic_image"),
    (cipher, "keystream_image", "cipher.keystream_image"),
    (cipher, "spiral_swap", "cipher.spiral_swap"),
    (cipher, "quantize", "cipher.quantize"),
    (cipher, "xor_combine", "cipher.xor_combine"),
    (cipher, "build_level_matrix", "wavelet.build_level_matrix"),
    (cipher, "forward_2d", "wavelet.forward_2d"),
    (cipher, "inverse_2d", "wavelet.inverse_2d"),
    (cipher, "split_subbands", "wavelet.split_subbands"),
    (cipher, "merge_subbands", "wavelet.merge_subbands"),
    (LambdaStream, "__init__", "chaos.stream_init"),
    (imageio, "read_pgm", "imageio.read_pgm"),
    (imageio, "write_pgm", "imageio.write_pgm"),
    (keyfile, "parse_key_file", "keyfile.parse_key_file"),
    (metrics, "npcr", "metrics.npcr"),
    (metrics, "uaci", "metrics.uaci"),
    (metrics, "analyze_image", "metrics.analyze_image"),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "steps", "slopes", "size")

    def __init__(self, span_id: int, parent: int | None, name: str):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.steps = 0
        self.slopes = 0
        # Matrix side for wavelet.build_level_matrix spans, else 0.
        self.size = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Collects spans for operations run while ``installed()`` is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        # The bottom entry catches counts made outside any operation.
        self._stack: list[Span] = [Span(0, None, "unattached")]
        self._patches = [
            (owner, attr, self._spanned(name, getattr(owner, attr)))
            for owner, attr, name in SPANNED
        ]
        self._patches += [
            (LambdaStream, "step", self._counted(LambdaStream.step, "steps")),
            (LambdaStream, "__next__", self._counted(LambdaStream.__next__, "slopes")),
        ]

    def _spanned(self, name: str, fn):
        stack, spans, ids = self._stack, self.spans, self._ids
        is_build = name == "wavelet.build_level_matrix"

        def wrapper(*args, **kwargs):
            span = Span(next(ids), stack[-1].id, name)
            if is_build:
                span.size = args[0]
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                spans.append(span)

        return wrapper

    def _counted(self, fn, field: str):
        stack = self._stack
        if field == "steps":
            def wrapper(self_):
                stack[-1].steps += 1
                return fn(self_)
        else:
            def wrapper(self_):
                stack[-1].slopes += 1
                return fn(self_)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._patches]
        try:
            for owner, attr, replacement in self._patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation ("op.encrypt", ...)."""
        span = Span(next(self._ids), None, f"op.{kind}")
        self._stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def layer_totals(spans: list[Span]) -> dict:
    """Self time, calls and counts per span name, plus per-root figures.

    Self time is a span's duration minus its children's durations; the
    tracer runs on one thread, so sibling spans never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    by_name: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "steps": 0, "slopes": 0, "size_sum": 0}
    )
    for s in spans:
        agg = by_name[s.name]
        agg["self_s"] += s.duration - child_time[s.id]
        agg["calls"] += 1
        agg["steps"] += s.steps
        agg["slopes"] += s.slopes
        agg["size_sum"] += s.size
    roots = [s for s in spans if s.parent is None]
    return {"by_name": dict(by_name), "roots": roots, "child_time": child_time}
