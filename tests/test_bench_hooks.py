"""The library names the benchmark hooks into: bench/tracer.py wraps names
in cipher and on LambdaStream, and bench/coldstart.py patches
cipher.spiral_swap.  A refactor that drops one of them fails here, not only
in the benchmark's own self-test (python -m pytest -q bench/tests)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cthwave import cipher

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def new_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_restores():
    encrypt = cipher.encrypt
    tracer = new_tracer()
    with tracer.installed():
        assert cipher.encrypt is not encrypt
    assert cipher.encrypt is encrypt


def test_cold_encrypt_builds_its_gather_through_the_patched_swap(
        default_keystream_key, monkeypatch):
    calls = []
    swap = cipher.spiral_swap
    monkeypatch.setattr(cipher, "spiral_swap", lambda f: calls.append(f.shape) or swap(f))
    cipher._mask_perm.cache_clear()
    cipher._keystream_mask.cache_clear()
    for n, swaps in ((16, 2), (8, 1), (12, 1), (4, 0), (16, 0)):
        calls.clear()
        cipher.encrypt(np.zeros((n, n), np.uint8), default_keystream_key)
        assert len(calls) == swaps, n


def test_traced_literal_encrypt_records_each_build_side(default_literal_key):
    tracer = new_tracer()
    m = (np.arange(64) % 256).astype(np.uint8).reshape(8, 8)
    cipher._stage_matrices.cache_clear()
    with tracer.installed(), tracer.op("encrypt"):
        cipher.encrypt(m, default_literal_key)
    builds = [s for s in tracer.spans if s.name == "wavelet.build_level_matrix"]
    assert all(isinstance(s.size, int) for s in builds)
    assert sorted(s.size for s in builds) == [4, 4, 8, 8]


# The tracer sees a transform only when cipher calls it through its own
# module globals; a level run from inside wavelet would zero the per-layer
# forward_2d and inverse_2d metrics without failing anything else.
@pytest.mark.parametrize("key", ["default_keystream_key", "default_literal_key"])
def test_traced_cold_encrypt_records_both_levels_under_chaotic_image(key, request):
    tracer = new_tracer()
    cipher._keystream_mask.cache_clear()
    with tracer.installed(), tracer.op("encrypt"):
        cipher.encrypt(np.zeros((16, 16), np.uint8), request.getfixturevalue(key))
    (image,) = [s for s in tracer.spans if s.name == "cipher.chaotic_image"]
    transforms = [s for s in tracer.spans
                  if s.name in ("wavelet.forward_2d", "wavelet.inverse_2d")]
    assert all(s.parent == image.id for s in transforms)
    assert sorted(s.name for s in transforms) == [
        "wavelet.forward_2d", "wavelet.forward_2d",
        "wavelet.inverse_2d", "wavelet.inverse_2d"]
