"""The library names the benchmark hooks into: bench/tracer.py wraps names
in cipher and on LambdaStream, and bench/coldstart.py patches
cipher.spiral_swap.  A refactor that drops one of them fails here, not only
in the benchmark's own self-test (python -m pytest -q bench/tests)."""

import importlib.util
from pathlib import Path

import numpy as np

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


def test_coldstart_patch_target_exists():
    assert callable(cipher.spiral_swap)


def test_traced_literal_encrypt_records_each_build_side(default_literal_key):
    tracer = new_tracer()
    m = (np.arange(64) % 256).astype(np.uint8).reshape(8, 8)
    cipher._stage_matrices.cache_clear()
    with tracer.installed(), tracer.op("encrypt"):
        cipher.encrypt(m, default_literal_key)
    builds = [s for s in tracer.spans if s.name == "wavelet.build_level_matrix"]
    assert all(isinstance(s.size, int) for s in builds)
    assert sorted(s.size for s in builds) == [4, 4, 8, 8]
