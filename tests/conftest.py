import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    """One raw stage matrix per level of a pyramid: level k at side n >> k,
    from a fresh stream on params[k]."""
    sides = [n >> k for k in range(len(params))]
    return [
        build_level_matrix(s, LambdaStream(p, burn_in).lambdas(2 * s))
        for p, s in zip(params, sides)
    ]


def peak_rss_rise_kib(setup: str, statement: str) -> int:
    """KiB by which a fresh interpreter's peak RSS rises while it runs
    statement, after setup; both may import cthwave and tests/reference.py.

    Reads VmHWM from /proc/self/status, so Linux only.  VmHWM starts afresh
    at exec; ru_maxrss would start at this process's peak and hide the rise.
    """
    code = (f"import re; from pathlib import Path; {setup}; "
            "peak = lambda: int(re.search(r'VmHWM:\\s*(\\d+)', "
            "Path('/proc/self/status').read_text())[1]); "
            f"before = peak(); {statement}; print(peak() - before)")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return int(run.stdout)


def traced_peak_bytes(call) -> int:
    """Peak bytes tracemalloc counts while call() runs, its result included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
