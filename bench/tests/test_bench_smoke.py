"""Smoke test of the benchmark itself; not part of the repository's suite.

    python -m pytest -q bench/tests

Runs every workload for a handful of operations, checks the printed
result against BENCHMARK.json, and checks that a corrupted ciphertext is
counted as a failed operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from cthwave import cipher  # noqa: E402

SHORT = ["--seconds", "0.2", "--min-samples", "2", "--setup-reps", "1"]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_spec(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace), *SHORT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.10


def corrupt_first_byte(monkeypatch):
    encrypt = cipher.encrypt

    def corrupted(m, ks):
        e = encrypt(m, ks).copy()
        e.flat[0] ^= 0x80
        return e

    monkeypatch.setattr(cipher, "encrypt", corrupted)


@pytest.mark.parametrize("name", ["freshkey-64", "fixedkey-256"])
def test_corrupted_ciphertext_fails_the_round_trip(name, monkeypatch, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path)
    workload.prepare()
    corrupt_first_byte(monkeypatch)
    rec = workloads.Recorder()
    with pytest.raises(workloads.OpFailed):
        workload.group(0, rec)
    assert (rec.attempted, rec.failed) == (2, 1)


def test_corrupted_ciphertext_fails_the_known_answers(monkeypatch, tmp_path):
    workload = workloads.WORKLOADS["freshkey-64"](0, tmp_path)
    workload.prepare()
    reference = json.loads((BENCH / "reference.json").read_text())["freshkey-64"]
    rec = workloads.Recorder()
    run.known_answers(workload, reference, rec)
    assert rec.failed == 0
    # A changed mask byte changes encrypt and decrypt alike: every round
    # trip still holds, so only the reference digest can catch it.
    quantize = cipher.quantize

    def shifted(f):
        q = quantize(f).copy()
        q.flat[0] ^= 1
        return q

    monkeypatch.setattr(cipher, "quantize", shifted)
    rec = workloads.Recorder()
    run.known_answers(workload, reference, rec)
    assert rec.failed == rec.attempted == 2 * workload.kat_count


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "freshkey-64", "--seed", "1", "--trace", "0", *SHORT, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
