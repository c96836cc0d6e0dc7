"""cthwave benchmark: one workload, every output checked, every metric printed.

    python3 bench/run.py --workload fixedkey-256 --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and benchmarks the package under
``src/``.  A run has two phases:

1. known answers: fixed inputs whose ciphertext SHA-256 (and literal audit
   values) must equal bench/reference.json; this also warms the process;
2. the timed closed loop over seeded inputs, for ``--seconds`` and until
   encrypt and decrypt each have ``--min-samples`` samples.  Spread over
   its first ``--seconds``, ``--setup-reps`` fresh interpreters each import
   cthwave, load the key file and finish the first operation
   (bench/coldstart.py); their median is ``setup_s``.

``--trace 0`` prints the end-to-end metrics (no tracer installed).
``--trace 1`` traces every other input group and prints per-layer metrics.
The last line of stdout is one JSON object; a fuller record, with the
environment and sample counts, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A run must end well inside three minutes; the loop stops here even
# without enough samples (the result file records the counts).
MAX_LOOP_S = 120.0
COLDSTART_TIMEOUT_S = 60.0
NAN = float("nan")


def blas_threads() -> str:
    """Cap BLAS at the CPUs this process may use; keep an explicit setting."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)
    return os.environ["OPENBLAS_NUM_THREADS"]


def parse_args(argv=None, workloads=()):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-samples", type=int, default=100)
    ap.add_argument("--setup-reps", type=int, default=9)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.min_samples < 1 or args.setup_reps < 1:
        ap.error("--seed must be >= 0; --seconds, --min-samples, --setup-reps > 0")
    return args


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else NAN


def environment(seed: int, threads: str) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(threads),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def source_digest() -> str:
    """SHA-256 over src/cthwave's files: names the code even without git."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "cthwave").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class ColdStarts:
    """Fresh-interpreter set-ups (bench/coldstart.py), each one checked."""

    def __init__(self, workload, workdir: Path, reference: dict, rec):
        from cthwave import imageio, keyfile

        ks, m = workload.kat_inputs()[0]
        key_path, pt_path = workdir / "cold.key", workdir / "cold.pgm"
        key_path.write_text(keyfile.format_key_file(ks), encoding="utf-8")
        imageio.write_pgm(imageio.GrayImage(m), pt_path)
        self.cmd = [sys.executable, str(BENCH / "coldstart.py"), "--workload", workload.name,
                    "--key", str(key_path), "--plaintext", str(pt_path),
                    "--workdir", str(workdir)]
        self.digest = reference["first_ciphertext_sha256"]
        self.rec = rec
        self.runs = 0
        self.results: list[dict] = []

    def run(self) -> None:
        self.runs += 1
        self.rec.attempted += 1
        proc = subprocess.run(self.cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=COLDSTART_TIMEOUT_S)
        if proc.returncode != 0:
            self.rec.fail(f"cold start exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        if not r["roundtrip_ok"]:
            self.rec.fail("cold start: round trip differs from plaintext")
        elif r["ciphertext_sha256"] != self.digest:
            self.rec.fail("cold start: ciphertext differs from the reference")
        else:
            self.results.append(r)


def known_answers(workload, reference: dict, rec) -> None:
    """Fixed inputs whose outputs must match bench/reference.json."""
    from workloads import OpFailed

    before = rec.attempted
    try:
        got = workload.kat(rec)
    except OpFailed:
        return
    for key in ("first_ciphertext_sha256", "ciphertexts_sha256", "audit_values"):
        if got.get(key) != reference.get(key):
            # A digest covers every known-answer operation: all of them fail.
            rec.failed += rec.attempted - before
            rec.failures.append(f"known answers: {key} differs from the reference")
            return


def timed_loop(workload, args, rec, tracer, cold: ColdStarts) -> int:
    """Closed loop over input groups; cold starts are spread over the first
    ``--seconds``, so that their median does not hang on one moment of a
    machine whose speed drifts."""
    from workloads import OpFailed

    t0 = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - t0
        if elapsed >= MAX_LOOP_S:
            break
        if cold.runs < args.setup_reps and elapsed >= cold.runs * args.seconds / args.setup_reps:
            cold.run()
            continue
        if elapsed >= args.seconds and (
            # A traced run needs one traced and one untraced group at least.
            i >= 2 if args.trace
            else min(len(rec.samples["encrypt"]), len(rec.samples["decrypt"])) >= args.min_samples
        ):
            break
        traced = tracer is not None and i % 2 == 1
        rec.tracer = tracer if traced else None
        try:
            if traced:
                with tracer.installed():
                    workload.group(i, rec)
            else:
                workload.group(i, rec)
        except OpFailed:
            pass
        i += 1
    rec.tracer = None
    while cold.runs < args.setup_reps:
        cold.run()
    return i


def end_to_end(rec, colds: list[dict], attempted: int, failed: int) -> dict:
    enc, dec = rec.samples["encrypt"], rec.samples["decrypt"]
    return {
        "setup_s": (_median(colds, "setup_s"), "s"),
        "encrypt_ms_p90": (1e3 * percentile(enc, 90), "ms"),
        "decrypt_ms_p90": (1e3 * percentile(dec, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ops_frac": (1.0 - failed / attempted, "frac"),
    }


def ungated(rec) -> dict:
    """Figures recorded and printed but not gated: on a shared host whose
    speed swings by up to 2x for seconds at a time they spread too widely
    from run to run for any allowed bound (bench/README.md, "Noise")."""
    enc, dec = rec.samples["encrypt"], rec.samples["decrypt"]
    return {
        "encrypt_ms_p50": (1e3 * percentile(enc, 50), "ms"),
        "decrypt_ms_p50": (1e3 * percentile(dec, 50), "ms"),
        "throughput_mpx_s": (rec.megapixels / rec.busy_s if rec.busy_s else 0.0, "Mpx/s"),
    }


# Per-layer self time per traced operation, in ms: metric -> span names.
LAYER_TIMES = {
    "chaos.stream_init_ms": ("chaos.stream_init",),
    "cipher.keystream_image_ms": ("cipher.keystream_image",),
    "cipher.spiral_swap_ms": ("cipher.spiral_swap",),
    "cipher.quantize_ms": ("cipher.quantize",),
    "cipher.xor_combine_ms": ("cipher.xor_combine",),
    "cipher.chaotic_image_self_ms": ("cipher.chaotic_image",),
    "cipher.encrypt_self_ms": ("cipher.encrypt",),
    "cipher.decrypt_self_ms": ("cipher.decrypt", "cipher.verify_literal_roundtrip"),
    "wavelet.build_level_matrix_ms": ("wavelet.build_level_matrix",),
    "wavelet.forward_2d_ms": ("wavelet.forward_2d",),
    "wavelet.inverse_2d_ms": ("wavelet.inverse_2d",),
    "wavelet.split_merge_ms": ("wavelet.split_subbands", "wavelet.merge_subbands"),
    "metrics.analyze_image_ms": ("metrics.analyze_image",),
    "metrics.npcr_uaci_ms": ("metrics.npcr", "metrics.uaci"),
    "imageio.read_pgm_ms": ("imageio.read_pgm",),
    "imageio.write_pgm_ms": ("imageio.write_pgm",),
    "keyfile.parse_key_file_ms": ("keyfile.parse_key_file",),
}


def per_layer(rec, colds: list[dict], tracer) -> dict:
    from tracer import layer_totals

    t = layer_totals(tracer.spans)
    by_name, roots, child_time = t["by_name"], t["roots"], t["child_time"]
    n_ops = len(roots)

    def agg(name, field):
        return by_name.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        metric: (1e3 * ratio(sum(agg(n, "self_s") for n in names), n_ops), "ms")
        for metric, names in LAYER_TIMES.items()
    }
    ks_steps = agg("cipher.keystream_image", "steps")
    cipher_calls = sum(agg(n, "calls") for n in
                       ("cipher.encrypt", "cipher.decrypt", "cipher.verify_literal_roundtrip"))
    cipher_roots = [r for r in roots if r.name in ("op.encrypt", "op.decrypt")]
    untraced = rec.samples["encrypt"]
    traced = rec.traced_samples["encrypt"]
    out.update({
        "chaos.orbit_steps_per_op": (ratio(sum(a["steps"] for a in by_name.values()), n_ops), "count"),
        "chaos.us_per_step": (1e6 * ratio(agg("cipher.keystream_image", "self_s"), ks_steps), "us"),
        "chaos.weak_mask_ops": (rec.weak_masks, "count"),
        "cipher.masks_per_op": (ratio(agg("cipher.chaotic_image", "calls"), cipher_calls), "count"),
        "cipher.spiral_swap_cold_ms": (_median(colds, "spiral_swap_cold_ms"), "ms"),
        "wavelet.slopes_per_build": (ratio(agg("wavelet.build_level_matrix", "slopes"),
                                           2 * agg("wavelet.build_level_matrix", "size_sum")), "count"),
        "trace.overhead_frac": (ratio(percentile(traced, 50), percentile(untraced, 50)) - 1.0
                                if traced and untraced else 0.0, "frac"),
        "trace.unattributed_frac": (ratio(sum(r.duration - child_time[r.id] for r in cipher_roots),
                                          sum(r.duration for r in cipher_roots)), "frac"),
        "setup.import_s": (_median(colds, "import_s"), "s"),
        "setup.key_load_s": (_median(colds, "key_load_s"), "s"),
        "setup.first_op_s": (_median(colds, "first_op_s"), "s"),
    })
    return out


def _median(colds: list[dict], key: str) -> float:
    return statistics.median(c[key] for c in colds) if colds else NAN


def main(argv=None) -> int:
    if not (SRC / "cthwave" / "__init__.py").is_file():
        print(f"error: no cthwave sources at {SRC / 'cthwave'}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import cthwave
    from workloads import WORKLOADS, Recorder

    if not Path(cthwave.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cthwave from {cthwave.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv, WORKLOADS)
    reference = json.loads((BENCH / "reference.json").read_text())[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        rec, checks = Recorder(), Recorder()
        cold = ColdStarts(workload, workdir, reference, checks)
        known_answers(workload, reference, checks)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        groups = timed_loop(workload, args, rec, tracer, cold)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    colds = cold.results

    attempted = rec.attempted + checks.attempted
    failed = rec.failed + checks.failed
    if args.trace:
        metrics = per_layer(rec, colds, tracer)
    else:
        metrics = end_to_end(rec, colds, attempted, failed)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, threads),
        "groups": groups,
        "samples": {k: len(v) for k, v in rec.samples.items()},
        "samples_ms": {k: [1e3 * x for x in v] for k, v in rec.samples.items()},
        "traced_samples": {k: len(v) for k, v in rec.traced_samples.items()},
        "setup_reps": len(colds),
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted,
        "failures": checks.failures + rec.failures,
        "masks": rec.masks,
        "weak_masks": rec.weak_masks,
        "cold_starts": colds,
        # A value that could not be measured (every cold start failed, no
        # samples) is null; such a run also reports correct: false.
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
        "ungated": {k: {"value": v, "unit": u} for k, (v, u) in ungated(rec).items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for why in record["failures"]:
        print(f"FAILED: {why}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} groups={groups} "
          f"samples={record['samples']} attempted={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    if not args.trace:
        for name, (value, unit) in ungated(rec).items():
            print(f"  {name:32s} {value:14.6f} {unit}  (not gated)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
