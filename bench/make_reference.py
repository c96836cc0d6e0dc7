"""Regenerate bench/reference.json, the known answers every run checks.

    python3 bench/make_reference.py

Run it only at a commit whose ciphertexts are the contract: a change that
alters any ciphertext byte must fail the benchmark, not update this file.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import WORKLOADS, Recorder  # noqa: E402


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for name, cls in WORKLOADS.items():
            workload = cls(0, Path(tmp))
            workload.prepare()
            rec = Recorder()
            reference[name] = workload.kat(rec)
            if rec.failed:
                sys.exit(f"{name}: known-answer run failed: {rec.failures}")
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
