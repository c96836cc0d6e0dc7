"""Cold start of one workload in a fresh interpreter.

Times what a one-shot ``cthwave`` command pays before its first result:
importing the package (numpy included), loading the key file, and the
first operation at the workload's size (encrypt, plus decrypt in keystream
mode).  Prints one JSON object.  Started by run.py; to try it by hand:

    python3 bench/coldstart.py --workload fixedkey-256 --key K --plaintext P --workdir D
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--key", type=Path, required=True)
    ap.add_argument("--plaintext", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    t0 = perf_counter()
    import cthwave  # noqa: F401
    from cthwave import cipher, imageio, keyfile

    t1 = perf_counter()
    ks = keyfile.load_key_file(args.key)
    t2 = perf_counter()

    swap_s = []
    spiral_swap = cipher.spiral_swap

    def timed_swap(sb):
        s = perf_counter()
        try:
            return spiral_swap(sb)
        finally:
            swap_s.append(perf_counter() - s)

    cipher.spiral_swap = timed_swap
    ct, rt = args.workdir / "cold_ct.pgm", args.workdir / "cold_rt.pgm"
    if args.workload == "fixedkey-256":
        t3 = perf_counter()
        e = cipher.encrypt(imageio.read_pgm(args.plaintext).pixels, ks)
        imageio.write_pgm(imageio.GrayImage(e), ct)
        swaps_in_encrypt = len(swap_s)
        d = cipher.decrypt(imageio.read_pgm(ct).pixels, ks)
        imageio.write_pgm(imageio.GrayImage(d), rt)
    else:
        m = imageio.read_pgm(args.plaintext).pixels  # the input, not the op
        t3 = perf_counter()
        e = cipher.encrypt(m, ks)
        swaps_in_encrypt = len(swap_s)
        d = cipher.decrypt(e, ks) if ks.mode == "keystream" else None
    t4 = perf_counter()
    cipher.spiral_swap = spiral_swap

    if d is None:
        ok = cipher.verify_literal_roundtrip(e, m, ks)
    else:
        ok = bool((d == imageio.read_pgm(args.plaintext).pixels).all())
    print(json.dumps({
        "import_s": t1 - t0,
        "key_load_s": t2 - t1,
        "first_op_s": t4 - t3,
        "setup_s": (t1 - t0) + (t2 - t1) + (t4 - t3),
        # Every spiral_swap call of the first encrypt: each quadrant size
        # builds its swap table on first use.
        "spiral_swap_cold_ms": 1e3 * sum(swap_s[:swaps_in_encrypt]),
        "ciphertext_sha256": hashlib.sha256(e.tobytes()).hexdigest(),
        "roundtrip_ok": ok,
    }))


if __name__ == "__main__":
    main()
