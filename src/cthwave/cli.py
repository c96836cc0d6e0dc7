"""Command-line surface: transform, encrypt, decrypt, analyze, diff, keyspace."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from cthwave import cipher, metrics, wavelet
from cthwave.chaos import StreamDegeneracyError
from cthwave.imageio import GrayImage, PgmError, read_pgm, rescale_to_bytes, write_pgm
from cthwave.keyfile import KeyFileError, load_key_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

KEYSPACE_INSTANCES = 24  # six control parameters used in four stages

# Pixel pairs per correlation estimate in `analyze`; as in the criterion-7
# audit, so that sampling noise stays well below its 0.02 bound.
ANALYZE_PAIRS = 1_000_000


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        raise _UsageExit(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cthwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="write rescaled sub-band PGMs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--out-dir", required=True)

    for name in ("encrypt", "decrypt"):
        p = sub.add_parser(name, help=f"{name} an image")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--key", required=True)
        p.add_argument("--out", required=True)

    p = sub.add_parser("analyze", help="single-image statistics report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pairs", type=int, default=ANALYZE_PAIRS,
                   help="sampled pixel pairs per correlation estimate "
                        f"(default {ANALYZE_PAIRS}; 2000 pairs leave sampling "
                        "noise of about 0.02, the size of the audit bound)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="also dump the histogram as CSV")

    p = sub.add_parser("diff", help="NPCR / UACI between two images")
    p.add_argument("--a", dest="img_a", required=True)
    p.add_argument("--b", dest="img_b", required=True)

    p = sub.add_parser("keyspace", help="key-space size in bits")
    p.add_argument("--precision", type=float, nargs="+", required=True)
    p.add_argument("--instances", type=int, default=KEYSPACE_INSTANCES)

    return parser


def _cmd_transform(args: argparse.Namespace) -> int:
    img = read_pgm(args.infile)
    ks = load_key_file(args.key)
    if not 1 <= args.levels <= 4:
        raise ValueError(f"levels must be 1..4, got {args.levels}")
    n, side = img.pixels.shape
    if n != side or n % 2**args.levels:
        raise ValueError(f"image shape {img.pixels.shape} not divisible into "
                         f"{args.levels} levels")
    sides = [n >> k for k in range(args.levels)]
    matrices = [cipher._stage_matrix(p, s, ks) for p, s in zip(ks.stages, sides)]
    f = wavelet.decompose(img.pixels, matrices)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for level in range(1, args.levels + 1):
        h = f.shape[0] >> level
        quads = {"LH": f[h:2 * h, :h], "HL": f[:h, h:2 * h], "HH": f[h:2 * h, h:2 * h]}
        if level == args.levels:
            quads["LL"] = f[:h, :h]
        for name, values in quads.items():
            path = out_dir / f"L{level}_{name}.pgm"
            write_pgm(GrayImage(rescale_to_bytes(values)), path)
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_crypt(args: argparse.Namespace, mode: str) -> int:
    img = read_pgm(args.infile)
    ks = load_key_file(args.key)
    if mode == "encrypt":
        out = cipher.encrypt(img.pixels, ks)
    else:
        out = cipher.decrypt(img.pixels, ks)
    write_pgm(GrayImage(out), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    img = read_pgm(args.infile)
    report = metrics.analyze_image(img.pixels, n_pairs=args.pairs, seed=args.seed)
    print(f"mean_intensity = {report.mean_intensity:.6f}")
    print(f"entropy_normalized = {report.entropy_normalized:.6f}")
    for direction, value in (
        ("horizontal", report.corr_horizontal),
        ("vertical", report.corr_vertical),
        ("diagonal", report.corr_diagonal),
    ):
        shown = "undefined" if value is None else f"{value:.6f}"
        print(f"corr_{direction} = {shown}")
    if args.csv:
        lines = ["level,count"]
        lines += [f"{i},{c}" for i, c in enumerate(report.histogram)]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"histogram_csv = {args.csv}")
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    a = read_pgm(args.img_a).pixels
    b = read_pgm(args.img_b).pixels
    print(f"npcr_percent = {metrics.npcr(a, b):.6f}")
    print(f"uaci_percent = {metrics.uaci(a, b):.6f}")
    return EXIT_OK


def _cmd_keyspace(args: argparse.Namespace) -> int:
    print("precision\tkey_space_bits")
    for precision in args.precision:
        bits = metrics.key_space_bits(precision, args.instances)
        print(f"{precision:g}\t{bits:.4f}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "transform":
            return _cmd_transform(args)
        if args.command in ("encrypt", "decrypt"):
            return _cmd_crypt(args, args.command)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "keyspace":
            return _cmd_keyspace(args)
        raise _UsageExit(f"unknown command {args.command!r}")
    except _UsageExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StreamDegeneracyError as exc:
        print(f"numeric degeneracy: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PgmError, KeyFileError, cipher.CipherModeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
