"""Command-line surface: transform, encrypt, decrypt, analyze, diff, keyspace."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from cthwave import cipher, metrics, wavelet
from cthwave.chaos import StreamDegeneracyError
from cthwave.imageio import GrayImage, read_pgm, rescale_to_bytes, write_pgm
from cthwave.keyfile import load_key_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


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
    p.add_argument("--out-dir", required=True)
    p.set_defaults(run=_cmd_transform)

    for name in ("encrypt", "decrypt"):
        p = sub.add_parser(name, help=f"{name} an image")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--key", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(run=_cmd_crypt)

    p = sub.add_parser("analyze", help="single-image statistics report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--csv", help="also dump the histogram as CSV")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("diff", help="NPCR / UACI between two images")
    p.add_argument("--a", dest="img_a", required=True)
    p.add_argument("--b", dest="img_b", required=True)
    p.set_defaults(run=_cmd_diff)

    p = sub.add_parser("keyspace", help="key-space size in bits")
    p.add_argument("--precision", type=float, nargs="+", required=True)
    p.set_defaults(run=_cmd_keyspace)

    return parser


def _cmd_transform(args: argparse.Namespace) -> int:
    img = read_pgm(args.infile)
    ks = load_key_file(args.key)
    n, side = img.pixels.shape
    if n != side or n % 4:
        raise ValueError(f"image shape {img.pixels.shape} not divisible into 2 levels")
    f = wavelet.decompose(img.pixels, cipher._stage_matrices(ks, n)[:2])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for level in (1, 2):
        h = n >> level
        quads = {"LH": f[h:2 * h, :h], "HL": f[:h, h:2 * h], "HH": f[h:2 * h, h:2 * h]}
        if level == 2:
            quads["LL"] = f[:h, :h]
        for name, values in quads.items():
            path = out_dir / f"L{level}_{name}.pgm"
            write_pgm(GrayImage(rescale_to_bytes(values)), path)
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_crypt(args: argparse.Namespace) -> int:
    img = read_pgm(args.infile)
    ks = load_key_file(args.key)
    crypt = cipher.encrypt if args.command == "encrypt" else cipher.decrypt
    write_pgm(GrayImage(crypt(img.pixels, ks)), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    img = read_pgm(args.infile)
    report = metrics.analyze_image(img.pixels, n_pairs=metrics.ANALYZE_PAIRS)
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
        bits = metrics.key_space_bits(precision, metrics.KEYSPACE_INSTANCES)
        print(f"{precision:g}\t{bits:.4f}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StreamDegeneracyError as exc:
        print(f"numeric degeneracy: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # PgmError, KeyFileError, CipherModeError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
