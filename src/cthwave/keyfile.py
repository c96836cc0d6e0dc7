"""Line-oriented text key files <-> KeySchedule.

Format: global ``name = value`` lines (burn_in, normalization, mode)
followed by four ``[stage N]`` blocks, each holding x0, N1, N2, a1, a2 and
eps.  Blank lines and ``#`` comments are ignored.  Every rejection names
the offending line.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Union

from cthwave.chaos import ChaosParams
from cthwave.cipher import KeySchedule

__all__ = ["KeyFileError", "parse_key_file", "load_key_file", "format_key_file"]

STAGE_KEYS = ("x0", "N1", "N2", "a1", "a2", "eps")
GLOBAL_KEYS = ("burn_in", "normalization", "mode")

_STAGE_RE = re.compile(r"\[\s*stage\s+([0-9]+)\s*\]$")
_ASSIGN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S+)$")


class KeyFileError(ValueError):
    """Key file rejected; the message names the line or parameter."""


def _fail(lineno: int, msg: str) -> None:
    raise KeyFileError(f"line {lineno}: {msg}")


def parse_key_file(text: str) -> KeySchedule:
    """Parse and fully validate a key file."""
    globals_: dict[str, str] = {}
    stages: dict[int, dict[str, tuple[str, int]]] = {}
    current: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _STAGE_RE.match(line)
        if m:
            idx = int(m.group(1))
            if not 1 <= idx <= 4:
                _fail(lineno, f"stage number must be 1..4, got {idx}")
            if idx in stages:
                _fail(lineno, f"duplicate [stage {idx}] block")
            stages[idx] = {}
            current = idx
            continue
        m = _ASSIGN_RE.match(line)
        if not m:
            _fail(lineno, f"expected 'name = value', got {line!r}")
        name, value = m.group(1), m.group(2)
        if current is None:
            if name not in GLOBAL_KEYS:
                _fail(lineno, f"unknown global key {name!r}")
            if name in globals_:
                _fail(lineno, f"duplicate global key {name!r}")
            globals_[name] = value
        else:
            if name not in STAGE_KEYS:
                _fail(lineno, f"unknown stage key {name!r}")
            if name in stages[current]:
                _fail(lineno, f"duplicate key {name!r} in stage {current}")
            stages[current][name] = (value, lineno)

    # Settings the file leaves out take KeySchedule's defaults; it checks them.
    settings: dict[str, object] = {}
    if "burn_in" in globals_:
        settings["burn_in"] = _parse_int("burn_in", globals_["burn_in"])
    if "mode" in globals_:
        settings["mode"] = globals_["mode"]
    normalization = globals_.get("normalization")
    if normalization is not None:
        if normalization not in ("raw", "normalized"):
            raise KeyFileError(
                f"normalization must be 'raw' or 'normalized', got {normalization!r}"
            )
        settings["normalized"] = normalization == "normalized"

    params = []
    for idx in range(1, 5):
        if idx not in stages:
            raise KeyFileError(f"missing [stage {idx}] block")
        params.append(_parse_stage(idx, stages[idx]))

    try:
        return KeySchedule(stages=tuple(params), **settings)
    except ValueError as exc:
        raise KeyFileError(str(exc)) from exc


def _parse_stage(idx: int, fields: dict[str, tuple[str, int]]) -> ChaosParams:
    for key in STAGE_KEYS:
        if key not in fields:
            raise KeyFileError(f"stage {idx}: missing parameter {key!r}")
    vals: dict[str, float | int] = {}
    for key, (text, lineno) in fields.items():
        if key in ("N1", "N2"):
            vals[key] = _parse_int(key, text, lineno)
        else:
            vals[key] = _parse_float(key, text, lineno)
    try:
        return ChaosParams(
            x0=vals["x0"],
            n1=vals["N1"],
            n2=vals["N2"],
            a1=vals["a1"],
            a2=vals["a2"],
            eps=vals["eps"],
        )
    except ValueError as exc:
        line = fields[_offending_key(str(exc))][1] if _offending_key(str(exc)) in fields else "?"
        raise KeyFileError(f"stage {idx} (line {line}): {exc}") from exc


def _offending_key(message: str) -> str:
    first = message.split()[0] if message else ""
    return first if first in STAGE_KEYS else ""


def _parse_int(name: str, text: str, lineno: int | None = None) -> int:
    where = f"line {lineno}: " if lineno else ""
    try:
        return int(text)
    except ValueError:
        raise KeyFileError(f"{where}{name} must be an integer, got {text!r}") from None


def _parse_float(name: str, text: str, lineno: int | None = None) -> float:
    where = f"line {lineno}: " if lineno else ""
    try:
        return float(text)
    except ValueError:
        raise KeyFileError(f"{where}{name} must be a number, got {text!r}") from None


def load_key_file(path: Union[str, Path]) -> KeySchedule:
    return parse_key_file(Path(path).read_text(encoding="utf-8"))


def format_key_file(ks: KeySchedule) -> str:
    """Serialize a KeySchedule back to the text format."""
    lines = [
        f"burn_in = {ks.burn_in}",
        f"normalization = {'normalized' if ks.normalized else 'raw'}",
        f"mode = {ks.mode}",
    ]
    for idx, p in enumerate(ks.stages, start=1):
        lines += [
            "",
            f"[stage {idx}]",
            f"x0 = {p.x0!r}",
            f"N1 = {p.n1}",
            f"N2 = {p.n2}",
            f"a1 = {p.a1!r}",
            f"a2 = {p.a2!r}",
            f"eps = {p.eps!r}",
        ]
    return "\n".join(lines) + "\n"
