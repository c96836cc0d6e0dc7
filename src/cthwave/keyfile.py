"""Line-oriented text key files <-> KeySchedule.

Format: global ``name = value`` lines (burn_in, normalization, mode)
followed by four ``[stage N]`` blocks, each holding x0, N1, N2, a1, a2 and
eps.  Blank lines and ``#`` comments are ignored; settings left out take
KeySchedule's defaults.  ChaosParams checks each stage's values, KeySchedule
the settings.  Every rejection of a line or value names its line, global
settings included; a missing block or stage parameter is named instead.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Union

from cthwave.chaos import ChaosParams
from cthwave.cipher import KeySchedule

__all__ = ["KeyFileError", "parse_key_file", "load_key_file", "format_key_file"]

# Name in the file -> (constructor field, parser, what the parser accepts).
# A refused value's line is found by one rule: ChaosParams and KeySchedule
# start every ValueError message with the value's name as the file writes it
# (``N1``, not ``n1``), so the first word of the message names the field.
_GLOBAL_FIELDS = {
    "burn_in": ("burn_in", int, "an integer"),
    "normalization": (
        "normalized",
        {"raw": False, "normalized": True}.__getitem__,
        "'raw' or 'normalized'",
    ),
    "mode": ("mode", str, "a string"),
}
_STAGE_FIELDS = {
    "x0": ("x0", float, "a number"),
    "N1": ("n1", int, "an integer"),
    "N2": ("n2", int, "an integer"),
    "a1": ("a1", float, "a number"),
    "a2": ("a2", float, "a number"),
    "eps": ("eps", float, "a number"),
}

_STAGE_RE = re.compile(r"\[\s*stage\s+([0-9]+)\s*\]$")
_ASSIGN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S+)$")


class KeyFileError(ValueError):
    """Key file rejected; the message names the line, block or parameter."""


def _fail(lineno: int, msg: str) -> None:
    raise KeyFileError(f"line {lineno}: {msg}")


def parse_key_file(text: str) -> KeySchedule:
    """Parse and fully validate a key file."""
    # Section (0 for the globals, else the stage) -> name -> (value, line).
    sections: dict[int, dict[str, tuple[object, int]]] = {0: {}}
    current = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _STAGE_RE.match(line)
        if m:
            idx = int(m.group(1))
            if not 1 <= idx <= 4:
                _fail(lineno, f"stage number must be 1..4, got {idx}")
            if idx in sections:
                _fail(lineno, f"duplicate [stage {idx}] block")
            sections[idx] = {}
            current = idx
            continue
        m = _ASSIGN_RE.match(line)
        if not m:
            _fail(lineno, f"expected 'name = value', got {line!r}")
        name, value = m.groups()
        table = _STAGE_FIELDS if current else _GLOBAL_FIELDS
        fields = sections[current]
        if name not in table:
            _fail(lineno, f"unknown {'stage' if current else 'global'} key {name!r}")
        if name in fields:
            _fail(lineno, f"duplicate key {name!r} in stage {current}" if current
                  else f"duplicate global key {name!r}")
        _, parse, accepts = table[name]
        try:
            fields[name] = (parse(value), lineno)
        except (ValueError, KeyError):
            _fail(lineno, f"{name} must be {accepts}, got {value!r}")

    params = []
    for idx in range(1, 5):
        if idx not in sections:
            raise KeyFileError(f"missing [stage {idx}] block")
        for name in _STAGE_FIELDS:
            if name not in sections[idx]:
                raise KeyFileError(f"stage {idx}: missing parameter {name!r}")
        params.append(_build(ChaosParams, _STAGE_FIELDS, sections[idx],
                             f"stage {idx} (line {{}})"))
    return _build(KeySchedule, _GLOBAL_FIELDS, sections[0], "line {}",
                  stages=tuple(params))


def _build(cls, table: dict, fields: dict, where: str, **given):
    """``cls`` from parsed fields; a refusal names the line of its field."""
    try:
        return cls(**given, **{table[name][0]: v for name, (v, _) in fields.items()})
    except ValueError as exc:
        _, lineno = fields.get(str(exc).split(" ", 1)[0], (None, "?"))
        raise KeyFileError(f"{where.format(lineno)}: {exc}") from exc


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
        lines += ["", f"[stage {idx}]"]
        lines += [f"{name} = {parse(getattr(p, field))!r}"
                  for name, (field, parse, _) in _STAGE_FIELDS.items()]
    return "\n".join(lines) + "\n"
