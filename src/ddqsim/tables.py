"""Files in and out: the columns of every CSV table ddqsim reads or writes,
the one table writer and reader they all go through, the one way a whole
file reaches disk, and the one way an input file is read.

A table is a header line, then one comma-separated row per line, each ending
in "\\n". A float field is ``repr(float(x))``, the shortest text that reads
back to the same float, and NaN is an empty field, so every float
round-trips. Integers are decimal; text is written as given and holds no
comma or line break. A bad header or field is a ConfigError naming
``path: line N``.

A whole file, table or JSON, is written to ``<path>.tmp`` and then moved
onto ``path`` with ``os.replace``, so ``path`` holds the old file or the
whole new one; a crash leaves at most a stray ``.tmp`` that the next write
of the file replaces. Only appended rows go to the file in place.

Every input file, table or JSON, is read as UTF-8 text: a missing file,
bytes that are not UTF-8 or JSON that does not parse are a ConfigError.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os

from .errors import ConfigError

# column name -> type (float, int or str), in file order
TRACE = {"delay_us": float, "n00": int, "n01": int, "n10": int,
         "n_total": int, "init_label": str, "timestamp_s": float}
METRICS = {"timestamp_s": float, "device": str, "metric": str,
           "estimate": float, "lower": float, "upper": float}
FREQUENCY = {"timestamp_s": float, "delta_f_hz": float, "source": str}
ALLAN = {"tau_s": float, "sigma_hz": float}
PSD = {"freq_hz": float, "psd_hz2_per_hz": float}
SHOTS = {"shot_index": int, "prep_label": str, "i": float, "q": float,
         "assigned_label": str}
TRAJECTORIES = {"shot_index": int, "final_level": str, "phase_rad": float,
                "erased": int}
CURVE = {"delay_us": float, "data": float, "fitted": float}

# one pass over a whole column per type, no per-value dispatch
_FORMAT = {float: lambda v: [repr(x) if x == x else "" for x in map(float, v)],
           int: lambda v: list(map(str, map(int, v))), str: list}
_PARSE = {float: lambda s: float(s) if s else math.nan, int: int, str: str}


@contextlib.contextmanager
def _whole_file(path):
    """A text file to write ``path`` through: ``<path>.tmp``, moved onto
    ``path`` once the block ends without an exception."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        yield fh
    os.replace(tmp, path)


def _finite(obj):
    """``obj`` with each non-finite float in it, at any depth, as None."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(path, obj, sort_keys: bool = False) -> None:
    """Write ``obj`` whole as indented strict JSON (RFC 8259): non-finite
    floats as null, other values JSON cannot hold as their ``str``."""
    with _whole_file(path) as fh:
        json.dump(_finite(obj), fh, indent=2, sort_keys=sort_keys,
                  default=str, allow_nan=False)


def write_table(path, table: dict, blocks, append: bool = False) -> None:
    """Write ``blocks`` of rows, each block given column by column.

    A block holds one column per table column: lists, ranges or numpy
    arrays, all of one length. The table is written whole, header first,
    unless ``append`` adds rows to an existing table in place.
    """
    formats = [_FORMAT[kind] for kind in table.values()]
    with (open(path, "a", encoding="utf-8", newline="") if append
          else _whole_file(path)) as fh:
        if not append:
            fh.write(",".join(table) + "\n")
        for block in blocks:
            columns = [fmt(col.tolist() if hasattr(col, "tolist") else col)
                       for fmt, col in zip(formats, block)]
            if len(block) != len(table) or len(set(map(len, columns))) > 1:
                raise ValueError("a block needs one column per table column, "
                                 "all of one length")
            fh.writelines(f"{row}\n" for row in map(",".join, zip(*columns)))


def _parse(path, table: dict, lines: list) -> list[tuple]:
    header = lines[0].rstrip("\r").split(",") if lines else []
    if [h.strip() for h in header] != list(table):
        raise ConfigError(f"{path}: line 1: bad header {','.join(header)!r}, "
                          f"expected {','.join(table)!r}")
    parsers = [_PARSE[kind] for kind in table.values()]
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        fields = line.rstrip("\r").split(",")
        if fields == [""]:
            continue
        try:
            if len(fields) != len(parsers):
                raise ValueError(f"{len(fields)} fields, expected "
                                 f"{len(parsers)}")
            rows.append(tuple(p(f) for p, f in zip(parsers, fields)))
        except ValueError as exc:
            raise ConfigError(f"{path}: line {ln}: {exc}") from exc
    return rows


def _text(path, what: str) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start} is not UTF-8") from exc


def _lines(path) -> list:
    return _text(path, "input file").split("\n")


def read_json(path, what: str):
    """The value of a JSON file; ``what`` names the file in the error when
    it is missing or does not parse."""
    text = _text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid {what} {path}: {exc}") from exc


def sha256(path) -> str:
    """Hex sha256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def read_table(path, table: dict) -> list[tuple]:
    """The rows of a table as tuples of typed values, in file order.

    Blank lines are skipped and "\\r\\n" line ends are read as "\\n".
    """
    return _parse(path, table, _lines(path))


def read_appended(path, table: dict) -> list[tuple]:
    """The rows of an append-only table: a last line without its line end,
    cut off by a crash while it was appended, is dropped."""
    return _parse(path, table, _lines(path)[:-1])
