"""Persistence for extreme-point sets and a checksummed result cache.

Rational coordinates travel as reduced "p/q" strings with no whitespace
(integers omit the "/q" part), which keeps files diff-friendly and
language-neutral while staying exactly lossless. Extreme sets serialize to
either a JSON document or a CSV table with a leading comment line carrying
the same metadata. Every file records a format version so that a future
change of index convention cannot silently corrupt comparisons.

Extreme sets go between files and the integer arrays of ExtremeSet
without a FormVector: the writer formats each distinct (u_i, d) cell once
and joins the rows by hand, and the reader parses each distinct cell
string once. Fractions appear only in that per-value step, in
format_rational and parse_rational (cached, validated values only), which
the resume file and parse_point_list use as well. A row whose reduced
denominator or numerator does not fit int64 is refused with a ValueError
naming the point.

The cache stores opaque byte payloads under deterministic keys, next to a
SHA-256 sidecar. Writes go through a temporary file plus ``os.replace`` so
concurrent readers never observe a torn entry, and a checksum mismatch is
treated as a miss rather than an error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import uuid
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .search import ExtremeSet, int64_row

FILE_FORMAT_VERSION = 1

_RATIONAL_PATTERN = re.compile(r"-?\d+(/\d+)?\Z")
_KEY_TOKEN_PATTERN = re.compile(r"[^A-Za-z0-9_.+-]")


# ---------------------------------------------------------------------------
# rational wire format
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 16)
def format_rational(value: Fraction) -> str:
    """Render a rational as a reduced "p/q" string ("p" when q = 1)."""

    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" string strictly: no whitespace, signs, or decimals."""

    if not isinstance(text, str):  # checked first: lists are unhashable
        raise ValueError(f"not a p/q rational: {text!r}")
    return _parse_text(text)


@lru_cache(maxsize=1 << 16)
def _parse_text(text: str) -> Fraction:
    if _RATIONAL_PATTERN.fullmatch(text) is None:
        raise ValueError(f"not a p/q rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational: {text!r}") from None


def parse_point_list(text: str) -> tuple:
    """Parse a comma-separated coefficient list such as "1/2,1/2,0,0".

    Errors carry the one-based position of the offending entry so CLI
    users can locate the problem inside long coordinate strings.
    """

    values = []
    for position, chunk in enumerate(text.split(","), start=1):
        try:
            values.append(parse_rational(chunk))
        except ValueError as err:
            raise ValueError(f"entry {position}: {err}") from None
    return tuple(values)


# ---------------------------------------------------------------------------
# extreme-set files
# ---------------------------------------------------------------------------

def _cell_rows(extreme_set: ExtremeSet) -> list:
    """Cell strings of every row; each distinct (u_i, d) is formatted once."""

    dens, nums = extreme_set.dens, extreme_set.nums
    cells = np.empty(nums.shape, dtype=object)
    for d in np.unique(dens).tolist():
        rows = dens == d
        values, inverse = np.unique(nums[rows], return_inverse=True)
        table = np.array([format_rational(Fraction(x, d))
                          for x in values.tolist()], dtype=object)
        cells[rows] = table[inverse].reshape(-1, nums.shape[1])
    return cells.tolist()


def write_extreme_set(path, extreme_set: ExtremeSet, fmt: str = "json") -> None:
    """Write an ExtremeSet to ``path`` as JSON or CSV (lossless).

    The JSON text is assembled by hand, byte for byte the output of
    ``json.dumps(payload, indent=1)``; cells hold only digits, "-" and
    "/", which JSON and CSV both leave unescaped and unquoted.
    """

    path = Path(path)
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format: {fmt!r} (expected json or csv)")
    rows = _cell_rows(extreme_set)
    if fmt == "json":
        fields = [f' "format-version": {FILE_FORMAT_VERSION}',
                  f' "m": {extreme_set.m}',
                  f' "n": {extreme_set.n}',
                  f' "count": {len(rows)}']
        if rows:
            fields.append(' "points": [\n' + ",\n".join(
                '  [\n   "' + '",\n   "'.join(row) + '"\n  ]'
                for row in rows) + "\n ]")
        else:
            fields.append(' "points": []')
        if not extreme_set.complete:
            fields.append(' "complete": false')
        path.write_text("{\n" + ",\n".join(fields) + "\n}\n")
    else:
        meta = (f"# extremeforms format-version={FILE_FORMAT_VERSION}"
                f" m={extreme_set.m} n={extreme_set.n}"
                f" count={len(rows)}")
        if not extreme_set.complete:
            meta += " complete=false"
        body = "".join(",".join(row) + "\r\n" for row in rows)
        path.write_text(meta + "\n" + body, newline="")


def read_extreme_set(path) -> ExtremeSet:
    """Read an ExtremeSet file, validating metadata against the contents."""

    path = Path(path)
    text = path.read_text()
    if text.lstrip()[:1] == "{":
        return _read_json(text, path)
    return _read_csv(text, path)


def _read_json(text: str, path: Path) -> ExtremeSet:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON: {err}") from None
    required = ("format-version", "m", "n", "count", "points")
    for key in required:
        if key not in payload:
            raise ValueError(f"{path}: missing field {key!r}")
    return _assemble(
        path,
        version=payload["format-version"],
        m=payload["m"],
        n=payload["n"],
        count=payload["count"],
        rows=payload["points"],
        complete=payload.get("complete", True),
    )


def _read_csv(text: str, path: Path) -> ExtremeSet:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# extremeforms"):
        raise ValueError(f"{path}: missing metadata comment line")
    meta = {}
    for token in lines[0][1:].split():
        if "=" in token:
            key, _, value = token.partition("=")
            meta[key] = value
    for key in ("format-version", "m", "n", "count"):
        if key not in meta:
            raise ValueError(f"{path}: metadata missing {key!r}")
    rows = [row for row in csv.reader(lines[1:]) if row]
    return _assemble(
        path,
        version=int(meta["format-version"]),
        m=int(meta["m"]),
        n=int(meta["n"]),
        count=int(meta["count"]),
        rows=rows,
        complete=meta.get("complete", "true") != "false",
    )


def _assemble(path, version, m, n, count, rows, complete) -> ExtremeSet:
    """Rows of cell strings to an ExtremeSet, in file order.

    Each distinct cell string is parsed once. When the common denominator
    L of all cells and every numerator over L fit int64, the rows are
    reduced in numpy; otherwise row by row in Python integers, where a row
    that does not fit int64 raises ValueError naming its point.
    """

    if version != FILE_FORMAT_VERSION:
        raise ValueError(f"{path}: format-version {version} unsupported "
                         f"(expected {FILE_FORMAT_VERSION})")
    if count != len(rows):
        raise ValueError(f"{path}: count field says {count} "
                         f"but {len(rows)} points present")
    width = n ** m
    for index, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: point {index} has {len(row)} "
                             f"coordinates, expected {width}")
    try:
        values = {text: parse_rational(text)
                  for text in set(chain.from_iterable(rows))}
    except (TypeError, ValueError):  # TypeError: an unhashable cell
        values = None
    if values is None:
        return _assemble_rows(path, m, n, rows, complete)
    lcm = math.lcm(*(v.denominator for v in values.values()))
    scaled = [v.numerator * (lcm // v.denominator) for v in values.values()]
    if (lcm >> 63) or any(abs(x) >> 63 for x in scaled):
        return _assemble_rows(path, m, n, rows, complete)
    ids = dict(zip(values, range(len(values))))
    common = np.array(scaled, dtype=np.int64)[
        np.fromiter(map(ids.__getitem__, chain.from_iterable(rows)),
                    dtype=np.int64, count=len(rows) * width)
    ].reshape(len(rows), width)
    g = np.gcd(np.gcd.reduce(common, axis=1), lcm)
    return ExtremeSet(m, n, lcm // g, common // g[:, None],
                      complete=bool(complete))


def _assemble_rows(path, m, n, rows, complete) -> ExtremeSet:
    pairs = []
    for index, row in enumerate(rows):
        try:
            pairs.append(int64_row(parse_rational(cell) for cell in row))
        except ValueError as err:
            raise ValueError(f"{path}: point {index}: {err}") from None
    return ExtremeSet(m, n, [d for d, _ in pairs], [u for _, u in pairs],
                      complete=bool(complete))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def default_cache_dir() -> Path:
    """Cache directory: $EXTREMEFORMS_CACHE or ~/.cache/extremeforms."""

    override = os.environ.get("EXTREMEFORMS_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "extremeforms"


def cache_key(command: str, m: int, n: int, extra: dict | None = None) -> str:
    """Deterministic, filename-safe key for a cached run.

    The key carries the file format and the package version, so a cached
    result never outlives a release that changes the algorithm.
    """

    parts = [command, f"m{m}", f"n{n}"]
    for name in sorted(extra or {}):
        parts.append(f"{name}{extra[name]}")
    parts.append(f"v{FILE_FORMAT_VERSION}")
    parts.append(f"pkg{__version__}")
    return "-".join(_KEY_TOKEN_PATTERN.sub("_", part) for part in parts)


def _sidecar(entry: Path) -> Path:
    return entry.with_name(entry.name + ".sha256")


def _atomic_write(target: Path, data: bytes) -> None:
    scratch = target.with_name(f".{target.name}.{uuid.uuid4().hex}.part")
    scratch.write_bytes(data)
    os.replace(scratch, target)


def cache_store(cache_dir, key: str, data: bytes) -> Path:
    """Store ``data`` under ``key`` with a SHA-256 sidecar; returns the path."""

    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    entry = cache_dir / key
    _atomic_write(entry, data)
    digest = hashlib.sha256(data).hexdigest()
    _atomic_write(_sidecar(entry), digest.encode("ascii"))
    return entry


def cache_load(cache_dir, key: str) -> bytes | None:
    """Load ``key`` if present and intact; any corruption reads as a miss."""

    entry = Path(cache_dir) / key
    sidecar = _sidecar(entry)
    try:
        data = entry.read_bytes()
        expected = sidecar.read_text().strip()
    except OSError:
        return None
    if hashlib.sha256(data).hexdigest() != expected:
        return None
    return data
