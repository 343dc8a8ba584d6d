"""Persistence for extreme-point sets and a checksummed result cache.

Rational coordinates travel as reduced "p/q" strings with no whitespace
(integers omit the "/q" part), which keeps files diff-friendly and
language-neutral while staying exactly lossless. Extreme sets serialize to
either a JSON document or a CSV table with a leading comment line carrying
the same metadata. Every file records a format version so that a future
change of index convention cannot silently corrupt comparisons.

Extreme sets go between files and the integer arrays of ExtremeSet
without a FormVector, through one row codec that the enum resume file
shares: format_rows formats each distinct (u_i, d) cell once, and
parse_rows parses each distinct cell string once. format_rational and
parse_rational are the per-value steps inside it, uncached; outside it
only single values (--point, --lambda) go through them. A row whose
reduced denominator or numerator does not fit int64 is refused with a
ValueError naming the point.

The cache stores opaque byte payloads under deterministic keys, next to a
SHA-256 sidecar. Writes go through a temporary file plus ``os.replace`` so
concurrent readers never observe a torn entry, and a checksum mismatch is
treated as a miss rather than an error.

Only the extreme-set functions (format_rows, parse_rows, write_extreme_set,
read_extreme_set) work on arrays, and they import numpy and search when
called. The cache and the single-value parsers load nothing heavy, so
verify, --help and JSON cache hits run without numpy.
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
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .search import ExtremeSet

FILE_FORMAT_VERSION = 1

_RATIONAL_PATTERN = re.compile(r"-?\d+(/\d+)?\Z")
_INTEGER_PATTERN = re.compile(r"-?\d+\Z")
_KEY_TOKEN_PATTERN = re.compile(r"[^A-Za-z0-9_.+-]")


# ---------------------------------------------------------------------------
# rational wire format
# ---------------------------------------------------------------------------

def format_rational(value: Fraction) -> str:
    """Render a rational as a reduced "p/q" string ("p" when q = 1)."""

    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" string strictly: no whitespace, signs, or decimals."""

    if not isinstance(text, str) or _RATIONAL_PATTERN.fullmatch(text) is None:
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

def format_rows(dens, nums) -> list:
    """Cell strings of the rows nums[i] / dens[i], in order, duplicates kept.

    Each distinct (u_i, d) is formatted once: the rows are grouped by a
    set of their denominators, and a block's cells index the sorted table
    of its distinct numerators. np.unique would import numpy.ma.
    """

    import numpy as np

    dens = np.asarray(dens, dtype=np.int64)
    nums = np.asarray(nums, dtype=np.int64)
    cells = np.empty(nums.shape, dtype=object)
    for d in set(dens.tolist()):
        rows = dens == d
        block = nums[rows]
        ordered = np.sort(block, axis=None)
        values = ordered[np.concatenate(([True],
                                         ordered[1:] != ordered[:-1]))]
        table = np.array([format_rational(Fraction(x, d))
                          for x in values.tolist()], dtype=object)
        cells[rows] = table[values.searchsorted(block)]
    return cells.tolist()


def parse_rows(path, width, rows) -> tuple:
    """Rows of cell strings to (dens, nums) int64 arrays, in order.

    Each distinct cell string is parsed once. When the common denominator
    L of all cells and every numerator over L fit int64, the rows are
    reduced in numpy; otherwise row by row in Python integers, where a row
    that does not fit int64 (or holds a bad cell) raises ValueError naming
    its point.
    """

    import numpy as np

    from .search import int64_row

    for index, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise ValueError(f"{path}: point {index} is not a list of "
                             f"{width} coordinates")
    try:
        values = {text: parse_rational(text)
                  for text in set(chain.from_iterable(rows))}
    except (TypeError, ValueError):  # TypeError: an unhashable cell
        values = None
    if values is not None:
        lcm = math.lcm(*(v.denominator for v in values.values()))
        scaled = [v.numerator * (lcm // v.denominator)
                  for v in values.values()]
        if not (lcm >> 63 or any(abs(x) >> 63 for x in scaled)):
            ids = dict(zip(values, range(len(values))))
            common = np.array(scaled, dtype=np.int64)[
                np.fromiter(map(ids.__getitem__, chain.from_iterable(rows)),
                            dtype=np.int64, count=len(rows) * width)
            ].reshape(len(rows), width)
            g = np.gcd(np.gcd.reduce(common, axis=1), lcm)
            return lcm // g, common // g[:, None]
    pairs = []
    for index, row in enumerate(rows):
        try:
            pairs.append(int64_row(parse_rational(cell) for cell in row))
        except ValueError as err:
            raise ValueError(f"{path}: point {index}: {err}") from None
    return (np.array([d for d, _ in pairs], dtype=np.int64),
            np.array([u for _, u in pairs], dtype=np.int64).reshape(
                len(pairs), width))


def write_extreme_set(path, extreme_set: ExtremeSet, fmt: str = "json") -> None:
    """Write an ExtremeSet to ``path`` as JSON or CSV (lossless).

    The JSON text is assembled by hand, byte for byte the output of
    ``json.dumps(payload, indent=1)``; cells hold only digits, "-" and
    "/", which JSON and CSV both leave unescaped and unquoted.
    """

    path = Path(path)
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format: {fmt!r} (expected json or csv)")
    rows = format_rows(extreme_set.dens, extreme_set.nums)
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
    """Read an ExtremeSet file, validating metadata types and contents.

    A ValueError names any field of the wrong type or out of range, and
    the first point that does not strictly follow its predecessor: the
    ExtremeSet constructor trusts its rows to be sorted and distinct.
    """

    from .search import ExtremeSet

    path = Path(path)
    text = path.read_text()
    read = _read_json if text.lstrip()[:1] == "{" else _read_csv
    version, m, n, count, rows, complete = read(text, path)
    for name, value in (("format-version", version), ("m", m), ("n", n),
                        ("count", count)):
        if type(value) is not int:  # bool is a subclass of int
            raise ValueError(f"{path}: field {name!r} must be an integer")
    if m < 1 or n < 1:
        raise ValueError(f"{path}: fields 'm' and 'n' must be at least 1")
    if not isinstance(rows, list):
        raise ValueError(f"{path}: field 'points' must be a list")
    if not isinstance(complete, bool):
        raise ValueError(f"{path}: field 'complete' must be a boolean")
    if version != FILE_FORMAT_VERSION:
        raise ValueError(f"{path}: format-version {version} unsupported "
                         f"(expected {FILE_FORMAT_VERSION})")
    if count != len(rows):
        raise ValueError(f"{path}: count field says {count} "
                         f"but {len(rows)} points present")
    dens, nums = parse_rows(path, n ** m, rows)
    del text, rows  # the cells are parsed; free them before the check
    index = _first_unordered_row(dens, nums)
    if index is not None:
        raise ValueError(f"{path}: point {index} does not strictly follow "
                         f"point {index - 1}")
    return ExtremeSet(m, n, dens, nums, complete=complete)


def _first_unordered_row(dens, nums):
    """Index of the first row not above its predecessor, or None.

    Rows are compared as rational vectors: as numerators over their
    common denominator, in int64 when every such numerator stays below
    2^62 (so a difference of two fits), else on search.exact_keys.
    """

    import numpy as np

    if len(dens) < 2:
        return None
    lcm = math.lcm(*set(dens.tolist()))
    if lcm < 1 << 62 and int(np.abs(nums).max()) * (
            lcm // int(dens.min())) < 1 << 62:
        common = nums * (lcm // dens)[:, None]
        step = common[1:] - common[:-1]
        lead = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
        unordered = np.flatnonzero(lead <= 0)
        return int(unordered[0]) + 1 if len(unordered) else None
    from .search import exact_keys

    keys = exact_keys(zip(dens.tolist(), map(tuple, nums.tolist())))
    return next((i for i in range(1, len(keys)) if keys[i] <= keys[i - 1]),
                None)


def _read_json(text: str, path: Path) -> tuple:
    """(version, m, n, count, rows, complete) of a JSON extreme-set file."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON: {err}") from None
    required = ("format-version", "m", "n", "count", "points")
    for key in required:
        if key not in payload:
            raise ValueError(f"{path}: missing field {key!r}")
    return (*(payload[key] for key in required),
            payload.get("complete", True))


def _read_csv(text: str, path: Path) -> tuple:
    """(version, m, n, count, rows, complete) of a CSV extreme-set file."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# extremeforms"):
        raise ValueError(f"{path}: missing metadata comment line")
    meta = {}
    for token in lines[0][1:].split():
        if "=" in token:
            key, _, value = token.partition("=")
            meta[key] = value
    required = ("format-version", "m", "n", "count")
    for key in required:
        if key not in meta:
            raise ValueError(f"{path}: metadata missing {key!r}")
        if _INTEGER_PATTERN.fullmatch(meta[key]) is None:
            raise ValueError(f"{path}: field {key!r} must be an integer")
    complete = meta.get("complete", "true")
    if complete not in ("true", "false"):
        raise ValueError(f"{path}: field 'complete' must be true or false")
    return (*(int(meta[key]) for key in required),
            [row for row in csv.reader(lines[1:]) if row],
            complete == "true")


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
