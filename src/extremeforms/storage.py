"""Persistence for extreme-point sets and a checksummed result cache.

Rational coordinates travel as reduced "p/q" strings with no whitespace
(integers omit the "/q" part), which keeps files diff-friendly and
language-neutral while staying exactly lossless. Extreme sets serialize to
either a JSON document or a CSV table with a leading comment line carrying
the same metadata. Every file records a format version so that a future
change of index convention cannot silently corrupt comparisons.

Extreme sets go between files and the integer arrays of ExtremeSet
without a FormVector. format_rows formats each distinct (u_i, d) cell
once, and parse_rows parses each distinct cell string once; the enum
resume file shares both. format_rational and parse_rational are the
per-value steps inside them, uncached; outside them only single values
(--point, --lambda) go through them. A row whose reduced denominator or
numerator does not fit int64 is refused with a ValueError naming the point.

The JSON layout is byte for byte json.dumps(payload, indent=1), built from
the _JSON_* pieces below. write_extreme_set writes the suffixed cells one
block of rows at a time, and read_extreme_set first tries _read_writer_json, a
numpy reader that accepts only a file those same pieces spell out exactly,
cell by cell in canonical form and rows in strict order, checked one block
of rows at a time too (search.row_blocks). Any other file (another JSON
layout, a long cell, a fault of any kind, and every CSV file) goes through
json.loads or the csv module, then parse_rows, which give every error
message; the fast reader never raises.

The cache stores opaque byte payloads under deterministic keys, next to a
SHA-256 sidecar. Writes go through a temporary file plus ``os.replace`` so
concurrent readers never observe a torn entry, and a checksum mismatch is
treated as a miss rather than an error.

Only the extreme-set functions (format_rows, parse_rows, write_extreme_set,
read_extreme_set and their helpers) work on arrays, and they import numpy
and search when called. The cache and the single-value parsers load
nothing heavy, so verify, --help and JSON cache hits run without numpy.
"""

from __future__ import annotations

import csv
import hashlib
import io
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

# The JSON artifact, as write_extreme_set writes it and _read_writer_json
# checks it: _JSON_HEAD, then "]" for no points or _JSON_OPEN, the cells
# with _JSON_CELL_SEP between two cells of a row and _JSON_ROW_SEP between
# rows, and _JSON_CLOSE; then _JSON_INCOMPLETE for a partial set, and
# _JSON_END. The separators hold the quotes around the cells.
_JSON_HEAD = ('{{\n "format-version": {version},\n "m": {m},\n "n": {n},\n'
              ' "count": {count},\n "points": [')
_JSON_OPEN = '\n  [\n   "'
_JSON_CELL_SEP = '",\n   "'
_JSON_ROW_SEP = '"\n  ],\n  [\n   "'
_JSON_CLOSE = '"\n  ]\n ]'
_JSON_INCOMPLETE = ',\n "complete": false'
_JSON_END = "\n}\n"
# the four integers of a head, in order; "format-version", "m", "n" and
# "count" hold no digit
_HEAD_NUMBERS = re.compile(rb"\D*(\d{1,18})" * 4)


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

    Each distinct (u_i, d) is formatted once (_suffixed_cells).
    """

    return _suffixed_cells(dens, nums).tolist()


def _suffixed_cells(dens, nums, sep="", row_sep=""):
    """The cells of the rows nums[i] / dens[i], shaped as nums, each
    followed by sep, the last cell of a row by row_sep instead.

    Each distinct (u_i, d) is formatted and suffixed once, found with a
    set and a sort per d: np.unique would import numpy.ma.
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
        index = values.searchsorted(block)
        table = [format_rational(Fraction(x, d)) for x in values.tolist()]
        cells[rows, :-1] = np.array([c + sep for c in table],
                                    dtype=object)[index[:, :-1]]
        cells[rows, -1] = np.array([c + row_sep for c in table],
                                   dtype=object)[index[:, -1]]
    return cells


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
        ids = dict(zip(values, range(len(values))))
        reduced = _reduced_rows(list(values.values()), np.fromiter(
            map(ids.__getitem__, chain.from_iterable(rows)), dtype=np.int64,
            count=len(rows) * width).reshape(len(rows), width))
        if reduced is not None:
            return reduced
    pairs = []
    for index, row in enumerate(rows):
        try:
            pairs.append(int64_row(parse_rational(cell) for cell in row))
        except ValueError as err:
            raise ValueError(f"{path}: point {index}: {err}") from None
    return (np.array([d for d, _ in pairs], dtype=np.int64),
            np.array([u for _, u in pairs], dtype=np.int64).reshape(
                len(pairs), width))


def _reduced_rows(values, index):
    """(dens, nums) of the rows values[index], one row of index per row of
    Fractions, gcd-reduced over the lcm L of all the denominators in
    values; None unless L and every numerator over L fit int64."""

    import numpy as np

    lcm = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (lcm // v.denominator) for v in values]
    if lcm >> 63 or any(abs(x) >> 63 for x in scaled):
        return None
    common = np.array(scaled, dtype=np.int64)[index]
    g = np.gcd(np.gcd.reduce(common, axis=1), lcm)
    return lcm // g, common // g[:, None]


def write_extreme_set(path, extreme_set: ExtremeSet, fmt: str = "json") -> None:
    """Write an ExtremeSet to ``path`` as JSON or CSV (lossless).

    The JSON text is assembled from the _JSON_* pieces, byte for byte the
    output of ``json.dumps(payload, indent=1)``, and the CSV text as
    ``csv.writer`` writes it; cells hold only digits, "-" and "/", which
    JSON and CSV both leave unescaped and unquoted. The suffixed cells
    (_suffixed_cells) go through one handle, a block of rows at a time.
    """

    from .search import row_blocks

    path = Path(path)
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format: {fmt!r} (expected json or csv)")
    m, n, count = extreme_set.m, extreme_set.n, len(extreme_set)
    if fmt == "json":
        head = _JSON_HEAD.format(version=FILE_FORMAT_VERSION, m=m, n=n,
                                 count=count) + (_JSON_OPEN if count else "]")
        tail = (_JSON_CLOSE if count else "") + (
            "" if extreme_set.complete else _JSON_INCOMPLETE) + _JSON_END
        seps = (_JSON_CELL_SEP, _JSON_ROW_SEP)
    else:
        head = (f"# extremeforms format-version={FILE_FORMAT_VERSION}"
                f" m={m} n={n} count={count}"
                + ("" if extreme_set.complete else " complete=false") + "\n")
        tail, seps = "", (",", "\r\n")
    with path.open("w", newline="" if fmt == "csv" else None) as handle:
        handle.write(head)
        for rows in row_blocks(count):
            cells = _suffixed_cells(extreme_set.dens[rows],
                                    extreme_set.nums[rows], *seps)
            if fmt == "json" and rows.stop >= count:
                cells[-1, -1] = cells[-1, -1][:-len(_JSON_ROW_SEP)]
            handle.write("".join(cells.ravel().tolist()))
        handle.write(tail)


def read_extreme_set(path, data: bytes | None = None) -> ExtremeSet:
    """Read an ExtremeSet file, validating metadata types and contents.

    data, when given, is the file's content, and path only names it in
    errors. A JSON file exactly as write_extreme_set writes it is read by
    _read_writer_json; any other file is decoded as Path.read_text would
    and parsed by json.loads or the csv module, then parse_rows. A
    ValueError names any field of the wrong type or out of range, and the
    first point that does not strictly follow its predecessor: the
    ExtremeSet constructor trusts its rows to be sorted and distinct.
    """

    from .search import ExtremeSet

    path = Path(path)
    if data is None:
        data = path.read_bytes()
    fast = _read_writer_json(data)
    if fast is not None:
        m, n, dens, nums, complete = fast
        return ExtremeSet(m, n, dens, nums, complete=complete)
    text = io.TextIOWrapper(io.BytesIO(data)).read()
    del data
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


def _read_writer_json(data: bytes):
    """(m, n, dens, nums, complete) of a file write_extreme_set would
    write byte for byte, else None; never raises.

    Every byte is checked. The head and the tail must equal the _JSON_*
    pieces for the counts they hold. The rows go in blocks (row_blocks);
    a block's quotes are found in a window from the previous block's end
    that holds them all if no cell is longer than 7 bytes. Neighbouring
    quotes, across blocks too, must be separated by exactly _JSON_CELL_SEP
    or, at a row's end, _JSON_ROW_SEP, and the last one must begin the
    tail. A cell and its length pack into one uint64 key; a block's
    distinct keys are parsed once each, and each must read back as itself
    through format_rational. The rows of a block are then reduced as
    parse_rows reduces them (_reduced_rows), over the lcm of the block's
    denominators, and must strictly ascend from the previous block's last
    row (_first_unordered_row). A file that fails any of these checks,
    including every file the general path would refuse, gives None.
    """

    import numpy as np

    from .search import row_blocks

    numbers = _HEAD_NUMBERS.match(data[:256])
    if numbers is None:
        return None
    # the version is checked with the whole head below; the bounds keep
    # n ** m cheap, and other sizes take the general path
    m, n, count = map(int, numbers.groups()[1:])
    if not (1 <= m <= 64 and 1 <= n <= 64 and count >= 1):
        return None
    head = (_JSON_HEAD.format(version=FILE_FORMAT_VERSION, m=m, n=n,
                              count=count) + _JSON_OPEN).encode()
    for complete in (True, False):
        tail = (_JSON_CLOSE + ("" if complete else _JSON_INCOMPLETE)
                + _JSON_END).encode()
        if data.endswith(tail):
            break
    else:
        return None
    if not data.startswith(head):
        return None
    width = n ** m
    cell_sep, row_sep = _JSON_CELL_SEP.encode(), _JSON_ROW_SEP.encode()
    # the most bytes a row of 7-byte cells spans, quote to quote
    row_span = width * (7 + len(cell_sep)) + len(row_sep)
    buf = np.frombuffer(data, dtype=np.uint8)
    at, last = len(head) - 1, len(data) - len(tail)
    # words[p] is the little-endian uint64 of the 8 bytes from position p
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data,
                       strides=(1,))
    masks = np.array([(1 << 8 * k) - 1 for k in range(8)], dtype=np.uint64)
    values = {}
    dens = np.empty(count, dtype=np.int64)
    nums = np.empty((count, width), dtype=np.int64)
    for rows in row_blocks(count):
        size = len(dens[rows])
        window = buf[at:min(at + size * row_span, last + 1)]
        quotes = np.flatnonzero(window == ord('"'))[:2 * size * width]
        if len(quotes) < 2 * size * width:
            return None
        quotes = (quotes + at).reshape(size, width, 2)
        opens, closes = quotes[..., 0], quotes[..., 1]
        ends, starts = closes[:-1, -1], opens[1:, 0]
        if rows.start:  # the row separator from the previous block
            ends, starts = np.append(at - 1, ends), opens[:, 0]
        if not (_separated(words, closes[:, :-1], opens[:, 1:], cell_sep)
                and _separated(words, ends, starts, row_sep)):
            return None
        at = int(closes[-1, -1]) + 1
        lengths = closes - opens - 1
        if lengths.max() > 7:  # an empty cell fails _canonical_cell
            return None
        keys = (words[opens + 1] & masks[lengths]) | (
            lengths.astype(np.uint64) << np.uint64(56))
        ordered = np.sort(keys, axis=None)
        distinct = ordered[np.concatenate(([True],
                                           ordered[1:] != ordered[:-1]))]
        distinct_keys = distinct.tolist()
        try:
            values.update((key, _canonical_cell(key))
                          for key in distinct_keys if key not in values)
        except ValueError:
            return None
        reduced = _reduced_rows([values[key] for key in distinct_keys],
                                distinct.searchsorted(keys))
        if reduced is None:
            return None
        dens[rows], nums[rows] = reduced
        since = slice(max(rows.start - 1, 0), rows.stop)
        if _first_unordered_row(dens[since], nums[since]) is not None:
            return None
    if at != last + 1:
        return None
    return m, n, dens, nums, complete


def _separated(words, closes, opens, sep: bytes) -> bool:
    """Whether sep, quotes included, runs from each closing quote to the
    opening quote paired with it; words[p] holds the 8 bytes from p."""

    import numpy as np

    if not (opens - closes == len(sep) - 1).all():
        return False
    for at in range(0, len(sep), 8):
        chunk = sep[at:at + 8]
        mask = np.uint64((1 << 8 * len(chunk)) - 1)
        if not ((words[closes + at] & mask)
                == np.uint64(int.from_bytes(chunk, "little"))).all():
            return False
    return True


def _canonical_cell(key: int) -> Fraction:
    """The rational a packed cell key spells, or ValueError unless the
    cell is ASCII and exactly format_rational of its value."""

    length = key >> 56
    text = key.to_bytes(8, "little")[:length].decode("ascii")
    value = parse_rational(text)
    if format_rational(value) != text:
        raise ValueError(f"not canonical: {text!r}")
    return value


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
