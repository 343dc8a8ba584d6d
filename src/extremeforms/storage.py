"""Persistence for extreme-point sets and a checksummed result cache.

Rational coordinates travel as reduced "p/q" strings with no whitespace
(integers omit the "/q" part), which keeps files diff-friendly and
language-neutral while staying exactly lossless. Extreme sets serialize to
either a JSON document or a CSV table with a leading comment line carrying
the same metadata. Every file records a format version so that a future
change of index convention cannot silently corrupt comparisons.

Extreme sets go between files and the integer arrays of ExtremeSet
without a FormVector. format_rows formats each distinct (u_i, d) cell
once, and parse_rows parses each distinct cell string once, both in
Python ints; the enum resume file shares both with the artifacts.
format_rational and parse_rational are the per-value steps inside them,
uncached. parse_rational and parse_point_list live in core, so the
single values (--point, --lambda) are parsed without this module. A row
whose reduced denominator or numerator does not fit int64 is refused
with a ValueError naming the point.

The JSON layout is byte for byte json.dumps(payload, indent=1), built from
the _JSON_* pieces below. write_extreme_set joins the cells of a set of at
most one block of rows (search.BLOCK_ROWS) in Python, and writes a larger
set's suffixed cells one block of rows at a time, in numpy.
read_extreme_set reads the count in the head first. A file past one
block is first tried by _read_writer_json, a numpy reader that accepts
only a file those pieces spell out exactly, checked one block of rows at
a time (search.row_blocks), and never raises; it fills nums in int8
unless some entry does not fit. Every other file, at any size (one of at
most one block, another JSON layout, a long cell for the numpy reader, a
fault of any kind, and every CSV file), goes through json.loads or the
csv module (streamed), then one Python pass over its rows (parse_rows),
which gives every error message. Each reader checks row order in the
pass that reads the rows and hands its flat arrays to ExtremeSet, which
narrows nums to int8 when it can and keeps an array without a copy when
its type is right.

The cache stores opaque byte payloads under deterministic keys, next to a
SHA-256 sidecar. Writes go through a temporary file plus ``os.replace`` so
concurrent readers never observe a torn entry, and a checksum mismatch is
treated as a miss rather than an error. A payload is bytes, or for an
extreme set a FilePayload, which is never held in memory whole:
cache_store copies the written artifact into the scratch file and hashes
the copy in a streamed pass, and cache_load with a target copies the
entry out to a file of the caller's and checks the copy, which
read_extreme_set then reads.

Only the extreme-set functions (format_rows, parse_rows, write_extreme_set,
read_extreme_set and their helpers) work on arrays, and they import
search when called, and numpy only for a set past one block of rows: the
writer and _read_writer_json. The cache loads nothing heavy, so --help,
JSON cache hits, the enum resume rows and every extreme set of at most
one block, fresh or from the cache, run without numpy, and verify loads
neither numpy nor this module.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import mmap
import os
import re
import shutil
from array import array
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
# the single-value parsers live in core, which verify loads without this
# module; they are imported here for the readers and under their old home
from .core import parse_point_list, parse_rational  # noqa: F401

if TYPE_CHECKING:
    from .search import ExtremeSet

FILE_FORMAT_VERSION = 1

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


# ---------------------------------------------------------------------------
# extreme-set files
# ---------------------------------------------------------------------------

def format_rows(dens, nums) -> list:
    """Cell strings of the rows nums[i] / dens[i], in order, duplicates kept.

    Each distinct (u_i, d) is formatted once (_cell_rows).
    """

    return _cell_rows(zip(dens, nums))


def _cell_rows(pairs) -> list:
    """The cells of the (d, u) rows pairs as lists of strings, each
    distinct (u_i, d) formatted once."""

    table = {}
    rows = []
    for d, u in pairs:
        row = []
        for x in u:
            cell = table.get((x, d))
            if cell is None:
                cell = table[x, d] = format_rational(Fraction(x, d))
            row.append(cell)
        rows.append(row)
    return rows


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


def parse_rows(path, width, rows, count=None) -> tuple:
    """(dens, nums, unordered) of the rows of width cell strings that the
    iterable rows yields, in one pass in Python ints: flat 'q' arrays,
    each row gcd-reduced over the lcm of its denominators (int64_row),
    each distinct cell parsed once, and the index of the first row not
    above the one before it (_ascends), or None.

    The pass stops parsing at the first fault. A ValueError then names, in
    this precedence: a count, when given, that differs from the number of
    rows; the first row that is not a list of width cells; the first row
    that holds a bad cell or does not fit int64.
    """

    from .search import int64_row

    values = {}

    def value(cell):
        try:
            return values[cell]
        except KeyError:
            found = values[cell] = parse_rational(cell)
            return found
        except TypeError:  # an unhashable cell, which parse_rational names
            return parse_rational(cell)

    dens, nums = array("q"), array("q")
    found, misshapen, bad, unordered, previous = 0, None, None, None, None
    for found, row in enumerate(rows, start=1):
        if not isinstance(row, list) or len(row) != width:
            if misshapen is None:
                misshapen = found - 1
        elif misshapen is None and bad is None:
            try:
                d, u = int64_row(map(value, row))
            except ValueError as err:
                bad = f"{path}: point {found - 1}: {err}"
            else:
                if unordered is None and previous is not None \
                        and not _ascends(previous, (d, u)):
                    unordered = found - 1
                previous = d, u
                dens.append(d)
                nums.extend(u)
    if count is not None and count != found:
        raise ValueError(f"{path}: count field says {count} "
                         f"but {found} points present")
    if misshapen is not None:
        raise ValueError(f"{path}: point {misshapen} is not a list of "
                         f"{width} coordinates")
    if bad is not None:
        raise ValueError(bad)
    return dens, nums, unordered


def _ascends(previous, row) -> bool:
    """Whether row (d, u) is above previous as a rational vector u / d."""
    (d, u), (e, w) = previous, row
    return u < w if d == e else [x * e for x in u] < [x * d for x in w]


def write_extreme_set(path, extreme_set: ExtremeSet, fmt: str = "json") -> None:
    """Write an ExtremeSet to ``path`` as JSON or CSV (lossless).

    The JSON text is assembled from the _JSON_* pieces, byte for byte the
    output of ``json.dumps(payload, indent=1)``, and the CSV text as
    ``csv.writer`` writes it; cells hold only digits, "-" and "/", which
    JSON and CSV both leave unescaped and unquoted. A set of at most one
    block of rows is formatted in Python (_cell_rows) and joined whole;
    a larger one goes through one handle a block of rows at a time, as
    suffixed cells (_suffixed_cells).
    """

    from .search import BLOCK_ROWS, row_blocks

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
        if count <= BLOCK_ROWS:
            lines = [seps[0].join(row)
                     for row in _cell_rows(extreme_set.pairs())]
            handle.write(seps[1].join(lines)
                         + (seps[1] if fmt == "csv" and count else ""))
        else:
            for rows in row_blocks(count):
                cells = _suffixed_cells(extreme_set.dens[rows],
                                        extreme_set.nums[rows], *seps)
                if fmt == "json" and rows.stop >= count:
                    cells[-1, -1] = cells[-1, -1][:-len(_JSON_ROW_SEP)]
                handle.write("".join(cells.ravel().tolist()))
        handle.write(tail)


def read_extreme_set(path, data=None) -> ExtremeSet:
    """Read an ExtremeSet file, validating metadata types and contents.

    data, when given, holds the file's content, as bytes or as a binary
    file open on it, and path only names it in errors; otherwise the file
    at path is opened. The count in the file's head is read first. A file
    past one block of rows (search.BLOCK_ROWS) that is JSON exactly as
    write_extreme_set writes it is read by _read_writer_json, through a
    read-only mmap of the file, or from its bytes read whole when data is
    a handle with no file descriptor to map (an io.BytesIO). Every other
    file, at any size, is streamed from its start by _read_general, which decodes a JSON file whole, in
    one Python pass over its rows. Each reader refuses rows that do not
    strictly ascend in the pass that reads them. A mapped file must not be
    truncated or rewritten while it is read: touching a page past its new
    end kills the process with SIGBUS. The CLI reads only a private copy.
    """

    from .search import BLOCK_ROWS, ExtremeSet

    path = Path(path)
    with contextlib.ExitStack() as stack:
        if data is None:
            data = stack.enter_context(path.open("rb"))
        binary = io.BytesIO(data) if isinstance(data, bytes) else data
        numbers = _HEAD_NUMBERS.match(binary.read(256))
        fields = None
        if numbers is not None and int(numbers[4]) > BLOCK_ROWS:
            # the head matched, so the file is not empty and can be mapped;
            # a handle with no file descriptor to map is read whole
            view = data
            if not isinstance(data, bytes):
                try:
                    view = stack.enter_context(mmap.mmap(
                        data.fileno(), 0, access=mmap.ACCESS_READ))
                except OSError:  # io.UnsupportedOperation is one
                    binary.seek(0)
                    view = binary.read()
            fields = _read_writer_json(view)
        if fields is None:
            binary.seek(0)
            text = io.TextIOWrapper(binary)
            try:
                fields = _read_general(path, text)
            finally:
                text.detach()  # closing binary is its owner's business
    m, n, dens, nums, complete = fields
    return ExtremeSet(m, n, dens, nums, complete=complete)


def _read_general(path, text) -> tuple:
    """(m, n, dens, nums, complete) of any extreme-set file, read from a
    text stream at its start, as Path.read_text would decode it.

    A CSV file is read once, the csv module's rows streamed into one
    Python pass (parse_rows) that counts them, checks their shapes,
    parses their cells and checks their order. Any other file is decoded
    whole and parsed with json.loads, its rows then in the same pass. A
    ValueError names any field of the wrong type or out of range, the
    count, the first row of the wrong shape, the first bad cell, and the
    first point that does not strictly follow its predecessor, in that
    precedence: the ExtremeSet constructor trusts its rows to be sorted
    and distinct.
    """

    head = text.readline()
    is_csv = head.startswith("# extremeforms")
    if is_csv:
        version, m, n, count, complete = _read_csv_head(head, path)
        rows = []
    else:
        head += text.read()
        if head.lstrip()[:1] != "{":
            raise ValueError(f"{path}: missing metadata comment line")
        version, m, n, count, rows, complete = _read_json(head, path)
    del head
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
    width = n ** m
    dens, nums, index = parse_rows(path, width,
                                   _csv_rows(text) if is_csv else rows, count)
    del rows
    if index is not None:
        raise ValueError(f"{path}: point {index} does not strictly follow "
                         f"point {index - 1}")
    return m, n, dens, nums, complete


def _read_writer_json(data):
    """(m, n, dens, nums, complete) of a file write_extreme_set would
    write byte for byte, else None; never raises.

    data is bytes or an mmap; the pages of an mmap are dropped
    (MADV_DONTNEED) as soon as a block of rows has consumed them. Every
    byte is checked. The head and the tail must equal the _JSON_* pieces
    for the counts the head holds, and the file must hold two quotes a
    cell, so a forged count allocates nothing. The rows go in blocks
    (row_blocks); a block's quotes are found in a window from the previous
    block's end that holds them all if no cell is longer than 7 bytes.
    Neighbouring quotes, across blocks too, must be separated by exactly
    _JSON_CELL_SEP or, at a row's end, _JSON_ROW_SEP, and the last one
    must begin the tail. A cell and its length pack into one uint64 key; a
    block's distinct keys are parsed once each, and each must read back as
    itself through format_rational. The rows of a block are then written
    over the lcm of the block's denominators, which with every numerator
    over it must fit int64; there they must strictly ascend, as must the
    block's first row over the previous block's last (_ascends). Each row
    is then gcd-reduced, so it reads as parse_rows reads it. A file that
    fails any of these checks, including every file the general path
    would refuse, gives None.
    """

    import numpy as np

    from .search import array_fits_int8, int_view, row_blocks

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
        if data[-len(tail):] == tail:
            break
    else:
        return None
    width = n ** m
    if len(data) < max(len(head) + len(tail), 2 * count * width) \
            or data[:len(head)] != head:
        return None
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
    # nums starts in int8 and is widened to int64, once, when a block does
    # not fit int8
    dens, nums = array("q", [0]) * count, array("b", [0]) * (count * width)
    dens_view = int_view(dens, count, writable=True)
    nums_view = int_view(nums, (count, width), writable=True)
    for rows in row_blocks(count):
        size = len(dens_view[rows])
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
        # each array of the block is freed once it is used up, so the
        # block holds about two int64 arrays of its cells at a time
        keys = words[opens + 1]
        del quotes, opens, closes, ends, starts
        keys &= masks[lengths]
        keys |= lengths.astype(np.uint64) << np.uint64(56)
        del lengths
        if isinstance(data, mmap.mmap):
            data.madvise(mmap.MADV_DONTNEED, 0, at - at % mmap.PAGESIZE)
        ordered = np.sort(keys, axis=None)
        distinct = ordered[np.concatenate(([True],
                                           ordered[1:] != ordered[:-1]))]
        del ordered
        distinct_keys = distinct.tolist()
        try:
            values.update((key, _canonical_cell(key))
                          for key in distinct_keys if key not in values)
        except ValueError:
            return None
        index = distinct.searchsorted(keys)
        del keys, distinct
        # the block's cells as numerators over the lcm L of its
        # denominators, then each row gcd-reduced
        cells = [values[key] for key in distinct_keys]
        lcm = math.lcm(*(v.denominator for v in cells))
        scaled = [v.numerator * (lcm // v.denominator) for v in cells]
        if lcm >> 63 or any(abs(x) >> 63 for x in scaled):
            return None
        common = np.array(scaled, dtype=np.int64)[index]
        del index
        # over one denominator rows ascend as their numerators do
        lead = (common[1:] != common[:-1]).argmax(axis=1)
        step = np.arange(len(lead))
        if not (common[1:][step, lead] > common[:-1][step, lead]).all() or (
                rows.start and not _ascends(last_row,
                                            (lcm, tuple(common[0].tolist())))):
            return None
        last_row = lcm, tuple(common[-1].tolist())
        g = np.gcd(np.gcd.reduce(common, axis=1), lcm)
        dens_view[rows] = lcm // g
        common //= g[:, None]
        if nums.typecode == "b" and not array_fits_int8(common):
            nums = array("q", [0]) * (count * width)
            wide = int_view(nums, (count, width), writable=True)
            wide[:] = nums_view
            nums_view = wide
        nums_view[rows] = common
        del common
    return (m, n, dens, nums, complete) if at == last + 1 else None


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

    text = key.to_bytes(8, "little")[:key >> 56].decode("ascii")
    value = parse_rational(text)
    if format_rational(value) != text:
        raise ValueError(f"not canonical: {text!r}")
    return value


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


def _read_csv_head(line: str, path: Path) -> tuple:
    """(version, m, n, count, complete) of a CSV file's metadata line."""
    meta = {}
    for token in line[1:].split():
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
    return (*(int(meta[key]) for key in required), complete == "true")


def _csv_rows(text):
    """The non-empty rows of a CSV text stream, from where it stands."""
    import csv

    return (row for row in csv.reader(text) if row)


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


def _scratch(target: Path) -> Path:
    return target.with_name(f".{target.name}.{os.urandom(16).hex()}.part")


def _sha256(path) -> bytes:
    """Hex SHA-256 of a file as ASCII bytes, read in a streamed pass."""
    import hashlib

    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest().encode()


def atomic_write(target: Path, data: bytes) -> None:
    """Write data to a scratch file beside target and move it into place;
    a failed write removes the scratch file and leaves target as it was."""
    scratch = _scratch(target)
    try:
        scratch.write_bytes(data)
        os.replace(scratch, target)
    finally:
        scratch.unlink(missing_ok=True)


class FilePayload(os.PathLike):
    """A cache payload held in a file rather than in memory: cache_store
    copies one into the cache, and cache_load with a target copies an
    entry out to one. Like a bytes payload, its len() is its size."""

    def __init__(self, path):
        self.path = Path(path)

    def __fspath__(self) -> str:
        return os.fspath(self.path)

    def __len__(self) -> int:
        return self.path.stat().st_size


def cache_store(cache_dir, key: str, data) -> Path:
    """Store data under key with a SHA-256 sidecar; returns the path.

    data is bytes or a FilePayload. The entry is written (or copied) to a
    scratch file, hashed there in a streamed pass, and moved into place.
    """

    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    entry = cache_dir / key
    scratch = _scratch(entry)
    try:
        if isinstance(data, FilePayload):
            shutil.copyfile(data, scratch)
        else:
            scratch.write_bytes(data)
        digest = _sha256(scratch)
        os.replace(scratch, entry)
    finally:
        scratch.unlink(missing_ok=True)
    atomic_write(_sidecar(entry), digest)
    return entry


def cache_load(cache_dir, key: str, target=None):
    """The payload under key if present and intact, else None: an entry
    or sidecar that is missing or cannot be opened, and an entry that
    fails its checksum, read as a miss. The sidecar is compared as bytes,
    so one that is not text is a mismatch too.

    Without target the entry's bytes are returned. With target the entry
    is copied to that path and its SHA-256 checked there, so it is never
    held in memory whole; the copy is returned as a FilePayload, and on a
    miss no target is left. An error writing target raises OSError, and
    what was written of it is the caller's to remove.
    """

    entry = Path(cache_dir) / key
    try:
        expected = _sidecar(entry).read_bytes().strip()
        if target is None:
            data = entry.read_bytes()
        else:
            source = entry.open("rb")
    except OSError:
        return None
    if target is None:
        import hashlib

        digest = hashlib.sha256(data).hexdigest().encode()
        return data if digest == expected else None
    with source, open(target, "wb") as copy:
        shutil.copyfileobj(source, copy)
    if _sha256(target) == expected:
        return FilePayload(target)
    os.unlink(target)
    return None
