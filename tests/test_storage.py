"""Tests for the persistence layer.

The wire format for rationals is "p/q" with reduced fractions and no
whitespace; integers may omit "/q". File round-trips must be lossless and
order preserving, and the cache must reject corrupted entries via its
checksum sidecar instead of returning damaged data.
"""

import csv
import io
from array import array
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import extremeforms
from extremeforms import search, storage
from extremeforms.constants import bh_constant, mixed_littlewood_constant
from extremeforms.core import FormVector
from extremeforms.search import (
    ExtremeSet,
    extreme_points,
    planar_extreme_points,
)
from extremeforms.storage import (
    FILE_FORMAT_VERSION,
    FilePayload,
    atomic_write,
    cache_key,
    cache_load,
    cache_store,
    default_cache_dir,
    format_rational,
    parse_point_list,
    parse_rational,
    read_extreme_set,
    write_extreme_set,
)
from support import spell_entry

F = Fraction


# ---------------------------------------------------------------------------
# rational wire format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, text", [
    (F(1, 2), "1/2"),
    (F(-3, 4), "-3/4"),
    (F(3), "3"),
    (F(0), "0"),
    (F(-5), "-5"),
    (F(2, 4), "1/2"),
    (F(7, 8), "7/8"),
])
def test_format_rational(value, text):
    assert format_rational(value) == text


@pytest.mark.parametrize("text, value", [
    ("1/2", F(1, 2)),
    ("-7/8", F(-7, 8)),
    ("3", F(3)),
    ("0", F(0)),
    ("-5", F(-5)),
    ("2/4", F(1, 2)),
])
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", [
    "", "1/0", "1.5", " 1/2", "1/2 ", "1 / 2", "1/2/3", "a/b", "--1", "+1",
])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_round_trip_random():
    import random

    rng = random.Random(7)
    for _ in range(200):
        value = F(rng.randint(-50, 50), rng.randint(1, 50))
        assert parse_rational(format_rational(value)) == value


def test_single_value_parsers_live_in_core():
    # storage re-exports them, so its old names are the same objects
    from extremeforms import core, storage

    assert storage.parse_rational is core.parse_rational
    assert storage.parse_point_list is core.parse_point_list


def test_parse_point_list():
    assert parse_point_list("1/2,1/2,0,0") == (F(1, 2), F(1, 2), F(0), F(0))
    assert parse_point_list("1") == (F(1),)


def test_parse_point_list_reports_position():
    with pytest.raises(ValueError, match="entry 2"):
        parse_point_list("1/2,oops,0")
    with pytest.raises(ValueError, match="entry 3"):
        parse_point_list("0,1,")
    with pytest.raises(ValueError, match="entry 1"):
        parse_point_list("")


# ---------------------------------------------------------------------------
# extreme-set files
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def set12():
    return extreme_points(1, 2)


def test_json_file_shape(tmp_path, set22):
    path = tmp_path / "points.json"
    write_extreme_set(path, set22, fmt="json")
    payload = json.loads(path.read_text())
    assert payload["format-version"] == FILE_FORMAT_VERSION
    assert payload["m"] == 2
    assert payload["n"] == 2
    assert payload["count"] == 16
    assert len(payload["points"]) == 16
    assert payload["points"][0] == [format_rational(c)
                                    for c in set22.points[0].coeffs]
    assert "complete" not in payload


def test_json_round_trip(tmp_path, set22):
    path = tmp_path / "points.json"
    write_extreme_set(path, set22, fmt="json")
    loaded = read_extreme_set(path)
    assert loaded == set22
    assert [p.coeffs for p in loaded.points] == [p.coeffs
                                                 for p in set22.points]
    assert loaded.complete


def test_csv_round_trip(tmp_path, set12):
    path = tmp_path / "points.csv"
    write_extreme_set(path, set12, fmt="csv")
    first = path.read_text().splitlines()[0]
    assert first.startswith("#")
    assert f"format-version={FILE_FORMAT_VERSION}" in first
    assert "m=1" in first and "n=2" in first and "count=4" in first
    loaded = read_extreme_set(path)
    assert loaded == set12
    assert [p.coeffs for p in loaded.points] == [p.coeffs
                                                 for p in set12.points]


def test_half_integer_coordinates_survive(tmp_path, set22):
    for fmt in ("json", "csv"):
        path = tmp_path / f"points.{fmt}"
        write_extreme_set(path, set22, fmt=fmt)
        loaded = read_extreme_set(path)
        assert (F(1, 2), F(1, 2), F(1, 2), F(-1, 2)) in loaded


def test_partial_set_round_trip(tmp_path, set12):
    partial = ExtremeSet.from_points(1, 2, set12.points[:1], complete=False)
    path = tmp_path / "partial.json"
    write_extreme_set(path, partial, fmt="json")
    payload = json.loads(path.read_text())
    assert payload["complete"] is False
    loaded = read_extreme_set(path)
    assert not loaded.complete
    assert loaded.points == partial.points


def test_read_detects_format_by_content(tmp_path, set12):
    path = tmp_path / "noext"
    write_extreme_set(path, set12, fmt="json")
    assert read_extreme_set(path) == set12
    write_extreme_set(path, set12, fmt="csv")
    assert read_extreme_set(path) == set12


def test_read_rejects_corruption(tmp_path, set12):
    path = tmp_path / "points.json"
    write_extreme_set(path, set12, fmt="json")
    payload = json.loads(path.read_text())

    payload["count"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        read_extreme_set(path)

    payload["count"] = len(set12)
    payload["format-version"] = 999
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        read_extreme_set(path)

    payload["format-version"] = FILE_FORMAT_VERSION
    payload["points"][0] = payload["points"][0][:-1]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        read_extreme_set(path)


@pytest.mark.parametrize("text", ["", "[]"], ids=["empty", "list"])
def test_read_rejects_file_without_metadata(tmp_path, text):
    path = tmp_path / "points.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="missing metadata comment line"):
        read_extreme_set(path)


def test_read_rejects_csv_head_without_count(tmp_path, set12):
    path = tmp_path / "points.csv"
    write_extreme_set(path, set12, fmt="csv")
    path.write_bytes(path.read_bytes().replace(b" count=", b" size="))
    with pytest.raises(ValueError, match="metadata missing 'count'"):
        read_extreme_set(path)


@pytest.mark.parametrize("fmt,field,value,message", [
    ("json", "m", "1", "field 'm' must be an integer"),
    ("json", "m", True, "field 'm' must be an integer"),
    ("json", "count", "4", "field 'count' must be an integer"),
    ("json", "format-version", 1.0, "field 'format-version' must be an "
                                    "integer"),
    ("json", "n", 0, "fields 'm' and 'n' must be at least 1"),
    ("json", "points", 5, "field 'points' must be a list"),
    ("json", "complete", "false", "field 'complete' must be a boolean"),
    ("csv", "m", "x", "field 'm' must be an integer"),
    ("csv", "count", "4.0", "field 'count' must be an integer"),
    ("csv", "m", "0", "fields 'm' and 'n' must be at least 1"),
    ("csv", "complete", "maybe", "field 'complete' must be true or false"),
])
def test_read_rejects_mistyped_metadata(tmp_path, set12, fmt, field, value,
                                        message):
    path = tmp_path / f"points.{fmt}"
    write_extreme_set(path, set12, fmt=fmt)
    if fmt == "json":
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
    else:
        meta, body = path.read_text().split("\n", 1)
        tokens = [t for t in meta.split() if not t.startswith(field + "=")]
        path.write_text(" ".join(tokens + [f"{field}={value}"]) + "\n" + body,
                        newline="")
    with pytest.raises(ValueError, match=message):
        read_extreme_set(path)


def reference_bytes(extreme_set, fmt):
    """The file through json.dumps or csv.writer, cell by cell."""

    rows = [[format_rational(c) for c in p.coeffs] for p in extreme_set]
    if fmt == "json":
        payload = {"format-version": FILE_FORMAT_VERSION,
                   "m": extreme_set.m, "n": extreme_set.n,
                   "count": len(rows), "points": rows}
        if not extreme_set.complete:
            payload["complete"] = False
        return (json.dumps(payload, indent=1) + "\n").encode()
    handle = io.StringIO(newline="")
    handle.write(f"# extremeforms format-version={FILE_FORMAT_VERSION}"
                 f" m={extreme_set.m} n={extreme_set.n} count={len(rows)}"
                 + ("" if extreme_set.complete else " complete=false")
                 + "\n")
    csv.writer(handle).writerows(rows)
    return handle.getvalue().encode()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", ["set22", "set23", "planar3", "partial",
                                  "empty"])
def test_writer_matches_json_and_csv_modules(tmp_path, request, name, fmt):
    if name == "partial":
        extreme_set = ExtremeSet.from_points(
            2, 3, request.getfixturevalue("set23").points[::7],
            complete=False)
    elif name == "empty":
        extreme_set = ExtremeSet.from_points(2, 2, ())
    else:
        extreme_set = request.getfixturevalue(name)
    path = tmp_path / f"points.{fmt}"
    write_extreme_set(path, extreme_set, fmt=fmt)
    assert path.read_bytes() == reference_bytes(extreme_set, fmt)
    loaded = read_extreme_set(path)
    assert loaded == extreme_set
    assert loaded.complete == extreme_set.complete


def test_read_rejects_non_string_cell(tmp_path, set12):
    path = tmp_path / "points.json"
    write_extreme_set(path, set12, fmt="json")
    payload = json.loads(path.read_text())
    payload["points"][0][0] = [1, 2]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="point 0"):
        read_extreme_set(path)


TOO_WIDE = "1/9223372036854775808"  # denominator 2^63, past int64


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_read_rejects_row_past_int64(tmp_path, set12, fmt):
    path = tmp_path / f"points.{fmt}"
    write_extreme_set(path, set12, fmt=fmt)
    lines = path.read_text().splitlines(keepends=True)
    if fmt == "json":
        payload = json.loads(path.read_text())
        payload["points"][2][1] = TOO_WIDE
        path.write_text(json.dumps(payload))
    else:
        lines[3] = lines[3].split(",")[0] + "," + TOO_WIDE + "\r\n"
        path.write_text("".join(lines), newline="")
    with pytest.raises(ValueError, match="point 2: does not fit int64"):
        read_extreme_set(path)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("fault", ["swapped", "repeated"])
def test_read_rejects_rows_out_of_order(tmp_path, set22, fmt, fault):
    # the ExtremeSet constructor trusts its rows to be sorted and distinct
    path = tmp_path / f"points.{fmt}"
    write_extreme_set(path, set22, fmt=fmt)
    if fmt == "json":
        payload = json.loads(path.read_text())
        rows = payload["points"]
        rows[1], rows[2] = (rows[2], rows[1]) if fault == "swapped" \
            else (rows[1], rows[1])
        path.write_text(json.dumps(payload))
    else:  # line 0 holds the metadata, so row i is line i + 1
        lines = path.read_text().splitlines(keepends=True)
        lines[2], lines[3] = (lines[3], lines[2]) if fault == "swapped" \
            else (lines[2], lines[2])
        path.write_text("".join(lines), newline="")
    with pytest.raises(ValueError,
                       match="point 2 does not strictly follow point 1"):
        read_extreme_set(path)


def test_read_orders_rows_past_2_62(tmp_path, monkeypatch):
    # numerators this wide are cross-multiplied in Python ints instead of
    # compared in int64, in one block and, with one-row blocks, past it
    path = tmp_path / "wide.json"
    wide = ExtremeSet(1, 2, [1, 1], [[2 ** 62 - 1, 0], [2 ** 62, 0]])
    for rows in (None, 1):
        with monkeypatch.context() as blocks:
            if rows:
                blocks.setattr(search, "BLOCK_ROWS", rows)
            write_extreme_set(path, wide)
            assert read_extreme_set(path) == wide
            write_extreme_set(path, ExtremeSet(1, 2, [1, 1], wide.nums[::-1]))
            with pytest.raises(ValueError,
                               match="point 1 does not strictly follow "
                                     "point 0"):
                read_extreme_set(path)


# ---------------------------------------------------------------------------
# the fast reader of a set, its cache entry, against the general path
# ---------------------------------------------------------------------------

def set_fields(read):
    """The fields of an ExtremeSet that a reader must give back."""

    return (read.m, read.n, read.dens.dtype, read.dens.tolist(),
            read.nums.dtype, read.nums.tolist(), read.complete)


def read_outcome(path, data=None):
    """What read_extreme_set gives on the file at path, data written there
    first when given: the set's fields, or the error text."""

    if data is not None:
        path.write_bytes(data)
    try:
        return "set", set_fields(read_extreme_set(path))
    except ValueError as err:
        return "error", str(err)


def entry_outcome(path, m, n, data=None):
    """read_outcome's form of what read_entry gives on the entry at path."""

    if data is not None:
        path.write_bytes(data)
    try:
        return "set", set_fields(storage.read_entry(path, m, n))
    except ValueError as err:
        return "error", str(err)


LONG_CELLS = ExtremeSet(1, 2, [12345678, 1234], [[-1, 0], [1, 0]])
SEVEN_BYTE_CELLS = ExtremeSet(1, 2, [1234, 1234], [[-1, 0], [1, 0]])


def at_block_sizes(name, values, large=()):
    """Parametrize name and rows over values and the block sizes: rows None
    keeps search.BLOCK_ROWS, and that case keeps its value's plain id;
    blocks of 1, 2 and 7 rows put block boundaries everywhere. A value in
    large skips blocks of 1 and 2 rows: the 65536 planar m = 4 rows would
    take tens of thousands of numpy blocks."""

    return pytest.mark.parametrize(f"{name}, rows", [
        pytest.param(value, rows,
                     id=str(value) if rows is None else f"{value}-rows{rows}")
        for rows in (None, 1, 2, 7) for value in values
        if rows in (None, 7) or value not in large])


@at_block_sizes("name", ["planar1", "planar2", "planar3", "planar4", "set22",
                         "set23", "set32", "partial24", "long", "seven"],
                large={"planar4"})
def test_fast_reader_matches_the_general_path(tmp_path, request, monkeypatch,
                                              name, rows):
    # the fast reader of a set is read_entry, on the bytes write_entry
    # wrote: it gives the set the general path reads from the artifact,
    # as a complete set, since only complete sets are cached
    if rows:
        monkeypatch.setattr(search, "BLOCK_ROWS", rows)
    if name == "planar1":
        extreme_set = planar_extreme_points(1)
    elif name == "long":
        extreme_set = LONG_CELLS
    elif name == "seven":
        extreme_set = SEVEN_BYTE_CELLS
    else:
        extreme_set = request.getfixturevalue(name)
    path, entry = tmp_path / "points.json", tmp_path / "entry"
    write_extreme_set(path, extreme_set)
    expected = set_fields(extreme_set)
    assert read_outcome(path) == ("set", expected)
    storage.write_entry(entry, extreme_set)
    m, n = extreme_set.m, extreme_set.n
    assert entry.read_bytes() == spell_entry(
        m, n, extreme_set.dens.tolist(), extreme_set.nums.tolist(),
        extreme_set._nums.typecode)
    assert entry_outcome(entry, m, n) == ("set", (*expected[:-1], True))


def mutations(data: bytes, seed: int):
    """Seeded variants of a canonical artifact, each with its kind."""

    import random

    rng = random.Random(seed)
    alphabet = b'0123456789-/", \n[]{}:x'
    rows = data.split(b"\n  [\n")  # rows[0] holds the head
    for _ in range(120):
        at = rng.randrange(len(data))
        byte = rng.choice(alphabet)
        yield "flip", data[:at] + bytes([byte]) + data[at + 1:]
        yield "insert", data[:at] + bytes([byte]) + data[at:]
        yield "delete", data[:at] + data[at + 1:]
    for _ in range(20):
        i, j = sorted(rng.sample(range(1, len(rows) - 1), 2))
        swapped = rows[:]
        swapped[i], swapped[j] = rows[j], rows[i]
        yield "swap", b"\n  [\n".join(swapped)
    count = int(data.split(b'"count": ')[1].split(b",")[0])
    for other in (count - 1, count + 1, 0, 10 * count):
        yield "count", data.replace(b'"count": %d' % count,
                                    b'"count": %d' % other)


@at_block_sizes("seed", [0, 1])
def test_fast_reader_on_mutated_artifacts(tmp_path, set23, monkeypatch, seed,
                                          rows):
    # flipped, inserted and deleted bytes, swapped rows and a wrong count:
    # whatever set the general path still reads from the artifact, its
    # entry reads back as that set, in one block and past it
    if rows:
        monkeypatch.setattr(search, "BLOCK_ROWS", rows)
    path, entry = tmp_path / "points.json", tmp_path / "entry"
    write_extreme_set(path, set23)
    seen = {}
    for kind, data in mutations(path.read_bytes(), seed):
        # a mutation may spell another valid set
        expected = read_outcome(path, data)
        if expected[0] == "set":
            read = read_extreme_set(path)
            storage.write_entry(entry, read)
            assert entry_outcome(entry, read.m, read.n) == expected, kind
        seen.setdefault(kind, set()).add(expected[0])
    assert set(seen) == {"flip", "insert", "delete", "swap", "count"}
    assert seen["swap"] == seen["count"] == {"error"}
    # some mutations the general path still reads: a space in the layout
    assert "set" in seen["insert"] | seen["delete"] | seen["flip"]


def entry_mutations(data: bytes, seed: int):
    """Seeded variants of an entry of (2,3) numerators in int8, each with
    its kind."""

    import random

    rng = random.Random(seed)
    head, body = data.split(b"\n", 1)
    count = int(head.split(b"count=")[1].split()[0])
    dens = [body[8 * i:8 * i + 8] for i in range(count)]
    nums = [body[8 * count + 9 * i:8 * count + 9 * i + 9]
            for i in range(count)]
    for _ in range(120):
        at = rng.randrange(len(data))
        byte = rng.randrange(256)
        yield "flip", data[:at] + bytes([byte]) + data[at + 1:]
        yield "insert", data[:at] + bytes([byte]) + data[at:]
        yield "delete", data[:at] + data[at + 1:]
    for _ in range(20):
        i, j = rng.sample(range(count), 2)
        order = list(range(count))
        order[i], order[j] = j, i
        yield "swap", (head + b"\n" + b"".join(dens[k] for k in order)
                       + b"".join(nums[k] for k in order))
    for other in (count - 1, count + 1, 0, 10 * count):
        yield "count", data.replace(b"count=%d" % count,
                                    b"count=%d" % other, 1)


@at_block_sizes("seed", [0, 1])
def test_fast_reader_on_mutated_entries(tmp_path, set23, monkeypatch, seed,
                                        rows):
    # read_entry refuses a mutated entry with the same message in one
    # block and past it, or reads a set that the general path reads back
    # from its artifact; every entry of another size is refused
    path, entry = tmp_path / "points.json", tmp_path / "entry"
    storage.write_entry(entry, set23)
    assert set23.nums.dtype == np.int8
    seen = {}
    for kind, data in entry_mutations(entry.read_bytes(), seed):
        outcome = entry_outcome(entry, 2, 3, data)
        if rows:
            with monkeypatch.context() as blocks:
                blocks.setattr(search, "BLOCK_ROWS", rows)
                assert entry_outcome(entry, 2, 3) == outcome, kind
        if outcome[0] == "set":
            write_extreme_set(path, storage.read_entry(entry, 2, 3))
            assert read_outcome(path) == outcome, kind
        seen.setdefault(kind, set()).add(outcome[0])
    assert set(seen) == {"flip", "insert", "delete", "swap", "count"}
    assert seen["insert"] == seen["delete"] == seen["swap"] \
        == seen["count"] == {"error"}


def entry_faults(extreme_set, rows: int):
    """The (d, u) rows of extreme_set with one fault each, with its kind
    and the message that names it: at the boundary between the first two
    blocks of rows rows, and in the last block."""

    pairs = extreme_set.pairs()
    last = (len(pairs) - 1) // rows * rows
    order = f"point {rows} does not strictly follow point {rows - 1}"
    swapped = pairs[:]
    swapped[rows - 1], swapped[rows] = pairs[rows], pairs[rows - 1]
    yield "swap", swapped, order
    yield "repeat", pairs[:rows] + [pairs[rows - 1]] + pairs[rows + 1:], order
    d, u = pairs[last]
    for kind, row, message in (
            ("unreduced", (2 * d, tuple(2 * x for x in u)), "not gcd-reduced"),
            ("denominator", (0, u), "denominator 0 is not positive"),
            ("-128", (d, (-128, *u[1:])), "numerator -128 is out of range")):
        yield kind, pairs[:last] + [row] + pairs[last + 1:], \
            f"point {last}: {message}"


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_fast_reader_at_block_boundaries(tmp_path, set23, monkeypatch, rows):
    # each fault crosses a block boundary or sits in the last block; the
    # entry is refused past one block as it is in one block
    entry = tmp_path / "entry"
    kinds = []
    for kind, pairs, message in entry_faults(set23, rows):
        data = spell_entry(2, 3, [d for d, _ in pairs], [u for _, u in pairs])
        assert entry_outcome(entry, 2, 3, data) == ("error", message), kind
        with monkeypatch.context() as blocks:
            blocks.setattr(search, "BLOCK_ROWS", rows)
            assert entry_outcome(entry, 2, 3) == ("error", message), kind
        kinds.append(kind)
    assert kinds == ["swap", "repeat", "unreduced", "denominator", "-128"]


def test_writer_json_whose_block_passes_int64_takes_the_general_path(
        tmp_path, monkeypatch):
    # each row fits int64, but the lcm of the first block's denominators
    # does not: the general reader reads the artifact, and the entry,
    # whose rows are compared in Python ints, reads back the same set
    monkeypatch.setattr(search, "BLOCK_ROWS", 4)
    primes = [99991, 99989, 99971, 99961]
    assert math.lcm(*primes) >> 63
    coprime = ExtremeSet(1, 1, [*primes, 1], [[1]] * 5)
    path, entry = tmp_path / "points.json", tmp_path / "entry"
    write_extreme_set(path, coprime)
    read = read_extreme_set(path)
    assert read == coprime and read.dens.tolist() == [*primes, 1]
    storage.write_entry(entry, coprime)
    read = storage.read_entry(entry, 1, 1)
    assert read == coprime and read.dens.tolist() == [*primes, 1]


@pytest.mark.parametrize("fault, row", [("swap", 3), ("swap", 5),
                                        ("repeat", 3)],
                         ids=["swap-across", "swap-inside", "repeat-across"])
def test_fast_reader_orders_rows_across_blocks(tmp_path, set23, monkeypatch,
                                               fault, row):
    # in blocks of 4 rows, rows 3 and 4 straddle a boundary and rows 5 and
    # 6 share a block: the entry reader refuses each fault, naming the
    # point the general reader names in the artifact
    monkeypatch.setattr(search, "BLOCK_ROWS", 4)
    pairs = set23.pairs()
    pairs[row + 1] = pairs[row]
    if fault == "swap":
        pairs[row] = set23.pairs()[row + 1]
    faulty = ExtremeSet(2, 3, [d for d, _ in pairs], [u for _, u in pairs])
    path, entry = tmp_path / "points.json", tmp_path / "entry"
    write_extreme_set(path, faulty)
    storage.write_entry(entry, faulty)
    message = f"point {row + 1} does not strictly follow point {row}"
    with pytest.raises(ValueError, match=message):
        read_extreme_set(path)
    assert entry_outcome(entry, 2, 3) == ("error", message)


def test_forged_count_is_refused_before_any_allocation(tmp_path, planar2):
    # a count the file cannot hold: the general reader names the count,
    # and read_entry compares the entry's size with it before it allocates
    # count rows
    path = tmp_path / "points.json"
    write_extreme_set(path, planar2)
    forged = 10 ** 15
    path.write_bytes(path.read_bytes().replace(b'"count": 16',
                                               b'"count": %d' % forged))
    with pytest.raises(ValueError, match=f"count field says {forged} but "
                                         f"16 points present"):
        read_extreme_set(path)
    entry = tmp_path / "entry"
    data = spell_entry(2, 2, planar2.dens.tolist(), planar2.nums.tolist(),
                       count=forged)
    # 16 rows of 8 bytes of d and 4 of int8 numerators
    size = len(data) + (forged - 16) * 12
    assert entry_outcome(entry, 2, 2, data) == (
        "error", f"{len(data)} bytes, not the {size} of {forged} points")


# ---------------------------------------------------------------------------
# numerators in int8 or int64
# ---------------------------------------------------------------------------

# one row at each end of int8's symmetric range
EDGE_127 = ExtremeSet(1, 2, [1, 3], [[-127, 1], [127, -2]])
# eleven rows that fit int8, then one that does not
WIDENING = ExtremeSet(1, 2, [1] * 12,
                      [[x, 0] for x in range(-5, 6)] + [[1000, 1]])


def int64_backed(extreme_set):
    """A copy of an int8-backed extreme_set whose nums are int64, which
    the constructor itself would narrow."""

    assert extreme_set.nums.dtype == np.int8
    wide = ExtremeSet(extreme_set.m, extreme_set.n, extreme_set.dens,
                      extreme_set.nums, complete=extreme_set.complete)
    object.__setattr__(wide, "_nums", array("q", extreme_set._nums))
    assert wide.nums.dtype == np.int64
    return wide


def written(tmp_path, extreme_set, fmt):
    path = tmp_path / f"points.{fmt}"
    write_extreme_set(path, extreme_set, fmt=fmt)
    return path.read_bytes()


@pytest.mark.parametrize("name", ["planar1", "planar2", "planar3", "planar4",
                                  "set23", "partial24", "long", "seven",
                                  "edge"])
def test_int8_and_int64_backed_sets_agree(tmp_path, request, name):
    if name == "planar1":
        narrow = planar_extreme_points(1)
    elif name in ("long", "seven", "edge"):
        narrow = {"long": LONG_CELLS, "seven": SEVEN_BYTE_CELLS,
                  "edge": EDGE_127}[name]
    else:
        narrow = request.getfixturevalue(name)
    wide = int64_backed(narrow)
    assert narrow == wide and wide == narrow
    assert narrow.pairs() == wide.pairs()
    for index in (0, len(narrow) // 2, len(narrow) - 1):
        assert narrow.point(index) == wide.point(index)
    assert narrow.max_denominator() == wide.max_denominator()
    m, n = narrow.m, narrow.n
    assert bh_constant(m, n, narrow) == bh_constant(m, n, wide)
    assert (mixed_littlewood_constant(m, n, narrow)
            == mixed_littlewood_constant(m, n, wide))
    for fmt in ("json", "csv"):
        assert written(tmp_path, narrow, fmt) == written(tmp_path, wide, fmt)


@pytest.mark.parametrize("edge, dtype", [(127, np.int8), (-127, np.int8),
                                         (128, np.int64), (-128, np.int64)])
def test_nums_dtype_at_the_int8_boundary(tmp_path, edge, dtype):
    rows = sorted([[0, 1], [edge, 0]])
    extreme_set = ExtremeSet(1, 2, [1, 1], rows)
    assert extreme_set.nums.dtype == dtype
    assert extreme_set.nums.tolist() == rows
    if edge == -128:  # int8 holds -128, but -nums would not
        from_int8 = ExtremeSet(1, 2, [1, 1], np.array(rows, dtype=np.int8))
        assert from_int8.nums.dtype == np.int64
        assert from_int8 == extreme_set
    for fmt in ("json", "csv"):
        path = tmp_path / f"edge.{fmt}"
        write_extreme_set(path, extreme_set, fmt=fmt)
        read = read_extreme_set(path)
        assert read == extreme_set and read.nums.dtype == dtype


@pytest.mark.parametrize("fmt", ["json", "compact-json", "csv"])
@pytest.mark.parametrize("rows", [None, 1, 2, 7])
def test_readers_widen_when_a_later_block_does_not_fit(tmp_path, monkeypatch,
                                                       fmt, rows):
    # the general reader widens the artifact in every layout, and the
    # entry reader the entry, in one block and past it
    if rows:
        monkeypatch.setattr(search, "BLOCK_ROWS", rows)
    path, entry = tmp_path / "widening", tmp_path / "entry"
    write_extreme_set(path, WIDENING, fmt="csv" if fmt == "csv" else "json")
    if fmt == "compact-json":
        path.write_text(json.dumps(json.loads(path.read_text())))
    storage.write_entry(entry, WIDENING)
    for read in (read_extreme_set(path), storage.read_entry(entry, 1, 2)):
        assert read == WIDENING and read.nums.dtype == np.int64


def csv_mutations(data: bytes):
    """Faults of a CSV artifact, one or two each, with their names."""

    head, _, body = data.partition(b"\n")
    lines = body.split(b"\r\n")  # lines[i] holds point i

    def spell(edits):
        edited = lines[:]
        for point, line in edits.items():
            edited[point] = line
        return head + b"\n" + b"\r\n".join(edited)

    def cell(point, text):  # point's first cell replaced by text
        return text + lines[point][lines[point].index(b","):]

    yield "wide-5", spell({5: cell(5, TOO_WIDE.encode())})
    yield "bad-6", spell({6: cell(6, b"x")})
    yield "short-7", spell({7: lines[7].rsplit(b",", 1)[0]})
    yield "swap-3-4", spell({3: lines[4], 4: lines[3]})
    yield "repeat-9", spell({9: lines[8]})
    yield "swap-3-4-bad-20", spell({3: lines[4], 4: lines[3],
                                    20: cell(20, b"1/0")})
    yield "bad-20-long-30", spell({20: cell(20, b"1/0"),
                                   30: lines[30] + b",0"})
    yield "count", data.replace(b"count=90", b"count=89", 1)


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_csv_errors_name_the_same_point_at_every_block_size(tmp_path, set23,
                                                            monkeypatch,
                                                            rows):
    path = tmp_path / "points.csv"
    write_extreme_set(path, set23, fmt="csv")
    seen = []
    for name, data in csv_mutations(path.read_bytes()):
        expected = read_outcome(path, data)
        with monkeypatch.context() as blocks:
            blocks.setattr(search, "BLOCK_ROWS", rows)
            assert read_outcome(path, data) == expected, name
        assert expected[0] == "error", name
        seen.append(expected[1].split(": ", 1)[1])
    assert seen == [
        "point 5: does not fit int64 (denominator 9223372036854775808)",
        "point 6: not a p/q rational: 'x'",
        "point 7 is not a list of 9 coordinates",
        "point 4 does not strictly follow point 3",
        "point 9 does not strictly follow point 8",
        "point 20: zero denominator in rational: '1/0'",
        "point 30 is not a list of 9 coordinates",
        "count field says 89 but 90 points present",
    ]


# ---------------------------------------------------------------------------
# Python up to one block of rows, numpy past it
# ---------------------------------------------------------------------------

def boundary_sets(pairs, block):
    """Complete and partial windows of the (2,3) rows pairs with exactly
    block and block + 1 rows: one block, which the Python paths take, and
    one row past it, which the numpy paths take."""

    return [ExtremeSet.from_pairs(2, 3, pairs[start:start + size],
                                  complete=complete)
            for size in (block, block + 1)
            for start, complete in ((0, True), (len(pairs) - size, False))]


def boundary_faults(extreme_set, data: bytes, fmt: str):
    """Faults of the artifact data of extreme_set, each with its name: its
    first cell replaced (a bad cell, a zero denominator, a cell past
    int64, a cell that is not canonical), a count one too high, and, with
    two rows or more, its first two rows swapped."""

    if fmt == "json":
        opening, row_sep = storage._JSON_OPEN.encode(), \
            storage._JSON_ROW_SEP.encode()
        head, _, rest = data.partition(opening)
        body, closing, tail = rest.rpartition(storage._JSON_CLOSE.encode())
        count_field = b'"count": %d'
    else:
        opening, row_sep, closing, tail = b"\n", b"\r\n", b"", b""
        head, _, body = data.partition(opening)
        count_field = b"count=%d"
    rows = body.split(row_sep)

    def spell(rows):
        return head + opening + row_sep.join(rows) + closing + tail

    first, _, rest = rows[0].partition(b'"' if fmt == "json" else b",")
    for name, text in (("bad", b"x"), ("zero", b"1/0"),
                       ("wide", TOO_WIDE.encode()), ("uncanonical", b"2/4")):
        yield name, spell([rows[0].replace(first, text, 1), *rows[1:]])
    count = len(extreme_set)
    yield "count", data.replace(count_field % count,
                                count_field % (count + 1), 1)
    if count >= 2:
        yield "swap", spell([rows[1], rows[0], *rows[2:]])


# the enum resume rows' codec, in an interpreter where numpy is blocked
ROW_CODEC_WITHOUT_NUMPY = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "from extremeforms.storage import format_rows, parse_rows\n"
    "cells = format_rows([(2, (1, -1)), (1, (0, 3))])\n"
    "assert cells == [['1/2', '-1/2'], ['0', '3']], cells\n"
    "dens, nums, _ = parse_rows('rows', 2, cells)\n"
    "assert (dens.tolist(), nums.tolist()) == ([2, 1], [1, -1, 0, 3])\n")


def test_row_codec_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(extremeforms.__file__)))
    done = subprocess.run([sys.executable, "-c", ROW_CODEC_WITHOUT_NUMPY],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writer_bytes_agree_at_the_block_boundary(tmp_path, monkeypatch,
                                                  set23, block, fmt):
    monkeypatch.setattr(search, "BLOCK_ROWS", block)
    for extreme_set in boundary_sets(set23.pairs(), block):
        assert written(tmp_path, extreme_set, fmt) \
            == reference_bytes(extreme_set, fmt)
        assert storage.format_rows(extreme_set.pairs()) \
            == storage._suffixed_cells(extreme_set.dens,
                                       extreme_set.nums).tolist()


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_readers_agree_at_the_block_boundary(tmp_path, monkeypatch, set23,
                                             block, fmt):
    # a file of one block against the same file read past one block: the
    # result or the error message must not depend on the path
    path = tmp_path / f"points.{fmt}"
    for extreme_set in boundary_sets(set23.pairs(), block):
        write_extreme_set(path, extreme_set, fmt=fmt)
        data = path.read_bytes()
        for name, faulted in [("none", data),
                              *boundary_faults(extreme_set, data, fmt)]:
            python = read_outcome(path, faulted)
            with monkeypatch.context() as blocks:
                blocks.setattr(search, "BLOCK_ROWS", block)
                assert read_outcome(path) == python, name
            if name == "none":
                read = read_extreme_set(path)
                assert read == extreme_set
                assert read.complete == extreme_set.complete
            elif name != "uncanonical":
                assert python[0] == "error", name


def test_write_rejects_unknown_format(tmp_path, set12):
    with pytest.raises(ValueError):
        write_extreme_set(tmp_path / "x", set12, fmt="xml")


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("EXTREMEFORMS_CACHE", str(tmp_path / "alt"))
    assert default_cache_dir() == tmp_path / "alt"
    monkeypatch.delenv("EXTREMEFORMS_CACHE")
    assert default_cache_dir().name == "extremeforms"


def test_cache_key_distinguishes_runs():
    keys = {
        cache_key("enum", 2, 2),
        cache_key("enum", 3, 2),
        cache_key("planar", 3, 2),
        cache_key("kg", 3, 2, extra={"d": 2, "seed": 0}),
        cache_key("kg", 3, 2, extra={"d": 3, "seed": 0}),
    }
    assert len(keys) == 5
    key = cache_key("enum", 2, 2)
    assert key == cache_key("enum", 2, 2)
    assert f"v{FILE_FORMAT_VERSION}" in key
    assert f"pkg{extremeforms.__version__}" in key
    assert "/" not in key and os.sep not in key


def test_cache_store_and_load(tmp_path):
    data = b'{"hello": 1}'
    key = cache_key("enum", 2, 2)
    stored = cache_store(tmp_path, key, data)
    assert stored.parent == tmp_path
    assert cache_load(tmp_path, key) == data
    assert cache_load(tmp_path, cache_key("enum", 3, 2)) is None


def test_cache_rejects_corruption(tmp_path):
    key = cache_key("planar", 3, 2)
    cache_store(tmp_path, key, b"payload bytes")
    entry = tmp_path / key
    raw = bytearray(entry.read_bytes())
    raw[0] ^= 0xFF
    entry.write_bytes(bytes(raw))
    assert cache_load(tmp_path, key) is None


def test_cache_sidecar_that_is_not_text_is_a_miss(tmp_path):
    key = cache_key("planar", 2, 2)
    cache_store(tmp_path / "cache", key, b"payload bytes")
    (tmp_path / "cache" / f"{key}.sha256").write_bytes(b"\xff")
    assert cache_load(tmp_path / "cache", key) is None
    target = tmp_path / "copy"
    assert cache_load(tmp_path / "cache", key, target) is None
    assert not target.exists()


def test_cache_missing_sidecar(tmp_path):
    key = cache_key("planar", 4, 2)
    cache_store(tmp_path, key, b"payload")
    for sidecar in tmp_path.glob(f"{key}.*"):
        sidecar.unlink()
    assert cache_load(tmp_path, key) is None


def test_cache_store_writes_a_set_as_its_entry(tmp_path, set23):
    # a SetPayload is written as write_entry writes it, straight into the
    # cache, and its len() is the size of what is stored
    entry = tmp_path / "entry"
    storage.write_entry(entry, set23)
    key = cache_key("enum", 2, 3)
    payload = storage.SetPayload(set23)
    stored = cache_store(tmp_path / "cache", key, payload)
    assert stored.read_bytes() == entry.read_bytes()
    assert len(payload) == entry.stat().st_size
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        key, f"{key}.sha256"]


def test_cache_store_copies_a_file(tmp_path, set23):
    artifact = tmp_path / "set23.json"
    write_extreme_set(artifact, set23)
    key = cache_key("enum", 2, 3)
    assert len(FilePayload(artifact)) == artifact.stat().st_size
    entry = cache_store(tmp_path / "cache", key, FilePayload(artifact))
    assert cache_load(tmp_path / "cache", key) == artifact.read_bytes()
    assert sorted(p.name for p in entry.parent.iterdir()) == [
        key, f"{key}.sha256"]


def test_cache_load_to_a_target_keeps_only_an_intact_copy(tmp_path):
    key = cache_key("planar", 3, 2)
    cache = tmp_path / "cache"
    target = tmp_path / "copy"
    assert cache_load(cache, key, target) is None  # no entry
    cache_store(cache, key, b"payload bytes")
    copy = cache_load(cache, key, target)
    assert isinstance(copy, FilePayload) and copy.path == target
    assert len(copy) == len(b"payload bytes")
    assert target.read_bytes() == b"payload bytes"
    (cache / key).write_bytes(b"payload bytez")
    target.write_bytes(b"stale")
    assert cache_load(cache, key, target) is None
    assert not target.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]


def test_cache_load_raises_when_its_target_cannot_be_written(tmp_path):
    # reading the entry may miss; writing the caller's target may not
    key = cache_key("planar", 3, 2)
    cache_store(tmp_path / "cache", key, b"payload bytes")
    (tmp_path / "dir").mkdir()
    with pytest.raises(IsADirectoryError):
        cache_load(tmp_path / "cache", key, tmp_path / "dir")


def test_cache_overwrite_is_atomic_replacement(tmp_path):
    key = cache_key("enum", 1, 2)
    cache_store(tmp_path, key, b"first")
    cache_store(tmp_path, key, b"second")
    assert cache_load(tmp_path, key) == b"second"
    leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name.lower()]
    assert leftovers == []


def test_failed_atomic_write_leaves_target_and_no_scratch(tmp_path):
    # os.replace cannot put a file over a non-empty directory
    target = tmp_path / "target"
    target.mkdir()
    (target / "kept").write_bytes(b"kept")
    with pytest.raises(OSError):
        atomic_write(target, b"new bytes")
    assert [p.name for p in tmp_path.iterdir()] == ["target"]
    assert (target / "kept").read_bytes() == b"kept"
