"""Tests for the persistence layer.

The wire format for rationals is "p/q" with reduced fractions and no
whitespace; integers may omit "/q". File round-trips must be lossless and
order preserving, and the cache must reject corrupted entries via its
checksum sidecar instead of returning damaged data.
"""

import csv
import io
import json
import os
from fractions import Fraction

import pytest

import extremeforms
from extremeforms import storage
from extremeforms.core import FormVector
from extremeforms.search import (
    ExtremeSet,
    extreme_points,
    planar_extreme_points,
)
from extremeforms.storage import (
    FILE_FORMAT_VERSION,
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


def test_read_orders_rows_past_2_62(tmp_path):
    # numerators this wide are compared on exact keys instead of in int64
    path = tmp_path / "wide.json"
    wide = ExtremeSet(1, 2, [1, 1], [[2 ** 62 - 1, 0], [2 ** 62, 0]])
    write_extreme_set(path, wide)
    assert read_extreme_set(path) == wide
    write_extreme_set(path, ExtremeSet(1, 2, [1, 1], wide.nums[::-1]))
    with pytest.raises(ValueError,
                       match="point 1 does not strictly follow point 0"):
        read_extreme_set(path)


# ---------------------------------------------------------------------------
# the fast reader of the writer's own JSON against the general path
# ---------------------------------------------------------------------------

def read_outcome(path, data=None):
    """What read_extreme_set gives: the set's fields, or the error text."""

    try:
        read = read_extreme_set(path, data)
    except ValueError as err:
        return "error", str(err)
    return "set", (read.m, read.n, read.dens.dtype, read.dens.tolist(),
                   read.nums.dtype, read.nums.tolist(), read.complete)


def check_fast_reader(path, data, monkeypatch):
    """The fast reader's answer on data, checked against the general path;
    read_extreme_set must give what the general path alone gives."""

    fast = storage._read_writer_json(data)
    with monkeypatch.context() as general_only:
        general_only.setattr(storage, "_read_writer_json", lambda data: None)
        expected = read_outcome(path, data)
    assert read_outcome(path, data) == expected
    if fast is not None:
        m, n, dens, nums, complete = fast
        assert expected == ("set", (m, n, dens.dtype, dens.tolist(),
                                    nums.dtype, nums.tolist(), complete))
    return fast, expected


LONG_CELLS = ExtremeSet(1, 2, [12345678, 1234], [[-1, 0], [1, 0]])
SEVEN_BYTE_CELLS = ExtremeSet(1, 2, [1234, 1234], [[-1, 0], [1, 0]])


@pytest.mark.parametrize("name", ["planar1", "planar2", "planar3", "planar4",
                                  "set22", "set23", "set32", "partial24",
                                  "long", "seven"])
def test_fast_reader_matches_the_general_path(tmp_path, request, monkeypatch,
                                              name):
    if name == "planar1":
        extreme_set = planar_extreme_points(1)
    elif name == "long":  # "-1/12345678" is past the 7 bytes of a key
        extreme_set = LONG_CELLS
    elif name == "seven":  # "-1/1234" is exactly 7
        extreme_set = SEVEN_BYTE_CELLS
    else:
        extreme_set = request.getfixturevalue(name)
    path = tmp_path / "points.json"
    write_extreme_set(path, extreme_set)
    fast, expected = check_fast_reader(path, path.read_bytes(), monkeypatch)
    assert (fast is None) == (name == "long")
    assert expected[0] == "set"
    assert read_extreme_set(path) == extreme_set
    assert read_extreme_set(path).complete == (name != "partial24")


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


@pytest.mark.parametrize("seed", [0, 1])
def test_fast_reader_on_mutated_artifacts(tmp_path, set23, monkeypatch, seed):
    # flipped, inserted and deleted bytes, swapped rows and a wrong count:
    # the fast reader gives None or what the general path reads, and
    # read_extreme_set errs exactly as the general path does
    path = tmp_path / "points.json"
    write_extreme_set(path, set23)
    seen = {}
    for kind, data in mutations(path.read_bytes(), seed):
        # a mutation may spell another valid set, which both then read
        _, expected = check_fast_reader(path, data, monkeypatch)
        seen.setdefault(kind, set()).add(expected[0])
    assert set(seen) == {"flip", "insert", "delete", "swap", "count"}
    assert seen["swap"] == seen["count"] == {"error"}
    # some mutations the general path still reads: a space in the layout
    assert "set" in seen["insert"] | seen["delete"] | seen["flip"]


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


def test_cache_missing_sidecar(tmp_path):
    key = cache_key("planar", 4, 2)
    cache_store(tmp_path, key, b"payload")
    for sidecar in tmp_path.glob(f"{key}.*"):
        sidecar.unlink()
    assert cache_load(tmp_path, key) is None


def test_cache_overwrite_is_atomic_replacement(tmp_path):
    key = cache_key("enum", 1, 2)
    cache_store(tmp_path, key, b"first")
    cache_store(tmp_path, key, b"second")
    assert cache_load(tmp_path, key) == b"second"
    leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name.lower()]
    assert leftovers == []
