"""Tests for the command-line interface.

main() is exercised in-process (argv list in, exit code out) with the
cache redirected to a temporary directory. File outputs are compared
byte-for-byte where determinism is part of the contract: cache hits,
worker counts, and budget-resumed runs must all reproduce the same file.
"""

import hashlib
import json
import math
import os
from fractions import Fraction
from pathlib import Path
import subprocess
import sys
import threading
import time

import pytest

from extremeforms.cli import main
from extremeforms.core import InternalInvariantError
from extremeforms.storage import cache_key, cache_store, read_extreme_set
from support import spell_entry

F = Fraction


@pytest.fixture()
def cachedir(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("EXTREMEFORMS_CACHE", str(cache))
    return cache


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def masked(stdout):
    """The lines of stdout but the measured wall time."""
    return [line for line in stdout.splitlines()
            if not line.startswith("wall-seconds:")]


# ---------------------------------------------------------------------------
# enum
# ---------------------------------------------------------------------------

def test_enum_22(tmp_path, cachedir, capsys, set22):
    out = tmp_path / "points.json"
    code, stdout, _ = run(capsys, "enum", "--m", "2", "--n", "2",
                          "--out", str(out))
    assert code == 0
    assert "count: 16" in stdout
    assert "max-denominator: 2" in stdout
    loaded = read_extreme_set(out)
    assert loaded == set22


def test_enum_csv(tmp_path, cachedir, capsys, set22):
    out = tmp_path / "points.csv"
    code, stdout, _ = run(capsys, "enum", "--m", "2", "--n", "2",
                          "--out", str(out), "--format", "csv")
    assert code == 0
    assert read_extreme_set(out) == set22


def test_enum_cache_hit_is_byte_identical(tmp_path, cachedir, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    code1, out1, _ = run(capsys, "enum", "--m", "2", "--n", "2",
                         "--out", str(first))
    code2, out2, _ = run(capsys, "enum", "--m", "2", "--n", "2",
                         "--out", str(second))
    assert code1 == code2 == 0
    assert first.read_bytes() == second.read_bytes()
    assert "cache: hit" in out2


def test_enum_no_cache_still_identical(tmp_path, cachedir, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run(capsys, "enum", "--m", "2", "--n", "2", "--out", str(first))
    code, stdout, _ = run(capsys, "enum", "--m", "2", "--n", "2",
                          "--out", str(second), "--no-cache")
    assert code == 0
    assert "cache: hit" not in stdout
    assert first.read_bytes() == second.read_bytes()


def test_enum_corrupted_cache_recomputes(tmp_path, cachedir, capsys):
    first = tmp_path / "a.json"
    run(capsys, "enum", "--m", "2", "--n", "2", "--out", str(first))
    entries = [p for p in cachedir.iterdir()
               if p.name.startswith("enum") and not p.name.endswith("sha256")]
    assert entries
    for entry in entries:
        entry.write_bytes(b"garbage")
    second = tmp_path / "b.json"
    code, stdout, _ = run(capsys, "enum", "--m", "2", "--n", "2",
                          "--out", str(second))
    assert code == 0
    assert "cache: hit" not in stdout
    assert first.read_bytes() == second.read_bytes()


def test_enum_workers_identical(tmp_path, cachedir, capsys):
    files = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}.json"
        code, _, _ = run(capsys, "enum", "--m", "2", "--n", "2",
                         "--out", str(out), "--workers", str(workers),
                         "--no-cache")
        assert code == 0
        files[workers] = out.read_bytes()
    assert files[1] == files[2] == files[8]


def test_enum_budget_resume_round_trip(tmp_path, cachedir, capsys):
    # (3,2) is the planar closed form, which completes at any budget;
    # (2,3) walks 2304 bases in 5 runs, with the basis kernel at n^m = 9,
    # and must give the double description's bytes
    for m, n, budget in [("3", "2", "2"), ("2", "3", "500")]:
        fresh = tmp_path / "fresh.json"
        code, _, _ = run(capsys, "enum", "--m", m, "--n", n,
                         "--out", str(fresh), "--no-cache")
        assert code == 0

        out = tmp_path / "budgeted.json"
        resume = None
        for _ in range(60):
            argv = ["enum", "--m", m, "--n", n, "--out", str(out),
                    "--budget", budget, "--no-cache"]
            if resume is not None:
                argv += ["--resume", str(resume)]
            code, stdout, stderr = run(capsys, *argv)
            if code == 0:
                break
            assert code == 3
            assert "resume" in stderr
            resume = tmp_path / "budgeted.json.resume.json"
            assert resume.exists()
        assert code == 0
        assert out.read_bytes() == fresh.read_bytes(), (m, n)


def test_enum_resume_rejects_non_string_cell(tmp_path, cachedir, capsys):
    out = tmp_path / "budgeted.json"
    argv = ["enum", "--m", "2", "--n", "3", "--out", str(out),
            "--budget", "1", "--no-cache"]
    assert run(capsys, *argv)[0] == 3
    resume = tmp_path / "budgeted.json.resume.json"
    payload = json.loads(resume.read_text())
    payload["partial"][0][0] = [1, 2]
    resume.write_text(json.dumps(payload))
    code, _, stderr = run(capsys, *argv, "--resume", str(resume))
    assert code == 2
    assert "not a p/q rational" in stderr


def test_enum_resume_rejects_row_past_int64(tmp_path, cachedir, capsys):
    out = tmp_path / "budgeted.json"
    argv = ["enum", "--m", "2", "--n", "3", "--out", str(out),
            "--budget", "1", "--no-cache"]
    assert run(capsys, *argv)[0] == 3
    resume = tmp_path / "budgeted.json.resume.json"
    payload = json.loads(resume.read_text())
    payload["partial"][1][0] = "1/9223372036854775808"
    resume.write_text(json.dumps(payload))
    code, _, stderr = run(capsys, *argv, "--resume", str(resume))
    assert code == 2
    assert "point 1: does not fit int64" in stderr


def budgeted_resume_file(capsys, tmp_path, m, n):
    """The resume file of a one-basis enum run on (m, n), and its argv."""
    out = tmp_path / "budgeted.json"
    argv = ["enum", "--m", str(m), "--n", str(n), "--out", str(out)]
    assert run(capsys, *argv, "--budget", "1")[0] == 3
    return tmp_path / "budgeted.json.resume.json", argv


def cache_entries(cachedir):
    return sorted(cachedir.iterdir()) if cachedir.exists() else []


# sha256 of the resume files of `enum --m 2 --n 3 --budget 1` and of one
# `--resume` of it, as the file format has always written them
RESUME_23_DIGESTS = (
    "eda0d37b482c69d7db177e824d4f7008557d3eabf7cd664ca5c2321657a985cc",
    "d17c375f4805f69c8e3a5f3daf23f177c3a6e9c8a3584052ed39cd0f1a511c36",
)


def test_enum_resume_file_bytes_are_pinned(tmp_path, cachedir, capsys):
    resume, argv = budgeted_resume_file(capsys, tmp_path, 2, 3)
    first = hashlib.sha256(resume.read_bytes()).hexdigest()
    code, _, _ = run(capsys, *argv, "--budget", "1", "--resume", str(resume))
    assert code == 3
    second = hashlib.sha256(resume.read_bytes()).hexdigest()
    assert (first, second) == RESUME_23_DIGESTS
    assert cache_entries(cachedir) == []


# enum --resume argv[1] with the default --out, whose resume file is
# argv[1] itself, in a child that may write no file past argv[2] bytes
RESUMED_UNDER_FSIZE = (
    "import resource, sys\n"
    "limit = int(sys.argv[2])\n"
    "resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))\n"
    "from extremeforms.cli import main\n"
    "sys.exit(main(['enum', '--m', '2', '--n', '4', '--budget', '25',\n"
    "               '--resume', sys.argv[1]]))")


def test_failed_resume_write_leaves_the_resume_file(tmp_path, cachedir,
                                                    capsys, monkeypatch):
    # Python ignores SIGXFSZ, so a write past RLIMIT_FSIZE is an OSError;
    # the resume file that the run read must survive it byte for byte
    monkeypatch.chdir(tmp_path)
    argv = ("enum", "--m", "2", "--n", "4", "--budget", "25")
    assert run(capsys, *argv)[0] == 3
    resume = tmp_path / "extremeforms-enum-m2-n4.json.resume.json"
    before = resume.read_bytes()
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", RESUMED_UNDER_FSIZE, resume.name,
         str(len(before) + 1024)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "File too large" \
        in done.stderr
    assert resume.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [resume.name]


def test_enum_resume_rejects_unreadable_file(tmp_path, cachedir, capsys):
    argv = ("enum", "--m", "2", "--n", "3", "--out", str(tmp_path / "x.json"))
    missing = tmp_path / "missing.json"
    code, _, stderr = run(capsys, *argv, "--resume", str(missing))
    assert code == 2
    assert stderr.startswith(f"error: cannot read resume file {missing}: ")
    garbled = tmp_path / "garbled.json"
    for content in (b"{not json", b"\xff\xfe"):
        garbled.write_bytes(content)
        code, _, stderr = run(capsys, *argv, "--resume", str(garbled))
        assert code == 2
        assert stderr.startswith(
            f"error: cannot read resume file {garbled}: ")
    assert cache_entries(cachedir) == []


def test_enum_resume_rejects_another_shape(tmp_path, cachedir, capsys):
    resume, _ = budgeted_resume_file(capsys, tmp_path, 2, 3)
    code, _, stderr = run(capsys, "enum", "--m", "3", "--n", "2",
                          "--out", str(tmp_path / "x.json"),
                          "--resume", str(resume))
    assert code == 2
    assert stderr == ("error: resume file is for (m=2, n=3), "
                      "not (m=3, n=2)\n")


def test_enum_resumed_run_is_not_cached(tmp_path, cachedir, capsys):
    # resume rows are trusted input; a resumed run must not become the
    # cached answer of the plain run, even with a bogus row appended
    resume, argv = budgeted_resume_file(capsys, tmp_path, 2, 3)
    payload = json.loads(resume.read_text())
    payload["partial"].append(["1"] * 9)
    resume.write_text(json.dumps(payload))
    code, stdout, _ = run(capsys, *argv, "--resume", str(resume))
    assert code == 0
    assert "count: 91" in stdout
    assert cache_entries(cachedir) == []
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    assert "count: 90" in stdout
    assert "cache: hit" not in stdout


def test_enum_completed_budget_run_is_not_cached(tmp_path, cachedir, capsys):
    code, stdout, _ = run(capsys, "enum", "--m", "2", "--n", "2",
                          "--out", str(tmp_path / "x.json"),
                          "--budget", "1000")
    assert code == 0
    assert "count: 16" in stdout
    assert cache_entries(cachedir) == []


def test_enum_resume_rejects_cursor_outside_walk(tmp_path, cachedir, capsys):
    resume, argv = budgeted_resume_file(capsys, tmp_path, 2, 4)
    payload = json.loads(resume.read_text())
    payload["search"]["last_basis"] = [10 ** 6] * 15
    resume.write_text(json.dumps(payload))
    code, _, stderr = run(capsys, *argv, "--resume", str(resume))
    assert code == 2
    assert "resume cursor" in stderr
    assert cache_entries(cachedir) == []


@pytest.mark.parametrize("edit", [
    lambda payload: [1],
    lambda payload: {**payload, "search": [1]},
    lambda payload: {**payload, "partial": [1]},
], ids=["payload", "search", "partial-row"])
def test_enum_resume_rejects_malformed_file(tmp_path, cachedir, capsys, edit):
    resume, argv = budgeted_resume_file(capsys, tmp_path, 2, 3)
    resume.write_text(json.dumps(edit(json.loads(resume.read_text()))))
    code, _, stderr = run(capsys, *argv, "--resume", str(resume))
    assert code == 2
    assert stderr.startswith("error: ")
    assert cache_entries(cachedir) == []


def test_enum_rejects_bad_arguments(cachedir, capsys, tmp_path):
    assert run(capsys, "enum", "--m", "0", "--n", "2",
               "--out", str(tmp_path / "x.json"))[0] == 2
    assert run(capsys, "enum", "--m", "2", "--n", "2",
               "--out", str(tmp_path / "x.json"), "--budget", "0")[0] == 2
    assert run(capsys, "enum", "--m", "2")[0] == 2  # missing --n


@pytest.mark.parametrize("argv", [
    ("enum", "--m", "2", "--n", "0"),
    ("kg", "--m", "2", "--d", "0"),
    ("enum", "--m", "2", "--n", "2", "--workers", "0"),
    ("kg", "--m", "2", "--d", "1", "--restarts", "0"),
], ids=["n", "d", "workers", "restarts"])
def test_rejects_values_below_one(cachedir, capsys, tmp_path, monkeypatch,
                                  argv):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv)[0] == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("kg", "--m", "2", "--d", "1", "--seed", "-1"),
], ids=["seed"])
def test_rejects_negative_seed_and_iters(cachedir, capsys, tmp_path,
                                         monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert f"argument {argv[-2]}: must be >= 0, got -1" in stderr
    assert list(tmp_path.iterdir()) == []


def test_enum_oversized_dimension(cachedir, capsys, tmp_path):
    code, _, stderr = run(capsys, "enum", "--m", "5", "--n", "2",
                          "--out", str(tmp_path / "x.json"))
    assert code == 3
    code, _, _ = run(capsys, "enum", "--m", "3", "--n", "3",
                     "--out", str(tmp_path / "y.json"))
    assert code == 3


@pytest.mark.parametrize("command", ["bh", "mixed"])
def test_convex_constant_past_the_supported_dimension_exits_3(cachedir,
                                                              capsys,
                                                              command):
    # n = 2 takes the same router as enum: extreme_points refuses n^m = 32
    code, stdout, stderr = run(capsys, command, "--m", "5", "--n", "2")
    assert (code, stdout) == (3, "")
    assert stderr == ("resource budget exceeded: "
                      "n^m = 32 exceeds supported dimension\n")
    assert cache_entries(cachedir) == []


# ---------------------------------------------------------------------------
# planar
# ---------------------------------------------------------------------------

def test_planar_m3(tmp_path, cachedir, capsys, planar3):
    out = tmp_path / "p3.json"
    code, stdout, _ = run(capsys, "planar", "--m", "3", "--out", str(out))
    assert code == 0
    assert "count: 256" in stdout
    assert read_extreme_set(out) == planar3


def test_planar_cache_hit_is_byte_identical(tmp_path, cachedir, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    code1, out1, _ = run(capsys, "planar", "--m", "3", "--out", str(first))
    code2, out2, _ = run(capsys, "planar", "--m", "3", "--out", str(second))
    assert code1 == code2 == 0
    assert "cache: hit" not in out1
    assert "cache: hit" in out2
    assert first.read_bytes() == second.read_bytes()


def test_planar_rejects_workers(tmp_path, cachedir, capsys, monkeypatch):
    # n = 2 scans no bases, so planar has no --workers flag
    monkeypatch.chdir(tmp_path)
    code, _, stderr = run(capsys, "planar", "--m", "3", "--workers", "2")
    assert code == 2
    assert "--workers" in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["bh", "mixed"])
def test_convex_constant_ignores_workers_when_planar(tmp_path, cachedir,
                                                     capsys, monkeypatch,
                                                     command):
    # --workers is accepted and ignored, on the n = 2 path as elsewhere
    monkeypatch.chdir(tmp_path)
    argv = (command, "--m", "3", "--n", "2", "--no-cache")
    flagged = run(capsys, *argv, "--workers", "2")
    assert flagged[0] == 0
    assert flagged == run(capsys, *argv)
    assert list(tmp_path.iterdir()) == []


def plant_entry(cachedir, command, m, n, data: bytes) -> str:
    """Store data as the cache entry of command's (m, n) set; its key."""

    key = cache_key(command, m, n)
    cache_store(cachedir, key, data)
    return key


def test_planar_cache_hit_rejects_row_past_int64(tmp_path, cachedir, capsys):
    # -2^63 fits int64, but its negation does not
    key = plant_entry(cachedir, "planar", 1, 2, spell_entry(
        1, 2, [1, 1], [[-2 ** 63, 1], [0, 1]], code="q"))
    code, _, stderr = run(capsys, "planar", "--m", "1",
                          "--out", str(tmp_path / "p1.json"))
    assert code == 2
    assert stderr == (f"error: cache entry {key}: {cachedir / key}: point 0: "
                      f"numerator -9223372036854775808 is out of range\n")


@pytest.mark.parametrize("planted", ["mistyped", "foreign"])
def test_planar_rejected_cache_hit_leaves_out_alone(tmp_path, cachedir,
                                                    capsys, planted, planar3):
    out = tmp_path / "p1.json"
    if planted == "mistyped":  # m spelled as a string
        data = spell_entry(1, 2, [1], [[1, 0]]).replace(b"m=1", b"m='1'")
    else:  # a valid entry of another shape
        data = spell_entry(3, 2, planar3.dens.tolist(),
                           planar3.nums.tolist())
    plant_entry(cachedir, "planar", 1, 2, data)
    out.write_bytes(b"keep me")
    code, stdout, stderr = run(capsys, "planar", "--m", "1",
                               "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "Traceback" not in stderr
    assert ("bad head b\"rows m='1' n=2" if planted == "mistyped"
            else "holds (m=3, n=2), not (m=1, n=2)") in stderr
    assert out.read_bytes() == b"keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "p1.json"]


def test_enum_rejects_cache_hit_with_unordered_rows(tmp_path, cachedir,
                                                   capsys, set22):
    # the (2,2) rows with row 1 repeated before row 0
    pairs = set22.pairs()
    pairs.insert(0, pairs[1])
    plant_entry(cachedir, "enum", 2, 2, spell_entry(
        2, 2, [d for d, _ in pairs], [u for _, u in pairs]))
    out = tmp_path / "e22.json"
    code, stdout, stderr = run(capsys, "enum", "--m", "2", "--n", "2",
                               "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "point 1 does not strictly follow point 0" in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]


@pytest.mark.parametrize("rows", [None, 1], ids=["one-block", "past-one"])
def test_refused_hit_names_the_cache_entry(tmp_path, cachedir, capsys,
                                           monkeypatch, set22, rows):
    # the (2,2) rows with rows 1 and 2 swapped, in one block or past it;
    # either way the error names the entry, not the private copy
    from extremeforms import search

    if rows:
        monkeypatch.setattr(search, "BLOCK_ROWS", rows)
    pairs = set22.pairs()
    pairs[1], pairs[2] = pairs[2], pairs[1]
    key = plant_entry(cachedir, "enum", 2, 2, spell_entry(
        2, 2, [d for d, _ in pairs], [u for _, u in pairs]))
    out = tmp_path / "e22.json"
    code, stdout, stderr = run(capsys, "enum", "--m", "2", "--n", "2",
                               "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == (f"error: cache entry {key}: {cachedir / key}: point 2 "
                      f"does not strictly follow point 1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]


def entry_refusals(set22):
    """Entries of the (2,2) set that read_entry refuses, each with its
    kind and the message after the entry's path."""

    pairs = set22.pairs()
    dens, rows = [d for d, _ in pairs], [u for _, u in pairs]
    last = len(pairs) - 1
    d, u = pairs[last]

    def spell(row):
        return spell_entry(2, 2, dens[:last] + [row[0]], rows[:last]
                           + [row[1]])

    data = spell_entry(2, 2, dens, rows)
    head = data[:data.index(b"\n") + 1].replace(b"nums=b", b"nums=h")
    yield "head", data.replace(b"nums=b", b"nums=h", 1), f"bad head {head!r}"
    yield "shape", spell_entry(2, 3, [1], [[1] + [0] * 8]), \
        "holds (m=2, n=3), not (m=2, n=2)"
    yield "short", data[:-1], \
        f"{len(data) - 1} bytes, not the {len(data)} of {len(pairs)} points"
    yield "long", data + b"\0", \
        f"{len(data) + 1} bytes, not the {len(data)} of {len(pairs)} points"
    yield "denominator", spell((0, u)), \
        f"point {last}: denominator 0 is not positive"
    yield "unreduced", spell((3 * d, tuple(3 * x for x in u))), \
        f"point {last}: not gcd-reduced"
    yield "-128", spell((d, (-128, *u[1:]))), \
        f"point {last}: numerator -128 is out of range"
    yield "order", spell(pairs[0]), \
        f"point {last} does not strictly follow point {last - 1}"


@pytest.mark.parametrize("rows", [None, 1], ids=["one-block", "past-one"])
@pytest.mark.parametrize("kind", ["head", "shape", "short", "long",
                                  "denominator", "unreduced", "-128",
                                  "order"])
def test_refused_entry_leaves_out_as_it_was(tmp_path, cachedir, capsys,
                                            monkeypatch, set22, kind, rows):
    # each check of the entry, in one block and past it: exit 2 naming the
    # entry and the fault, out byte for byte as it was, no scratch file
    from extremeforms import search

    if rows:
        monkeypatch.setattr(search, "BLOCK_ROWS", rows)
    data, message = {kind: (data, message) for kind, data, message
                     in entry_refusals(set22)}[kind]
    key = plant_entry(cachedir, "enum", 2, 2, data)
    out = tmp_path / "e22.json"
    out.write_bytes(b"keep me")
    code, stdout, stderr = run(capsys, "enum", "--m", "2", "--n", "2",
                               "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: cache entry {key}: {cachedir / key}: {message}\n"
    assert out.read_bytes() == b"keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "e22.json"]
    assert sorted(p.name for p in cachedir.iterdir()) == [key, f"{key}.sha256"]


@pytest.mark.parametrize("argv", [("planar", "--m", "3"),
                                  ("enum", "--m", "2", "--n", "2"),
                                  ("planar", "--m", "4")])
def test_canonical_cache_hit_never_calls_json_loads(tmp_path, cachedir,
                                                    capsys, monkeypatch,
                                                    argv):
    # a hit reads the set's rows from its entry and parses no text: the
    # small sets in blocks of one row, planar m = 4 at the real block size
    from extremeforms import search, storage

    if argv != ("planar", "--m", "4"):
        monkeypatch.setattr(search, "BLOCK_ROWS", 1)
    out = tmp_path / "artifact.json"
    code, fresh, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    artifact = out.read_bytes()
    out.unlink()

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(storage.json, "loads", refuse)
    code, hit, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    assert out.read_bytes() == artifact

    assert masked(hit) == masked(fresh) + ["cache: hit"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json",
                                                          "cache"]


def test_planar_budget_guard(tmp_path, cachedir, capsys):
    code, _, stderr = run(capsys, "planar", "--m", "5",
                          "--out", str(tmp_path / "p5.json"))
    assert code == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_midpoint(cachedir, capsys):
    code, stdout, _ = run(capsys, "verify", "--m", "2", "--n", "2",
                          "--point", "1/2,1/2,0,0")
    assert code == 0
    assert "not extreme; rank 2 of 4; midpoint witness available" in stdout


def test_verify_extreme_point(cachedir, capsys):
    code, stdout, _ = run(capsys, "verify", "--m", "2", "--n", "2",
                          "--point", "0,0,0,1")
    assert code == 0
    assert "extreme; rank 4 of 4" in stdout
    assert "not extreme" not in stdout


def test_verify_outside_ball(cachedir, capsys):
    code, stdout, _ = run(capsys, "verify", "--m", "2", "--n", "2",
                          "--point", "1,1,0,0")
    assert code == 0
    assert "outside the unit ball" in stdout
    assert "2" in stdout  # the violating value


def test_verify_parse_error_position(cachedir, capsys):
    code, _, stderr = run(capsys, "verify", "--m", "2", "--n", "2",
                          "--point", "1/2,oops,0,0")
    assert code == 2
    assert "entry 2" in stderr


def test_verify_wrong_length(cachedir, capsys):
    code, _, stderr = run(capsys, "verify", "--m", "2", "--n", "2",
                          "--point", "1/2,1/2")
    assert code == 2


# ---------------------------------------------------------------------------
# constants subcommands
# ---------------------------------------------------------------------------

def test_bh_subcommand(cachedir, capsys):
    code, stdout, _ = run(capsys, "bh", "--m", "2", "--n", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["name"] == "bohnenblust-hille"
    assert abs(payload["value"] - math.sqrt(2)) < 1e-9
    assert payload["lambda"] == "4/3"
    assert payload["exact_note"] == "2^(1/2)"


def test_bh_cache_byte_identical(cachedir, capsys):
    code1, out1, _ = run(capsys, "bh", "--m", "2", "--n", "2")
    code2, out2, _ = run(capsys, "bh", "--m", "2", "--n", "2")
    assert code1 == code2 == 0
    assert json.loads(out1) == json.loads(out2)


def test_mixed_subcommand(cachedir, capsys):
    code, stdout, _ = run(capsys, "mixed", "--m", "2", "--n", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert abs(payload["value"] - 2 ** 0.75) < 1e-9
    assert payload["exact_note"] == "2^(3/4)"


def test_khinchin_subcommand(cachedir, capsys):
    code, stdout, _ = run(capsys, "khinchin", "--lambda", "4/3")
    assert code == 0
    payload = json.loads(stdout)
    assert abs(payload["value"] - 2 ** -0.25) < 1e-12
    assert payload["lambda"] == "4/3"
    assert abs(payload["branch-point"] - 1.8474) < 5e-4


def test_khinchin_runs_without_scipy(cachedir, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    code, stdout, _ = run(capsys, "khinchin", "--lambda", "2", "--no-cache")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["value"] == 1.0
    assert payload["branch-point"] == 1.8474163360763414


def test_khinchin_domain_error(cachedir, capsys):
    code, _, stderr = run(capsys, "khinchin", "--lambda", "3")
    assert code == 2


def test_two_slot_subcommand(cachedir, capsys):
    code, stdout, _ = run(capsys, "two-slot", "--m", "4")
    assert code == 0
    payload = json.loads(stdout)
    assert abs(payload["value"] - 2 ** 0.75) < 1e-15


def test_kg_subcommand_d1(cachedir, capsys):
    code, stdout, _ = run(capsys, "kg", "--m", "2", "--d", "1")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["value"] == 1.0
    assert payload["d"] == 1


def test_kg_subcommand_d2(cachedir, capsys):
    code, stdout, _ = run(capsys, "kg", "--m", "2", "--d", "2",
                          "--restarts", "8", "--seed", "3")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["value"] >= 1.414213 - 1e-6


def test_blei_subcommand(cachedir, capsys):
    code, stdout, _ = run(capsys, "blei")
    assert code == 0
    assert json.loads(stdout) == {"name": "blei-kkt-max", "value": 1.0,
                                  "exact_note": "1"}


@pytest.mark.parametrize("flag", ["--grid", "--iters"])
def test_blei_has_no_search_flags(cachedir, capsys, flag):
    code, stdout, stderr = run(capsys, "blei", flag, "8")
    assert (code, stdout) == (2, "")
    assert f"unrecognized arguments: {flag} 8" in stderr
    assert not cachedir.exists()


@pytest.mark.parametrize("argv", [
    ("bh", "--m", "2", "--n", "2"),
    ("mixed", "--m", "2", "--n", "3"),
    ("khinchin", "--lambda", "4/3"),
    ("two-slot", "--m", "3"),
    ("kg", "--m", "2", "--d", "2", "--restarts", "2", "--seed", "5"),
    ("blei",),
], ids=["bh", "mixed", "khinchin", "two-slot", "kg", "blei"])
def test_json_cache_hit_prints_the_stored_bytes(cachedir, capsys, argv):
    # every fresh payload passes the identity check of its own hit
    fresh = run(capsys, *argv)
    assert fresh[0] == 0
    assert run(capsys, *argv) == fresh
    assert len(cache_entries(cachedir)) == 2


def test_kg_default_budget_and_the_same_budget_share_one_entry(
        cachedir, capsys, monkeypatch):
    # kg --m 4 scans the default 300 bases, so --budget 300 is the same
    # run: a hit on the one entry (and its sidecar), with no scan
    from extremeforms import search

    argv = ("kg", "--m", "4", "--d", "2", "--restarts", "2")
    fresh = run(capsys, *argv)
    assert fresh[0] == 0
    monkeypatch.setattr(search, "extreme_points", None)
    assert run(capsys, *argv, "--budget", "300") == fresh
    assert len(cache_entries(cachedir)) == 2


@pytest.mark.parametrize("m", [1, 2])
def test_kg_budget_on_a_closed_form_shares_the_unbudgeted_entry(
        cachedir, capsys, monkeypatch, m):
    # (2,1) and (2,2) are closed forms that ignore a budget, so --budget 5
    # is a hit on the entry keyed without one, with no scan
    from extremeforms import search

    argv = ("kg", "--m", str(m), "--d", "2", "--restarts", "2")
    fresh = run(capsys, *argv)
    assert fresh[0] == 0
    monkeypatch.setattr(search, "extreme_points", None)
    assert run(capsys, *argv, "--budget", "5") == fresh
    key = cache_key("kg", m, 0, extra={"d": 2, "restarts": 2, "seed": 0,
                                       "budget": None})
    assert sorted(path.name for path in cache_entries(cachedir)) \
        == [key, key + ".sha256"]


@pytest.mark.parametrize("m, planted, field", [
    (3, b'{"name": "bogus"}', "name"),
    (3, b'{"name": "two-slot", "value": 1.5}', "m"),
    (3, b'{"name": "two-slot", "m": 4, "value": 1.5}', "m"),
    (3, b'{"name": "two-slot", "m": 3.0, "value": 1.5}', "m"),
    (1, b'{"name": "two-slot", "m": true, "value": 1.0}', "m"),
    (3, b'["two-slot", 3]', None),
    (3, b'{"name": "two-slot",', None),
    (3, b'\xff{}', None),
], ids=["name", "missing", "other-m", "float-m", "bool-m", "array",
        "truncated", "not-utf8"])
def test_json_cache_hit_rejects_foreign_payload(cachedir, capsys, m, planted,
                                                field):
    key = cache_key("two-slot", m, 0, extra={})
    cache_store(cachedir, key, planted)
    code, stdout, stderr = run(capsys, "two-slot", "--m", str(m))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: cache entry {key}: ")
    if field is not None:
        assert f"field {field!r} does not read" in stderr


@pytest.mark.parametrize("source, target, field", [
    (("bh", "--m", "2", "--n", "2"), ("mixed", "--m", "2", "--n", "2"),
     "name"),
    (("kg", "--m", "2", "--d", "2", "--restarts", "2", "--seed", "1"),
     ("kg", "--m", "2", "--d", "2", "--restarts", "2", "--seed", "0"),
     "seed"),
], ids=["bh-as-mixed", "kg-other-seed"])
def test_json_cache_hit_rejects_another_commands_result(cachedir, capsys,
                                                        source, target,
                                                        field):
    code, stdout, _ = run(capsys, *source, "--no-cache")
    assert code == 0
    key = (cache_key("mixed", 2, 2, extra={}) if target[0] == "mixed" else
           cache_key("kg", 2, 0, extra={"d": 2, "restarts": 2, "seed": 0,
                                        "budget": None}))
    cache_store(cachedir, key, stdout.encode())
    code, stdout, stderr = run(capsys, *target)
    assert (code, stdout) == (2, "")
    assert f"error: cache entry {key}: field {field!r}" in stderr


@pytest.mark.parametrize("argv", [("khinchin", "--lambda", "3")],
                         ids=["khinchin"])
def test_domain_error_leaves_no_cache_entry(cachedir, capsys, argv):
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert stderr.startswith("error: ")
    assert not cachedir.exists() or list(cachedir.iterdir()) == []


# ---------------------------------------------------------------------------
# commands that never load numpy
# ---------------------------------------------------------------------------

# Runs main on its arguments (or only imports storage, given none) in a
# fresh interpreter, then fails naming any heavy module it loaded.
NUMPY_FREE_CHECK = (
    "import sys\n"
    "import extremeforms.storage\n"
    "from extremeforms.cli import main\n"
    "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "heavy = sorted({'numpy', 'extremeforms.search'} & set(sys.modules))\n"
    "sys.exit(f'exit {code}, loaded {heavy}' if code or heavy else 0)")


def run_numpy_free(*argv):
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", NUMPY_FREE_CHECK, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("point, verdict", [
    ("0,0,0,1", "extreme; rank 4 of 4"),
    ("1/2,1/2,0,0", "not extreme; rank 2 of 4"),
    ("1,1,0,0", "outside the unit ball"),
], ids=["extreme", "midpoint", "outside"])
def test_verify_loads_no_numpy(cachedir, point, verdict):
    stdout = run_numpy_free("verify", "--m", "2", "--n", "2",
                            "--point", point)
    assert stdout.startswith(verdict)


@pytest.mark.parametrize("argv", [("two-slot", "--m", "3"),
                                  ("bh", "--m", "2", "--n", "2")],
                         ids=["two-slot", "bh"])
def test_json_cache_hit_loads_no_numpy(cachedir, capsys, argv):
    code, fresh, _ = run(capsys, *argv)
    assert code == 0
    assert run_numpy_free(*argv) == fresh


def test_storage_import_loads_no_numpy():
    assert run_numpy_free() == ""


# In a fresh interpreter with numpy blocked, runs every small-exact step of
# bench/workloads.py (seed 0, whose digests bench/reference.json holds),
# then planar --m 1..3 and enum --m 2 --n 2 twice each (miss, then hit),
# enum --m 3 --n 2 --format csv again (a hit on the step's entry) and
# --help, through cli.main in the working directory given; prints the
# check_step errors of the steps and each other command's exit code,
# stdout and artifact as JSON.
NUMPY_BLOCKED_RUN = (
    "import contextlib, importlib.util, io, json, sys\n"
    "sys.modules['numpy'] = None\n"
    "sys.dont_write_bytecode = True\n"
    "spec = importlib.util.spec_from_file_location('workloads', sys.argv[1])\n"
    "workloads = importlib.util.module_from_spec(spec)\n"
    "sys.modules['workloads'] = workloads\n"
    "spec.loader.exec_module(workloads)\n"
    "from extremeforms.cli import main\n"
    "cache = ['--cache-dir', sys.argv[2]]\n"
    "def run(argv):\n"
    "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "        code = main([*argv, *cache])\n"
    "    return code, out.getvalue()\n"
    "reference = workloads.load_reference()\n"
    "errors, outcomes = {}, {}\n"
    "for step in workloads.WORKLOADS['small-exact'](0, reference):\n"
    "    code, stdout = run(step.argv)\n"
    "    artifact = step.artifact and open(step.artifact, 'rb').read()\n"
    "    outcome = workloads.Outcome(code, stdout, artifact)\n"
    "    errors[step.name] = workloads.check_step(\n"
    "        step, outcome, outcomes, 0, reference)\n"
    "    outcomes[step.name] = outcome\n"
    "others = []\n"
    "for argv, artifact in [*[(['planar', '--m', str(m)],\n"
    "                          f'extremeforms-planar-m{m}.json')\n"
    "                         for m in (1, 2, 3) for _ in 'ab'],\n"
    "                       *[(['enum', '--m', '2', '--n', '2'],\n"
    "                          'extremeforms-enum-m2-n2.json')] * 2,\n"
    "                       (['enum', '--m', '3', '--n', '2',\n"
    "                         '--format', 'csv'],\n"
    "                        'extremeforms-enum-m3-n2.csv'),\n"
    "                       (['--help'], None)]:\n"
    "    code, stdout = run(argv)\n"
    "    others.append([argv, code, stdout,\n"
    "                   artifact and open(artifact).read()])\n"
    "loaded = sorted(name for name in sys.modules\n"
    "                if name.startswith('numpy.'))\n"
    "print(json.dumps({'errors': errors, 'others': others,\n"
    "                  'loaded': loaded}))")


def test_small_exact_and_planar_runs_never_import_numpy(tmp_path,
                                                        monkeypatch):
    # the same bytes as bench/reference.json, and the planar and enum
    # artifacts of one block that the numpy paths write, JSON and CSV
    from extremeforms import search
    from extremeforms.storage import write_extreme_set

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED_RUN,
         str(root / "bench" / "workloads.py"), str(tmp_path / "cache")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["loaded"] == []
    assert len(result["errors"]) == 11
    assert all(errors == [] for errors in result["errors"].values()), \
        result["errors"]
    # written past a one-row block, by the numpy writer, from the numpy
    # planar kernel and the walk's own functions
    monkeypatch.setattr(search, "BLOCK_ROWS", 1)
    expected = tmp_path / "expected.json"
    sets = [search.planar_extreme_points(m) for m in (1, 2, 3)]
    keys = set()
    for chosen in search._anchored_walk(2, 2, None)[1]:
        dens, nums = search._process_basis(2, 2, [0, *chosen])
        keys.update(zip(dens.tolist(), map(tuple, nums.tolist())))
    sets.append(search._finalize(2, 2, keys, complete=True))
    # enum (3,2) lists the planar m = 3 set
    runs = [(s, "json") for s in sets for _ in "ab"] + [(sets[2], "csv")]
    hits = []
    for (argv, code, stdout, artifact), (extreme_set, fmt) in zip(
            result["others"][:-1], runs, strict=True):
        write_extreme_set(expected, extreme_set, fmt=fmt)
        assert code == 0, argv
        assert artifact == expected.read_text(), argv
        assert f"count: {len(extreme_set)}\n" in stdout
        hits.append(stdout.endswith("cache: hit\n"))
    assert hits == [False, True] * 4 + [True]
    argv, code, stdout, _ = result["others"][-1]
    assert code == 0 and stdout.startswith("usage: extremeforms")


# enum --m 1 and --m 2 (miss, then hit) and oracle on n = 1, through
# cli.main in a fresh interpreter with numpy blocked, in the working
# directory; prints each command's exit code and stdout as JSON
N1_WITHOUT_NUMPY = (
    "import contextlib, io, json, sys\n"
    "sys.modules['numpy'] = None\n"
    "from extremeforms.cli import main\n"
    "runs = []\n"
    "for argv in (['enum', '--m', '1', '--n', '1'],\n"
    "             *[['enum', '--m', '2', '--n', '1']] * 2,\n"
    "             ['oracle', '--m', '2', '--n', '1']):\n"
    "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "        code = main([*argv, '--cache-dir', sys.argv[1]])\n"
    "    runs.append([code, out.getvalue()])\n"
    "print(json.dumps(runs))")


def test_complete_n_1_runs_never_import_numpy(tmp_path):
    # the ball of n = 1 is [-1, 1]: its two points take no basis walk
    from extremeforms.search import brute_force_vertices

    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", N1_WITHOUT_NUMPY, str(tmp_path / "cache")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout)
    assert [code for code, _ in runs] == [0] * 4
    assert [out.endswith("cache: hit\n") for _, out in runs[:3]] \
        == [False, False, True]
    assert json.loads(runs[3][1])["equal"] is True
    for m in (1, 2):
        path = tmp_path / f"extremeforms-enum-m{m}-n1.json"
        assert read_extreme_set(path) == brute_force_vertices(m, 1)


# Imports every module of the package, then runs the constant commands
# of at most one block of points through cli.main (bh a miss, then a hit)
# with the cache in the directory given, and numpy blocked if asked;
# prints each command's exit code and stdout as JSON.
CONSTANTS_RUN = (
    "import contextlib, importlib, io, json, pkgutil, sys\n"
    "if sys.argv[2] == 'blocked':\n"
    "    sys.modules['numpy'] = None\n"
    "import extremeforms\n"
    "for module in pkgutil.iter_modules(extremeforms.__path__):\n"
    "    importlib.import_module(f'extremeforms.{module.name}')\n"
    "from extremeforms.cli import main\n"
    "runs = []\n"
    "for argv in (*[['bh', '--m', '3', '--n', '2']] * 2,\n"
    "             ['mixed', '--m', '2', '--n', '3'],\n"
    "             ['khinchin', '--lambda', '4/3'], ['two-slot', '--m', '3'],\n"
    "             ['blei'], ['kg', '--m', '3', '--d', '1']):\n"
    "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "        code = main([*argv, '--cache-dir', sys.argv[1]])\n"
    "    runs.append([code, out.getvalue()])\n"
    "print(json.dumps(runs))")


def test_small_constants_never_import_numpy(tmp_path):
    # constants and grothendieck load numpy only past one block of rows
    # and in the float sphere solver, so these print what they print with
    # numpy available
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    outputs = []
    for numpy in ("blocked", "available"):
        done = subprocess.run(
            [sys.executable, "-c", CONSTANTS_RUN, str(tmp_path / numpy),
             numpy], env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    blocked, available = outputs
    assert [code for code, _ in blocked] == [0] * 7
    assert blocked[0] == blocked[1]
    assert blocked == available


@pytest.mark.parametrize("argv", [("enum", "--out", "x.json"), ("bh",),
                                  ("mixed",)], ids=["enum", "bh", "mixed"])
def test_unbudgeted_2_4_stops_at_the_ray_cap(tmp_path, cachedir, capsys,
                                             monkeypatch, argv):
    # double description passes 1024 live rays at row 75 of 128, after
    # about a second; without the cap the run would not end
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    started = time.perf_counter()
    code, stdout, stderr = run(capsys, command, "--m", "2", "--n", "4",
                               *flags)
    assert time.perf_counter() - started < 60
    assert (code, stdout) == (3, "")
    assert stderr == ("resource budget exceeded: double description passed "
                      "1024 live rays at row 75 of 128\n")
    assert not (tmp_path / "x.json").exists()
    assert not cachedir.exists() or list(cachedir.iterdir()) == []


# Runs main on its arguments in a fresh interpreter that imports nothing
# else first, then fails naming numpy, storage or json if one was loaded.
CORE_ONLY_CHECK = (
    "import sys\n"
    "from extremeforms.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "heavy = sorted({'numpy', 'extremeforms.storage', 'json'}\n"
    "               & set(sys.modules))\n"
    "sys.exit(f'exit {code}, loaded {heavy}' if code or heavy else 0)")


def test_verify_loads_neither_numpy_nor_storage(cachedir):
    # verify parses its point with core's parse_point_list and prints no
    # JSON
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", CORE_ONLY_CHECK, "verify",
                           "--m", "2", "--n", "3",
                           "--point=0,0,0,0,0,0,0,0,1"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "extreme; rank 9 of 9\n"


# In a fresh interpreter with dataclasses blocked, runs each small-exact
# command through cli.main in the working directory (enum --m 2 --n 3 a
# miss, then a hit), then imports the modules bench/run.py times as setup
# (SETUP_MODULES); prints each command's exit code and stdout as JSON.
DATACLASSES_BLOCKED_RUN = (
    "import contextlib, io, json, sys\n"
    "sys.modules['dataclasses'] = None\n"
    "from extremeforms.cli import main\n"
    "runs = []\n"
    "for argv in (['verify', '--m', '2', '--n', '3',\n"
    "              '--point=0,0,0,0,0,0,0,0,1'],\n"
    "             *[['enum', '--m', '2', '--n', '3']] * 2,\n"
    "             ['enum', '--m', '3', '--n', '2', '--format', 'csv'],\n"
    "             ['oracle', '--m', '2', '--n', '2'],\n"
    "             ['oracle', '--m', '3', '--n', '2']):\n"
    "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "        code = main([*argv, '--cache-dir', sys.argv[1]])\n"
    "    runs.append([code, out.getvalue()])\n"
    "import extremeforms.cli, extremeforms.search, extremeforms.storage\n"
    "import extremeforms.constants, extremeforms.grothendieck\n"
    "print(json.dumps(runs))")


def test_no_command_imports_dataclasses(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", DATACLASSES_BLOCKED_RUN,
         str(tmp_path / "cache")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout)
    assert [code for code, _ in runs] == [0] * 6
    verify, miss, hit, csv_run, *oracles = [out for _, out in runs]
    assert verify == "extreme; rank 9 of 9\n"
    assert "count: 90\n" in miss and not miss.endswith("cache: hit\n")
    assert "count: 90\n" in hit and hit.endswith("cache: hit\n")
    assert "count: 256\n" in csv_run
    assert [json.loads(out)["equal"] for out in oracles] == [True, True]


NUMPY_MA_CHECK = (
    "import sys\n"
    "from extremeforms.cli import main\n"
    "codes = [main(['enum', '--m', '2', '--n', '4', '--budget', '25']),\n"
    "         main(['planar', '--m', '3'])]\n"
    "loaded = 'numpy.ma' in sys.modules\n"
    "sys.exit(f'exit {codes}, numpy.ma loaded: {loaded}'\n"
    "         if codes != [3, 0] or loaded else 0)")


def test_artifact_writes_load_no_numpy_ma(tmp_path, cachedir):
    # writing a resume file and a fresh artifact formats rows without
    # np.unique, which imports numpy.ma
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", NUMPY_MA_CHECK], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "extremeforms-enum-m2-n4.json.resume.json").exists()
    assert (tmp_path / "extremeforms-planar-m3.json").exists()


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_agrees(cachedir, capsys):
    code, stdout, _ = run(capsys, "oracle", "--m", "2", "--n", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["equal"] is True
    assert payload["count"] == 16


def test_oracle_agrees_trilinear(cachedir, capsys):
    # (3,2) happens to be brute-forceable: the 8 antipodal-representative
    # constraints form a single orthogonal basis, so the polytope is a
    # transformed cube with 256 vertices.
    code, stdout, _ = run(capsys, "oracle", "--m", "3", "--n", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["equal"] is True
    assert payload["count"] == 256


def test_oracle_guard(cachedir, capsys):
    # (2,3) exceeds the brute-force work guard (C(16,9) * 2^9 solves)
    code, _, stderr = run(capsys, "oracle", "--m", "2", "--n", "3")
    assert code == 3


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_internal_invariant_violation_exits_4(tmp_path, cachedir, capsys,
                                              monkeypatch):
    def broken(m):
        raise InternalInvariantError("planted")

    monkeypatch.setattr("extremeforms.search.planar_extreme_points", broken)
    code, stdout, stderr = run(capsys, "planar", "--m", "2", "--no-cache",
                               "--out", str(tmp_path / "p.json"))
    assert (code, stdout) == (4, "")
    assert stderr == "internal invariant violation: planted\n"


def test_unknown_subcommand(cachedir, capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_module_entry_point():
    import extremeforms.__main__  # noqa: F401  (importable without running)


def assert_os_error(capsys, *argv):
    """The command exits 2 with one error line, without a traceback."""

    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_enum_out_in_missing_directory_exits_2(cachedir, capsys, tmp_path):
    assert_os_error(capsys, "enum", "--m", "1", "--n", "2", "--no-cache",
                    "--out", str(tmp_path / "nope" / "x.json"))
    assert not (tmp_path / "nope").exists()


@pytest.mark.parametrize("argv, compute", [
    (("enum", "--m", "2", "--n", "3"), "extremeforms.search.extreme_points"),
    (("planar", "--m", "2"), "extremeforms.search.planar_extreme_points"),
], ids=["enum", "planar"])
def test_out_in_missing_directory_computes_nothing(cachedir, capsys, tmp_path,
                                                   monkeypatch, argv, compute):
    # the directory is checked before the cache or the search is touched
    def fail(*args, **kwargs):
        raise AssertionError("nothing may be computed for this --out")

    monkeypatch.setattr(compute, fail)
    missing = tmp_path / "nope"
    code, stdout, stderr = run(capsys, *argv, "--out", str(missing / "x.json"))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: cannot write {missing / 'x.json'}: " \
                     f"no directory {missing}\n"
    assert not missing.exists() and not cachedir.exists()


@pytest.mark.parametrize("argv, compute", [
    (("enum", "--m", "2", "--n", "3"), "extremeforms.search.extreme_points"),
    (("planar", "--m", "2"), "extremeforms.search.planar_extreme_points"),
], ids=["enum", "planar"])
def test_out_that_is_a_directory_computes_nothing(cachedir, capsys, tmp_path,
                                                  monkeypatch, argv, compute):
    # refused before the search runs or a cache hit is copied out
    assert run(capsys, *argv, "--out", str(tmp_path / "x.json"))[0] == 0
    entries = {p: p.read_bytes() for p in cache_entries(cachedir)}

    def fail(*args, **kwargs):
        raise AssertionError("nothing may be computed for this --out")

    monkeypatch.setattr(compute, fail)
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    code, stdout, stderr = run(capsys, *argv, "--out", str(outdir))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: cannot write {outdir}: is a directory\n"
    assert list(outdir.iterdir()) == []
    assert {p: p.read_bytes() for p in cache_entries(cachedir)} == entries
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["cache", "outdir", "x.json"]


def test_planar_hit_out_in_missing_directory_exits_2(cachedir, capsys,
                                                     tmp_path, monkeypatch):
    code, stdout, _ = run(capsys, "planar", "--m", "2",
                          "--out", str(tmp_path / "p.json"))
    assert code == 0 and "cache: hit" not in stdout

    def recompute(m):
        raise AssertionError("a cache hit must not recompute")

    monkeypatch.setattr("extremeforms.search.planar_extreme_points",
                        recompute)
    assert_os_error(capsys, "planar", "--m", "2",
                    "--out", str(tmp_path / "nope" / "p.json"))
    assert not (tmp_path / "nope").exists()


def test_cache_dir_under_a_regular_file_warns_and_answers(capsys, tmp_path):
    # a cache that cannot be written costs a warning, not the answer
    (tmp_path / "file").write_text("")
    argv = ("two-slot", "--m", "3")
    expected = run(capsys, *argv, "--no-cache")[1]
    code, stdout, stderr = run(capsys, *argv, "--cache-dir",
                               str(tmp_path / "file" / "cache"))
    assert (code, stdout) == (0, expected)
    assert stderr.startswith("warning: cache not written: ")
    assert stderr.count("\n") == 1 and "Traceback" not in stderr


@pytest.mark.parametrize("argv", [("planar", "--m", "2"),
                                  ("enum", "--m", "2", "--n", "2")],
                         ids=["planar", "enum"])
def test_extreme_set_with_unwritable_cache_warns_and_answers(capsys, tmp_path,
                                                             argv):
    (tmp_path / "file").write_text("")
    out = tmp_path / "out.json"
    expected = run(capsys, *argv, "--out", str(out), "--no-cache")[1]
    artifact = out.read_bytes()
    out.unlink()
    code, stdout, stderr = run(capsys, *argv, "--out", str(out),
                               "--cache-dir", str(tmp_path / "file" / "c"))

    assert code == 0 and masked(stdout) == masked(expected)
    assert out.read_bytes() == artifact
    assert stderr.startswith("warning: cache not written: ")
    assert stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "out.json"]


@pytest.mark.parametrize("argv", [("planar", "--m", "2"),
                                  ("two-slot", "--m", "3")],
                         ids=["planar", "two-slot"])
def test_sidecar_that_is_not_text_is_a_miss(tmp_path, cachedir, capsys,
                                            argv):
    # the command answers afresh and stores its entry again
    out = ("--out", str(tmp_path / "out.json")) if argv[0] == "planar" else ()
    code, fresh, _ = run(capsys, *argv, *out)
    assert code == 0
    [sidecar] = cachedir.glob("*.sha256")
    digest = sidecar.read_bytes()
    sidecar.write_bytes(b"\xff")
    code, stdout, _ = run(capsys, *argv, *out)
    assert code == 0 and masked(stdout) == masked(fresh)
    assert sidecar.read_bytes() == digest


def test_hit_failing_its_sidecar_is_a_miss_and_leaves_out_alone(
        tmp_path, cachedir, capsys, monkeypatch):
    out = tmp_path / "p1.json"
    assert run(capsys, "planar", "--m", "1", "--out", str(out))[0] == 0
    entry = cachedir / cache_key("planar", 1, 2)
    raw = bytearray(entry.read_bytes())
    raw[len(raw) // 2] ^= 1  # the copy no longer matches the sidecar
    entry.write_bytes(bytes(raw))
    out.write_bytes(b"keep me")

    def recompute(m):
        raise ValueError("recomputed")

    monkeypatch.setattr("extremeforms.search.planar_extreme_points",
                        recompute)
    code, stdout, stderr = run(capsys, "planar", "--m", "1",
                               "--out", str(out))
    assert (code, stdout, stderr) == (2, "", "error: recomputed\n")
    assert out.read_bytes() == b"keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "p1.json"]


def test_planar_hit_with_unwritable_copy_exits_2_before_computing(
        tmp_path, cachedir, capsys, monkeypatch):
    # the hit's copy of the entry goes into the cache directory; a failure
    # to write it is an error, not a miss that recomputes
    from extremeforms import storage

    out = tmp_path / "p.json"
    assert run(capsys, "planar", "--m", "2", "--out", str(out))[0] == 0
    out.write_bytes(b"keep me")
    # the copy's path leads into a missing directory
    planted = tmp_path / ".p.json.planted.part"
    planted.symlink_to(tmp_path / "nope" / "part")
    monkeypatch.setattr(storage, "scratch_path", lambda target: planted)

    def recompute(m):
        raise AssertionError("a failed copy must not recompute")

    monkeypatch.setattr("extremeforms.search.planar_extreme_points",
                        recompute)
    assert_os_error(capsys, "planar", "--m", "2", "--out", str(out))
    assert out.read_bytes() == b"keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "p.json"]


def test_hit_through_an_out_whose_directory_takes_no_file(tmp_path,
                                                          cachedir, capsys):
    # the hit's copy goes into the cache directory, not beside --out:
    # /proc/self/fd holds no file of ours, yet writes reach the open file
    out = tmp_path / "p.json"
    assert run(capsys, "planar", "--m", "2", "--out", str(out))[0] == 0
    target = tmp_path / "target.json"
    with open(target, "wb") as handle:
        code, stdout, stderr = run(capsys, "planar", "--m", "2", "--out",
                                   f"/proc/self/fd/{handle.fileno()}")
    assert (code, stderr) == (0, "") and stdout.endswith("cache: hit\n")
    assert target.read_bytes() == out.read_bytes()
    assert not list(tmp_path.rglob("*.part"))


def test_link_planted_at_a_predictable_copy_name_is_not_followed(
        tmp_path, cachedir, capsys):
    # the hit's private copy of the entry has a random name: a link
    # planted where a name built from the process id would put it leads
    # nowhere the hit writes
    out = tmp_path / "p.json"
    assert run(capsys, "planar", "--m", "2", "--out", str(out))[0] == 0
    artifact = out.read_bytes()
    victim = tmp_path / "victim.txt"
    victim.write_bytes(b"keep me")
    (tmp_path / f".p.json.{os.getpid()}.part").symlink_to(victim)
    code, stdout, stderr = run(capsys, "planar", "--m", "2", "--out", str(out))
    assert (code, stderr) == (0, "") and stdout.endswith("cache: hit\n")
    assert out.read_bytes() == artifact
    assert victim.read_bytes() == b"keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f".p.json.{os.getpid()}.part", "cache", "p.json", "victim.txt"]


def test_out_that_is_a_device_is_cached(tmp_path, cachedir, capsys):
    # the entry comes from the set, not from the file /dev/null holds, so
    # a later hit writes the fresh bytes to a regular file
    argv = ("enum", "--m", "2", "--n", "2")
    code, stdout, stderr = run(capsys, *argv, "--out", os.devnull)
    assert (code, stderr) == (0, "") and "cache: hit" not in stdout
    key = cache_key("enum", 2, 2)
    assert [p.name for p in cache_entries(cachedir)] == [key, f"{key}.sha256"]
    fresh, out = tmp_path / "fresh.json", tmp_path / "points.json"
    expected = run(capsys, *argv, "--out", str(fresh), "--no-cache")[1]
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert (code, stderr) == (0, "") and stdout.endswith("cache: hit\n")
    assert masked(stdout) == masked(expected.replace(str(fresh), str(out))) \
        + ["cache: hit"]
    assert out.read_bytes() == fresh.read_bytes()


def test_out_that_is_a_named_pipe_is_written_and_cached(tmp_path, cachedir,
                                                        capsys):
    artifact = tmp_path / "points.json"
    run(capsys, "enum", "--m", "2", "--n", "2", "--out", str(artifact),
        "--no-cache")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(
        pipe.read_bytes()), daemon=True)
    reader.start()
    try:
        code, stdout, stderr = run(capsys, "enum", "--m", "2", "--n", "2",
                                   "--out", str(pipe))
    finally:
        reader.join(timeout=60)
        if reader.is_alive():  # the run never opened the pipe
            with open(pipe, "wb"):
                pass
    assert (code, stderr) == (0, "") and f"file: {pipe}\n" in stdout
    assert received == [artifact.read_bytes()]
    # a hit on a regular file writes the bytes the pipe received
    out = tmp_path / "hit.json"
    code, stdout, _ = run(capsys, "enum", "--m", "2", "--n", "2",
                          "--out", str(out))
    assert code == 0 and stdout.endswith("cache: hit\n")
    assert out.read_bytes() == artifact.read_bytes()


def test_symlinked_out_stays_a_link_after_a_hit(tmp_path, cachedir, capsys):
    # a hit writes through out, as a fresh run does
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    link.symlink_to(target)
    argv = ("enum", "--m", "2", "--n", "2", "--out", str(link))
    code, fresh, _ = run(capsys, *argv)
    assert code == 0 and link.is_symlink()
    artifact = target.read_bytes()
    target.write_bytes(b"stale")
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and stdout.endswith("cache: hit\n")
    assert masked(stdout)[:-1] == masked(fresh)
    assert link.is_symlink() and target.read_bytes() == artifact


TRACE_CLI = Path(__file__).resolve().parents[1] / "bench" / "trace_cli.py"


def test_planar_runs_under_the_benchmark_tracer(tmp_path):
    # the tracer records len() of every payload cache_store and
    # cache_load see, the extreme set's entry included, which is smaller
    # than its artifact
    env = dict(os.environ, EXTREMEFORMS_CACHE=str(tmp_path / "cache"),
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = tmp_path / "p.json"
    runs = []
    for name in ("fresh", "hit"):
        spans = tmp_path / f"{name}.spans.json"
        done = subprocess.run([sys.executable, str(TRACE_CLI), str(spans),
                               "planar", "--m", "2", "--out", str(out)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        trace = json.loads(spans.read_text())
        assert trace["missing"] == []
        runs.append({span["name"]: span for span in trace["spans"]})
    fresh, hit = runs
    [entry] = [p for p in (tmp_path / "cache").iterdir()
               if p.suffix != ".sha256"]
    size = entry.stat().st_size
    assert size < out.stat().st_size
    assert fresh["storage.cache_load"]["hit"] is False
    assert fresh["storage.cache_store"]["bytes"] == size
    assert hit["storage.cache_load"]["hit"] is True
    assert hit["storage.cache_load"]["bytes"] == size
    assert "storage.cache_store" not in hit
