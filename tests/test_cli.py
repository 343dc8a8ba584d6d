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

import pytest

from extremeforms.cli import main
from extremeforms.storage import cache_key, cache_store, read_extreme_set

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
    fresh = tmp_path / "fresh.json"
    code, _, _ = run(capsys, "enum", "--m", "3", "--n", "2",
                     "--out", str(fresh), "--no-cache")
    assert code == 0

    out = tmp_path / "budgeted.json"
    resume = None
    for _ in range(60):
        argv = ["enum", "--m", "3", "--n", "2", "--out", str(out),
                "--budget", "2", "--no-cache"]
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
    assert out.read_bytes() == fresh.read_bytes()


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
    ("blei", "--grid", "8", "--iters", "-1"),
    ("kg", "--m", "2", "--d", "1", "--seed", "-1"),
], ids=["iters", "seed"])
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
def test_convex_constant_rejects_workers_when_planar(tmp_path, cachedir,
                                                     capsys, monkeypatch,
                                                     command):
    # n = 2 scans no bases; --workers stays for n > 2 only
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, command, "--m", "3", "--n", "2",
                               "--workers", "2")
    assert code == 2
    assert "--workers" in stderr
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []
    assert run(capsys, command, "--m", "2", "--n", "2",
               "--workers", "1")[0] == 0


def test_planar_cache_hit_rejects_row_past_int64(tmp_path, cachedir, capsys):
    from extremeforms.storage import cache_key, cache_store

    out = tmp_path / "p1.json"
    assert run(capsys, "planar", "--m", "1", "--out", str(out))[0] == 0
    payload = json.loads(out.read_text())
    payload["points"][0][0] = "1/9223372036854775808"
    cache_store(cachedir, cache_key("planar", 1, 2, extra={"fmt": "json"}),
                json.dumps(payload).encode())
    code, _, stderr = run(capsys, "planar", "--m", "1", "--out", str(out))
    assert code == 2
    assert "point 0: does not fit int64" in stderr


@pytest.mark.parametrize("planted", ["mistyped", "foreign"])
def test_planar_rejected_cache_hit_leaves_out_alone(tmp_path, cachedir,
                                                    capsys, planted):
    from extremeforms.storage import cache_key, cache_store

    out = tmp_path / "p1.json"
    if planted == "mistyped":
        assert run(capsys, "planar", "--m", "1", "--out", str(out))[0] == 0
        payload = json.loads(out.read_text())
        payload["m"] = "1"
        data = json.dumps(payload).encode()
    else:  # a valid artifact of another shape
        assert run(capsys, "planar", "--m", "3", "--out", str(out))[0] == 0
        data = out.read_bytes()
    cache_store(cachedir, cache_key("planar", 1, 2, extra={"fmt": "json"}),
                data)
    out.write_bytes(b"keep me")
    code, stdout, stderr = run(capsys, "planar", "--m", "1",
                               "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "Traceback" not in stderr
    assert ("field 'm' must be an integer" if planted == "mistyped"
            else "holds (m=3, n=2), not (m=1, n=2)") in stderr
    assert out.read_bytes() == b"keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "p1.json"]


def test_enum_rejects_cache_hit_with_unordered_rows(tmp_path, cachedir,
                                                   capsys):
    # a valid (2,2) artifact with row 1 repeated before row 0
    out = tmp_path / "e22.json"
    assert run(capsys, "enum", "--m", "2", "--n", "2", "--out", str(out),
               "--no-cache")[0] == 0
    payload = json.loads(out.read_text())
    payload["points"].insert(0, payload["points"][1])
    payload["count"] += 1
    cache_store(cachedir, cache_key("enum", 2, 2, extra={"fmt": "json"}),
                json.dumps(payload).encode())
    out.unlink()
    code, stdout, stderr = run(capsys, "enum", "--m", "2", "--n", "2",
                               "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "point 1 does not strictly follow point 0" in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]


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
    code, stdout, _ = run(capsys, "blei", "--grid", "12", "--iters", "40")
    assert code == 0
    payload = json.loads(stdout)
    assert 1 - 1e-6 <= payload["value"] <= 1 + 1e-6


def test_blei_rejects_coarse_grid(cachedir, capsys):
    assert run(capsys, "blei", "--grid", "4")[0] == 2


@pytest.mark.parametrize("argv", [
    ("bh", "--m", "2", "--n", "2"),
    ("mixed", "--m", "2", "--n", "3"),
    ("khinchin", "--lambda", "4/3"),
    ("two-slot", "--m", "3"),
    ("kg", "--m", "2", "--d", "2", "--restarts", "2", "--seed", "5"),
    ("blei", "--grid", "8", "--iters", "3"),
], ids=["bh", "mixed", "khinchin", "two-slot", "kg", "blei"])
def test_json_cache_hit_prints_the_stored_bytes(cachedir, capsys, argv):
    # every fresh payload passes the identity check of its own hit
    fresh = run(capsys, *argv)
    assert fresh[0] == 0
    assert run(capsys, *argv) == fresh
    assert len(cache_entries(cachedir)) == 2


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


@pytest.mark.parametrize("argv", [("khinchin", "--lambda", "3"),
                                  ("blei", "--grid", "4")],
                         ids=["khinchin", "blei"])
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

def test_unknown_subcommand(cachedir, capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_module_entry_point():
    import extremeforms.__main__  # noqa: F401  (importable without running)
