"""The benchmark's output contract, checked in-process on every test run.

bench/workloads.py lists each workload's CLI steps, and its check_step
compares a step's exit code, masked stdout, artifact or resume file and
seeded output with the digests in bench/reference.json, plus the step's
invariants. Here every step of a workload runs through cli.main in a fresh
working directory and cache, and check_step must report nothing. The
module is only read from bench/: no bytecode is written there.
"""

import importlib.util
from pathlib import Path
import sys

import pytest

from extremeforms.cli import main

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.mark.parametrize("name", ["scan-r4", "planar-m4", "small-exact"])
def test_benchmark_workload_matches_reference(name, tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    reference = workloads.load_reference()
    work, cache = tmp_path / "work", tmp_path / "cache"
    work.mkdir()
    monkeypatch.chdir(work)
    outcomes = {}
    for step in workloads.WORKLOADS[name](0, reference):
        code = main([*step.argv, "--cache-dir", str(cache)])
        stdout = capsys.readouterr().out
        artifact = work / step.artifact if step.artifact else None
        outcome = workloads.Outcome(
            code, stdout,
            artifact.read_bytes() if artifact and artifact.is_file() else None)
        errors = workloads.check_step(step, outcome, outcomes, 0, reference)
        assert errors == [], step.name
        outcomes[step.name] = outcome
