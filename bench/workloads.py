"""The benchmark's workloads: CLI command sequences and their output checks.

Each workload is a fixed sequence of ``python -m extremeforms`` commands. A
pass runs them in a fresh working directory with a fresh ``--cache-dir``, so
the cache state is set by the order of the steps and never by an earlier
run. Each step names its expected exit code, the artifact it leaves, and
extra invariants on its output. ``check_step`` also compares stdout (with the
``wall-seconds:`` line masked) and the artifact with the sha256 digests in
``reference.json``, recorded from the seed commit. Output that depends on
the seed is compared only for recorded seeds; other seeds fall back to the
invariants.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

SCAN_BUDGET = 25           # bases per budgeted enum step on R^4
VERIFY_EXTREME_POINTS = 3  # seeded points of the (2,3) set to certify


@dataclass
class Step:
    """One CLI command of a workload pass."""

    name: str                 # unique within the workload
    metric: str               # command time it adds to, e.g. "kg_s"
    argv: list
    exit_code: int = 0
    artifact: str | None = None
    seeded: bool = False      # stdout depends on the workload seed
    checks: list = field(default_factory=list)


@dataclass
class Outcome:
    """What one command did: exit code, output, artifact bytes."""

    exit_code: int
    stdout: str
    artifact: bytes | None


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def masked(stdout: str) -> str:
    """Stdout without its ``wall-seconds:`` line, which changes every run."""

    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith("wall-seconds:"))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_step(step, outcome, outcomes, seed, reference) -> list:
    """Every mismatch of one command's outcome, as messages."""

    errors = []
    if outcome.exit_code != step.exit_code:
        errors.append(f"exit code {outcome.exit_code}, "
                      f"expected {step.exit_code}")
    if step.seeded:
        expected = reference["seeded"].get(str(seed), {}).get(step.name)
    else:
        expected = reference["stdout"][step.name]
    if expected is not None and sha256(masked(outcome.stdout)) != expected:
        errors.append("stdout differs from the reference")
    if step.artifact is not None:
        if outcome.artifact is None:
            errors.append(f"artifact {step.artifact} missing")
        elif sha256(outcome.artifact) != reference["artifacts"][step.name]:
            errors.append(f"artifact {step.artifact} differs from the "
                          f"reference")
    for check in step.checks:
        error = check(outcome, outcomes, seed)
        if error is not None:
            errors.append(error)
    return errors


# ---------------------------------------------------------------------------
# invariants: each takes (outcome, earlier outcomes, seed), returns an error
# ---------------------------------------------------------------------------

def count_line(count):
    def check(outcome, outcomes, seed):
        if f"count: {count}\n" not in outcome.stdout:
            return f"stdout lacks 'count: {count}'"
        return None
    return check


def partial_size(count):
    def check(outcome, outcomes, seed):
        try:
            size = len(json.loads(outcome.artifact)["partial"])
        except (TypeError, ValueError, KeyError):
            return "resume file unreadable"
        if size != count:
            return f"partial set has {size} points, expected {count}"
        return None
    return check


def oracle_equal(count):
    def check(outcome, outcomes, seed):
        try:
            payload = json.loads(outcome.stdout)
        except ValueError:
            return "oracle stdout is not JSON"
        if payload.get("equal") is not True or payload.get("count") != count:
            return f"oracle reports {payload}"
        return None
    return check


def same_as(step_name):
    """Artifact and masked stdout byte-identical to an earlier step's."""

    def check(outcome, outcomes, seed):
        earlier = outcomes.get(step_name)
        if earlier is None or outcome.artifact != earlier.artifact:
            return f"artifact differs from step {step_name}"
        if masked(outcome.stdout) != masked(earlier.stdout):
            return f"stdout differs from step {step_name}"
        return None
    return check


def kg_invariants(outcome, outcomes, seed):
    try:
        payload = json.loads(outcome.stdout)
    except ValueError:
        return "kg stdout is not JSON"
    if not payload.get("value", 0) >= math.sqrt(2) - 1e-6:
        return f"kg value {payload.get('value')} below sqrt(2)"
    if payload.get("seed") != seed or len(payload.get("argmax", ())) != 16:
        return f"kg payload malformed: {payload}"
    return None


def starts_with(prefix):
    def check(outcome, outcomes, seed):
        if not outcome.stdout.startswith(prefix):
            return f"printed {outcome.stdout!r}, expected {prefix!r}..."
        return None
    return check


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def verify_points(seed: int, reference: dict) -> list:
    """(label, point, expected stdout prefix) for the seeded verify steps.

    Seeded extreme points of the (2,3) set, the midpoint of two of them
    (never extreme) and twice one of them (outside the ball, norm 2).
    """

    pool = [tuple(Fraction(c) for c in row.split(","))
            for row in reference["points_m2_n3"]]
    chosen = random.Random(seed).sample(pool, VERIFY_EXTREME_POINTS)
    a, b = chosen[0], chosen[1]
    cases = [(f"extreme{k}", point, "extreme; rank 9 of 9\n")
             for k, point in enumerate(chosen)]
    cases.append(("midpoint", tuple((x + y) / 2 for x, y in zip(a, b)),
                  "not extreme; rank "))
    cases.append(("outside", tuple(2 * x for x in a),
                  "outside the unit ball; |<a,v>| = 2 at v = ("))
    return [(label, ",".join(str(c) for c in point), prefix)
            for label, point, prefix in cases]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def scan_r4(seed: int, reference: dict) -> list:
    enum = ["enum", "--m", "2", "--n", "4", "--budget", str(SCAN_BUDGET)]
    resume = "extremeforms-enum-m2-n4.json.resume.json"
    sizes = reference["partial_sizes"]
    return [
        Step("enum_budget", "enum_budget_s", enum, exit_code=3,
             artifact=resume, checks=[partial_size(sizes["enum_budget"])]),
        Step("enum_resume", "enum_resume_s", enum + ["--resume", resume],
             exit_code=3, artifact=resume,
             checks=[partial_size(sizes["enum_resume"])]),
        Step("kg", "kg_s", ["kg", "--m", "4", "--d", "2", "--seed", str(seed)],
             seeded=True, checks=[kg_invariants]),
    ]


def planar_m4(seed: int, reference: dict) -> list:
    planar = ["planar", "--m", "4"]
    bh = ["bh", "--m", "4", "--n", "2"]
    artifact = "extremeforms-planar-m4.json"
    return [
        Step("planar_fresh", "planar_fresh_s", planar, artifact=artifact,
             checks=[count_line(65536)]),
        Step("planar_hit", "planar_hit_s", planar, artifact=artifact,
             checks=[count_line(65536)]),
        Step("bh_fresh", "bh_fresh_s", bh),
        Step("bh_hit", "bh_hit_s", bh, checks=[same_as("bh_fresh")]),
    ]


def small_exact(seed: int, reference: dict) -> list:
    enum = ["enum", "--m", "2", "--n", "3"]
    artifact = "extremeforms-enum-m2-n3.json"
    steps = [
        Step("enum_fresh", "enum_fresh_s", enum + ["--workers", "2"],
             artifact=artifact, checks=[count_line(90)]),
        Step("enum_serial", "enum_serial_s",
             enum + ["--workers", "1", "--no-cache"], artifact=artifact,
             checks=[same_as("enum_fresh")]),
        Step("enum_hit", "enum_hit_s", enum + ["--workers", "2"],
             artifact=artifact, checks=[count_line(90)]),
        Step("enum_csv", "enum_csv_s",
             ["enum", "--m", "3", "--n", "2", "--format", "csv"],
             artifact="extremeforms-enum-m3-n2.csv", checks=[count_line(256)]),
        Step("oracle_22", "oracle_s", ["oracle", "--m", "2", "--n", "2"],
             checks=[oracle_equal(16)]),
        Step("oracle_32", "oracle_s", ["oracle", "--m", "3", "--n", "2"],
             checks=[oracle_equal(256)]),
    ]
    for label, point, prefix in verify_points(seed, reference):
        verify = ["verify", "--m", "2", "--n", "3", f"--point={point}"]
        steps.append(Step(f"verify_{label}", "verify_s", verify, seeded=True,
                          checks=[starts_with(prefix)]))
    return steps


WORKLOADS = {
    "scan-r4": scan_r4,
    "planar-m4": planar_m4,
    "small-exact": small_exact,
}
