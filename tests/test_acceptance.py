"""Acceptance criteria, one test (one pass/fail line) per criterion.

Each test pins the tolerances and runtime bounds of its criterion.
Criterion 2 checks the quadrilinear reference list with its erratum
applied: the literal source list holds one +- pair with coefficient sum
+-3/2, and a multilinear form evaluated at the all-ones vertex tuple
equals its coefficient sum, so the printed point lies outside the unit
ball and cannot be an extreme point under any index convention. The
criterion certifies every reference point from the raw definition before
checking membership, and checks that the misprinted pair is absent. The
companion test directly below criterion 2 keeps the proof that the
literal entry is a misprint and that its one-coordinate correction is the
unique extreme point next to it.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from extremeforms.cli import main
from extremeforms.constants import (
    bh_constant,
    khinchin_Aq,
    khinchin_branch_point,
    mixed_littlewood_constant,
)
from extremeforms.core import FormVector, enumerate_tensor_vertices
from extremeforms.grothendieck import blei_kkt_max, kg_lower_bound
from extremeforms.search import (
    BudgetExceeded,
    brute_force_vertices,
    extreme_points,
    in_unit_ball,
    is_extreme,
    planar_extreme_points,
)
from extremeforms.storage import read_extreme_set
from known_points import (
    BILINEAR_2x2_ALL,
    QUADRILINEAR_2_MISPRINT,
    QUADRILINEAR_2_MISPRINT_CORRECTED,
    QUADRILINEAR_2_REFERENCE,
    QUADRILINEAR_2_VERIFIED,
    TRILINEAR_2_SAMPLE,
)
from support import brute_force_tensor_vertices, fraction_rank

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_01_bilinear_cli_exact(tmp_path, monkeypatch, capsys):
    # enum --m 2 --n 2: exactly the 16 checked-in points, runtime < 1 s
    monkeypatch.setenv("EXTREMEFORMS_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "c1.json"
    started = time.perf_counter()
    code, _, _ = run_cli(capsys, "enum", "--m", "2", "--n", "2",
                         "--out", str(out), "--no-cache")
    wall = time.perf_counter() - started
    assert code == 0
    loaded = read_extreme_set(out)
    assert loaded.coefficient_tuples() == frozenset(BILINEAR_2x2_ALL)
    assert wall < 1.0, f"enum 2 2 took {wall:.3f}s, bound is 1s"


def test_criterion_02_planar_lists(tmp_path, monkeypatch, capsys):
    # planar --m 3: 256 points containing the 6 listed 3-form points (<5 s);
    # planar --m 4: 65536 points containing the 12 listed 4-form points
    # (<60 s). The 4-form list has the erratum applied (see module
    # docstring); each of its points is certified extreme from the raw
    # definition, and the misprinted literal pair must be absent.
    monkeypatch.setenv("EXTREMEFORMS_CACHE", str(tmp_path / "cache"))
    out3 = tmp_path / "c2-m3.json"
    started = time.perf_counter()
    code, _, _ = run_cli(capsys, "planar", "--m", "3", "--out", str(out3),
                         "--no-cache")
    wall3 = time.perf_counter() - started
    assert code == 0
    loaded3 = read_extreme_set(out3)
    assert len(loaded3) == 256 == 2 ** (2 ** 3)
    assert wall3 < 5.0, f"planar 3 took {wall3:.3f}s, bound is 5s"
    for point in TRILINEAR_2_SAMPLE:
        assert point in loaded3

    out4 = tmp_path / "c2-m4.json"
    started = time.perf_counter()
    code, _, _ = run_cli(capsys, "planar", "--m", "4", "--out", str(out4),
                         "--no-cache")
    wall4 = time.perf_counter() - started
    assert code == 0
    loaded4 = read_extreme_set(out4)
    assert len(loaded4) == 65536 == 2 ** (2 ** 4)
    assert wall4 < 60.0, f"planar 4 took {wall4:.3f}s, bound is 60s"
    assert len(QUADRILINEAR_2_REFERENCE) == 12
    vertices = sorted(brute_force_tensor_vertices(4, 2))
    for point in QUADRILINEAR_2_REFERENCE:
        values = [sum(c * t for c, t in zip(point, v)) for v in vertices]
        assert max(abs(x) for x in values) == 1, \
            f"reference point {[str(c) for c in point]} has sup norm != 1"
        tight = [v for v, x in zip(vertices, values) if abs(x) == 1]
        assert fraction_rank(tight) == 16, \
            f"reference point {[str(c) for c in point]} has tight rank < 16"
    missing = [p for p in QUADRILINEAR_2_REFERENCE if p not in loaded4]
    assert not missing, (
        f"{len(missing)} of the 12 certified 4-form reference points are "
        f"absent: {[[str(c) for c in p] for p in missing]}"
    )
    for point in QUADRILINEAR_2_MISPRINT:
        assert point not in loaded4, \
            f"misprinted point {[str(c) for c in point]} was emitted"


def test_criterion_02_erratum_companion(planar4):
    # the erratum behind criterion 2's reference list, all verified
    for point in QUADRILINEAR_2_VERIFIED:
        assert point in planar4
    for point in QUADRILINEAR_2_MISPRINT:
        assert abs(sum(point)) == F(3, 2)
        report = in_unit_ball(FormVector(point, 4, 2))
        assert not report and report.value == F(3, 2)
        assert point not in planar4
    for point in QUADRILINEAR_2_MISPRINT_CORRECTED:
        assert abs(sum(point)) == 1
        assert point in planar4
    misprint = QUADRILINEAR_2_MISPRINT[0]
    one_flip = [k for k in planar4.coefficient_tuples()
                if sum(1 for a, b in zip(k, misprint) if a != b) == 1]
    assert one_flip == [QUADRILINEAR_2_MISPRINT_CORRECTED[0]]


def test_criterion_03_pipeline_equals_planar(planar3):
    # the general pipeline reproduces the fast path for m = 3, < 5 min
    started = time.perf_counter()
    pipeline = extreme_points(3, 2)
    wall = time.perf_counter() - started
    assert pipeline.coefficient_tuples() == planar3.coefficient_tuples()
    assert wall < 300.0, f"extreme_points(3,2) took {wall:.1f}s, bound 300s"


def test_criterion_04_oracle_equivalence():
    # brute-force vertex enumeration agrees exactly, < 1 min total
    started = time.perf_counter()
    for m, n in ((1, 2), (1, 3), (2, 2)):
        brute = brute_force_vertices(m, n)
        pipeline = extreme_points(m, n)
        assert brute.coefficient_tuples() == pipeline.coefficient_tuples(), \
            f"oracle mismatch at (m={m}, n={n})"
    wall = time.perf_counter() - started
    assert wall < 60.0, f"oracle suite took {wall:.1f}s, bound 60s"


def test_criterion_05_certificates(set22, set32, planar3, planar4):
    # every emitted point: exact norm 1 and tight rank n^m; midpoints of
    # 100 random distinct pairs are never extreme
    for emitted in (set22, set32):
        size = emitted.n ** emitted.m
        for point in emitted.points:
            certificate = is_extreme(point)
            assert certificate
            assert certificate.norm_value == 1
            assert certificate.tight_rank == size

    # planar sets: every point is tight on all of V (exact integer check),
    # and V has full rank, which is the rank-n^m criterion for each point
    # simultaneously
    for planar in (planar3, planar4):
        size = 2 ** planar.m
        vertices = enumerate_tensor_vertices(planar.m, 2)
        vmat = np.array(vertices, dtype=np.int64)
        denominator = size
        numerators = np.array(
            [[int(c * denominator) for c in p.coeffs] for p in planar.points],
            dtype=np.int64)
        products = numerators @ vmat.T
        assert (np.abs(products) == denominator).all(), \
            "planar point not tight on every tensor vertex"
        assert fraction_rank(vertices) == size

    rng = random.Random(5)
    pool = list(set32.points)
    pairs = set()
    while len(pairs) < 100:
        a, b = rng.sample(range(len(pool)), 2)
        pairs.add((min(a, b), max(a, b)))
    for a, b in pairs:
        mid = tuple((x + y) / 2
                    for x, y in zip(pool[a].coeffs, pool[b].coeffs))
        assert not is_extreme(FormVector(mid, 3, 2))


def test_criterion_06_rationality_denominators(set22, set32, planar3,
                                               planar4):
    # coordinates are reduced rationals; for n = 2 denominators divide 2^m
    cases = [(1, extreme_points(1, 2)), (2, set22), (3, set32),
             (3, planar3), (4, planar4)]
    for m, emitted in cases:
        for point in emitted.points:
            for c in point.coeffs:
                assert isinstance(c, Fraction)
                assert math.gcd(c.numerator, c.denominator) == 1
                assert (2 ** m) % c.denominator == 0, \
                    f"denominator {c.denominator} does not divide 2^{m}"


def test_criterion_07_bh_constants(set22):
    # bh(2,2) = 1.414213562 +- 1e-9 with argmax in the half family;
    # bh(1,n) = 1 exactly for n <= 4
    report = bh_constant(2, 2, set22)
    assert abs(report.value - 1.414213562) < 1e-9 + 5e-10
    assert abs(report.value - math.sqrt(2)) < 1e-9
    assert all(abs(c) == F(1, 2) for c in report.argmax.coeffs)
    for n in (1, 2, 3, 4):
        assert bh_constant(1, n, extreme_points(1, n)).value == 1.0


def test_criterion_08_khinchin():
    # A_2 = 1 +- 1e-12; q0 = 1.8474 +- 5e-4; branch continuity within 1e-6
    assert abs(khinchin_Aq(2) - 1.0) < 1e-12
    q0 = khinchin_branch_point()
    assert abs(q0 - 1.8474) < 5e-4
    assert abs(khinchin_Aq(q0 - 1e-9) - khinchin_Aq(q0 + 1e-9)) < 1e-6


def test_criterion_09_mixed_littlewood(set22):
    # mixed(2,2) = 2^(3/4) +- 1e-9
    report = mixed_littlewood_constant(2, 2, set22)
    assert abs(report.value - 2 ** 0.75) < 1e-9


def test_criterion_10_blei_kkt():
    # blei_kkt_max in [1 - 1e-6, 1 + 1e-6], runtime < 30 s
    started = time.perf_counter()
    value = blei_kkt_max()
    wall = time.perf_counter() - started
    assert 1 - 1e-6 <= value <= 1 + 1e-6
    assert wall < 30.0, f"blei_kkt_max took {wall:.1f}s, bound 30s"


def test_criterion_11_grothendieck_bounds(set22, set23):
    # kg(2,2) >= 1.414213 - 1e-6; kg(m,1) = 1 for m <= 4 (m = 4 through a
    # budget-truncated scan, still sound since every scanned point is a
    # genuine extreme point); monotone in d; seed-independent at d = 1
    assert kg_lower_bound(2, 2, set22, restarts=16,
                          seed=0).value >= 1.414213 - 1e-6

    sets = {1: extreme_points(2, 1), 2: set22, 3: set23}
    try:
        extreme_points(2, 4, budget=40)
        raise AssertionError("(2,4) scan unexpectedly completed; "
                             "tighten this criterion to use the full set")
    except BudgetExceeded as stop:
        sets[4] = stop.partial
    assert len(sets[4]) > 0
    for m in (1, 2, 3, 4):
        assert kg_lower_bound(m, 1, sets[m]).value == 1.0

    values = [kg_lower_bound(2, d, set22, restarts=8, seed=1).value
              for d in (1, 2, 3)]
    assert values[0] <= values[1] + 1e-9
    assert values[1] <= values[2] + 1e-9

    assert kg_lower_bound(2, 1, set22, seed=0).value == \
        kg_lower_bound(2, 1, set22, seed=170).value == 1.0


def test_criterion_12_core_property_suites():
    # factorization is exact (exhaustive for nm <= 12), |V| matches
    # 2^(nm-m+1), and the sign group acts freely and transitively; < 30 s
    from extremeforms.core import (
        act,
        enumerate_group,
        factorize,
        omega,
        tensor_vertex_count,
        transporter,
    )

    started = time.perf_counter()
    shapes = [(m, n) for m in range(1, 13) for n in range(1, 13)
              if m * n <= 12]
    for m, n in shapes:
        if tensor_vertex_count(m, n) > (1 << 13):
            continue
        vertices = enumerate_tensor_vertices(m, n)
        assert len(vertices) == 2 ** (n * m - m + 1) == \
            tensor_vertex_count(m, n)
        for v in vertices:
            assert omega(factorize(v, m, n)) == v

    for m, n in ((1, 2), (2, 2), (3, 2), (2, 3), (1, 4), (4, 2)):
        vertices = enumerate_tensor_vertices(m, n)
        group = enumerate_group(m, n)
        assert len(group) == len(vertices)
        anchor = vertices[0]
        orbit = {act(g, anchor) for g in group}
        assert orbit == set(vertices)  # transitive
        stabilizer = [g for g in group if act(g, anchor) == anchor]
        assert len(stabilizer) == 1  # free
        for v in vertices:
            assert act(transporter(anchor, v, m, n), anchor) == v
    wall = time.perf_counter() - started
    assert wall < 30.0, f"core property suite took {wall:.1f}s, bound 30s"


def test_criterion_13_worker_determinism(tmp_path, monkeypatch, capsys):
    # identical output files on the criterion 1-3 runs: for workers 1, 2, 8
    # on enum, and over three runs on planar, which has no --workers
    monkeypatch.setenv("EXTREMEFORMS_CACHE", str(tmp_path / "cache"))
    worker_flags = [("--workers", str(w)) for w in (1, 2, 8)]
    invocations = {
        "enum22": (("enum", "--m", "2", "--n", "2"), worker_flags),
        "planar3": (("planar", "--m", "3"), [()] * 3),
        "planar4": (("planar", "--m", "4"), [()] * 3),
        "enum32": (("enum", "--m", "3", "--n", "2"), worker_flags),
    }
    for label, (argv, variants) in invocations.items():
        outputs = []
        for run, extra in enumerate(variants):
            out = tmp_path / f"{label}-{run}.json"
            code, _, _ = run_cli(capsys, *argv, *extra,
                                 "--out", str(out), "--no-cache")
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], \
            f"{label} output differs across runs"
