"""Command-line surface: enumeration, certificates, constants, oracles.

Subcommands map one-to-one onto the library operations; every run is
deterministic given its flags and seed, results are cached by a key built
from (command, parameters, format version) unless --no-cache is passed,
and cache hits reproduce the fresh output byte for byte because the cache
stores the serialized artifact itself.

Exit codes: 0 success, 2 invalid input, 3 resource budget exceeded (for
budgeted enumerations the resume state path is printed), 4 internal
invariant violation. Heavy imports happen inside the handlers so that
--help and argument errors stay fast.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4

RESUME_FILE_VERSION = 1

# Default basis budget for the bilinear scan on R^4, whose full pipeline
# is combinatorially out of reach; the partial set it produces is still a
# sound input for lower bounds.
KG_DEFAULT_BUDGET_LARGE = 300


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything a subcommand run depends on."""

    command: str
    m: int | None = None
    n: int | None = None
    d: int | None = None
    exponent: str | None = None
    restarts: int = 64
    seed: int = 0
    grid_density: int = 24
    iters: int = 200
    workers: int = 1
    cache_dir: Path | None = None
    out: Path | None = None
    format: str = "json"
    no_cache: bool = False
    point: str | None = None
    budget: int | None = None
    resume: Path | None = None

    def validate(self) -> None:
        for label, value in (("--m", self.m), ("--n", self.n),
                             ("--d", self.d)):
            if value is not None and value < 1:
                raise ValueError(f"{label} must be >= 1, got {value}")
        if self.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {self.workers}")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"--budget must be positive, got {self.budget}")
        if self.restarts < 1:
            raise ValueError(f"--restarts must be >= 1, got {self.restarts}")


def _config_from(namespace: argparse.Namespace) -> RunConfig:
    values = vars(namespace).copy()
    command = values.pop("command")
    known = {field.name for field in dataclasses.fields(RunConfig)}
    return RunConfig(command=command,
                     **{k: v for k, v in values.items() if k in known})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremeforms",
        description="Exact extreme points of multilinear-form unit balls "
                    "and the sharp constants they determine.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cache-dir", type=Path, default=None,
                       help="cache directory (default: $EXTREMEFORMS_CACHE "
                            "or ~/.cache/extremeforms)")
        p.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the cache")

    enum = sub.add_parser("enum", help="enumerate all extreme points "
                                       "through the general pipeline")
    enum.add_argument("--m", type=int, required=True)
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--workers", type=int, default=1)
    enum.add_argument("--budget", type=int, default=None,
                      help="max anchored bases to process this run")
    enum.add_argument("--resume", type=Path, default=None,
                      help="resume-state file from a budget-exceeded run")
    enum.add_argument("--out", type=Path, default=None)
    enum.add_argument("--format", choices=("json", "csv"), default="json")
    common(enum)

    planar = sub.add_parser("planar", help="fast complete enumeration "
                                           "for forms on R^2")
    planar.add_argument("--m", type=int, required=True)
    planar.add_argument("--workers", type=int, default=1,
                        help="no effect: the n = 2 path scans no bases")
    planar.add_argument("--out", type=Path, default=None)
    planar.add_argument("--format", choices=("json", "csv"), default="json")
    common(planar)

    verify = sub.add_parser("verify", help="extremality certificate "
                                           "for one point")
    verify.add_argument("--m", type=int, required=True)
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--point", type=str, required=True,
                        help='comma-separated rationals, e.g. "1/2,1/2,0,0"')
    common(verify)

    bh = sub.add_parser("bh", help="sharp Bohnenblust-Hille constant")
    bh.add_argument("--m", type=int, required=True)
    bh.add_argument("--n", type=int, required=True)
    bh.add_argument("--workers", type=int, default=1,
                    help="processes for the basis scan; no effect "
                         "when n = 2 (no bases are scanned)")
    common(bh)

    mixed = sub.add_parser("mixed", help="sharp mixed Littlewood constant")
    mixed.add_argument("--m", type=int, required=True)
    mixed.add_argument("--n", type=int, required=True)
    mixed.add_argument("--workers", type=int, default=1,
                       help="processes for the basis scan; no effect "
                            "when n = 2 (no bases are scanned)")
    common(mixed)

    khinchin = sub.add_parser("khinchin", help="best Khinchin constant A_q")
    khinchin.add_argument("--lambda", dest="exponent", type=str,
                          required=True, help='exponent q as "p/q", in (0,2]')
    common(khinchin)

    two_slot = sub.add_parser("two-slot", help="the constant 2^(1-1/m)")
    two_slot.add_argument("--m", type=int, required=True)
    common(two_slot)

    kg = sub.add_parser("kg", help="truncated Grothendieck lower bound")
    kg.add_argument("--m", type=int, required=True)
    kg.add_argument("--d", type=int, required=True)
    kg.add_argument("--restarts", type=int, default=64)
    kg.add_argument("--seed", type=int, default=0)
    kg.add_argument("--budget", type=int, default=None,
                    help="basis budget for the bilinear scan (m >= 4)")
    common(kg)

    blei = sub.add_parser("blei", help="constrained KKT maximum "
                                       "(expected value 1)")
    blei.add_argument("--grid", dest="grid_density", type=int, default=24)
    blei.add_argument("--iters", type=int, default=200)
    common(blei)

    oracle = sub.add_parser("oracle", help="compare the pipeline against "
                                           "brute-force vertex enumeration")
    oracle.add_argument("--m", type=int, required=True)
    oracle.add_argument("--n", type=int, required=True)
    common(oracle)

    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _cache_dir(config: RunConfig) -> Path:
    if config.cache_dir is not None:
        return config.cache_dir
    from .storage import default_cache_dir

    return default_cache_dir()


def _emit_cached_json(config: RunConfig, command: str,
                      extra: dict, compute) -> int:
    """Print a JSON payload, serving byte-identical bytes from the cache."""

    from . import storage

    key = storage.cache_key(command, config.m or 0, config.n or 0,
                            extra=extra)
    if not config.no_cache:
        data = storage.cache_load(_cache_dir(config), key)
        if data is not None:
            sys.stdout.write(data.decode("utf-8"))
            return EXIT_OK
    payload = compute()
    data = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    if not config.no_cache:
        storage.cache_store(_cache_dir(config), key, data)
    sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


def _print_set_summary(result, out: Path, wall: float, cached: bool) -> None:
    max_denominator = max((c.denominator
                           for p in result.points for c in p.coeffs),
                          default=1)
    print(f"count: {len(result)}")
    print(f"max-denominator: {max_denominator}")
    print(f"wall-seconds: {wall:.3f}")
    print(f"file: {out}")
    if cached:
        print("cache: hit")


def _merged_set(m: int, n: int, *point_groups):
    from .core import FormVector
    from .search import ExtremeSet

    keys = {point.coeffs for group in point_groups for point in group}
    points = tuple(FormVector(coeffs, m, n) for coeffs in sorted(keys))
    return ExtremeSet(m, n, points, complete=True)


def _write_resume_file(path: Path, m: int, n: int, search_resume: dict,
                       points) -> None:
    payload = {
        "format-version": RESUME_FILE_VERSION,
        "kind": "enum-cli",
        "m": m,
        "n": n,
        "search": search_resume,
        "partial": [[str(c) for c in point.coeffs]
                    for point in sorted(points, key=lambda p: p.coeffs)],
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _load_resume_file(path: Path, m: int, n: int):
    from .core import FormVector
    from .storage import parse_rational

    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"cannot read resume file {path}: {err}") from None
    if payload.get("format-version") != RESUME_FILE_VERSION \
            or payload.get("kind") != "enum-cli":
        raise ValueError(f"{path} is not an enum resume file")
    if payload.get("m") != m or payload.get("n") != n:
        raise ValueError(f"resume file is for (m={payload.get('m')}, "
                         f"n={payload.get('n')}), not (m={m}, n={n})")
    points = tuple(
        FormVector(tuple(parse_rational(cell) for cell in row), m, n)
        for row in payload.get("partial", ()))
    return points, payload.get("search")


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _handle_enum(config: RunConfig) -> int:
    from . import storage
    from .search import BudgetExceeded, extreme_points

    started = time.perf_counter()
    out = config.out or Path(
        f"extremeforms-enum-m{config.m}-n{config.n}.{config.format}")
    plain = config.budget is None and config.resume is None
    key = storage.cache_key("enum", config.m, config.n,
                            extra={"fmt": config.format})
    if plain and not config.no_cache:
        data = storage.cache_load(_cache_dir(config), key)
        if data is not None:
            out.write_bytes(data)
            result = storage.read_extreme_set(out)
            _print_set_summary(result, out,
                               time.perf_counter() - started, cached=True)
            return EXIT_OK

    prior_points: tuple = ()
    search_resume = None
    if config.resume is not None:
        prior_points, search_resume = _load_resume_file(
            config.resume, config.m, config.n)

    workers = config.workers if plain else 1
    try:
        result = extreme_points(config.m, config.n, budget=config.budget,
                                resume=search_resume, workers=workers)
    except BudgetExceeded as stop:
        resume_path = Path(str(out) + ".resume.json")
        partial = stop.partial.points if stop.partial is not None else ()
        _write_resume_file(resume_path, config.m, config.n, stop.resume,
                           tuple(prior_points) + tuple(partial))
        print(f"resource budget exceeded; resume state: {resume_path}",
              file=sys.stderr)
        return EXIT_BUDGET

    if prior_points:
        result = _merged_set(config.m, config.n, prior_points, result.points)
    storage.write_extreme_set(out, result, fmt=config.format)
    if not config.no_cache and result.complete:
        storage.cache_store(_cache_dir(config), key, out.read_bytes())
    _print_set_summary(result, out, time.perf_counter() - started,
                       cached=False)
    return EXIT_OK


def _handle_planar(config: RunConfig) -> int:
    from . import storage
    from .search import planar_extreme_points

    started = time.perf_counter()
    out = config.out or Path(f"extremeforms-planar-m{config.m}.{config.format}")
    key = storage.cache_key("planar", config.m, 2,
                            extra={"fmt": config.format})
    if not config.no_cache:
        data = storage.cache_load(_cache_dir(config), key)
        if data is not None:
            out.write_bytes(data)
            result = storage.read_extreme_set(out)
            _print_set_summary(result, out,
                               time.perf_counter() - started, cached=True)
            return EXIT_OK
    result = planar_extreme_points(config.m)
    storage.write_extreme_set(out, result, fmt=config.format)
    if not config.no_cache:
        storage.cache_store(_cache_dir(config), key, out.read_bytes())
    _print_set_summary(result, out, time.perf_counter() - started,
                       cached=False)
    return EXIT_OK


def _handle_verify(config: RunConfig) -> int:
    from .core import FormVector
    from .search import is_extreme
    from .storage import parse_point_list

    coeffs = parse_point_list(config.point)
    a = FormVector(coeffs, config.m, config.n)
    certificate = is_extreme(a)
    if not certificate.in_ball:
        witness = ",".join(str(x) for x in certificate.norm_witness)
        print(f"outside the unit ball; |<a,v>| = {certificate.norm_value} "
              f"at v = ({witness})")
    elif certificate.extreme:
        print(f"extreme; rank {certificate.tight_rank} "
              f"of {certificate.dimension}")
    else:
        print(f"not extreme; rank {certificate.tight_rank} "
              f"of {certificate.dimension}; midpoint witness available")
        offset = ",".join(str(c) for c in certificate.midpoint_offset.coeffs)
        print(f"midpoint offset: {offset}")
    return EXIT_OK


def _extreme_set_for(config: RunConfig):
    """Extreme points for a constants scan; n = 2 takes the fast path."""

    from .search import extreme_points, planar_extreme_points

    if config.n == 2:
        return planar_extreme_points(config.m)
    return extreme_points(config.m, config.n, workers=config.workers)


def _handle_bh(config: RunConfig) -> int:
    def compute():
        from .constants import bh_constant

        return bh_constant(config.m, config.n,
                           _extreme_set_for(config)).to_json_dict()

    return _emit_cached_json(config, "bh", {}, compute)


def _handle_mixed(config: RunConfig) -> int:
    def compute():
        from .constants import mixed_littlewood_constant

        return mixed_littlewood_constant(config.m, config.n,
                                         _extreme_set_for(config)
                                         ).to_json_dict()

    return _emit_cached_json(config, "mixed", {}, compute)


def _handle_khinchin(config: RunConfig) -> int:
    from .storage import parse_rational

    q = parse_rational(config.exponent)

    def compute():
        from .constants import khinchin_Aq, khinchin_branch_point

        return {
            "name": "khinchin-aq",
            "lambda": str(q),
            "value": khinchin_Aq(q),
            "branch-point": khinchin_branch_point(),
        }

    # validate the domain eagerly so errors exit 2 before touching the cache
    from .constants import khinchin_Aq as _check

    _check(q)
    return _emit_cached_json(config, "khinchin", {"q": str(q)}, compute)


def _handle_two_slot(config: RunConfig) -> int:
    def compute():
        from .constants import two_slot_constant

        return {"name": "two-slot", "m": config.m,
                "value": two_slot_constant(config.m)}

    return _emit_cached_json(config, "two-slot", {}, compute)


def _handle_kg(config: RunConfig) -> int:
    def compute():
        from .grothendieck import kg_lower_bound
        from .search import BudgetExceeded, extreme_points

        budget = config.budget
        if budget is None and config.m >= 4:
            budget = KG_DEFAULT_BUDGET_LARGE
        try:
            scan_set = extreme_points(2, config.m, budget=budget)
        except BudgetExceeded as stop:
            scan_set = stop.partial
        report = kg_lower_bound(config.m, config.d, scan_set,
                                restarts=config.restarts, seed=config.seed)
        payload = report.to_json_dict()
        payload["d"] = config.d
        payload["restarts"] = config.restarts
        payload["seed"] = config.seed
        payload["scan-complete"] = scan_set.complete
        return payload

    extra = {"d": config.d, "restarts": config.restarts,
             "seed": config.seed, "budget": config.budget}
    return _emit_cached_json(config, "kg", extra, compute)


def _handle_blei(config: RunConfig) -> int:
    def compute():
        from .grothendieck import blei_kkt_max

        return {"name": "blei-kkt-max", "grid": config.grid_density,
                "iters": config.iters,
                "value": blei_kkt_max(config.grid_density, config.iters)}

    # validate eagerly so bad grids exit 2 without writing cache entries
    if config.grid_density < 8:
        raise ValueError(f"--grid must be >= 8, got {config.grid_density}")
    extra = {"grid": config.grid_density, "iters": config.iters}
    return _emit_cached_json(config, "blei", extra, compute)


def _handle_oracle(config: RunConfig) -> int:
    from .search import brute_force_vertices, extreme_points

    brute = brute_force_vertices(config.m, config.n)
    pipeline = extreme_points(config.m, config.n, workers=config.workers)
    equal = brute.coefficient_tuples() == pipeline.coefficient_tuples()
    payload = {"m": config.m, "n": config.n, "equal": equal,
               "count": len(pipeline), "brute-count": len(brute)}
    print(json.dumps(payload, indent=2))
    return EXIT_OK if equal else EXIT_INVARIANT


_HANDLERS = {
    "enum": _handle_enum,
    "planar": _handle_planar,
    "verify": _handle_verify,
    "bh": _handle_bh,
    "mixed": _handle_mixed,
    "khinchin": _handle_khinchin,
    "two-slot": _handle_two_slot,
    "kg": _handle_kg,
    "blei": _handle_blei,
    "oracle": _handle_oracle,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    from .core import ResourceBudgetError
    from .search import InternalInvariantError

    try:
        config = _config_from(namespace)
        config.validate()
        return _HANDLERS[config.command](config)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBudgetError as err:
        print(f"resource budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInvariantError as err:
        print(f"internal invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
