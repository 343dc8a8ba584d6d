"""Command-line surface: enumeration, certificates, constants, oracles.

Subcommands map one-to-one onto the library operations; every run is
deterministic given its flags and seed, results are cached by a key built
from (command, parameters, format version, package version) unless
--no-cache is passed (verify and oracle accept the cache flags but always
run fresh), and cache hits reproduce the fresh output byte for
byte because the cache stores the serialized artifact itself. An enum run
with --budget or --resume neither reads nor writes the cache. The basis
scan runs in one process: enum, bh and mixed accept --workers, which must
be at least 1, and ignore it. The enum resume file carries its rows in
the artifact cell codec of storage (format_rows, parse_rows); no value is
formatted or parsed on its own. blei has no parameters.

Exit codes: 0 success, 2 invalid input or an OSError, 3 resource budget
exceeded (for budgeted enumerations the resume state path is printed), 4
internal invariant violation. A cache that cannot be written costs a
warning on stderr after the answer, not the answer. Heavy imports, json
among them, happen inside the handlers, so that --help, argument errors
and verify stay fast and never load json. numpy
is loaded only for sets past one block of rows (search.BLOCK_ROWS), by
the basis walk, and by constants and grothendieck: verify, --help, JSON
cache hits (bh, mixed, khinchin, two-slot, kg, blei), oracle, and enum
and planar runs of at most one block of points that take no walk, fresh
or from the cache, never load it. Those are the complete runs and the
budgeted ones of the closed forms (m = 1 or n = 1, the cross-polytope,
and n = 2); planar --m 4, budgeted or resumed enum of (2,3) and (2,4),
and fresh bh, mixed, kg, khinchin, two-slot and blei do. verify, which
parses its point with core alone, never loads storage either. A JSON
hit is printed only if it parses as an object whose identifying fields
equal those a fresh run writes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
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
# parser
# ---------------------------------------------------------------------------

def _at_least(low: int):
    """argparse type for sizes, counts and seeds: an integer >= low."""

    def integer(text: str) -> int:  # argparse names it in "invalid ..."
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {value}")
        return value

    return integer


# Flags shared by several subcommands, each defined once.
_SHARED_FLAGS = {
    "--m": dict(type=_at_least(1), required=True),
    "--n": dict(type=_at_least(1), required=True),
    "--workers": dict(type=_at_least(1), default=1,
                      help="accepted and ignored: the basis scan runs in "
                           "one process"),
    "--out": dict(type=Path, default=None),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--cache-dir": dict(type=Path, default=None,
                        help="cache directory (default: $EXTREMEFORMS_CACHE "
                             "or ~/.cache/extremeforms)"),
    "--no-cache": dict(action="store_true",
                       help="neither read nor write the cache"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremeforms",
        description="Exact extreme points of multilinear-form unit balls "
                    "and the sharp constants they determine.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *flags):
        p = sub.add_parser(name, help=summary)
        for flag in (*flags, "--cache-dir", "--no-cache"):
            options = _SHARED_FLAGS[flag]
            if name in ("verify", "oracle") \
                    and flag in ("--cache-dir", "--no-cache"):
                options = {**options, "help": "accepted and ignored: this "
                                              "command always runs fresh"}
            p.add_argument(flag, **options)
        return p

    enum = command("enum", "enumerate all extreme points through the "
                           "general pipeline",
                   "--m", "--n", "--workers", "--out", "--format")
    enum.add_argument("--budget", type=_at_least(1), default=None,
                      help="max anchored bases to process this run")
    enum.add_argument("--resume", type=Path, default=None,
                      help="resume-state file from a budget-exceeded run")

    command("planar", "fast complete enumeration for forms on R^2",
            "--m", "--out", "--format")

    verify = command("verify", "extremality certificate for one point",
                     "--m", "--n")
    verify.add_argument("--point", type=str, required=True,
                        help='comma-separated rationals, e.g. "1/2,1/2,0,0"')

    command("bh", "sharp Bohnenblust-Hille constant",
            "--m", "--n", "--workers")
    command("mixed", "sharp mixed Littlewood constant",
            "--m", "--n", "--workers")

    khinchin = command("khinchin", "best Khinchin constant A_q")
    khinchin.add_argument("--lambda", dest="exponent", type=str,
                          required=True, help='exponent q as "p/q", in (0,2]')

    command("two-slot", "the constant 2^(1-1/m)", "--m")

    kg = command("kg", "truncated Grothendieck lower bound", "--m")
    kg.add_argument("--d", type=_at_least(1), required=True)
    kg.add_argument("--restarts", type=_at_least(1), default=64)
    kg.add_argument("--seed", type=_at_least(0), default=0)
    kg.add_argument("--budget", type=_at_least(1), default=None,
                    help="basis budget for the bilinear scan (m >= 4)")

    command("blei", "constrained KKT maximum, 1, by an exact proof")

    command("oracle", "compare the pipeline against brute-force vertex "
                      "enumeration", "--m", "--n")

    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _cache_dir(args: argparse.Namespace) -> Path:
    if args.cache_dir is not None:
        return args.cache_dir
    from .storage import default_cache_dir

    return default_cache_dir()


def _emit_cached_json(args: argparse.Namespace, extra: dict, identity: dict,
                      compute) -> int:
    """Print a JSON payload, serving byte-identical bytes from the cache.

    identity holds the identifying fields a fresh run writes into the
    payload. A hit is printed unchanged only if it is a JSON object whose
    fields equal identity, types included; anything else raises ValueError.
    """

    import json

    from . import storage

    key = storage.cache_key(args.command, getattr(args, "m", 0),
                            getattr(args, "n", 0), extra=extra)
    if not args.no_cache:
        data = storage.cache_load(_cache_dir(args), key)
        if data is not None:
            try:
                text = data.decode("utf-8")
                payload = json.loads(text)
            except ValueError as err:
                raise ValueError(f"cache entry {key}: not JSON: {err}") \
                    from None
            if not isinstance(payload, dict):
                raise ValueError(f"cache entry {key}: not a JSON object")
            for field, value in identity.items():
                if field not in payload or payload[field] != value \
                        or type(payload[field]) is not type(value):
                    raise ValueError(f"cache entry {key}: field {field!r} "
                                     f"does not read {value!r}")
            sys.stdout.write(text)
            return EXIT_OK
    payload = compute()
    data = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    sys.stdout.write(data.decode("utf-8"))
    if not args.no_cache:
        _cache_store(args, key, data)
    return EXIT_OK


def _cache_store(args: argparse.Namespace, key: str, data) -> None:
    """Store a delivered answer (bytes, or a FilePayload of its artifact)
    in the cache; a cache that cannot be written costs a warning, not the
    answer."""

    from .storage import cache_store

    try:
        cache_store(_cache_dir(args), key, data)
    except OSError as err:
        print(f"warning: cache not written: {err}", file=sys.stderr)


def _emit_extreme_set(args: argparse.Namespace, n: int, out: Path,
                      compute) -> int:
    """Write an extreme-set artifact through the cache, then its summary.

    Only a plain run, one with neither --budget nor --resume, reads or
    writes the cache: it always completes or raises, and its result
    depends on its key alone. A hit copies the entry to a sibling of out
    (storage.cache_load with a target), which must match the entry's
    sidecar, and parses the copy (storage.read_extreme_set, naming the
    cache entry in its errors); only a valid set of the requested shape
    is then written through out, as a fresh run writes it (a symlink
    stays a link), so the bytes in out are the bytes that were checked. A
    copy that fails the sidecar is a miss; a copy that does not parse
    raises ValueError. Either way out is untouched. On a miss compute()
    builds the set, which is written to out, and after the summary the
    written file is copied into the cache if out is a regular file (or a
    link to one): a device or a pipe holds no artifact to copy. Neither
    side holds a whole entry in memory. An out in a missing directory, an
    out that is a directory, or a sibling of out that cannot be written on
    a hit, raises OSError before any computation.
    """

    import shutil

    from . import storage

    if not out.parent.is_dir():
        raise OSError(f"cannot write {out}: no directory {out.parent}")
    if out.is_dir():
        raise OSError(f"cannot write {out}: is a directory")
    started = time.perf_counter()
    key = storage.cache_key(args.command, args.m, n,
                            extra={"fmt": args.format})
    cached = not args.no_cache and getattr(args, "budget", None) is None \
        and getattr(args, "resume", None) is None
    part = out.with_name(f".{out.name}.{os.getpid()}.part")
    try:
        copy = storage.cache_load(_cache_dir(args), key, part) \
            if cached else None
        hit = copy is not None
        if hit:
            try:
                with open(copy, "rb") as handle:
                    result = storage.read_extreme_set(
                        _cache_dir(args) / key, handle)
                if (result.m, result.n) != (args.m, n):
                    raise ValueError(f"holds (m={result.m}, n={result.n}), "
                                     f"not (m={args.m}, n={n})")
            except ValueError as err:
                raise ValueError(f"cache entry {key}: {err}") from None
            with open(copy, "rb") as source, open(out, "wb") as target:
                shutil.copyfileobj(source, target)
    finally:
        part.unlink(missing_ok=True)
    if not hit:
        result = compute()
        storage.write_extreme_set(out, result, fmt=args.format)
    print(f"count: {len(result)}")
    print(f"max-denominator: {result.max_denominator()}")
    print(f"wall-seconds: {time.perf_counter() - started:.3f}")
    print(f"file: {out}")
    if hit:
        print("cache: hit")
    elif cached and out.is_file():
        _cache_store(args, key, storage.FilePayload(out))
    return EXIT_OK


def _write_resume_file(path: Path, m: int, n: int, search_resume: dict,
                       pairs) -> None:
    """Write the resume file; pairs are (d, u) rows, duplicates kept. A
    failed write leaves the file at path as it was (storage.atomic_write).
    """

    import json

    from .search import exact_order
    from .storage import atomic_write, format_rows

    rows = exact_order(pairs)
    payload = {
        "format-version": RESUME_FILE_VERSION,
        "kind": "enum-cli",
        "m": m,
        "n": n,
        "search": search_resume,
        "partial": format_rows([d for d, _ in rows], [u for _, u in rows]),
    }
    atomic_write(path, (json.dumps(payload, indent=1) + "\n").encode())


def _load_resume_file(path: Path, m: int, n: int):
    """The partial rows as (d, u) pairs, and the search cursor.

    The rows are trusted, as --point is: they are parsed, not certified.
    """

    import json

    from .search import pairs_of
    from .storage import parse_rows

    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as err:  # JSON or UTF-8 decoding
        raise ValueError(f"cannot read resume file {path}: {err}") from None
    if not isinstance(payload, dict) \
            or payload.get("format-version") != RESUME_FILE_VERSION \
            or payload.get("kind") != "enum-cli":
        raise ValueError(f"{path} is not an enum resume file")
    if payload.get("m") != m or payload.get("n") != n:
        raise ValueError(f"resume file is for (m={payload.get('m')}, "
                         f"n={payload.get('n')}), not (m={m}, n={n})")
    search, partial = payload.get("search"), payload.get("partial")
    if not isinstance(search, dict) or not isinstance(partial, list):
        raise ValueError(f"{path}: search must be an object and partial "
                         f"a list")
    dens, nums, _ = parse_rows(path, n ** m, partial)
    return pairs_of(dens, nums, n ** m), search


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _handle_enum(args: argparse.Namespace) -> int:
    from .search import BudgetExceeded, ExtremeSet, extreme_points

    out = args.out or Path(
        f"extremeforms-enum-m{args.m}-n{args.n}.{args.format}")
    prior_pairs, search_resume = [], None
    if args.resume is not None:
        prior_pairs, search_resume = _load_resume_file(
            args.resume, args.m, args.n)

    def compute():
        result = extreme_points(args.m, args.n, budget=args.budget,
                                resume=search_resume)
        if prior_pairs:
            return ExtremeSet.from_pairs(args.m, args.n,
                                         prior_pairs + result.pairs())
        return result

    try:
        return _emit_extreme_set(args, args.n, out, compute)
    except BudgetExceeded as stop:
        resume_path = Path(str(out) + ".resume.json")
        _write_resume_file(resume_path, args.m, args.n, stop.resume,
                           prior_pairs + stop.partial.pairs())
        print(f"resource budget exceeded; resume state: {resume_path}",
              file=sys.stderr)
        return EXIT_BUDGET


def _handle_planar(args: argparse.Namespace) -> int:
    from .search import planar_extreme_points

    out = args.out or Path(f"extremeforms-planar-m{args.m}.{args.format}")
    return _emit_extreme_set(args, 2, out,
                             lambda: planar_extreme_points(args.m))


def _handle_verify(args: argparse.Namespace) -> int:
    from .core import FormVector, is_extreme, parse_point_list

    coeffs = parse_point_list(args.point)
    a = FormVector(coeffs, args.m, args.n)
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


def _handle_convex_constant(args: argparse.Namespace) -> int:
    """bh and mixed: a convex maximum over the extreme points of (m, n)."""

    from fractions import Fraction

    def compute():
        # search before constants: the other order raises the peak RSS
        from .search import extreme_points
        from . import constants

        constant = (constants.bh_constant if args.command == "bh"
                    else constants.mixed_littlewood_constant)
        return constant(args.m, args.n,
                        extreme_points(args.m, args.n)).to_json_dict()

    identity = {"name": ("bohnenblust-hille" if args.command == "bh"
                         else "mixed-littlewood"),
                "m": args.m, "n": args.n,
                "lambda": str(Fraction(2 * args.m, args.m + 1))}
    return _emit_cached_json(args, {}, identity, compute)


def _handle_khinchin(args: argparse.Namespace) -> int:
    from .core import parse_rational

    q = parse_rational(args.exponent)
    identity = {"name": "khinchin-aq", "lambda": str(q)}

    def compute():
        from .constants import khinchin_Aq, khinchin_branch_point

        return {**identity, "value": khinchin_Aq(q),
                "branch-point": khinchin_branch_point()}

    return _emit_cached_json(args, {"q": str(q)}, identity, compute)


def _handle_two_slot(args: argparse.Namespace) -> int:
    identity = {"name": "two-slot", "m": args.m}

    def compute():
        from .constants import two_slot_constant

        return {**identity, "value": two_slot_constant(args.m)}

    return _emit_cached_json(args, {}, identity, compute)


def _handle_kg(args: argparse.Namespace) -> int:
    # the budget the scan uses keys the cache, so kg --m 4 and
    # kg --m 4 --budget 300 share one entry
    budget = args.budget
    if budget is None and args.m >= 4:
        budget = KG_DEFAULT_BUDGET_LARGE

    def compute():
        # search before grothendieck: the other order raises the peak RSS
        from .search import BudgetExceeded, extreme_points
        from .grothendieck import kg_lower_bound

        try:
            scan_set = extreme_points(2, args.m, budget=budget)
        except BudgetExceeded as stop:
            scan_set = stop.partial
        report = kg_lower_bound(args.m, args.d, scan_set,
                                restarts=args.restarts, seed=args.seed)
        payload = report.to_json_dict()
        payload["d"] = args.d
        payload["restarts"] = args.restarts
        payload["seed"] = args.seed
        payload["scan-complete"] = scan_set.complete
        return payload

    extra = {"d": args.d, "restarts": args.restarts,
             "seed": args.seed, "budget": budget}
    # kg_lower_bound reports the bilinear forms on R^m as (m, n) = (2, m)
    identity = {"name": f"kg-lower-bound-d{args.d}", "m": 2, "n": args.m,
                "lambda": None, "d": args.d, "restarts": args.restarts,
                "seed": args.seed}
    return _emit_cached_json(args, extra, identity, compute)


def _handle_blei(args: argparse.Namespace) -> int:
    identity = {"name": "blei-kkt-max"}

    def compute():
        from .grothendieck import blei_kkt_max

        return {**identity, "value": blei_kkt_max(), "exact_note": "1"}

    return _emit_cached_json(args, {}, identity, compute)


def _handle_oracle(args: argparse.Namespace) -> int:
    import json

    from .search import brute_force_vertices, extreme_points

    brute = brute_force_vertices(args.m, args.n)
    pipeline = extreme_points(args.m, args.n)
    equal = brute == pipeline
    payload = {"m": args.m, "n": args.n, "equal": equal,
               "count": len(pipeline), "brute-count": len(brute)}
    print(json.dumps(payload, indent=2))
    return EXIT_OK if equal else EXIT_INVARIANT


_HANDLERS = {
    "enum": _handle_enum,
    "planar": _handle_planar,
    "verify": _handle_verify,
    "bh": _handle_convex_constant,
    "mixed": _handle_convex_constant,
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    from .core import InternalInvariantError, ResourceBudgetError

    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as err:
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
