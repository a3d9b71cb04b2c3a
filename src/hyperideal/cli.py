"""Command-line surface: load ring documents, verify, classify, construct,
and run the theorem suite with deterministic text or JSON reports.  Each
command returns its report text and exit code; ``run`` writes the report to
stdout or to ``--out``.

Exit codes: 0 success/holds, 1 counterexample or a failed --expect assertion,
2 invalid input or axiom failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import fixture_rings, harness
from .analysis import SVerdict, SWitness, render_tuple
from .constructions import product_ring, quotient_ring
from .errors import HyperIdealError
from .ideals import (
    classify_ideal,
    enumerate_hyperideals,
    is_hyperideal,
    radical,
    special_sets,
)
from .kernel import (
    AXIOM_ORDER,
    LENIENT,
    MODES,
    AxiomReport,
    HyperRing,
    HyperRingSpec,
    SubsetMask,
    parse_spec,
    serialize_spec,
    verify_axioms,
)
from .multiplicative import (
    classify_s,
    multiplicative_set,
    residual,
    saturation,
)

# Largest order verified without a warning, by max(m, n).  On a 2-CPU host z112
# verifies in about 0.03 s, and an order-18 (3,3) spec in about 0.06 s where the
# n-ary passes decide it (0.005 s where its binary reducts do).  Higher arities
# fall back to the smallest limit.  The warning is the same past 256 elements,
# where the plane passes compose lists instead of bytes: on that host `verify`
# takes about 0.4 s on z256 and 1.7 s on z257.
VERIFY_WARN_LIMITS = {2: 112, 3: 18}


class _CliError(Exception):
    """A usage or input error, reported on stderr with exit code 2."""


def _warn_if_large(spec) -> None:
    arity = max(spec.m, spec.n)
    if spec.order > VERIFY_WARN_LIMITS.get(arity, min(VERIFY_WARN_LIMITS.values())):
        print(
            f"warning: order {spec.order} with m={spec.m}, n={spec.n} makes exhaustive "
            "verification expensive",
            file=sys.stderr,
        )


def _read_spec(path: str) -> HyperRingSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    spec = parse_spec(text)
    _warn_if_large(spec)
    return spec


def _load_ring(path: str) -> HyperRing:
    spec = _read_spec(path)
    result = verify_axioms(spec)
    if isinstance(result, AxiomReport):
        lines = "\n".join(result.lines(spec.elements))
        raise _CliError(f"axiom verification failed for {path}:\n{lines}")
    return result


def _parse_subset(ring: HyperRing, raw: str, option: str) -> SubsetMask:
    if raw != raw.strip() or " " in raw or "\t" in raw:
        raise _CliError(f"{option} must be comma-joined element names without whitespace")
    return ring.subset_from_names(raw.split(","))


# The four verdicts of an ``IdealProfile``, in report order.
_PROFILE = ("prime", "primary", "semiprime", "maximal")

_S_VERDICT_TEXT = {
    SVerdict.S_HYPERIDEAL: "S-hyperideal",
    SVerdict.SR_ONLY: "not an S-hyperideal, but an S_r-hyperideal",
    SVerdict.NEITHER: "not an S-hyperideal (and not an S_r-hyperideal)",
}


def _cmd_verify(args) -> tuple[str, int]:
    spec = _read_spec(args.ring)
    result = verify_axioms(spec)
    failed = isinstance(result, AxiomReport)
    report = result if failed else result.axiom_report
    lines = [f"ring: {spec.name} (order {spec.order}, m={spec.m}, n={spec.n})"]
    lines += report.lines(spec.elements) if failed else ["all axioms hold"]
    if args.timings:
        lines += [
            f"{name}: {seconds * 1000:.3f} ms" for name, seconds in zip(AXIOM_ORDER, report.timings_s)
        ]
    return "\n".join(lines) + "\n", 2 if failed else 0


def _cmd_ideals(args) -> tuple[str, int]:
    ring = _load_ring(args.ring)
    lines = [f"ring: {ring.name} mode: {args.mode}"]
    for subset in enumerate_hyperideals(ring, args.mode):
        if subset.is_full:
            lines.append(f"{subset!r} improper (whole ring)")
            continue
        profile = classify_ideal(ring, subset, args.mode)
        flags = [name for name in _PROFILE if getattr(profile, name).ok]
        lines.append(f"{subset!r} proper " + (" ".join(flags) if flags else "-"))
    sets = special_sets(ring, args.mode)
    lines.append(f"units {sets.units!r}")
    lines.append(f"jacobson {sets.jacobson!r}")
    lines.append(f"minimal-primes " + ",".join(repr(q) for q in sets.min_primes))
    return "\n".join(lines) + "\n", 0


def _witness_text(ring: HyperRing, w: SWitness) -> str:
    sub_args = list(w.tuple_)
    sub_args[w.position - 1] = ring.one
    tup = render_tuple(ring.elements, w.tuple_)
    return (
        f"witness: tuple ({tup}), position {w.position}, "
        f"product g({tup})={ring.elements[w.product]} in P, "
        f"substitution g({render_tuple(ring.elements, sub_args)})={ring.elements[w.substituted]} not in P"
    )


def _cmd_classify(args) -> tuple[str, int]:
    if args.expect is not None and args.s is None:
        raise _CliError("--expect needs --s: it asserts the S-classification verdict")
    ring = _load_ring(args.ring)
    ideal = _parse_subset(ring, args.ideal, "--ideal")
    verdict = is_hyperideal(ring, ideal, args.mode)
    lines = [f"ring: {ring.name} mode: {args.mode}", f"ideal {ideal!r}"]
    exit_code = 0
    if not verdict.ok:
        lines.append(
            f"not a hyperideal: {verdict.clause} fails at "
            f"({render_tuple(ring.elements, verdict.witness)}) -- {verdict.detail}"
        )
        exit_code = 2
    elif ideal.is_full:
        lines.append("improper (whole ring); classification needs a proper hyperideal")
        exit_code = 2
    elif args.s is None:
        profile = classify_ideal(ring, ideal, args.mode)
        for name in _PROFILE:
            v = getattr(profile, name)
            witness = render_tuple(ring.elements, v.witness)
            lines.append(f"{name}: yes" if v.ok else f"{name}: no (witness {witness})")
    else:
        s_mask = _parse_subset(ring, args.s, "--s")
        cl = classify_s(ring, ideal, multiplicative_set(ring, s_mask), args.mode)
        lines.append(f"S {s_mask!r}: {_S_VERDICT_TEXT[cl.verdict]}")
        if cl.witness is not None:
            lines.append(_witness_text(ring, cl.witness))
        if args.expect is not None and args.expect != cl.verdict.value:
            lines.append(f"expected {args.expect}, got {cl.verdict.value}")
            exit_code = 1
    return "\n".join(lines) + "\n", exit_code


def _cmd_radical(args) -> tuple[str, int]:
    ring = _load_ring(args.ring)
    ideal = _parse_subset(ring, args.ideal, "--ideal")
    return f"radical {ideal!r} -> {radical(ring, ideal, args.mode)!r}\n", 0


def _cmd_saturate(args) -> tuple[str, int]:
    ring = _load_ring(args.ring)
    ideal = _parse_subset(ring, args.ideal, "--ideal")
    mul = multiplicative_set(ring, _parse_subset(ring, args.s, "--s"))
    result = saturation(ring, ideal, mul, args.mode)
    lines = [f"saturation {ideal!r} by {mul.subset!r} -> {result.subset!r}"]
    if not result.one_in_s:
        lines.append("note: hypothesis 1 in S not met; least-S-hyperideal claim unsupported")
    if not result.proper:
        lines.append("note: saturation is the whole ring (vacuous)")
    return "\n".join(lines) + "\n", 0


def _cmd_residual(args) -> tuple[str, int]:
    ring = _load_ring(args.ring)
    ideal = _parse_subset(ring, args.ideal, "--ideal")
    by = _parse_subset(ring, args.s, "--s")
    return f"residual {ideal!r} by {by!r} -> {residual(ring, ideal, by, args.mode)!r}\n", 0


def _cmd_quotient(args) -> tuple[str, int]:
    ring = _load_ring(args.ring)
    ideal = _parse_subset(ring, args.ideal, "--ideal")
    return serialize_spec(quotient_ring(ring, ideal, args.mode).quotient.spec), 0


def _cmd_product(args) -> tuple[str, int]:
    return serialize_spec(product_ring([_load_ring(path) for path in args.rings]).spec), 0


def _cmd_theorems(args) -> tuple[str, int]:
    rings = [_load_ring(path) for path in args.rings]
    only = args.only.split(",") if args.only is not None else None
    result = harness.run_suite(rings, args.mode, only)
    exit_code = 1 if result.aggregate == "counterexample" else 0
    if args.format == "json":
        return result.to_json(include_timings=args.timings), exit_code
    lines = []
    for ring_name, report in result.entries:
        line = (
            f"{ring_name:14s} {report.id:12s} {report.status:22s} "
            f"instances={report.instances_checked} hypothesis={report.hypothesis_met}"
        )
        if report.truncated:
            line += " truncated"
        lines.append(line)
        for cx in report.counterexamples:
            lines.append("    counterexample: " + " ".join(f"{k}={v}" for k, v in cx.items()))
    lines.append(f"aggregate: {result.aggregate}")
    return "\n".join(lines) + "\n", exit_code


def _cmd_fixtures(args) -> tuple[str, int]:
    if args.name is None:
        return "\n".join(fixture_rings.FIXTURE_NAMES) + "\n", 0
    return serialize_spec(fixture_rings.fixtures(args.name).spec), 0


def _arg(*flags, **kwargs) -> tuple[tuple, dict]:
    """The arguments of one ``add_argument`` call."""
    return flags, kwargs


# The arguments of more than one command, each stated once.
_RING = _arg("ring")
_RINGS = _arg("rings", nargs="+")
_IDEAL = _arg("--ideal", required=True)
_MODE = _arg("--mode", choices=MODES, default=LENIENT)
_OUT = _arg("--out", help="write the report to this path")


# Built once: a parser sits in reference cycles with its actions and help
# formatters, so one built per ``run`` would leave about 470 objects a call
# to the cyclic collector (and cost about 2 ms).
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperideal",
        description="Finite Krasner (m,n)-hyperring engine and theorem-checking harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's arguments in the order its usage and --help list them
    for name, help_, func, *arguments in (
        ("verify", "check every axiom of a ring document", _cmd_verify, _RING,
         _arg("--timings", action="store_true",
              help="add one line per axiom with its runtime (non-deterministic)"), _OUT),
        ("ideals", "enumerate and classify all hyperideals", _cmd_ideals, _RING, _MODE, _OUT),
        ("classify", "classify one subset, optionally against an MS", _cmd_classify, _RING, _IDEAL,
         _arg("--s"),
         _arg("--expect", choices=tuple(v.value for v in SVerdict),
              help="assert the S-classification verdict (exit 1 on mismatch)"), _MODE, _OUT),
        ("radical", "intersection of the primes over an ideal", _cmd_radical, _RING, _IDEAL, _MODE, _OUT),
        ("saturate", "least S-hyperideal containing an ideal", _cmd_saturate, _RING, _IDEAL,
         _arg("--s", required=True), _MODE, _OUT),
        ("residual", "divide an ideal by a subset", _cmd_residual, _RING, _IDEAL,
         _arg("--s", required=True, help="the dividing subset"), _MODE, _OUT),
        ("quotient", "quotient ring document by a proper hyperideal", _cmd_quotient, _RING, _IDEAL, _MODE, _OUT),
        ("product", "componentwise product ring document", _cmd_product, _RINGS, _OUT),
        ("theorems", "run the theorem catalog on ring documents", _cmd_theorems, _RINGS,
         _arg("--only", help="comma-joined theorem ids"),
         _arg("--format", choices=("text", "json"), default="text"),
         _arg("--timings", action="store_true", help="include runtimes (non-deterministic)"), _MODE, _OUT),
        ("fixtures", "list registry fixtures or emit one as a document", _cmd_fixtures,
         _arg("name", nargs="?"), _OUT),
    ):
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        text, exit_code = args.func(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text, encoding="utf-8")
        return exit_code
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (HyperIdealError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())
