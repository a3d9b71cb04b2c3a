"""Command-line surface: load ring documents, verify, classify, construct,
and run the theorem suite with deterministic text or JSON reports.

Exit codes: 0 success/holds, 1 counterexample or a failed --expect assertion,
2 invalid input or axiom failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import fixture_rings, harness
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
    SVerdict,
    classify_s,
    multiplicative_set,
    residual,
    saturation,
)

# Largest order verified without a warning, by max(m, n); both cost about 0.06 s
# of verification on a 2-CPU host.  Higher arities fall back to the smallest limit.
# The warning is the same past 256 elements, where the row passes compose lists
# instead of bytes: on that host `verify` takes about 0.9 s on z256 and 2.6 s
# on z257.
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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_verify(args) -> int:
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
    _emit("\n".join(lines) + "\n", args.out)
    return 2 if failed else 0


def _cmd_ideals(args) -> int:
    ring = _load_ring(args.ring)
    rows = []
    for subset in enumerate_hyperideals(ring, args.mode):
        if subset.is_full:
            rows.append(f"{subset!r} improper (whole ring)")
            continue
        profile = classify_ideal(ring, subset, args.mode)
        flags = [name for name, verdict in (
            ("prime", profile.prime), ("primary", profile.primary),
            ("semiprime", profile.semiprime), ("maximal", profile.maximal),
        ) if verdict.ok]
        rows.append(f"{subset!r} proper " + (" ".join(flags) if flags else "-"))
    sets = special_sets(ring, args.mode)
    rows.append(f"units {sets.units!r}")
    rows.append(f"jacobson {sets.jacobson!r}")
    rows.append(f"minimal-primes " + ",".join(repr(q) for q in sets.min_primes))
    header = f"ring: {ring.name} mode: {args.mode}"
    _emit("\n".join([header] + rows) + "\n", args.out)
    return 0


def _witness_text(ring: HyperRing, cl) -> str:
    w = cl.witness
    tup = ",".join(ring.elements[i] for i in w.tuple_)
    prod = ring.elements[w.product]
    sub_args = list(w.tuple_)
    sub_args[w.position - 1] = ring.one
    sub_tup = ",".join(ring.elements[i] for i in sub_args)
    sub = ring.elements[w.substituted]
    return (
        f"witness: tuple ({tup}), position {w.position}, "
        f"product g({tup})={prod} in P, substitution g({sub_tup})={sub} not in P"
    )


def _cmd_classify(args) -> int:
    if args.expect is not None and args.s is None:
        raise _CliError("--expect needs --s: it asserts the S-classification verdict")
    ring = _load_ring(args.ring)
    ideal = _parse_subset(ring, args.ideal, "--ideal")
    verdict = is_hyperideal(ring, ideal, args.mode)
    lines = [f"ring: {ring.name} mode: {args.mode}", f"ideal {ideal!r}"]
    if not verdict.ok:
        witness = ",".join(ring.elements[i] for i in verdict.witness or ())
        lines.append(f"not a hyperideal: {verdict.clause} fails at ({witness}) -- {verdict.detail}")
        _emit("\n".join(lines) + "\n", args.out)
        return 2
    if ideal.is_full:
        lines.append("improper (whole ring); classification needs a proper hyperideal")
        _emit("\n".join(lines) + "\n", args.out)
        return 2
    exit_code = 0
    if args.s is None:
        profile = classify_ideal(ring, ideal, args.mode)
        for name, v in (("prime", profile.prime), ("primary", profile.primary),
                        ("semiprime", profile.semiprime), ("maximal", profile.maximal)):
            if v.ok:
                lines.append(f"{name}: yes")
            else:
                witness = ",".join(ring.elements[i] for i in v.witness or ())
                lines.append(f"{name}: no (witness {witness})")
    else:
        s_mask = _parse_subset(ring, args.s, "--s")
        mul = multiplicative_set(ring, s_mask)
        cl = classify_s(ring, ideal, mul, args.mode)
        if cl.verdict is SVerdict.S_HYPERIDEAL:
            lines.append(f"S {s_mask!r}: S-hyperideal")
        elif cl.verdict is SVerdict.SR_ONLY:
            lines.append(f"S {s_mask!r}: not an S-hyperideal, but an S_r-hyperideal")
            lines.append(_witness_text(ring, cl))
        else:
            lines.append(f"S {s_mask!r}: not an S-hyperideal (and not an S_r-hyperideal)")
            lines.append(_witness_text(ring, cl))
        if args.expect is not None and args.expect != cl.verdict.value:
            lines.append(f"expected {args.expect}, got {cl.verdict.value}")
            exit_code = 1
    _emit("\n".join(lines) + "\n", args.out)
    return exit_code


def _cmd_radical(args) -> int:
    ring = _load_ring(args.ring)
    ideal = _parse_subset(ring, args.ideal, "--ideal")
    result = radical(ring, ideal, args.mode)
    _emit(f"radical {ideal!r} -> {result!r}\n", args.out)
    return 0


def _cmd_saturate(args) -> int:
    ring = _load_ring(args.ring)
    ideal = _parse_subset(ring, args.ideal, "--ideal")
    mul = multiplicative_set(ring, _parse_subset(ring, args.s, "--s"))
    result = saturation(ring, ideal, mul, args.mode)
    lines = [f"saturation {ideal!r} by {mul.subset!r} -> {result.subset!r}"]
    if not result.one_in_s:
        lines.append("note: hypothesis 1 in S not met; least-S-hyperideal claim unsupported")
    if not result.proper:
        lines.append("note: saturation is the whole ring (vacuous)")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_residual(args) -> int:
    ring = _load_ring(args.ring)
    ideal = _parse_subset(ring, args.ideal, "--ideal")
    by = _parse_subset(ring, args.s, "--s")
    result = residual(ring, ideal, by, args.mode)
    _emit(f"residual {ideal!r} by {by!r} -> {result!r}\n", args.out)
    return 0


def _cmd_quotient(args) -> int:
    ring = _load_ring(args.ring)
    ideal = _parse_subset(ring, args.ideal, "--ideal")
    q = quotient_ring(ring, ideal, args.mode)
    _emit(serialize_spec(q.quotient.spec), args.out)
    return 0


def _cmd_product(args) -> int:
    rings = [_load_ring(path) for path in args.rings]
    prod = product_ring(rings)
    _emit(serialize_spec(prod.spec), args.out)
    return 0


def _cmd_theorems(args) -> int:
    rings = [_load_ring(path) for path in args.rings]
    only = args.only.split(",") if args.only is not None else None
    result = harness.run_suite(rings, args.mode, only)
    if args.format == "json":
        _emit(result.to_json(include_timings=args.timings), args.out)
    else:
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
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if result.aggregate == "counterexample" else 0


def _cmd_fixtures(args) -> int:
    if args.name is None:
        _emit("\n".join(fixture_rings.FIXTURE_NAMES) + "\n", args.out)
        return 0
    ring = fixture_rings.fixtures(args.name)
    _emit(serialize_spec(ring.spec), args.out)
    return 0


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

    def add_common(p, with_mode=True):
        if with_mode:
            p.add_argument("--mode", choices=MODES, default=LENIENT)
        p.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("verify", help="check every axiom of a ring document")
    p.add_argument("ring")
    p.add_argument("--timings", action="store_true",
                   help="add one line per axiom with its runtime (non-deterministic)")
    add_common(p, with_mode=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ideals", help="enumerate and classify all hyperideals")
    p.add_argument("ring")
    add_common(p)
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("classify", help="classify one subset, optionally against an MS")
    p.add_argument("ring")
    p.add_argument("--ideal", required=True)
    p.add_argument("--s", default=None)
    p.add_argument("--expect", default=None,
                   choices=tuple(v.value for v in SVerdict),
                   help="assert the S-classification verdict (exit 1 on mismatch)")
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("radical", help="intersection of the primes over an ideal")
    p.add_argument("ring")
    p.add_argument("--ideal", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_radical)

    p = sub.add_parser("saturate", help="least S-hyperideal containing an ideal")
    p.add_argument("ring")
    p.add_argument("--ideal", required=True)
    p.add_argument("--s", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_saturate)

    p = sub.add_parser("residual", help="divide an ideal by a subset")
    p.add_argument("ring")
    p.add_argument("--ideal", required=True)
    p.add_argument("--s", required=True, help="the dividing subset")
    add_common(p)
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("quotient", help="quotient ring document by a proper hyperideal")
    p.add_argument("ring")
    p.add_argument("--ideal", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("product", help="componentwise product ring document")
    p.add_argument("rings", nargs="+")
    add_common(p, with_mode=False)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("theorems", help="run the theorem catalog on ring documents")
    p.add_argument("rings", nargs="+")
    p.add_argument("--only", default=None, help="comma-joined theorem ids")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timings", action="store_true", help="include runtimes (non-deterministic)")
    add_common(p)
    p.set_defaults(func=_cmd_theorems)

    p = sub.add_parser("fixtures", help="list registry fixtures or emit one as a document")
    p.add_argument("name", nargs="?", default=None)
    add_common(p, with_mode=False)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (HyperIdealError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())
