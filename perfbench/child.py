"""One round of a workload, run in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

The job lists the operations of the round.  Each operation is one call into
the engine's public API, timed alone; outputs are written to files and
checked later by run.py, so no check runs inside the timed region.  With
``"trace": true`` the calls are wrapped in spans (see tracing.py) and the
per-layer figures are written with the result.  The calibration loop
(calibrate.py) is sampled between operations and every half second during
them; each operation records the median of its samples.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path

import calibrate


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    import hyperideal
    from hyperideal import cli

    sampler = calibrate.Sampler()
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(sampler.clock)
        tracer.install()

    out_dir = Path(job["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    rings: dict = {}
    retained_rings = None
    rss_start = rss_bytes()
    ops = job["ops"]
    sampler.sample()
    sampler.start()
    for i, op in enumerate(ops):
        out = out_dir / f"{op['id']}.out"
        record = {"id": op["id"], "iter": op["iter"]}
        first_sample = len(sampler.samples) - 1
        if tracer is not None:
            tracer.start_op(tuple(op["warm"]) if op.get("warm") else None)
        try:
            record.update(run_op(hyperideal, cli, op, rings, out, sampler.clock))
        except Exception as exc:  # the op fails; the round goes on
            record["error"] = f"{type(exc).__name__}: {exc}"
        sampler.sample()
        record["cal"] = statistics.median(sampler.samples[first_sample:])
        records.append(record)
        if i + 1 == len(ops) or ops[i + 1]["iter"] != op["iter"]:
            rings.clear()
            if tracer is not None and retained_rings is None:
                gc.collect()
                retained_rings = sum(
                    isinstance(o, hyperideal.HyperRing) for o in gc.get_objects())
    sampler.stop()

    result = {
        "package": hyperideal.__file__,
        "ops": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calibration_s": sampler.spent,
    }
    if tracer is not None:
        iterations = len({op["iter"] for op in ops})
        result["self_times"] = dict(tracer.self_times())
        result["counts"] = dict(tracer.counts)
        result["retained_rings"] = retained_rings
        result["retained_mb"] = (rss_bytes() - rss_start) / iterations / 2**20
        result["spans"] = tracer.spans
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_op(hyperideal, cli, op: dict, rings: dict, out: Path, clock) -> dict:
    """Run one operation; only the engine call sits between the clock reads."""
    kind = op["kind"]
    if kind == "cli":
        argv = [str(out) if a == "{out}" else a for a in op["argv"]]
        start = clock()
        rc = cli.run(argv)
        return {"seconds": clock() - start, "rc": rc}

    text = Path(op["doc"]).read_text(encoding="utf-8") if "doc" in op else None
    if kind == "ms":
        start = clock()
        ring = hyperideal.verify_axioms(hyperideal.parse_spec(text))
        sets = hyperideal.enumerate_multiplicative_sets(ring)
        seconds = clock() - start
        out.write_text(json.dumps([s.names() for s in sets]), encoding="utf-8")
        return {"seconds": seconds}
    if kind == "load":
        start = clock()
        ring = hyperideal.verify_axioms(hyperideal.parse_spec(text))
        seconds = clock() - start
        rings[op["as"]] = ring
        return {"seconds": seconds, "ok": isinstance(ring, hyperideal.HyperRing)}
    if kind == "cyclic":
        start = clock()
        rings[op["as"]] = hyperideal.cyclic_ring(op["k"])
        return {"seconds": clock() - start, "ok": True}
    if kind == "product":
        factors = [rings[name] for name in op["factors"]]
        start = clock()
        rings[op["as"]] = hyperideal.product_ring(factors, name=op["name"])
        return {"seconds": clock() - start, "ok": True}
    if kind == "quotient":
        base = rings[op["base"]]
        modulus = base.subset_from_names(op["modulus"])
        start = clock()
        rings[op["as"]] = hyperideal.quotient_ring(base, modulus).quotient
        return {"seconds": clock() - start, "ok": True}
    if kind == "roundtrip":
        ring = rings[op["ring"]]
        start = clock()
        first = hyperideal.serialize_spec(ring.spec)
        spec = hyperideal.parse_spec(first)
        again = hyperideal.verify_axioms(spec)
        second = hyperideal.serialize_spec(spec)
        seconds = clock() - start
        out.write_text(first, encoding="utf-8")
        return {"seconds": seconds, "verified": isinstance(again, hyperideal.HyperRing),
                "canonical": first == second}
    if kind == "reject":
        start = clock()
        report = hyperideal.verify_axioms(hyperideal.parse_spec(text))
        seconds = clock() - start
        rejected = isinstance(report, hyperideal.AxiomReport)
        return {"seconds": seconds, "rejected": rejected,
                "failures": report.failures() if rejected else []}
    raise ValueError(f"unknown operation kind {kind!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
