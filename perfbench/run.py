"""Fresh-process benchmark for the hyperideal engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --short

Run from the root of a checkout.  Each round of a workload runs in a fresh
interpreter (perfbench/child.py), one process at a time, until S seconds
have passed; the outputs of every round are then checked against the
benchmark's own models (oracle.py).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--short`` runs one traced and one untraced round of every
workload with all checks and exits non-zero unless both rounds pass and give
identical outputs.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import models
import oracle

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("fixture-suite", "large-rings", "build-verify")
FIXTURE_CALLS = 25  # theorems calls per fixture-suite process
P90_SAMPLES = 100
SETUP_SAMPLES = 5  # interpreter starts timed before each round and after the last
CHILD_CPU_SECONDS = 150  # a child that computes longer is killed by the kernel
LAYER_SPANS = (
    "kernel.verify", "kernel.parse", "kernel.serialize", "kernel.views",
    "constructions.cyclic", "constructions.product", "constructions.quotient",
    "constructions.hom", "ideals.enumerate", "ideals.classify", "ideals.special_sets",
    "multiplicative.enumerate", "multiplicative.classify_s",
    *(f"harness.{ident}" for ident in oracle.CATALOG_IDS), "harness.to_json", "cli.run",
)
LAYER_COUNTS = (
    "kernel.rings_verified", "ideals.found", "multiplicative.found",
    "multiplicative.pairs", "harness.instances",
)


class Workload:
    """One round's operations, plus the check for each operation's output."""

    def __init__(self, name: str, seed: int, run_dir: Path, fixture_calls: int = FIXTURE_CALLS):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.inputs = run_dir / "inputs"
        self.inputs.mkdir(parents=True)
        self.fixture_calls = fixture_calls
        # fixture-suite runs on until iter_p90_s has ten samples beyond it
        self.min_rounds = -(-P90_SAMPLES // fixture_calls) if name == "fixture-suite" else 1
        self.ops: list[dict] = []
        self.checks: dict = {}
        getattr(self, "_" + name.replace("-", "_"))()

    def _write(self, label: str, text: str) -> str:
        path = self.inputs / f"{label}.json"
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(ROOT))

    def _doc(self, label: str, model: models.Model) -> str:
        return self._write(label, models.document(model, models.shuffled(model, self.rng)))

    def _add(self, check, **op) -> None:
        op.setdefault("iter", 0)
        self.ops.append(op)
        self.checks[op["id"]] = check

    # -- workloads --------------------------------------------------------

    def _fixture_suite(self) -> None:
        fixtures = list(models.fixture_models().items())
        self.rng.shuffle(fixtures)
        docs = [self._doc(name, model) for name, model in fixtures]
        rings = [(model.name, oracle.CATALOG_IDS) for _, model in fixtures]

        def check(record, text):
            return _rc_ok(record) or oracle.check_suite_json(text, rings, "lenient")

        for i in range(self.fixture_calls):
            self._add(check, id=f"theorems-{i:02d}", iter=i, group="suite", kind="cli",
                      argv=["theorems", *docs, "--format", "json", "--out", "{out}"],
                      warm=["theorems", "lenient"])

    def _large_rings(self) -> None:
        z2, pe = models.cyclic(2), models.paper_example()
        rings = [
            ("z16", oracle.cyclic_expectation(16)),
            ("z2^4", oracle.product_expectation([z2] * 4, "z2^4")),
            ("paper-example^2", oracle.product_expectation([pe, pe], "paper-example^2")),
        ]
        self.rng.shuffle(rings)
        for label, exp in rings:
            model = exp.model
            doc = self._doc(label, model)
            for mode in ("lenient", "strict"):
                self._add(lambda record, text, exp=exp, mode=mode:
                          _rc_ok(record) or oracle.check_ideals_report(text, exp, mode),
                          id=f"{label}-ideals-{mode}", kind="cli", warm=["ideals", mode],
                          argv=["ideals", doc, "--mode", mode, "--out", "{out}"])
            ids = oracle.CATALOG_IDS
            argv = ["theorems", doc, "--format", "json", "--out", "{out}"]
            if label == "z2^4":
                # TAVOID stops at its instance cap on z2^4 yet reports "holds".
                ids = tuple(i for i in ids if i != "TAVOID")
                argv += ["--only", ",".join(ids)]
            self._add(lambda record, text, name=model.name, ids=ids:
                      _rc_ok(record) or oracle.check_suite_json(text, [(name, ids)], "lenient"),
                      id=f"{label}-theorems", kind="cli", warm=["theorems", "lenient"], argv=argv)
            self._add(lambda record, text, exp=exp: oracle.check_ms_list(text, exp),
                      id=f"{label}-ms", kind="ms", doc=doc)

    def _build_verify(self) -> None:
        factors = {
            "z2": models.cyclic(2), "z4": models.cyclic(4), "z8": models.cyclic(8),
            "paper-example": models.paper_example(), "z2-as-33": models.z2_as_33(),
        }
        for label, model in factors.items():
            self._add(_loaded, id=f"load-{label}", kind="load", doc=self._doc(label, model),
                      **{"as": label})

        def built(label, model, name):
            self._add(lambda record, text: _roundtrip_ok(record)
                      or oracle.check_document(text, model, name),
                      id=f"roundtrip-{label}", kind="roundtrip", ring=label)

        for k in (48, 64):
            self._add(_loaded, id=f"cyclic-z{k}", kind="cyclic", k=k, **{"as": f"z{k}"})
            built(f"z{k}", models.cyclic(k), f"z{k}")
        for label, names in (("z2^5", ["z2"] * 5), ("z4xz8", ["z4", "z8"]),
                             ("paper-example^2xz2-as-33",
                              ["paper-example", "paper-example", "z2-as-33"])):
            self._add(_loaded, id=f"product-{label}", kind="product", factors=names,
                      name=label, **{"as": label})
            built(label, models.product_model([factors[n] for n in names], label), label)
        divisors = [2, 4, 8, 16, 32]
        self.rng.shuffle(divisors)
        for d in divisors:
            modulus = [str(x) for x in range(0, 64, d)]
            label = f"z64-mod-{d}"
            self._add(_loaded, id=f"quotient-{label}", kind="quotient", base="z64",
                      modulus=modulus, **{"as": label})
            built(label, models.cyclic(d, names=models.coset_names(64, d)),
                  "z64/{" + ",".join(modulus) + "}")
        # z8 with one wrong product g(1, x) = y, y != x: scalar identity breaks.
        x = self.rng.randrange(1, 8)
        y = (x + self.rng.randrange(1, 8)) % 8
        z8 = factors["z8"]
        broken = models.document(z8, models.shuffled(z8, self.rng),
                                 mul_override={tuple(sorted(("1", str(x)))): str(y)})
        self._add(lambda record, text: [] if record.get("rejected") and "scalar-identity"
                  in record["failures"] else [f"mutated document accepted: {record}"],
                  id="reject-mutated-z8", kind="reject", doc=self._write("z8-mutated", broken))


def _rc_ok(record: dict) -> list[str]:
    return [] if record.get("rc") == 0 else [f"exit code {record.get('rc')}"]


def _loaded(record: dict, _text) -> list[str]:
    return [] if record.get("ok") else ["construction did not return a ring"]


def _roundtrip_ok(record: dict) -> list[str]:
    problems = []
    if not record.get("verified"):
        problems.append("re-parsed document fails verification")
    if not record.get("canonical"):
        problems.append("serialize -> parse -> serialize is not byte-identical")
    return problems


# ---------------------------------------------------------------------------
# running


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_SECONDS, CHILD_CPU_SECONDS))


def spawn(argv: list[str], env: dict, **kwargs) -> tuple[int, float]:
    """Run a fresh interpreter to its end; return its exit code and wall time.

    The wait has no timeout: ``subprocess`` polls a timed wait in steps of up
    to 50 ms, which would round every wall time up.  A CPU-time limit set in
    the child bounds it instead.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=ROOT,
                            preexec_fn=_limit_cpu, **kwargs)
    code = proc.wait()
    return code, time.perf_counter() - start


def time_setup(env: dict) -> float:
    """Wall time to start a fresh interpreter and import hyperideal."""
    code, wall = spawn(["-c", "import hyperideal"], env)
    if code != 0:
        raise RuntimeError("import hyperideal failed")
    return wall


def setup_batch(env: dict) -> list[float]:
    """SETUP_SAMPLES set-up times, scaled by the loops around them."""
    before = calibrate.loop_seconds()
    walls = [time_setup(env) for _ in range(SETUP_SAMPLES)]
    loop = (before + calibrate.loop_seconds()) / 2
    return [calibrate.scale(wall, loop) for wall in walls]


@dataclass
class Round:
    traced: bool
    wall: float
    result: dict | None  # what child.py wrote; None when the child failed
    out_dir: Path

    @staticmethod
    def scaled(record: dict) -> float:
        """An operation's time, corrected for host speed (calibrate.py)."""
        return calibrate.scale(record.get("seconds", 0.0), record["cal"])

    @property
    def speed(self) -> float:
        """Scaled over raw operation time: the round's host-speed factor."""
        ops = self.result["ops"]
        return sum(map(self.scaled, ops)) / sum(r.get("seconds", 0.0) for r in ops)

    @property
    def scaled_wall(self) -> float:
        """Process wall time, less the calibration samples, scaled."""
        return (self.wall - self.result["calibration_s"]) * self.speed


def run_round(bench: Workload, run_dir: Path, number: int, traced: bool, env: dict) -> Round:
    round_dir = run_dir / f"round-{number:03d}"
    round_dir.mkdir()
    job = {"trace": traced, "ops": bench.ops, "out_dir": str(round_dir / "out"),
           "result": str(round_dir / "result.json")}
    (round_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
    with open(round_dir / "stderr.txt", "wb") as err:
        code, wall = spawn([str(ROOT / "perfbench" / "child.py"), str(round_dir / "job.json")],
                           env, stdout=subprocess.DEVNULL, stderr=err)
    result = None
    if code == 0:
        result = json.loads((round_dir / "result.json").read_text(encoding="utf-8"))
        if Path(result["package"]).resolve().parent.parent != (ROOT / "src").resolve():
            result = None  # benchmarked some other copy of the package
    return Round(traced, wall, result, round_dir / "out")


def check_rounds(bench: Workload, rounds: list[Round]) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations over all rounds.

    An operation fails when its check fails, when it raised, or when its
    output differs from the first output of its group (the same operation in
    every round, traced or not; for fixture-suite, every theorems call).
    """
    attempted = failed = 0
    problems: list[str] = []
    first_digest: dict[str, str] = {}
    for rnd in rounds:
        records = {r["id"]: r for r in rnd.result["ops"]} if rnd.result else {}
        for op in bench.ops:
            attempted += 1
            record = records.get(op["id"])
            if record is None:
                found = ["round did not complete"]
            elif "error" in record:
                found = [record["error"]]
            else:
                out = rnd.out_dir / f"{op['id']}.out"
                text = out.read_text(encoding="utf-8") if out.exists() else None
                try:
                    found = bench.checks[op["id"]](record, text)
                except Exception as exc:  # malformed output fails the op, not the run
                    found = [f"check raised {type(exc).__name__}: {exc}"]
                if text is not None:
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    group = op.get("group", op["id"])
                    if first_digest.setdefault(group, digest) != digest:
                        found = found + ["output differs from the first run of this operation"]
            if found:
                failed += 1
                problems.append(f"{op['id']}: {'; '.join(map(str, found))}")
    return attempted, failed, problems


def iteration_times(rounds: list[Round]) -> list[float]:
    times = []
    for rnd in rounds:
        per_iter: dict[int, float] = {}
        for record in rnd.result["ops"]:
            per_iter[record["iter"]] = per_iter.get(record["iter"], 0.0) + rnd.scaled(record)
        times.extend(per_iter.values())
    return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(rounds: list[Round], setup: list[float]) -> dict:
    iters = iteration_times(rounds)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "iter_s": (statistics.median(iters), "s"),
        "iter_p90_s": (percentile(iters, 0.9), "s"),
        "wall_s": (statistics.median(r.scaled_wall for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r.result["peak_rss_kb"] / 1024 for r in rounds), "MB"),
    }


def per_layer(traced: list[Round], untraced: list[Round]) -> dict:
    def mean(key, name, scale=False):
        return statistics.fmean(r.result[key].get(name, 0.0) * (r.speed if scale else 1.0)
                                for r in traced)

    metrics = {f"{name}_s": (mean("self_times", name, True), "s") for name in LAYER_SPANS}
    metrics.update({name: (mean("counts", name), "count") for name in LAYER_COUNTS})
    metrics["cache.retained_rings"] = (
        statistics.fmean(r.result["retained_rings"] for r in traced), "count")
    metrics["cache.retained_mb"] = (statistics.fmean(r.result["retained_mb"] for r in traced), "MB")
    metrics["trace.overhead_s"] = (statistics.median(r.scaled_wall for r in traced)
                                   - statistics.median(r.scaled_wall for r in untraced), "s")
    metrics["host.loop_ms"] = (1000 * statistics.median(
        op["cal"] for r in traced + untraced for op in r.result["ops"]), "ms")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = WORK / f"{name}-{seed}-{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    bench = Workload(name, seed, run_dir)
    env = child_env()
    setup: list[float] = []
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        setup += setup_batch(env)
        # With tracing, traced and untraced rounds alternate, so the overhead
        # compares processes that ran under the same conditions.
        traced = trace and len(rounds) % 2 == 0
        rounds.append(run_round(bench, run_dir, len(rounds), traced, env))
        enough = len(rounds) >= (2 if trace else bench.min_rounds)
        if enough and time.perf_counter() - start >= seconds:
            break
    setup += setup_batch(env)
    attempted, failed, problems = check_rounds(bench, rounds)
    for problem in problems[:20]:
        print(f"{name}: {problem}", file=sys.stderr)
    complete = all(r.result is not None for r in rounds)
    metrics = {}
    if complete:
        untraced = [r for r in rounds if not r.traced]
        traced_rounds = [r for r in rounds if r.traced]
        metrics = per_layer(traced_rounds, untraced) if trace else end_to_end(untraced, setup)
    print(f"{name}: {len(rounds)} rounds, {len(iteration_times(rounds)) if complete else '?'} "
          f"iterations, seed {seed}", file=sys.stderr)
    if complete:
        untraced_ops = [op for r in rounds if not r.traced for op in r.result["ops"]]
        print(f"{name}: unscaled median round wall "
              f"{statistics.median(r.wall for r in rounds if not r.traced):.3f} s, median "
              f"calibration loop {1000 * statistics.median(op['cal'] for op in untraced_ops):.3f} ms",
              file=sys.stderr)
    return {
        "correct": complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def short() -> int:
    """One untraced and one traced round of every workload, all checks on."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = child_env()
    status = 0
    for name in WORKLOADS:
        run_dir = WORK / f"short-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        bench = Workload(name, 0, run_dir, fixture_calls=1)
        rounds = [run_round(bench, run_dir, i, traced, env) for i, traced in enumerate((False, True))]
        attempted, failed, problems = check_rounds(bench, rounds)
        complete = all(r.result is not None for r in rounds)
        if complete:
            names = {*end_to_end(rounds[:1], setup_batch(env)), *per_layer(rounds[1:], rounds[:1])}
            if names != declared:
                problems.append(f"metrics differ from BENCHMARK.json: {sorted(names ^ declared)}")
        ok = complete and failed == 0 and not problems
        print(f"{name}: {'ok' if ok else 'FAILED'} ({attempted} operations, {failed} failed, "
              f"untraced {rounds[0].wall:.2f} s, traced {rounds[1].wall:.2f} s)")
        for problem in problems:
            print(f"  {problem}")
        status |= not ok
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one traced and one untraced round of every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hyperideal" / "__init__.py").is_file():
        print(f"error: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.short:
        return short()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
