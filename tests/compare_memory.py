"""Peak memory of repeated ``theorems`` calls, with and without a full
garbage collection after each call, and what one call leaves to the
cyclic collector.  CI runs it.

    PYTHONPATH=src python tests/compare_memory.py [calls]   # default: 30

The script writes the default fixture documents to a temporary directory.
Then two fresh interpreters each make ``calls`` in-process
``cli.run(["theorems", ...])`` calls on them, output discarded: one plainly,
one with ``gc.collect()`` after each call.  It prints the peak resident set
(``ru_maxrss``) of each and exits 1 if they differ by more than 1 MB.  A
ring that sits in a reference cycle waits for the cyclic collector once its
call returns, so the plain run's peak rises by the dead rings it holds
(about 8 MB over 30 calls when every ring did).  Both runs take about 3 s
on a 2-CPU host.

Two more fresh interpreters, one per ``--format`` (text and JSON), each
make one ``theorems`` call on the same documents after a first call has
filled the caches, under ``gc.DEBUG_SAVEALL``, and report the objects the
collector then finds in reference cycles, by type.  The script prints them
and exits 1 if there are any: each is work a call leaves to the collector
(the ids memo of the dense tables once left 35 cycles a call, and the
standard library's pure-Python indent encoder 33 a JSON call).

It also prints, for each module of the package, its code tokens (the
``tokenize`` tokens less comments and blank-line NL tokens) and the peak
that ``compile`` of its source reaches under ``tracemalloc``, marking each
module past ``TOKEN_STEP`` tokens.  Past that size the compile peak, which
a fresh interpreter pays when it imports from source, rises in a step of
about 0.5 MB (seen on ``kernel.py``); the marks are printed only and fail
nothing.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import subprocess
import sys
import tempfile
import tokenize
import tracemalloc
from collections import Counter
from pathlib import Path

BOUND_MB = 1.0
TOKEN_STEP = 8192
CYCLES = ("cycles-text", "cycles-json")  # the child modes that count what one call leaves


def peak_mb() -> float:
    """``ru_maxrss`` in MB: kilobytes on Linux, bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def child(mode: str, calls: int, paths: list[str]) -> int:
    from hyperideal import cli

    if mode.startswith("cycles-"):  # one warm call, then the objects the next leaves in cycles
        argv = ["theorems", "--format", mode.removeprefix("cycles-"), *paths]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(argv)
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            rc = cli.run(argv)
            gc.collect()
        kinds = Counter(type(o).__name__ for o in gc.garbage)
        print(" ".join(f"{kind}={count}" for kind, count in kinds.most_common()))
        return 0 if rc == 0 else 2
    for _ in range(calls):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run(["theorems", *paths])
        if rc != 0:
            print(f"theorems exited {rc}", file=sys.stderr)
            return 2
        if mode == "collect":
            gc.collect()
    print(peak_mb())
    return 0


def print_modules() -> None:
    """Code tokens and ``compile`` peak of each module of the package."""
    import hyperideal

    for path in sorted(Path(hyperideal.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tokens = sum(1 for token in tokenize.generate_tokens(io.StringIO(source).readline)
                     if token.type not in (tokenize.COMMENT, tokenize.NL))
        tracemalloc.start()
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        mark = f"  past {TOKEN_STEP:,} tokens" if tokens > TOKEN_STEP else ""
        print(f"{path.name:20s} {tokens:6,} tokens, compile peak {peak / 2**20:.2f} MB{mark}")


def main(argv: list[str]) -> int:
    from hyperideal import DEFAULT_SUITE_FIXTURES, fixtures, serialize_spec

    calls = int(argv[0]) if argv else 30
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name in DEFAULT_SUITE_FIXTURES:
            path = Path(tmp) / f"{name}.json"
            path.write_text(serialize_spec(fixtures(name).spec), encoding="utf-8")
            paths.append(str(path))
        out = {}
        for mode in ("plain", "collect", *CYCLES):
            run = subprocess.run(
                [sys.executable, __file__, "--child", mode, str(calls), *paths],
                capture_output=True, text=True, env=os.environ,
            )
            if run.returncode != 0:
                print(f"{mode} run failed:\n{run.stderr}", file=sys.stderr)
                return 1
            out[mode] = run.stdout.strip()
    print_modules()
    plain, collect = float(out["plain"]), float(out["collect"])
    gap = plain - collect
    print(f"{calls} theorems calls: peak {plain:.1f} MB plain, "
          f"{collect:.1f} MB with gc.collect() after each call, gap {gap:+.1f} MB")
    for mode in CYCLES:
        print(f"one {mode.removeprefix('cycles-')} theorems call leaves to the cyclic collector: "
              f"{out[mode] or 'nothing'}")
    failed = False
    if abs(gap) > BOUND_MB:
        print(f"the peaks differ by more than {BOUND_MB} MB: a reference cycle keeps dead rings")
        failed = True
    if any(out[mode] for mode in CYCLES):
        print("a theorems call leaves objects in reference cycles")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(sys.argv[2], int(sys.argv[3]), sys.argv[4:]))
    sys.exit(main(sys.argv[1:]))
