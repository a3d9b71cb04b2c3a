"""Peak memory of repeated ``theorems`` calls, with and without a full
garbage collection after each call.  CI runs it.

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
from pathlib import Path

BOUND_MB = 1.0


def peak_mb() -> float:
    """``ru_maxrss`` in MB: kilobytes on Linux, bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def child(mode: str, calls: int, paths: list[str]) -> int:
    from hyperideal import cli

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


def main(argv: list[str]) -> int:
    from hyperideal import DEFAULT_SUITE_FIXTURES, fixtures, serialize_spec

    calls = int(argv[0]) if argv else 30
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name in DEFAULT_SUITE_FIXTURES:
            path = Path(tmp) / f"{name}.json"
            path.write_text(serialize_spec(fixtures(name).spec), encoding="utf-8")
            paths.append(str(path))
        peaks = {}
        for mode in ("plain", "collect"):
            run = subprocess.run(
                [sys.executable, __file__, "--child", mode, str(calls), *paths],
                capture_output=True, text=True, env=os.environ,
            )
            if run.returncode != 0:
                print(f"{mode} run failed:\n{run.stderr}", file=sys.stderr)
                return 1
            peaks[mode] = float(run.stdout)
    gap = peaks["plain"] - peaks["collect"]
    print(f"{calls} theorems calls: peak {peaks['plain']:.1f} MB plain, "
          f"{peaks['collect']:.1f} MB with gc.collect() after each call, gap {gap:+.1f} MB")
    if abs(gap) > BOUND_MB:
        print(f"the peaks differ by more than {BOUND_MB} MB: a reference cycle keeps dead rings")
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(sys.argv[2], int(sys.argv[3]), sys.argv[4:]))
    sys.exit(main(sys.argv[1:]))
