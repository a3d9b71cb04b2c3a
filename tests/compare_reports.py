"""By hand: the theorem-suite reports of rings with 10^4-10^5 multiplicative
sets against hashes pinned before the transfer checkers (THOM-PRE, THOM-IMG,
TQUOT) stopped testing the image of every MS for closure.  The same hashes
guard T4 and T6, which decide every MS at once, and the transposed build of
the MS index ``containing``: their loop oracles run only up to order 16.

    PYTHONPATH=src python tests/compare_reports.py [k ...]   # default: 36 40 48

For each cyclic ring Z_k and each mode the script prints the sha256 of
``run_suite([cyclic_ring(k)], mode).to_json()``, its time, and whether it
equals the pinned hash.  It exits 1 on any difference or on a k with no pin.
Z_36, Z_40 and Z_48 have 12,412, 19,549 and 91,508 MS; the six reports take
about 7 s on a 2-CPU host, most of it Z_48.
"""

from __future__ import annotations

import hashlib
import sys
import time

from hyperideal import cyclic_ring, run_suite

SUITE_SHA256 = {
    (36, "lenient"): "c25845f047e1b995de04c1ce3bf068d2a0e337a642392ec7c321877d8a8ece06",
    (36, "strict"): "cd60b87a9047def038c930a652ce644051a77cbca2a57a5974a0eb28cf446bab",
    (40, "lenient"): "d47a0d3c120ba5734c6efd0553924d16914daafd6a053f771ccd9b5ed0a9b379",
    (40, "strict"): "c1f056e5eb6b4b1554d77ad29e03ef80a65d6abe75c8ae1461c19cd193491b0e",
    (48, "lenient"): "11b58b85868a92233061bdeca5bbf6e64bbd6448382cbb747b92eb6bc94bf73b",
    (48, "strict"): "d9ebe73f653ba4834bcad824dadc89f9396a8ae4d64c7e7eddb87bcce2a34d4b",
}


def main(argv: list[str]) -> int:
    differ = 0
    print(f"{'ring':<5} {'mode':<8} {'sha256':<16} {'s':>6}  equal")
    for k in map(int, argv or ["36", "40", "48"]):
        for mode in ("lenient", "strict"):
            start = time.perf_counter()
            text = run_suite([cyclic_ring(k)], mode).to_json()
            took = time.perf_counter() - start
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            equal = digest == SUITE_SHA256.get((k, mode))
            differ += not equal
            print(f"z{k:<4} {mode:<8} {digest[:16]} {took:>6.2f}  {equal}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
