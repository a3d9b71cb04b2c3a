"""The spec layer against the per-key loops of ``tests/spec_oracle.py``, on
the rings that the benchmark's build-verify workload builds.  CI runs it.

    PYTHONPATH=src python tests/compare_specs.py

The rings are z48, z64, z2^5, z4xz8, paper-example^2xz2-as-33 and the five
quotients of z64 by the multiples of 2, 4, 8, 16 and 32.  For each ring's
document, ``parse_spec`` must give the oracle's spec and the ring's own,
and ``serialize_spec`` of it must give back the document byte for byte.
The document is canonical, so ``parse_spec`` takes its keys as they stand;
the same document with each key's names reversed and the keys in reverse
order takes the split of the key texts, and must parse to the same spec on
both sides.  For each product, ``product_ring`` must give the spec that the
oracle's tables give, and the same document; neither side runs
``verify_axioms``, since a product carries its proof.

The script prints one line per ring with best of 5 times in ms: the round
trip by layer, as the benchmark runs it (``serialize_spec`` of the ring's
spec, ``parse_spec`` of the document and ``verify_axioms`` of the spec it
gives), then the oracle's parse, both sides of the reversed parse and both
sides of the product.  So a slowdown shows in CI logs.  It exits 1 on any
difference, and takes about 1 s on a 2-CPU host.
"""

from __future__ import annotations

import json
import sys
import time

import spec_oracle
from hyperideal import cyclic_ring, fixtures, parse_spec, product_ring, quotient_ring, serialize_spec, verify_axioms

ROUNDS = 5


def best(call, *args) -> tuple[float, object]:
    """The least time of ``ROUNDS`` calls, in ms, and the last result."""
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = call(*args)
        times.append(time.perf_counter() - start)
    return min(times) * 1000, result


def reversed_keys(document: str) -> str:
    """``document`` with each key's names reversed and the keys of each
    table in reverse order."""
    data = json.loads(document)
    for table in ("f", "g"):
        data[table] = {",".join(reversed(key.split(","))): value for key, value in reversed(data[table].items())}
    return json.dumps(data, indent=2)


def rings() -> dict:
    z2, pe, z2_as_33 = fixtures("z2"), fixtures("paper-example"), fixtures("z2-as-33")
    z64 = cyclic_ring(64)
    built = {"z48": (cyclic_ring(48), None), "z64": (z64, None)}
    for name, factors in (("z2^5", [z2] * 5), ("z4xz8", [cyclic_ring(4), cyclic_ring(8)]),
                          ("paper-example^2xz2-as-33", [pe, pe, z2_as_33])):
        built[name] = product_ring(factors, name), factors
    for d in (2, 4, 8, 16, 32):
        modulus = z64.subset_from_names(str(x) for x in range(0, 64, d))
        built[f"z64-mod-{d}"] = quotient_ring(z64, modulus).quotient, None
    return built


def main() -> int:
    differ = 0
    print(f"{'ring':<25} {'serialize':>9} {'parse':>7} {'verify':>7} {'oracle':>7} "
          f"{'reversed':>8} {'oracle':>7} {'product':>7} {'oracle':>7}  equal")
    for name, (ring, factors) in rings().items():
        serialize_ms, document = best(serialize_spec, ring.spec)
        parse_ms, spec = best(parse_spec, document)
        verify_ms, verified = best(verify_axioms, spec)
        oracle_ms, oracle = best(spec_oracle.parse_spec, document)
        reversed_document = reversed_keys(document)
        reversed_ms, by_split = best(parse_spec, reversed_document)
        reversed_oracle_ms, by_split_oracle = best(spec_oracle.parse_spec, reversed_document)
        equal = spec == oracle == by_split == by_split_oracle == ring.spec and serialize_spec(spec) == document
        equal = equal and verified.spec == spec
        product_ms = oracle_product_ms = ""
        if factors is not None:
            took, built = best(product_ring, factors, name)
            took_oracle, by_oracle = best(spec_oracle.product_spec, factors, name)
            product_ms, oracle_product_ms = f"{took:.2f}", f"{took_oracle:.2f}"
            equal = equal and built.spec == by_oracle == ring.spec
            equal = equal and serialize_spec(built.spec) == serialize_spec(by_oracle) == document
        differ += not equal
        print(f"{name:<25} {serialize_ms:>9.2f} {parse_ms:>7.2f} {verify_ms:>7.2f} {oracle_ms:>7.2f} "
              f"{reversed_ms:>8.2f} {reversed_oracle_ms:>7.2f} {product_ms:>7} {oracle_product_ms:>7}  {equal}",
              flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
