"""The fixture registry: ``fixtures(name)`` builds each reference ring once,
the cyclic rings and z2xz3 proven (see ``constructions``), the others verified.
``FIXTURE_NAMES`` lists all nine, ``DEFAULT_SUITE_FIXTURES`` the eight of
the default suite (all but z2-as-33, a companion of TPROD).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from .constructions import (
    cyclic_ring,
    product_ring,
    quotient_ring,
)
from .errors import UnknownFixture
from .kernel import (
    LENIENT,
    HyperRing,
    HyperRingSpec,
    require_ring,
)


def _paper_example_spec() -> HyperRingSpec:
    f = {
        (0, 0, 0): frozenset({0}),
        (0, 0, 1): frozenset({1}),
        (0, 0, 2): frozenset({2}),
        (0, 1, 1): frozenset({1}),
        (0, 1, 2): frozenset({0, 1, 2}),
        (0, 2, 2): frozenset({2}),
        (1, 1, 1): frozenset({1}),
        (1, 1, 2): frozenset({0, 1, 2}),
        (1, 2, 2): frozenset({0, 1, 2}),
        (2, 2, 2): frozenset({2}),
    }
    g = {
        (0, 0, 0): 0, (0, 0, 1): 0, (0, 0, 2): 0,
        (0, 1, 1): 0, (0, 1, 2): 0, (0, 2, 2): 0,
        (1, 1, 1): 1, (1, 1, 2): 2, (1, 2, 2): 2, (2, 2, 2): 2,
    }
    return HyperRingSpec(
        name="paper-example", m=3, n=3, elements=("0", "1", "2"),
        zero="0", one="1", f_table=f, g_table=g,
    )


def _z2_as_33_spec() -> HyperRingSpec:
    f = {
        key: frozenset({sum(key) % 2})
        for key in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    }
    g = {key: (key[0] * key[1] * key[2]) % 2
         for key in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]}
    return HyperRingSpec(
        name="z2-as-33", m=3, n=3, elements=("0", "1"),
        zero="0", one="1", f_table=f, g_table=g,
    )


FIXTURE_NAMES = (
    "paper-example", "z2", "z4", "z6", "z8", "z12",
    "z2xz3", "z6-mod-3", "z2-as-33",
)

DEFAULT_SUITE_FIXTURES = (
    "paper-example", "z2", "z4", "z6", "z8", "z12", "z2xz3", "z6-mod-3",
)


@lru_cache(maxsize=None)
def fixtures(name: str) -> HyperRing:
    """Deterministic reference rings, each proven or verified."""
    if name == "paper-example":
        return require_ring(_paper_example_spec())
    if name in ("z2", "z4", "z6", "z8", "z12"):
        return cyclic_ring(int(name[1:]))
    if name == "z2xz3":
        return product_ring([cyclic_ring(2), cyclic_ring(3)], name="z2xz3")
    if name == "z6-mod-3":
        z6 = fixtures("z6")
        q = quotient_ring(z6, z6.subset([0, 3]), LENIENT).quotient
        return require_ring(replace(q.spec, name="z6-mod-3"))
    if name == "z2-as-33":
        return require_ring(_z2_as_33_spec())
    raise UnknownFixture(name)
