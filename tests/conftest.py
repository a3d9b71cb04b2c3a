import random
import re

import pytest

from hyperideal import fixtures


@pytest.fixture(scope="session")
def paper():
    return fixtures("paper-example")


@pytest.fixture(scope="session")
def z2():
    return fixtures("z2")


@pytest.fixture(scope="session")
def z4():
    return fixtures("z4")


@pytest.fixture(scope="session")
def z6():
    return fixtures("z6")


@pytest.fixture(scope="session")
def z12():
    return fixtures("z12")


@pytest.fixture(scope="session")
def all_fixture_rings():
    from hyperideal import FIXTURE_NAMES

    return [fixtures(name) for name in FIXTURE_NAMES]


@pytest.fixture(scope="session")
def large_rings():
    """The larger rings of the enumeration tests, built once: z16, the
    Boolean ring z2^4 and paper-example squared."""
    from hyperideal import cyclic_ring, product_ring

    return {
        "z16": cyclic_ring(16),
        "z2^4": product_ring([fixtures("z2")] * 4, name="z2^4"),
        "paper-example^2": product_ring([fixtures("paper-example")] * 2, name="paper-example^2"),
    }


def order3_spec(f11, f12, f22, g22):
    """The (2,2) table of order 3 with 0 neutral and absorbing and 1 the
    identity, given its free entries f(1,1), f(1,2), f(2,2) and g(2,2)."""
    from hyperideal import HyperRingSpec

    f = {(0, 0): {0}, (0, 1): {1}, (0, 2): {2}, (1, 1): f11, (1, 2): f12, (2, 2): f22}
    g = {(0, 0): 0, (0, 1): 0, (0, 2): 0, (1, 1): 1, (1, 2): 2, (2, 2): g22}
    name = "o3-" + "-".join("".join(map(str, sorted(v))) for v in (f11, f12, f22)) + f"-{g22}"
    return HyperRingSpec(
        name=name, m=2, n=2, elements=("0", "1", "2"), zero="0", one="1",
        f_table={k: frozenset(v) for k, v in f.items()}, g_table=g,
    )


def z2_ternary_spec():
    """Z_2 with the product g(a, b, c) = abc: a 2-element (2,3) ring."""
    from hyperideal import HyperRingSpec

    pairs, triples = [(0, 0), (0, 1), (1, 1)], [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    return HyperRingSpec(
        name="z2-23", m=2, n=3, elements=("0", "1"), zero="0", one="1",
        f_table={k: frozenset({sum(k) % 2}) for k in pairs},
        g_table={k: k[0] * k[1] * k[2] for k in triples},
    )


def lift(spec, m, n):
    """The (m,n) lift of a (2,2) spec: f folds the binary sum over its
    arguments, as sets, and g folds the binary product.  z2-as-33 is the
    lift of Z2 to (3,3)."""
    from functools import reduce
    from itertools import combinations_with_replacement

    from hyperideal import HyperRingSpec

    def add(values, b):
        return frozenset().union(*(spec.f_table[tuple(sorted((a, b)))] for a in values))

    def times(a, b):
        return spec.g_table[tuple(sorted((a, b)))]

    carrier = range(spec.order)
    return HyperRingSpec(
        name=f"{spec.name}-as-{m}{n}", m=m, n=n, elements=spec.elements, zero=spec.zero, one=spec.one,
        f_table={k: reduce(add, k[1:], frozenset(k[:1])) for k in combinations_with_replacement(carrier, m)},
        g_table={k: reduce(times, k) for k in combinations_with_replacement(carrier, n)},
    )


@pytest.fixture(scope="session")
def lifted_rings():
    """The lifts of cyclic rings past (2,2) that the oracles compare, by name."""
    from hyperideal import cyclic_ring, require_ring

    return {
        f"z{k}-as-{m}{n}": require_ring(lift(cyclic_ring(k).spec, m, n))
        for k, m, n in ((8, 3, 3), (12, 3, 3), (12, 2, 4), (8, 4, 2))
    }


@pytest.fixture(scope="session")
def census_rings():
    """Every order-3 (2,2) table of ``order3_spec`` that ``verify_axioms``
    accepts, by name: 10 of the 1029 candidates."""
    from itertools import combinations, product

    from hyperideal import HyperRing, verify_axioms

    values = [set(c) for k in (1, 2, 3) for c in combinations(range(3), k)]
    rings = {}
    for f11, f12, f22 in product(values, repeat=3):
        for g22 in range(3):
            ring = verify_axioms(order3_spec(f11, f12, f22, g22))
            if isinstance(ring, HyperRing):
                rings[ring.name] = ring
    return rings


def relabel_spec(spec, perm):
    """The spec with element i moved to index ``perm[i]``, 0 and 1 included.
    Names move with the elements, so the zero and the one keep their names."""
    from hyperideal import HyperRingSpec

    elements = [None] * spec.order
    for i, name in enumerate(spec.elements):
        elements[perm[i]] = name

    def key(k):
        return tuple(sorted(perm[x] for x in k))

    return HyperRingSpec(
        name=f"{spec.name}-relabelled", m=spec.m, n=spec.n, elements=tuple(elements),
        zero=spec.zero, one=spec.one,
        f_table={key(k): frozenset(perm[v] for v in vals) for k, vals in spec.f_table.items()},
        g_table={key(k): perm[v] for k, v in spec.g_table.items()},
    )


def relabel(ring, perm):
    """The ring of ``relabel_spec``."""
    from hyperideal import require_ring

    return require_ring(relabel_spec(ring.spec, perm))


def seeded_perms(ring, count=3):
    """``count`` permutations of the ring's elements, seeded by its name."""
    rng = random.Random(ring.name)
    perms = []
    for _ in range(count):
        perm = list(range(ring.order))
        rng.shuffle(perm)
        perms.append(perm)
    return perms


RENDERED_SET = re.compile(r"\{([^{}]*)\}")


def unordered_sets(text):
    """``text`` with each rendered set emptied, and the sets' names as sorted
    tuples in sorted order: equal for reports equal up to element order."""
    sets = sorted(tuple(sorted(names.split(","))) for names in RENDERED_SET.findall(text))
    return RENDERED_SET.sub("{}", text), sets
