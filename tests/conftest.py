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


def reduct_spec(spec):
    """The binary reducts of a spec as a (2,2) spec, read off its multiset
    tables: f2(a, b) = f(a, b, 0^(m-2)) and g2(a, b) = g(a, b, 1^(n-2))."""
    from itertools import combinations_with_replacement

    from hyperideal import HyperRingSpec

    zeros = (spec.index(spec.zero),) * (spec.m - 2)
    ones = (spec.index(spec.one),) * (spec.n - 2)
    pairs = list(combinations_with_replacement(range(spec.order), 2))
    return HyperRingSpec(
        name=f"{spec.name}-reduct", m=2, n=2, elements=spec.elements, zero=spec.zero, one=spec.one,
        f_table={k: spec.f_table[tuple(sorted(k + zeros))] for k in pairs},
        g_table={k: spec.g_table[tuple(sorted(k + ones))] for k in pairs},
    )


def reduct_tables(spec):
    """The reducts of ``reduct_spec`` as lists over ordered pairs, (a, b) at
    a*order + b: f2 as bitmasks and g2 as element indices."""
    from itertools import product

    reducts = reduct_spec(spec)
    keys = [tuple(sorted(k)) for k in product(range(spec.order), repeat=2)]
    f2 = [sum(1 << x for x in reducts.f_table[k]) for k in keys]
    return f2, [reducts.g_table[k] for k in keys]


@pytest.fixture(scope="session")
def lifted_rings():
    """The lifts of cyclic rings past (2,2) that the oracles compare, by name."""
    from hyperideal import cyclic_ring, require_ring

    return {
        f"z{k}-as-{m}{n}": require_ring(lift(cyclic_ring(k).spec, m, n))
        for k, m, n in ((8, 3, 3), (12, 3, 3), (12, 2, 4), (8, 4, 2))
    }


@pytest.fixture(scope="session")
def rings_past_2_2(lifted_rings):
    """Every passing ring with m or n >= 3 that the tests build, but for the
    quotients: the (3,3) fixtures, their products, ``lifted_rings``, z2-23
    and the lifts of Z6 to (2,5) and Z4 to (5,3)."""
    from hyperideal import cyclic_ring, product_ring, require_ring

    paper, z2_as_33 = fixtures("paper-example"), fixtures("z2-as-33")
    return [
        paper, z2_as_33,
        product_ring([z2_as_33, z2_as_33]),
        product_ring([paper, z2_as_33]),
        product_ring([paper, paper]),
        product_ring([paper, paper, z2_as_33]),
        *lifted_rings.values(),
        require_ring(z2_ternary_spec()),
        *(require_ring(lift(cyclic_ring(k).spec, m, n)) for k, m, n in ((6, 2, 5), (4, 5, 3))),
    ]


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


def unit_subgroups(k):
    """The subgroups G != {1} of the units of Z_k that at most two units
    generate, each a frozenset, in sorted order."""
    from itertools import combinations
    from math import gcd

    units = [u for u in range(1, k) if gcd(u, k) == 1]
    groups = set()
    for generators in [*combinations(units, 1), *combinations(units, 2)]:
        group, grown = set(), {1}
        while grown != group:
            group, grown = grown, grown | {x * s % k for x in grown for s in generators}
        if len(group) > 1:
            groups.add(frozenset(group))
    return sorted(groups, key=sorted)


def krasner_spec(k, group):
    """The Krasner quotient Z_k/G of Z_k by a subgroup G of its units
    (Krasner, Int. J. Math. Math. Sci. 6, 1983): the classes xG, each named
    by its least member, with xG + yG the classes of xg + yh for g, h in G
    and xG yG = xyG.  Its sum is multivalued whenever G != {1}."""
    from itertools import combinations_with_replacement

    from hyperideal import HyperRingSpec

    classes = sorted({frozenset(x * g % k for g in group) for x in range(k)}, key=min)
    class_of = {x: i for i, c in enumerate(classes) for x in c}
    least = [min(c) for c in classes]
    keys = list(combinations_with_replacement(range(len(classes)), 2))
    return HyperRingSpec(
        name=f"z{k}/{{{','.join(map(str, sorted(group)))}}}", m=2, n=2,
        elements=tuple(map(str, least)), zero="0", one="1",
        f_table={(a, b): frozenset(class_of[(least[a] * g + least[b] * h) % k] for g in group for h in group)
                 for a, b in keys},
        g_table={(a, b): class_of[least[a] * least[b] % k] for a, b in keys},
    )


@pytest.fixture(scope="session")
def krasner_rings():
    """``verify_axioms`` of ``krasner_spec`` for k <= 30 and every group of
    ``unit_subgroups``: 130 rings of orders 2-21."""
    from hyperideal import verify_axioms

    return [verify_axioms(krasner_spec(k, group)) for k in range(3, 31) for group in unit_subgroups(k)]


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
