"""The verifier's generator route against its passes, the rings that
``cyclic_ring`` and ``product_ring`` build against ``verify_axioms``, and
the modes on rings where (-1)x = -x.

``kernel._verify_tables`` first tries a single-valued (2,2) table, and the
(2,2) reducts of a ring past it, by ``kernel._generator_route``: it proves
every axiom on a greedy additive generating set S (``kernel._generators``)
or gives up, and then the passes (``kernel._passes``) decide.  So on every
passing single-valued ring and reduct of the corpora the route must give the
passes' entries and negation, and on every strided single-entry mutation it
must give up exactly when some axiom fails, leaving the passes' failing
report to ``verify_axioms``.

``cyclic_ring``, ``product_ring`` and ``quotient_ring`` carry their proof
and do not call ``verify_axioms``; here ``verify_axioms`` re-checks every
ring they build over the corpora, every quotient by a proper hyperideal
included, with the same dense tables, entries and negation.
"""

import math
import random
from dataclasses import replace
from itertools import combinations_with_replacement, product

import pytest
from axiom_oracle import single_entry_mutations
from conftest import reduct_spec, relabel_spec

from hyperideal import (
    FIXTURE_NAMES,
    LENIENT,
    STRICT,
    HyperRing,
    HyperRingSpec,
    cyclic_ring,
    enumerate_hyperideals,
    fixtures,
    harness,
    kernel,
    product_ring,
    proper_hyperideals,
    quotient_ring,
    verify_axioms,
)
from hyperideal.errors import CosetsNotPartition, InducedOpIllDefined


def _routes(spec) -> tuple:
    """The generator route's report and negation (None where it gives up)
    and the passes', on a (2,2) spec's dense tables."""
    f, g, f_ids, f_values = kernel._dense_tables(spec)
    zero, one = spec.index(spec.zero), spec.index(spec.one)
    return (kernel._generator_route(spec.order, f_ids, g, zero, one, f_values),
            kernel._passes(spec.order, 2, 2, f, g, zero, one, f_ids, f_values))


def _binary(spec):
    """The spec at (2,2): itself, or its binary reducts."""
    return spec if (spec.m, spec.n) == (2, 2) else reduct_spec(spec)


def _single_valued(spec) -> bool:
    return all(len(value) == 1 for value in spec.f_table.values())


def _transfer_quotients() -> list:
    """Every quotient that the harness's transfers build on the fixtures, in
    both modes."""
    return [hom.target for name in FIXTURE_NAMES for mode in (LENIENT, STRICT)
            for hom in harness._transfers(fixtures(name), mode)[1:]]


@pytest.fixture(scope="module")
def corpus(census_rings, rings_past_2_2) -> list:
    """Every passing ring of the corpora: the fixtures, the census, z2-z64,
    z2^4, z2^5, z4xz8, the transfers' quotients and the rings past (2,2),
    the ``conftest.lift`` rings among them."""
    z2 = fixtures("z2")
    return [
        *map(fixtures, FIXTURE_NAMES),
        *census_rings.values(),
        *map(cyclic_ring, range(2, 65)),
        product_ring([z2] * 4, name="z2^4"),
        product_ring([z2] * 5, name="z2^5"),
        product_ring([cyclic_ring(4), cyclic_ring(8)], name="z4xz8"),
        *_transfer_quotients(),
        *rings_past_2_2,
    ]


def test_both_routes_agree_on_every_passing_ring(corpus):
    """The route proves every single-valued (2,2) ring and reduct with the
    passes' entries and negation, and gives up on every multivalued one."""
    proved = 0
    for ring in corpus:
        spec = _binary(ring.spec)
        routed, passes = _routes(spec)
        assert passes[0].all_pass, ring.name
        if _single_valued(spec):
            assert routed == passes, ring.name
            proved += 1
        else:
            assert routed is None, ring.name
    assert proved > 100


@pytest.mark.parametrize("name, f_stride, g_stride", [
    ("z6", 7, 1), ("z8", 37, 1), ("z12", 1009, 3), ("z2xz3", 7, 1),
])
def test_route_gives_up_exactly_where_an_axiom_fails(name, f_stride, g_stride):
    """Over strided single-entry mutations, the route gives up exactly on
    the specs that fail some axiom, and ``verify_axioms`` then returns the
    passes' failing report, witnesses and details included."""
    base = fixtures(name).spec
    specs = [*single_entry_mutations(base, "f", f_stride), *single_entry_mutations(base, "g", g_stride)]
    assert len(specs) > 150
    for spec in specs:
        routed, (report, negation) = _routes(spec)
        assert (routed is None) == (not report.all_pass), spec
        if routed is None:
            assert verify_axioms(spec) == report
        else:
            assert routed == (report, negation)


def _nonassociative_algebra():
    """Z_2^3 with basis 1, a, b and the products aa = ab = 0 and bb = 1: g
    is bilinear, so every axiom but g-associativity holds, and (bb)a = a
    while b(ba) = 0."""
    basis = {(0, 0): 1, (0, 1): 2, (0, 2): 4, (1, 1): 0, (1, 2): 0, (2, 2): 1}

    def times(x, y):
        out = 0
        for i, j in product(range(3), repeat=2):
            if x >> i & y >> j & 1:
                out ^= basis[min(i, j), max(i, j)]
        return out

    keys = list(combinations_with_replacement(range(8), 2))
    return HyperRingSpec(
        name="z2^3-nonassociative", m=2, n=2, elements=tuple(map(str, range(8))), zero="0", one="1",
        f_table={key: frozenset({key[0] ^ key[1]}) for key in keys},
        g_table={key: times(*key) for key in keys},
    )


@pytest.mark.parametrize("make_spec, failures", [
    (_nonassociative_algebra, ["g-associativity"]),
    (lambda: replace(fixtures("z4").spec, zero="2"),
     ["neutral-element", "reversibility", "zero-absorption"]),
    (lambda: replace(fixtures("z6").spec, g_table=dict.fromkeys(fixtures("z6").spec.g_table, 0)),
     ["scalar-identity"]),
], ids=["g-associativity", "neutral-element", "scalar-identity"])
def test_route_gives_up_where_the_mutations_cannot_reach(make_spec, failures):
    """Single-entry mutations of a cyclic ring never fail just one of these
    steps: a bilinear g on a cyclic group with g(1, x) = x is the ring's
    own, and a mutated f is no group.  Here a group with a distributive g
    fails g-associativity alone, z4 with 2 as its zero fails the neutral
    element, and the zero product on z6 the scalar identity; the route gives
    up, and ``verify_axioms`` returns the passes' report."""
    spec = make_spec()
    routed, (report, _) = _routes(spec)
    assert routed is None and report.failures() == failures
    assert verify_axioms(spec) == report


def _generators(table: list[int], order: int, zero: int):
    """``kernel._generators`` on a dense table of elements."""
    rows = [table[x * order : (x + 1) * order] for x in range(order)]
    return kernel._generators([kernel._table(row, True) for row in rows], order, zero)


def _sums(spec) -> list[int]:
    """The single-valued sum of a (2,2) spec, as elements."""
    f = kernel._dense_tables(spec)[0]
    return [bits.bit_length() - 1 for bits in f]


def test_greedy_generators_stay_within_log2(corpus):
    """Each new generator at least doubles the subgroup reached, so S has
    at most log2(order) members, on every group of the corpora and under 20
    shuffled labelings of the larger ones."""
    specs = [_binary(ring.spec) for ring in corpus]
    z2 = fixtures("z2")
    for ring in (cyclic_ring(64), cyclic_ring(48), product_ring([cyclic_ring(4), cyclic_ring(8)]),
                 product_ring([z2] * 4), product_ring([z2] * 5)):
        rng = random.Random(ring.name)
        for _ in range(20):
            perm = list(range(ring.order))
            rng.shuffle(perm)
            specs.append(relabel_spec(ring.spec, perm))
    largest = {}
    for spec in filter(_single_valued, specs):
        generators = _generators(_sums(spec), spec.order, spec.index(spec.zero))
        assert generators is not None and len(generators) <= 1 + math.log2(spec.order), spec.name
        largest[spec.order] = max(largest.get(spec.order, 0), len(generators))
    # z2^5 is a vector space of dimension 5 over Z_2: no fewer will do
    assert largest[32] == 5


def test_greedy_generators_give_up_on_a_table_that_is_no_group():
    """The products of z2^5 form a semilattice and those of z64 a monoid
    with an absorbing 0: some generator fails to double the set reached."""
    for ring in (product_ring([fixtures("z2")] * 5), cyclic_ring(64)):
        assert _generators(ring.g_dense, ring.order, ring.zero) is None, ring.name


def _tprod_products() -> list:
    """The products that the catalog's TPROD check builds on the fixtures."""
    rings = []
    for name in FIXTURE_NAMES:
        ring = fixtures(name)
        if ring.order <= 4 and (ring.m, ring.n) in harness.TPROD_COMPANIONS:
            companion = fixtures(harness.TPROD_COMPANIONS[ring.m, ring.n])
            rings.append(product_ring([ring, companion], name=f"{ring.name}x{companion.name}"))
    return rings


def _quotients(rings) -> list:
    """Every quotient that ``quotient_ring`` builds by a proper hyperideal of
    one of ``rings``, in both modes."""
    built = []
    for ring in rings:
        for mode in (LENIENT, STRICT):
            for ideal in proper_hyperideals(ring, mode):
                try:
                    built.append(quotient_ring(ring, ideal, mode).quotient)
                except (CosetsNotPartition, InducedOpIllDefined):
                    continue
    return built


def _distinct(rings) -> list:
    """``rings`` without repeats of one object, in first-seen order."""
    return list({id(ring): ring for ring in rings}.values())


def test_verify_axioms_rechecks_every_built_ring(census_rings, large_rings, rings_past_2_2, krasner_rings):
    """The check of the constructions moved here: each ring that
    ``cyclic_ring``, ``product_ring`` and ``quotient_ring`` build verifies,
    with the dense tables, entries and negation the construction gave it.
    The quotients are those by every proper hyperideal, in both modes, of
    the fixtures, the census, ``large_rings``, ``rings_past_2_2``, the TPROD
    products and the Krasner rings."""
    z2, pe, z2_33 = fixtures("z2"), fixtures("paper-example"), fixtures("z2-as-33")
    rings = [
        *map(cyclic_ring, range(2, 65)),
        product_ring([z2] * 4), product_ring([z2] * 5), product_ring([cyclic_ring(4), cyclic_ring(8)]),
        product_ring([pe, pe]), product_ring([pe, z2_33]), product_ring([pe, pe, z2_33]),
        *_tprod_products(),
    ]
    assert len(rings) == 63 + 6 + 5
    quotients = _quotients(_distinct([
        *map(fixtures, FIXTURE_NAMES), *census_rings.values(), *large_rings.values(), *rings_past_2_2,
        *_tprod_products(), *krasner_rings,
    ]))
    assert len(quotients) == 1132
    for ring in [*rings, *quotients]:
        verified = verify_axioms(ring.spec)
        assert isinstance(verified, HyperRing), ring.name
        assert (verified.f_dense, verified.g_dense) == (ring.f_dense, ring.g_dense), ring.name
        assert verified.axiom_report == ring.axiom_report, ring.name
        assert verified.negation == ring.negation, ring.name


def test_modes_agree_where_minus_one_times_x_is_minus_x(census_rings, large_rings, rings_past_2_2,
                                                        krasner_rings):
    """Strict mode is lenient mode plus closure under negation, and a
    lenient hyperideal holds (-1)x for each member x: so the modes agree on
    every ring with (-1)x = -x for every x.  Over the corpora they differ
    exactly on the rings where that fails, paper-example, two census rings
    and two of paper-example's products among them, and on none of the
    Krasner rings, which are equality-distributive."""
    rings = _distinct([
        *map(fixtures, FIXTURE_NAMES), *census_rings.values(), *large_rings.values(), *rings_past_2_2,
        *krasner_rings,
    ])
    differ, negating = set(), set()
    for ring in rings:
        minus_one = ring.negation[ring.one]
        if all(ring.scalar_multiply(minus_one, x) == ring.negation[x] for x in range(ring.order)):
            negating.add(ring.name)
        if enumerate_hyperideals(ring, STRICT) != enumerate_hyperideals(ring, LENIENT):
            differ.add(ring.name)
    assert not differ & negating
    assert differ == {ring.name for ring in rings} - negating
    assert {"paper-example", "o3-1-012-2-0", "o3-1-012-2-2", "paper-example^2",
            "paper-examplexz2-as-33"} <= differ
