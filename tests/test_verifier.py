"""The axiom verifier against pinned reports and a naive oracle.

Every single-entry mutation of paper-example, z4 and z2-as-33 (262 specs)
is verified.  The joined reports are pinned by hash, so a changed witness or
detail fails here, and each family's verdict is checked against
``axiom_oracle.NaiveOracle``.
"""

import hashlib
from itertools import combinations_with_replacement

from axiom_oracle import NaiveOracle, fixture_mutations

from hyperideal import AxiomReport, fixtures, verify_axioms
from hyperideal.kernel import AXIOM_ORDER

# sha256 of the joined ``AxiomReport.lines`` of all 262 mutations, recorded
# on the verifier that keyed every lookup by a sorted tuple
MUTATION_REPORTS_SHA256 = "2185498af1a7b3d1596ac8264aa3548efbd52e7d8d630a9011366f0c09311cc8"


def _report(spec) -> AxiomReport:
    result = verify_axioms(spec)
    return result if isinstance(result, AxiomReport) else result.axiom_report


def test_mutation_reports_are_pinned():
    lines = []
    count = 0
    for spec in fixture_mutations():
        lines.extend(_report(spec).lines(spec.elements))
        count += 1
    assert count == 262
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == MUTATION_REPORTS_SHA256


def test_verifier_agrees_with_naive_oracle():
    disagreements = []
    for spec in fixture_mutations():
        report = _report(spec)
        oracle = NaiveOracle(spec)
        holds = oracle.family_holds()
        for family in AXIOM_ORDER:
            status = report.entries[family]
            if status.ok != holds[family]:
                disagreements.append((spec.name, family, status, holds[family]))
            elif not status.ok and not oracle.witness_violates(family, status.witness):
                disagreements.append((spec.name, family, status, "witness is no violation"))
    assert disagreements == []


def test_mutations_reach_every_checked_family():
    failing = set()
    for spec in fixture_mutations():
        failing.update(_report(spec).failures())
    assert failing == set(AXIOM_ORDER) - {"g-commutativity"}


def test_distributivity_is_containment():
    """paper-example distributes only in the containment form
    ``summed ⊆ image``; the equality form fails at 6 (q, p) pairs."""
    ring = fixtures("paper-example")
    assert ring.axiom_report.entries["distributivity"].ok
    oracle = NaiveOracle(ring.spec)
    unequal = []
    for q in combinations_with_replacement(range(ring.order), ring.m):
        for p in combinations_with_replacement(range(ring.order), ring.n - 1):
            image = oracle.g_of_sets([oracle.f(q)] + [{x} for x in p])
            summed = oracle.f([oracle.g((qi, *p)) for qi in q])
            assert summed <= image
            if summed != image:
                unequal.append((q, p))
    assert len(unequal) == 6
    assert ((1, 2, 2), (2, 2)) in unequal
