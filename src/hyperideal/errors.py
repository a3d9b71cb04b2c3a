"""Exception hierarchy for the hyperideal engine."""


class HyperIdealError(Exception):
    """Base class for all errors raised by this package."""


class SpecFormatError(HyperIdealError):
    """A ring document is structurally invalid."""


class MissingEntry(SpecFormatError):
    def __init__(self, table: str, key: tuple[str, ...]):
        self.table = table
        self.key = key
        super().__init__(f"table {table!r} has no entry for multiset {','.join(key)}")


class UnknownElement(SpecFormatError):
    def __init__(self, name: str, where: str = ""):
        self.name = name
        suffix = f" in {where}" if where else ""
        super().__init__(f"unknown element name {name!r}{suffix}")


class EmptyHyperValue(SpecFormatError):
    def __init__(self, key: tuple[str, ...]):
        self.key = key
        super().__init__(f"hyperoperation value for multiset {','.join(key)} is empty")


class ArityOutOfRange(SpecFormatError):
    def __init__(self, which: str, value: object):
        self.which = which
        self.value = value
        super().__init__(f"arity {which}={value!r} is out of range (must be >= 2)")


class ArityMismatch(HyperIdealError):
    """A wrong number of arguments, or two rings whose (m, n) pairs differ."""

    def __init__(self, expected: int | tuple[int, int], got: int | tuple[int, int]):
        self.expected = expected
        self.got = got
        if isinstance(expected, tuple):
            super().__init__(f"rings of arities (m, n) = {expected} and {got} do not match")
        else:
            super().__init__(f"expected {expected} arguments, got {got}")


class AxiomsFailed(HyperIdealError):
    """A spec failed axiom verification; carries the failing report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"axiom verification failed: {', '.join(report.failures())}")


class RingMismatch(HyperIdealError):
    """Two subset masks belong to different rings."""


class EmptySubset(HyperIdealError):
    """An operation requires a non-empty subset."""


class WalkBudgetExceeded(HyperIdealError):
    """A walk over closed sets or subsets needs more table lookups than its budget."""


class TablesTooLarge(HyperIdealError):
    """A spec's dense tables or associativity splits are too large to verify."""


class NotAHyperideal(HyperIdealError):
    """The given subset is not a hyperideal in the requested mode."""


class ImproperIdeal(HyperIdealError):
    """The whole ring was given where a proper hyperideal is required."""


class NotMultiplicative(HyperIdealError):
    """The given subset is not closed under the n-ary multiplication."""


class HypothesisViolation(HyperIdealError):
    """A stated precondition of a derived construction does not hold."""


class InternalContradiction(HyperIdealError):
    """A set the theory guarantees to be well formed failed its own check."""


class CosetsNotPartition(HyperIdealError):
    def __init__(self, first: tuple[str, ...], second: tuple[str, ...]):
        self.first = first
        self.second = second
        super().__init__(
            "cosets do not partition the ring: "
            f"{{{','.join(first)}}} and {{{','.join(second)}}} overlap without being equal"
        )


class InducedOpIllDefined(HyperIdealError):
    """A quotient operation depends on the choice of coset representatives."""


class NotARing(HyperIdealError):
    """Classical ring tables failed to produce a valid (2,2)-hyperring."""


class UnknownTheorem(HyperIdealError):
    def __init__(self, ident: str):
        self.ident = ident
        super().__init__(f"unknown theorem id {ident!r}")


class UnknownFixture(HyperIdealError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown fixture {name!r}")
