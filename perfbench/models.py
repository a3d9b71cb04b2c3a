"""Finite (m,n)-hyperrings as plain Python functions on element names.

These models are the benchmark's own statement of every input ring.  They
generate the ring documents the engine reads, and the oracle checks the
engine's outputs against them.  Nothing here imports ``hyperideal``.
"""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement, product
from math import prod


class Model:
    """A commutative (m,n)-hyperring: ``add`` maps an m-tuple of names to a
    frozenset of names, ``mul`` maps an n-tuple of names to one name."""

    def __init__(self, name, m, n, elements, zero, one, add, mul):
        self.name = name
        self.m = m
        self.n = n
        self.elements = tuple(elements)
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul

    @property
    def order(self) -> int:
        return len(self.elements)


def cyclic(k: int, name: str | None = None, names: list[str] | None = None) -> Model:
    """Z_k as a (2,2)-hyperring; element i is called names[i] (default str(i))."""
    names = list(names or (str(i) for i in range(k)))
    index = {x: i for i, x in enumerate(names)}
    return Model(
        name or f"z{k}", 2, 2, names, names[0], names[1],
        lambda xs: frozenset([names[sum(index[x] for x in xs) % k]]),
        lambda xs: names[prod(index[x] for x in xs) % k],
    )


def coset_names(k: int, d: int) -> list[str]:
    """Names of the cosets of dZ_k in Z_k, members ascending and '+'-joined."""
    return ["+".join(str(r + j * d) for j in range(k // d)) for r in range(d)]


# The order-3 (3,3)-hyperring of the paper, keyed by sorted element multisets.
_PAPER_ADD = {
    "000": "0", "001": "1", "002": "2", "011": "1", "012": "012",
    "022": "2", "111": "1", "112": "012", "122": "012", "222": "2",
}
_PAPER_MUL = {
    "000": "0", "001": "0", "002": "0", "011": "0", "012": "0",
    "022": "0", "111": "1", "112": "2", "122": "2", "222": "2",
}


def paper_example() -> Model:
    return Model(
        "paper-example", 3, 3, ["0", "1", "2"], "0", "1",
        lambda xs: frozenset(_PAPER_ADD["".join(sorted(xs))]),
        lambda xs: _PAPER_MUL["".join(sorted(xs))],
    )


def z2_as_33() -> Model:
    """The two-element ring presented with m = n = 3."""
    return Model(
        "z2-as-33", 3, 3, ["0", "1"], "0", "1",
        lambda xs: frozenset([str(sum(map(int, xs)) % 2)]),
        lambda xs: str(prod(map(int, xs)) % 2),
    )


def product_model(factors: list[Model], name: str) -> Model:
    """Componentwise product; element names join the factor names with '|'."""
    def split(xs):
        return [x.split("|") for x in xs]

    def add(xs):
        parts = split(xs)
        pools = [f.add(tuple(p[j] for p in parts)) for j, f in enumerate(factors)]
        return frozenset("|".join(c) for c in product(*pools))

    def mul(xs):
        parts = split(xs)
        return "|".join(f.mul(tuple(p[j] for p in parts)) for j, f in enumerate(factors))

    elements = ["|".join(t) for t in product(*(f.elements for f in factors))]
    return Model(
        name, factors[0].m, factors[0].n, elements,
        "|".join(f.zero for f in factors), "|".join(f.one for f in factors), add, mul,
    )


def fixture_models() -> dict[str, Model]:
    """The eight default suite fixtures, in the engine's suite order."""
    return {
        "paper-example": paper_example(),
        "z2": cyclic(2),
        "z4": cyclic(4),
        "z6": cyclic(6),
        "z8": cyclic(8),
        "z12": cyclic(12),
        "z2xz3": product_model([cyclic(2), cyclic(3)], "z2xz3"),
        "z6-mod-3": cyclic(3, "z6-mod-3", coset_names(6, 3)),
    }


def shuffled(model: Model, rng: random.Random) -> list[str]:
    order = list(model.elements)
    rng.shuffle(order)
    return order


def document(model: Model, order: list[str] | None = None, mul_override=None) -> str:
    """The ring document with the elements listed in ``order``.

    ``mul_override`` maps a sorted name tuple to a replacement product, which
    is how the benchmark builds a document that must be rejected.
    """
    order = list(order or model.elements)
    index = {x: i for i, x in enumerate(order)}
    f_obj = {}
    for key in combinations_with_replacement(order, model.m):
        f_obj[",".join(key)] = sorted(model.add(key), key=index.__getitem__)
    g_obj = {}
    for key in combinations_with_replacement(order, model.n):
        value = model.mul(key)
        if mul_override is not None:
            value = mul_override.get(tuple(sorted(key)), value)
        g_obj[",".join(key)] = value
    doc = {
        "name": model.name, "m": model.m, "n": model.n, "elements": order,
        "zero": model.zero, "one": model.one, "f": f_obj, "g": g_obj,
    }
    return json.dumps(doc, indent=2) + "\n"
