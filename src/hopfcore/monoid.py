"""Exponent vectors over a weighted generator alphabet.

A generator set is an ordered list of (id, degree) with degree >= 1, listed
in nondecreasing degree; the list order is the chosen order within each
degree class and is part of the instance data.  An index of the
divided-power basis is an exponent vector: a tuple of one multiplicity per
generator, in ``generators`` order.  Indices add entrywise and are graded by
the weighted degree.  ``enumerate_up_to`` lists them in the well-order:
degree first, then the multiplicity at the largest generator where two
indices differ.  With the per-degree classes finite this is a well-order,
which is what makes leading indices of convolution elements well defined.
The basis, convolution and action code key an index by its position in that
list; ``GeneratorSet.label`` renders the report text.  The same exponent
vectors, in another order, are the monomial bases that ``table`` and the
builders enumerate.
"""

from __future__ import annotations

import itertools
from operator import sub
from typing import Iterable, Sequence


def exponent_vectors(weights: Sequence[int], bound: int) -> list[tuple[int, ...]]:
    """Every exponent vector of weighted degree <= bound, one entry per
    weight, in lexicographic order."""
    grown: list[tuple[tuple[int, ...], int]] = [((), bound)]
    for w in weights:
        grown = [
            (e + (k,), left - k * w) for e, left in grown for k in range(left // w + 1)
        ]
    return [e for e, _ in grown]


def weighted_degree(e: Sequence[int], weights: Sequence[int]) -> int:
    return sum(w * k for w, k in zip(weights, e))


def splittings(e: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every pair (left, right) of exponent vectors with left + right = e,
    left in lexicographic order."""
    return [
        (left, tuple(map(sub, e, left)))
        for left in itertools.product(*(range(k + 1) for k in e))
    ]


def monomial_label(
    names: Sequence[str], exps: Sequence[int], divided: bool = False
) -> str:
    parts = []
    for name, k in zip(names, exps):
        if k == 1:
            parts.append(name)
        elif k:
            parts.append(f"{name}^({k})" if divided else f"{name}^{k}")
    return "*".join(parts) if parts else "1"


class GeneratorSet:
    """Ordered weighted alphabet: the ids and weights of the exponent
    vectors, their well-order and their text."""

    def __init__(self, generators: Iterable[tuple[str, int]]):
        gens = tuple((str(gid), int(deg)) for gid, deg in generators)
        seen = set()
        prev_deg = 1
        for gid, deg in gens:
            if deg < 1:
                raise ValueError(f"generator {gid!r} has degree {deg} < 1")
            if gid in seen:
                raise ValueError(f"duplicate generator id {gid!r}")
            if deg < prev_deg:
                raise ValueError("generators must be listed in nondecreasing degree")
            seen.add(gid)
            prev_deg = deg
        self.generators = gens
        self.ids = tuple(gid for gid, _ in gens)
        self.weights = tuple(deg for _, deg in gens)

    def __len__(self) -> int:
        return len(self.generators)

    def __repr__(self):
        body = ", ".join(f"{gid}:{d}" for gid, d in self.generators)
        return f"GeneratorSet({body})"

    def label(self, e: Sequence[int]) -> str:
        """The text of index e: its factors ``id`` or ``id^k`` sorted by
        id and joined by ``*``, or ``1`` for the zero index."""
        pairs = sorted(zip(self.ids, e))
        return monomial_label([gid for gid, _ in pairs], [k for _, k in pairs])

    def enumerate_up_to(self, d: int) -> list[tuple[int, ...]]:
        """All indices of degree <= d in the well-order: by degree, then by
        the multiplicities read from the last generator down.  Starts at
        the zero index."""
        weights = self.weights
        indices = exponent_vectors(weights, max(d, 0))
        indices.sort(key=lambda e: (weighted_degree(e, weights), e[::-1]))
        return indices

    def count_exact(self, d: int) -> int:
        """Number of indices of degree exactly d (coin-counting DP)."""
        if d < 0:
            return 0
        ways = [0] * (d + 1)
        ways[0] = 1
        for deg in self.weights:
            for t in range(deg, d + 1):
                ways[t] += ways[t - deg]
        return ways[d]

    def to_json(self) -> list[dict]:
        return [{"id": gid, "degree": deg} for gid, deg in self.generators]
