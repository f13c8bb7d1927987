"""Finitely supported multi-indices over a weighted generator alphabet.

A generator set is an ordered list of (id, degree) with degree >= 1, listed
in nondecreasing degree; the list order is the chosen order within each
degree class and is part of the instance data.  Multi-indices are functions
from generator ids to positive multiplicities with finite support, added
pointwise and graded by the weighted degree.  ``enumerate_up_to`` lists them
in the well-order: degree first, then the multiplicity at the largest
generator where two indices differ.  With the per-degree classes finite
this is a well-order, which is what makes leading indices of convolution
elements well defined.  The basis, convolution and action code key an
index by its position in that list; multi-indices themselves are the report
form, and the form in which sums and splittings are taken.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ForeignGenerator


@dataclass(frozen=True)
class MultiIndex:
    """Immutable finitely supported multi-index; entries sorted by id."""

    entries: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def make(mapping: Mapping[str, int] | Iterable[tuple[str, int]]) -> "MultiIndex":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        cleaned = []
        for gid, mult in items:
            mult = int(mult)
            if mult < 0:
                raise ValueError(f"negative multiplicity for {gid!r}")
            if mult:
                cleaned.append((str(gid), mult))
        cleaned.sort()
        return MultiIndex(tuple(cleaned))

    def mult(self, gid: str) -> int:
        for key, value in self.entries:
            if key == gid:
                return value
        return 0

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(key for key, _ in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        if not self.entries:
            return "1"
        parts = [gid if k == 1 else f"{gid}^{k}" for gid, k in self.entries]
        return "*".join(parts)


ZERO_INDEX = MultiIndex()


class GeneratorSet:
    """Ordered weighted alphabet; all multi-index operations live here."""

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
        self._gens = gens
        self._deg = {gid: d for gid, d in gens}

    @property
    def generators(self) -> tuple[tuple[str, int], ...]:
        return self._gens

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(gid for gid, _ in self._gens)

    def __len__(self) -> int:
        return len(self._gens)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorSet) and self._gens == other._gens

    def __hash__(self):
        return hash(self._gens)

    def __repr__(self):
        body = ", ".join(f"{gid}:{d}" for gid, d in self._gens)
        return f"GeneratorSet({body})"

    def delta(self, gid: str) -> MultiIndex:
        if gid not in self._deg:
            raise ForeignGenerator(f"unknown generator id {gid!r}")
        return MultiIndex(((gid, 1),))

    def index(self, mapping: Mapping[str, int]) -> MultiIndex:
        m = MultiIndex.make(mapping)
        self._check(m)
        return m

    def _check(self, m: MultiIndex) -> None:
        for gid, _ in m.entries:
            if gid not in self._deg:
                raise ForeignGenerator(f"unknown generator id {gid!r}")

    def add(self, m: MultiIndex, n: MultiIndex) -> MultiIndex:
        self._check(m)
        self._check(n)
        out = dict(m.entries)
        for gid, k in n.entries:
            out[gid] = out.get(gid, 0) + k
        return MultiIndex.make(out)

    def degree(self, m: MultiIndex) -> int:
        self._check(m)
        return sum(k * self._deg[gid] for gid, k in m.entries)

    def splittings(self, m: MultiIndex) -> list[tuple[MultiIndex, MultiIndex]]:
        """All pairs (i, j) with i + j = m, pointwise."""
        self._check(m)
        pieces: list[tuple[MultiIndex, MultiIndex]] = [(ZERO_INDEX, ZERO_INDEX)]
        for gid, k in m.entries:
            grown = []
            for left, right in pieces:
                for take in range(k + 1):
                    lnew = dict(left.entries)
                    rnew = dict(right.entries)
                    if take:
                        lnew[gid] = take
                    if k - take:
                        rnew[gid] = k - take
                    grown.append((MultiIndex.make(lnew), MultiIndex.make(rnew)))
            pieces = grown
        return pieces

    def enumerate_up_to(self, d: int) -> list[MultiIndex]:
        """All multi-indices of degree <= d in the well-order: by degree,
        then by the multiplicities read from the last generator down.
        Starts at the zero index."""
        results: list[tuple[int, ...]] = []
        gens = self._gens

        def rec(pos: int, acc: list[int], remaining: int) -> None:
            if pos == len(gens):
                results.append(tuple(acc))
                return
            deg = gens[pos][1]
            k = 0
            while k * deg <= remaining:
                acc.append(k)
                rec(pos + 1, acc, remaining - k * deg)
                acc.pop()
                k += 1

        rec(0, [], max(d, 0))
        degs = [deg for _, deg in gens]
        results.sort(
            key=lambda ks: (sum(k * g for k, g in zip(ks, degs)), ks[::-1])
        )
        ids = self.ids
        return [MultiIndex.make(zip(ids, ks)) for ks in results]

    def count_exact(self, d: int) -> int:
        """Number of multi-indices of degree exactly d (coin-counting DP)."""
        if d < 0:
            return 0
        ways = [0] * (d + 1)
        ways[0] = 1
        for _, deg in self._gens:
            for t in range(deg, d + 1):
                ways[t] += ways[t - deg]
        return ways[d]

    def to_json(self) -> list[dict]:
        return [{"id": gid, "degree": deg} for gid, deg in self._gens]

    @classmethod
    def from_json(cls, obj: Sequence[Mapping]) -> "GeneratorSet":
        return cls((entry["id"], entry["degree"]) for entry in obj)

    def __str__(self):
        return json.dumps(self.to_json())
