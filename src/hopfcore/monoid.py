"""Finitely supported multi-indices over a weighted generator alphabet.

A generator set is an ordered list of (id, degree) with degree >= 1, listed
in nondecreasing degree; the list order is the chosen order within each
degree class and is part of the instance data.  Multi-indices are functions
from generator ids to positive multiplicities with finite support, added
pointwise, graded by the weighted degree, and totally ordered by degree
first and then by multiplicity at the largest differing generator.  With
the per-degree classes finite this order is a well-order, which is what
makes leading indices of convolution elements well defined.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import EmptySet, ForeignGenerator

LESS, EQUAL, GREATER = -1, 0, 1


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
        self._pos = {gid: i for i, (gid, _) in enumerate(gens)}
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

    def position(self, gid: str) -> int:
        try:
            return self._pos[gid]
        except KeyError:
            raise ForeignGenerator(f"unknown generator id {gid!r}") from None

    def delta(self, gid: str) -> MultiIndex:
        self.position(gid)
        return MultiIndex(((gid, 1),))

    def index(self, mapping: Mapping[str, int]) -> MultiIndex:
        m = MultiIndex.make(mapping)
        self._check(m)
        return m

    def _check(self, m: MultiIndex) -> None:
        for gid, _ in m.entries:
            if gid not in self._pos:
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

    def compare(self, m: MultiIndex, n: MultiIndex) -> int:
        """Total order: degree first, then multiplicity at the largest
        generator where the two indices differ."""
        self._check(m)
        self._check(n)
        dm, dn = self.degree(m), self.degree(n)
        if dm != dn:
            return LESS if dm < dn else GREATER
        mm, nn = dict(m.entries), dict(n.entries)
        mu = -1
        for gid in set(mm) | set(nn):
            if mm.get(gid, 0) != nn.get(gid, 0):
                mu = max(mu, self._pos[gid])
        if mu < 0:
            return EQUAL
        gid = self._gens[mu][0]
        return LESS if mm.get(gid, 0) < nn.get(gid, 0) else GREATER

    def lt(self, m: MultiIndex, n: MultiIndex) -> bool:
        return self.compare(m, n) == LESS

    def le(self, m: MultiIndex, n: MultiIndex) -> bool:
        return self.compare(m, n) != GREATER

    def min_of(self, items: Iterable[MultiIndex]) -> MultiIndex:
        best = None
        for m in items:
            if best is None or self.compare(m, best) == LESS:
                best = m
        if best is None:
            raise EmptySet("minimum of an empty collection")
        return best

    def sort(self, items: Iterable[MultiIndex]) -> list[MultiIndex]:
        return sorted(items, key=functools.cmp_to_key(self.compare))

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
        """All multi-indices of degree <= d, sorted ascending; starts at the
        zero index."""
        results: list[MultiIndex] = []
        gens = self._gens

        def rec(pos: int, acc: dict[str, int], remaining: int) -> None:
            if pos == len(gens):
                results.append(MultiIndex.make(acc))
                return
            gid, deg = gens[pos]
            k = 0
            while k * deg <= remaining:
                if k:
                    acc[gid] = k
                rec(pos + 1, acc, remaining - k * deg)
                k += 1
            acc.pop(gid, None)

        rec(0, {}, max(d, 0))
        return self.sort(results)

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

    def count_up_to(self, d: int) -> int:
        return sum(self.count_exact(t) for t in range(d + 1))

    def to_json(self) -> list[dict]:
        return [{"id": gid, "degree": deg} for gid, deg in self._gens]

    @classmethod
    def from_json(cls, obj: Sequence[Mapping]) -> "GeneratorSet":
        return cls((entry["id"], entry["degree"]) for entry in obj)

    def __str__(self):
        return json.dumps(self.to_json())
