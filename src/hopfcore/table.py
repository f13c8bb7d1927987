"""Finite bases with structure constants.

One class, ``TableAlgebra``, carries every "basis plus multiplication table"
object of the pipeline: the truncated bialgebra (whose coalgebra structure
``coalgebra.FilteredBialgebraData`` adds on top), the coefficient rings of
convolution algebras, the algebras acted upon, and their quotients.  A
table maps a basis pair (i, j) to the sparse product ((k, c), ...); a pair
absent from the table is a product past the truncation bound, and using it
raises ``TruncationError``.  Total tables (rings, finite algebras) list
every pair, empty products included.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputFormatError, TruncationError
from .linalg import Q0, Q1, Vector, is_zero_vec, rat, rat_str, unit_vec, zero_vec

SparseVec = tuple[tuple[int, Fraction], ...]
Table = Mapping[tuple[int, int], Iterable[tuple[int, Fraction]]]


def sparse(entries: Iterable[tuple[int, Fraction]]) -> SparseVec:
    """Merge repeated keys, drop zeros, sort by key."""
    merged: dict[int, Fraction] = {}
    for k, c in entries:
        merged[k] = merged.get(k, Q0) + c
    return tuple((k, c) for k, c in sorted(merged.items()) if c)


def parse_table(nested: Mapping, pos: Mapping[str, int]) -> dict:
    """A JSON product table {a: {b: {k: "c"}}} as (i, j) -> [(k, c)].
    Unknown labels raise KeyError and a level that is not an object
    raises TypeError, for the caller to report as an input error."""
    try:
        return {
            (pos[a], pos[b]): [(pos[k], rat(c)) for k, c in combo.items()]
            for a, row in nested.items()
            for b, combo in row.items()
        }
    except AttributeError as exc:
        raise TypeError(f"product table levels must be objects ({exc})") from None


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


def graded_monomials(
    names: Sequence[str],
    bound: int,
    weights: Optional[Sequence[int]] = None,
    divided: bool = False,
) -> tuple[list[tuple[int, ...]], list[str]]:
    """Exponent vectors of weighted degree <= bound, ordered by degree and
    then by descending exponents, with their monomial labels."""
    weights = weights or (1,) * len(names)

    def degree(e):
        return sum(w * x for w, x in zip(weights, e))

    monos = [
        e
        for e in itertools.product(*(range(bound // w + 1) for w in weights))
        if degree(e) <= bound
    ]
    monos.sort(key=lambda e: (degree(e), tuple(-x for x in e)))
    return monos, [monomial_label(names, e, divided) for e in monos]


def exponent_table(
    monos: Sequence[tuple[int, ...]], degrees: Sequence[int], bound: int
) -> dict[tuple[int, int], SparseVec]:
    """The monomial product x^a * x^b = x^(a+b) for every pair within the
    bound; pairs past it are left out."""
    index = {e: t for t, e in enumerate(monos)}
    return {
        (ti, tj): ((index[tuple(x + y for x, y in zip(ei, ej))], Q1),)
        for ti, ei in enumerate(monos)
        for tj, ej in enumerate(monos)
        if degrees[ti] + degrees[tj] <= bound
    }


class TableAlgebra:
    """Basis labels, the product table, the unit vector and optional
    degrees; ``name`` and ``flags`` (declared ring properties) serve
    coefficient rings."""

    def __init__(
        self,
        labels: Sequence[str],
        table: Table,
        one: Vector,
        degrees: Optional[Sequence[int]] = None,
        degree_bound: Optional[int] = None,
        name: str = "",
        flags=None,
    ):
        labels = tuple(str(s) for s in labels)
        if len(set(labels)) != len(labels):
            raise InputFormatError("basis labels are not unique")
        self.basis_labels = labels
        self.dim = len(labels)
        self._mult = {key: sparse(val) for key, val in table.items()}
        self._one = tuple(rat(c) for c in one)
        self.degrees = tuple(int(d) for d in degrees) if degrees is not None else None
        self.degree_bound = degree_bound
        self.name = name
        self.flags = flags
        self._label_pos = {s: i for i, s in enumerate(labels)}

    @classmethod
    def finite(
        cls, labels: Sequence[str], table: Table, one: Vector, name="", flags=None
    ) -> "TableAlgebra":
        """A finite-dimensional algebra: every pair the table leaves out
        multiplies to zero."""
        n = len(labels)
        total = {(i, j): table.get((i, j), ()) for i in range(n) for j in range(n)}
        return cls(labels, total, one, [0] * n, name=name, flags=flags)

    # -- basic accessors ---------------------------------------------------

    def label(self, i: int) -> str:
        return self.basis_labels[i]

    def position(self, label: str) -> int:
        try:
            return self._label_pos[label]
        except KeyError:
            raise InputFormatError(f"unknown basis label {label!r}") from None

    def unit_vector(self) -> Vector:
        return self._one

    def basis_vec(self, i: int) -> Vector:
        return unit_vec(self.dim, i)

    def zero(self) -> Vector:
        return zero_vec(self.dim)

    def is_zero(self, v: Vector) -> bool:
        return is_zero_vec(v)

    def same_as(self, other: "TableAlgebra") -> bool:
        return self is other or (
            self.name == other.name and self.basis_labels == other.basis_labels
        )

    # -- the product -------------------------------------------------------

    def has_product(self, i: int, j: int) -> bool:
        return (i, j) in self._mult

    def product_terms(self, i: int, j: int) -> SparseVec:
        try:
            return self._mult[(i, j)]
        except KeyError:
            raise TruncationError(
                f"product {self.label(i)} * {self.label(j)} exceeds the "
                f"truncation bound {self.degree_bound}"
            ) from None

    def mul(self, u: Vector, v: Vector) -> Vector:
        out = [Q0] * self.dim
        table = self._mult
        right = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in right:
                terms = table.get((i, j))
                if terms is None:
                    terms = self.product_terms(i, j)  # raises TruncationError
                ab = a * b
                for k, c in terms:
                    out[k] += ab * c
        return tuple(out)

    def format(self, v: Vector) -> str:
        parts = [
            (label if c == 1 else f"{rat_str(c)}*{label}")
            for label, c in zip(self.basis_labels, v)
            if c
        ]
        return " + ".join(parts) if parts else "0"


class PolynomialAlgebra(TableAlgebra):
    """The commutative polynomial algebra on ``variables`` truncated at a
    total degree bound, on the monomial basis ordered by degree."""

    def __init__(self, variables: Sequence[str], bound: int):
        names = tuple(str(v) for v in variables)
        if len(set(names)) != len(names):
            raise InputFormatError("duplicate variable names")
        monos, labels = graded_monomials(names, bound)
        degrees = [sum(e) for e in monos]
        self.variables = names
        self.monomials = tuple(monos)
        self.index = {e: t for t, e in enumerate(monos)}
        one = unit_vec(len(monos), self.index[(0,) * len(names)])
        super().__init__(
            labels, exponent_table(monos, degrees, bound), one, degrees, bound
        )

    def monomial_index(self, exps: Sequence[int]) -> int:
        try:
            return self.index[tuple(int(x) for x in exps)]
        except KeyError:
            raise InputFormatError(f"monomial {tuple(exps)} outside the algebra")
