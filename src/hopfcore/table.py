"""Finite bases with structure constants.

One class, ``TableAlgebra``, carries every "basis plus multiplication table"
object of the pipeline: the truncated bialgebra (whose coalgebra structure
``coalgebra.FilteredBialgebraData`` adds on top), the coefficient rings of
convolution algebras, the algebras acted upon, and their quotients.  A
table maps a basis pair (i, j) to the sparse product ((k, c), ...); a pair
absent from the table is a product past the truncation bound, and using it
raises ``TruncationError``.  Total tables (rings, finite algebras) list
every pair, empty products included.  An element, the unit among them, is a
sparse vector {index: coefficient} without zeros, ``mul`` is the one
product and ``format`` writes an element's terms in ascending index.
Monomial bases (the polynomial algebras, and the builders in
``coalgebra``) are the exponent vectors that ``monoid.exponent_vectors``
enumerates, sorted by degree and then by descending exponents.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputFormatError, TruncationError
from .linalg import Q0, Q1, Scalar, SparseRow, exact, rat, rat_str
from .monoid import exponent_vectors, monomial_label, weighted_degree

SparseVec = tuple[tuple[int, Scalar], ...]
Table = Mapping[tuple[int, int], Iterable[tuple[int, Scalar]]]


def sparse(entries: Iterable[tuple[int, Scalar]]) -> SparseVec:
    """Merge repeated keys, drop zeros, sort by key; integral values
    become ``int``."""
    merged: dict[int, Scalar] = {}
    for k, c in entries:
        merged[k] = merged.get(k, Q0) + c
    return tuple((k, exact(c)) for k, c in sorted(merged.items()) if c)


def string_list(value, field: str) -> list[str]:
    """A JSON list of strings (basis labels, variable or generator names).
    Anything else, a bare string included, raises InputFormatError naming
    the field."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InputFormatError(f"{field} must be a list of strings")
    return value


def rational_list(value, field: str) -> list[Scalar]:
    """A JSON list of rationals, such as a matrix row.  Anything else, a
    string among them, raises InputFormatError naming the field."""
    if not isinstance(value, list):
        raise InputFormatError(f"{field} must be a list of rationals, got {value!r}")
    return [rat(x) for x in value]


def json_object(value, what: str) -> Mapping:
    """value, which the input format requires to be a JSON object."""
    if not isinstance(value, Mapping):
        raise InputFormatError(f"{what} must be an object, got {type(value).__name__}")
    return value


def json_int(value, what: str, minimum: int) -> int:
    """value, which the input format requires to be a JSON integer >=
    minimum: a bool, a float or a string raises InputFormatError naming what
    is read, as does a value below the minimum."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InputFormatError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def parse_table(nested: Mapping, pos: Mapping[str, int]) -> dict:
    """A JSON product table {a: {b: {k: "c"}}} as (i, j) -> ((k, c), ...)
    in the normal form of ``sparse``.  Unknown labels raise KeyError and a
    level that is not an object raises TypeError, for the caller to report
    as an input error."""
    try:
        return {
            (pos[a], pos[b]): sparse((pos[k], rat(c)) for k, c in combo.items())
            for a, row in nested.items()
            for b, combo in row.items()
        }
    except AttributeError as exc:
        raise TypeError(f"product table levels must be objects ({exc})") from None


def graded_monomials(
    names: Sequence[str],
    bound: int,
    weights: Optional[Sequence[int]] = None,
    divided: bool = False,
) -> tuple[list[tuple[int, ...]], list[str]]:
    """Exponent vectors of weighted degree <= bound, ordered by degree and
    then by descending exponents, with their monomial labels."""
    weights = weights or (1,) * len(names)
    monos = exponent_vectors(weights, bound)
    monos.sort(key=lambda e: (weighted_degree(e, weights), tuple(-x for x in e)))
    return monos, [monomial_label(names, e, divided) for e in monos]


def exponent_table(
    monos: Sequence[tuple[int, ...]], degrees: Sequence[int], bound: int
) -> dict[tuple[int, int], SparseVec]:
    """The monomial product x^a * x^b = x^(a+b) for every pair within the
    bound; pairs past it are left out."""
    index = {e: t for t, e in enumerate(monos)}
    return {
        (ti, tj): ((index[tuple(map(add, ei, ej))], Q1),)
        for ti, ei in enumerate(monos)
        for tj, ej in enumerate(monos)
        if degrees[ti] + degrees[tj] <= bound
    }


class TableAlgebra:
    """Basis labels ``basis_labels``, the product table ``mult``, the unit
    vector ``one`` and optional degrees; ``name`` and ``flags`` (declared
    ring properties) serve coefficient rings.  The table is kept as given,
    in the normal form of ``sparse``, which ``finite`` and ``parse_table``
    apply to input; a product row that is not a tuple is refused."""

    def __init__(
        self,
        labels: Sequence[str],
        table: Mapping[tuple[int, int], SparseVec],
        one: SparseRow,
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
        for (i, j), terms in table.items():
            if type(terms) is not tuple:
                raise InputFormatError(
                    f"product row of {labels[i]} * {labels[j]} must be a tuple, "
                    f"got {type(terms).__name__}"
                )
        self.mult = table
        self.one = {i: exact(c) for i, c in sorted(one.items()) if c}
        self.degrees = tuple(int(d) for d in degrees) if degrees is not None else None
        self.degree_bound = degree_bound
        self.name = name
        self.flags = flags

    @classmethod
    def finite(
        cls, labels: Sequence[str], table: Table, one: SparseRow, name="", flags=None
    ) -> "TableAlgebra":
        """A finite-dimensional algebra: every pair the table leaves out
        multiplies to zero."""
        n = len(labels)
        total = {
            (i, j): sparse(table.get((i, j), ())) for i in range(n) for j in range(n)
        }
        return cls(labels, total, one, [0] * n, name=name, flags=flags)

    def same_as(self, other: "TableAlgebra") -> bool:
        return self is other or (
            self.name == other.name and self.basis_labels == other.basis_labels
        )

    def mul(self, u: Mapping[int, Scalar], v: Mapping[int, Scalar]) -> SparseRow:
        """The product of two sparse vectors {index: coefficient}, without
        zeros and with integral values as ``int``.  Raises TruncationError
        when a pair of support elements has no product within the
        truncation."""
        out: SparseRow = {}
        table = self.mult
        for i, a in u.items():
            for j, b in v.items():
                terms = table.get((i, j))
                if terms is None:
                    labels = self.basis_labels
                    raise TruncationError(
                        f"product {labels[i]} * {labels[j]} exceeds the "
                        f"truncation bound {self.degree_bound}"
                    )
                ab = a * b
                for k, c in terms:
                    out[k] = out.get(k, Q0) + ab * c
        return {k: exact(c) for k, c in out.items() if c}

    def first_nonassociative(self) -> Optional[tuple[int, int, int]]:
        """The first basis triple (i, j, k), with (i, j) in the table and in
        lexicographic order, such that (e_i e_j) e_k != e_i (e_j e_k); a
        triple with a product past the truncation is skipped.  None if there
        is none."""
        for i, j in sorted(self.mult):
            ij = dict(self.mult[(i, j)])
            for k in range(self.dim):
                try:
                    left = self.mul(ij, {k: Q1})
                    right = self.mul({i: Q1}, self.mul({j: Q1}, {k: Q1}))
                except TruncationError:
                    continue
                if left != right:
                    return (i, j, k)
        return None

    def require_associative(self) -> None:
        """Raise InputFormatError on the triple ``first_nonassociative`` finds."""
        triple = self.first_nonassociative()
        if triple is not None:
            a, b, c = (self.basis_labels[t] for t in triple)
            raise InputFormatError(
                f"multiplication is not associative: ({a}*{b})*{c} != {a}*({b}*{c})"
            )

    def format(self, v: Mapping[int, Scalar]) -> str:
        """The text of a sparse vector, its terms in ascending index."""
        labels = self.basis_labels
        parts = [
            (labels[i] if c == 1 else f"{rat_str(c)}*{labels[i]}")
            for i, c in sorted(v.items())
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
        one = {self.index[(0,) * len(names)]: Q1}
        super().__init__(
            labels, exponent_table(monos, degrees, bound), one, degrees, bound
        )

    def monomial_index(self, exps: Sequence[int]) -> int:
        try:
            return self.index[tuple(int(x) for x in exps)]
        except KeyError:
            raise InputFormatError(f"monomial {tuple(exps)} outside the algebra")
