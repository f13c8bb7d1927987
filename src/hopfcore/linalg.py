"""Exact dense linear algebra over the rationals.

Vectors are tuples of ``fractions.Fraction`` and matrices store immutable
row tuples; no floating point enters anywhere.  Subspaces are kept in
reduced row echelon form, which is a canonical representative: two
subspaces are equal iff their stored bases are equal tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InnerNotContained, InputFormatError, NoConstrainedComplement

Rational = Fraction
Vector = tuple[Fraction, ...]

Q0 = Fraction(0)
Q1 = Fraction(1)


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise InputFormatError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(value: Fraction) -> str:
    """Render a rational as "p" or "p/q" (q > 0, lowest terms)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def vec(values: Iterable) -> Vector:
    return tuple(rat(v) for v in values)


def zero_vec(n: int) -> Vector:
    return (Q0,) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(Q1 if j == i else Q0 for j in range(n))


def to_sparse(v: Vector) -> dict[int, Fraction]:
    """The nonzero coordinates of v as {index: coefficient}."""
    return {i: a for i, a in enumerate(v) if a}


def to_dense(entries: Mapping[int, Fraction], n: int) -> Vector:
    out = [Q0] * n
    for i, a in entries.items():
        out[i] = a
    return tuple(out)


def add_vec(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), Q0)


def is_zero_vec(v: Vector) -> bool:
    return all(a == 0 for a in v)


def _rref_rows(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Reduced row echelon of a list of rows; returns (rows, pivot columns).

    Zero rows are dropped from the result.
    """
    work = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    piv_r = 0
    for col in range(ncols):
        pr = None
        for r in range(piv_r, len(work)):
            if work[r][col]:
                pr = r
                break
        if pr is None:
            continue
        work[piv_r], work[pr] = work[pr], work[piv_r]
        lead = work[piv_r][col]
        if lead != 1:
            work[piv_r] = [x / lead for x in work[piv_r]]
        prow = work[piv_r]
        for r in range(len(work)):
            if r == piv_r:
                continue
            f = work[r][col]
            if f:
                row = work[r]
                for c in range(col, ncols):
                    if prow[c]:
                        row[c] -= f * prow[c]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(work):
            break
    out = [tuple(work[i]) for i in range(len(pivots))]
    return out, tuple(pivots)


class QMatrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: Optional[int] = None):
        rs = tuple(tuple(rat(x) for x in r) for r in rows)
        if rs:
            ncols = len(rs[0]) if ncols is None else ncols
            for r in rs:
                if len(r) != ncols:
                    raise ValueError("inconsistent row lengths")
        elif ncols is None:
            raise ValueError("column count required for an empty matrix")
        self.rows: tuple[Vector, ...] = rs
        self.ncols: int = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([unit_vec(n, i) for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "QMatrix":
        return cls([zero_vec(ncols) for _ in range(nrows)], ncols)

    @classmethod
    def from_columns(cls, cols: Sequence[Vector]) -> "QMatrix":
        n = len(cols[0])
        return cls([tuple(c[i] for c in cols) for i in range(n)], len(cols))

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def rref(self) -> "QMatrix":
        reduced, _ = _rref_rows(self.rows, self.ncols)
        pad = [zero_vec(self.ncols)] * (self.nrows - len(reduced))
        return QMatrix(list(reduced) + pad, self.ncols)

    def rank(self) -> int:
        return len(_rref_rows(self.rows, self.ncols)[0])

    def kernel(self) -> "Subspace":
        """Right kernel {v : self @ v = 0} as a canonical subspace."""
        reduced, pivots = _rref_rows(self.rows, self.ncols)
        pivset = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivset:
                continue
            v = [Q0] * self.ncols
            v[free] = Q1
            for i, p in enumerate(pivots):
                v[p] = -reduced[i][free]
            basis.append(tuple(v))
        return Subspace.from_vectors(basis, self.ncols)

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product (v as a column)."""
        out = [Q0] * self.nrows
        for c, x in enumerate(v):
            if not x:
                continue
            for r, row in enumerate(self.rows):
                if row[c]:
                    out[r] += row[c] * x
        return tuple(out)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = [[Q0] * other.ncols for _ in range(self.nrows)]
        for r, row in enumerate(self.rows):
            acc = out[r]
            for k, x in enumerate(row):
                if not x:
                    continue
                orow = other.rows[k]
                for c, y in enumerate(orow):
                    if y:
                        acc[c] += x * y
        return QMatrix(out, other.ncols)

    def inverse(self) -> "QMatrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        aug = [list(r) + list(unit_vec(n, i)) for i, r in enumerate(self.rows)]
        reduced, pivots = _rref_rows(aug, 2 * n)
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return QMatrix([r[n:] for r in reduced], n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in r) for r in self.rows)
        return f"QMatrix[{self.nrows}x{self.ncols}: {body}]"


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held by its reduced-echelon basis (canonical)."""

    ambient_dim: int
    basis: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_vectors(cls, vectors: Iterable[Iterable], ambient_dim: int) -> "Subspace":
        rows = [tuple(rat(x) for x in v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        reduced, pivots = _rref_rows(rows, ambient_dim)
        return cls(ambient_dim, tuple(reduced), pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(
            [unit_vec(ambient_dim, i) for i in range(ambient_dim)], ambient_dim
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def nonpivots(self) -> tuple[int, ...]:
        pivset = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivset)

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after subtracting its projection along the basis."""
        out = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = out[p]
            if c:
                for j in range(self.ambient_dim):
                    if row[j]:
                        out[j] -= c * row[j]
        return tuple(out)

    def contains(self, v: Vector) -> bool:
        return is_zero_vec(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(self.basis + other.basis, self.ambient_dim)

    def quotient_unit_sparse(self) -> list[dict[int, Fraction]]:
        """For each ambient coordinate vector e_j, the nonzero coordinates of
        its class modulo this subspace, keyed by non-pivot position.

        The class of v is its residual after reduction, which is supported on
        non-pivot positions; membership in the subspace is exactly vanishing
        of all these coordinates.
        """
        rank_of = {p: i for i, p in enumerate(self.pivots)}
        nonpiv = self.nonpivots
        out: list[dict[int, Fraction]] = []
        for j in range(self.ambient_dim):
            if j in rank_of:
                row = self.basis[rank_of[j]]
                out.append({a: -row[a] for a in nonpiv if row[a]})
            else:
                out.append({j: Q1})
        return out

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_subspace(self)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"


def rref(m: QMatrix) -> QMatrix:
    return m.rref()


def kernel(m: QMatrix) -> Subspace:
    return m.kernel()


def complement(
    inner: Subspace, outer: Subspace, constraint: Optional[Vector] = None
) -> Subspace:
    """A deterministic direct complement W of inner in outer.

    Pivot-greedy: W starts from the outer echelon rows whose pivots are not
    pivots of inner.  When a linear-functional constraint is supplied, each
    chosen vector w with constraint(w) != 0 is corrected by a multiple of the
    first inner basis vector on which the constraint does not vanish; the
    correction keeps W a complement and makes the constraint vanish on it.
    If some chosen vector violates the constraint and no such inner vector
    exists, the constrained complement does not exist and
    NoConstrainedComplement is raised.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if not outer.contains_subspace(inner):
        raise InnerNotContained(
            f"inner (dim {inner.dim}) is not contained in outer (dim {outer.dim})"
        )
    inner_pivots = set(inner.pivots)
    rows = [r for r, p in zip(outer.basis, outer.pivots) if p not in inner_pivots]
    if constraint is not None and any(dot(constraint, r) for r in rows):
        adjuster = next((r for r in inner.basis if dot(constraint, r)), None)
        if adjuster is None:
            raise NoConstrainedComplement(
                f"no complement of inner (dim {inner.dim}) in outer "
                f"(dim {outer.dim}) lies in the kernel of the constraint"
            )
        denom = dot(constraint, adjuster)
        corrected = []
        for r in rows:
            f = dot(constraint, r) / denom
            corrected.append(tuple(a - f * b for a, b in zip(r, adjuster)) if f else r)
        rows = corrected
    return Subspace.from_vectors(rows, outer.ambient_dim)
