"""Exact linear algebra over the rationals.

Scalars are exact: an ``int`` when integral and a ``Rational`` otherwise.
``Rational`` is the package's own type, p/q in lowest terms with q > 1; its
constructor and its arithmetic with ``int`` and with itself return an
``int`` whenever the value is integral, so every result is in this normal
form without being normalised again.  Every division goes through
``Rational``, never through ``int / int``, so no floating point enters
anywhere.  There is one vector format, the sparse dict {index: coefficient}
without zeros, for the vectors of every algebra and the values of every
coefficient ring alike; only a functional, such as the counit, is a tuple
of its values on the basis.  Matrices exist only as lists of sparse rows.
Row reduction is sparse: ``rank``, ``kernel`` and ``inverse`` take sparse
rows, and one echelon keyed by pivot column reduces them, so the work
follows the nonzero entries rather than the matrix shape.  A ``Subspace``
is kept in reduced row echelon form for a column order (ascending unless
given), canonical for that order.  The one echelon also decides the
quotient: ``reduce`` gives a vector's normal form on the non-pivot columns
(``normal``), ``quotient_coords`` keys it by position in ``normal`` and
``lift`` maps it back.  An ideal is such a subspace in the order of
descending degree.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from functools import cached_property, total_ordering
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .errors import HopfcoreError, InputFormatError


@total_ordering
class Rational:
    """An exact rational number that is not an integer: ``numerator`` over
    ``denominator``, in lowest terms with ``denominator`` > 1.

    ``Rational(p, q)`` is the scalar p / q for scalars p and q, q nonzero:
    an ``int`` when it is integral.  Sums, differences, products and
    quotients with an ``int`` or a ``Rational`` are in the same normal
    form.  A ``Rational`` is never zero, so it is true; it equals, orders
    and hashes as the ``fractions.Fraction`` of the same value.  Instances
    are not changed once made."""

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator, denominator=1):
        if type(numerator) is not int or type(denominator) is not int:
            numerator, denominator = (
                numerator.numerator * denominator.denominator,
                numerator.denominator * denominator.numerator,
            )
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        elif not denominator:
            raise ZeroDivisionError(f"Rational({numerator}, 0)")
        return _reduced(numerator, denominator)

    def __repr__(self):
        return f"Rational({self.numerator}, {self.denominator})"

    def __reduce__(self):  # copy and pickle rebuild it by its terms
        return Rational, (self.numerator, self.denominator)

    def __add__(a, b):
        if type(b) is int:
            return _make(a.numerator + b * a.denominator, a.denominator)
        if type(b) is Rational:
            return _sum(a.numerator, a.denominator, b.numerator, b.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is int:
            return _make(a.numerator - b * a.denominator, a.denominator)
        if type(b) is Rational:
            return _sum(a.numerator, a.denominator, -b.numerator, b.denominator)
        return NotImplemented

    def __rsub__(a, b):
        if type(b) is int:
            return _make(b * a.denominator - a.numerator, a.denominator)
        return NotImplemented

    def __neg__(a):
        return _make(-a.numerator, a.denominator)

    def __mul__(a, b):
        if type(b) is int:
            g = gcd(b, a.denominator)
            return _normal(a.numerator * (b // g), a.denominator // g)
        if type(b) is Rational:
            g, h = gcd(a.numerator, b.denominator), gcd(b.numerator, a.denominator)
            return _normal(
                (a.numerator // g) * (b.numerator // h),
                (a.denominator // h) * (b.denominator // g),
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is int or type(b) is Rational:
            return Rational(a, b)
        return NotImplemented

    def __rtruediv__(a, b):
        if type(b) is int:
            return Rational(b * a.denominator, a.numerator)
        return NotImplemented

    def __eq__(a, b):
        # an int, a Rational or a fractions.Fraction: equal values have
        # equal terms
        try:
            return a.numerator == b.numerator and a.denominator == b.denominator
        except AttributeError:
            return NotImplemented

    def __lt__(a, b):
        try:
            return a.numerator * b.denominator < b.numerator * a.denominator
        except AttributeError:
            return NotImplemented

    def __hash__(self):
        # the numeric hash of p/q, which Fraction(p, q) has as well
        try:
            h = hash(hash(abs(self.numerator)) * pow(self.denominator, -1, _HASH.modulus))
        except ValueError:
            h = _HASH.inf
        if self.numerator < 0:
            h = -h
        return -2 if h == -1 else h


_HASH = sys.hash_info


def _make(numerator: int, denominator: int) -> Rational:
    """The Rational numerator / denominator, given in lowest terms with
    denominator > 1."""
    r = object.__new__(Rational)
    r.numerator = numerator
    r.denominator = denominator
    return r


def _normal(numerator: int, denominator: int) -> Scalar:
    """numerator / denominator, given in lowest terms with denominator > 0."""
    return numerator if denominator == 1 else _make(numerator, denominator)


def _reduced(numerator: int, denominator: int) -> Scalar:
    """numerator / denominator in normal form, for denominator > 0."""
    g = gcd(numerator, denominator)
    return _normal(numerator // g, denominator // g)


def _sum(na: int, da: int, nb: int, db: int) -> Scalar:
    """na / da + nb / db for two Rationals' terms."""
    g = gcd(da, db)
    if g == 1:
        return _make(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    h = gcd(t, g)
    return _normal(t // h, s * (db // h))


Scalar = int | Rational
SparseRow = dict[int, Scalar]

Q0 = 0
Q1 = 1

# the grammar of ``rat``
_DIGITS = r"\d+(?:_\d+)*"
_SCALAR = re.compile(
    rf"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>{_DIGITS}|)"
    rf"(?:/(?P<den>{_DIGITS})|(?:\.(?P<dec>{_DIGITS}|))?(?:[eE](?P<exp>[-+]?{_DIGITS}))?)"
    r"\s*"
)


def rat(value) -> Scalar:
    """Coerce a value to an exact scalar: an int, a ``Rational``, an object
    with integral ``numerator`` and ``denominator`` (a
    ``fractions.Fraction``), or a string of the grammar that
    ``fractions.Fraction`` reads on Python 3.11, whitespace around allowed:

        [+-] ( digits "/" digits
             | digits ["." [digits]] [exponent]
             | "." digits [exponent] )

    where digits are decimal digits, single underscores between them, and
    an exponent is "e" or "E", an optional sign and digits.  "p/0" is an
    input error that names a zero denominator; any other value, a bool or
    a float among them, is an input error that names it."""
    if isinstance(value, str):
        m = _SCALAR.fullmatch(value)
        if m is not None:
            sign, num, den, dec, exp = m.groups()
            dec = (dec or "").replace("_", "")
            # int() refuses more digits than sys.get_int_max_str_digits(), in
            # the integer and the decimal part each, as Fraction does
            try:
                p = int(num or "0") * 10 ** len(dec) + int(dec or "0")
                q, e = int(den or "1"), int(exp or "0") - len(dec)
            except ValueError:
                pass
            else:
                if not q:
                    raise InputFormatError(f"zero denominator in {value!r}")
                if sign == "-":
                    p = -p
                return _reduced(p * 10**e, q) if e >= 0 else _reduced(p, q * 10**-e)
    elif not isinstance(value, bool):  # a float has no numerator
        p, q = getattr(value, "numerator", None), getattr(value, "denominator", None)
        if type(p) is int and type(q) is int and q > 0:
            return _reduced(p, q)
    raise InputFormatError(f"cannot interpret {value!r} as a rational")


def rat_str(value: Scalar) -> str:
    """Render a rational as "p" or "p/q" (q > 0, lowest terms)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def integral(v: SparseRow, den: int = 1) -> tuple[int, SparseRow]:
    """The vector v / den in lowest terms, as (d, w): w = (d / den) v has
    integral entries, and d is the least positive integer for which it
    does.  An integral v whose entries share no factor with den is
    returned itself."""
    scale = lcm(*(x.denominator for x in v.values()))
    if scale > 1:
        v = {i: x * scale for i, x in v.items()}
        den *= scale
    if den > 1:
        g = gcd(den, *v.values())
        if g > 1:
            v = {i: x // g for i, x in v.items()}
            den //= g
    return den, v


def nonzero(v: Mapping[int, Scalar]) -> SparseRow:
    """A sparse vector without its zero entries."""
    return {k: c for k, c in v.items() if c}


def combine(rows, coeffs: Mapping[int, Scalar]) -> SparseRow:
    """The sparse vector sum of c * rows[k] over the entries k: c of the
    sparse vector coeffs, without zeros: the image of coeffs under the
    matrix whose columns are the sparse vectors rows (a sequence, or a
    mapping that holds every key of a nonzero entry of coeffs)."""
    out: SparseRow = {}
    for k, a in coeffs.items():
        if a:
            for j, c in rows[k].items():
                out[j] = out.get(j, Q0) + a * c
    return {j: c for j, c in out.items() if c}


def _sub_scaled(row: SparseRow, f: Scalar, other: Mapping[int, Scalar]) -> None:
    """row -= f * other in place, dropping the entries that cancel."""
    for c, x in other.items():
        v = row.get(c, Q0) - f * x
        if v:
            row[c] = v
        else:
            del row[c]


def _rref_rows(rows: Sequence[Mapping[int, Scalar]], ncols: int):
    """Reduced row echelon form of sparse rows {column: coefficient};
    returns (rows, pivot columns), the rows nonzero, in ascending pivot
    order and with ascending keys.

    Each row, sparsest first (the result is canonical, so the order only
    saves work), is reduced against the stored rows by its leading column
    until it vanishes (and is dropped) or its lead is a new pivot (and it is
    stored, scaled to lead 1).  Once every column that occurs in the rows
    holds a pivot, every later row lies in the span, so the reduction stops.
    One back-substitution pass in descending pivot order then clears the
    pivot columns of every stored row.
    """
    echelon: dict[int, SparseRow] = {}
    rows = sorted(rows, key=len)
    full = len({c for given in rows for c, x in given.items() if x})
    for given in rows:
        if len(echelon) == full:
            break
        row = {c: x for c, x in given.items() if x}
        while row:
            lead = min(row)
            stored = echelon.get(lead)
            if stored is None:
                a = row[lead]
                if a != 1:
                    inv = Rational(1, a)
                    row = {c: x * inv for c, x in row.items()}
                echelon[lead] = row
                break
            _sub_scaled(row, row[lead], stored)
    pivots = sorted(echelon)
    for p in reversed(pivots):
        row = echelon[p]
        for q in [c for c in row if c != p and c in echelon]:
            _sub_scaled(row, row[q], echelon[q])
    reduced = [dict(sorted(echelon[p].items())) for p in pivots]
    return reduced, tuple(pivots)


def rank(rows: Sequence[Mapping[int, Scalar]], ncols: int) -> int:
    return len(_rref_rows(rows, ncols)[0])


def kernel(rows: Sequence[Mapping[int, Scalar]], ncols: int) -> "Subspace":
    """Right kernel {v : row . v = 0 for every row} of sparse rows, as a
    canonical subspace: one vector per free column f of the echelon, e_f
    minus the echelon rows' entries in column f at their pivots."""
    reduced, pivots = _rref_rows(rows, ncols)
    pivset = set(pivots)
    basis = {f: {f: Q1} for f in range(ncols) if f not in pivset}
    for p, row in zip(pivots, reduced):
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return Subspace.from_sparse(list(basis.values()), ncols)


def inverse(rows: Sequence[Mapping[int, Scalar]], n: int) -> list[SparseRow]:
    """The rows of the inverse of the n x n matrix with the given sparse
    rows, by reducing [M | I] to [I | M^-1].  Raises ValueError if M is
    singular.  Row j of the inverse of M^T is column j of the inverse of M,
    so callers holding a matrix by its columns pass those as rows."""
    aug = [{**row, n + i: Q1} for i, row in enumerate(rows)]
    reduced, pivots = _rref_rows(aug, 2 * n)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return [{c - n: x for c, x in row.items() if c >= n} for row in reduced]


class Subspace(namedtuple("Subspace", "ambient_dim pivots rows")):
    """A subspace of Q^n held by its reduced row echelon form in a column
    order (canonical for that order): the pivot columns in that order
    (``pivots``, a tuple of ints), each the first column of its row in the
    order, and for each its echelon row as a sparse row (``rows``).  Every
    row vanishes at every other pivot.  The columns that are not pivots,
    ascending, are ``normal``: the basis of the quotient, whose coordinates
    are keyed by position in ``normal``."""

    # the rows are dicts; nothing hashes a subspace.  No __slots__: the
    # cached maps below live in the instance dict.
    __hash__ = None

    @classmethod
    def from_sparse(
        cls,
        rows: Sequence[Mapping[int, Scalar]],
        ambient_dim: int,
        order: Optional[Sequence[int]] = None,
    ) -> "Subspace":
        """The span of sparse vectors {index: coefficient}, echeloned with
        the columns in ``order`` (a permutation of range(ambient_dim),
        ascending by default)."""
        if order is None:
            reduced, pivots = _rref_rows(rows, ambient_dim)
            return cls(ambient_dim, pivots, tuple(reduced))
        rank = {t: r for r, t in enumerate(order)}
        reduced, pivots = _rref_rows(
            [{rank[t]: c for t, c in row.items()} for row in rows], ambient_dim
        )
        return cls(
            ambient_dim,
            tuple(order[p] for p in pivots),
            tuple({order[r]: c for r, c in row.items()} for row in reduced),
        )

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @cached_property
    def normal(self) -> tuple[int, ...]:
        pivots = set(self.pivots)
        return tuple(t for t in range(self.ambient_dim) if t not in pivots)

    @cached_property
    def _row_at(self) -> dict[int, SparseRow]:
        return dict(zip(self.pivots, self.rows))

    @cached_property
    def _position(self) -> dict[int, int]:
        return {t: p for p, t in enumerate(self.normal)}

    def reduce(self, v: Mapping[int, Scalar]) -> SparseRow:
        """The residual of the sparse vector v {index: coefficient}, zeros
        allowed, modulo the subspace: a sparse vector without zeros on the
        normal columns.  One pass subtracts the rows at the pivots v hits."""
        at = self._row_at
        out = nonzero(v)
        for p in [t for t in out if t in at]:
            _sub_scaled(out, out[p], at[p])
        return out

    def contains(self, v: Mapping[int, Scalar]) -> bool:
        """Membership of the sparse vector v {index: coefficient}."""
        return not self.reduce(v)

    def quotient_coords(self, v: Mapping[int, Scalar]) -> SparseRow:
        """The class of v as a sparse vector keyed by position in
        ``normal``."""
        pos = self._position
        return {pos[t]: c for t, c in self.reduce(v).items()}

    def lift(self, coords: Mapping[int, Scalar]) -> SparseRow:
        """The representative on the normal columns of a sparse class."""
        normal = self.normal
        return {normal[p]: c for p, c in coords.items() if c}

    def quotient_units(self) -> list[SparseRow]:
        """``quotient_coords`` of every unit vector e_j, read off the rows:
        e_j minus its row at a pivot j, e_j itself elsewhere."""
        pos, at = self._position, self._row_at
        return [
            {pos[a]: -x for a, x in at[j].items() if a != j}
            if j in at
            else {pos[j]: Q1}
            for j in range(self.ambient_dim)
        ]

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"


def complement(
    inner: Subspace, outer: Subspace, constraint: Optional[Sequence[Scalar]] = None
) -> Subspace:
    """A deterministic direct complement W of inner in outer.

    Pivot-greedy: W starts from the outer echelon rows whose pivots are not
    pivots of inner.  When a linear-functional constraint (its values on
    the basis, by position) is supplied, each
    chosen vector w with constraint(w) != 0 is corrected by a multiple of the
    first inner basis vector on which the constraint does not vanish; the
    correction keeps W a complement and makes the constraint vanish on it.
    If some chosen vector violates the constraint and no such inner vector
    exists, the constrained complement does not exist and HopfcoreError is
    raised.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if not all(outer.contains(r) for r in inner.rows):
        raise HopfcoreError(
            f"inner (dim {inner.dim}) is not contained in outer (dim {outer.dim})"
        )
    inner_pivots = set(inner.pivots)
    rows = [dict(r) for r, p in zip(outer.rows, outer.pivots) if p not in inner_pivots]
    if constraint is not None and any(dot(constraint, r) for r in rows):
        adjuster = next((r for r in inner.rows if dot(constraint, r)), None)
        if adjuster is None:
            raise HopfcoreError(
                f"no complement of inner (dim {inner.dim}) in outer "
                f"(dim {outer.dim}) lies in the kernel of the constraint"
            )
        denom = dot(constraint, adjuster)
        for r in rows:
            f = Rational(dot(constraint, r), denom)
            if f:
                _sub_scaled(r, f, adjuster)
    return Subspace.from_sparse(rows, outer.ambient_dim)


def dot(functional: Sequence[Scalar], v: Mapping[int, Scalar]) -> Scalar:
    """The functional, held by its values on the basis, at the vector v."""
    return sum((functional[i] * a for i, a in v.items()), Q0)
