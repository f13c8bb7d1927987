"""Module-algebra actions at desk scale and truncated stable cores of ideals.

The host algebra acts on a small algebra A through operator matrices for the
generator lifts; a general basis monomial acts as the increasing-order
divided composition of those operators.  An ideal I of A is one ``Ideal``,
the span of monomials, of the multiples of one polynomial or of given
vectors, a ``Subspace`` whose pivots are leading monomials; its
non-pivot positions are the basis of A/I.  The truncated core collects the
elements all of whose images under basis monomials up to the cap stay
inside I; it is the kernel of a stack of exact linear conditions and
shrinks as the cap grows.  The map into the convolution algebra over A/I
sends a to (index -> class of the image of a), and primeness probes on the
core quotient run through the leading-term witnesses of the convolution
module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .convolution import ConvElement, add_witness_line, leading
from .errors import InputFormatError, TruncationError
from .linalg import (
    Q1,
    Scalar,
    SparseRow,
    Subspace,
    combine,
    dot,
    exact,
    kernel,
    nonzero,
)
from .monoid import monomial_label
from .pbw import PBWStructure
from .report import FAIL, INCONCLUSIVE, PASS, SKIP, Report
from .table import PolynomialAlgebra, TableAlgebra, sparse


# ---------------------------------------------------------------------------
# ideals


class Ideal(Subspace):
    """An ideal I of A: the ``Subspace`` spanned by rows in the column order
    of descending degree and then position, so a row's pivot is its leading
    column, in a polynomial algebra its degree-lex leading monomial.  A/I has
    the basis ``normal``; ``text`` names the ideal in reports."""

    @classmethod
    def _span(cls, algebra: TableAlgebra, rows, text: str) -> "Ideal":
        degrees = algebra.degrees
        order = sorted(range(algebra.dim), key=lambda t: (-degrees[t], t))
        ideal = cls.from_sparse(rows, algebra.dim, order)
        ideal.algebra, ideal.text = algebra, text
        return ideal

    @classmethod
    def monomial(
        cls, algebra: PolynomialAlgebra, generators: Sequence[Sequence[int]]
    ) -> "Ideal":
        """The span of the monomials that some generator divides."""
        gens = [tuple(g) for g in generators]
        if any(len(g) != len(algebra.variables) for g in gens):
            raise InputFormatError("generator arity mismatch")
        rows = [
            {t: Q1}
            for t, e in enumerate(algebra.monomials)
            if any(all(x >= y for x, y in zip(e, g)) for g in gens)
        ]
        names = algebra.variables
        text = ", ".join(monomial_label(names, g) for g in gens) or "0"
        return cls._span(algebra, rows, f"({text})")

    @classmethod
    def principal(
        cls, algebra: PolynomialAlgebra, element: Mapping[int, Scalar]
    ) -> "Ideal":
        """(f): the span of the products x^q f with deg q + the top degree
        of f within the bound."""
        f = nonzero(element)
        if not f:
            raise InputFormatError("principal generator must be nonzero")
        degrees = algebra.degrees
        top = max(degrees[t] for t in f)
        rows = [
            algebra.mul({q: Q1}, f)
            for q in range(algebra.dim)
            if degrees[q] + top <= algebra.degree_bound
        ]
        return cls._span(algebra, rows, f"({algebra.format(f)})")

    @classmethod
    def subspace(
        cls, algebra: TableAlgebra, rows: Sequence[Mapping[int, Scalar]]
    ) -> "Ideal":
        """The span of rows, checked to be a two-sided ideal on the products
        of its echelon rows with every basis vector."""
        ideal = cls._span(algebra, rows, "")
        for row in ideal.rows:
            for i in range(algebra.dim):
                e = {i: Q1}
                if not (
                    ideal.contains(algebra.mul(e, row))
                    and ideal.contains(algebra.mul(row, e))
                ):
                    raise InputFormatError("subspace is not a two-sided ideal")
        ideal.text = f"subspace ideal of dim {ideal.dim}"
        return ideal

    @property
    def is_unit(self) -> bool:
        return self.contains(self.algebra.one)


class QuotientAlgebra(TableAlgebra):
    """A/I on the normal basis of an ideal.  The table holds the
    class of the product of every two lifted normal basis vectors; a pair
    whose lifted product truncates is left out, so multiplying through it
    raises TruncationError exactly as the product in A does."""

    def __init__(self, ideal: Ideal):
        algebra = ideal.algebra
        lifts = [ideal.lift({p: Q1}) for p in range(len(ideal.normal))]
        table = {}
        for p, lp in enumerate(lifts):
            for q, lq in enumerate(lifts):
                try:
                    prod = algebra.mul(lp, lq)
                except TruncationError:
                    continue
                table[(p, q)] = sparse(ideal.quotient_coords(prod).items())
        super().__init__(
            [algebra.basis_labels[t] for t in ideal.normal],
            table,
            ideal.quotient_coords(algebra.one),
            degree_bound=algebra.degree_bound,
            name=f"A/{ideal.text}",
        )
        self.ideal = ideal


# ---------------------------------------------------------------------------
# actions


# every column an operator kills is this one read-only empty mapping
KILLED = MappingProxyType({})


class ModuleAlgebraAction:
    """Operators for the generator lifts, extended to every basis monomial
    as the increasing-order divided composition.

    Each operator is held by its sparse columns: column j is the image of
    the basis vector e_j as {index: coefficient}, without zeros, and
    ``KILLED`` when that image is 0.  The given generator operators are
    held whole, at their generators' host positions, and so is the
    identity at position 0; the column of any other basis monomial is
    composed when it is first read and then kept, so an operator holds
    only the columns some reader asked for."""

    def __init__(
        self,
        host: PBWStructure,
        algebra: TableAlgebra,
        gen_ops: Mapping[str, Sequence[SparseRow]],
    ):
        ids = set(host.gens.ids)
        for gid in gen_ops:
            if gid not in ids:
                raise InputFormatError(f"operator for unknown generator {gid!r}")
        missing = ids - set(gen_ops)
        if missing:
            raise InputFormatError(f"missing operators for {sorted(missing)}")
        for gid, op in gen_ops.items():
            if len(op) != algebra.dim or any(k >= algebra.dim for c in op for k in c):
                raise InputFormatError(f"operator for {gid!r} has the wrong shape")
        self.host = host
        self.algebra = algebra
        # per host position: its columns, None where not yet read, and the
        # step of ``first_factor`` that composes them, set at the first read
        self._columns: list[Optional[list]] = [None] * len(host.indices)
        self._steps: list[Optional[tuple]] = [None] * len(host.indices)
        self._columns[0] = [{j: Q1} for j in range(algebra.dim)]
        for gid, g in zip(host.gens.ids, host.gen_pos):
            self._columns[g] = [
                {r: exact(c) for r, c in col.items() if c} or KILLED
                for col in gen_ops[gid]
            ]

    def columns(self, p: int, js: Optional[Sequence[int]] = None) -> list[SparseRow]:
        """The sparse columns js (every column by default) of the operator
        of e_m, m the index at host position p.  With g the first generator
        of m and k its multiplicity, column j of e_m is (1/k) g applied to
        column j of e_(m - g); the columns not yet held are composed from
        those of e_(m - g), asked for in one call."""
        held = self._columns[p]
        if held is None:
            t, k, rest = self.host.first_factor(p)
            self._steps[p] = self._columns[self.host.gen_pos[t]], Fraction(1, k), rest
            held = self._columns[p] = [None] * self.algebra.dim
        if js is None:
            js = range(self.algebra.dim)
        todo = [j for j in js if held[j] is None]
        if todo:
            op, scale, rest = self._steps[p]
            for j, col in zip(todo, self.columns(rest, todo)):
                held[j] = {
                    r: exact(c * scale) for r, c in combine(op, col).items()
                } or KILLED
        return [held[j] for j in js]

    def act(self, p: int, v: Mapping[int, Scalar]) -> SparseRow:
        """The image of the sparse vector v under the operator of the index
        at host position p, without zeros; only the columns of v's support
        are read."""
        support = list(v)
        return combine(dict(zip(support, self.columns(p, support))), v)


def verify_module_algebra(rep: Report, action: ModuleAlgebraAction) -> None:
    """Unit law, the comultiplication law on products of basis elements, and
    compatibility of the generator operators with the relations among the
    generator lifts."""
    host, alg = action.host, action.algebra
    data = host.data
    # each generator id with the host position of its index
    gens = list(zip(host.gens.ids, host.gen_pos))
    # expanded before the first line, so that an error in an expansion or
    # in the basis change it builds is raised before this check writes
    deltas = [host.expand_comult(g) for _, g in gens]
    one = alg.one
    for gid, g in gens:
        eps = dot(data.counit, host.lifts[gid])
        image = action.act(g, one)
        expected = {k: eps * c for k, c in one.items() if eps * c}
        rep.add(
            "unit-law",
            gid,
            PASS if image == expected else FAIL,
            "" if image == expected else "operator does not kill 1",
        )

    for (gid, g), delta in zip(gens, deltas):
        act_g = action.columns(g)
        terms = [(action.columns(i), action.columns(j), c) for i, j, c in delta]
        coeffs = {t: c for t, (_, _, c) in enumerate(terms)}
        checked = skipped = bad = 0
        witness = ""
        for a in range(alg.dim):
            for b in range(alg.dim):
                # a pair is skipped when e_a e_b, or a product of the
                # supports of the images, lies past the truncation
                ab = alg.mult.get((a, b))
                if ab is None:
                    skipped += 1
                    continue
                try:
                    products = [alg.mul(left[a], right[b]) for left, right, _ in terms]
                except TruncationError:
                    skipped += 1
                    continue
                checked += 1
                if combine(act_g, dict(ab)) != combine(products, coeffs):
                    bad += 1
                    if not witness:
                        witness = f"{alg.basis_labels[a]},{alg.basis_labels[b]}"
        rep.add(
            "product-law",
            gid,
            PASS if not bad else FAIL,
            f"checked {checked}, skipped {skipped}"
            + (f", first failure at {witness}" if witness else ""),
        )

    lifts = host.lifts
    for gid, g in gens:
        for hid, h in gens:
            if host.index_sum(g, h) is None:
                continue
            expansion = host.pbw_coords(data.mul(lifts[gid], lifts[hid]))
            op_g = action.columns(g)
            ops = {p: action.columns(p) for p in expansion}
            ok = True
            for j, col_h in enumerate(action.columns(h)):
                images = {p: op[j] for p, op in ops.items()}
                if combine(op_g, col_h) != combine(images, expansion):
                    ok = False
                    break
            rep.add("relation-compatibility", f"{gid},{hid}", PASS if ok else FAIL)


def conv_map(
    action: ModuleAlgebraAction, ring: QuotientAlgebra, a: Mapping[int, Scalar]
) -> ConvElement:
    """The element (index -> class of the image of the sparse vector a) of
    the convolution algebra over A/I; its kernel over all of A is the
    stable core."""
    values = {}
    for p in range(len(action.host.indices)):
        coords = ring.ideal.quotient_coords(action.act(p, a))
        if coords:
            values[p] = coords
    return ConvElement(action.host, ring, values)


class HCoreResult(namedtuple("HCoreResult", "by_cap")):
    """The ``Subspace`` chain of cores for caps 0, 1, ..., D; the core is
    the one at the host bound D."""

    __slots__ = ()

    @property
    def core(self) -> Subspace:
        return self.by_cap[-1]

    @property
    def stabilized(self) -> bool:
        return self.by_cap[-1] == self.by_cap[-2]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.by_cap)


def hcore(action: ModuleAlgebraAction, ideal: Ideal, core_cap: int) -> HCoreResult:
    """Truncated stable core: elements of degree <= core_cap whose images
    under every basis monomial of the host stay in the ideal.  Computed as
    a stacked exact kernel, cap by cap up to the host bound D; the core at
    a cap c < D is ``by_cap[c]``, since the chain up to c does not depend
    on D."""
    host, alg = action.host, action.algebra
    cols = [i for i in range(alg.dim) if alg.degrees[i] <= core_cap]
    rows: list[dict[int, Scalar]] = []
    cores: list[Subspace] = []
    for d in range(host.data.degree_bound + 1):
        # the indices of degree d are a run of positions
        for p in range(host.count_up_to(d - 1), host.count_up_to(d)):
            # one condition per normal basis vector: its coefficient in the
            # normal form of the image vanishes
            by_normal: dict[int, dict[int, Scalar]] = {}
            for t, column in enumerate(action.columns(p, cols)):
                for k, x in ideal.reduce(column).items():
                    by_normal.setdefault(k, {})[t] = x
            rows.extend(by_normal[k] for k in sorted(by_normal))
        # cols ascends, so the kernel re-keyed onto it stays in echelon form
        small = kernel(rows, len(cols))
        rekeyed = tuple({cols[t]: c for t, c in row.items()} for row in small.rows)
        cores.append(Subspace(alg.dim, tuple(cols[t] for t in small.pivots), rekeyed))
    return HCoreResult(tuple(cores))


def core_primeness_probe(
    rep: Report, action: ModuleAlgebraAction, ring: QuotientAlgebra, mode: str, bound: int
) -> None:
    """Zero-divisor / witness probes on the basis elements of degree <=
    bound outside the stable core, with values in ring = A/I.  The core is
    the kernel of ``conv_map``, so these are the elements with a nonzero
    image, at every bound, the core cap's or past it.

    domain mode multiplies leading values (nonzero products imply nonzero
    convolution products by the exact leading-term law); prime and semiprime
    modes run the witness scans over A/I.  Outcomes beyond the ambient
    truncation are reported inconclusive."""
    if mode not in ("domain", "prime", "semiprime"):
        raise InputFormatError(f"unknown probe mode {mode!r}")
    if ring.ideal.is_unit:
        rep.add(f"probe-{mode}", ring.ideal.text, SKIP, "DegenerateIdeal")
        return
    alg = action.algebra
    images = {
        i: conv_map(action, ring, {i: Q1})
        for i in range(alg.dim)
        if alg.degrees[i] <= bound
    }
    candidates = [i for i, image in images.items() if not image.is_zero]

    if mode == "semiprime":
        for i in candidates:
            label = alg.basis_labels[i]
            add_witness_line(rep, label, images[i], inconclusive="truncated")
        return

    for ti, i in enumerate(candidates):
        for j in candidates[ti:]:
            subject = f"{alg.basis_labels[i]},{alg.basis_labels[j]}"
            if mode == "domain":
                li, lj = leading(images[i]), leading(images[j])
                if action.host.index_sum(li.index, lj.index) is None:
                    rep.add("domain-probe", subject, INCONCLUSIVE, "truncated")
                    continue
                try:
                    # zero divisors need not be two-sided, so probe both
                    # orientations of the leading values
                    zero = not all(
                        ring.mul(u, v)
                        for u, v in ((li.value, lj.value), (lj.value, li.value))
                    )
                except TruncationError:
                    rep.add("domain-probe", subject, INCONCLUSIVE, "truncated")
                    continue
                rep.add(
                    "domain-probe",
                    subject,
                    FAIL if zero else PASS,
                    "zero divisor pair" if zero else "",
                )
            else:
                add_witness_line(rep, subject, images[i], images[j], "truncated")
