"""Module-algebra actions at desk scale and truncated stable cores of ideals.

The host algebra acts on a small algebra A through operator matrices for the
generator lifts; a general basis monomial acts as the increasing-order
divided composition of those operators.  For an ideal I of A with a
membership oracle, the truncated core collects the elements all of whose
images under basis monomials up to the cap stay inside I; it is the kernel
of a stack of exact linear conditions and shrinks as the cap grows.  The map
into the convolution algebra over A/I sends a to (index -> class of the
image of a), and primeness probes on the core quotient run through the
leading-term witnesses of the convolution module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .convolution import ConvElement, add_witness_line, leading
from .errors import ForeignGenerator, InputFormatError, TruncationError
from .linalg import (
    Q0,
    Q1,
    Scalar,
    SparseRow,
    Subspace,
    combine,
    exact,
    kernel,
    nonzero,
)
from .monoid import monomial_label
from .pbw import PBWStructure
from .report import FAIL, INCONCLUSIVE, PASS, SKIP, Report
from .table import PolynomialAlgebra, TableAlgebra, sparse


# ---------------------------------------------------------------------------
# ideal oracles


class IdealOracle:
    """Membership, normal forms, and quotient coordinates for an ideal.

    A subclass sets ``algebra`` and ``_normal``, the ascending positions of
    the basis vectors whose classes form the basis of A/I, and implements
    ``reduce``: a sparse vector {index: coefficient}, zeros allowed, to its
    normal form, a sparse vector without zeros supported on ``_normal``."""

    algebra: TableAlgebra
    _normal: tuple[int, ...]

    def reduce(self, v: Mapping[int, Scalar]) -> SparseRow:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def contains(self, v: Mapping[int, Scalar]) -> bool:
        return not self.reduce(v)

    @property
    def normal_labels(self) -> tuple[str, ...]:
        return tuple(self.algebra.basis_labels[t] for t in self._normal)

    @cached_property
    def _normal_pos(self) -> dict[int, int]:
        return {t: p for p, t in enumerate(self._normal)}

    def quotient_coords(self, v: Mapping[int, Scalar]) -> SparseRow:
        """The class of v as a sparse A/I value, keyed by position in the
        normal basis."""
        pos = self._normal_pos
        return {pos[t]: c for t, c in self.reduce(v).items()}

    def lift(self, coords: Mapping[int, Scalar]) -> SparseRow:
        """The normal-form representative of a sparse A/I value."""
        normal = self._normal
        return {normal[p]: c for p, c in coords.items() if c}

    @property
    def quotient_dim(self) -> int:
        return len(self._normal)

    @property
    def is_unit(self) -> bool:
        return self.contains(self.algebra.unit_vector())

    @property
    def is_zero(self) -> bool:
        return self.quotient_dim == self.algebra.dim


def _divides(small: Sequence[int], big: Sequence[int]) -> bool:
    """x^small divides x^big."""
    return all(x >= y for x, y in zip(big, small))


class MonomialIdeal(IdealOracle):
    """Ideal generated by monomials in a truncated polynomial algebra;
    membership is coefficientwise divisibility."""

    def __init__(self, algebra: PolynomialAlgebra, generators: Sequence[Sequence[int]]):
        if not isinstance(algebra, PolynomialAlgebra):
            raise InputFormatError("monomial ideals need a polynomial algebra")
        self.algebra = algebra
        self.generators = tuple(tuple(int(x) for x in g) for g in generators)
        for g in self.generators:
            if len(g) != len(algebra.variables):
                raise InputFormatError("generator arity mismatch")
        self._normal = tuple(
            t
            for t, e in enumerate(algebra.monomials)
            if not any(_divides(g, e) for g in self.generators)
        )

    def reduce(self, v: Mapping[int, Scalar]) -> SparseRow:
        monomials = self.algebra.monomials
        return {
            t: c
            for t, c in v.items()
            if c and not any(_divides(g, monomials[t]) for g in self.generators)
        }

    def describe(self) -> str:
        if not self.generators:
            return "(0)"
        names = self.algebra.variables
        return "(" + ", ".join(monomial_label(names, g) for g in self.generators) + ")"


class PrincipalIdeal(IdealOracle):
    """Ideal generated by one polynomial, a sparse vector; membership by
    exact division against its degree-lex leading term."""

    def __init__(self, algebra: PolynomialAlgebra, element: Mapping[int, Scalar]):
        if not isinstance(algebra, PolynomialAlgebra):
            raise InputFormatError("principal ideals need a polynomial algebra")
        element = nonzero(element)
        if not element:
            raise InputFormatError("principal generator must be nonzero")
        self.algebra = algebra
        self.generator = element
        monomials = algebra.monomials
        lead = max(element, key=lambda t: (sum(monomials[t]), monomials[t]))
        self._lt_exps = monomials[lead]
        self._lt_coeff = element[lead]
        self._normal = tuple(
            t for t, e in enumerate(monomials) if not _divides(self._lt_exps, e)
        )

    def reduce(self, v: Mapping[int, Scalar]) -> SparseRow:
        alg = self.algebra
        monomials = alg.monomials
        work = nonzero(v)
        remainder: SparseRow = {}
        while work:
            t = max(work, key=lambda u: (sum(monomials[u]), monomials[u]))
            c = work.pop(t)
            exps = monomials[t]
            if not _divides(self._lt_exps, exps):
                remainder[t] = c
                continue
            q = tuple(x - y for x, y in zip(exps, self._lt_exps))
            scale = exact(Fraction(c) / self._lt_coeff)
            for s, gc in self.generator.items():
                tt = alg.index[tuple(x + y for x, y in zip(q, monomials[s]))]
                if tt == t:
                    continue
                val = work.get(tt, Q0) - scale * gc
                if val:
                    work[tt] = val
                else:
                    work.pop(tt, None)
        return remainder

    def describe(self) -> str:
        return f"({self.algebra.format(self.generator)})"


class SubspaceIdeal(IdealOracle):
    """An ideal of a finite-dimensional algebra given as a subspace;
    two-sidedness is validated on the basis at construction.  The normal
    basis is the non-pivot columns of the subspace's echelon form."""

    def __init__(self, algebra: TableAlgebra, subspace: Subspace):
        if isinstance(algebra, PolynomialAlgebra):
            raise InputFormatError("subspace ideals need a finite-dimensional algebra")
        if subspace.ambient_dim != algebra.dim:
            raise InputFormatError("subspace dimension mismatch")
        self.algebra = algebra
        self.subspace = subspace
        for row in subspace.rows:
            for i in range(algebra.dim):
                e = {i: Q1}
                if not (
                    subspace.contains(algebra.mul(e, row))
                    and subspace.contains(algebra.mul(row, e))
                ):
                    raise InputFormatError("subspace is not a two-sided ideal")
        pivots = set(subspace.pivots)
        self._normal = tuple(j for j in range(algebra.dim) if j not in pivots)

    def reduce(self, v: Mapping[int, Scalar]) -> SparseRow:
        return self.subspace.reduce(v)

    def describe(self) -> str:
        return f"subspace ideal of dim {self.subspace.dim}"


class QuotientAlgebra(TableAlgebra):
    """A/I on the normal basis of an ideal oracle.  The table holds the
    class of the product of every two lifted normal basis vectors; a pair
    whose lifted product truncates is left out, so multiplying through it
    raises TruncationError exactly as the product in A does."""

    def __init__(self, ideal: IdealOracle):
        algebra = ideal.algebra
        lifts = [ideal.lift({p: Q1}) for p in range(ideal.quotient_dim)]
        table = {}
        for p, lp in enumerate(lifts):
            for q, lq in enumerate(lifts):
                try:
                    prod = algebra.mul(lp, lq)
                except TruncationError:
                    continue
                table[(p, q)] = sparse(ideal.quotient_coords(prod).items())
        super().__init__(
            ideal.normal_labels,
            table,
            ideal.quotient_coords(algebra.unit_vector()),
            degree_bound=algebra.degree_bound,
            name=f"A/{ideal.describe()}",
        )
        self.ideal = ideal


# ---------------------------------------------------------------------------
# actions


def _add_scaled(acc: SparseRow, c: Scalar, v: Mapping[int, Scalar]) -> None:
    for k, x in v.items():
        acc[k] = acc.get(k, Q0) + c * x


class ModuleAlgebraAction:
    """Operators for the generator lifts, extended to every basis monomial
    as the increasing-order divided composition.

    Each operator is held by its sparse columns: column j is the image of
    the basis vector e_j as {index: coefficient}, without zeros.  The
    operators of basis monomials are cached by host index position."""

    def __init__(
        self,
        host: PBWStructure,
        algebra: TableAlgebra,
        gen_ops: Mapping[str, Sequence[SparseRow]],
    ):
        ids = set(host.gens.ids)
        for gid in gen_ops:
            if gid not in ids:
                raise ForeignGenerator(f"operator for unknown generator {gid!r}")
        missing = ids - set(gen_ops)
        if missing:
            raise InputFormatError(f"missing operators for {sorted(missing)}")
        for gid, op in gen_ops.items():
            if len(op) != algebra.dim or any(k >= algebra.dim for c in op for k in c):
                raise InputFormatError(f"operator for {gid!r} has the wrong shape")
        self.host = host
        self.algebra = algebra
        self.gen_ops = dict(gen_ops)
        self._columns: list[Optional[list[SparseRow]]] = [None] * len(host.indices)
        self._columns[0] = [{j: Q1} for j in range(algebra.dim)]

    def columns(self, p: int) -> list[SparseRow]:
        """The sparse columns of the operator of e_m, m the index at host
        position p.  With g the first generator of m and k its
        multiplicity, the operator of e_m is (1/k) g composed with the
        operator of e_(m - g)."""
        cached = self._columns[p]
        if cached is not None:
            return cached
        t, k, rest = self.host.first_factor(p)
        op, scale = self.gen_ops[self.host.gens.ids[t]], Fraction(1, k)
        out = [
            {r: exact(c * scale) for r, c in combine(op, col).items()}
            for col in self.columns(rest)
        ]
        self._columns[p] = out
        return out

    def act(self, p: int, v: Mapping[int, Scalar]) -> SparseRow:
        """The image of the sparse vector v under the operator of the index
        at host position p, without zeros."""
        return combine(self.columns(p), v)


def verify_module_algebra(action: ModuleAlgebraAction) -> Report:
    """Unit law, the comultiplication law on products of basis elements, and
    compatibility of the generator operators with the relations among the
    generator lifts."""
    rep = Report("module-algebra")
    host, alg = action.host, action.algebra
    data = host.data
    gens = host.gens

    # the index of generator t has exponent 1 at t and 0 elsewhere
    at = {
        gid: host.index_pos[tuple(int(s == t) for s in range(len(gens)))]
        for t, gid in enumerate(gens.ids)
    }
    one = alg.unit_vector()
    for gid, _ in gens.generators:
        eps = data.counit_of(host.lifts[gid])
        image = action.act(at[gid], one)
        expected = {k: eps * c for k, c in one.items() if eps * c}
        rep.add(
            "unit-law",
            gid,
            PASS if image == expected else FAIL,
            "" if image == expected else "operator does not kill 1",
        )

    for gid, _ in gens.generators:
        act_g = action.columns(at[gid])
        terms = [
            (action.columns(i), action.columns(j), c)
            for i, j, c in host.expand_comult(at[gid])
        ]
        checked = skipped = bad = 0
        witness = ""
        for a in range(alg.dim):
            for b in range(alg.dim):
                # a pair is skipped when e_a e_b, or a product of the
                # supports of the images, lies past the truncation
                try:
                    lhs = combine(act_g, dict(alg.product_terms(a, b)))
                    rhs: SparseRow = {}
                    for left, right, c in terms:
                        _add_scaled(rhs, c, alg.mul(left[a], right[b]))
                except TruncationError:
                    skipped += 1
                    continue
                checked += 1
                if lhs != nonzero(rhs):
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
    for gid, dg in gens.generators:
        for hid, dh in gens.generators:
            if dg + dh > data.degree_bound:
                continue
            expansion = host.pbw_coords(data.mul(lifts[gid], lifts[hid]))
            op_g = action.columns(at[gid])
            ok = True
            for j, col_h in enumerate(action.columns(at[hid])):
                expected: SparseRow = {}
                for idx, c in expansion.items():
                    _add_scaled(expected, c, action.columns(idx)[j])
                if combine(op_g, col_h) != nonzero(expected):
                    ok = False
                    break
            rep.add("relation-compatibility", f"{gid},{hid}", PASS if ok else FAIL)
    return rep


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


class HCoreResult(namedtuple("HCoreResult", "core by_cap stabilized")):
    """The core at the last cap, the ``Subspace`` chain of cores for caps
    0, 1, ..., and whether the last two are equal."""

    __slots__ = ()

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.by_cap)


def hcore(
    action: ModuleAlgebraAction,
    ideal: IdealOracle,
    core_cap: int,
    conv_cap: int,
) -> HCoreResult:
    """Truncated stable core: elements of degree <= core_cap whose images
    under every basis monomial of degree <= conv_cap stay in the ideal.
    Computed as a stacked exact kernel; returns the whole chain of cores for
    caps 0..conv_cap together with the stabilization flag (last two equal)."""
    host, alg = action.host, action.algebra
    if conv_cap > host.data.degree_bound:
        raise TruncationError(
            f"conv cap {conv_cap} exceeds the host bound {host.data.degree_bound}"
        )
    cols = [i for i in range(alg.dim) if alg.degrees[i] <= core_cap]
    rows: list[dict[int, Scalar]] = []
    cores: list[Subspace] = []

    def embed(small: Subspace) -> Subspace:
        vectors = [{cols[t]: c for t, c in row.items()} for row in small.rows]
        return Subspace.from_sparse(vectors, alg.dim)

    for d in range(conv_cap + 1):
        # the indices of degree d are a run of positions
        for p in range(host.count_up_to(d - 1), host.count_up_to(d)):
            columns = action.columns(p)
            # one condition per normal basis vector: its coefficient in the
            # normal form of the image vanishes
            by_normal: dict[int, dict[int, Scalar]] = {}
            for t, c in enumerate(cols):
                for k, x in ideal.reduce(columns[c]).items():
                    by_normal.setdefault(k, {})[t] = x
            rows.extend(by_normal[k] for k in sorted(by_normal))
        cores.append(embed(kernel(rows, len(cols))))
    stabilized = len(cores) >= 2 and cores[-1] == cores[-2]
    return HCoreResult(cores[-1], tuple(cores), stabilized)


def core_primeness_probe(
    action: ModuleAlgebraAction,
    ideal: IdealOracle,
    ring: QuotientAlgebra,
    core: Subspace,
    mode: str,
    bound: int,
) -> Report:
    """Zero-divisor / witness probes on classes modulo the core.

    domain mode multiplies leading values (nonzero products imply nonzero
    convolution products by the exact leading-term law); prime and semiprime
    modes run the witness scans over A/I.  Outcomes beyond the ambient
    truncation are reported inconclusive."""
    rep = Report(f"probe-{mode}")
    if mode not in ("domain", "prime", "semiprime"):
        raise InputFormatError(f"unknown probe mode {mode!r}")
    if ideal.is_unit:
        rep.add(f"probe-{mode}", ideal.describe(), SKIP, "DegenerateIdeal")
        return rep
    alg = action.algebra
    candidates = [
        i
        for i in range(alg.dim)
        if alg.degrees[i] <= bound and not core.contains({i: Q1})
    ]
    images = {i: conv_map(action, ring, {i: Q1}) for i in candidates}

    if mode == "semiprime":
        for i in candidates:
            label = alg.basis_labels[i]
            add_witness_line(rep, label, images[i], inconclusive="truncated")
        return rep

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
    return rep
