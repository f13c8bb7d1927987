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

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .convolution import (
    ConvElement,
    leading,
    prime_witness,
    semiprime_witness,
)
from .errors import (
    ForeignGenerator,
    InputFormatError,
    NoWitnessFound,
    TruncationError,
)
from .linalg import (
    Q0,
    Q1,
    QMatrix,
    Subspace,
    Vector,
    complement,
    is_zero_vec,
    to_dense,
    to_sparse,
    unit_vec,
)
from .monoid import MultiIndex, ZERO_INDEX
from .pbw import PBWStructure
from .report import FAIL, INCONCLUSIVE, PASS, SKIP, Report
from .table import PolynomialAlgebra, TableAlgebra, monomial_label


# ---------------------------------------------------------------------------
# ideal oracles


class IdealOracle:
    """Membership, normal forms, and quotient coordinates for an ideal."""

    algebra: TableAlgebra

    def contains(self, v: Vector) -> bool:
        raise NotImplementedError

    def reduce(self, v: Vector) -> Vector:
        raise NotImplementedError

    @property
    def normal_labels(self) -> tuple[str, ...]:
        raise NotImplementedError

    def quotient_coords(self, v: Vector) -> Vector:
        raise NotImplementedError

    def lift(self, coords: Vector) -> Vector:
        raise NotImplementedError

    @property
    def is_unit(self) -> bool:
        return self.contains(self.algebra.unit_vector())

    @property
    def is_zero(self) -> bool:
        return self.quotient_dim == self.algebra.dim

    @property
    def quotient_dim(self) -> int:
        return len(self.normal_labels)

    def describe(self) -> str:
        raise NotImplementedError


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
            if not self._divisible(e)
        )

    def _divisible(self, exps: Sequence[int]) -> bool:
        return any(
            all(x >= y for x, y in zip(exps, g)) for g in self.generators
        )

    def contains(self, v: Vector) -> bool:
        return all(
            not c or self._divisible(self.algebra.monomials[i])
            for i, c in enumerate(v)
        )

    def reduce(self, v: Vector) -> Vector:
        return tuple(
            c if not self._divisible(self.algebra.monomials[i]) else Q0
            for i, c in enumerate(v)
        )

    @property
    def normal_labels(self) -> tuple[str, ...]:
        return tuple(self.algebra.basis_labels[t] for t in self._normal)

    def quotient_coords(self, v: Vector) -> Vector:
        return tuple(v[t] for t in self._normal)

    def lift(self, coords: Vector) -> Vector:
        out = [Q0] * self.algebra.dim
        for pos, c in enumerate(coords):
            out[self._normal[pos]] = c
        return tuple(out)

    def describe(self) -> str:
        if not self.generators:
            return "(0)"
        names = self.algebra.variables
        return "(" + ", ".join(monomial_label(names, g) for g in self.generators) + ")"


class PrincipalIdeal(IdealOracle):
    """Ideal generated by one polynomial; membership by exact division
    against its degree-lex leading term."""

    def __init__(self, algebra: PolynomialAlgebra, element: Vector):
        if not isinstance(algebra, PolynomialAlgebra):
            raise InputFormatError("principal ideals need a polynomial algebra")
        if is_zero_vec(element):
            raise InputFormatError("principal generator must be nonzero")
        self.algebra = algebra
        self.generator = tuple(element)
        lead = max(
            (t for t, c in enumerate(element) if c),
            key=lambda t: (sum(algebra.monomials[t]), algebra.monomials[t]),
        )
        self._lt_index = lead
        self._lt_exps = algebra.monomials[lead]
        self._lt_coeff = element[lead]
        self._normal = tuple(
            t
            for t, e in enumerate(algebra.monomials)
            if not all(x >= y for x, y in zip(e, self._lt_exps))
        )

    def _order_key(self, t: int):
        return (sum(self.algebra.monomials[t]), self.algebra.monomials[t])

    def reduce(self, v: Vector) -> Vector:
        alg = self.algebra
        work = {t: c for t, c in enumerate(v) if c}
        remainder: dict[int, Fraction] = {}
        while work:
            t = max(work, key=self._order_key)
            c = work.pop(t)
            exps = alg.monomials[t]
            if all(x >= y for x, y in zip(exps, self._lt_exps)):
                q = tuple(x - y for x, y in zip(exps, self._lt_exps))
                scale = c / self._lt_coeff
                for s, gc in enumerate(self.generator):
                    if not gc:
                        continue
                    target = tuple(
                        x + y for x, y in zip(q, alg.monomials[s])
                    )
                    tt = alg.index[target]
                    if tt == t:
                        continue
                    val = work.get(tt, Q0) - scale * gc
                    if val:
                        work[tt] = val
                    else:
                        work.pop(tt, None)
            else:
                remainder[t] = c
        out = [Q0] * alg.dim
        for t, c in remainder.items():
            out[t] = c
        return tuple(out)

    def contains(self, v: Vector) -> bool:
        return is_zero_vec(self.reduce(v))

    @property
    def normal_labels(self) -> tuple[str, ...]:
        return tuple(self.algebra.basis_labels[t] for t in self._normal)

    def quotient_coords(self, v: Vector) -> Vector:
        reduced = self.reduce(v)
        return tuple(reduced[t] for t in self._normal)

    def lift(self, coords: Vector) -> Vector:
        out = [Q0] * self.algebra.dim
        for pos, c in enumerate(coords):
            out[self._normal[pos]] = c
        return tuple(out)

    def describe(self) -> str:
        return f"({self.algebra.format(self.generator)})"


class SubspaceIdeal(IdealOracle):
    """An ideal of a finite-dimensional algebra given as a subspace;
    two-sidedness is validated on the basis at construction."""

    def __init__(self, algebra: TableAlgebra, subspace: Subspace):
        if isinstance(algebra, PolynomialAlgebra):
            raise InputFormatError("subspace ideals need a finite-dimensional algebra")
        if subspace.ambient_dim != algebra.dim:
            raise InputFormatError("subspace dimension mismatch")
        self.algebra = algebra
        self.subspace = subspace
        for row in subspace.basis:
            for i in range(algebra.dim):
                e = unit_vec(algebra.dim, i)
                if not subspace.contains(algebra.mul(e, row)) or not subspace.contains(
                    algebra.mul(row, e)
                ):
                    raise InputFormatError("subspace is not a two-sided ideal")
        self._complement = complement(subspace, Subspace.full(algebra.dim))

    def contains(self, v: Vector) -> bool:
        return self.subspace.contains(v)

    def reduce(self, v: Vector) -> Vector:
        return self.subspace.reduce(v)

    @property
    def normal_labels(self) -> tuple[str, ...]:
        return tuple(
            self.algebra.basis_labels[p] for p in self._complement.pivots
        )

    def quotient_coords(self, v: Vector) -> Vector:
        residual = self.subspace.reduce(v)
        return tuple(residual[p] for p in self._complement.pivots)

    def lift(self, coords: Vector) -> Vector:
        out = [Q0] * self.algebra.dim
        for c, row in zip(coords, self._complement.basis):
            if c:
                for j in range(self.algebra.dim):
                    if row[j]:
                        out[j] += c * row[j]
        return tuple(out)

    def describe(self) -> str:
        return f"subspace ideal of dim {self.subspace.dim}"


class QuotientAlgebra(TableAlgebra):
    """A/I on the normal basis of an ideal oracle.  The table holds the
    class of the product of every two lifted normal basis vectors; a pair
    whose lifted product truncates is left out, so multiplying through it
    raises TruncationError exactly as the product in A does."""

    def __init__(self, ideal: IdealOracle):
        algebra = ideal.algebra
        n = ideal.quotient_dim
        lifts = [ideal.lift(unit_vec(n, p)) for p in range(n)]
        table = {}
        for p, lp in enumerate(lifts):
            for q, lq in enumerate(lifts):
                try:
                    prod = algebra.mul(lp, lq)
                except TruncationError:
                    continue
                coords = ideal.quotient_coords(prod)
                table[(p, q)] = [(k, c) for k, c in enumerate(coords) if c]
        super().__init__(
            ideal.normal_labels,
            table,
            ideal.quotient_coords(algebra.unit_vector()),
            degree_bound=algebra.degree_bound,
            name=f"A/{ideal.describe()}",
        )
        self.ideal = ideal

    def project(self, v: Vector) -> Vector:
        return self.ideal.quotient_coords(v)


def quotient_ring(ideal: IdealOracle) -> QuotientAlgebra:
    return QuotientAlgebra(ideal)


# ---------------------------------------------------------------------------
# actions


SparseColumn = dict[int, Fraction]


def apply_columns(
    op: Sequence[SparseColumn], v: Mapping[int, Fraction]
) -> SparseColumn:
    """The image of the sparse vector v under the operator with sparse
    columns op; cancellation may leave zero entries."""
    out: SparseColumn = {}
    for j, x in v.items():
        _add_scaled(out, x, op[j])
    return out


def _add_scaled(acc: SparseColumn, c: Fraction, v: Mapping[int, Fraction]) -> None:
    for k, x in v.items():
        acc[k] = acc.get(k, Q0) + c * x


def _nonzero(v: SparseColumn) -> SparseColumn:
    return {k: c for k, c in v.items() if c}


class ModuleAlgebraAction:
    """Operators for the generator lifts, extended to every basis monomial
    as the increasing-order divided composition.

    Each operator is held by its sparse columns: column j is the image of
    the basis vector e_j as {index: coefficient}, without zeros."""

    def __init__(
        self,
        host: PBWStructure,
        algebra: TableAlgebra,
        gen_ops: Mapping[str, QMatrix],
    ):
        ids = set(host.gens.ids)
        for gid in gen_ops:
            if gid not in ids:
                raise ForeignGenerator(f"operator for unknown generator {gid!r}")
        missing = ids - set(gen_ops)
        if missing:
            raise InputFormatError(f"missing operators for {sorted(missing)}")
        for gid, op in gen_ops.items():
            if op.nrows != algebra.dim or op.ncols != algebra.dim:
                raise InputFormatError(f"operator for {gid!r} has the wrong shape")
        self.host = host
        self.algebra = algebra
        self.gen_ops = dict(gen_ops)
        self._gen_columns = {
            gid: [to_sparse(op.column(j)) for j in range(algebra.dim)]
            for gid, op in gen_ops.items()
        }
        self._columns: dict[MultiIndex, list[SparseColumn]] = {
            ZERO_INDEX: [{j: Q1} for j in range(algebra.dim)]
        }

    def columns(self, m: MultiIndex) -> list[SparseColumn]:
        """The sparse columns of the operator of e_m.  With g the first
        generator of m and k its multiplicity, the operator of e_m is
        (1/k) g composed with the operator of e_(m - g)."""
        cached = self._columns.get(m)
        if cached is not None:
            return cached
        gid = next(g for g, _ in self.host.gens.generators if m.mult(g))
        k = m.mult(gid)
        rest = self.columns(MultiIndex.make({**dict(m.entries), gid: k - 1}))
        op, scale = self._gen_columns[gid], Fraction(1, k)
        out = [
            {r: c * scale for r, c in apply_columns(op, col).items() if c}
            for col in rest
        ]
        self._columns[m] = out
        return out

    def act(self, m: MultiIndex, v: Vector) -> Vector:
        image = apply_columns(self.columns(m), to_sparse(v))
        return to_dense(image, self.algebra.dim)


def verify_module_algebra(action: ModuleAlgebraAction) -> Report:
    """Unit law, the comultiplication law on products of basis elements, and
    compatibility of the generator operators with the relations among the
    generator lifts."""
    rep = Report("module-algebra")
    host, alg = action.host, action.algebra
    data = host.data
    gens = host.gens

    one = alg.unit_vector()
    for gid, _ in gens.generators:
        eps = data.counit_of(host.lifts[gid])
        image = action.act(gens.delta(gid), one)
        expected = tuple(eps * c for c in one)
        rep.add(
            "unit-law",
            gid,
            PASS if image == expected else FAIL,
            "" if image == expected else "operator does not kill 1",
        )

    for gid, _ in gens.generators:
        act_g = action.columns(gens.delta(gid))
        terms = [
            (action.columns(i), action.columns(j), c)
            for i, j, c in host.expand_comult(gens.delta(gid))
        ]
        checked = skipped = bad = 0
        witness = ""
        for a in range(alg.dim):
            for b in range(alg.dim):
                # a pair is skipped when e_a e_b, or a product of the
                # supports of the images, lies past the truncation
                try:
                    lhs: SparseColumn = {}
                    for k, c in alg.product_terms(a, b):
                        _add_scaled(lhs, c, act_g[k])
                    rhs: SparseColumn = {}
                    for left, right, c in terms:
                        _add_scaled(rhs, c, alg.mul_sparse(left[a], right[b]))
                except TruncationError:
                    skipped += 1
                    continue
                checked += 1
                if _nonzero(lhs) != _nonzero(rhs):
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

    for gid, dg in gens.generators:
        for hid, dh in gens.generators:
            if dg + dh > data.degree_bound:
                continue
            prod = data.multiply(host.lifts[gid], host.lifts[hid])
            expansion = host.pbw_coords(prod)
            op_g = action.columns(gens.delta(gid))
            ok = True
            for j, col_h in enumerate(action.columns(gens.delta(hid))):
                expected: SparseColumn = {}
                for idx, c in expansion.items():
                    _add_scaled(expected, c, action.columns(idx)[j])
                if _nonzero(apply_columns(op_g, col_h)) != _nonzero(expected):
                    ok = False
                    break
            rep.add("relation-compatibility", f"{gid},{hid}", PASS if ok else FAIL)
    return rep


def conv_map(
    action: ModuleAlgebraAction, ring: QuotientAlgebra, a: Vector
) -> ConvElement:
    """The element (index -> class of the image of a) of the convolution
    algebra over A/I; its kernel over all of A is the stable core."""
    values = {}
    for m in action.host.indices:
        coords = ring.project(action.act(m, a))
        if not is_zero_vec(coords):
            values[m] = coords
    return ConvElement(action.host, ring, values)


@dataclass(frozen=True)
class HCoreResult:
    core: Subspace
    by_cap: tuple[Subspace, ...]
    stabilized: bool

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.by_cap)

    @property
    def stabilized_at(self) -> Optional[int]:
        """Smallest cap at which the core stopped shrinking, if any."""
        for d in range(1, len(self.by_cap)):
            if self.by_cap[d] == self.by_cap[d - 1]:
                return d
        return None


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
    col_pos = {c: t for t, c in enumerate(cols)}
    rows: list[Vector] = []
    cores: list[Subspace] = []

    def embed(small: Subspace) -> Subspace:
        vectors = []
        for row in small.basis:
            big = [Q0] * alg.dim
            for t, c in enumerate(row):
                big[cols[t]] = c
            vectors.append(big)
        return Subspace.from_vectors(vectors, alg.dim)

    by_degree: dict[int, list[MultiIndex]] = {}
    for m in host.indices:
        by_degree.setdefault(host.gens.degree(m), []).append(m)

    for d in range(conv_cap + 1):
        for m in by_degree.get(d, []):
            columns = action.columns(m)
            images = [
                ideal.quotient_coords(to_dense(columns[c], alg.dim)) for c in cols
            ]
            for pos in range(ideal.quotient_dim):
                row = tuple(images[t][pos] for t in range(len(cols)))
                if not is_zero_vec(row):
                    rows.append(row)
        cores.append(embed(QMatrix(rows, len(cols)).kernel()))
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
        if alg.degrees[i] <= bound and not core.contains(unit_vec(alg.dim, i))
    ]
    images = {i: conv_map(action, ring, unit_vec(alg.dim, i)) for i in candidates}

    if mode == "semiprime":
        for i in candidates:
            try:
                witness = semiprime_witness(images[i])
                rep.add(
                    "semiprime-witness",
                    alg.basis_labels[i],
                    PASS,
                    f"r={ring.format(witness.r)}",
                )
            except TruncationError:
                rep.add(
                    "semiprime-witness", alg.basis_labels[i], INCONCLUSIVE, "truncated"
                )
            except NoWitnessFound as exc:
                rep.add("semiprime-witness", alg.basis_labels[i], FAIL, str(exc))
        return rep

    for ti, i in enumerate(candidates):
        for j in candidates[ti:]:
            subject = f"{alg.basis_labels[i]},{alg.basis_labels[j]}"
            if mode == "domain":
                li, lj = leading(images[i]), leading(images[j])
                total = action.host.gens.add(li.index, lj.index)
                if (
                    action.host.gens.degree(total)
                    > action.host.data.degree_bound
                ):
                    rep.add("domain-probe", subject, INCONCLUSIVE, "truncated")
                    continue
                try:
                    # zero divisors need not be two-sided, so probe both
                    # orientations of the leading values
                    zero = any(
                        ring.is_zero(ring.mul(u, v))
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
                try:
                    witness = prime_witness(images[i], images[j])
                    rep.add(
                        "prime-witness",
                        subject,
                        PASS,
                        f"r={ring.format(witness.r)}",
                    )
                except TruncationError:
                    rep.add("prime-witness", subject, INCONCLUSIVE, "truncated")
                except NoWitnessFound as exc:
                    rep.add("prime-witness", subject, FAIL, str(exc))
    return rep
