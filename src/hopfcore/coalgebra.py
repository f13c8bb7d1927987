"""Truncated bialgebra structure constants and their filtration machinery.

A ``FilteredBialgebraData`` stores a basis-indexed multiplication table
(partial: entries whose exact degree would exceed the truncation bound are
simply absent), a total comultiplication table, the counit, the position of
the unit, and optionally an antipode table.  On top of that this module
computes

* the ascending filtration C_0 = Q·1, C_{j+1} = {x : Delta(x) in
  C_j (x) C + C (x) C_0}, with connectedness = exhaustion at the bound;
* a deterministic graded splitting H(n) with C_n = H(0) + ... + H(n) and
  eps(H(n)) = 0 for n >= 1;
* the associated graded bialgebra on the splitting basis, whose
  comultiplication delta is the degree-preserving part of Delta;
* membership checks (primitivity defects, degree consistency of delta,
  gradedness of the filtration of the associated graded object) used by the
  verification suites.

Everything is exact over Q and deterministic.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property
from math import comb
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    HopfcoreError,
    InputFormatError,
    NotABialgebra,
    NotExhaustive,
    TruncationError,
)
from .linalg import (
    Q0,
    Q1,
    Rational,
    Scalar,
    SparseRow,
    Subspace,
    combine,
    complement,
    inverse,
    kernel,
    nonzero,
    rat,
    rat_str,
)
from .monoid import splittings
from .report import FAIL, PASS, SKIP, Report
from .table import (
    SparseVec,
    TableAlgebra,
    exponent_table,
    graded_monomials,
    json_int,
    json_object,
    parse_table,
    sparse,
    string_list,
)

TensorMap = dict[tuple[int, int], Scalar]


class FilteredBialgebraData(TableAlgebra):
    """Basis-indexed structure constants of a truncated bialgebra: the
    product table plus the fields ``comult`` (one row of terms (j, k, c) per
    basis element), ``counit`` (a functional, held by its values on the
    basis in order) and ``antipode`` ({i: sparse row}, None when the instance
    has no antipode table), all kept as given: sorted, without zeros, in
    normal form.  A product or comultiplication row that is not a tuple is
    refused.  ``raw`` is True for the tables of a raw instance file, which
    only the axiom checks vouch for; the builders' tables are bialgebras by
    construction."""

    raw = False

    def __init__(
        self,
        basis_labels: Sequence[str],
        degree_bound: int,
        mult: Mapping[tuple[int, int], SparseVec],
        comult: Sequence[tuple[tuple[int, int, Scalar], ...]],
        counit: Sequence,
        unit_index: int,
        antipode: Optional[Mapping[int, SparseVec]] = None,
        filtration_hint: Optional[Sequence[int]] = None,
    ):
        dim = len(basis_labels)
        super().__init__(
            basis_labels, mult, {unit_index: Q1}, filtration_hint, int(degree_bound)
        )
        if not (0 <= unit_index < dim):
            raise InputFormatError("unit index out of range")
        if len(comult) != dim:
            raise InputFormatError("comultiplication table must cover every basis element")
        if degree_bound < 1:
            raise InputFormatError("degree bound must be positive")
        self.unit_index = int(unit_index)
        for i, row in enumerate(comult):
            if type(row) is not tuple:
                raise InputFormatError(
                    f"comultiplication row of {self.basis_labels[i]} must be a tuple, "
                    f"got {type(row).__name__}"
                )
        self.comult = tuple(comult)
        self.counit = tuple(rat(c) for c in counit)
        if len(self.counit) != dim:
            raise InputFormatError("counit must be a functional on the basis")
        self.antipode = antipode

    # -- linear extensions ---------------------------------------------------

    def comult_map(self, v: Mapping[int, Scalar]) -> TensorMap:
        out: TensorMap = {}
        for i, a in v.items():
            for j, k, c in self.comult[i]:
                key = (j, k)
                out[key] = out.get(key, Q0) + a * c
        return {key: c for key, c in out.items() if c}

    def antipode_of(self, v: Mapping[int, Scalar]) -> SparseRow:
        out: SparseRow = {}
        for i, a in v.items():
            for k, c in self.antipode.get(i, ()):
                out[k] = out.get(k, Q0) + a * c
        return nonzero(out)


# ---------------------------------------------------------------------------
# axiom verification


def verify_axioms(rep: Report, data: FilteredBialgebraData) -> None:
    """Check counit laws, coassociativity, unit laws, and multiplicativity
    of the comultiplication and counit wherever truncation permits."""
    dim = data.dim
    eps, comult, mult = data.counit, data.comult, data.mult

    if eps[data.unit_index] != 1:
        rep.add("counit-unit", data.basis_labels[data.unit_index], FAIL, "eps(1) != 1")
    else:
        rep.add("counit-unit", data.basis_labels[data.unit_index], PASS)

    for i in range(dim):
        left: SparseRow = {}
        right: SparseRow = {}
        for j, k, c in comult[i]:
            if eps[j]:
                left[k] = left.get(k, Q0) + c * eps[j]
            if eps[k]:
                right[j] = right.get(j, Q0) + c * eps[k]
        ok = nonzero(left) == nonzero(right) == {i: Q1}
        rep.add("counit", data.basis_labels[i], PASS if ok else FAIL)

    for i in range(dim):
        diff: dict[tuple[int, int, int], Scalar] = {}
        for j, k, c in comult[i]:
            for a, b, c2 in comult[j]:
                key = (a, b, k)
                diff[key] = diff.get(key, Q0) + c * c2
            for a, b, c2 in comult[k]:
                key = (j, a, b)
                diff[key] = diff.get(key, Q0) - c * c2
        rep.add(
            "coassociativity",
            data.basis_labels[i],
            FAIL if any(diff.values()) else PASS,
        )

    u = data.unit_index
    for i in range(dim):
        ok = True
        detail = ""
        for pair in ((u, i), (i, u)):
            if pair not in mult:
                ok = False
                detail = "unit product undefined"
                break
            if mult[pair] != ((i, Q1),):
                ok = False
                detail = "unit law violated"
                break
        rep.add("unit-law", data.basis_labels[i], PASS if ok else FAIL, detail)

    for i, j in sorted(mult):
        prod = mult[i, j]
        subject = f"{data.basis_labels[i]},{data.basis_labels[j]}"
        eps_prod = sum(c * eps[k] for k, c in prod)
        rep.add(
            "counit-multiplicative",
            subject,
            PASS if eps_prod == eps[i] * eps[j] else FAIL,
        )

        factors = [
            (mult.get((a, a2)), mult.get((b, b2)), c1 * c2)
            for a, b, c1 in comult[i]
            for a2, b2, c2 in comult[j]
        ]
        if any(left is None or right is None for left, right, _ in factors):
            rep.add("comult-multiplicative", subject, SKIP, "tensor factor truncated")
            continue
        diff: dict[tuple[int, int], Scalar] = {}
        for k, c in prod:
            for a, b, c2 in comult[k]:
                key = (a, b)
                diff[key] = diff.get(key, Q0) + c * c2
        for left, right, cc in factors:
            for kl, cl in left:
                ccl = cc * cl
                for kr, cr in right:
                    key = (kl, kr)
                    diff[key] = diff.get(key, Q0) - ccl * cr
        rep.add(
            "comult-multiplicative",
            subject,
            FAIL if any(diff.values()) else PASS,
        )


def check_antipode(data: FilteredBialgebraData) -> None:
    """The antipode law S * id = eta eps = id * S on every basis element
    whose law needs no product past the truncation; raises NotABialgebra
    naming the first element where it fails.  An instance
    without an antipode table has nothing to check."""
    antipode = data.antipode
    if antipode is None:
        return
    for i in range(data.dim):
        eps = data.counit[i]
        expected = {data.unit_index: eps} if eps else {}
        left: dict[int, Scalar] = {}
        right: dict[int, Scalar] = {}
        try:
            for j, k, c in data.comult[i]:
                for side, u, v in (
                    (left, dict(antipode.get(j, ())), {k: c}),
                    (right, {j: c}, dict(antipode.get(k, ()))),
                ):
                    for t, x in data.mul(u, v).items():
                        side[t] = side.get(t, Q0) + x
        except TruncationError:
            continue
        if any(nonzero(side) != expected for side in (left, right)):
            raise NotABialgebra(
                f"antipode law S * id = eta eps = id * S fails at {data.basis_labels[i]}"
            )


# ---------------------------------------------------------------------------
# coradical filtration


class CoradicalFiltration(namedtuple("CoradicalFiltration", "layers")):
    """Nested layers C_0 <= C_1 <= ... <= C_D (a tuple of ``Subspace``s)
    inside the truncated space."""

    __slots__ = ()

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(layer.dim for layer in self.layers)

    @property
    def exhaustive(self) -> bool:
        return self.layers[-1].dim == self.layers[-1].ambient_dim


def _filtration_step(
    data: FilteredBialgebraData, prev: Subspace, base: Subspace
) -> Subspace:
    """{x : Delta(x) in prev (x) C + C (x) base} via quotient coordinates."""
    dim = data.dim
    qprev = prev.quotient_units()
    qbase = base.quotient_units()
    rows: dict[tuple[int, int], dict[int, Scalar]] = {}
    for t, terms in enumerate(data.comult):
        for j, k, c in terms:
            pj = qprev[j]
            if not pj:
                continue
            pk = qbase[k]
            if not pk:
                continue
            for a, ca in pj.items():
                cac = c * ca
                for b, cb in pk.items():
                    row = rows.get((a, b))
                    if row is None:
                        row = rows[(a, b)] = {}
                    row[t] = row.get(t, Q0) + cac * cb
    return kernel([rows[key] for key in sorted(rows)], dim)


def coradical_filtration(data: FilteredBialgebraData) -> CoradicalFiltration:
    """Ascending filtration from C_0 = span{1}, up to the bound or to the
    layer where it stalls below the full truncated space; the
    connectedness step ``require_connected`` tells the two apart."""
    dim = data.dim
    base = Subspace.from_sparse([{data.unit_index: Q1}], dim)
    layers = [base]
    for _ in range(data.degree_bound):
        prev = layers[-1]
        if prev.dim == dim:
            layers.append(prev)
            continue
        nxt = _filtration_step(data, prev, base)
        if nxt.dim == prev.dim:
            break
        layers.append(nxt)
    return CoradicalFiltration(tuple(layers))


def require_connected(
    filt: CoradicalFiltration, degree_bound: int
) -> CoradicalFiltration:
    """The filtration itself if it exhausts the truncated space; raises
    NotExhaustive, saying where it stopped, otherwise."""
    if filt.exhaustive:
        return filt
    top = filt.layers[-1]
    if len(filt.layers) <= degree_bound:
        raise NotExhaustive(
            f"filtration stalls at dimension {top.dim} of {top.ambient_dim} "
            f"(layer dims so far: {list(filt.dims)})"
        )
    raise NotExhaustive(
        f"filtration reaches dimension {top.dim} of {top.ambient_dim} at the bound"
    )


# ---------------------------------------------------------------------------
# graded splitting


class GradedSplitting(
    namedtuple("GradedSplitting", "data vectors degrees labels to_split_units")
):
    """Homogeneous components H(n) with C_n = H(0) + ... + H(n), the basis
    change onto the splitting basis, and the comultiplication of every
    splitting vector in split coordinates.

    One entry per splitting vector, H(0) first and then H(1), ..., H(D):
    ``vectors`` (on the basis of ``data``), ``degrees``, ``labels`` and
    ``comult`` (a ``TensorMap`` in split coordinates, built on first read
    and kept in the instance's dict, so it takes no ``__slots__``);
    ``to_split_units[j]`` holds the split coordinates of basis vector j of
    ``data``.  Raw and split coordinates are both sparse {index:
    coefficient} without zeros."""

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @cached_property
    def comult(self) -> tuple[TensorMap, ...]:
        units = self.to_split_units
        return tuple(_split_tensor(units, self.data.comult_map(v)) for v in self.vectors)

    def to_split(self, v: Mapping[int, Scalar]) -> SparseRow:
        """Split coordinates of a raw vector."""
        return combine(self.to_split_units, v)

    def product(self, a: int, b: int) -> SparseRow:
        """Split coordinates of the product of splitting vectors a and b;
        raises TruncationError when the product leaves the truncation."""
        return self.to_split(self.data.mul(self.vectors[a], self.vectors[b]))

    def max_degree(self, coords: Mapping[int, Scalar]) -> int:
        return max((self.degrees[k] for k, c in coords.items() if c), default=0)


def _split_tensor(
    units: Sequence[Mapping[int, Scalar]], tmap: TensorMap
) -> TensorMap:
    out: TensorMap = {}
    for (a, b), c in tmap.items():
        for p, cp in units[a].items():
            ccp = c * cp
            for q, cq in units[b].items():
                key = (p, q)
                out[key] = out.get(key, Q0) + ccp * cq
    return {key: c for key, c in out.items() if c}


def graded_splitting(
    filt: CoradicalFiltration, data: FilteredBialgebraData
) -> GradedSplitting:
    """Deterministic splitting: H(0) = span{1} and H(n) the pivot-greedy
    complement of C_{n-1} in C_n corrected into the kernel of the counit."""
    comps = [filt.layers[0]]
    for n in range(1, len(filt.layers)):
        comps.append(complement(filt.layers[n - 1], filt.layers[n], data.counit))

    vectors: list[SparseRow] = []
    degrees: list[int] = []
    labels: list[str] = []
    used: set[str] = set()
    for n, comp in enumerate(comps):
        for row, pivot in zip(comp.rows, comp.pivots):
            vectors.append(row)
            degrees.append(n)
            name = data.basis_labels[pivot]
            if name in used:
                name = f"{name}#{n}"
            used.add(name)
            labels.append(name)

    # to_split_units[j] is column j of the inverse of the matrix whose
    # columns are the splitting vectors, i.e. row j of the inverse of its
    # transpose, whose rows are the splitting vectors
    return GradedSplitting(
        data=data,
        vectors=tuple(vectors),
        degrees=tuple(degrees),
        labels=tuple(labels),
        to_split_units=tuple(inverse(vectors, data.dim)),
    )


class GradedBialgebra(FilteredBialgebraData):
    """The associated graded bialgebra of a splitting, on the splitting
    basis, with the product table ``mult`` that ``gr_structure`` computes.
    Its ``comult``, the degree-preserving part of the splitting's, is built
    on first read."""

    def __init__(self, split: GradedSplitting, mult: Mapping[tuple[int, int], SparseVec]):
        TableAlgebra.__init__(
            self, split.labels, mult, {0: Q1}, split.degrees, split.data.degree_bound
        )
        self.unit_index = 0
        self.counit = (Q1,) + (Q0,) * (split.dim - 1)
        self.antipode = None
        self.split = split

    @cached_property
    def comult(self) -> tuple[tuple[tuple[int, int, Scalar], ...], ...]:
        degrees = self.degrees
        return tuple(
            tuple(
                sorted(
                    (p, q, c)
                    for (p, q), c in tmap.items()
                    if degrees[p] + degrees[q] == degrees[k]
                )
            )
            for k, tmap in enumerate(self.split.comult)
        )


def gr_structure(split: GradedSplitting) -> GradedBialgebra:
    """The associated graded bialgebra on the splitting basis: products are
    top-degree components of products of splitting vectors, comultiplication
    is the degree-preserving part of the splitting's ``comult``."""
    data = split.data
    dim = split.dim
    degrees = split.degrees
    bound = data.degree_bound
    mult: dict[tuple[int, int], SparseVec] = {}
    for a in range(dim):
        for b in range(dim):
            target = degrees[a] + degrees[b]
            if target > bound:
                continue
            coords = split.product(a, b)
            if any(degrees[k] > target for k in coords):
                raise HopfcoreError(
                    f"product {split.labels[a]} * {split.labels[b]} escapes "
                    f"filtration degree {target}"
                )
            mult[(a, b)] = sparse(
                (k, c) for k, c in coords.items() if degrees[k] == target
            )
    return GradedBialgebra(split, mult)


# ---------------------------------------------------------------------------
# membership checks


def _illegal_bidegree(dp: int, dq: int, n: int) -> bool:
    """Whether a split tensor entry of bidegree (dp, dq) lies outside
    sum_{i=1}^{n-1} C_i (x) C_{n-i}: a side of degree above n-1 or a total
    degree above n."""
    return dp + dq > n or dp > n - 1 or dq > n - 1


def check_primitivity_defects(
    rep: Report, data: FilteredBialgebraData, split: GradedSplitting
) -> None:
    """Primitivity defect of every basis element h in C_n lands in
    sum_{i=1}^{n-1} C_i (x) C_{n-i}.  The layer n of h is the top degree
    of its split coordinates, and its split Delta their combination of the
    splitting vectors' ``comult``; the line names the first illegal entry.

    The unit (x) unit cell is tolerated at every level, including n = 1.
    For an element h with nonzero counit the defect picks up -eps(h)
    1 (x) 1, so this amounts to checking the counit-normalized element
    h - eps(h) 1; both readings agree whenever eps(h) = 0, which covers
    every basis element of the shipped instances."""
    degrees, labels = split.degrees, data.basis_labels
    for i, units in enumerate(split.to_split_units):
        n = split.max_degree(units)
        if n == 0:
            rep.add("primitivity-defect", labels[i], SKIP, "degree 0")
            continue
        tmap = combine(split.comult, units)
        for k, c in units.items():
            for key, delta_c in (((0, k), c), ((k, 0), c)):
                val = tmap.get(key, Q0) - delta_c
                if val:
                    tmap[key] = val
                else:
                    tmap.pop(key, None)
        why = ""
        for (p, q), c in tmap.items():
            dp, dq = degrees[p], degrees[q]
            if _illegal_bidegree(dp, dq, n):
                why = f"illegal entry at bidegree ({dp},{dq}) coeff {rat_str(c)}"
                break
        rep.add("primitivity-defect", f"{labels[i]} (n={n})", FAIL if why else PASS, why)


def check_delta_consistency(rep: Report, split: GradedSplitting) -> None:
    """The comultiplication agrees with its degree-preserving part modulo
    components of strictly smaller total degree: that part (gr's
    ``comult``) is exactly the part at the element's degree, so no entry
    may lie above it."""
    degrees = split.degrees
    for k, n in enumerate(degrees):
        bad = [(p, q) for p, q in split.comult[k] if degrees[p] + degrees[q] > n]
        rep.add(
            "delta-consistency",
            split.labels[k],
            PASS if not bad else FAIL,
            "" if not bad else f"non-lower remainder at {bad[0]}",
        )


def check_coradically_graded(rep: Report, gr: FilteredBialgebraData) -> None:
    """The filtration of the associated graded object is the degree
    filtration."""
    degrees = gr.degrees
    if degrees is None:
        rep.add("coradically-graded", "-", FAIL, "missing degree labels")
        return
    try:
        filt = require_connected(coradical_filtration(gr), gr.degree_bound)
    except NotExhaustive as exc:
        rep.add("coradically-graded", "-", FAIL, str(exc))
        return
    for n, layer in enumerate(filt.layers):
        expected = Subspace.from_sparse(
            [{k: Q1} for k in range(gr.dim) if degrees[k] <= n], gr.dim
        )
        rep.add(
            "coradically-graded",
            f"layer {n}",
            PASS if layer == expected else FAIL,
            f"dim {layer.dim} vs degree span {expected.dim}"
            if layer != expected
            else "",
        )


def verify_gr_facts(
    rep: Report,
    gr: FilteredBialgebraData,
    data: FilteredBialgebraData,
    split: GradedSplitting,
) -> None:
    """Filtration is an algebra filtration, is stable under the antipode
    (when one is supplied), and the associated graded algebra is
    commutative.  ``gr`` is ``gr_structure(split)``, which multiplied every
    pair of splitting vectors within the bound and would have raised on a
    product escaping its degree, so every degree pair passes."""
    bound = data.degree_bound
    degrees = gr.degrees
    present = sorted(set(degrees))
    for n in present:
        for m in present:
            if n + m <= bound:
                rep.add("filtration-multiplicative", f"C_{n}*C_{m}", PASS)

    if data.antipode is not None:
        for k, v in enumerate(split.vectors):
            ok = split.max_degree(split.to_split(data.antipode_of(v))) <= degrees[k]
            rep.add("antipode-stability", split.labels[k], PASS if ok else FAIL)
    else:
        rep.add("antipode-stability", "-", SKIP, "no antipode table")

    commutative = True
    for a in range(gr.dim):
        for b in range(a, gr.dim):
            if degrees[a] + degrees[b] > bound:
                continue
            if gr.mult[a, b] != gr.mult[b, a]:
                commutative = False
                rep.add(
                    "gr-commutative",
                    f"{gr.basis_labels[a]},{gr.basis_labels[b]}",
                    FAIL,
                )
    if commutative:
        rep.add("gr-commutative", "all pairs", PASS)


def _level_table(gr: FilteredBialgebraData, n: int) -> list[Optional[tuple]]:
    """For each basis element e_k, the entries of its primitivity defect
    Delta(e_k) - e_k (x) 1 - 1 (x) e_k at an illegal bidegree
    (``_illegal_bidegree``) at level n, or None when e_k lies above level
    n."""
    degrees = gr.degrees
    assert degrees is not None
    table: list[Optional[tuple]] = []
    for k in range(gr.dim):
        if degrees[k] > n:
            table.append(None)
            continue
        entries: TensorMap = {}
        for p, q, c in gr.comult[k]:
            if _illegal_bidegree(degrees[p], degrees[q], n):
                entries[(p, q)] = entries.get((p, q), Q0) + c
        for p, q in ((0, k), (k, 0)):
            if _illegal_bidegree(degrees[p], degrees[q], n):
                entries[(p, q)] = entries.get((p, q), Q0) - 1
        table.append(tuple((key, c) for key, c in entries.items() if c))
    return table


def _in_primitive_set(
    table: Sequence[Optional[tuple]], v: Mapping[int, Scalar]
) -> bool:
    """Whether the sparse element v passes the primitivity-defect check at
    the level of ``table`` (from ``_level_table``): its defect is summed
    only over the entries that check rejects."""
    defect: TensorMap = {}
    for k, c in v.items():
        if not c:
            continue
        entries = table[k]
        if entries is None:
            return False
        for key, cc in entries:
            defect[key] = defect.get(key, Q0) + c * cc
    return not any(defect.values())


# the values of randint(-2, 2): rng.choice draws one of them by a single
# _randbelow(5) call, as randint does, so the draws and the generator state
# are the same, at about half the cost
SAMPLE_COEFFS = (-2, -1, 0, 1, 2)


def check_level_closure(rep: Report, gr: FilteredBialgebraData, rng, samples: int) -> None:
    """Sampled closure of the primitivity-defect levels under products and
    sums in the associated graded object."""
    degrees = gr.degrees
    assert degrees is not None
    bound = gr.degree_bound

    def random_level_element(n: int) -> dict[int, Scalar]:
        coords: dict[int, Scalar] = {}
        for k in range(gr.dim):
            if degrees[k] <= n:
                c = rng.choice(SAMPLE_COEFFS)
                if c:
                    coords[k] = c
        return coords or {0: Q1}

    tables: dict[int, list] = {}

    def member(v: Mapping[int, Scalar], n: int) -> bool:
        if n not in tables:
            tables[n] = _level_table(gr, n)
        return _in_primitive_set(tables[n], v)

    levels = range(1, bound + 1)
    for trial in range(samples):
        n = rng.choice(levels)
        m = rng.choice(levels)
        b = random_level_element(n)
        c = random_level_element(m)
        ok_b = member(b, n)
        ok_c = member(c, m)
        checks = [("membership", ok_b and ok_c)]
        if n + m <= bound:
            checks.append(("product", member(gr.mul(b, c), n + m)))
        total = dict(b)
        for k, y in c.items():
            total[k] = total.get(k, Q0) + y
        checks.append(("sum", member(total, max(n, m))))
        bad = [name for name, ok in checks if not ok]
        rep.add(
            "level-closure",
            f"trial {trial} (n={n}, m={m})",
            PASS if not bad else FAIL,
            ",".join(bad),
        )


# ---------------------------------------------------------------------------
# builders


def build_ueg(
    generators: Sequence[str],
    brackets: Mapping[str, Mapping[str, Mapping[str, object]]],
    degree_bound: int,
) -> FilteredBialgebraData:
    """Enveloping algebra of a finite-dimensional Lie algebra, truncated at
    the given total degree, on the ordered divided-power monomial basis.

    ``brackets[a][b]`` gives [a, b] as a coefficient map on the generators;
    omitted pairs commute.  Antisymmetry and the Jacobi identity are
    validated before any table is built.
    """
    names = [str(g) for g in generators]
    if len(set(names)) != len(names):
        raise InputFormatError("duplicate generator names")
    pos = {g: i for i, g in enumerate(names)}
    g = len(names)

    bracket: dict[tuple[int, int], dict[int, Scalar]] = {}
    for a, row in brackets.items():
        for b, combo in row.items():
            if a not in pos or b not in pos:
                raise InputFormatError(f"bracket on unknown generators [{a},{b}]")
            entry = {}
            for k, c in combo.items():
                if k not in pos:
                    raise InputFormatError(f"bracket value on unknown generator {k!r}")
                val = rat(c)
                if val:
                    entry[pos[k]] = val
            i, j = pos[a], pos[b]
            if i == j:
                if entry:
                    raise HopfcoreError(f"[{a},{a}] must vanish")
                continue
            for key, table in (((i, j), entry), ((j, i), {t: -c for t, c in entry.items()})):
                if key in bracket and bracket[key] != table:
                    raise HopfcoreError(
                        f"inconsistent antisymmetric pair for [{a},{b}]"
                    )
                bracket[key] = table

    def brk(i: int, j: int) -> dict[int, Scalar]:
        return bracket.get((i, j), {})

    for i, j, k in itertools.combinations(range(g), 3):
        acc: dict[int, Scalar] = {}
        for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in brk(x, y).items():
                for l, cl in brk(m, z).items():
                    acc[l] = acc.get(l, Q0) + cm * cl
        if any(acc.values()):
            raise HopfcoreError(
                f"Jacobi identity fails on ({names[i]},{names[j]},{names[k]})"
            )

    monos, labels = graded_monomials(names, degree_bound, divided=True)
    index = {e: t for t, e in enumerate(monos)}
    unit = index[(0,) * g]
    degrees = [sum(e) for e in monos]

    def shift(e: tuple[int, ...], i: int, by: int) -> int:
        """The index of the monomial e with its exponent of x_i moved by by."""
        return index[e[:i] + (e[i] + by,) + e[i + 1 :]]

    def divided(terms: Iterable[tuple[int, Scalar]], d: int) -> SparseVec:
        """The merged terms divided by d, in the normal form of ``sparse``."""
        entry: dict[int, Scalar] = {}
        for k, c in terms:
            entry[k] = entry.get(k, Q0) + c
        return tuple((k, Rational(c, d)) for k, c in sorted(entry.items()) if c)

    # left[f][t] = x_f e_t below the bound, filled degree by degree with f
    # ascending within a degree.  With h the first generator of e_t (g for
    # the unit), e_t = x_h e_(t-h) / t_h, so x_f e_t = (t_f + 1) e_(t+f) for
    # f <= h and otherwise (x_h (x_f e_(t-h)) + [x_f, x_h] e_(t-h)) / t_h,
    # whose x_h term reads left[h] at the degree of e_t
    low = sum(1 for d in degrees if d < degree_bound)
    left: list[list[SparseVec]] = [[()] * low for _ in range(g)]
    for d in range(degree_bound):
        run = [t for t in range(low) if degrees[t] == d]
        for f in range(g):
            for t in run:
                e = monos[t]
                h = next((i for i, x in enumerate(e) if x), g)
                if f <= h:
                    left[f][t] = ((shift(e, f, 1), e[f] + 1),)
                    continue
                rest = shift(e, h, -1)
                left[f][t] = divided(
                    itertools.chain(
                        ((k, c * v) for s, c in left[f][rest] for k, v in left[h][s]),
                        ((k, c * v)
                         for j, c in brk(f, h).items() for k, v in left[j][rest]),
                    ),
                    e[h],
                )

    # e_a = x_f e_(a-f) / a_f for the first generator f of e_a, so
    # e_a e_b = x_f (e_(a-f) e_b) / a_f and S(e_a) = -S(e_(a-f)) e_f / a_f
    mult = {(unit, b): ((b, Q1),) for b in range(len(monos))}
    antipode = {unit: ((unit, Q1),)}
    for a, e in enumerate(monos):
        if a == unit:
            continue
        f = next(i for i, x in enumerate(e) if x)
        rest = shift(e, f, -1)
        for b in range(len(monos)):
            if degrees[a] + degrees[b] > degree_bound:
                break
            mult[(a, b)] = divided(
                ((k, c * v) for s, c in mult[(rest, b)] for k, v in left[f][s]), e[f]
            )
        xf = shift((0,) * g, f, 1)
        antipode[a] = divided(
            ((k, c * v) for s, c in antipode[rest] for k, v in mult[(s, xf)]), -e[f]
        )

    comult = [
        tuple(sorted((index[p], index[q], Q1) for p, q in splittings(e)))
        for e in monos
    ]
    return FilteredBialgebraData(
        basis_labels=labels,
        degree_bound=degree_bound,
        mult=mult,
        comult=comult,
        counit=[Q1 if d == 0 else Q0 for d in degrees],
        unit_index=unit,
        antipode=antipode,
        filtration_hint=degrees,
    )


def build_xyw(degree_bound: int) -> FilteredBialgebraData:
    """Commutative polynomial bialgebra on x, y (weight 1) and w (weight 2)
    with primitive x, y and Delta(w) = w(x)1 + 1(x)w + x(x)y; commutative but
    not cocommutative."""
    if degree_bound < 2:
        raise InputFormatError("the x,y,w instance needs degree bound >= 2")
    D = degree_bound
    monos, labels = graded_monomials(("x", "y", "w"), D, weights=(1, 1, 2))
    index = {e: t for t, e in enumerate(monos)}
    degrees = [a + b + 2 * c for a, b, c in monos]

    comult = []
    for (a, b, c) in monos:
        row: dict[tuple[int, int], Scalar] = {}
        for i in range(a + 1):
            ca = comb(a, i)
            for j in range(b + 1):
                cab = ca * comb(b, j)
                for p in range(c + 1):
                    cp = cab * comb(c, p)
                    for q in range(c - p + 1):
                        r = c - p - q
                        key = (index[i + r, j, p], index[a - i, b - j + r, q])
                        row[key] = row.get(key, Q0) + cp * comb(c - p, q)
        comult.append(tuple((j, k, v) for (j, k), v in sorted(row.items())))

    counit = [Q1 if d == 0 else Q0 for d in degrees]

    antipode = {
        t: sparse(
            (index[a + s, b + s, c - s], comb(c, s) * (-1) ** (a + b + c - s))
            for s in range(c + 1)
        )
        for t, (a, b, c) in enumerate(monos)
    }

    return FilteredBialgebraData(
        basis_labels=labels,
        degree_bound=D,
        mult=exponent_table(monos, degrees, D),
        comult=comult,
        counit=counit,
        unit_index=index[(0, 0, 0)],
        antipode=antipode,
        filtration_hint=degrees,
    )


# ---------------------------------------------------------------------------
# instance files


def _raw_from_tables(degree_bound: int, tables: Mapping) -> FilteredBialgebraData:
    try:
        labels = string_list(tables["basis"], 'raw "basis"')
        pos = {s: i for i, s in enumerate(labels)}
        unit = pos[tables["unit"]]
        mult = parse_table(tables["mult"], pos)
        comult = [() for _ in labels]
        for a, terms in json_object(tables["comult"], 'raw "comult"').items():
            # a string term would unpack character by character
            for term in terms:
                if not isinstance(term, list):
                    raise InputFormatError(
                        f"comultiplication term of {a!r} must be a list "
                        f"[left, right, coeff], got {term!r}"
                    )
            row = [(pos[j], pos[k], rat(c)) for j, k, c in terms]
            comult[pos[a]] = tuple(sorted(t for t in row if t[2]))
        counit = [Q0] * len(labels)
        for a, c in json_object(tables.get("counit", {}), 'raw "counit"').items():
            counit[pos[a]] = rat(c)
        antipode = None
        if "antipode" in tables:
            antipode = {}
            for a, combo in json_object(tables["antipode"], 'raw "antipode"').items():
                combo = json_object(combo, "an antipode value")
                antipode[pos[a]] = sparse((pos[k], rat(c)) for k, c in combo.items())
        hint = None
        if "degrees" in tables:
            hint = [0] * len(labels)
            for a, d in json_object(tables["degrees"], 'raw "degrees"').items():
                hint[pos[a]] = json_int(d, f"degree of {a!r}", 0)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed raw instance tables: {exc}") from exc
    if hint is not None:
        # with degrees given, a product whose degrees sum within the bound
        # is part of the table, not a truncation
        for i, j in itertools.product(range(len(labels)), repeat=2):
            if hint[i] + hint[j] <= degree_bound and (i, j) not in mult:
                raise InputFormatError(
                    f'raw "mult" leaves out {labels[i]} * {labels[j]}, of degree '
                    f"{hint[i] + hint[j]} within the bound {degree_bound}"
                )
    data = FilteredBialgebraData(
        basis_labels=labels,
        degree_bound=degree_bound,
        mult=mult,
        comult=comult,
        counit=counit,
        unit_index=unit,
        antipode=antipode,
        filtration_hint=hint,
    )
    data.raw = True
    data.require_associative()
    return data


def instance_from_json(
    obj: Mapping, degree_override: Optional[int] = None
) -> FilteredBialgebraData:
    """Build an instance from its JSON description.

    Kinds: "ueg" (Lie structure constants), "xyw" (built-in commutative
    non-cocommutative example), "raw" (explicit tables with "p/q" strings).
    """
    try:
        kind = obj["kind"]
        bound = json_int(obj["degree_bound"], '"degree_bound"', 1)
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"instance file missing kind/degree_bound: {exc}")
    if degree_override is not None:
        if kind == "raw" and degree_override != bound:
            raise InputFormatError(
                "raw instances carry fixed tables; the degree bound cannot be overridden"
            )
        bound = degree_override
    if bound < 1:
        raise InputFormatError(f"degree bound must be positive, got {bound}")
    if kind == "ueg":
        lie = obj.get("lie")
        if not isinstance(lie, Mapping) or "generators" not in lie:
            raise InputFormatError('ueg instances need a "lie" table with generators')
        gens = string_list(lie["generators"], 'ueg "generators"')
        brackets = json_object(lie.get("brackets", {}), 'ueg "brackets"')
        for row in brackets.values():
            for combo in json_object(row, "a bracket row").values():
                json_object(combo, "a bracket value")
        return build_ueg(gens, brackets, bound)
    if kind == "xyw":
        return build_xyw(bound)
    if kind == "raw":
        tables = obj.get("tables")
        if not isinstance(tables, Mapping):
            raise InputFormatError('raw instances need a "tables" object')
        return _raw_from_tables(bound, tables)
    raise InputFormatError(f"unknown instance kind {kind!r}")
