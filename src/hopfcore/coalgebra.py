"""Truncated bialgebra structure constants and their filtration machinery.

A ``FilteredBialgebraData`` stores a basis-indexed multiplication table
(partial: entries whose exact degree would exceed the truncation bound are
simply absent), a total comultiplication table, the counit, the position of
the unit, and optionally an antipode table.  On top of that this module
computes

* the ascending filtration C_0 = Q·1, C_{j+1} = {x : Delta(x) in
  C_j (x) C + C (x) C_0}, with connectedness = exhaustion at the bound;
* a deterministic graded splitting H(n) with C_n = H(0) + ... + H(n) and
  eps(H(n)) = 0 for n >= 1, together with the degree-preserving part
  ``delta`` of the comultiplication;
* the associated graded bialgebra on the splitting basis;
* membership checks (primitivity defects, degree consistency of delta,
  gradedness of the filtration of the associated graded object) used by the
  verification suites.

Everything is exact over Q and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    HopfcoreError,
    InputFormatError,
    NotALieAlgebra,
    NotExhaustive,
    TruncationError,
)
from .linalg import (
    Q0,
    Q1,
    QMatrix,
    Subspace,
    Vector,
    complement,
    rat,
    rat_str,
    unit_vec,
)
from .report import FAIL, PASS, SKIP, Report
from .table import (
    SparseVec,
    TableAlgebra,
    exponent_table,
    graded_monomials,
    parse_table,
    sparse,
    string_list,
)

TensorMap = dict[tuple[int, int], Fraction]


class FilteredBialgebraData(TableAlgebra):
    """Basis-indexed structure constants of a truncated bialgebra: the
    product table plus comultiplication, counit and optional antipode."""

    def __init__(
        self,
        basis_labels: Sequence[str],
        degree_bound: int,
        mult: Mapping[tuple[int, int], Iterable[tuple[int, Fraction]]],
        comult: Sequence[Iterable[tuple[int, int, Fraction]]],
        counit: Sequence,
        unit_index: int,
        antipode: Optional[Mapping[int, Iterable[tuple[int, Fraction]]]] = None,
        filtration_hint: Optional[Sequence[int]] = None,
    ):
        dim = len(basis_labels)
        one = unit_vec(dim, unit_index)
        super().__init__(basis_labels, mult, one, filtration_hint, int(degree_bound))
        if not (0 <= unit_index < dim):
            raise InputFormatError("unit index out of range")
        if len(comult) != dim:
            raise InputFormatError("comultiplication table must cover every basis element")
        if degree_bound < 1:
            raise InputFormatError("degree bound must be positive")
        self.unit_index = int(unit_index)
        self._comult = tuple(
            tuple(sorted((j, k, c) for j, k, c in row if c)) for row in comult
        )
        self._counit = tuple(rat(c) for c in counit)
        if len(self._counit) != dim:
            raise InputFormatError("counit must be a functional on the basis")
        self._antipode = (
            {int(i): sparse(v) for i, v in antipode.items()}
            if antipode is not None
            else None
        )

    # the bialgebra's name for the product, which perfbench traces
    multiply = TableAlgebra.mul

    @property
    def filtration_hint(self) -> Optional[tuple[int, ...]]:
        """The declared degrees of the basis, if the tables carry them."""
        return self.degrees

    @property
    def has_antipode(self) -> bool:
        return self._antipode is not None

    def comult_terms(self, i: int) -> tuple[tuple[int, int, Fraction], ...]:
        return self._comult[i]

    def antipode_terms(self, i: int) -> SparseVec:
        if self._antipode is None:
            raise HopfcoreError("no antipode table on this instance")
        return self._antipode.get(i, ())

    # -- linear extensions ---------------------------------------------------

    def comult_map(self, v: Vector) -> TensorMap:
        out: TensorMap = {}
        for i, a in enumerate(v):
            if not a:
                continue
            for j, k, c in self._comult[i]:
                key = (j, k)
                out[key] = out.get(key, Q0) + a * c
        return {key: c for key, c in out.items() if c}

    def counit_of(self, v: Vector) -> Fraction:
        return sum((a * e for a, e in zip(v, self._counit) if a and e), Q0)

    @property
    def counit(self) -> Vector:
        return self._counit

    def antipode_of(self, v: Vector) -> Vector:
        out = [Q0] * self.dim
        for i, a in enumerate(v):
            if not a:
                continue
            for k, c in self.antipode_terms(i):
                out[k] += a * c
        return tuple(out)


# ---------------------------------------------------------------------------
# axiom verification


def _tensor3_eq(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    return all(a.get(k, Q0) == b.get(k, Q0) for k in keys)


def verify_axioms(data: FilteredBialgebraData) -> Report:
    """Check counit laws, coassociativity, unit laws, and multiplicativity
    of the comultiplication and counit wherever truncation permits."""
    rep = Report("axioms")
    dim = data.dim
    eps = data.counit

    if eps[data.unit_index] != 1:
        rep.add("counit-unit", data.label(data.unit_index), FAIL, "eps(1) != 1")
    else:
        rep.add("counit-unit", data.label(data.unit_index), PASS)

    for i in range(dim):
        left = [Q0] * dim
        right = [Q0] * dim
        for j, k, c in data.comult_terms(i):
            if eps[j]:
                left[k] += c * eps[j]
            if eps[k]:
                right[j] += c * eps[k]
        ok = tuple(left) == unit_vec(dim, i) and tuple(right) == unit_vec(dim, i)
        rep.add("counit", data.label(i), PASS if ok else FAIL)

    for i in range(dim):
        lhs: dict = {}
        rhs: dict = {}
        for j, k, c in data.comult_terms(i):
            for a, b, c2 in data.comult_terms(j):
                key = (a, b, k)
                lhs[key] = lhs.get(key, Q0) + c * c2
            for a, b, c2 in data.comult_terms(k):
                key = (j, a, b)
                rhs[key] = rhs.get(key, Q0) + c * c2
        rep.add(
            "coassociativity",
            data.label(i),
            PASS if _tensor3_eq(lhs, rhs) else FAIL,
        )

    u = data.unit_index
    for i in range(dim):
        ok = True
        detail = ""
        for pair in ((u, i), (i, u)):
            if not data.has_product(*pair):
                ok = False
                detail = "unit product undefined"
                break
            if data.product_terms(*pair) != ((i, Q1),):
                ok = False
                detail = "unit law violated"
                break
        rep.add("unit-law", data.label(i), PASS if ok else FAIL, detail)

    pairs = sorted(key for key in data._mult)
    for i, j in pairs:
        prod = data.product_terms(i, j)
        eps_prod = sum((c * eps[k] for k, c in prod if eps[k]), Q0)
        rep.add(
            "counit-multiplicative",
            f"{data.label(i)},{data.label(j)}",
            PASS if eps_prod == eps[i] * eps[j] else FAIL,
        )

        lhs: TensorMap = {}
        for k, c in prod:
            for a, b, c2 in data.comult_terms(k):
                key = (a, b)
                lhs[key] = lhs.get(key, Q0) + c * c2
        rhs: TensorMap = {}
        skipped = False
        for a, b, c1 in data.comult_terms(i):
            if skipped:
                break
            for a2, b2, c2 in data.comult_terms(j):
                if not (data.has_product(a, a2) and data.has_product(b, b2)):
                    skipped = True
                    break
                cc = c1 * c2
                for kl, cl in data.product_terms(a, a2):
                    for kr, cr in data.product_terms(b, b2):
                        key = (kl, kr)
                        rhs[key] = rhs.get(key, Q0) + cc * cl * cr
        subject = f"{data.label(i)},{data.label(j)}"
        if skipped:
            rep.add("comult-multiplicative", subject, SKIP, "tensor factor truncated")
        else:
            lhs = {k: c for k, c in lhs.items() if c}
            rhs = {k: c for k, c in rhs.items() if c}
            rep.add(
                "comult-multiplicative",
                subject,
                PASS if lhs == rhs else FAIL,
            )
    return rep


# ---------------------------------------------------------------------------
# coradical filtration


@dataclass(frozen=True)
class CoradicalFiltration:
    """Nested layers C_0 <= C_1 <= ... <= C_D inside the truncated space."""

    layers: tuple[Subspace, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(layer.dim for layer in self.layers)

    @property
    def exhaustive(self) -> bool:
        return self.layers[-1].dim == self.layers[-1].ambient_dim

    def layer_of(self, v: Vector) -> int:
        for n, layer in enumerate(self.layers):
            if layer.contains(v):
                return n
        raise ValueError("vector escapes the filtration")


def _filtration_step(
    data: FilteredBialgebraData, prev: Subspace, base: Subspace
) -> Subspace:
    """{x : Delta(x) in prev (x) C + C (x) base} via quotient coordinates."""
    dim = data.dim
    qprev = prev.quotient_unit_sparse()
    qbase = base.quotient_unit_sparse()
    rows: dict[tuple[int, int], list[Fraction]] = {}
    for t in range(dim):
        for j, k, c in data.comult_terms(t):
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
                        row = rows[(a, b)] = [Q0] * dim
                    row[t] += cac * cb
    mat = QMatrix([rows[key] for key in sorted(rows)], dim)
    return mat.kernel()


def coradical_filtration(data: FilteredBialgebraData) -> CoradicalFiltration:
    """Ascending filtration from C_0 = span{1}, up to the bound or to the
    layer where it stalls below the full truncated space; the
    connectedness step ``require_connected`` tells the two apart."""
    dim = data.dim
    base = Subspace.from_vectors([data.unit_vector()], dim)
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


def check_connected(data: FilteredBialgebraData) -> bool:
    """True iff the filtration from span{1} exhausts the truncated space."""
    return coradical_filtration(data).exhaustive


# ---------------------------------------------------------------------------
# graded splitting


@dataclass(frozen=True)
class GradedSplitting:
    """Homogeneous components H(n) with C_n = H(0) + ... + H(n), the basis
    change onto the splitting basis, and the comultiplication of every
    splitting vector in split coordinates."""

    data: FilteredBialgebraData
    components: tuple[Subspace, ...]
    vectors: tuple[Vector, ...]
    degrees: tuple[int, ...]
    labels: tuple[str, ...]
    to_split_units: tuple[dict[int, Fraction], ...]
    comult: tuple[TensorMap, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @cached_property
    def delta(self) -> tuple[tuple[tuple[int, int, Fraction], ...], ...]:
        """The degree-preserving part of ``comult``."""
        degrees = self.degrees
        return tuple(
            tuple(
                sorted(
                    (p, q, c)
                    for (p, q), c in tmap.items()
                    if degrees[p] + degrees[q] == degrees[k]
                )
            )
            for k, tmap in enumerate(self.comult)
        )

    def to_split(self, v: Vector) -> Vector:
        out = [Q0] * self.dim
        for j, a in enumerate(v):
            if not a:
                continue
            for k, c in self.to_split_units[j].items():
                out[k] += a * c
        return tuple(out)

    def from_split(self, coords: Vector) -> Vector:
        out = [Q0] * self.data.dim
        for k, c in enumerate(coords):
            if not c:
                continue
            row = self.vectors[k]
            for j in range(self.data.dim):
                if row[j]:
                    out[j] += c * row[j]
        return tuple(out)

    def split_tensor(self, tmap: TensorMap) -> TensorMap:
        return _split_tensor(self.to_split_units, tmap)

    def max_degree(self, coords: Vector) -> int:
        return max((self.degrees[k] for k, c in enumerate(coords) if c), default=0)


def _split_tensor(
    units: Sequence[Mapping[int, Fraction]], tmap: TensorMap
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

    vectors: list[Vector] = []
    degrees: list[int] = []
    labels: list[str] = []
    used: set[str] = set()
    for n, comp in enumerate(comps):
        for row, pivot in zip(comp.basis, comp.pivots):
            vectors.append(row)
            degrees.append(n)
            name = data.label(pivot)
            if name in used:
                name = f"{name}#{n}"
            used.add(name)
            labels.append(name)

    basis_matrix = QMatrix.from_columns(vectors)
    inv = basis_matrix.inverse()
    units = tuple(
        {k: inv.rows[k][j] for k in range(len(vectors)) if inv.rows[k][j]}
        for j in range(data.dim)
    )
    return GradedSplitting(
        data=data,
        components=tuple(comps),
        vectors=tuple(vectors),
        degrees=tuple(degrees),
        labels=tuple(labels),
        to_split_units=units,
        comult=tuple(_split_tensor(units, data.comult_map(v)) for v in vectors),
    )


def gr_structure(split: GradedSplitting) -> FilteredBialgebraData:
    """The associated graded bialgebra on the splitting basis: products are
    top-degree components of products of splitting vectors, comultiplication
    is the degree-preserving part ``delta``."""
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
            prod = data.multiply(split.vectors[a], split.vectors[b])
            coords = split.to_split(prod)
            for k, c in enumerate(coords):
                if c and degrees[k] > target:
                    raise HopfcoreError(
                        f"product {split.labels[a]} * {split.labels[b]} escapes "
                        f"filtration degree {target}"
                    )
            mult[(a, b)] = tuple(
                (k, c) for k, c in enumerate(coords) if c and degrees[k] == target
            )
    counit = unit_vec(dim, 0)
    antipode = None
    if data.has_antipode:
        antipode = {}
        for k in range(dim):
            image = split.to_split(data.antipode_of(split.vectors[k]))
            antipode[k] = tuple(
                (l, c)
                for l, c in enumerate(image)
                if c and degrees[l] == degrees[k]
            )
    return FilteredBialgebraData(
        basis_labels=split.labels,
        degree_bound=bound,
        mult=mult,
        comult=split.delta,
        counit=counit,
        unit_index=0,
        antipode=antipode,
        filtration_hint=degrees,
    )


# ---------------------------------------------------------------------------
# membership checks


def _primitivity_defect_ok(
    degrees: Sequence[int], tmap: TensorMap, n: int
) -> tuple[bool, str]:
    """Whether every tensor entry lies in sum_{i=1}^{n-1} C_i (x) C_{n-i},
    phrased on split coordinates: both sides of degree <= n-1 and total
    degree <= n.

    The unit (x) unit cell is tolerated at every level, including n = 1.
    For an element h with nonzero counit the defect picks up -eps(h)
    1 (x) 1, so this amounts to checking the counit-normalized element
    h - eps(h) 1; both readings agree whenever eps(h) = 0, which covers
    every basis element of the shipped instances."""
    for (p, q), c in tmap.items():
        dp, dq = degrees[p], degrees[q]
        if _illegal_bidegree(dp, dq, n):
            return False, f"illegal entry at bidegree ({dp},{dq}) coeff {rat_str(c)}"
    return True, ""


def _illegal_bidegree(dp: int, dq: int, n: int) -> bool:
    """Whether a split tensor entry of bidegree (dp, dq) lies outside
    sum_{i=1}^{n-1} C_i (x) C_{n-i}."""
    return dp + dq > n or dp > n - 1 or dq > n - 1


def check_primitivity_defects(
    data: FilteredBialgebraData,
    filt: CoradicalFiltration,
    split: GradedSplitting,
) -> Report:
    """Primitivity defect of every basis element h in C_n lands in
    sum_{i=1}^{n-1} C_i (x) C_{n-i}."""
    rep = Report("primitivity-defect")
    for i in range(data.dim):
        v = unit_vec(data.dim, i)
        n = filt.layer_of(v)
        if n == 0:
            rep.add("primitivity-defect", data.label(i), SKIP, "degree 0")
            continue
        tmap = split.split_tensor(data.comult_map(v))
        for k, c in split.to_split_units[i].items():
            for key, delta_c in (((0, k), c), ((k, 0), c)):
                val = tmap.get(key, Q0) - delta_c
                if val:
                    tmap[key] = val
                else:
                    tmap.pop(key, None)
        ok, why = _primitivity_defect_ok(split.degrees, tmap, n)
        rep.add("primitivity-defect", f"{data.label(i)} (n={n})", PASS if ok else FAIL, why)
    return rep


def check_delta_consistency(split: GradedSplitting) -> Report:
    """The comultiplication agrees with its degree-preserving part modulo
    components of strictly smaller total degree."""
    rep = Report("delta-consistency")
    for k, n in enumerate(split.degrees):
        tmap = dict(split.comult[k])
        for p, q, c in split.delta[k]:
            val = tmap.get((p, q), Q0) - c
            if val:
                tmap[(p, q)] = val
            else:
                tmap.pop((p, q), None)
        bad = [
            (p, q)
            for (p, q), c in tmap.items()
            if split.degrees[p] + split.degrees[q] >= n
        ]
        rep.add(
            "delta-consistency",
            split.labels[k],
            PASS if not bad else FAIL,
            "" if not bad else f"non-lower remainder at {bad[0]}",
        )
    return rep


def check_coradically_graded(gr: FilteredBialgebraData) -> Report:
    """The filtration of the associated graded object is the degree
    filtration."""
    rep = Report("coradically-graded")
    degrees = gr.degrees
    if degrees is None:
        rep.add("coradically-graded", "-", FAIL, "missing degree labels")
        return rep
    try:
        filt = require_connected(coradical_filtration(gr), gr.degree_bound)
    except NotExhaustive as exc:
        rep.add("coradically-graded", "-", FAIL, str(exc))
        return rep
    for n, layer in enumerate(filt.layers):
        expected = Subspace.from_vectors(
            [unit_vec(gr.dim, k) for k in range(gr.dim) if degrees[k] <= n],
            gr.dim,
        )
        rep.add(
            "coradically-graded",
            f"layer {n}",
            PASS if layer == expected else FAIL,
            f"dim {layer.dim} vs degree span {expected.dim}"
            if layer != expected
            else "",
        )
    return rep


def verify_gr_facts(
    gr: FilteredBialgebraData,
    data: FilteredBialgebraData,
    filt: CoradicalFiltration,
    split: GradedSplitting,
) -> Report:
    """Filtration is an algebra filtration, is stable under the antipode
    (when one is supplied), and the associated graded algebra is
    commutative."""
    rep = Report("gr-facts")
    bound = data.degree_bound
    degrees = split.degrees

    by_pair: dict[tuple[int, int], list[str]] = {}
    skipped: dict[tuple[int, int], int] = {}
    for a in range(split.dim):
        for b in range(split.dim):
            n, m = degrees[a], degrees[b]
            if n + m > bound:
                continue
            try:
                prod = data.multiply(split.vectors[a], split.vectors[b])
            except TruncationError:
                skipped[(n, m)] = skipped.get((n, m), 0) + 1
                continue
            if split.max_degree(split.to_split(prod)) > n + m:
                by_pair.setdefault((n, m), []).append(
                    f"{split.labels[a]}*{split.labels[b]}"
                )
            else:
                by_pair.setdefault((n, m), [])
    for (n, m) in sorted(set(by_pair) | set(skipped)):
        bad = by_pair.get((n, m), [])
        msg = f"skipped {skipped[(n, m)]}" if (n, m) in skipped else ""
        rep.add(
            "filtration-multiplicative",
            f"C_{n}*C_{m}",
            FAIL if bad else PASS,
            bad[0] if bad else msg,
        )

    if data.has_antipode:
        for k in range(split.dim):
            image = split.to_split(data.antipode_of(split.vectors[k]))
            ok = split.max_degree(image) <= degrees[k]
            rep.add("antipode-stability", split.labels[k], PASS if ok else FAIL)
    else:
        rep.add("antipode-stability", "-", SKIP, "no antipode table")

    commutative = True
    for a in range(gr.dim):
        for b in range(a, gr.dim):
            if degrees[a] + degrees[b] > bound:
                continue
            if gr.product_terms(a, b) != gr.product_terms(b, a):
                commutative = False
                rep.add(
                    "gr-commutative",
                    f"{gr.label(a)},{gr.label(b)}",
                    FAIL,
                )
    if commutative:
        rep.add("gr-commutative", "all pairs", PASS)
    return rep


def _in_primitive_set(
    gr: FilteredBialgebraData, v: Mapping[int, Fraction], n: int
) -> bool:
    """Whether the sparse element v of level n passes
    ``_primitivity_defect_ok``: its defect Delta(v) - v (x) 1 - 1 (x) v
    is computed only on the entries that check rejects."""
    degrees = gr.degrees
    assert degrees is not None
    v = {k: c for k, c in v.items() if c}
    if max((degrees[k] for k in v), default=0) > n:
        return False

    defect: TensorMap = {}
    for k, c in v.items():
        for p, q, cc in gr.comult_terms(k):
            if _illegal_bidegree(degrees[p], degrees[q], n):
                defect[(p, q)] = defect.get((p, q), Q0) + c * cc
        for p, q in ((0, k), (k, 0)):
            if _illegal_bidegree(degrees[p], degrees[q], n):
                defect[(p, q)] = defect.get((p, q), Q0) - c
    return not any(defect.values())


def check_level_closure(gr: FilteredBialgebraData, rng, samples: int) -> Report:
    """Sampled closure of the primitivity-defect levels under products and
    sums in the associated graded object."""
    rep = Report("level-closure")
    degrees = gr.degrees
    assert degrees is not None
    bound = gr.degree_bound

    def random_level_element(n: int) -> dict[int, Fraction]:
        coords: dict[int, Fraction] = {}
        for k in range(gr.dim):
            if degrees[k] <= n:
                c = rng.randint(-2, 2)
                if c:
                    coords[k] = Fraction(c)
        return coords or {0: Q1}

    for trial in range(samples):
        n = rng.randint(1, bound)
        m = rng.randint(1, bound)
        b = random_level_element(n)
        c = random_level_element(m)
        ok_b = _in_primitive_set(gr, b, n)
        ok_c = _in_primitive_set(gr, c, m)
        checks = [("membership", ok_b and ok_c)]
        if n + m <= bound:
            checks.append(("product", _in_primitive_set(gr, gr.mul_sparse(b, c), n + m)))
        total = dict(b)
        for k, y in c.items():
            total[k] = total.get(k, Q0) + y
        checks.append(("sum", _in_primitive_set(gr, total, max(n, m))))
        bad = [name for name, ok in checks if not ok]
        rep.add(
            "level-closure",
            f"trial {trial} (n={n}, m={m})",
            PASS if not bad else FAIL,
            ",".join(bad),
        )
    return rep


# ---------------------------------------------------------------------------
# builders


def _straighten(
    word: tuple[int, ...],
    bracket: Mapping[tuple[int, int], dict[int, Fraction]],
    memo: dict,
) -> dict[tuple[int, ...], Fraction]:
    """Rewrite a word in the generators as a combination of nondecreasing
    words using x_j x_i = x_i x_j + [x_j, x_i] for j > i."""
    if all(word[t] <= word[t + 1] for t in range(len(word) - 1)):
        return {word: Q1}
    cached = memo.get(word)
    if cached is not None:
        return cached
    p = next(t for t in range(len(word) - 1) if word[t] > word[t + 1])
    head, a, b, tail = word[:p], word[p], word[p + 1], word[p + 2 :]
    out: dict[tuple[int, ...], Fraction] = {}
    for w, c in _straighten(head + (b, a) + tail, bracket, memo).items():
        out[w] = out.get(w, Q0) + c
    for k, ck in bracket.get((a, b), {}).items():
        for w, c in _straighten(head + (k,) + tail, bracket, memo).items():
            out[w] = out.get(w, Q0) + c * ck
    out = {w: c for w, c in out.items() if c}
    memo[word] = out
    return out


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
        raise NotALieAlgebra("duplicate generator names")
    pos = {g: i for i, g in enumerate(names)}
    g = len(names)

    bracket: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a, row in brackets.items():
        for b, combo in row.items():
            if a not in pos or b not in pos:
                raise NotALieAlgebra(f"bracket on unknown generators [{a},{b}]")
            entry = {}
            for k, c in combo.items():
                if k not in pos:
                    raise NotALieAlgebra(f"bracket value on unknown generator {k!r}")
                val = rat(c)
                if val:
                    entry[pos[k]] = val
            i, j = pos[a], pos[b]
            if i == j:
                if entry:
                    raise NotALieAlgebra(f"[{a},{a}] must vanish")
                continue
            for key, table in (((i, j), entry), ((j, i), {t: -c for t, c in entry.items()})):
                if key in bracket and bracket[key] != table:
                    raise NotALieAlgebra(
                        f"inconsistent antisymmetric pair for [{a},{b}]"
                    )
                bracket[key] = table

    def brk(i: int, j: int) -> dict[int, Fraction]:
        return bracket.get((i, j), {})

    for i, j, k in itertools.combinations(range(g), 3):
        acc: dict[int, Fraction] = {}
        for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in brk(x, y).items():
                for l, cl in brk(m, z).items():
                    acc[l] = acc.get(l, Q0) + cm * cl
        if any(acc.values()):
            raise NotALieAlgebra(
                f"Jacobi identity fails on ({names[i]},{names[j]},{names[k]})"
            )

    monos, labels = graded_monomials(names, degree_bound, divided=True)
    index = {e: t for t, e in enumerate(monos)}

    def word_of(e: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            itertools.chain.from_iterable((i,) * e[i] for i in range(g))
        )

    def exps_of(word: tuple[int, ...]) -> tuple[int, ...]:
        e = [0] * g
        for t in word:
            e[t] += 1
        return tuple(e)

    def divfact(e: tuple[int, ...]) -> int:
        out = 1
        for x in e:
            out *= factorial(x)
        return out

    memo: dict = {}
    mult: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for ti, ei in enumerate(monos):
        for tj, ej in enumerate(monos):
            if sum(ei) + sum(ej) > degree_bound:
                continue
            scale = Fraction(1, divfact(ei) * divfact(ej))
            entry: dict[int, Fraction] = {}
            for w, c in _straighten(word_of(ei) + word_of(ej), bracket, memo).items():
                e = exps_of(w)
                entry[index[e]] = entry.get(index[e], Q0) + c * scale * divfact(e)
            mult[(ti, tj)] = [(k, c) for k, c in sorted(entry.items()) if c]

    comult = []
    for e in monos:
        row = []
        for left in itertools.product(*(range(x + 1) for x in e)):
            right = tuple(x - y for x, y in zip(e, left))
            row.append((index[left], index[right], Q1))
        comult.append(row)

    counit = [Q1 if sum(e) == 0 else Q0 for e in monos]
    antipode = {}
    for t, e in enumerate(monos):
        sign = Q1 if sum(e) % 2 == 0 else -Q1
        scale = Fraction(1, divfact(e))
        entry: dict[int, Fraction] = {}
        for w, c in _straighten(tuple(reversed(word_of(e))), bracket, memo).items():
            ew = exps_of(w)
            entry[index[ew]] = entry.get(index[ew], Q0) + sign * c * scale * divfact(ew)
        antipode[t] = [(k, c) for k, c in sorted(entry.items()) if c]

    return FilteredBialgebraData(
        basis_labels=labels,
        degree_bound=degree_bound,
        mult=mult,
        comult=comult,
        counit=counit,
        unit_index=index[(0,) * g],
        antipode=antipode,
        filtration_hint=[sum(e) for e in monos],
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
        row: dict[tuple[int, int], Fraction] = {}
        for i in range(a + 1):
            ca = comb(a, i)
            for j in range(b + 1):
                cb = comb(b, j)
                for p in range(c + 1):
                    for q in range(c - p + 1):
                        r = c - p - q
                        cc = factorial(c) // (
                            factorial(p) * factorial(q) * factorial(r)
                        )
                        left = (i + r, j, p)
                        right = (a - i, b - j + r, q)
                        key = (index[left], index[right])
                        row[key] = row.get(key, Q0) + Fraction(ca * cb * cc)
        comult.append([(j, k, v) for (j, k), v in sorted(row.items())])

    counit = [Q1 if d == 0 else Q0 for d in degrees]

    antipode = {}
    for t, (a, b, c) in enumerate(monos):
        entry: dict[int, Fraction] = {}
        for s in range(c + 1):
            coeff = Fraction(comb(c, s)) * (Q1 if (a + b + c - s) % 2 == 0 else -Q1)
            target = (a + s, b + s, c - s)
            entry[index[target]] = entry.get(index[target], Q0) + coeff
        antipode[t] = [(k, v) for k, v in sorted(entry.items()) if v]

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


def build_grouplike() -> FilteredBialgebraData:
    """Two-dimensional Hopf algebra spanned by 1 and a group-like g with
    g^2 = 1; the standard non-connected fixture."""
    return FilteredBialgebraData(
        basis_labels=("1", "g"),
        degree_bound=2,
        mult={
            (0, 0): [(0, Q1)],
            (0, 1): [(1, Q1)],
            (1, 0): [(1, Q1)],
            (1, 1): [(0, Q1)],
        },
        comult=[[(0, 0, Q1)], [(1, 1, Q1)]],
        counit=(Q1, Q1),
        unit_index=0,
        antipode={0: [(0, Q1)], 1: [(1, Q1)]},
    )


# ---------------------------------------------------------------------------
# serialization


def instance_to_json(data: FilteredBialgebraData) -> dict:
    labels = data.basis_labels
    mult: dict[str, dict[str, dict[str, str]]] = {}
    for (i, j), terms in sorted(data._mult.items()):
        mult.setdefault(labels[i], {})[labels[j]] = {
            labels[k]: rat_str(c) for k, c in terms
        }
    comult = {
        labels[i]: [[labels[j], labels[k], rat_str(c)] for j, k, c in row]
        for i, row in enumerate(data._comult)
    }
    out = {
        "kind": "raw",
        "degree_bound": data.degree_bound,
        "tables": {
            "basis": list(labels),
            "unit": labels[data.unit_index],
            "mult": mult,
            "comult": comult,
            "counit": {
                labels[i]: rat_str(c) for i, c in enumerate(data.counit) if c
            },
        },
    }
    if data.has_antipode:
        out["tables"]["antipode"] = {
            labels[i]: {labels[k]: rat_str(c) for k, c in terms}
            for i, terms in sorted(data._antipode.items())
        }
    if data.degrees is not None:
        out["tables"]["degrees"] = {
            labels[i]: d for i, d in enumerate(data.degrees)
        }
    return out


def _raw_from_tables(degree_bound: int, tables: Mapping) -> FilteredBialgebraData:
    try:
        labels = string_list(tables["basis"], 'raw "basis"')
        pos = {s: i for i, s in enumerate(labels)}
        unit = pos[tables["unit"]]
        mult = parse_table(tables["mult"], pos)
        comult = [[] for _ in labels]
        for a, terms in tables["comult"].items():
            # a string term would unpack character by character
            for term in terms:
                if not isinstance(term, list):
                    raise InputFormatError(
                        f"comultiplication term of {a!r} must be a list "
                        f"[left, right, coeff], got {term!r}"
                    )
            comult[pos[a]] = [(pos[j], pos[k], rat(c)) for j, k, c in terms]
        counit = [Q0] * len(labels)
        for a, c in tables.get("counit", {}).items():
            counit[pos[a]] = rat(c)
        antipode = None
        if "antipode" in tables:
            antipode = {
                pos[a]: [(pos[k], rat(c)) for k, c in combo.items()]
                for a, combo in tables["antipode"].items()
            }
        hint = None
        if "degrees" in tables:
            hint = [0] * len(labels)
            for a, d in tables["degrees"].items():
                hint[pos[a]] = int(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed raw instance tables: {exc}") from exc
    return FilteredBialgebraData(
        basis_labels=labels,
        degree_bound=degree_bound,
        mult=mult,
        comult=comult,
        counit=counit,
        unit_index=unit,
        antipode=antipode,
        filtration_hint=hint,
    )


def instance_from_json(
    obj: Mapping, degree_override: Optional[int] = None
) -> FilteredBialgebraData:
    """Build an instance from its JSON description.

    Kinds: "ueg" (Lie structure constants), "xyw" (built-in commutative
    non-cocommutative example), "raw" (explicit tables with "p/q" strings).
    """
    try:
        kind = obj["kind"]
        bound = int(obj["degree_bound"])
    except (KeyError, TypeError, ValueError) as exc:
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
        return build_ueg(gens, lie.get("brackets", {}), bound)
    if kind == "xyw":
        return build_xyw(bound)
    if kind == "raw":
        tables = obj.get("tables")
        if not isinstance(tables, Mapping):
            raise InputFormatError('raw instances need a "tables" object')
        return _raw_from_tables(bound, tables)
    raise InputFormatError(f"unknown instance kind {kind!r}")
