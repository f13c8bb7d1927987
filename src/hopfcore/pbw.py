"""Ordered divided-power bases lifted from the associated graded algebra.

Homogeneous generators of the associated graded algebra are found degree by
degree as complements of the decomposable part; their lifts through the
splitting generate ordered divided-power monomials e_m = prod e_g^{m(g)}/m(g)!
(factors in increasing generator order).  These monomials restrict to a basis
of every filtration layer, their products have multinomial leading
coefficients and strictly lower defects, and their comultiplications expand
with coefficient 1 on every splitting of the index plus strictly smaller
terms; all of that is machine-checked here.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Optional

from .coalgebra import (
    CoradicalFiltration,
    FilteredBialgebraData,
    GradedSplitting,
    coradical_filtration,
    gr_structure,
    graded_splitting,
    require_connected,
    verify_gr_facts,
)
from .errors import BasisDefect, NotPolynomial, ExpansionViolation, TruncationError
from .linalg import (
    Q0,
    Q1,
    QMatrix,
    Subspace,
    Vector,
    complement,
    is_zero_vec,
    rat_str,
    to_dense,
    to_sparse,
    unit_vec,
)
from .monoid import GeneratorSet, MultiIndex
from .report import FAIL, PASS, Report


def extract_generators(
    gr: FilteredBialgebraData,
) -> tuple[GeneratorSet, dict[str, Vector]]:
    """Minimal homogeneous generators of the associated graded algebra.

    In each degree d the generators span a pivot-greedy complement of the
    decomposable part sum_{0<i<d} gr(i)*gr(d-i) inside gr(d).  Polynomiality
    is validated by comparing dim gr(d) with the number of weighted-degree-d
    monomials in the extracted generators, for every d up to the bound.
    """
    degrees = gr.degrees
    if degrees is None:
        raise NotPolynomial("graded instance carries no degree labels")
    dim = gr.dim
    gens: list[tuple[str, int]] = []
    vectors: dict[str, Vector] = {}
    for d in range(1, gr.degree_bound + 1):
        level = [k for k in range(dim) if degrees[k] == d]
        if not level:
            continue
        layer = Subspace.from_vectors([unit_vec(dim, k) for k in level], dim)
        decomposable = []
        for a in range(dim):
            if not (0 < degrees[a] < d):
                continue
            for b in range(dim):
                if degrees[a] + degrees[b] != d or degrees[b] == 0:
                    continue
                terms = gr.product_terms(a, b)
                row = [Q0] * dim
                for k, c in terms:
                    row[k] = c
                decomposable.append(tuple(row))
        dec = Subspace.from_vectors(decomposable, dim)
        fresh = complement(dec, layer)
        for row, pivot in zip(fresh.basis, fresh.pivots):
            name = gr.label(pivot)
            if name in vectors:
                name = f"{name}@{d}"
            gens.append((name, d))
            vectors[name] = row

    genset = GeneratorSet(gens)
    for d in range(gr.degree_bound + 1):
        level_dim = sum(1 for k in range(dim) if degrees[k] == d)
        expected = genset.count_exact(d)
        if level_dim != expected:
            raise NotPolynomial(
                f"degree {d}: graded dimension {level_dim} but {expected} "
                f"monomials in the extracted generators"
            )
    return genset, vectors


def lift_generators(
    split: GradedSplitting,
    gens: GeneratorSet,
    gr_gens: dict[str, Vector],
) -> dict[str, Vector]:
    """Lift each homogeneous generator through the splitting; the lift's
    top-degree class is re-checked to be the generator itself."""
    lifts: dict[str, Vector] = {}
    for gid, d in gens.generators:
        coords = gr_gens[gid]
        lift = split.from_split(coords)
        back = split.to_split(lift)
        top = tuple(
            back[k] if split.degrees[k] == d else Q0 for k in range(split.dim)
        )
        if top != tuple(coords) or split.max_degree(back) > d:
            raise BasisDefect(f"lift of generator {gid!r} does not project back")
        lifts[gid] = lift
    return lifts


class PBWStructure:
    """Generator lifts, cached ordered divided-power monomials, and the
    change of basis onto the raw basis, with the membership checks."""

    def __init__(
        self,
        data: FilteredBialgebraData,
        filt: CoradicalFiltration,
        split: GradedSplitting,
        gr: FilteredBialgebraData,
        gens: GeneratorSet,
        gr_gens: dict[str, Vector],
        lifts: dict[str, Vector],
    ):
        self.data = data
        self.filt = filt
        self.split = split
        self.gr = gr
        self.gens = gens
        self.gr_gens = gr_gens
        self.lifts = lifts
        self.indices: list[MultiIndex] = gens.enumerate_up_to(data.degree_bound)
        self.index_pos = {m: t for t, m in enumerate(self.indices)}
        self._sparse_lifts = {gid: to_sparse(v) for gid, v in lifts.items()}
        self._monomials: dict[MultiIndex, dict[int, Fraction]] = {}
        self.basis_change: dict[int, QMatrix] = {}
        self._raw_to_pbw: Optional[list[dict[int, Fraction]]] = None
        self._comult_cache: dict[
            MultiIndex, list[tuple[MultiIndex, MultiIndex, Fraction]]
        ] = {}
        self._transposed: Optional[
            dict[tuple[MultiIndex, MultiIndex], list[tuple[MultiIndex, Fraction]]]
        ] = None

    @classmethod
    def from_bialgebra(
        cls, data: FilteredBialgebraData, stage: Optional[Callable] = None
    ) -> "PBWStructure":
        """Run the construction pipeline on a bialgebra: filtration,
        connectedness, splitting, associated graded algebra, generators and
        their lifts.  A recorder ``stage(name, step)`` that returns
        ``step()`` sees every step by name; with one, the checks
        ``verify_gr_facts`` (after the associated graded algebra) and
        ``verify_basis`` (at the end) run as steps too, and their reports
        reach the recorder as the steps' results."""
        run = stage or (lambda name, step: step())
        filt = run("coradical_filtration", lambda: coradical_filtration(data))
        run("check_connected", lambda: require_connected(filt, data.degree_bound))
        split = run("graded_splitting", lambda: graded_splitting(filt, data))
        gr = run("gr_structure", lambda: gr_structure(split))
        if stage is not None:
            stage("verify_gr_facts", lambda: verify_gr_facts(gr, data, filt, split))
        gens, gr_gens = run("extract_generators", lambda: extract_generators(gr))
        lifts = run("lift_generators", lambda: lift_generators(split, gens, gr_gens))
        pbw = cls(data, filt, split, gr, gens, gr_gens, lifts)
        if stage is not None:
            stage("verify_basis", pbw.verify_all_bases)
        return pbw

    # -- monomials -----------------------------------------------------------

    def sparse_monomial(self, m: MultiIndex) -> dict[int, Fraction]:
        """e_m as its nonzero raw coordinates, computed left to right in
        increasing generator order with the divided scaling 1/m(g)! applied
        per generator block; cached."""
        cached = self._monomials.get(m)
        if cached is not None:
            return cached
        if self.gens.degree(m) > self.data.degree_bound:
            raise TruncationError(
                f"monomial of degree {self.gens.degree(m)} exceeds the bound"
            )
        v = to_sparse(self.data.unit_vector())
        for gid, _ in self.gens.generators:
            k = m.mult(gid)
            if not k:
                continue
            lift = self._sparse_lifts[gid]
            for _ in range(k):
                v = _nonzero(self.data.mul_sparse(v, lift))
            scale = Fraction(1, factorial(k))
            v = {i: a * scale for i, a in v.items()}
        self._monomials[m] = v
        return v

    def pbw_monomial(self, m: MultiIndex) -> Vector:
        """e_m as a dense vector: a view of ``sparse_monomial``."""
        return to_dense(self.sparse_monomial(m), self.data.dim)

    # -- basis change ----------------------------------------------------------

    def verify_basis(self, n: int) -> Report:
        """The monomials of degree <= n form a basis of the n-th filtration
        layer; stores the change-of-basis matrix.  Raises BasisDefect on any
        failure."""
        rep = Report("basis")
        layer = self.filt.layers[n]
        idx = [m for m in self.indices if self.gens.degree(m) <= n]
        if len(idx) != layer.dim:
            raise BasisDefect(
                f"degree {n}: {len(idx)} monomials vs layer dimension {layer.dim}"
            )
        rows = []
        for m in idx:
            v = self.pbw_monomial(m)
            if not layer.contains(v):
                raise BasisDefect(f"degree {n}: e_{m} escapes the layer")
            rows.append(v)
        mat = QMatrix(rows, self.data.dim)
        if mat.rank() != len(idx):
            raise BasisDefect(f"degree {n}: monomials are dependent")
        self.basis_change[n] = mat
        rep.add("basis", f"degree {n}", PASS, f"dim {len(idx)}")
        return rep

    def verify_all_bases(self) -> Report:
        rep = Report("basis")
        for n in range(self.data.degree_bound + 1):
            rep.extend(self.verify_basis(n))
        return rep

    def _ensure_full_basis(self) -> None:
        if self._raw_to_pbw is not None:
            return
        top = self.data.degree_bound
        if top not in self.basis_change:
            self.verify_all_bases()
        full = QMatrix.from_columns(
            [self.pbw_monomial(m) for m in self.indices]
        )
        inv = full.inverse()
        self._raw_to_pbw = [
            {k: inv.rows[k][j] for k in range(len(self.indices)) if inv.rows[k][j]}
            for j in range(self.data.dim)
        ]

    def pbw_coords(self, v: Vector) -> dict[MultiIndex, Fraction]:
        """Exact expansion of a raw vector on the monomial basis."""
        self._ensure_full_basis()
        out: dict[int, Fraction] = {}
        for j, a in enumerate(v):
            if not a:
                continue
            for k, c in self._raw_to_pbw[j].items():
                out[k] = out.get(k, Q0) + a * c
        return {self.indices[k]: c for k, c in sorted(out.items()) if c}

    # -- products --------------------------------------------------------------

    def structure_constant(
        self, n: MultiIndex, m: MultiIndex
    ) -> tuple[Fraction, Vector]:
        """Multinomial leading coefficient and the defect
        e_n e_m - c e_{n+m}, asserted to lie one filtration layer down."""
        total = self.gens.add(n, m)
        deg = self.gens.degree(total)
        if deg > self.data.degree_bound:
            raise TruncationError("product degree exceeds the bound")
        c = Q1
        for gid in set(n.support) | set(m.support):
            a, b = n.mult(gid), m.mult(gid)
            c *= Fraction(factorial(a + b), factorial(a) * factorial(b))
        prod = self.data.mul_sparse(
            self.sparse_monomial(n), self.sparse_monomial(m)
        )
        for k, a in self.sparse_monomial(total).items():
            prod[k] = prod.get(k, Q0) - c * a
        defect = to_dense(prod, self.data.dim)
        if deg == 0:
            ok = is_zero_vec(defect)
        else:
            ok = self.filt.layers[deg - 1].contains(defect)
        if not ok:
            raise BasisDefect(f"defect of e_{n} e_{m} escapes layer {deg - 1}")
        return c, defect

    # -- comultiplication --------------------------------------------------------

    def expand_comult(
        self, m: MultiIndex
    ) -> list[tuple[MultiIndex, MultiIndex, Fraction]]:
        """Delta(e_m) on the monomial (x) monomial basis, sorted by the
        well-order on both tensor positions."""
        cached = self._comult_cache.get(m)
        if cached is not None:
            return cached
        if self.gens.degree(m) > self.data.degree_bound:
            raise TruncationError("index degree exceeds the bound")
        self._ensure_full_basis()
        tmap = self.data.comult_map(self.pbw_monomial(m))
        acc: dict[tuple[int, int], Fraction] = {}
        for (a, b), coeff in tmap.items():
            for i, ci in self._raw_to_pbw[a].items():
                cc = coeff * ci
                for j, cj in self._raw_to_pbw[b].items():
                    key = (i, j)
                    acc[key] = acc.get(key, Q0) + cc * cj
        out = []
        deg_m = self.gens.degree(m)
        for (i, j), c in sorted(acc.items()):
            if not c:
                continue
            left, right = self.indices[i], self.indices[j]
            if self.gens.degree(left) + self.gens.degree(right) > deg_m:
                raise ExpansionViolation(
                    f"term e_{left} (x) e_{right} of Delta(e_{m}) exceeds degree {deg_m}"
                )
            out.append((left, right, c))
        self._comult_cache[m] = out
        return out

    def transposed_comult(
        self,
    ) -> dict[tuple[MultiIndex, MultiIndex], list[tuple[MultiIndex, Fraction]]]:
        """The structure constants of Delta read by tensor pair: (i, j) ->
        [(n, c)] for every term c e_i (x) e_j of Delta(e_n), n in index
        order.  Built once, from expand_comult over every index."""
        if self._transposed is None:
            table: dict = {}
            for n in self.indices:
                for i, j, c in self.expand_comult(n):
                    table.setdefault((i, j), []).append((n, c))
            self._transposed = table
        return self._transposed

    def check_split_expansion(self, m: MultiIndex) -> Report:
        """Every expansion term is either a splitting of m with coefficient
        exactly 1 (each splitting occurring once) or strictly smaller; raises
        ExpansionViolation otherwise."""
        rep = Report("split-expansion")
        expected = {
            (left, right) for left, right in self.gens.splittings(m)
        }
        seen: set[tuple[MultiIndex, MultiIndex]] = set()
        for left, right, c in self.expand_comult(m):
            total = self.gens.add(left, right)
            if total == m:
                if c != 1:
                    raise ExpansionViolation(
                        f"splitting e_{left} (x) e_{right} of e_{m} has "
                        f"coefficient {rat_str(c)} != 1"
                    )
                if (left, right) in seen:
                    raise ExpansionViolation(
                        f"splitting e_{left} (x) e_{right} of e_{m} repeats"
                    )
                seen.add((left, right))
            elif self.gens.compare(total, m) != -1:
                raise ExpansionViolation(
                    f"term e_{left} (x) e_{right} of Delta(e_{m}) is not "
                    f"strictly below {m}"
                )
        if seen != expected:
            missing = next(iter(expected - seen))
            raise ExpansionViolation(
                f"splitting e_{missing[0]} (x) e_{missing[1]} of e_{m} is missing"
            )
        rep.add("split-expansion", str(m), PASS, f"{len(seen)} splittings")
        return rep

    def check_all_split_expansions(self) -> Report:
        rep = Report("split-expansion")
        for m in self.indices:
            rep.extend(self.check_split_expansion(m))
        return rep

    # -- closure of spans -------------------------------------------------------

    def check_span_closure(self, rng, samples: int) -> Report:
        """Sampled check that products of elements supported below n and m
        expand with support below n + m."""
        rep = Report("span-closure")
        bound = self.data.degree_bound
        # indices ascend in the well-order, which compares degrees first, so
        # "every index <= m" and "every index of degree <= d" are prefixes
        small = self.indices[: self.gens.count_up_to(bound // 2)]

        def sample_elem(top: MultiIndex) -> dict[int, Fraction]:
            v: dict[int, Fraction] = {}
            for i in self.indices[: self.index_pos[top] + 1]:
                c = rng.randint(-2, 2)
                if c:
                    for k, a in self.sparse_monomial(i).items():
                        v[k] = v.get(k, Q0) + c * a
            return _nonzero(v)

        for trial in range(samples):
            n = small[rng.randrange(len(small))]
            choices = self.indices[
                : self.gens.count_up_to(bound - self.gens.degree(n))
            ]
            m = choices[rng.randrange(len(choices))]
            top = self.index_pos[self.gens.add(n, m)]
            u, w = sample_elem(n), sample_elem(m)
            prod = self.data.mul_sparse(u, w)
            support = self.pbw_coords(to_dense(prod, self.data.dim))
            bad = [i for i in support if self.index_pos[i] > top]
            rep.add(
                "span-closure",
                f"trial {trial} (n={n}, m={m})",
                PASS if not bad else FAIL,
                f"escaped at {bad[0]}" if bad else "",
            )
        return rep


def _nonzero(v: dict[int, Fraction]) -> dict[int, Fraction]:
    return {k: a for k, a in v.items() if a}
