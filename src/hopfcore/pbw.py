"""Ordered divided-power bases lifted from the associated graded algebra.

Homogeneous generators of the associated graded algebra are found degree by
degree as complements of the decomposable part; their lifts through the
splitting generate ordered divided-power monomials e_m = prod e_g^{m(g)}/m(g)!
(factors in increasing generator order), one for each exponent vector m
within the bound.  These monomials restrict to a basis of every filtration
layer, their products have multinomial leading coefficients and strictly
lower defects, and their comultiplications expand with coefficient 1 on
every splitting of the index plus strictly smaller terms; all of that is
machine-checked here, with sums and splittings of indices taken on their
exponent vectors.  Each monomial is kept as an integral vector over one
positive denominator, so on integral tables the checks run in ``int``
arithmetic and divide once per value they return, by ``Rational(a, d)``,
which is an ``int`` wherever d divides a.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb, gcd, lcm, prod
from operator import add
from typing import Callable, Mapping, Optional

from .coalgebra import (
    SAMPLE_COEFFS,
    CoradicalFiltration,
    FilteredBialgebraData,
    GradedSplitting,
    _split_tensor,
    coradical_filtration,
    gr_structure,
    graded_splitting,
    require_connected,
)
from .errors import BasisDefect, ExpansionViolation, HopfcoreError, TruncationError
from .linalg import (
    Q0,
    Q1,
    Rational,
    Scalar,
    SparseRow,
    Subspace,
    combine,
    integral,
    inverse,
    nonzero,
    rank,
    rat_str,
)
from .monoid import GeneratorSet, splittings, weighted_degree
from .report import FAIL, PASS, Report


def extract_generators(
    gr: FilteredBialgebraData,
) -> tuple[GeneratorSet, dict[str, SparseRow]]:
    """Minimal homogeneous generators of the associated graded algebra.

    In each degree d the generators are the basis vectors of gr(d) at the
    normal columns of the decomposable part sum_{0<i<d} gr(i)*gr(d-i).
    Polynomiality is validated by comparing dim gr(d) with the number of
    weighted-degree-d monomials in the extracted generators, for every d up
    to the bound.
    """
    degrees = gr.degrees
    if degrees is None:
        raise HopfcoreError("graded instance carries no degree labels")
    dim = gr.dim
    gens: list[tuple[str, int]] = []
    vectors: dict[str, SparseRow] = {}
    for d in range(1, gr.degree_bound + 1):
        if d not in degrees:
            continue
        # equal products, which a polynomial gr has many of, enter once
        decomposable = dict.fromkeys(
            gr.mult[a, b]
            for a in range(dim)
            if 0 < degrees[a] < d
            for b in range(dim)
            if degrees[a] + degrees[b] == d and degrees[b] != 0
        )
        for k in Subspace.from_sparse(list(map(dict, decomposable)), dim).normal:
            if degrees[k] != d:
                continue
            # gr's labels are unique, so they name the generators
            gens.append((gr.basis_labels[k], d))
            vectors[gr.basis_labels[k]] = {k: Q1}

    genset = GeneratorSet(gens)
    for d in range(gr.degree_bound + 1):
        level_dim = sum(1 for k in range(dim) if degrees[k] == d)
        expected = genset.count_exact(d)
        if level_dim != expected:
            raise HopfcoreError(
                f"degree {d}: graded dimension {level_dim} but {expected} "
                f"monomials in the extracted generators"
            )
    return genset, vectors


def lift_generators(
    split: GradedSplitting,
    gens: GeneratorSet,
    gr_gens: dict[str, SparseRow],
) -> dict[str, SparseRow]:
    """Lift each homogeneous generator through the splitting; the lift's
    top-degree class is re-checked to be the generator itself."""
    lifts: dict[str, SparseRow] = {}
    for gid, d in gens.generators:
        coords = gr_gens[gid]
        lift = combine(split.vectors, coords)
        back = split.to_split(lift)
        top = {k: c for k, c in back.items() if split.degrees[k] == d}
        if top != coords or split.max_degree(back) > d:
            raise BasisDefect(f"lift of generator {gid!r} does not project back")
        lifts[gid] = lift
    return lifts


class PBWStructure:
    """Generator lifts, cached ordered divided-power monomials, and the
    expansion of raw vectors on them, with the membership checks; it holds
    only what its methods read, not the splitting or the associated graded
    algebra.

    An index is named by its position in ``indices``, the well-ordered list
    of every exponent vector within the bound, and ``index_pos`` maps an
    exponent vector back; caches, expansions and the checks all work on
    positions.  ``degrees[p]`` is the degree of the index at position p,
    positions ascend by degree, ``labels[p]`` is its report text, and
    ``gen_pos[t]`` is the position of the t-th generator."""

    def __init__(
        self,
        data: FilteredBialgebraData,
        filt: CoradicalFiltration,
        gens: GeneratorSet,
        lifts: dict[str, SparseRow],
    ):
        self.data = data
        self.filt = filt
        self.gens = gens
        self.lifts = lifts
        self.indices = gens.enumerate_up_to(data.degree_bound)
        self.index_pos = {e: t for t, e in enumerate(self.indices)}
        self.degrees = [weighted_degree(e, gens.weights) for e in self.indices]
        self.labels = [gens.label(e) for e in self.indices]
        # generator t has the index with exponent 1 at t and 0 elsewhere
        self.gen_pos = [
            self.index_pos[tuple(int(s == t) for s in range(len(gens)))]
            for t in range(len(gens))
        ]
        self._monomials: dict[int, tuple[int, SparseRow]] = {}
        self._raw_to_pbw: Optional[list[dict[int, Scalar]]] = None
        self._transposed: Optional[
            dict[tuple[int, int], list[tuple[int, Scalar]]]
        ] = None

    @classmethod
    def from_bialgebra(
        cls, data: FilteredBialgebraData, stage: Optional[Callable] = None
    ) -> "PBWStructure":
        """Run the construction pipeline on a bialgebra: filtration,
        connectedness, splitting, associated graded algebra, generators and
        their lifts.  A recorder ``stage(name, step)`` that returns
        ``step()`` sees every step by name and its result; the splitting and
        the associated graded algebra outlive the call only if it keeps
        them."""
        run = stage or (lambda name, step: step())
        filt = run("coradical_filtration", lambda: coradical_filtration(data))
        run("check_connected", lambda: require_connected(filt, data.degree_bound))
        split = run("graded_splitting", lambda: graded_splitting(filt, data))
        gr = run("gr_structure", lambda: gr_structure(split))
        gens, gr_gens = run("extract_generators", lambda: extract_generators(gr))
        lifts = run("lift_generators", lambda: lift_generators(split, gens, gr_gens))
        return cls(data, filt, gens, lifts)

    def count_up_to(self, d: int) -> int:
        """The number of indices of degree <= d: the length of the prefix
        of ``indices`` they form."""
        return bisect_right(self.degrees, d)

    def index_sum(self, p: int, q: int) -> Optional[int]:
        """The position of the sum of the indices at p and q, or None when
        the sum lies past the degree bound."""
        if self.degrees[p] + self.degrees[q] > self.data.degree_bound:
            return None
        return self.index_pos[tuple(map(add, self.indices[p], self.indices[q]))]

    def _require(self, p: int) -> tuple[int, ...]:
        """The exponents of the index at position p; a position past the
        last index names an index past the degree bound."""
        if p >= len(self.indices):
            raise TruncationError(f"index position {p} lies past the degree bound")
        return self.indices[p]

    # -- monomials -----------------------------------------------------------

    def first_factor(self, p: int) -> tuple[int, int, int]:
        """For the nonzero index m at position p: the position t of its
        first generator g (the least t with m(t) > 0), its multiplicity
        k = m(t), and the position of m - g.  Then e_m is (1/k) times
        lift_g e_(m - g), because lift_g e_(m - g) = k e_m by associativity,
        and the operator of e_m is (1/k) g composed with that of e_(m - g)."""
        m = self.indices[p]
        t = next(t for t, k in enumerate(m) if k)
        k = m[t]
        return t, k, self.index_pos[m[:t] + (k - 1,) + m[t + 1 :]]

    def integral_monomial(self, p: int) -> tuple[int, SparseRow]:
        """e_m for the index m at position p as (d, v): v = d e_m has
        integral raw coordinates (zeros dropped), and d is the least positive
        integer for which it does; cached.  The unit at the zero index, and
        otherwise lift_g e_(m - g) over k times the denominator of e_(m - g)
        by ``first_factor``, one product per monomial.  On a divided raw
        basis every d is 1."""
        cached = self._monomials.get(p)
        if cached is not None:
            return cached
        self._require(p)
        if p == 0:
            entry = 1, {self.data.unit_index: Q1}
        else:
            t, k, rest = self.first_factor(p)
            d, v = self.integral_monomial(rest)
            entry = integral(self.data.mul(self.lifts[self.gens.ids[t]], v), d * k)
        self._monomials[p] = entry
        return entry

    # -- basis change ----------------------------------------------------------

    def _basis_change(self) -> list[dict[int, Scalar]]:
        """The inverse of the matrix of all the monomials, built on first
        use and kept as ``_raw_to_pbw``: row j expands the raw basis vector
        e_j on the monomials.  Building it proves that the monomials of
        degree <= n form a basis of the n-th filtration layer, for every n:
        the layer has as many monomials as its dimension and holds those of
        degree n (the layers nest), and the inverse proves every prefix
        independent.  Raises BasisDefect on any failure, at the lowest
        degree where it occurs."""
        if self._raw_to_pbw is not None:
            return self._raw_to_pbw
        bound, dim = self.data.degree_bound, self.data.dim
        monomials = []
        for n in range(bound + 1):
            layer, count = self.filt.layers[n], self.count_up_to(n)
            if count != layer.dim:
                raise BasisDefect(
                    f"degree {n}: {count} monomials vs layer dimension {layer.dim}"
                )
            for p in range(len(monomials), count):
                d, v = self.integral_monomial(p)
                if not layer.contains(v):
                    raise BasisDefect(f"degree {n}: e_{self.labels[p]} escapes the layer")
                monomials.append((d, v))
        rows = [v for _, v in monomials]
        try:
            raw_to_pbw = inverse(rows, dim)
        except ValueError:
            counts = [self.count_up_to(n) for n in range(bound + 1)]
            n = next(n for n, c in enumerate(counts) if rank(rows[:c], dim) < c)
            raise BasisDefect(f"degree {n}: monomials are dependent") from None
        # row j of the inverse expands e_j on the rows d_p e_(m_p), so its
        # entries p are 1/d_p times those wanted
        for row in raw_to_pbw:
            for p, c in row.items():
                row[p] = c * monomials[p][0]
        self._raw_to_pbw = raw_to_pbw
        return raw_to_pbw

    def verify_all_bases(self, rep: Report) -> None:
        """One ``basis`` line per degree n: the monomials of degree <= n form
        a basis of the n-th filtration layer (see ``_basis_change``, which
        raises BasisDefect before any line is added)."""
        self._basis_change()
        for n in range(self.data.degree_bound + 1):
            rep.add("basis", f"degree {n}", PASS, f"dim {self.count_up_to(n)}")

    def pbw_coords(self, v: Mapping[int, Scalar]) -> dict[int, Scalar]:
        """Exact expansion of a sparse raw vector on the monomial basis, as
        {position: coefficient} in ascending position, zeros dropped."""
        return dict(sorted(combine(self._basis_change(), v).items()))

    # -- products --------------------------------------------------------------

    def structure_constant(self, p: int, q: int) -> tuple[Scalar, SparseRow]:
        """Multinomial leading coefficient and the defect
        e_n e_m - c e_{n+m}, asserted to lie one filtration layer down."""
        total = self.index_sum(p, q)
        if total is None:
            raise TruncationError("product degree exceeds the bound")
        c = prod(comb(a + b, a) for a, b in zip(self.indices[p], self.indices[q]))
        # the defect times l = lcm(d_n d_m, d_(n+m)), in integers
        dp, vp = self.integral_monomial(p)
        dq, vq = self.integral_monomial(q)
        defect = self.data.mul(vp, vq)
        dt, vt = self.integral_monomial(total)
        l = dp * dq
        if l % dt:
            f = dt // gcd(l, dt)
            defect = {k: a * f for k, a in defect.items()}
            l *= f
        ct = c * (l // dt)
        for k, a in vt.items():
            defect[k] = defect.get(k, Q0) - ct * a
        deg = self.degrees[total]
        if deg == 0:
            ok = not any(defect.values())
        else:
            ok = self.filt.layers[deg - 1].contains(defect)
        if not ok:
            name = self.labels
            raise BasisDefect(f"defect of e_{name[p]} e_{name[q]} escapes layer {deg - 1}")
        if l == 1:
            return c, nonzero(defect)
        return c, {k: Rational(a, l) for k, a in defect.items() if a}

    # -- comultiplication --------------------------------------------------------

    def expand_comult(self, p: int) -> list[tuple[int, int, Scalar]]:
        """Delta(e_m) for the index m at position p on the monomial (x)
        monomial basis, as terms (i, j, c) on positions, sorted by (i, j);
        computed on each call, since ``transposed_comult`` holds the table."""
        self._require(p)
        raw_to_pbw = self._basis_change()
        # Delta(d e_m) in integers, divided by d once per term
        d, v = self.integral_monomial(p)
        acc = _split_tensor(raw_to_pbw, self.data.comult_map(v))
        out = []
        degrees, deg_m, name = self.degrees, self.degrees[p], self.labels
        for (i, j), c in sorted(acc.items()):
            if degrees[i] + degrees[j] > deg_m:
                raise ExpansionViolation(
                    f"term e_{name[i]} (x) e_{name[j]} of "
                    f"Delta(e_{name[p]}) exceeds degree {deg_m}"
                )
            out.append((i, j, c if d == 1 else Rational(c, d)))
        return out

    def transposed_comult(self) -> dict[tuple[int, int], list[tuple[int, Scalar]]]:
        """The structure constants of Delta read by tensor pair: (i, j) ->
        [(n, c)] for every term c e_i (x) e_j of Delta(e_n), n ascending.
        Built once, from expand_comult over every index."""
        if self._transposed is None:
            table: dict = {}
            for n in range(len(self.indices)):
                for i, j, c in self.expand_comult(n):
                    table.setdefault((i, j), []).append((n, c))
            self._transposed = table
        return self._transposed

    def check_split_expansion(self, rep: Report, p: int) -> None:
        """Every expansion term is either a splitting of m with coefficient
        exactly 1 (each splitting occurring once) or strictly smaller; raises
        ExpansionViolation otherwise, before its line is added.  A missing
        splitting is named by the first in position order."""
        name, pos = self.labels, self.index_pos
        m = name[p]
        expected = {(pos[l], pos[r]) for l, r in splittings(self.indices[p])}
        seen: set[tuple[int, int]] = set()
        for i, j, c in self.expand_comult(p):
            total = self.index_sum(i, j)
            if total == p:
                if c != 1:
                    raise ExpansionViolation(
                        f"splitting e_{name[i]} (x) e_{name[j]} of e_{m} has "
                        f"coefficient {rat_str(c)} != 1"
                    )
                if (i, j) in seen:
                    raise ExpansionViolation(
                        f"splitting e_{name[i]} (x) e_{name[j]} of e_{m} repeats"
                    )
                seen.add((i, j))
            elif total > p:
                raise ExpansionViolation(
                    f"term e_{name[i]} (x) e_{name[j]} of Delta(e_{m}) is not "
                    f"strictly below {m}"
                )
        if seen != expected:
            i, j = min(expected - seen)
            raise ExpansionViolation(
                f"splitting e_{name[i]} (x) e_{name[j]} of e_{m} is missing"
            )
        rep.add("split-expansion", m, PASS, f"{len(seen)} splittings")

    # -- closure of spans -------------------------------------------------------

    def check_span_closure(self, rep: Report, rng, samples: int) -> None:
        """Sampled check that products of elements supported below n and m
        expand with support below n + m."""
        bound = self.data.degree_bound

        def sample_elem(top: int) -> SparseRow:
            """A random combination of the first top + 1 monomials, with
            coefficients in -2..2, times the lcm of the denominators of the
            monomials it uses: an integral vector whose products have the
            supports of the unscaled element's."""
            coeffs = {i: rng.choice(SAMPLE_COEFFS) for i in range(top + 1)}
            rows, dens = {}, {}
            for i, c in coeffs.items():
                if c:
                    dens[i], rows[i] = self.integral_monomial(i)
            scale = lcm(*dens.values())
            if scale > 1:
                coeffs = {i: coeffs[i] * (scale // d) for i, d in dens.items()}
            return combine(rows, coeffs)

        # positions ascend in the well-order, which compares degrees first,
        # so "every index <= m" and "every index of degree <= d" are prefixes
        for trial in range(samples):
            n = rng.randrange(self.count_up_to(bound // 2))
            m = rng.randrange(self.count_up_to(bound - self.degrees[n]))
            top = self.index_sum(n, m)
            u, w = sample_elem(n), sample_elem(m)
            support = self.pbw_coords(self.data.mul(u, w))
            bad = [i for i in support if i > top]
            rep.add(
                "span-closure",
                f"trial {trial} (n={self.labels[n]}, m={self.labels[m]})",
                PASS if not bad else FAIL,
                f"escaped at {self.labels[bad[0]]}" if bad else "",
            )
