"""Truncated convolution algebras of linear maps into a coefficient ring.

A map f out of the truncated algebra is stored by its values on the ordered
divided-power basis, i.e. as a finitely supported function from multi-indices
to ring elements.  Convolution is computed through the cached
comultiplication expansions of the host basis, so it is exact on every index
within the truncation bound.  Leading data (smallest support index under the
well-order, value there) drives the primeness witnesses: for a prime ring a
middle factor r with s_min * r * t_min != 0 is found by a bounded scan and
pulled back through the counit, and the leading term of s * u * t is checked
to be exactly (s+t, s_min r t_min).  A failed scan refutes the declared ring
property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .errors import (
    HostMismatch,
    InputFormatError,
    NoWitnessFound,
    ProbeAnomaly,
    RingMismatch,
    TruncationError,
    ZeroElement,
)
from .linalg import Q0, Q1, Vector, is_zero_vec, rat
from .monoid import MultiIndex, ZERO_INDEX
from .pbw import PBWStructure
from .report import FAIL, PASS, Report
from .table import TableAlgebra, parse_table, string_list


@dataclass(frozen=True)
class RingFlags:
    is_prime: Optional[bool] = None
    is_semiprime: Optional[bool] = None
    is_domain: Optional[bool] = None


def ring_q() -> TableAlgebra:
    return TableAlgebra.finite(
        ("1",),
        {(0, 0): [(0, Q1)]},
        (Q1,),
        "q",
        RingFlags(is_prime=True, is_semiprime=True, is_domain=True),
    )


def ring_m2q() -> TableAlgebra:
    labels = ("E11", "E12", "E21", "E22")
    table = {}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    if b == c:
                        table[(2 * a + b, 2 * c + d)] = [(2 * a + d, Q1)]
    return TableAlgebra.finite(
        labels,
        table,
        (Q1, Q0, Q0, Q1),
        "m2q",
        RingFlags(is_prime=True, is_semiprime=True, is_domain=False),
    )


def ring_qxq() -> TableAlgebra:
    return TableAlgebra.finite(
        ("e1", "e2"),
        {(0, 0): [(0, Q1)], (1, 1): [(1, Q1)]},
        (Q1, Q1),
        "qxq",
        RingFlags(is_prime=False, is_semiprime=True, is_domain=False),
    )


def ring_qx2() -> TableAlgebra:
    return TableAlgebra.finite(
        ("1", "x"),
        {(0, 0): [(0, Q1)], (0, 1): [(1, Q1)], (1, 0): [(1, Q1)]},
        (Q1, Q0),
        "qx2",
        RingFlags(is_prime=False, is_semiprime=False, is_domain=False),
    )


_BUILTIN_FACTORIES = {
    "q": ring_q,
    "m2q": ring_m2q,
    "qxq": ring_qxq,
    "qx2": ring_qx2,
}
_BUILTIN_CACHE: dict[str, TableAlgebra] = {}


def builtin_ring(name: str) -> TableAlgebra:
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise InputFormatError(
            f"unknown ring {name!r}; built-ins are {sorted(_BUILTIN_FACTORIES)}"
        ) from None
    if name not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[name] = factory()
    return _BUILTIN_CACHE[name]


def ring_from_tables(obj: Mapping) -> TableAlgebra:
    try:
        labels = string_list(obj["basis"], 'ring "basis"')
        pos = {s: i for i, s in enumerate(labels)}
        table = parse_table(obj["mult"], pos)
        one = [Q0] * len(labels)
        for a, c in obj["one"].items():
            one[pos[a]] = rat(c)
        flags_obj = obj.get("flags", {})
        flags = RingFlags(
            is_prime=flags_obj.get("prime"),
            is_semiprime=flags_obj.get("semiprime"),
            is_domain=flags_obj.get("domain"),
        )
        return TableAlgebra.finite(
            labels, table, tuple(one), str(obj.get("name", "user")), flags
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed ring table: {exc}") from exc


def _annihilates(ring: TableAlgebra, a: Vector, b: Vector) -> bool:
    """a r b = 0 for every basis element r."""
    return all(
        ring.is_zero(ring.mul(ring.mul(a, ring.basis_vec(r)), b))
        for r in range(ring.dim)
    )


def prime_refuter(ring: TableAlgebra) -> Optional[tuple[int, int]]:
    """The first basis pair (i, j) with e_i R e_j = 0, which refutes
    primeness, or None."""
    for i in range(ring.dim):
        for j in range(ring.dim):
            if _annihilates(ring, ring.basis_vec(i), ring.basis_vec(j)):
                return (i, j)
    return None


def semiprime_refuter(ring: TableAlgebra) -> Optional[int]:
    """The first basis element e_i with e_i R e_i = 0, which refutes
    semiprimeness, or None."""
    for i in range(ring.dim):
        if _annihilates(ring, ring.basis_vec(i), ring.basis_vec(i)):
            return i
    return None


def ring_check(ring: TableAlgebra) -> Report:
    """Validate associativity and unit laws on the basis, then confirm or
    refute the declared flags by bounded scans (zero-divisor pairs, a.R.b
    annihilation, a.R.a annihilation)."""
    rep = Report("ring-check")
    dim = ring.dim
    basis = [ring.basis_vec(i) for i in range(dim)]

    assoc_ok = True
    for i in range(dim):
        for j in range(dim):
            left = ring.mul(basis[i], basis[j])
            for k in range(dim):
                if ring.mul(left, basis[k]) != ring.mul(
                    basis[i], ring.mul(basis[j], basis[k])
                ):
                    assoc_ok = False
    rep.add("associativity", ring.name, PASS if assoc_ok else FAIL)

    one = ring.unit_vector()
    unit_ok = all(
        ring.mul(one, b) == b and ring.mul(b, one) == b for b in basis
    )
    rep.add("unit-law", ring.name, PASS if unit_ok else FAIL)

    zero_pair = None
    for i in range(dim):
        for j in range(dim):
            if ring.is_zero(ring.mul(basis[i], basis[j])):
                zero_pair = (i, j)
                break
        if zero_pair:
            break
    domain_refuted = zero_pair is not None
    if ring.flags.is_domain and domain_refuted:
        rep.add(
            "flag-domain",
            ring.name,
            FAIL,
            f"zero divisors {ring.label(zero_pair[0])},{ring.label(zero_pair[1])}",
        )
    else:
        detail = (
            f"refuted by {ring.label(zero_pair[0])},{ring.label(zero_pair[1])}"
            if domain_refuted
            else "no zero divisors among basis pairs"
        )
        rep.add("flag-domain", ring.name, PASS, detail)

    pair = prime_refuter(ring)
    if bool(ring.flags.is_prime) == (pair is None):
        detail = (
            f"refuted by pair {ring.label(pair[0])},{ring.label(pair[1])}"
            if pair is not None
            else "witness for every basis pair"
        )
        rep.add("flag-prime", ring.name, PASS, detail)
    else:
        rep.add("flag-prime", ring.name, FAIL, "declared flag contradicts scan")

    nil = semiprime_refuter(ring)
    if bool(ring.flags.is_semiprime) == (nil is None):
        detail = f"refuted by {ring.label(nil)}" if nil is not None else ""
        rep.add("flag-semiprime", ring.name, PASS, detail)
    else:
        rep.add("flag-semiprime", ring.name, FAIL, "declared flag contradicts scan")
    return rep


# ---------------------------------------------------------------------------
# convolution elements


@dataclass(frozen=True)
class LeadingTerm:
    index: MultiIndex
    value: Vector


class ConvElement:
    """A truncated linear map out of the host algebra, stored by its nonzero
    values on the ordered divided-power basis."""

    __slots__ = ("host", "ring", "_map")

    def __init__(
        self,
        host: PBWStructure,
        ring: TableAlgebra,
        values: Mapping[MultiIndex, Vector],
    ):
        self.host = host
        self.ring = ring
        cleaned = {}
        for m, v in values.items():
            if m not in host.index_pos:
                raise InputFormatError(f"index {m} does not live on this host")
            if not is_zero_vec(v):
                cleaned[m] = tuple(v)
        self._map = cleaned

    def value(self, m: MultiIndex) -> Vector:
        return self._map.get(m, self.ring.zero())

    @property
    def is_zero(self) -> bool:
        return not self._map

    def support(self) -> list[MultiIndex]:
        return self.host.gens.sort(self._map.keys())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConvElement)
            and self.host is other.host
            and self.ring.same_as(other.ring)
            and self._map == other._map
        )

    def __repr__(self):
        body = ", ".join(
            f"{m}: {self.ring.format(v)}" for m, v in list(self._map.items())[:4]
        )
        return f"ConvElement({body}{'...' if len(self._map) > 4 else ''})"


def unit_conv(host: PBWStructure, ring: TableAlgebra) -> ConvElement:
    """The convolution unit: 1 of the ring at the zero index."""
    return ConvElement(host, ring, {ZERO_INDEX: ring.unit_vector()})


def counit_pullback(
    host: PBWStructure, ring: TableAlgebra, r: Vector
) -> ConvElement:
    """The map taking value r at the zero index and 0 elsewhere."""
    return ConvElement(host, ring, {ZERO_INDEX: r})


def convolve(f: ConvElement, g: ConvElement) -> ConvElement:
    """(f * g)(e_n) = sum of c f(e_i) g(e_j) over the terms c e_i (x) e_j
    of Delta(e_n), taken from the transposed comultiplication: each pair of
    supp f x supp g is multiplied once and spread over the indices it
    feeds."""
    if f.host is not g.host:
        raise HostMismatch("operands live over different hosts")
    if not f.ring.same_as(g.ring):
        raise RingMismatch(f"{f.ring.name} vs {g.ring.name}")
    host, ring = f.host, f.ring
    table = host.transposed_comult()
    acc: dict[MultiIndex, list[Fraction]] = {}
    for i, fv in f._map.items():
        for j, gv in g._map.items():
            targets = table.get((i, j))
            if targets is None:
                continue
            term = ring.mul(fv, gv)
            for n, c in targets:
                value = acc.get(n)
                if value is None:
                    acc[n] = [c * x for x in term]
                else:
                    for k, x in enumerate(term):
                        if x:
                            value[k] += c * x
    order = host.index_pos
    values = {n: tuple(acc[n]) for n in sorted(acc, key=order.__getitem__)}
    return ConvElement(host, ring, values)


def u_star(f: ConvElement) -> Vector:
    """Evaluation at the unit: the value at the zero index."""
    return f.value(ZERO_INDEX)


def leading(f: ConvElement) -> LeadingTerm:
    if f.is_zero:
        raise ZeroElement("leading term of the zero element")
    idx = f.host.gens.min_of(f._map.keys())
    return LeadingTerm(idx, f._map[idx])


@dataclass(frozen=True)
class LeadingLawOutcome:
    lead_left: LeadingTerm
    lead_right: LeadingTerm
    vanishing_ok: bool
    leading_value_ok: bool
    product_nonzero: bool
    leading_term_ok: Optional[bool]

    @property
    def passed(self) -> bool:
        return (
            self.vanishing_ok
            and self.leading_value_ok
            and (self.leading_term_ok is not False)
        )


def check_leading_law(f: ConvElement, g: ConvElement) -> LeadingLawOutcome:
    """Exact leading behavior of a convolution product: below the sum of the
    leading indices everything vanishes, at the sum the value is the product
    of the leading values, and when that product is nonzero it is the leading
    term.  Raises TruncationError when the sum index is beyond the bound."""
    lf, lg = leading(f), leading(g)
    host = f.host
    total = host.gens.add(lf.index, lg.index)
    if host.gens.degree(total) > host.data.degree_bound:
        raise TruncationError(
            f"leading sum degree {host.gens.degree(total)} exceeds the bound"
        )
    prod = convolve(f, g)
    vanish = not any(host.gens.lt(n, total) for n in prod._map)
    expected = f.ring.mul(lf.value, lg.value)
    value_ok = prod.value(total) == expected
    nonzero = not f.ring.is_zero(expected)
    term_ok: Optional[bool] = None
    if nonzero:
        term_ok = (not prod.is_zero) and leading(prod) == LeadingTerm(total, expected)
    return LeadingLawOutcome(lf, lg, vanish, value_ok, nonzero, term_ok)


@dataclass(frozen=True)
class Witness:
    r: Vector
    u: ConvElement
    proof: LeadingTerm


def _witness_candidates(ring: TableAlgebra) -> list[Vector]:
    singles = [ring.basis_vec(i) for i in range(ring.dim)]
    pairs = [
        tuple(Q1 if k in (i, j) else Q0 for k in range(ring.dim))
        for i in range(ring.dim)
        for j in range(i + 1, ring.dim)
    ]
    return singles + pairs


def prime_witness(s: ConvElement, t: ConvElement) -> Witness:
    """Find r with s_min * r * t_min != 0 among basis elements and sums of
    two, pull it back through the counit, and verify the leading term of
    s * u * t.  A failed scan raises NoWitnessFound, refuting primeness."""
    ls, lt = leading(s), leading(t)
    host, ring = s.host, s.ring
    total = host.gens.add(ls.index, lt.index)
    if host.gens.degree(total) > host.data.degree_bound:
        raise TruncationError("leading sum degree exceeds the bound")
    for r in _witness_candidates(ring):
        value = ring.mul(ring.mul(ls.value, r), lt.value)
        if ring.is_zero(value):
            continue
        u = counit_pullback(host, ring, r)
        proof = leading(convolve(convolve(s, u), t))
        if proof != LeadingTerm(total, value):
            raise ProbeAnomaly(
                f"witness product has leading {proof.index}:"
                f"{ring.format(proof.value)}, expected {total}:{ring.format(value)}"
            )
        return Witness(r, u, proof)
    raise NoWitnessFound(
        f"no middle factor r with s_min r t_min != 0 over {ring.name} "
        f"(s_min={ring.format(ls.value)}, t_min={ring.format(lt.value)})"
    )


def semiprime_witness(s: ConvElement) -> Witness:
    """The one-sided version: s * u * s with the same scan; a failed scan
    refutes semiprimeness."""
    witness = prime_witness(s, s)
    if convolve(convolve(s, witness.u), s).is_zero:
        raise ProbeAnomaly("witness product vanished despite a nonzero leading term")
    return witness


def random_conv_element(
    host: PBWStructure,
    ring: TableAlgebra,
    rng,
    max_degree: int,
    max_terms: int = 3,
) -> ConvElement:
    """Deterministic (seeded) nonzero element supported in degrees up to
    max_degree."""
    # the indices ascend by degree
    candidates = host.indices[: host.gens.count_up_to(max_degree)]
    count = rng.randint(1, min(max_terms, len(candidates)))
    chosen = rng.sample(candidates, count)
    values = {}
    for m in chosen:
        coords = [Fraction(rng.randint(-2, 2)) for _ in range(ring.dim)]
        if all(c == 0 for c in coords):
            coords[rng.randrange(ring.dim)] = Q1
        values[m] = tuple(coords)
    return ConvElement(host, ring, values)
