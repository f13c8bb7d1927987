"""Truncated convolution algebras of linear maps into a coefficient ring.

A map f out of the truncated algebra is stored by its values on the ordered
divided-power basis, i.e. as a finitely supported function from basis
indices to ring elements.  An index is named by its position in the host's
well-ordered ``indices``, so the order of positions is the well-order.
A value, like every element of a coefficient ring, is a sparse vector
{index: coefficient} without zeros, and values multiply through the ring's
one product, ``TableAlgebra.mul``.  Convolution is computed through the
cached comultiplication expansions of the host basis, so it is exact on
every index within the truncation bound.  Leading data (smallest support
position, value there) drives the primeness witnesses: for a prime ring a
middle factor r with s_min * r * t_min != 0 is found by a scan of the ring's
basis and pulled back through the counit, and the leading term of s * u * t
is checked to be exactly (s+t, s_min r t_min).  A failed scan refutes the
declared ring property.  ``add_witness_line`` writes the check line of one
scan for both ``conv`` and the core probes.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import Mapping, Optional

from .coalgebra import SAMPLE_COEFFS
from .errors import HopfcoreError, InputFormatError, NoWitnessFound, TruncationError
from .linalg import Q0, Q1, Scalar, SparseRow, exact, rat
from .pbw import PBWStructure
from .report import FAIL, INCONCLUSIVE, PASS, Report
from .table import TableAlgebra, json_object, parse_table, string_list


# The built-in coefficient rings, as ``--ring`` table files.
BUILTIN_RINGS = json.loads("""{
  "q": {"name": "q", "basis": ["1"], "one": {"1": "1"},
        "mult": {"1": {"1": {"1": "1"}}},
        "flags": {"prime": true, "semiprime": true, "domain": true}},
  "m2q": {"name": "m2q", "basis": ["E11", "E12", "E21", "E22"],
          "one": {"E11": "1", "E22": "1"},
          "mult": {"E11": {"E11": {"E11": "1"}, "E12": {"E12": "1"}},
                   "E12": {"E21": {"E11": "1"}, "E22": {"E12": "1"}},
                   "E21": {"E11": {"E21": "1"}, "E12": {"E22": "1"}},
                   "E22": {"E21": {"E21": "1"}, "E22": {"E22": "1"}}},
          "flags": {"prime": true, "semiprime": true, "domain": false}},
  "qxq": {"name": "qxq", "basis": ["e1", "e2"], "one": {"e1": "1", "e2": "1"},
          "mult": {"e1": {"e1": {"e1": "1"}}, "e2": {"e2": {"e2": "1"}}},
          "flags": {"prime": false, "semiprime": true, "domain": false}},
  "qx2": {"name": "qx2", "basis": ["1", "x"], "one": {"1": "1"},
          "mult": {"1": {"1": {"1": "1"}, "x": {"x": "1"}}, "x": {"1": {"x": "1"}}},
          "flags": {"prime": false, "semiprime": false, "domain": false}}
}""")


def builtin_ring(name: str) -> TableAlgebra:
    """A built-in ring, read from its table."""
    if name not in BUILTIN_RINGS:
        raise InputFormatError(
            f"unknown ring {name!r}; built-ins are {sorted(BUILTIN_RINGS)}"
        )
    return ring_from_tables(BUILTIN_RINGS[name])


def ring_from_tables(obj: Mapping) -> TableAlgebra:
    """A coefficient ring from its JSON table.  The basis must be nonempty;
    ``flags`` is the dict of the declared "prime", "semiprime" and "domain",
    each a JSON true, false or null, and None, undeclared, where absent."""
    try:
        labels = string_list(obj["basis"], 'ring "basis"')
        if not labels:
            raise InputFormatError('ring "basis" must not be empty')
        pos = {s: i for i, s in enumerate(labels)}
        table = parse_table(obj["mult"], pos)
        one = {
            pos[a]: rat(c)
            for a, c in json_object(obj["one"], 'ring "one"').items()
        }
        declared = json_object(obj.get("flags", {}), 'ring "flags"')
        flags = {key: declared.get(key) for key in ("prime", "semiprime", "domain")}
        for key, value in flags.items():
            if value is not None and not isinstance(value, bool):
                raise InputFormatError(
                    f"ring flag {key!r} must be true, false or null, got {value!r}"
                )
        return TableAlgebra.finite(
            labels, table, one, str(obj.get("name", "user")), flags
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed ring table: {exc}") from exc


def _annihilates(ring: TableAlgebra, i: int, j: int) -> bool:
    """e_i r e_j = 0 for every basis element r."""
    return not any(
        ring.mul(ring.mul({i: Q1}, {r: Q1}), {j: Q1}) for r in range(ring.dim)
    )


def prime_refuter(ring: TableAlgebra) -> Optional[tuple[int, int]]:
    """The first basis pair (i, j) with e_i R e_j = 0, which refutes
    primeness, or None."""
    for i in range(ring.dim):
        for j in range(ring.dim):
            if _annihilates(ring, i, j):
                return (i, j)
    return None


def semiprime_refuter(ring: TableAlgebra) -> Optional[int]:
    """The first basis element e_i with e_i R e_i = 0, which refutes
    semiprimeness, or None."""
    for i in range(ring.dim):
        if _annihilates(ring, i, i):
            return i
    return None


def ring_check(rep: Report, ring: TableAlgebra) -> None:
    """Validate associativity and unit laws on the basis, then confirm or
    refute the declared flags by bounded scans (zero-divisor pairs, a.R.b
    annihilation, a.R.a annihilation)."""
    dim, labels = ring.dim, ring.basis_labels
    basis = [{i: Q1} for i in range(dim)]

    # a ring's table is total, so every basis triple is checked
    assoc_ok = ring.first_nonassociative() is None
    rep.add("associativity", ring.name, PASS if assoc_ok else FAIL)

    one = ring.one
    unit_ok = all(
        ring.mul(one, b) == b and ring.mul(b, one) == b for b in basis
    )
    rep.add("unit-law", ring.name, PASS if unit_ok else FAIL)

    zero_pair = None
    for i in range(dim):
        for j in range(dim):
            if not ring.mul(basis[i], basis[j]):
                zero_pair = (i, j)
                break
        if zero_pair:
            break
    domain_refuted = zero_pair is not None
    if ring.flags["domain"] and domain_refuted:
        rep.add(
            "flag-domain",
            ring.name,
            FAIL,
            f"zero divisors {labels[zero_pair[0]]},{labels[zero_pair[1]]}",
        )
    else:
        detail = (
            f"refuted by {labels[zero_pair[0]]},{labels[zero_pair[1]]}"
            if domain_refuted
            else "no zero divisors among basis pairs"
        )
        rep.add("flag-domain", ring.name, PASS, detail)

    # an undeclared (None) flag is not checked: its line passes with the scan
    pair = prime_refuter(ring)
    if ring.flags["prime"] in (None, pair is None):
        detail = (
            f"refuted by pair {labels[pair[0]]},{labels[pair[1]]}"
            if pair is not None
            else "witness for every basis pair"
        )
        rep.add("flag-prime", ring.name, PASS, detail)
    else:
        rep.add("flag-prime", ring.name, FAIL, "declared flag contradicts scan")

    nil = semiprime_refuter(ring)
    if ring.flags["semiprime"] in (None, nil is None):
        detail = f"refuted by {labels[nil]}" if nil is not None else ""
        rep.add("flag-semiprime", ring.name, PASS, detail)
    else:
        rep.add("flag-semiprime", ring.name, FAIL, "declared flag contradicts scan")


# ---------------------------------------------------------------------------
# convolution elements


class LeadingTerm(namedtuple("LeadingTerm", "index value")):
    """The leading index of an element, as a position in ``host.indices``,
    and its value there (a sparse ring element)."""

    __slots__ = ()


class ConvElement:
    """A truncated linear map out of the host algebra, stored by its nonzero
    values on the ordered divided-power basis.  The values are keyed by
    position in ``host.indices`` and kept in ascending order, so the first
    key is the leading index; each is a sparse ring element without zeros,
    integral coefficients as ``int``."""

    __slots__ = ("host", "ring", "_map")

    def __init__(
        self,
        host: PBWStructure,
        ring: TableAlgebra,
        values: Mapping[int, Mapping[int, Scalar]],
    ):
        self.host = host
        self.ring = ring
        count = len(host.indices)
        for p in values:
            if not 0 <= p < count:
                raise InputFormatError(f"index position {p} does not live on this host")
        self._map = {}
        for p in sorted(values):
            value = {k: exact(c) for k, c in values[p].items() if c}
            if value:
                self._map[p] = value

    @classmethod
    def _at_positions(
        cls, host: PBWStructure, ring: TableAlgebra, values: dict[int, SparseRow]
    ) -> "ConvElement":
        """An element from nonzero values in normal form, keyed by ascending
        position."""
        f = cls.__new__(cls)
        f.host, f.ring, f._map = host, ring, values
        return f

    def value(self, p: int) -> SparseRow:
        return self._map.get(p, {})

    @property
    def is_zero(self) -> bool:
        return not self._map

    def support(self) -> list[int]:
        return list(self._map)

    def terms(self) -> list[tuple[int, SparseRow]]:
        """The nonzero values as (position, value) pairs in the well-order."""
        return list(self._map.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConvElement)
            and self.host is other.host
            and self.ring.same_as(other.ring)
            and self._map == other._map
        )

    def __repr__(self):
        labels = self.host.labels
        body = ", ".join(
            f"{labels[p]}: {self.ring.format(v)}" for p, v in self.terms()[:4]
        )
        return f"ConvElement({body}{'...' if len(self._map) > 4 else ''})"


def counit_pullback(
    host: PBWStructure, ring: TableAlgebra, r: Mapping[int, Scalar]
) -> ConvElement:
    """The map taking the sparse ring value r at the zero index and 0
    elsewhere."""
    # the zero index comes first in the well-order
    return ConvElement(host, ring, {0: r})


def convolve(f: ConvElement, g: ConvElement) -> ConvElement:
    """(f * g)(e_n) = sum of c f(e_i) g(e_j) over the terms c e_i (x) e_j
    of Delta(e_n), taken from the transposed comultiplication: each pair of
    supp f x supp g is multiplied once and spread over the indices it
    feeds."""
    if f.host is not g.host:
        raise HopfcoreError("operands live over different hosts")
    if not f.ring.same_as(g.ring):
        raise HopfcoreError(f"{f.ring.name} vs {g.ring.name}")
    host, ring = f.host, f.ring
    table = host.transposed_comult()
    mul = ring.mul
    acc: dict[int, SparseRow] = {}
    for i, fv in f._map.items():
        for j, gv in g._map.items():
            targets = table.get((i, j))
            if targets is None:
                continue
            term = mul(fv, gv)
            if not term:
                continue
            for n, c in targets:
                value = acc.get(n)
                if value is None:
                    acc[n] = {k: c * x for k, x in term.items()}
                else:
                    for k, x in term.items():
                        value[k] = value.get(k, Q0) + c * x
    values = {}
    for n in sorted(acc):
        v = {k: exact(x) for k, x in acc[n].items() if x}
        if v:
            values[n] = v
    return ConvElement._at_positions(host, ring, values)


def leading(f: ConvElement) -> LeadingTerm:
    if f.is_zero:
        raise HopfcoreError("leading term of the zero element")
    p = next(iter(f._map))
    return LeadingTerm(p, f._map[p])


class LeadingLawOutcome(
    namedtuple(
        "LeadingLawOutcome",
        "lead_left lead_right vanishing_ok leading_value_ok product_nonzero "
        "leading_term_ok",
    )
):
    """The leading terms of f and g and the law's findings on f * g; each
    finding is a bool, ``leading_term_ok`` None when the leading product
    vanishes."""

    __slots__ = ()

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
    t = host.index_sum(lf.index, lg.index)
    if t is None:
        degree = host.degrees[lf.index] + host.degrees[lg.index]
        raise TruncationError(f"leading sum degree {degree} exceeds the bound")
    prod = convolve(f, g)
    first = next(iter(prod._map), None)
    vanish = first is None or first >= t
    expected = f.ring.mul(lf.value, lg.value)
    value_ok = prod._map.get(t, {}) == expected
    term_ok: Optional[bool] = None
    if expected:
        term_ok = first == t and prod._map[t] == expected
    return LeadingLawOutcome(lf, lg, vanish, value_ok, bool(expected), term_ok)


class Witness(namedtuple("Witness", "r u proof")):
    """The middle factor r (a sparse ring element), its counit pullback u and
    the leading term of the witness product."""

    __slots__ = ()


def prime_witness(s: ConvElement, t: ConvElement) -> Witness:
    """Find a basis element r with s_min * r * t_min != 0, pull it back
    through the counit, and verify the leading term of s * u * t.  A failed
    scan raises NoWitnessFound, refuting primeness.  The product is bilinear
    in r, so once every basis element gives zero no combination of them can
    do better."""
    ls, lt = leading(s), leading(t)
    host, ring = s.host, s.ring
    total = host.index_sum(ls.index, lt.index)
    if total is None:
        raise TruncationError("leading sum degree exceeds the bound")
    for i in range(ring.dim):
        r = {i: Q1}
        value = ring.mul(ring.mul(ls.value, r), lt.value)
        if not value:
            continue
        u = counit_pullback(host, ring, r)
        proof = leading(convolve(convolve(s, u), t))
        if proof != LeadingTerm(total, value):
            raise HopfcoreError(
                f"witness product has leading {host.labels[proof.index]}:"
                f"{ring.format(proof.value)}, expected "
                f"{host.labels[total]}:{ring.format(value)}"
            )
        return Witness(r, u, proof)
    raise NoWitnessFound(
        f"no middle factor r with s_min r t_min != 0 over {ring.name} "
        f"(s_min={ring.format(ls.value)}, t_min={ring.format(lt.value)})"
    )


def semiprime_witness(s: ConvElement) -> Witness:
    """The one-sided version: the scan for s * u * s, whose product
    ``prime_witness`` has already checked to be nonzero; a failed scan
    refutes semiprimeness."""
    return prime_witness(s, s)


def add_witness_line(
    rep: Report,
    subject: str,
    s: ConvElement,
    t: Optional[ConvElement] = None,
    inconclusive: str = "",
) -> None:
    """One ``prime-witness`` line for (s, t), or one ``semiprime-witness``
    line for s when t is None: PASS with the middle factor, INCONCLUSIVE
    with the given detail when the scan runs past the bound, FAIL with the
    scan's message when no middle factor exists."""
    name = "semiprime-witness" if t is None else "prime-witness"
    try:
        witness = semiprime_witness(s) if t is None else prime_witness(s, t)
    except TruncationError:
        rep.add(name, subject, INCONCLUSIVE, inconclusive)
    except NoWitnessFound as exc:
        rep.add(name, subject, FAIL, str(exc))
    else:
        rep.add(name, subject, PASS, f"r={s.ring.format(witness.r)}")


def random_conv_element(
    host: PBWStructure,
    ring: TableAlgebra,
    rng,
    max_degree: int,
) -> ConvElement:
    """Deterministic (seeded) nonzero element with at most three terms,
    supported in degrees up to max_degree."""
    # the indices ascend by degree, so the candidates are a prefix; sample
    # draws by index, so sampling positions picks the same indices
    candidates = range(host.count_up_to(max_degree))
    count = rng.choice(range(1, min(3, len(candidates)) + 1))
    chosen = rng.sample(candidates, count)
    values = {}
    for p in chosen:
        coords = [rng.choice(SAMPLE_COEFFS) for _ in range(ring.dim)]
        if not any(coords):
            coords[rng.choice(range(ring.dim))] = Q1
        values[p] = {k: c for k, c in enumerate(coords) if c}
    return ConvElement._at_positions(host, ring, dict(sorted(values.items())))
