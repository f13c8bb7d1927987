"""The four built-in coefficient rings, pinned: basis labels, the product of
every basis pair (as the normal-form table row and through ``mul``), the
unit, the declared flags, the name and the ``ring_check`` lines."""

import pytest

from hopfcore.convolution import RingFlags, builtin_ring, ring_check

# ring name -> (labels, {(a, b): product label} for the nonzero basis
# products, unit labels, flags, ring_check details)
BUILTINS = {
    "q": (
        ("1",),
        {("1", "1"): "1"},
        ("1",),
        RingFlags(is_prime=True, is_semiprime=True, is_domain=True),
        {
            "flag-domain": "no zero divisors among basis pairs",
            "flag-prime": "witness for every basis pair",
            "flag-semiprime": "",
        },
    ),
    "m2q": (
        ("E11", "E12", "E21", "E22"),
        {
            ("E11", "E11"): "E11",
            ("E11", "E12"): "E12",
            ("E12", "E21"): "E11",
            ("E12", "E22"): "E12",
            ("E21", "E11"): "E21",
            ("E21", "E12"): "E22",
            ("E22", "E21"): "E21",
            ("E22", "E22"): "E22",
        },
        ("E11", "E22"),
        RingFlags(is_prime=True, is_semiprime=True, is_domain=False),
        {
            "flag-domain": "refuted by E11,E21",
            "flag-prime": "witness for every basis pair",
            "flag-semiprime": "",
        },
    ),
    "qxq": (
        ("e1", "e2"),
        {("e1", "e1"): "e1", ("e2", "e2"): "e2"},
        ("e1", "e2"),
        RingFlags(is_prime=False, is_semiprime=True, is_domain=False),
        {
            "flag-domain": "refuted by e1,e2",
            "flag-prime": "refuted by pair e1,e2",
            "flag-semiprime": "",
        },
    ),
    "qx2": (
        ("1", "x"),
        {("1", "1"): "1", ("1", "x"): "x", ("x", "1"): "x"},
        ("1",),
        RingFlags(is_prime=False, is_semiprime=False, is_domain=False),
        {
            "flag-domain": "refuted by x,x",
            "flag-prime": "refuted by pair x,x",
            "flag-semiprime": "refuted by x",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_ring_is_pinned(name):
    labels, products, unit, flags, details = BUILTINS[name]
    ring = builtin_ring(name)
    assert ring.name == name
    assert ring.basis_labels == labels
    assert ring.flags == flags
    pos = {s: i for i, s in enumerate(labels)}
    assert ring.unit_vector() == {pos[s]: 1 for s in unit}
    for a in labels:
        for b in labels:
            c = products.get((a, b))
            row = ((pos[c], 1),) if c else ()
            got = ring.product_terms(pos[a], pos[b])
            assert got == row, (a, b)
            assert all(type(x) is int for _, x in got)
            assert ring.mul({pos[a]: 1}, {pos[b]: 1}) == dict(row), (a, b)
    lines = [tuple(line) for line in ring_check(ring).lines]
    assert lines == [
        ("associativity", name, "PASS", ""),
        ("unit-law", name, "PASS", ""),
        *((check, name, "PASS", detail) for check, detail in details.items()),
    ]


def test_builtin_ring_is_read_once():
    assert builtin_ring("m2q") is builtin_ring("m2q")
