"""The package's exact rational type against ``fractions.Fraction``.

Every operation of ``Rational`` with an ``int`` and with itself gives the
value ``Fraction`` gives, in normal form: an integral result is an ``int``,
any other a ``Rational`` in lowest terms with denominator > 1.  Ordering,
equality, hashing, truth and ``rat_str`` agree with ``Fraction`` as well.
``rat`` reads a stdlib ``Fraction`` by its numerator and denominator and
refuses a bool and a float.  Where the running Python is 3.11, ``rat`` reads
exactly the strings ``Fraction`` reads there; the fixed table of strings in
``test_cli.py`` pins the grammar on every Python.
"""

import copy
import operator
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcore.errors import InputFormatError
from hopfcore.linalg import Rational, rat, rat_str

# values drawn as Fractions: integral ones, small ones and unbounded ones
values = (
    st.integers(-10, 10).map(Fraction)
    | st.fractions(min_value=-5, max_value=5, max_denominator=12)
    | st.fractions()
)
nonzero = values.filter(bool)

ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]


def ours(f):
    """The package's scalar of the value of the Fraction f."""
    return Rational(f.numerator, f.denominator)


def assert_is(got, expected):
    """got is the normal form of the Fraction expected: an int when it is
    integral, otherwise a Rational with the same terms."""
    if expected.denominator == 1:
        assert type(got) is int and got == expected.numerator, (got, expected)
    else:
        assert type(got) is Rational, (got, expected)
        assert (got.numerator, got.denominator) == (
            expected.numerator, expected.denominator
        )


@given(st.integers(), st.integers().filter(bool))
def test_construction_from_ints(p, q):
    assert_is(Rational(p, q), Fraction(p, q))


@given(values, nonzero)
def test_construction_from_scalars(a, b):
    assert_is(Rational(ours(a), ours(b)), a / b)
    assert_is(Rational(ours(a)), a)


@pytest.mark.parametrize("p", [0, 1, -3])
def test_zero_denominator(p):
    with pytest.raises(ZeroDivisionError):
        Rational(p, 0)
    with pytest.raises(ZeroDivisionError):
        Rational(1, 2) / 0
    with pytest.raises(ZeroDivisionError):
        Rational(Rational(1, 2), 0)


@settings(max_examples=400)
@given(st.sampled_from(ARITHMETIC), values, values)
def test_arithmetic_matches_fraction(op, a, b):
    """Every operation on every pair of kinds: Rational with Rational, with
    int on either side, and int with int through the constructor."""
    x, y = ours(a), ours(b)
    if op is operator.truediv and not b:
        with pytest.raises(ZeroDivisionError):
            op(x, y) if type(x) is Rational else Rational(x, y)
        return
    if type(x) is int and type(y) is int:
        # int with int is the int's own arithmetic, but for division, which
        # the package does through the constructor
        got = Rational(x, y) if op is operator.truediv else op(x, y)
    else:
        got = op(x, y)
    assert_is(got, op(a, b))


@given(values)
def test_negation_truth_and_text(a):
    x = ours(a)
    assert_is(-x, -a)
    assert bool(x) is bool(a)
    assert rat_str(x) == str(a) == rat_str(a)


@given(st.sampled_from(COMPARISONS), values, values)
def test_comparisons_match_fraction(op, a, b):
    """With an int, a Rational, or a stdlib Fraction on either side."""
    x, y = ours(a), ours(b)
    assert op(x, y) is op(a, b)
    assert op(x, b) is op(a, b)
    assert op(a, y) is op(a, b)


def test_sorting_mixes_ints_and_rationals():
    mixed = [Rational(7, 3), -1, Rational(-1, 2), 0, Rational(1, 3), 2]
    assert sorted(mixed) == sorted(Fraction(x.numerator, x.denominator) for x in mixed)
    assert sorted(mixed) == [-1, Rational(-1, 2), 0, Rational(1, 3), 2, Rational(7, 3)]


@given(values)
def test_hash_is_the_fraction_hash(a):
    assert hash(ours(a)) == hash(a)


@pytest.mark.parametrize(
    "p, q", [(1, sys.hash_info.modulus), (-5, 3 * sys.hash_info.modulus), (-1, 2)]
)
def test_hash_edges(p, q):
    """A denominator that is a multiple of the hash modulus has no inverse
    there, and a hash of -1 is -2: as for Fraction."""
    assert hash(Rational(p, q)) == hash(Fraction(p, q))
    assert {Rational(p, q): 1}[Fraction(p, q)] == 1


@pytest.mark.parametrize("other", [0.5, 1.0, Fraction(1, 3), Fraction(2, 1), "1"])
@pytest.mark.parametrize("op", ARITHMETIC)
def test_no_arithmetic_with_floats_or_fractions(op, other):
    """A float never enters, and a stdlib Fraction enters only through
    ``rat``: arithmetic with either raises TypeError."""
    with pytest.raises(TypeError):
        op(Rational(1, 2), other)
    with pytest.raises(TypeError):
        op(other, Rational(1, 2))


@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
)
def test_copies_and_pickles(duplicate):
    held = [Rational(-7, 3), {0: Rational(1, 2), 1: 2}]
    got = duplicate(held)
    assert got == held and type(got[0]) is Rational and type(got[1][0]) is Rational


@given(values)
def test_rat_reads_fractions_and_scalars(a):
    assert_is(rat(a), a)
    assert_is(rat(ours(a)), a)
    assert_is(rat(a.numerator), Fraction(a.numerator))


@pytest.mark.parametrize(
    "value", [True, False, 0.5, 1.0, float("nan"), float("inf"), None, [1], 1j]
)
def test_rat_refuses_bools_and_floats(value):
    with pytest.raises(InputFormatError, match="as a rational"):
        rat(value)


def test_rat_limits_the_digits_of_each_part():
    """Like ``Fraction``, ``rat`` reads the integer and the decimal part of
    a string as two ints, so each may come near ``int()``'s digit limit
    while the two together are past it."""
    whole, part = "1" * 3000, "2" * 3000
    value = Fraction(int(whole) * 10**3000 + int(part), 10**3000)
    assert_is(rat(f"-{whole}.{part}"), -value)
    if hasattr(sys, "get_int_max_str_digits"):
        for text in ("1" * 5000, "0." + "1" * 5000, "1/" + "1" * 5000):
            with pytest.raises(InputFormatError, match="as a rational$"):
                rat(text)


def scalar_strings():
    """Strings near the grammar: free text over its alphabet, and strings
    of its shape with any decimal digits and whitespace.  Exponents keep to
    four digits, so that no draw asks for a huge power of ten."""
    text = st.text(alphabet=" \t+-0123456789_./eEx", max_size=10)
    shaped = st.from_regex(
        r"\s?[-+]?(\d+(_\d+)?)?(\.(\d+(_\d)?)?)?([eE][-+]?\d{1,3})?\s?", fullmatch=True
    ) | st.from_regex(r"\s?[-+]?\d+(_\d)?/\d+(_\d)?\s?", fullmatch=True)
    long_exponent = re.compile(r"[eE][-+]?[\d_]{5,}")
    return (text | shaped).filter(lambda s: not long_exponent.search(s))


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the grammar is Fraction's on Python 3.11"
)
@settings(max_examples=1500)
@given(scalar_strings())
def test_rat_reads_the_strings_fraction_reads(text):
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(InputFormatError, match="^zero denominator in "):
            rat(text)
    except ValueError:
        with pytest.raises(InputFormatError, match="as a rational$"):
            rat(text)
    else:
        assert_is(rat(text), expected)
