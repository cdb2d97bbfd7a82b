import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from n2sca.algebra import parse_generator, parse_half
from n2sca.orders import parse_exponent_vector
from n2sca.scalars import (
    I,
    INV_SQRT2,
    MAX_SCALAR_NESTING,
    ONE,
    SQRT2,
    Scalar,
    ZERO,
    add_scaled,
    join_signed,
    parse_scalar,
    signed_term,
)

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
scalars = st.builds(Scalar, rationals, rationals, rationals, rationals)


def test_gaussian_norm():
    # (1/2 + i)(1/2 - i) = 1/4 + 1 = 5/4
    x = Scalar(Fraction(1, 2), 1)
    y = Scalar(Fraction(1, 2), -1)
    assert x * y == Scalar(Fraction(5, 4))


def test_invert_i():
    assert I.inverse() == -I
    assert I * (-I) == ONE


def test_inv_sqrt2_squares_to_half():
    assert INV_SQRT2 * INV_SQRT2 == Scalar(Fraction(1, 2))
    assert SQRT2.inverse() == INV_SQRT2


def test_invert_one_plus_sqrt2():
    x = Scalar(1, 0, 1, 0)
    inv = x.inverse()
    # rationalised through the sqrt2-conjugate: (1+r2)(-1+r2) = 1
    assert inv == Scalar(-1, 0, 1, 0)
    assert x * inv == ONE


def test_zero_inversion_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_field_axioms_seeded():
    rng = random.Random(0)

    def rand():
        return Scalar(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        )

    for _ in range(10_000):
        x, y, z = rand(), rand(), rand()
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x + y == y + x
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == ONE
        s = x + (-x)
        assert (s.a, s.b, s.c, s.d) == (0, 0, 0, 0)


@given(scalars, scalars)
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@given(scalars)
def test_double_negation(x):
    assert -(-x) == x


wide = st.fractions(min_value=-(2**80), max_value=2**80, max_denominator=2**40)


@given(scalars | st.builds(Scalar, wide, wide, wide, wide))
def test_print_parse_roundtrip(x):
    assert parse_scalar(str(x)) == x


@pytest.mark.parametrize("parse, alphabet", [
    (parse_scalar, "0123456789/+-*() ir2x.²٣"),
    (parse_generator, "LuTGCJ+-12[]/ 0123456789x.²"),
    (parse_exponent_vector, "{}:, -0123456789x²"),
], ids=["scalar", "generator", "exponent-vector"])
@given(data=st.data())
def test_malformed_text_parses_or_raises_parse_error(parse, alphabet, data):
    text = data.draw(st.text(alphabet, max_size=30) | st.text(max_size=12))
    try:
        parse(text)
    except ValueError:
        pass


def test_unary_signs_and_nesting():
    n = MAX_SCALAR_NESTING
    assert parse_scalar("-" * 3001 + "i") == -I
    assert parse_scalar("2*" + "-+" * 1000 + "1/2") == ONE
    assert parse_scalar("(" * n + "1/2 + i" + ")" * n + "*2") == Scalar(1, 2)
    with pytest.raises(ValueError, match=f"deeper than {n}"):
        parse_scalar("(" * (n + 1) + "1" + ")" * (n + 1))


def test_nesting_does_not_depend_on_the_recursion_limit():
    # a fresh interpreter, with a recursion limit far below the nesting
    code = (
        "import sys\n"
        "from n2sca.scalars import MAX_SCALAR_NESTING as n, parse_scalar\n"
        "sys.setrecursionlimit(40)\n"
        "print(parse_scalar('(' * n + '-' * 3000 + 'r2' + ')' * n))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "r2\n", "")


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
coefficients = st.one_of(
    st.just(ONE),
    st.just(Scalar(1)),
    st.just(-ONE),
    st.builds(Scalar, small),
    st.builds(Scalar, small, small, small, small).filter(lambda x: not x.is_rational),
)
term_maps = st.dictionaries(
    st.integers(0, 5), st.just(ZERO) | st.builds(Scalar, small, small)
)


@given(term_maps, term_maps, coefficients)
def test_add_scaled_matches_a_plain_dict_sum(acc, terms, coef):
    acc = {k: v for k, v in acc.items() if v}
    want = {k: acc.get(k, ZERO) + coef * v for k, v in terms.items()}
    want = {k: v for k, v in {**acc, **want}.items() if v}
    before = dict(terms)
    assert add_scaled(acc, terms, coef) is acc
    assert acc == want and all(acc.values())
    assert terms == before


def test_parse_examples():
    assert parse_scalar("1/2 + 3*i - (1/4)*r2") == Scalar(
        Fraction(1, 2), 3, Fraction(-1, 4), 0
    )
    assert parse_scalar("0") == ZERO
    assert parse_scalar("i*r2") == Scalar(0, 0, 0, 1)
    assert parse_scalar("-i") == -I
    assert str(Scalar(0, -1, 0, Fraction(3, 2))) == "-i + 3/2*i*r2"


@pytest.mark.parametrize(
    "q", [0, 1, -1, 7, -(2**70), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 2**65)]
)
def test_rational_scalar_takes_no_int_or_fraction_operand(q):
    s = Scalar(q)
    same = Scalar.rational(Fraction(q).numerator, Fraction(q).denominator)
    assert same == s and hash(same) == hash(s)
    # a mixed-type operation fails instead of converting its operand
    for op in (lambda: s + q, lambda: q + s, lambda: s * q, lambda: q * s,
               lambda: s - q, lambda: s == q):
        with pytest.raises((TypeError, AttributeError)):
            op()


# References built on `Fraction`: the scalar text, `Scalar.rational` and
# `parse_half` compute from integers alone and must agree with them.
def _text_by_fractions(x):
    parts = [str(x.a)] if x.a else []
    for coef, unit in ((x.b, "i"), (x.c, "r2"), (x.d, "i*r2")):
        if coef:
            parts.append(signed_term(str(coef), unit))
    return join_signed(parts)


def _half_by_fractions(text):
    """The doubled value of `m` or `p/q` text, or None where it is rejected."""
    m = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", text.strip())
    if not m or not int(m[2] or 1):
        return None
    f2 = Fraction(2 * int(m[1]), int(m[2] or 1))
    return int(f2) if f2.denominator == 1 else None


@given(scalars | st.builds(Scalar, wide, wide, wide, wide))
def test_scalar_text_matches_the_fraction_text(x):
    assert str(x) == _text_by_fractions(x)


big = st.integers(-(2**90), 2**90)


@example(0, -5)
@example(0, 1)
@example(6, -4)
@example(-(2**100), -(2**70))
@example(3, 0)
@example(0, 0)
@given(big | st.integers(-12, 12), big | st.integers(-12, 12))
def test_rational_matches_fraction(num, den):
    if not den:
        with pytest.raises(ZeroDivisionError):
            Scalar.rational(num, den)
        return
    f, s = Fraction(num, den), Scalar.rational(num, den)
    assert (s._a, s._b, s._c, s._d, s._q) == (f.numerator, 0, 0, 0, f.denominator)
    assert s == Scalar(f) and str(s) == str(f)


@example("3/2")
@example("-3/2")
@example("6/4")
@example("1/3")
@example("+7")
@example("1/0")
@example(" -0/9 ")
@given(st.builds("{}{}/{}".format, st.sampled_from(["", "+"]), st.integers(-(2**70), 2**70),
                 st.integers(0, 2**40) | st.integers(0, 8))
       | st.builds(str, st.integers(-(2**70), 2**70)))
def test_parse_half_matches_fraction(text):
    want = _half_by_fractions(text)
    if want is None:
        rejected = "not of the form m or p/q|zero denominator|not a half-integer"
        with pytest.raises(ValueError, match=rejected):
            parse_half(text)
    else:
        assert parse_half(text) == want


# Primes p = 1 (mod 8), so F_p holds a primitive 8th root of unity z, and
# i -> z^2, sqrt2 -> z + z^-1 is a ring map from the scalars whose
# denominators p does not divide.  The last prime lies above 2^61.
ORACLE_PRIMES = (17, 41, 73, 97, 2**61 + 57)


def _is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _roots_mod(p):
    """(i, sqrt2) in F_p: roots of x^2 + 1 and x^2 - 2 from an 8th root of unity."""
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    z = pow(n, (p - 1) // 8, p)
    i_p, r2_p = z * z % p, (z + pow(z, -1, p)) % p
    assert (i_p * i_p + 1) % p == 0 and (r2_p * r2_p - 2) % p == 0
    return i_p, r2_p


def _canonical(x):
    a, b, c, d, q = x._a, x._b, x._c, x._d, x._q
    assert q > 0 and math.gcd(a, b, c, d, q) == 1
    assert (Fraction(a, q), Fraction(b, q), Fraction(c, q), Fraction(d, q)) == (
        x.a, x.b, x.c, x.d
    )
    return a, b, c, d, q


def _big_scalar(rng, bits):
    coords = [
        Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
        if rng.random() < 0.8 else 0
        for _ in range(4)
    ]
    return Scalar(*coords)


def test_arithmetic_agrees_with_finite_field_images():
    for p in ORACLE_PRIMES:
        assert p % 8 == 1 and _is_prime(p)
    roots = {p: _roots_mod(p) for p in ORACLE_PRIMES}

    def image(x, p):
        a, b, c, d, q = _canonical(x)
        if q % p == 0:
            return None
        i_p, r2_p = roots[p]
        return (a + b * i_p + c * r2_p + d * i_p * r2_p) * pow(q, -1, p) % p

    rng = random.Random(8)
    checked = 0
    for _ in range(400):
        bits = rng.choice((1, 8, 64, 200))
        x, y = _big_scalar(rng, bits), _big_scalar(rng, rng.choice((1, 200)))
        results = {"+": x + y, "-": x - y, "*": x * y}
        if x:
            results["inv"] = x.inverse()
        for p in ORACLE_PRIMES:
            ix, iy = image(x, p), image(y, p)
            images = {name: image(v, p) for name, v in results.items()}
            if ix is None or iy is None or None in images.values():
                continue
            assert images["+"] == (ix + iy) % p
            assert images["-"] == (ix - iy) % p
            assert images["*"] == ix * iy % p
            if "inv" in images:
                assert images["inv"] * ix % p == 1
            checked += 1
        # one value, one representation, however it was built
        rep = _canonical(x)
        for same in (
            (x + y) - y,
            (x * y) * y.inverse() if y else x,
            x.inverse().inverse() if x else x,
            Scalar(x.a, x.b, x.c, x.d),
            parse_scalar(str(x)),
            -(-x),
        ):
            assert _canonical(same) == rep and same == x and hash(same) == hash(x)
    assert checked > 1000
    assert _canonical(x - x) == (0, 0, 0, 0, 1)
