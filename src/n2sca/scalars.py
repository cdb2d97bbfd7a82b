"""Exact arithmetic in the field Q(i, sqrt(2)) = Q(zeta_8).

A scalar (a + b*i + c*sqrt2 + d*i*sqrt2) / q is stored on the fixed basis
{1, i, sqrt2, i*sqrt2} as four integer numerators a, b, c, d over one
positive integer denominator q, in lowest terms: gcd(a, b, c, d, q) == 1.
That form is canonical, so equality is equality of the five integers, and
one product costs one integer product and one gcd instead of a gcd per
rational coordinate (Cohen, "A Course in Computational Algebraic Number
Theory", section 4.2).  The coordinates `a`-`d` are read back as
`fractions.Fraction`s; only they, and `Fraction` operands, import
`fractions`.  Inversion multiplies by the sqrt2-conjugate
(landing in Q(i)) and then by the complex conjugate (landing in Q).
"""

from __future__ import annotations

from math import gcd, lcm



def _coerce(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or a `Fraction` coordinate."""
    if not isinstance(x, int):
        from fractions import Fraction

        if not isinstance(x, Fraction):
            raise TypeError(f"cannot build a rational coordinate from {x!r}")
    return x.numerator, x.denominator


def _fraction(n: int, q: int) -> Fraction:
    from fractions import Fraction

    return Fraction(n, q)


def _ratio_text(n: int, q: int) -> str:
    """str(Fraction(n, q)) for q > 0, from the integers."""
    g = gcd(n, q)
    return str(n // g) if g == q else f"{n // g}/{q // g}"


def _new(a: int, b: int, c: int, d: int, q: int) -> "Scalar":
    """A scalar from numerators and a denominator already in lowest terms."""
    s = object.__new__(Scalar)
    s._a = a
    s._b = b
    s._c = c
    s._d = d
    s._q = q
    return s


def _reduced(a: int, b: int, c: int, d: int, q: int) -> "Scalar":
    """A scalar from numerators and a positive denominator, put in lowest terms."""
    g = gcd(a, b, c, d, q)
    if g != 1:
        return _new(a // g, b // g, c // g, d // g, q // g)
    return _new(a, b, c, d, q)


class Scalar:
    """An element a + b*i + c*sqrt2 + d*i*sqrt2 with rational a, b, c, d."""

    __slots__ = ("_a", "_b", "_c", "_d", "_q")

    def __init__(self, a=0, b=0, c=0, d=0):
        coords = [_coerce(x) for x in (a, b, c, d)]
        # the least common denominator leaves the result in lowest terms
        q = lcm(*(den for _, den in coords))
        self._a, self._b, self._c, self._d = (num * (q // den) for num, den in coords)
        self._q = q

    @classmethod
    def rational(cls, num: int, den: int = 1) -> "Scalar":
        """num/den in lowest terms, the sign on the numerator."""
        if not den:
            raise ZeroDivisionError(f"Scalar.rational({num}, 0)")
        g = gcd(num, den)
        if den < 0:
            g = -g
        return _new(num // g, 0, 0, 0, den // g)

    @property
    def a(self) -> Fraction:
        return _fraction(self._a, self._q)

    @property
    def b(self) -> Fraction:
        return _fraction(self._b, self._q)

    @property
    def c(self) -> Fraction:
        return _fraction(self._c, self._q)

    @property
    def d(self) -> Fraction:
        return _fraction(self._d, self._q)

    @property
    def is_zero(self) -> bool:
        return not (self._a or self._b or self._c or self._d)

    @property
    def is_rational(self) -> bool:
        return not (self._b or self._c or self._d)

    @property
    def unit_sign(self) -> int:
        """1 or -1 when the scalar is that integer, else 0."""
        if self._q == 1 and self._a in (1, -1) and not (self._b or self._c or self._d):
            return self._a
        return 0

    def __bool__(self) -> bool:
        return bool(self._a or self._b or self._c or self._d)

    def __eq__(self, other) -> bool:
        return (
            self._a == other._a
            and self._b == other._b
            and self._c == other._c
            and self._d == other._d
            and self._q == other._q
        )

    def __hash__(self):
        return hash((self._a, self._b, self._c, self._d, self._q))

    def __neg__(self) -> "Scalar":
        return _new(-self._a, -self._b, -self._c, -self._d, self._q)

    def __add__(self, other) -> "Scalar":
        q1 = self._q
        q2 = other._q
        if q1 == q2:
            a = self._a + other._a
            b = self._b + other._b
            c = self._c + other._c
            d = self._d + other._d
            if q1 == 1:
                return _new(a, b, c, d, 1)
            return _reduced(a, b, c, d, q1)
        return _add_scaled(self, other, 1)

    def __sub__(self, other) -> "Scalar":
        return _add_scaled(self, other, -1)

    def __mul__(self, other) -> "Scalar":
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2 = other._a, other._b, other._c, other._d
        q = self._q * other._q
        if not (b1 or c1 or d1):  # rational * x
            a, b, c, d = a1 * a2, a1 * b2, a1 * c2, a1 * d2
        elif not (b2 or c2 or d2):  # x * rational
            a, b, c, d = a1 * a2, b1 * a2, c1 * a2, d1 * a2
        else:
            # Multiplication table: i^2 = -1, sqrt2^2 = 2, (i*sqrt2)^2 = -2.
            a = a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)
            b = a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2)
            c = a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2
            d = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        if q == 1:
            return _new(a, b, c, d, 1)
        return _reduced(a, b, c, d, q)

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise ZeroDivisionError("inversion of the zero scalar")
        a, b, c, d, q = self._a, self._b, self._c, self._d, self._q
        # with s' = (a + b*i - c*sqrt2 - d*i*sqrt2) / q the sqrt2-conjugate,
        # y = self * s' = (u + v*i) / q^2 lies in Q(i); then
        # 1/self = s' * conj(y) / |y|^2 with |y|^2 > 0 rational.
        u = a * a - b * b - 2 * (c * c - d * d)
        v = 2 * (a * b - 2 * c * d)
        return _reduced(
            q * (a * u + b * v),
            q * (b * u - a * v),
            -q * (c * u + d * v),
            q * (c * v - d * u),
            u * u + v * v,
        )

    @property
    def is_simple(self) -> bool:
        """True when at most one basis coordinate is nonzero."""
        return sum(1 for x in (self._a, self._b, self._c, self._d) if x) <= 1

    def __str__(self) -> str:
        q = self._q
        parts = [_ratio_text(self._a, q)] if self._a else []
        for coef, unit in ((self._b, "i"), (self._c, "r2"), (self._d, "i*r2")):
            if coef:
                parts.append(signed_term(_ratio_text(coef, q), unit))
        return join_signed(parts)

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def _add_scaled(x: Scalar, y: Scalar, sign: int) -> Scalar:
    """x + sign*y over the least common denominator, in lowest terms.

    As in `Fraction` addition, with g = gcd(q1, q2) the sum over
    lcm(q1, q2) can share a factor with its numerators only inside g.
    """
    q1 = x._q
    q2 = y._q
    g = gcd(q1, q2)
    s = q1 // g
    t = q2 // g
    if sign < 0:
        s = -s
    a = x._a * t + y._a * s
    b = x._b * t + y._b * s
    c = x._c * t + y._c * s
    d = x._d * t + y._d * s
    if g == 1:
        return _new(a, b, c, d, q1 * q2)
    g2 = gcd(a, b, c, d, g)
    if g2 != 1:
        return _new(a // g2, b // g2, c // g2, d // g2, q1 // g * (q2 // g2))
    return _new(a, b, c, d, q1 // g * q2)


ZERO = _new(0, 0, 0, 0, 1)
ONE = _new(1, 0, 0, 0, 1)
I = _new(0, 1, 0, 0, 1)
SQRT2 = _new(0, 0, 1, 0, 1)
HALF = _new(1, 0, 0, 0, 2)
INV_SQRT2 = _new(0, 0, 1, 0, 2)  # 1/sqrt2 = sqrt2/2


def as_scalar(x) -> Scalar:
    """x itself when it is a Scalar, else Scalar(x)."""
    return x if isinstance(x, Scalar) else Scalar(x)


def signed_term(coef: str, body: str) -> str:
    """One term from a coefficient text: `body`, `-body` or `coef*body`."""
    return body if coef == "1" else f"-{body}" if coef == "-1" else f"{coef}*{body}"


def join_signed(parts: list[str]) -> str:
    """Signed term texts joined by ` + `, or ` - ` in place of a leading
    minus; `0` for none."""
    if not parts:
        return "0"
    return parts[0] + "".join(
        f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:]
    )


def add_scaled(acc: dict, terms: dict, coef: Scalar = ONE) -> dict:
    """acc += coef * terms over sparse {key: Scalar} maps, in place.

    Keys whose sum is zero are dropped, and so are zero values in terms, so
    a zero-free acc stays zero-free; only acc is written.  A coef of +1 or
    -1 adds or subtracts without a product, and over one denominator it
    sums the numerators here, as `Scalar.__add__` and `__sub__` do.
    Returns acc.
    """
    unit = coef.unit_sign
    get = acc.get
    if not unit:
        for k, v in terms.items():
            old = get(k)
            v = coef * v if old is None else old + coef * v
            if v:
                acc[k] = v
            elif old is not None:
                del acc[k]
        return acc
    for k, v in terms.items():
        old = get(k)
        if old is None:
            if v._a or v._b or v._c or v._d:  # v != 0
                acc[k] = v if unit == 1 else _new(-v._a, -v._b, -v._c, -v._d, v._q)
            continue
        q = old._q
        if q == v._q:  # sum the numerators, as Scalar.__add__ does
            a = old._a + unit * v._a
            b = old._b + unit * v._b
            c = old._c + unit * v._c
            d = old._d + unit * v._d
            if a or b or c or d:
                acc[k] = _new(a, b, c, d, 1) if q == 1 else _reduced(a, b, c, d, q)
            else:
                del acc[k]
            continue
        v = old + v if unit == 1 else old - v
        if v:
            acc[k] = v
        else:
            del acc[k]
    return acc


MAX_SCALAR_NESTING = 200


def _scalar_atom(text: str, pos: int) -> tuple[Scalar, int]:
    """The number, `i` or `r2` that starts at text[pos], and the position
    after it."""
    ch = text[pos] if pos < len(text) else ""
    if ch == "i":
        return I, pos + 1
    if ch == "r":
        if text[pos : pos + 2] != "r2":
            raise ValueError(f"unknown symbol at {text[pos:]!r}")
        return SQRT2, pos + 2
    if not ch.isdecimal():
        raise ValueError(f"unexpected character {ch!r} in scalar {text!r}")
    end = _skip(text, pos, str.isdecimal)
    num = int(text[pos:end])
    slash = _skip(text, end, str.isspace)
    if text[slash : slash + 1] == "/":
        start = _skip(text, slash + 1, str.isspace)
        stop = _skip(text, start, str.isdecimal)
        if stop > start:
            den = int(text[start:stop])
            if not den:
                raise ValueError(f"zero denominator in scalar {text!r}")
            return Scalar.rational(num, den), stop
    return Scalar.rational(num), end


def _skip(text: str, pos: int, pred) -> int:
    while pos < len(text) and pred(text[pos]):
        pos += 1
    return pos


def parse_scalar(text: str) -> Scalar:
    """Parse `1/2 + 3*i - (1/4)*r2`: sums and products of numbers, `i` and
    `r2`, with unary signs and parentheses.

    One left-to-right pass keeps an explicit stack with one entry per open
    parenthesis, so no input depends on the interpreter's recursion limit;
    nesting deeper than MAX_SCALAR_NESTING is a ValueError.
    """
    stack = []  # (total, product, negate) outside each open parenthesis
    total, product, negate = ZERO, None, False
    operand = True  # an operand comes next, not an operator
    pos = 0
    while True:
        pos = _skip(text, pos, str.isspace)
        ch = text[pos : pos + 1]
        pos += 1
        if operand:
            if ch in ("+", "-"):
                negate ^= ch == "-"
                continue
            if ch == "(":
                if len(stack) == MAX_SCALAR_NESTING:
                    raise ValueError(
                        f"scalar nests parentheses deeper than {MAX_SCALAR_NESTING}"
                    )
                stack.append((total, product, negate))
                total, product, negate = ZERO, None, False
                continue
            value, pos = _scalar_atom(text, pos - 1)
        elif ch == "*":
            operand = True
            continue
        elif ch in ("+", "-"):
            total, product, negate, operand = total + product, None, ch == "-", True
            continue
        elif ch == ")" and stack:
            value = total + product
            total, product, negate = stack.pop()
        elif stack:
            raise ValueError(f"missing ')' in scalar {text!r}")
        elif ch:
            raise ValueError(f"trailing input in scalar {text!r}: {text[pos - 1:]!r}")
        else:
            return total + product
        if negate:
            value = -value
        product = value if product is None else product * value
        negate = operand = False
