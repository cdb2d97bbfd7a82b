"""Generators, linear combinations and the bracket calculus.

Two algebras are provided, each in the bases that matter: the twisted
algebra with generators ``L[m]``, ``T[r]``, ``G[p]``, ``C``, in its defining
basis (`TWISTED`, here) and a rescaled +/- convention, and the untwisted
algebra with ``Lu[m]``, ``J[n]``, ``Cu`` plus fermions in either the
``G+``/``G-`` basis or the ``G1``/``G2`` basis.  All but `TWISTED` are
defined in `suites`, so that no command on the twisted algebra compiles them.

All half-integer indices are stored doubled, so ``T[3/2]`` has
``index2 == 3``.  The doubled index of a generator equals its doubled
degree, which keeps the grading arithmetic integral.
"""

from __future__ import annotations

import re

from .scalars import (
    ONE, Scalar, add_scaled, as_scalar, join_signed, parse_scalar, signed_term,
)

TWISTED_KINDS = ("L", "T", "G", "C")
UNTWISTED_KINDS = ("Lu", "J", "G+", "G-", "G1", "G2", "Cu")
KIND_RANK = {k: i for i, k in enumerate(TWISTED_KINDS)}
KIND_RANK.update({k: i for i, k in enumerate(UNTWISTED_KINDS)})
_ODD_KINDS = frozenset({"G", "G+", "G-", "G1", "G2"})
_EVEN_INDEX_KINDS = frozenset({"L", "Lu", "J"})
_ODD_INDEX_KINDS = frozenset({"T", "G+", "G-", "G1", "G2"})
_CENTRAL_KINDS = frozenset({"C", "Cu"})


class GeneratorId:
    """Interned (kind, doubled index) pair: each pair has exactly one object,
    kept for the life of the process, so equality and hashing are those of
    identity.  ``parity`` (1 odd, 0 even) and ``is_central`` are set once,
    with the pair."""

    __slots__ = ("kind", "index2", "parity", "is_central")
    _cache: dict[tuple[str, int], "GeneratorId"] = {}

    def __new__(cls, kind: str, index2: int):
        key = (kind, index2)
        hit = cls._cache.get(key)
        if hit is not None:
            return hit
        if kind not in KIND_RANK:
            raise ValueError(f"unknown generator kind {kind!r}")
        if kind in _EVEN_INDEX_KINDS and index2 % 2:
            raise ValueError(f"{kind} requires an integer index, got {index2}/2")
        if kind in _ODD_INDEX_KINDS and index2 % 2 == 0:
            raise ValueError(f"{kind} requires a half-odd index, got {index2 // 2}")
        if kind in _CENTRAL_KINDS and index2 != 0:
            raise ValueError("the central element carries no index")
        gen = object.__new__(cls)
        gen.kind = kind
        gen.index2 = index2
        gen.parity = 1 if kind in _ODD_KINDS else 0
        gen.is_central = kind in _CENTRAL_KINDS
        cls._cache[key] = gen
        return gen

    @property
    def degree2(self) -> int:
        return self.index2

    def sort_key(self) -> tuple[int, int]:
        return (KIND_RANK[self.kind], self.index2)

    def __str__(self) -> str:
        if self.is_central:
            return self.kind
        return f"{self.kind}[{format_half(self.index2)}]"

    def __repr__(self) -> str:
        return f"gen({str(self)!r})"


def format_half(index2: int) -> str:
    """Doubled integer -> `m` or `r/2` text."""
    return str(index2 // 2) if index2 % 2 == 0 else f"{index2}/2"


_HALF_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_half(text: str) -> int:
    """`m` or `p/q` text -> doubled integer; rejects non-half-integers and,
    before any arithmetic, decimal and exponent forms such as `1e9999`."""
    m = _HALF_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"{text!r} is not of the form m or p/q")
    try:
        num, den = int(m[1]), int(m[2] or 1)
    except ValueError:  # past the interpreter's digit limit
        raise ValueError(f"{text.strip()[:20]}... has too many digits") from None
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    if 2 * num % den:
        raise ValueError(f"{text!r} is not a half-integer")
    return 2 * num // den


def L(m: int) -> GeneratorId:
    return GeneratorId("L", 2 * m)


def T(r2: int) -> GeneratorId:
    return GeneratorId("T", r2)


def G(p2: int) -> GeneratorId:
    return GeneratorId("G", p2)


C = GeneratorId("C", 0)


_GEN_RE = re.compile(r"^(Lu|G\+|G-|G1|G2|Cu|L|T|G|J|C)(?:\[([^\]]+)\])?$")


def parse_generator(text: str) -> GeneratorId:
    m = _GEN_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad generator literal {text!r}")
    kind, idx = m.group(1), m.group(2)
    if kind in _CENTRAL_KINDS:
        if idx is not None:
            raise ValueError("the central element carries no index")
        return GeneratorId(kind, 0)
    if idx is None:
        raise ValueError(f"generator {kind!r} needs an index, e.g. {kind}[1]")
    return GeneratorId(kind, parse_half(idx))


gen = parse_generator


class TermMap:
    """A finitely supported map key -> Scalar, stored without zero values:
    the one type behind generator combinations and module vectors.

    A subclass supplies three hooks: ``space``, what its keys live in
    (None for a combination, the module for a vector); ``_like(terms)``, a
    map of the same type and space over zero-free ``terms``; and
    ``_pairs()``, the (body text, coefficient) pairs in print order.
    """

    __slots__ = ("terms",)
    space = None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def items(self):
        return self.terms.items()

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.space is self.space
            and self.terms == other.terms
        )

    def __add__(self, other: "TermMap") -> "TermMap":
        if other.space is not self.space:
            raise ValueError("vectors belong to different modules")
        return self._like(add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other: "TermMap") -> "TermMap":
        return self + (-other)

    def __neg__(self) -> "TermMap":
        return self._like({k: -s for k, s in self.terms.items()})

    def scaled(self, s: Scalar) -> "TermMap":
        if not s:
            return self._like({})
        return self._like({k: s * t for k, t in self.terms.items()})

    def __str__(self) -> str:
        return format_terms(self._pairs())


def format_terms(pairs) -> str:
    """Signed-term text of (body text, coefficient) pairs, in the given
    order: `body`, `-body`, `1/2*body` or `(1 + i)*body`, joined by + and -,
    and `0` for no pairs."""
    return join_signed(
        [signed_term(str(s) if s.is_simple else f"({s})", body) for body, s in pairs]
    )


def _split_top_level(text: str) -> list[tuple[str, str]]:
    """Split into (sign, chunk) pairs at top-level + and -.

    The +/- inside the kind tokens ``G+[..]`` and ``G-[..]`` never split:
    they sit between a ``G`` and a ``[``.
    """
    parts: list[tuple[str, str]] = []
    depth = 0
    sign = "+"
    buf: list[str] = []
    prev_meaningful = ""
    for pos, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in "+-" and prev_meaningful not in ("", "*", "+", "-", "/", "("):
            rest = text[pos + 1 :].lstrip()
            if not (prev_meaningful == "G" and rest.startswith("[")):
                parts.append((sign, "".join(buf)))
                sign = ch
                buf = []
                prev_meaningful = ""
                continue
        buf.append(ch)
        if not ch.isspace():
            prev_meaningful = ch
    parts.append((sign, "".join(buf)))
    return [(s, c.strip()) for s, c in parts]


def parse_terms(text: str, split_body) -> dict:
    """Inverse of `format_terms`: `0`, or terms `[<scalar>*]<body>` joined
    by + and -, as a zero-free {key: Scalar} map; a key named twice sums.

    ``split_body(term)`` returns the coefficient prefix of one term and the
    key that its body names.
    """
    total: dict = {}
    text = text.strip()
    if text == "0":
        return total
    for sign, chunk in _split_top_level(text):
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        prefix, key = split_body(chunk)
        prefix = prefix.strip().removesuffix("*").strip()
        if prefix in ("", "+"):
            coef = ONE
        elif prefix == "-":
            coef = -ONE
        else:
            coef = parse_scalar(prefix)
        add_scaled(total, {key: -coef if sign == "-" else coef})
    return total


class LinearCombo(TermMap):
    """Finitely supported map GeneratorId -> Scalar."""

    __slots__ = ()

    def __init__(self, terms: dict[GeneratorId, Scalar] | None = None):
        self.terms = {g: s for g, s in (terms or {}).items() if s}

    @classmethod
    def of(cls, *pairs) -> "LinearCombo":
        out: dict[GeneratorId, Scalar] = {}
        for g, s in pairs:
            add_scaled(out, {g: as_scalar(s)})
        return cls(out)

    @classmethod
    def single(cls, g: GeneratorId, s: Scalar = ONE) -> "LinearCombo":
        return cls({g: s} if s else {})

    def _like(self, terms):
        return LinearCombo(terms)

    def _pairs(self):
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        return [(str(g), s) for g, s in items]

    def __iter__(self):
        return iter(self.terms)

    def map_generators(self, fn) -> "LinearCombo":
        """Linear extension of a generator map fn: GeneratorId -> LinearCombo."""
        out: dict[GeneratorId, Scalar] = {}
        for g, s in self.terms.items():
            add_scaled(out, fn(g).terms, s)
        return LinearCombo(out)

    def __repr__(self) -> str:
        return f"combo({str(self)!r})"


ZERO_COMBO = LinearCombo()

_GEN_TAIL_RE = re.compile(r"(Lu|G\+|G-|G1|G2|Cu|L|T|G|J|C)(\[[^\]]+\])?\s*$")


def _split_generator(term: str) -> tuple[str, GeneratorId]:
    m = _GEN_TAIL_RE.search(term)
    if not m:
        raise ValueError(f"no generator literal in term {term!r}")
    return term[: m.start()], parse_generator(m.group(0))


def parse_combo(text: str) -> LinearCombo:
    """Parse `<scalar>*<gen> (+/- ...)` text, `0` for the zero combo."""
    return LinearCombo(parse_terms(text, _split_generator))


def _virasoro(m2: int, n2: int, lkind: str, ckind: str) -> LinearCombo:
    m, n = m2 // 2, n2 // 2
    out = LinearCombo.of((GeneratorId(lkind, m2 + n2), Scalar.rational(m - n)))
    if m2 + n2 == 0:
        out = out + LinearCombo.single(
            GeneratorId(ckind, 0), Scalar.rational(m**3 - m, 12)
        )
    return out


class AlgebraPresentation:
    """A named basis with its structure constants.

    A subclass supplies ``_pair(x, y)``: [x, y] for the canonical kind
    order, None for the swapped order, where the public bracket falls back
    to super-antisymmetry.
    """

    def __init__(self, name: str, kinds: tuple[str, ...]):
        self.name = name
        self.kinds = kinds
        self._rank = {k: i for i, k in enumerate(kinds)}
        self._cache: dict[tuple[GeneratorId, GeneratorId], LinearCombo] = {}

    def __repr__(self) -> str:
        return f"<algebra {self.name}>"

    def check_member(self, g: GeneratorId) -> None:
        if g.kind not in self._rank:
            raise ValueError(f"{g} does not belong to the {self.name} presentation")

    def generators(self, window2: int) -> list[GeneratorId]:
        """All generators with |index2| <= window2, deterministically ordered."""
        if window2 < 0:
            raise ValueError(f"the window must be nonnegative, got {window2}")
        out: list[GeneratorId] = []
        for kind in self.kinds:
            if kind in _CENTRAL_KINDS:
                out.append(GeneratorId(kind, 0))
                continue
            for i2 in range(-window2, window2 + 1):
                if kind in _EVEN_INDEX_KINDS and i2 % 2:
                    continue
                if kind in _ODD_INDEX_KINDS and i2 % 2 == 0:
                    continue
                out.append(GeneratorId(kind, i2))
        return out

    def bracket(self, x: GeneratorId, y: GeneratorId) -> LinearCombo:
        """[x, y]; a cached pair was checked for membership when computed."""
        key = (x, y)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.check_member(x)
        self.check_member(y)
        if x.is_central or y.is_central:
            out = ZERO_COMBO
        else:
            out = self._pair(x, y)
            if out is None:
                swapped = self._pair(y, x)
                if swapped is None:
                    raise ValueError(f"no bracket rule for ({x}, {y}) in {self.name}")
                # [x,y] = -(-1)^{|x||y|}[y,x]: symmetric for odd-odd pairs.
                out = swapped if (x.parity and y.parity) else -swapped
        self._cache[key] = out
        return out

    def antisymmetric(self, x: GeneratorId, y: GeneratorId) -> bool:
        """Whether [y, x] = -(-1)^{|x||y|}[x, y] holds exactly."""
        xy = self.bracket(x, y)
        return self.bracket(y, x) == (xy if x.parity and y.parity else -xy)

    def bracket_combo(self, cx: LinearCombo, cy: LinearCombo) -> LinearCombo:
        out: dict[GeneratorId, Scalar] = {}
        for x, sx in cx.items():
            for y, sy in cy.items():
                add_scaled(out, self.bracket(x, y).terms, sx * sy)
        return LinearCombo(out)


class _Twisted(AlgebraPresentation):
    def _pair(self, x, y):
        kx, ky = x.kind, y.kind
        if kx == "L" and ky == "L":
            return _virasoro(x.index2, y.index2, "L", "C")
        if kx == "L" and ky == "T":
            r2 = y.index2
            return LinearCombo.single(T(x.index2 + r2), Scalar.rational(-r2, 2))
        if kx == "L" and ky == "G":
            return LinearCombo.single(
                G(x.index2 + y.index2), Scalar.rational(x.index2 - 2 * y.index2, 4)
            )
        if kx == "T" and ky == "T":
            if x.index2 + y.index2 == 0:
                return LinearCombo.single(C, Scalar.rational(x.index2, 6))
            return ZERO_COMBO
        if kx == "T" and ky == "G":
            return LinearCombo.single(G(x.index2 + y.index2), ONE)
        if kx == "G" and ky == "G":
            p2, q2 = x.index2, y.index2
            if (p2 + q2) % 2 == 0:
                sign = 1 if p2 % 2 == 0 else -1
                out = LinearCombo.single(L((p2 + q2) // 2), Scalar.rational(2 * sign))
                if p2 + q2 == 0:
                    out = out + LinearCombo.single(
                        C, Scalar.rational(sign * (p2 * p2 - 1), 12)
                    )
                return out
            sign = -1 if p2 % 2 == 0 else 1
            return LinearCombo.single(
                T(p2 + q2), Scalar.rational(sign * (p2 - q2), 2)
            )
        return None


TWISTED = _Twisted("twisted", TWISTED_KINDS)


def __getattr__(name: str):
    """`PRESENTATIONS`, all four by name, from `suites`, which defines the
    three besides `TWISTED`; callers outside the package (the benchmark's
    traced runner) read it here, so it resolves on first use."""
    if name != "PRESENTATIONS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .suites import PRESENTATIONS

    return PRESENTATIONS


class SuiteReport:
    """A deterministic table of (case, inputs, expected, got, status) rows."""

    def __init__(self, name: str):
        self.name = name
        self.rows: list[tuple[str, str, str, str, str]] = []

    def add(self, case: str, inputs: str, expected: str, got: str, ok: bool):
        self.rows.append((case, inputs, expected, got, "pass" if ok else "FAIL"))

    @property
    def ok(self) -> bool:
        return all(r[4] != "FAIL" for r in self.rows)

    def tsv(self) -> str:
        lines = ["case\tinputs\texpected\tgot\tstatus"]
        lines += ["\t".join(r) for r in self.rows]
        return "\n".join(lines) + "\n"
