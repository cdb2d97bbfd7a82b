"""Super-PBW straightening and induced-module actions.

The engine works over a *letter system*: an ordered family of generators
(the "letters") whose normal words, written with slot numbers decreasing
left to right, index the basis of an induced module over a *seed*.  A
generator acts on a basis term ``word (x) label`` by the recursion

    x . (g w') = (-1)^{|x||g|} g . (x . w')  +  [x, g] . w'

until it either merges into the word (letters), is rewritten into
letters (e.g. ``L[-m] -> (-1)^m G[-m/2]^2``), or reaches the seed,
whose oracle supplies the module action of the remaining generator.
The seed classes, and the protocol a seed follows, live in `modules`.
Every act is exact: no word is cut, no seed truncates, and no letter
family is cut short.

A generator that meets a power ``a^e`` (e >= 3) of the top letter passes
it in one step, by the power rule of `InducedModule._act_past_power`: with
``b = a`` (``a.a = (1/2)[a, a]`` for an odd letter) and ``c_n = ad_b^n(x)``,
``x b^m = sum_n C(m, n) b^(m-n) c_n``.  That costs O(e) work and memo
entries instead of O(e^2).  It runs on every module; a generator passes a
power below the cube, or one whose next lower power it has met, one letter
at a time.

The twisted negative template is the main instance: letters are
``T[-r]`` and ``G[-p]`` with slot 2n-1 for ``T[-(2n-1)/2]`` and slot 2n
for ``G[-(n-1)/2]``, `L`-generators of nonpositive degree are eliminated
through ``G``-squares (with ``L[0] -> G[0]^2 + c/24``), and the central
element acts by the charge ``c``.  The untwisted template, behind the
Verma module, has every negative generator as a letter.  Finite letter
systems (`families.FiniteLetters`) reuse the same recursion for the
inductions of the other seed families.
"""

from __future__ import annotations

from math import comb

from .algebra import G, GeneratorId, LinearCombo, T, TWISTED, TermMap, parse_terms
from .orders import ExponentVector, ZERO_VECTOR, parse_exponent_vector, principal_sort_key
from .scalars import HALF, ONE, Scalar, add_scaled

Rewrite = list[tuple[Scalar, tuple[GeneratorId, ...]]]


def word_text(ev: ExponentVector, letter) -> str:
    """A normal word as its letters leftmost first, ``letter(slot)`` naming
    each, ``g^e`` for a power and ``1`` for the empty word."""
    return "*".join(f"{letter(s)}^{e}" if e > 1 else str(letter(s))
                    for s, e in sorted(ev.entries, reverse=True)) or "1"


class TwistedTemplate:
    """The negative-monomial template of the twisted algebra."""

    presentation = TWISTED

    def __init__(self, c: Scalar):
        c24 = c * Scalar.rational(1, 24)
        self._l0_rewrite: Rewrite = [(ONE, (G(0), G(0)))]
        if c24:
            self._l0_rewrite.append((c24, ()))

    def slot_of(self, gen):
        k = gen.kind
        if k == "T" and gen.index2 < 0:
            return -gen.index2
        if k == "G" and gen.index2 <= 0:
            return 2 - 2 * gen.index2
        return None

    def letter(self, slot):
        if slot % 2:
            return T(-slot)
        return G(-(slot - 2) // 2)

    def rewrite(self, gen):
        if gen.kind == "L" and gen.index2 <= 0:
            if gen.index2 == 0:
                return self._l0_rewrite
            half = G(gen.index2 // 2)
            m = -gen.index2 // 2
            return [(Scalar.rational((-1) ** m), (half, half))]
        return None

    def word_text(self, ev):
        return "w" + str(ev)


class UntwistedTemplate:
    """The negative-monomial template of the untwisted algebra (+/- basis):
    every generator of doubled degree -k < 0 is a letter, ``Lu[-k/2]`` or
    ``G+[-k/2]`` in slot 2k and ``J[-k/2]`` or ``G-[-k/2]`` in slot 2k-1.
    Nothing is rewritten, and an odd letter folds: [G+, G+] = [G-, G-] = 0.
    Its presentation, defined in `suites`, is imported when the template
    is built, so no command on the twisted algebra loads it.
    """

    def __init__(self):
        from .suites import UNTWISTED_PM

        self.presentation = UNTWISTED_PM

    def slot_of(self, gen):
        k = -gen.index2
        if k > 0:
            return 2 * k if gen.kind in ("Lu", "G+") else 2 * k - 1
        return None

    def letter(self, slot):
        k = (slot + 1) // 2
        kinds = ("Lu", "J") if k % 2 == 0 else ("G+", "G-")
        return GeneratorId(kinds[slot % 2], -k)

    def rewrite(self, gen):
        return None

    def word_text(self, ev):
        return word_text(ev, self.letter)


def keeps_square(letters, g: GeneratorId) -> bool:
    """Whether the normal words of ``letters`` hold g^2 for a letter g: g is
    even, or (1/2)[g, g] names a rewritten generator, which would rewrite
    back into g^2 (``G[0]`` with ``L[0] -> G[0]^2 + c/24``).  Otherwise g.g
    folds to (1/2)[g, g]."""
    return g.parity == 0 or any(
        letters.rewrite(z) is not None for z in letters.presentation.bracket(g, g).terms)


class ModuleVector(TermMap):
    """Finitely supported map (word, seed label) -> Scalar; its ``space``
    is the InducedModule it belongs to."""

    __slots__ = ("space",)

    def __init__(self, module: "InducedModule", terms: dict):
        """``terms`` must hold no zero coefficients; InducedModule.vector
        filters outside input."""
        self.space = module
        self.terms = terms

    def _like(self, terms):
        return ModuleVector(self.space, terms)

    def _pairs(self):
        m = self.space
        items = sorted(self.terms.items(), key=lambda kv: m.term_key(kv[0]),
                       reverse=True)
        return [(f"{m.letters.word_text(ev)}⊗{m.seed.label_text(lbl)}", s)
                for (ev, lbl), s in items]

    def coefficient(self, ev: ExponentVector) -> dict:
        """The seed-module coefficient of one word, as label -> Scalar."""
        return {lbl: s for (w, lbl), s in self.terms.items() if w == ev}

    def __repr__(self) -> str:
        return f"<vector {self}>"


class InducedModule:
    """An induced module realised over a letter system and a seed.

    A letter system (`TwistedTemplate`, `UntwistedTemplate` or
    `families.FiniteLetters`) has a ``presentation``, ``slot_of(gen)``
    (None for a mover), ``letter(slot)``, ``rewrite(gen)`` (a Rewrite or
    None) and ``word_text(ev)``; `keeps_square` derives from these whether
    a letter stacks or folds.  The seed follows the protocol stated in the
    `modules` docstring.
    """

    def __init__(self, letters, seed):
        self.letters = letters
        self.seed = seed
        self.c = seed.c
        self.presentation = letters.presentation
        self._memo: dict = {}
        # gen -> (rewrite, slot, keeps_square), the last asked of letters only
        self._dispatch: dict = {}
        self.label_rank = seed.label_key

    def term_key(self, key) -> tuple:
        """The order of basis terms (word, label): principal, then by label."""
        ev, label = key
        return (principal_sort_key(ev), self.label_rank(label))

    # -- construction -------------------------------------------------

    def zero(self) -> ModuleVector:
        return ModuleVector(self, {})

    def basis_vector(self, ev: ExponentVector, label=None) -> ModuleVector:
        if label is None:
            label = self.seed.labels()[0]
        return ModuleVector(self, {(ev, label): ONE})

    def vector(self, terms: dict) -> ModuleVector:
        return ModuleVector(self, {k: v for k, v in terms.items() if v})

    # -- the action ---------------------------------------------------

    def act(self, gen: GeneratorId, v: ModuleVector) -> ModuleVector:
        return ModuleVector(self, self.act_into({}, gen, v))

    def act_into(self, acc: dict, gen: GeneratorId, v: ModuleVector,
                 coef: Scalar = ONE) -> dict:
        """acc += coef * (gen . v) in place, as `add_scaled` does; returns acc."""
        if v.space is not self:
            raise ValueError("vector belongs to a different module")
        self.presentation.check_member(gen)
        unit = coef.unit_sign
        for (ev, lbl), s in v.terms.items():
            add_scaled(acc, self._act_basis(gen, ev, lbl),
                       s if unit == 1 else -s if unit else coef * s)
        return acc

    def act_combo(self, combo: LinearCombo, v: ModuleVector) -> ModuleVector:
        acc: dict = {}
        for g, s in combo.items():
            self.act_into(acc, g, v, s)
        return ModuleVector(self, acc)

    def act_word(self, gens, v: ModuleVector) -> ModuleVector:
        """Apply a product of generators right-to-left: [x,y] acts as x(y v)."""
        for g in reversed(list(gens)):
            v = self.act(g, v)
        return v

    def _act_basis(self, gen: GeneratorId, ev: ExponentVector, label) -> dict:
        """gen . (ev (x) label) as a term map {(word, label): Scalar}.

        The map is the memo entry itself, shared by every later call with
        the same key: callers only read it, and it is never mutated (only
        the ``acc`` argument of `add_scaled` is ever written).
        """
        key = (gen, ev, label)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._act_basis_raw(gen, ev, label)
        self._memo[key] = out
        return out

    def _act_basis_raw(self, gen, ev, label) -> dict:
        if gen.is_central:
            return {(ev, label): self.c} if self.c else {}
        how = self._dispatch.get(gen)
        if how is None:
            letters = self.letters
            slot = letters.slot_of(gen)
            how = self._dispatch[gen] = (letters.rewrite(gen), slot,
                                         slot is not None and keeps_square(letters, gen))
        rw, slot, keep = how
        acc: dict = {}
        if rw is not None:
            # each word of the rewrite acts right to left, one letter at a time
            for s, gens in rw:
                terms = {(ev, label): ONE}
                for g in reversed(gens):
                    terms, prev = {}, terms
                    for (ev1, lbl1), t in prev.items():
                        add_scaled(terms, self._act_basis(g, ev1, lbl1), t)
                add_scaled(acc, terms, s)
            return acc
        top = ev.entries[-1][0] if ev.entries else None
        if slot is not None and (top is None or slot > top or (slot == top and keep)):
            return {(ev.bump(slot, +1), label): ONE}
        if slot is not None and slot == top:
            # fold: g.g = (1/2)[g, g]
            rest = ev.bump(slot, -1)
            for z, coef in self.presentation.bracket(gen, gen).items():
                add_scaled(acc, self._act_basis(z, rest, label), coef * HALF)
            return acc
        if top is None:
            acted = self.seed.act(gen, label)
            return {(ZERO_VECTOR, lbl): s for lbl, s in acted.items() if s}
        # move gen one letter to the right; the first time gen meets a
        # stack of three or more top letters, pass the whole power at once
        g1 = self.letters.letter(top)
        rest = ev.bump(top, -1)
        if (gen, rest, label) not in self._memo:
            e = ev.entries[-1][1]
            if e >= 3:
                return self._act_past_power(gen, ev, label, g1, top, e)
        odd = gen.parity and g1.parity
        for (ev1, lbl1), s in self._act_basis(gen, rest, label).items():
            add_scaled(acc, self._act_basis(g1, ev1, lbl1), -s if odd else s)
        for z, coef in self.presentation.bracket(gen, g1).items():
            add_scaled(acc, self._act_basis(z, rest, label), coef)
        return acc

    def _act_past_power(self, gen, ev, label, a, top, e) -> dict:
        """gen . (a^e w') in one pass, where ``a`` is the top letter of ``ev``
        (slot ``top``, exponent e) and ``gen`` does not go on top of it.

        Let b = a and step = 1 for an even a, or b = a.a = (1/2)[a, a] and
        step = 2 for an odd one, so that a^e w' = b^m w with m = e // step.
        Right multiplication by b is L_b + ad_b, with ad_b(y) = [y, b], and
        the two commute; so with c_n = ad_b^n(gen),

            gen b^m w = sum_{j<J} C(m,j) b^(m-j) (c_j w)
                      + sum_{n>=J} (-1)^(n-J) C(m,n) C(n-1,J-1) c_n (b^(m-n) w).

        J is one past the last n at which c_n has a term other than a letter
        above ``top``, so each term of the second sum puts one letter on top
        of the word b^(m-n) w.  In the first sum, b^k puts a^(step k) on top
        of every term of c_j w without a letter above ``top``; the other
        terms go through a Horner loop of m applications of b.
        """
        bracket = self.presentation.bracket
        step = 1 + a.parity
        m = e // step
        chain = [{gen: ONE}]
        while len(chain) <= m:
            c = chain[-1]
            for _ in range(step):  # ad_b = ad_a^step
                c, prev = {}, c
                for g, s in prev.items():
                    add_scaled(c, bracket(g, a).terms, s)
            if not c:
                break
            chain.append(c)
        slot_of = self.letters.slot_of
        J = len(chain)
        while all((slot_of(g) or 0) > top for g in chain[J - 1]):
            J -= 1

        def times_b(terms: dict, k: int) -> dict:
            for _ in range(step * k if terms else 0):
                terms, prev = {}, terms
                for (ev1, lbl1), s in prev.items():
                    add_scaled(terms, self._act_basis(a, ev1, lbl1), s)
            return terms

        w = ev.bump(top, -step * m)
        acc: dict = {}
        high: dict = {}
        for j in range(J):
            high = times_b(high, 1)
            k = comb(m, j)
            for g, s in chain[j].items():
                coef = _int_times(k, s)
                for (ev1, lbl1), t in self._act_basis(g, w, label).items():
                    if (ev1.max_slot() or 0) > top:
                        add_scaled(high, {(ev1, lbl1): t}, coef)
                    else:
                        add_scaled(acc, {(ev1.bump(top, step * (m - j)), lbl1): t}, coef)
        add_scaled(acc, times_b(high, m + 1 - J))
        for n in range(J, len(chain)):
            k = (-1) ** (n - J) * comb(m, n) * comb(n - 1, J - 1)
            word = ev.bump(top, -step * n)
            add_scaled(acc, {(word.bump(slot_of(g), 1), label): _int_times(k, s)
                             for g, s in chain[n].items()})
        return acc

    # -- text ----------------------------------------------------------

    def parse_vector(self, text: str) -> ModuleVector:
        """Inverse of `str` on vectors, for the twisted `w{...}` word form."""

        def split_body(term: str):
            if "⊗" not in term:
                raise ValueError(f"no ⊗ separator in vector term {term!r}")
            left, lbl_text = term.rsplit("⊗", 1)
            wpos = left.find("w{")
            if wpos < 0:
                raise ValueError(f"no w{{...}} word in vector term {term!r}")
            word = parse_exponent_vector(left[wpos + 1 :])
            return left[:wpos], (word, self.seed.parse_label(lbl_text.strip()))

        return ModuleVector(self, parse_terms(text, split_body))


def _int_times(k: int, s: Scalar) -> Scalar:
    """k * s, with no Scalar product when k or s is 1 or -1."""
    unit = s.unit_sign
    if unit:
        return Scalar.rational(unit * k)
    return s if k == 1 else -s if k == -1 else Scalar.rational(k) * s

