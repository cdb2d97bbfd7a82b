import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from n2sca.algebra import C, G, L, T, TWISTED, TWISTED_KINDS, parse_combo
from n2sca.engine import InducedModule, TwistedTemplate
from n2sca.modules import (
    FiniteSeed,
    derived_pair_spec,
    load_spec_config,
    module_axiom_check,
    whittaker_spec,
)
from n2sca.orders import ExponentVector, ZERO_VECTOR, enumerate_vectors, eps
from n2sca.scalars import ONE, Scalar, ZERO
from n2sca.theorems import leading_word


def ev(*items):
    return ExponentVector(items)


def sc(x):
    return x if isinstance(x, Scalar) else Scalar(x)


def straighten_negative(word, c: Scalar | int = 0) -> dict[ExponentVector, Scalar]:
    """Expand a product of nonpositive-degree twisted generators in the
    normal monomial basis; the central element is replaced by ``c`` and
    ``L[0]`` by ``G[0]^2 + c/24``.  It acts by the word on the vacuum of a
    one-label seed that every positive generator kills."""
    c = sc(c)
    gens = list(word)
    for g in gens:
        if g.kind not in TWISTED_KINDS:
            raise ValueError(f"{g} is not a twisted generator")
        if g.degree2 > 0:
            raise ValueError(f"{g} has positive degree; straightening needs degree <= 0")
    seed = FiniteSeed("straightening", ("1",), {}, lambda g: False, c, {"1": 0})
    module = InducedModule(TwistedTemplate(c), seed)
    v = module.act_word(gens, module.basis_vector(ZERO_VECTOR, "1"))
    return {w: s for (w, _), s in v.terms.items()}


@pytest.fixture(scope="module")
def whittaker_module():
    return whittaker_spec(1, 0).induced()


class TestStraightening:
    def test_single_super_swap(self):
        got = straighten_negative([T(-1), G(-1)])
        assert got == {ev((1, 1), (4, 1)): ONE, eps(6): ONE}

    def test_l_minus_one_is_minus_square(self):
        assert straighten_negative([L(-1)]) == {ev((4, 2)): -ONE}

    def test_fermion_square_already_normal(self):
        assert straighten_negative([G(-1), G(-1)]) == {ev((4, 2)): ONE}

    def test_normal_word_is_fixed(self):
        word = [G(-2), T(-3), G(0), T(-1)]  # slots 6,3,2,1: descending
        assert straighten_negative(word) == {
            ev((1, 1), (2, 1), (3, 1), (6, 1)): ONE
        }

    def test_l_zero_elimination_uses_central_charge(self):
        assert straighten_negative([L(0)], c=1) == {
            ev((2, 2)): ONE,
            ZERO_VECTOR: Scalar.rational(1, 24),
        }
        assert straighten_negative([C], c=3) == {ZERO_VECTOR: Scalar(3)}

    def test_rejects_positive_degree(self):
        with pytest.raises(ValueError):
            straighten_negative([T(1)])

    def test_association_independence(self):
        # building the same word by repeated left multiplication agrees
        # with straightening it in one go
        rng = random.Random(7)
        pool = [T(-1), T(-3), G(0), G(-1), G(-2), L(-1), L(0)]
        for _ in range(200):
            word = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            whole = straighten_negative(word, c=1)
            stepwise = {ZERO_VECTOR: ONE}
            for g in reversed(word):
                acc = {}
                for ev_, coef in stepwise.items():
                    letters = []
                    for slot, e in sorted(ev_.entries, reverse=True):
                        letters += [_letter(slot)] * e
                    for ev2, coef2 in straighten_negative([g] + letters, c=1).items():
                        acc[ev2] = acc.get(ev2, ZERO) + coef * coef2
                stepwise = {k: v for k, v in acc.items() if v}
            assert whole == stepwise

    def test_preswap_invariance_seeded(self):
        # straighten(w) == +-straighten(swapped) + straighten(spliced bracket)
        rng = random.Random(11)
        pool = [T(-1), T(-3), T(-5), G(0), G(-1), G(-2), G(-3)]
        for _ in range(1000):
            word = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
            i = rng.randrange(len(word) - 1)
            a, b = word[i], word[i + 1]
            swapped = word[:i] + [b, a] + word[i + 2 :]
            sign = -ONE if a.parity and b.parity else ONE
            lhs = straighten_negative(word, c=1)
            rhs = {
                k: sign * v for k, v in straighten_negative(swapped, c=1).items()
            }
            for z, coef in TWISTED.bracket(a, b).items():
                spliced = word[:i] + [z] + word[i + 2 :]
                for k, v in straighten_negative(spliced, c=1).items():
                    rhs[k] = rhs.get(k, ZERO) + coef * v
            assert lhs == {k: v for k, v in rhs.items() if v}


def _letter(slot):
    return T(-slot) if slot % 2 else G(-(slot - 2) // 2)


class TestAction:
    def test_l1_on_t_letter(self, whittaker_module):
        m = whittaker_module
        got = m.act(L(1), m.basis_vector(eps(1)))
        assert got == m.basis_vector(ZERO_VECTOR).scaled(Scalar.rational(1, 2))

    def test_t_half_on_g_zero(self, whittaker_module):
        m = whittaker_module
        v = m.basis_vector(eps(2))
        assert m.act(T(1), v) == v  # lambda = 1

    def test_g_half_on_g_zero(self, whittaker_module):
        m = whittaker_module
        got = m.act(G(1), m.basis_vector(eps(2)))
        assert got == m.basis_vector(ZERO_VECTOR).scaled(Scalar.rational(1, 2))

    def test_central_acts_by_charge(self, whittaker_module):
        m = whittaker_module
        v = m.basis_vector(ev((1, 1), (4, 1)))
        assert m.act(C, v).is_zero  # c = 0
        m1 = whittaker_spec(1, 2).induced()
        v1 = m1.basis_vector(eps(1))
        assert m1.act(C, v1) == v1.scaled(Scalar(2))

    def test_act_word_identity_and_composition(self, whittaker_module):
        m = whittaker_module
        v = m.basis_vector(ev((1, 2)))
        assert m.act_word([], v) == v
        got = m.act_word([L(1), L(1)], v)
        assert got == m.basis_vector(ZERO_VECTOR).scaled(Scalar.rational(1, 2))

    def test_act_combo_linear(self, whittaker_module):
        m = whittaker_module
        v = m.basis_vector(eps(1))
        combo = parse_combo("2*L[1] + 0*T[3/2]")
        assert m.act_combo(combo, v) == m.act(L(1), v).scaled(Scalar(2))

    def test_positive_action_routes_to_seed(self, whittaker_module):
        m = whittaker_module
        # G[1] on w{4:1}: [G1, G-1/2] = -3/2 T[1/2], then T[1/2]v0 = v0
        got = m.act(G(2), m.basis_vector(eps(4)))
        assert got == m.basis_vector(ZERO_VECTOR).scaled(Scalar.rational(-3, 2))


class TestLeadingWord:
    def test_revlex_tiebreak(self, whittaker_module):
        m = whittaker_module
        v = m.basis_vector(eps(1)) + m.basis_vector(eps(4))
        assert leading_word(v) == eps(1)
        assert leading_word(v).weight2 == 1

    def test_zero_word(self, whittaker_module):
        m = whittaker_module
        assert leading_word(m.basis_vector(ZERO_VECTOR)) == ZERO_VECTOR

    def test_zero_vector_raises(self, whittaker_module):
        with pytest.raises(ValueError, match="only for w != 0"):
            leading_word(whittaker_module.zero())


class TestModuleAxiom:
    def test_small_window(self, whittaker_module):
        vectors = [
            whittaker_module.basis_vector(ev_) for ev_ in enumerate_vectors(2, 2)
        ]
        report = module_axiom_check(whittaker_module, 3, vectors)
        assert report.ok

    def test_grading_of_positive_action(self, whittaker_module):
        # a degree-d generator maps the weight-w slice into weight <= w - d
        m = whittaker_module
        for ev_ in enumerate_vectors(4, 3):
            for x in (L(1), L(2), T(1), T(3), G(1), G(2), G(3)):
                image = m.act(x, m.basis_vector(ev_))
                if image.is_zero:
                    continue
                w2 = leading_word(image).weight2
                assert w2 <= ev_.weight2 - x.degree2 + 1  # u = 1/2 slack


class TestVectorText:
    def test_roundtrip(self, whittaker_module):
        m = whittaker_module
        v = m.basis_vector(ev((1, 2))).scaled(Scalar(0, 1)) + m.basis_vector(
            eps(6)
        ).scaled(Scalar.rational(-3, 2))
        assert m.parse_vector(str(v)) == v

    def test_negative_leading_term_reparses(self, whittaker_module):
        m = whittaker_module
        v = m.basis_vector(eps(1)).scaled(-ONE) + m.basis_vector(eps(4))
        assert str(v) == "-w{1:1}⊗v0 + w{4:1}⊗v0"
        assert m.parse_vector(str(v)) == v

    def test_deterministic_order(self, whittaker_module):
        m = whittaker_module
        v = m.basis_vector(eps(4)) + m.basis_vector(eps(1))
        assert str(v) == "w{1:1}⊗v0 + w{4:1}⊗v0"


# the lambda = 1 + i Whittaker module, built once for every example
LAMBDA_1_I = whittaker_spec(Scalar(1, 1), 0).induced()


@settings(max_examples=40)
@given(st.dictionaries(
    st.sampled_from(enumerate_vectors(4, 3)),
    st.builds(Scalar, *[st.fractions(-4, 4, max_denominator=4)] * 4),
    max_size=4,
))
def test_vector_text_roundtrip(words):
    v = LAMBDA_1_I.vector({(w, "v0"): s for w, s in words.items()})
    assert LAMBDA_1_I.parse_vector(str(v)) == v


def test_memo_values_never_leak(whittaker_module):
    """Clearing a returned term map changes no later answer: callers get
    fresh maps, never the shared memo entries behind them."""
    m = whittaker_module
    v = m.basis_vector(ev((1, 1), (4, 2)))
    pair = derived_pair_spec(1, {L(1): 1, T(3): 1}, 2, (2, 3))
    label = pair.parse_label("T[1/2]^2.v0")
    calls = [
        lambda: m.act(G(1), v).terms,
        lambda: pair.act(L(1), label),
        lambda: straighten_negative([T(-1), G(-1), L(0)], c=2),
    ]
    for call in calls:
        first = call()
        expected = dict(first)
        assert len(expected) > 1
        first.clear()
        assert call() == expected


class OneStepModule(InducedModule):
    """The reference for the power rule: a generator passes a power of one
    letter one letter at a time, after the memo is filled for the lower
    powers bottom-up, so that the recursion depth stays bounded."""

    def _act_past_power(self, gen, ev, label, a, top, e):
        for k in range(1, e):
            self._act_basis(gen, ev.bump(top, k - e), label)
        # the next lower power is now in the memo: the one-step path runs
        return self._act_basis_raw(gen, ev, label)


# lambda = 1 + i and c = sqrt2.  The slots hold T[-1/2] (even), G[0] (its
# b = L[0] - C/24 gives a chain that never ends), G[-1/2] (odd) and G[-1]
POWER_SEED = whittaker_spec(Scalar(1, 1), Scalar(0, 0, 1))
POWER_SLOTS = (1, 2, 4, 6)


def test_one_step_reference_differs_from_the_power_path():
    fast = POWER_SEED.induced()
    slow = OneStepModule(TwistedTemplate(POWER_SEED.c), POWER_SEED)
    word = ev((4, 40))
    got = fast.act(G(0), fast.basis_vector(word)).terms
    assert got == slow.act(G(0), slow.basis_vector(word)).terms
    assert (len(fast._memo), len(slow._memo)) == (2, 1719)


@settings(max_examples=80, deadline=None)
@given(gen=st.sampled_from(TWISTED.generators(6)),
       slot=st.sampled_from(POWER_SLOTS),
       e=st.integers(3, 12),
       lower=st.integers(0, 5))
def test_power_rule_matches_the_one_step_recursion(gen, slot, e, lower):
    entries = [(slot, e)] + ([(lower, 1)] if 0 < lower < slot else [])
    fast = POWER_SEED.induced()
    slow = OneStepModule(TwistedTemplate(POWER_SEED.c), POWER_SEED)
    word = ExponentVector(entries)
    got = fast.act(gen, fast.basis_vector(word)).terms
    assert got == slow.act(gen, slow.basis_vector(word)).terms


# G[0] past a power of the odd letter G[-1/2], and T[1/2] past a power of
# G[0], the letter whose square the L[0] rewrite keeps: 2 memo entries each
@pytest.mark.parametrize("gen, slot, e", [
    pytest.param(G(0), 4, 80, id="80"),
    pytest.param(G(0), 4, 400, id="400"),
    pytest.param(T(1), 2, 80, id="rewritten-square-80"),
    pytest.param(T(1), 2, 400, id="rewritten-square-400"),
])
def test_deep_act_memo_is_linear_in_the_exponent(gen, slot, e):
    module = whittaker_spec(1, 0).induced()
    image = module.act(gen, module.basis_vector(ev((slot, e))))
    assert len(image.terms) == e // 2 + 1
    assert len(module._memo) <= 2 * e


GOLDEN = Path(__file__).resolve().parent / "golden"
WHITTAKER_CFG = (GOLDEN / "whittaker.cfg").read_text()


def rewrite_reference(module, g, v):
    """g . v as the sum of s * act_word(gens, v) over the rewrite of g."""
    out = module.zero()
    for s, gens in module.letters.rewrite(g):
        out = out + module.act_word(gens, v).scaled(s)
    return out


def _whittaker(c):
    return load_spec_config(WHITTAKER_CFG.replace("c = 0", f"c = {c}")).induced()


# name: (a fresh module, the generators it rewrites, its basis terms (word, label))
REWRITE_CASES = {
    "whittaker": (lambda: _whittaker("0"), [L(0), L(-1), L(-2)],
                  [(w, "v0") for w in enumerate_vectors(2, 3)]),
    "whittaker-c": (lambda: _whittaker("1/3 + r2"), [L(0), L(-1), L(-2)],
                    [(w, "v0") for w in enumerate_vectors(2, 3)]),
}


@pytest.mark.parametrize("name", sorted(REWRITE_CASES))
def test_a_rewrite_acts_like_act_word_over_its_words(name):
    build, gens, basis = REWRITE_CASES[name]
    module, reference = build(), build()  # the reference starts from an empty memo
    assert all(module.letters.rewrite(g) for g in gens)
    for g in gens:
        for key in basis:
            want = rewrite_reference(reference, g, reference.vector({key: ONE}))
            assert module.act(g, module.vector({key: ONE})).terms == want.terms, (g, key)
