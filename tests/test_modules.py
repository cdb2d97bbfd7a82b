import os
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from n2sca import modules
from n2sca.algebra import (
    C, G, KIND_RANK, L, T, TWISTED, TWISTED_KINDS, UNTWISTED_PM, Gm, Gp, J, Lu,
    format_half, format_terms, parse_combo,
)
from n2sca.engine import (
    FiniteLetters, InducedModule, TwistedTemplate, UntwistedTemplate, keeps_square,
)
from n2sca.modules import (
    FiniteSeed,
    _positive,
    check_conditions,
    check_seed,
    derived_pair_spec,
    load_spec_config,
    module_axiom_check,
    t_upper,
    verma_untwisted,
    whittaker_spec,
)
from n2sca.orders import ZERO_VECTOR, walk_vectors
from n2sca.scalars import I, ONE, SQRT2, Scalar, ZERO


def _frak_t(g):
    """The acting subalgebra the generalized seed once had: L_m (m >= 1),
    T_r (r >= 3/2) and G_p (p >= 1).  It is T^(1/2) without G[1/2]."""
    if g.kind in ("L", "G"):
        return g.index2 >= 2
    return g.kind == "T" and g.index2 >= 3


def unchecked_pair_seed(s2, phi, c=ZERO):
    """The table seed that `derived_pair_spec` builds for phi on T^(s), with
    its `check_seed` skipped, so that a seed it rejects can be inspected."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modules, "check_seed", lambda seed, letters: None)
        return derived_pair_spec(s2, phi, c, (0, 0)).inner.seed


def reference_highorder_letters(s2):
    """The explicit ranges the order-s letters were once built from:
    G[1/2], then L_m (1 <= m < s), G_p (1 < p < s), T_r (1/2 <= r <= s)."""
    complement = ([L(m2 // 2) for m2 in range(2, s2, 2)]
                  + [G(p2) for p2 in range(2, s2)]
                  + [T(r2) for r2 in range(1, s2 + 1, 2)])
    complement.sort(key=lambda g: (KIND_RANK[g.kind], -g.index2))
    return [G(1)] + complement


def act_through(spec, gen, vec):
    """Extend a seed action linearly to a label->Scalar dict."""
    out = {}
    for lbl, s in vec.items():
        for l2, s2 in spec.act(gen, lbl).items():
            t = out.get(l2, ZERO) + s * s2
            if t:
                out[l2] = t
            else:
                out.pop(l2, None)
    return out


def spec_axiom_holds(spec, window2, reaches=lambda g: True):
    """Seed-level module axiom over the positive generator pairs in the
    window that ``reaches`` admits."""
    gens = [g for g in TWISTED.generators(window2) if g.degree2 > 0 and reaches(g)]
    for x in gens:
        for y in gens:
            sign = -1 if x.parity and y.parity else 1
            bracket = TWISTED.bracket(x, y)
            for lbl in spec.labels():
                lhs = act_through(spec, x, spec.act(y, lbl))
                rhs_sub = act_through(spec, y, spec.act(x, lbl))
                rhs = {}
                for z, coef in bracket.items():
                    if z.is_central:
                        piece = {lbl: coef * spec.c}
                    else:
                        piece = {
                            l2: coef * s for l2, s in spec.act(z, lbl).items()
                        }
                    for l2, s in piece.items():
                        t = rhs.get(l2, ZERO) + s
                        if t:
                            rhs[l2] = t
                        else:
                            rhs.pop(l2, None)
                diff = dict(lhs)
                for l2, s in rhs_sub.items():
                    t = diff.get(l2, ZERO) - (s if sign == 1 else -s)
                    if t:
                        diff[l2] = t
                    else:
                        diff.pop(l2, None)
                for l2, s in rhs.items():
                    t = diff.get(l2, ZERO) - s
                    if t:
                        diff[l2] = t
                    else:
                        diff.pop(l2, None)
                if diff:
                    return False, (x, y, lbl, diff)
    return True, None


class TestWhittakerSpec:
    def test_conditions_hold(self):
        spec = whittaker_spec(1, 0)
        assert check_conditions(spec, 1) == (True, True)
        assert spec.parity("v0") is None  # ungraded

    def test_zero_lambda_flagged(self):
        spec = whittaker_spec(0, 0)
        assert check_conditions(spec, 1) == (False, True)

    def test_forced_l1_value_rejected(self):
        # L[1] is a multiple of [G[1/2], G[1/2]], and G[1/2] acts by zero
        seed = FiniteSeed("character", ("v0",), {(T(1), "v0"): {"v0": ONE},
                                                 (L(1), "v0"): {"v0": ONE}}, _positive)
        with pytest.raises(ValueError, match=r"\[G\[1/2\],G\[1/2\]\] .* on v0"):
            check_seed(seed)

    def test_odd_values_rejected(self):
        # G[1/2] = 1 with L[1] = -1 satisfies the module axiom; the odd
        # action on the ungraded (so even) label breaks the parity rule
        seed = FiniteSeed("character", ("v0",), {(G(1), "v0"): {"v0": ONE},
                                                 (L(1), "v0"): {"v0": -ONE}}, _positive)
        assert spec_axiom_holds(seed, 14) == (True, None)
        with pytest.raises(ValueError, match=r"parity rule: G\[1/2\] maps v0 to v0"):
            check_seed(seed)

    def test_seed_axiom_window(self):
        ok, witness = spec_axiom_holds(whittaker_spec(1, 0), 6)
        assert ok, witness


class TestGeneralizedSpec:
    def test_label_count(self):
        spec = derived_pair_spec(1, {L(1): 0, T(3): 1}, 0, (4, 3))
        labels = spec.labels()
        # words G^eps T^a with eps + a <= 3, eps <= 1, weight eps + a <= 4
        assert len(labels) == 14
        assert spec.label_text(labels[0]) == "v0"

    def test_bracket_consistency_example(self):
        # act(L1, act(T1/2, v0)) - act(T1/2, act(L1, v0)) = -(phi(T3/2)/2) v0
        spec = derived_pair_spec(1, {L(1): 0, T(3): 1}, 0, (4, 3))
        v0 = spec.parse_label("v0")
        lhs = act_through(spec, L(1), spec.act(T(1), v0))
        for l2, s in act_through(spec, T(1), spec.act(L(1), v0)).items():
            lhs[l2] = lhs.get(l2, ZERO) - s
        lhs = {spec.label_text(k): v for k, v in lhs.items() if v}
        assert lhs == {"v0": Scalar.rational(-1, 2)}

    def test_conditions_at_u_three_halves(self):
        spec = derived_pair_spec(1, {L(1): 1, T(3): 1}, 0, (4, 3))
        assert check_conditions(spec, 3) == (True, True)

    def test_zero_t32_breaks_injectivity(self):
        spec = derived_pair_spec(1, {L(1): 1, T(3): 0}, 0, (4, 3))
        injective, killed = check_conditions(spec, 3)
        assert killed and not injective

    def test_label_past_the_box_parses_if_normal(self):
        spec = derived_pair_spec(1, {L(1): 1, T(3): 1}, 0, (2, 1))
        label = spec.parse_label("G[1/2]*T[1/2]^5.v1")
        assert label not in spec.labels()
        assert spec.label_text(label) == "G[1/2]*T[1/2]^5.v1"
        # G[1/2] is odd: its square folds into (1/2)[G[1/2], G[1/2]], no letter
        with pytest.raises(ValueError, match=re.escape("G[1/2] is odd")):
            spec.parse_label("G[1/2]^2.v0")
        # T[1/2]*G[1/2] is not G[1/2]*T[1/2]: the two differ by [T[1/2], G[1/2]] = G[1]
        with pytest.raises(ValueError, match=re.escape("G[1/2] is out of the normal order")):
            spec.parse_label("T[1/2]*G[1/2].v0")

    def test_act_past_bounds_is_exact(self):
        spec = derived_pair_spec(1, {L(1): 0, T(3): 1}, 0, (2, 1))
        top = spec.parse_label("T[1/2].v0")
        # T^2 lies past the box of the listed labels (weight 1, length 1)
        assert {spec.label_text(k): s for k, s in spec.act(T(1), top).items()} == {
            "T[1/2]^2.v0": ONE
        }

    def test_seed_axiom_window(self):
        ok, witness = spec_axiom_holds(
            derived_pair_spec(1, {L(1): 1, T(3): 1}, 1, (4, 3)), 5
        )
        assert ok, witness

    def test_no_error_names_the_generalized_seed(self):
        # its check_seed passes for every phi on L[1] and T[3/2], and every
        # positive generator that is not a letter acts on it, so neither
        # error that names its family text can fire (notes/decisions.md)
        values = [ZERO, ONE, -ONE, Scalar.rational(1, 3), I, ONE + SQRT2]
        for a in values:
            for b in values:
                spec = derived_pair_spec(1, {L(1): a, T(3): b}, a, (0, 0))
                seed, letters = spec.inner.seed, spec.inner.letters.letters_desc
                assert seed.family == "highorder[s=1/2]" and letters == [G(1), T(1)]
                for gen in TWISTED.generators(12):
                    if gen.degree2 > 0 and gen not in letters:
                        seed.act(gen, "v1")

    def test_g_half_layers_are_free(self):
        spec = derived_pair_spec(1, {L(1): 1, T(3): 1}, 0, (4, 3))
        v0 = spec.parse_label("v0")
        image = spec.act(G(1), v0)
        assert {spec.label_text(k): str(s) for k, s in image.items()} == {
            "G[1/2].v0": "1"
        }


class TestHighorderSpec:
    def test_builds_and_checks_conditions(self):
        spec = derived_pair_spec(3, {L(2): ONE, T(5): ONE}, 0, (4, 2))
        assert check_conditions(spec, 5) == (True, True)
        # T[7/2] lies in the commutator subalgebra, so it acts by zero on v0
        assert check_conditions(spec, 7) == (False, True)

    def test_trivial_character_rejected(self):
        # the highorder config asks for a non-trivial character; the builder
        # takes a zero one too, as the generalized config does
        with pytest.raises(ValueError, match="non-trivial"):
            load_spec_config("family = highorder\ns = 3/2\nphi.L2 = 0\n")
        assert derived_pair_spec(3, {}, 0, (4, 2)).inner.seed.table == {}

    def test_forced_vanishing_enforced(self):
        # the seed check rejects phi on the commutator subalgebra of T^(3/2),
        # L[3] = -(1/2)[G[3/2], G[3/2]] and T[7/2] = -2[G[3/2], G[2]]
        # included, which the displayed list allowed, and on an odd
        # generator, whose square is then not -(1/2)phi(L[3]) = 0
        for g, witness in ((L(3), "[G[3/2],G[3/2]]"), (T(7), "[G[3/2],G[2]]"),
                           (L(4), "[L[2],G[3/2]]"), (T(9), "[L[2],T[5/2]]"),
                           (G(3), "[G[3/2],G[3/2]]")):
            with pytest.raises(ValueError, match=re.escape(witness)):
                derived_pair_spec(3, {g: ONE}, 0, (4, 2))

    def test_character_outside_t_upper_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            derived_pair_spec(3, {T(1): ONE}, 0, (4, 2))

    def test_s_half_matches_generalized_shape(self):
        ho = load_spec_config("family = highorder\ns = 1/2\nphi.T3/2 = 1\n")
        gw = load_spec_config("family = generalized\nphi.T3/2 = 1\n")
        assert ho.inner.letters.letters_desc == gw.inner.letters.letters_desc
        v0 = ho.parse_label("v0")
        for x in (L(1), T(3), G(2), T(1), G(1)):
            got = {ho.label_text(k): s for k, s in ho.act(x, v0).items()}
            want = {gw.label_text(k): s for k, s in gw.act(x, v0).items()}
            assert got == want, x

    @pytest.mark.parametrize("s2", [1, 3, 5, 7])
    def test_letters_match_reference_ranges(self, s2):
        spec = derived_pair_spec(s2, {L((s2 + 1) // 2): ONE}, 0, (2, 1))
        assert spec.inner.letters.letters_desc == reference_highorder_letters(s2)

    def test_generalized_seed_matches_frak_t_reference(self):
        # T^(1/2) and frak t differ only at the letter G[1/2], which never
        # reaches the seed
        phi = {L(1): Scalar(2), T(3): -ONE}
        seed = derived_pair_spec(1, phi, 0, (4, 3)).inner.seed
        want = ReferencePairSeed(phi, _frak_t, "highorder[s=1/2]")
        for gen in TWISTED.generators(8):
            if gen != G(1):
                for label in ("v0", "v1"):
                    assert _outcome(seed, gen, label) == _outcome(want, gen, label)


# Each induced spec with the least degree a generator acting on it can
# have: the inner seed's own acting subalgebra rejects every generator
# below it, on every label.
INDUCED_SPECS = {
    "generalized": (lambda: derived_pair_spec(1, {L(1): 1, T(3): 1}, 0, (2, 3)), 1),
    "highorder": (lambda: derived_pair_spec(3, {L(2): ONE, T(5): ONE}, 0, (2, 2)), 1),
}


@pytest.mark.parametrize("name", sorted(INDUCED_SPECS))
def test_generators_below_an_induced_spec_do_not_act(name):
    build, min_degree2 = INDUCED_SPECS[name]
    spec = build()
    below = [g for g in TWISTED.generators(8) if g.degree2 < min_degree2 and not g.is_central]
    assert below
    for gen in below:
        for label in spec.labels():
            with pytest.raises(ValueError, match="does not act on the"):
                spec.act(gen, label)


@pytest.mark.parametrize("config, inside, outside", [
    ("generalized.cfg", 162, 6),
    ("highorder-module.cfg", 284, 100),
])
def test_induced_seed_acts_exactly_past_its_box(config, inside, outside):
    # the inner module acts exactly, past the box of the seed's listed
    # labels, and the seed returns that image wherever it lies.  The exact
    # images come from a second copy of the seed, whose memo the seed's acts
    # never fill; the counts say how many stay inside the box and how many
    # leave it
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", config)
    with open(path) as fh:
        text = fh.read()
    spec, ref = load_spec_config(text), load_spec_config(text)
    box = set(spec.labels())
    counts = [0, 0]
    for x in TWISTED.generators(6):
        if x.degree2 <= 0:
            continue
        for label in spec.labels():
            exact = ref.inner.act(x, ref.inner.basis_vector(*label)).terms
            counts[not box.issuperset(exact)] += 1
            assert spec.act(x, label) == exact
    assert counts == [inside, outside]


@pytest.mark.parametrize("config, u2, want", [
    # G[1/2] is a letter of both derived-pair seeds, so it kills no label
    ("generalized.cfg", 1, (True, False)),
    ("generalized.cfg", 3, (True, True)),
    ("generalized.cfg", 5, (False, True)),
    ("highorder-module.cfg", 1, (True, False)),
    ("highorder-module.cfg", 3, (True, False)),
    ("highorder-module.cfg", 5, (True, True)),
])
def test_conditions_on_the_induced_seeds(config, u2, want):
    # the images of T_u and G_u on the listed labels are exact, and may name
    # labels past the box: generalized at u = 1/2 and highorder at u = 1/2
    # and 3/2 have such images
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", config)
    with open(path) as fh:
        spec = load_spec_config(fh.read())
    assert check_conditions(spec, u2) == want


VERMA_KILLERS = (Lu(1), Lu(2), J(1), Gp(1), Gm(1), Gp(3), Gm(3))


def verma_acts(module):
    """Every act that `TestVerma` and `suite_verma_singular` make, in order:
    (generator, vector, image)."""
    vac = module.basis_vector(ZERO_VECTOR)
    out = []

    def act(g, v):
        image = module.act(g, v)
        out.append((g, v, image))
        return image

    act(Lu(1), act(Lu(-1), vac))
    act(J(1), act(J(-1), vac))
    for g in (Gp(-1), Gm(-1)):
        v = act(g, vac)
        for x in VERMA_KILLERS + (Lu(0), J(0)):
            act(x, v)
    return out


class TestVerma:
    def test_depth_three_halves_basis(self):
        # the template's letters of degree at least -3/2 are slots 1..6;
        # slot s has doubled weight ceil(s/2), and an odd letter folds
        letters = verma_untwisted(0).letters
        slots = [(s, (s + 1) // 2, 3 if keeps_square(letters, letters.letter(s)) else 1)
                 for s in range(1, 7)]
        words = walk_vectors(slots, 3, 3)
        texts = {letters.word_text(w) for w in words}
        assert len(words) == len(texts) == 12
        for expected in (
            "1", "G+[-1/2]", "G-[-1/2]", "Lu[-1]", "J[-1]",
            "G+[-1/2]*G-[-1/2]", "G+[-3/2]", "G-[-3/2]",
            "Lu[-1]*G+[-1/2]", "J[-1]*G-[-1/2]",
        ):
            assert expected in texts

    def test_lowest_weight_relations(self):
        module = verma_untwisted(1)
        vac = module.basis_vector(ZERO_VECTOR)
        assert module.act(Lu(1), module.act(Lu(-1), vac)).is_zero
        got = module.act(J(1), module.act(J(-1), vac))
        assert got == vac.scaled(Scalar.rational(1, 3))  # (m/3) delta c at c=1

    @pytest.mark.parametrize("c", [0, 1, -2])
    def test_singular_vectors(self, c):
        module = verma_untwisted(c)
        vac = module.basis_vector(ZERO_VECTOR)
        for g in (Gp(-1), Gm(-1)):
            v = module.act(g, vac)
            assert not v.is_zero
            for x in VERMA_KILLERS:
                assert module.act(x, v).is_zero, (c, g, x)
            assert module.act(Lu(0), v) == v.scaled(Scalar.rational(1, 2))
            expected_j = v if g.kind == "G+" else v.scaled(Scalar(-1))
            assert module.act(J(0), v) == expected_j

    def test_every_negative_generator_is_a_letter(self):
        # Lu[-2] and Lu[-4] lie past the letters of degree -3/2 and above,
        # which are all that the suite's acts reach
        module = verma_untwisted(0)
        vac = module.basis_vector(ZERO_VECTOR)
        assert str(module.act(Lu(-2), vac)) == "Lu[-2]⊗1"
        v = module.act(Lu(-3), vac)
        assert str(module.act(Lu(-1), v)) == "2*Lu[-4]⊗1 + Lu[-3]*Lu[-1]⊗1"

    @pytest.mark.parametrize("c", [0, 1, -2])
    def test_template_matches_a_finite_letter_box(self, c):
        # the letters of degree at least -3/2, leftmost first, registered
        # one by one: the reference for every act the Verma checks make
        box = [Gp(-3), Gm(-3), Lu(-1), J(-1), Gp(-1), Gm(-1)]
        template = verma_untwisted(c)
        reference = InducedModule(FiniteLetters(UNTWISTED_PM, box), template.seed)
        for s, g in enumerate(reversed(box), 1):
            assert template.letters.slot_of(g) == s and template.letters.letter(s) is g
        acts = verma_acts(template)
        assert len(acts) == 24
        for g, v, image in acts:
            want = reference.act(g, reference.vector(v.terms))
            assert image.terms == want.terms and str(image) == str(want), (g, v)


@pytest.mark.parametrize("c", [ZERO, ONE])
def test_keeps_square_matches_each_systems_old_answer(c):
    # the answers each letter system once gave itself: the twisted template
    # kept every power, the untwisted one folded every odd letter, and
    # finite letters, which rewrite nothing, keep an even letter only
    twisted, untwisted = TwistedTemplate(c), UntwistedTemplate()
    for slot in range(1, 41):
        assert keeps_square(twisted, twisted.letter(slot)), slot
        g = untwisted.letter(slot)
        assert keeps_square(untwisted, g) == (g.parity == 0), g
    for s2, phi in ((1, {L(1): ONE, T(3): ONE}), (3, {L(2): ONE}), (5, {L(3): ONE})):
        letters = derived_pair_spec(s2, phi, c, (0, 0)).inner.letters
        for g in letters.letters_desc:
            assert keeps_square(letters, g) == (g.parity == 0), (s2, g)
        assert not keeps_square(letters, G(1))


def test_square_rule_of_the_finite_letters():
    # no finite letter is rewritten: G[1/2].G[1/2] folds to -L[1], which
    # acts on v0 by -phi(L[1]) = -1
    spec = derived_pair_spec(1, {L(1): 1, T(3): 1}, 0, (4, 3))
    assert spec.inner.letters.rewrite(L(0)) is None
    assert not keeps_square(spec.inner.letters, G(1))
    assert spec.act(G(1), spec.parse_label("G[1/2].v0")) == {spec.parse_label("v0"): -ONE}
    with pytest.raises(ValueError, match="no normal word holds its square"):
        spec.parse_label("G[1/2]^2.v0")


class TestLemma31:
    def test_corrupted_table_fails_with_witness(self):
        cfg = """
family = table
labels = v0
c = 0
u = 1/2
act.T1/2.v0 = 1*v0
act.L2.v0 = 1*v0
"""
        with pytest.raises(ValueError, match=re.escape("[G[1/2],G[3/2]] breaks the module axiom")):
            load_spec_config(cfg)  # L2 = -(1/2)[G1/2, G3/2] must vanish
        # two labels do not bypass the seed check: [L2, T1/2] acts by zero
        cfg2 = """
family = table
labels = v0,v1
c = 0
u = 1/2
act.T1/2.v0 = 1*v0
act.L2.v0 = 1*v1
"""
        with pytest.raises(ValueError, match=re.escape("[L[2],T[1/2]]")):
            load_spec_config(cfg2)
        # the same table built without the loader fails with the same witness
        seed = FiniteSeed("table", ("v0", "v1"), {(T(1), "v0"): {"v0": ONE},
                                                  (L(2), "v0"): {"v1": ONE}}, _positive)
        with pytest.raises(ValueError, match=re.escape("[L[2],T[1/2]]")):
            check_seed(seed)


class TestRepresentationProperty:
    def test_outer_module_axiom_over_generalized_seed(self):
        from n2sca.orders import enumerate_vectors

        spec = derived_pair_spec(1, {L(1): 1, T(3): 1}, 0, (4, 3))
        module = spec.induced()
        vectors = [
            module.basis_vector(ev, lbl)
            for ev in enumerate_vectors(2, 2)
            for lbl in (spec.parse_label("v0"), spec.parse_label("v1"))
        ]
        report = module_axiom_check(module, 3, vectors)
        assert report.ok

    def test_highorder_seed_axiom_for_consistent_character(self):
        # L2 and T5/2 sit outside the commutator subalgebra of the deep
        # part, so a character supported there is an actual homomorphism
        ok, witness = spec_axiom_holds(
            derived_pair_spec(3, {L(2): ONE, T(5): ONE}, 1, (6, 2)), 6
        )
        assert ok, witness

    def test_highorder_displayed_character_is_not_a_module(self):
        # T[7/2] = -2*[G[3/2], G[2]] lies in the commutator subalgebra, so
        # assigning it a nonzero value breaks the module axiom: the
        # displayed vanishing list allows it, the seed check does not, and
        # the reference finds the same kind of witness on the bare seed
        with pytest.raises(ValueError, match=re.escape("[G[3/2],G[2]]")):
            derived_pair_spec(3, {T(7): ONE}, 1, (6, 2))
        seed = unchecked_pair_seed(3, {T(7): ONE}, ONE)
        ok, witness = spec_axiom_holds(seed, 8, t_upper(3))
        assert not ok
        x, y, _, _ = witness
        assert {x.kind, y.kind} <= {"T", "G"}


def closed_under_bracket(member, window2):
    """Whether every bracket of two members within the window lies in the
    members' span, generator by generator."""
    gens = [g for g in TWISTED.generators(window2) if member(g)]
    return all(member(z) for x in gens for y in gens
               for z, _ in TWISTED.bracket(x, y).items())


# the standard subalgebras of the twisted algebra, as membership tests
SUBALGEBRAS = {
    "T+": lambda g: g.degree2 > 0,
    "T0": lambda g: g.kind in TWISTED_KINDS and g.degree2 == 0,
    "T-": lambda g: g.degree2 < 0,
    "b": lambda g: g.degree2 > 0,
    "B": lambda g: g.kind in TWISTED_KINDS and g.degree2 >= 0,
    "p": lambda g: g.kind == "C" or g.index2 >= {"L": 2, "T": 1, "G": 2}[g.kind],
    "frakT": lambda g: g.kind == "C" or _frak_t(g),
}


class TestSelectors:
    @pytest.mark.parametrize("name", sorted(SUBALGEBRAS))
    def test_closed_under_bracket(self, name):
        assert closed_under_bracket(SUBALGEBRAS[name], 6)

    @pytest.mark.parametrize("u2", [1, 3, 5])
    def test_t_upper_closed_under_bracket(self, u2):
        assert closed_under_bracket(t_upper(u2), 8)

    def test_t_upper_window(self):
        upper = t_upper(3)
        assert upper(G(3)) and not upper(G(2))
        assert upper(L(2)) and not upper(L(1))
        assert upper(T(5)) and not upper(T(3))
        assert not upper(C) and not upper(Lu(2))


class ReferencePairSeed:
    """The closed-form derived-pair action that the table seed replaced:
    x.v0 = phi(x) v0 and x.v1 = (-1)^{|x|} phi(x) v1 + phi([x, G[1/2]]) v0,
    with phi zero on odd generators."""

    def __init__(self, phi, member, name):
        self.phi = {g: s for g, s in phi.items() if s}
        self.member = member
        self.name = name

    def _phi_of(self, g):
        return ZERO if g.parity else self.phi.get(g, ZERO)

    def act(self, gen, label):
        if not self.member(gen):
            raise ValueError(f"{gen} does not act on the {self.name} seed")
        if label == "v0":
            s = self._phi_of(gen)
            return {"v0": s} if s else {}
        out = {}
        s = self._phi_of(gen)
        if s:
            out["v1"] = -s if gen.parity else s
        cross = ZERO
        for z, coef in TWISTED.bracket(gen, G(1)).items():
            cross = cross + coef * self._phi_of(z)
        if cross:
            out["v0"] = out.get("v0", ZERO) + cross
        return {l: v for l, v in out.items() if v}


def _outcome(seed, gen, label):
    try:
        return list(seed.act(gen, label).items())
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestDerivedPairSeed:
    EVEN_POSITIVE = [L(m) for m in range(1, 9)] + [T(r2) for r2 in range(1, 17, 2)]

    def test_table_matches_closed_form(self):
        rng = random.Random(20261018)
        values = [ONE, -ONE, Scalar.rational(1, 2), I, SQRT2, ONE + I * SQRT2, ZERO]
        gens = TWISTED.generators(16)
        cases = 0
        for _ in range(300):
            s2 = rng.choice((1, 3, 5, 7))
            upper = t_upper(s2)
            keys = rng.sample([g for g in self.EVEN_POSITIVE if upper(g)], rng.randint(1, 4))
            phi = {g: rng.choice(values) * Scalar.rational(rng.randint(1, 5))
                   for g in keys}
            name = f"highorder[s={format_half(s2)}]"
            want = ReferencePairSeed(phi, upper, name)
            got = unchecked_pair_seed(s2, phi)
            for gen in gens:
                for label in ("v0", "v1"):
                    assert _outcome(got, gen, label) == _outcome(want, gen, label), (
                        phi, name, gen, label)
                    cases += 1
        assert cases == 300 * len(gens) * 2

    def test_table_lists_only_generators_that_can_act(self):
        seed = derived_pair_spec(1, {L(1): ONE, T(3): ONE}, ZERO, (0, 0)).inner.seed
        listed = {gen for gen, _ in seed.table}
        assert listed == {gen for gen in TWISTED.generators(4)
                          if gen.degree2 in (1, 2, 3)}
        assert seed.labels() == ("v0", "v1")
        assert (seed.parity("v0"), seed.parity("v1")) == (0, 1)


def parity_rule_holds(seed):
    """Every table entry x: l -> l' has parity(l') = parity(l) + |x| mod 2,
    an undeclared parity counting as even."""
    return all((seed.parity(t) or 0) == ((seed.parity(lbl) or 0) + x.parity) % 2
               for (x, lbl), out in seed.table.items() for t in out)


def check_seed_accepts(seed, letters=()):
    try:
        check_seed(seed, letters)
    except ValueError:
        return False
    return True


def reference_accepts(seed, letters=()):
    """The windowed brute force: module axiom over every positive pair up
    to degree 7 that the seed admits, letters excluded, plus the parity rule."""
    ok, _ = spec_axiom_holds(seed, 14, lambda g: seed.acts(g) and g not in letters)
    return ok and parity_rule_holds(seed)


class TestCheckSeed:
    VALUES = [ONE, -ONE, Scalar(2), Scalar.rational(1, 2), I]
    TABLE_GENS = [T(1), G(1), L(1), G(2), T(3), L(2)]

    def random_character_seed(self, rng):
        s2 = rng.choice([1, 3, 5])
        upper = t_upper(s2)
        keys = [g for g in TWISTED.generators(2 * s2 + 4) if upper(g) and not g.parity]
        phi = {g: rng.choice(self.VALUES) for g in rng.sample(keys, rng.randint(1, 2))}
        return unchecked_pair_seed(s2, phi, rng.choice([ZERO, ONE])), (G(1),)

    def random_table_seed(self, rng):
        labels = ("v0", "v1")[:rng.randint(1, 2)]
        parities = {lbl: rng.randint(0, 1) for lbl in labels if rng.random() < 0.6}
        table = {}
        for _ in range(rng.randint(1, 3)):
            out = {lbl: rng.choice(self.VALUES) for lbl in labels if rng.random() < 0.6}
            table[(rng.choice(self.TABLE_GENS), rng.choice(labels))] = out
        return FiniteSeed("table", labels, table, _positive, ZERO, parities), ()

    # seeds that a weakened check_seed gets wrong, with their verdicts: an
    # odd action that satisfies the axiom (no parity rule); a violation
    # only in the row of the top listed degree (a window cut short); the
    # table.cfg table; G[1/2], a letter of the generalized seed, that would
    # break the axiom there (no letter exclusion); a character that needs
    # both terms of the left-hand side
    HAND_SEEDS = [
        (FiniteSeed("odd", ("v0",), {(G(1), "v0"): {"v0": ONE},
                                     (L(1), "v0"): {"v0": -ONE}}, _positive), (), False),
        (FiniteSeed("top", ("v0", "v1"), {(G(1), "v0"): {"v1": ONE},
                                          (G(1), "v1"): {"v0": ONE}},
                    _positive, ZERO, {"v0": 0, "v1": 1}), (), False),
        (FiniteSeed("table.cfg", ("v0", "v1"), {(T(1), "v0"): {"v0": ONE},
                                                (T(1), "v1"): {"v1": Scalar(2)},
                                                (L(2), "v0"): {"v1": ONE}},
                    _positive, ONE, {"v0": 0, "v1": 1}), (), False),
        (derived_pair_spec(1, {L(1): ONE, T(3): ONE}, ZERO, (0, 0)).inner.seed, (G(1),), True),
        (whittaker_spec(1, 0), (), True),
    ]

    def test_matches_windowed_reference(self):
        rng = random.Random(20261018)
        for seed, letters, want in self.HAND_SEEDS:
            assert check_seed_accepts(seed, letters) == want, seed.family
            assert reference_accepts(seed, letters) == want, seed.family
        cases = [self.random_character_seed(rng) for _ in range(60)]
        cases += [self.random_table_seed(rng) for _ in range(90)]
        verdicts = []
        for seed, letters in cases:
            got = check_seed_accepts(seed, letters)
            assert got == reference_accepts(seed, letters), (seed.family, seed.table)
            verdicts.append(got)
        assert 10 <= sum(verdicts) <= len(verdicts) - 10


class TestConfig:
    def test_whittaker_roundtrip(self):
        spec = load_spec_config("family = whittaker\nlambda = 2\nc = 1/2\n")
        assert spec.family == "whittaker"
        assert spec.c == Scalar.rational(1, 2)
        assert spec.act(T(1), "v0") == {"v0": Scalar(2)}

    def test_generalized_config(self):
        spec = load_spec_config(
            "family = generalized\nphi.L1 = 1\nphi.T3/2 = 1\nc = 0\n"
            "max_weight = 2\nmax_length = 3\n"
        )
        assert spec.inner.seed.family == "highorder[s=1/2]"
        assert len(spec.labels()) == 14

    def test_highorder_config(self):
        spec = load_spec_config(
            "family = highorder\ns = 3/2\nphi.L2 = 1\nphi.T5/2 = 1\nc = 0\n"
            "max_weight = 2\nmax_length = 2\n"
        )
        assert spec.inner.seed.family == "highorder[s=3/2]"
        with pytest.raises(ValueError, match=re.escape("[G[3/2],G[2]]")):
            load_spec_config("family = highorder\ns = 3/2\nphi.T7/2 = 1\n")

    def test_b_t0_config(self):
        # the retired family: by transitivity of induction, the module its
        # name promised is the one that its inner seed's own config induces
        # (notes/decisions.md, "b_t0 retired")
        with pytest.raises(ValueError, match="unknown family 'b_t0'"):
            load_spec_config(
                "family = b_t0\ninner.family = whittaker\ninner.lambda = 1\nmax_g0 = 2\n"
            )

    def test_bad_configs(self):
        with pytest.raises(ValueError, match="unknown family 'unknown'"):
            load_spec_config("family = unknown\n")
        with pytest.raises(ValueError, match="config is missing the family key"):
            load_spec_config("lambda = 1\n")
        with pytest.raises(ValueError, match="bad config line 'bad line'"):
            load_spec_config("family = whittaker\nbad line\n")
        # an empty term is no term: the trailing minus is not dropped
        with pytest.raises(ValueError, match="empty term"):
            load_spec_config("family = table\nlabels = v0\nact.T1/2.v0 = 2*v0 -\n")


SIZE_KEYS = ("max_weight", "max_length", "s")
FAMILY_KEYS = {
    "whittaker": ("lambda", "c"),
    "generalized": ("phi.L1", "phi.T3/2", "c", "max_weight", "max_length"),
    "highorder": ("s", "phi.T5/2", "phi.T7/2", "phi.L2", "phi.G1", "phi.T1",
                  "phi.", "phi.X1", "c", "max_weight", "max_length"),
    "table": ("labels", "parity.v0", "parity.v1", "act.T1/2.v0", "act.T1/2.v1",
              "act.L2.v0", "act.G1/2.v1", "act.T-1/2.v0", "act..v0",
              "act.T1/2", "c", "u"),
}
# sizes stay small so that every loadable config is cheap to build
SIZE_VALUES = st.sampled_from(["0", "1", "2", "3", "-1", "1/2", "3/2", "5/2",
                               "x", "", "1/0", "1/3"])
VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "i", "r2", "x", "", "v0",
                     "v0,v1", "1*v0", "1*v1 + 2*v0", "1*v7", "-1*v1",
                     "whittaker", "table", "verma"]),
    st.text(alphabet="0123456789/-+*()iv2r,. ", max_size=6),
)


@st.composite
def config_texts(draw):
    family = draw(st.sampled_from(sorted(FAMILY_KEYS)))
    lines = [f"family = {family}"]
    for key in draw(st.lists(st.sampled_from(FAMILY_KEYS[family]), max_size=6)):
        value = draw(SIZE_VALUES if key in SIZE_KEYS else VALUES)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(config_texts())
def test_config_loader_loads_or_raises_input_errors(text):
    try:
        load_spec_config(text)
    except ValueError:
        pass


def table_seed(value: str):
    return load_spec_config(f"family = table\nlabels = v0, v1\nact.T1/2.v0 = {value}\n")


# one printer and one parser serve combinations, module vectors (over a
# plain and an induced seed, whose labels are words) and table actions
TERM_PARSERS = {
    "combo": parse_combo,
    "vector": whittaker_spec(1, 0).induced().parse_vector,
    "word-label vector":
        derived_pair_spec(1, {L(1): ONE, T(3): ONE}, 0, (2, 3)).induced().parse_vector,
    "table action": table_seed,
}
# terms built from well-formed and malformed coefficients and bodies, plus
# free text over the grammar's characters
COEFFICIENTS = st.sampled_from(["", "2*", "1/2*", "-", "(1 + i)*", "(1 +", "1/0*",
                                "x*", "i*", "*", "2"])
BODIES = st.sampled_from([
    "L[1]", "G+[1/2]", "C", "L[x]", "T[1]", "v0", "v1", "v9", "0", "",
    "w{}⊗v0", "w{1:2}⊗v1", "w{0:1}⊗v0", "w{1:2⊗v0", "w{}v0", "⊗v0",
    "w{}⊗G[1/2]^2.v0", "w{}⊗G[1/2]^x.v0", "w{}⊗G[1/2]^-1.v0", "w{}⊗G[1/2]^.v0",
    "w{}⊗T[1/2]*G[1/2].v1", "w{}⊗L[1].v0", "w{}⊗G[1/2].v9", "w{}⊗.v0",
])
SEPARATORS = st.sampled_from([" + ", " - ", "+", "-", " ", ""])
TERM_TEXTS = st.one_of(
    st.lists(st.tuples(SEPARATORS, COEFFICIENTS, BODIES), min_size=1, max_size=4).map(
        lambda terms: "".join(sep + coef + body for sep, coef, body in terms)
    ),
    st.text(alphabet="0123456789/-+*()ir2wv{}:,⊗[]LTGC.^ ", max_size=12),
)


@pytest.mark.parametrize("parser", sorted(TERM_PARSERS))
@settings(max_examples=200, deadline=None)
@given(text=TERM_TEXTS)
def test_term_parsers_parse_or_raise_parse_error(parser, text):
    try:
        TERM_PARSERS[parser](text)
    except ValueError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["v0", "v1"]),
    st.builds(Scalar, *[st.fractions(-4, 4, max_denominator=4)] * 4).filter(bool),
    max_size=2,
))
def test_table_action_roundtrip(action):
    seed = table_seed(format_terms(list(action.items())))
    assert seed.table[(T(1), "v0")] == action
