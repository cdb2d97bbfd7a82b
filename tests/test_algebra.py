import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from n2sca.algebra import (
    AlgebraPresentation,
    C,
    G,
    GeneratorId,
    L,
    LinearCombo,
    PRESENTATIONS,
    T,
    TWISTED,
    gen,
    parse_combo,
    parse_generator,
)
from n2sca.scalars import I, ONE, Scalar, add_scaled, parse_scalar
from n2sca.suites import (
    G1, G2, Gm, Gp, J, TWISTED_PM, UNTWISTED_12, UNTWISTED_PM, CheckReport, jacobi_check,
)
from n2sca.transport import psi, substitute_basis, verify_automorphism

HERE = os.path.dirname(__file__)


def combo(text):
    return parse_combo(text)


class TestBracketExamples:
    def test_virasoro_central(self):
        assert TWISTED.bracket(L(2), L(-2)) == combo("4*L[0] + 1/2*C")

    def test_fermion_halves(self):
        assert TWISTED.bracket(G(1), G(-1)) == combo("-2*L[0]")

    def test_fermion_zero_mode(self):
        assert TWISTED.bracket(G(0), G(0)) == combo("2*L[0] - 1/12*C")

    def test_fermion_mixed_branch(self):
        assert TWISTED.bracket(G(2), G(-1)) == combo("-3/2*T[1/2]")

    def test_heisenberg_central(self):
        assert TWISTED.bracket(T(3), T(-3)) == combo("1/2*C")

    def test_central_arguments_vanish(self):
        assert TWISTED.bracket(C, L(4)).is_zero
        assert TWISTED.bracket(G(1), C).is_zero


def test_golden_table():
    path = os.path.join(HERE, "golden_brackets.tsv")
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    assert len(rows) == 40
    for name, xs, ys, expected in rows:
        pres = PRESENTATIONS[name]
        got = pres.bracket(gen(xs), gen(ys))
        assert str(got) == expected, (xs, ys)


def test_golden_hand_checks():
    # five entries recomputed independently from the structure constants
    assert str(TWISTED.bracket(L(3), L(-3))) == "6*L[0] + 2*C"  # (27-3)/12 = 2
    assert str(TWISTED.bracket(G(5), G(-5))) == "-2*L[0] - 2*C"  # sign (-1)^5
    assert str(TWISTED.bracket(G(4), G(-1))) == "-5/2*T[3/2]"  # -(2+1/2)
    assert str(UNTWISTED_PM.bracket(Gm(1), Gp(-1))) == "2*Lu[0] - J[0]"
    assert str(UNTWISTED_12.bracket(G2(5), G2(-5))) == "2*Lu[0] + 2*Cu"


class TestBracketCombo:
    def test_bilinearity(self):
        x = combo("2*L[1]")
        y = combo("3*T[-1/2]")
        assert TWISTED.bracket_combo(x, y) == combo("3*T[1/2]")

    def test_zero_argument(self):
        assert TWISTED.bracket_combo(LinearCombo(), combo("L[5]")).is_zero

    def test_odd_square_expansion(self):
        x = combo("G[1/2] + G[0]")
        expected = combo("-2*L[1] + 2*L[0] - 1/12*C + T[1/2]")
        assert TWISTED.bracket_combo(x, x) == expected


class TestStructuralInvariants:
    @pytest.mark.parametrize("pres", [TWISTED, TWISTED_PM, UNTWISTED_PM, UNTWISTED_12])
    def test_super_antisymmetry(self, pres):
        gens = pres.generators(12)
        for x in gens:
            for y in gens:
                lhs = pres.bracket(x, y)
                rhs = pres.bracket(y, x)
                if x.parity and y.parity:
                    assert lhs == rhs
                else:
                    assert lhs == -rhs

    @pytest.mark.parametrize("pres", [TWISTED, TWISTED_PM, UNTWISTED_PM, UNTWISTED_12])
    def test_degree_additivity(self, pres):
        gens = pres.generators(12)
        for x in gens:
            for y in gens:
                for z, _ in pres.bracket(x, y).items():
                    if z.is_central:
                        assert x.degree2 + y.degree2 == 0
                    else:
                        assert z.degree2 == x.degree2 + y.degree2

    @pytest.mark.parametrize("pres", [TWISTED, TWISTED_PM, UNTWISTED_PM, UNTWISTED_12])
    def test_jacobi_window6(self, pres):
        assert jacobi_check(pres, 6).ok


class _CorruptedVirasoro(AlgebraPresentation):
    """Central term of [L_m, L_{-m}] dropped at m = +-2 only."""

    def _pair(self, x, y):
        out = TWISTED._pair(x, y)
        if (
            out is not None
            and x.kind == "L"
            and y.kind == "L"
            and x.index2 + y.index2 == 0
            and abs(x.index2) == 4
        ):
            return LinearCombo({g: s for g, s in out.items() if g.kind != "C"})
        return out


def test_corrupted_presentation_fails_jacobi():
    bad = _CorruptedVirasoro("corrupted", ("L", "T", "G", "C"))
    report = jacobi_check(bad, 6)
    assert not report.ok
    # a violating triple must mix the dropped m=2 cocycle with intact ones
    kinds = {tuple(g.kind for g in v) for v in report.violations}
    assert ("L", "L", "L") in kinds


def reference_jacobi_check(presentation, window2, max_violations=16):
    """The all-triples loop that the orbit walk of jacobi_check replaced:
    every ordered triple sums its own three terms."""
    report = CheckReport(f"jacobi[{presentation.name}]", window2)
    gens = presentation.generators(window2)
    for x in gens:
        for y in gens:
            for z in gens:
                report.checked += 1
                if x.is_central or y.is_central or z.is_central:
                    continue
                acc = {}
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    sign = -ONE if a.parity and c.parity else ONE
                    for g1, s1 in presentation.bracket(b, c).items():
                        add_scaled(acc, presentation.bracket(a, g1).terms, sign * s1)
                if acc:
                    report.violations.append((x, y, z))
                    if len(report.violations) >= max_violations:
                        return report
    return report


def _same_jacobi_report(pres, window2, max_violations):
    got = jacobi_check(pres, window2, max_violations)
    want = reference_jacobi_check(pres, window2, max_violations)
    assert (got.ok, got.checked, got.violations, str(got)) == (
        want.ok, want.checked, want.violations, str(want))
    return got


@pytest.mark.parametrize("pres", [TWISTED, TWISTED_PM, UNTWISTED_PM, UNTWISTED_12])
def test_jacobi_matches_reference_loop(pres):
    assert _same_jacobi_report(pres, 4, 16).ok


@pytest.mark.parametrize("window2", [4, 6])
@pytest.mark.parametrize("max_violations", [1, 16, 10**6])
def test_corrupted_jacobi_matches_reference_loop(window2, max_violations):
    bad = _CorruptedVirasoro("corrupted", ("L", "T", "G", "C"))
    assert not _same_jacobi_report(bad, window2, max_violations).ok



class _SwappedSignVirasoro(AlgebraPresentation):
    """[L_2, L_1] given the sign of [L_1, L_2]: even-even antisymmetry broken
    on one pair."""

    def _pair(self, x, y):
        if (x, y) == (L(2), L(1)):
            return TWISTED._pair(y, x)
        return TWISTED._pair(x, y)


class _ScaledFermionPair(AlgebraPresentation):
    """[G_{1/2}, G_{-1/2}] scaled by 3 and [G_{-1/2}, G_{1/2}] kept: odd-odd
    antisymmetry broken on one pair."""

    def _pair(self, x, y):
        out = TWISTED._pair(x, y)
        if (x, y) == (G(1), G(-1)):
            return out.scaled(Scalar(3))
        return out


@pytest.mark.parametrize("table, x, y", [
    (_SwappedSignVirasoro, L(1), L(2)), (_ScaledFermionPair, G(1), G(-1))])
@pytest.mark.parametrize("window2", [4, 6])
@pytest.mark.parametrize("max_violations", [1, 16, 10**6])
def test_non_antisymmetric_jacobi_matches_reference_loop(table, x, y, window2,
                                                         max_violations):
    # one Jacobiator decides an S3 orbit only where the inner pairs are graded
    # antisymmetric; around the broken pair both rotation orbits are evaluated
    bad = table("broken", ("L", "T", "G", "C"))
    sign = -ONE if x.parity and y.parity else ONE
    assert bad.bracket(y, x) != bad.bracket(x, y).scaled(-sign)
    assert not _same_jacobi_report(bad, window2, max_violations).ok


def test_equal_generators_are_one_object():
    # identity hashing and equality hold only while every constructor returns
    # the interned object
    for pres in PRESENTATIONS.values():
        for g in pres.generators(6):
            assert GeneratorId(g.kind, g.index2) is g
            assert parse_generator(str(g)) is g
            assert gen(f" {g} ") is g
    assert L(2) is GeneratorId("L", 4) is parse_generator("L[2]")
    assert T(-3) is GeneratorId("T", -3) is parse_generator("T[-3/2]")
    assert G(0) is GeneratorId("G", 0) is parse_generator("G[0]")
    assert C is GeneratorId("C", 0) is parse_generator("C")
    assert {L(1): 1}.get(parse_generator("L[1]")) == 1
    assert L(1) != L(-1) and L(1) != GeneratorId("Lu", 2)

class TestPsi:
    def test_j_flips_sign(self):
        assert psi(combo("J[3]")) == combo("-J[3]")

    def test_involution(self):
        x = combo("G+[1/2]")
        assert psi(psi(x)) == x

    def test_linearity_with_i(self):
        x = combo("Lu[2] + i*G-[3/2]")
        assert psi(x) == combo("Lu[2] + i*G+[3/2]")

    def test_rejects_twisted(self):
        with pytest.raises(ValueError):
            psi(combo("L[1]"))

    def test_preserves_brackets_window10(self):
        assert verify_automorphism(psi, UNTWISTED_PM, 10).ok

    def test_identity_map_passes(self):
        assert verify_automorphism(lambda x: x, UNTWISTED_PM, 6).ok

    def test_wrong_variant_fails_on_j_g(self):
        flip = {"G+": "G-", "G-": "G+"}

        def wrong(x):
            return x.map_generators(
                lambda g: LinearCombo.single(
                    GeneratorId(flip.get(g.kind, g.kind), g.index2)
                )
            )

        report = verify_automorphism(wrong, UNTWISTED_PM, 4)
        assert not report.ok
        # the specific counterexample: [J0, G+[1/2]] = G+[1/2] maps to G-[1/2]
        # but [wrong(J0), wrong(G+[1/2])] = [J0, G-[1/2]] = -G-[1/2]
        lhs = wrong(UNTWISTED_PM.bracket(J(0), Gp(1)))
        rhs = UNTWISTED_PM.bracket_combo(
            wrong(LinearCombo.single(J(0))), wrong(LinearCombo.single(Gp(1)))
        )
        assert lhs == combo("G-[1/2]") and rhs == combo("-G-[1/2]")


class TestSubstitution:
    def test_basis_change_formula(self):
        got = substitute_basis(combo("G1[1/2]"), "12_to_pm")
        assert got == combo("1/2*r2*G+[1/2] + 1/2*r2*G-[1/2]")

    def test_inverse_pair_random(self):
        rng = random.Random(1)
        kinds = ["Lu", "J", "G+", "G-", "Cu"]
        for _ in range(100):
            terms = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(kinds)
                i2 = 0
                if kind in ("Lu", "J"):
                    i2 = 2 * rng.randint(-4, 4)
                elif kind != "Cu":
                    i2 = 2 * rng.randint(-4, 3) + 1
                terms.append(
                    (GeneratorId(kind, i2), Scalar(rng.randint(-3, 3), rng.randint(0, 2)))
                )
            x = LinearCombo.of(*terms)
            assert substitute_basis(substitute_basis(x, "pm_to_12"), "12_to_pm") == x

    def test_pullback_matches_mixed_bracket(self):
        x = substitute_basis(combo("G1[1/2]"), "12_to_pm")
        y = substitute_basis(combo("G2[-1/2]"), "12_to_pm")
        via_pm = substitute_basis(UNTWISTED_PM.bracket_combo(x, y), "pm_to_12")
        direct = UNTWISTED_12.bracket(G1(1), G2(-1))
        assert via_pm == direct == combo("-i*J[0]")

    def test_transport_window4_both_untwisted(self):
        for x in UNTWISTED_PM.generators(4):
            sx = substitute_basis(LinearCombo.single(x), "pm_to_12")
            for y in UNTWISTED_PM.generators(4):
                sy = substitute_basis(LinearCombo.single(y), "pm_to_12")
                lhs = substitute_basis(UNTWISTED_PM.bracket(x, y), "pm_to_12")
                assert lhs == UNTWISTED_12.bracket_combo(sx, sy)

    def test_twisted_pm_agreement_window4(self):
        for x in TWISTED.generators(4):
            sx = substitute_basis(LinearCombo.single(x), "twisted_pm")
            for y in TWISTED.generators(4):
                sy = substitute_basis(LinearCombo.single(y), "twisted_pm")
                lhs = substitute_basis(TWISTED_PM.bracket(x, y), "twisted_pm")
                assert lhs == TWISTED.bracket_combo(sx, sy)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            substitute_basis(combo("G+[1/2]"), "12_to_pm")
        with pytest.raises(ValueError):
            substitute_basis(combo("L[1]"), "pm_to_12")


class TestTextForms:
    def test_generator_validation(self):
        with pytest.raises(ValueError):
            GeneratorId("L", 3)
        with pytest.raises(ValueError):
            GeneratorId("T", 2)
        with pytest.raises(ValueError):
            GeneratorId("C", 2)

    def test_parity_and_degree(self):
        assert G(0).parity == 1 and T(1).parity == 0
        assert L(2).degree2 == 4 and G(-3).degree2 == -3

    @pytest.mark.parametrize(
        "text",
        ["-3/2*T[1/2]", "2*L[0] - 1/12*C", "G+[1/2]", "(1/2 + i)*G[-1/2] + L[3]",
         "1/2*r2*G1[1/2] - i*G2[-3/2]", "0"],
    )
    def test_combo_roundtrip(self, text):
        assert str(parse_combo(str(parse_combo(text)))) == str(parse_combo(text))

    @settings(max_examples=40)
    @given(st.sampled_from((TWISTED, UNTWISTED_PM, UNTWISTED_12)).flatmap(
        lambda pres: st.dictionaries(
            st.sampled_from(pres.generators(4)),
            st.builds(Scalar, *[st.fractions(-4, 4, max_denominator=4)] * 4),
            max_size=4,
        )
    ))
    def test_random_combo_roundtrip(self, terms):
        c = LinearCombo(terms)
        assert parse_combo(str(c)) == c

    def test_ordering_is_kind_then_index(self):
        x = combo("C + G[-1] + L[2] + T[1/2] + L[-1]")
        assert str(x) == "L[-1] + L[2] + T[1/2] + G[-1] + C"
