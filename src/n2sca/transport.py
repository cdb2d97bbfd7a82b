"""Maps between presentations and the suites that check them: the
automorphism psi of the untwisted algebra, the exact basis substitutions,
the window check that a map commutes with brackets, and the suites behind
`verify psi` and `verify substitution`, the only commands that run them.
"""

from __future__ import annotations

import random

from .algebra import AlgebraPresentation, GeneratorId, LinearCombo, SuiteReport, TWISTED
from .scalars import I, INV_SQRT2, ONE
from .suites import (
    G1, G2, Gm, Gp, TWISTED_PM, UNTWISTED_12, UNTWISTED_PM, CheckReport, random_scalar,
)

_PSI_FLIP = {"G+": "G-", "G-": "G+"}


def psi(combo: LinearCombo) -> LinearCombo:
    """The order-2 automorphism Lu -> Lu, J -> -J, G+ <-> G-, Cu -> Cu."""

    def image(g: GeneratorId) -> LinearCombo:
        if g.kind in ("Lu", "Cu"):
            return LinearCombo.single(g)
        if g.kind == "J":
            return LinearCombo.single(g, -ONE)
        if g.kind in _PSI_FLIP:
            return LinearCombo.single(GeneratorId(_PSI_FLIP[g.kind], g.index2))
        raise ValueError(f"psi is defined on the untwisted +/- basis, not on {g}")

    return combo.map_generators(image)


_MINUS_I_INV_SQRT2 = -I * INV_SQRT2
_I_INV_SQRT2 = I * INV_SQRT2


def substitute_basis(combo: LinearCombo, direction: str) -> LinearCombo:
    """Exact change of basis.

    ``pm_to_12``   G+- of the untwisted algebra -> G1/G2 coordinates.
    ``12_to_pm``   the inverse substitution.
    ``twisted_pm`` reinterpret a twisted combo written in the rescaled
                   +/- convention in the defining basis (half-odd
                   fermions pick up a factor of i).
    """

    def pm_to_12(g: GeneratorId) -> LinearCombo:
        if g.kind == "G+":
            return LinearCombo.of(
                (G1(g.index2), INV_SQRT2), (G2(g.index2), _MINUS_I_INV_SQRT2)
            )
        if g.kind == "G-":
            return LinearCombo.of(
                (G1(g.index2), INV_SQRT2), (G2(g.index2), _I_INV_SQRT2)
            )
        if g.kind in ("G1", "G2"):
            raise ValueError(f"{g} is already in the (1,2) basis")
        if g.kind in ("Lu", "J", "Cu"):
            return LinearCombo.single(g)
        raise ValueError(f"{g} is not an untwisted generator")

    def to_pm(g: GeneratorId) -> LinearCombo:
        if g.kind == "G1":
            return LinearCombo.of(
                (Gp(g.index2), INV_SQRT2), (Gm(g.index2), INV_SQRT2)
            )
        if g.kind == "G2":
            return LinearCombo.of(
                (Gp(g.index2), _I_INV_SQRT2), (Gm(g.index2), -_I_INV_SQRT2)
            )
        if g.kind in ("G+", "G-"):
            raise ValueError(f"{g} is already in the +/- basis")
        if g.kind in ("Lu", "J", "Cu"):
            return LinearCombo.single(g)
        raise ValueError(f"{g} is not an untwisted generator")

    def twisted_pm(g: GeneratorId) -> LinearCombo:
        if g.kind == "G":
            return LinearCombo.single(g, ONE if g.index2 % 2 == 0 else I)
        if g.kind in ("L", "T", "C"):
            return LinearCombo.single(g)
        raise ValueError(f"{g} is not a twisted generator")

    table = {"pm_to_12": pm_to_12, "12_to_pm": to_pm, "twisted_pm": twisted_pm}
    if direction not in table:
        raise ValueError(f"unknown substitution direction {direction!r}")
    return combo.map_generators(table[direction])


def verify_automorphism(map_fn, presentation: AlgebraPresentation, window2: int,
                        target: AlgebraPresentation | None = None) -> CheckReport:
    """Check map([x,y]) == [map(x), map(y)] for all pairs in the window;
    the right-hand bracket is taken in ``target`` (default: the source)."""
    target = target or presentation
    report = CheckReport(f"automorphism[{presentation.name}]", window2)
    gens = presentation.generators(window2)
    for x in gens:
        mx = map_fn(LinearCombo.single(x))
        for y in gens:
            report.checked += 1
            lhs = map_fn(presentation.bracket(x, y))
            rhs = target.bracket_combo(mx, map_fn(LinearCombo.single(y)))
            if lhs != rhs:
                report.violations.append((x, y))
                if len(report.violations) >= 16:
                    return report
    return report


def suite_substitution(window2: int = 8, seed: int = 0) -> SuiteReport:
    """Basis transport: +/- <-> (1,2) commutes with brackets, the two
    substitutions invert each other, and the twisted +/- convention
    agrees with the defining basis under G- = i G."""
    report = SuiteReport("substitution")

    def transport(name, source, target, direction):
        r = verify_automorphism(lambda x: substitute_basis(x, direction), source,
                                window2, target)
        report.add(f"transport[{name}]", f"window2={window2}", "0 mismatches",
                   str(len(r.violations)), r.ok)

    transport("pm->12", UNTWISTED_PM, UNTWISTED_12, "pm_to_12")

    rng = random.Random(seed)
    bad = 0
    for _ in range(100):
        terms = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["Lu", "J", "G+", "G-", "Cu"])
            if kind == "Cu":
                i2 = 0
            elif kind in ("Lu", "J"):
                i2 = 2 * rng.randint(-4, 4)
            else:
                i2 = 2 * rng.randint(-4, 3) + 1
            terms.append((GeneratorId(kind, i2), random_scalar(rng)))
        combo = LinearCombo.of(*terms)
        back = substitute_basis(substitute_basis(combo, "pm_to_12"), "12_to_pm")
        if back != combo:
            bad += 1
    report.add("inverse-pair", "100 random combos", "identity", str(bad), bad == 0)

    transport("twisted-pm", TWISTED_PM, TWISTED, "twisted_pm")
    return report


def suite_psi(window2: int = 10) -> SuiteReport:
    report = SuiteReport("psi")
    r = verify_automorphism(psi, UNTWISTED_PM, window2)
    report.add("bracket-preservation", f"window2={window2}", "0 violations",
               str(len(r.violations)), r.ok)
    bad = 0
    for g in UNTWISTED_PM.generators(window2):
        if psi(psi(LinearCombo.single(g))) != LinearCombo.single(g):
            bad += 1
    report.add("involution", f"window2={window2}", "psi^2 = id", str(bad), bad == 0)
    return report
