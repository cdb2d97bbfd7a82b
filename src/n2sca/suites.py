"""Named verification suites behind `verify <name>`, all but `module-axiom`,
whose suite lives in `modules.py` beside the check it runs, and `psi` and
`substitution`, whose suites live in `transport.py` beside the maps they
check; and the presentations besides the twisted one, with
`PRESENTATIONS`, all four by name.

Every suite returns a SuiteReport whose TSV rendering is byte-stable for
a fixed seed and flags, so reports can be diffed across runs.
"""

from __future__ import annotations

import random

from .algebra import (
    AlgebraPresentation, C, G, GeneratorId, L, LinearCombo, SuiteReport, T, TWISTED,
    ZERO_COMBO, _Twisted, _virasoro, format_half,
)
from .scalars import I, ONE, Scalar, ZERO

# Each suite imports the engine, module, order and theorem names it uses,
# so `verify <suite>` loads only the layers that suite runs.  The three
# presentations below are run by the suites and by a non-default
# `--algebra` alone, so the other commands never compile them.


def Lu(m: int) -> GeneratorId:
    return GeneratorId("Lu", 2 * m)


def J(n: int) -> GeneratorId:
    return GeneratorId("J", 2 * n)


def Gp(p2: int) -> GeneratorId:
    return GeneratorId("G+", p2)


def Gm(p2: int) -> GeneratorId:
    return GeneratorId("G-", p2)


def G1(p2: int) -> GeneratorId:
    return GeneratorId("G1", p2)


def G2(p2: int) -> GeneratorId:
    return GeneratorId("G2", p2)


Cu = GeneratorId("Cu", 0)


class _TwistedPM(_Twisted):
    """The same twisted algebra in the rescaled convention where the
    integer-indexed fermions are `G+` and the half-odd ones are `i*G`;
    only the fermion rules differ from the defining basis."""

    def _pair(self, x, y):
        kx, ky = x.kind, y.kind
        if kx == "T" and ky == "G":
            coef = -I if y.index2 % 2 == 0 else I
            return LinearCombo.single(G(x.index2 + y.index2), coef)
        if kx == "G" and ky == "G":
            p2, q2 = x.index2, y.index2
            if (p2 + q2) % 2 == 0:
                out = LinearCombo.single(L((p2 + q2) // 2), Scalar.rational(2))
                if p2 + q2 == 0:
                    out = out + LinearCombo.single(C, Scalar.rational(p2 * p2 - 1, 12))
                return out
            plus2, minus2 = (p2, q2) if p2 % 2 == 0 else (q2, p2)
            return LinearCombo.single(
                T(p2 + q2), -I * Scalar.rational(plus2 - minus2, 2)
            )
        return super()._pair(x, y)


class _UntwistedPM(AlgebraPresentation):
    def _pair(self, x, y):
        kx, ky = x.kind, y.kind
        if kx == "Lu" and ky == "Lu":
            return _virasoro(x.index2, y.index2, "Lu", "Cu")
        if kx == "Lu" and ky == "J":
            return LinearCombo.single(
                J((x.index2 + y.index2) // 2), Scalar.rational(-y.index2, 2)
            )
        if kx == "J" and ky == "J":
            if x.index2 + y.index2 == 0:
                return LinearCombo.single(Cu, Scalar.rational(x.index2, 6))
            return ZERO_COMBO
        if kx == "Lu" and y.parity:
            return LinearCombo.single(
                GeneratorId(ky, x.index2 + y.index2),
                Scalar.rational(x.index2 - 2 * y.index2, 4),
            )
        if kx == "J" and ky in ("G+", "G-"):
            coef = ONE if ky == "G+" else -ONE
            return LinearCombo.single(GeneratorId(ky, x.index2 + y.index2), coef)
        if kx == ky and kx in ("G+", "G-"):
            return ZERO_COMBO
        if kx == "G+" and ky == "G-":
            p2, q2 = x.index2, y.index2
            out = LinearCombo.of(
                (Lu((p2 + q2) // 2), Scalar.rational(2)),
                (J((p2 + q2) // 2), Scalar.rational(p2 - q2, 2)),
            )
            if p2 + q2 == 0:
                out = out + LinearCombo.single(Cu, Scalar.rational(p2 * p2 - 1, 12))
            return out
        return None


class _Untwisted12(_UntwistedPM):
    """The untwisted algebra in the (1,2) fermion basis; the Lu/J rules
    are those of the +/- basis."""

    def _pair(self, x, y):
        kx, ky = x.kind, y.kind
        if kx == "J" and ky == "G1":
            return LinearCombo.single(G2(x.index2 + y.index2), -I)
        if kx == "J" and ky == "G2":
            return LinearCombo.single(G1(x.index2 + y.index2), I)
        if kx == ky and kx in ("G1", "G2"):
            p2, q2 = x.index2, y.index2
            out = LinearCombo.single(Lu((p2 + q2) // 2), Scalar.rational(2))
            if p2 + q2 == 0:
                out = out + LinearCombo.single(Cu, Scalar.rational(p2 * p2 - 1, 12))
            return out
        if kx == "G1" and ky == "G2":
            return LinearCombo.single(
                J((x.index2 + y.index2) // 2),
                -I * Scalar.rational(x.index2 - y.index2, 2),
            )
        return super()._pair(x, y)


TWISTED_PM = _TwistedPM("twisted-pm", ("L", "T", "G", "C"))
UNTWISTED_PM = _UntwistedPM("untwisted-pm", ("Lu", "J", "G+", "G-", "Cu"))
UNTWISTED_12 = _Untwisted12("untwisted-12", ("Lu", "J", "G1", "G2", "Cu"))

PRESENTATIONS = {
    p.name: p for p in (TWISTED, TWISTED_PM, UNTWISTED_PM, UNTWISTED_12)
}

class CheckReport:
    """Outcome of an exhaustive window check."""

    def __init__(self, name: str, window2: int):
        self.name = name
        self.window2 = window2
        self.checked = 0
        self.violations: list[tuple] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        head = f"{self.name}: window |2*index| <= {self.window2}, {self.checked} cases"
        if self.ok:
            return head + ", all pass"
        first = ", ".join(str(g) for g in self.violations[0])
        return head + f", {len(self.violations)} violations; first at ({first})"


def jacobi_check(
    presentation: AlgebraPresentation, window2: int, max_violations: int = 16
) -> CheckReport:
    """Exhaustive graded Jacobi identity over all generator triples with
    |index2| <= window2.

    The rotations of a triple sum the same exact terms, and where the table
    is graded antisymmetric on the inner pairs {x, y}, {y, z} and {x, z},
    J(y, x, z) = -(-1)^{|x||y|+|y||z|+|z||x|} J(x, y, z) term for term
    (notes/decisions.md).  So for positions i < j < k, (i, j, k) alone decides
    all six orderings when the three pairs pass the exact antisymmetry test;
    otherwise (i, j, k) and (i, k, j) are both evaluated.  When two positions
    agree, the six orderings are one rotation orbit.  ``checked`` counts all
    N^3 ordered triples, central ones included.  The violations, their order,
    ``checked`` and the cut-off at ``max_violations`` are those of the plain
    triple loop.
    """
    report = CheckReport(f"jacobi[{presentation.name}]", window2)
    gens = presentation.generators(window2)
    n = len(gens)
    parity = [g.parity for g in gens]
    pair_items: dict[tuple[GeneratorId, GeneratorId], list] = {}

    def items(a: GeneratorId, b: GeneratorId):
        hit = pair_items.get((a, b))
        if hit is None:
            hit = pair_items[a, b] = list(presentation.bracket(a, b).items())
        return hit

    def fails(i: int, j: int, k: int) -> bool:
        x, y, z = gens[i], gens[j], gens[k]
        px, py, pz = parity[i], parity[j], parity[k]
        acc: dict[GeneratorId, Scalar] = {}
        # (-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]]
        #                        + (-1)^{|z||y|}[z,[x,y]] = 0
        for a, b, c, flip in (
            (x, y, z, px and pz), (y, z, x, py and px), (z, x, y, pz and py)
        ):
            for g1, s1 in items(b, c):
                if flip:
                    s1 = -s1
                for g2, s2 in items(a, g1):
                    prod = s1 * s2
                    t = acc.get(g2)
                    acc[g2] = prod if t is None else t + prod
        return any(acc.values())

    live = [i for i, g in enumerate(gens) if not g.is_central]
    anti = {(i, j) for p, i in enumerate(live) for j in live[p + 1:]
            if presentation.antisymmetric(gens[i], gens[j])}
    bad: list[tuple[int, int, int]] = []
    for p, i in enumerate(live):
        for q, j in enumerate(live[p:], p):
            for k in live[q:]:
                distinct = i < j < k
                if distinct and not {(i, j), (i, k), (j, k)} <= anti:
                    bad += [t for t in ((i, j, k), (i, k, j)) if fails(*t)]
                elif fails(i, j, k):
                    bad += [(i, j, k), (i, k, j)] if distinct else [(i, j, k)]
    # every ordered triple of a failing orbit fails, and the plain triple
    # loop meets them in sorted order
    failing = sorted({r for i, j, k in bad for r in ((i, j, k), (j, k, i), (k, i, j))})
    if len(failing) < max_violations:
        report.checked = n * n * n
    else:
        failing = failing[:max_violations]
        i, j, k = failing[-1]
        report.checked = (i * n + j) * n + k + 1
    report.violations = [(gens[i], gens[j], gens[k]) for i, j, k in failing]
    return report


def random_scalar(rng: random.Random) -> Scalar:
    from fractions import Fraction

    def coord():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    return Scalar(coord(), coord(), coord(), coord())


def suite_scalars(seed: int = 0) -> SuiteReport:
    """Field axioms on seeded random triples, exact equality."""
    report = SuiteReport("scalars")
    cases = 10_000
    rng = random.Random(seed)
    bad = {"assoc": 0, "comm": 0, "dist": 0, "inv": 0, "zero": 0}
    for _ in range(cases):
        x, y, z = (random_scalar(rng) for _ in range(3))
        if (x * y) * z != x * (y * z):
            bad["assoc"] += 1
        if x * y != y * x or x + y != y + x:
            bad["comm"] += 1
        if x * (y + z) != x * y + x * z:
            bad["dist"] += 1
        if x and x * x.inverse() != ONE:
            bad["inv"] += 1
        s = x + (-x)
        if not (s.a == 0 and s.b == 0 and s.c == 0 and s.d == 0):
            bad["zero"] += 1
    for law, count in sorted(bad.items()):
        report.add(f"law[{law}]", f"{cases} random triples", "0 violations",
                   str(count), count == 0)
    return report


def suite_jacobi(window2: int = 12, algebra: str | None = None) -> SuiteReport:
    report = SuiteReport("jacobi")
    targets = (
        [PRESENTATIONS[algebra]] if algebra
        else [TWISTED, UNTWISTED_PM, UNTWISTED_12]
    )
    for pres in targets:
        r = jacobi_check(pres, window2)
        report.add(
            f"jacobi[{pres.name}]", f"window2={window2}", "0 violations",
            f"{len(r.violations)} of {r.checked}", r.ok,
        )
    return report


def suite_orders(seed: int = 0) -> SuiteReport:
    from .orders import (
        ExponentVector,
        enumerate_vectors,
        principal_compare,
        revlex_compare,
        slot_weight2,
    )

    report = SuiteReport("orders")
    cases = 10_000
    rng = random.Random(seed)

    def random_ev():
        items = {}
        for _ in range(rng.randint(0, 4)):
            items[rng.randint(1, 8)] = rng.randint(0, 3)
        return ExponentVector(items.items())

    bad_total = bad_anti = bad_trans = bad_refines = bad_add = 0
    for _ in range(cases):
        i, j, k = random_ev(), random_ev(), random_ev()
        for cmp in (revlex_compare, principal_compare):
            cij, cji = cmp(i, j), cmp(j, i)
            if cij != -cji:
                bad_anti += 1
            if (cij == 0) != (i == j):
                bad_total += 1
            if cmp(i, j) >= 0 and cmp(j, k) >= 0 and cmp(i, k) < 0:
                bad_trans += 1
        if i.weight2 > j.weight2 and principal_compare(i, j) != 1:
            bad_refines += 1
        s = i + j
        if s.weight2 != i.weight2 + j.weight2 or s.length != i.length + j.length:
            bad_add += 1
    report.add("antisymmetry", f"{cases} pairs", "0", str(bad_anti), bad_anti == 0)
    report.add("totality", f"{cases} pairs", "0", str(bad_total), bad_total == 0)
    report.add("transitivity", f"{cases} triples", "0", str(bad_trans), bad_trans == 0)
    report.add("weight-refinement", f"{cases} pairs", "0", str(bad_refines),
               bad_refines == 0)
    report.add("additivity", f"{cases} pairs", "0", str(bad_add), bad_add == 0)

    def brute_count(max_w2, max_len):
        # (doubled weight, length) of every choice of one exponent per slot
        reached = [(0, 0)]
        for slot in range(1, 2 * max_w2 + 3):
            sw = slot_weight2(slot)
            reached = [(w2 + sw * e, ln + e) for w2, ln in reached
                       for e in range(max_len - ln + 1) if w2 + sw * e <= max_w2]
        return len(reached)

    for bounds in ((1, 2), (0, 3), (4, 3), (5, 3), (6, 4)):
        got = len(enumerate_vectors(*bounds))
        want = brute_count(*bounds)
        report.add(f"enumeration{bounds}", "count vs brute force", str(want),
                   str(got), got == want)
    return report


def suite_deg_lemma(max_weight2: int = 4, max_length: int = 3) -> SuiteReport:
    from .modules import whittaker_spec
    from .theorems import lemma_deg_suite

    module = whittaker_spec(1, 0).induced()
    return lemma_deg_suite(module, 1, max_weight2, max_length)


def suite_reduction(seed: int = 0, max_weight2: int = 5,
                    max_length: int = 3) -> SuiteReport:
    from .modules import whittaker_spec
    from .orders import enumerate_vectors
    from .theorems import leading_word, reduce_to_M

    report = SuiteReport("reduction")
    module = whittaker_spec(1, 0).induced()
    rng = random.Random(seed)
    box = enumerate_vectors(max_weight2, max_length)
    if len(box) == 1:
        raise ValueError(f"the box of weight {format_half(max_weight2)} and length "
                         f"{max_length} holds only the empty word: nothing to reduce")
    for case in range(50):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            ev = rng.choice(box)
            coef = Scalar(rng.randint(-5, 5))
            if coef:
                terms[(ev, "v0")] = terms.get((ev, "v0"), ZERO) + coef
        v = module.vector(terms)
        if v.is_zero:
            v = module.basis_vector(rng.choice(box[:-1]))
        trace = reduce_to_M(module, v, 1)
        kinds = ",".join(k for k, *_ in trace.steps) or "none"
        report.add(
            f"reduce[{case}]",
            f"deg={leading_word(v)} steps={len(trace.steps)} kinds={kinds}",
            "nonzero terminal in 1(x)M",
            str(trace.terminal),
            trace.succeeded,
        )
    return report


def suite_annihilator() -> SuiteReport:
    """Exact annihilator spaces at t=1/2 for c in {0,1}; the criterion
    expects span{w{} (x) v0} but the true kernel also contains
    w{2:2} (x) v0 (see the deg-lemma obstruction)."""
    from .modules import whittaker_spec
    from .theorems import annihilator_Mt

    report = SuiteReport("annihilator")
    for c in (0, 1):
        module = whittaker_spec(1, c).induced()
        for bounds in ((2, 2), (4, 3)):
            basis, _ = annihilator_Mt(module, 1, *bounds)
            got = "; ".join(str(b) for b in basis)
            report.add(
                f"annihilator[c={c},bounds={bounds}]",
                "t=1/2",
                "span{w{}(x)v0}",
                got,
                len(basis) == 1 and str(basis[0]) == "w{}⊗v0",
            )
    return report


def suite_whittaker_identity(seed: int = 0, window2: int = 4) -> SuiteReport:
    from .modules import whittaker_spec
    from .theorems import whittaker_identity_check

    module = whittaker_spec(1, 0).induced()
    return whittaker_identity_check(module, 200, window2, seed)


def suite_verma_singular() -> SuiteReport:
    """Both weight-1/2 vectors are singular in the Verma module for c in
    {0, 1, -2}."""
    from .modules import verma_untwisted
    from .orders import ZERO_VECTOR

    report = SuiteReport("verma-singular")
    killers = [Lu(1), Lu(2), J(1), Gp(1), Gm(1), Gp(3), Gm(3)]
    for c in (0, 1, -2):
        module = verma_untwisted(c)
        vac = module.basis_vector(ZERO_VECTOR)
        for gen in (Gp(-1), Gm(-1)):
            v = module.act(gen, vac)
            surviving = [str(x) for x in killers if module.act(x, v)]
            report.add(
                f"annihilated[c={c},{gen}]", f"{len(killers)} raising generators",
                "all kill", ",".join(surviving) or "all kill", not surviving,
            )
            l0 = module.act(Lu(0), v)
            j0 = module.act(J(0), v)
            j_expected = v if gen.kind == "G+" else v.scaled(Scalar(-1))
            eig_ok = l0 == v.scaled(Scalar.rational(1, 2)) and j0 == j_expected
            report.add(
                f"eigenvector[c={c},{gen}]", "L0, J0",
                "L0 eig 1/2; J0 eig +-1", "ok" if eig_ok else "mismatch", eig_ok,
            )
    return report

