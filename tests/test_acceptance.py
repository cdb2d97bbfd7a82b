"""Acceptance gate: one test per criterion, one printed verdict line each.

Criteria 4 and 6 assert the stated claims verbatim and are marked as
strict expected failures: exact computation shows the claimed degree
drop and annihilator recovery fail at even fermion exponents (see
notes/decisions.md at the repository root for the counterexample
G[1/2].(w{2:2} (x) v0) = 0).  Everything else is green.
"""

import random
import time

import pytest

from n2sca.algebra import (
    G,
    Gm,
    Gp,
    J,
    L,
    LinearCombo,
    Lu,
    PRESENTATIONS,
    T,
    TWISTED,
    UNTWISTED_12,
    UNTWISTED_PM,
    parse_combo,
    parse_generator,
)
from n2sca.modules import (
    derived_pair_spec,
    module_axiom_check,
    verma_untwisted,
    whittaker_spec,
)
from n2sca.orders import ZERO_VECTOR, enumerate_vectors, parse_exponent_vector
from n2sca.scalars import Scalar, ZERO
from n2sca.suites import jacobi_check, psi, substitute_basis, verify_automorphism
from n2sca.theorems import (
    annihilator_Mt,
    closure_check,
    lemma_deg_suite,
    reduce_to_M,
    whittaker_identity_check,
)

import os

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_brackets.tsv")


def verdict(number: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d}: {status}{' - ' + detail if detail else ''}")


def test_criterion_01_structure_constants():
    t0 = time.monotonic()
    ok = True
    ok &= TWISTED.bracket(L(2), L(-2)) == parse_combo("4*L[0] + 1/2*C")
    ok &= TWISTED.bracket(G(1), G(-1)) == parse_combo("-2*L[0]")
    ok &= TWISTED.bracket(G(0), G(0)) == parse_combo("2*L[0] - 1/12*C")
    ok &= TWISTED.bracket(G(2), G(-1)) == parse_combo("-3/2*T[1/2]")
    ok &= TWISTED.bracket(T(3), T(-3)) == parse_combo("1/2*C")
    with open(GOLDEN, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    assert len(rows) == 40
    for name, xs, ys, expected in rows:
        got = PRESENTATIONS[name].bracket(parse_generator(xs), parse_generator(ys))
        ok &= str(got) == expected
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    verdict(1, ok, f"45 brackets exact in {elapsed:.3f}s")
    assert ok


def test_criterion_02_jacobi_window12():
    t0 = time.monotonic()
    results = {}
    for pres in (TWISTED, UNTWISTED_PM, UNTWISTED_12):
        report = jacobi_check(pres, 12)
        results[pres.name] = (report.ok, report.checked)
    elapsed = time.monotonic() - t0
    ok = all(flag for flag, _ in results.values()) and elapsed < 30.0
    checked = sum(n for _, n in results.values())
    verdict(2, ok, f"{checked} triples, 0 violations, {elapsed:.1f}s")
    assert ok, results
    assert elapsed < 30.0


def test_criterion_03_module_axiom():
    t0 = time.monotonic()
    module = whittaker_spec(1, 0).induced()
    vectors = [module.basis_vector(ev) for ev in enumerate_vectors(6, 4)]
    report = module_axiom_check(module, 6, vectors)
    elapsed = time.monotonic() - t0
    ok = report.ok and elapsed < 120.0
    verdict(
        3, ok, f"{len(report.rows)} pairs x {len(vectors)} vectors, {elapsed:.1f}s"
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="claimed degree drop deg(X w_i) = i - eps(nhat) is exactly false "
    "when the minimal slot is even with an even exponent: the T_u transfer "
    "terms cancel in pairs (counterexample G[1/2].(w{2:2} (x) v0) = 0); "
    "see notes/decisions.md",
)
def test_criterion_04_deg_lemma():
    module = whittaker_spec(1, 0).induced()
    report = lemma_deg_suite(module, 1, 4, 3)
    failures = [r for r in report.rows if r[4] == "FAIL"]
    verdict(
        4,
        report.ok,
        f"{len(report.rows)} clauses, {len(failures)} exact-computation failures "
        f"(even fermion exponents: {', '.join(r[0] for r in failures[:4])} ...)",
    )
    assert report.ok


def test_criterion_05_constructive_simplicity():
    module = whittaker_spec(1, 0).induced()
    rng = random.Random(0)
    box = enumerate_vectors(5, 3)
    budget = len(enumerate_vectors(5, 3 + 5))
    reduced = 0
    for case in range(50):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            ev = rng.choice(box)
            coef = Scalar(rng.randint(-5, 5))
            if coef:
                terms[(ev, "v0")] = terms.get((ev, "v0"), ZERO) + coef
        v = module.vector(terms)
        if v.is_zero:
            v = module.basis_vector(box[0])
        trace = reduce_to_M(module, v, 1, step_budget=budget)
        assert trace.succeeded, f"vector {case} failed: {trace.lines()}"
        assert len(trace.steps) <= budget
        for line in trace.lines():
            print(f"  trace[{case}] {line}")
        reduced += 1
    verdict(5, reduced == 50, f"{reduced}/50 vectors reduced to 1(x)M")
    assert reduced == 50


@pytest.mark.xfail(
    strict=True,
    reason="the annihilator space at t=1/2 genuinely contains "
    "w{2:2} (x) v0 = (L[0] - c/24) (x) v0 besides w{} (x) v0 (all listed "
    "operators kill it exactly), so 'exactly span{w{} (x) v0}' is "
    "unattainable; see notes/decisions.md",
)
def test_criterion_06_annihilator_recovery():
    outcomes = {}
    for c in (0, 1):
        module = whittaker_spec(1, c).induced()
        for bounds in ((2, 2), (4, 3)):
            basis, _ = annihilator_Mt(module, 1, *bounds)
            outcomes[(c, bounds)] = sorted(str(b) for b in basis)
    ok = all(v == ["w{}⊗v0"] for v in outcomes.values())
    verdict(6, ok, f"computed kernels: {outcomes[(0, (2, 2))]}")
    assert ok, outcomes


def test_criterion_07_dichotomy():
    verdicts = {}
    for phi_t32 in (0, 1):
        spec = derived_pair_spec(1, {L(1): 1, T(3): phi_t32}, 0, (4, 3))
        module = spec.induced()
        evs = enumerate_vectors(4, 3)
        subspace = [
            module.basis_vector(ev, lbl)
            for ev in evs
            for lbl in spec.slice_labels("v1")
        ]
        universe = {(ev, lbl) for ev in evs for lbl in spec.labels()}
        report = closure_check(module, subspace, 4, universe=universe)
        verdicts[phi_t32] = report
    ok = verdicts[0].closed and not verdicts[1].closed
    witness = verdicts[1].witness
    ok = ok and witness is not None
    verdict(
        7,
        ok,
        "slice C[T1/2](G[1/2]v0): phi(T3/2)=0 closed; "
        f"phi(T3/2)=1 witness {witness[0]} residue {witness[2]}",
    )
    assert ok


def test_criterion_08_substitution_and_psi():
    ok = True
    gens = UNTWISTED_PM.generators(8)
    for x in gens:
        sx = substitute_basis(LinearCombo.single(x), "pm_to_12")
        for y in gens:
            sy = substitute_basis(LinearCombo.single(y), "pm_to_12")
            lhs = substitute_basis(UNTWISTED_PM.bracket(x, y), "pm_to_12")
            if lhs != UNTWISTED_12.bracket_combo(sx, sy):
                ok = False
    report = verify_automorphism(psi, UNTWISTED_PM, 10)
    ok &= report.ok
    for g in UNTWISTED_PM.generators(10):
        if psi(psi(LinearCombo.single(g))) != LinearCombo.single(g):
            ok = False
    verdict(8, ok, f"transport window 8, psi window 10 ({report.checked} pairs)")
    assert ok


def test_criterion_09_verma_singular_vectors():
    ok = True
    killers = [Lu(1), Lu(2), J(1), Gp(1), Gm(1), Gp(3), Gm(3)]
    for c in (0, 1, -2):
        module = verma_untwisted(c)
        vac = module.basis_vector(ZERO_VECTOR)
        for gen in (Gp(-1), Gm(-1)):
            v = module.act(gen, vac)
            ok &= not v.is_zero
            for x in killers:
                ok &= module.act(x, v).is_zero
            ok &= module.act(Lu(0), v) == v.scaled(Scalar.rational(1, 2))
            expected_j = v if gen.kind == "G+" else v.scaled(Scalar(-1))
            ok &= module.act(J(0), v) == expected_j
    verdict(9, ok, "both fermionic vectors singular for c in {0, 1, -2}")
    assert ok


def test_criterion_10_whittaker_identity():
    module = whittaker_spec(1, 0).induced()
    report = whittaker_identity_check(module, 200, 4, seed=0)
    verdict(10, report.ok, f"{len(report.rows)} seeded (x, u) pairs")
    assert report.ok
    assert len(report.rows) == 200


def test_criterion_11_determinism_and_roundtrip(capsys, tmp_path):
    import n2sca.cli as cli

    cfg = tmp_path / "w.cfg"
    cfg.write_text("family = whittaker\nlambda = 1\nc = 0\n")
    invocations = [
        ["verify", "orders", "--seed", "7"],
        ["verify", "reduction", "--seed", "7"],
        ["verify", "psi"],
        ["bracket", "G[1]", "G[-1/2]"],
        ["enumerate", "--max-weight", "1/2", "--max-length", "2"],
        ["reduce", "{1:1}", "--spec", str(cfg)],
        ["annihilator", "--spec", str(cfg), "--t", "1/2",
         "--max-weight", "1", "--max-length", "2"],
    ]
    ok = True
    outputs = []
    for argv in invocations:
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        ok &= first == second and first.encode() == second.encode()
        outputs.append((argv, first))

    # round-trip: printed combos and vectors reparse to equal values
    module = whittaker_spec(1, 0).induced()
    bracket_out = outputs[3][1].strip()
    ok &= str(parse_combo(bracket_out)) == bracket_out
    for argv, text in outputs:
        if argv[0] == "enumerate":
            for line in text.strip().splitlines():
                ok &= str(parse_exponent_vector(line)) == line
        if argv[0] == "reduce":
            terminal = text.strip().splitlines()[-1].split("\t")[1]
            ok &= str(module.parse_vector(terminal)) == terminal
        if argv[0] == "annihilator":
            for line in text.strip().splitlines()[1:]:
                ok &= str(module.parse_vector(line)) == line
    with capsys.disabled():
        verdict(11, ok, f"{len(invocations)} invocations byte-stable, outputs reparse")
    assert ok
