import random
from fractions import Fraction

import pytest

from n2sca import families
from n2sca.algebra import G, L, SuiteReport, T, TWISTED
from n2sca.engine import InducedModule
from n2sca.linalg import SpanChecker, kernel_basis
from n2sca.families import derived_pair_spec
from n2sca.modules import FiniteSeed, _positive, module_axiom_check, whittaker_spec
from n2sca.orders import (
    ExponentVector,
    ZERO_VECTOR,
    enumerate_vectors,
    principal_compare,
)
from n2sca.scalars import I, ONE, Scalar, ZERO, add_scaled
from n2sca.theorems import (
    annihilator_Mt,
    closure_check,
    leading_word,
    lemma_deg_suite,
    prescribed_generator,
    reduce_to_M,
    whittaker_identity_check,
)


def ev(*items):
    return ExponentVector(items)


@pytest.fixture(scope="module")
def module():
    return whittaker_spec(1, 0).induced()


def kinds(trace):
    return [kind for kind, *_ in trace.steps]


class TestReduceStep:
    """The first step of `reduce_to_M`: the prescribed generator and the
    kind of step its image makes."""

    def first_step(self, module, v):
        trace = reduce_to_M(module, v, 1)
        assert trace.succeeded
        return trace.steps[0]

    def test_t_letter_uses_l(self, module):
        assert prescribed_generator(ev((1, 1)), 1) == L(1)
        trace = reduce_to_M(module, module.basis_vector(ev((1, 1))), 1)
        assert trace.steps == [("corollary", "L[1]", ZERO_VECTOR, 0, 0)]
        assert trace.terminal == module.basis_vector(ZERO_VECTOR).scaled(
            Scalar.rational(1, 2))

    def test_g_letter_uses_g(self, module):
        assert prescribed_generator(ev((2, 1)), 1) == G(1)
        trace = reduce_to_M(module, module.basis_vector(ev((2, 1))), 1)
        assert trace.steps == [("corollary", "G[1/2]", ZERO_VECTOR, 0, 0)]
        assert trace.terminal == module.basis_vector(ZERO_VECTOR).scaled(
            Scalar.rational(1, 2))

    def test_deep_t_letter(self, module):
        assert prescribed_generator(ev((3, 1)), 1) == L(2)
        trace = reduce_to_M(module, module.basis_vector(ev((3, 1))), 1)
        assert trace.steps == [("corollary", "L[2]", ZERO_VECTOR, 0, 0)]
        assert trace.terminal == module.basis_vector(ZERO_VECTOR).scaled(
            Scalar.rational(3, 2))

    def test_mixed_support_drops_exactly_one(self, module):
        v = module.basis_vector(ev((1, 1), (2, 1))) + module.basis_vector(ev((3, 1)))
        # deg is {3:1} (weight 3/2); L2 is prescribed and lands in the seed
        assert prescribed_generator(leading_word(v), 1) == L(2)
        assert self.first_step(module, v) == ("corollary", "L[2]", ZERO_VECTOR, 0, 0)

    def test_zero_vector_rejected(self, module):
        with pytest.raises(ValueError, match="zero vector"):
            reduce_to_M(module, module.zero(), 1)

    def test_seed_vector_rejected(self, module):
        with pytest.raises(ValueError, match="zero word"):
            prescribed_generator(ZERO_VECTOR, 1)

    def test_failing_conditions_rejected(self):
        degenerate = whittaker_spec(0, 0).induced()
        with pytest.raises(ValueError, match="conditions"):
            reduce_to_M(degenerate, degenerate.basis_vector(ev((1, 1))), 1)

    def test_even_fermion_power_obstructs(self, module):
        # G[1/2] annihilates w{2:2} (x) v0, so the affine step follows; the
        # G[1] image of w{4:2} (x) v0 misses the claimed drop to {4:1}
        assert module.act(G(1), module.basis_vector(ev((2, 2)))).is_zero
        assert self.first_step(module, module.basis_vector(ev((2, 2))))[0] == "affine"
        assert self.first_step(module, module.basis_vector(ev((4, 2))))[0] == "overshoot"

    def test_odd_fermion_powers_descend(self, module):
        for word in (ev((2, 3)), ev((4, 1)), ev((2, 1), (4, 2))):
            kind, _, deg, _, _ = self.first_step(module, module.basis_vector(word))
            assert kind == "corollary"
            assert deg == word.bump(word.min_nonzero_slot(), -1)


class TestReduceToM:
    def test_two_step_example(self, module):
        trace = reduce_to_M(module, module.basis_vector(ev((1, 1), (2, 1))), 1)
        assert len(trace.steps) == 2
        assert trace.terminal == module.basis_vector(ZERO_VECTOR).scaled(
            Scalar.rational(1, 4)
        )
        assert kinds(trace) == ["corollary", "corollary"]

    def test_seed_vector_needs_no_steps(self, module):
        trace = reduce_to_M(module, module.basis_vector(ZERO_VECTOR), 1)
        assert trace.steps == [] and trace.succeeded

    def test_affine_repair_on_even_zero_mode(self, module):
        trace = reduce_to_M(module, module.basis_vector(ev((2, 2))), 1)
        assert trace.succeeded
        assert kinds(trace) == ["affine"]
        assert trace.terminal == module.basis_vector(ZERO_VECTOR).scaled(
            Scalar.rational(1, 2)
        )

    def test_overshoot_repair(self, module):
        trace = reduce_to_M(module, module.basis_vector(ev((4, 2))), 1)
        assert trace.succeeded
        assert kinds(trace)[0] == "overshoot"

    def test_fifty_seeded_vectors(self, module):
        rng = random.Random(0)
        box = enumerate_vectors(5, 3)
        for case in range(50):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                word = rng.choice(box)
                coef = Scalar(rng.randint(-5, 5))
                if coef:
                    terms[(word, "v0")] = terms.get((word, "v0"), ZERO) + coef
            v = module.vector(terms)
            if v.is_zero:
                continue
            budget = len(enumerate_vectors(5, 3 + 5))
            trace = reduce_to_M(module, v, 1, step_budget=budget)
            assert trace.succeeded, case
            # strict principal descent along the trace
            degs = [leading_word(v)] + [step[2] for step in trace.steps]
            for a, b in zip(degs, degs[1:]):
                assert principal_compare(b, a) < 0

    def test_step_that_fails_to_descend_is_a_failed_check(self):
        # the table of tests/golden/table.cfg, built without the loader,
        # which rejects it: on this non-module the overshoot step from
        # {3:1} lands on {3:1} again, and the trace records the failure
        seed = table_cfg_seed()
        module = seed.induced()
        trace = reduce_to_M(module, module.basis_vector(ev((3, 1))), 1)
        assert trace.failure == "overshoot step failed to descend: {3:1} -> {3:1}"
        assert trace.terminal is None and not trace.succeeded
        assert trace.lines() == ["start\tw{3:1}⊗v0"]

    def test_affine_step_that_annihilates_is_a_failed_check(self):
        # no seed is known to reach it: a module where T[1/2] acts by the
        # seed's lambda = 1 on every vector makes (T[1/2] - 1) kill w{2:2}
        module = annihilating_affine_module()
        trace = reduce_to_M(module, module.basis_vector(ev((2, 2))), 1)
        assert trace.failure == "affine step annihilated the vector at deg {2:2}"
        assert trace.terminal is None and not trace.succeeded
        assert trace.lines() == ["start\tw{2:2}⊗v0"]


def annihilating_affine_module():
    """The lambda = 1 Whittaker module with every generator but T[1/2]
    acting by zero and T[1/2] by 1: the prescribed generator kills every
    vector, and so does the affine step (T[1/2] - theta), theta = 1."""

    class Annihilating(InducedModule):
        def act(self, gen, v):
            return v if gen == T(1) else self.zero()

    spec = whittaker_spec(1, 0)
    return Annihilating(spec.induced().letters, spec)


def table_cfg_seed():
    """The table of tests/golden/table.cfg as a FiniteSeed; it is not a
    module, [L[2], T[1/2]] breaks the axiom on v0."""
    table = {(T(1), "v0"): {"v0": ONE}, (T(1), "v1"): {"v1": Scalar(2)},
             (L(2), "v0"): {"v1": ONE}}
    return FiniteSeed("table", ("v0", "v1"), table, _positive, ONE, {"v0": 0, "v1": 1})


def _rank_mod_p(rows, p):
    """Rank of sparse integer rows over F_p by plain forward elimination."""
    pivots = {}  # column -> row that is 1 there and 0 at every earlier pivot
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        for col, prow in pivots.items():
            f = row.get(col)
            if f:
                for k, v in prow.items():
                    row[k] = (row.get(k, 0) - f * v) % p
                row = {k: v for k, v in row.items() if v}
        if row:
            col = next(iter(row))
            inv = pow(row[col], -1, p)
            pivots[col] = {k: v * inv % p for k, v in row.items()}
    return len(pivots)


def _stacked_images(module, ops, domain):
    """Image of each domain word under all ops, keyed (op index, term)."""
    return [
        {(k, key): s for k, x in enumerate(ops)
         for key, s in module.act(x, module.basis_vector(w, lbl)).terms.items()}
        for w, lbl in domain
    ]


def _embedding_mod_p(p):
    """Scalar -> F_p under the 8th-root embedding of test_scalars."""
    from test_scalars import _roots_mod

    i_p, r2_p = _roots_mod(p)
    return lambda s: (s._a + s._b * i_p + (s._c + s._d * i_p) * r2_p) * pow(s._q, -1, p) % p


class TestAnnihilator:
    def test_exact_kernel_small_box(self, module):
        basis, ops = annihilator_Mt(module, 1, 2, 2)
        texts = sorted(str(b) for b in basis)
        # the claimed recovery span{w{} (x) v0} plus the genuine extra
        # kernel vector w{2:2} (x) v0 = (L0 - c/24) (x) v0
        assert texts == ["w{2:2}⊗v0", "w{}⊗v0"]
        assert L(1) in ops and T(3) in ops and G(1) in ops

    def test_kernel_members_are_killed(self, module):
        basis, ops = annihilator_Mt(module, 1, 4, 3)
        for b in basis:
            for x in ops:
                assert module.act(x, b).is_zero

    def test_domain_without_zero_word_is_thinner(self, module):
        # removing w{} from the domain removes it from the kernel
        evs = [e for e in enumerate_vectors(2, 2) if not e.is_zero]
        images = []
        ops = [L(1), L(2), T(3), G(1), G(2), G(3)]
        for e in evs:
            stacked = {}
            base = module.basis_vector(e)
            for k, x in enumerate(ops):
                for key, s in module.act(x, base).terms.items():
                    stacked[(k, key)] = s
            images.append(stacked)
        kernel = kernel_basis(images, len(evs), coord_key=lambda c: (c[0], str(c[1])))
        got = {str(evs[j]) for vecs in kernel for j in vecs}
        assert got == {"{2:2}"}

    def test_kernel_dimension_agrees_mod_p(self):
        # a second, independent rank: the stacked operator images mapped
        # into F_p and eliminated there, for lambda and c with every
        # coordinate nonzero
        module = whittaker_spec(Scalar(1, -1, 1, -1), Scalar(-1, 1, -1, 1)).induced()
        basis, ops = annihilator_Mt(module, 1, 4, 4)
        domain = [(w, lbl) for w in enumerate_vectors(4, 4) for lbl in module.seed.labels()]
        images = _stacked_images(module, ops, domain)
        checked = 0
        for p in (17, 2**61 + 57):
            if any(s._q % p == 0 for img in images for s in img.values()):
                continue
            to_p = _embedding_mod_p(p)
            rows = [{key: to_p(s) for key, s in img.items()} for img in images]
            assert len(domain) - _rank_mod_p(rows, p) == len(basis) == 3
            checked += 1
        assert checked

    def test_kernel_coefficients_agree_mod_p(self):
        # the golden annihilator-whittaker-irrational box: kernel vectors
        # with irrational coefficients, each mapped into F_p and applied to
        # the F_p images of the domain words; a wrong coefficient leaves a
        # nonzero image there
        module = whittaker_spec(Scalar(1, 1), Scalar(0, 0, 1)).induced()
        basis, ops = annihilator_Mt(module, 3, 4, 4)
        domain = [(w, lbl) for w in enumerate_vectors(4, 4) for lbl in module.seed.labels()]
        position = {word: j for j, word in enumerate(domain)}
        images = _stacked_images(module, ops, domain)
        coefficients = [s for b in basis for s in b.terms.values()]
        assert any(s._b or s._c or s._d for s in coefficients)
        scalars = coefficients + [s for img in images for s in img.values()]
        checked = 0
        for p in (17, 2**61 + 57):
            if any(s._q % p == 0 for s in scalars):
                continue
            to_p = _embedding_mod_p(p)
            rows = [{key: to_p(s) for key, s in img.items()} for img in images]
            for b in basis:
                total = {}
                for word, s in b.terms.items():
                    s_p = to_p(s)
                    for key, v in rows[position[word]].items():
                        total[key] = (total.get(key, 0) + s_p * v) % p
                assert not any(total.values()), (p, str(b))
            assert len(domain) - _rank_mod_p(rows, p) == len(basis) == 34
            checked += 1
        assert checked

    @staticmethod
    def reference_ops(t2, max_weight2):
        """The explicit ranges the operator list was once built from:
        L_{that+1/2}, T_{that+1}, G_{that} for t <= that <= max_weight/2 + t + 1."""
        cap2 = max_weight2 + t2 + 2
        return ([L(m2 // 2) for m2 in range(t2 + 1, cap2 + 1, 2)]
                + [T(r2) for r2 in range(t2 + 2, cap2 + 1, 2)]
                + [G(p2) for p2 in range(t2, cap2 + 1)])

    @pytest.mark.parametrize("t2", [1, 3, 5])
    def test_operators_match_reference_ranges(self, module, t2):
        for max_weight2 in (0, 1, 2, 5, 8):
            _, ops = annihilator_Mt(module, t2, max_weight2, 0)
            assert ops == self.reference_ops(t2, max_weight2), max_weight2

    def test_trivial_seed_is_fully_annihilated(self):
        spec = whittaker_spec(1, 0)
        module = spec.induced()
        basis, _ = annihilator_Mt(module, 1, 0, 0)
        assert [str(b) for b in basis] == ["w{}⊗v0"]


class TestClosure:
    @pytest.mark.parametrize("phi_t32,expect_closed", [(0, True), (1, False)])
    def test_odd_slice_dichotomy(self, phi_t32, expect_closed):
        spec = derived_pair_spec(1, {L(1): 1, T(3): phi_t32}, 0, (4, 3))
        mod = spec.induced()
        evs = enumerate_vectors(4, 3)
        subspace = [
            mod.basis_vector(e, lbl) for e in evs for lbl in spec.slice_labels("v1")
        ]
        universe = {(e, lbl) for e in evs for lbl in spec.labels()}
        report = closure_check(mod, subspace, 4, universe=universe)
        assert report.closed == expect_closed
        if not expect_closed:
            x, v, residue = report.witness
            # the escape lands in v0-labels with coefficient ~ phi(T3/2)
            assert all(lbl[1] == "v0" for _, lbl in residue.terms)

    def test_even_slice_always_closed(self):
        # the submodule generated by the polynomial slice over v0 never
        # reaches v1 labels, whatever phi does
        for phi_t32 in (0, 1):
            spec = derived_pair_spec(1, {L(1): 1, T(3): phi_t32}, 0, (4, 2))
            mod = spec.induced()
            evs = enumerate_vectors(2, 2)
            subspace = [
                mod.basis_vector(e, lbl)
                for e in evs
                for lbl in spec.slice_labels("v0")
            ]
            universe = {(e, lbl) for e in evs for lbl in spec.labels()}
            report = closure_check(mod, subspace, 4, universe=universe)
            assert report.closed

    def test_full_space_closed(self, module):
        evs = enumerate_vectors(2, 2)
        subspace = [module.basis_vector(e) for e in evs]
        report = closure_check(module, subspace, 2)
        assert report.closed


def reference_module_axiom_rows(module, window2, vectors):
    """The module-axiom loop without the first-level image cache."""
    report = SuiteReport("reference")
    gens = TWISTED.generators(window2)
    for x in gens:
        for y in gens:
            sign = -ONE if x.parity and y.parity else ONE
            bad = None
            for v in vectors:
                lhs = module.act(x, module.act(y, v)) + module.act(
                    y, module.act(x, v)
                ).scaled(-sign)
                rhs = module.act_combo(TWISTED.bracket(x, y), v)
                if lhs != rhs:
                    bad = v
                    break
            got = "ok" if bad is None else f"mismatch at {bad}"
            report.add(f"axiom[{x},{y}]", f"pairs over {len(vectors)} vectors",
                       "exact equality", got, bad is None)
    return report.rows


def test_module_axiom_image_cache_keeps_boundary_rows():
    # on many pairs, an act takes a label of the generalized seed past the
    # (4, 3) box of its listed labels; the seed acts exactly there, and
    # every row passes
    spec = derived_pair_spec(1, {L(1): 1, T(3): 1}, 0, (4, 3))
    module = spec.induced()
    vectors = [module.basis_vector(w, lbl)
               for w in enumerate_vectors(2, 1) for lbl in spec.labels()]
    want = reference_module_axiom_rows(module, 2, vectors)
    rows = module_axiom_check(module, 2, vectors).rows
    assert rows == want
    assert all(row[3] == "ok" for row in rows)


def test_module_axiom_rows_match_all_pairs_on_a_failing_module(monkeypatch):
    # the order-3/2 seed with phi(T[7/2]) = 1, its labels listed in the box
    # (6, 2), fails the axiom on 16 rows at window 4: the mirror of a failing
    # row is evaluated, not replayed.  The seed check rejects that seed, so
    # the builder runs here without it
    monkeypatch.setattr(families, "check_seed", lambda seed, letters: None)
    spec = derived_pair_spec(3, {T(7): ONE}, ONE, (6, 2))
    assert spec.inner.letters.letters_desc == [G(1), L(1), T(3), T(1), G(2)]
    module = spec.induced()
    vectors = [module.basis_vector(w, lbl)
               for w in enumerate_vectors(0, 0) for lbl in spec.labels()]
    want = reference_module_axiom_rows(module, 4, vectors)
    rows = module_axiom_check(module, 4, vectors).rows
    assert rows == want
    assert sum(row[4] == "FAIL" for row in rows) == 16


class TestWhittakerIdentity:
    def test_hand_example(self, module):
        # x = T[1/2], u = G[0]: both sides vanish
        v0 = module.basis_vector(ZERO_VECTOR)
        uv = module.act(G(0), v0)
        lhs = module.act(T(1), uv) + uv.scaled(-ONE)  # phi(T1/2) = 1
        rhs = module.act_combo(TWISTED.bracket(T(1), G(0)), v0)
        assert lhs == rhs

    def test_seeded_suite(self, module):
        report = whittaker_identity_check(module, 200, 4, seed=0)
        assert report.ok
        assert len(report.rows) == 200


class TestDegLemmaSuite:
    def test_reports_the_even_power_failures(self, module):
        report = lemma_deg_suite(module, 1, 4, 3)
        failed = {r[0] for r in report.rows if r[4] == "FAIL"}
        # every failure sits at an even minimal fermion exponent
        for case in failed:
            word = case[case.index("[") + 1 : case.index("]")]
            from n2sca.orders import parse_exponent_vector

            i = parse_exponent_vector(word)
            nhat = i.min_nonzero_slot()
            assert nhat % 2 == 0 and i.entries[0][1] % 2 == 0, case
        assert failed  # the obstruction is real at these bounds
        # and every odd-exponent / T-led case passes clause (a)
        for r in report.rows:
            if r[0].startswith("deg["):
                word = r[0][4:-1]
                from n2sca.orders import parse_exponent_vector

                i = parse_exponent_vector(word)
                nhat = i.min_nonzero_slot()
                if nhat % 2 == 1 or i.entries[0][1] % 2 == 1:
                    assert r[4] == "pass", r


def _kernel_basis_smallest_key(images, domain_size, coord_key):
    """Reference elimination pivoting on the smallest coordinate under
    coord_key, with the same echelon pass on the domain as kernel_basis."""
    rows, kernel = [], []
    for j in range(domain_size):
        img, pre = add_scaled({}, images[j]), {j: ONE}
        for pivot, row, rowpre in rows:
            coef = img.get(pivot)
            if coef:
                add_scaled(img, row, -coef)
                add_scaled(pre, rowpre, -coef)
        if img:
            pivot = min(img, key=coord_key)
            inv = img[pivot].inverse()
            rows.append((pivot, {k: inv * v for k, v in img.items()},
                         {k: inv * v for k, v in pre.items()}))
        else:
            kernel.append(pre)
    reducer = SpanChecker(coord_key=lambda j: j)
    out = []
    for vec in kernel:
        residue = reducer.add(vec)
        if residue:
            inv = residue[min(residue)].inverse()
            out.append({k: inv * v for k, v in residue.items()})
    return out


def _random_sparse_map(rng, n, m, shared, planted):
    """n sparse images over m coordinates.  Coordinates below ``shared`` sort
    first and occur in most images; the images at ``planted`` indices are
    combinations of earlier images with irrational coefficients."""

    def irrational():
        return Scalar(rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                      rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2))

    images = []
    for j in range(n):
        img = {}
        if j in planted:
            for i in rng.sample(range(j), min(j, 3)):
                add_scaled(img, images[i], irrational())
        else:
            coords = [k for k in range(shared) if rng.random() < 0.8]
            coords += rng.sample(range(shared, m), rng.randint(1, 3))
            img = {k: irrational() for k in coords}
        images.append(img)
    return images


class _SortedRowsSpanChecker:
    """The former SpanChecker: every reduce walks all rows, kept sorted by
    pivot under coord_key."""

    def __init__(self, coord_key):
        self.coord_key = coord_key
        self.rows = []

    def reduce(self, vec):
        vec = add_scaled({}, vec)
        for pivot, row in self.rows:
            coef = vec.get(pivot)
            if coef:
                add_scaled(vec, row, -coef)
        return vec

    def add(self, vec):
        residue = self.reduce(vec)
        if not residue:
            return residue
        pivot = min(residue, key=self.coord_key)
        inv = residue[pivot].inverse()
        row = {k: inv * v for k, v in residue.items()}
        for _, old in self.rows:
            coef = old.get(pivot)
            if coef:
                add_scaled(old, row, -coef)
        self.rows.append((pivot, row))
        self.rows.sort(key=lambda pr: self.coord_key(pr[0]))
        return residue

class TestLinalg:
    def test_kernel_does_not_depend_on_pivot_rule(self):
        rng = random.Random(11)
        for _ in range(8):
            n = rng.randint(10, 16)
            planted = set(rng.sample(range(2, n), 4))
            images = _random_sparse_map(rng, n, 3 * n, 3, planted)
            kernel = kernel_basis(images, n, coord_key=lambda c: c)
            assert kernel == _kernel_basis_smallest_key(images, n, lambda c: c)
            assert len(kernel) >= len(planted)
            for vec in kernel:
                total = {}
                for j, s in vec.items():
                    add_scaled(total, images[j], s)
                assert total == {}

    def test_kernel_of_complex_matrix(self):
        # map e0 -> i*x, e1 -> x, kernel = span{e0 - i*e1}
        images = [{"x": I}, {"x": ONE}]
        kernel = kernel_basis(images, 2, coord_key=lambda c: c)
        assert len(kernel) == 1
        vec = kernel[0]
        assert vec[0] * I + vec[1] * ONE == ZERO

    def test_kernel_rank_nullity(self):
        rng = random.Random(5)
        for _ in range(25):
            n, m = rng.randint(1, 5), rng.randint(1, 4)
            images = []
            for _ in range(n):
                images.append(
                    {
                        j: Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
                        for j in range(m)
                    }
                )
            kernel = kernel_basis(images, n, coord_key=lambda c: c)
            span = SpanChecker(coord_key=lambda c: c)
            rank = 0
            for img in images:
                if span.add({k: v for k, v in img.items() if v}):
                    rank += 1
            assert rank + len(kernel) == n
            for vec in kernel:
                total = {}
                for j, s in vec.items():
                    for k, v in images[j].items():
                        total[k] = total.get(k, ZERO) + s * v
                assert all(not v for v in total.values())

    def test_span_checker_matches_sorted_rows_reference(self):
        # residues, their dict order and the rows agree with the reference
        # that reduces by every row, on sparse inputs over Q(i, sqrt2) with
        # planted dependencies and a pivot order unlike insertion order
        rng = random.Random(23)
        for _ in range(6):
            n = rng.randint(12, 20)
            planted = set(rng.sample(range(2, n), 5))
            images = _random_sparse_map(rng, n, 2 * n, 4, planted)
            images.append({k: ZERO for k in images[0]})
            rng.shuffle(images)
            key = (lambda c: (c % 5, -c)) if rng.random() < 0.5 else (lambda c: c)
            span, ref = SpanChecker(coord_key=key), _SortedRowsSpanChecker(key)
            for img in images:
                probe = dict(rng.choice(images))
                probe[rng.randrange(2 * n)] = Scalar(rng.randint(-2, 2), 0, 1)
                for vec in (probe, img):
                    got, want = span.reduce(vec), ref.reduce(vec)
                    assert list(got.items()) == list(want.items())
                got, want = span.add(img), ref.add(img)
                assert list(got.items()) == list(want.items())
                assert span.contains(img)
            assert [(p, list(row.items())) for p, (_, row) in
                    sorted(span.rows.items(), key=lambda pr: key(pr[0]))] == [
                        (p, list(row.items())) for p, row in ref.rows]

    def test_span_checker_membership(self):
        span = SpanChecker(coord_key=lambda c: c)
        span.add({"a": ONE, "b": I})
        span.add({"b": ONE})
        assert span.contains({"a": Scalar(2), "b": Scalar(0, 5)})
        assert not span.contains({"c": ONE})
        assert len(span.rows) == 2
