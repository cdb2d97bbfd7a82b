"""Executable forms of the degree lemmas, the simplicity reduction, the
annihilator computation and the submodule-closure probes.

All computations are exact; results over truncated slices always carry
the truncation they were computed at and claim nothing beyond it.
"""

from __future__ import annotations

import random

from .algebra import G, GeneratorId, L, SuiteReport, T, TWISTED, format_half
from .engine import InducedModule, ModuleVector
from .linalg import SpanChecker, kernel_basis
from .modules import check_conditions, t_upper
from .orders import (
    ExponentVector,
    ZERO_VECTOR,
    enumerate_vectors,
    principal_sort_key,
)
from .scalars import ONE, Scalar, ZERO, add_scaled


def leading_word(v: ModuleVector) -> ExponentVector:
    """The principal-maximal word in the support of a nonzero vector."""
    if v.is_zero:
        raise ValueError("deg(w) is defined only for w != 0")
    return max((ev for ev, _ in v.terms), key=principal_sort_key)


def _require_conditions(module: InducedModule, u2: int) -> None:
    injective, killed = check_conditions(module.seed, u2)
    if not (injective and killed):
        raise ValueError(
            f"seed module fails the u={format_half(u2)} conditions: "
            f"T injective={injective}, G kills={killed}"
        )


def prescribed_generator(deg: ExponentVector, u2: int) -> GeneratorId:
    """The raising generator attached to the minimal nonzero slot."""
    nhat = deg.min_nonzero_slot()
    if nhat is None:
        raise ValueError("the zero word prescribes no generator")
    if nhat % 2:  # slot 2n-1: L_{u + n - 1/2}
        n = (nhat + 1) // 2
        return L((u2 + 2 * n - 1) // 2)
    n = nhat // 2  # slot 2n: G_{u + (n-1)/2}
    return G(u2 + n - 1)


def _affine_theta(module: InducedModule, v: ModuleVector, u2: int) -> Scalar:
    """The scalar theta with (T_u - theta) killing the leading coefficient
    of v; exists when T_u acts on that seed coefficient as a scalar."""
    spec = module.seed
    deg = leading_word(v)
    kappa = v.coefficient(deg)  # label -> Scalar
    image: dict = {}
    for lbl, s in kappa.items():
        add_scaled(image, spec.act(T(u2), lbl), s)
    for lbl in image:
        if lbl not in kappa:
            raise ValueError(
                "no affine repair: T_u does not act as a scalar on the "
                "leading seed coefficient"
            )
    if not image:
        raise ValueError("no affine repair: T_u kills the leading coefficient")
    first = next(iter(kappa))
    theta = image.get(first, ZERO) * kappa[first].inverse()
    for lbl, s in kappa.items():
        if image.get(lbl, ZERO) != theta * s:
            raise ValueError(
                "no affine repair: T_u is not scalar on the leading coefficient"
            )
    return theta


class ReductionTrace:
    """The reduction path of one vector down to the seed module."""

    def __init__(self, start: ModuleVector):
        self.start = start
        self.steps: list[tuple[str, str, ExponentVector, int, int]] = []
        self.terminal: ModuleVector | None = None
        self.failure: str | None = None
        self.inconclusive: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.terminal is not None and not self.terminal.is_zero

    def lines(self) -> list[str]:
        out = [f"start\t{self.start}"]
        for kind, op, deg, w2, d in self.steps:
            out.append(
                f"apply {op}\tkind={kind}\tdeg={deg}"
                f"\tweight={format_half(w2)}\tlength={d}"
            )
        if self.terminal is not None:
            out.append(f"terminal\t{self.terminal}")
        return out


def reduce_to_M(
    module: InducedModule, v: ModuleVector, u2: int, step_budget: int | None = None
) -> ReductionTrace:
    """Descend to the seed module by strict principal-order steps.

    Each step acts by the generator x that `prescribed_generator` attaches
    to the minimal nonzero slot nhat of deg(v).  A nonzero image whose
    leading word is deg - eps(nhat) is a "corollary" step: the claimed
    degree drop holds.  At an even exponent in an even minimal slot the
    claim fails: commuting the raising fermion through an even power of
    an odd letter cancels the T_u-transfer terms in pairs (`verify
    deg-lemma` lists these words).  Any other nonzero image is then
    accepted as an "overshoot" step, and where x kills the vector the
    loop takes the affine step v -> (T_u - theta)v ("affine").  A step that
    does not descend, or an affine step that annihilates, ends the trace
    with ``failure`` naming the step kind and the degrees.

    Every leading degree must stay in the box of the starting degree
    padded by its weight (bounding the letters that L-expansions can
    add): weight at most w0 and length at most l0 + w0.  The box is
    finite and every step descends strictly, so the descent ends.  The
    principal order compares weights first, so only the length can leave
    the box.  A step that leaves it, or ``step_budget`` steps spent first,
    ends the partial trace with terminal None and ``inconclusive`` saying
    why.  A u that is not positive half-odd, or a negative budget, raises
    ValueError.
    """
    if u2 < 1 or u2 % 2 == 0:
        raise ValueError("u must be a positive half-odd integer")
    if step_budget is not None and step_budget < 0:
        raise ValueError(f"step budget must be non-negative, got {step_budget}")
    if v.is_zero:
        raise ValueError("cannot reduce the zero vector")
    trace = ReductionTrace(v)
    current, deg = v, leading_word(v)
    if not deg.is_zero:
        _require_conditions(module, u2)
    top_w2, top_len = deg.weight2, deg.length + deg.weight2
    while not deg.is_zero:
        if len(trace.steps) == step_budget:
            trace.inconclusive = f"{step_budget}-step budget spent before the seed module"
            return trace
        x = prescribed_generator(deg, u2)
        image = module.act(x, current)
        kind, op = "corollary", str(x)
        if image.is_zero:
            theta = _affine_theta(module, current, u2)
            image = module.act(T(u2), current) + current.scaled(-theta)
            kind, op = "affine", f"T[{format_half(u2)}] - ({theta})"
            if image.is_zero:
                trace.failure = f"affine step annihilated the vector at deg {deg}"
                return trace
        new_deg = leading_word(image)
        if kind == "corollary" and new_deg != deg.bump(deg.min_nonzero_slot(), -1):
            kind = "overshoot"
        if principal_sort_key(new_deg) >= principal_sort_key(deg):
            trace.failure = f"{kind} step failed to descend: {deg} -> {new_deg}"
            return trace
        if new_deg.length > top_len:
            trace.inconclusive = (
                f"{kind} step {op} left the box (weight <= {format_half(top_w2)}, "
                f"length <= {top_len}): {deg} -> {new_deg}"
            )
            return trace
        current, deg = image, new_deg
        trace.steps.append((kind, op, deg, deg.weight2, deg.length))
    trace.terminal = current
    return trace


def annihilator_Mt(
    module: InducedModule, t2: int, max_weight2: int, max_length: int
):
    """Basis of the subspace of the truncated slice killed by all of
    L_{that+1/2}, T_{that+1}, G_{that} for that > t - 1/2.

    The domain is the truncated slice; images are computed exactly (no
    codomain truncation).  Returns (basis vectors, operators used).
    Raises ValueError unless t is positive and half-odd.
    """
    if t2 < 1 or t2 % 2 == 0:
        raise ValueError(f"t must be a positive half-odd integer, got {format_half(t2)}")
    spec = module.seed
    labels = list(spec.labels())
    evs = enumerate_vectors(max_weight2, max_length)
    domain = [(ev, lbl) for ev in evs for lbl in labels]
    # the operators are T^(t) up to degree max_weight2/2 + t + 1: beyond
    # it the whole slice is provably killed
    ops = [g for g in TWISTED.generators(max_weight2 + t2 + 2) if t_upper(t2)(g)]
    # stack all operator images into one map
    images = []
    for ev, lbl in domain:
        stacked: dict = {}
        base = module.basis_vector(ev, lbl)
        for op_index, x in enumerate(ops):
            for key, s in module.act(x, base).terms.items():
                stacked[(op_index, key)] = s
        images.append(stacked)

    kernel = kernel_basis(images, len(domain),
                          coord_key=lambda c: (c[0], module.term_key(c[1])))
    basis = []
    for vec in kernel:
        terms = {domain[j]: s for j, s in vec.items()}
        basis.append(ModuleVector(module, terms))
    return basis, ops


class ClosureReport:
    def __init__(self):
        self.closed = True
        self.witness: tuple | None = None
        self.checked = 0
        self.projected = 0

    def __str__(self) -> str:
        verdict = "closed" if self.closed else f"not closed (witness {self.witness[0]})"
        return f"closure: {verdict}; {self.checked} cases, {self.projected} projected"


def closure_check(
    module: InducedModule,
    subspace: list[ModuleVector],
    window2: int,
    universe: set | None = None,
) -> ClosureReport:
    """Does acting by every generator with |index2| <= window2 keep the
    span of ``subspace``?

    Components outside ``universe`` (the coordinate set of the subspace,
    by default) are projected away and counted: the verdict is about the
    truncated window only.
    """
    report = ClosureReport()
    if universe is None:
        universe = set()
        for v in subspace:
            universe |= set(v.terms)

    span = SpanChecker(coord_key=module.term_key)
    for v in subspace:
        span.add(v.terms)
    for x in TWISTED.generators(window2):
        for v in subspace:
            report.checked += 1
            image = module.act(x, v)
            inside = {k: s for k, s in image.terms.items() if k in universe}
            if len(inside) != len(image.terms):
                report.projected += 1
            residue = span.reduce(inside)
            if residue:
                report.closed = False
                if report.witness is None:
                    report.witness = (x, v, ModuleVector(module, residue))
                return report
    return report


def lemma_deg_suite(
    module: InducedModule, u2: int, max_weight2: int, max_length: int
) -> SuiteReport:
    """Both degree-lemma clauses over the enumerated box.

    (a) the prescribed generator drops the degree by exactly eps(nhat);
    (b) for any strictly principal-smaller word, the same generator never
    produces the target coordinate deg - eps(nhat).
    """
    report = SuiteReport(f"deg-lemma[u={format_half(u2)}]")
    _require_conditions(module, u2)
    evs = enumerate_vectors(max_weight2, max_length)
    labels = list(module.seed.labels())
    for n, i in enumerate(evs):
        if i.is_zero:
            continue
        nhat = i.min_nonzero_slot()
        x = prescribed_generator(i, u2)
        target = i.bump(nhat, -1)
        ok_a = True
        for lbl in labels:
            image = module.act(x, module.basis_vector(i, lbl))
            if image.is_zero:
                ok_a = False
                break
            deg = leading_word(image)
            if deg != target:
                ok_a = False
                break
        report.add(
            f"deg[{i}]", f"x={x}", f"deg={target}", "ok" if ok_a else "mismatch", ok_a
        )
        ok_b = True
        witness = ""
        for j in evs[n + 1:]:  # descending and duplicate-free: the smaller words
            for lbl in labels:
                image = module.act(x, module.basis_vector(j, lbl))
                if any(ev == target for ev, _ in image.terms):
                    ok_b = False
                    witness = f"{j} reaches {target}"
                    break
            if not ok_b:
                break
        report.add(
            f"noninterference[{i}]",
            f"x={x} on all principal-smaller words",
            f"{target} absent",
            witness or "ok",
            ok_b,
        )
    return report


def _commutator_words(x: GeneratorId, word: list[GeneratorId]):
    """The super commutator [x, g1...gk] as a list of (scalar, word) pairs:
    for each position i and each term z of [x, gi], the word g1...gi-1 z
    gi+1...gk with the Koszul sign of moving x past g1...gi-1 times the
    coefficient of z."""
    out: list[tuple[Scalar, list[GeneratorId]]] = []
    sign = ONE
    for idx, g in enumerate(word):
        for z, coef in TWISTED.bracket(x, g).items():
            out.append((sign * coef, word[:idx] + [z] + word[idx + 1 :]))
        if x.parity and g.parity:
            sign = -sign
    return out


def whittaker_identity_check(
    module: InducedModule, samples: int, window2: int, seed: int
) -> SuiteReport:
    """(x - (-1)^{|x||u|} phi(x)) (u v) = [x, u] v for the cyclic vector v
    of a character seed, words u in the window and positive window x."""
    spec = module.seed
    report = SuiteReport(f"whittaker-identity[w{window2}]")
    label = spec.labels()[0]
    rng = random.Random(seed)
    gens = TWISTED.generators(window2)
    positive = [g for g in gens if g.degree2 > 0]
    if not positive:
        raise ValueError(f"the window {window2} holds no positive generator")
    v0 = module.basis_vector(ZERO_VECTOR)
    for case in range(samples):
        x = rng.choice(positive)
        u_word = [rng.choice(gens) for _ in range(rng.randint(0, 3))]
        u_parity = sum(g.parity for g in u_word) % 2
        uv = module.act_word(u_word, v0)
        phi_x = spec.act(x, label).get(label, ZERO)
        sign = -ONE if (x.parity and u_parity) else ONE
        lhs = module.act(x, uv) + uv.scaled(-(sign * phi_x))
        rhs = module.zero()
        for coef, w in _commutator_words(x, u_word):
            add_scaled(rhs.terms, module.act_word(w, v0).terms, coef)
        ok = lhs == rhs
        report.add(
            f"case{case}",
            f"x={x} u={'*'.join(map(str, u_word)) or '1'}",
            "exact equality",
            "ok" if ok else f"lhs-rhs={lhs - rhs}",
            ok,
        )
    return report
