"""The seed modules of the induction: their two classes, builders and checks.

A seed describes a module over the positive subalgebra through a basis of
opaque labels and an exact action oracle.  Every seed has a charge ``c``
and provides ``labels()`` (a finite list, in output order: all of a
`FiniteSeed`, the box of an `InducedSpec`), ``label_key(label)`` (a sort
key on every label, in that order on the listed ones), ``act(gen,
label)`` (a {label: Scalar} map; ValueError for a generator that does not
act on the seed), ``label_text(label)`` and its inverse
``parse_label(text)`` (which raises ValueError), ``slice_labels(text)``
(the listed labels over the seed vector that ``text`` names) and
``induced()`` (the induced module over the full twisted algebra).

A `FiniteSeed` is an action table, named in its errors by its ``family``.
An infinite-dimensional family is an `InducedSpec`: its inner module acts
exactly on every word, and its box only lists the finite set of labels
that the checks over the seed range over.
"""

from __future__ import annotations

from .algebra import (
    G,
    GeneratorId,
    KIND_RANK,
    SuiteReport,
    T,
    TWISTED,
    format_half,
    parse_half,
    parse_terms,
)
from .engine import (
    FiniteLetters,
    InducedModule,
    ModuleVector,
    TwistedTemplate,
    UntwistedTemplate,
)
from .orders import ZERO_VECTOR, enumerate_vectors
from .scalars import ONE, Scalar, ZERO, add_scaled, as_scalar, parse_scalar


def _positive(g):
    return g.degree2 > 0


def t_upper(u2: int):
    """Membership in T^(u) without its centre: G_p (p >= u),
    L_m (m >= u + 1/2), T_r (r >= u + 1)."""
    shift = {"G": 0, "L": 1, "T": 2}
    return lambda g: g.kind in shift and g.index2 >= u2 + shift[g.kind]


class FiniteSeed:
    """A finite seed given by an action table.

    ``table`` maps (generator, label) to {label: Scalar}.  A generator
    that ``acts`` admits but the table omits acts by zero; any other
    generator raises ValueError naming the ``family``.  ``parity(label)``,
    for `check_seed`'s parity rule, is 0 or 1, or None for a label
    missing from ``parities`` (ungraded).
    """

    def __init__(self, family: str, labels, table: dict, acts, c: Scalar = ZERO,
                 parities: dict | None = None):
        self.family = family
        self.c = c
        self._labels = tuple(labels)
        for i, label in enumerate(self._labels):
            if label in self._labels[:i]:
                raise ValueError(f"label {label!r} is declared twice")
        for (gen, label), out in table.items():
            for name in (label, *out):
                if name not in self._labels:
                    raise ValueError(f"{gen} action names undeclared label {name!r}")
        self.table = {key: {l: s for l, s in out.items() if s}
                      for key, out in table.items()}
        self.acts = acts
        self._parities = parities or {}
        for label, p in self._parities.items():
            if label not in self._labels or p not in (0, 1):
                raise ValueError(f"parity {p} on {label!r} is not 0 or 1 on a declared label")
        self.label_key = {lbl: i for i, lbl in enumerate(self._labels)}.__getitem__

    def induced(self) -> InducedModule:
        return InducedModule(TwistedTemplate(self.c), self)

    def labels(self):
        return self._labels

    def parity(self, label):
        return self._parities.get(label)

    def act(self, gen, label):
        if not self.acts(gen):
            raise ValueError(f"{gen} does not act on the {self.family} seed")
        return dict(self.table.get((gen, label), {}))

    def label_text(self, label):
        return label

    def parse_label(self, text):
        if text not in self._labels:
            raise ValueError(f"unknown label {text!r}")
        return text

    def slice_labels(self, text) -> list:
        return [self.parse_label(text)]


class InducedSpec:
    """A seed realised as an induced module over a small letter system; the
    outer engine sees its (word, seed label) pairs as opaque labels.  The
    inner module, over a `FiniteSeed`, acts exactly on every word.  The box
    ``bounds`` = (doubled weight, length) of the normal words only lists
    `labels`, the finite set that the checks over the seed range over."""

    induced = FiniteSeed.induced

    def __init__(self, inner: InducedModule, bounds: tuple[int, int]):
        # before the walk, which lists the empty word alone under a negative bound
        if min(bounds) < 0:
            raise ValueError("the label box must be nonnegative")
        self.inner = inner
        self.c = inner.c
        words = inner.letters.enumerate_words(*bounds)
        self._labels = tuple((ev, slabel) for slabel in inner.seed.labels() for ev in words)

    def labels(self):
        return self._labels

    def label_key(self, label):
        ev, slabel = label
        return (self.inner.label_rank(slabel), self.inner.letters.word_key(ev))

    def act(self, gen, label):
        ev, slabel = label
        return self.inner.act(gen, self.inner.basis_vector(ev, slabel)).terms

    def label_text(self, label):
        ev, slabel = label
        stext = self.inner.seed.label_text(slabel)
        if ev.is_zero:
            return stext
        return f"{self.inner.letters.word_text(ev)}.{stext}"

    def parse_label(self, text: str):
        if "." in text:
            word, stext = text.rsplit(".", 1)
            try:
                ev = self.inner.letters.parse_word(word)
            except ValueError as exc:
                raise ValueError(f"label {text!r}: {exc}") from None
        else:
            ev, stext = ZERO_VECTOR, text
        return (ev, self.inner.seed.parse_label(stext))

    def slice_labels(self, text) -> list:
        """All listed labels over one seed vector (the U(b)-saturated slice)."""
        seed_label = self.inner.seed.parse_label(text)
        return [lbl for lbl in self._labels if lbl[1] == seed_label]


def module_axiom_rows(module: InducedModule, gens: list[GeneratorId],
                      vectors: list[ModuleVector]):
    """Check act(x, act(y, v)) - (-1)^{|x||y|} act(y, act(x, v)) = act([x,y], v)
    for every ordered pair of ``gens``, yielding one row (x, y, bad) per
    pair: ``bad`` indexes the first vector where it fails (None when it
    passes).

    The first-level images act(g, v) are computed once per generator and
    vector.  Each row sums both sides into one accumulator and checks that
    it is empty.  Row (y, x) is the row of (x, y) replayed when (x, y) passed
    and [y, x] == -(-1)^{|x||y|} [x, y] holds exactly: each of its sums is
    then -(-1)^{|x||y|} times the (x, y) sum, over the same acts (why:
    notes/decisions.md).  Otherwise it is evaluated in its turn.
    """
    images: dict[tuple[GeneratorId, int], ModuleVector] = {}

    def image(g: GeneratorId, n: int, v: ModuleVector) -> ModuleVector:
        key = (g, n)
        hit = images.get(key)
        if hit is None:
            hit = images[key] = module.act(g, v)
        return hit

    def row(x: GeneratorId, y: GeneratorId, sign: Scalar, bracket) -> int | None:
        minus_sign = -sign
        minus_bracket = [(z, -s) for z, s in bracket.items()]
        for n, v in enumerate(vectors):
            acc: dict = {}
            module.act_into(acc, x, image(y, n, v))
            module.act_into(acc, y, image(x, n, v), minus_sign)
            for z, s in minus_bracket:
                add_scaled(acc, image(z, n, v).terms, s)
            if acc:
                return n
        return None

    # the pairs whose row is the replay of a passing row
    replay: set[tuple[GeneratorId, GeneratorId]] = set()
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            bad = None
            if (x, y) not in replay:
                sign = -ONE if x.parity and y.parity else ONE
                bracket = TWISTED.bracket(x, y)
                bad = row(x, y, sign, bracket)
                if bad is None and j > i and TWISTED.antisymmetric(x, y):
                    replay.add((y, x))
            yield x, y, bad


def module_axiom_check(
    module: InducedModule,
    window2: int,
    vectors: list[ModuleVector],
) -> SuiteReport:
    """act(x, act(y, v)) - (-1)^{|x||y|} act(y, act(x, v)) = act([x,y], v)
    for all ordered generator pairs in the window and all sample vectors,
    one `module_axiom_rows` row per pair."""
    report = SuiteReport(f"module-axiom[w{window2}]")
    inputs = f"pairs over {len(vectors)} vectors"
    for x, y, bad in module_axiom_rows(module, TWISTED.generators(window2), vectors):
        got = "ok" if bad is None else f"mismatch at {vectors[bad]}"
        report.add(f"axiom[{x},{y}]", inputs, "exact equality", got, bad is None)
    return report


def suite_module_axiom(window2: int = 6, max_weight2: int = 6,
                       max_length: int = 4) -> SuiteReport:
    module = whittaker_spec(1, 0).induced()
    vectors = [module.basis_vector(ev)
               for ev in enumerate_vectors(max_weight2, max_length)]
    return module_axiom_check(module, window2, vectors)


def check_seed(seed: FiniteSeed, letters=()) -> None:
    """Raise ValueError, naming the first failure, unless the table
    seed is a module over the generators that reach it: those that
    ``seed.acts`` admits, of positive degree and not ``letters`` of the
    induction around it.

    It runs `module_axiom_rows` on a letterless module over the seed, for
    the reaching generators up to the largest degree the table lists (one
    above it acts by zero, and so does the bracket of any pair that holds
    one, brackets being homogeneous), then the parity rule: an entry
    x: l -> l' needs parity(l') = parity(l) + |x| (mod 2), an undeclared
    parity counting as even.
    """

    def reaches(g):
        return g.degree2 > 0 and seed.acts(g) and g not in letters

    top2 = max((x.degree2 for (x, _), out in seed.table.items() if out and reaches(x)),
               default=0)
    module = InducedModule(FiniteLetters(TWISTED, []), seed)
    labels = seed.labels()
    vectors = [module.basis_vector(ZERO_VECTOR, lbl) for lbl in labels]
    gens = [g for g in TWISTED.generators(top2) if reaches(g)]
    for x, y, bad in module_axiom_rows(module, gens, vectors):
        if bad is not None:
            raise ValueError(
                f"the {seed.family} seed is not a module: [{x},{y}] breaks "
                f"the module axiom on {seed.label_text(labels[bad])}"
            )
    for (x, lbl), out in seed.table.items():
        for target in out:
            if (seed.parity(target) or 0) != ((seed.parity(lbl) or 0) + x.parity) % 2:
                raise ValueError(
                    f"the {seed.family} seed breaks the parity rule: {x} maps "
                    f"{seed.label_text(lbl)} to {seed.label_text(target)}"
                )


def whittaker_spec(lam, c) -> FiniteSeed:
    """The one-dimensional seed with T[1/2] acting by lam and every other
    positive generator by zero (the non-graded Whittaker seed).  It is a
    module for every lam and c: [T[1/2], T[1/2]] = 0."""
    lam, c = as_scalar(lam), as_scalar(c)
    return FiniteSeed("whittaker", ("v0",), {(T(1), "v0"): {"v0": lam}}, _positive, c)


def _character(s2: int, phi: dict) -> dict[GeneratorId, Scalar]:
    """phi without its zero values, once s is a positive half-odd integer
    and phi lives on T^(s)."""
    if s2 < 1 or s2 % 2 == 0:
        raise ValueError("s must be a positive half-odd integer")
    phi = {g: s for g, value in phi.items() if (s := as_scalar(value))}
    upper = t_upper(s2)
    for g in phi:
        if not upper(g):
            raise ValueError(f"{g} lies outside T^({format_half(s2)})")
    return phi


def derived_pair_spec(s2: int, phi: dict, c, bounds: tuple[int, int]) -> InducedSpec:
    """The derived pair (v0, v1 = G[1/2]v0) under a character phi of T^(s),
    induced over the letters G[1/2] and the positive generators outside
    T^(s), its labels listed in the box ``bounds``.

    T^(s) sees v0 through phi (a value on an odd generator breaks the
    parity rule of `check_seed`); the action on v1 is forced by
    x.v1 = phi(x) v1 + phi([x, G[1/2]]) v0.  Brackets are homogeneous, so
    only the keys of phi and the generators one half-degree below them can
    act by a nonzero map: the table lists exactly those, and every other
    member acts by zero.  The seed must pass `check_seed`.
    """
    phi = _character(s2, phi)
    upper = t_upper(s2)
    degrees = {g.degree2 for g in phi}
    table: dict = {}
    for x in TWISTED.generators(max(degrees, default=0) + 1):
        if x.degree2 in degrees or x.degree2 + 1 in degrees:
            s = phi.get(x, ZERO)
            cross = ZERO
            for z, coef in TWISTED.bracket(x, G(1)).items():
                cross = cross + coef * phi.get(z, ZERO)
            table[(x, "v0")] = {"v0": s}
            table[(x, "v1")] = {"v1": s, "v0": cross}
    seed = FiniteSeed(f"highorder[s={format_half(s2)}]", ("v0", "v1"), table, upper,
                      as_scalar(c), {"v0": 0, "v1": 1})
    complement = [g for g in TWISTED.generators(s2)
                  if g.degree2 > 0 and g != G(1) and not upper(g)]
    letters = [G(1)] + sorted(complement, key=lambda g: (KIND_RANK[g.kind], -g.index2))
    check_seed(seed, letters)
    return InducedSpec(InducedModule(FiniteLetters(TWISTED, letters), seed), tuple(bounds))


def verma_untwisted(c) -> InducedModule:
    """Verma module over the untwisted algebra: every negative-degree
    generator is a letter, acting freely on a vacuum killed by the
    nonnegative part."""
    seed = FiniteSeed("vacuum", ("1",), {},
                      lambda g: g.degree2 >= 0 and not g.is_central, as_scalar(c),
                      {"1": 0})
    return InducedModule(UntwistedTemplate(), seed)


def check_conditions(spec: FiniteSeed | InducedSpec, u2: int) -> tuple[bool, bool]:
    """(T_u injective on the listed labels, G_u kills every listed label).
    The images are exact: they may name labels outside the list.  T_u is
    injective when each image is independent of the ones before it."""
    from .linalg import SpanChecker

    if u2 < 1 or u2 % 2 == 0:
        raise ValueError("u must be a positive half-odd integer")
    labels = spec.labels()
    images = [spec.act(T(u2), lbl) for lbl in labels]
    killed = not any(spec.act(G(u2), lbl) for lbl in labels)
    span = SpanChecker(coord_key=spec.label_key)
    return (all(span.add(image) for image in images), killed)


def _parse_phi_key(key: str) -> GeneratorId:
    """`L1`, `T3/2`, `G2` -> generator ids."""
    if key[:1] not in ("L", "T", "G"):
        raise ValueError(f"bad character key {key!r}")
    try:
        return GeneratorId(key[0], parse_half(key[1:]))
    except ValueError as exc:
        raise ValueError(f"{key!r}: {exc}") from None


def _split_label(term: str) -> tuple[str, str]:
    """Splits a term `[<scalar>*]<label>` of a table action into (prefix, label)."""
    prefix, _, label = term.rpartition("*")
    if not prefix and label.startswith(("+", "-")):
        prefix, label = label[0], label[1:]
    return prefix, label.strip()


def load_spec_config(text: str) -> FiniteSeed | InducedSpec:
    """Parse the line-oriented `key = value` module description.  No key may
    repeat, and the family must read each."""
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ValueError(f"config repeats the key {key!r}")
        entries[key] = value

    def read(key, parse, default=None):
        if key not in entries:
            if default is None:
                raise ValueError(f"config is missing {key}")
            return default
        return parse(entries.pop(key))

    def read_all(*starts):  # (key, value) in file order
        return [(k, entries.pop(k)) for k in [k for k in entries if k.startswith(starts)]]

    family = entries.pop("family", None)
    if family is None:
        raise ValueError("config is missing the family key")
    c = read("c", parse_scalar, ZERO)
    if family == "whittaker":
        spec = whittaker_spec(read("lambda", parse_scalar), c)
    elif family in ("generalized", "highorder"):
        s2 = read("s", parse_half) if family == "highorder" else 1
        phi = {}
        for key, value in read_all("phi."):
            gen_id = _parse_phi_key(key[4:])
            if gen_id in phi:
                raise ValueError(f"config key {key!r} gives {gen_id} again")
            phi[gen_id] = parse_scalar(value)
        bounds = (read("max_weight", parse_half, 4), read("max_length", int, 3))
        if family == "highorder" and not _character(s2, phi):
            raise ValueError("the character must be non-trivial")
        spec = derived_pair_spec(s2, phi, c, bounds)
    elif family == "table":
        labels = read("labels", lambda text: [l.strip() for l in text.split(",")], ["v0"])
        parities, table = {}, {}
        for key, value in read_all("parity.", "act."):
            if key.startswith("parity."):
                parities[key[len("parity.") :]] = int(value)
                continue
            gen_text, dot, label = key[len("act.") :].partition(".")
            if not dot:
                raise ValueError(f"bad action key {key!r}")
            gen_id = _parse_phi_key(gen_text)
            if not _positive(gen_id):
                raise ValueError(f"the table seed lists {gen_id} on {label}, but only "
                                 "generators of positive degree act on it")
            if (gen_id, label) in table:
                raise ValueError(f"config key {key!r} gives {gen_id} on {label} again")
            table[(gen_id, label)] = parse_terms(value, _split_label)
        spec = FiniteSeed("table", labels, table, _positive, c, parities)
        check_seed(spec)
    else:
        raise ValueError(f"unknown family {family!r}")
    if entries:  # after the build, so that its errors come first
        raise ValueError(f"config key {next(iter(entries))!r} is not read by its family")
    return spec
