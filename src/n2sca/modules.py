"""The seed modules of the induction: the table seed, the Whittaker and
vacuum builders, the module-axiom check and the config reader.

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
that the checks over the seed range over.  `InducedSpec`, the families
built on it and the check of a table seed live in `families`, which only
those configs load.
"""

from __future__ import annotations

from .algebra import G, GeneratorId, SuiteReport, T, TWISTED
from .engine import InducedModule, ModuleVector, TwistedTemplate, UntwistedTemplate
from .orders import enumerate_vectors
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
    for the parity rule of `families.check_seed`, is 0 or 1, or None for a
    label missing from ``parities`` (ungraded).
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


def whittaker_spec(lam, c) -> FiniteSeed:
    """The one-dimensional seed with T[1/2] acting by lam and every other
    positive generator by zero (the non-graded Whittaker seed).  It is a
    module for every lam and c: [T[1/2], T[1/2]] = 0."""
    lam, c = as_scalar(lam), as_scalar(c)
    return FiniteSeed("whittaker", ("v0",), {(T(1), "v0"): {"v0": lam}}, _positive, c)


def verma_untwisted(c) -> InducedModule:
    """Verma module over the untwisted algebra: every negative-degree
    generator is a letter, acting freely on a vacuum killed by the
    nonnegative part."""
    seed = FiniteSeed("vacuum", ("1",), {},
                      lambda g: g.degree2 >= 0 and not g.is_central, as_scalar(c),
                      {"1": 0})
    return InducedModule(UntwistedTemplate(), seed)


def check_conditions(spec, u2: int) -> tuple[bool, bool]:
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


def load_spec_config(text: str):
    """Parse the line-oriented `key = value` module description into a
    `FiniteSeed` or an `InducedSpec`.  No key may repeat, and the family
    must read each."""
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
    elif family in ("generalized", "highorder", "table"):
        from .families import load_family

        spec = load_family(family, c, read, read_all)
    else:
        raise ValueError(f"unknown family {family!r}")
    if entries:  # after the build, so that its errors come first
        raise ValueError(f"config key {next(iter(entries))!r} is not read by its family")
    return spec
