"""The seed families besides Whittaker: the `table` seed and the derived
pair of the `generalized` and `highorder` families, with the finite letter
systems they are induced over and the check that a table seed is a module.

`load_spec_config` imports this module for those three families only, so a
command on a Whittaker config compiles none of it (notes/decisions.md,
"What each command compiles").  The seed protocol is stated in the `modules`
docstring; `InducedSpec` follows it.
"""

from __future__ import annotations

from .algebra import (
    G,
    GeneratorId,
    KIND_RANK,
    TWISTED,
    AlgebraPresentation,
    format_half,
    parse_generator,
    parse_half,
    parse_terms,
)
from .engine import InducedModule, keeps_square, word_text
from .modules import FiniteSeed, _positive, module_axiom_rows, t_upper
from .orders import ExponentVector, ZERO_VECTOR, walk_vectors
from .scalars import Scalar, ZERO, as_scalar, parse_scalar


class FiniteLetters:
    """Finitely many registered letters, leftmost first; nothing is rewritten."""

    def __init__(self, presentation: AlgebraPresentation, letters_desc: list[GeneratorId]):
        self.presentation = presentation
        self.letters_desc = list(letters_desc)
        n = len(self.letters_desc)
        self._slot = {g: n - i for i, g in enumerate(self.letters_desc)}
        self._by_slot = {n - i: g for i, g in enumerate(self.letters_desc)}
        self._w2 = {s: abs(g.degree2) for s, g in self._by_slot.items()}

    def slot_of(self, gen):
        return self._slot.get(gen)

    def letter(self, slot):
        return self._by_slot[slot]

    def rewrite(self, gen):
        return None

    def word_key(self, ev: ExponentVector) -> tuple:
        """The order of `enumerate_words`: (weight, length, entries)."""
        w2 = self._w2
        return (sum(w2[s] * e for s, e in ev.entries), ev.length, ev.revlex_key())

    def enumerate_words(self, max_w2: int, max_len: int) -> list[ExponentVector]:
        """All normal words of doubled weight <= max_w2 and length <= max_len,
        by `word_key`."""
        slots = [(s, self._w2[s], max_len if keeps_square(self, g) else 1)
                 for s, g in sorted(self._by_slot.items())]
        return sorted(walk_vectors(slots, max_w2, max_len), key=self.word_key)

    def word_text(self, ev):
        return word_text(ev, self._by_slot.__getitem__)

    def parse_word(self, text: str) -> ExponentVector:
        """Inverse of `word_text`: a normal word of one or more letters, each
        letter once and leftmost first, an odd letter that folds unsquared."""
        items: list[tuple[int, int]] = []
        for chunk in text.split("*"):
            gtext, hat, etext = chunk.strip().partition("^")
            if hat and not (etext.strip().isdecimal() and int(etext)):
                raise ValueError(f"exponent {etext!r} of {gtext} is not a natural number")
            gen = parse_generator(gtext)
            slot = self.slot_of(gen)
            if slot is None:
                raise ValueError(f"{gtext} is not a letter of this spec")
            if items and slot >= items[-1][0]:
                raise ValueError(f"{gtext} is out of the normal order of the letters")
            exp = int(etext) if hat else 1
            if exp > 1 and not keeps_square(self, gen):
                raise ValueError(f"{gtext} is odd: no normal word holds its square")
            items.append((slot, exp))
        return ExponentVector(items)


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


def load_family(family: str, c, read, read_all) -> FiniteSeed | InducedSpec:
    """The seed of a `generalized`, `highorder` or `table` config of charge
    ``c``, read through `load_spec_config`'s ``read`` (one key) and
    ``read_all`` (every key under the given prefixes, in file order)."""
    if family == "table":
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
        return spec
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
    return derived_pair_spec(s2, phi, c, bounds)
