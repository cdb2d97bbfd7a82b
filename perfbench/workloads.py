"""The four benchmark workloads: their inputs, made from a seed, and their oracles.

Each workload is one `n2sca` command line.  `inputs(rng)` draws the next
input of a run; `setup_input(rng)` is the same command at its smallest
size, whose wall time is the set-up cost (interpreter start, import,
argument parsing and spec loading).  `problems(inp, exit_code, stdout)`
returns what is wrong with one output, so an empty list means correct.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")


@dataclass(frozen=True)
class Input:
    key: str  # digest key: inputs with one key print the same bytes
    argv: tuple[str, ...]
    config: str | None = None  # spec file text, passed as `--spec <file>`


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _tsv_problems(stdout: str, rows: int) -> list[str]:
    """Every report row reads `pass`, and the row count is as expected."""
    lines = stdout.splitlines()
    if not lines or lines[0] != "case\tinputs\texpected\tgot\tstatus":
        return ["no TSV header"]
    body = lines[1:]
    out = []
    if len(body) != rows:
        out.append(f"{len(body)} rows, expected {rows}")
    failing = [r.split("\t")[0] for r in body if r.split("\t")[-1] != "pass"]
    if failing:
        out.append(f"{len(failing)} rows not pass, first {failing[0]}")
    return out


class Workload:
    name: str
    seeded: bool
    why: str

    def __init__(self, digests: dict[str, str]):
        self.digests = digests

    def inputs(self, rng: random.Random) -> Input:
        raise NotImplementedError

    def setup_input(self, rng: random.Random) -> Input:
        raise NotImplementedError

    def recorded_inputs(self) -> list[Input]:
        """One input per digest key of this workload."""
        rng = random.Random(0)
        return [self.inputs(rng), self.setup_input(rng)]

    def extra_problems(self, inp: Input, stdout: str) -> list[str]:
        return []

    def problems(self, inp: Input, exit_code: int, stdout: str) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        want = self.digests.get(inp.key)
        out = []
        if want is None:
            out.append(f"no recorded digest for {inp.key}")
        elif digest(stdout) != want:
            out.append(f"output digest differs from the recorded one for {inp.key}")
        return out + self.extra_problems(inp, stdout)


class Jacobi(Workload):
    name = "jacobi"
    seeded = False  # exhaustive over the window: the seed is ignored
    why = ("exhaustive Jacobi check over three presentations: algebra plus "
           "rational scalars, no engine or linalg; the no-change side for engine "
           "and linalg work")
    WINDOW = 4

    def inputs(self, rng):
        return Input("jacobi", ("verify", "jacobi", "--window", str(self.WINDOW)))

    def setup_input(self, rng):
        return Input("jacobi:setup", ("verify", "jacobi", "--window", "0"))

    def extra_problems(self, inp, stdout):
        return _tsv_problems(stdout, 3)  # one row per presentation


class ModuleAxiom(Workload):
    name = "module-axiom"
    seeded = False  # exhaustive over generator pairs and box vectors
    why = ("module axiom over all generator pairs on the lambda=1, c=0 Whittaker "
           "module: engine with a hot act memo, vector accumulation, rational "
           "scalars, no linalg")
    ARGV = ("verify", "module-axiom", "--window", "4", "--max-weight", "1",
            "--max-length", "2")
    # ordered pairs of the twisted generators with |2*index| <= window: 19 and 3
    ROWS = {"module-axiom": 19 * 19, "module-axiom:setup": 3 * 3}

    def inputs(self, rng):
        return Input("module-axiom", self.ARGV)

    def setup_input(self, rng):
        return Input("module-axiom:setup",
                     ("verify", "module-axiom", "--window", "0", "--max-weight", "0",
                      "--max-length", "0"))

    def extra_problems(self, inp, stdout):
        return _tsv_problems(stdout, self.ROWS[inp.key])


def _scalar_text(coords: list[int]) -> str:
    a, b, c, d = coords
    return f"{a} + ({b})*i + ({c})*r2 + ({d})*i*r2"


class Annihilator(Workload):
    name = "annihilator"
    seeded = True
    why = ("annihilator space of a Whittaker module with seeded irrational lambda "
           "and c: exact elimination over Q(i, sqrt2) dominates; growing "
           "irrational operands guard the general scalar path")
    HEIGHT = 1  # every coordinate of lambda and c is +-1
    T, MAX_WEIGHT, MAX_LENGTH = "1/2", "2", 4
    # kernel at this box for every lambda, c drawn here: w{2:4}, w{2:2}, w{} (x) v0
    KERNEL_DIM = 3

    def _spec(self, rng) -> str:
        def draw():
            return [rng.choice((-1, 1)) * rng.randint(1, self.HEIGHT) for _ in range(4)]

        lam, c = draw(), draw()
        return (f"family = whittaker\nlambda = {_scalar_text(lam)}\n"
                f"c = {_scalar_text(c)}\n")

    def _argv(self, max_weight, max_length):
        return ("annihilator", "--t", self.T, "--max-weight", max_weight,
                "--max-length", str(max_length))

    def inputs(self, rng):
        return Input("annihilator", self._argv(self.MAX_WEIGHT, self.MAX_LENGTH),
                     self._spec(rng))

    def setup_input(self, rng):
        return Input("annihilator:setup", self._argv("0", 0), self._spec(rng))

    def extra_problems(self, inp, stdout):
        if inp.key != "annihilator":
            return []
        return annihilator_problems(inp, stdout, self.KERNEL_DIM)


def annihilator_problems(inp: Input, stdout: str, kernel_dim: int) -> list[str]:
    """Each reported vector is killed by every operator of the annihilator
    condition, checked with `InducedModule.act`; the kernel has the
    recorded dimension.  Needs `n2sca` importable."""
    from n2sca.algebra import G, L, T, parse_half
    from n2sca.modules import load_spec_config

    argv = dict(zip(inp.argv[1::2], inp.argv[2::2]))
    t2 = parse_half(argv["--t"])
    top2 = parse_half(argv["--max-weight"]) + t2 + 2
    # L[m] for m >= t + 1/2, T[r] for r >= t + 1, G[p] for p >= t; higher
    # modes kill the truncated slice by weight alone
    ops = ([L(m2 // 2) for m2 in range(t2 + 1, top2 + 1) if m2 % 2 == 0]
           + [T(r2) for r2 in range(t2 + 2, top2 + 1) if r2 % 2]
           + [G(p2) for p2 in range(t2, top2 + 1)])
    lines = stdout.splitlines()
    out = []
    if not lines or not lines[0].endswith(f"operators={len(ops)}"):
        out.append(f"header does not list {len(ops)} operators")
    vectors = lines[1:]
    if len(vectors) != kernel_dim:
        out.append(f"kernel dimension {len(vectors)}, expected {kernel_dim}")
    module = load_spec_config(inp.config).induced()
    for text in vectors:
        v = module.parse_vector(text)
        alive = [str(x) for x in ops if not module.act(x, v).is_zero]
        if alive:
            out.append(f"{text} is not killed by {', '.join(alive)}")
    return out


class DeepAct(Workload):
    name = "deep-act"
    seeded = True
    why = ("one G[0] acting on a deep seeded power of G[-1/2]: recursive "
           "straightening with a cold memo that grows by one entry per miss; "
           "the write-heavy engine side and peak memory")
    BAND = range(78, 83)  # exponent of slot 4, drawn per input
    CONFIG = "family = whittaker\nlambda = 1\nc = 0\n"

    def _input(self, key, exponent):
        return Input(key, ("act", "G[0]", "--vector", f"{{4:{exponent}}}"), self.CONFIG)

    def inputs(self, rng):
        e = rng.choice(self.BAND)
        return self._input(f"deep-act:{e}", e)

    def setup_input(self, rng):
        return self._input("deep-act:setup", 1)

    def recorded_inputs(self):
        return ([self._input(f"deep-act:{e}", e) for e in self.BAND]
                + [self.setup_input(None)])


WORKLOADS = {cls.name: cls for cls in (Jacobi, ModuleAxiom, Annihilator, DeepAct)}

