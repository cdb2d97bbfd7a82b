"""Run one `n2sca` command in-process under cProfile and report per-layer numbers.

Usage: PYTHONPATH=src python3 perfbench/traced.py ARG...

ARG... is the command line handed to `n2sca.cli.main`.  Nothing inside the package is
edited: the probes below wrap public entry points of each layer from
this file, and cProfile supplies self time and exact call counts.

Writes one JSON object to stdout:
    {"exit": <code>, "stdout": <the command's output>, "layers": {...}}
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import os
import pstats
import sys
import time
from fractions import Fraction

LAYERS = ("scalars", "algebra", "orders", "engine", "modules", "linalg",
          "theorems", "suites", "cli")
# stdlib modules folded into the scalars layer
_SCALAR_STDLIB = ("fractions.py", "numbers.py")
_HERE = os.path.dirname(os.path.abspath(__file__))


def layer_of(filename: str) -> str:
    """Layer that owns the self time of code in this file."""
    base = os.path.basename(filename)
    if os.path.basename(os.path.dirname(filename)) == "n2sca":
        mod = base[:-3]
        return mod if mod in LAYERS else "other"
    if base in _SCALAR_STDLIB:
        return "scalars"
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return "trace"
    return "other"


def _bits(x) -> int:
    """Size of the largest integer stored in a scalar operand."""
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return max(_bits(x.a), _bits(x.b), _bits(x.c), _bits(x.d))


class Probes:
    """Counters and inclusive timers around public calls into the layers.

    The wrappers make as few calls as they can, because cProfile charges
    every call they make: operands are kept and measured after profiling.
    """

    def __init__(self):
        self.operands: list = []
        self.max_depth = 0
        self.modules: list = []
        self.reduced = 0
        self.rank = 0
        self._act = [0, 0.0]  # nesting flag, inclusive seconds
        self._elim = [0, 0.0]

    @property
    def act_s(self) -> float:
        return self._act[1]

    @property
    def elim_s(self) -> float:
        return self._elim[1]

    def install(self, n2sca) -> None:
        from n2sca import engine, linalg, scalars

        self._wrap_products(scalars.Scalar)
        module_cls = engine.InducedModule
        for name in ("act", "act_word", "act_combo"):
            setattr(module_cls, name, _timed(getattr(module_cls, name), self._act))
        self._wrap_module_init(module_cls)
        self._wrap_depth(module_cls)
        for name in ("add", "reduce", "contains"):
            setattr(linalg.SpanChecker, name,
                    _timed(getattr(linalg.SpanChecker, name), self._elim))
        kernel = _timed(self._counted_kernel(linalg.kernel_basis), self._elim)
        _rebind(n2sca, linalg.kernel_basis, kernel)

    def _wrap_products(self, cls) -> None:
        orig = cls.__mul__
        record = self.operands.append

        def mul(x, y):
            record((x, y))
            return orig(x, y)

        cls.__mul__ = cls.__rmul__ = mul

    def product_stats(self) -> dict[str, float]:
        """Irrational share and operand sizes of every Scalar product."""
        from n2sca.scalars import Scalar

        products = len(self.operands)
        irrational = bits_sum = bits_max = 0
        for x, y in self.operands:
            if not (x.is_rational and (not isinstance(y, Scalar) or y.is_rational)):
                irrational += 1
            bx, by = _bits(x), _bits(y)
            bits_sum += bx + by
            bits_max = max(bits_max, bx, by)
        return {
            "scalars.products": products,
            "scalars.irrational_share": irrational / products if products else 0.0,
            "scalars.operand_bits_mean": bits_sum / (2 * products) if products else 0.0,
            "scalars.operand_bits_max": bits_max,
        }

    def _wrap_module_init(self, cls) -> None:
        orig = cls.__init__
        record = self.modules.append

        def init(module, *args, **kwargs):
            orig(module, *args, **kwargs)
            record(module)

        cls.__init__ = init

    def _wrap_depth(self, cls) -> None:
        orig = cls._act_basis_raw
        probe = self
        depth = [0]

        def raw(module, *args):
            d = depth[0] = depth[0] + 1
            if d > probe.max_depth:
                probe.max_depth = d
            try:
                return orig(module, *args)
            finally:
                depth[0] = d - 1

        cls._act_basis_raw = raw

    def _counted_kernel(self, fn):
        probe = self

        def kernel_basis(images, domain_size, coord_key):
            out = fn(images, domain_size, coord_key)
            probe.reduced += domain_size
            probe.rank += domain_size - len(out)
            return out

        return kernel_basis


def _timed(fn, state: list):
    """Add the time of outermost calls to state[1]; state[0] marks nesting,
    so a call made inside another timed call is not counted twice."""
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        if state[0]:
            return fn(*args, **kwargs)
        state[0] = 1
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            state[1] += clock() - t0
            state[0] = 0

    return wrapper


def _rebind(package, old, new) -> None:
    """Point every module of the package that bound `old` by name at `new`."""
    prefix = package.__name__ + "."
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package.__name__ or name.startswith(prefix)):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def counted_functions() -> dict:
    """Code objects whose exact call counts are layer metrics; taken before
    the probes wrap any of them."""
    from n2sca.algebra import AlgebraPresentation
    from n2sca.engine import InducedModule
    from n2sca.linalg import SpanChecker
    from n2sca.orders import ExponentVector
    from n2sca.scalars import Scalar

    fns = {
        "add": Scalar.__add__, "sub": Scalar.__sub__, "mul": Scalar.__mul__,
        "neg": Scalar.__neg__, "inverse": Scalar.inverse,
        "bracket": AlgebraPresentation.bracket,
        "ev_new": ExponentVector.__new__,
        "act": InducedModule.act,
        "basis_act": InducedModule._act_basis,
        "miss": InducedModule._act_basis_raw,
        "reduce": SpanChecker.reduce,
    }
    return {k: fn.__code__ for k, fn in fns.items()}


def _calls(stats: dict, code) -> int:
    """Exact call count of one function, recursive calls included."""
    row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return row[1] if row else 0


def self_times(stats: dict) -> dict[str, float]:
    """Self time per layer; a builtin's time goes to the layer of its caller."""
    out = {layer: 0.0 for layer in LAYERS + ("trace", "other")}
    for (fname, _, _), (_, _, tt, _, callers) in stats.items():
        if fname != "~":
            out[layer_of(fname)] += tt
            continue
        for (cfname, _, _), edge in callers.items():
            out["other" if cfname == "~" else layer_of(cfname)] += edge[2]
    return out


def layer_metrics(stats: dict, codes: dict, probes: Probes) -> dict[str, float]:
    from n2sca.algebra import PRESENTATIONS
    from n2sca.orders import ExponentVector

    def calls(key):
        return _calls(stats, codes[key])

    selfs = self_times(stats)
    basis_acts = calls("basis_act")
    misses = calls("miss")
    seed_acts = sum(
        row[1] for (fname, _, name), row in stats.items()
        if name == "act" and layer_of(fname) == "modules"
    )
    m = {f"{layer}.self_s": t for layer, t in selfs.items()}
    m.update({
        "scalars.ops": sum(calls(k) for k in ("add", "sub", "mul", "neg")),
        "scalars.inverses": calls("inverse"),
        "algebra.brackets": calls("bracket"),
        "algebra.bracket_cache_size": sum(len(p._cache) for p in PRESENTATIONS.values()),
        "orders.vectors_built": calls("ev_new"),
        "orders.cache_size": len(ExponentVector._cache),
        "engine.act_s": probes.act_s,
        "engine.acts": calls("act"),
        "engine.basis_acts": basis_acts,
        "engine.memo_misses": misses,
        "engine.memo_hit_ratio": 1 - misses / basis_acts if basis_acts else 0.0,
        "engine.memo_size": sum(len(mod._memo) for mod in probes.modules),
        "engine.max_depth": probes.max_depth,
        "modules.seed_acts": seed_acts,
        "linalg.elim_s": probes.elim_s,
        "linalg.reduces": probes.reduced + calls("reduce"),
        "linalg.rank": probes.rank,
    })
    m.update(probes.product_stats())
    return m


def main(argv: list[str]) -> int:
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    import n2sca
    import n2sca.cli
    prof.disable()
    codes = counted_functions()
    probes = Probes()
    probes.install(n2sca)
    buf = io.StringIO()
    prof.enable()
    with contextlib.redirect_stdout(buf):
        code = n2sca.cli.main(argv)
    prof.disable()
    profiled_s = time.perf_counter() - t0
    stats = pstats.Stats(prof).stats
    layers = layer_metrics(stats, codes, probes)
    layers["trace.profiled_s"] = profiled_s
    json.dump({"exit": code, "stdout": buf.getvalue(), "layers": layers}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
