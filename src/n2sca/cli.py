"""Command-line surface: expression evaluation, module construction from
config files, verification suites and report emission.

Exit codes: 0 all checks pass, 1 a check failed, 2 parse/config error,
3 inconclusive: a spent step budget, a reduction step that left its box, the
recursion limit, or memory.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
import types

from . import algebra
from .algebra import (
    L,
    T,
    TWISTED,
    format_half,
    parse_combo,
    parse_generator,
    parse_half,
)
from .scalars import ONE

# The engine, module, order, linalg, theorem and suite layers are imported
# by the commands that run them, so a command compiles and loads only what
# it reaches: `act` loads no theorems, linalg or suites, and `verify` loads
# the module that holds the one suite it runs, and that suite's layers.

PASS, FAIL, USAGE, INCONCLUSIVE = 0, 1, 2, 3

# the names `verify` accepts, each with the module that holds its suite;
# `verify x-y` imports only that module and runs its `suite_x_y`
SUITE_NAMES = dict.fromkeys((
    "annihilator", "deg-lemma", "jacobi", "module-axiom", "orders", "psi", "reduction",
    "scalars", "substitution", "verma-singular", "whittaker-identity",
), "suites") | {"module-axiom": "modules", "psi": "transport", "substitution": "transport"}
# the names `--algebra` accepts, those of `suites.PRESENTATIONS`, which only
# a non-default name loads
ALGEBRAS = ("twisted", "twisted-pm", "untwisted-12", "untwisted-pm")


def _load_module(path: str):
    from .modules import load_spec_config

    with open(path, encoding="utf-8") as fh:
        spec = load_spec_config(fh.read())
    return spec.induced(), spec


def _stderr(line: str) -> None:
    if sys.stderr is not None:  # None when the process started with stderr closed
        sys.stderr.write(line + "\n")


def _emit(args, text: str) -> None:
    if getattr(args, "output", None) is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif sys.stdout is None:
        raise OSError("standard output is closed; name a file with --output")
    else:
        sys.stdout.write(text)


def _cmd_bracket(args) -> int:
    pres = TWISTED if args.algebra == TWISTED.name else algebra.PRESENTATIONS[args.algebra]
    x, y = parse_combo(args.x), parse_combo(args.y)
    for combo in (x, y):
        for g in combo:
            pres.check_member(g)
    _emit(args, str(pres.bracket_combo(x, y)) + "\n")
    return PASS


def _cmd_jacobi(args) -> int:
    from .suites import PRESENTATIONS, jacobi_check

    report = jacobi_check(PRESENTATIONS[args.algebra], args.window)
    _emit(args, str(report) + "\n")
    return PASS if report.ok else FAIL


def _cmd_act(args) -> int:
    from .orders import parse_exponent_vector

    module, spec = _load_module(args.spec)
    word = [parse_generator(tok) for tok in args.word.replace("*", " ").split()]
    ev = parse_exponent_vector(args.vector)
    label = spec.labels()[0] if args.label is None else spec.parse_label(args.label)
    result = module.act_word(word, module.basis_vector(ev, label))
    _emit(args, str(result) + "\n")
    return PASS


def _cmd_reduce(args) -> int:
    from .orders import parse_exponent_vector
    from .theorems import reduce_to_M

    module, spec = _load_module(args.spec)
    ev = parse_exponent_vector(args.vector)
    label = spec.labels()[0] if args.label is None else spec.parse_label(args.label)
    v = module.basis_vector(ev, label)
    trace = reduce_to_M(module, v, parse_half(args.u), args.budget)
    _emit(args, "\n".join(trace.lines()) + "\n")
    if trace.failure:
        _stderr(f"check failed: {trace.failure}")
        return FAIL
    if trace.inconclusive:
        _stderr(f"inconclusive: {trace.inconclusive}")
        return INCONCLUSIVE
    return PASS if trace.succeeded else FAIL


def _cmd_annihilator(args) -> int:
    from .theorems import annihilator_Mt

    module, _ = _load_module(args.spec)
    basis, ops = annihilator_Mt(
        module, parse_half(args.t), parse_half(args.max_weight), args.max_length
    )
    lines = [
        f"# t={args.t} truncation=({args.max_weight},{args.max_length}) "
        f"operators={len(ops)}"
    ]
    lines += [str(b) for b in basis] or ["(zero space)"]
    _emit(args, "\n".join(lines) + "\n")
    return PASS


def _cmd_enumerate(args) -> int:
    from .orders import enumerate_vectors

    evs = enumerate_vectors(parse_half(args.max_weight), args.max_length)
    _emit(args, "\n".join(str(ev) for ev in evs) + "\n")
    return PASS


def _box_subspace(module, evs, labels):
    """The words ``evs`` over ``labels``, and the universe of those words
    over every seed label: a `full` or `seed:` subspace."""
    subspace = [module.basis_vector(ev, lbl) for ev in evs for lbl in labels]
    return subspace, {(ev, lbl) for ev in evs for lbl in module.seed.labels()}


def _cmd_closure(args) -> int:
    from .orders import enumerate_vectors
    from .theorems import closure_check

    module, spec = _load_module(args.spec)
    max_w2 = parse_half(args.max_weight)
    evs = enumerate_vectors(max_w2, args.max_length)
    if args.subspace.startswith("file:"):
        with open(args.subspace[5:], encoding="utf-8") as fh:
            subspace = [module.parse_vector(line) for line in fh if line.strip()]
        universe = None
    elif args.subspace == "full":
        subspace, universe = _box_subspace(module, evs, spec.labels())
    elif args.subspace.startswith("seed:"):
        subspace, universe = _box_subspace(module, evs, spec.slice_labels(args.subspace[5:]))
    else:
        raise ValueError("subspace must be 'full', 'seed:<label>' or 'file:<path>'")
    report = closure_check(module, subspace, args.window, universe=universe)
    _emit(args, str(report) + "\n")
    return PASS if report.closed else FAIL


def _cmd_verify(args) -> int:
    home = importlib.import_module("." + SUITE_NAMES[args.suite], __package__)
    fn = getattr(home, "suite_" + args.suite.replace("-", "_"))
    params = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    kwargs = {}
    for flag, param, value in (
        ("--seed", "seed", args.seed),
        ("--window", "window2", args.window),
        ("--max-weight", "max_weight2", args.max_weight),
        ("--max-length", "max_length", args.max_length),
        ("--algebra", "algebra", args.algebra),
    ):
        if value is None:
            continue
        if param not in params:
            raise ValueError(f"verify {args.suite} takes no {flag}")
        kwargs[param] = parse_half(value) if param == "max_weight2" else value
    report = fn(**kwargs)
    _emit(args, report.tsv())
    return PASS if report.ok else FAIL


def _demo_lines(which: str) -> list[str]:
    from .modules import check_conditions, whittaker_spec
    from .orders import enumerate_vectors, parse_exponent_vector
    from .theorems import closure_check, reduce_to_M

    out = [f"demo: {which}"]
    if which == "whittaker":
        spec = whittaker_spec(1, 0)
        module = spec.induced()
        out.append(f"seed labels: {', '.join(spec.labels())}")
        out.append(f"conditions (i),(ii) at u=1/2: {check_conditions(spec, 1)}")
        v = module.basis_vector(parse_exponent_vector("{1:1,2:1}"))
        return out + reduce_to_M(module, v, 1).lines()
    from .families import derived_pair_spec  # the derived-pair demos only

    if which == "generalized":
        evs = enumerate_vectors(4, 3)
        for phi_t32 in (0, 1):
            spec = derived_pair_spec(1, {L(1): ONE, T(3): phi_t32}, 0, (4, 3))
            module = spec.induced()
            subspace, universe = _box_subspace(module, evs, spec.slice_labels("v1"))
            report = closure_check(module, subspace, 4, universe=universe)
            out.append(f"phi(T3/2)={phi_t32}: odd slice {report}")
    elif which == "highorder":
        # T[7/2] = -2[G[3/2], G[2]] acts by zero on every module seed of order 3/2
        spec = derived_pair_spec(3, {L(2): ONE, T(5): ONE}, 0, (4, 2))
        out.append(f"labels: {len(spec.labels())}")
        for u2 in (5, 7):
            out.append(f"conditions at u={format_half(u2)}: {check_conditions(spec, u2)}")
    return out


def _cmd_demo(args) -> int:
    _emit(args, "\n".join(_demo_lines(args.which)) + "\n")
    return PASS


# Every subcommand once: its help line, its handler and its arguments, each
# as argparse's `add_argument` takes it.  `_fast_parse` reads the table for a
# plain command line; `build_parser` makes it into the argparse parser, which
# parses everything else and prints help and usage errors.
ALGEBRA = {"default": "twisted", "choices": ALGEBRAS}
WINDOW = {"type": int, "default": 6}
MAX_WEIGHT = {"default": "2"}
MAX_LENGTH = {"type": int, "default": 3}
SPEC = {"required": True}
OUTPUT = ("--output", {"help": "write the report to a file"})
COMMANDS = {
    "bracket": ("bracket of two linear combinations", _cmd_bracket, [
        ("x", {}), ("y", {}), ("--algebra", ALGEBRA), OUTPUT]),
    "jacobi": ("exhaustive graded Jacobi check", _cmd_jacobi, [
        ("--algebra", ALGEBRA), ("--window", WINDOW), OUTPUT]),
    "act": ("act by a generator word on a basis vector", _cmd_act, [
        ("word", {"help": "e.g. 'L[1] T[-1/2]'"}), ("--spec", SPEC),
        ("--vector", {"default": "{}"}), ("--label", {}), OUTPUT]),
    "reduce": ("reduce a vector into the seed module", _cmd_reduce, [
        ("vector", {"help": "exponent vector, e.g. '{1:1}'"}), ("--spec", SPEC),
        ("--u", {"default": "1/2"}), ("--label", {}), ("--budget", {"type": int}), OUTPUT]),
    "annihilator": ("annihilator space at threshold t", _cmd_annihilator, [
        ("--spec", SPEC), ("--t", {"default": "1/2"}), ("--max-weight", MAX_WEIGHT),
        ("--max-length", MAX_LENGTH), OUTPUT]),
    "enumerate": ("list exponent vectors in a box", _cmd_enumerate, [
        ("--max-weight", MAX_WEIGHT), ("--max-length", MAX_LENGTH), OUTPUT]),
    "closure": ("is a subspace closed under the window?", _cmd_closure, [
        ("--spec", SPEC),
        ("--subspace", {"default": "full", "help": "'full', 'seed:<label>' or 'file:<path>'"}),
        ("--window", WINDOW), ("--max-weight", MAX_WEIGHT), ("--max-length", MAX_LENGTH),
        OUTPUT]),
    "verify": ("run a named verification suite", _cmd_verify, [
        ("suite", {"choices": SUITE_NAMES}), ("--seed", {"type": int}),
        ("--window", {"type": int}), ("--max-weight", {}), ("--max-length", {"type": int}),
        ("--algebra", {"choices": ALGEBRAS}), OUTPUT]),
    "demo": ("narrated worked example", _cmd_demo, [
        ("which", {"choices": ["whittaker", "generalized", "highorder"]}), OUTPUT]),
}


def _fast_parse(argv: list[str]):
    """The namespace argparse gives a plain command line: a known command,
    its positionals in number, and exact long options, each once and each
    followed by a value that does not start with '-', every `int` and choice
    valid, no required option missing.  None for anything else, which
    argparse then parses, answers with help or rejects."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, fn, arguments = COMMANDS[argv[0]]
    specs = dict(arguments)
    positionals = [flag for flag in specs if not flag.startswith("-")]
    given, words = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        value = next(tokens, "-")  # no value left reads as an option: declined
        if token not in specs or token in given or value.startswith("-"):
            return None
        given[token] = value
    if len(words) != len(positionals):
        return None
    given.update(zip(positionals, words))
    values = {"command": argv[0], "fn": fn}
    for flag, kw in specs.items():
        dest = flag.lstrip("-").replace("-", "_")
        if flag not in given:
            if kw.get("required"):
                return None
            values[dest] = kw.get("default")
            continue
        try:
            values[dest] = kw.get("type", str)(given[flag])
        except ValueError:
            return None
        if "choices" in kw and values[dest] not in kw["choices"]:
            return None
    return types.SimpleNamespace(**values)


def build_parser():
    """The argparse parser of `COMMANDS`; it reports a usage error in one
    stderr line, like every other error."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.exit(USAGE, f"error: {message}\n")

    parser = Parser(
        prog="n2sca",
        description="Exact computations in the twisted/untwisted N=2 "
        "superconformal algebras and their induced modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        _stderr(f"error: {exc}")
        return USAGE
    # report after the handler, which frees the frames that filled the heap or stack
    except MemoryError:
        reason = "out of memory"
    except RecursionError:
        reason = "recursion limit reached"
    _stderr(f"inconclusive: {reason}")
    return INCONCLUSIVE


def run() -> None:
    """The `n2sca` process: `main` without the cyclic garbage collector, flush
    stdio, skip finalization (notes/decisions.md)."""
    gc.disable()
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except OSError as exc:  # a reader that closed the pipe
        _stderr(f"error: {exc}")
        code = USAGE
    os._exit(code)


if __name__ == "__main__":
    run()
