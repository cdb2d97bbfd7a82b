"""Byte-level snapshots of the CLI surfaces.

Each entry of CASES is one `n2sca` command line.  The tests run it
in-process, through `python -m n2sca.cli`, and through `main` in a fresh
interpreter that reports the modules it loaded and the reference cycles it
left, and compare its stdout bytes with `tests/golden/<name>.out` and its
exit code with `tests/golden/exit_codes.tsv`.  `brackets.tsv`
holds `str(bracket(x, y))` for every generator pair with |index2| <= 4
in all four presentations.

The goldens are written from this table and nowhere else; after an
intended behaviour change, rerun from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from n2sca.algebra import PRESENTATIONS
from n2sca.cli import ALGEBRAS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"

W, H, TB = (f"tests/golden/{n}.cfg" for n in ("whittaker", "highorder-module", "table-module"))
GEN = "tests/golden/generalized.cfg"

CASES: dict[str, tuple[str, ...]] = {
    # suites at default flags; jacobi and module-axiom at the benchmark's sizes
    "verify-scalars": ("verify", "scalars"),
    "verify-jacobi-w4": ("verify", "jacobi", "--window", "4"),
    "verify-module-axiom-w4": ("verify", "module-axiom", "--window", "4",
                               "--max-weight", "1", "--max-length", "2"),
    "verify-orders": ("verify", "orders"),
    "verify-deg-lemma": ("verify", "deg-lemma"),
    "verify-reduction": ("verify", "reduction"),
    "verify-annihilator": ("verify", "annihilator"),
    "verify-whittaker-identity": ("verify", "whittaker-identity"),
    "verify-substitution": ("verify", "substitution"),
    "verify-psi": ("verify", "psi"),
    "verify-verma-singular": ("verify", "verma-singular"),
    "demo-whittaker": ("demo", "whittaker"),
    "demo-generalized": ("demo", "generalized"),
    "demo-highorder": ("demo", "highorder"),
    "jacobi-twisted": ("jacobi", "--algebra", "twisted", "--window", "4"),
    "jacobi-twisted-pm": ("jacobi", "--algebra", "twisted-pm", "--window", "4"),
    "jacobi-untwisted-pm": ("jacobi", "--algebra", "untwisted-pm", "--window", "4"),
    "jacobi-untwisted-12": ("jacobi", "--algebra", "untwisted-12", "--window", "4"),
    "bracket-twisted": ("bracket", "G[1]", "G[-1/2]"),
    "bracket-untwisted-12": ("bracket", "G1[1/2]", "G2[-1/2]", "--algebra", "untwisted-12"),
    "enumerate-w1/2-l2": ("enumerate", "--max-weight", "1/2", "--max-length", "2"),
    # 1,801 slots walked one after another: the depth does not grow with them
    "enumerate-w600-l0": ("enumerate", "--max-weight", "600", "--max-length", "0"),
    "closure-seed-v1": ("closure", "--spec", GEN, "--subspace", "seed:v1",
                        "--window", "4", "--max-weight", "2", "--max-length", "3"),
    "closure-full": ("closure", "--spec", GEN, "--subspace", "full",
                     "--window", "4", "--max-weight", "2", "--max-length", "3"),
    "act-table-label": ("act", "T[1/2] G[-1/2]", "--spec", TB, "--label", "v1"),
    "reduce-highorder-u7/2": ("reduce", "{1:1,2:1}", "--spec", H, "--u", "7/2"),
    # a long descent, bounded by the box of its starting degree
    "reduce-whittaker-1_12": ("reduce", "{1:12}", "--spec", W),
    # G[0] past 400 letters G[-1/2]: the power rule of one letter
    "act-whittaker-deep400": ("act", "G[0]", "--spec", W, "--vector", "{4:400}"),
    # kernel vectors with irrational coefficients, not single words
    "annihilator-whittaker-irrational": ("annihilator", "--spec",
                                         "tests/golden/whittaker-irrational.cfg",
                                         "--t", "3/2", "--max-weight", "2",
                                         "--max-length", "4"),
    # a subspace read from a file: two of the irrational kernel vectors above
    "closure-file": ("closure", "--spec", "tests/golden/whittaker-irrational.cfg",
                     "--subspace", "file:tests/golden/closure-subspace.vectors",
                     "--window", "2"),
}
for _family, _cfg in (("whittaker", W), ("highorder", H), ("table", TB)):
    CASES[f"act-{_family}"] = ("act", "T[1/2] G[-1/2] L[-1]", "--spec", _cfg,
                               "--vector", "{1:1}")
    CASES[f"reduce-{_family}"] = ("reduce", "{1:1,2:1}", "--spec", _cfg)
    CASES[f"annihilator-{_family}"] = ("annihilator", "--spec", _cfg,
                                       "--max-weight", "1", "--max-length", "2")
# seeds that are not modules: loading them is an input error (exit 2)
for _family in ("highorder", "table"):
    CASES[f"act-{_family}-not-module"] = ("act", "T[1/2] G[-1/2] L[-1]", "--spec",
                                          f"tests/golden/{_family}.cfg", "--vector", "{1:1}")
# every golden case, and one that spends a `reduce --budget` and exits 3; that
# case has no golden, and its in-process run is the reference
PROCESS_ARGV = {**CASES, "reduce-whittaker-budget1": ("reduce", "{1:3}", "--spec", W,
                                                      "--budget", "1")}


# argparse's own text, which only a malformed command line or a request for
# help prints: the help of `n2sca` and of each subcommand (stdout, exit 0,
# `tests/golden/help/<name>.out`) and one usage error of each kind (exit 2 and
# one stderr line, `tests/golden/usage_errors.tsv`).  argparse wraps its help
# at the terminal width, so these run at COLUMNS=80, the width it takes when
# no terminal is attached.
SUBCOMMANDS = ("bracket", "jacobi", "act", "reduce", "annihilator", "enumerate", "closure",
            "verify", "demo")
HELP_CASES: dict[str, tuple[str, ...]] = {
    "n2sca": ("--help",), **{cmd: (cmd, "--help") for cmd in SUBCOMMANDS}}
USAGE_ERRORS: dict[str, tuple[str, ...]] = {
    "unknown-command": ("nosuch",),
    "verify-nosuch": ("verify", "nosuch"),
    "act-no-spec": ("act", "C"),
    "jacobi-window-x": ("jacobi", "--window", "x"),
    "verify-jacobi-bogus": ("verify", "jacobi", "--bogus", "1"),
    # `-1/2` reads as an option, so `--u` has no value
    "reduce-u-expects-one-argument": ("reduce", "{1:1}", "--spec", W, "--u", "-1/2"),
}
HELP_WIDTH = {"COLUMNS": "80"}


def _file_name(name: str) -> str:
    return name.replace("/", "_") + ".out"


def _resolved(argv: tuple[str, ...]) -> list[str]:
    """``argv`` with each golden path, bare or after `file:`, made absolute."""
    return [a.replace("tests/golden/", f"{GOLDEN}/", 1)
            if a.startswith(("tests/golden/", "file:tests/golden/")) else a for a in argv]


def run_case(argv: tuple[str, ...]) -> tuple[bytes, int]:
    """Stdout bytes and exit code of one in-process `n2sca` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_resolved(argv))
    return out.getvalue().encode("utf-8"), code


def run_usage_case(argv: tuple[str, ...]) -> tuple[bytes, bytes, int]:
    """Stdout bytes, stderr bytes and exit code of one in-process `n2sca`
    run at the help width."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, HELP_WIDTH), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(_resolved(argv))
    return out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"), code


def _usage_errors() -> dict[str, tuple[int, bytes]]:
    text = (GOLDEN / "usage_errors.tsv").read_text(encoding="utf-8")
    return {name: (int(code), (line + "\n").encode("utf-8")) for name, code, line in
            (row.split("\t") for row in text.splitlines()[1:])}


def usage_error_table() -> bytes:
    rows = ["case\texit\tstderr"]
    for name in sorted(USAGE_ERRORS):
        _, err, code = run_usage_case(USAGE_ERRORS[name])
        rows.append(f"{name}\t{code}\t{err.decode('utf-8').rstrip()}")
    return ("\n".join(rows) + "\n").encode("utf-8")


def bracket_table() -> bytes:
    lines = ["algebra\tx\ty\tbracket"]
    for name, pres in sorted(PRESENTATIONS.items()):
        gens = pres.generators(4)
        for x in gens:
            for y in gens:
                lines.append(f"{name}\t{x}\t{y}\t{pres.bracket(x, y)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _first_difference(want: bytes, got: bytes) -> str:
    want_lines = want.decode("utf-8").splitlines(keepends=True)
    got_lines = got.decode("utf-8").splitlines(keepends=True)
    for number in range(max(len(want_lines), len(got_lines))):
        w = want_lines[number] if number < len(want_lines) else "<end of output>"
        g = got_lines[number] if number < len(got_lines) else "<end of output>"
        if w != g:
            return f"first difference at line {number + 1}:\n  want {w!r}\n  got  {g!r}"
    return "outputs differ"


def _exit_codes() -> dict[str, int]:
    text = (GOLDEN / "exit_codes.tsv").read_text(encoding="utf-8")
    return {name: int(code) for name, code in
            (line.split("\t") for line in text.splitlines()[1:])}


def process_reference(name: str) -> tuple[bytes, int]:
    """The stdout bytes and exit code that the `PROCESS_ARGV` case ``name`` must give."""
    if name in CASES:
        return (GOLDEN / _file_name(name)).read_bytes(), _exit_codes()[name]
    return run_case(PROCESS_ARGV[name])


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name):
    got, code = run_case(CASES[name])
    want = (GOLDEN / _file_name(name)).read_bytes()
    rerun = (f"rerun from the repository root: {shlex.join(('n2sca',) + CASES[name])}"
             f"\nafter an intended change, regenerate with: {REGENERATE}")
    assert got == want, f"{name}: {_first_difference(want, got)}\n{rerun}"
    assert code == _exit_codes()[name], f"{name}: exit code {code}\n{rerun}"


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_golden(name):
    out, err, code = run_usage_case(HELP_CASES[name])
    want = (GOLDEN / "help" / f"{name}.out").read_bytes()
    assert out == want, f"help of {name}: {_first_difference(want, out)}"
    assert err == b"" and code == 0


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_golden(name):
    out, err, code = run_usage_case(USAGE_ERRORS[name])
    assert out == b"" and err.count(b"\n") == 1 and code == 2
    assert (code, err) == _usage_errors()[name]
    assert sorted(_usage_errors()) == sorted(USAGE_ERRORS)


# Every `PROCESS_ARGV` case also runs in a fresh interpreter, through `main`
# in `CHILD`.  In-process runs cannot catch a missed local import, because
# earlier tests have already loaded every layer.  Only help or a malformed
# command line loads argparse (which loads `gettext`, and `gettext` `locale`),
# so no case may load them (`test_command_makes_no_reference_cycle`, which
# checks every case).  `FRESH_CASES` names, for one case per subcommand, the
# modules that command must not load besides
# (`test_cli_golden_in_a_fresh_interpreter`).  Only a `Fraction` passed
# into or read back from a scalar loads `fractions`.  Only a table,
# generalized or highorder config loads `families`, and only a non-default
# `--algebra` loads `suites` for a bracket; the act-table, act-highorder and
# bracket-untwisted-12 cases run that code through those lazy imports.
LAYERS = {f"n2sca.{name}" for name in ("engine", "modules", "orders", "theorems", "linalg",
                                       "families", "transport")}
ARGPARSE = {"argparse", "gettext", "locale"}
FRESH_CASES = {name: ARGPARSE | forbidden for name, forbidden in {
    "verify-jacobi-w4": LAYERS | {"inspect", "fractions"},
    # its suite lives in `modules`, beside the check it runs
    "verify-module-axiom-w4": {"inspect", "n2sca.theorems", "n2sca.linalg", "n2sca.suites",
                               "n2sca.families", "fractions"},
    "jacobi-twisted": LAYERS | {"inspect", "fractions"},
    "bracket-twisted": LAYERS | {"n2sca.suites", "inspect", "fractions"},
    "bracket-untwisted-12": LAYERS | {"inspect", "fractions"},
    "act-whittaker": {"n2sca.theorems", "n2sca.linalg", "n2sca.suites", "n2sca.families",
                      "fractions"},
    "act-table": {"n2sca.theorems", "n2sca.linalg", "n2sca.suites", "fractions"},
    "act-highorder": {"n2sca.theorems", "n2sca.linalg", "n2sca.suites", "fractions"},
    "reduce-whittaker": {"n2sca.families"},
    "annihilator-whittaker": {"n2sca.suites", "n2sca.families", "fractions"},
    "closure-full": set(),
    "demo-generalized": set(),
    # no derived pair: `families` is imported by the other two demos only
    "demo-whittaker": {"n2sca.families", "n2sca.suites", "n2sca.transport", "fractions"},
}.items()}
# The child runs the command as `cli.run` does, with the cyclic collector off
# from the first lazy import to the exit.  No command makes a reference cycle,
# which is why `cli.run` turns the collector off, so `gc.collect()` after the
# command must find nothing.  After the command's own stderr the child writes
# two lines: the modules loaded, and the count that `gc.collect()` returns.
CHILD = ("import gc, sys; from n2sca.cli import main; gc.collect(); gc.disable(); "
         "code = main(sys.argv[1:]); sys.stdout.flush(); "
         "sys.stderr.write(' '.join(sorted(sys.modules)) + '\\n'); "
         "sys.stderr.write(f'{gc.collect()}\\n'); sys.exit(code)")


def run_child(argv: tuple[str, ...], **env: str) -> tuple[bytes, bytes, int, frozenset[str], int]:
    """``argv`` through `CHILD`, ``env`` added to the environment: its stdout,
    its own stderr, its exit code, the modules it loaded and its garbage count."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *_resolved(argv)],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                                   PYTHONIOENCODING="utf-8", **env),
                          capture_output=True, timeout=120)
    *own, loaded, garbage = proc.stderr.decode("utf-8").splitlines(keepends=True)
    return (proc.stdout, "".join(own).encode("utf-8"), proc.returncode,
            frozenset(loaded.split()), int(garbage))


def run_fresh(name: str, **env: str) -> tuple[bytes, frozenset[str], int]:
    """The `PROCESS_ARGV` case ``name`` through `run_child`, whose stdout and
    exit code must be those of `process_reference`; the rest of what it returns."""
    out, err, code, loaded, garbage = run_child(PROCESS_ARGV[name], **env)
    want, want_code = process_reference(name)
    assert out == want, f"{name}: {_first_difference(want, out)}"
    assert code == want_code, f"{name}: exit code {code}, want {want_code}"
    return err, loaded, garbage


@functools.cache
def fresh_report(name: str) -> tuple[bytes, frozenset[str], int]:
    """`run_fresh` of ``name`` in the plain environment, run once for both tests below."""
    return run_fresh(name)


@pytest.mark.parametrize("name", sorted(FRESH_CASES))
def test_cli_golden_in_a_fresh_interpreter(name):
    _, loaded, _ = fresh_report(name)
    assert "n2sca.cli" in loaded
    forbidden = loaded & FRESH_CASES[name]
    assert not forbidden, f"{name} loads {sorted(forbidden)}"


@pytest.mark.parametrize("name", sorted(PROCESS_ARGV))
def test_command_makes_no_reference_cycle(name):
    err, loaded, garbage = fresh_report(name)
    assert err.count(b"\n") <= 1, err
    assert not loaded & ARGPARSE, f"{name} loads {sorted(loaded & ARGPARSE)}"
    assert garbage == 0, f"{name} leaves {garbage} objects in reference cycles"


# help and a usage error take the argparse parser, and print in a fresh
# interpreter what they print in-process, which the tests above pin
@pytest.mark.parametrize("argv", [HELP_CASES["act"], USAGE_ERRORS["verify-nosuch"]],
                         ids=" ".join)
def test_argparse_fallback_in_a_fresh_interpreter(argv):
    out, err, code, loaded, _ = run_child(argv, **HELP_WIDTH)
    assert (out, err, code) == run_usage_case(argv)
    assert ARGPARSE <= loaded


# The iteration order of a set of strings follows the string hash seed, and
# that of a set of exponent vectors their addresses, which differ from one
# process to the next; no output may.  The first three cases run over the
# labels, words or slices of an induced seed; the reduction's support sets and
# the annihilator's elimination run over many words.
@pytest.mark.parametrize("hash_seed", ["1", "12345"])
@pytest.mark.parametrize("name", ["closure-seed-v1", "annihilator-highorder", "demo-generalized",
                                  "reduce-whittaker-1_12",
                                  "annihilator-whittaker-irrational"])
def test_cli_golden_under_a_hash_seed(name, hash_seed):
    run_fresh(name, PYTHONHASHSEED=hash_seed)


# The process path: `python -m n2sca.cli` runs `cli.run`, which flushes stdout
# and stderr and leaves by os._exit.  The children write to a pipe with
# buffered stdout, so a report reaches it only through that flush.  Every
# `PROCESS_ARGV` case runs this way, against `process_reference`.
def run_process(argv: tuple[str, ...], unbuffered: bool = False, **kwargs):
    """``argv`` through `python -m n2sca.cli`; ``kwargs`` go to `subprocess.Popen`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.Popen([sys.executable, "-m", "n2sca.cli", *_resolved(argv)],
                            env=env, **kwargs)


def _finished(proc: subprocess.Popen) -> tuple[bytes, bytes]:
    """Stdout and stderr of ``proc``; its stderr holds at most one line, and no traceback."""
    out, err = proc.communicate(timeout=120)
    assert err.count(b"\n") <= 1 and b"Traceback" not in err, err
    return out, err


def test_process_cases_take_every_exit_code():
    assert {process_reference(name)[1] for name in PROCESS_ARGV} == {0, 1, 2, 3}


@pytest.mark.parametrize("name", sorted(PROCESS_ARGV))
def test_process_exit_code_and_output(name):
    want, code = process_reference(name)
    proc = run_process(PROCESS_ARGV[name])
    out, err = _finished(proc)
    assert out == want, f"{name}: {_first_difference(want, out)}"
    assert proc.returncode == code, f"{name}: exit code {proc.returncode}, want {code}"
    assert (err == b"") == (code in (0, 1)), err  # exits 2 and 3 say why


def test_process_writes_to_output_with_stdout_closed(tmp_path):
    path = tmp_path / "deep400.out"
    proc = run_process(CASES["act-whittaker-deep400"] + ("--output", str(path)),
                       stdout=None, preexec_fn=lambda: os.close(1))
    assert _finished(proc) == (None, b"") and proc.returncode == 0
    assert path.read_bytes() == (GOLDEN / "act-whittaker-deep400.out").read_bytes()


def test_process_with_stdout_closed_is_an_error():
    proc = run_process(CASES["verify-jacobi-w4"], stdout=None,
                       preexec_fn=lambda: os.close(1))
    _, err = _finished(proc)
    assert proc.returncode == 2
    assert err == b"error: standard output is closed; name a file with --output\n"


@pytest.mark.parametrize("name", ["act-highorder-not-module", "reduce-whittaker-budget1"])
def test_process_with_stderr_closed_keeps_its_exit_code(name):
    # the line that says why has nowhere to go; the exit code still says it
    want, code = process_reference(name)
    proc = run_process(PROCESS_ARGV[name], stderr=None, preexec_fn=lambda: os.close(2))
    out, _ = proc.communicate(timeout=120)
    assert code in (2, 3) and out == want and proc.returncode == code


# The short report fails at the final flush when stdout is buffered, and in
# its write when it is not; the long one fails in its write either way.
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("name", ["bracket-twisted", "act-whittaker-deep400"])
def test_process_reader_closed_the_pipe(name, unbuffered):
    proc = run_process(CASES[name], unbuffered)
    proc.stdout.close()  # long before the child starts writing
    _, err = _finished(proc)
    assert proc.returncode == 2 and err == b"error: [Errno 32] Broken pipe\n"


def test_algebra_names_are_the_presentations():
    # the CLI lists them without loading `suites`, which defines three of them
    assert ALGEBRAS == tuple(sorted(PRESENTATIONS))


def test_bracket_golden():
    want = (GOLDEN / "brackets.tsv").read_bytes()
    got = bracket_table()
    assert got == want, (f"brackets.tsv: {_first_difference(want, got)}\n"
                         f"after an intended change, regenerate with: {REGENERATE}")


def regenerate() -> None:
    codes = ["case\texit"]
    for name in sorted(CASES):
        out, code = run_case(CASES[name])
        (GOLDEN / _file_name(name)).write_bytes(out)
        codes.append(f"{name}\t{code}")
    (GOLDEN / "exit_codes.tsv").write_bytes(("\n".join(codes) + "\n").encode("utf-8"))
    (GOLDEN / "brackets.tsv").write_bytes(bracket_table())
    (GOLDEN / "help").mkdir(exist_ok=True)
    for name, argv in HELP_CASES.items():
        (GOLDEN / "help" / f"{name}.out").write_bytes(run_usage_case(argv)[0])
    (GOLDEN / "usage_errors.tsv").write_bytes(usage_error_table())


if __name__ == "__main__":
    regenerate()
