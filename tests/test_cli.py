import contextlib
import gc
import hashlib
import inspect
import io
import os
import random
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from n2sca import cli, modules, suites
from n2sca.cli import FAIL, INCONCLUSIVE, PASS, SUITE_NAMES, USAGE, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.fixture()
def whittaker_cfg(tmp_path):
    path = tmp_path / "whittaker.cfg"
    path.write_text("family = whittaker\nlambda = 1\nc = 0\n")
    return str(path)


@pytest.fixture()
def generalized_cfg(tmp_path):
    path = tmp_path / "generalized.cfg"
    path.write_text(
        "family = generalized\nphi.L1 = 1\nphi.T3/2 = 1\nc = 0\n"
        "max_weight = 2\nmax_length = 3\n"
    )
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


OUT_OF_RANGE_ARGV = [
    # a negative window holds no indexed generator, so no verdict at all
    ["jacobi", "--window", "-3"],
    ["verify", "jacobi", "--window", "-1"],
    ["verify", "module-axiom", "--window", "-1"],
    ["closure", "--spec", "{cfg}", "--window", "-1"],
    # Lu[1] belongs to the untwisted algebra, not the module's
    ["act", "Lu[1]", "--spec", "{cfg}"],
    ["act", "Lu[1]", "--spec", "{cfg}", "--vector", "{1:1}"],
    # argparse's own usage errors are one line too
    ["act", "C", "--spec", "{cfg}", "--label", "-x"],
    ["verify", "nosuch"],
    ["act", "C"],
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE_ARGV)
def test_out_of_range_input_exit_code(argv, whittaker_cfg, capsys):
    code = main([a.replace("{cfg}", whittaker_cfg) for a in argv])
    captured = capsys.readouterr()
    assert code == USAGE
    assert captured.out == "" and captured.err.count("\n") == 1


INVALID_ARGUMENTS = [
    # the annihilator threshold t must be positive and half-odd; an integer is no input
    (["annihilator", "--spec", "{cfg}", "--t", "1"],
     "t must be a positive half-odd integer"),
    (["annihilator", "--spec", "{cfg}", "--t", "0"],
     "t must be a positive half-odd integer"),
    # a negative step budget is not an exhausted one
    (["reduce", "{1:1}", "--spec", "{cfg}", "--budget", "-1"], "budget"),
    (["reduce", "{}", "--spec", "{cfg}", "--budget", "-1"], "budget"),
    # window 0 holds no positive generator to draw an x from
    (["verify", "whittaker-identity", "--window", "0"], "holds no positive generator"),
    # T^(t) is defined for t in 1/2 + Z_+ only; `--t -1/2` would be a missing value
    (["annihilator", "--spec", "{cfg}", "--t=-1/2"],
     "t must be a positive half-odd integer, got -1/2"),
    # a box of the empty word alone holds no word to draw a start vector from
    (["verify", "reduction", "--max-length", "0"], "holds only the empty word"),
    # a trailing sign leaves an empty term, which is not read as no term
    (["bracket", "L[1] -", "T[1/2]"], "empty term"),
    # the retired demo
    (["demo", "b-t0"], "argument which: invalid choice: 'b-t0'"),
]


@pytest.mark.parametrize("argv, names", INVALID_ARGUMENTS)
def test_invalid_argument_exit_code(argv, names, whittaker_cfg, capsys):
    code = main([a.replace("{cfg}", whittaker_cfg) for a in argv])
    captured = capsys.readouterr()
    assert code == USAGE
    assert captured.out == "" and captured.err.count("\n") == 1
    assert names in captured.err


def test_whittaker_identity_at_the_smallest_window_passes(capsys):
    # window 1 holds the positive generators T[1/2] and G[1/2]
    code, out = run(["verify", "whittaker-identity", "--window", "1"], capsys)
    assert code == PASS and "x=G[1/2]" in out and "x=T[1/2]" in out


DIRECTORY_PATH_ARGV = [
    ["act", "G[0]", "--spec", "{dir}"],
    ["enumerate", "--output", "{dir}"],
    ["closure", "--spec", "{cfg}", "--subspace", "file:{dir}"],
]


@pytest.mark.parametrize("argv", DIRECTORY_PATH_ARGV)
def test_directory_path_exit_code(argv, whittaker_cfg, tmp_path, capsys):
    # a directory where a file is expected is an input error, not a crash
    code = main([a.replace("{cfg}", whittaker_cfg).replace("{dir}", str(tmp_path))
                 for a in argv])
    captured = capsys.readouterr()
    assert code == USAGE
    assert captured.out == "" and captured.err.count("\n") == 1


@pytest.mark.parametrize("vector, u", [("{}", "1"), ("{}", "0"), ("{1:1}", "1")])
def test_u_checked_whatever_the_start_vector(vector, u, whittaker_cfg, capsys):
    # u is rejected before the reduction looks at the start vector
    code = main(["reduce", vector, "--spec", whittaker_cfg, "--u", u])
    captured = capsys.readouterr()
    assert code == USAGE
    assert captured.out == ""
    assert captured.err == "error: u must be a positive half-odd integer\n"


def test_long_reduction_finishes(whittaker_cfg, capsys):
    # the descent is bounded by the box of its starting degree, which the
    # default run checks step by step instead of counting its vectors
    for vector, steps in (("{1:40}", 40), ("{9:300}", 300)):
        code = main(["reduce", vector, "--spec", whittaker_cfg])
        lines = capsys.readouterr().out.splitlines()
        assert code == PASS
        assert len(lines) == steps + 2 and lines[-1].startswith("terminal\t")


def test_step_leaving_its_box_is_inconclusive(monkeypatch, capsys):
    from n2sca import cli
    from n2sca.engine import InducedModule
    from n2sca.orders import ExponentVector

    class Leaving(InducedModule):
        """Every act lands on G[0]^5: weight 0 descends from w{3:1}, of
        weight 3/2, but length 5 leaves its box (length at most 1 + 3)."""

        def act(self, gen, v):
            return self.basis_vector(ExponentVector([(2, 5)]))

    spec = modules.whittaker_spec(1, 0)
    stub = Leaving(spec.induced().letters, spec)
    monkeypatch.setattr(cli, "_load_module", lambda path: (stub, spec))
    code = main(["reduce", "{3:1}", "--spec", "unused.cfg"])
    captured = capsys.readouterr()
    assert code == INCONCLUSIVE
    assert captured.out == "start\tw{3:1}⊗v0\n"  # the partial trace, no step
    assert captured.err == ("inconclusive: overshoot step L[2] left the box "
                            "(weight <= 3/2, length <= 4): {3:1} -> {2:5}\n")


class TestBracket:
    def test_spec_example(self, capsys):
        code, out = run(["bracket", "G[1]", "G[-1/2]"], capsys)
        assert code == PASS
        assert out == "-3/2*T[1/2]\n"

    def test_untwisted_basis_flag(self, capsys):
        code, out = run(
            ["bracket", "G1[1/2]", "G2[-1/2]", "--algebra", "untwisted-12"], capsys
        )
        assert code == PASS and out == "-i*J[0]\n"

    def test_parse_error_exit_code(self, capsys):
        code, _ = run(["bracket", "G[1", "G[-1/2]"], capsys)
        assert code == USAGE

    @pytest.mark.parametrize("x, y", [("G[1]", "1/0*G[2]"), ("G[1/0]", "G[1]")])
    def test_zero_denominator_exit_code(self, x, y, capsys):
        code = main(["bracket", x, y])
        err = capsys.readouterr().err
        assert code == USAGE
        assert err.count("\n") == 1 and "zero denominator" in err

    @pytest.mark.parametrize(
        "x", ["L[1e999999]", "L[1e9999999]", "T[0.5]", "L[1_0]", "L[" + "9" * 5000 + "]"],
        ids=["exponent", "long-exponent", "decimal", "underscore", "5000-digits"])
    def test_index_outside_the_grammar_is_a_fast_parse_error(self, x, capsys):
        start = time.perf_counter()
        code = main(["bracket", x, "L[1]"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == USAGE and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert elapsed < 0.25

    @pytest.mark.parametrize("x", ["(" * 2000 + "1" + ")" * 2000 + "*L[1]", "-" * 3000 + "L[1]"],
                             ids=["2000-parentheses", "3000-minus-signs"])
    def test_deep_coefficient_is_a_parse_error(self, x, capsys):
        code = main(["bracket", "--", x, "L[-1]"])
        captured = capsys.readouterr()
        assert code == USAGE and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_wrong_basis_exit_code(self, capsys):
        code, _ = run(["bracket", "G1[1/2]", "G1[-1/2]"], capsys)
        assert code == USAGE  # G1 is not in the twisted presentation


class TestJacobi:
    def test_twisted_passes(self, capsys):
        code, out = run(["jacobi", "--algebra", "twisted", "--window", "4"], capsys)
        assert code == PASS and "all pass" in out


class TestActReduce:
    def test_act(self, whittaker_cfg, capsys):
        code, out = run(
            ["act", "L[1] T[-1/2]", "--spec", whittaker_cfg, "--vector", "{}"],
            capsys,
        )
        assert code == PASS
        assert out == "1/2*w{}⊗v0\n"

    def test_reduce_spec_example(self, whittaker_cfg, capsys):
        code, out = run(
            ["reduce", "{1:1}", "--spec", whittaker_cfg, "--u", "1/2"], capsys
        )
        assert code == PASS
        lines = out.strip().splitlines()
        assert len(lines) == 3  # start, one step, terminal
        assert lines[-1] == "terminal\t1/2*w{}⊗v0"

    def test_missing_spec_file(self, capsys):
        code, _ = run(["reduce", "{1:1}", "--spec", "/nonexistent.cfg"], capsys)
        assert code == USAGE

    @pytest.mark.parametrize("budget", ["1", "0"])
    def test_budget_exhaustion_is_inconclusive(self, whittaker_cfg, budget, capsys):
        code = main(["reduce", "{1:3,2:2}", "--spec", whittaker_cfg,
                     "--budget", budget])
        captured = capsys.readouterr()
        assert code == INCONCLUSIVE
        lines = captured.out.splitlines()
        assert lines[0] == "start\tw{1:3,2:2}⊗v0"
        assert len(lines) == 1 + int(budget)  # the partial trace, no terminal
        assert captured.err.count("\n") == 1 and "budget" in captured.err

    @pytest.mark.parametrize("config", [
        "family = table\nlabels = v0\nact..v0 = 1*v0\n",
        "family = highorder\ns = 3/2\nphi. = 1\n",
        "family = table\nlabels = v0\nact.T1/2.v0 = 1*v7\n",
        "family = table\nlabels = v0\nact.T1/2.v7 = 1*v0\n",
        "family = table\nlabels = v0\nact.T1/2 = 1*v0\n",
        "family = highorder\ns = 3/2\nphi.T7/2 = 1\nmax_length = -1\n",
    ])
    def test_config_error_exit_code(self, config, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(config)
        code = main(["act", "T[1/2]", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == USAGE
        assert captured.out == "" and captured.err.count("\n") == 1

    def test_verma_is_not_a_config_family(self, tmp_path, capsys):
        # `verify verma-singular` builds the Verma module; no config loads it
        path = tmp_path / "verma.cfg"
        path.write_text("family = verma\n")
        code = main(["act", "T[1/2]", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == USAGE and captured.out == ""
        assert captured.err == "error: unknown family 'verma'\n"

    @pytest.mark.parametrize("config, err", [
        # the order-s checks in their order: s, where phi lives, phi != 0
        ("s = 1\n", "s must be a positive half-odd integer"),
        ("s = -1/2\nphi.T1/2 = 1\n", "s must be a positive half-odd integer"),
        ("s = 3/2\nphi.T1/2 = 1\n", "T[1/2] lies outside T^(3/2)"),
        ("s = 3/2\nphi.L2 = 0\nphi.T5/2 = 0\n", "the character must be non-trivial"),
        # a zero value lies nowhere, and the character comes before the box
        ("s = 3/2\nphi.T1/2 = 0\nmax_length = -1\n", "the character must be non-trivial"),
    ])
    def test_highorder_config_errors_in_order(self, config, err, tmp_path, capsys):
        path = tmp_path / "highorder.cfg"
        path.write_text("family = highorder\n" + config)
        code = main(["act", "T[1/2]", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == USAGE and captured.out == ""
        assert captured.err == f"error: {err}\n"

    def test_generalized_takes_a_zero_character(self, tmp_path, capsys):
        path = tmp_path / "generalized.cfg"
        path.write_text("family = generalized\nphi.L1 = 0\nphi.T3/2 = 0\n")
        code = main(["act", "T[1/2]", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == PASS and captured.err == ""
        assert captured.out == "w{}⊗T[1/2].v0\n"

    @pytest.mark.parametrize("label, value, expected", [
        ("v0", "(1 + i)*v0", "(1 + i)*w{}⊗v0"),
        ("v1", "v1 - v0", "w{}⊗v1 - w{}⊗v0"),
        ("v0", "1*v0 + 1*v0", "2*w{}⊗v0"),
    ])
    def test_table_actions_use_the_combination_grammar(self, label, value, expected,
                                                       tmp_path, capsys):
        path = tmp_path / "table.cfg"
        path.write_text(f"family = table\nlabels = v0, v1\nact.T1/2.{label} = {value}\n")
        code = main(["act", "T[1/2]", "--spec", str(path), "--label", label])
        captured = capsys.readouterr()
        assert code == PASS and captured.err == ""
        assert captured.out == expected + "\n"

    @pytest.mark.parametrize("exponent", ["x", "-1", "", "0"])
    def test_label_exponent_must_be_a_natural_number(self, exponent, tmp_path, capsys):
        # T[1/2] is an even letter of the generalized seed
        path = tmp_path / "generalized.cfg"
        path.write_text("family = generalized\nphi.L1 = 1\nphi.T3/2 = 1\n")
        label = f"T[1/2]^{exponent}.v0"
        code = main(["act", "T[1/2]", "--spec", str(path), "--label", label])
        captured = capsys.readouterr()
        assert code == USAGE and captured.out == ""
        assert captured.err == (f"error: label {label!r}: exponent {exponent!r} "
                                "of T[1/2] is not a natural number\n")

    @staticmethod
    def fresh_act_digest(cfg, vector):
        """SHA-256 of the stdout of `act G[0]` on one vector, run in a fresh
        interpreter at the default recursion limit, which must exit 0.  The
        tests compare it with the digest of the output of the one-step
        recursion, which filled the memo for every lower power first."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "n2sca.cli", "act", "G[0]",
             "--spec", os.path.join(GOLDEN, cfg), "--vector", vector],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120,
        )
        assert proc.returncode == PASS and proc.stderr == b""
        return hashlib.sha256(proc.stdout).hexdigest()

    def test_deep_act_keeps_the_stack_shallow(self):
        # G[0] passes 500 letters G[-1/2] at once, by the power rule of one
        # letter: no word for a lower power is built, and the recursion depth
        # does not grow with the exponent
        assert self.fresh_act_digest("whittaker.cfg", "{4:500}") == (
            "9703494168e438832eea83e2589b6d5ae14f604595c2782e70c138bc9c0cb146")

    def test_deep_act_over_an_induced_seed(self):
        # the generalized seed is an induced seed, which acts exactly, so G[0]
        # passes 200 letters by the power rule too; the digest is that of the
        # one-step recursion, which filled the memo for every lower power first
        assert self.fresh_act_digest("generalized.cfg", "{4:200}") == (
            "cf81486ed0bf3adf83bcc42f3eb64c77727f28574dac7520f47cc53b446fde1d")

    def test_truncation_exit_code(self, generalized_cfg, capsys):
        # pushing the seed's polynomial layer past the box of its listed
        # labels gives the exact image
        code, out = run(
            ["act", "T[1/2]", "--spec", generalized_cfg,
             "--label", "T[1/2]^3.v0"],
            capsys,
        )
        assert (code, out) == (PASS, "w{}⊗T[1/2]^4.v0\n")

    def test_truncation_names_the_seed_act(self, capsys):
        # the image of the seed act has length 4, past the box (2, 3) of the
        # seed's listed labels; the seed acts exactly and names it
        code = main(["act", "G[1/2]", "--spec", os.path.join(GOLDEN, "generalized.cfg"),
                     "--label", "T[1/2]^3.v0"])
        captured = capsys.readouterr()
        assert code == PASS and captured.err == ""
        assert captured.out == "w{}⊗G[1/2]*T[1/2]^3.v0\n"


# the seeds of highorder.cfg and table.cfg are not modules: the first
# failing row of the module axiom, [x, y] on a label, is the one error line
NOT_MODULES = {
    "highorder.cfg": "the highorder[s=3/2] seed is not a module: "
                     "[G[3/2],G[2]] breaks the module axiom on v0",
    "table.cfg": "the table seed is not a module: [L[2],T[1/2]] breaks the module axiom on v0",
}


NOT_A_MODULE_ARGV = [
    ["act", "T[1/2]"], ["reduce", "{1:1}"], ["reduce", "{3:1}"], ["annihilator"],
    ["closure", "--window", "2"],
]


@pytest.mark.parametrize("config", sorted(NOT_MODULES))
@pytest.mark.parametrize("argv", NOT_A_MODULE_ARGV, ids=" ".join)
def test_seed_that_is_not_a_module_exit_code(argv, config, capsys):
    code = main(argv + ["--spec", os.path.join(GOLDEN, config)])
    captured = capsys.readouterr()
    assert code == USAGE and captured.out == ""
    assert captured.err == f"error: {NOT_MODULES[config]}\n"


@pytest.mark.parametrize("entry", ["act.L0.v0 = 2*v0", "act.T-1/2.v0 = 5*v0"])
def test_table_entry_that_never_reaches_the_seed_exit_code(entry, tmp_path, capsys):
    # L[0] has degree 0 and T[-1/2] is a letter: the entry would be ignored
    path = tmp_path / "table.cfg"
    path.write_text(f"family = table\nlabels = v0\n{entry}\n")
    code = main(["act", "T[-1/2]", "--spec", str(path)])
    captured = capsys.readouterr()
    gen = "L[0]" if "L0" in entry else "T[-1/2]"
    assert code == USAGE and captured.out == ""
    assert captured.err == (f"error: the table seed lists {gen} on v0, but only "
                            "generators of positive degree act on it\n")


# a key that the family does not read, a repeated key or generator, a
# repeated label, and a parity off the labels or off 0 and 1
@pytest.mark.parametrize("config, err", [
    ("family = whittaker\nlambda = 1\nC = 5\n", "config key 'C' is not read by its family"),
    # the retired family, whose module the config of its inner seed builds
    ("family = b_t0\ninner.family = whittaker\ninner.lambda = 1\nmax_g0 = 3\n",
     "unknown family 'b_t0'"),
    ("family = whittaker\nlambda = 1\nlambda = 2\n", "config repeats the key 'lambda'"),
    ("family = generalized\nphi.L1 = 1\nphi.T3_2 = 1\n",
     "'T3_2': '3_2' is not of the form m or p/q"),
    ("family = table\nlabels = v0,v0\n", "label 'v0' is declared twice"),
    # T1/2 and T2/4 spell one generator, as L2 and L4/2 do
    ("family = table\nact.T1/2.v0 = 2*v0\nact.T2/4.v0 = 3*v0\n",
     "config key 'act.T2/4.v0' gives T[1/2] on v0 again"),
    ("family = generalized\nphi.L2 = 1\nphi.L4/2 = 0\n", "config key 'phi.L4/2' gives L[2] again"),
    ("family = table\nlabels = v0,v1\nparity.w1 = 1\n",
     "parity 1 on 'w1' is not 0 or 1 on a declared label"),
    ("family = table\nlabels = v0,v1\nparity.v1 = 7\n",
     "parity 7 on 'v1' is not 0 or 1 on a declared label"),
])
def test_config_key_or_label_read_once_exit_code(config, err, tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text(config)
    code = main(["act", "T[1/2]", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == USAGE and captured.out == ""
    assert captured.err == f"error: {err}\n"


# an empty value given on purpose is a value: an empty label names no label
# (each seed here has more than one, so a fall back to the first would show;
# reduce takes generalized.cfg, whose conditions hold at u = 3/2) and an empty
# --output names no file
TABLE = os.path.join(GOLDEN, "table-module.cfg")


EMPTY_VALUES = [
    (["act", "T[1/2]", "--spec", TABLE, "--label", ""], "unknown label ''"),
    (["reduce", "{1:1}", "--spec", os.path.join(GOLDEN, "generalized.cfg"), "--u", "3/2",
      "--label", ""], "unknown label ''"),
] + [(argv + ["--output", ""], "[Errno 2] No such file or directory: ''") for argv in (
    ["bracket", "L[1]", "L[-1]"],
    ["jacobi", "--window", "1"],
    ["act", "T[1/2]", "--spec", TABLE],
    ["reduce", "{1:1}", "--spec", os.path.join(GOLDEN, "whittaker.cfg")],
    ["annihilator", "--spec", TABLE, "--max-weight", "0", "--max-length", "0"],
    ["enumerate", "--max-weight", "0", "--max-length", "0"],
    ["closure", "--spec", TABLE, "--window", "1", "--max-weight", "0", "--max-length", "0"],
    ["verify", "psi", "--window", "1"],
    ["demo", "whittaker"],
)]


@pytest.mark.parametrize("argv, err", EMPTY_VALUES)
def test_empty_value_is_not_absent(argv, err, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == USAGE and captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_help_is_unchanged(capsys):
    code = main(["act", "--help"])
    captured = capsys.readouterr()
    assert code == PASS and captured.err == ""
    assert captured.out.startswith("usage: n2sca act [-h] --spec SPEC")


def test_step_that_fails_to_descend_exit_code(monkeypatch, tmp_path, capsys):
    # table.cfg's table built without the loader: its overshoot step from
    # {3:1} does not descend, which is a failed check, not a crash
    from test_theorems import table_cfg_seed

    monkeypatch.setattr(modules, "load_spec_config", lambda text: table_cfg_seed())
    path = tmp_path / "any.cfg"
    path.write_text("")
    code = main(["reduce", "{3:1}", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == FAIL
    assert captured.out == "start\tw{3:1}⊗v0\n"
    assert captured.err == "check failed: overshoot step failed to descend: {3:1} -> {3:1}\n"


def test_affine_step_that_annihilates_exit_code(monkeypatch, capsys):
    from test_theorems import annihilating_affine_module

    module = annihilating_affine_module()
    monkeypatch.setattr(cli, "_load_module", lambda path: (module, module.seed))
    code = main(["reduce", "{2:2}", "--spec", "unused.cfg"])
    captured = capsys.readouterr()
    assert code == FAIL
    assert captured.out == "start\tw{2:2}⊗v0\n"
    assert captured.err == "check failed: affine step annihilated the vector at deg {2:2}\n"


@pytest.mark.parametrize("label, expected", [
    ("v1", (PASS, "closure: closed; 228 cases, 106 projected\n")),
    ("v0", (FAIL, "closure: not closed (witness L[1]); 38 cases, 34 projected\n")),
])
def test_closure_over_a_table_seed_slice(label, expected, capsys):
    # a table seed's slice over a label is that one label
    assert run(["closure", "--spec", os.path.join(GOLDEN, "table-module.cfg"),
                "--subspace", f"seed:{label}", "--window", "4", "--max-weight", "1",
                "--max-length", "2"], capsys) == expected


@pytest.mark.parametrize("config", ["table-module.cfg", "generalized.cfg"])
def test_closure_over_an_unknown_seed_label_exit_code(config, capsys):
    code = main(["closure", "--spec", os.path.join(GOLDEN, config), "--subspace", "seed:v9",
                 "--window", "4", "--max-weight", "1", "--max-length", "2"])
    captured = capsys.readouterr()
    assert code == USAGE and captured.out == ""
    assert captured.err == "error: unknown label 'v9'\n"


@pytest.mark.parametrize("config", [
    "family = generalized\nphi.L1 = 1\nphi.T3/2 = 1\nmax_length = -1\n",
    "family = highorder\ns = 3/2\nphi.L2 = 1\nphi.T5/2 = 1\nmax_weight = -1\n",
])
def test_negative_label_box_exit_code(config, tmp_path, capsys):
    # a negative bound would list the empty word alone; every induced seed
    # rejects it with the same line
    path = tmp_path / "box.cfg"
    path.write_text(config)
    code = main(["act", "C", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == USAGE and captured.out == ""
    assert captured.err == "error: the label box must be nonnegative\n"


# one seed config per family
FAMILY_CONFIGS = {
    "whittaker": "family = whittaker\nlambda = 1\n",
    "generalized": "family = generalized\nphi.L1 = 1\nphi.T3/2 = 1\nmax_weight = 2\n",
    "highorder": "family = highorder\ns = 3/2\nphi.L2 = 1\nphi.T5/2 = 1\n",
    "table": "family = table\nlabels = v0,v1\nparity.v1 = 1\nact.G1/2.v0 = 1*v1\n",
}
LABEL_TEXTS = st.one_of(
    st.lists(st.sampled_from(["v0", "v1", "v9", ".", "*", "^", "^2", "^x", "^-1", "G[1/2]",
                              "G[0]", "T[1/2]", "L[1]", "G[3/2]", "T[3/2]", "w{}", "1", "",
                              " ", "9" * 30]), max_size=6).map("".join),
    st.text(alphabet="01239/-+*^.[]{}:,vwGLTC ", max_size=12),
)


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
@settings(max_examples=60, deadline=None)
@given(text=LABEL_TEXTS)
def test_label_text_is_a_label_or_an_input_error(family, text, tmp_path_factory):
    # the central element acts by the charge, so every parsed label acts
    path = tmp_path_factory.getbasetemp() / f"{family}.cfg"
    path.write_text(FAMILY_CONFIGS[family])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["act", "C", "--spec", str(path), f"--label={text}"])
    assert code in (PASS, USAGE), err.getvalue()
    assert err.getvalue().count("\n") == (code == USAGE)
    assert out.getvalue().count("\n") == (code == PASS)


class TestAnnihilatorEnumerate:
    def test_annihilator_lists_kernel(self, whittaker_cfg, capsys):
        code, out = run(
            ["annihilator", "--spec", whittaker_cfg, "--t", "1/2",
             "--max-weight", "1", "--max-length", "2"],
            capsys,
        )
        assert code == PASS
        assert "w{}⊗v0" in out and "w{2:2}⊗v0" in out

    def test_enumerate(self, capsys):
        code, out = run(
            ["enumerate", "--max-weight", "0", "--max-length", "3"], capsys
        )
        assert code == PASS
        assert out.splitlines() == ["{2:3}", "{2:2}", "{2:1}", "{}"]


class TestClosure:
    def test_dichotomy_exit_codes(self, tmp_path, capsys):
        closed = tmp_path / "closed.cfg"
        closed.write_text(
            "family = generalized\nphi.L1 = 1\nphi.T3/2 = 0\nc = 0\n"
            "max_weight = 2\nmax_length = 3\n"
        )
        open_cfg = tmp_path / "open.cfg"
        open_cfg.write_text(
            "family = generalized\nphi.L1 = 1\nphi.T3/2 = 1\nc = 0\n"
            "max_weight = 2\nmax_length = 3\n"
        )
        code, out = run(
            ["closure", "--spec", str(closed), "--subspace", "seed:v1",
             "--window", "4", "--max-weight", "2", "--max-length", "3"],
            capsys,
        )
        assert code == PASS and "closed" in out
        code, out = run(
            ["closure", "--spec", str(open_cfg), "--subspace", "seed:v1",
             "--window", "4", "--max-weight", "2", "--max-length", "3"],
            capsys,
        )
        assert code == FAIL and "not closed" in out


class TestVerifyAndDemo:
    def test_verify_psi(self, capsys):
        code, out = run(["verify", "psi"], capsys)
        assert code == PASS
        assert out.startswith("case\tinputs\texpected\tgot\tstatus")

    def test_verify_orders_deterministic(self, capsys):
        code1, out1 = run(["verify", "orders", "--seed", "3"], capsys)
        code2, out2 = run(["verify", "orders", "--seed", "3"], capsys)
        assert code1 == code2 == PASS
        assert out1 == out2

    def test_verify_annihilator_reports_failure(self, capsys):
        code, out = run(["verify", "annihilator"], capsys)
        assert code == FAIL  # the criterion's expected span is too small
        assert "w{2:2}⊗v0" in out

    @pytest.mark.parametrize("which", ["whittaker", "generalized", "highorder"])
    def test_demos_run(self, which, capsys):
        code, out = run(["demo", which], capsys)
        assert code == PASS and out.startswith(f"demo: {which}")

    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.tsv"
        code, out = run(["verify", "psi", "--output", str(target)], capsys)
        assert code == PASS and out == ""
        assert target.read_text().startswith("case\t")


class TestRoundTrips:
    def test_bracket_output_reparses(self, capsys):
        from n2sca.algebra import parse_combo

        for x, y in (("G[1]", "G[-1/2]"), ("L[2]", "L[-2]"), ("G[0]", "G[0]")):
            _, out = run(["bracket", x, y], capsys)
            combo = parse_combo(out.strip())
            assert str(combo) == out.strip()

    def test_reduce_trace_vectors_reparse(self, whittaker_cfg, capsys):
        from n2sca.modules import load_spec_config

        _, out = run(
            ["reduce", "{1:1,2:1}", "--spec", whittaker_cfg], capsys
        )
        spec = load_spec_config(open(whittaker_cfg).read())
        module = spec.induced()
        terminal = out.strip().splitlines()[-1].split("\t")[1]
        v = module.parse_vector(terminal)
        assert str(v) == terminal


def test_recursion_past_the_limit_is_inconclusive(capsys):
    # G[-(n-1)/2] for n = 1..699, one letter each: the act passes T[1/2]
    # across every distinct letter slot in turn
    vector = "{" + ",".join(f"{slot}:1" for slot in range(2, 1400, 2)) + "}"
    code = main(["act", "T[1/2]", "--spec", os.path.join(GOLDEN, "whittaker.cfg"),
                 "--vector", vector])
    captured = capsys.readouterr()
    assert code == INCONCLUSIVE and captured.out == ""
    assert captured.err == "inconclusive: recursion limit reached\n"


def _suite(name):
    """The suite function `verify <name>` runs."""
    home = {"suites": suites, "modules": modules}[SUITE_NAMES[name]]
    return getattr(home, "suite_" + name.replace("-", "_"), None)


def test_every_verify_name_has_a_suite_and_every_suite_a_name():
    assert list(SUITE_NAMES) == sorted(SUITE_NAMES)
    named = {_suite(name) for name in SUITE_NAMES}
    assert None not in named and len(named) == len(SUITE_NAMES)
    defined = {fn for home in (suites, modules) for attr, fn in vars(home).items()
               if attr.startswith("suite_") and callable(fn)}
    assert named == defined


# one value per verify flag, each naming the suite parameter it sets
VERIFY_FLAGS = {"--seed": ("seed", "3"), "--window": ("window2", "2"),
                "--max-weight": ("max_weight2", "1"), "--max-length": ("max_length", "1"),
                "--algebra": ("algebra", "twisted")}


@pytest.mark.parametrize("suite, flag", [
    (suite, flag) for suite in SUITE_NAMES for flag, (param, _) in VERIFY_FLAGS.items()
    if param not in inspect.signature(_suite(suite)).parameters
])
def test_verify_rejects_a_flag_its_suite_does_not_take(suite, flag, capsys):
    code = main(["verify", suite, flag, VERIFY_FLAGS[flag][1]])
    captured = capsys.readouterr()
    assert code == USAGE and captured.out == ""
    assert captured.err == f"error: verify {suite} takes no {flag}\n"


def test_run_turns_the_collector_off_and_main_keeps_the_callers_state(monkeypatch):
    was = gc.isenabled()
    seen, exits = [], []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or PASS)
    monkeypatch.setattr(os, "_exit", exits.append)
    try:
        gc.enable()
        cli.run()
        assert seen == [False] and exits == [PASS]
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert main(["enumerate", "--max-weight", "0", "--max-length", "0"]) == PASS
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_out_of_memory_is_inconclusive():
    # the window is unbounded, so listing its generators fills any heap;
    # the address-space cap is set in the child only
    cap = 512 << 20
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    # the process path: `cli.run` reports the MemoryError and leaves by os._exit
    proc = subprocess.run(
        [sys.executable, "-m", "n2sca.cli", "verify", "jacobi", "--window", "100000000"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == INCONCLUSIVE
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr == "inconclusive: out of memory\n"


# The fast parser against argparse.  For every command line of these tests
# and of tests/test_golden.py, and for seeded mutations of each, `_fast_parse`
# must decline (None) or give the namespace argparse gives, and it must
# decline wherever argparse exits.
def _argparse_vars(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _tested_argv():
    from test_golden import HELP_CASES, PROCESS_ARGV, USAGE_ERRORS

    lists = [*PROCESS_ARGV.values(), *HELP_CASES.values(), *USAGE_ERRORS.values(),
             *OUT_OF_RANGE_ARGV, *DIRECTORY_PATH_ARGV, *NOT_A_MODULE_ARGV,
             *(argv for argv, _ in INVALID_ARGUMENTS + EMPTY_VALUES),
             *(["verify", suite, flag, value] for suite in SUITE_NAMES
               for flag, (_, value) in VERIFY_FLAGS.items()),
             ["bracket", "--", "---L[1]", "L[-1]"], ["act", "C", "--spec", "w.cfg", "--label=v0"]]
    return [[a.replace("{cfg}", "w.cfg").replace("{dir}", "d") for a in argv]
            for argv in lists]


def _mutation(argv, rng):
    """``argv`` with one seeded edit: an abbreviated, `=`-joined, repeated,
    missing or unknown option, `--`, `-h`, a negative or empty or malformed
    value, a token dropped, added or moved."""
    argv = list(argv)
    options = [i for i, a in enumerate(argv) if a.startswith("--") and len(a) > 3]
    spot = rng.randrange(min(1, len(argv)), len(argv) + 1)  # after the command
    pick = rng.randrange(12)
    if pick == 0 and options:
        i = rng.choice(options)
        argv[i] = argv[i][:rng.randrange(3, len(argv[i]))]
    elif pick == 1 and options and options[-1] + 1 < len(argv):
        i = rng.choice([i for i in options if i + 1 < len(argv)])
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif pick == 2 and options:
        i = rng.choice(options)
        argv[spot:spot] = argv[i:i + 2]
    elif pick == 3 and options:
        i = rng.choice(options)
        del argv[i:i + 2]
    elif pick == 4:
        argv.insert(rng.randrange(len(argv) + 1),
                    rng.choice(["--", "-h", "--help", "-", "--bogus", "-x", "--bogus=1"]))
    elif pick in (5, 6) and len(argv) > 1:
        argv[rng.randrange(1, len(argv))] = rng.choice(
            ["-1", "-3", "-1/2", "", "x", "nosuch", "0", "+4", " 7 ", "٣", "1_0"])
    elif pick == 7 and argv:
        del argv[rng.randrange(len(argv))]
    elif pick == 8:
        argv.insert(spot, rng.choice(["extra", "act", "", "{1:1}"]))
    elif pick == 9 and len(argv) > 1:
        argv.append(argv.pop(rng.randrange(1, len(argv))))
    elif pick == 10 and argv:
        argv[0] = rng.choice(["ver", "VERIFY", "", "--help", "act", "verify", argv[0][:-1]])
    else:
        argv[spot:spot] = rng.choice(
            [["--window", "2"], ["--algebra", "twisted-pm"], ["--algebra", "nosuch"],
             ["--max-length", "x"], ["--spec", "w.cfg"], ["--output", "-"]])
    return argv


@pytest.mark.parametrize("argv", _tested_argv(), ids=" ".join)
def test_fast_parser_agrees_with_argparse(argv):
    rng = random.Random(" ".join(argv))
    cases = [argv]
    for _ in range(12):
        cases.append(_mutation(rng.choice(cases), rng))
    for case in cases:
        fast, want = cli._fast_parse(case), _argparse_vars(case)
        assert fast is None or (want is not None and vars(fast) == want), case


def test_fast_parser_takes_every_golden_command_line():
    from test_golden import PROCESS_ARGV

    for argv in PROCESS_ARGV.values():
        assert vars(cli._fast_parse(list(argv))) == _argparse_vars(list(argv)), argv
