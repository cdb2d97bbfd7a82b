"""The benchmark's traced runner against the package, at each workload's
set-up size.

`perfbench/traced.py` binds package names from outside it: it wraps
`InducedModule.act_combo`, `SpanChecker.contains` and `linalg.kernel_basis`,
and sums the bracket caches of `algebra.PRESENTATIONS`.  Each workload's
set-up command runs through it here, unedited, in a fresh interpreter, so
that moving or renaming one of those names fails this suite and not only
the benchmark.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclass looks itself up in sys.modules
    return module


WL = _workloads()


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_traced_setup_run(name, tmp_path):
    workload = WL.WORKLOADS[name](WL.load_digests())
    inp = workload.setup_input(random.Random(0))
    argv = list(inp.argv)
    if inp.config is not None:  # as the runner passes a config: a file in its cwd
        (tmp_path / "spec.cfg").write_text(inp.config, encoding="utf-8")
        argv += ["--spec", "spec.cfg"]
    proc = subprocess.run([sys.executable, str(PERFBENCH / "traced.py"), *argv],
                          cwd=tmp_path, capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                                   PYTHONHASHSEED="0"))
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    report = json.loads(proc.stdout.decode("utf-8").splitlines()[-1])
    assert workload.problems(inp, report["exit"], report["stdout"]) == []
