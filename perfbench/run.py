"""Benchmark of the `n2sca` command line: time to verdict, set-up time and
peak memory per workload, or per-layer numbers from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py                        # all workloads, untraced
    python3 perfbench/run.py --workload annihilator --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py --workload deep-act --trace 1

Each command runs in its own child process, one at a time, under an
address-space cap and a wall-clock timeout; the program sees only the
generated spec file and argv.  Every output is checked (see
workloads.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See DESIGN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

ADDRESS_SPACE_CAP = 1 << 30  # bytes per child; a runaway input fails one operation
TIMEOUT_S = 60.0  # wall-clock cap per child
SETUP_REPS = 8  # set-up invocations per run, interleaved with the first main ones
MIN_MAIN_REPS = 3
# Nominal wall time of reference.py; a command that takes k reference jobs
# is reported as k * REFERENCE_S "reference seconds".
REFERENCE_S = 0.3
# every child runs on this one CPU, so a command and the reference jobs
# around it share whatever else that CPU is doing
CPU = max(os.sched_getaffinity(0))

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}


@dataclass
class Outcome:
    exit: int | None  # None when the child was killed at the timeout
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


def _prepare_child() -> None:
    os.sched_setaffinity(0, {CPU})
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_child(argv: list[str], cwd: str) -> Outcome:
    """Run one child to completion; wall time and peak RSS come from wait4."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=_prepare_child)
    deadline = t0 + TIMEOUT_S
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0 and not killed:
                proc.send_signal(signal.SIGKILL)
                killed = True
            for key, _ in sel.select(timeout=max(left, 0.05)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline and not killed:
            proc.send_signal(signal.SIGKILL)
            killed = True
        time.sleep(0.0005)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(
        exit=None if killed else proc.returncode,
        stdout=b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
        stderr=b"".join(chunks[proc.stderr]).decode("utf-8", "replace"),
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    )


class Runner:
    """Runs and checks the inputs of one workload, counting operations."""

    def __init__(self, workload: wl.Workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def argv(self, inp: wl.Input) -> list[str]:
        argv = list(inp.argv)
        if inp.config is not None:
            name = "spec-" + hashlib.sha256(inp.config.encode()).hexdigest()[:16] + ".cfg"
            path = os.path.join(self.workdir, name)
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(inp.config)
            argv += ["--spec", name]
        return argv

    def record(self, inp: wl.Input, exit_code: int | None, stdout: str, stderr: str) -> bool:
        self.attempted += 1
        if exit_code is None:
            found = [f"timed out after {TIMEOUT_S:g} s"]
        else:
            found = self.workload.problems(inp, exit_code, stdout)
        if found and exit_code not in (None, 0) and stderr.strip():
            found.append("stderr: " + stderr.strip().splitlines()[-1])
        if found:
            self.failed += 1
            self.problems.append(f"{inp.key}: {'; '.join(found)}")
        return not found

    def untraced(self, inp: wl.Input) -> Outcome:
        out = run_child([sys.executable, "-m", "n2sca.cli", *self.argv(inp)], self.workdir)
        self.record(inp, out.exit, out.stdout, out.stderr)
        return out

    def reference(self) -> float:
        """Wall time of the fixed reference job, run like a command."""
        out = run_child([sys.executable, os.path.join(HERE, "reference.py")], self.workdir)
        if out.exit != 0:
            raise RuntimeError(f"reference job failed: {out.stderr.strip()}")
        return out.wall_s

    def traced(self, inp: wl.Input) -> tuple[Outcome, dict | None]:
        """A traced invocation; its layer numbers, or None when it failed."""
        out = run_child([sys.executable, os.path.join(HERE, "traced.py"), *self.argv(inp)],
                        self.workdir)
        report = None
        if out.exit == 0:
            try:
                report = json.loads(out.stdout.splitlines()[-1])
            except (ValueError, IndexError):
                pass
        if report is None:
            self.record(inp, out.exit if out.exit else 1, "", out.stderr)
            return out, None
        ok = self.record(inp, report["exit"], report["stdout"], out.stderr)
        return out, report["layers"] if ok else None


def machine_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "loadavg_before": list(os.getloadavg()),
    }


def summary(name: str, values: list[float], unit: str) -> str:
    """Median with quartiles, range and sample count."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{name} median of {len(values)}: {q2:.4f} {unit} "
            f"(q1 {q1:.4f}, q3 {q3:.4f}, min {min(values):.4f}, max {max(values):.4f})")


def measure(runner: Runner, rng: random.Random, seconds: float) -> tuple[dict, list[str]]:
    """Untraced run for `seconds`.

    Each round runs the main input (and, while fewer than SETUP_REPS were
    run, two set-up inputs) between two reference jobs.  A time is
    reported in reference seconds: its wall time over the mean of the two
    reference walls around it, times REFERENCE_S.
    """
    wk = runner.workload
    runner.untraced(wk.setup_input(rng))  # warm-up: bytecode cache and page cache
    walls, rels, rss, setups, setup_rels = [], [], [], [], []
    ref_before = runner.reference()
    start = time.perf_counter()
    while (len(walls) < MIN_MAIN_REPS or len(setups) < SETUP_REPS
           or time.perf_counter() - start < seconds):
        round_setups = [runner.untraced(wk.setup_input(rng)).wall_s
                        for _ in range(min(2, SETUP_REPS - len(setups)))]
        out = runner.untraced(wk.inputs(rng))
        ref_after = runner.reference()
        ref = (ref_before + ref_after) / 2
        ref_before = ref_after
        setups += round_setups
        setup_rels += [t / ref for t in round_setups]
        walls.append(out.wall_s)
        rels.append(out.wall_s / ref)
        rss.append(out.rss_mb)
    metrics = {
        "wall_s": statistics.median(rels) * REFERENCE_S,
        "setup_s": statistics.median(setup_rels) * REFERENCE_S,
        "peak_rss_mb": statistics.median(rss),
        "ok_share": 1 - runner.failed / runner.attempted,
    }
    notes = [
        summary("wall_s", [r * REFERENCE_S for r in rels], "reference s"),
        summary("setup_s", [r * REFERENCE_S for r in setup_rels], "reference s"),
        summary("raw wall", walls, "s"),
        summary("raw setup", setups, "s"),
        summary("peak_rss_mb", rss, "MB"),
        f"failed_share {runner.failed / runner.attempted:g} "
        f"({runner.failed} failed of {runner.attempted} operations)",
    ]
    return metrics, notes


TIME_LAYER_KEYS = ("self_s", "act_s", "elim_s", "profiled_s")


def measure_traced(runner: Runner, rng: random.Random, seconds: float) -> tuple[dict, list[str]]:
    """Traced run: pairs of one untraced and one traced invocation of one input."""
    wk = runner.workload
    runner.untraced(wk.setup_input(rng))  # warm-up
    inp = wk.inputs(rng)
    untraced, traced, reports = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.untraced(inp).wall_s)
        out, layers = runner.traced(inp)
        traced.append(out.wall_s)
        if layers is not None:
            reports.append(layers)
    if not reports:
        return {}, ["no traced invocation succeeded"]
    counts = [{k: v for k, v in r.items() if not k.endswith(TIME_LAYER_KEYS)}
              for r in reports]
    if any(c != counts[0] for c in counts[1:]):
        runner.failed += 1
        runner.problems.append("count metrics differ between traced invocations")
    metrics = dict(counts[0])
    for key in reports[0]:
        if key.endswith(TIME_LAYER_KEYS):
            metrics[key] = statistics.median(r[key] for r in reports)
    metrics["trace.traced_s"] = statistics.median(traced)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    # paired: each traced invocation over the untraced one just before it
    metrics["trace.overhead_share"] = statistics.median(
        t / u for t, u in zip(traced, untraced)) - 1
    notes = [f"input {inp.key}: {len(traced)} traced and {len(untraced)} untraced invocations"]
    return metrics, notes


def layer_notes(m: dict) -> list[str]:
    """Each ratio with its base."""
    def share(part, whole):
        return f"{part / whole:.1%}" if whole else "n/a"

    return [
        f"engine.memo_hit_ratio {m['engine.memo_hit_ratio']:.4f} = 1 - "
        f"{m['engine.memo_misses']} misses / {m['engine.basis_acts']} basis acts",
        f"scalars.irrational_share {m['scalars.irrational_share']:.4f} of "
        f"{m['scalars.products']} Scalar products",
        f"scalars.operand_bits_mean {m['scalars.operand_bits_mean']:.2f} bits over "
        f"{2 * m['scalars.products']} operands",
        f"trace.overhead_share {m['trace.overhead_share']:.3f}: median of traced / "
        f"untraced - 1 over pairs; medians {m['trace.traced_s']:.3f} s traced, "
        f"{m['trace.untraced_s']:.3f} s untraced",
        f"linalg.elim_s is {share(m['linalg.elim_s'], m['trace.profiled_s'])} and "
        f"engine.act_s {share(m['engine.act_s'], m['trace.profiled_s'])} of the "
        f"{m['trace.profiled_s']:.3f} s profiled wall (import and command); "
        f"linalg.elim_s is {share(m['linalg.elim_s'], m['trace.traced_s'])} of the "
        f"{m['trace.traced_s']:.3f} s traced child wall",
    ]


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "share"
    if "bits" in name:
        return "bits"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    workload = wl.WORKLOADS[name](wl.load_digests())
    runner = Runner(workload, workdir)
    rng = random.Random(seed)
    machine = machine_record()
    if trace:
        metrics, notes = measure_traced(runner, rng, seconds)
        if metrics:
            notes += layer_notes(metrics)
    else:
        metrics, notes = measure(runner, rng, seconds)
    machine["loadavg_after"] = list(os.getloadavg())
    seed_note = "" if workload.seeded else " (exhaustive: the seed is ignored)"
    print(f"# {name} seed={seed}{seed_note} trace={int(trace)} machine={json.dumps(machine)}")
    for line in notes + runner.problems:
        print(f"# {name} {line}")
    for key, value in metrics.items():
        print(f"{name}\t{key}\t{value:.6g}\t{unit_of(key)}")
    if not trace:
        print(f"{name}\tfailed_share\t{runner.failed / runner.attempted:.6g}\tshare")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *wl.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=1,
                        help="with --workload all: rounds, alternating the workload order")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "n2sca", "cli.py")):
        sys.stderr.write(f"error: no n2sca sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)  # for the oracles that call into n2sca
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), workdir)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            names = list(wl.WORKLOADS)
            for r in range(args.rounds):
                for name in names if r % 2 == 0 else names[::-1]:
                    one = run_workload(name, args.seed, args.seconds,
                                       bool(args.trace), workdir)
                    result["correct"] &= one["correct"]
                    result["attempted"] += one["attempted"]
                    result["failed"] += one["failed"]
                    for key, m in one["metrics"].items():
                        result["metrics"][f"{name}.{key}.r{r}"] = m
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
