"""Record the output digests the benchmark compares against.

Usage, from the root of a checkout: python3 perfbench/record_digests.py

Runs every digest key's input once and writes perfbench/digests.json.
Record only from a commit whose outputs are known to be right: the
digests are the benchmark's oracle for byte-identical output.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run
import workloads as wl


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for cls in wl.WORKLOADS.values():
            runner = run.Runner(cls({}), workdir)
            for inp in runner.workload.recorded_inputs():
                out = run.run_child([sys.executable, "-m", "n2sca.cli",
                                     *runner.argv(inp)], workdir)
                if out.exit != 0:
                    sys.stderr.write(f"{inp.key}: exit {out.exit}\n{out.stderr}")
                    return 1
                digests[inp.key] = wl.digest(out.stdout)
                print(f"{inp.key}\t{digests[inp.key]}")
    with open(wl.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
