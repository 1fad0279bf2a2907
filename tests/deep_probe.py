"""Deep probe: what CSGL search and two CLI commands cost on deep inputs.

    python3 tests/deep_probe.py [--no-cli] [K ...]

The inputs are `[]`×k `(p | ~p)` for each K (30, 45 and 60 by default),
then the blow-up theorem of the `pipeline` benchmark's census, on which a
CSGL search that tries every orL right premise runs out of its 100,000
nodes of fuel; CSGL search skips the right premises that it does not need
and proves it.  For each input it prints:
- `search`: CSGL search of `|- x: f` in this process (`search._csgl_search`,
  without replay): the nodes it spent, its best wall time of 3 runs, and
  the peak that tracemalloc traces during one more run;
- `decide` and `pipeline`: `glproof decide --calculus csgl` and `glproof
  pipeline`, each in a fresh child process: its exit code, wall time,
  stdout bytes (counted as they arrive, not kept) and peak RSS (the
  child's own `ru_maxrss`, from `os.wait4`).
`--no-cli` skips the child processes.  The children import glproof from
the `src` next to this file.  At k = 60 the `pipeline` child prints 655 MB
and takes about 9 s on a 2-core host; pytest does not collect this file
(its name has no `test_`).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from glproof.formula import parse_formula  # noqa: E402
from glproof.search import FuelExhausted, _csgl_search  # noqa: E402

# `KNOWN_FUEL_BLOWUP` of perfbench/workloads.py
BLOWUP = "[]([](q | ([][](~(~p | r) | r) | [][]p)) | (~[](r | r) | ~(q | p)))"
FUEL = 100000


def search_once(f) -> int:
    """The nodes CSGL search spends on `|- x: f`."""
    fuel = [FUEL]
    try:
        _csgl_search(set(), set(), [(0, f)], [1], fuel, [None])
    except FuelExhausted:
        return FUEL
    return FUEL - fuel[0]


def search_row(text: str) -> str:
    f = parse_formula(text)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        nodes = search_once(f)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    search_once(f)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return f"search: {nodes} nodes, {best:.3f} s, traced peak {peak / 1e6:.2f} MB"


def cli_row(args: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "glproof.cli", *args],
                             stdout=subprocess.PIPE, env=env)
    size = 0
    while chunk := child.stdout.read(1 << 20):
        size += len(chunk)
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    return (f"{args[0]}: exit {code}, {wall:.2f} s, {size} stdout bytes, "
            f"peak RSS {usage.ru_maxrss / 1024:.1f} MB")


def main(argv: list[str]) -> int:
    cli = "--no-cli" not in argv
    ks = [int(a) for a in argv if a != "--no-cli"] or [30, 45, 60]
    inputs = [(f"[]x{k} (p | ~p)", "[]" * k + "(p | ~p)") for k in ks]
    inputs.append(("blow-up", BLOWUP))
    for name, text in inputs:
        print(f"{name}\t{search_row(text)}", flush=True)
        if cli:
            for args in (["decide", "--calculus", "csgl", text], ["pipeline", text]):
                print(f"{name}\t{cli_row(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
