"""glproof benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from `src/`.  Each
workload runs in fresh processes with a pinned environment: set-up is
repeated in SETUP_REPS processes and its median reported as `setup_s`;
the last of them goes on to the timed closed loop.  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
The last line of standard output is one JSON object.  A wrong answer exits
non-zero without printing it.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "deep", "pipeline", "audit", "cli")
SETUP_REPS = 3  # fresh processes that set up; setup_s is their median
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
WARMUP = {"sweep": "200 ops on a fixed sample", "deep": "50 ops on fixed formulas",
          "pipeline": "the census, every theorem once", "audit": "items of 3 fixed theorems",
          "cli": "bytecode cache compiled, then one call of each command"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, for the smoke test only")
    return ap.parse_args(argv)


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("PYTHONPYCACHEPREFIX", "PYTHONSTARTUP", "PYTHONOPTIMIZE", "PYTHONHOME"):
        env.pop(var, None)
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", PYTHONUNBUFFERED="1",
               PYTHONPATH=os.path.join(root, "src"))
    return env


def commit(root: str) -> str:
    """The checked-out commit when the tree is a git work tree, read without git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def run_worker(cmd, env, root, timeout):
    """Run one worker in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: worker timed out after {timeout:.0f}s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name, args, root, results_dir, deadline):
    env = pinned_env(root)
    reps = 1 if args.trace else SETUP_REPS
    setups, res = [], None
    for rep in range(reps):
        last = rep == reps - 1
        workdir = os.path.join(results_dir, f"work-{name}-{os.getpid()}-{rep}")
        t_spawn = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--t-spawn", repr(t_spawn), "--workdir", workdir]
        if args.trace:
            # only the latest traced run's spans are kept, one file per workload
            cmd += ["--spans", os.path.join(results_dir, f"spans-{name}.jsonl")]
        if not last:
            cmd.append("--setup-only")
        if args.quick:
            cmd.append("--quick")
        res = run_worker(cmd, env, root, max(5.0, deadline - time.monotonic()))
        shutil.rmtree(workdir, ignore_errors=True)
        if res is None:
            return None
        setups.append((res["setup_s"], res["raw_setup_s"]))
    res["setup_s"] = statistics.median(s for s, _ in setups)
    res["raw_setup_s"] = statistics.median(r for _, r in setups)
    res["setup_samples"] = setups
    return res


def report(name, res, trace) -> dict:
    """Print the human-readable lines for one workload; return its metrics."""
    if trace:
        metrics = res["layers"]
    else:
        metrics = {m: {"value": res[m], "unit": u} for m, u in END_TO_END}
    print(f"[{name}] attempted {res['attempted']}, failed {res['failed']}, "
          f"fail_ratio {res['failed'] / res['attempted']:.4f} ratio, "
          f"failures by kind {json.dumps(res['failures'], sort_keys=True)}; "
          f"known failures from the set-up census, left out of the timed loop, "
          f"by kind {json.dumps(res['known'], sort_keys=True)}")
    print(f"[{name}] op_tail_ms is p{res['op_tail_pct']:.2f} with "
          f"{res['op_tail_beyond']} of {res['attempted']} samples beyond; "
          f"setup samples (scaled, raw) {[(round(s, 4), round(r, 4)) for s, r in res['setup_samples']]}; "
          f"warm-up: {WARMUP[name]}; inputs {json.dumps(res['info'], sort_keys=True)}")
    raw = {m: round(res["raw_" + m], 6) for m in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms")}
    print(f"[{name}] unscaled {json.dumps(raw)}; machine slowdown {res['slowdown']:.3f} "
          f"(reference median / {res['ref_s'] * 1e3:g} ms)")
    for m, v in metrics.items():
        print(f"[{name}] {m} = {v['value']:.6g} {v['unit']}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "glproof", "__init__.py")):
        print("perfbench: src/glproof not found; run from the root of a glproof "
              "checkout", file=sys.stderr)
        return 2
    results_dir = os.path.join(HERE, ".work")
    os.makedirs(results_dir, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env_info = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(), "commit": commit(root), "seed": args.seed,
        "seconds": args.seconds, "setup_reps": 1 if args.trace else SETUP_REPS,
        "trace": args.trace, "PYTHONHASHSEED": "0", "closed_loop_clients": 1,
    }
    print(f"perfbench environment {json.dumps(env_info, sort_keys=True)}")
    metrics, attempted, failed, full = {}, 0, 0, {}
    for name in names:
        deadline = time.monotonic() + 170  # each workload ends inside 180 s
        res = run_workload(name, args, root, results_dir, deadline)
        if res is None:
            return 1
        full[name] = res
        got = report(name, res, args.trace)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += res["attempted"]
        failed += res["failed"]
    out = os.path.join(results_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({"environment": env_info, "workloads": full}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
