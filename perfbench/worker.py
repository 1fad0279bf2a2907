"""One workload in one fresh process: set-up, warm-up, then the timed loop.

Started by run.py, never by hand.  Prints one JSON object on its last line
of standard output.  Exit code 3 means a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import glproof
from layers import layer_metrics
from tracing import REF_S, TAIL_PCT, Tracer, chunk_rate, median, reference_s, tail, untraced
from workloads import DOCUMENTED, WORKLOADS, Calls, WrongAnswer


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file the spans of a traced run are written to")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--quick", action="store_true")
    return ap.parse_args()


# Machine speed.  This 2-core host is shared, and the same code runs up to
# ~2x slower when a neighbour is busy, changing within a second.  In the
# timed loop the workload's reference (`Workload.reference`) is timed every
# `ref_every_s` of op time, outside the op timing, and each op time is scaled
# by `ref_s` over the median of the `ref_window` samples centred on it, i.e.
# reported at the speed at which the reference takes `ref_s`.  Set-up is
# scaled by the pure-Python reference loop and REF_S.  Raw figures are
# reported beside the scaled ones.
SETUP_EVERY_S = 0.05


class SetupSampler:
    """Reference samples on a SETUP_EVERY_S timer through set-up, so that
    `setup_s` is scaled by the machine speed over the whole of it, not only
    at its ends.  The time the samples take is kept in `spent` and is not
    set-up time."""

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SETUP_EVERY_S, SETUP_EVERY_S)

    def _sample(self, signum, frame):
        t0 = time.monotonic()
        self.samples.append(reference_s())
        self.spent += time.monotonic() - t0

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_loop(wl, calls, seconds, tracer=None):
    """Closed loop: the next op starts only after the previous one and its
    gate have finished.  Only the op itself is timed."""
    durations, failures = [], Counter()
    refs, ref_before, since_ref = [wl.reference()], [], 0.0
    items = wl.items()
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        item = next(items)
        error = result = None
        if tracer is not None:
            tracer.op = len(durations)
            span = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            result = wl.op(calls, item)
        except DOCUMENTED as e:
            error = e
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(span, type(error).__name__ if error else None)
        durations.append(t1 - t0)
        ref_before.append(len(refs) - 1)
        since_ref += t1 - t0
        if since_ref >= wl.ref_every_s:
            refs.append(wl.reference())
            since_ref = 0.0
        kind = type(error).__name__ if error else wl.check(item, result, calls)
        if kind:
            failures[kind] += 1
        if tracer is not None:
            wl.in_process(calls, item)
    refs.append(wl.reference())
    half = wl.ref_window // 2
    speed = [median(refs[max(0, j + 1 - half):j + 1 + half]) for j in range(len(refs) - 1)]
    scaled = [d * wl.ref_s / speed[j] for d, j in zip(durations, ref_before)]
    out = {
        "attempted": len(durations),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "slowdown": median(refs) / wl.ref_s,
        "ref_s": wl.ref_s,
        "timed_s": sum(durations),
    }
    for prefix, ds in (("", scaled), ("raw_", durations)):
        value, pct, beyond = tail(ds, TAIL_PCT[wl.name])
        out[prefix + "ops_per_s"] = chunk_rate(ds)
        out[prefix + "op_p50_ms"] = median(ds) * 1e3
        out[prefix + "op_tail_ms"] = value * 1e3
    out["op_tail_pct"], out["op_tail_beyond"] = pct, beyond
    return out


def spawn_median_ms(argv, env, n=5) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main() -> int:
    t0 = time.monotonic()
    start_refs = [reference_s() for _ in range(10)]
    args = parse_args()
    # the reference samples are not set-up work
    args.t_spawn += time.monotonic() - t0
    root = os.getcwd()
    expected = os.path.join(root, "src", "glproof", "__init__.py")
    if os.path.realpath(glproof.__file__) != os.path.realpath(expected):
        print(f"perfbench: imported {glproof.__file__}, not {expected}", file=sys.stderr)
        return 2

    os.makedirs(args.workdir, exist_ok=True)
    sampler = SetupSampler()
    wl = None
    try:
        wl = WORKLOADS[args.workload](args.seed, args.quick, args.workdir)
        plain = Calls(untraced)
        census = Tracer()  # spans for the error counts only, no return-value counts
        wl.census(Calls(lambda name, fn, attrs=None: census.wrap(name, fn)))
        wl.warmup(plain)
        sampler.stop()
        raw_setup_s = time.monotonic() - args.t_spawn - sampler.spent
        ref = median(start_refs + sampler.samples + [reference_s() for _ in range(10)])
        out = {"setup_s": raw_setup_s * REF_S / ref, "raw_setup_s": raw_setup_s,
               "setup_ref_samples": len(sampler.samples) + 20,
               "info": wl.info, "known": dict(wl.known)}
        if not args.setup_only:
            if args.trace:
                out.update(traced_run(wl, plain, args, census))
            else:
                out.update(run_loop(wl, plain, args.seconds))
    except WrongAnswer as e:
        print(f"perfbench: WRONG ANSWER in {args.workload}: {e}", file=sys.stderr)
        return 3
    finally:
        sampler.stop()
        if wl is not None:
            wl.close()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def traced_run(wl, plain, args, census) -> dict:
    """Half the time untraced, then the same inputs again with spans, so the
    overhead ratio compares like with like.  The failure counters add the
    errors of the set-up census, whose spans are in `census`."""
    half = args.seconds / 2
    base = run_loop(wl, plain, half)
    tracer = Tracer()
    wl.counts.clear()
    speed = [reference_s() for _ in range(10)]
    traced = run_loop(wl, Calls(tracer.wrap), half, tracer)
    speed += [reference_s() for _ in range(10)]
    known_tracebacks = sum(n for k, n in wl.known.items() if k.startswith("traceback:"))
    extra = {
        "trace.overhead_ratio": traced["ops_per_s"] / base["ops_per_s"],
        "cli.tracebacks": wl.counts["tracebacks"] + known_tracebacks,
        "cli.exit_mismatch": wl.counts["exit_mismatch"]
        + (sum(wl.known.values()) if wl.name == "cli" else 0),
    }
    # Per-layer times are scaled by the pure-Python loop in every workload.
    # Scaled by `cli`'s own reference, a bare interpreter start, the
    # cli.python_start_ms figure would only read back that reference.
    scale = REF_S / median(speed)
    if args.workload == "cli":
        bare = spawn_median_ms([sys.executable, "-c", "pass"], wl.env)
        imported = spawn_median_ms([sys.executable, "-c", "import glproof.cli"], wl.env)
        extra["cli.python_start_ms"] = bare * scale
        extra["cli.import_ms"] = (imported - bare) * scale
    if args.spans:
        tracer.write(args.spans)
    return {"untraced": base, **traced,
            "layers": layer_metrics(tracer, extra, scale, census),
            "spans": len(tracer.spans)}


if __name__ == "__main__":
    sys.exit(main())
