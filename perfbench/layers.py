"""Per-layer metrics, derived from the spans of a traced run.

Every workload reports every metric; a layer the workload does not reach
reports 0, which is the prediction for it.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import median, tail
from workloads import CHECKERS, CLI_COMMANDS, PASSES

PER_LAYER: list[tuple[str, str]] = [
    ("search.glseq.calls", "count"),
    ("search.glseq.busy_s", "s"),
    ("search.glseq.call_p50_us", "us"),
    ("search.csgl.calls", "count"),
    ("search.csgl.busy_s", "s"),
    ("search.csgl.call_p50_us", "us"),
    ("search.csgl.fuel_exhausted", "count"),
    ("search.csgl.proof_nodes", "count"),
    ("search.proved_share", "ratio"),
    ("semantics.oracle.calls", "count"),
    ("semantics.oracle.busy_s", "s"),
    ("semantics.oracle.call_p50_us", "us"),
    ("semantics.oracle.call_tail_ms", "ms"),
    ("semantics.oracle.valid_share", "ratio"),
    ("semantics.oracle.countermodel_worlds", "worlds"),
    ("semantics.labeled_valid.calls", "count"),
    ("semantics.labeled_valid.busy_s", "s"),
    ("semantics.labeled_valid.call_p50_ms", "ms"),
    ("semantics.labeled_valid.call_tail_ms", "ms"),
    ("semantics.labeled_valid.tree_share", "ratio"),
]
for _p in PASSES:
    PER_LAYER += [
        (f"transform.{_p}.busy_s", "s"),
        (f"transform.{_p}.nodes_in", "count"),
        (f"transform.{_p}.nodes_out", "count"),
        (f"transform.{_p}.permutations", "count"),
        (f"transform.{_p}.fail", "count"),
    ]
for _c in CHECKERS:
    PER_LAYER += [(f"checkers.{_c}.busy_s", "s"), (f"checkers.{_c}.us_per_node", "us")]
PER_LAYER += [
    ("proofio.print.busy_s", "s"),
    ("proofio.print.us_per_node", "us"),
    ("proofio.parse.busy_s", "s"),
    ("proofio.parse.us_per_node", "us"),
    ("proofio.bytes", "bytes"),
    ("formula.parse.calls", "count"),
    ("formula.parse.busy_s", "s"),
    ("cli.python_start_ms", "ms"),
    ("cli.import_ms", "ms"),
]
PER_LAYER += [(f"cli.run_ms.{c}", "ms") for c in CLI_COMMANDS]
PER_LAYER += [
    ("cli.tracebacks", "count"),
    ("cli.exit_mismatch", "count"),
    ("trace.overhead_ratio", "ratio"),
]
UNITS = dict(PER_LAYER)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, extra: dict, scale: float, census) -> dict:
    """`extra` supplies the values no span carries: the cli start-up figures,
    the cli counters, and the overhead ratio.  Span times are multiplied by
    `scale`, the machine-speed factor the end-to-end times use.  The error
    counts cover the spans of the set-up census too, where the known
    failures occur."""
    own = tracer.self_times()
    spans = defaultdict(list)
    for s, t in zip(tracer.spans, own):
        spans[s.name].append((s, t))

    def calls(name):
        return len(spans[name])

    def busy(name):
        return scale * sum(t for _, t in spans[name])

    def durations(name):
        return [scale * s.duration for s, _ in spans[name]]

    def attr_sum(name, key):
        return sum(s.attrs[key] for s, _ in spans[name] if s.attrs)

    def errors(name, error=None):
        return sum(1 for s in tracer.spans + census.spans
                   if s.name == name and s.error and error in (None, s.error))

    def returned(name):
        return [s.attrs for s, _ in spans[name] if s.attrs]

    m = {}
    for calc in ("glseq", "csgl"):
        name = f"search.{calc}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.call_p50_us"] = median(durations(name)) * 1e6
    m["search.csgl.fuel_exhausted"] = errors("search.csgl", "FuelExhausted")
    m["search.csgl.proof_nodes"] = attr_sum("search.csgl", "nodes")
    answers = returned("search.glseq") + returned("search.csgl")
    m["search.proved_share"] = _ratio(sum(a["proved"] for a in answers), len(answers))

    name = "semantics.oracle"
    verdicts = returned(name)
    refuted = [v["worlds"] for v in verdicts if not v["valid"]]
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.busy_s"] = busy(name)
    m[f"{name}.call_p50_us"] = median(durations(name)) * 1e6
    m[f"{name}.call_tail_ms"] = tail(durations(name), 99.0)[0] * 1e3
    m[f"{name}.valid_share"] = _ratio(sum(v["valid"] for v in verdicts), len(verdicts))
    m[f"{name}.countermodel_worlds"] = _ratio(sum(refuted), len(refuted))

    name = "semantics.labeled_valid"
    verdicts = returned(name)
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.busy_s"] = busy(name)
    m[f"{name}.call_p50_ms"] = median(durations(name)) * 1e3
    m[f"{name}.call_tail_ms"] = tail(durations(name), 95.0)[0] * 1e3
    m[f"{name}.tree_share"] = _ratio(sum(v["tree"] for v in verdicts), len(verdicts))

    for p in PASSES:
        name = f"transform.{p}"
        m[f"{name}.busy_s"] = busy(name)
        for key in ("nodes_in", "nodes_out", "permutations"):
            m[f"{name}.{key}"] = attr_sum(name, key)
        m[f"{name}.fail"] = errors(name)

    for c in CHECKERS:
        name = f"checkers.{c}"
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.us_per_node"] = _ratio(busy(name), attr_sum(name, "nodes")) * 1e6

    for io in ("print", "parse"):
        name = f"proofio.{io}"
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.us_per_node"] = _ratio(busy(name), attr_sum(name, "nodes")) * 1e6
    m["proofio.bytes"] = attr_sum("proofio.print", "bytes") + attr_sum("proofio.parse", "bytes")

    m["formula.parse.calls"] = calls("formula.parse")
    m["formula.parse.busy_s"] = busy("formula.parse")

    for c in CLI_COMMANDS:
        m[f"cli.run_ms.{c}"] = median(durations(f"cli.run.{c}")) * 1e3
    for key in ("cli.python_start_ms", "cli.import_ms", "cli.tracebacks",
                "cli.exit_mismatch", "trace.overhead_ratio"):
        m[key] = extra.get(key, 0)

    if set(m) != set(UNITS):
        raise RuntimeError(f"per-layer metrics out of step: {sorted(set(m) ^ set(UNITS))}")
    return {n: {"value": m[n], "unit": u} for n, u in PER_LAYER}
