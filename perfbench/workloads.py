"""The five workloads: inputs made from a seed, one op, and its correctness gate.

Every call into glproof goes through a `Calls` object, whose attributes are
the public functions themselves in an untraced phase and span-recording
wrappers of them in a traced phase.
"""

from __future__ import annotations

import io
import itertools
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter

from glproof import checkers, cli, formula, proofio, search, semantics, transform
from glproof.formula import Not, enumerate_formulas, parse_formula, print_formula, random_formula
from glproof.rules import RuleError
from glproof.search import FuelExhausted, SearchConfig
from glproof.sequents import GentzenSequent, LabeledSequent
from glproof.transform import TransformError
from tracing import REF_S, reference_s

CFG = SearchConfig(oracle_hint=False)  # the configuration the pipeline command uses

# stage name, pass producing it, and the checker names that must accept it
STAGES = (
    ("csgl", None, ("csgl",)),
    ("end-active", "end-active", ("csgl", "end_active")),
    ("lngl", "linearize", ("lngl",)),
    ("normal", "normalize", ("lngl", "normal_form")),
    ("glseq", "to-glseq", ("glseq",)),
    ("g3gl", "to-g3gl", ("g3glext",)),
)
PASSES = tuple(p for _, p, _ in STAGES if p)
CHECKERS = {
    "csgl": checkers.check_csgl,
    "end_active": checkers.end_active_report,
    "lngl": checkers.check_lngl,
    "normal_form": checkers.normal_form_report,
    "glseq": checkers.check_glseq,
    "g3glext": lambda p: checkers.check_g3gl(p, "extended"),
}
CLI_COMMANDS = ("decide", "oracle", "pipeline", "check")

# The acceptance corpus (tests/test_acceptance.py), kept here as text so the
# benchmark reads nothing outside its own directory and `src/`.
CORPUS = (
    "[]([]p -> p) -> []p",
    "[](p -> q) -> ([]p -> []q)",
    "[]p -> [][]p",
    "p | ~p",
    "[](p | ~p)",
    "[][](p | ~p)",
    "[][][](p | ~p)",
    "[]([][]p -> []p) -> [][]p",
    "[]([]p -> []q) -> ([][]p -> [][]q)",
    "[][]p -> [][][]p",
)
# ROADMAP item 1: valid formulas on which `to-glseq` fails (NotApplicable,
# and a raw RuleError that escapes the CLI as a traceback).
KNOWN_PIPELINE_DEFECTS = (
    "[](~[](q | q) | [][]q)",
    "[]([]([]q | [][](q | (r | p | ~r))) | ~[][](~(r | q) | q))",
)
# A theorem glseq proves at once but CSGL search spends its whole default
# fuel on (about 2 s) before raising FuelExhausted.
KNOWN_FUEL_BLOWUP = "[]([](q | ([][](~(~p | r) | r) | [][]p)) | (~[](r | r) | ~(q | p)))"
WARMUP_SEED = 424242  # fixed, distinct from the run seeds


class WrongAnswer(Exception):
    """The program gave an answer that contradicts the known one."""


# Documented errors.  The set-up census counts them by kind as known
# failures and leaves their inputs out of the timed loop; one raised in the
# timed loop counts as a failed op.  Any other exception is a bug and ends
# the run.  The CLI prints the first two as a `CODE<TAB>address<TAB>message`
# line; a raw RuleError escapes as a traceback.
DOCUMENTED = (FuelExhausted, TransformError, RuleError)
DOCUMENTED_CODES = {"FuelExhausted"} | {c.__name__ for c in TransformError.__subclasses__()}


# ---------------------------------------------------------------------------
# The public calls, traced or not

def _search_attrs(args, r):
    return {"proved": r.proved, "nodes": r.proof.node_count() if r.proved else 0}


def _oracle_attrs(args, v):
    return {"valid": v.valid, "worlds": len(v.model.worlds) if v.model else 0}


def _labeled_attrs(args, r):
    return {"valid": r[0], "tree": bool(args[0].rel)}


def _pass_attrs(args, r):
    rep = r[1]
    return {"nodes_in": rep.nodes_in, "nodes_out": rep.nodes_out,
            "permutations": rep.permutations}


def _checker_attrs(args, r):
    return {"nodes": args[0].node_count()}


def _print_attrs(args, text):
    return {"nodes": args[0].node_count(), "bytes": len(text)}


def _parse_attrs(args, proof):
    return {"nodes": proof.node_count(), "bytes": len(args[0])}


class Calls:
    def __init__(self, wrap):
        self.decide_glseq = wrap("search.glseq", search.decide_glseq, _search_attrs)
        self.decide_csgl = wrap("search.csgl", search.decide_csgl, _search_attrs)
        self.oracle_validity = wrap("semantics.oracle", semantics.oracle_validity,
                                    _oracle_attrs)
        self.labeled_sequent_valid = wrap("semantics.labeled_valid",
                                          semantics.labeled_sequent_valid, _labeled_attrs)
        self.run_pass = {p: wrap(f"transform.{p}", transform.run_pass, _pass_attrs)
                         for p in PASSES}
        self.check = {c: wrap(f"checkers.{c}", fn, _checker_attrs)
                      for c, fn in CHECKERS.items()}
        self.print_proof = wrap("proofio.print", proofio.print_proof, _print_attrs)
        self.parse_proof = wrap("proofio.parse", proofio.parse_proof, _parse_attrs)
        self.parse_formula = wrap("formula.parse", formula.parse_formula)
        self.cli_run = {c: wrap(f"cli.run.{c}", cli.run) for c in CLI_COMMANDS}
        self.spawn = {c: wrap(f"subprocess.{c}", _spawn) for c in CLI_COMMANDS}


def _spawn(argv, env, cwd):
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def _concl(f):
    return LabeledSequent((), (), (("x", f),))


def draw_theorems(rng, atoms, lo, hi, count, stats):
    """Seeded random formulas kept when glseq search proves them; every
    drawn formula is kept or counted, none is skipped by how it behaves later."""
    kept = []
    while len(kept) < count:
        f = random_formula(rng, atoms, rng.randint(lo, hi))
        stats["drawn"] = stats.get("drawn", 0) + 1
        try:
            proved = search.decide_glseq(GentzenSequent((), (f,)), CFG).proved
        except FuelExhausted:
            stats["glseq_fuel_exhausted"] = stats.get("glseq_fuel_exhausted", 0) + 1
            continue
        if proved:
            kept.append(f)
    return kept


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    """`items()` yields op inputs in a fixed order (cycling if a run outlasts
    them); `op` is the timed part; `check` is the untimed gate, returning a
    failure kind, or None, or raising WrongAnswer.

    `census` runs in set-up, before the warm-up.  Where inputs may raise a
    documented error (`pipeline`, `cli`), it runs every input once, untimed,
    and counts the errors by kind in `known`; `items()` then leaves those
    inputs out, so the timed ops do not fail and every run of a seed sees
    the same known failures."""

    name = ""
    warmup_ops = 0
    warmup_inputs = ()
    # The timed loop's machine-speed reference (see worker.py): the sample
    # takes `ref_s` in fast mode, is taken every `ref_every_s` of op time,
    # and an op is scaled by the median of `ref_window` samples around it.
    # One sample is too noisy to scale by; a wider window lags the speed
    # changes (over six `deep` seeds, 10 samples spread op_tail_ms by 0.057,
    # 6 samples by 0.030).
    ref_s, ref_every_s, ref_window = REF_S, 0.02, 6

    def __init__(self, seed, quick, workdir):
        self.info = {}
        self.counts = Counter()
        self.known = Counter()

    def census(self, calls):
        pass

    def reference(self) -> float:
        return reference_s()

    def items(self):
        return itertools.cycle(self.inputs)

    def warmup(self, calls):
        for item in itertools.islice(itertools.cycle(self.warmup_inputs), self.warmup_ops):
            try:
                self.check(item, self.op(calls, item), calls)
            except DOCUMENTED:
                pass

    def in_process(self, calls, item):
        """Extra traced-run work after an op; only `cli` has any."""

    def close(self):
        pass


class Agreement(Workload):
    """glseq search, CSGL search and the oracle must agree on each formula."""

    def op(self, calls, f):
        a = calls.decide_glseq(GentzenSequent((), (f,)), CFG).proved
        b = calls.decide_csgl(_concl(f), CFG).proved
        c = calls.oracle_validity(f).valid
        return a, b, c

    def check(self, f, verdicts, calls):
        if len(set(verdicts)) != 1:
            raise WrongAnswer(f"disagreement on {print_formula(f)}: {verdicts}")


class Sweep(Agreement):
    """A seeded sample of the 2-atom enumeration."""

    name = "sweep"
    warmup_ops = 200

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        universe = list(enumerate_formulas(("p", "q"), 4 if quick else 6))
        self.info["universe"] = len(universe)
        self.inputs = random.Random(seed).sample(universe, min(len(universe), 60000))
        self.warmup_inputs = random.Random(WARMUP_SEED).sample(universe, self.warmup_ops)


class Deep(Agreement):
    """Larger 3-atom formulas, where the oracle does most of the work."""

    name = "deep"
    warmup_ops = 50

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.inputs = self._draw(random.Random(seed), 200 if quick else 12000)
        self.warmup_inputs = self._draw(random.Random(WARMUP_SEED), self.warmup_ops)

    @staticmethod
    def _draw(rng, n):
        return [random_formula(rng, ("p", "q", "r"), rng.randint(8, 12)) for _ in range(n)]


class Pipeline(Workload):
    """Search in CSGL, the five passes, and the stage checker on each stage."""

    name = "pipeline"

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.corpus = [parse_formula(s) for s in CORPUS] + [parse_formula(KNOWN_FUEL_BLOWUP)]
        self.drawn = draw_theorems(random.Random(seed), ("p", "q", "r"), 6, 12,
                                   20 if quick else 1000, self.info)
        self.failing = set()

    def census(self, calls):
        """Every theorem once, gated; this is also the warm-up."""
        for f in self.corpus + self.drawn:
            try:
                self.check(f, self.op(calls, f), calls)
            except DOCUMENTED as e:
                self.known[type(e).__name__] += 1
                self.failing.add(f)

    def items(self):
        """The corpus once, then the drawn theorems, without the census failures."""
        return itertools.chain(
            (f for f in self.corpus if f not in self.failing),
            itertools.cycle([f for f in self.drawn if f not in self.failing]))

    def op(self, calls, f):
        r = calls.decide_csgl(_concl(f), CFG)
        if not r.proved:
            return None
        proof, stages = r.proof, []
        for stage, pass_name, names in STAGES:
            if pass_name:
                proof, _ = calls.run_pass[pass_name](pass_name, proof)
            stages.append((stage, proof, [calls.check[c](proof).accepted for c in names]))
        return stages

    def check(self, f, stages, calls):
        if stages is None:
            raise WrongAnswer(f"csgl search did not prove theorem {print_formula(f)}")
        for stage, _, accepted in stages:
            if not all(accepted):
                raise WrongAnswer(f"stage {stage} rejected for {print_formula(f)}")
        if stages[-1][1].conclusion != _concl(f):
            raise WrongAnswer(f"last stage does not conclude |- x: {print_formula(f)}")


class Audit(Workload):
    """One semantic verdict per op, on sequents whose answer is known."""

    name = "audit"
    warmup_ops = 20

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        theorems = [f for f in enumerate_formulas(("p", "q"), 4)
                    if search.prove_formula(f, "glseq", CFG).proved]
        self.info["theorem_pool"] = len(theorems)
        # Every theorem's items, in an order drawn from the seed.  Items are
        # grouped by kind (the kinds differ in cost by up to 1000x), each
        # group is shuffled, and the groups are spread evenly through the
        # run, so every stretch of it sees the same mix.
        rng = random.Random(seed)
        groups = {}
        for f in theorems[:20 if quick else None]:
            for item in self._items(f):
                kind, x, valid = item
                groups.setdefault((kind, valid, kind == "labeled" and bool(x.rel)), []).append(item)
        keyed = []
        for key in sorted(groups):
            group = groups[key]
            rng.shuffle(group)
            keyed += [((i + 0.5) / len(group), item) for i, item in enumerate(group)]
        keyed.sort(key=lambda pair: pair[0])
        self.inputs = [item for _, item in keyed]
        self.warmup_inputs = [item for f in theorems[:3] for item in self._items(f)]
        self.info["tree_items"] = sum(1 for k, s, _ in self.inputs
                                      if k == "labeled" and s.rel)

    @staticmethod
    def _items(f):
        """Conclusions of checked proofs are valid; the negation of a
        theorem is invalid at any world, flat or related."""
        items = [
            ("labeled", _concl(f), True),
            ("labeled", LabeledSequent((), (), (("x", Not(f)),)), False),
            ("labeled", LabeledSequent((("x", "y"),), (), (("y", Not(f)),)), False),
            ("oracle", semantics.gentzen_interpretation(GentzenSequent((), (Not(f),))), False),
        ]
        csgl = search.prove_formula(f, "csgl", CFG).proof
        tree = [n.conclusion for _, n in csgl.nodes() if n.conclusion.rel]
        items += [("labeled", s, True) for s in tree[:2]]
        glseq = search.prove_formula(f, "glseq", CFG).proof
        items += [("oracle", semantics.gentzen_interpretation(n.conclusion), True)
                  for _, n in list(glseq.nodes())[:2]]
        lngl = transform.linearize(transform.to_end_active(csgl))
        for proof in (csgl, glseq, lngl):
            if not checkers.check_proof(proof).accepted:
                raise RuntimeError(f"audit source proof rejected for {print_formula(f)}")
        nested = [n.conclusion for _, n in lngl.nodes() if len(n.conclusion) > 1]
        items += [("oracle", semantics.lns_interpretation(s), True)
                  for s in [lngl.conclusion] + nested[:1]]
        return items

    def op(self, calls, item):
        kind, x, _ = item
        if kind == "labeled":
            return calls.labeled_sequent_valid(x)[0]
        return calls.oracle_validity(x).valid

    def check(self, item, verdict, calls):
        if verdict != item[2]:
            raise WrongAnswer(f"{item[0]} verdict {verdict} on {item[1]}, expected {item[2]}")


class Cli(Workload):
    """One `glproof` subprocess per op, started only after the last one exited."""

    name = "cli"
    # A bare interpreter start is slowed by the shared host as a `glproof`
    # child is; the pure-Python loop in this process is not (correlation
    # with the time of one `decide` call, per op: 0.79 against 0.20).  So a
    # start of `python -c pass` follows every op, and each op is scaled by
    # the two around it.  50 ms is its fast mode on this 2-core host.
    ref_s, ref_every_s, ref_window = 0.05, 0.0, 2

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.root = os.getcwd()
        self.workdir = workdir
        rng = random.Random(seed)
        n = 3 if quick else 40
        theorems = draw_theorems(rng, ("p", "q", "r"), 4, 12, n, self.info)
        others = [random_formula(rng, ("p", "q", "r"), rng.randint(2, 10)) for _ in range(n)]
        texts = [print_formula(f) for pair in zip(theorems, others) for f in pair]
        texts[1:1] = KNOWN_PIPELINE_DEFECTS[:1]
        texts[4:4] = KNOWN_PIPELINE_DEFECTS[1:]
        self.texts = texts
        self.valid = [semantics.oracle_validity(parse_formula(t)).valid for t in texts]
        self.env = self._compile_cache()

    def reference(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.root,
                       check=True, timeout=60)
        return time.perf_counter() - t0

    def warmup(self, calls):
        """One untimed call of each command on a fixed theorem."""
        warm = os.path.join(self.workdir, "warm")
        for argv in (["decide", "[]p -> [][]p"], ["oracle", "[]p -> [][]p"],
                     ["pipeline", "--emit-trace", warm, "[]p -> [][]p"],
                     ["check", os.path.join(warm, "06-g3gl.glp")]):
            calls.spawn[argv[0]](self._argv(argv), self.env, self.root)
        shutil.rmtree(warm, ignore_errors=True)

    def _compile_cache(self):
        """A bytecode cache owned by the benchmark, filled by one child that
        may write it; timed children only read it."""
        env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(self.workdir, "pycache"))
        writer = dict(env)
        writer.pop("PYTHONDONTWRITEBYTECODE", None)
        subprocess.run([sys.executable, "-c", "import glproof.cli"], env=writer,
                       cwd=self.root, check=True, timeout=120)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    @staticmethod
    def _argv(args):
        return [sys.executable, "-c", "from glproof.cli import main; main()"] + list(args)

    def _calls(self, i, text):
        """The calls made on one formula before the `check` calls."""
        code = 0 if self.valid[i] else 1
        out = os.path.join(self.workdir, f"f{i}")
        return [("decide", ["decide", "--calculus", "glseq", text], code, text),
                ("decide", ["decide", "--calculus", "csgl", text], code, text),
                ("oracle", ["oracle", text], code, text),
                ("pipeline", ["pipeline", "--emit-trace", out, text], code, text)]

    def census(self, calls):
        """Every call but `check` once, in this process through `cli.run`.
        A call whose outcome would be a documented error line or a
        traceback is a known failure; the timed loop does not make it."""
        self.failing = set()
        for i, text in enumerate(self.texts):
            for command, argv, expected, _ in self._calls(i, text):
                out = io.StringIO()
                try:
                    rc = calls.cli_run[command](argv, None, out, io.StringIO())
                except RuleError:
                    kind = "traceback:RuleError"
                else:
                    if rc == expected:
                        continue
                    code = out.getvalue().split("\t", 1)[0]
                    if "\t" not in out.getvalue() or code not in DOCUMENTED_CODES:
                        raise WrongAnswer(f"{' '.join(argv)}: exit {rc}, expected {expected}")
                    kind = code
                self.known[kind] += 1
                self.failing.add(tuple(argv))
            shutil.rmtree(os.path.join(self.workdir, f"f{i}"), ignore_errors=True)

    def items(self):
        """Per formula: decide in both calculi, oracle, pipeline with emitted
        stage files, then `check` on each file the pipeline wrote; the
        census failures left out."""
        while True:
            for i, text in enumerate(self.texts):
                shutil.rmtree(os.path.join(self.workdir, f"f{i}"), ignore_errors=True)
                for item in self._calls(i, text):
                    if tuple(item[1]) not in self.failing:
                        yield item
                out = os.path.join(self.workdir, f"f{i}")
                if os.path.isdir(out):
                    for name in sorted(os.listdir(out)):
                        yield ("check", ["check", os.path.join(out, name)], 0, None)

    def op(self, calls, item):
        return calls.spawn[item[0]](self._argv(item[1]), self.env, self.root)

    def check(self, item, proc, calls):
        command, argv, expected, text = item
        self.counts["exit_mismatch"] += proc.returncode != expected
        if "Traceback" in proc.stderr:
            self.counts["tracebacks"] += 1
            last = proc.stderr.strip().splitlines()[-1]
            return "traceback:" + last.split(":")[0].rsplit(".", 1)[-1]
        if proc.returncode != expected:
            code = proc.stdout.split("\t", 1)[0]
            if "\t" in proc.stdout and code in DOCUMENTED_CODES:
                return code
            raise WrongAnswer(f"{' '.join(argv)}: exit {proc.returncode}, expected "
                              f"{expected}; {proc.stdout[:200]!r} {proc.stderr[:200]!r}")
        if command == "decide" and expected == 0:
            proof = calls.parse_proof(proc.stdout)
            if not checkers.check_proof(proof).accepted:
                raise WrongAnswer(f"decide printed a rejected proof for {text}")
            target = parse_formula(text)
            if proof.conclusion not in (_concl(target), GentzenSequent((), (target,))):
                raise WrongAnswer(f"decide proved {proof.conclusion}, not {text}")
        return None

    def in_process(self, calls, item):
        """Traced run only: the same call through `cli.run` in this process,
        the formula parse it starts with, and the proof files it reads."""
        command, argv, _, text = item
        if text is not None:
            calls.parse_formula(text)
        if command == "check":
            with open(argv[-1]) as fh:
                calls.print_proof(calls.parse_proof(fh.read()))
        try:
            calls.cli_run[command](argv, None, io.StringIO(), io.StringIO())
        except RuleError:
            pass  # the known escape already counted from the subprocess

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, Deep, Pipeline, Audit, Cli)}
