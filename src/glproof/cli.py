"""Command-line surface: decide, check, transform, oracle, render, pipeline.

Exit codes: 0 success / proved / accepted / valid; 1 not proved / rejected /
countermodel; 2 usage or parse errors, including input nested too deeply,
files that cannot be opened, and a stdout whose reader has gone.
Checker failures are emitted as stable machine-readable lines
`CODE<TAB>address<TAB>message`.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

from .checkers import CheckReport, check_proof, end_active_report, normal_form_report
from .formula import ParseError, parse_formula
from .proofio import (
    SequentSyntaxError,
    parse_proof,
    parse_labeled_sequent,
    print_proof,
    write_proof,
)
from .render import (
    render_model_dot,
    render_proof_dot,
    render_proof_latex,
    render_proof_text,
    render_tree_sequent_dot,
    render_tree_sequent_text,
)
from .search import FuelExhausted, SearchConfig, prove_formula
from .semantics import BadModel, ModelBound, oracle_validity, parse_model, print_model
from .sequents import NotATree, format_address
from .transform import PASSES, TransformError, run_pass, run_pipeline


# what a pass's output must satisfy beyond its calculus's rules
PROMISES = {"end-active": end_active_report, "normalize": normal_form_report}


def output_report(pass_name: str, proof) -> CheckReport:
    """The checker of the proof's calculus, then what `pass_name` promises."""
    report = check_proof(proof)
    if report.accepted and pass_name in PROMISES:
        report = PROMISES[pass_name](proof)
    return report


def _read_formula(arg: str):
    if arg.startswith("@"):
        with open(arg[1:]) as fh:
            arg = fh.read().strip()
    return parse_formula(arg)


def _at_least_one(text: str) -> int:
    """An option value that must be an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, not {text!r}")
    return n


def _report_lines(report: CheckReport, out, about: str = "") -> None:
    for f in report.failures:
        print(f"{f.token()}\t{format_address(f.address)}\t{about}{f.message}", file=out)


def _rejected(report: CheckReport, out, about: str = "") -> int:
    print("rejected", file=out)
    _report_lines(report, out, about)
    return 1


def _report_json(report: CheckReport) -> dict:
    return {
        "accepted": report.accepted,
        "failures": [
            {
                "code": f.code,
                "detail": f.detail,
                "address": format_address(f.address),
                "message": f.message,
            }
            for f in report.failures
        ],
    }


def _print_json(doc: dict, out) -> None:
    import json  # here, not at the top: a text-format call never pays its import

    print(json.dumps(doc, indent=2), file=out)


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr

    parser = argparse.ArgumentParser(prog="glproof", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="backward proof search")
    p_decide.add_argument("--calculus", choices=("glseq", "csgl"), default="glseq")
    p_decide.add_argument("--fuel", type=_at_least_one, default=100000)
    p_decide.add_argument("--no-hint", action="store_true")
    p_decide.add_argument("--format", choices=("text", "json"), default="text")
    p_decide.add_argument("formula")

    p_check = sub.add_parser("check", help="validate a proof file")
    p_check.add_argument("--end-active", action="store_true",
                         help="also require end-activity (CSGL)")
    p_check.add_argument("--normal-form", action="store_true",
                         help="also require the normal-form block shape (LNGL)")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("file")

    p_tr = sub.add_parser("transform", help="run a proof transformation pass")
    p_tr.add_argument("--pass", dest="pass_name", choices=tuple(PASSES), required=True)
    p_tr.add_argument("-o", "--output")
    p_tr.add_argument("file")

    p_or = sub.add_parser("oracle", help="brute-force validity oracle")
    p_or.add_argument("--bound", type=_at_least_one, default=None,
                      help="uniform bound on worlds/depth/branching")
    p_or.add_argument("--format", choices=("text", "json"), default="text")
    p_or.add_argument("formula")

    p_rd = sub.add_parser("render", help="render proofs, models, sequents")
    p_rd.add_argument("--format", choices=("dot", "latex", "text"), default="text")
    p_rd.add_argument("--sequent", action="store_true",
                      help="treat the argument as a tree-sequent string")
    p_rd.add_argument("-o", "--output")
    p_rd.add_argument("source")

    p_pl = sub.add_parser("pipeline", help="decide in CSGL, then run all passes")
    p_pl.add_argument("--emit-trace", metavar="DIR")
    p_pl.add_argument("--fuel", type=_at_least_one, default=100000)
    p_pl.add_argument("formula")

    # argparse drops a failed write of its help text, so it writes here and
    # the text is copied to stdout where a closed pipe is reported
    parser_out = io.StringIO()
    try:
        try:
            with redirect_stdout(parser_out), redirect_stderr(stderr):
                args = parser.parse_args(argv)
            code = _dispatch(args, stdout, stderr)
        except SystemExit as e:  # argparse, after --help or a usage error
            stdout.write(parser_out.getvalue())
            code = 2 if e.code not in (0, None) else 0
        except FuelExhausted as e:
            print(f"FuelExhausted\t.\t{e}", file=stdout)
            code = 1
        except TransformError as e:
            print(f"{type(e).__name__}\t{format_address(e.address)}\t{e}", file=stdout)
            code = 1
        stdout.flush()
        return code
    except (ParseError, SequentSyntaxError, BadModel, NotATree, UnicodeDecodeError) as e:
        print(f"parse error: {e}", file=stderr)
        return 2
    except RecursionError:
        print("parse error: input nested too deeply", file=stderr)
        return 2
    except BrokenPipeError:
        print("cannot write output: Broken pipe", file=stderr)
        return 2
    except OSError as e:
        print(f"cannot open {e.filename}: {e.strerror}", file=stderr)
        return 2


def _dispatch(args, stdout, stderr) -> int:
    if args.command == "decide":
        f = _read_formula(args.formula)
        cfg = SearchConfig(fuel=args.fuel, oracle_hint=not args.no_hint)
        result = prove_formula(f, args.calculus, cfg)
        if args.format == "json":
            doc = {"result": "proved" if result.proved else "not-proved"}
            if result.proved:
                doc["proof"] = print_proof(result.proof)
            else:
                doc["saturated"] = str(result.saturated) if result.saturated else None
                if result.hint is not None:
                    doc["hint"] = {
                        "verdict": result.hint.kind,
                        "model": print_model(result.hint.model) if result.hint.model else None,
                    }
            _print_json(doc, stdout)
        elif result.proved:
            write_proof(result.proof, stdout)
        else:
            print(f"NotProved\t.\tsaturated at: {result.saturated}", file=stdout)
            if result.hint is not None and not result.hint.valid:
                print(f"hint: countermodel at world {result.hint.world}", file=stdout)
                stdout.write(print_model(result.hint.model))
        return 0 if result.proved else 1

    if args.command == "check":
        with open(args.file) as fh:
            obj = parse_proof(fh.read())
        report = check_proof(obj)
        if report.accepted and args.end_active:
            report = end_active_report(obj)
        if report.accepted and args.normal_form:
            report = normal_form_report(obj)
        if args.format == "json":
            _print_json(_report_json(report), stdout)
        else:
            print("accepted" if report.accepted else "rejected", file=stdout)
            _report_lines(report, stdout)
        return 0 if report.accepted else 1

    if args.command == "transform":
        with open(args.file) as fh:
            proof = parse_proof(fh.read())
        checked = check_proof(proof)
        if not checked.accepted:
            return _rejected(checked, stdout)
        out, report = run_pass(args.pass_name, proof)
        if not (checked := output_report(args.pass_name, out)).accepted:
            return _rejected(checked, stdout, f"{args.pass_name} output: ")
        if args.output:
            with open(args.output, "w") as fh:
                write_proof(out, fh)
        else:
            write_proof(out, stdout)
        print(report.line(), file=stderr)
        return 0

    if args.command == "oracle":
        f = _read_formula(args.formula)
        bound = ModelBound.uniform(args.bound) if args.bound is not None else None
        verdict = oracle_validity(f, bound)
        if args.format == "json":
            doc = {
                "verdict": verdict.kind,
                "bound_too_small": verdict.bound_too_small,
                "skeletons": verdict.skeletons,
                "tables": verdict.tables,
            }
            if verdict.model is not None:
                doc["model"] = print_model(verdict.model)
                doc["world"] = verdict.world
            _print_json(doc, stdout)
        elif verdict.valid:
            flag = " (bound too small for completeness)" if verdict.bound_too_small else ""
            print(f"Valid{flag}", file=stdout)
        else:
            print(f"Countermodel at world {verdict.world}", file=stdout)
            stdout.write(print_model(verdict.model))
        return 0 if verdict.valid else 1

    if args.command == "render":
        text = _render(args)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            stdout.write(text)
        return 0

    if args.command == "pipeline":
        return _pipeline(args, stdout)

    return 2


def _render(args) -> str:
    if args.sequent:
        t = parse_labeled_sequent(args.source)
        return render_tree_sequent_dot(t) if args.format == "dot" else render_tree_sequent_text(t)
    with open(args.source) as fh:
        text = fh.read()
    if args.source.endswith(".glm"):
        model = parse_model(text)
        if args.format == "dot":
            return render_model_dot(model)
        return print_model(model)
    obj = parse_proof(text)
    if args.format == "dot":
        return render_proof_dot(obj)
    if args.format == "latex":
        return render_proof_latex(obj)
    return render_proof_text(obj)


def _pipeline(args, stdout) -> int:
    f = _read_formula(args.formula)
    if args.emit_trace:
        os.makedirs(args.emit_trace, exist_ok=True)  # a bad path fails before any work
    result = prove_formula(f, "csgl", SearchConfig(fuel=args.fuel, oracle_hint=False))
    if not result.proved:
        print(f"NotProved\t.\tsaturated at: {result.saturated}", file=stdout)
        return 1
    stages = [("csgl", result.proof, None), *run_pipeline(result.proof)]
    for _, proof, report in stages:
        pass_name = report.pass_name if report else "decide"
        if not (checked := output_report(pass_name, proof)).accepted:
            return _rejected(checked, stdout, f"{pass_name} output: ")
    for i, (stage_name, proof, report) in enumerate(stages, start=1):
        report_line = report.line() if report else f"decide: concludes {proof.conclusion}"
        print(f"stage {i} {stage_name}: {report_line}", file=stdout)
    if args.emit_trace:
        for i, (stage_name, proof, _) in enumerate(stages, start=1):
            path = os.path.join(args.emit_trace, f"{i:02d}-{stage_name}.glp")
            with open(path, "w") as fh:
                write_proof(proof, fh)
        print(f"trace written to {args.emit_trace}", file=stdout)
    else:
        write_proof(stages[-1][1], stdout)
    return 0


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; what is still buffered would fail again, with
        # an "Exception ignored" report, in the flush at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
