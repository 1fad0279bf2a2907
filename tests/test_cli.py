import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from glproof.cli import run
from glproof import transform
import g3gl_reference
from glproof.formula import Atom, ParseError, parse_formula
from glproof.proofio import SequentSyntaxError, parse_labeled_sequent, parse_proof, print_proof
from glproof.rules import derive
from glproof.sequents import CyclicDerivation, Proof
from glproof.transform import PASSES, NotApplicable, run_pass
from test_transform import _boxl_into_fresh_label, _build


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


LOB = "[]([]p->p)->[]p"


def test_decide_proved_exit_zero():
    code, out, _ = invoke("decide", "--calculus", "csgl", LOB)
    assert code == 0
    assert out.startswith("calculus: csgl")


def test_decide_not_proved_exit_one():
    code, out, _ = invoke("decide", "[]p -> p")
    assert code == 1
    assert out.startswith("NotProved\t")
    assert "countermodel" in out


def test_decide_parse_error_exit_two():
    code, _, err = invoke("decide", "p |")
    assert code == 2 and "parse error" in err


def test_unknown_calculus_exit_two():
    code, _, _ = invoke("decide", "--calculus", "nope", "p")
    assert code == 2


def test_check_mode_is_not_an_option(tmp_path):
    # the calculus: header picks strict (g3gl) or extended (g3glext) checking
    code, out, _ = invoke("decide", "--calculus", "csgl", LOB)
    path = tmp_path / "lob.glp"
    path.write_text(out)
    code, out, err = invoke("check", "--mode", "strict", str(path))
    assert (code, out) == (2, "") and "unrecognized arguments: --mode" in err


def test_unknown_pass_exit_two(tmp_path):
    code, _, _ = invoke("transform", "--pass", "nope", "missing.glp")
    assert code == 2


def test_check_roundtrip(tmp_path):
    code, out, _ = invoke("decide", "--calculus", "csgl", LOB)
    path = tmp_path / "lob.glp"
    path.write_text(out)
    code, out2, _ = invoke("check", str(path))
    assert code == 0 and out2.strip() == "accepted"


def test_check_rejects_with_code_lines(tmp_path):
    text = (
        'calculus: glseq\n'
        '(rule id (concl "p |- q") (meta principal="p") (prems))\n'
    )
    path = tmp_path / "bad.glp"
    path.write_text(text)
    code, out, _ = invoke("check", str(path))
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "rejected"
    fields = lines[1].split("\t")
    assert fields[0] == "SchemaMismatch" and fields[1] == "."


def test_check_json(tmp_path):
    text = (
        'calculus: glseq\n'
        '(rule id (concl "p |- q") (meta principal="p") (prems))\n'
    )
    path = tmp_path / "bad.glp"
    path.write_text(text)
    code, out, _ = invoke("check", "--format", "json", str(path))
    doc = json.loads(out)
    assert code == 1 and not doc["accepted"]
    assert doc["failures"][0]["code"] == "SchemaMismatch"


# a root instance of each rule that no pass writes, over premises closed by id1
_UNPRODUCED = {
    "cL": ('x: p |- x: p', 'label=x principal="p"', ['x: p, x: p |- x: p']),
    "cR": ('x: p |- x: p', 'label=x principal="p"', ['x: p |- x: p, x: p']),
    "cut": ('x: p |- x: p', 'label=x principal="q"',
            ['x: p |- x: p, x: q', 'x: p, x: q |- x: p']),
    "sub": ('x: p |- x: p', 'x=x y=y', ['x: p |- x: p']),
    "w": ('x: p, x: q |- x: p', 'added="x: q |- "', ['x: p |- x: p']),
}


@pytest.mark.parametrize("calculus", ["g3glext", "g3gl"])
@pytest.mark.parametrize("rule", sorted(_UNPRODUCED))
def test_check_rejects_rules_without_a_producer(tmp_path, calculus, rule):
    concl, meta, prems = _UNPRODUCED[rule]
    leaves = "".join(f'  (rule id1 (concl "{s}") (meta label=x principal="p") (prems))\n'
                     for s in prems)
    path = tmp_path / "unproduced.glp"
    path.write_text(f'calculus: {calculus}\n'
                    f'(rule {rule} (concl "{concl}") (meta {meta}) (prems\n{leaves}))\n')
    code, out, _ = invoke("check", str(path))
    assert code == 1
    assert out.splitlines() == ["rejected", f"UnknownRule\t.\trule {rule} not available here"]


def test_backlink_meta_is_no_back_link(tmp_path):
    # back-links live in (backlink addr) terms only: a meta key is no back-link,
    # before a print/parse round trip or after it
    text = GLCIRC_FILE.replace("(backlink 0)", "(meta backlink=0)")
    assert text != GLCIRC_FILE
    path = tmp_path / "meta.glp"
    for _ in range(2):
        path.write_text(text)
        code, out, _ = invoke("check", str(path))
        assert code == 1 and "OpenLeaf\t" in out
        text = print_proof(parse_proof(text))
        assert "(backlink" not in text and '(meta backlink="0")' in text


@pytest.mark.parametrize("link", ["", " (backlink .)"])
def test_open_leaf_meta_round_trips(link):
    # an open leaf prints its meta as a rule node does, beside a back-link
    # or without one
    text = (f'calculus: glcirc\n(rule box4 (concl "[]p |- []p") (meta gamma="p" phi="p") (prems\n'
            f'  (open (concl "p, []p |- p"){link} (meta note="x"))\n))\n')
    d = parse_proof(text)
    assert d.derivation.premises[0].meta == {"note": "x"}
    assert print_proof(d) == text


def test_oracle_valid_and_countermodel():
    code, out, _ = invoke("oracle", LOB)
    assert code == 0 and out.strip() == "Valid"
    code, out, _ = invoke("oracle", "[]p -> p")
    assert code == 1 and "Countermodel" in out and "worlds:" in out


def test_oracle_json_counters():
    code, out, _ = invoke("oracle", "--format", "json", "[]p -> p")
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "Countermodel"
    assert doc["skeletons"] == 1 and doc["tables"] == 1


def test_oracle_bound_flag():
    code, out, _ = invoke("oracle", "--bound", "1", "[][]p")
    assert code == 0 and "bound too small" in out
    for bound in ("0", "-1", "x"):
        code, out, err = invoke("oracle", "--bound", bound, "p")
        assert (code, out) == (2, ""), bound
        assert "argument --bound: must be an integer of at least 1" in err


@pytest.mark.parametrize("argv", [
    ("decide", "--fuel", "0"), ("decide", "--fuel", "-1"), ("decide", "--fuel", "x"),
    ("pipeline", "--fuel", "0"),
])
def test_fuel_below_one_is_a_usage_error(argv):
    code, out, err = invoke(*argv, "p | ~p")
    assert (code, out) == (2, ""), argv
    assert err.startswith("usage: glproof")
    assert "argument --fuel: must be an integer of at least 1" in err
    # 1 is a fuel; running out of it stays the documented failure, exit 1
    code, out, _ = invoke(argv[0], "--fuel", "1", "p | ~p")
    assert (code, out) == (1, "FuelExhausted\t.\tsearch ran out of fuel after 1 nodes\n")


def test_emit_trace_onto_a_file_fails_before_search(tmp_path):
    target = tmp_path / "taken"
    target.write_text("")
    code, out, err = invoke("pipeline", "--emit-trace", str(target), "[]p->[][]p")
    assert (code, out) == (2, "")
    assert err == f"cannot open {target}: File exists\n"


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: writing or flushing raises."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.fail_on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ("oracle", "--format", "json", "[]p->p"),
    ("decide", "--calculus", "csgl", LOB),
    ("decide", "--fuel", "1", LOB),  # the FuelExhausted line
    ("decide", "--help"),  # argparse's own output
])
def test_closed_stdout_is_not_a_file_error(fail_on, argv):
    err = io.StringIO()
    assert run(list(argv), stdout=ClosedPipe(fail_on), stderr=err) == 2
    assert err.getvalue() == "cannot write output: Broken pipe\n"


def _main_into_closed_pipe(*argv):
    """`glproof argv` in a child whose stdout pipe has no reader:
    (exit code, stderr)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from glproof.cli import main; main()", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def test_closed_stdout_pipe_exits_quietly():
    # the reader closes before the child writes: one line on stderr, no
    # traceback and no "Exception ignored" report from the flush at shutdown
    assert _main_into_closed_pipe("oracle", "--format", "json", "[]p->p") == (
        2, "cannot write output: Broken pipe\n")


@pytest.mark.parametrize("argv", [["--help"], ["decide", "--help"]])
def test_closed_stdout_pipe_after_help(argv):
    # argparse writes its help text and exits while parsing; the text meets
    # the closed pipe like any other command's output
    assert _main_into_closed_pipe(*argv) == (2, "cannot write output: Broken pipe\n")


def test_cli_import_leaves_out_dataclasses_inspect_and_json():
    # the start-up cost of every call: none of these is run on a text-format call
    probe = ("import sys; before = set(sys.modules); import glproof.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    added = set(proc.stdout.split())
    assert "glproof.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}, added


def test_pipeline_emit_trace(tmp_path):
    trace = tmp_path / "trace"
    code, out, _ = invoke("pipeline", "[]p->[][]p", "--emit-trace", str(trace))
    assert code == 0
    files = sorted(os.listdir(trace))
    assert files == [
        "01-csgl.glp", "02-end-active.glp", "03-lngl.glp",
        "04-normal.glp", "05-glseq.glp", "06-g3gl.glp",
    ]
    # every stage file re-checks under `check`
    for name in files:
        code, out2, _ = invoke("check", str(trace / name))
        assert code == 0, (name, out2)


@pytest.mark.parametrize("flag, calculus, form", [
    ("--end-active", "csgl", "end-activity"),
    ("--normal-form", "lngl", "the normal form"),
])
def test_check_form_flags_reject_other_calculi(tmp_path, flag, calculus, form):
    assert invoke("pipeline", "[]p->[][]p", "--emit-trace", str(tmp_path))[0] == 0
    (tmp_path / "07-glcirc.glp").write_text(GLCIRC_FILE)
    for path in sorted(tmp_path.iterdir()):
        got = path.read_text().split("\n", 1)[0].split(": ")[1]
        code, out, err = invoke("check", flag, str(path))
        if got == calculus:
            assert (code, out) == (0, "accepted\n"), path.name
        else:
            assert code == 1 and not err, path.name
            assert out.splitlines() == [
                "rejected", f"CalculusMismatch\t.\t{form} is defined on {calculus} proofs, not {got}"]


def test_pipeline_unprovable_exit_one():
    code, out, _ = invoke("pipeline", "[]p")
    assert code == 1 and out.startswith("NotProved")


def test_byte_identical_invocations(tmp_path):
    runs = [invoke("pipeline", LOB, "--emit-trace", str(tmp_path / f"t{i}")) for i in (0, 1)]
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("trace written")]
    assert strip(runs[0][1]) == strip(runs[1][1])
    for name in os.listdir(tmp_path / "t0"):
        a = (tmp_path / "t0" / name).read_text()
        b = (tmp_path / "t1" / name).read_text()
        assert a == b, name


def test_render_formats(tmp_path):
    code, out, _ = invoke("decide", "--calculus", "csgl", LOB)
    path = tmp_path / "lob.glp"
    path.write_text(out)
    code, dot, _ = invoke("render", "--format", "dot", str(path))
    assert code == 0 and dot.startswith("digraph proof")
    code, tex, _ = invoke("render", "--format", "latex", str(path))
    assert code == 0 and tex.startswith(r"\begin{prooftree}")
    code, txt, _ = invoke("render", "--format", "text", str(path))
    assert code == 0 and txt.startswith("[orR]")


@pytest.mark.parametrize("body, link, leaf", [
    ('(open (concl "p |- p") (backlink 3))', "3", 0),
    ('(rule id (concl "p |- p") (prems (open (concl "p |- p") (backlink 0/7))))', "0/7", 1),
])
def test_render_dot_draws_a_dangling_backlink(tmp_path, body, link, leaf):
    # a back-link to an address the derivation lacks goes to a node of its own
    path = tmp_path / "dangling.glp"
    path.write_text(f"calculus: glcirc\n{body}\n")
    code, dot, err = invoke("render", "--format", "dot", str(path))
    assert (code, err) == (0, "")
    assert dot.splitlines()[-3:] == [
        f'  n{leaf + 1} [label="{link}", style=dotted];',
        f"  n{leaf} -> n{leaf + 1} [style=dashed, constraint=false];", "}"]
    for fmt in ("text", "latex"):
        code, out, _ = invoke("render", "--format", fmt, str(path))
        assert code == 0 and link in out


def test_render_model_and_sequent(tmp_path):
    model = tmp_path / "m.glm"
    model.write_text("worlds: w u\nrel: w<u\nval p: u\n")
    code, dot, _ = invoke("render", "--format", "dot", str(model))
    assert code == 0 and dot.startswith("digraph model")
    code, txt, _ = invoke("render", "--sequent", "--format", "text",
                          "xRy; xRz; x: p |- z: q")
    assert code == 0 and txt.splitlines()[0].startswith("x:")
    for fmt in ("text", "dot"):
        code, out, err = invoke("render", "--sequent", "--format", fmt, "xRy; yRx; x: p |- y: q")
        assert (code, out, err) == (2, "", "parse error: cycle\n")


def test_transform_pass(tmp_path):
    code, out, _ = invoke("decide", "--calculus", "csgl", LOB)
    src = tmp_path / "lob.glp"
    src.write_text(out)
    dst = tmp_path / "ea.glp"
    code, _, err = invoke("transform", "--pass", "end-active", "-o", str(dst), str(src))
    assert code == 0 and "end-active" in err
    code, out2, _ = invoke("check", str(dst))
    assert code == 0
    code, out, err = invoke("transform", "--pass", "end-active", "-o", str(tmp_path), str(src))
    assert (code, out) == (2, "") and err == f"cannot open {tmp_path}: Is a directory\n"


def test_formula_from_file(tmp_path):
    f = tmp_path / "lob.glf"
    f.write_text(LOB + "\n")
    code, _, _ = invoke("oracle", f"@{f}")
    assert code == 0


def test_transform_rejects_wrong_calculus(tmp_path):
    code, out, _ = invoke("decide", "--calculus", "csgl", "[]p -> [][]p")
    src = tmp_path / "four.glp"
    src.write_text(out)
    for pass_name, wants in (("to-glseq", "lngl"), ("to-g3gl", "glseq")):
        code, out2, _ = invoke("transform", "--pass", pass_name, str(src))
        assert code == 1
        assert out2 == f"NotApplicable\t.\t{pass_name} takes a {wants} proof\n"
    # in the library, every pass rejects a proof of another calculus
    csgl = parse_proof(out)
    for pass_name, (wants, _) in PASSES.items():
        other = csgl.retag("glseq") if wants == "csgl" else csgl
        with pytest.raises(NotApplicable) as e:
            run_pass(pass_name, other)
        assert str(e.value) == f"{pass_name} takes a {wants} proof"


def test_transform_rejects_unchecked_proof(tmp_path):
    code, out, _ = invoke("decide", "--calculus", "csgl", "[]p -> [][]p")
    bad = out.replace('(rule 4L (concl "xRy0; x: []p, y0: [][]p |- y0: []p") (meta aux=y0 label=x phi="p")',
                      '(rule 4L (concl "xRy0; x: []p, y0: [][]p |- y0: []p") (meta aux=y0 label=x phi="q")')
    assert bad != out
    src = tmp_path / "bad.glp"
    src.write_text(bad)
    code, out2, _ = invoke("transform", "--pass", "end-active", str(src))
    assert code == 1
    lines = out2.splitlines()
    assert lines[0] == "rejected"
    assert lines[1].startswith("SchemaMismatch\t0/0/0\t")



def test_transform_checks_its_output_before_writing_it(tmp_path, monkeypatch):
    code, out, _ = invoke("decide", "--calculus", "csgl", LOB)
    src, dst = tmp_path / "lob.glp", tmp_path / "out.glp"
    src.write_text(out)
    # on success, stdout is the pass's output as it was before the check
    code, out2, _ = invoke("transform", "--pass", "end-active", str(src))
    assert (code, out2) == (0, print_proof(run_pass("end-active", parse_proof(out))[0]))
    # an output that breaks its calculus's rules
    broken = parse_proof(out.replace('phi="p"', 'phi="q"', 1))
    monkeypatch.setitem(transform.PASSES, "end-active", ("csgl", lambda p: broken))
    code, out2, _ = invoke("transform", "--pass", "end-active", "-o", str(dst), str(src))
    lines = out2.splitlines()
    assert (code, lines[0]) == (1, "rejected") and not dst.exists()
    assert lines[1].startswith("SchemaMismatch\t") and "\tend-active output: " in lines[1]
    # an output that checks but is not what the pass promises
    steps, concls = _boxl_into_fresh_label("s")
    leaf = Proof("csgl", "id2", concls[-1], (), {"label": "x", "principal": parse_formula("[]q")})
    not_end_active = _build(steps, concls, leaf)
    monkeypatch.setitem(transform.PASSES, "end-active", ("csgl", lambda p: not_end_active))
    code, out2, _ = invoke("transform", "--pass", "end-active", str(src))
    lines = out2.splitlines()
    assert (code, lines[0]) == (1, "rejected")
    assert lines[1].startswith("NotEndActive") and "\tend-active output: " in lines[1]
    # and the normal form, for normalize
    monkeypatch.setitem(transform.PASSES, "normalize", ("csgl", lambda p: not_end_active))
    code, out2, _ = invoke("transform", "--pass", "normalize", str(src))
    assert (code, out2.splitlines()[0]) == (1, "rejected")
    assert "\tnormalize output: " in out2


def test_to_csgl_retags_a_stage_six_proof(tmp_path):
    assert invoke("pipeline", LOB, "--emit-trace", str(tmp_path))[0] == 0
    dst = tmp_path / "csgl.glp"
    code, _, err = invoke("transform", "--pass", "to-csgl", "-o", str(dst),
                          str(tmp_path / "06-g3gl.glp"))
    assert code == 0 and err.startswith("to-csgl: ")
    assert dst.read_text().startswith("calculus: csgl\n")
    assert invoke("check", "--end-active", str(dst)) == (0, "accepted\n", "")


def test_to_csgl_refuses_a_rule_csgl_lacks(tmp_path):
    # a tr node above the root: the G3GL proof checks, and to-csgl names it
    tree = ("negR", {"label": "x", "principal": parse_formula("~q")},
            [("tr", {"x": "x", "y": "y", "z": "z"},
              [("boxL", {"label": "x", "aux": "z", "phi": Atom("p")},
                [("id1", {"label": "z", "principal": Atom("p")}, [])])])])
    proof = derive("g3glext", tree, parse_labeled_sequent("xRy; yRz; x: []p |- z: p, x: ~q"),
                   lambda n: n)
    src = tmp_path / "tr.glp"
    src.write_text(print_proof(proof))
    assert invoke("check", str(src))[0] == 0
    code, out, _ = invoke("transform", "--pass", "to-csgl", str(src))
    assert (code, out) == (1, "NotApplicable\t0\ttr is not a CSGL rule\n")


def test_pipeline_checks_every_stage_before_it_prints(tmp_path, monkeypatch):
    trace = tmp_path / "trace"
    code, out, _ = invoke("pipeline", LOB)
    assert code == 0
    # a to-g3gl that still writes w nodes: stage 6 is rejected, and no stage
    # line, proof or stage file is written
    monkeypatch.setitem(transform.PASSES, "to-g3gl", g3gl_reference.W_PASS)
    for argv in ([LOB], [LOB, "--emit-trace", str(trace)]):
        code, out, _ = invoke("pipeline", *argv)
        lines = out.splitlines()
        assert (code, lines[0]) == (1, "rejected")
        assert lines[1].startswith("UnknownRule\t") and "\tto-g3gl output: " in lines[1]
        assert all("\tto-g3gl output: " in line for line in lines[1:])
    assert list(trace.iterdir()) == []


def test_pass_failure_names_its_node(tmp_path):
    # the boxL at 0/0/0/0/0/0/0 feeds the id above it and cannot cross the
    # boxR below it, but the boxRs that make it no end-active rule are read
    # by nothing: end-activation prunes them, and its output is checked
    steps, concls = _boxl_into_fresh_label("q")
    leaf = Proof("csgl", "id1", concls[-1], (), {"label": "y", "principal": parse_formula("q")})
    src = tmp_path / "stuck.glp"
    src.write_text(print_proof(_build(steps, concls, leaf)))
    code, out, err = invoke("transform", "--pass", "end-active", str(src))
    assert code == 0 and err.startswith("end-active: nodes 9->7, ")
    assert [n.rule for _, n in parse_proof(out).nodes()] == [
        "orR", "orR", "orR", "negR", "boxR", "boxL", "id1"]
    # a pass that fails names the node it failed at: to-csgl at a tr two
    # levels up
    tree = ("orR", {"label": "x", "principal": parse_formula("~q | r")},
            [("negR", {"label": "x", "principal": parse_formula("~q")},
              [("tr", {"x": "x", "y": "y", "z": "z"},
                [("boxL", {"label": "x", "aux": "z", "phi": Atom("p")},
                  [("id1", {"label": "z", "principal": Atom("p")}, [])])])])])
    proof = derive("g3glext", tree, parse_labeled_sequent("xRy; yRz; x: []p |- z: p, x: ~q | r"),
                   lambda n: n)
    src = tmp_path / "tr.glp"
    src.write_text(print_proof(proof))
    code, out, _ = invoke("transform", "--pass", "to-csgl", str(src))
    assert (code, out) == (1, "NotApplicable\t0/0\ttr is not a CSGL rule\n")


def _malformed_file(tmp_path, name):
    if name == "truncated.glp":
        code, proof, _ = invoke("decide", "--calculus", "csgl", LOB)
        assert code == 0
        text = proof[: proof.rindex("\n", 0, len(proof) // 2)]  # whole lines, open terms
    elif name == "component.glp":
        text = 'calculus: lngl\n(rule id1 (concl "p |- p") (meta component=zz principal="p") (prems))\n'
    elif name == "binary.glp":
        text = b"\xff\xfe"
    elif name == "directory.glp":
        text = None
    else:
        text = "worlds: a\nrel: a<a\n"
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is None:
        path.mkdir()
    else:
        path.write_text(text)
    return path


@pytest.mark.parametrize("name", [
    "truncated.glp", "component.glp", "reflexive.glm", "binary.glp", "directory.glp",
])
@pytest.mark.parametrize("command", [
    ["check"], ["transform", "--pass", "end-active"], ["render"],
])
def test_malformed_files_exit_two(tmp_path, command, name):
    code, out, err = invoke(*command, str(_malformed_file(tmp_path, name)))
    assert code == 2, (out, err)
    prefix = "cannot open " if name == "directory.glp" else "parse error: "
    assert err.startswith(prefix) and len(err.splitlines()) == 1
    assert "Traceback" not in out + err


@pytest.mark.parametrize("body", [
    "", "(rule)", '(rule (concl "p |- p") (prems))', "(rule id1 (concl", "(rule id1 (concl)",
])
def test_empty_nameless_and_cut_terms_exit_two(tmp_path, body):
    path = tmp_path / "bad.glp"
    path.write_text(f"calculus: glseq\n{body}\n")
    code, _, err = invoke("check", str(path))
    assert code == 2 and err.startswith("parse error: ")


# each edit gives the root term of a GLseq proof of LOB one item twice
@pytest.mark.parametrize("old, new, named", [
    ('(rule orR (concl', '(rule orR (concl "|- q") (concl', "rule orR repeats (concl ...)"),
    ('(meta principal=', '(meta principal="p") (meta principal=', "rule orR repeats (meta ...)"),
    (') (prems\n', ') (prems) (prems\n', "rule orR repeats (prems ...)"),
    ('(meta principal=', '(meta principal="p" principal=', "meta repeats the key 'principal'"),
])
def test_repeated_node_items_exit_two(tmp_path, old, new, named):
    code, proof, _ = invoke("decide", "--calculus", "glseq", LOB)
    assert code == 0
    head, _, rest = proof.partition("\n")
    root, _, rest = rest.partition("\n")
    path = tmp_path / "repeated.glp"
    path.write_text(f"{head}\n{(root + chr(10)).replace(old, new, 1)}{rest}")
    assert path.read_text() != proof
    code, out, err = invoke("check", str(path))
    assert (code, out, err) == (2, "", f"parse error: {named}\n")


@pytest.mark.parametrize("item", ['(concl "p |- p")', "(backlink .)", "(meta)"])
def test_repeated_open_leaf_items_exit_two(tmp_path, item):
    path = tmp_path / "repeated.glp"
    path.write_text(f'calculus: glcirc\n(open (concl "p |- p") (backlink .) (meta) {item})\n')
    code, out, err = invoke("check", str(path))
    head = item[1:].split()[0].rstrip(")")
    assert (code, out, err) == (2, "", f"parse error: open leaf repeats ({head} ...)\n")


def test_long_chain_model_loads(tmp_path):
    # the transitive closure of a 150-world chain has 150*149/2 pairs
    worlds = [f"w{i}" for i in range(150)]
    rel = "; ".join(f"{a}<{b}" for a, b in zip(worlds, worlds[1:]))
    path = tmp_path / "chain.glm"
    path.write_text(f"worlds: {' '.join(worlds)}\nrel: {rel}\n")
    code, out, _ = invoke("render", str(path))
    assert code == 0
    assert len(out.splitlines()[1][len("rel: "):].split("; ")) == 11175


def test_cyclic_model_exit_two(tmp_path):
    path = tmp_path / "cycle.glm"
    path.write_text("worlds: a b\nrel: a<b; b<a\n")
    code, _, err = invoke("render", str(path))
    assert code == 2 and err.startswith("parse error: relation is not irreflexive")


DEEP = "~" * 5000 + "p"


@pytest.mark.parametrize("command", [["decide"], ["oracle"], ["pipeline"]])
def test_deeply_nested_formula_exit_two(command):
    code, out, err = invoke(*command, DEEP)
    assert code == 2 and out == ""
    assert err == "parse error: input nested too deeply\n"


@pytest.mark.parametrize("calculus", ["glseq", "csgl"])
def test_decide_deep_theorem_exit_zero(calculus):
    # replay rebuilds this 600-level proof without recursing once per level
    code, out, err = invoke("decide", "--calculus", calculus, "~" * 600 + "(p | ~p)")
    assert code == 0 and err == ""
    assert out.startswith(f"calculus: {calculus}")


def test_deeply_nested_proof_is_checked(tmp_path):
    # a proof file of any depth parses; these negR nodes are not instances
    depth = 3000
    node = '(rule negR (concl "p |- p") (meta principal="~p") (prems\n'
    leaf = '(rule id (concl "p |- p") (meta principal="p") (prems))'
    path = tmp_path / "deep.glp"
    path.write_text("calculus: glseq\n" + node * depth + leaf + "))" * depth + "\n")
    code, out, err = invoke("check", str(path))
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "rejected" and len(lines) == depth + 1
    assert all(line.startswith("SchemaMismatch\t") for line in lines[1:])


def test_deep_valid_proof_checks_renders_and_round_trips(tmp_path):
    # 1,200 boxL nodes over id1; each adds y: p, so the antecedent grows by
    # one item a level
    p = Atom("p")
    tree = ("id1", {"label": "y", "principal": p}, [])
    for _ in range(1200):
        tree = ("boxL", {"label": "x", "aux": "y", "phi": p}, [tree])
    proof = derive("g3glext", tree, parse_labeled_sequent("xRy; x: []p |- y: p"), lambda n: n)
    assert proof.height() == 1200
    text = print_proof(proof)
    assert print_proof(parse_proof(text)) == text
    path = tmp_path / "deep.glp"
    path.write_text(text)
    assert invoke("check", str(path)) == (0, "accepted\n", "")
    for fmt in ("text", "dot", "latex"):
        code, out, err = invoke("render", "--format", fmt, str(path))
        assert code == 0 and err == "" and out.count("\n") > 1200


# well-formed formulas, and token soup with stray characters
FORMULA_TEXT = st.one_of(
    st.recursive(
        st.sampled_from(["p", "q", "r"]),
        lambda sub: st.one_of(
            sub.map(lambda f: "~" + f),
            sub.map(lambda f: "[]" + f),
            st.tuples(sub, st.sampled_from(["|", "&", "->"]), sub).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
        ),
        max_leaves=4,
    ),
    st.lists(
        st.sampled_from(["p", "q", "r", "~", "[]", "|", "&", "->", "(", ")", " ", "[", "-"]),
        max_size=12,
    ).map("".join),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(FORMULA_TEXT)
def test_fuzz_cli_exit_codes(text):
    for argv in (["decide", "--no-hint", text],
                 ["decide", "--no-hint", "--calculus", "csgl", text],
                 ["oracle", "--bound", "3", text]):
        code, _, _ = invoke(*argv)
        assert code in (0, 1, 2), (argv, code)


def test_usage_errors_go_to_the_given_stderr(capsys):
    code, out, err = invoke("decide", "--no-hint", "-p")
    assert code == 2 and out == ""
    assert err.startswith("usage: glproof decide") and "error:" in err
    assert capsys.readouterr() == ("", "")


def test_meta_holding_a_term_exit_two(tmp_path):
    path = tmp_path / "bad.glp"
    path.write_text('calculus: glseq\n(rule id (concl "p |- p") (meta principal= (p)) (prems))\n')
    code, _, err = invoke("check", str(path))
    assert code == 2 and err.startswith("parse error: meta takes key=value")


CSGL_FILE = """calculus: csgl
(rule orR (concl "|- x: ~[]p | [][]p") (meta label=x principal="~[]p | [][]p") (prems
  (rule negR (concl "|- x: ~[]p, x: [][]p") (meta label=x principal="~[]p") (prems
    (rule boxR (concl "x: []p |- x: [][]p") (meta fresh=y0 label=x phi="[]p") (prems
      (rule 4L (concl "xRy0; x: []p, y0: [][]p |- y0: []p") (meta aux=y0 label=x phi="p") (prems
        (rule id2 (concl "xRy0; x: []p, y0: []p, y0: [][]p |- y0: []p") (meta label=y0 principal="[]p") (prems))
      ))
    ))
  ))
))
"""

GLCIRC_FILE = """calculus: glcirc
(rule box4 (concl "[](~[]p | p) |- []p") (meta gamma="~[]p | p" phi="p") (prems
  (rule orL (concl "~[]p | p, [](~[]p | p) |- p") (meta principal="~[]p | p") (prems
    (rule negL (concl "~[]p, [](~[]p | p) |- p") (meta principal="~[]p") (prems
      (rule box4 (concl "[](~[]p | p) |- p, []p") (meta gamma="~[]p | p" phi="p") (prems
        (open (concl "~[]p | p, [](~[]p | p) |- p") (backlink 0))
      ))
    ))
    (rule id (concl "p, [](~[]p | p) |- p") (meta principal="p") (prems))
  ))
))
"""

# small tokens, so that edits land inside quoted sequents and meta values too
_GLP_TOKEN_RE = re.compile(r"\s+|\[\]|->|\|-|[()\";=,:|~/]|[a-z0-9_]+|.")
_GLP_TOKENS = sorted(set(_GLP_TOKEN_RE.findall(CSGL_FILE + GLCIRC_FILE)) | {"\\", "//", "-1"})


@st.composite
def mangled_proof_files(draw):
    tokens = _GLP_TOKEN_RE.findall(draw(st.sampled_from([CSGL_FILE, GLCIRC_FILE])))
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["truncate", "insert", "delete"]))
        i = draw(st.integers(0, len(tokens)))
        if edit == "truncate":
            tokens = tokens[:i]
        elif edit == "insert":
            tokens.insert(i, draw(st.sampled_from(_GLP_TOKENS)))
        elif i < len(tokens):
            del tokens[i]
    return "".join(tokens)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mangled_proof_files())
def test_fuzz_parse_proof(text):
    try:
        parsed = parse_proof(text)
    except (SequentSyntaxError, ParseError):
        pass
    else:
        assert isinstance(parsed, (Proof, CyclicDerivation))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mangled.glp")
        with open(path, "w") as fh:
            fh.write(text)
        code, out, err = invoke("check", path)
    assert code in (0, 1, 2), (code, out, err)
