"""Reach probe: the functions of src/glproof that no CLI command executes.

    python3 tests/reach_probe.py [NAME ...]

Draws 40 theorems (proved by GLseq search) and 40 other formulas over
{p, q, r} from `random.Random(2)`, and runs every CLI command on each
through `glproof.cli.run`, in this process:
- `decide` in both calculi, in text and json, with and without the
  oracle hint, and `oracle` in text and json;
- `pipeline --emit-trace`, then on every stage file `check` (text and json,
  with `--end-active` or `--normal-form` where the stage has that shape),
  `render` in all three formats, and `transform` with every pass;
- `render` of each countermodel `oracle` prints, and `render --sequent` of
  each formula's root sequent.

Every line run in src/glproof is traced (`sys.settrace`); nothing else is.
Prints each function and lambda of src/glproof whose body ran no line, as
`path:line qualname`, then the count.  For each NAME, a function's qualified
name, it also prints that function's lines that never ran.  It takes about
40 s in one process, so pytest does not collect it (the file name has no
`test_`).
"""

from __future__ import annotations

import inspect
import io
import os
import random
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "glproof"
sys.path.insert(0, str(ROOT / "src"))

from glproof import cli  # noqa: E402
from glproof.formula import print_formula, random_formula  # noqa: E402
from glproof.search import SearchConfig, prove_formula  # noqa: E402
from glproof.transform import PASSES  # noqa: E402

PAIRS = 40
ATOMS = ("p", "q", "r")


def formulas(rng: random.Random) -> list[str]:
    """PAIRS theorems and PAIRS other formulas, alternating."""
    theorems = []
    while len(theorems) < PAIRS:
        f = random_formula(rng, ATOMS, rng.randint(4, 12))
        if prove_formula(f, "glseq", SearchConfig(oracle_hint=False)).proved:
            theorems.append(f)
    others = [random_formula(rng, ATOMS, rng.randint(2, 10)) for _ in range(PAIRS)]
    return [print_formula(f) for pair in zip(theorems, others) for f in pair]


def calls(text: str, work: str):
    """The argv lists run on one formula, in order; the later ones read the
    files the earlier ones wrote into `work`."""
    for calculus in ("glseq", "csgl"):
        for fmt in ("text", "json"):
            yield ["decide", "--calculus", calculus, "--format", fmt, text]
            yield ["decide", "--calculus", calculus, "--format", fmt, "--no-hint", text]
    for fmt in ("text", "json"):
        yield ["oracle", "--format", fmt, text]
    for fmt in ("dot", "text"):
        yield ["render", "--sequent", "--format", fmt, f"|- x: {text}"]
    yield ["pipeline", "--emit-trace", work, text]
    for name in sorted(os.listdir(work)):
        path = os.path.join(work, name)
        for fmt in ("dot", "latex", "text"):
            yield ["render", "--format", fmt, path]
        if name.endswith(".glm"):
            continue
        for fmt in ("text", "json"):
            yield ["check", "--format", fmt, path]
        stage = name[3:-len(".glp")]
        if stage in ("csgl", "end-active"):
            yield ["check", "--end-active", path]
        if stage in ("lngl", "normal"):
            yield ["check", "--normal-form", path]
        for pass_name in PASSES:
            yield ["transform", "--pass", pass_name, "-o", os.path.join(work, "out"), path]


def run_all(texts: list[str]) -> None:
    """Every call on every formula; a countermodel that `oracle` prints is
    written to `model.glm` for `render`."""
    for text in texts:
        with tempfile.TemporaryDirectory() as work:
            for argv in calls(text, work):
                out = io.StringIO()
                cli.run(argv, None, out, io.StringIO())
                head, _, model = out.getvalue().partition("\n")
                if argv[0] == "oracle" and head.startswith("Countermodel"):
                    with open(os.path.join(work, "model.glm"), "w") as fh:
                        fh.write(model)


def functions() -> list[types.CodeType]:
    """Every function and lambda defined in src/glproof, compiled from its
    source; comprehensions belong to the function around them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for c in stack.pop().co_consts:
                if isinstance(c, types.CodeType):
                    stack.append(c)
                    if c.co_flags & inspect.CO_NEWLOCALS and (
                            c.co_name == "<lambda>" or not c.co_name.startswith("<")):
                        found.append(c)
    return found


def key(code: types.CodeType) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_qualname


def trace(run) -> dict:
    """The lines each code object of src/glproof ran while `run()` ran."""
    prefix = str(SRC) + os.sep
    ran: dict = defaultdict(set)

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = ran[key(frame.f_code)]

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return ran


def spans(lines: list[int]) -> str:
    out = []
    for n in lines:
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(names: list[str]) -> None:
    texts = formulas(random.Random(2))
    ran = trace(lambda: run_all(texts))
    codes = functions()
    unrun = [c for c in codes if not ran.get(key(c))]
    for c in sorted(unrun, key=key):
        print(f"{os.path.relpath(c.co_filename, ROOT)}:{c.co_firstlineno} {c.co_qualname}")
    print(f"{len(unrun)} of {len(codes)} functions ran no line "
          f"({len(texts)} formulas, {PAIRS} of them theorems)")
    for c in sorted(codes, key=key):
        if c.co_qualname in names or c.co_name in names:
            body = {n for _, _, n in c.co_lines() if n is not None} - {c.co_firstlineno}
            missed = sorted(body - ran.get(key(c), set()))
            where = f"{os.path.relpath(c.co_filename, ROOT)}:{c.co_firstlineno} {c.co_qualname}"
            print(f"{where}: lines never run: {spans(missed) or 'none'}")


if __name__ == "__main__":
    main(sys.argv[1:])
