"""Tree-sequent rendering and model enumeration, pinned by digest.

tests/data/render_model_golden.json holds sha256 digests of
`render_tree_sequent_text` and `render_tree_sequent_dot` over a seeded
sample of tree sequents (flat ones, one edge, branching, chains of depth 4
and more, with label names whose order is not the order the tree was
grown in), and of `print_model` over every model that
`enumerate_models(("p", "q"), ModelBound(3, 3, 2))` yields, in order.  It
pins how a tree sequent is walked (root, children in label order, each
label's flat sequent) and each model's world names, relation and
valuation, whatever representation builds them.  Every skeleton of up to 3
worlds is symmetric, so one more digest, of `print_model` over
`enumerate_models(("p",), ModelBound(4, 3, 2))`, pins the preorder of the
worlds of a skeleton whose subtrees differ.  The oracle builds its
countermodels on the same frames.
"""

import hashlib
import json
import random
from pathlib import Path

from glproof.formula import random_formula
from glproof.render import render_tree_sequent_dot, render_tree_sequent_text
from glproof.semantics import ModelBound, enumerate_models, print_model
from glproof.sequents import LabeledSequent

GOLDEN = Path(__file__).parent / "data" / "render_model_golden.json"
NAMES = ("x", "y", "z", "w", "a", "b", "y0", "y1", "y10", "y2", "u3", "v")


def _tree_sequent(rng: random.Random, shape: str) -> LabeledSequent:
    """A tree sequent of the given shape; labels are drawn from NAMES in
    random order, so a label's children are rarely made in label order."""
    n = {"flat": 1, "edge": 2}.get(shape, rng.randint(3, 9))
    labels = rng.sample(NAMES, n)
    rel = []
    for i in range(1, n):
        if shape == "chain" or (shape == "deep" and i < 5):
            parent = labels[i - 1]
        else:
            parent = rng.choice(labels[:i])
        rel.append((parent, labels[i]))
    sides = [[(rng.choice(labels), random_formula(rng, ("p", "q", "r"), rng.randint(0, 4)))
              for _ in range(rng.randint(0, 6))] for _ in range(2)]
    return LabeledSequent(rel, *sides)


def seeded_tree_sequents(count: int = 400):
    rng = random.Random(35)
    shapes = ("flat", "edge", "branching", "chain", "deep")
    return [_tree_sequent(rng, shapes[i % len(shapes)]) for i in range(count)]


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def render_model_digests() -> dict:
    sample = seeded_tree_sequents()
    models = list(enumerate_models(("p", "q"), ModelBound(3, 3, 2)))
    asymmetric = list(enumerate_models(("p",), ModelBound(4, 3, 2)))
    return {
        "tree_sequents": len(sample),
        "tree_sequent_text": _digest(map(render_tree_sequent_text, sample)),
        "tree_sequent_dot": _digest(map(render_tree_sequent_dot, sample)),
        "models": len(models),
        "print_model": _digest(map(print_model, models)),
        "asymmetric_models": len(asymmetric),
        "print_model_asymmetric": _digest(map(print_model, asymmetric)),
    }


def _depth(t: LabeledSequent) -> int:
    parent = {y: x for x, y in t.rel}
    deepest = 0
    for lab in t.labels():
        d = 0
        while lab in parent:
            lab, d = parent[lab], d + 1
        deepest = max(deepest, d)
    return deepest


def test_render_and_model_golden():
    depths, fan = [], []
    for t in seeded_tree_sequents():
        kids: dict = {}
        for x, _ in t.rel:
            kids[x] = kids.get(x, 0) + 1
        fan.append(max(kids.values(), default=0))
        depths.append(_depth(t))
    # flat, one edge, depth 4 or more, and branching, each many times
    assert depths.count(0) >= 50 and depths.count(1) >= 50
    assert sum(d >= 4 for d in depths) >= 50 and sum(f >= 2 for f in fan) >= 50
    assert render_model_digests() == json.loads(GOLDEN.read_text())
