"""Renderers: proofs as rule trees and tree sequents as trees of flat
sequents, in text, DOT, or LaTeX (bussproofs) form."""

from __future__ import annotations

from .sequents import (
    OPEN,
    CyclicDerivation,
    LabeledSequent,
    Proof,
    format_address,
    trampoline,
    tree_root,
)
from .semantics import Model

RULE_TEX = {
    "negL": r"\neg L", "negR": r"\neg R", "orL": r"\lor L", "orR": r"\lor R",
    "boxL": r"\Box L", "boxR": r"\Box R", "boxGL": r"\Box_{GL}", "box4": r"\Box_4",
    "id": r"id", "id1": r"id_1", "id2": r"id_2", "ir": r"ir", "tr": r"tr",
    "4L": r"4L", OPEN: r"\circ",
}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _unwrap(obj) -> tuple[Proof, dict]:
    """The root proof and the back-link map of a proof or cyclic derivation."""
    if isinstance(obj, CyclicDerivation):
        return obj.derivation, obj.backlinks
    return obj, {}


def render_proof_text(obj) -> str:
    root, backlinks = _unwrap(obj)
    lines = []
    for addr, node in root.nodes():
        tag = node.rule
        if node.rule == OPEN and addr in backlinks:
            tag = f"open -> {format_address(backlinks[addr])}"
        lines.append(f"{'  ' * len(addr)}[{tag}] {node.conclusion}")
    return "\n".join(lines) + "\n"


def render_proof_dot(obj) -> str:
    root, backlinks = _unwrap(obj)
    lines = ["digraph proof {", '  node [shape=box, fontname="monospace"];']
    ids = {}

    def walk(node: Proof, addr):
        ids[addr] = f"n{len(ids)}"
        label = f"{node.rule}\\n{_dot_escape(str(node.conclusion))}"
        lines.append(f'  {ids[addr]} [label="{label}"];')
        for i, q in enumerate(node.premises):
            child = addr + (i,)
            yield walk(q, child)
            lines.append(f"  {ids[addr]} -> {ids[child]};")

    trampoline(walk(root, ()))
    for leaf, target in backlinks.items():
        if target not in ids:  # a link to no node of the tree gets a node of its own
            ids[target] = f"n{len(ids)}"
            lines.append(f'  {ids[target]} [label="{format_address(target)}", style=dotted];')
        lines.append(f"  {ids[leaf]} -> {ids[target]} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_proof_latex(obj) -> str:
    root, backlinks = _unwrap(obj)
    lines = [r"\begin{prooftree}"]

    def tex_seq(s) -> str:
        return str(s).replace("|-", r"\vdash").replace("[]", r"\Box ").replace("~", r"\neg ")

    def walk(node: Proof, addr):
        yield tuple(walk(q, addr + (i,)) for i, q in enumerate(node.premises))
        rule = RULE_TEX.get(node.rule, node.rule)
        if node.rule == OPEN:
            note = format_address(backlinks[addr]) if addr in backlinks else "open"
            lines.append(r"\AxiomC{$\cdots$}")
            lines.append(rf"\RightLabel{{$\to {note}$}}")
            lines.append(rf"\UnaryInfC{{${tex_seq(node.conclusion)}$}}")
            return
        lines.append(rf"\RightLabel{{${rule}$}}")
        if not node.premises:
            lines.append(r"\AxiomC{}")
            lines.append(rf"\UnaryInfC{{${tex_seq(node.conclusion)}$}}")
        elif len(node.premises) == 1:
            lines.append(rf"\UnaryInfC{{${tex_seq(node.conclusion)}$}}")
        else:
            lines.append(rf"\BinaryInfC{{${tex_seq(node.conclusion)}$}}")

    trampoline(walk(root, ()))
    lines.append(r"\end{prooftree}")
    return "\n".join(lines) + "\n"


def render_tree_sequent_dot(t: LabeledSequent) -> str:
    root, kids = tree_root(t), {}  # each label's children, in label order
    for x, y in sorted(t.rel):
        kids.setdefault(x, []).append(y)
    lines = ["digraph treeseq {", '  node [shape=box, fontname="monospace"];']

    def walk(x: str, path: str):
        name = f"t{path}"
        lines.append(f'  {name} [label="{x}: {_dot_escape(str(t.flat_at(x)))}"];')
        for i, y in enumerate(kids.get(x, ())):
            yield walk(y, f"{path}_{i}")
            lines.append(f"  {name} -> t{path}_{i};")

    trampoline(walk(root, "0"))
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_tree_sequent_text(t: LabeledSequent) -> str:
    root, kids = tree_root(t), {}
    for x, y in sorted(t.rel):
        kids.setdefault(x, []).append(y)
    lines = []

    def walk(x: str, depth: int):
        lines.append(f"{'  ' * depth}{x}: {t.flat_at(x)}")
        yield tuple(walk(y, depth + 1) for y in kids.get(x, ()))

    trampoline(walk(root, 0))
    return "\n".join(lines) + "\n"


def render_model_dot(m: Model) -> str:
    lines = ["digraph model {", "  node [shape=circle];"]
    for w in m.worlds:
        atoms = sorted(a for a, ws in m.valuation.items() if w in ws)
        label = w + (": " + " ".join(atoms) if atoms else "")
        lines.append(f'  "{w}" [label="{_dot_escape(label)}"];')
    for x, y in sorted(m.rel):
        lines.append(f'  "{x}" -> "{y}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
