"""A derandomized fuzzer through `mwidth.cli.main`: whatever the input
files hold, every command ends with exit code 0, 1 or 2 and lets no
exception escape.

The inputs are graph text drawn from a small alphabet of lines, and
mutated JSON of the six decomposition kinds and of the three kinds'
terms with their signatures, all made from one small graph with a
source."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwidth import (
    Graph,
    SourcedGraph,
    b_to_mdec,
    branch_to_recursive,
    decomposition_to_json,
    exact_branchwidth,
    optimal_rec_path_dec,
    optimal_rec_tree_dec,
    p_to_mdec,
    path_from_recursive,
    signature_to_json,
    t_to_mdec,
    tree_from_recursive,
    tree_to_json,
)
from mwidth.cli import main

# a triangle with a pendant edge, a loop and a parallel edge; source 0
SG = SourcedGraph(Graph(range(4), {0: {0, 1}, 1: {1, 2}, 2: {0, 2}, 3: {2, 3},
                                   4: {3}, 5: {0, 1}}), {0})
GRAPH_TEXT = "v 0\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\ne 0 2\ne 2 3\ne 3 3\ne 0 1\ns 0\n"
BUDGET = ["--budget", "20"]
TO = ("tree", "path", "branch", "rec-tree", "rec-path", "rec-branch", "monoidal")


def _inputs() -> dict:
    """The JSON of a decomposition of SG of each of the six kinds, and of
    the term of each recursive one, as `decompose --kind monoidal --json`
    writes it, by name."""
    rec = {"tree": optimal_rec_tree_dec(SG)[1], "path": optimal_rec_path_dec(SG)[1],
           "branch": branch_to_recursive(exact_branchwidth(SG.graph)[1], SG)}
    out = {f"rec-{kind}": decomposition_to_json(d) for kind, d in rec.items()}
    out.update(tree=decomposition_to_json(tree_from_recursive(rec["tree"])),
               path=decomposition_to_json(path_from_recursive(rec["path"])),
               branch=decomposition_to_json(exact_branchwidth(SG.graph)[1]))
    for kind, how in (("tree", t_to_mdec), ("path", p_to_mdec), ("branch", b_to_mdec)):
        term, sig = how(rec[kind], SG)
        out[f"term-{kind}"] = {"term": tree_to_json(term), "signature": signature_to_json(sig)}
    return out


INPUTS = _inputs()

KEYS = ("kind", "graph", "v", "e", "s", "bag", "bags", "shape", "leaf_map", "left", "right",
        "tail", "empty", "leaf", "op", "atom", "children", "cut", "dom", "cod", "weight",
        "cospan", "apex", "legL", "legR", "term", "signature", "0", "1")
WORDS = ("", "x", "tree", "path", "branch", "rec-tree", "rec-path", "rec-branch", "leaf",
         "tensor", "compose", "a0", "w0_id")
JSON_VALUES = st.recursive(
    st.one_of(st.sampled_from(WORDS), st.integers(-2, 9), st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)),
    max_leaves=6)


@st.composite
def mutated(draw, value):
    """`value` with up to two changes, each at a random place inside it:
    an id renumbered, a key or item deleted, an item repeated, or the
    value there replaced by random JSON."""
    for _ in range(draw(st.integers(0, 2))):
        value = draw(_changed(value))
    return value


@st.composite
def _changed(draw, value, inner=False):
    """`value` with one change; the top value itself is never replaced."""
    if type(value) is int and draw(st.integers(0, 3)):
        return draw(st.integers(-1, 5))
    if not isinstance(value, (dict, list)) or not value or inner and not draw(st.integers(0, 4)):
        return draw(JSON_VALUES)
    value = dict(value) if isinstance(value, dict) else list(value)
    key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
    how = draw(st.integers(0, 5))
    if how == 0:
        del value[key]
    elif how == 1 and isinstance(value, list):
        value.append(value[key])
    else:
        value[key] = draw(_changed(value[key], True))
    return value


# graph text: `v` lines for the first four, three, two or none of the
# vertices 0-3, or for 0-8, past the vertex cap of the exact oracles; then
# edge and source lines on 0-3, with some lines of random tokens
VERTEX = st.sampled_from("0123")
EDGE = st.tuples(VERTEX, VERTEX).map(lambda ends: "e %s %s" % ends)
SOURCE = VERTEX.map(lambda v: f"s {v}")
NOISE = st.lists(st.sampled_from(("v", "e", "s", "#", "0", "3", "-1", "x", "9", "1.5")),
                 max_size=4).map(" ".join)
LINES = st.lists(st.one_of(EDGE, EDGE, EDGE, SOURCE, NOISE), max_size=10)
GRAPH_TEXTS = st.tuples(st.sampled_from((4, 3, 2, 0, 9)), LINES).map(
    lambda t: "".join(f"v {v}\n" for v in range(t[0])) + "\n".join(t[1]) + "\n")


def _run(argv: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _files(tmp: str, **texts) -> dict:
    """Write each text to a file named after its key; their paths, by key."""
    paths = {}
    for name, text in texts.items():
        paths[name] = os.path.join(tmp, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


@settings(derandomize=True, deadline=None, max_examples=120)
@given(GRAPH_TEXTS)
def test_cli_survives_graph_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        p = _files(tmp, graph=text, dec=json.dumps(INPUTS["tree"]))
        _run(["widths", p["graph"], *BUDGET])
        _run(["check-theorems", p["graph"], "--json", *BUDGET])
        for kind in ("tree", "path", "branch"):
            _run(["decompose", p["graph"], "--kind", kind, "--recursive"])
        _run(["decompose", p["graph"], "--kind", "monoidal", "--shape", "right-tree", *BUDGET])
        _run(["validate", p["graph"], "--dec", p["dec"]])
        _run(["translate", "--from", p["dec"], "--to", "rec-tree", "--graph", p["graph"]])


@pytest.mark.parametrize("name", sorted(INPUTS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_cli_survives_mutated_json(name, data):
    text = json.dumps(data.draw(mutated(INPUTS[name])))
    with tempfile.TemporaryDirectory() as tmp:
        p = _files(tmp, graph=GRAPH_TEXT, dec=text)
        _run(["validate", p["graph"], "--dec", p["dec"]])
        for to in TO:
            _run(["translate", "--from", p["dec"], "--to", to, "--graph", p["graph"], "--json"])
