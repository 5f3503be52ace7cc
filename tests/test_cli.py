import hashlib
import json
import os
import subprocess
import sys

import pytest

from mwidth import (
    BranchDec,
    Graph,
    PathDec,
    SourcedGraph,
    TreeDec,
    branch_to_recursive,
    decomposition_to_json,
    format_graph_text,
    p_to_mdec,
    path_to_recursive,
    signature_to_json,
    tree_to_json,
    tree_to_recursive,
)
from mwidth import cospan as cs
from mwidth.cli import main
from conftest import path_graph


K3_TEXT = "v 0\nv 1\nv 2\ne 0 1\ne 1 2\ne 0 2\n"
P3_TEXT = "v 0\nv 1\nv 2\ne 0 1\ne 1 2\n"


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.g"
    p.write_text(K3_TEXT)
    return str(p)


@pytest.fixture
def p3_file(tmp_path):
    p = tmp_path / "p3.g"
    p.write_text(P3_TEXT)
    return str(p)


def test_widths_k3(k3_file, capsys):
    assert main(["widths", k3_file]) == 0
    out = capsys.readouterr().out
    assert "tw=3 pw=3 bw=2" in out
    assert "mwd∈[1,3]" in out and "mtwd∈[3,6]" in out and "mpwd=3" in out


def test_widths_json(k3_file, capsys):
    assert main(["widths", k3_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["widths"] == {"tw": 3, "pw": 3, "bw": 2}


def test_check_theorems_exit_codes(k3_file, tmp_path, capsys):
    assert main(["check-theorems", k3_file]) == 0
    k2 = tmp_path / "k2.g"
    k2.write_text("v 0\nv 1\ne 0 1\n")
    assert main(["check-theorems", str(k2)]) == 1
    out = capsys.readouterr().out
    assert "FAIL branch-upper" in out


def test_decompose_and_validate_round_trip(p3_file, tmp_path, capsys):
    assert main(["decompose", p3_file, "--kind", "tree", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["width"] == 2
    dec_path = tmp_path / "dec.json"
    dec_path.write_text(json.dumps(payload["decomposition"]))
    assert main(["validate", p3_file, "--dec", str(dec_path)]) == 0
    assert "valid, width=2" in capsys.readouterr().out


def test_validate_bad_decomposition(p3_file, tmp_path, capsys):
    bad = {"kind": "path", "bags": [[0, 1], [2]]}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["validate", p3_file, "--dec", str(bad_path)]) == 1
    out = capsys.readouterr().out
    assert "clause 2" in out


def test_decompose_monoidal_and_branch(p3_file, capsys):
    assert main(["decompose", p3_file, "--kind", "monoidal", "--shape", "path",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["width"] == 2
    assert main(["decompose", p3_file, "--kind", "branch", "--recursive",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["width"] == 1
    assert data["decomposition"]["kind"] == "rec-branch"


def test_translate_recursive_to_term_and_back(p3_file, tmp_path, capsys):
    assert main(["decompose", p3_file, "--kind", "path", "--recursive",
                 "--json"]) == 0
    dec = json.loads(capsys.readouterr().out)["decomposition"]
    dec_path = tmp_path / "rec.json"
    dec_path.write_text(json.dumps(dec))
    assert main(["translate", "--from", str(dec_path), "--to", "monoidal",
                 "--json"]) == 0
    term_payload = json.loads(capsys.readouterr().out)
    assert term_payload["from_width"] == term_payload["to_width"] == 2
    term_path = tmp_path / "term.json"
    term_path.write_text(json.dumps(term_payload))
    assert main(["translate", "--from", str(term_path), "--to", "rec-path",
                 "--json"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back["to_width"] <= 2


C4_TEXT = "v 0\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"


@pytest.mark.parametrize("recursive", ([], ["--recursive"]), ids=("classic", "recursive"))
@pytest.mark.parametrize("kind", ("tree", "path", "branch"))
def test_validate_reads_the_json_that_decompose_writes(tmp_path, capsys, kind, recursive):
    graph, dec = tmp_path / "c4.g", tmp_path / "d.json"
    graph.write_text(C4_TEXT)
    assert main(["decompose", str(graph), "--kind", kind, *recursive, "--json"]) == 0
    out = capsys.readouterr().out
    dec.write_text(out)
    assert main(["validate", str(graph), "--dec", str(dec)]) == 0
    assert capsys.readouterr().out == f"valid, width={json.loads(out)['width']}\n"


def test_translate_reads_the_json_that_translate_writes(tmp_path, capsys):
    graph, rec, term = tmp_path / "c4.g", tmp_path / "rec.json", tmp_path / "term.json"
    graph.write_text(C4_TEXT)
    assert main(["decompose", str(graph), "--kind", "tree", "--recursive", "--json"]) == 0
    rec.write_text(capsys.readouterr().out)
    assert main(["translate", "--from", str(rec), "--to", "monoidal", "--json"]) == 0
    term.write_text(capsys.readouterr().out)
    assert main(["translate", "--from", str(term), "--to", "rec-tree"]) == 0
    assert capsys.readouterr().out.startswith("width 3 -> ")
    assert main(["translate", "--from", str(rec), "--to", "tree", "--json"]) == 0
    (tmp_path / "tree.json").write_text(capsys.readouterr().out)
    assert main(["validate", str(graph), "--dec", str(tmp_path / "tree.json")]) == 0


@pytest.mark.parametrize("command", ("validate", "translate"))
def test_a_json_object_without_a_kind_exits_two(p3_file, tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"width": 2}))
    argv = {"validate": ["validate", p3_file, "--dec", str(bad)],
            "translate": ["translate", "--from", str(bad), "--to", "rec-tree"]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: a JSON object with none of the keys "
        "'kind', 'term', 'decomposition' and 'result'\n")


def test_translate_classic_to_recursive_needs_graph(p3_file, tmp_path, capsys):
    dec = {"kind": "path", "bags": [[0, 1], [1, 2]]}
    dec_path = tmp_path / "classic.json"
    dec_path.write_text(json.dumps(dec))
    assert main(["translate", "--from", str(dec_path), "--to", "rec-path"]) == 2
    assert main(["translate", "--from", str(dec_path), "--to", "rec-path",
                 "--graph", p3_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["from_width"] == data["to_width"] == 2


def test_catalog_output(capsys):
    assert main(["catalog", "--max-v", "3", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 7  # 1 + 2 + 4 nonempty graphs up to iso
    assert {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]],
            "tw": 3, "pw": 3, "bw": 2} in rows


def test_catalog_row_order_up_to_6_vertices(capsys):
    # one row per class in the order enumerate_graphs first meets each
    # class: the digest of the (n, edges) rows as the brute-force keys gave
    assert main(["catalog", "--max-v", "6", "--max-e", "5", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    order = json.dumps([[r["n"], r["edges"]] for r in rows])
    assert len(rows) == 70
    assert hashlib.sha256(order.encode()).hexdigest() == (
        "2c460cd39a732ac1ca54816da7e1dd9cb5014855a394e36c254ffdf80deed194")


@pytest.mark.parametrize("form", [[], ["--json"]])
def test_catalog_into_a_closed_pipe_exits_one_quietly(form):
    # the reader of stdout is gone before the start: exit 1, no traceback
    import mwidth
    src = os.path.dirname(os.path.dirname(os.path.abspath(mwidth.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "mwidth.cli", "catalog", "--max-v", "4",
                               *form], stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_catalog_into_a_closed_pipe_keeps_its_cache(tmp_path):
    # the reader is gone before the start: exit 1 quietly, and the widths
    # of all 18 classes computed on the way are still saved
    import mwidth
    src = os.path.dirname(os.path.dirname(os.path.abspath(mwidth.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    cache = tmp_path / "wc.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "mwidth.cli", "catalog", "--max-v", "4",
                               "--json", "--cache", str(cache)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
    assert len(json.loads(cache.read_text())) == 18


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("v 0\nq 1\n")
    assert main(["widths", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_two(capsys):
    assert main(["widths", "/nonexistent/x.g"]) == 2


def test_dot_output(p3_file, capsys):
    assert main(["decompose", p3_file, "--kind", "tree", "--dot"]) == 0
    assert capsys.readouterr().out.startswith("graph decomposition {")


def test_output_deterministic(k3_file, capsys):
    main(["check-theorems", k3_file, "--json"])
    first = capsys.readouterr().out
    main(["check-theorems", k3_file, "--json"])
    assert capsys.readouterr().out == first


def test_widths_oracle_refusal_exits_one(tmp_path, capsys):
    # an oracle refusing an input beyond its size cap is exit 1, not 2
    k5 = tmp_path / "k5.g"
    k5.write_text("".join(f"v {i}\n" for i in range(5))
                  + "".join(f"e {i} {j}\n" for i in range(5) for j in range(i + 1, 5)))
    assert main(["widths", str(k5)]) == 1
    assert capsys.readouterr().err == "error: refusing branch-width search on 10 > 7 edges\n"


# ---------------------------------------------------------------------------
# translate over every input kind and every --to.

TRANSLATE_TOS = ("tree", "path", "branch", "rec-tree", "rec-path", "rec-branch", "monoidal")
TRANSLATE_SOURCES = ("tree", "path", "branch", "rec-tree", "rec-path", "rec-branch", "term",
                     "rec-tree-empty", "rec-path-empty", "rec-branch-empty")
# (input, --to) -> (from_width, to_width) on P3; every other pair exits 2.
# A classic kind X goes only to rec-X, a recursive one only to its classic
# kind or to a term, and a term to any decomposition kind.
TRANSLATE_OK = {
    ("tree", "rec-tree"): (2, 2), ("path", "rec-path"): (2, 2),
    ("branch", "rec-branch"): (1, 1),
    ("rec-tree", "tree"): (2, 2), ("rec-path", "path"): (2, 2),
    ("rec-branch", "branch"): (1, 1),
    ("rec-tree", "monoidal"): (2, 2), ("rec-path", "monoidal"): (2, 2),
    ("rec-branch", "monoidal"): (1, 2),
    ("term", "tree"): (2, 2), ("term", "path"): (2, 2), ("term", "branch"): (2, 1),
    ("term", "rec-tree"): (2, 2), ("term", "rec-path"): (2, 2),
    ("term", "rec-branch"): (2, 1),
    ("rec-tree-empty", "tree"): (0, 0), ("rec-path-empty", "path"): (0, 0),
    ("rec-branch-empty", "branch"): (0, 0),
    ("rec-tree-empty", "monoidal"): (0, 0), ("rec-path-empty", "monoidal"): (0, 0),
    ("rec-branch-empty", "monoidal"): (0, 0),
}


@pytest.fixture(scope="module")
def translate_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("translate")
    (root / "p3.g").write_text(P3_TEXT)
    p3, shape = path_graph(3), path_graph(2)
    sg = SourcedGraph(p3)
    tree = TreeDec(shape, {0: {0, 1}, 1: {1, 2}})
    path = PathDec([{0, 1}, {1, 2}])
    branch = BranchDec(shape, {0: 0, 1: 1})
    rec_path = path_to_recursive(path, sg)
    term, sig = p_to_mdec(rec_path, sg)
    blobs = {"tree": decomposition_to_json(tree), "path": decomposition_to_json(path),
             "branch": decomposition_to_json(branch),
             "rec-tree": decomposition_to_json(tree_to_recursive(tree, sg, 0)),
             "rec-path": decomposition_to_json(rec_path),
             "rec-branch": decomposition_to_json(branch_to_recursive(branch, sg)),
             "term": {"term": tree_to_json(term), "signature": signature_to_json(sig)}}
    for kind in ("tree", "path", "branch"):
        blobs[f"rec-{kind}-empty"] = {"kind": f"rec-{kind}", "empty": True}
    for name, blob in blobs.items():
        (root / f"{name}.json").write_text(json.dumps(blob))
    return root


@pytest.mark.parametrize("to", TRANSLATE_TOS)
@pytest.mark.parametrize("source", TRANSLATE_SOURCES)
def test_translate_matrix(translate_inputs, source, to, capsys):
    code = main(["translate", "--from", str(translate_inputs / f"{source}.json"),
                 "--to", to, "--graph", str(translate_inputs / "p3.g"), "--json"])
    out, err = capsys.readouterr()
    if (source, to) not in TRANSLATE_OK:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert (payload["from_width"], payload["to_width"]) == TRANSLATE_OK[source, to]
    if to == "monoidal":
        assert set(payload) == {"from_width", "to_width", "term", "signature"}
    else:
        assert payload["result"]["kind"] == to


def test_translate_empty_recursive_to_monoidal_text(translate_inputs, capsys):
    for kind in ("tree", "path", "branch"):
        assert main(["translate", "--from", str(translate_inputs / f"rec-{kind}-empty.json"),
                     "--to", "monoidal"]) == 0
        assert capsys.readouterr().out.startswith("width 0 -> 0\n")


# ---------------------------------------------------------------------------
# Malformed input files: one error line and exit 2, never a traceback.

MALFORMED = [
    ("cache-invalid-json", "catalog", "{not json", None),
    ("cache-top-level-list", "catalog", "[]", None),
    ("cache-bad-record", "catalog", json.dumps({"k": {"tw": 1, "pw": "2", "bw": 0}}), None),
    ("dec-missing-shape", "validate", json.dumps({"kind": "tree"}), "'shape'"),
    ("dec-top-level-list", "validate", "[]", None),
    ("dec-ill-typed-bags", "validate", json.dumps({"kind": "path", "bags": 5}), "'bags'"),
    ("dec-unknown-kind", "validate", json.dumps({"kind": "cactus"}), "'cactus'"),
    ("dec-bad-child", "translate", json.dumps(
        {"kind": "rec-path", "graph": {"v": [0], "e": []}, "bag": [0], "tail": 3}), "'tail'"),
    ("dec-edge-entry-without-id", "validate", json.dumps(
        {"kind": "rec-path", "graph": {"v": [0, 1], "e": [[]], "s": []}, "bag": [0, 1],
         "tail": {"kind": "rec-path", "empty": True}}), "edge entry [] has no id"),
    ("dec-edge-entry-an-object", "translate", json.dumps(
        {"kind": "rec-tree", "graph": {"v": [0], "e": [{}]}, "bag": [0],
         "left": {"kind": "rec-tree", "empty": True}, "right": {"kind": "rec-tree", "empty": True}}),
     "'graph': edge entry {} has no id"),
    ("term-leaf-without-atom", "translate", json.dumps(
        {"term": {"op": "leaf"}, "signature": {}}), "'atom'"),
    ("term-bad-signature", "translate", json.dumps(
        {"term": {"op": "leaf", "atom": "a"}, "signature": {"a": {"dom": 0}}}), None),
]


@pytest.mark.parametrize("command,text,named", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_two(p3_file, tmp_path, capsys, command, text, named):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = {"catalog": ["catalog", "--max-v", "2", "--cache", str(bad)],
            "validate": ["validate", p3_file, "--dec", str(bad)],
            "translate": ["translate", "--from", str(bad), "--to", "rec-tree"]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err
    if named:
        assert named in err


_DEEP_JSON = {  # (innermost node, node with its child at "@") per input kind
    "term": ('{"op": "leaf", "atom": "a"}',
             '{"op": "tensor", "children": [@, {"op": "leaf", "atom": "a"}]}'),
    "rec-path": ('{"kind": "rec-path", "empty": true}',
                 '{"kind": "rec-path", "graph": {"v": [], "e": [], "s": []}, '
                 '"bag": [], "tail": @}'),
}


def _deep_json(kind: str, depth: int) -> str:
    """JSON text of a term or recursive path decomposition `depth` nodes deep;
    a term is wrapped in a term file."""
    leaf, node = _DEEP_JSON[kind]
    text = leaf
    for _ in range(depth):
        text = node.replace("@", text)
    return f'{{"term": {text}, "signature": {{}}}}' if kind == "term" else text


def _deep_argv(command: str, path: str, p3_file: str) -> list:
    return {"catalog": ["catalog", "--max-v", "2", "--cache", path],
            "validate": ["validate", p3_file, "--dec", path],
            "translate": ["translate", "--from", path, "--to", "rec-tree"]}[command]


def _assert_one_error_line(err: str, path: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err and "Traceback" not in err


@pytest.mark.parametrize("command", ("translate", "validate", "catalog"))
def test_deeply_nested_json_exits_two(p3_file, tmp_path, capsys, command):
    # twice the recursion limit: whether the decoder or the parser gives up
    # first depends on the Python version, and both must end the same way
    depth = 2 * sys.getrecursionlimit()
    deep = tmp_path / "deep.json"
    deep.write_text({"translate": lambda: _deep_json("term", depth),
                     "validate": lambda: _deep_json("rec-path", depth),
                     "catalog": lambda: "[" * 100_000 + "]" * 100_000}[command]())
    assert main(_deep_argv(command, str(deep), p3_file)) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err, str(deep))
    if command != "catalog":
        assert "nested too deeply" in err


@pytest.mark.parametrize("command", ("translate", "validate"))
def test_decoded_but_too_deep_to_parse_exits_two(p3_file, tmp_path, capsys,
                                                  monkeypatch, command):
    # the parse side alone: a decoder that follows any depth hands over a
    # term or decomposition nested past the recursion limit
    depth = 2 * sys.getrecursionlimit()
    data = {"op": "leaf", "atom": "a"} if command == "translate" else {
        "kind": "rec-path", "empty": True}
    for _ in range(depth):
        data = ({"op": "tensor", "children": [data, {"op": "leaf", "atom": "a"}]}
                if command == "translate" else
                {"kind": "rec-path", "graph": {"v": [], "e": [], "s": []},
                 "bag": [], "tail": data})
    if command == "translate":
        data = {"term": data, "signature": {}}
    deep = tmp_path / "deep.json"
    deep.write_text("{}")
    monkeypatch.setattr(json, "loads", lambda text: data)
    assert main(_deep_argv(command, str(deep), p3_file)) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err, str(deep))
    assert "nested too deeply" in err


def test_result_too_deep_to_write_exits_two(tmp_path, capsys):
    # a path of twice the recursion limit made recursive is a chain as deep:
    # every walker gets through it, but the stdlib JSON encoders recurse
    # once per level.  The limit is lowered to keep the chain small
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        n = 2 * sys.getrecursionlimit()
        graph, dec = tmp_path / "path.g", tmp_path / "path.json"
        graph.write_text(format_graph_text(SourcedGraph(path_graph(n))))
        dec.write_text(json.dumps(decomposition_to_json(
            PathDec([{i, i + 1} for i in range(n - 1)] + [{n - 1}]))))
        code = main(["translate", "--from", str(dec), "--to", "rec-path",
                     "--graph", str(graph), "--json"])
    finally:
        sys.setrecursionlimit(limit)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: result nested too deeply to write as JSON (recursion limit 300)\n"


def test_rec_tree_of_a_deep_chain_exits_two(tmp_path, capsys):
    # P_1200 and its 1,199-bag chain tree decomposition: the conversion to
    # a recursive form walks an explicit stack, so only the stdlib JSON
    # encoder gives up on the result
    n = 1200
    graph, dec = tmp_path / "path.g", tmp_path / "tree.json"
    graph.write_text(format_graph_text(SourcedGraph(path_graph(n))))
    shape = Graph(range(n - 1), {i: {i, i + 1} for i in range(n - 2)})
    dec.write_text(json.dumps(decomposition_to_json(
        TreeDec(shape, {i: {i, i + 1} for i in range(n - 1)}))))
    code = main(["translate", "--from", str(dec), "--to", "rec-tree", "--graph", str(graph)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("error: result nested too deeply to write as JSON "
                   f"(recursion limit {sys.getrecursionlimit()})\n")


def test_decompose_monoidal_json_holds_only_the_term_atoms(tmp_path, capsys):
    k4 = tmp_path / "k4.g"
    k4.write_text("".join(f"v {i}\n" for i in range(4))
                  + "".join(f"e {i} {j}\n" for i in range(4) for j in range(i + 1, 4)))
    assert main(["decompose", str(k4), "--kind", "monoidal", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["width"], data["exact"]) == (3, True)
    leaves, stack = set(), [data["term"]]
    while stack:
        node = stack.pop()
        if node["op"] == "leaf":
            leaves.add(node["atom"])
        stack.extend(node.get("children", ()))
    assert len(data["signature"]) == 5 and set(data["signature"]) == leaves


# ---------------------------------------------------------------------------
# Marked sources outside the root bag (tree) or the first bag (path): the
# decomposition does not fit the graph, so every command exits 1.

SOURCES_OUTSIDE = {
    "tree": ("s 0\ns 2\n", {"kind": "tree", "shape": {"v": [0, 1], "e": [[0, 0, 1]]},
                            "bags": {"0": [0, 1], "1": [1, 2]}}),
    "path": ("s 2\n", {"kind": "path", "bags": [[0, 1], [1, 2]]}),
}


@pytest.mark.parametrize("command", ("decompose", "translate"))
@pytest.mark.parametrize("kind", ("tree", "path"))
def test_sources_outside_the_bag_exit_one(tmp_path, capsys, command, kind):
    sources, dec = SOURCES_OUTSIDE[kind]
    graph = tmp_path / "p3s.g"
    graph.write_text(P3_TEXT + sources)
    dec_path = tmp_path / "dec.json"
    dec_path.write_text(json.dumps(dec))
    argv = {"decompose": ["decompose", str(graph), "--kind", kind, "--recursive"],
            "translate": ["translate", "--from", str(dec_path), "--to", f"rec-{kind}",
                          "--graph", str(graph)]}[command]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "sources" in err


def test_signature_atom_with_other_arities_than_its_cospan_exits_two(tmp_path, capsys):
    # "x" is declared 2 -> 1, but its cospan, one edge, is 1 -> 1
    term = tmp_path / "term.json"
    term.write_text(json.dumps({
        "term": {"op": "leaf", "atom": "x"},
        "signature": {"x": {"dom": 2, "cod": 1, "weight": 2,
                            "cospan": cs.cospan_to_json(cs.edge())}}}))
    assert main(["translate", "--from", str(term), "--to", "rec-tree"]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err, str(term))
    assert "'x' is declared 2 -> 1 but its cospan is 1 -> 1" in err


def _p600_rec_path(sources=()) -> tuple:
    """P_600 with `sources` and the JSON of its 600-node recursive path form."""
    n = 600
    sg = SourcedGraph(path_graph(n), sources)
    t = path_to_recursive(PathDec([{i, i + 1} for i in range(n - 1)] + [{n - 1}]), sg)
    return sg, decomposition_to_json(t)


def test_validate_reads_the_recursive_form_of_p600(tmp_path, capsys):
    sg, data = _p600_rec_path()
    graph, dec = tmp_path / "path.g", tmp_path / "rec.json"
    graph.write_text(format_graph_text(sg))
    dec.write_text(json.dumps(data))
    assert main(["validate", str(graph), "--dec", str(dec)]) == 0
    assert capsys.readouterr() == ("valid, width=2\n", "")


def test_validate_a_rec_tree_holding_a_deep_rec_path_exits_one(tmp_path, capsys):
    # the root passes its clauses; its left child is a 600-node rec-path,
    # which the tree validator rejects by type, printing the whole child
    sg, child = _p600_rec_path({0})
    graph, dec = tmp_path / "path.g", tmp_path / "mixed.json"
    graph.write_text(format_graph_text(SourcedGraph(sg.graph)))
    dec.write_text(json.dumps({
        "kind": "rec-tree", "graph": {**child["graph"], "s": []}, "bag": [0],
        "left": child, "right": {"kind": "rec-tree", "empty": True}}))
    assert main(["validate", str(graph), "--dec", str(dec)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("invalid (clause type): not a recursive tree decomposition: "
                          "RecPathCons(graph=SourcedGraph(")
    assert out.endswith("tail=RecPathEmpty()" + ")" * 600 + "\n") and err == ""


def test_decompose_monoidal_refuses_a_path_past_the_search_caps(tmp_path, capsys):
    graph = tmp_path / "p18.g"
    graph.write_text(format_graph_text(SourcedGraph(path_graph(18))))
    assert main(["decompose", str(graph), "--kind", "monoidal"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: refusing monoidal-width search on 18 > 16 vertices\n"


_EMPTY_REC_TREE = {"kind": "rec-tree", "empty": True}
_ATOM = {"dom": 0, "cod": 0, "weight": 1}

# (file JSON, --to, the end of the one error line): a JSON value of the
# wrong type is named with the type the reader expects
ILL_TYPED_JSON = {
    "graph-a-string": ({"kind": "rec-tree", "graph": "g", "bag": [0], "left": _EMPTY_REC_TREE,
                        "right": _EMPTY_REC_TREE},
                       "tree", "decomposition field 'graph': a graph is a JSON object, not str"),
    "child-graph-a-list": ({"kind": "rec-path", "graph": {"v": [0], "e": [], "s": []},
                            "bag": [0], "tail": {"kind": "rec-path", "graph": [], "bag": [],
                                                 "tail": {"kind": "rec-path", "empty": True}}},
                           "path", "decomposition field 'tail': decomposition field 'graph': "
                                   "a graph is a JSON object, not list"),
    "shape-a-string": ({"kind": "branch", "shape": "s", "leaf_map": {}},
                       "rec-branch", "decomposition field 'shape': a graph is a JSON object, "
                                     "not str"),
    "bag-null": ({"kind": "rec-path", "graph": {"v": [0], "e": [], "s": []}, "bag": None,
                  "tail": {"kind": "rec-path", "empty": True}},
                 "path", "decomposition field 'bag': a bag is a JSON array, not NoneType"),
    "bag-table-a-list": ({"kind": "tree", "shape": {"v": [0], "e": []}, "bags": [[0]]},
                         "rec-tree", "decomposition field 'bags': a bag table is a JSON object, "
                                     "not list"),
    "bag-table-key-not-a-number": ({"kind": "tree", "shape": {"v": [0], "e": []},
                                    "bags": {"x": [0]}},
                                   "rec-tree", "decomposition field 'bags': a bag table has a "
                                               "key that is not an integer: 'x'"),
    "leaf-map-key-not-a-number": ({"kind": "branch", "shape": {"v": [0], "e": []},
                                   "leaf_map": {"x": 0}},
                                  "rec-branch", "decomposition field 'leaf_map': a leaf map has "
                                                "a key that is not an integer: 'x'"),
    "leaf-map-a-list": ({"kind": "branch", "shape": {"v": [0], "e": []}, "leaf_map": [0]},
                        "rec-branch", "decomposition field 'leaf_map': a leaf map is a JSON "
                                      "object, not list"),
    "atom-null": ({"term": {"op": "leaf", "atom": "a"}, "signature": {"a": None}},
                  "rec-tree", "malformed atom 'a': an atom is a JSON object, not NoneType"),
    "dom-a-list": ({"term": {"op": "leaf", "atom": "a"}, "signature": {"a": {**_ATOM, "dom": [0]}}},
                   "rec-tree", "malformed atom 'a': field 'dom' is an integer, not list"),
    "weight-an-object": ({"term": {"op": "leaf", "atom": "a"},
                          "signature": {"a": {**_ATOM, "weight": {}}}},
                         "rec-tree", "malformed atom 'a': field 'weight' is an integer, not dict"),
}


@pytest.mark.parametrize("name", ILL_TYPED_JSON)
def test_ill_typed_json_names_the_expected_type(tmp_path, capsys, name):
    data, to, message = ILL_TYPED_JSON[name]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["translate", "--from", str(bad), "--to", to]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {bad}: {message}\n"


def _rec_tree_over(graph) -> dict:
    return {"kind": "rec-tree", "graph": graph, "bag": [0], "left": _EMPTY_REC_TREE,
            "right": _EMPTY_REC_TREE}


def _atom_over(cospan: dict) -> dict:
    return {"term": {"op": "leaf", "atom": "a"}, "signature": {"a": {**_ATOM, "cospan": cospan}}}


_COSPAN = {"apex": {"v": [], "e": []}, "left": [], "right": [], "legL": {}, "legR": {}}
ILL_TYPED_GRAPH_JSON = {
    "vertices-an-int": (_rec_tree_over({"v": 5}), "decomposition field 'graph': "
                                                  "a vertex list is a JSON array, not int"),
    "edges-an-int": (_rec_tree_over({"e": 3}), "decomposition field 'graph': "
                                               "an edge list is a JSON array, not int"),
    "sources-an-int": (_rec_tree_over({"s": 3}), "decomposition field 'graph': "
                                                 "a source list is a JSON array, not int"),
    "edge-end-an-object": (_rec_tree_over({"v": [0], "e": [[0, {}]]}),
                           "decomposition field 'graph': expected integers, got [0, {}]"),
    "apex-vertices-an-int": (_atom_over({**_COSPAN, "apex": {"v": 5, "e": []}}),
                             "malformed atom 'a': CospanError('malformed cospan JSON: "
                             "a vertex list is a JSON array, not int')"),
    "left-ports-an-int": (_atom_over({**_COSPAN, "left": 3}),
                          "malformed atom 'a': CospanError('malformed cospan JSON: "
                          "a port list is a JSON array, not int')"),
    "leg-vertex-a-list": (_atom_over({**_COSPAN, "apex": {"v": [0], "e": []}, "left": [0],
                                      "legL": {"0": [0]}}),
                          "malformed atom 'a': CospanError('malformed cospan JSON: "
                          "expected integers, got [[0]]')"),
}


@pytest.mark.parametrize("name", ILL_TYPED_GRAPH_JSON)
def test_ill_typed_graph_and_cospan_json_names_the_expected_type(tmp_path, capsys, name):
    data, message = ILL_TYPED_GRAPH_JSON[name]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["translate", "--from", str(bad), "--to", "tree"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {bad}: {message}\n"


def test_an_infinite_atom_arity_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"term": {"op": "leaf", "atom": "a"}, '
                   '"signature": {"a": {"dom": Infinity, "cod": 0, "weight": 1}}}')
    assert main(["translate", "--from", str(bad), "--to", "rec-tree"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: malformed atom 'a': "
        "OverflowError('cannot convert float infinity to integer')\n")
