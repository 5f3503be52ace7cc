"""Command-line front end.

Subcommands: widths, decompose, validate, translate, check-theorems,
catalog.  Graphs come from the text format (`v`/`e`/`s` lines);
decompositions and terms travel as JSON.  Exit codes: 0 success;
1 validation or theorem failure, an exact oracle refusing an input
beyond its size cap, the monoidal-width search refusing a cospan past
its caps, or a decomposition that does not fit the graph (such as
marked sources outside its root or first bag); 2 usage or parse error,
including a malformed decomposition, term or width-cache file, a JSON
file nested deeper than the recursion limit, and a result nested too
deeply to write; 1 also when the reader of the output closes it early
(a broken pipe), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cospan as cs
from . import oracles
from . import terms as tm
from . import translate as tr
from .decomp import (
    _LAYOUT,
    DecompositionError,
    decomposition_from_json,
    decomposition_to_dot,
    decomposition_to_json,
)
from .graph import GraphError, GraphParseError, SourcedGraph, parse_graph_text
from .translate import _KINDS, _Kind


class CliError(Exception):
    """Usage-level failure; maps to exit code 2."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> SourcedGraph:
    return parse_graph_text(_read_text(path))


def _nesting(data) -> int:
    """How many levels the values of decoded JSON nest below its top value."""
    depth, level = 0, [data]
    while level := [y for x in level if isinstance(x, (dict, list))
                    for y in (x.values() if isinstance(x, dict) else x)]:
        depth += 1
    return depth


def _load_json(path: str, parse):
    """`parse` applied to a JSON file, or to the decomposition or term of a
    `decompose --json` payload (its `decomposition`) or a `translate
    --json` one (its `result`); a malformed file, one nested deeper than
    the recursion limit (one rule, whatever the decoder follows), or an
    object with none of those keys and neither `kind` nor `term`, is a
    usage error."""
    text = _read_text(path)
    too_deep = CliError(f"{path}: JSON nested too deeply to read "
                        f"(recursion limit {sys.getrecursionlimit()})")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:  # a decoder that counts nesting against the limit
        raise too_deep from exc
    if _nesting(data) > sys.getrecursionlimit():
        raise too_deep
    if isinstance(data, dict) and "kind" not in data and "term" not in data:
        if "decomposition" not in data and "result" not in data:
            raise CliError(f"{path}: a JSON object with none of the keys "
                           "'kind', 'term', 'decomposition' and 'result'")
        data = data.get("decomposition", data.get("result"))
    try:
        return parse(data)
    except (DecompositionError, tm.TermError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _decomposition_or_term(data):
    """A decomposition, or a (term, signature) pair, from its JSON form."""
    if isinstance(data, dict) and "term" in data:
        return tm.tree_from_json(data["term"]), tm.signature_from_json(data.get("signature"))
    return decomposition_from_json(data)


def _kind_of(dec) -> tuple[str, _Kind, bool]:
    """Kind name and table row of a decomposition, and whether it is recursive."""
    kind = _LAYOUT[type(dec)][0]
    name = kind.removeprefix("rec-")
    return name, _KINDS[name], kind != name


def _dumps(data, **options) -> str:
    """`json.dumps`; a result nested deeper than the recursion limit is a
    usage error like one too deep to read, by the same rule, whatever the
    encoder follows."""
    too_deep = CliError(f"result nested too deeply to write as JSON "
                        f"(recursion limit {sys.getrecursionlimit()})")
    if _nesting(data) > sys.getrecursionlimit():
        raise too_deep
    try:
        return json.dumps(data, **options)
    except RecursionError as exc:  # an encoder that gives up first
        raise too_deep from exc


def _emit(data, as_json: bool, text: str) -> None:
    print(_dumps(data, indent=1, sort_keys=True) if as_json else text)


def cmd_widths(args) -> int:
    sg = _load_graph(args.file)
    report = tr.check_theorems(sg.graph, budget=args.budget)
    _emit(report.to_json(), args.json, report.summary())
    return 0


def cmd_decompose(args) -> int:
    sg = _load_graph(args.file)
    if args.kind == "monoidal":
        result = tm.bounded_mwd_search(cs.from_sourced(sg), shape=args.shape,
                                       budget=args.budget)
        payload = {"width": result.width, "exact": result.exact,
                   "term": tm.tree_to_json(result.tree),
                   "signature": tm.signature_to_json(result.signature)}
        _emit(payload, args.json,
              f"width={result.width} ({'exact within search space' if result.exact else 'bound only'})\n"
              + json.dumps(tm.tree_to_json(result.tree)))
        return 0
    kind = _KINDS[args.kind]
    w, dec = kind.oracle(sg.graph)
    if args.recursive:
        dec = kind.to_rec(dec, sg)
    payload = {"width": w, "decomposition": decomposition_to_json(dec)}
    if args.dot:
        _emit(payload, False, decomposition_to_dot(dec))
    else:
        _emit(payload, args.json,
              f"width={w}\n" + json.dumps(decomposition_to_json(dec)))
    return 0


def cmd_validate(args) -> int:
    sg = _load_graph(args.file)
    dec = _load_json(args.dec, decomposition_from_json)
    _, kind, rec = _kind_of(dec)
    check = kind.rec_validate(dec, sg) if rec else kind.validate(dec, sg.graph)
    if not check:
        print(f"invalid (clause {check.clause}): {check.message}")
        return 1
    print(f"valid, width={kind.rec_width(dec) if rec else kind.width(dec, sg.graph)}")
    return 0


def _translate(path: str, to: str, graph_path) -> dict:
    """The translate payload: both widths and the result."""
    source = _load_json(path, _decomposition_or_term)
    if isinstance(source, tuple):
        term, sig = source
        source_width = tm.width(term, sig)
        if to == "monoidal":
            raise CliError(f"cannot translate a term to {to!r}")
        kind = _KINDS[to.removeprefix("rec-")]
        out = kind.from_term(term, sig)
        out_width = kind.rec_width(out)
        if not to.startswith("rec-"):
            out = kind.from_rec(out)
        return {"from_width": source_width, "to_width": out_width,
                "result": decomposition_to_json(out)}

    dec = source
    name, kind, rec = _kind_of(dec)
    if rec and to == "monoidal":
        tree, sig, width = kind.term(dec, dec.graph)
        return {"from_width": kind.rec_width(dec), "to_width": width,
                "term": tm.tree_to_json(tree), "signature": tm.signature_to_json(sig)}
    if rec and to == name:
        out = kind.from_rec(dec)
        widths = kind.rec_width(dec), kind.width(out, dec.graph.graph)
    elif not rec and to == "monoidal":
        raise CliError("translating a classic decomposition to a term "
                       "needs the recursive form; convert first")
    elif not rec and to == f"rec-{name}":
        # classic -> recursive needs the ambient graph; recursive forms embed theirs
        if not graph_path:
            raise CliError("--graph FILE is required to make a classic "
                           "decomposition recursive")
        sg = _load_graph(graph_path)
        out = kind.to_rec(dec, sg)
        widths = kind.width(dec, sg.graph), kind.rec_width(out)
    else:
        raise CliError(f"unsupported translation to {to!r} from "
                       f"{type(dec).__name__}")
    return {"from_width": widths[0], "to_width": widths[1],
            "result": decomposition_to_json(out)}


def cmd_translate(args) -> int:
    payload = _translate(getattr(args, "from"), args.to, args.graph)
    shown = payload["result"] if "result" in payload else payload["term"]
    _emit(payload, args.json,
          f"width {payload['from_width']} -> {payload['to_width']}\n" + _dumps(shown))
    return 0


def cmd_check_theorems(args) -> int:
    sg = _load_graph(args.file)
    report = tr.check_theorems(sg.graph, budget=args.budget)
    lines = [report.summary()]
    for c in report.checks:
        lines.append(f"  {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    _emit(report.to_json(), args.json, "\n".join(lines))
    return 0 if report.ok else 1


def cmd_catalog(args) -> int:
    cache = oracles.WidthCache()
    if args.cache:
        try:
            cache.load(args.cache)
        except oracles.OracleError as exc:
            raise CliError(str(exc)) from exc
    rows = []
    try:
        for g in oracles.enumerate_graphs(args.max_v, args.max_e):
            tw, pw, bw = cache.widths(g)
            edges = sorted(tuple(sorted(g.ends(e))) for e in g.edges)
            rows.append({"n": len(g.vertices), "edges": edges,
                         "tw": tw, "pw": pw, "bw": bw})
            if not args.json:
                print(f"n={len(g.vertices)} e={edges} tw={tw} pw={pw} bw={bw}")
        if args.json:
            print(json.dumps(rows, indent=1, sort_keys=True))
    finally:  # keep the widths computed, also when the reader closes the pipe early
        if args.cache:
            cache.save(args.cache)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mwidth",
        description="widths of graphs and their glued-cospan decompositions")
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("widths", help="exact widths plus certified bounds")
    w.add_argument("file")
    w.add_argument("--json", action="store_true")
    w.add_argument("--budget", type=int, default=4000)
    w.set_defaults(fn=cmd_widths)

    d = sub.add_parser("decompose", help="emit a width witness")
    d.add_argument("file")
    d.add_argument("--kind", choices=("tree", "path", "branch", "monoidal"),
                   required=True)
    d.add_argument("--recursive", action="store_true")
    d.add_argument("--shape", choices=("any", "right-tree", "path"), default="any")
    d.add_argument("--budget", type=int, default=4000)
    d.add_argument("--json", action="store_true")
    d.add_argument("--dot", action="store_true")
    d.set_defaults(fn=cmd_decompose)

    v = sub.add_parser("validate", help="check a decomposition JSON")
    v.add_argument("file")
    v.add_argument("--dec", required=True)
    v.set_defaults(fn=cmd_validate)

    t = sub.add_parser("translate", help="apply a width-preserving translation")
    t.add_argument("--from", required=True)
    t.add_argument("--to", required=True,
                   choices=("tree", "path", "branch", "rec-tree", "rec-path",
                            "rec-branch", "monoidal"))
    t.add_argument("--graph", help="graph file (classic -> recursive only)")
    t.add_argument("--json", action="store_true")
    t.set_defaults(fn=cmd_translate)

    c = sub.add_parser("check-theorems", help="verify the width sandwiches")
    c.add_argument("file")
    c.add_argument("--json", action="store_true")
    c.add_argument("--budget", type=int, default=4000)
    c.set_defaults(fn=cmd_check_theorems)

    g = sub.add_parser("catalog", help="stream small graphs with their widths")
    g.add_argument("--max-v", type=int, required=True)
    g.add_argument("--max-e", type=int, default=None)
    g.add_argument("--cache", help="JSON cache file for widths")
    g.add_argument("--json", action="store_true")
    g.set_defaults(fn=cmd_catalog)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send the rest of the output, and the flush at
        # exit, to the null device (the SIGPIPE note of Python's `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, GraphParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, DecompositionError, tm.TermError,
            tr.TranslationError, oracles.OracleError, cs.CospanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
