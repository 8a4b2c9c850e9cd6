"""Command-line front end: enumerate, apply, walk, std, eta, graph, check, expand.

Output is deterministic for fixed inputs.  Exit status: 0 success (for
``check``: certified), 1 violations or a library error, 2 usage or
malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .axioms import ALL_AXIOMS, check_all
from .errors import MalformedGraph
from .expansion import verify_expansion
from .graph import build_graph, components, export_dot, export_json, import_json
from .ops import FAMILIES, OpKind, apply, apply_to_tableau, final_critical_substring, lattice_walk
from .tableaux import SkewShape, enumerate_tableaux, make_skew_shape, parse_tableau, reading_word
from .words import Letter, Word, eta, standardize


def _parts(text: str) -> tuple[int, ...]:
    """argparse type of --outer and --inner: comma-separated integers, or none."""
    try:
        return tuple(int(tok) for tok in text.split(",")) if text.strip() else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _count(text: str) -> int:
    """argparse type of --n: an integer >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _shape_from(args) -> SkewShape:
    return make_skew_shape(args.outer, args.inner)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_enumerate(args) -> int:
    tableaux = enumerate_tableaux(_shape_from(args), args.n)
    if args.format == "json":
        data = [
            {
                "word": str(reading_word(t)),
                "weight": list(t.weight()),
                "rows": str(t).splitlines(),
            }
            for t in tableaux
        ]
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        _emit("".join(f"{reading_word(t)}\n" for t in tableaux), args.out)
    return 0


def _undefined_message(word: Word, kind: OpKind) -> str:
    if kind.primed:
        return "undefined (no qualifying representative)"
    match = final_critical_substring(word, kind.index, lower=kind.lowering)
    if match is None:
        return "undefined (no critical substring)"
    return f"undefined (type {match.kind} at position {match.start_index + 1})"


def _cmd_apply(args) -> int:
    kind = OpKind(args.op, args.index)
    if args.tableau_file:
        with open(args.tableau_file, encoding="utf-8") as handle:
            tableau = parse_tableau(handle.read(), args.n)
        result = apply_to_tableau(kind, tableau)
        if result is None:
            _emit(_undefined_message(reading_word(tableau), kind) + "\n", args.out)
        else:
            _emit(str(result) + "\n", args.out)
        return 0
    word = Word.parse(args.word, args.n)
    result = apply(kind, word)
    if result is None:
        _emit(_undefined_message(word, kind) + "\n", args.out)
    else:
        _emit(str(result) + "\n", args.out)
    return 0


def _cmd_walk(args) -> int:
    word = Word.parse(args.word, args.n)
    walk = lattice_walk(word, args.index)
    lines = []
    for pos, a, b, step in zip(walk.positions, walk.points, walk.points[1:], walk.steps):
        letter = Letter.from_code(word.codes[pos])
        lines.append(f"{letter} ({a[0]},{a[1]})->({b[0]},{b[1]}) {step}")
    lines.append(f"endpoint ({walk.endpoint[0]},{walk.endpoint[1]})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_std(args) -> int:
    word = Word.parse(args.word, args.n)
    _emit(" ".join(map(str, standardize(word))) + "\n", args.out)
    return 0


def _cmd_eta(args) -> int:
    word = Word.parse(args.word, args.n)
    _emit(str(eta(word)) + "\n", args.out)
    return 0


def _cmd_graph(args) -> int:
    g = build_graph(_shape_from(args), args.n)
    if args.format == "json":
        _emit(export_json(g), args.out)
    elif args.format == "dot":
        _emit(export_dot(g), args.out)
    else:
        lines = [
            f"vertices {len(g)} edges {len(g.edges)} components {len(components(g))}"
        ]
        for v in g.vertices:
            wt = ",".join(map(str, v.weight))
            lines.append(f"{v.id} {v.word} ({wt})")
        for e in g.edges:
            lines.append(f"{e.src} -{e.label}-> {e.dst}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    if args.graph_file:
        try:
            with open(args.graph_file, encoding="utf-8") as handle:
                g = import_json(handle.read())
        except (OSError, UnicodeDecodeError, MalformedGraph) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        if args.outer is None:
            print("error: check needs --outer or --graph-file", file=sys.stderr)
            return 2
        g = build_graph(_shape_from(args), args.n)
    if args.axioms == "all":
        selected = ALL_AXIOMS
    else:
        selected = tuple(tok.strip() for tok in args.axioms.split(",") if tok.strip())
        unknown = [a for a in selected if a not in ALL_AXIOMS]
        if unknown:
            print(f"error: unknown axioms {unknown}", file=sys.stderr)
            return 2
    report = check_all(g, selected)
    text = report.render() + "\n"
    for axiom in selected:
        for violation in report.violations[axiom]:
            text += f"{violation}\n{violation.context}\n"
    _emit(text, args.out)
    return 0 if report.passed else 1


def _cmd_expand(args) -> int:
    report = verify_expansion(_shape_from(args), args.n)
    if args.format == "json":
        data = {
            "shape": str(report.shape),
            "n": report.n,
            "expansion": [
                {"sigma": list(s), "multiplicity": m} for s, m in report.expansion.terms
            ],
            "identity_ok": report.identity_ok,
            "genfun_matches": {
                "(" + ",".join(map(str, s)) + ")": kind
                for s, kind in report.straight_matches
            },
            "weighted_genfun_matches": {
                "(" + ",".join(map(str, s)) + ")": kind
                for s, kind in report.weighted_matches
            },
        }
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        _emit(str(report) + "\n", args.out)
    return 0


def _add_shape_flags(parser, required: bool = True) -> None:
    parser.add_argument("--outer", type=_parts, required=required, default=None, help="outer parts, e.g. 3,1")
    parser.add_argument("--inner", type=_parts, default=(), help="inner parts, e.g. 2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shifted-crystals",
        description="Crystal operators on shifted tableaux, axiom checking, expansions",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="list ShST(shape, n)")
    _add_shape_flags(p)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("apply", help="apply F/E/F'/E' to a word or tableau")
    p.add_argument("--op", choices=FAMILIES, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--word")
    p.add_argument("--tableau-file")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("walk", help="print the i-th lattice walk of a word")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_walk)

    p = sub.add_parser("std", help="standardization ranks of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_std)

    p = sub.add_parser("eta", help="the weight-reversing involution of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eta)

    p = sub.add_parser("graph", help="build and export a crystal graph")
    _add_shape_flags(p)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("check", help="verify the local axioms on a crystal graph")
    _add_shape_flags(p, required=False)
    p.add_argument("--n", type=_count, default=None)
    p.add_argument("--graph-file", help="check an imported JSON graph instead")
    p.add_argument("--axioms", default="all", help="comma-separated axiom ids, or 'all'")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("expand", help="Schur-Q-positive expansion via highest weights")
    _add_shape_flags(p)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_expand)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.verb == "apply" and not args.tableau_file and args.word is None:
        print("error: apply needs --word or --tableau-file", file=sys.stderr)
        return 2
    if args.verb == "check" and not args.graph_file and args.n is None:
        print("error: check needs --n with --outer", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except MalformedGraph as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
