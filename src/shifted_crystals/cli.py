"""Command-line front end: enumerate, apply, walk, std, eta, graph, check, expand.

Output is deterministic for fixed inputs, except the ``runtime:`` line of
``check``.  Exit status: 0 success (for ``check``: certified), 1 violations
or a library error, 2 usage or malformed input, reported as one
``error: ...`` line on stderr.  One parser, built at import, owns every
argument rule except check's: ``--n`` is required with ``--outer`` and,
like ``--inner``, rejected with ``--graph-file``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .axioms import ALL_AXIOMS, check_all
from .errors import MalformedGraph
from .expansion import verify_expansion
from .graph import build_graph, component_labels, export_dot, export_json, import_json
from .ops import FAMILIES, OpKind, apply, apply_to_tableau, final_critical_substring, lattice_walk
from .tableaux import enumerate_tableaux, make_skew_shape, parse_tableau, reading_word
from .words import Letter, Word, eta, standardize


def _integer(text: str) -> int:
    """int() of an optional sign and ASCII digits; int() alone also takes 1_0 and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise ValueError(text)
    return int(text)


def _parts(text: str) -> tuple[int, ...]:
    """argparse type of --outer and --inner: comma-separated integers, or none."""
    try:
        return tuple(_integer(tok) for tok in text.split(",")) if text.strip() else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _at_least(low: int):
    """argparse type of an integer >= ``low``: 0 for --n, 1 for --index."""

    def parse(text: str) -> int:
        try:
            value = _integer(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _axiom_ids(text: str) -> tuple[str, ...]:
    """argparse type of --axioms: 'all', or comma-separated known axiom ids."""
    if text == "all":
        return ALL_AXIOMS
    selected = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    unknown = [a for a in selected if a not in ALL_AXIOMS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown axioms {unknown}")
    if not selected:
        raise argparse.ArgumentTypeError(f"no axiom selected in {text!r}")
    return selected


class _UsageError(Exception):
    """A command line the parser rejects, or one that breaks check's rules."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Raise instead of printing the usage and exiting: run() reports
        every usage error as one line with exit status 2."""
        raise _UsageError(message)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_enumerate(args) -> int:
    tableaux = enumerate_tableaux(make_skew_shape(args.outer, args.inner), args.n)
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
    if args.tableau_file is not None:
        with open(args.tableau_file, encoding="utf-8") as handle:
            tableau = parse_tableau(handle.read(), args.n)
        word, result = reading_word(tableau), apply_to_tableau(kind, tableau)
    else:
        word = Word.parse(args.word, args.n)
        result = apply(kind, word)
    _emit((_undefined_message(word, kind) if result is None else str(result)) + "\n", args.out)
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
    g = build_graph(make_skew_shape(args.outer, args.inner), args.n)
    if args.format == "json":
        _emit(export_json(g), args.out)
    elif args.format == "dot":
        _emit(export_dot(g), args.out)
    else:
        lines = [f"vertices {len(g)} edges {len(g.edges)} components {component_labels(g)[1]}"]
        for v in g.vertices:
            wt = ",".join(map(str, v.weight))
            lines.append(f"{v.id} {v.word} ({wt})")
        for e in g.edges:
            lines.append(f"{e.src} -{e.label}-> {e.dst}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    if args.graph_file is not None:
        if args.n is not None or args.inner is not None:
            raise _UsageError("argument --graph-file: not allowed with --n or --inner")
        try:
            with open(args.graph_file, encoding="utf-8") as handle:
                g = import_json(handle.read())
        except (OSError, UnicodeDecodeError) as exc:
            return _error(exc, 2)
    elif args.n is None:
        raise _UsageError("check needs --n with --outer")
    else:
        g = build_graph(make_skew_shape(args.outer, args.inner or ()), args.n)
    report = check_all(g, args.axioms)
    text = report.render() + "\n"
    for axiom in report.axioms:
        for violation in report.violations[axiom]:
            text += f"{violation}\n{violation.context}\n"
    _emit(text, args.out)
    return 0 if report.passed else 1


def _cmd_expand(args) -> int:
    report = verify_expansion(make_skew_shape(args.outer, args.inner), args.n)
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


def _common(n_required: bool = True) -> argparse.ArgumentParser:
    """Parent parser of the flags every verb takes; check's --n is optional."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--n", type=_at_least(0), required=n_required, help="alphabet bound")
    parent.add_argument("--out", help="write the output to this file instead of stdout")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shifted-crystals",
        description="Crystal operators on shifted tableaux, axiom checking, expansions",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    common = _common()
    shape = argparse.ArgumentParser(add_help=False, parents=[common])
    shape.add_argument("--outer", type=_parts, required=True, help="outer parts, e.g. 3,1")
    shape.add_argument("--inner", type=_parts, default=(), help="inner parts, e.g. 2")

    p = sub.add_parser("enumerate", help="list ShST(shape, n)", parents=[shape])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("apply", help="apply F/E/F'/E' to a word or tableau", parents=[common])
    p.add_argument("--op", choices=FAMILIES, required=True)
    p.add_argument("--index", type=_at_least(1), required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--word")
    source.add_argument("--tableau-file")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("walk", help="print the i-th lattice walk of a word", parents=[common])
    p.add_argument("--index", type=_at_least(1), required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=_cmd_walk)

    p = sub.add_parser("std", help="standardization ranks of a word", parents=[common])
    p.add_argument("--word", required=True)
    p.set_defaults(fn=_cmd_std)

    p = sub.add_parser("eta", help="the weight-reversing involution of a word", parents=[common])
    p.add_argument("--word", required=True)
    p.set_defaults(fn=_cmd_eta)

    p = sub.add_parser("graph", help="build and export a crystal graph", parents=[shape])
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser(
        "check", help="verify the local axioms on a crystal graph", parents=[_common(n_required=False)]
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--outer", type=_parts, help="outer parts, e.g. 3,1")
    source.add_argument("--graph-file", help="check an imported JSON graph instead")
    p.add_argument("--inner", type=_parts, help="inner parts, e.g. 2")
    p.add_argument("--axioms", type=_axiom_ids, default=ALL_AXIOMS, help="comma-separated axiom ids, or 'all'")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("expand", help="Schur-Q-positive expansion via highest weights", parents=[shape])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_expand)

    return parser


PARSER = build_parser()


def _error(exc: Exception, status: int) -> int:
    """Report exc as one ``error:`` line, with every non-printable character
    escaped (a newline as ``\\n``), and return the exit status."""
    text = "".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii") for c in str(exc))
    print(f"error: {text}", file=sys.stderr)
    return status


def run(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        return args.fn(args)
    except (_UsageError, MalformedGraph) as exc:
        return _error(exc, 2)
    except (ValueError, OSError) as exc:
        return _error(exc, 1)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
