from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from shifted_crystals import MalformedGraph, cli, import_json
from shifted_crystals.cli import run


@pytest.fixture()
def invoke(capsys):
    def _invoke(*argv):
        status = run(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    return _invoke


class TestApply:
    def test_primed_lowering(self, invoke):
        status, out, _ = invoke("apply", "--op", "F'", "--index", "1", "--word", "211", "--n", "2")
        assert (status, out) == (0, "212'\n")

    def test_undefined_reports_type(self, invoke):
        status, out, _ = invoke("apply", "--op", "F", "--index", "1", "--word", "2112", "--n", "2")
        assert (status, out) == (0, "undefined (type 5F at position 3)\n")

    def test_undefined_raising_reports_type(self, invoke):
        status, out, _ = invoke("apply", "--op", "E", "--index", "1", "--word", "11'21", "--n", "2")
        assert (status, out) == (0, "undefined (type 5E at position 4)\n")

    def test_undefined_without_critical_substring(self, invoke):
        status, out, _ = invoke("apply", "--op", "F", "--index", "1", "--word", "2", "--n", "2")
        assert (status, out) == (0, "undefined (no critical substring)\n")

    def test_primed_undefined(self, invoke):
        status, out, _ = invoke("apply", "--op", "F'", "--index", "1", "--word", "212'2", "--n", "2")
        assert (status, out) == (0, "undefined (no qualifying representative)\n")

    def test_tableau_file(self, invoke, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 1\n2\n")
        status, out, _ = invoke("apply", "--op", "F'", "--index", "1", "--tableau-file", str(path), "--n", "2")
        assert (status, out) == (0, "1 2'\n2\n")

    def test_needs_word_or_file(self, invoke):
        status, _, err = invoke("apply", "--op", "F", "--index", "1", "--n", "2")
        assert status == 2 and "word" in err


class TestWalk:
    def test_trace(self, invoke):
        status, out, _ = invoke("walk", "--index", "1", "--word", "211'12'22'1'1'", "--n", "2")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "2 (0,0)->(0,1) N"
        assert lines[-1] == "endpoint (3,2)"

    def test_golden(self, invoke):
        status, out, _ = invoke("walk", "--index", "1", "--word", "11", "--n", "2")
        assert out == "1 (0,0)->(1,0) E\n1 (1,0)->(2,0) E\nendpoint (2,0)\n"


class TestSmallVerbs:
    def test_std(self, invoke):
        status, out, _ = invoke("std", "--word", "3111'21'12'", "--n", "3")
        assert (status, out) == (0, "8 3 4 2 7 1 5 6\n")

    def test_eta(self, invoke):
        status, out, _ = invoke("eta", "--word", "33'122'132", "--n", "3")
        assert (status, out) == (0, "113223'1'2'\n")

    def test_enumerate(self, invoke):
        status, out, _ = invoke("enumerate", "--outer", "2,1", "--n", "2")
        assert (status, out) == (0, "211\n212'\n")

    def test_enumerate_json(self, invoke):
        status, out, _ = invoke("enumerate", "--outer", "2,1", "--n", "2", "--format", "json")
        data = json.loads(out)
        assert [d["word"] for d in data] == ["211", "212'"]
        assert data[0]["weight"] == [2, 1]

    @pytest.mark.parametrize(
        "word, message",
        [
            ("\u0661\u0662", "bad letter token '\u0661'"),
            ("\u00b2", "bad letter token '\u00b2'"),
            ("1 \u0662", "bad letter token '\u0662'"),
        ],
        ids=["arabic-indic", "superscript", "spaced"],
    )
    def test_word_digits_are_ascii(self, invoke, word, message):
        status, out, err = invoke("std", "--word", word, "--n", "2")
        assert (status, out, err) == (1, "", f"error: {message}\n")

    def test_bad_shape_surfaces_library_error(self, invoke):
        status, _, err = invoke("enumerate", "--outer", "3,3", "--n", "2")
        assert status == 1 and "strict" in err

    @pytest.mark.parametrize("verb", ["graph", "check", "expand"])
    def test_negative_n_exit_two(self, invoke, verb):
        status, out, err = invoke(verb, "--outer", "3,1", "--n", "-1")
        assert (status, out) == (2, "") and "--n" in err

    @pytest.mark.parametrize("flags", [("--outer", "3,a"), ("--outer", "3,1", "--inner", "x")])
    def test_non_integer_parts_exit_two(self, invoke, flags):
        status, out, err = invoke("graph", *flags, "--n", "2")
        assert (status, out) == (2, "") and flags[-2] in err

    def test_zero_n_accepted(self, invoke):
        status, out, _ = invoke("enumerate", "--outer", "1", "--n", "0")
        assert (status, out) == (0, "")


_APPLY = ("apply", "--op", "F", "--index", "1", "--n", "2")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("graph", "--outer", "3,1", "--n", "-1"),
            ("graph", "--outer", "3,a", "--n", "2"),
            ("apply", "--op", "F", "--index", "0", "--word", "12", "--n", "2"),
            ("walk", "--index", "0", "--word", "12", "--n", "2"),
            _APPLY,
            (*_APPLY, "--word", "12", "--tableau-file", "{tableau}"),
            ("check", "--outer", "3,1", "--n", "3", "--graph-file", "{graph}"),
            ("check", "--outer", "3,1"),
            ("check", "--graph-file", "{graph}", "--n", "3"),
            ("check", "--graph-file", "{graph}", "--inner", "1"),
            ("check", "--outer", "3,1", "--n", "3", "--axioms", "B9"),
            ("check", "--outer", "3,1", "--n", "3", "--axioms", ""),
            ("check", "--outer", "3,1", "--n", "3", "--axioms", ","),
            ("frobnicate", "--n", "2"),
            ("std", "--word", "12", "--n", "2", "--bogus"),
            *[
                (*prefix, value)
                for prefix in (
                    ("std", "--word", "1", "--n"),
                    ("walk", "--word", "12", "--n", "2", "--index"),
                    ("enumerate", "--n", "2", "--outer"),
                    ("graph", "--outer", "3,1", "--n", "2", "--inner"),
                )
                for value in ("1_0", "\u0661", "3,1_0")
            ],
            ("std", "--word", "1", "--n", "1", "a\nb"),
            ("std", "--word", "1", "--n", "1", "a\rb\u2028c\x85d"),
            ("check", "--graph-file", "missing\ngraph.json"),
        ],
    )
    def test_one_line_exit_two(self, invoke, tmp_path, argv):
        """Conflicting inputs name real files, so that silently using one of
        them would succeed.  Integers take ASCII digits only, and control
        characters in an argument are escaped in the message."""
        files = {"tableau": tmp_path / "t.txt", "graph": tmp_path / "g.json"}
        files["tableau"].write_text("1 1\n2\n")
        invoke("graph", "--outer", "2,1", "--n", "2", "--format", "json", "--out", str(files["graph"]))
        status, out, err = invoke(*(arg.format(**files) for arg in argv))
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [("--help",), ("check", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(list(argv))
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_parser_is_built_once(self, invoke, monkeypatch):
        def rebuilt():
            raise AssertionError("build_parser ran after import")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert invoke("std", "--word", "21", "--n", "2") == (0, "2 1\n", "")


class TestGraphVerb:
    def test_text_summary(self, invoke):
        status, out, _ = invoke("graph", "--outer", "2,1", "--n", "2")
        lines = out.splitlines()
        assert lines[0] == "vertices 2 edges 1 components 1"
        assert "0 -1'-> 1" in lines

    def test_dot(self, invoke):
        status, out, _ = invoke("graph", "--outer", "2,1", "--n", "2", "--format", "dot")
        assert out.startswith("digraph crystal {")
        assert 'style=dashed' in out

    def test_json_and_out_file(self, invoke, tmp_path):
        path = tmp_path / "g.json"
        status, out, _ = invoke("graph", "--outer", "2,1", "--n", "2", "--format", "json", "--out", str(path))
        assert status == 0 and out == ""
        data = json.loads(path.read_text())
        assert len(data["vertices"]) == 2 and len(data["edges"]) == 1


class TestCheckVerb:
    def test_pass_exit_zero(self, invoke):
        status, out, _ = invoke("check", "--outer", "3,1", "--n", "3")
        assert status == 0
        assert "total violations: 0" in out

    def test_selected_axioms(self, invoke):
        status, out, _ = invoke("check", "--outer", "2,1", "--n", "2", "--axioms", "B1,K")
        assert status == 0
        assert "B1" in out and "A5" not in out

    def test_unknown_axiom(self, invoke):
        status, _, err = invoke("check", "--outer", "2,1", "--n", "2", "--axioms", "B9")
        assert status == 2

    def test_graph_file_round_trip(self, invoke, tmp_path, graph_cache):
        from shifted_crystals import export_json

        path = tmp_path / "g.json"
        path.write_text(export_json(graph_cache((3, 1), (), 3)))
        status, out, _ = invoke("check", "--graph-file", str(path))
        assert status == 0 and "total violations: 0" in out

    def test_repeated_axiom_runs_and_prints_once(self, invoke, tmp_path, graph_cache):
        # ShST((3,1), 3) without edge 3 breaks one {2,2'}-string
        from shifted_crystals import CrystalGraph, export_json

        g = graph_cache((3, 1), (), 3)
        path = tmp_path / "g.json"
        path.write_text(export_json(CrystalGraph(g.n, g.vertices, g.edges[:3] + g.edges[4:])))
        status, out, _ = invoke("check", "--graph-file", str(path), "--axioms", "B1,B1")
        assert status == 1
        assert out.count("  B1     FAIL (1)") == 1 and out.count("[B1]") == 1
        assert "total violations: 1" in out

    @pytest.mark.parametrize("n", [10, 11])
    def test_graph_file_round_trip_above_nine(self, invoke, tmp_path, n):
        # the one-letter words 10 and 11 are written "10 " and "11 ", so
        # that they are not read back as 1 0 or 1 1
        status, out, _ = invoke("graph", "--outer", "1", "--n", str(n), "--format", "json")
        assert status == 0
        assert [v["word"] for v in json.loads(out)["vertices"]][8:] == ["9", "10 ", "11 "][: n - 8]
        path = tmp_path / "g.json"
        path.write_text(out)
        status, out, err = invoke("check", "--graph-file", str(path))
        assert (status, err) == (0, "") and "total violations: 0" in out

    def test_violations_exit_one(self, invoke, tmp_path):
        bad = {
            "n": 2,
            "vertices": [{"id": 0, "word": None, "weight": [1, 0]}, {"id": 1, "word": None, "weight": [1, 0]}],
            "edges": [{"src": 0, "dst": 1, "index": 1, "primed": True}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        status, out, _ = invoke("check", "--graph-file", str(path))
        assert status == 1
        assert "FAIL" in out

    def test_malformed_exit_two(self, invoke, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{oops")
        status, _, err = invoke("check", "--graph-file", str(path))
        assert status == 2

    @staticmethod
    def _rejected(invoke, tmp_path, graph) -> str:
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        status, out, err = invoke("check", "--graph-file", str(path))
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_vertex_that_is_not_an_object(self, invoke, tmp_path):
        err = self._rejected(invoke, tmp_path, {"vertices": [1], "edges": []})
        assert "'vertices' must be a list of objects" in err

    def test_primed_flag_must_be_boolean(self, invoke, tmp_path):
        vertices = [{"id": 0, "word": None, "weight": [1, 0]}, {"id": 1, "word": None, "weight": [0, 1]}]
        edges = [{"src": 0, "dst": 1, "index": 1, "primed": "false"}]
        err = self._rejected(invoke, tmp_path, {"n": 2, "vertices": vertices, "edges": edges})
        assert "edge primed must be bool, got 'false'" in err

    def test_fractional_id_is_not_truncated(self, invoke, tmp_path):
        vertices = [{"id": 0.7, "word": None, "weight": [1, 0]}]
        err = self._rejected(invoke, tmp_path, {"n": 2, "vertices": vertices, "edges": []})
        assert "vertex id must be int, got 0.7" in err

    def test_word_digits_are_ascii(self, invoke, tmp_path):
        vertices = [{"id": 0, "word": "\u0661", "weight": [1, 0]}]
        err = self._rejected(invoke, tmp_path, {"n": 2, "vertices": vertices, "edges": []})
        assert err == "error: bad graph JSON: bad letter token '\u0661'\n"

    def test_negative_alphabet_bound_without_vertices(self, invoke, tmp_path):
        err = self._rejected(invoke, tmp_path, {"n": -3, "vertices": [], "edges": []})
        assert err == "error: bad graph JSON: alphabet bound must be nonnegative\n"

    def test_word_must_match_weight(self, invoke, tmp_path):
        vertices = [{"id": 0, "word": "22", "weight": [2, 0]}]
        err = self._rejected(invoke, tmp_path, {"n": 2, "vertices": vertices, "edges": []})
        assert err == "error: vertex 0 has weight [2, 0] but its word 22 has weight [0, 2]\n"

    def test_weight_entries_are_nonnegative(self, invoke, tmp_path):
        vertices = [{"id": 0, "word": None, "weight": [-1, 2]}]
        err = self._rejected(invoke, tmp_path, {"n": 2, "vertices": vertices, "edges": []})
        assert err == "error: vertex 0 has a negative weight entry: [-1, 2]\n"

    def test_deep_nesting_exit_two(self, invoke, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        status, out, err = invoke("check", "--graph-file", str(path))
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_file_exit_two(self, invoke, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'\xff\xfe{"vertices": [], "edges": []}')
        status, out, err = invoke("check", "--graph-file", str(path))
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 7),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
)


@st.composite
def graph_json(draw) -> str:
    """Graph JSON in the export schema, self-loops and multi-edges included;
    half the time one field is replaced by an arbitrary JSON value."""
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 6), max_size=6, unique=True))
    words = st.sampled_from([None, "1", "21", "211", "221"])
    weight = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    vertices = [{"id": v, "word": draw(words), "weight": draw(weight)} for v in ids]
    edges = []
    if ids and n >= 2:
        edge = st.fixed_dictionaries(
            {
                "src": st.sampled_from(ids),
                "dst": st.sampled_from(ids),
                "index": st.integers(1, n - 1),
                "primed": st.booleans(),
            }
        )
        edges = draw(st.lists(edge, max_size=10))
    data = {"n": n, "vertices": vertices, "edges": edges}
    if draw(st.booleans()):
        del data["n"]
    if draw(st.booleans()):
        holder = draw(st.sampled_from([data, *vertices, *edges]))
        holder[draw(st.sampled_from(sorted(holder)))] = draw(_JUNK)
    return json.dumps(data)


class TestGraphFileFuzz:
    @settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=graph_json())
    def test_import_and_check_stay_total(self, invoke, tmp_path, text):
        try:
            imported = import_json(text)
        except MalformedGraph:
            imported = None
        path = tmp_path / "fuzz.json"
        path.write_text(text)
        status, out, err = invoke("check", "--graph-file", str(path))
        if imported is None:
            assert (status, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert status in (0, 1) and err == ""


class TestExpandVerb:
    def test_golden(self, invoke):
        status, out, _ = invoke("expand", "--outer", "2,1", "--n", "2")
        assert (status, out) == (0, "[(2,1)] x1 ; identity OK\n")

    def test_json(self, invoke):
        status, out, _ = invoke("expand", "--outer", "3,1", "--inner", "2", "--n", "2", "--format", "json")
        data = json.loads(out)
        assert data["identity_ok"] is True
        assert sum(term["multiplicity"] for term in data["expansion"]) >= 2


class TestDeterminism:
    def test_byte_identical_reruns(self, invoke):
        first = invoke("graph", "--outer", "3,1", "--n", "3", "--format", "json")
        second = invoke("graph", "--outer", "3,1", "--n", "3", "--format", "json")
        assert first == second

    def test_call_order_does_not_matter(self, invoke, tmp_path):
        """Every verb and --format value, run in two orders in one process:
        no parsed value may leak from one call into the next."""
        tableau = tmp_path / "t.txt"
        tableau.write_text("1 1\n2\n")
        graph = tmp_path / "g.json"
        invoke("graph", "--outer", "3,1", "--n", "3", "--format", "json", "--out", str(graph))
        shape = ("--outer", "3,1", "--inner", "1", "--n", "3")
        table = [
            ("enumerate", *shape),
            ("enumerate", *shape, "--format", "json"),
            ("apply", "--op", "F'", "--index", "1", "--word", "211", "--n", "2"),
            ("apply", "--op", "E", "--index", "2", "--word", "321", "--n", "3"),
            ("apply", "--op", "F'", "--index", "1", "--tableau-file", str(tableau), "--n", "2"),
            ("walk", "--index", "1", "--word", "211'12'22'1'1'", "--n", "2"),
            ("walk", "--index", "2", "--word", "3231", "--n", "3"),
            ("std", "--word", "3111'21'12'", "--n", "3"),
            ("eta", "--word", "33'122'132", "--n", "3"),
            ("graph", *shape),
            ("graph", *shape, "--format", "json"),
            ("graph", *shape, "--format", "dot"),
            ("check", *shape, "--axioms", "B1"),
            ("check", *shape),
            ("check", "--graph-file", str(graph), "--axioms", "A1,K"),
            ("check", "--graph-file", str(graph)),
            ("check", "--outer", "2,1", "--n", "2", "--axioms", "B9"),
            ("expand", *shape),
            ("expand", *shape, "--format", "json"),
        ]

        def outcomes(order):
            seen = {}
            for k in order:
                status, out, _ = invoke(*table[k])
                seen[k] = (status, [line for line in out.splitlines() if not line.startswith("runtime: ")])
            return seen

        forward = outcomes(range(len(table)))
        assert outcomes(reversed(range(len(table)))) == forward
        assert all(out for status, out in forward.values() if status != 2)
