"""The benchmark's own test: generators, the correctness gate and the traced
run on one small item.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from child import digest  # noqa: E402
from workloads import (  # noqa: E402
    HERE,
    ROOT,
    WORKLOADS,
    Item,
    generate,
    load_golden,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = Item((3, 1), (), 3)


def small():
    """sweep-small cut down to SMALL, with one mutant per round."""
    return replace(WORKLOADS["sweep-small"], items=(SMALL,), mutants=1)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "trace").mkdir()
    return tmp_path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_seeded(name):
    golden = load_golden()
    workload = WORKLOADS[name]
    first = generate(workload, 7, golden)
    assert first == generate(workload, 7, golden)
    assert sorted(first.items, key=str) == sorted(workload.items, key=str)
    with_edges = {m["item"] for m in golden[name]["pool"]}
    assert len(first.mutants) == workload.mutants * len(with_edges)
    assert len({m.key for m in first.mutants}) == len(first.mutants)


def test_gate_passes_at_golden(workdir):
    workload = small()
    inputs = generate(workload, 1, load_golden())
    rnd = run.run_round(workload, inputs, workdir, trace=False, cpu=run.CPUS[0])
    assert run.tally([rnd]) == (3 + 1, 0)
    assert rnd.verbs["refute"].codes == [1]


def test_gate_counts_a_changed_output(workdir, monkeypatch):
    workload = small()
    golden = load_golden()
    inputs = generate(workload, 1, golden)
    golden["sweep-small"]["items"][SMALL.key]["graph"][1] = "0" * 64
    monkeypatch.setattr(run, "load_golden", lambda: golden)
    rnd = run.run_round(workload, inputs, workdir, trace=False, cpu=run.CPUS[0])
    # the graph output no longer matches, and its mutant cannot be made
    assert [sum(v.failed) for v in rnd.verbs.values()] == [1, 0, 1, 0]


def test_check_digest_ignores_runtime():
    report = b"checked 1 vertices, 0 edges\ntotal violations: 0\nruntime: %ss\n"
    assert digest("check", report % b"0.001") == digest("check", report % b"1.234")
    assert digest("graph", report % b"0.001") != digest("graph", report % b"1.234")


def test_traced_counts_repeat_and_every_metric_appears(workdir):
    workload = small()
    inputs = generate(workload, 1, load_golden())
    rounds = [
        run.run_round(workload, inputs, workdir, trace=flag, cpu=run.CPUS[0])
        for flag in (False, True, True)
    ]
    assert run.tally(rounds) == (3 * 4, 0)
    values, steady = run.per_layer(rounds[1:], rounds[:1])
    assert steady
    assert set(values) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert values["ops.calls"] > 0 and values["tableaux.count"] > 0
    assert values["ops.F_s"] > 0 and values["axioms.K_s"] > 0 and values["cli.expand_s"] > 0


def test_missing_function_fails_loudly(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import shifted_crystals.cli  # noqa: F401

    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (("ops", "gone", None),))
    with pytest.raises(tracing.TracingError, match="ops.gone"):
        tracing.Tracer().install()


def test_self_time_subtracts_children():
    dump = {
        "names": ["outer", "inner"],
        "spans": [[0, 0.0, 10.0, -1, 0], [1, 1.0, 4.0, 0, 0], [1, 5.0, 6.0, 0, 0]],
    }
    assert tracing.self_times(dump) == {"outer": 6.0, "inner": 4.0}


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


def test_sweep_exports_match_the_acceptance_digests():
    lines = (HERE / "golden" / "export_json.sha256").read_text(encoding="utf-8").splitlines()
    digests = {line[66:]: line[:64] for line in lines}
    items = load_golden()["sweep-small"]["items"]
    assert {key: out["graph"][1] for key, out in items.items()} == {
        key: digests[key] for key in items
    }
