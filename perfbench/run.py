"""Benchmark of the shifted-crystals CLI verbs ``graph``, ``check`` and
``expand``, plus ``check`` refuting seeded single-edge mutants.

    python3 perfbench/run.py --workload straight-deep --seed 1 --seconds 40 --trace 0

Each round runs every verb of the workload in a fresh interpreter
(``child.py``), so the process-wide operator caches start cold as they do
for a CLI user.  Rounds repeat until ``--seconds`` is used up.  Every
invocation's exit code and output digest are compared with the golden
values in ``golden/outputs.json``.  The last line printed is one JSON
object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced rounds, which alternate with untraced rounds
that give the tracing overhead.  See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import self_times
from workloads import (
    HERE,
    ROOT,
    SRC,
    VERBS,
    WORKLOADS,
    Inputs,
    Workload,
    generate,
    invocations,
    load_golden,
    write_mutants,
)

CHILD = HERE / "child.py"
# A verb process takes a few seconds; a hung one must not keep a run past
# the 180 s a run may take.
CHILD_TIMEOUT_S = 30
HASH_SEED = "0"
# The CPUs this machine lets the benchmark use.  Their speeds drift apart
# independently, so round k pins its verb processes to CPUS[k % len(CPUS)]
# and every run samples each CPU equally (see NOTES.md).
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = {
    "setup_s": "s",
    "graph_s": "s",
    "check_s": "s",
    "refute_s": "s",
    "expand_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}

# The ids of ALL_AXIOMS, spelled out: the benchmark fixes its metric names.
AXIOM_IDS = (
    "B1", "B2", "B3", "K",
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "A1D", "A2D", "A3D", "A4D", "A5D", "A6D", "A7D", "A8D",
    "XL", "SA", "L_CAS", "L_CF1", "L_TD",
)

# Self time of the span of the same name, in seconds.
SPAN_METRICS = (
    "tableaux.enumerate",
    "ops.F", "ops.Fp", "ops.E", "ops.Ep",
    "graph.build", "graph.export_json", "graph.import_json",
    "graph.components", "graph.highest_weight",
    *(f"axioms.{a}" for a in AXIOM_IDS),
    "axioms.check_all",
    "expansion.verify", "expansion.genfun", "expansion.schur",
    "cli.graph", "cli.check", "cli.expand",
)

# Counts summed over the verb processes of a traced round.
COUNT_METRICS = (
    "tableaux.count",
    "ops.calls",
    "ops.distinct_keys",
    "graph.json_bytes",
    "graph.components",
    "axioms.violations",
    "expansion.terms",
)

RATIO_METRICS = ("ops.defined_ratio", "axioms.refute_ratio", "trace.overhead_share")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPAN_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units["graph.json_bytes"] = "bytes"
    units.update({name: "ratio" for name in RATIO_METRICS})
    return units


@dataclass
class VerbRun:
    codes: list[int]
    seconds: list[float]
    failed: list[bool]
    maxrss_kb: int
    spans: dict | None


@dataclass
class Round:
    setup_s: float = 0.0
    verbs: dict[str, VerbRun] = field(default_factory=dict)
    crashed: bool = False

    @property
    def verb_seconds(self) -> float:
        return sum(sum(v.seconds) for v in self.verbs.values())


def _spawn(
    verb: str, jobs: list[dict], workdir: Path, trace: bool, cpu: int
) -> tuple[dict | None, float, str]:
    """Run one verb process on ``cpu``; returns its result (None if it
    crashed), the time it was started, and its stderr."""
    job_path = workdir / f"job-{verb}.json"
    job = {
        "verb": verb,
        "trace": trace,
        "cpu": cpu,
        "src": str(SRC),
        "invocations": jobs,
        "result": str(workdir / f"result-{verb}.json"),
        "spans": str(workdir / "trace" / f"{verb}.json"),
    }
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(job_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        return None, spawned, f"{verb} timed out after {exc.timeout} s"
    if proc.returncode != 0:
        return None, spawned, proc.stderr
    with open(job["result"], encoding="utf-8") as handle:
        result = json.load(handle)
    spans = None
    if trace:
        with open(job["spans"], encoding="utf-8") as handle:
            spans = json.load(handle)
    result["spans"] = spans
    return result, spawned, proc.stderr


def run_round(workload: Workload, inputs: Inputs, workdir: Path, trace: bool, cpu: int) -> Round:
    rnd = Round()
    start = time.perf_counter()
    golden = load_golden()[workload.name]
    expected_items = golden["items"]
    expected_mutants = {m["key"]: (m["code"], m["sha256"]) for m in golden["pool"]}
    (workdir / "trace").mkdir(parents=True, exist_ok=True)
    rnd.setup_s += time.perf_counter() - start

    verified: set[str] = set()
    for verb in VERBS:
        jobs = invocations(workload, inputs, verb, workdir)
        missing: set[int] = set()
        if verb == "refute":
            start = time.perf_counter()
            missing = write_mutants(inputs, workdir, verified)
            rnd.setup_s += time.perf_counter() - start
        result, spawned, stderr = _spawn(verb, jobs, workdir, trace, cpu)
        if result is None:
            print(f"{workload.name}: {verb} process failed:\n{stderr[-2000:]}", file=sys.stderr)
            failed = [True] * len(jobs)
            rnd.verbs[verb] = VerbRun([-1] * len(jobs), [0.0] * len(jobs), failed, 0, None)
            rnd.crashed = True
            continue
        rnd.setup_s += result["ready"] - spawned
        run = VerbRun([], [], [], result["maxrss_kb"], result["spans"])
        for k, (job, (code, sha, seconds, meaningful)) in enumerate(zip(jobs, result["results"])):
            if verb == "refute":
                want = expected_mutants.get(job["key"])
            else:
                want = tuple(expected_items.get(job["key"], {}).get(verb, ())) or None
            ok = k not in missing and meaningful and want == (code, sha)
            if not ok:
                print(f"{workload.name}: {verb} {job['key']}: got exit {code} sha256 {sha[:12]}, "
                      f"golden {want}", file=sys.stderr)
            if ok and verb == "graph":
                verified.add(job["key"])
            run.codes.append(code)
            run.seconds.append(seconds)
            run.failed.append(not ok)
        rnd.verbs[verb] = run
    return rnd


def tally(rounds: list[Round]) -> tuple[int, int]:
    """Invocations attempted and failed over the rounds."""
    runs = [v for r in rounds for v in r.verbs.values()]
    return sum(len(v.failed) for v in runs), sum(sum(v.failed) for v in runs)


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    attempted, failed = tally(rounds)
    values = {"setup_s": statistics.median(r.setup_s for r in rounds)}
    # The mean over rounds, not the median: rounds alternate between two
    # CPUs whose speeds differ, and the median of two clusters jumps between
    # them from run to run (NOTES.md, "Noise").
    for verb in VERBS:
        values[f"{verb}_s"] = statistics.mean(sum(r.verbs[verb].seconds) for r in rounds)
    values["peak_rss_mb"] = statistics.median(
        max(v.maxrss_kb for v in r.verbs.values()) for r in rounds
    ) / 1024
    values["pass_share"] = 1 - failed / attempted
    return values


def _round_layers(rnd: Round) -> tuple[dict[str, float], dict[str, int]]:
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    for run in rnd.verbs.values():
        if run.spans is None:
            continue
        for name, seconds in self_times(run.spans).items():
            times[name] = times.get(name, 0.0) + seconds
        for name, value in run.spans["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return times, counts


def per_layer(traced: list[Round], untraced: list[Round]) -> tuple[dict[str, float], bool]:
    """Per-layer metrics of the traced rounds, and whether every count
    repeated exactly across them."""
    layers = [_round_layers(r) for r in traced]
    steady = all(counts == layers[0][1] for _, counts in layers)
    values = {
        f"{name}_s": statistics.mean(times.get(name, 0.0) for times, _ in layers)
        for name in SPAN_METRICS
    }
    counts = layers[0][1]
    values.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    values["ops.defined_ratio"] = counts.get("ops.defined", 0) / max(counts.get("ops.calls", 0), 1)
    refute = traced[0].verbs["refute"].codes
    values["axioms.refute_ratio"] = sum(code == 1 for code in refute) / max(len(refute), 1)
    plain = statistics.mean(r.verb_seconds for r in untraced)
    values["trace.overhead_share"] = (
        statistics.mean(r.verb_seconds for r in traced) - plain
    ) / plain
    return values, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shifted_crystals" / "cli.py").is_file():
        print(f"error: no program to measure at {SRC / 'shifted_crystals'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = generate(workload, args.seed, load_golden())

    untraced: list[Round] = []
    traced: list[Round] = []
    began = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        cpu = CPUS[len(untraced) % len(CPUS)]
        untraced.append(run_round(workload, inputs, workdir, trace=False, cpu=cpu))
        if args.trace:
            traced.append(run_round(workload, inputs, workdir, trace=True, cpu=cpu))
        longest = max(longest, time.perf_counter() - start)
        crashed = any(r.crashed for r in untraced[-1:] + traced[-1:])
        if crashed or time.perf_counter() - began + longest > args.seconds:
            break

    with open(workdir / "rounds.json", "w", encoding="utf-8") as handle:
        json.dump({kind: [{"setup_s": r.setup_s,
                           "seconds": {verb: v.seconds for verb, v in r.verbs.items()}}
                          for r in rounds]
                   for kind, rounds in (("untraced", untraced), ("traced", traced))}, handle)
    attempted, failed = tally(untraced + traced)
    correct = failed == 0
    if args.trace:
        values, steady = per_layer(traced, untraced)
        if not steady:
            print("error: counts differ between traced rounds", file=sys.stderr)
            correct = False
        units = per_layer_units()
    else:
        values = end_to_end(untraced)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"{workload.name}: {len(untraced)} untraced and {len(traced)} traced rounds "
          f"in {time.perf_counter() - began:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
