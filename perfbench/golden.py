"""Regenerate the golden files from the program as it stands.

    python3 perfbench/golden.py

Writes ``golden/outputs.json``: per workload, the exit code and output
sha256 of every item's ``graph``, ``check`` and ``expand`` invocation, and
the fixed mutant pool with each mutant's golden result.  Writes
``golden/export_json.sha256``: the sha256 of ``export_json`` for every graph
the acceptance suite builds (criterion 1's straight sweep and the skew
sweep of criteria 2 and 3).  The program's outputs are meant to stay
byte-identical, so regenerating is for a change that alters them on
purpose, and its diff shows which outputs moved.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

from run import CPUS, _spawn
from workloads import (
    GOLDEN_OUTPUTS,
    HERE,
    ROOT,
    SRC,
    WORKLOADS,
    Inputs,
    Item,
    Workload,
    draw_pool,
    graph_file,
    invocations,
    strict_partitions,
    write_mutants,
)

EXPORT_DIGESTS = HERE / "golden" / "export_json.sha256"


def _run(verb: str, jobs: list[dict], workdir: Path) -> list:
    result, _, stderr = _spawn(verb, jobs, workdir, trace=False, cpu=CPUS[0])
    if result is None:
        raise RuntimeError(f"{verb} process failed:\n{stderr}")
    return result["results"]


def workload_golden(workload: Workload, workdir: Path) -> dict:
    inputs = Inputs(workload.items, ())
    items: dict[str, dict] = {item.key: {} for item in workload.items}
    for verb in ("graph", "check", "expand"):
        jobs = invocations(workload, inputs, verb, workdir)
        for job, (code, sha, _, meaningful) in zip(jobs, _run(verb, jobs, workdir)):
            if not meaningful:
                raise RuntimeError(f"{workload.name} {verb} {job['key']} fails its gate")
            items[job["key"]][verb] = [code, sha]
    graphs = {}
    for item in workload.items:
        with open(graph_file(workdir, item), encoding="utf-8") as handle:
            graphs[item.key] = json.load(handle)
    inputs = Inputs(workload.items, tuple(draw_pool(workload, graphs)))
    write_mutants(inputs, workdir, set(items))
    jobs = invocations(workload, inputs, "refute", workdir)
    pool = [
        {"key": m.key, "item": m.item, "edge": m.edge, "target": m.target,
         "code": code, "sha256": sha}
        for m, (code, sha, _, _) in zip(inputs.mutants, _run("refute", jobs, workdir))
    ]
    return {"items": items, "pool": pool}


def strict_subpartitions(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Strict mu with mu_r <= lam_r, as the acceptance suite's skew sweep."""
    def gen(row, bound):
        if row == len(lam):
            yield ()
            return
        for part in range(0, min(lam[row], bound - 1) + 1):
            if part == 0:
                yield ()
            else:
                for rest in gen(row + 1, part):
                    yield (part,) + rest

    return sorted(set(gen(0, 10**9)))


def acceptance_items() -> list[Item]:
    straight = [
        Item(lam, (), n)
        for size in range(1, 9)
        for lam in strict_partitions(size)
        for n in (1, 2, 3, 4)
    ]
    skew = [
        Item(lam, mu, n)
        for size in range(1, 8)
        for lam in strict_partitions(size)
        for mu in strict_subpartitions(lam)
        if sum(mu) < size
        for n in (1, 2, 3)
    ]
    return list(dict.fromkeys(straight + skew))


def export_digests() -> str:
    sys.path.insert(0, str(SRC))
    from shifted_crystals import build_graph, export_json, make_skew_shape

    lines = []
    for item in acceptance_items():
        text = export_json(build_graph(make_skew_shape(item.outer, item.inner), item.n))
        lines.append(f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {item.key}\n")
    return "".join(lines)


def main() -> int:
    golden = {}
    for workload in WORKLOADS.values():
        workdir = ROOT / ".perfbench_work" / "golden" / workload.name
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / "trace").mkdir(parents=True)
        golden[workload.name] = workload_golden(workload, workdir)
        print(f"{workload.name}: {len(golden[workload.name]['pool'])} mutants", file=sys.stderr)
    GOLDEN_OUTPUTS.parent.mkdir(exist_ok=True)
    with open(GOLDEN_OUTPUTS, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(EXPORT_DIGESTS, "w", encoding="utf-8") as handle:
        handle.write(export_digests())
    return 0


if __name__ == "__main__":
    sys.exit(main())
