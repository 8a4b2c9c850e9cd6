"""Workloads of the benchmark: the CLI invocations each one runs, the seeded
single-edge mutants it refutes, and the golden outputs every invocation is
gated on.

An invocation is a list of arguments for ``shifted_crystals.cli.run``.  All
output goes through ``--out`` to a file, which the verb process hashes after
the timed call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_OUTPUTS = HERE / "golden" / "outputs.json"

VERBS = ("graph", "check", "refute", "expand")


@dataclass(frozen=True)
class Item:
    """One crystal ShST(outer/inner, n)."""

    outer: tuple[int, ...]
    inner: tuple[int, ...]
    n: int

    @property
    def key(self) -> str:
        inner = ",".join(map(str, self.inner))
        return f"({','.join(map(str, self.outer))})/({inner}) n={self.n}"

    def shape_args(self) -> list[str]:
        args = ["--outer", ",".join(map(str, self.outer))]
        if self.inner:
            args += ["--inner", ",".join(map(str, self.inner))]
        return args + ["--n", str(self.n)]


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Item, ...]
    # check --graph-file on the graph verb's export instead of --outer/--n
    check_from_file: bool
    # mutants refuted per round for each item with edges, drawn by the seed
    # from that item's part of the golden pool
    mutants: int
    # golden pool size per item with edges (only golden.py reads this)
    pool: int


def strict_partitions(total: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Strict partitions of ``total``, largest part first, in lexicographic
    order from the largest; kept here so the item list does not depend on
    the program under test."""
    largest = total if largest is None else largest
    if total == 0:
        return [()]
    out = []
    for part in range(min(total, largest), 0, -1):
        out.extend((part,) + rest for rest in strict_partitions(total - part, part - 1))
    return out


# Every strict |lam| <= 7 with n in {1,2,3,4}: 72 of the 96 crystals of the
# acceptance suite's criterion-1 set.  The |lam| = 8 rows would double the
# round and halve the rounds a run can repeat (see NOTES.md).
SWEEP_ITEMS = tuple(
    Item(lam, (), n)
    for size in range(1, 8)
    for lam in strict_partitions(size)
    for n in (1, 2, 3, 4)
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("straight-deep", (Item((4, 3, 2, 1), (), 5),), False, 2, 16),
        Workload(
            "skew-wide",
            (Item((13, 11, 9, 7, 5, 3, 1), (12, 10, 8, 6, 4, 2), 2),),
            False,
            2,
            16,
        ),
        Workload("sweep-small", SWEEP_ITEMS, True, 1, 8),
    )
}


@dataclass(frozen=True)
class Mutant:
    """One single-edge mutation of a graph export: the edge at ``edge`` is
    deleted when ``target`` is None, otherwise retargeted to ``target``."""

    item: str
    edge: int
    target: int | None

    @property
    def key(self) -> str:
        op = "del" if self.target is None else f"ret->{self.target}"
        return f"{self.item} e{self.edge} {op}"

    def apply(self, graph: dict) -> dict:
        edges = [dict(e) for e in graph["edges"]]
        if self.target is None:
            del edges[self.edge]
        else:
            edges[self.edge]["dst"] = self.target
        return {"n": graph["n"], "vertices": graph["vertices"], "edges": edges}


def draw_pool(workload: Workload, graphs: dict[str, dict]) -> list[Mutant]:
    """The fixed mutant pool: for every item with edges, ``workload.pool``
    distinct mutants, each an edge deleted or retargeted to any other
    vertex, as in acceptance criterion 8.  ``graphs`` maps item keys to
    parsed graph exports."""
    rng = random.Random(f"mutant-pool:{workload.name}")
    pool: list[Mutant] = []
    for item in workload.items:
        graph = graphs[item.key]
        if not graph["edges"]:
            continue
        # a graph with E edges on V vertices has E * V distinct mutants
        wanted = min(workload.pool, len(graph["edges"]) * len(graph["vertices"]))
        drawn: dict[str, Mutant] = {}
        while len(drawn) < wanted:
            edge = rng.randrange(len(graph["edges"]))
            target = None
            if rng.random() < 0.5:
                dst = graph["edges"][edge]["dst"]
                target = rng.choice([v["id"] for v in graph["vertices"] if v["id"] != dst])
            mutant = Mutant(item.key, edge, target)
            drawn.setdefault(mutant.key, mutant)
        pool.extend(drawn.values())
    return pool


def load_golden() -> dict:
    with open(GOLDEN_OUTPUTS, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Inputs:
    """What one run of a workload executes, fixed by the seed: the order of
    the items and the mutants drawn from the golden pool."""

    items: tuple[Item, ...]
    mutants: tuple[Mutant, ...]


def generate(workload: Workload, seed: int, golden: dict) -> Inputs:
    """Shuffle the items and draw the same number of mutants from each
    item's part of the pool, so the work refuted varies little by seed."""
    rng = random.Random(seed)
    items = list(workload.items)
    rng.shuffle(items)
    by_item: dict[str, list[Mutant]] = {}
    for m in golden[workload.name]["pool"]:
        by_item.setdefault(m["item"], []).append(Mutant(m["item"], m["edge"], m["target"]))
    mutants = []
    for item in items:
        if item.key in by_item:
            mutants.extend(rng.sample(by_item[item.key], workload.mutants))
    return Inputs(tuple(items), tuple(mutants))


def graph_file(workdir: Path, item: Item) -> Path:
    name = item.key.replace("(", "").replace(")", "").replace(",", "-").replace("/", "_")
    return workdir / "graphs" / (name.replace(" n=", "_n") + ".json")


def invocations(workload: Workload, inputs: Inputs, verb: str, workdir: Path) -> list[dict]:
    """The verb's invocations, each with its argv, its output file and the
    golden key its result is compared against."""
    out_dir = workdir / verb
    jobs = []
    if verb == "refute":
        for k, mutant in enumerate(inputs.mutants):
            jobs.append(
                {
                    "key": mutant.key,
                    "argv": ["check", "--graph-file", str(workdir / "mutants" / f"{k}.json")],
                    "out": str(out_dir / f"{k}.txt"),
                }
            )
        return _with_out(jobs)
    for k, item in enumerate(inputs.items):
        if verb == "graph":
            argv = ["graph", *item.shape_args(), "--format", "json"]
            out = graph_file(workdir, item)
        elif verb == "check" and workload.check_from_file:
            argv = ["check", "--graph-file", str(graph_file(workdir, item))]
            out = out_dir / f"{k}.txt"
        elif verb == "check":
            argv = ["check", *item.shape_args()]
            out = out_dir / f"{k}.txt"
        else:
            argv = ["expand", *item.shape_args(), "--format", "json"]
            out = out_dir / f"{k}.json"
        jobs.append({"key": item.key, "argv": argv, "out": str(out)})
    return _with_out(jobs)


def _with_out(jobs: list[dict]) -> list[dict]:
    for job in jobs:
        job["argv"] = job["argv"] + ["--out", job["out"]]
    return jobs


def write_mutants(inputs: Inputs, workdir: Path, verified: set[str]) -> set[int]:
    """Write each drawn mutant of a graph whose export matched its golden
    digest; returns the positions of the mutants that could not be made."""
    (workdir / "mutants").mkdir(parents=True, exist_ok=True)
    by_key = {item.key: item for item in inputs.items}
    parsed: dict[str, dict] = {}
    missing = set()
    for k, mutant in enumerate(inputs.mutants):
        if mutant.item not in verified:
            missing.add(k)
            (workdir / "mutants" / f"{k}.json").unlink(missing_ok=True)
            continue
        if mutant.item not in parsed:
            with open(graph_file(workdir, by_key[mutant.item]), encoding="utf-8") as handle:
                parsed[mutant.item] = json.load(handle)
        with open(workdir / "mutants" / f"{k}.json", "w", encoding="utf-8") as handle:
            json.dump(mutant.apply(parsed[mutant.item]), handle)
    return missing
