"""The README's examples run as written: the Library example, so the import
list it promises cannot lose a name silently, and every example of the CLI
block, so no shown output goes stale."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from shifted_crystals import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The python block of the README's ``## Library`` section."""
    return re.search(r"```python\n(.*?)```", _section("Library"), re.DOTALL)[1]


def cli_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) of each example in the first block of the
    README's ``## CLI`` section: a command line, split as a POSIX shell
    splits it, then its output."""
    block = re.search(r"```\n(.*?)```", _section("CLI"), re.DOTALL)[1]
    examples = []
    for example in block.strip().split("\n\n"):
        command, *shown = example.splitlines()
        examples.append((shlex.split(command)[1:], shown))
    return examples


def shown_pattern(shown: list[str]) -> str:
    """A regular expression for the output the shown lines stand for: a
    line that is just ``...``, indented or not, is any run of lines, and
    another line holding ``...`` is compared only up to it."""
    parts = []
    for line in shown:
        if line.strip() == "...":
            parts.append(r"(?:.*\n)*")
        elif "..." in line:
            parts.append(re.escape(line.split("...", 1)[0].rstrip()) + r"[\s\S]*")
        else:
            parts.append(re.escape(line) + r"\n")
    return "".join(parts)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out == "[(3,2)] x1 + [(4,1)] x1 ; identity OK\n"


CLI_EXAMPLES = cli_examples()


def test_cli_block_holds_every_verb():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == [
        "apply", "apply", "walk", "std", "eta", "enumerate", "graph", "check", "expand",
    ]


@pytest.mark.parametrize("argv, shown", CLI_EXAMPLES, ids=[f"{k}-{argv[0]}" for k, (argv, _) in enumerate(CLI_EXAMPLES)])
def test_cli_example_output(capsys, argv, shown):
    # check's runtime: line is the one output that differs between runs
    assert cli.run(argv) == 0
    out = "".join(line for line in capsys.readouterr().out.splitlines(True) if not line.startswith("runtime:"))
    assert re.fullmatch(shown_pattern(shown), out), out
