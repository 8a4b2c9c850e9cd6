"""The README's Library example runs as written, so the import list it
promises cannot lose a name silently."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block of the README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out == "[(3,2)] x1 + [(4,1)] x1 ; identity OK\n"
