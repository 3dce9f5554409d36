"""The README's code examples run as written."""

import re

from bitfrag import CostReport
from conftest import DESIGN_DIR, TESTS_DIR

README = TESTS_DIR.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first ``python`` code block under the README's ``## heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_written():
    code = _python_block("Library")
    assert code.count('"design.dfg"') == 1
    code = code.replace('"design.dfg"', repr(str(DESIGN_DIR / "sec2.dfg")))
    names: dict = {}
    exec(compile(code, "README.md", "exec"), names)
    assert names["trace"] == {}  # sec2 is all unsigned adds
    assert names["sched"].n_bits == 6 and names["sched"].lam == 3
    assert isinstance(names["report"], CostReport)
