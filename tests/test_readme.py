"""The README's examples run and print what their comments say."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    after = text.split(f"\n{heading}\n", 1)[1]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_tour_values_match_its_comments():
    # Each bare expression of the tour is evaluated in turn; the repr of its
    # value must appear in the comment on its line.
    block = _python_block("## Library tour")
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(code, namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2]
            assert repr(value) in comment, (code, value, comment)
            shown.append(repr(value))
        else:
            exec(code, namespace)
    assert shown == ["(4+0j)", "True", "(4+0j)", "array(4.+0.j)", "(2, 2)", "array(2.+0.j)"]
