"""Smoke tests: every shipped example must run to completion.

Each example ends with internal assertions about its own results, so
"runs without raising" is a real functional check, not just an import
check.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path.stem} produced no output"


def test_all_examples_discovered():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "contact_tracing",
        "carpool_clustering",
        "range_query",
    } <= names
