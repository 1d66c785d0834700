"""Every Python file parses under the oldest grammar pyproject.toml allows.

pyproject.toml declares requires-python >= 3.10, while the tests usually run
on a newer interpreter.  ast.parse with feature_version=(3, 10) rejects
grammar added after 3.10 (except*, PEP 695 type parameters, ...).  It checks
syntax only: a newer standard-library name still passes.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def _sources():
    for top in ("src", "tests", "perfbench"):
        yield from sorted((ROOT / top).rglob("*.py"))


def test_sources_parse_as_python_3_10():
    sources = list(_sources())
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_the_check_rejects_newer_grammar():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=OLDEST)
