import ast
from pathlib import Path

import pytest

import multimorse as mm

OLDEST = (3, 10)    # pyproject.toml's requires-python


def test_sources_parse_under_the_oldest_supported_grammar():
    """Every package and test file parses with Python 3.10's grammar.
    This checks grammar only: a name, module or library call that 3.10
    lacks still passes, and only running the suite there finds it."""
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=OLDEST)
    paths = sorted(Path(mm.__file__).parent.glob("*.py")) + \
        sorted(Path(__file__).parent.glob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=OLDEST)
