import ast
from pathlib import Path

import plstab


def test_no_correctness_check_relies_on_assert():
    # `python -O` strips assert statements, so checks must raise explicitly.
    found = []
    for path in sorted(Path(plstab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
