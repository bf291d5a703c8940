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


def test_oracles_import_nothing_from_plstab():
    # The oracles check plstab, so none of them may run plstab code.
    path = Path(__file__).with_name("oracles.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"oracles.py:{node.lineno}" for alias in node.names
                      if alias.name.split(".")[0] == "plstab"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "plstab":
                found.append(f"oracles.py:{node.lineno}")
    assert found == []
