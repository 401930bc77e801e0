"""The scripts under tools/ import drfs names that no test imports; a rename
must fail here rather than when someone next compares two source trees."""

import ast
import importlib
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _drfs_imports():
    for path in sorted(TOOLS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "drfs":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_tool_imports_resolve():
    found = list(_drfs_imports())
    assert ("fit_hashes.py", "drfs", "ConvergenceError") in found
    missing = [f"{tool}: from {module} import {name}" for tool, module, name in found
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
