"""The scripts under tools/ import drfs names that no test imports; a rename
must fail here rather than when someone next compares two source trees.
fit_hashes.py must also fix the BLAS thread count before numpy loads."""

import ast
import importlib
import importlib.util
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


def test_fit_hashes_pins_blas_before_numpy():
    """The thread count moves the last bits of some fits, and BLAS reads it
    once, when numpy (imported by drfs too) loads."""
    tree = ast.parse((TOOLS / "fit_hashes.py").read_text(encoding="utf-8"))
    numpy_at = min(node.lineno for node in tree.body
                   if isinstance(node, ast.Import) and any(a.name == "numpy" for a in node.names)
                   or isinstance(node, ast.ImportFrom) and node.module == "drfs")
    before = tree.body[:next(i for i, node in enumerate(tree.body) if node.lineno == numpy_at)]
    pins = [node for node in before if isinstance(node, ast.For)
            and ast.unparse(node.body[0]) == "os.environ[_var] = '1'"]
    assert len(pins) == 1
    assert ast.literal_eval(pins[0].iter) == (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_code_lines_counts_only_code_tokens():
    """A code line holds a token that is neither a comment nor a docstring;
    a multi-line string that is no docstring counts on each of its lines."""
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = '''"""Module docstring
over two lines."""

import os  # a comment


class C:
    """Docstring."""

    def f(self, x):
        """Docstring
        over two lines."""
        # a comment line
        s = """not a
        docstring"""
        return x
'''
    assert code_lines.count(source) == (16, 6)
