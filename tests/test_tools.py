"""The scripts under tools/ import drfs names that no test imports; a rename
must fail here rather than when someone next compares two source trees.
fit_hashes.py must also fix the BLAS thread count before numpy loads.  The
module boundaries of src/drfs are checked here too, on the source."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
DRFS = Path(__file__).resolve().parents[1] / "src" / "drfs"
# every name that computes a primal value, a dual value, a gap or a feasible
# dual point, with the constants they read
CERTIFICATE = {
    "_GAP_SAFE_MIN_BYTES", "_EQ_ROUNDING_PER_ROW", "_DOMAIN_SLACK", "_check_weights",
    "_times_support", "primal_objective", "dual_objective", "_dual_value", "_penalized",
    "_clamped_gap", "_checked_gap", "duality_gap", "_repair_from_margins", "recover_dual",
    "_into_domain", "dg_radius", "_conjugate_at_scaled", "rho_vector",
}


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


def _drfs_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(DRFS.glob("*.py"))}


def _imported(tree: ast.Module):
    """(drfs module, name) for each name a module imports from a drfs module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("drfs")):
            module = (node.module or "").removeprefix("drfs").lstrip(".")
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_duality_owns_the_certificate():
    """duality defines every certificate formula once and depends on no
    module that uses it, and no module reaches into solver's or screening's
    private names."""
    modules = _drfs_modules()
    private = [f"{name}: {module}.{imported}" for name, tree in modules.items()
               for module, imported in _imported(tree)
               if module in ("solver", "screening") and (imported or "").startswith("_")]
    assert private == []
    homes = {name: [module for module, tree in modules.items() if name in _defined(tree)]
             for name in sorted(CERTIFICATE)}
    assert homes == {name: ["duality"] for name in sorted(CERTIFICATE)}
    assert not {module for module, _ in _imported(modules["duality"])} & {
        "solver", "screening", "oracle", "cli"}


def _absolute_imports(tree: ast.Module):
    """Top-level package of each absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_drfs_needs_only_numpy():
    """Every src/drfs module imports only drfs itself, numpy or the standard
    library: importing scipy.special alone cost every drfs process about
    0.2 s and 22 MB of resident memory (2-CPU x86-64 VM)."""
    modules = _drfs_modules()
    allowed = sys.stdlib_module_names | {"drfs", "numpy"}
    outside = [f"{name}: {top}" for name, tree in modules.items()
               for top in _absolute_imports(tree) if top not in allowed]
    assert outside == []
    assert {module for tree in modules.values() for module, _ in _imported(tree)} <= set(modules)
