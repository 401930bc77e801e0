"""Count the total lines and the code lines of each module under src/drfs.

    python3 tools/code_lines.py [path/to/src]

A code line holds at least one token that is neither a comment nor a
docstring (the string that opens a module, class or function body); blank
lines, comment lines and docstring lines do not count.  A token that spans
several lines, such as a multi-line string that is no docstring, makes
each of them a code line.  Prints one `module total code` line per module
and a `total` line; the path defaults to the `src` next to this script.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The total lines and the code lines of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or token.type == tokenize.STRING and token.start[0] in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    totals = [0, 0]
    for path in sorted((src / "drfs").glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(path.name, lines, code)
    print("total", *totals)


if __name__ == "__main__":
    main()
