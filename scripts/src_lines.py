"""Count the lines of each src/enriques_gw module: total, and code only.

Code-only lines are the lines that hold a Python token other than a
comment, read with the tokenize module, less the lines of docstrings
(string statements, as ast finds them); blank lines hold no token.

Example:
    python scripts/src_lines.py
"""

import argparse
import ast
import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "enriques_gw")
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def line_counts(text):
    """(total, code-only) lines of one module's source text."""
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode("utf-8")).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            code.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(text.splitlines()), len(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=SRC, help="package directory to count")
    args = parser.parse_args()
    rows = []
    for name in sorted(os.listdir(args.src)):
        if name.endswith(".py"):
            with open(os.path.join(args.src, name), encoding="utf-8") as f:
                rows.append((name,) + line_counts(f.read()))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print("%-22s %6s %6s" % ("module", "total", "code"))
    for name, total, code in rows:
        print("%-22s %6d %6d" % (name, total, code))


if __name__ == "__main__":
    main()
