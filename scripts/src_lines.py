#!/usr/bin/env python3
"""Count the source lines of chainsim's modules: every line, then code only.

The total counts newline characters, as ``wc -l`` does. Code-only lines
leave out blank lines, comments and docstrings: a statement that is nothing
but strings counts 0, and every other statement counts each line it spans.
CHANGES.md reports both figures for ``src/chainsim/*.py`` as the net line
change.

Usage: python3 scripts/src_lines.py [FILE ...]   (default: src/chainsim/*.py)
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chainsim"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Lines of ``path`` spanned by a statement that is not only strings."""
    lines: set[int] = set()
    stmt: list[tokenize.TokenInfo] = []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NEWLINE:
                if any(t.type != tokenize.STRING for t in stmt):
                    lines.update(n for t in stmt for n in range(t.start[0], t.end[0] + 1))
                stmt = []
            elif tok.type not in SKIP:
                stmt.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(SRC.glob("*.py"))
    total = sum(p.read_bytes().count(b"\n") for p in paths)
    print(f"{total} total lines")
    print(f"{sum(code_lines(p) for p in paths)} code-only lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
