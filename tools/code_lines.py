"""Print the code lines of each module of src/zetamax and their total.

A code line holds a token that is not a comment and not part of a
docstring (a string that is a whole statement); blank lines do not count.

    python tools/code_lines.py
"""

import pathlib
import tokenize

LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
          tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    with path.open("rb") as f:
        tokens = [tok for tok in tokenize.tokenize(f.readline)
                  if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:]):
        docstring = (tok.type == tokenize.STRING and nxt.type == tokenize.NEWLINE
                     and prev.type in LAYOUT)
        if tok.type not in LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "zetamax"
    counts = {path.stem: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:12} {n:5}")
    print(f"{'total':12} {sum(counts.values()):5}")
