"""Count the code lines of each module of `src/intertrack` and their total.

    python3 tools/code_lines.py [--root CHECKOUT]

A code line is a non-blank line that is not a comment: its first
non-whitespace character is not `#`.  Docstrings count.  CHECKOUT (default:
the checkout holding this script) is the source tree whose modules are
counted, so two trees can be compared:

    python3 tools/code_lines.py --root /path/to/other/checkout
"""

from __future__ import annotations

import argparse
from pathlib import Path


def code_lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the checkout to count (default: this one)")
    args = parser.parse_args()
    total = 0
    for path in sorted((args.root / "src" / "intertrack").glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")


if __name__ == "__main__":
    main()
