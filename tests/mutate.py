"""Mutation sweep of one module: which one-token changes does no test notice?

Run from any directory, for example:

    python tests/mutate.py src/matchfields/groebner.py \\
        tests/test_groebner.py tests/test_packed.py --sample 40 --seed 1

A site is one token of the module's code, never of a string or a comment,
that one of these swaps changes: < and <=, > and >=, == and !=, + and -,
and and or, & and |, << and >>, or an int literal to the literal + 1.
A token inside a type annotation is no site: an annotation states a type,
and under from __future__ import annotations it is never evaluated, so a
change there could only survive.
For each site (a seeded sample of them with --sample), the module with that
one token swapped is written into a fresh temporary copy of src/, and the
named test files run against the copy under pytest -x, one process at a
time, through helpers.run_tests_on_a_copy, as the committed mutants of
tests/test_mutants.py do.  A site is killed when pytest exits 1, errored
on any other nonzero exit (a mutant that no longer imports, say), timed
out, and survived when every test passed.  The survivors are printed last;
each is a missing test or code whose behaviour no test depends on.

The unmutated tests must pass against a copy first; each mutant's timeout
is ten times that run, and at least 60 s.  Exit code: 0 when nothing
survived, 1 when something did, 2 when matchfields does not import from
the copy or the unmutated tests fail.  This file is a tool, not a test:
pytest collects only test_*.py.
"""

import argparse
import ast
import io
import random
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# helpers (beside this file, so on the path) imports matchfields from src/.
sys.path.insert(0, str(ROOT / "src"))
from helpers import run_tests_on_a_copy

SWAPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "and": "or", "or": "and", "&": "|", "|": "&",
    "<<": ">>", ">>": "<<",
}


def sites(text: str) -> list[tuple[int, int, int, str, str]]:
    """(line, start column, end column, old token, new token) for each site."""
    # Spans of the annotations, as (line, UTF-8 byte column), as ast gives them.
    notes = [
        ((note.lineno, note.col_offset), (note.end_lineno, note.end_col_offset))
        for node in ast.walk(ast.parse(text))
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if note is not None
    ]
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.OP, tokenize.NAME) and tok.string in SWAPS:
            new = SWAPS[tok.string]
        elif tok.type == tokenize.NUMBER:
            try:
                new = str(int(tok.string, 0) + 1)
            except ValueError:  # a float or imaginary literal
                continue
        else:
            continue
        (row, col), (_, end) = tok.start, tok.end
        at = (row, len(tok.line[:col].encode()))
        if any(start <= at < stop for start, stop in notes):
            continue
        out.append((row, col, end, tok.string, new))
    return out


def mutate(text: str, site: tuple[int, int, int, str, str]) -> str:
    row, col, end, _, new = site
    lines = text.splitlines(keepends=True)
    lines[row - 1] = lines[row - 1][:col] + new + lines[row - 1][end:]
    return "".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the file of src/ to mutate, e.g. src/matchfields/groebner.py")
    parser.add_argument("tests", nargs="+", help="the test files to run against each mutant")
    parser.add_argument("--sample", type=int, help="mutate this many seeded sites, not every site")
    parser.add_argument("--seed", type=int, default=0, help="the seed of the sample (default 0)")
    args = parser.parse_args()

    module = (ROOT / args.module).resolve().relative_to(ROOT)
    if module.parts[0] != "src":
        parser.error(f"{args.module} is not a file of src/")
    text = (ROOT / module).read_text()
    every = sites(text)
    chosen = every
    if args.sample is not None:
        chosen = random.Random(args.seed).sample(every, min(args.sample, len(every)))
    chosen.sort()

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        try:
            code, _ = run_tests_on_a_copy(tmp, args.tests, None)
        except RuntimeError as error:
            print(error)
            return 2
    if code != 0:
        print("the unmutated tests do not pass against the copy of src/")
        return 2
    timeout = max(60.0, 10 * (time.perf_counter() - start))
    print(f"{module}: {len(every)} sites, {len(chosen)} mutated, timeout {timeout:.0f} s", flush=True)

    outcomes = {"killed": [], "errored": [], "timed out": [], "survived": []}
    for number, site in enumerate(chosen, 1):
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = run_tests_on_a_copy(tmp, args.tests, timeout, module, mutate(text, site))
        outcome = {None: "timed out", 0: "survived", 1: "killed"}.get(code, "errored")
        row, _, _, old, new = site
        label = f"{module}:{row}: {old} -> {new}    {text.splitlines()[row - 1].strip()}"
        outcomes[outcome].append(label)
        print(f"[{number}/{len(chosen)}] {outcome}: {label}", flush=True)

    print(", ".join(f"{len(labels)} {outcome}" for outcome, labels in outcomes.items()))
    for label in outcomes["survived"]:
        print("survived:", label)
    return 1 if outcomes["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
