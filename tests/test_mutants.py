"""Committed mutants: deliberate faults that named tests must catch.

tests/data/mutants.json lists each mutant: a file of src/, an anchor text
that occurs exactly once in it, the text that replaces the anchor, and the
tests that must fail once it is replaced.  The tier-1 checks keep every
anchor in place, so a refactor that moves the code must move its mutant
too.  The slow runner copies src/ to a temporary directory, applies one
mutant there and runs the named tests against the copy: pytest must exit 1
(tests ran and failed), not 0, not 2 or more (a collection or usage error),
and not by the timeout.
"""

import json
from pathlib import Path

import pytest
from helpers import ROOT, run_tests_on_a_copy
from mutate import sites

MUTANTS = json.loads((ROOT / "tests" / "data" / "mutants.json").read_text())["mutants"]


def test_every_anchor_occurs_once_in_src():
    for mutant in MUTANTS:
        assert mutant["file"].startswith("src/"), mutant["id"]
        text = (ROOT / mutant["file"]).read_text()
        assert text.count(mutant["anchor"]) == 1, mutant["id"]
        assert mutant["replacement"] != mutant["anchor"], mutant["id"]


def test_the_mutants_cover_the_checked_modules_and_name_real_tests():
    ids = [mutant["id"] for mutant in MUTANTS]
    assert len(set(ids)) == len(ids) >= 15
    stems = {Path(mutant["file"]).stem for mutant in MUTANTS}
    assert stems >= {"groebner", "resolution", "linalg", "toric", "cellular", "cli"}
    for mutant in MUTANTS:
        assert mutant["tests"], mutant["id"]
        for test in mutant["tests"]:
            path, _, name = test.partition("::")
            assert f"\ndef {name.split('[')[0]}(" in (ROOT / path).read_text(), test


def test_the_sweep_counts_no_site_inside_an_annotation():
    """A | in an annotation is no site of tests/mutate.py; the same | in an
    expression is."""
    text = "def f(x: int | None, y=1 | 2) -> int | None:\n    z: int | None = x | y\n"
    assert [(row, old) for row, _, _, old, _ in sites(text)] == [
        (1, "1"), (1, "|"), (1, "2"), (2, "|")
    ]


@pytest.mark.slow
@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant["id"] for mutant in MUTANTS])
def test_the_named_tests_kill_the_mutant(mutant, tmp_path):
    text = (ROOT / mutant["file"]).read_text().replace(mutant["anchor"], mutant["replacement"])
    code, output = run_tests_on_a_copy(tmp_path, mutant["tests"], 120, mutant["file"], text)
    assert code == 1, output[-6000:]
