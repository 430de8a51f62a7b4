"""The CLI's output bytes: a golden file, the JSON writer's domain, and the
writer against json.dumps(doc, indent=2, sort_keys=True)."""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from matchfields import GeneratorTriple, Monomial, cli
from matchfields.cli import _dumps, main

from helpers import all_compositions

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

COMMANDS = ("generators", "weights", "verify", "betti", "cointerval", "kernel")


def call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def golden_cases():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_command_and_format():
    seen = {(c["argv"][0], c["argv"][-1]) for c in golden_cases()}
    assert seen == {
        *((cmd, "json") for cmd in (*COMMANDS, "supports")),
        *((cmd, "text") for cmd in (*COMMANDS, "supports")),
        *((cmd, "csv") for cmd in cli.CSV_COMMANDS),
    }


@pytest.mark.parametrize("case", golden_cases(), ids=lambda c: " ".join(c["argv"]))
def test_cli_bytes_match_the_golden_file(case):
    """Exact stdout and exit code, byte for byte; the file was written by the
    json.dumps-based CLI, one call per subcommand and format."""
    assert call(case["argv"]) == (case["code"], case["stdout"])


def test_golden_block_commands_build_no_monomial(monkeypatch):
    """Every block command packs its generator triples straight into ints:
    with Monomial construction refused, each golden case but supports (whose
    quadric is a Polynomial) still prints its bytes."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Monomial was built")

    monkeypatch.setattr(GeneratorTriple, "monomial", refuse)
    monkeypatch.setattr(Monomial, "__init__", refuse)
    cases = [c for c in golden_cases() if c["argv"][0] != "supports"]
    assert {c["argv"][0] for c in cases} == set(COMMANDS)
    for case in cases:
        assert call(case["argv"]) == (case["code"], case["stdout"]), case["argv"]


def walk(x, path="doc"):
    """Assert that x lies in the writer's domain: dicts with str keys, lists,
    str, int, bool and None."""
    if isinstance(x, dict):
        assert type(x) is dict, path
        for key, value in x.items():
            assert type(key) is str, f"{path}: key {key!r}"
            walk(value, f"{path}.{key}")
    elif isinstance(x, list):
        assert type(x) is list, path
        for i, value in enumerate(x):
            walk(value, f"{path}[{i}]")
    else:
        assert x is None or type(x) in (str, int, bool), f"{path}: {type(x).__name__}"


def test_every_document_lies_in_the_writers_domain(monkeypatch):
    docs = []

    def recording(doc):
        docs.append(doc)
        return json.dumps(doc, indent=2, sort_keys=True)

    monkeypatch.setattr(cli, "_dumps", recording)
    argvs = [["supports", "--plucker-quadric", "2", "4"]]
    for n in range(1, 6):
        for parts in all_compositions(n):
            blocks = ",".join(map(str, parts))
            argvs += [[cmd, "--blocks", blocks] for cmd in COMMANDS]
    for argv in argvs:
        call([*argv, "--format", "json"])
    # Every command writes a document from n = 3 on; weights also below.
    assert len(docs) == 1 + len(COMMANDS) * (4 + 8 + 16) + (1 + 2)
    for doc in docs:
        walk(doc)
        assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


_CHARS = [
    "a", "Z", "0", " ", "/", '"', "\\", "\n", "\r", "\t", "\b", "\x00", "\x1f",
    "\x7f", "\x80", "é", "ß", "€", "\u2028", "\ufeff", "\ud800", "\U0001f600",
    "\U0010ffff",
]


def random_str(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 5)))


def random_scalar(rng):
    return rng.choice([
        lambda: random_str(rng),
        lambda: rng.randint(-5, 5),
        lambda: rng.randint(-10**30, 10**30),
        lambda: rng.choice([10**29, -10**29, 10**30 - 1]),
        lambda: rng.choice([True, False, None, 1, 0]),
    ])()


def random_doc(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return random_scalar(rng)
    size = rng.randint(0, 4)
    if roll < 0.6:
        return {random_str(rng): random_doc(rng, depth - 1) for _ in range(size)}
    if roll < 0.75:
        return [rng.randint(-10**30, 10**30) for _ in range(size)]
    return [random_doc(rng, depth - 1) for _ in range(size)]


EDGE_CASES = [
    {}, [], [[]], [{}], {"": {}}, {"a": [[], {}]}, [True, 1], [1, True, 0, False],
    [1, None], {"x": [0, -1, 10**30]}, "\U0001f600", {"\x00": "\\\""}, -10**30,
]


def test_writer_equals_json_dumps_on_random_documents():
    rng = random.Random(20)
    docs = EDGE_CASES + [random_doc(rng, 4) for _ in range(2000)]
    for doc in docs:
        assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True), doc


@pytest.mark.parametrize(
    "doc", [1.5, {"a": 0.0}, [1, {2, 3}], {"a": [frozenset()]}, (1, 2), {1: "a"}]
)
def test_writer_refuses_values_outside_its_domain(doc):
    with pytest.raises(TypeError):
        _dumps(doc)
