"""Command line interface: formats, exit codes, golden outputs."""

import argparse
import csv
import inspect
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

import matchfields._packed as _packed
import matchfields.cellular as cellular
import matchfields.cli as cli
import matchfields.matching as matching
import matchfields.resolution as resolution
from matchfields import (
    BlockStructure,
    GeneratorTriple,
    Monomial,
    TooLargeError,
    __version__,
    betti_diagonal_table,
    betti_from_certificate,
    check_layer_containment,
    flatness_check,
    format_plucker_exponents,
    graph_G,
    hilbert_dim_rect,
    is_cointerval,
    kernel_slice,
    linear_quotients_certificate,
    plucker_map_from_matching_field,
    relabel_f,
    sort_generators,
    toric,
    yvar,
    zvar,
)
from matchfields.cli import MAX_PRINTED_BINOMIALS, main

from helpers import (
    INJECTED_RESIDUAL,
    all_compositions,
    leave_the_first_s_pair_unreduced,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generators_text(capsys):
    code, out, err = run(capsys, "generators", "--blocks", "3,2")
    assert code == 0
    assert "10 generators" in out
    assert "x4*y1*z5" in out
    assert err == ""


def test_generators_json_schema(capsys):
    code, out, _ = run(capsys, "generators", "--blocks", "3,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "input", "result", "version"}
    assert doc["command"] == "generators"
    assert doc["version"] == __version__
    assert doc["input"] == {"n": 5, "blocks": [3, 2], "w0": None}
    assert doc["result"]["count"] == 10
    first = doc["result"]["generators"][0]
    assert first["columns"] == [1, 3, 5]
    assert first["triple"] == [1, 3, 5]
    assert first["monomial"] == "x1*y3*z5"


def test_generators_csv(capsys):
    code, out, _ = run(capsys, "generators", "--blocks", "3,2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["columns", "x", "y", "z", "monomial"]
    assert len(rows) == 11
    assert rows[1] == ["1 3 5", "1", "3", "5", "x1*y3*z5"]


def test_weights_json_golden(capsys):
    code, out, _ = run(
        capsys, "weights", "--blocks", "2,3,2", "--w0", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["w0"] == 1
    assert doc["result"]["x"] == [1] * 7
    assert doc["result"]["y"] == [7, 8, 4, 5, 6, 2, 3]
    assert doc["result"]["z"] == [1, 1, 13, 18, 23, 28, 33]
    assert doc["result"]["precedence"][0] == "z7"


def test_weights_csv(capsys):
    code, out, _ = run(capsys, "weights", "--n", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["variable", "weight"]
    assert len(rows) == 13
    assert rows[1] == ["x1", "1"]


def test_verify_pass_and_json(capsys):
    code, out, _ = run(capsys, "verify", "--blocks", "3,2")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "verify", "--blocks", "2,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["ok"] is True
    assert doc["result"]["s_pairs_total"] == 6
    assert doc["result"]["s_pairs_reduced_to_zero"] == 6
    assert doc["result"]["failures"] == []


def test_verify_prints_the_failing_s_pair_and_exits_one(capsys, monkeypatch):
    leave_the_first_s_pair_unreduced(monkeypatch)
    code, out, err = run(capsys, "verify", "--blocks", "4")
    assert (code, err) == (1, "")
    assert out == (
        "degeneration check for blocks [4] (n = 4, w0 = 1):\n"
        "  every minor has its unique top-weight term on the matching field: yes\n"
        "  S-pairs reduced to zero: 5 of 6\n"
        "  initial ideal equals the matching ideal: NO\n"
        f"  failure: {INJECTED_RESIDUAL}\n"
        "FAIL\n"
    )
    monkeypatch.undo()
    leave_the_first_s_pair_unreduced(monkeypatch)
    code, out, _ = run(capsys, "verify", "--blocks", "4", "--format", "json")
    assert code == 1
    assert json.loads(out)["result"] == {
        "ok": False,
        "per_minor_initial_ok": True,
        "s_pairs_total": 6,
        "s_pairs_reduced_to_zero": 5,
        "initial_ideal_equals_matching_ideal": False,
        "failures": [INJECTED_RESIDUAL],
    }


def test_verify_budget_exit_two(capsys):
    code, out, err = run(capsys, "verify", "--blocks", "3,2", "--budget", "5")
    assert code == 2
    assert "budget" in err.lower()


def test_betti_text_and_json(capsys):
    code, out, _ = run(capsys, "betti", "--blocks", "3,2")
    assert code == 0
    assert "betti: 10 15 6" in out
    code, out, _ = run(capsys, "betti", "--n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["betti"] == [20, 45, 36, 10]
    assert doc["result"]["linear_quotients"] is True
    assert doc["result"]["projective_dimension"] == 3


def test_betti_csv(capsys):
    code, out, _ = run(capsys, "betti", "--blocks", "3,2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["i", "betti_i"], ["0", "10"], ["1", "15"], ["2", "6"]]


def test_betti_size_guard_is_on_by_default(capsys):
    code, out, _ = run(capsys, "betti", "--n", "20", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["betti"] == list(betti_diagonal_table(20))
    assert cli.MAX_COLUMNS["betti"] == 20
    for n in (21, 30):
        code, out, err = run(capsys, "betti", "--n", str(n))
        assert code == 2 and out == ""
        assert err == f"error: {n} columns exceeds the betti limit of 20 columns\n"


def assert_betti_packs_the_triples_as_the_certificate_does(capsys, n):
    """On every composition of n, the colon sets of the triples packed straight
    into ints equal the certificate's on their Monomials, and betti prints the
    certificate's sizes and Betti numbers."""
    for parts in all_compositions(n):
        ts = sort_generators(BlockStructure(parts))
        cert = linear_quotients_certificate([t.monomial(n) for t in ts])
        assert cert.is_linear, parts
        assert resolution._colon_sets(*_packed.pack_triples(ts, n, 1), n) == (cert.sets, None)
        code, out, _ = run(capsys, "betti", "--blocks", ",".join(map(str, parts)), "--format", "json")
        result = json.loads(out)["result"]
        assert code == 0 and result["linear_quotients"] is True, parts
        assert result["set_sizes"] == [len(s) for s in cert.sets], parts
        assert result["betti"] == list(betti_from_certificate(cert)), parts


def test_betti_packs_the_triples_as_the_certificate_does_through_n8(capsys):
    for n in range(3, 9):
        assert_betti_packs_the_triples_as_the_certificate_does(capsys, n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [9, 10])
def test_betti_packs_the_triples_as_the_certificate_does_at_n9_and_n10(capsys, n):
    assert_betti_packs_the_triples_as_the_certificate_does(capsys, n)


def test_betti_builds_no_monomial_on_the_linear_path(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Monomial was built")

    monkeypatch.setattr(GeneratorTriple, "monomial", refuse)
    monkeypatch.setattr(Monomial, "__init__", refuse)
    code, out, _ = run(capsys, "betti", "--n", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["betti"] == list(betti_diagonal_table(12))


def planted_order():
    """The block order of (3, 3) with its last generator moved to position
    15: the colons lose linearity at position 17."""
    ts = sort_generators(BlockStructure((3, 3)))
    return ts[:15] + [ts[19]] + ts[15:19]


def test_the_packed_loop_stops_where_the_certificate_fails():
    order = planted_order()
    cert = linear_quotients_certificate([t.monomial(6) for t in order])
    assert cert.first_failure == (17, Monomial.of(6, yvar(2), zvar(3)))
    assert len(cert.sets) == 17
    assert resolution._colon_sets(*_packed.pack_triples(order, 6, 1), 6) == (
        cert.sets, cert.first_failure
    )


def test_betti_decodes_only_the_stuck_quotients_of_the_failing_position(capsys, monkeypatch):
    """On the planted order betti runs the packed colon loop once: it builds a
    Monomial for each stuck quotient of the failing position (one that no
    degree-1 quotient divides) and for nothing else, and calls neither the
    public certificate, its pack_minimal, the dict colon nor the triples'
    Monomials."""
    order = planted_order()
    gens = [t.monomial(6) for t in order]
    quotients = [p.exact_div(p.gcd(gens[17])) for p in gens[:17]]
    units = {q.variables()[0] for q in quotients if q.degree == 1}
    stuck = [q for q in quotients if not units & set(q.variables())]
    built = []
    init = Monomial.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(self)

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate ran again")

    monkeypatch.setattr(cli, "sort_generators", lambda a: order)
    for name in ("linear_quotients_certificate", "colon_by_monomial", "pack_minimal"):
        monkeypatch.setattr(resolution, name, refuse)
    monkeypatch.setattr(GeneratorTriple, "monomial", refuse)
    monkeypatch.setattr(Monomial, "__init__", counted)
    code, out, _ = run(capsys, "betti", "--blocks", "3,3", "--format", "json")
    assert code == 1
    failure = json.loads(out)["result"]["first_failure"]
    assert failure == {"position": 17, "colon_generator": "y2*z3"}
    assert sorted(map(repr, built)) == sorted(map(repr, stuck)) and stuck
    assert not hasattr(cli, "linear_quotients_certificate")


def test_betti_prints_the_certificate_witness_on_a_planted_order(capsys, monkeypatch):
    cert = linear_quotients_certificate([t.monomial(6) for t in planted_order()])
    j, q = cert.first_failure
    monkeypatch.setattr(cli, "sort_generators", lambda a: planted_order())
    code, out, _ = run(capsys, "betti", "--blocks", "3,3", "--format", "json")
    assert code == 1
    assert json.loads(out)["result"] == {
        "linear_quotients": False,
        "set_sizes": [len(s) for s in cert.sets],
        "first_failure": {"position": j, "colon_generator": repr(q)},
    }
    code, out, _ = run(capsys, "betti", "--blocks", "3,3")
    assert code == 1
    assert out.endswith(f"  first failure at position {j}: colon generator {q!r}\nFAIL\n")
    assert (j, repr(q)) == (17, "y2*z3")


def test_betti_below_three_columns_exits_two(capsys):
    for argv in (["--n", "2"], ["--blocks", "1,1"], ["--n", "1"]):
        code, out, err = run(capsys, "betti", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: need n >= 3 columns, got n = "), argv


def test_verify_size_guard_sits_at_its_limit(capsys, monkeypatch):
    """One column past its MAX_COLUMNS entry, verify exits 2 before any minor
    is built."""
    assert cli.MAX_COLUMNS["verify"] == 20

    def refuse(*args, **kwargs):
        raise AssertionError("the minors were built")

    monkeypatch.setattr(cli, "verify_theorem_main", refuse)
    code, out, err = run(capsys, "verify", "--n", "21")
    assert code == 2 and out == ""
    assert err == "error: 21 columns exceeds the verify limit of 20 columns\n"
    monkeypatch.undo()
    monkeypatch.setitem(cli.MAX_COLUMNS, "verify", 6)
    assert run(capsys, "verify", "--n", "6")[0] == 0
    code, out, err = run(capsys, "verify", "--n", "7")
    assert code == 2 and out == ""
    assert err == "error: 7 columns exceeds the verify limit of 6 columns\n"


@pytest.mark.parametrize("command", ["generators", "cointerval"])
def test_generator_size_guard_sits_at_its_limit(capsys, monkeypatch, command):
    """At its MAX_COLUMNS entry the command runs; one column more, it exits 2
    before any triple is built."""
    assert cli.MAX_COLUMNS[command] == 60

    class Reached(Exception):
        pass

    def refuse(a):
        raise Reached

    build = "sort_generators" if command == "generators" else "_cointerval_inputs"
    monkeypatch.setattr(cli, build, refuse)
    with pytest.raises(Reached):
        main([command, "--n", "60"])
    code, out, err = run(capsys, command, "--n", "61")
    assert code == 2 and out == ""
    assert err == f"error: 61 columns exceeds the {command} limit of 60 columns\n"
    monkeypatch.undo()
    for limit, want in [(7, 0), (6, 2)]:
        monkeypatch.setitem(cli.MAX_COLUMNS, command, limit)
        code, out, err = run(capsys, command, "--n", "7")
        assert code == want, limit
        assert (out == "") == (want == 2)


@pytest.mark.parametrize("command", ["weights", "verify"])
def test_w0_runs_at_its_cap_and_is_refused_above_it(capsys, monkeypatch, command):
    """Above MAX_W0, weights and verify exit 2 before any BlockStructure is
    built, and no count is printed past str()'s digit limit."""
    assert cli.MAX_W0 == 2**32
    code, out, err = run(capsys, command, "--n", "4", "--w0", str(2**32))
    assert (code, err) == (0, "") and out

    class Reached(Exception):
        pass

    def reached(parts):
        raise Reached

    monkeypatch.setattr(cli, "BlockStructure", reached)
    code, out, err = run(capsys, command, "--n", "4", "--w0", str(2**32 + 1))
    assert (code, out) == (2, "")
    assert err == f"error: --w0 {2**32 + 1} exceeds the limit of {2**32}\n"
    code, out, err = run(capsys, command, "--n", "4", "--w0", "9" * 4300)
    assert (code, out) == (2, "")
    assert err == "error: --w0 at least 2^14284 exceeds the limit of 4294967296\n"
    assert "digits" not in err


def test_kernel_refuses_an_over_budget_degree_before_building_the_map(capsys, monkeypatch):
    """The budget caps the monomials of degrees 1 to dmax together: at n = 12
    they are 220 + 24310 + 1798940."""

    def refuse(a):
        raise AssertionError("the generator triples were built")

    monkeypatch.setattr(cli, "generator_triples", refuse)
    code, out, err = run(capsys, "kernel", "--n", "150", "--dmax", "1")
    assert code == 2 and out == ""
    assert err == "error: degrees 1 to 1 have 551300 monomials, over the budget of 500000\n"
    code, out, err = run(capsys, "kernel", "--n", "12", "--dmax", "3", "--budget", "300")
    assert code == 2 and out == ""
    assert err == "error: degrees 1 to 3 have 1823470 monomials, over the budget of 300\n"
    code, out, err = run(capsys, "kernel", "--n", "4", "--dmax", "142")
    assert code == 2 and out == ""
    assert err == "error: degrees 1 to 142 have 18163859 monomials, over the budget of 500000\n"


@pytest.mark.parametrize("n, dmax", [(4, 56), (5, 11), (6, 6), (10, 3), (145, 1)])
def test_kernel_accepts_dmax_up_to_the_budget_of_all_its_degrees(capsys, monkeypatch, n, dmax):
    """At the default budget the largest --dmax kernel accepts at n = 4 is 56,
    where C(60, 4) - 1 = 487634 monomials fill degrees 1 to 56, and at n = 5
    it is 11; one degree more exits 2 before any column is read."""

    class Reached(Exception):
        pass

    def reached(parts):
        raise Reached

    monkeypatch.setattr(cli, "BlockStructure", reached)
    with pytest.raises(Reached):
        main(["kernel", "--n", str(n), "--dmax", str(dmax)])
    code, out, err = run(capsys, "kernel", "--n", str(n), "--dmax", str(dmax + 1))
    assert code == 2 and out == ""
    assert err.startswith(f"error: degrees 1 to {dmax + 1} have "), err


def test_kernel_sizes_a_huge_dmax_with_small_binomials(capsys, monkeypatch):
    """Past the budget's bit length in both the degree and the number of
    variables one degree alone is over the budget, so the rule counts few
    variables: comb never multiplies out more than a + 1 factors, and the
    refusal gives a lower bound on the monomials."""
    factors = []

    def counted(m, k):
        factors.append(min(k, m - k))
        assert factors[-1] <= 20, (m, k)
        return comb(m, k)

    monkeypatch.setattr(toric, "comb", counted)
    code, out, err = run(capsys, "kernel", "--n", "150", "--dmax", "1000000")
    assert code == 2 and out == ""
    bound = comb(20 + 10**6, 20) - 1
    assert err == (
        f"error: degrees 1 to 1000000 have at least {bound} monomials, over the budget of 500000\n"
    )
    code, out, err = run(capsys, "kernel", "--n", "150", "--dmax", "1")
    assert err == "error: degrees 1 to 1 have 551300 monomials, over the budget of 500000\n"
    assert factors


LIMIT_ERRORS = {
    "generators": "61 columns exceeds the generators limit of 60 columns",
    "cointerval": "61 columns exceeds the cointerval limit of 60 columns",
    "betti": "21 columns exceeds the betti limit of 20 columns",
    "verify": "21 columns exceeds the verify limit of 20 columns",
    "kernel": "degrees 1 to 1 have 551300 monomials, over the budget of 500000",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["generators", "--n", "61"],
        ["generators", "--blocks", "30,31"],
        ["cointerval", "--n", "61"],
        ["cointerval", "--blocks", "1,60"],
        ["betti", "--n", "21"],
        ["betti", "--blocks", "10,11"],
        ["verify", "--n", "21"],
        ["verify", "--blocks", "7,7,7"],
        ["kernel", "--n", "150", "--dmax", "1"],
        ["kernel", "--blocks", "75,75", "--dmax", "1"],
    ],
)
def test_size_guards_run_before_the_block_structure_is_built(capsys, monkeypatch, argv):
    def refuse(parts):
        raise AssertionError(f"BlockStructure({parts}) was built")

    monkeypatch.setattr(cli, "BlockStructure", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {LIMIT_ERRORS[argv[0]]}\n"


@pytest.mark.parametrize(
    "argv",
    [["weights", "--n", "10001"], ["weights", "--blocks", "5000,5001", "--w0", "2"]],
)
def test_weights_size_guard_runs_before_the_block_structure_is_built(capsys, monkeypatch, argv):
    def refuse(parts):
        raise AssertionError(f"BlockStructure({parts}) was built")

    assert cli.MAX_COLUMNS["weights"] == 10_000
    monkeypatch.setattr(cli, "BlockStructure", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: 10001 columns exceeds the weights limit of 10000 columns\n"
    code, out, err = run(capsys, "weights", "--n", "10000000")
    assert code == 2 and out == ""
    assert err == "error: 10000000 columns exceeds the weights limit of 10000 columns\n"
    monkeypatch.undo()
    for limit, want in [(7, 0), (6, 2)]:
        monkeypatch.setitem(cli.MAX_COLUMNS, "weights", limit)
        code, out, _ = run(capsys, "weights", "--n", "7")
        assert code == want, limit
        assert (out == "") == (want == 2)


@pytest.mark.parametrize("command, limit", sorted(cli.MAX_COLUMNS.items()))
def test_each_block_command_runs_at_its_column_limit_and_refuses_one_more(
    capsys, monkeypatch, command, limit
):
    """At n = limit, by --n or by --blocks, the command gets past its guard to
    BlockStructure; one column more, it exits 2 before that."""

    class Reached(Exception):
        pass

    def reached(parts):
        raise Reached

    monkeypatch.setattr(cli, "BlockStructure", reached)
    half = limit // 2
    for at, over in [
        (["--n", str(limit)], ["--n", str(limit + 1)]),
        (["--blocks", f"{half},{limit - half}"], ["--blocks", f"{half},{limit - half + 1}"]),
    ]:
        with pytest.raises(Reached):
            main([command, *at])
        code, out, err = run(capsys, command, *over)
        assert code == 2 and out == ""
        assert err == f"error: {limit + 1} columns exceeds the {command} limit of {limit} columns\n"


# The rule the column table replaced: more generators C(n, 3) than the matching
# ideal has at n = 60 (generators, cointerval) or n = 20 (betti, verify), or
# more than 10 000 columns (weights).
OLD_REFUSES = {
    "generators": lambda n: comb(n, 3) > comb(60, 3),
    "cointerval": lambda n: comb(n, 3) > comb(60, 3),
    "betti": lambda n: comb(n, 3) > comb(20, 3),
    "verify": lambda n: comb(n, 3) > comb(20, 3),
    "weights": lambda n: n > 10_000,
}


@pytest.mark.parametrize("command", sorted(OLD_REFUSES))
def test_the_column_table_refuses_exactly_where_the_generator_counts_did(command):
    ns = [*range(1, 71), *(range(9_990, 10_011) if command == "weights" else ())]
    for n in ns:
        args = argparse.Namespace(command=command, n=n, blocks=None)
        try:
            cli._structure(args)
            refused = False
        except TooLargeError:
            refused = True
        assert refused == OLD_REFUSES[command](n), (command, n)


HUGE = 10**1500
PAST_INT_DIGITS = "9" * 4301  # one digit more than int() reads by default
TWO_PARTS = ",".join(["9" * 4300] * 2)  # each part readable, their sum not printable


def power_of_two_below(x):
    return f"at least 2^{x.bit_length() - 1}"


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            pytest.param(
                [command, "--n", str(HUGE)],
                f"{HUGE} columns exceeds the {command} limit of {limit} columns",
                id=f"{command}-huge-n",
            )
            for command, limit in sorted(cli.MAX_COLUMNS.items())
        ),
        pytest.param(
            ["kernel", "--n", str(HUGE), "--dmax", "1"],
            "degrees 1 to 1 have at least 2^14946 monomials, over the budget of 500000",
            id="kernel-huge-n",
        ),
        pytest.param(
            ["kernel", "--n", "150", "--dmax", str(HUGE)],
            f"degrees 1 to {HUGE} have {power_of_two_below(comb(20 + HUGE, 20) - 1)} "
            "monomials, over the budget of 500000",
            id="kernel-huge-dmax-bounded",
        ),
        pytest.param(
            ["kernel", "--n", "3", "--dmax", str(HUGE**2)],
            f"degrees 1 to {HUGE**2} read {power_of_two_below(comb(HUGE**2 + 1, 2))} "
            "indices, over the budget of 500000",
            id="kernel-huge-dmax-one-variable",
        ),
        pytest.param(
            ["betti", "--blocks", PAST_INT_DIGITS],
            f"cannot parse --blocks '{PAST_INT_DIGITS}': expected e.g. 2,3,2",
            id="betti-part-past-int-digits",
        ),
        pytest.param(
            ["weights", "--blocks", TWO_PARTS],
            f"{power_of_two_below(2 * (10**4300 - 1))} columns exceeds the weights limit "
            "of 10000 columns",
            id="weights-two-huge-parts",
        ),
        pytest.param(
            ["kernel", "--blocks", TWO_PARTS],
            f"degrees 1 to 2 have {power_of_two_below(comb(comb(2 * (10**4300 - 1), 3) + 2, 2) - 1)}"
            " monomials, over the budget of 500000",
            id="kernel-two-huge-parts",
        ),
        pytest.param(
            ["verify", "--blocks", TWO_PARTS, "--n", "5"],
            f"--n 5 contradicts --blocks summing to {power_of_two_below(2 * (10**4300 - 1))}",
            id="verify-two-huge-parts-contradict-n",
        ),
    ],
)
def test_no_refusal_prints_a_number_str_cannot(capsys, argv, message):
    """Counts past str()'s 4 300 digits are refused at once in the command's
    own words: past 10 000 bits a refusal names a count x as at least 2^k,
    k = x.bit_length() - 1."""
    start = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert "4300 digits" not in err


def test_kernel_at_three_columns_caps_the_sum_of_its_degrees(capsys, monkeypatch):
    """With one Pluecker variable no slice passes the budget, so dmax(dmax + 1)/2
    may not pass it either; the refusal comes before any slice is built."""

    class Reached(Exception):
        pass

    def reached(parts):
        raise Reached

    monkeypatch.setattr(cli, "BlockStructure", reached)
    code, out, err = run(capsys, "kernel", "--n", "3", "--dmax", "400", "--budget", "1")
    assert code == 2 and out == ""
    assert err == "error: degrees 1 to 400 read 80200 indices, over the budget of 1\n"
    code, out, err = run(capsys, "kernel", "--n", "3", "--dmax", "1000")
    assert code == 2 and out == ""
    assert err == "error: degrees 1 to 1000 read 500500 indices, over the budget of 500000\n"
    for argv in (["--n", "3", "--dmax", "999"], ["--n", "3", "--dmax", "4", "--budget", "10"]):
        with pytest.raises(Reached):
            main(["kernel", *argv])
    # From n = 4 on the monomials of all the degrees decide.
    with pytest.raises(Reached):
        main(["kernel", "--n", "10", "--dmax", "3"])
    code, _, err = run(capsys, "kernel", "--n", "4", "--dmax", "4", "--budget", "9")
    assert err == "error: degrees 1 to 4 have 69 monomials, over the budget of 9\n"
    monkeypatch.undo()
    code, out, _ = run(capsys, "kernel", "--n", "3", "--dmax", "4", "--budget", "10")
    assert code == 0 and "degree 4: 1 distinct images, rectangle dimension 1" in out
    code, out, err = run(capsys, "kernel", "--n", "3", "--dmax", "4", "--budget", "9")
    assert code == 2 and out == ""
    assert err == "error: degrees 1 to 4 read 10 indices, over the budget of 9\n"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kernel_refuses_exactly_when_flatness_check_does(capsys, monkeypatch, n):
    """kernel and flatness_check share one size rule: on each dmax and
    budget, kernel refuses with the message flatness_check raises, and goes
    on to build the map when flatness_check returns."""

    class Reached(Exception):
        pass

    def reached(parts):
        raise Reached

    pm = plucker_map_from_matching_field(BlockStructure((n,)))
    monkeypatch.setattr(cli, "BlockStructure", reached)
    for dmax in range(1, 6):
        for budget in (0, 1, 9, 10, 300, 500_000):
            argv = ["kernel", "--n", str(n), "--dmax", str(dmax), "--budget", str(budget)]
            try:
                flatness_check(pm, 3, n, dmax, budget)
            except TooLargeError as exc:
                assert run(capsys, *argv) == (2, "", f"error: {exc}\n"), (dmax, budget)
            else:
                with pytest.raises(Reached):
                    main(argv)


def test_each_entry_point_runs_the_size_rule_once(capsys, monkeypatch):
    calls = []
    check = toric._check_size

    def counted(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(toric, "_check_size", counted)
    monkeypatch.setattr(cli, "_check_size", counted)
    pm = plucker_map_from_matching_field(BlockStructure((2, 2)))
    kernel_slice(pm, 3)
    flatness_check(pm, 3, 4, 3)
    assert run(capsys, "kernel", "--blocks", "2,2", "--dmax", "3")[0] == 0
    assert calls == [(4, 3, 3, 500_000), (4, 1, 3, 500_000), (4, 1, 3, 500_000)]


def test_the_kernel_budget_default_is_one_constant():
    defaults = [
        inspect.signature(f).parameters["budget"].default for f in (kernel_slice, flatness_check)
    ]
    defaults.append(cli.build_parser().parse_args(["kernel", "--n", "4"]).budget)
    assert defaults == [toric.KERNEL_BUDGET] * 3
    assert "KERNEL_BUDGET" not in toric.__all__


def test_kernel_below_three_columns_is_refused_in_one_step(capsys, monkeypatch):
    """Below three columns there is no Pluecker variable and no monomial of
    positive degree; the size rule counts them in a fixed number of comb
    calls, whatever dmax is, and the column count is refused next."""
    calls = []

    def counted(m, k):
        calls.append((m, k))
        return comb(m, k)

    monkeypatch.setattr(toric, "comb", counted)
    for n in (1, 2):
        for dmax in (1, 1000, 10**12):
            calls.clear()
            code, out, err = run(capsys, "kernel", "--n", str(n), "--dmax", str(dmax))
            assert code == 2 and out == ""
            assert err == f"error: need n >= 3 columns, got n = {n}\n"
            assert calls == [(dmax, 0), (0, 0)], dmax


def test_malformed_parts_are_reported_before_any_size_guard(capsys, monkeypatch):
    monkeypatch.setattr(cli, "BlockStructure", None)
    for argv, message in [
        (["generators", "--n", "0"], "all parts must be positive integers, got (0,)"),
        (["betti", "--blocks", "0,100"], "all parts must be positive integers, got (0, 100)"),
        (["verify", "--blocks", "2,x"], "cannot parse --blocks '2,x': expected e.g. 2,3,2"),
        (["kernel", "--blocks", "75,75", "--n", "151"], "--n 151 contradicts --blocks summing to 150"),
        (["cointerval"], "provide --blocks and/or --n"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_cointerval_json_golden(capsys):
    code, out, _ = run(capsys, "cointerval", "--blocks", "3,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    r = doc["result"]
    assert r["cointerval"] is True
    assert r["layer_nesting_ok"] is True
    assert (r["m"], r["k"], r["l"]) == (3, 3, 3)
    assert sorted(r["edge_labels"]) == [
        "147", "148", "149", "157", "159", "169", "247", "248", "257", "357"
    ]
    assert r["relabeling"]["z5"] == 1
    assert r["relabeling"]["x4"] == 9
    assert r["witness"] is None


def test_cointerval_prints_nesting_failures_and_the_witness(capsys, monkeypatch):
    # Without x1*y3*z5 the generators of (5,) fail both checks, which no
    # block-diagonal field does.
    sort_generators = cellular.sort_generators
    dropped = GeneratorTriple(1, 3, 5)
    monkeypatch.setattr(
        cellular, "sort_generators", lambda a: [t for t in sort_generators(a) if t != dropped]
    )
    code, out, err = run(capsys, "cointerval", "--blocks", "5")
    assert (code, err) == (1, "")
    assert out == (
        "relabeled graph for blocks [5] (n = 5): m = 3, k = 3, l = 3\n"
        "  edges: 147 148 149 158 167 257 258 267 367\n"
        "  z- and y-layer nesting: NO\n"
        "  co-interval: NO\n"
        "  nesting failure: z_4-layer not contained in z_5-layer\n"
        "  nesting failure: in z_5-layer: y_2 x-set not inside y_3 x-set\n"
        "  witness: layers of vertices 1 and 2 not nested\n"
        "FAIL\n"
    )
    code, out, _ = run(capsys, "cointerval", "--blocks", "5", "--format", "json")
    assert code == 1
    r = json.loads(out)["result"]
    assert r["layer_nesting_ok"] is False
    assert r["layer_witnesses"] == [
        "z_4-layer not contained in z_5-layer",
        "in z_5-layer: y_2 x-set not inside y_3 x-set",
    ]
    assert (r["cointerval"], r["witness"]) == (False, [1, 2])


def test_cointerval_fails_when_either_check_fails_alone(capsys, monkeypatch):
    """The nesting check and the co-interval check each decide the verdict:
    one failing alone prints FAIL and exits 1."""
    monkeypatch.setattr(cli, "is_cointerval", lambda g: (False, (1, 2)))
    code, out, _ = run(capsys, "cointerval", "--blocks", "2,3")
    assert code == 1
    assert "  z- and y-layer nesting: yes\n  co-interval: NO\n" in out and out.endswith("\nFAIL\n")
    sort_generators = cellular.sort_generators
    dropped = GeneratorTriple(1, 3, 5)
    monkeypatch.setattr(
        cellular, "sort_generators", lambda a: [t for t in sort_generators(a) if t != dropped]
    )
    monkeypatch.setattr(cli, "is_cointerval", lambda g: (True, None))
    code, out, _ = run(capsys, "cointerval", "--blocks", "5")
    assert code == 1
    assert "  z- and y-layer nesting: NO\n  co-interval: yes\n" in out and out.endswith("\nFAIL\n")


def test_cointerval_call_reads_one_layer_table(capsys, monkeypatch):
    """One call sorts the generators once, lists them once and builds one
    DGraph, the relabeled graph, with no vertex layer as a DGraph."""
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    count(cellular, "sort_generators")
    count(cellular, "v_layer")
    for module in (matching, cellular):
        count(module, "generator_triples")
    validate = cellular.DGraph.__post_init__

    def counted_validate(self):
        calls["DGraph"] += 1
        validate(self)

    monkeypatch.setattr(cellular.DGraph, "__post_init__", counted_validate)
    code, _, _ = run(capsys, "cointerval", "--blocks", "2,4")
    assert code == 0
    assert calls == {"sort_generators": 1, "generator_triples": 1, "DGraph": 1}


def test_cointerval_result_matches_the_library(capsys):
    for n in range(3, 8):
        for parts in all_compositions(n):
            a = BlockStructure(parts)
            layers, f, g = check_layer_containment(a), relabel_f(a), graph_G(a)
            ok, witness = is_cointerval(g)
            edges = sorted(g.edges)
            expected = {
                "layer_nesting_ok": layers.ok,
                "layer_witnesses": list(layers.witnesses),
                "lower_layers_nested": layers.lower_layers_nested,
                "m": f.m,
                "k": f.k,
                "l": f.l,
                "relabeling": {str(v): i for v, i in f.assignment},
                "edges": [list(e) for e in edges],
                "edge_labels": [("" if e[-1] <= 9 else "-").join(map(str, e)) for e in edges],
                "cointerval": ok,
                "witness": list(witness) if witness else None,
            }
            blocks = ",".join(map(str, parts))
            code, out, _ = run(capsys, "cointerval", "--blocks", blocks, "--format", "json")
            assert code == (0 if ok and layers.ok else 1), parts
            assert json.loads(out)["result"] == expected, parts


def test_kernel_json(capsys):
    code, out, _ = run(
        capsys, "kernel", "--blocks", "3,2", "--dmax", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    slices = doc["result"]["slices"]
    assert slices[0]["degree"] == 1 and slices[0]["dimension"] == 0
    assert slices[1]["dimension"] == 5
    assert slices[1]["new_minimal_generators"] == 5
    assert len(slices[1]["binomials"]) == 5
    assert doc["result"]["flatness_ok"] is True
    assert doc["result"]["flatness_rows"] == [[0, 1, 1], [1, 10, 10], [2, 50, 50]]


def test_kernel_json_n8_to_degree_three(capsys):
    code, out, _ = run(
        capsys, "kernel", "--blocks", "2,3,2,1", "--dmax", "3", "--format", "json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    slices = result["slices"]
    assert [e["degree"] for e in slices] == [1, 2, 3]
    for e in slices:
        d = e["degree"]
        assert e["dimension"] == comb(55 + d, d) - hilbert_dim_rect(3, 8, d)
    assert [e["new_minimal_generators"] for e in slices] == [0, 420, 0]
    assert result["flatness_ok"] is True


def test_kernel_builds_no_monomial_and_no_pluecker_map(capsys, monkeypatch):
    """kernel packs the generator triples straight into image codes."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Monomial or a Pluecker map was built")

    monkeypatch.setattr(GeneratorTriple, "monomial", refuse)
    monkeypatch.setattr(Monomial, "__init__", refuse)
    monkeypatch.setattr(toric, "plucker_map_from_matching_field", refuse)
    code, out, _ = run(capsys, "kernel", "--n", "8", "--dmax", "3", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert [e["new_minimal_generators"] for e in result["slices"]] == [0, 420, 0]
    assert result["flatness_ok"] is True


def test_kernel_prints_the_flatness_failure_and_exits_one(capsys, monkeypatch):
    # Packing p124 as p123 leaves 3 distinct images in degree 1, not 4.
    pack_triples = cli.pack_triples

    def merged(*args):
        layout, codes = pack_triples(*args)
        return layout, [codes[0], codes[0], *codes[2:]]

    monkeypatch.setattr(cli, "pack_triples", merged)
    code, out, err = run(capsys, "kernel", "--n", "4", "--dmax", "2")
    assert (code, err) == (1, "")
    assert out == (
        "toric kernel of the Pluecker monomial map for blocks [4] (n = 4):\n"
        "  degree 1: kernel dimension 1, new minimal generators 1\n"
        "  degree 2: kernel dimension 4, new minimal generators 0\n"
        "  degree 0: 1 distinct images, rectangle dimension 1\n"
        "  degree 1: 3 distinct images, rectangle dimension 4\n"
        "  degree 2: 6 distinct images, rectangle dimension 10\n"
        "FAIL: Hilbert function differs from the rectangle dimensions up to degree 2\n"
    )
    code, out, _ = run(capsys, "kernel", "--n", "4", "--dmax", "2", "--format", "json")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["flatness_ok"] is False
    assert result["flatness_rows"] == [[0, 1, 1], [1, 3, 4], [2, 6, 10]]
    assert result["slices"][0]["binomials"] == ["p123 - p124"]


def test_kernel_names_the_pluecker_variables_only_for_a_slice_that_lists_binomials(
    capsys, monkeypatch
):
    """At n = 8 degree 1 lists no binomial and degrees 2 and 3 list none, so
    no name is built; at (3, 2) degrees 2 and 3 list theirs from one list."""
    real = cli.plucker_variable_name
    named = []

    def refuse(subset):
        raise AssertionError("a Pluecker variable was named")

    def counted(subset):
        named.append(subset)
        return real(subset)

    monkeypatch.setattr(cli, "plucker_variable_name", refuse)
    code, out, _ = run(capsys, "kernel", "--n", "8", "--dmax", "3", "--format", "json")
    assert code == 0
    assert [e.get("binomials") for e in json.loads(out)["result"]["slices"]] == [[], None, None]
    monkeypatch.setattr(cli, "plucker_variable_name", counted)
    code, out, _ = run(capsys, "kernel", "--blocks", "3,2", "--dmax", "3", "--format", "json")
    assert code == 0
    slices = json.loads(out)["result"]["slices"]
    assert [len(e["binomials"]) for e in slices] == [0, 5, 45]
    assert sorted(named) == sorted(combinations(range(1, 6), 3))


def test_kernel_builds_each_degree_once(capsys, monkeypatch):
    calls = []
    fibres = toric._fibres

    def counted(codes, d, max_binomials):
        calls.append(d)
        return fibres(codes, d, max_binomials)

    monkeypatch.setattr(toric, "_fibres", counted)
    code, _, _ = run(capsys, "kernel", "--blocks", "2,2", "--dmax", "3")
    assert code == 0
    assert calls == [1, 2, 3]


def test_kernel_builds_binomials_only_for_printed_slices(capsys, monkeypatch):
    built = []
    spanning = toric._spanning_binomials

    def counted(fibres, s):
        out = spanning(fibres, s)
        built.append(len(out))
        return out

    monkeypatch.setattr(toric, "_spanning_binomials", counted)
    code, out, _ = run(capsys, "kernel", "--blocks", "3,3,2", "--dmax", "3", "--format", "json")
    assert code == 0
    slices = json.loads(out)["result"]["slices"]
    assert [e["dimension"] for e in slices] == [0, 420, 16744]
    assert built == [0]
    assert [len(e["binomials"]) for e in slices if "binomials" in e] == [0]


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first, *rest)


def kernel_result_from_kernel_slice(parts, dmax):
    """The kernel subcommand's JSON result, rebuilt from the public
    kernel_slice and flatness_check, one degree at a time."""
    n = sum(parts)
    pm = plucker_map_from_matching_field(BlockStructure(parts))
    slices = []
    for d in range(1, dmax + 1):
        ks = kernel_slice(pm, d)
        assert len(ks.binomials) == ks.dimension
        entry = {
            "degree": d,
            "dimension": ks.dimension,
            "new_minimal_generators": ks.new_minimal_generators,
        }
        if ks.dimension <= MAX_PRINTED_BINOMIALS:
            entry["binomials"] = [
                f"{format_plucker_exponents(pm, p)} - {format_plucker_exponents(pm, q)}"
                for p, q in ks.binomials
            ]
        slices.append(entry)
    flat = flatness_check(pm, 3, n, dmax)
    return {
        "slices": slices,
        "flatness_ok": flat.ok,
        "flatness_rows": [list(r) for r in flat.rows],
    }


@pytest.mark.parametrize(
    "n, dmax", [(4, 3), (5, 3), (6, 3), (5, 5)], ids=["4", "5", "6", "5-dmax5"]
)
def test_kernel_json_equals_the_result_rebuilt_from_kernel_slice(capsys, n, dmax):
    """On every composition of n.  Degree 5 puts an exponent of 4 or 5 in a
    field, where codes packed for a lower degree carry into the next field."""
    listed = set()
    for parts in compositions(n):
        blocks = ",".join(map(str, parts))
        argv = ["kernel", "--blocks", blocks, "--dmax", str(dmax), "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        result = json.loads(out)["result"]
        assert result == kernel_result_from_kernel_slice(parts, dmax), parts
        listed.update("binomials" in e for e in result["slices"])
    assert listed == ({True} if n < 6 and dmax == 3 else {True, False})


def test_supports_text_and_json(capsys):
    code, out, _ = run(capsys, "supports", "--plucker-quadric", "2", "4")
    assert code == 0
    assert "7 supports" in out
    code, out, _ = run(
        capsys, "supports", "--plucker-quadric", "2", "4", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["result"]["count"] == 7
    assert ["p13*p24"] in doc["result"]["supports"]
    assert doc["input"] == {"n": 4, "blocks": None, "w0": None}


def test_supports_rejects_other_grassmannians(capsys):
    code, out, err = run(capsys, "supports", "--plucker-quadric", "3", "6")
    assert code == 2
    assert "2x4" in err


def test_invalid_inputs_exit_two(capsys):
    code, _, err = run(capsys, "generators", "--n", "2")
    assert code == 2 and "n >= 3" in err
    code, _, err = run(capsys, "generators", "--blocks", "2,x")
    assert code == 2
    code, _, err = run(capsys, "generators", "--blocks", "3,2", "--n", "6")
    assert code == 2 and "contradicts" in err
    code, _, err = run(capsys, "betti")
    assert code == 2 and "--blocks" in err


def test_csv_unavailable_for_verify(capsys):
    code, _, err = run(capsys, "verify", "--blocks", "2,2", "--format", "csv")
    assert code == 2
    assert "csv" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "--blocks", "2,2", "--w0", "0"], "w0"),
        (["weights", "--blocks", "2,2", "--w0", "-1"], "w0"),
        (["verify", "--blocks", "2,2", "--budget", "-1"], "--budget"),
        (["kernel", "--blocks", "2,2", "--budget", "-1"], "--budget"),
        (["kernel", "--n", "4", "--dmax", "0"], "--dmax"),
        (["kernel", "--n", "4", "--dmax", "-1"], "--dmax"),
        (["generators", "--blocks", "2,,3"], "--blocks"),
        (["generators", "--blocks", ",3,3"], "--blocks"),
        (["generators", "--blocks", "3,3,"], "--blocks"),
        (["generators", "--blocks", "1_0"], "--blocks"),
        (["kernel", "--n", "2"], "n >= 3"),
    ],
)
def test_out_of_range_options_exit_two(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert option in err
    assert "budget exhausted" not in err


def test_blocks_allow_whitespace_around_parts(capsys):
    want = run(capsys, "generators", "--blocks", "3,2", "--format", "json")
    got = run(capsys, "generators", "--blocks", " 3 , 2 ", "--format", "json")
    assert got == want and got[0] == 0


def test_threads_is_not_an_option(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--blocks", "2,2", "--threads", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--threads" in err
    want = run(capsys, "verify", "--blocks", "2,2", "--format", "json")
    monkeypatch.setenv("MATCHFIELDS_THREADS", "two")
    assert run(capsys, "verify", "--blocks", "2,2", "--format", "json") == want
    assert want[0] == 0


def test_zero_budget_is_a_budget_not_an_input_error(capsys):
    code, _, err = run(capsys, "verify", "--blocks", "2,2", "--budget", "0")
    assert code == 2
    assert "budget exhausted" in err


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "matchfields", "--version"],
        cwd=root,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert __version__ in proc.stdout


_FUZZ_OPTIONS = {
    "generators": ["--n", "--blocks", "--format"],
    "weights": ["--n", "--blocks", "--format", "--w0"],
    "verify": [
        "--n", "--blocks", "--format", "--w0", "--budget", "--no-coprime-criterion",
    ],
    "betti": ["--n", "--blocks", "--format"],
    "cointerval": ["--n", "--blocks", "--format"],
    "kernel": ["--n", "--blocks", "--format", "--dmax", "--budget"],
    "supports": ["--plucker-quadric", "--format"],
}
_FUZZ_GOOD = {
    "--n": ["3", "4", "5", "6", "7", "8"],
    "--dmax": ["1", "2", "3"],
    "--budget": ["1", "40", "500000"],
    "--w0": ["1", "2", "7"],
    "--format": ["text", "json", "csv"],
}
_FUZZ_BAD = ["0", "-1", "-8", "1.5", "two", "", " ", "1e3", "0x10", "٣", "2,2", "3 "]
_FUZZ_BAD_BLOCKS = [
    "", ",", "2,,2", ",3", "3,", "a,b", "3;2", "0,3", "-1,4", "2.0,1", "1_0",
    "٣,2", "+2,2", " 2 , x ", "2 2",
]


def fuzz_argv(rng):
    """A random argument list: a subcommand with a random subset of options
    (sometimes one that belongs to another subcommand, or one left without
    its value), each valid, out of range or malformed."""
    command = rng.choice(sorted(_FUZZ_OPTIONS))
    names = list(_FUZZ_OPTIONS[command])
    if rng.random() < 0.1:
        names.append(rng.choice(["--dmax", "--w0", "--threads", "--bogus"]))
    chosen = rng.sample(names, rng.randint(0, len(names)))
    if command != "supports" and rng.random() < 0.8:
        # Most lists name the columns, so that most calls get past parsing.
        chosen.insert(0, rng.choice(["--n", "--blocks"]))
    argv = [command]
    for name in chosen:
        argv.append(name)
        if name == "--no-coprime-criterion":
            continue
        if name == "--blocks":
            if rng.random() < 0.8:
                parts = rng.choice(list(compositions(rng.randint(1, 8))))
                argv.append(",".join(map(str, parts)))
            else:
                argv.append(rng.choice(_FUZZ_BAD_BLOCKS))
        elif name == "--plucker-quadric":
            argv += [rng.choice(["2", "3", "-1", "x"]), rng.choice(["4", "6", "0", ""])]
        elif rng.random() < 0.8:
            argv.append(rng.choice(_FUZZ_GOOD.get(name, ["1"])))
        else:
            argv.append(rng.choice(_FUZZ_BAD))
    if rng.random() < 0.05:
        argv.pop()
    return argv


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_arguments_exit_cleanly(capsys, seed):
    """Every argument list ends in exit 0, 1 or 2 and no exception escapes
    main; argparse reports a usage error by exiting with status 2."""
    rng = random.Random(seed)
    codes = set()
    for _ in range(80):
        argv = fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2 and "usage:" in capsys.readouterr().err, argv
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in (0, 1, 2), argv
        codes.add(code)
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
    assert {0, 2} <= codes


KERNEL_GOLDEN = json.loads((Path(__file__).parent / "data" / "kernel_golden.json").read_text())


def test_kernel_golden_cases_are_the_seeded_draw():
    want = list(all_compositions(7)) + random.Random(1).sample(list(all_compositions(8)), 8)
    assert [tuple(case["parts"]) for case in KERNEL_GOLDEN["cases"]] == want


def test_kernel_matches_the_golden_file(capsys):
    """Per degree to 3: the dimensions, new generators and flatness rows that
    the fibre lists, kept member by member, gave."""
    for case in KERNEL_GOLDEN["cases"]:
        blocks = ",".join(map(str, case["parts"]))
        code, out, _ = run(capsys, "kernel", "--blocks", blocks, "--dmax", "3", "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        got = {
            "parts": case["parts"],
            "dimension": [e["dimension"] for e in result["slices"]],
            "new_minimal_generators": [e["new_minimal_generators"] for e in result["slices"]],
            "flatness_rows": result["flatness_rows"],
        }
        assert got == case, blocks


@pytest.mark.slow
def test_kernel_n10_to_degree_three(capsys):
    code, out, _ = run(capsys, "kernel", "--n", "10", "--dmax", "3", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    dims = [e["dimension"] for e in result["slices"]]
    assert dims == [comb(119 + d, d) - hilbert_dim_rect(3, 10, d) for d in (1, 2, 3)]
    assert result["flatness_ok"] is True
