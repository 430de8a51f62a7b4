"""Command line interface: formats, exit codes, golden outputs."""

import csv
import io
import json
from math import comb

import pytest

from matchfields import __version__, hilbert_dim_rect
from matchfields.cli import main


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


def test_threads_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("MATCHFIELDS_THREADS", "2")
    code, out, _ = run(capsys, "verify", "--blocks", "2,2")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "--blocks", "2,2", "--threads", "0"], "--threads"),
        (["verify", "--blocks", "2,2", "--threads", "-3"], "--threads"),
        (["verify", "--blocks", "2,2", "--budget", "-1"], "--budget"),
        (["kernel", "--blocks", "2,2", "--budget", "-1"], "--budget"),
        (["kernel", "--n", "4", "--dmax", "0"], "--dmax"),
        (["kernel", "--n", "4", "--dmax", "-1"], "--dmax"),
        (["generators", "--blocks", "2,,3"], "--blocks"),
        (["generators", "--blocks", ",3,3"], "--blocks"),
        (["generators", "--blocks", "3,3,"], "--blocks"),
        (["generators", "--blocks", "1_0"], "--blocks"),
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


@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_bad_threads_env_variable_exits_two(capsys, monkeypatch, value):
    monkeypatch.setenv("MATCHFIELDS_THREADS", value)
    code, out, err = run(capsys, "verify", "--blocks", "2,2")
    assert code == 2
    assert out == ""
    assert "MATCHFIELDS_THREADS" in err


def test_zero_budget_is_a_budget_not_an_input_error(capsys):
    code, _, err = run(capsys, "verify", "--blocks", "2,2", "--budget", "0")
    assert code == 2
    assert "budget exhausted" in err
