"""End-to-end command line behavior, run in process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from envlld.cli import main
from envlld.parser import MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_nf_text(capsys):
    code, out, err = run(capsys, "nf", "Y*X")
    assert (code, err) == (0, "")
    assert out == "X*Y - H\n"
    code, out, _ = run(capsys, "nf", "YX", "H^2")
    assert code == 0
    assert out == "X*Y - H\nH^2\n"


def test_decompose_text(capsys):
    code, out, err = run(capsys, "decompose", "X*Y")
    assert (code, err) == (0, "")
    assert out == "(1/2)*C - (1/4)*H^2 + (1/2)*H\n"


def test_rep_text(capsys):
    code, out, _ = run(capsys, "rep", "--rep", "2")
    assert code == 0
    assert out.splitlines() == [
        "rho_2  dim 2",
        "center acts by C = 3/2",
        "X:",
        "  0  1",
        "  0  0",
        "Y:",
        "  0  0",
        "  1  0",
        "H:",
        "  1   0",
        "  0  -1",
    ]


def test_decide_scalar_modes(capsys):
    code, out, _ = run(capsys, "decide", "c", "X", "2X")
    assert code == 0
    assert out.splitlines() == ["dependent", "certificate: (2, -1)"]
    code, out, _ = run(capsys, "decide", "c", "X", "Y")
    assert code == 1
    assert out.splitlines() == ["independent"]
    code, out, _ = run(capsys, "decide", "c", "3X", "2X", "X")
    assert code == 0
    assert out.splitlines() == ["dependent", "certificate: (2, -3, 0)"]
    code, out, _ = run(capsys, "decide", "center", "I", "2XY + 1/2H^2 - H")
    assert code == 0
    assert out.splitlines() == ["dependent", "certificate: (C, -1)"]


def test_decide_center_sl3_kernel_in_bounded_time():
    # the certificate is read off a kernel over Q[Z2, Z3]; a subprocess, so
    # that a gcd that does not end fails on the timeout
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([
        sys.executable, "-m", "envlld.cli", "decide", "center",
        "--algebra", "sl3", "--",
        "(2 + 7Z2^2) X1 + 8Z3 H1 + (13Z3 + 8/5) X1 Y1",
        "(4Z2^2 Z3 + Z2 Z3 + 1/4 Z2^2) X1 + (8Z3 + Z2^2) H1 + 2Z2^2 X1 Y1",
        "3Z2^2 X1 + (7/5 Z2 Z3 + 5Z2 + 5) H1 + (15Z3 + 9Z2 Z3) X1 Y1",
        "(7/2 Z3 + 7Z2) X1 + Z2^2 H1 + (8/5 Z3 + 2Z2^2 + 4) X1 Y1",
    ], env=env, capture_output=True, text=True, timeout=20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == "dependent"


@pytest.mark.parametrize("argv,code,lines", [
    # a kernel of dimension two: the first certificate of all rows
    (["--", "3 X - 6 C Y", "-C X + 2 C^2 Y", "-2 X + 4 C Y"], 0,
     ["dependent", "certificate: (1, 0, 3/2)"]),
    # coefficients that vanish at the probe point
    (["--", "(3 C - 7) X", "Y"], 1, ["independent"]),
    (["--algebra", "sl3", "--", "(2 Z3 + 5) X1", "Y1"], 1, ["independent"]),
], ids=["corank-two", "unlucky-C", "unlucky-Z3"])
def test_decide_center_verdicts_around_the_probe(capsys, argv, code, lines):
    got, out, err = run(capsys, "decide", "center", *argv)
    assert (got, err) == (code, "")
    assert out.splitlines() == lines


def test_decide_loc_text(capsys):
    code, out, _ = run(capsys, "decide", "loc", "--q", "H",
                       "--range", "2..4", "CX^2 + 3/2H", "3/2X^2 + CH")
    assert code == 0
    assert out.splitlines() == [
        "z0 = 4*C^2 - 9",
        "z1 = -6",
        "z2 = 4*C",
        "denominator clears every dimension: False",
        "  rho_2: in span = True",
        "  rho_3: in span = True",
        "  rho_4: in span = True",
    ]
    code, out, _ = run(capsys, "decide", "loc", "--q", "H", "X")
    assert code == 1
    assert out == "no span certificate over the localized center\n"


def test_decide_ref_text(capsys):
    code, out, _ = run(capsys, "decide", "ref", "--q", "I",
                       "--rep", "2", "(C - 3/2)I")
    assert code == 1
    assert out == "rho_2: counterexample basis #0 v = (1, 0)\n"
    code, out, _ = run(capsys, "decide", "ref", "--q", "X", "--rep", "2",
                       "I + H", "X + Y", "(C - 3/2)X")
    assert code == 0
    assert out == "rho_2: no counterexample found (22 vectors)\n"


def test_witness_text(capsys):
    code, out, _ = run(capsys, "witness", "X", "Y")
    assert code == 0
    assert out.splitlines() == [
        "independent; witness dimension n = 4",
        "vector: (0, 1, 0, 1)",
    ]
    code, out, _ = run(capsys, "witness", "--algebra", "sl3", "--bound", "4",
                       "I", "Z2 - 24")
    assert code == 1
    assert out.splitlines() == [
        "family is dependent over the center; no independence witness exists",
        "certificate: (Z2 - 24, -1)",
        "weight scan: from weights (1,1) on, "
        "no module kills the whole certificate",
    ]
    code, out, _ = run(capsys, "witness", "--algebra", "sl3", "Y1")
    assert code == 0
    assert "constructive witness covers sl2 families only" in out


@pytest.mark.parametrize("argv,fragment", [
    (("nf", "Q"), "unknown symbol 'Q' for sl2 (at position 0)"),
    (("decide", "loc", "X"), "decide loc needs --q EXPR"),
    (("decide", "c", "--q", "X", "X", "Y"), "--q applies to loc and ref modes"),
    (("rep", "--weights", "1", "1"),
     "--weights selects an sl3 module; this is sl2, use --rep K"),
    (("rep", "--algebra", "sl3", "--rep", "2"),
     "--rep selects an sl2 dimension; this is sl3, use --weights M1 M2"),
    (("decide", "loc", "--q", "H", "--range", "5", "X"),
     "range must look like 2..8, got '5'"),
    (("decide", "loc", "--q", "X", "--range", "2..3", "--",
      "(C - 5000000) X"),
     "denominator root bound 3163 exceeds cap 1000"),
])
def test_usage_errors(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert fragment in err


def test_nf_of_a_deep_word(capsys):
    code, out, err = run(capsys, "nf", "Y^30 X^30")
    assert (code, err) == (0, "")
    assert out.startswith("X^30*Y^30 - 900*X^29*Y^29*H + ")


def test_nesting_limit(capsys):
    deepest = "(" * MAX_NESTING + "X" + ")" * MAX_NESTING
    code, out, err = run(capsys, "nf", deepest)
    assert (code, out, err) == (0, "X\n", "")
    for depth in (MAX_NESTING + 1, 400):
        code, out, err = run(capsys, "nf", "(" * depth + "X" + ")" * depth)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: parentheses nested more than "
                              f"{MAX_NESTING} deep (at position {MAX_NESTING})")


def test_argparse_failures_exit_2(capsys):
    assert main([]) == 2
    assert main(["nf"]) == 2
    capsys.readouterr()


def test_internal_errors_exit_3(capsys, monkeypatch):
    def boom(q, ps):
        raise AssertionError("forced for the test")
    monkeypatch.setattr("envlld.cli.loc_span_solve", boom)
    code, out, err = run(capsys, "decide", "loc", "--q", "H", "X")
    assert code == 3
    assert err.startswith("internal error: ")


def test_ref_sweep_past_the_cap_samples_nothing(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("envlld.cli.empirical_ref",
                        lambda *a, **k: calls.append(a))
    code, out, err = run(capsys, "decide", "ref", "--q", "X",
                         "--range", "2..400", "--", "Y", "X")
    assert (code, out, calls) == (2, "", [])
    assert "dimension 142 exceeds the matrix entry cap" in err


def test_structured_document(capsys):
    code, out, _ = run(capsys, "nf", "Y*X", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "nf"
    assert doc["algebra"] == "sl2"
    assert doc["inputs"] == ["Y*X"]
    nf = doc["results"][0]["normal_form"]
    assert nf["text"] == "X*Y - H"
    assert nf["table"] == {"X*Y": {"1": "1"}, "H": {"1": "-1"}}
    assert "timing_ms" in doc


def test_structured_output_is_stable(capsys):
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, "decide", "loc", "--q", "H",
                           "--range", "2..3", "--format", "structured",
                           "CX^2 + 3/2H", "3/2X^2 + CH")
        assert code == 0
        doc = json.loads(out)
        doc.pop("timing_ms")
        docs.append(doc)
    assert docs[0] == docs[1]
    cert = docs[0]["certificate"]
    assert cert["z0"]["text"] == "4*C^2 - 9"
    assert cert["z0"]["table"] == {"C^2": "4", "1": "-9"}
    assert [z["text"] for z in cert["z"]] == ["-6", "4*C"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "nf", "Y*X", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "X*Y - H\n"


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify-paper")
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == "10/10 criteria passed"
    assert len(lines) == 11
    assert all(" PASS " in line for line in lines[:-1])
    code, out, _ = run(capsys, "verify-paper", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] == doc["total"] == 10
    assert all(c["ok"] for c in doc["criteria"])
