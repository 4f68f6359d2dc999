"""Command-line interface: commands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

import lieinv
from lieinv.cli import main

SO3 = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]},
        {"i": 2, "j": 3, "terms": [{"k": 1, "c": "1"}]},
        {"i": 1, "j": 3, "terms": [{"k": 2, "c": "-1"}]},
    ],
}

BROKEN = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 2, "c": "1"}]},
        {"i": 1, "j": 3, "terms": [{"k": 3, "c": "1"}]},
        {"i": 2, "j": 3, "terms": [{"k": 1, "c": "1"}]},
    ],
}


@pytest.fixture
def algebra_file(tmp_path):
    def write(payload, name="alg.json"):
        f = tmp_path / name
        f.write_text(json.dumps(payload))
        return str(f)
    return write


class TestValidate:
    def test_valid(self, algebra_file, capsys):
        assert main(["validate", algebra_file(SO3)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_abelian(self, algebra_file):
        assert main(["validate", algebra_file({"dim": 3, "brackets": []})]) == 0

    def test_broken_jacobi(self, algebra_file, capsys):
        assert main(["validate", algebra_file(BROKEN)]) == 1
        out = capsys.readouterr().out
        assert "(1,2,3)" in out  # failing quadruple printed

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("payload", [
        {"dim": 2, "brackets": [{"i": 1, "j": 2,
                                 "terms": [{"k": 1, "c": "1/0"}]}]},
        [SO3],
        {"dim": [1]},
        {"dim": 2, "brackets": [3]},
        {"dim": 2, "params": [1]},
        {"dim": True},
        {"dim": 2.5},
        {"dim": 2, "brackets": [{"i": 1, "j": 2,
                                 "terms": [{"k": 1.9, "c": "1"}]}]},
    ], ids=["zero-denominator", "json-array", "list-dim", "int-bracket",
            "list-params", "bool-dim", "float-dim", "float-k"])
    def test_malformed_algebra_is_one_error_line(self, algebra_file, capsys,
                                                 payload):
        assert main(["validate", algebra_file(payload)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestInvariants:
    def test_transitive_text(self, capsys):
        assert main(["invariants", "g2", "--pipeline", "transitive"]) == 0
        out = capsys.readouterr().out
        assert "v_1" in out and "verified: True" in out

    def test_transitive_csv_two_rows(self, capsys):
        assert main(["invariants", "2g1", "--pipeline", "transitive",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + v_1 + v_12

    def test_free_json(self, capsys):
        assert main(["invariants", "g3_7", "--pipeline", "free", "--m", "1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"] == "I"
        assert payload["verified"] is True

    def test_params_flag(self, capsys):
        assert main(["invariants", "g3_4", "--pipeline", "transitive",
                     "--params", "h=-1/3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["params"] == {"h": "-1/3"}

    def test_bad_param_rejected(self, capsys):
        assert main(["invariants", "g3_4", "--pipeline", "transitive",
                     "--params", "h=1"]) == 1

    def test_unknown_algebra(self, capsys):
        assert main(["invariants", "g99", "--pipeline", "transitive"]) == 1

    def test_zero_denominator_param_is_one_error_line(self, capsys):
        assert main(["invariants", "g3_4", "--pipeline", "free",
                     "--params", "h=1/0"]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestCovariant:
    def test_to(self, tmp_path, capsys):
        f = tmp_path / "pde.txt"
        f.write_text("coords: x; dep: u\nlhs: u_xx + u_x^2\n")
        assert main(["covariant", "--to", str(f)]) == 0
        out = capsys.readouterr().out
        assert "degree: 3" in out

    @pytest.mark.parametrize("k", range(13, 19))
    def test_to_small_coefficients(self, tmp_path, capsys, k):
        # the degree is read from the tree, so no point is drawn where the
        # lifted form is small
        f = tmp_path / "pde.txt"
        f.write_text(f"coords: x; dep: u\nlhs: u_xx/10^{k} + u_x^2/10^{k}\n")
        assert main(["covariant", "--to", str(f)]) == 0
        assert "degree: 3" in capsys.readouterr().out

    def test_from(self, tmp_path, capsys):
        f = tmp_path / "cov.txt"
        f.write_text("coords: x, y, u; dep: w\n"
                     "lhs: 2*w_x*w_y + 3*w_x*w_u + w_u^2\n")
        assert main(["covariant", "--from", str(f)]) == 0
        out = capsys.readouterr().out
        assert "rescale-invariant: yes" in out

    def test_from_rejects_non_invariant(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("coords: x, u; dep: w\nlhs: w_xx\n")
        assert main(["covariant", "--from", str(f)]) == 1
        assert "NotRescaleInvariant" in capsys.readouterr().err

    def test_from_refuses_a_long_product_quickly(self, tmp_path, capsys):
        # 12 sums of 8 terms: the residuals are refused by their floats, not
        # spread into 8^12 terms
        lhs = "*".join(f"(w_x + {k}*w_y + w_u + w_xx + {k + 1}*w_xy + w_yy"
                       f" + {k}*w_xu + w_uu)" for k in range(1, 13))
        f = tmp_path / "long.txt"
        f.write_text(f"coords: x, y, u; dep: w\nlhs: {lhs}\n")
        start = time.perf_counter()
        assert main(["covariant", "--from", str(f)]) == 1
        assert time.perf_counter() - start < 0.5
        assert "NotRescaleInvariant" in capsys.readouterr().err

    def test_to_refuses_a_long_product_quickly(self, tmp_path, capsys):
        # 12 sums of 8 terms lift to 8^12 terms or more: the lift refuses
        # the first product of polynomials above the term limit
        lhs = "*".join(f"(u_x + {k}*u_y + u + u_xx + {k + 1}*u_xy + u_yy"
                       f" + {k}*x + y)" for k in range(1, 13))
        f = tmp_path / "long.txt"
        f.write_text(f"coords: x, y; dep: u\nlhs: {lhs}\n")
        start = time.perf_counter()
        assert main(["covariant", "--to", str(f)]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert err == ["error [UnsupportedOperation]: expansion exceeds "
                       "10000 terms"]

    @pytest.mark.parametrize("flags", [["--points", "0"], ["--tol", "1e9"]])
    def test_from_refuses_vacuous_oracle(self, tmp_path, capsys, flags):
        # w_xx*w_u is not rescale-invariant; a check at zero points or with
        # an unbounded tolerance would let it through
        f = tmp_path / "bad.txt"
        f.write_text("coords: x, u; dep: w\nlhs: w_xx*w_u\n")
        assert main(["covariant", "--from", str(f)] + flags) == 2
        captured = capsys.readouterr()
        assert "rescale-invariant" not in captured.out
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("lhs", [
        "u_xx + x^(1/0)",
        "(" * 3000 + "u_xx" + ")" * 3000,
        "u_xx + x^(10^50)",
        # constants with more digits than str() converts
        "u_xx*(2^1000)^16 + u_yy",
        "u_xx*" + "*".join(["2^1000"] * 15),
        "u_xx*" + "7" * 4400,
        # a digit that is not ASCII is no number
        "u_xx + x^²",
    ], ids=["zero-division", "deep-nesting", "huge-exponent",
            "long-power", "long-product", "long-literal", "superscript-digit"])
    def test_malformed_input_is_one_error_line(self, tmp_path, capsys, lhs):
        f = tmp_path / "pde.txt"
        f.write_text(f"coords: x, y; dep: u\nlhs: {lhs}\n")
        assert main(["covariant", "--to", str(f)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error [ParseError]")

    def test_to_long_built_constant_is_one_error_line(self, tmp_path,
                                                      capsys):
        # the parser accepts N, but the lift squares it into a constant
        # with more digits than str() converts
        n = "7" + "3" * 2999
        f = tmp_path / "pde.txt"
        f.write_text(f"coords: x, y; dep: u\nlhs: u_xx*(u_yy + {n})^2\n")
        assert main(["covariant", "--to", str(f)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error [UnsupportedOperation]: constant exceeds "
                       f"{sys.get_int_max_str_digits()} digits"]

    def test_from_empty_coords_is_one_error_line(self, tmp_path, capsys):
        f = tmp_path / "cov.txt"
        f.write_text("coords: ; dep: u; lhs: u\n")
        assert main(["covariant", "--from", str(f)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error [ParseError]")

    @pytest.mark.parametrize("flag,text", [
        ("--to", "coords: x; dep: u\nlhs: u_x*u - u*u_x\n"),
        ("--from", "coords: x, u; dep: w\nlhs: w_x*w_u - w_u*w_x\n"),
    ], ids=["to", "from"])
    def test_identically_zero_equation_is_refused(self, tmp_path, capsys,
                                                  flag, text):
        # the lhs cancels to 0 when it is parsed: it has no degree, and
        # there is no regular point to draw for it
        f = tmp_path / "pde.txt"
        f.write_text(text)
        assert main(["covariant", flag, str(f)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error [NotHomogeneous]: "
                       "the equation vanishes identically"]

    def test_to_unsampleable_is_one_error_line(self, tmp_path, capsys):
        # sin(exp(800 + x + u)) is sin(inf) at every point
        f = tmp_path / "pde.txt"
        f.write_text("coords: x; dep: u\n"
                     "lhs: u_xx + sin(exp(400+x)*exp(400+u))\n")
        assert main(["covariant", "--to", str(f)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error [Unsampleable]")


PARAM_PDE = "coords: x, y; dep: u; params: a\nlhs: u_xx + a*u_yy + a*u_x^2\n"
PARAM_LIFT = ("-a*w_uu*w_y^2 - a*w_yy*w_u^2 - w_uu*w_x^2 - w_xx*w_u^2"
              " + 2*a*w_u*w_y*w_uy + 2*w_u*w_x*w_ux + a*w_u*w_x^2")


class TestCovariantParams:
    """A parameter is checked at its --params value and printed by name."""

    def test_to(self, tmp_path, capsys):
        f = tmp_path / "pde.txt"
        f.write_text(PARAM_PDE)
        assert main(["covariant", "--to", str(f), "--params", "a=2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "coords: x, y, u; dep: w  (was dependent: u)",
            "degree: 3",
            f"lhs: {PARAM_LIFT}"]

    def test_from(self, tmp_path, capsys):
        f = tmp_path / "cov.txt"
        f.write_text(f"coords: x, y, u; dep: w; params: a\nlhs: {PARAM_LIFT}\n")
        assert main(["covariant", "--from", str(f), "--params", "a=3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "rescale-invariant: yes (degree 3)",
            "coords: x, y; dep: u",
            "lhs: u_xx + a*u_yy + a*u_x^2"]

    @pytest.mark.parametrize("flag,text", [
        ("--to", PARAM_PDE),
        ("--from", f"coords: x, y, u; dep: w; params: a\nlhs: {PARAM_LIFT}\n"),
    ], ids=["to", "from"])
    def test_no_value_is_one_error_line(self, tmp_path, capsys, flag, text):
        f = tmp_path / "pde.txt"
        f.write_text(text)
        assert main(["covariant", flag, str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "error [Unsampleable]: parameter 'a' has no assigned value"]

    def test_zero_value_in_a_denominator_is_one_error_line(self, tmp_path,
                                                           capsys):
        # a = 0 makes u_x/a singular at every point, not a ZeroDivisionError
        f = tmp_path / "pde.txt"
        f.write_text("coords: x; dep: u\nlhs: u_xx + u_x/a\n")
        assert main(["covariant", "--to", str(f), "--params", "a=0"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error [Unsampleable]")


class TestReproduce:
    def test_2d_transitive(self, capsys):
        assert main(["reproduce", "2d-transitive"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2

    def test_param_override(self, capsys):
        assert main(["reproduce", "2d-transitive",
                     "--params", "g3_4:h=1/3"]) == 0

    def test_zero_denominator_param_is_one_error_line(self, capsys):
        assert main(["reproduce", "--params", "g3_4:h=1/0"]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_json_determinism(self, capsys):
        assert main(["reproduce", "1d", "--seed", "7",
                     "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["reproduce", "1d", "--seed", "7",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("LIEINV_SEED", "7")
        assert main(["reproduce", "1d", "--format", "json"]) == 0
        env_out = capsys.readouterr().out
        monkeypatch.delenv("LIEINV_SEED")
        assert main(["reproduce", "1d", "--seed", "7",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == env_out

    def test_unknown_table(self, capsys):
        assert main(["reproduce", "9d"]) == 2


class TestModuleEntry:
    def test_python_m_help(self):
        src = os.path.dirname(os.path.dirname(lieinv.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "lieinv", "--help"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: lieinv")
