"""The checkers accept the program's outputs and reject wrong ones.

Also covered: the row counts of a report and the speed sampler.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import math
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE),
                os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402


def _split_top_level(text):
    """Additive terms of a rendered sum, each with its sign."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and text[i:i + 3] in (" + ", " - "):
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    return terms


def test_formula_rejects_anything_but_arithmetic():
    with pytest.raises(ValueError):
        checks.Formula("__import__('os').getpid()")
    with pytest.raises(ValueError):
        checks.Formula("x.real")
    f = checks.Formula("u_yx^2 - 1/2*exp(x)", ("x", "y"), "u")
    assert f.names == {"u_xy", "x"}
    assert f({"u_xy": 3.0, "x": 0.0}) == 8.5


def test_jacobian_rank_sees_dependence():
    rng = random.Random(1)
    fs = [checks.Formula(t) for t in ("x*y", "exp(x) + y", "x^2*y^2 + 3")]
    assert checks.jacobian_rank(fs, ["x", "y"], {}, rng) == 2
    assert checks.jacobian_rank(fs[:1], ["x", "y"], {}, rng) == 1


def test_implicit_function_formulas():
    # w = exp(u) - g(x, y) with g = 2 + x*y^2 + x^2, so u = log(g)
    x, y, u = 0.3, -0.7, math.log(2 + 0.3 * 0.49 + 0.09)
    g = math.exp(u)
    gx, gy = y * y + 2 * x, 2 * x * y
    gxx, gxy, gyy = 2.0, 2 * y, 2 * x
    w = {"w_u": g, "w_uu": g, "w_ux": 0.0, "w_uy": 0.0, "w_x": -gx,
         "w_y": -gy, "w_xx": -gxx, "w_xy": -gxy, "w_yy": -gyy}
    got = checks.split_jets_from_w(w, ["x", "y"], "u")
    want = {"u_x": gx / g, "u_y": gy / g,
            "u_xx": gxx / g - gx * gx / g ** 2,
            "u_xy": gxy / g - gx * gy / g ** 2,
            "u_yy": gyy / g - gy * gy / g ** 2}
    for key, value in want.items():
        assert abs(got[key] - value) < 1e-12, key


@pytest.fixture(scope="module")
def covariant_outputs():
    generated = workloads.make_covariant_roundtrip(3)["pdes"][-2:]
    inputs = {"pdes": workloads.PDE_BATTERY[5:7] + generated, "refusals": []}
    return inputs, workloads.run_covariant_roundtrip(inputs)


def test_covariant_checker_accepts_the_program(covariant_outputs):
    inputs, outputs = covariant_outputs
    assert outputs["failed"] == 0
    assert checks.check_covariant_roundtrip(inputs, outputs) == []


@pytest.mark.parametrize("which", range(4))
def test_covariant_checker_rejects_one_changed_coefficient(covariant_outputs, which):
    inputs, outputs = covariant_outputs
    bad = copy.deepcopy(outputs)
    terms = _split_top_level(bad["trips"][which]["cov_lhs"])
    k = len(terms) // 2
    sign, body = (terms[k][:3], terms[k][3:]) if k else ("", terms[k])
    terms[k] = sign + "3*" + body
    bad["trips"][which]["cov_lhs"] = "".join(terms)
    assert checks.check_covariant_roundtrip(inputs, bad)


def test_covariant_checker_rejects_a_wrong_inverse(covariant_outputs):
    inputs, outputs = covariant_outputs
    bad = copy.deepcopy(outputs)
    bad["trips"][0]["back_lhs"] += " + u_x"
    assert checks.check_covariant_roundtrip(inputs, bad)


@pytest.fixture(scope="module")
def derive_outputs():
    inputs = {"entries": [
        {"name": "g2", "params": {}, "jobs": [("free", 1), ("transitive", None)],
         "shift": workloads.Fraction(3, 4)},
        {"name": "g3_4", "params": {"h": workloads.Fraction(-1, 3)},
         "jobs": [("transitive", None)], "shift": workloads.Fraction(2)},
    ]}
    return inputs, workloads.run_derive_sweep(inputs)


def test_derive_checker_accepts_the_program(derive_outputs):
    inputs, outputs = derive_outputs
    assert outputs["failed"] == 0
    assert checks.check_derive_sweep(inputs, outputs) == []


@pytest.mark.parametrize("index", [0, 1, -1])
def test_derive_checker_rejects_a_flipped_verdict(derive_outputs, index):
    inputs, outputs = derive_outputs
    bad = copy.deepcopy(outputs)
    verdict = bad["jobs"][1]["verdicts"][index]
    verdict[2] = not verdict[2]
    assert checks.check_derive_sweep(inputs, bad)


@pytest.mark.parametrize("job", range(3))
def test_derive_checker_rejects_a_missing_invariant(derive_outputs, job):
    inputs, outputs = derive_outputs
    bad = copy.deepcopy(outputs)
    inv = json.loads(bad["jobs"][job]["set"])
    inv["invariants"].pop()
    bad["jobs"][job]["set"] = json.dumps(inv)
    assert checks.check_derive_sweep(inputs, bad)


def test_derive_checker_rejects_an_inequivalent_set(derive_outputs):
    inputs, outputs = derive_outputs
    bad = copy.deepcopy(outputs)
    inv = json.loads(bad["jobs"][2]["set"])
    inv["invariants"][-1]["expr"] = "u_xx"  # not a function of the table
    bad["jobs"][2]["set"] = json.dumps(inv)
    assert checks.check_derive_sweep(inputs, bad)


def _report(rows):
    return {"exit": 0, "stdout": json.dumps({"seed": 7, "passed": True, "rows": rows})}


def _passing_rows():
    return [{"table": t, "algebra": a, "pipeline": p, "m": m, "params": params,
             "checks": dict.fromkeys(checks.ROW_CHECKS, True),
             "error": None, "passed": True}
            for t, a, p, m, params in checks.EXPECTED_ROWS]


def test_reproduce_checker_accepts_the_paper_rows():
    assert len(checks.EXPECTED_ROWS) == 38
    assert checks.check_reproduce_all({}, _report(_passing_rows())) == []


@pytest.mark.parametrize("check", checks.ROW_CHECKS)
def test_reproduce_checker_rejects_one_failed_row(check):
    rows = _passing_rows()
    rows[20]["checks"][check] = False
    rows[20]["passed"] = False
    assert checks.check_reproduce_all({}, _report(rows))


def test_reproduce_checker_rejects_a_missing_row_and_a_bad_exit():
    assert checks.check_reproduce_all({}, _report(_passing_rows()[:-1]))
    outputs = _report(_passing_rows())
    outputs["exit"] = 1
    assert checks.check_reproduce_all({}, outputs)


def test_row_counts_count_failed_and_missing_rows():
    rows = _passing_rows()
    assert workloads.row_counts(0, json.dumps({"rows": rows})) == (38, 0)
    rows[20]["passed"] = False
    assert workloads.row_counts(1, json.dumps({"rows": rows})) == (38, 1)
    assert workloads.row_counts(1, json.dumps({"rows": rows[:-1]})) == (38, 2)
    assert workloads.row_counts(1, json.dumps({"rows": _passing_rows()})) == (38, 1)
    assert workloads.row_counts(1, "Traceback") == (38, 38)


def test_derive_sweep_keeps_a_fixed_failing_g3_5_draw():
    for seed in (1, 2):
        entries = workloads.make_derive_sweep(seed)["entries"]
        assert entries.count(workloads.P_AT_LIMIT) == 1
    outputs = workloads.run_derive_sweep({"entries": [workloads.P_AT_LIMIT]})
    assert checks.check_derive_sweep({"entries": [workloads.P_AT_LIMIT]},
                                     outputs) == []


def test_speed_sampler_times_chunks_only_while_started():
    import signal
    import time

    import speed
    sampler = speed.Sampler()
    sampler.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    sampler.stop()
    count = len(sampler.samples)
    assert count >= 3 and sampler.spent == pytest.approx(sum(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    time.sleep(0.12)
    assert len(sampler.samples) == count
    assert speed.speed(sampler.samples) > 0
