"""Command-line contract: exit codes, report schema, CSV shape, determinism."""
import argparse
import inspect
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from extkit import cli, verify

STATE_Q1 = "0.6,0.4,0.9,-0.7"


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_exits_clean(capsys):
    code, out, _ = run(["list"], capsys)
    assert code == 0
    assert "quartic1" in out and "euler_top" in out


def test_show_unknown_entry_is_config_error(capsys):
    code, _, err = run(["show", "--system", "nope"], capsys)
    assert code == 2
    assert "nope" in err


def test_check_pde_passes_and_reports_schema(capsys):
    code, out, _ = run(["check-pde", "--system", "quartic1",
                        "--samples", "20", "--seed", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "config_echo", "metrics", "gates",
                        "skipped_points"}
    assert doc["command"] == "check-pde"
    gate = doc["gates"][0]
    assert set(gate) == {"name", "value", "tol", "pass"}
    assert gate["pass"] is True


def test_check_pde_without_seed_is_config_error(capsys):
    code, _, err = run(["check-pde", "--system", "lotka_volterra"], capsys)
    assert code == 2
    assert "no seed solution" in err


def test_check_pde_gate_failure_exits_one(capsys):
    # wrong constant on purpose; failing report must name the worst point
    code, out, _ = run(["check-pde", "--system", "quartic1", "--c0", "1.4",
                        "--samples", "20", "--seed", "3"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["gates"][0]["pass"] is False
    assert "worst_point" in doc["metrics"]
    assert doc["metrics"]["max_residual"] > 1e-7


def test_float_formatting_17_digits(tmp_path, capsys):
    rpt = tmp_path / "r.json"
    code, _, _ = run(["check-pde", "--system", "quartic1", "--samples", "10",
                      "--seed", "3", "--report", str(rpt)], capsys)
    assert code == 0
    text = rpt.read_text()
    m = re.search(r'"max_residual": ([-0-9.eE+]+)', text)
    assert m is not None
    v = float(m.group(1))
    assert f"{v:.17g}" == m.group(1)


def test_reports_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["check-pde", "--system", "quartic2a", "--samples", "25", "--seed", "11"]
    assert cli.main(args + ["--report", str(a)]) == 0
    assert cli.main(args + ["--report", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "quartic1",
                               "sampling": {"coutn": 5}}))
    code, _, err = run(["check-pde", "--config", str(cfg)], capsys)
    assert code == 2
    assert "coutn" in err


def test_unknown_config_section_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "quartic1", "sampler": {}}))
    code, _, err = run(["check-pde", "--config", str(cfg)], capsys)
    assert code == 2
    assert "sampler" in err


def test_env_seed_overrides_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "quartic1",
                               "sampling": {"count": 10, "seed": 1}}))
    monkeypatch.setenv("EXTKIT_SEED", "77")
    code, out, _ = run(["check-pde", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["config_echo"]["sampling"]["seed"] == 77


def test_flag_beats_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("EXTKIT_SEED", "77")
    code, out, _ = run(["check-pde", "--system", "quartic1", "--samples", "10",
                        "--seed", "5"], capsys)
    assert code == 0
    assert json.loads(out)["config_echo"]["sampling"]["seed"] == 5


def test_extend_reports_values(capsys):
    code, out, _ = run(["extend", "--system", "quartic1", "--c", "1",
                        "--c0", "1", "--C", "1", "--m", "1", "--n", "1",
                        "--state", STATE_Q1, "--samples", "5", "--seed", "2"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert "H" in doc["metrics"] and "K" in doc["metrics"]


def test_extend_requires_full_parameter_set(capsys):
    code, _, err = run(["extend", "--system", "quartic1", "--c", "1",
                        "--state", STATE_Q1], capsys)
    assert code == 2
    assert "required" in err


def test_integrate_writes_contract_csv(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "vortex_opposite",
        "extension": {"c": 0.0, "c0": 0.5, "C": 1.0, "m": 1, "n": 1},
        "initial_state": {"u": 0.7, "p_u": 0.3, "base": [0.8, -0.4, 0.5, 0.9]},
        "integration": {"t_final": 1.0, "dt": 0.001, "stride": 100},
    }))
    code, _, _ = run(["integrate", "--config", str(cfg), "--csv", str(csv)],
                     capsys)
    assert code == 0
    lines = csv.read_text().split("\n")
    assert lines[0] == "t,u,p_u,X1t,Y1t,X2t,Y2t,H,L,K_re,K_im"
    row = lines[1].split(",")
    assert len(row) == 11
    float(row[0])  # plain decimal point parses
    assert ";" not in lines[1]


def test_integrate_base_flow_only(tmp_path, capsys):
    csv = tmp_path / "lv.csv"
    code, out, _ = run(["integrate", "--system", "lotka_volterra",
                        "--base-only", "--state", "1.2,0.8",
                        "--t-final", "1", "--drift-tol", "1e-8",
                        "--csv", str(csv)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["drifts"]["L"] <= 1e-8
    assert csv.read_text().split("\n")[0] == "t,x,y,L"


def test_integrate_drift_gate_failure(capsys):
    # coarse step on purpose
    code, out, _ = run(["integrate", "--system", "quartic1", "--c", "1",
                        "--c0", "1", "--C", "1", "--m", "1", "--n", "1",
                        "--state", STATE_Q1, "--t-final", "10",
                        "--dt", "0.25", "--drift-tol", "1e-12"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert any(not g["pass"] for g in doc["gates"])


def test_bracket_gate(capsys):
    code, out, _ = run(["bracket", "--system", "quartic1", "--c", "1",
                        "--c0", "1", "--C", "1", "--m", "2", "--n", "1",
                        "--samples", "8", "--seed", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["bracket_max_normalized"] <= 1e-5


def test_rank_expectation_gate(capsys):
    args = ["rank", "--system", "quartic1", "--c", "1", "--c0", "1",
            "--C", "1", "--m", "1", "--n", "1", "--samples", "6",
            "--seed", "8", "--fields", "H,K,L"]
    code, out, _ = run(args + ["--expect", "3"], capsys)
    assert code == 0
    code, out, _ = run(args + ["--expect", "4"], capsys)
    assert code == 1


def test_rank_reads_full_rank_where_gradient_sizes_differ(capsys):
    # at (m, n) = (3, 2) |grad K| reaches 1e5 times |grad L|
    code, out, _ = run(["rank", "--system", "quartic1", "--c", "1", "--c0", "1",
                        "--C", "1", "--m", "3", "--n", "2", "--samples", "200"], capsys)
    assert code == 0
    assert json.loads(out)["metrics"]["rank"] == 3


@pytest.mark.parametrize("system, kname", [("quartic1", "K"), ("vortex_equal", "K_re"),
                                           ("vortex_opposite", "K_re")])
def test_rank_default_fields_name_the_integral(system, kname, capsys):
    c = "1" if system == "quartic1" else "0"
    c0 = "1" if system == "quartic1" else "0.5"
    code, out, _ = run(["rank", "--system", system, "--c", c, "--c0", c0, "--C", "1",
                        "--m", "1", "--n", "1", "--samples", "6"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config_echo"]["fields"] == ["H", "L", kname]
    assert doc["metrics"]["rank"] == 3


SQUARE_POLAR_H = ["--system", "square_polar", "--c", "1", "--c0", "0", "--C", "1",
                  "--m", "1", "--n", "1", "--h", "0.5"]


def test_rank_skips_a_state_whose_stencil_meets_the_singular_set(capsys):
    # with h = 0.5, four of the twenty stencils reach the singular set of L
    code, out, _ = run(["rank", *SQUARE_POLAR_H], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["skipped_points"] == 4
    assert doc["metrics"] == {"rank": 3, "n_states": 16}


def test_bracket_counts_brackets_where_rank_counts_states(capsys):
    # one bracket per state and field; h = 0.5 is too coarse for the gate itself
    _, out, _ = run(["bracket", *SQUARE_POLAR_H], capsys)
    doc = json.loads(out)
    assert (doc["metrics"]["n_checked"], doc["skipped_points"]) == (36, 14)


# y = cot u vanishes at pi/2 to within 1e-13 here: a pole of omega / y^2
AT_THE_CENTRIFUGAL_POLE = ["--system", "quartic1", "--c", "1", "--c0", "1", "--C", "1",
                           "--m", "2", "--n", "1", "--omega", "0.3", "--samples", "5",
                           "--u-range", "1.5707963267948,1.5707963267949"]


@pytest.mark.parametrize("command, metrics", [
    ("rank", {"rank": None, "n_states": 0}),
    ("bracket", {"bracket_max_normalized": None, "n_checked": 0}),
])
def test_a_gate_with_no_point_evaluated_fails(command, metrics, capsys):
    code, out, _ = run([command, *AT_THE_CENTRIFUGAL_POLE], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["metrics"] == metrics
    assert doc["skipped_points"] == 5
    assert doc["gates"][0]["pass"] is False


def test_rank_unknown_field_rejected(capsys):
    code, _, err = run(["rank", "--system", "quartic1", "--c", "1",
                        "--c0", "1", "--C", "1", "--m", "1", "--n", "1",
                        "--fields", "H,Q9"], capsys)
    assert code == 2
    assert "Q9" in err


def test_rank_fields_naming_no_field_rejected(capsys):
    code, _, err = run(["rank", "--system", "quartic1", "--c", "1",
                        "--c0", "1", "--C", "1", "--m", "1", "--n", "1",
                        "--fields", ",,,"], capsys)
    assert code == 2
    assert "names no field" in err


def test_gn_compare_documented_invocation(capsys):
    code, out, _ = run(["gn-compare", "--n-max", "8", "--samples", "200",
                        "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["gates"][0]["name"] == "recursion_max_rel"
    assert doc["metrics"]["max_rel_err"] <= 1e-10


def test_invalid_extension_numbers_are_config_errors(capsys):
    code, _, err = run(["extend", "--system", "quartic1", "--c", "0",
                        "--c0", "0", "--C", "1", "--m", "1", "--n", "1",
                        "--state", STATE_Q1], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_integrate_overflow_truncates_with_a_reason(capsys):
    # past the pole of quartic2b the flow blows up until q**7 overflows
    code, out, _ = run(["integrate", "--system", "quartic2b", "--c", "1", "--c0", "1",
                        "--C", "1", "--m", "1", "--n", "1",
                        "--state", "0.6,0.4,1.0,0.5", "--t-final", "5"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["metrics"]["truncated"] is True
    assert "overflows" in doc["metrics"]["truncation_reason"]
    failed = [g["name"] for g in doc["gates"] if not g["pass"]]
    assert "trajectory_completed" in failed


def test_cli_import_loads_no_scipy():
    probe = "import sys, extkit.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


VORTEX_BAD_PAIR = ["--system", "vortex_opposite", "--c", "1", "--c0", "0.5", "--C", "1",
                   "--m", "1", "--n", "1"]
VORTEX_STATE = "0.7,0.3,0.8,-0.4,0.5,0.9"


def assert_one_line_error(code, err, *needles):
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize("command, extra", [
    ("extend", ["--state", VORTEX_STATE]),
    ("bracket", ["--samples", "2"]),
    ("rank", ["--samples", "2"]),
    ("integrate", ["--state", VORTEX_STATE, "--t-final", "0.01"]),
])
def test_unsupported_c_pair_is_config_error(command, extra, capsys):
    code, _, err = run([command, *VORTEX_BAD_PAIR, *extra], capsys)
    assert_one_line_error(code, err, "(c, c0) = (1.0, 0.5)")


@pytest.mark.parametrize("command, extra", [("extend", ["--samples", "2"]),
                                            ("integrate", ["--t-final", "0.01"])])
def test_initial_state_on_a_pole_is_config_error(command, extra, capsys):
    code, _, err = run([command, "--system", "quartic1", "--c", "1", "--c0", "1",
                        "--C", "1", "--m", "1", "--n", "1",
                        "--state", "0.0,0.4,0.9,-0.7", *extra], capsys)
    assert_one_line_error(code, err, "pole")


@pytest.mark.parametrize("command, extra", [("extend", ["--samples", "2"]),
                                            ("integrate", ["--t-final", "0.01"])])
def test_initial_state_on_the_seed_branch_cut_is_config_error(command, extra, capsys):
    # H and L evaluate here; only K meets the branch cut of vortex_equal's seed
    code, _, err = run([command, "--system", "vortex_equal", "--c", "0", "--c0", "0.5",
                        "--C", "1", "--m", "1", "--n", "1",
                        "--state", "0.7,0.3,0,0.2,-0.5,0.1", *extra], capsys)
    assert_one_line_error(code, err, "vortex_equal.G", "singular set")


Q1_EXTENSION = {"c": 1, "c0": 1, "C": 1, "m": 1, "n": 1}
Q1_INITIAL = {"u": 0.6, "p_u": 0.4, "base": [0.9, -0.7]}


@pytest.mark.parametrize("argv, doc, key", [
    (["check-pde"], {"system": "quartic1", "sampling": {"count": None}}, "count"),
    (["extend"], {"system": "quartic1", "extension": {**Q1_EXTENSION, "c": [1]},
                  "initial_state": Q1_INITIAL}, "error: c must be a finite real number"),
    (["check-pde"], {"system": "quartic1", "sampling": {"intervals": 5}}, "intervals"),
    (["integrate", "--base-only", "--t-final", "0.01"],
     {"system": "lotka_volterra", "initial_state": {"base": 3}}, "base"),
    (["integrate", "--base-only", "--t-final", "0.01"],
     {"system": "lotka_volterra", "initial_state": {"base": [1.0, 2.0, 3.0]}},
     "2 coordinates"),
    (["check-kn"], {"sampling": {"intervals": [[-0.8, 0.8], [0.3, 1.2]]}}, "intervals"),
])
def test_config_value_of_wrong_type_or_shape_is_config_error(argv, doc, key, tmp_path,
                                                             capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run([*argv, "--config", str(cfg)], capsys)
    assert_one_line_error(code, err, key)


@pytest.mark.parametrize("flag", ["--seed", "--margin"])
def test_integrate_takes_no_sampling_flags(flag):
    # integrate samples nothing, so it reads neither flag
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["integrate", flag, "1"])


Q1_EXTEND_FLAGS = ["--system", "quartic1", "--c", "1", "--c0", "1", "--C", "1",
                   "--m", "1", "--n", "1"]


# Number inputs that have no meaning: a step or tolerance that is not finite and
# positive, a final time that is not finite, a boolean catalog constant, a sampling
# margin that is not finite and nonnegative, a negative seed, a rank threshold
# outside (0, 1), a recursion sweep that compares nothing.  Each is
# a config error whose one line names the offending parameter, with no report.
@pytest.mark.parametrize("argv, needle", [
    (["check-kn", "--step", "0", "--samples", "3"], "step"),
    (["bracket", *Q1_EXTEND_FLAGS, "--h", "0", "--samples", "2"], "step"),
    (["rank", *Q1_EXTEND_FLAGS, "--h", "0", "--samples", "2"], "step"),
    (["integrate", *Q1_EXTEND_FLAGS, "--state", STATE_Q1, "--t-final", "inf"], "t_final"),
    (["integrate", *Q1_EXTEND_FLAGS, "--state", STATE_Q1, "--t-final", "nan"], "t_final"),
    (["integrate", *Q1_EXTEND_FLAGS, "--state", STATE_Q1, "--t-final", "1", "--dt", "inf"],
     "dt"),
    # 1e13 rk4 steps: over the step budget, refused before any state is stored
    (["integrate", *Q1_EXTEND_FLAGS, "--state", STATE_Q1, "--dt", "1e-12", "--t-final", "10"],
     "dt = 1e-12 and t_final = 10.0"),
    (["integrate", *Q1_EXTEND_FLAGS, "--state", STATE_Q1, "--t-final", "0.01",
      "--method", "rkf45", "--tol", "-1"], "tol"),
    (["integrate", *Q1_EXTEND_FLAGS, "--state", STATE_Q1, "--t-final", "0.01",
      "--method", "rkf45", "--tol", "nan"], "tol"),
    (["check-pde", "--system", "quartic1", "--param", "C1=true", "--samples", "5"], "C1"),
    (["check-pde", "--system", "vortex_equal", "--param", "F1=true", "--samples", "5"],
     "F1"),
    (["check-pde", "--system", "vortex_equal", "--param", "F1=abc", "--samples", "5"],
     "parameter 'F1' of entry 'vortex_equal' must be a real or complex number (got 'abc')"),
    (["check-pde", "--system", "quartic1", "--samples", "5", "--margin", "nan"], "margin"),
    (["check-pde", "--system", "quartic1", "--samples", "5", "--seed", "-1"], "seed"),
    (["rank", *Q1_EXTEND_FLAGS, "--threshold", "nan", "--samples", "2"], "threshold"),
    (["gn-compare", "--samples", "0", "--complex-samples", "0"], "no triple"),
    (["gn-compare", "--samples", "-3"], "count_real"),
    (["gn-compare", "--n-max", "0"], "n_max"),
], ids=["check-kn-step-0", "bracket-h-0", "rank-h-0", "integrate-t-final-inf",
        "integrate-t-final-nan", "integrate-dt-inf", "integrate-over-step-budget",
        "integrate-rkf45-tol-negative",
        "integrate-rkf45-tol-nan",
        "check-pde-bool-C1", "check-pde-bool-F1", "check-pde-string-F1",
        "check-pde-margin-nan", "check-pde-seed-negative", "rank-threshold-nan",
        "gn-compare-no-samples", "gn-compare-samples-negative", "gn-compare-n-max-0"])
def test_bad_numeric_input_is_one_line_config_error(argv, needle, tmp_path, capsys):
    report = tmp_path / "r.json"
    code, out, err = run([*argv, "--report", str(report)], capsys)
    assert_one_line_error(code, err, needle)
    assert out == "" and not report.exists()


def test_a_complex_value_is_not_serialized():
    # no report holds one: a complex K is split into K_re and K_im
    for obj in (1 + 2j, {"K": [0.5, np.complex128(1j)]}):
        with pytest.raises(TypeError, match="cannot serialize complex"):
            cli._fmt_json(obj)


def _subcommands() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _default_of(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_every_cli_default_is_the_library_value_it_mirrors(capsys):
    # each default is declared once, so the parser holds the library's own object
    subs = _subcommands()
    for cmd in ("bracket", "rank"):
        assert subs[cmd].get_default("h") is _default_of(verify.fd_gradient, "h")
        assert subs[cmd].get_default("h") is _default_of(verify.bracket_sweep, "h")
        assert subs[cmd].get_default("h") is _default_of(verify.state_ranks, "h")
    assert subs["rank"].get_default("threshold") is _default_of(verify.state_ranks, "threshold")
    assert subs["check-kn"].get_default("step") is _default_of(verify.first_order_residual,
                                                               "step")
    assert subs["check-pde"].get_default("tol") is verify.PDE_TOL
    assert subs["extend"].get_default("tol") is subs["bracket"].get_default("tol")
    # integrate's step and tolerance reach the report only through the config echo
    code, out, _ = run(["integrate", *Q1_EXTEND_FLAGS, "--state", STATE_Q1,
                        "--t-final", "0.01"], capsys)
    echo = json.loads(out)["config_echo"]["integration"]
    assert code == 0
    assert echo["dt"] == _default_of(verify.integrate, "dt")
    assert echo["tol"] == _default_of(verify.integrate, "tol")


class _Drawn(Exception):
    pass


@pytest.mark.parametrize("argv", [
    ["check-pde", "--system", "quartic1"],
    ["check-kn"],
    ["extend", *Q1_EXTEND_FLAGS, "--state", STATE_Q1],
    ["bracket", *Q1_EXTEND_FLAGS],
    ["rank", *Q1_EXTEND_FLAGS],
], ids=lambda argv: argv[0])
def test_each_sampling_command_draws_the_count_its_help_names(argv, monkeypatch, capsys):
    def sample_points(spec, singular=None):
        raise _Drawn(spec.count)

    monkeypatch.setattr(verify, "sample_points", sample_points)
    with pytest.raises(_Drawn) as drawn:
        cli.main(argv)
    assert f"sample count (default {drawn.value.args[0]})" in _subcommands()[argv[0]].format_help()


@pytest.mark.parametrize("flag", ["--omega", "--offset"])
def test_integrate_takes_a_lone_omega_or_offset_as_an_extension_flag(flag, capsys):
    # both were once dropped: the base flow ran and the echo had no extension
    code, out, err = run(["integrate", "--system", "quartic1", flag, "0.3",
                          "--state", "0.9,-0.7", "--t-final", "0.01"], capsys)
    assert_one_line_error(code, err, "['c', 'c0', 'C', 'm', 'n'] are required")
    assert out == ""


@pytest.mark.parametrize("spec, needle", [
    ({"kind": "poly", "coeffs": 5}, "not iterable"),
    ({"kind": "sin", "amplitude": None}, "amplitude must be a finite real number, got None"),
    ({"kind": "const", "value": True}, "value must be a finite real number, got True"),
    ({"kind": "poly", "coeffs": ["abc"]}, "each of coeffs must be a finite real number"),
], ids=["coeffs-not-a-list", "amplitude-null", "value-bool", "coeffs-string"])
def test_a_function_spec_reads_its_numbers_by_the_rule(spec, needle, capsys):
    # a TypeError traceback (exit 1), True taken as 1.0, or float()'s message naming nothing
    code, out, err = run(["check-pde", "--system", "quartic1", "--samples", "5",
                          "--param", f"f={json.dumps(spec)}"], capsys)
    assert_one_line_error(code, err, "parameter 'f' of entry 'quartic1'", needle)
    assert out == ""


def test_integrate_truncates_where_the_profile_overflows(capsys):
    # a hyperbolic profile far out in u: the run truncates and names u, no traceback
    code, out, _ = run(["integrate", "--system", "quartic2a", "--c", "1", "--c0", "1",
                        "--C", "-0.5", "--m", "1", "--n", "1", "--state", "1.0,0.0,1.0,-2.0",
                        "--method", "rkf45", "--t-final", "0.2"], capsys)
    assert code == 1
    metrics = json.loads(out)["metrics"]
    assert metrics["truncated"] is True
    assert "Riccati solution overflows at u = " in metrics["truncation_reason"]


# Inputs a command cannot start from: a config file that is missing, not JSON,
# not an object or holds a section that is no object; a --param without "=";
# no --system; an entry without the local seed check-kn needs; extension
# flags with no initial state.  Each is a one-line config error.
@pytest.mark.parametrize("argv, text, needle", [
    (["check-pde", "--system", "quartic1"], None, "cannot read config file"),
    (["check-pde", "--system", "quartic1"], "{not json", "config file is not valid JSON"),
    (["check-pde", "--system", "quartic1"], "[1, 2]", "config document must be a JSON object"),
    (["check-pde", "--system", "quartic1"], '{"sampling": 3}',
     "config section 'sampling' must be an object"),
    (["check-pde", "--system", "quartic1", "--param", "C1"], "",
     "--param needs NAME=VALUE, got 'C1'"),
    (["check-pde"], "", "--system is required"),
    (["check-kn", "--system", "quartic1"], "",
     "entry 'quartic1' serves no elliptic-integral local seed"),
    (["integrate", *Q1_EXTEND_FLAGS], "",
     "an initial state is required (--state, or config 'initial_state' keys "
     "['u', 'p_u', 'base'])"),
], ids=["config-missing", "config-not-json", "config-array", "config-section-not-object",
        "param-without-equals", "no-system", "check-kn-without-local-seed",
        "integrate-without-state"])
def test_an_input_a_command_cannot_start_from_is_a_config_error(argv, text, needle, tmp_path,
                                                                 capsys):
    if text != "":
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        argv = [*argv, "--config", str(cfg)]
    report = tmp_path / "r.json"
    code, out, err = run([*argv, "--report", str(report)], capsys)
    assert_one_line_error(code, err, needle)
    assert out == "" and not report.exists()
