"""The number rule (``extkit.jets``): every integer, sign and finite-real
argument is checked by one owner, at every site that takes one.

An integer is a Python or numpy integer, never a bool; a real is a Python
or numpy int or float, never a bool or a string, and finite; a sign is
the integer +1 or -1.
"""
import ast
import json
import math
import pathlib

import numpy as np
import pytest

import extkit as ek
from extkit import cli, jets, verify
from extkit.catalog import euler_local_seed_field
from extkit.extension import DerivPair
from extkit.riccati import RiccatiParams

SRC = pathlib.Path(ek.__file__).resolve().parent

NOT_REALS = [True, "1", math.nan, math.inf]
NOT_INTEGERS = NOT_REALS + [2.5, 2.0]


def harmonic(y):
    return [y[1], -y[0]]


def _euler():
    built = ek.instantiate("euler_top")
    spec = ek.SampleSpec(((-0.8, 0.8), (0.3, 1.2), (0.3, 1.2)), count=2, seed=1)
    return built, built.meta["local_seed_builder"](0.0, -0.5), spec


def _first_order(**kwargs):
    built, field, spec = _euler()
    args = {"sign": 1, "step": 1e-6, **kwargs}
    return ek.first_order_residual(built.system, field, 0.0, -0.5, args["sign"], spec,
                                   step=args["step"])


def _extension(**kwargs):
    return ek.ExtensionParams(**{"c": 1.0, "c0": 1.0, "C": 1.0, "m": 1, "n": 1, **kwargs})


def _sample(**kwargs):
    return ek.SampleSpec(**{"intervals": ((0.0, 1.0),), "count": 3, "seed": 1, **kwargs})


def _stride(v):
    traj = verify.Trajectory(np.linspace(0.0, 1.0, 5), np.zeros((5, 1)), "rk4")
    return ek.conservation_report(traj, {"A": lambda y: 0.0}, stride=v)


def _sweep(**kwargs):
    return ek.recursion_closed_sweep(**{"n_max": 2, "count_real": 2, "count_complex": 1,
                                        "seed": 1, **kwargs})


def _power(**kwargs):
    args = {"m": 2, "n": 1, "r": 1, **kwargs}
    return ek.power_coeffs(args["m"], args["n"], args["r"], 0.5, 0.3, 0.2)


PAIR = DerivPair(0.5, 0.3)

# (site, rule, call with the value, what the error names)
SITES = [
    ("SampleSpec.count", "integer", lambda v: _sample(count=v), "count"),
    ("SampleSpec.seed", "integer", lambda v: _sample(seed=v), "seed"),
    ("conservation_report.stride", "integer", _stride, "stride"),
    ("recursion_closed_sweep.n_max", "integer", lambda v: _sweep(n_max=v), "n_max"),
    ("recursion_closed_sweep.count_real", "integer", lambda v: _sweep(count_real=v),
     "count_real"),
    ("recursion_closed_sweep.count_complex", "integer", lambda v: _sweep(count_complex=v),
     "count_complex"),
    ("recursion_closed_sweep.seed", "integer", lambda v: _sweep(seed=v), "seed"),
    ("ExtensionParams.m", "integer", lambda v: _extension(m=v), "index m"),
    ("ExtensionParams.n", "integer", lambda v: _extension(n=v), "index n"),
    ("recursion_term_closed.n", "integer", lambda v: ek.recursion_term_closed(v, PAIR, 0.2),
     "chain index n"),
    ("power_coeffs.m", "integer", lambda v: _power(m=v), "chain index m"),
    ("power_coeffs.n", "integer", lambda v: _power(n=v), "chain index n"),
    ("power_coeffs.r", "integer", lambda v: _power(r=v), "operator power r"),
    ("ScalarField.dim", "integer", lambda v: ek.ScalarField(lambda c: c[0], v),
     "field dimension"),
    ("PoissonStructure.dim", "integer",
     lambda v: ek.PoissonStructure(v, entries=lambda c: [[0.0]]), "bivector dimension"),
    ("canonical_structure.dim", "integer", lambda v: ek.canonical_structure(v),
     "canonical structure dimension"),
    ("integrate.t_final", "real", lambda v: ek.integrate(harmonic, [1.0, 0.0], v, dt=0.5),
     "t_final"),
    ("integrate.dt", "real", lambda v: ek.integrate(harmonic, [1.0, 0.0], 1.0, dt=v), "dt"),
    ("integrate.tol", "real",
     lambda v: ek.integrate(harmonic, [1.0, 0.0], 0.1, method="rkf45", tol=v), "tol"),
    ("integrate.dt_min", "real",
     lambda v: ek.integrate(harmonic, [1.0, 0.0], 0.1, method="rkf45", dt_min=v, dt_max=2.0),
     "dt_min"),
    ("integrate.dt_max", "real",
     lambda v: ek.integrate(harmonic, [1.0, 0.0], 0.1, method="rkf45", dt_max=v), "dt_max"),
    ("first_order_residual.step", "real", lambda v: _first_order(step=v), "step"),
    ("fd_gradient.h", "real",
     lambda v: verify.fd_gradient(lambda x: float(x[0]), np.array([1.0]), v),
     "finite-difference step"),
    ("SampleSpec.intervals", "real", lambda v: _sample(intervals=((0.0, v),)),
     "sampling interval bound"),
    ("SampleSpec.margin", "real", lambda v: _sample(margin=v), "sampling margin"),
    ("ExtensionParams.c", "real", lambda v: _extension(c=v), "extension parameter c"),
    ("ExtensionParams.c0", "real", lambda v: _extension(c0=v), "extension parameter c0"),
    ("ExtensionParams.C", "real", lambda v: _extension(C=v), "extension parameter C"),
    ("ExtensionParams.omega", "real", lambda v: _extension(omega=v),
     "extension parameter omega"),
    ("ExtensionParams.offset", "real", lambda v: _extension(offset=v),
     "extension parameter offset"),
    ("RiccatiParams.c", "real", lambda v: RiccatiParams(v, 1.0), "Riccati parameter c"),
    ("RiccatiParams.C", "real", lambda v: RiccatiParams(1.0, v), "Riccati parameter C"),
    ("RiccatiParams.offset", "real", lambda v: RiccatiParams(1.0, 1.0, v),
     "Riccati parameter offset"),
    ("first_order_residual.sign", "sign", lambda v: _first_order(sign=v), "sign"),
    ("euler_local_seed_field.branch", "sign",
     lambda v: euler_local_seed_field(3.0, 2.0, 1.0, 0.0, -0.5, branch=v), "branch"),
]

BAD = {"integer": NOT_INTEGERS, "real": NOT_REALS, "sign": NOT_INTEGERS + [1.0]}
# what each rule accepts of numpy: an integer, a real given as either kind, a sign
GOOD = {"integer": [np.int64(2)], "real": [np.int64(1), np.float64(1.0)],
        "sign": [np.int64(-1)]}


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{site}-{value!r}")
    for site, rule, call, name in SITES for value in BAD[rule]])
def test_every_site_refuses_what_the_rule_refuses(call, name, value):
    with pytest.raises(ValueError, match=name):
        call(value)


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{site}-{type(value).__name__}")
    for site, rule, call, _ in SITES for value in GOOD[rule]])
def test_every_site_takes_numpy_scalars(call, value):
    call(value)


@pytest.mark.parametrize("value", NOT_REALS)
@pytest.mark.parametrize("key, name", [("quartic1", "C1"), ("quartic2b", "c0"),
                                       ("lotka_volterra", "a")])
def test_catalog_number_parameters_follow_the_rule(key, name, value):
    with pytest.raises(ek.CatalogError, match=f"parameter '{name}' of entry '{key}'"):
        ek.instantiate(key, {name: value})
    ek.instantiate(key, {name: np.int64(2)})
    ek.instantiate(key, {name: np.float64(2.0)})


Q1 = {"system": "quartic1"}
Q1_EXT = {"c": 1, "c0": 1, "C": 1, "m": 1, "n": 1}
Q1_STATE = {"u": 0.6, "p_u": 0.4, "base": [0.9, -0.7]}
INTEGRATE = ["integrate", "--t-final", "0.01"]

Q1_RUN = {"extension": Q1_EXT, "initial_state": Q1_STATE}
# (config key, its section, the command, the rest of a valid document, rule)
CONFIG_KEYS = [
    ("count", "sampling", ["check-pde"], {}, "integer"),
    ("seed", "sampling", ["check-pde"], {}, "integer"),
    ("margin", "sampling", ["check-pde"], {}, "real"),
    ("stride", "integration", INTEGRATE, Q1_RUN, "integer"),
    ("dt", "integration", INTEGRATE, Q1_RUN, "real"),
    ("tol", "integration", INTEGRATE, Q1_RUN, "real"),
    ("t_final", "integration", ["integrate"], Q1_RUN, "real"),
    ("u", "initial_state", INTEGRATE, Q1_RUN, "real"),
    ("p_u", "initial_state", INTEGRATE, Q1_RUN, "real"),
] + [(key, "extension", INTEGRATE, Q1_RUN, "integer" if key in ("m", "n") else "real")
     for key in ("c", "c0", "C", "m", "n", "omega", "offset")]


@pytest.mark.parametrize("argv, doc, needle", [
    pytest.param(argv, {**Q1, **rest, section: {**rest.get(section, {}), key: value}},
                 # a real is read where it is picked, an integer by the library's own check;
                 # both errors name the key once, as the number rule words them
                 f"{key} must be an integer" if rule == "integer"
                 else f"error: {key} must be a finite real number, got {value!r}\n",
                 id=f"{key}-{value!r}")
    for key, section, argv, rest, rule in CONFIG_KEYS for value in BAD[rule]])
def test_the_cli_reads_config_numbers_by_the_rule(argv, doc, needle, tmp_path, capsys,
                                                  monkeypatch):
    # "count": 2.7 once ran on 2 points, "dt": true integrated with step 1
    monkeypatch.delenv("EXTKIT_SEED", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    report = tmp_path / "r.json"
    code = cli.main([*argv, "--config", str(cfg), "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1
    assert needle in err and not report.exists()


def _bool_tests(tree: ast.AST):
    """(function, line) of each ``isinstance(..., bool)`` test, by enclosing function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            if (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance"
                    and len(child.args) == 2
                    and any(getattr(n, "id", None) == "bool" for n in ast.walk(child.args[1]))):
                found.append((where, child.lineno))
            visit(child, inner)

    visit(tree, "<module>")
    return found


# The owner tests exact types and needs none; these two test for a bool for another
# reason: serialising a report and the complex rule of a catalog constant.
ALLOWED_BOOL_TESTS = {("cli.py", "_fmt_json"), ("catalog.py", "_finite_complex")}


def test_only_the_owner_tests_for_a_bool():
    stray = [(path.name, fn, line) for path in sorted(SRC.glob("*.py"))
             for fn, line in _bool_tests(ast.parse(path.read_text()))
             if (path.name, fn) not in ALLOWED_BOOL_TESTS]
    assert stray == []


def test_the_source_check_sees_a_bool_test():
    src = "def f(v):\n    return isinstance(v, (int, bool))\n"
    assert _bool_tests(ast.parse(src)) == [("f", 2)]


Q1_FLAGS = ["--system", "quartic1", "--c", "1", "--c0", "1", "--C", "1", "--m", "1", "--n", "1"]


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "0"])
@pytest.mark.parametrize("argv, flag", [
    (["check-pde", "--system", "quartic1", "--samples", "5"], "--tol"),
    (["check-kn", "--samples", "3"], "--tol"),
    (["extend", *Q1_FLAGS, "--state", "0.6,0.4,0.9,-0.7", "--samples", "2"], "--tol"),
    (["bracket", *Q1_FLAGS, "--samples", "2"], "--tol"),
    (["gn-compare", "--n-max", "2", "--samples", "5", "--complex-samples", "0"], "--tol"),
    (["integrate", *Q1_FLAGS, "--state", "0.6,0.4,0.9,-0.7", "--t-final", "0.01"],
     "--drift-tol"),
], ids=["check-pde", "check-kn", "extend", "bracket", "gn-compare", "integrate"])
def test_a_gate_tolerance_must_be_finite_and_positive(argv, flag, value, tmp_path, capsys):
    # --tol nan and --tol -1 once failed every gate (exit 1), --tol inf passed every one
    report = tmp_path / "r.json"
    code = cli.main([*argv, flag, value, "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be finite and positive")
    assert not report.exists()


def test_a_rank_expectation_must_be_a_nonnegative_integer(tmp_path, capsys):
    # --expect -1 once read as a failed gate (exit 1)
    report = tmp_path / "r.json"
    code = cli.main(["rank", *Q1_FLAGS, "--samples", "2", "--expect", "-1",
                     "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2 and err == "error: expect must be an integer of at least 0, got -1\n"
    assert not report.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--c", "--c0"])
@pytest.mark.parametrize("argv", [["check-pde", "--system", "quartic1", "--samples", "5"],
                                  ["check-kn", "--samples", "5"]],
                         ids=["check-pde", "check-kn"])
def test_a_seed_constant_override_must_be_a_finite_real(argv, flag, value, tmp_path, capsys):
    # --c nan once read as a failed gate (exit 1)
    report = tmp_path / "r.json"
    code = cli.main([*argv, flag, value, "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2 and err == f"error: {flag[2:]} must be a finite real number, got {value}\n"
    assert not report.exists()


def test_an_int_too_large_for_a_float_is_not_a_finite_real(tmp_path, capsys):
    # math.isfinite raises OverflowError on it, which once ended the CLI in a traceback
    huge = 10**400
    with pytest.raises(ValueError, match="dt must be a finite real number"):
        jets._real(huge, "dt")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**Q1, **Q1_RUN, "integration": {"dt": huge}}))
    report = tmp_path / "r.json"
    code = cli.main([*INTEGRATE, "--config", str(cfg), "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2 and err == f"error: dt must be a finite real number, got {huge}\n"
    assert not report.exists()


@pytest.mark.parametrize("section, key", [("integration", "dt"), ("integration", "tol"),
                                          ("integration", "t_final"), ("extension", "omega"),
                                          ("initial_state", "p_u")])
@pytest.mark.parametrize("value", [math.nan, 10**400], ids=["nan", "int-too-large"])
def test_a_refused_config_number_is_named_once(section, key, value, tmp_path, capsys):
    # the line once read "bad value nan for 'dt': value must be ..., got nan",
    # and printed a 401-digit integer twice
    doc = {**Q1, **Q1_RUN}
    doc[section] = {**doc.get(section, {}), key: value}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = cli.main(["integrate", "--config", str(cfg)])  # refused before it integrates
    err = capsys.readouterr().err
    assert code == 2 and err == f"error: {key} must be a finite real number, got {value!r}\n"
    assert err.count(repr(value)) == 1


def test_integrate_refuses_a_bad_stride_before_it_integrates(tmp_path, capsys, monkeypatch):
    # "stride": 2.5 once ran the whole integration before conservation_report refused it
    def integrate(*args, **kwargs):
        raise AssertionError("integrated before the stride was read")

    monkeypatch.setattr(verify, "integrate", integrate)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**Q1, **Q1_RUN, "integration": {"stride": 2.5}}))
    report = tmp_path / "r.json"
    code = cli.main([*INTEGRATE, "--config", str(cfg), "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2 and err == "error: stride must be an integer of at least 1, got 2.5\n"
    assert not report.exists()
