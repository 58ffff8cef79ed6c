"""Command-line front end.

Subcommands browse the catalog, run residual and involution gates,
build extensions, integrate flows and compare the chain recursion with
its closed form.  Reports are JSON with sorted keys and 17-significant-
digit floats, so identical configuration and seed give byte-identical
output.  Exit codes: 0 all gates pass, 1 a gate failed, 2 invalid
input or configuration.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Any, Callable

import numpy as np

from . import __version__, catalog, verify
from .extension import Extension, ExtensionBuildError, ExtensionParams, build_extension
from .jets import EvaluationError, _integer, _real
from .poisson import base_flow
from .verify import RejectionError, SampleSpec

EXIT_OK = 0
EXIT_GATE = 1
EXIT_CONFIG = 2

# Sample count of each sampling command where neither --samples nor the
# config sets one.
_SAMPLE_COUNTS = {"check-pde": 100, "check-kn": 60, "extend": 10, "bracket": 50, "rank": 20}
# Gate on the normalised bracket {H, K} of extend and bracket.
_INVOLUTION_TOL = 1e-5


class ConfigError(Exception):
    """Bad command line or config document."""


# ------------------------------------------------------------- JSON emission


def _fmt_json(obj, indent=0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            return "null"
        return f"{v:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_fmt_json(v, indent + 1) for v in list(obj)]
        if not items:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + it for it in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        lines = []
        for k in sorted(obj):
            lines.append("  " * (indent + 1) + json.dumps(str(k)) + ": "
                         + _fmt_json(obj[k], indent + 1))
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_csv(path: str, header: list[str], rows: list[list[float]]):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


def _gate(name: str, value: float | None, tol: float, ok: bool | None = None) -> dict:
    passed = (value <= tol) if ok is None else ok
    return {"name": name, "value": value, "tol": tol, "pass": bool(passed)}


def _finish(command: str, echo: dict, metrics: dict, gates: list[dict], skipped: int,
            path: str | None) -> int:
    """Write the report to ``path`` (stdout if unset); exit 1 if a gate failed."""
    report = {"command": command, "config_echo": echo, "metrics": metrics,
              "gates": gates, "skipped_points": skipped}
    text = _fmt_json(report) + "\n"
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all(g["pass"] for g in gates) else EXIT_GATE


# ---------------------------------------------------------------- config


_SECTION_KEYS = {
    "system": None,
    "system_params": None,
    "extension": {"c", "c0", "C", "m", "n", "omega", "offset"},
    "sampling": {"count", "seed", "margin", "intervals", "u_range", "pu_range"},
    "integration": {"method", "dt", "tol", "t_final", "stride"},
    "initial_state": {"u", "p_u", "base"},
    "output": {"report", "csv"},
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(cfg) - set(_SECTION_KEYS))
    if unknown:
        raise ConfigError(f"unknown config section(s) {unknown}; "
                          f"known: {sorted(_SECTION_KEYS)}")
    for section, sub in cfg.items():
        if section == "system":
            continue
        if not isinstance(sub, dict):
            raise ConfigError(f"config section '{section}' must be an object")
        keys = _SECTION_KEYS[section]
        bad = sorted(set(sub) - keys) if keys is not None else []
        if bad:
            raise ConfigError(f"unknown key(s) {bad} in config section '{section}'; "
                              f"known: {sorted(keys)}")
    return cfg


def _parse_param_flags(pairs: list[str] | None) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--param needs NAME=VALUE, got {item!r}")
        name, raw = item.split("=", 1)
        try:
            out[name] = json.loads(raw)
        except json.JSONDecodeError:
            out[name] = raw
    return out


def _floats(value) -> tuple[float, ...]:
    """A 'a,b,...' string read by ``float``, or a list of numbers read by the
    number rule (:func:`extkit.jets._real`), as floats."""
    if isinstance(value, str):
        return tuple(float(v) for v in value.split(","))
    return tuple(map(_real, value))


def _pair(value) -> tuple[float, float]:
    lo, hi = _floats(value)
    return lo, hi


def _box(value) -> tuple[tuple[float, float], ...]:
    return tuple(_pair(iv) for iv in value)


def _pick(flag, section: dict, key: str, default, kind: Callable | None = None):
    """The flag, else the config value, else ``default``, read by ``kind``.

    ``kind`` converts the picked value (``_real``, the number rule's reader
    of a real, which names ``key`` in its own error, or ``str``,
    ``_floats``, ``_pair`` or ``_box``); a value they reject is a
    :class:`ConfigError` naming ``key``.  Without a ``kind``
    the value is passed on as it is: the integers count, seed, stride, m
    and n, which the library checks by the number rule under those names.
    An absent value gives ``default`` as it is.
    """
    if flag is not None:
        value = flag
    elif key in section:
        value = section[key]
    else:
        return default
    if kind is _real:
        return _real(value, key)
    try:
        return kind(value) if kind else value
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value {value!r} for '{key}': {e}") from None


def _seed_value(flag, section: dict, default: int) -> int:
    # Precedence: flag > EXTKIT_SEED > config file > default.
    env = os.environ.get("EXTKIT_SEED")
    if flag is None and env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"EXTKIT_SEED must be an integer, got {env!r}") from None
    return _pick(flag, section, "seed", default)


class _Run:
    """One system command's inputs, each read once.

    Loads and checks the config, merges ``--param`` over its
    ``system_params``, instantiates the entry, and records in ``echo``
    every value it reads, for the report's ``config_echo``.
    """

    def __init__(self, args, default_system: str | None = None):
        self.args = args
        self.cfg = _load_config(args.config)
        system_id = _pick(args.system, self.cfg, "system", default_system, str)
        if not system_id:
            raise ConfigError("--system is required")
        params = {**self.cfg.get("system_params", {}), **_parse_param_flags(args.param)}
        self.built = catalog.instantiate(system_id, params)
        self.entry = catalog.get_entry(system_id)
        self.echo: dict[str, Any] = {"system": system_id, "system_params": params}

    def section(self, name: str) -> dict:
        return self.cfg.get(name, {})

    def extension(self) -> Extension:
        """The extension named by the flags and the config 'extension' section."""
        a, sec = self.args, self.section("extension")
        values = {key: _pick(flag, sec, key, None, kind) for key, flag, kind in (
            ("c", a.c, _real), ("c0", a.c0, _real), ("C", a.big_c, _real),
            ("m", a.m, None), ("n", a.n, None))}
        missing = [key for key, v in values.items() if v is None]
        if missing:
            raise ConfigError(f"extension parameter(s) {missing} are required "
                              "(flags or config 'extension' section)")
        params = ExtensionParams(**values,
                                 omega=_pick(a.omega, sec, "omega", 0.0, _real),
                                 offset=_pick(a.offset, sec, "offset", 0.0, _real))
        self.echo["extension"] = dataclasses.asdict(params)
        return build_extension(self.built.system, self.built.seed, params)

    def initial_state(self, extended: Extension | None) -> np.ndarray:
        """``--state`` or the config initial state, as one flat vector.

        Extended states are (u, p_u, base...), base-flow states the base
        coordinates.  The state must have the system's dimension, and every
        observable the command reports (see :meth:`observables`) must
        evaluate there.
        """
        if self.args.state is not None:
            values = _pick(self.args.state, {}, "state", None, _floats)
        else:
            sec = self.section("initial_state")
            keys = ("u", "p_u", "base") if extended else ("base",)
            missing = [key for key in keys if key not in sec]
            if missing:
                raise ConfigError(f"an initial state is required (--state, or "
                                  f"config 'initial_state' keys {missing})")
            values = (tuple(_pick(None, sec, key, None, _real) for key in keys[:-1])
                      + _pick(None, sec, "base", None, _floats))
        dim = self.built.system.dim
        if len(values) != dim + (2 if extended else 0):
            raise ConfigError(f"the initial state needs {'u, p_u and ' if extended else ''}"
                              f"{dim} coordinates, got {len(values)} values")
        vec = np.array(values)
        try:
            for fn in self.observables(extended).values():
                fn(vec)
        except EvaluationError as e:
            raise ConfigError(f"initial state {list(values)} is not admissible: {e}") from None
        return vec

    def observables(self, extended: Extension | None) -> dict[str, Callable]:
        """The reported observables: H, L and K, or L and the system's own."""
        if extended:
            return extended.conserved_quantities()
        system = self.built.system
        return {"L": system.hamiltonian.value,
                **{name: f.value for name, f in system.observables.items()}}

    def intervals(self, default) -> tuple[tuple[float, float], ...]:
        """The config sampling box, else ``default``; one interval per coordinate."""
        box = _pick(None, self.section("sampling"), "intervals", default, _box)
        if len(box) != self.built.system.dim:
            raise ConfigError(f"sampling intervals count {len(box)} does not match "
                              f"dimension {self.built.system.dim}")
        return box

    def sample_spec(self, margin: float, box) -> SampleSpec:
        samp = self.section("sampling")
        count = _SAMPLE_COUNTS[self.args.command]
        spec = SampleSpec(intervals=box,
                          count=_pick(self.args.samples, samp, "count", count),
                          seed=_seed_value(self.args.seed, samp, 1234),
                          margin=_pick(self.args.margin, samp, "margin", margin, _real))
        self.echo["sampling"] = {"count": spec.count, "seed": spec.seed,
                                 "margin": spec.margin}
        return spec

    def extended_states(self) -> np.ndarray:
        """Sampled (u, p_u, base...) vectors, clear of the base singular set."""
        samp = self.section("sampling")
        u_range = _pick(self.args.u_range, samp, "u_range", (0.3, 1.2), _pair)
        pu_range = _pick(self.args.pu_range, samp, "pu_range", (-1.0, 1.0), _pair)
        spec = self.sample_spec(0.1, (u_range, pu_range) + self.intervals(self.entry.default_box))
        base_pred = self.built.singular
        if base_pred is None:
            return verify.sample_points(spec, None)
        return verify.sample_points(spec, lambda vec, m: base_pred(vec[2:], m))

    def finish(self, metrics: dict, gates: list[dict], skipped: int = 0,
               path: str | None = None) -> int:
        return _finish(self.args.command, self.echo, metrics, gates, skipped,
                       path or self.args.report)


def _worst(residuals: np.ndarray, points: np.ndarray) -> dict:
    """The point of the largest residual, as a metrics entry (none if empty)."""
    if not len(residuals):
        return {}
    return {"worst_point": [float(v) for v in points[int(np.argmax(residuals))]]}


def _integral_name(obs: dict) -> str:
    # Complex integrals are split into K_re and K_im; K_re stands for K.
    return "K" if "K" in obs else "K_re"


# ---------------------------------------------------------------- commands


def _cmd_list(args) -> int:
    rows = []
    for key in catalog.entry_ids():
        e = catalog.get_entry(key)
        rows.append({"id": e.key, "dim": e.dim, "seed": e.has_seed, "title": e.title})
    if args.json:
        sys.stdout.write(_fmt_json({"entries": rows}) + "\n")
        return EXIT_OK
    width = max(len(r["id"]) for r in rows)
    for r in rows:
        seed = "seed" if r["seed"] else "  - "
        sys.stdout.write(f"{r['id']:<{width}}  dim={r['dim']}  {seed}  {r['title']}\n")
    return EXIT_OK


def _cmd_show(args) -> int:
    e = catalog.get_entry(args.system)
    info = {
        "id": e.key,
        "title": e.title,
        "dim": e.dim,
        "coordinates": list(e.coord_names),
        "has_seed": e.has_seed,
        "notes": e.notes,
        "default_box": [list(iv) for iv in e.default_box],
        "params": {name: {"default": spec.default, "description": spec.desc}
                   for name, spec in e.params.items()},
    }
    if args.json:
        sys.stdout.write(_fmt_json(info) + "\n")
        return EXIT_OK
    sys.stdout.write(f"{e.key}: {e.title}\n")
    sys.stdout.write(f"  dimension   {e.dim}\n")
    sys.stdout.write(f"  coordinates {', '.join(e.coord_names)}\n")
    sys.stdout.write(f"  seed served {'yes' if e.has_seed else 'no'}\n")
    if e.notes:
        sys.stdout.write(f"  notes       {e.notes}\n")
    sys.stdout.write("  parameters\n")
    for name, spec in e.params.items():
        sys.stdout.write(f"    {name:<6} default {spec.default!r}  {spec.desc}\n")
    return EXIT_OK


def _cmd_check_pde(args) -> int:
    run = _Run(args)
    seed = run.built.seed
    c, c0 = seed.meta["pair"]
    c = float(c) if args.c is None else _real(args.c, "c")
    c0 = float(c0) if args.c0 is None else _real(args.c0, "c0")
    spec = run.sample_spec(0.1, run.intervals(run.entry.default_box))
    run.echo.update(c=c, c0=c0, tol=_real(args.tol, "tol", "positive"))
    rep = verify.pde_residual(run.built.system, seed.field, c, c0, spec,
                              singular=run.built.singular)
    metrics: dict[str, Any] = {
        "max_residual": rep.max_residual,
        "mean_residual": rep.mean_residual,
        "n_points": len(rep.residuals),
        "c": c,
        "c0": c0,
        **_worst(rep.residuals, rep.points),
    }
    if seed.verified is not None:
        metrics["build_gate_passed"] = bool(seed.verified)
    return run.finish(metrics, [_gate("pde_max_residual", rep.max_residual, args.tol)],
                      rep.skipped)


# Default sampling box of check-kn, in euler_top's coordinates.
_KN_BOX = ((-0.8, 0.8), (0.3, 1.2), (0.3, 1.2))


def _cmd_check_kn(args) -> int:
    run = _Run(args, default_system="euler_top")
    builder = run.built.meta.get("local_seed_builder")
    if builder is None:
        raise ConfigError(f"entry '{run.echo['system']}' serves no elliptic-integral "
                          "local seed; this check applies to euler_top")
    c, c0 = _real(args.c, "c"), _real(args.c0, "c0")
    field = builder(c, c0, branch=args.branch)
    box = run.intervals(_KN_BOX)
    spec = run.sample_spec(0.0, box)
    run.echo["sampling"]["intervals"] = [list(iv) for iv in box]
    run.echo.update(c=c, c0=c0, sign=args.sign, branch=args.branch,
                    step=args.step, tol=_real(args.tol, "tol", "positive"))
    rep = verify.first_order_residual(run.built.system, field, c, c0, args.sign,
                                      spec, step=args.step)
    metrics = {
        "max_abs_residual": rep.max_abs,
        "max_rel_residual": rep.max_rel,
        "n_points": len(rep.rel_residuals),
        "c": c, "c0": c0, "sign": args.sign, "branch": args.branch,
        **_worst(rep.rel_residuals, rep.points),
    }
    return run.finish(metrics, [_gate("first_order_max_rel", rep.max_rel, args.tol)],
                      rep.skipped)


def _cmd_extend(args) -> int:
    run = _Run(args)
    ext = run.extension()
    state = run.initial_state(ext)
    run.echo["state"] = [float(v) for v in state]
    obs = ext.conserved_quantities()
    metrics: dict[str, Any] = {name: fn(state) for name, fn in obs.items() if name != "L"}
    states = run.extended_states()
    run.echo["tol"] = _real(args.tol, "tol", "positive")
    name = _integral_name(obs)
    worst, where, checked, skipped = verify.bracket_sweep(ext.structure(), obs["H"],
                                                          {name: obs[name]}, states)
    metrics["bracket_max_normalized"] = worst
    metrics["n_bracket_states"] = checked
    if where is not None:
        metrics["worst_state"] = [float(v) for v in where[1]]
    return run.finish(metrics, [_gate("involution_max_normalized", worst, args.tol)],
                      skipped)


def _cmd_bracket(args) -> int:
    run = _Run(args)
    ext = run.extension()
    states = run.extended_states()
    run.echo.update(h=args.h, tol=_real(args.tol, "tol", "positive"))
    obs = ext.conserved_quantities()
    fns = {name: fn for name, fn in obs.items() if name not in ("H", "L")}
    worst, where, checked, skipped = verify.bracket_sweep(ext.structure(), obs["H"], fns,
                                                          states, args.h)
    metrics: dict[str, Any] = {"bracket_max_normalized": worst, "n_checked": checked}
    if where is not None:
        metrics["worst_pair"] = ["H", where[0]]
        metrics["worst_state"] = [float(v) for v in where[1]]
    return run.finish(metrics, [_gate("involution_max_normalized", worst, args.tol)],
                      skipped)


def _cmd_rank(args) -> int:
    run = _Run(args)
    ext = run.extension()
    obs = ext.conserved_quantities()
    fields: dict[str, Callable] = dict(obs)
    for i, name in enumerate(run.entry.coord_names):
        fields[name] = (lambda idx: lambda vec: float(vec[2 + idx]))(i)
    fields["u"] = lambda vec: float(vec[0])
    fields["p_u"] = lambda vec: float(vec[1])
    spec_fields = args.fields or f"H,L,{_integral_name(obs)}"
    wanted = [w.strip() for w in spec_fields.split(",") if w.strip()]
    if not wanted:
        raise ConfigError(f"--fields {args.fields!r} names no field; "
                          f"known: {sorted(fields)}")
    missing = [w for w in wanted if w not in fields]
    if missing:
        raise ConfigError(f"unknown field name(s) {missing}; "
                          f"known: {sorted(fields)}")
    expect = _integer(args.expect, "expect", 0) if args.expect is not None else len(wanted)
    states = run.extended_states()
    run.echo.update(fields=wanted, h=args.h, threshold=args.threshold, expect=expect)
    ranks, _, skipped = verify.state_ranks([fields[w] for w in wanted], states, h=args.h,
                                           threshold=args.threshold)
    rank = min(ranks) if ranks else None  # unknown where no state evaluated: the gate fails
    return run.finish({"rank": rank, "n_states": len(ranks)},
                      [_gate("independence_rank", rank, expect, ok=rank == expect)], skipped)


def _cmd_integrate(args) -> int:
    run = _Run(args)
    integ = run.section("integration")
    method = _pick(args.method, integ, "method", "rk4", str)
    dt = _pick(args.dt, integ, "dt", verify.RK4_DT, _real)
    tol = _pick(args.tol, integ, "tol", verify.RKF45_TOL, _real)
    t_final = _pick(args.t_final, integ, "t_final", 10.0, _real)
    stride = _integer(_pick(args.stride, integ, "stride", 10), "stride", 1)
    out = run.section("output")
    csv_path = _pick(args.csv, out, "csv", None, str)

    any_flag = any(v is not None for v in (args.c, args.c0, args.big_c, args.m, args.n,
                                           args.omega, args.offset))
    ext = None
    if not args.base_only and (any_flag or "extension" in run.cfg):
        ext = run.extension()
    y0 = run.initial_state(ext)
    rhs = ext.flow() if ext is not None else base_flow(run.built.system)
    observables = run.observables(ext)
    run.echo.update(integration={"method": method, "dt": dt, "tol": tol,
                                 "t_final": t_final, "stride": stride},
                    initial_state=[float(v) for v in y0],
                    drift_tol=_real(args.drift_tol, "drift_tol", "positive"))

    traj = verify.integrate(rhs, y0, t_final, method=method, dt=dt, tol=tol)
    rep = verify.conservation_report(traj, observables, stride=stride)

    if csv_path:
        entry = run.entry
        disp = [entry.coord_names[i] for i in entry.csv_order]
        if ext is not None:
            lead, cols = ["u", "p_u"], [0, 1] + [2 + j for j in entry.csv_order]
        else:
            lead, cols = [], list(entry.csv_order)
        rows = [[t] + [state[j] for j in cols] + [rep.series[nm][pos] for nm in observables]
                for pos, (t, state) in enumerate(zip(rep.times, rep.states))]
        _write_csv(csv_path, ["t"] + lead + disp + list(observables), rows)

    gates = [_gate(f"drift_{name}", drift, args.drift_tol)
             for name, drift in sorted(rep.drifts.items())]
    metrics: dict[str, Any] = {
        "drifts": rep.drifts,
        "n_states": len(traj.states),
        "truncated": traj.truncated,
    }
    if traj.truncated:
        gates.append(_gate("trajectory_completed", 1.0, 0.0, ok=False))
        metrics["truncation_reason"] = traj.reason
    return run.finish(metrics, gates, path=_pick(args.report, out, "report", None, str))


def _cmd_gn_compare(args) -> int:
    seed = _seed_value(args.seed, {}, 7)
    echo = {"n_max": args.n_max, "samples": args.samples, "complex_samples": args.complex_samples,
            "seed": seed, "tol": _real(args.tol, "tol", "positive")}
    res = verify.recursion_closed_sweep(args.n_max, args.samples, args.complex_samples, seed)
    metrics = {"max_rel_err": res["max_rel"],
               "per_index": {str(k): v for k, v in res["per_n"].items()}}
    return _finish("gn-compare", echo, metrics,
                   [_gate("recursion_max_rel", res["max_rel"], args.tol)], 0, args.report)


# ----------------------------------------------------------------- parser


def _system_parser(sub, name: str, summary: str, fn: Callable) -> argparse.ArgumentParser:
    """A system command's parser with the flags every one takes, and the
    sampling ones when it samples."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(fn=fn)
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.add_argument("--system", help="catalog entry id")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="system parameter override (repeatable)")
    if name in _SAMPLE_COUNTS:
        p.add_argument("--seed", type=int, help="sampling seed")
        p.add_argument("--samples", type=int,
                       help=f"sample count (default {_SAMPLE_COUNTS[name]})")
        p.add_argument("--margin", type=float, help="singular-set margin for sampling")
    return p


def _add_extension_flags(p):
    p.add_argument("--c", type=float, help="defining-equation coefficient c")
    p.add_argument("--c0", type=float, help="defining-equation constant c0")
    p.add_argument("--C", dest="big_c", type=float, help="profile equation constant C")
    p.add_argument("--m", type=int, help="integral first index")
    p.add_argument("--n", type=int, help="integral second index")
    p.add_argument("--omega", type=float, help="centrifugal strength (default 0)")
    p.add_argument("--offset", type=float, help="profile origin offset (default 0)")


def _add_state_ranges(p):
    p.add_argument("--u-range", dest="u_range", help="u sampling range 'lo,hi'")
    p.add_argument("--pu-range", dest="pu_range", help="p_u sampling range 'lo,hi'")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="extkit",
        description="Extended Hamiltonians: catalog, residual gates, flows, reports.",
    )
    ap.add_argument("--version", action="version", version=f"extkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list catalog entries")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("show", help="show one catalog entry")
    p.add_argument("--system", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_show)

    p = _system_parser(sub, "check-pde", "defining-equation residual gate", _cmd_check_pde)
    p.add_argument("--c", type=float, help="override the seed's constant c")
    p.add_argument("--c0", type=float, help="override the seed's constant c0")
    p.add_argument("--tol", type=float, default=verify.PDE_TOL)

    p = _system_parser(sub, "check-kn", "first-order factorization residual "
                                        "(elliptic-integral local seed)", _cmd_check_kn)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--c0", type=float, default=-0.5)
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--branch", type=int, default=1, choices=(1, -1))
    p.add_argument("--step", type=float, default=verify.FIRST_ORDER_STEP)
    p.add_argument("--tol", type=float, default=1e-5)

    p = _system_parser(sub, "extend", "build the extension, evaluate H and K, "
                                      "spot-check involution", _cmd_extend)
    _add_extension_flags(p)
    _add_state_ranges(p)
    p.add_argument("--state", help="extended state 'u,p_u,x1,...'")
    p.add_argument("--tol", type=float, default=_INVOLUTION_TOL)

    p = _system_parser(sub, "integrate", "integrate the extended or base flow", _cmd_integrate)
    _add_extension_flags(p)
    p.add_argument("--state", help="initial state (extended: 'u,p_u,x...'; "
                                   "base: 'x...')")
    p.add_argument("--base-only", action="store_true",
                   help="integrate the base flow even if extension flags are set")
    p.add_argument("--method", choices=("rk4", "rkf45"))
    p.add_argument("--dt", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--stride", type=int)
    p.add_argument("--csv", help="trajectory CSV path")
    p.add_argument("--drift-tol", dest="drift_tol", type=float, default=1e-6)

    p = _system_parser(sub, "bracket", "finite-difference involution check over "
                                       "sampled extended states", _cmd_bracket)
    _add_extension_flags(p)
    _add_state_ranges(p)
    p.add_argument("--h", type=float, default=verify.FD_STEP)
    p.add_argument("--tol", type=float, default=_INVOLUTION_TOL)

    p = _system_parser(sub, "rank", "independence rank of named fields at "
                                    "sampled extended states", _cmd_rank)
    _add_extension_flags(p)
    _add_state_ranges(p)
    p.add_argument("--fields",
                   help="comma-separated field names (observables, coordinates, u, p_u; "
                        "default H,L and the integral, K or K_re)")
    p.add_argument("--h", type=float, default=verify.FD_STEP)
    p.add_argument("--threshold", type=float, default=verify.RANK_THRESHOLD)
    p.add_argument("--expect", type=int, help="required rank (default: field count)")

    p = sub.add_parser("gn-compare", help="chain recursion vs closed form sweep")
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--complex-samples", dest="complex_samples", type=int, default=50)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=_cmd_gn_compare)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, catalog.CatalogError, RejectionError, ExtensionBuildError,
            ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
