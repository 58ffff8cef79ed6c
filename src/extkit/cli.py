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
import json
import math
import os
import sys
from typing import Any, Callable

import numpy as np

from . import __version__, catalog, verify
from .extension import (
    ExtendedState,
    ExtensionParams,
    build_extension,
)
from .jets import EvaluationError
from .verify import RejectionError, SampleSpec

EXIT_OK = 0
EXIT_GATE = 1
EXIT_CONFIG = 2


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
    if isinstance(obj, complex):
        return _fmt_json({"re": obj.real, "im": obj.imag}, indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_report(report: dict, path: str | None):
    text = _fmt_json(report) + "\n"
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _g17(v: float) -> str:
    return f"{float(v):.17g}"


def _write_csv(path: str, header: list[str], rows: list[list[float]]):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_g17(v) for v in row) + "\n")


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
    for section, keys in _SECTION_KEYS.items():
        if keys is None or section not in cfg:
            continue
        sub = cfg[section]
        if not isinstance(sub, dict):
            raise ConfigError(f"config section '{section}' must be an object")
        bad = sorted(set(sub) - keys)
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


def _pick(flag, cfg_section: dict, key: str, default):
    if flag is not None:
        return flag
    if key in cfg_section:
        return cfg_section[key]
    return default


def _seed_value(flag, cfg_section: dict, default: int) -> int:
    # Precedence: flag > EXTKIT_SEED > config file > default.
    if flag is not None:
        return int(flag)
    env = os.environ.get("EXTKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"EXTKIT_SEED must be an integer, got {env!r}") from None
    if "seed" in cfg_section:
        return int(cfg_section["seed"])
    return default


def _parse_range(text, name) -> tuple[float, float]:
    if isinstance(text, (list, tuple)) and len(text) == 2:
        lo, hi = float(text[0]), float(text[1])
    elif isinstance(text, str):
        parts = text.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{name} needs 'lo,hi', got {text!r}")
        lo, hi = float(parts[0]), float(parts[1])
    else:
        raise ConfigError(f"{name} needs a two-value range")
    if not (lo < hi):
        raise ConfigError(f"{name} needs lo < hi, got ({lo}, {hi})")
    return lo, hi


def _intervals_from(cfg_sampling: dict, built) -> tuple[tuple[float, float], ...]:
    raw = cfg_sampling.get("intervals")
    if raw is None:
        return catalog.get_entry(built.entry_key).default_box
    out = []
    for iv in raw:
        if not (isinstance(iv, (list, tuple)) and len(iv) == 2):
            raise ConfigError("sampling intervals must be [lo, hi] pairs")
        out.append((float(iv[0]), float(iv[1])))
    if len(out) != built.system.dim:
        raise ConfigError(
            f"sampling intervals count {len(out)} does not match dimension "
            f"{built.system.dim}"
        )
    return tuple(out)


def _extension_params(args, cfg: dict) -> ExtensionParams:
    sec = cfg.get("extension", {})

    def need(flag, key, default=None):
        v = _pick(flag, sec, key, default)
        if v is None:
            raise ConfigError(f"extension parameter '{key}' is required "
                              "(flag or config 'extension' section)")
        return v

    try:
        return ExtensionParams(
            c=float(need(args.c, "c")),
            c0=float(need(args.c0, "c0")),
            C=float(need(args.big_c, "C")),
            m=int(need(args.m, "m")),
            n=int(need(args.n, "n")),
            omega=float(_pick(args.omega, sec, "omega", 0.0)),
            offset=float(_pick(args.offset, sec, "offset", 0.0)),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _initial_state(args, cfg: dict, dim: int) -> ExtendedState:
    if getattr(args, "state", None):
        parts = [float(v) for v in args.state.split(",")]
        if len(parts) != dim + 2:
            raise ConfigError(f"--state needs {dim + 2} comma-separated values "
                              f"(u, p_u, {dim} coordinates)")
        return ExtendedState(parts[0], parts[1], np.array(parts[2:]))
    sec = cfg.get("initial_state")
    if not sec:
        raise ConfigError("an initial state is required (--state or config "
                          "'initial_state' section)")
    try:
        base = np.asarray([float(v) for v in sec["base"]], dtype=float)
        state = ExtendedState(float(sec["u"]), float(sec["p_u"]), base)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad initial_state section: {e}") from None
    if len(state.base) != dim:
        raise ConfigError(f"initial_state.base needs {dim} coordinates")
    return state


def _extended_sampler(built, args, cfg_sampling: dict, count: int, seed: int,
                      margin: float) -> tuple[SampleSpec, Callable | None]:
    u_range = _parse_range(_pick(getattr(args, "u_range", None), cfg_sampling,
                                 "u_range", (0.3, 1.2)), "u range")
    pu_range = _parse_range(_pick(getattr(args, "pu_range", None), cfg_sampling,
                                  "pu_range", (-1.0, 1.0)), "p_u range")
    base_box = _intervals_from(cfg_sampling, built)
    spec = SampleSpec(intervals=(u_range, pu_range) + base_box, count=count,
                      seed=seed, margin=margin)
    base_pred = built.singular
    if base_pred is None:
        return spec, None

    def pred(vec, m):
        return base_pred(vec[2:], m)

    return spec, pred


def _gate(name: str, value: float, tol: float, ok: bool | None = None) -> dict:
    passed = (value <= tol) if ok is None else ok
    return {"name": name, "value": value, "tol": tol, "pass": bool(passed)}


def _finish(report: dict, path: str | None) -> int:
    _emit_report(report, path)
    gates = report.get("gates", [])
    return EXIT_OK if all(g["pass"] for g in gates) else EXIT_GATE


def _seeded_or_fail(built) -> None:
    if not built.seeds:
        raise ConfigError(f"entry '{built.entry_key}' has no seed solution "
                          "(no closed-form G is served)")


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
        "params": {
            name: {"default": (spec.default if not spec.function else spec.default),
                   "description": spec.desc}
            for name, spec in e.params.items()
        },
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
    cfg = _load_config(args.config)
    params = {**cfg.get("system_params", {}), **_parse_param_flags(args.param)}
    system_id = args.system or cfg.get("system")
    if not system_id:
        raise ConfigError("--system is required")
    built = catalog.instantiate(system_id, params)
    _seeded_or_fail(built)
    seed_sol = built.seed
    samp = cfg.get("sampling", {})
    count = int(_pick(args.samples, samp, "count", 100))
    seed = _seed_value(args.seed, samp, 1234)
    margin = float(_pick(args.margin, samp, "margin", 0.1))
    pair = seed_sol.meta.get("pair", (0.0, 0.0))
    c = float(args.c) if args.c is not None else float(pair[0])
    c0 = float(args.c0) if args.c0 is not None else float(pair[1])
    tol = float(args.tol)
    spec = SampleSpec(intervals=_intervals_from(samp, built), count=count,
                      seed=seed, margin=margin)
    rep = verify.pde_residual(built.system, seed_sol.field, c, c0, spec,
                              singular=built.singular)
    metrics: dict[str, Any] = {
        "max_residual": rep.max_residual,
        "mean_residual": rep.mean_residual,
        "n_points": int(len(rep.residuals)),
        "c": c,
        "c0": c0,
    }
    if len(rep.residuals):
        metrics["worst_point"] = [float(v) for v in rep.points[int(np.argmax(rep.residuals))]]
    if seed_sol.verified is not None:
        metrics["build_gate_passed"] = bool(seed_sol.verified)
    report = {
        "command": "check-pde",
        "config_echo": {
            "system": system_id, "system_params": _echo_params(params),
            "sampling": {"count": count, "seed": seed, "margin": margin},
            "c": c, "c0": c0, "tol": tol,
        },
        "metrics": metrics,
        "gates": [_gate("pde_max_residual", rep.max_residual, tol)],
        "skipped_points": rep.skipped,
    }
    return _finish(report, args.report)


def _cmd_check_kn(args) -> int:
    cfg = _load_config(args.config)
    params = {**cfg.get("system_params", {}), **_parse_param_flags(args.param)}
    system_id = args.system or cfg.get("system") or "euler_top"
    built = catalog.instantiate(system_id, params)
    builder = built.meta.get("local_seed_builder")
    if builder is None:
        raise ConfigError(f"entry '{system_id}' serves no elliptic-integral local seed; "
                          "this check applies to euler_top")
    c = float(args.c)
    c0 = float(args.c0)
    field = builder(c, c0, branch=int(args.branch))
    samp = cfg.get("sampling", {})
    count = int(_pick(args.samples, samp, "count", 60))
    seed = _seed_value(args.seed, samp, 1234)
    margin = float(_pick(args.margin, samp, "margin", 0.0))
    raw = samp.get("intervals")
    if raw is not None:
        intervals = tuple((float(a), float(b)) for a, b in raw)
    else:
        intervals = ((-0.8, 0.8), (0.3, 1.2), (0.3, 1.2))
    spec = SampleSpec(intervals=intervals, count=count, seed=seed, margin=margin)
    rep = verify.first_order_residual(built.system, field, c, c0, int(args.sign),
                                      spec, step=float(args.step))
    metrics = {
        "max_abs_residual": rep.max_abs,
        "max_rel_residual": rep.max_rel,
        "n_points": int(len(rep.rel_residuals)),
        "c": c, "c0": c0, "sign": int(args.sign), "branch": int(args.branch),
    }
    if len(rep.rel_residuals):
        metrics["worst_point"] = [float(v)
                                  for v in rep.points[int(np.argmax(rep.rel_residuals))]]
    report = {
        "command": "check-kn",
        "config_echo": {
            "system": system_id, "system_params": _echo_params(params),
            "sampling": {"count": count, "seed": seed, "margin": margin,
                         "intervals": [list(iv) for iv in intervals]},
            "c": c, "c0": c0, "sign": int(args.sign), "branch": int(args.branch),
            "step": float(args.step), "tol": float(args.tol),
        },
        "metrics": metrics,
        "gates": [_gate("first_order_max_rel", rep.max_rel, float(args.tol))],
        "skipped_points": rep.skipped,
    }
    return _finish(report, args.report)


def _echo_params(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, (int, float, str, bool)) or v is None:
            out[k] = v
        elif isinstance(v, complex):
            out[k] = {"re": v.real, "im": v.imag}
        elif isinstance(v, dict):
            out[k] = v
        else:
            out[k] = repr(v)
    return out


def _build_from_args(args, cfg) -> tuple:
    params = {**cfg.get("system_params", {}), **_parse_param_flags(args.param)}
    system_id = args.system or cfg.get("system")
    if not system_id:
        raise ConfigError("--system is required")
    built = catalog.instantiate(system_id, params)
    return built, params, system_id


def _cmd_extend(args) -> int:
    cfg = _load_config(args.config)
    built, params, system_id = _build_from_args(args, cfg)
    _seeded_or_fail(built)
    ext_params = _extension_params(args, cfg)
    ext = build_extension(built.system, built.seed, ext_params)
    state = _initial_state(args, cfg, built.system.dim)
    hval = ext.hamiltonian(state)
    kval = ext.integral(state)
    metrics: dict[str, Any] = {"H": hval}
    if isinstance(kval, complex):
        metrics["K_re"] = kval.real
        metrics["K_im"] = kval.imag
    else:
        metrics["K"] = float(kval)
    samp = cfg.get("sampling", {})
    count = int(_pick(args.samples, samp, "count", 10))
    seed = _seed_value(args.seed, samp, 1234)
    margin = float(_pick(args.margin, samp, "margin", 0.1))
    spec, pred = _extended_sampler(built, args, samp, count, seed, margin)
    states = verify.sample_points(spec, pred)
    struct = ext.structure()
    obs = ext.conserved_quantities()
    kname = _integral_name(obs)
    worst = 0.0
    worst_state = None
    skipped = 0
    for vec in states:
        try:
            v = verify.fd_bracket_normalized(struct, obs["H"], obs[kname], vec)
        except EvaluationError:
            skipped += 1
            continue
        if v > worst:
            worst, worst_state = v, vec
    metrics["bracket_max_normalized"] = worst
    metrics["n_bracket_states"] = int(len(states) - skipped)
    if worst_state is not None:
        metrics["worst_state"] = [float(v) for v in worst_state]
    report = {
        "command": "extend",
        "config_echo": {
            "system": system_id, "system_params": _echo_params(params),
            "extension": _params_echo(ext_params),
            "state": [float(v) for v in state.vector()],
            "sampling": {"count": count, "seed": seed, "margin": margin},
            "tol": float(args.tol),
        },
        "metrics": metrics,
        "gates": [_gate("involution_max_normalized", worst, float(args.tol))],
        "skipped_points": skipped,
    }
    return _finish(report, args.report)


def _integral_name(obs: dict) -> str:
    # Complex integrals are split into K_re and K_im; K_re stands for K.
    return "K" if "K" in obs else "K_re"


def _params_echo(p: ExtensionParams) -> dict:
    return {"c": p.c, "c0": p.c0, "C": p.C, "m": p.m, "n": p.n,
            "omega": p.omega, "offset": p.offset}


def _cmd_bracket(args) -> int:
    cfg = _load_config(args.config)
    built, params, system_id = _build_from_args(args, cfg)
    _seeded_or_fail(built)
    ext_params = _extension_params(args, cfg)
    ext = build_extension(built.system, built.seed, ext_params)
    samp = cfg.get("sampling", {})
    count = int(_pick(args.samples, samp, "count", 50))
    seed = _seed_value(args.seed, samp, 1234)
    margin = float(_pick(args.margin, samp, "margin", 0.1))
    spec, pred = _extended_sampler(built, args, samp, count, seed, margin)
    states = verify.sample_points(spec, pred)
    struct = ext.structure()
    obs = ext.conserved_quantities()
    names = [n for n in obs if n != "L"]
    worst = 0.0
    worst_info = None
    skipped = 0
    n_checked = 0
    for vec in states:
        for name in names:
            if name == "H":
                continue
            try:
                v = verify.fd_bracket_normalized(struct, obs["H"], obs[name], vec,
                                                 h=float(args.h))
            except EvaluationError:
                skipped += 1
                continue
            n_checked += 1
            if v > worst:
                worst, worst_info = v, (name, vec)
    metrics: dict[str, Any] = {
        "bracket_max_normalized": worst,
        "n_checked": n_checked,
    }
    if worst_info is not None:
        metrics["worst_pair"] = ["H", worst_info[0]]
        metrics["worst_state"] = [float(v) for v in worst_info[1]]
    report = {
        "command": "bracket",
        "config_echo": {
            "system": system_id, "system_params": _echo_params(params),
            "extension": _params_echo(ext_params),
            "sampling": {"count": count, "seed": seed, "margin": margin},
            "h": float(args.h), "tol": float(args.tol),
        },
        "metrics": metrics,
        "gates": [_gate("involution_max_normalized", worst, float(args.tol))],
        "skipped_points": skipped,
    }
    return _finish(report, args.report)


def _cmd_rank(args) -> int:
    cfg = _load_config(args.config)
    built, params, system_id = _build_from_args(args, cfg)
    _seeded_or_fail(built)
    ext_params = _extension_params(args, cfg)
    ext = build_extension(built.system, built.seed, ext_params)
    obs = ext.conserved_quantities()
    fields: dict[str, Callable] = dict(obs)
    names = built.system.coord_names or tuple(
        f"x{i+1}" for i in range(built.system.dim))
    for i, name in enumerate(names):
        fields[name] = (lambda idx: lambda vec: float(vec[2 + idx]))(i)
    fields["u"] = lambda vec: float(vec[0])
    fields["p_u"] = lambda vec: float(vec[1])
    spec_fields = args.fields or f"H,L,{_integral_name(obs)}"
    wanted = [w.strip() for w in spec_fields.split(",") if w.strip()]
    missing = [w for w in wanted if w not in fields]
    if missing:
        raise ConfigError(f"unknown field name(s) {missing}; "
                          f"known: {sorted(fields)}")
    fns = [fields[w] for w in wanted]
    samp = cfg.get("sampling", {})
    count = int(_pick(args.samples, samp, "count", 20))
    seed = _seed_value(args.seed, samp, 1234)
    margin = float(_pick(args.margin, samp, "margin", 0.1))
    spec, pred = _extended_sampler(built, args, samp, count, seed, margin)
    states = verify.sample_points(spec, pred)
    rank = verify.independence_rank(fns, states, h=float(args.h),
                                    threshold=float(args.threshold))
    expect = int(args.expect) if args.expect is not None else len(wanted)
    report = {
        "command": "rank",
        "config_echo": {
            "system": system_id, "system_params": _echo_params(params),
            "extension": _params_echo(ext_params),
            "fields": wanted,
            "sampling": {"count": count, "seed": seed, "margin": margin},
            "h": float(args.h), "threshold": float(args.threshold),
            "expect": expect,
        },
        "metrics": {"rank": rank, "n_states": int(len(states))},
        "gates": [_gate("independence_rank", float(rank), float(expect),
                        ok=(rank == expect))],
        "skipped_points": 0,
    }
    return _finish(report, args.report)


def _cmd_integrate(args) -> int:
    cfg = _load_config(args.config)
    built, params, system_id = _build_from_args(args, cfg)
    integ = cfg.get("integration", {})
    method = str(_pick(args.method, integ, "method", "rk4"))
    dt = float(_pick(args.dt, integ, "dt", 1e-3))
    tol = float(_pick(args.tol, integ, "tol", 1e-10))
    t_final = float(_pick(args.t_final, integ, "t_final", 10.0))
    stride = int(_pick(args.stride, integ, "stride", 10))
    drift_tol = float(args.drift_tol)
    out = cfg.get("output", {})
    csv_path = args.csv or out.get("csv")
    report_path = args.report or out.get("report")

    entry = catalog.get_entry(system_id)
    any_flag = any(v is not None for v in
                   (args.c, args.c0, args.big_c, args.m, args.n))
    extended = not args.base_only and (any_flag or "extension" in cfg)
    if extended:
        _seeded_or_fail(built)
        ext_params = _extension_params(args, cfg)
        ext = build_extension(built.system, built.seed, ext_params)
        state = _initial_state(args, cfg, built.system.dim)
        rhs = ext.flow()
        y0 = state.vector()
        observables = ext.conserved_quantities()
    else:
        ext = None
        ext_params = None
        if getattr(args, "state", None):
            parts = [float(v) for v in args.state.split(",")]
            if len(parts) != built.system.dim:
                raise ConfigError(f"--state needs {built.system.dim} values for a "
                                  "base-flow run")
            y0 = np.array(parts)
        else:
            sec = cfg.get("initial_state", {})
            if "base" not in sec:
                raise ConfigError("an initial state is required (--state or config "
                                  "'initial_state.base')")
            y0 = np.asarray([float(v) for v in sec["base"]], dtype=float)
        from .poisson import base_flow

        rhs = base_flow(built.system)
        ham = built.system.hamiltonian
        observables = {"L": lambda vec: ham.value(vec)}
        for name, f in built.system.observables.items():
            observables[name] = (lambda ff: lambda vec: ff.value(vec))(f)

    traj = verify.integrate(rhs, y0, t_final, method=method, dt=dt, tol=tol)
    rep = verify.conservation_report(traj, observables, stride=stride)

    if csv_path:
        disp = [entry.coord_names[i] for i in entry.csv_order]
        obs_names = list(observables)
        if extended:
            header = ["t", "u", "p_u"] + disp + obs_names
        else:
            header = ["t"] + disp + obs_names
        rows = []
        n = len(traj.states)
        idx = list(range(0, n, stride))
        if idx[-1] != n - 1:
            idx.append(n - 1)
        for pos, i in enumerate(idx):
            vec = traj.states[i]
            row = [traj.times[i]]
            if extended:
                row += [vec[0], vec[1]]
                row += [vec[2 + j] for j in entry.csv_order]
            else:
                row += [vec[j] for j in entry.csv_order]
            row += [rep.series[nm][pos] for nm in obs_names]
            rows.append(row)
        _write_csv(csv_path, header, rows)

    gates = [_gate(f"drift_{name}", drift, drift_tol)
             for name, drift in sorted(rep.drifts.items())]
    if traj.truncated:
        gates.append(_gate("trajectory_completed", 1.0, 0.0, ok=False))
    metrics: dict[str, Any] = {
        "drifts": {k: float(v) for k, v in rep.drifts.items()},
        "n_states": int(len(traj.states)),
        "truncated": bool(traj.truncated),
    }
    if traj.truncated:
        metrics["truncation_reason"] = traj.reason
    config_echo: dict[str, Any] = {
        "system": system_id, "system_params": _echo_params(params),
        "integration": {"method": method, "dt": dt, "tol": tol,
                        "t_final": t_final, "stride": stride},
        "initial_state": [float(v) for v in y0],
        "drift_tol": drift_tol,
    }
    if extended and ext_params is not None:
        config_echo["extension"] = _params_echo(ext_params)
    report = {
        "command": "integrate",
        "config_echo": config_echo,
        "metrics": metrics,
        "gates": gates,
        "skipped_points": 0,
    }
    return _finish(report, report_path)


def _cmd_gn_compare(args) -> int:
    res = verify.recursion_closed_sweep(int(args.n_max), int(args.samples),
                                        int(args.complex_samples),
                                        _seed_value(args.seed, {}, 7))
    tol = float(args.tol)
    report = {
        "command": "gn-compare",
        "config_echo": {
            "n_max": int(args.n_max), "samples": int(args.samples),
            "complex_samples": int(args.complex_samples),
            "seed": _seed_value(args.seed, {}, 7), "tol": tol,
        },
        "metrics": {
            "max_rel_err": res["max_rel"],
            "per_index": {str(k): v for k, v in res["per_n"].items()},
        },
        "gates": [_gate("recursion_max_rel", res["max_rel"], tol)],
        "skipped_points": 0,
    }
    return _finish(report, args.report)


# ----------------------------------------------------------------- parser


def _add_common(p, samples_default=None):
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.add_argument("--seed", type=int, help="sampling seed")
    if samples_default is not None:
        p.add_argument("--samples", type=int, help=f"sample count (default {samples_default})")


def _add_system(p):
    p.add_argument("--system", help="catalog entry id")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="system parameter override (repeatable)")
    p.add_argument("--margin", type=float, help="singular-set margin for sampling")


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

    p = sub.add_parser("check-pde", help="defining-equation residual gate")
    _add_common(p, 100)
    _add_system(p)
    p.add_argument("--c", type=float, help="override the seed's constant c")
    p.add_argument("--c0", type=float, help="override the seed's constant c0")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(fn=_cmd_check_pde)

    p = sub.add_parser("check-kn", help="first-order factorization residual "
                                        "(elliptic-integral local seed)")
    _add_common(p, 60)
    _add_system(p)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--c0", type=float, default=-0.5)
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--branch", type=int, default=1, choices=(1, -1))
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(fn=_cmd_check_kn)

    p = sub.add_parser("extend", help="build the extension, evaluate H and K, "
                                      "spot-check involution")
    _add_common(p, 10)
    _add_system(p)
    _add_extension_flags(p)
    _add_state_ranges(p)
    p.add_argument("--state", help="extended state 'u,p_u,x1,...'")
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("integrate", help="integrate the extended or base flow")
    _add_common(p)
    _add_system(p)
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
    p.set_defaults(fn=_cmd_integrate)

    p = sub.add_parser("bracket", help="finite-difference involution check over "
                                       "sampled extended states")
    _add_common(p, 50)
    _add_system(p)
    _add_extension_flags(p)
    _add_state_ranges(p)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("rank", help="independence rank of named fields at "
                                    "sampled extended states")
    _add_common(p, 20)
    _add_system(p)
    _add_extension_flags(p)
    _add_state_ranges(p)
    p.add_argument("--fields",
                   help="comma-separated field names (observables, coordinates, u, p_u; "
                        "default H,L and the integral, K or K_re)")
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-6)
    p.add_argument("--expect", type=int, help="required rank (default: field count)")
    p.set_defaults(fn=_cmd_rank)

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
    except (ConfigError, catalog.CatalogError, RejectionError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CONFIG
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
