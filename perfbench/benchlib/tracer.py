"""Per-layer spans and counts around extkit's public callables.

``Tracer.install`` rebinds each traced callable wherever extkit looks it
up: on its class for methods, and in every loaded ``extkit`` module that
holds the same function object for functions imported by name (for
example ``extkit.extension.riccati_eval`` and ``extkit.verify.fd_gradient``).
``Tracer.uninstall`` puts the originals back.

Spans nest strictly because the program is single-threaded, so each
span's self time is its duration minus the durations of its direct
children.  Spans are folded into per-name totals as they close instead
of being kept one by one: a flow pass opens some 10^5 of them.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (span name, module, class, method)
_METHODS = [
    ("jets.jet1", "extkit.jets", "ScalarField", "jet1"),
    ("jets.jet2", "extkit.jets", "ScalarField", "jet2"),
    ("jets.value", "extkit.jets", "ScalarField", "value"),
    ("jets.value", "extkit.jets", "ScalarField", "__call__"),
    ("poisson.matrix", "extkit.poisson", "PoissonStructure", "matrix"),
    ("poisson.matrix_with_grads", "extkit.poisson", "PoissonStructure",
     "matrix_with_grads"),
    ("extension.integral", "extkit.extension", "Extension", "integral"),
    ("extension.hamiltonian", "extkit.extension", "Extension", "hamiltonian"),
]
# (span name, module, function)
_FUNCTIONS = [
    ("poisson.apply_xl2", "extkit.poisson", "apply_xl2"),
    ("riccati.eval", "extkit.riccati", "riccati_eval"),
    ("extension.chain", "extkit.extension", "recursion_term_closed"),
    ("extension.power_coeffs", "extkit.extension", "power_coeffs"),
    ("verify.integrate", "extkit.verify", "integrate"),
    ("verify.conservation_report", "extkit.verify", "conservation_report"),
    ("verify.fd_gradient", "extkit.verify", "fd_gradient"),
    ("verify.sample_points", "extkit.verify", "sample_points"),
    ("catalog.instantiate", "extkit.catalog", "instantiate"),
]


class Tracer:
    """Span totals (calls, self nanoseconds) and plain counts by name."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "counts": dict(self.counts)}

    def span(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                calls[name] += 1
                self_ns[name] += dur - children[0]
                if stack:
                    stack[-1][0] += dur

        return traced

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self.span(name, fn)(*args, **kwargs)

    # ------------------------------------------------------------ install

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapped):
        # Every extkit module that imported the function by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "extkit" or mod_name.startswith("extkit.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapped)

    def install(self):
        """Wrap extkit's public callables; extkit must be imported first."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import extkit.catalog
        import extkit.jets
        import extkit.verify

        for name, mod, owner, meth in _METHODS:
            cls = getattr(sys.modules[mod], owner)
            self._set(cls, meth, self.span(name, getattr(cls, meth)))
        for name, mod, attr in _FUNCTIONS:
            original = getattr(sys.modules[mod], attr)
            wrapped = self.span(name, original)
            if name == "verify.integrate":
                wrapped = self._counting_integrate(wrapped)
            self._rebind(original, wrapped)

        flow_factory = extkit.extension.extended_flow
        self._rebind(flow_factory, self._flow_factory(flow_factory))
        seed_factory = extkit.catalog.euler_local_seed_field
        self._rebind(seed_factory, self._seed_factory(seed_factory))
        for attr in ("pde_residual", "first_order_residual"):
            original = getattr(extkit.verify, attr)
            self._rebind(original, self._counting_report(original))
        original = extkit.verify.fd_bracket_normalized
        self._rebind(original, self._counting_bracket(original, extkit.jets.EvaluationError))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------ factories and counts

    def _flow_factory(self, factory):
        @functools.wraps(factory)
        def extended_flow(*args, **kwargs):
            return self.span("extension.rhs", factory(*args, **kwargs))

        return extended_flow

    def _seed_factory(self, factory):
        @functools.wraps(factory)
        def euler_local_seed_field(*args, **kwargs):
            field = factory(*args, **kwargs)
            field.fn = self.span("catalog.local_seed", field.fn)
            return field

        return euler_local_seed_field

    def _counting_integrate(self, integrate):
        counts = self.counts

        @functools.wraps(integrate)
        def counted(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            if traj.method == "rk4":
                counts["verify.rk4.steps"] += traj.stats["n_steps"]
            else:
                counts["verify.rkf45.accepted"] += traj.stats["n_accepted"]
                counts["verify.rkf45.rejected"] += traj.stats["n_rejected"]
            return traj

        return counted

    def _counting_report(self, gate):
        counts = self.counts

        @functools.wraps(gate)
        def counted(*args, **kwargs):
            rep = gate(*args, **kwargs)
            counts["verify.points_evaluated"] += len(rep.points)
            counts["verify.points_skipped"] += rep.skipped
            return rep

        return counted

    def _counting_bracket(self, bracket, evaluation_error):
        counts = self.counts

        @functools.wraps(bracket)
        def counted(*args, **kwargs):
            try:
                out = bracket(*args, **kwargs)
            except evaluation_error:
                counts["verify.points_skipped"] += 1
                raise
            counts["verify.points_evaluated"] += 1
            return out

        return counted


# (metric, span or count name, snapshot field, divisor to the unit, unit)
LAYER_METRICS = [
    ("jets.jet1.calls", "jets.jet1", "calls", 1, "count"),
    ("jets.jet1.self_us", "jets.jet1", "self_ns", 1e3, "us"),
    ("jets.jet2.calls", "jets.jet2", "calls", 1, "count"),
    ("jets.jet2.self_us", "jets.jet2", "self_ns", 1e3, "us"),
    ("jets.value.calls", "jets.value", "calls", 1, "count"),
    ("jets.value.self_us", "jets.value", "self_ns", 1e3, "us"),
    ("poisson.apply_xl2.calls", "poisson.apply_xl2", "calls", 1, "count"),
    ("poisson.apply_xl2.self_us", "poisson.apply_xl2", "self_ns", 1e3, "us"),
    ("poisson.matrix_with_grads.calls", "poisson.matrix_with_grads", "calls", 1, "count"),
    ("poisson.matrix_with_grads.self_us", "poisson.matrix_with_grads", "self_ns", 1e3, "us"),
    ("poisson.matrix.calls", "poisson.matrix", "calls", 1, "count"),
    ("poisson.matrix.self_us", "poisson.matrix", "self_ns", 1e3, "us"),
    ("riccati.eval.calls", "riccati.eval", "calls", 1, "count"),
    ("riccati.eval.self_us", "riccati.eval", "self_ns", 1e3, "us"),
    ("extension.rhs.calls", "extension.rhs", "calls", 1, "count"),
    ("extension.rhs.self_us", "extension.rhs", "self_ns", 1e3, "us"),
    ("extension.integral.calls", "extension.integral", "calls", 1, "count"),
    ("extension.integral.self_us", "extension.integral", "self_ns", 1e3, "us"),
    ("extension.chain.self_us", "extension.chain", "self_ns", 1e3, "us"),
    ("extension.power_coeffs.self_us", "extension.power_coeffs", "self_ns", 1e3, "us"),
    ("extension.hamiltonian.calls", "extension.hamiltonian", "calls", 1, "count"),
    ("extension.hamiltonian.self_us", "extension.hamiltonian", "self_ns", 1e3, "us"),
    ("verify.integrate.self_s", "verify.integrate", "self_ns", 1e9, "s"),
    ("verify.rk4.steps", "verify.rk4.steps", "counts", 1, "count"),
    ("verify.rkf45.accepted", "verify.rkf45.accepted", "counts", 1, "count"),
    ("verify.rkf45.rejected", "verify.rkf45.rejected", "counts", 1, "count"),
    ("verify.conservation_report.self_s", "verify.conservation_report", "self_ns", 1e9, "s"),
    ("verify.fd_gradient.calls", "verify.fd_gradient", "calls", 1, "count"),
    ("verify.fd_gradient.self_us", "verify.fd_gradient", "self_ns", 1e3, "us"),
    ("verify.sample_points.self_s", "verify.sample_points", "self_ns", 1e9, "s"),
    ("verify.points_evaluated", "verify.points_evaluated", "counts", 1, "count"),
    ("verify.points_skipped", "verify.points_skipped", "counts", 1, "count"),
    ("catalog.instantiate.self_ms", "catalog.instantiate", "self_ns", 1e6, "ms"),
    ("catalog.local_seed.calls", "catalog.local_seed", "calls", 1, "count"),
    ("catalog.local_seed.self_us", "catalog.local_seed", "self_ns", 1e3, "us"),
    ("cli.main.self_ms", "cli.main", "self_ns", 1e6, "ms"),
]


def merge(snapshots: list[dict]) -> dict:
    """Sum several snapshots field by field."""
    out = {"calls": Counter(), "self_ns": Counter(), "counts": Counter()}
    for snap in snapshots:
        for fld in out:
            out[fld].update(snap[fld])
    return {fld: dict(c) for fld, c in out.items()}


def layer_values(snap: dict) -> dict[str, float]:
    """Per-layer metric values from one snapshot, zero where nothing ran."""
    return {metric: snap[fld].get(key, 0) / div if fld == "self_ns" else snap[fld].get(key, 0)
            for metric, key, fld, div, _ in LAYER_METRICS}


def count_values(snap: dict) -> dict[str, int]:
    """The parts of a snapshot that must repeat exactly from pass to pass."""
    return {f"{fld}:{k}": v for fld in ("calls", "counts") for k, v in snap[fld].items()}
