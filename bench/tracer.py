"""Span tracer that times qlandauer's layers from outside the package.

`Tracer.install()` replaces each traced function at every module attribute
of the `qlandauer` package that binds it (for example both
`qlandauer.protocol.run_erasure` and `qlandauer.cli.run_erasure`), so a call
is seen whichever import path the caller used.  The package source is never
modified and `uninstall()` puts every original object back.

Spans live in memory as `[name, start_ns, end_ns, parent_index, child_ns]`;
`totals()` reduces them to additive quantities that can be summed across
passes and processes, and `layer_metrics()` turns such sums into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# module -> {attribute: span name}
SPANS = {
    "qlandauer.cli": {"parse_and_dispatch": "cli.dispatch"},
    "qlandauer.protocol": {
        "run_erasure": "protocol.run_erasure",
        "simulated_readout_run": "protocol.simulated_readout_run",
        "sweep_temperature": "protocol.sweep_temperature",
        "sweep_theta": "protocol.sweep_theta",
        "find_entropy_zero_crossings": "protocol.find_entropy_zero_crossings",
    },
    "qlandauer.linalg": {
        "kron": "linalg.kron",
        "partial_trace": "linalg.partial_trace",
    },
    "qlandauer.ion": {
        "thermal_state": "ion.thermal_state",
        "dephase_qubit": "ion.dephase_qubit",
        "evolve": "ion.evolve",
        "jc_block_unitary": "ion.jc_block_unitary",
    },
    "qlandauer.info": {
        "landauer_ledger": "info.landauer_ledger",
        "von_neumann_entropy": "info.von_neumann_entropy",
        "mutual_information": "info.mutual_information",
    },
    "qlandauer.readout": {
        "exact_trace": "readout.exact_trace",
        "fit_phonon_populations": "readout.fit",
        "sample_shots": "readout.sample_shots",
        "detection_flip": "readout.detection_flip",
        "model_trace": "readout.model_trace",
    },
}

# Functions only counted: a span per call would cost more than the call.
# module -> {attribute: counter name}
COUNTERS = {
    "numpy.linalg": {"eigvalsh": "linalg.eigvalsh.calls"},
    "qlandauer.readout": {"project_to_simplex": "readout.fit.iterations"},
}

# DensityMatrix validates (one eigvalsh) in __post_init__; the span wraps it.
DENSITY_MATRIX_SPAN = "linalg.density_matrix"

def _bindings(obj):
    """Every (module, attribute) of the qlandauer package bound to obj."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "qlandauer" or mod_name.startswith("qlandauer.")):
            continue
        for attr, value in vars(module).items():
            if value is obj:
                found.append((module, attr))
    return found


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.sums: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, time.perf_counter_ns(), 0, parent, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += record[2] - record[1]
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import numpy.linalg
        import qlandauer.cli  # noqa: F401  (the package loads every module but cli)
        from qlandauer.linalg import DensityMatrix

        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, names in SPANS.items():
            module = sys.modules[mod_name]
            for attr, span in names.items():
                original = getattr(module, attr)
                wrapper = self._span_wrapper(span, original, _AFTER.get(span))
                for owner, owner_attr in _bindings(original):
                    self._patch(owner, owner_attr, wrapper)
        for mod_name, names in COUNTERS.items():
            module = sys.modules[mod_name]
            for attr, counter in names.items():
                original = getattr(module, attr)
                wrapper = self._count_wrapper(counter, original)
                owners = [(module, attr)] if mod_name == "numpy.linalg" else _bindings(original)
                for owner, owner_attr in owners:
                    self._patch(owner, owner_attr, wrapper)
        self._patch(DensityMatrix, "__post_init__",
                    self._span_wrapper(DENSITY_MATRIX_SPAN, DensityMatrix.__post_init__,
                                       _after_density_matrix))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def self_ns(self, index: int) -> int:
        _, start, end, _, child = self.spans[index]
        return end - start - child

    def totals(self) -> dict:
        """Additive reduction: '<span>.calls', '<span>.self_ns', counters,
        sums, 'negative_self' (spans whose self time is below 0, which
        would be a tracer fault); maxima under 'max:<name>'.  Merge with
        `merge_totals`."""
        out: Counter = Counter()
        in_crossing = []
        for name, start, end, parent, child in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ns"] += end - start - child
            out["negative_self"] += end - start - child < 0
            if parent < 0:
                out["root_ns"] += end - start
            inside = name == "protocol.find_entropy_zero_crossings" or (
                parent >= 0 and in_crossing[parent])
            in_crossing.append(inside)
            if inside and name == "protocol.run_erasure":
                out["crossing_erasures"] += 1
        out.update(self.counts)
        out.update(self.sums)
        for name, value in self.maxima.items():
            out[f"max:{name}"] = value
        return dict(out)


def merge_totals(parts) -> dict:
    merged: dict = {}
    for part in parts:
        for key, value in part.items():
            if key.startswith("max:"):
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def layer_metrics(names, totals: dict, passes: int, traced_wall_ns: int,
                  overhead_s: float, import_ns: int = 0) -> dict:
    """Value of each named per-layer metric, per traced pass.  Ratios with
    no denominator (no fit ran, no crossing search ran) read 0."""
    t = totals

    def per_pass(key):
        return t.get(key, 0) / passes

    def ratio(num, den):
        return t.get(num, 0) / t[den] if t.get(den) else 0.0

    values = {
        "cli.import_s": import_ns / passes / 1e9,
        "protocol.erasures_per_crossing": ratio(
            "crossing_erasures", "protocol.find_entropy_zero_crossings.calls"),
        "linalg.eigvalsh.calls": per_pass("linalg.eigvalsh.calls"),
        "linalg.bytes_computed": per_pass("linalg.bytes_computed"),
        "linalg.dim_max": t.get("max:linalg.dim_max", 0),
        "ion.n_max_max": t.get("max:ion.n_max_max", 0),
        "readout.exact_trace.points": per_pass("readout.exact_trace.points"),
        "readout.fit.iterations": per_pass("readout.fit.iterations"),
        "readout.fit.converged_ratio": ratio("readout.fit.converged", "readout.fit.calls"),
        "readout.fit.residual_rms": ratio("readout.fit.residual_sum", "readout.fit.calls"),
        "readout.heat_err_abs": ratio(
            "readout.heat_err_sum", "protocol.simulated_readout_run.calls"),
        "trace.overhead_s": overhead_s,
        "trace.span_coverage": t.get("root_ns", 0) / traced_wall_ns if traced_wall_ns else 0.0,
    }
    for name in names:
        if name in values:
            continue
        if name.endswith(".calls"):
            values[name] = per_pass(name)
        elif name.endswith(".self_s"):
            values[name] = per_pass(name[:-len("_s")] + "_ns") / 1e9
        else:
            raise KeyError(name)
    return {name: values[name] for name in names}


# -- per-call hooks ---------------------------------------------------------

def _after_density_matrix(tracer, args, _):
    dim = args[0].matrix.shape[0]
    tracer.sums["linalg.bytes_computed"] += 16 * dim * dim
    tracer.maxima["linalg.dim_max"] = max(tracer.maxima["linalg.dim_max"], dim)


def _after_n_max(tracer, _, n_max):
    tracer.maxima["ion.n_max_max"] = max(tracer.maxima["ion.n_max_max"], n_max)


def _after_fit(tracer, _, fit):
    tracer.sums["readout.fit.converged"] += int(fit.converged)
    tracer.sums["readout.fit.residual_sum"] += fit.residual_norm


def _after_readout_run(tracer, _, row):
    exact = row.exact_mean_phonon - row.exact_mean_phonon_pre
    tracer.sums["readout.heat_err_sum"] += abs(row.delta_q_estimate - exact)


_AFTER = {
    "ion.thermal_state": lambda tr, a, rho: _after_n_max(tr, a, rho.dim - 1),
    "ion.jc_block_unitary": lambda tr, a, u: _after_n_max(tr, a, u.shape[0] // 2 - 1),
    "readout.exact_trace": lambda tr, a, trace: tr.sums.update(
        {"readout.exact_trace.points": len(trace)}),
    "readout.fit": _after_fit,
    "protocol.simulated_readout_run": _after_readout_run,
}


# -- self-test --------------------------------------------------------------

def self_test() -> list[str]:
    """Check the tracer against known call structure; return the problems."""
    import contextlib
    import io
    import math

    import numpy as np

    import qlandauer.cli as cli
    from qlandauer import protocol

    problems = []
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        n_angles = 3
        protocol.sweep_theta(protocol.ExperimentConfig(), np.linspace(0.0, math.pi, n_angles))
        erasures = [i for i, s in enumerate(tracer.spans) if s[0] == "protocol.run_erasure"]
        if len(erasures) != n_angles:
            problems.append(f"sweep_theta over {n_angles} angles gave "
                            f"{len(erasures)} protocol.run_erasure spans")
        for i in erasures:
            ledgers = [s for s in tracer.spans if s[3] == i and s[0] == "info.landauer_ledger"]
            if len(ledgers) != 1:
                problems.append(f"run_erasure span {i} has {len(ledgers)} landauer_ledger children")

        first = len(tracer.spans)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.parse_and_dispatch(["verify"])
        if code != 0:
            problems.append(f"parse_and_dispatch(['verify']) returned {code}")
        dispatch = [i for i in range(first, len(tracer.spans))
                    if tracer.spans[i][0] == "cli.dispatch"]
        nested = [s for s in tracer.spans[first:]
                  if s[0] == "protocol.run_erasure" and s[3] in dispatch]
        if len(dispatch) != 1 or not nested:
            problems.append("protocol.run_erasure is not nested under cli.dispatch")

        negative = [s[0] for i, s in enumerate(tracer.spans) if tracer.self_ns(i) < 0]
        if negative:
            problems.append(f"negative self time in {sorted(set(negative))}")
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        if getattr(owner, attr) is not original:
            problems.append(f"{getattr(owner, '__name__', owner)}.{attr} not restored")
    if not patched:
        problems.append("tracer patched nothing")
    return problems
