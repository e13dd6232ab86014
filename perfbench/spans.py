"""Spans recorded from outside the package, and the per-layer metrics.

The tracer wraps public functions of ``entroflow`` and a few numpy/scipy
kernels it calls.  Each wrapped call records a span: name, parent span,
start and end.  Spans stay in memory, in flat arrays, until the run writes
them out; per-layer metrics, self time included, are derived from them.

A wrapped module-level function is replaced in every ``entroflow`` module
namespace that holds it (``entroflow.witnesses.propagate`` as well as
``entroflow.dynamics.propagate``).  Methods are replaced on their class.
Nothing is wrapped unless a traced run asks for it, so the untraced runs
execute the package as shipped.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

__all__ = ["Tracer", "LAYER_METRICS", "layer_metrics"]

# Span names are "<module>.<function>".  The numpy and scipy kernels keep the
# module that defines them.
EIG = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
SVD = "numpy.linalg.svd"
EXPM = "scipy.linalg.expm"
DENSITY_MATRIX = "linalg.DensityMatrix"
APPLY = "channels.LindbladGenerator.apply"
SUPEROPERATOR = "channels.LindbladGenerator.superoperator"
CHANNEL = "channels.QuantumChannel"
PROPAGATE = "dynamics.propagate"
CLOSED_FORM = "dynamics.closed_form_trajectory"
INTERMEDIATE = "dynamics.intermediate_map"
ENTROPY_RATE = "dynamics.entropy_rate"
EPSILON = "witnesses.epsilon_derivative"
MEASURES = ("witnesses.measure_generator", "witnesses.measure_channel", "witnesses.blp_measure")
OSLASH = ("nonunitarity.oslash_norm", "nonunitarity.diamond_distance")
RUN_CONFIG = "scenarios.run_config"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.active = False
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # Observations of returned values: trajectory states, optimizer starts.
        self.states_returned = {PROPAGATE: 0, CLOSED_FORM: 0}
        self.start_values: list[tuple[float, ...]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self._id(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0)
            tracer._stack.append(idx)
            tracer.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            if observe is not None:
                observe(out)
            return out

        return wrapper

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, name: str, original, observe=None) -> None:
        """Replace ``original`` wherever an entroflow module namespace binds it."""
        wrapper = self.wrap(name, original, observe)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "entroflow" or mod_name.startswith("entroflow.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def patch_attribute(self, name: str, owner, attr: str) -> None:
        self._set(owner, attr, self.wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        """Wrap every traced name that exists.  A name a later version of the
        package drops is listed in ``missing`` and its metrics read 0."""
        import scipy.linalg
        from entroflow import channels, dynamics, linalg, nonunitarity, scenarios, witnesses

        def count_states(name):
            def observe(traj):
                self.states_returned[name] += len(traj.states)
            return observe

        def keep_starts(result):
            self.start_values.append(result.per_start_values)

        methods = [
            (EIG[0], np.linalg, "eigh"),
            (EIG[1], np.linalg, "eigvalsh"),
            (SVD, np.linalg, "svd"),
            (DENSITY_MATRIX, linalg.DensityMatrix, "__post_init__"),
            (APPLY, channels.LindbladGenerator, "apply"),
            (SUPEROPERATOR, channels.LindbladGenerator, "superoperator"),
            (CHANNEL, channels.QuantumChannel, "__init__"),
        ]
        functions = [
            (EXPM, scipy.linalg, "expm", None),
            (PROPAGATE, dynamics, "propagate", count_states(PROPAGATE)),
            (CLOSED_FORM, dynamics, "closed_form_trajectory", count_states(CLOSED_FORM)),
            (OSLASH[0], nonunitarity, "oslash_norm", keep_starts),
            (OSLASH[1], nonunitarity, "diamond_distance", None),
            (RUN_CONFIG, scenarios, "run_config", None),
        ]
        functions += [(f"dynamics.{fn}", dynamics, fn, None) for fn in (
            "intermediate_map", "entropy_rate", "entropy_rate_fd", "cp_divisibility_check")]
        functions += [(f"witnesses.{fn}", witnesses, fn, None) for fn in (
            "epsilon_derivative", "f_components", "witness_reports", "measure_generator",
            "measure_channel", "blp_measure", "entropy_change", "entropy_change_lower_bound",
            "entropy_change_upper_bound", "pinsker_gap", "theorem2_bound")]
        self.missing = []
        for name, owner, attr in methods:
            if hasattr(owner, attr):
                self.patch_attribute(name, owner, attr)
            else:
                self.missing.append(name)
        for name, module, attr, observe in functions:
            if hasattr(module, attr):
                self.patch_function(name, getattr(module, attr), observe)
            else:
                self.missing.append(name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# name, unit, what it is.  Counts repeat exactly for one seed; times do not.
LAYER_METRICS = [
    ("linalg.eig_calls", "count", "numpy eigh + eigvalsh calls"),
    ("linalg.eig_s", "s", "time in eigh + eigvalsh"),
    ("linalg.svd_calls", "count", "numpy svd calls"),
    ("linalg.svd_s", "s", "time in svd"),
    ("linalg.density_matrix_builds", "count", "DensityMatrix validations"),
    ("linalg.eig_per_state", "count", "eigh + eigvalsh calls per trajectory state returned"),
    ("channels.generator_apply_calls", "count", "LindbladGenerator.apply calls"),
    ("channels.generator_apply_s", "s", "time in LindbladGenerator.apply"),
    ("channels.superoperator_calls", "count", "LindbladGenerator.superoperator calls"),
    ("channels.superoperator_s", "s", "time in LindbladGenerator.superoperator"),
    ("channels.channel_builds", "count", "QuantumChannel constructions"),
    ("channels.channel_build_s", "s", "time in QuantumChannel construction"),
    ("dynamics.propagate_calls", "count", "propagate calls"),
    ("dynamics.propagate_self_s", "s", "propagate time outside wrapped callees"),
    ("dynamics.applies_per_state", "count", "generator applies inside propagate per state it returned"),
    ("dynamics.intermediate_map_calls", "count", "intermediate_map calls"),
    ("dynamics.intermediate_map_self_s", "s", "intermediate_map time outside wrapped callees"),
    ("dynamics.superops_per_map", "count", "superoperator builds inside intermediate_map per call"),
    ("dynamics.expm_calls", "count", "expm calls through entroflow.dynamics"),
    ("dynamics.expm_s", "s", "time in expm"),
    ("dynamics.entropy_rate_calls", "count", "entropy_rate calls"),
    ("dynamics.entropy_rate_s", "s", "time in entropy_rate, callees included"),
    ("witnesses.epsilon_derivative_calls", "count", "epsilon_derivative calls"),
    ("witnesses.epsilon_derivative_self_s", "s", "epsilon_derivative time outside wrapped callees"),
    ("witnesses.measure_self_s", "s", "measure_generator/measure_channel/blp_measure self time"),
    ("nonunitarity.oslash_calls", "count", "oslash_norm + diamond_distance calls"),
    ("nonunitarity.oslash_self_s", "s", "optimizer self time in those calls"),
    ("nonunitarity.objective_evals", "count", "eigvalsh calls inside those calls"),
    ("nonunitarity.starts_at_best_share", "1", "oslash_norm starts within 1e-6 of the best value"),
    ("scenarios.run_config_self_s", "s", "run_config time outside wrapped callees"),
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since the last ``clear``."""
    a = tracer.arrays()
    n = len(a["start_ns"])
    span_name = np.array(tracer.names, dtype=object)[a["name_id"]]
    parent = a["parent"]
    duration = (a["end_ns"] - a["start_ns"]) / 1e9
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
    self_time = duration - child_time[:n]

    def mask(*wanted):
        return np.isin(span_name, wanted)

    def under(child_names, ancestor_names) -> int:
        """Spans named in ``child_names`` with an ancestor named in ``ancestor_names``."""
        inside = np.zeros(n, dtype=bool)
        is_ancestor = mask(*ancestor_names)
        for i in range(n):  # parents precede children
            p = parent[i]
            inside[i] = p >= 0 and (is_ancestor[p] or inside[p])
        return int(np.count_nonzero(inside & mask(*child_names)))

    def ratio(num: float, den: float) -> float:
        return float(num) / den if den else 0.0

    states = sum(tracer.states_returned.values())
    eig_calls = int(np.count_nonzero(mask(*EIG)))
    propagate_calls = int(np.count_nonzero(mask(PROPAGATE)))
    map_calls = int(np.count_nonzero(mask(INTERMEDIATE)))
    best_share = [np.mean(np.asarray(v) >= max(v) - 1e-6) for v in tracer.start_values]

    return {
        "linalg.eig_calls": eig_calls,
        "linalg.eig_s": float(duration[mask(*EIG)].sum()),
        "linalg.svd_calls": int(np.count_nonzero(mask(SVD))),
        "linalg.svd_s": float(duration[mask(SVD)].sum()),
        "linalg.density_matrix_builds": int(np.count_nonzero(mask(DENSITY_MATRIX))),
        "linalg.eig_per_state": ratio(eig_calls, states),
        "channels.generator_apply_calls": int(np.count_nonzero(mask(APPLY))),
        "channels.generator_apply_s": float(duration[mask(APPLY)].sum()),
        "channels.superoperator_calls": int(np.count_nonzero(mask(SUPEROPERATOR))),
        "channels.superoperator_s": float(duration[mask(SUPEROPERATOR)].sum()),
        "channels.channel_builds": int(np.count_nonzero(mask(CHANNEL))),
        "channels.channel_build_s": float(duration[mask(CHANNEL)].sum()),
        "dynamics.propagate_calls": propagate_calls,
        "dynamics.propagate_self_s": float(self_time[mask(PROPAGATE)].sum()),
        "dynamics.applies_per_state": ratio(under([APPLY], [PROPAGATE]),
                                            tracer.states_returned[PROPAGATE]),
        "dynamics.intermediate_map_calls": map_calls,
        "dynamics.intermediate_map_self_s": float(self_time[mask(INTERMEDIATE)].sum()),
        "dynamics.superops_per_map": ratio(under([SUPEROPERATOR], [INTERMEDIATE]), map_calls),
        "dynamics.expm_calls": int(np.count_nonzero(mask(EXPM))),
        "dynamics.expm_s": float(duration[mask(EXPM)].sum()),
        "dynamics.entropy_rate_calls": int(np.count_nonzero(mask(ENTROPY_RATE))),
        "dynamics.entropy_rate_s": float(duration[mask(ENTROPY_RATE)].sum()),
        "witnesses.epsilon_derivative_calls": int(np.count_nonzero(mask(EPSILON))),
        "witnesses.epsilon_derivative_self_s": float(self_time[mask(EPSILON)].sum()),
        "witnesses.measure_self_s": float(self_time[mask(*MEASURES)].sum()),
        "nonunitarity.oslash_calls": int(np.count_nonzero(mask(*OSLASH))),
        "nonunitarity.oslash_self_s": float(self_time[mask(*OSLASH)].sum()),
        "nonunitarity.objective_evals": under([EIG[1]], OSLASH),
        "nonunitarity.starts_at_best_share": float(np.mean(best_share)) if best_share else 0.0,
        "scenarios.run_config_self_s": float(self_time[mask(RUN_CONFIG)].sum()),
    }
