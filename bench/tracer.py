"""Spans around the public functions of each twemac_jcf module.

`Tracer.install` replaces module attributes with timing wrappers; src/ is
not edited.  A function is wrapped once and the wrapper is bound at every
name the package calls it through (for instance `find_threshold` in both
`cli` and `threshold`), since `from .x import f` copies the binding.

Every wrapped call adds its duration to its own totals and to the child
time of the wrapped call that encloses it, which gives self times.  Calls
of the layer-boundary functions are also kept as spans
(id, name, start, end, parent id) and written out at the end.  The
per-iteration helpers inside the evolutions run hundreds of thousands of
times per round, so they are only totalled per (name, enclosing name).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, metric name, kept as a span)
WRAPPED = [
    ("cli", "main", "cli.main", True),
    ("cli", "find_threshold", "threshold.find_threshold", True),
    ("threshold", "find_threshold", "threshold.find_threshold", True),
    ("cli", "sweep", "threshold.sweep", True),
    ("threshold", "is_decodable", "threshold.is_decodable", True),
    ("threshold", "de_regular", "de_core.de_regular", True),
    ("threshold", "de_coupled", "de_coupled.de_coupled", True),
    ("de_core", "chk_update", "de_core.chk_update", False),
    ("de_core", "var_update", "de_core.var_update", False),
    ("de_core", "decoder_output", "de_core.decoder_output", False),
    ("de_coupled", "eff_vc_window", "de_coupled.eff_vc_window", False),
    ("de_coupled", "eff_cv_window", "de_coupled.eff_cv_window", False),
    ("de_coupled", "chk_matrices", "de_coupled.chk_matrices", False),
    ("de_coupled", "var_matrices", "de_coupled.var_matrices", False),
    ("de_coupled", "mat_power", "de_coupled.mat_power", False),
    ("de_coupled", "renormalize", "de_coupled.renormalize", False),
    ("cli", "failure_rate", "simulate.failure_rate", True),
    ("simulate", "sample_regular_graph", "simulate.sample_regular_graph", True),
    ("simulate", "sample_coupled_graph", "simulate.sample_coupled_graph", True),
    ("simulate", "peel_decode", "simulate.peel_decode", True),
    ("simulate.EtgInstance", "edge_arrays", "simulate.edge_arrays", True),
    ("simulate", "sample_states", "channel.sample_states", True),
    ("channel.ChannelFamily", "eval", "channel.eval", False),
    ("cli", "rate_bounds", "rates.rate_bounds", False),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id)
        self.stack = []  # [name, start, child seconds, span id]
        self.total = defaultdict(float)  # name -> seconds
        self.self_time = defaultdict(float)  # name -> seconds outside wrapped children
        self.calls = defaultdict(int)
        self.nested = defaultdict(float)  # (name, enclosing name) -> seconds
        self.counts = defaultdict(float)  # counters read from arguments and results
        self.missing = []

    def _wrap(self, fn, name: str, keep_span: bool):
        stack, clock = self.stack, time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if keep_span:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.total[name] += dur
                self.self_time[name] += dur - frame[2]
                self.calls[name] += 1
                if parent is not None:
                    parent[2] += dur
                    self.nested[(name, parent[0])] += dur
                if keep_span:
                    self.spans[span_id] = (
                        span_id,
                        name,
                        frame[1],
                        end,
                        _enclosing_span(stack),
                    )
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Bind a wrapper at every (module, attribute) of WRAPPED that exists."""
        wrappers = {}
        for where, attr, name, keep_span in WRAPPED:
            module, _, cls = where.partition(".")
            try:
                # the package __init__ rebinds some submodule names to functions
                owner = importlib.import_module(f"{package.__name__}.{module}")
                if cls:
                    owner = getattr(owner, cls)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{where}.{attr}")
                continue
            key = id(fn)
            if key not in wrappers:
                wrappers[key] = self._wrap(fn, name, keep_span)
            setattr(owner, attr, wrappers[key])

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "missing": self.missing,
                    "columns": ["id", "name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
            )

    def summary(self) -> dict:
        """Totals that the per-layer metrics are computed from."""
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "nested": {f"{a}|{b}": v for (a, b), v in self.nested.items()},
            "counts": dict(self.counts),
            "missing": self.missing,
        }


def _enclosing_span(stack):
    for frame in reversed(stack):
        if frame[3] is not None:
            return frame[3]
    return None


def _eval_outcome(counts, args, meta):
    counts[f"evals_{meta.status}"] += 1


def _coupled_iters(counts, args, res):
    ensemble = args[0]
    counts["de_coupled.iters"] += res.iterations_used
    counts["de_coupled.pos_iters"] += res.iterations_used * ensemble.n_var_positions


def _coupled_rows(counts, args, rows):
    counts["de_coupled.rows"] += len(rows)


def _regular_iters(counts, args, res):
    counts["de_core.iters"] += res.iterations_used


def _edges(counts, args, arrays):
    counts["simulate.edges"] += arrays[0].size


def _decoded_vars(counts, args, stats):
    counts["simulate.vars"] += stats.n_vars * stats.trials
    counts["simulate.trials"] += stats.trials


_OBSERVERS = {
    "threshold.is_decodable": _eval_outcome,
    "de_coupled.de_coupled": _coupled_iters,
    "de_coupled.eff_cv_window": _coupled_rows,
    "de_core.de_regular": _regular_iters,
    "simulate.edge_arrays": _edges,
    "simulate.failure_rate": _decoded_vars,
}
