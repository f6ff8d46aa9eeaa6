"""Out-of-program tracing: spans around the public functions of each grf layer.

Nothing in ``src/`` knows about this module.  `install` replaces functions
and methods with wrappers that record a span (name, phase, start, end,
parent) and restores the originals on exit.  A name that a grf module
imported with ``from .x import y`` is patched where the caller looks it up
(for example both ``grf.flow.operator_norm_power`` and
``grf.linalg.operator_norm_power``); methods are patched on their class.

Spans are kept in memory.  A layer's inclusive time counts only spans with
no enclosing span of the same name, so recursion and nested wrappers (such
as ``compute_metrics`` calling ``check_validity``) are not counted twice;
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

SETUP = "setup"
LOOP = "loop"


class Tracer:
    """Span and counter store.

    Wrappers pass straight through outside a `region`, so untimed work such
    as output checks and building the inference checkpoint is not recorded.
    """

    def __init__(self):
        # each span: [name, phase, start, end, parent index or -1, outermost]
        self.spans: list[list] = []
        # counters and samples are kept for the measured loop only
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.phase: str | None = None
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    @contextlib.contextmanager
    def region(self, name: str, phase: str):
        """A root span opened by the benchmark itself, e.g. one train step."""
        self.phase = phase
        try:
            with self.span(name):
                yield
        finally:
            self.phase = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        record = [name, self.phase, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self._active[name] == 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._active[name] += 1
        record[2] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[3] = time.perf_counter()
        self._active[record[0]] -= 1
        self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.phase == LOOP:
            self.counters[name] += amount

    def sample(self, name: str, value) -> None:
        if self.phase == LOOP:
            self.samples[name].append(value)

    def root_name(self) -> str | None:
        """Name of the benchmark region the current span runs in."""
        return self.spans[self._stack[0]][0] if self._stack else None

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            record = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(record)

        return wrapper

    # -- summaries ------------------------------------------------------------

    def totals(self, phase: str) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (outermost only), self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, ph, start, end, _, outermost) in enumerate(self.spans):
            if ph != phase:
                continue
            row = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if outermost:
                row["inclusive_s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
        return out


def _wrap_power_iteration(tracer: Tracer, fn):
    """Span plus a count of every matvec/rmatvec closure call."""

    @functools.wraps(fn)
    def wrapper(matvec, rmatvec, *args, **kwargs):
        if tracer.phase is None:
            return fn(matvec, rmatvec, *args, **kwargs)

        def counted(op):
            def call(x):
                tracer.count("linalg.power_iter_matvecs")
                return op(x)
            return call

        with tracer.span("linalg.power_iter"):
            return fn(counted(matvec), counted(rmatvec), *args, **kwargs)

    return wrapper


def _wrap_inversion(tracer: Tracer, fn):
    """Span plus the number of fixed-point iterations and whether it stopped early."""

    @functools.wraps(fn)
    def wrapper(apply_fn, y, cfg):
        if tracer.phase is None:
            return fn(apply_fn, y, cfg)
        iterations = 0

        def counted(x):
            nonlocal iterations
            iterations += 1
            return apply_fn(x)

        with tracer.span("inversion.invert_layer"):
            out = fn(counted, y, cfg)
        tracer.sample("inversion.fixed_point_iters", iterations)
        tracer.sample(f"inversion.fixed_point_iters/{tracer.root_name()}", iterations)
        tracer.count("inversion.early_stops", float(iterations < cfg.iterations))
        return out

    return wrapper


def _wrap_tape_node(tracer: Tracer, fn):
    """Count grad-requiring tape nodes and the bytes of their values."""

    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(data, parents, backward):
        out = fn(data, parents, backward)
        if out.requires_grad and tracer.phase == LOOP:
            counters["autodiff.tape_nodes"] += 1
            counters["autodiff.tape_bytes"] += out.data.nbytes
        return out

    return wrapper


def _patch_sites(grf):
    """(owner, attribute, span name or wrapper factory) for every traced call site."""
    flow, gcn, mlp = grf.flow, grf.flow.GcnResidualBlock, grf.flow.MlpResidualBlock
    model, tensor = grf.flow.GrfModel, grf.autodiff.Tensor
    return [
        (tensor, "backward", "autodiff.backward"),
        (tensor, "_node", _wrap_tape_node),
        (grf.training, "grad_nll", "training.grad_nll"),
        (grf.training, "adam_step", "training.adam_step"),
        (grf.training, "logdet_series_from_probes", "likelihood.series_from_probes"),
        (grf.likelihood, "logdet_series_from_probes", "likelihood.series_from_probes"),
        (grf.likelihood, "logdet_series", "likelihood.logdet_series"),
        (model, "__init__", "flow.model_init"),
        (flow, "load_checkpoint", "flow.load_checkpoint"),
        (model, "project_to_budget", "flow.project"),
        (gcn, "certified_bound", "flow.certified_bound"),
        (mlp, "certified_bound", "flow.certified_bound"),
        (gcn, "apply", "flow.block_apply"),
        (mlp, "apply", "flow.block_apply"),
        (gcn, "jvp_many", "flow.jvp_many"),
        (mlp, "jvp_many", "flow.jvp_many"),
        (flow, "operator_norm_power", _wrap_power_iteration),
        (grf.linalg, "operator_norm_power", _wrap_power_iteration),
        (grf.inversion, "invert_residual_layer", _wrap_inversion),
        (grf.training, "dequantize", "graphs.dequantize"),
        (grf.likelihood, "dequantize", "graphs.dequantize"),
        (grf.analysis, "dequantize", "graphs.dequantize"),
        (flow, "augmented_normalized_adjacency", "graphs.operator"),
        (grf.inversion, "quantize_adjacency", "graphs.quantize"),
        (grf.inversion, "quantize_features", "graphs.quantize"),
        (grf.analysis, "quantize_adjacency", "graphs.quantize"),
        (grf.analysis, "quantize_features", "graphs.quantize"),
        (grf.chem, "load_smiles_file", "chem.parse"),
        (grf.chem, "check_validity", "chem.validity"),
        (grf.chem, "write_smiles", "chem.validity"),
        (grf.chem, "compute_metrics", "chem.validity"),
        (model, "encode", "analysis.encode"),
    ]


@contextlib.contextmanager
def install(tracer: Tracer, grf):
    """Patch every traced call site for the duration of the block."""
    saved = []
    try:
        for owner, attr, how in _patch_sites(grf):
            original = owner.__dict__[attr]
            fn = original.__func__ if isinstance(original, staticmethod) else original
            wrapped = how(tracer, fn) if callable(how) else tracer.wrap(how, fn)
            if isinstance(original, staticmethod):
                wrapped = staticmethod(wrapped)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------

# metric name -> span name; set-up spans are reported per set-up, the rest
# per operation (train step or inference round).
_SETUP_TIMES = {
    "flow.model_init_ms": "flow.model_init",
    "flow.load_checkpoint_ms": "flow.load_checkpoint",
    "chem.parse_ms": "chem.parse",
}
_LOOP_TIMES = {
    "autodiff.backward_ms": "autodiff.backward",
    "training.grad_nll_ms": "training.grad_nll",
    "training.adam_step_ms": "training.adam_step",
    "likelihood.series_from_probes_ms": "likelihood.series_from_probes",
    "likelihood.logdet_series_ms": "likelihood.logdet_series",
    "flow.project_ms": "flow.project",
    "flow.certified_bound_ms": "flow.certified_bound",
    "flow.block_apply_ms": "flow.block_apply",
    "linalg.power_iter_ms": "linalg.power_iter",
    "inversion.invert_layer_ms": "inversion.invert_layer",
    "graphs.dequantize_ms": "graphs.dequantize",
    "graphs.operator_ms": "graphs.operator",
    "graphs.quantize_ms": "graphs.quantize",
    "chem.validity_ms": "chem.validity",
    "analysis.encode_ms": "analysis.encode",
}
_LOOP_CALLS = {
    "likelihood.logdet_series_calls": "likelihood.logdet_series",
    "flow.certified_bound_calls": "flow.certified_bound",
    "flow.block_apply_calls": "flow.block_apply",
    "flow.jvp_many_calls": "flow.jvp_many",
    "linalg.power_iter_calls": "linalg.power_iter",
    "inversion.invert_layer_calls": "inversion.invert_layer",
}

PER_LAYER_UNITS = {
    **{name: "ms" for name in (*_SETUP_TIMES, *_LOOP_TIMES)},
    **{name: "count" for name in _LOOP_CALLS},
    "autodiff.tape_nodes": "count",
    "autodiff.tape_mb": "MB",
    "linalg.power_iter_matvecs": "count",
    "inversion.fixed_point_iters_mean": "count",
    "inversion.fixed_point_iters_max": "count",
    "inversion.early_stop_ratio": "ratio",
    "inversion.sample_iters_mean": "count",
    "inversion.reconstruct_iters_mean": "count",
}


def layer_metrics(tracer: Tracer, n_setups: int, n_ops: int) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload never enters the layer."""
    setup, loop = tracer.totals(SETUP), tracer.totals(LOOP)

    def inclusive_ms(table, span, per):
        return 1e3 * table.get(span, {}).get("inclusive_s", 0.0) / per

    out = {}
    for metric, span in _SETUP_TIMES.items():
        out[metric] = inclusive_ms(setup, span, n_setups)
    for metric, span in _LOOP_TIMES.items():
        out[metric] = inclusive_ms(loop, span, n_ops)
    for metric, span in _LOOP_CALLS.items():
        out[metric] = loop.get(span, {}).get("calls", 0) / n_ops
    counters = tracer.counters
    out["autodiff.tape_nodes"] = counters.get("autodiff.tape_nodes", 0.0) / n_ops
    out["autodiff.tape_mb"] = counters.get("autodiff.tape_bytes", 0.0) / n_ops / 2 ** 20
    out["linalg.power_iter_matvecs"] = counters.get("linalg.power_iter_matvecs", 0.0) / n_ops
    iters = tracer.samples.get("inversion.fixed_point_iters", [])
    out["inversion.fixed_point_iters_mean"] = sum(iters) / len(iters) if iters else 0.0
    out["inversion.fixed_point_iters_max"] = float(max(iters)) if iters else 0.0
    out["inversion.early_stop_ratio"] = (counters.get("inversion.early_stops", 0.0) / len(iters)
                                         if iters else 0.0)
    for op in ("sample", "reconstruct"):
        iters = tracer.samples.get(f"inversion.fixed_point_iters/bench.{op}", [])
        out[f"inversion.{op}_iters_mean"] = sum(iters) / len(iters) if iters else 0.0
    return out
