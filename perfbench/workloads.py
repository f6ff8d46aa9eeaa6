"""The benchmark workloads: closed loops over grf's public functions.

Each workload is one client in a closed loop: the next operation starts
only after the previous one has finished.  Set-up (model build or
checkpoint load, plus parsing and padding the dataset) is repeated
`setups` times and reported as a median.  Output checks run outside the
timed regions and decide which operations count as failed.

The benchmark calls grf through module attributes (``training.grad_nll``,
never a name bound at import time), so the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import grf
from grf import analysis, chem, flow, graphs, inversion, likelihood, training
from grf.linalg import NumericalError

import tracing


# Settings the CLI uses, the same on every workload.  Training takes the
# `TrainConfig` defaults for everything but the batch size and seed, as
# `grf train` does (learning rate 1e-3, 8 series terms x 4 Rademacher probes).
EVAL_SERIES_TERMS = 20      # `grf eval`
EVAL_PROBES = 64            # `grf eval`
SAMPLE_TX = 0.65            # `grf sample --tx` default
SAMPLE_TA = 0.69            # `grf sample --ta` default
ITERATIONS = 100            # `grf sample --iterations` default; acceptance criterion 2
BUDGET = 0.9                # init_scale = lipschitz_budget: weights sit at the spectral budget
INFER_SETUPS = 2            # checkpoint loads per run, about 4.5 s each at QM9 shape
INFER_MIN_ROUNDS = 1        # rounds every inference run makes; the digest covers these


@dataclass(frozen=True)
class TrainSpec:
    """Training steps (`grad_nll` + `adam_step`) on one model profile."""

    model_config: Callable[..., flow.ModelConfig]
    dataset: str
    batch_size: int
    setups: int
    min_steps: int          # always run this many; the digest reads the last of them


@dataclass(frozen=True)
class InferSpec:
    """Rounds of inference on a checkpoint at the spectral budget.

    One round is `full_logp` on one molecule, then `sample_calls` calls of
    `generate` (`sample_batch` molecules each, then validity, SMILES and
    metrics), then `reconstruct_calls` calls of `reconstruction_curve`
    (`reconstruct_batch` molecules each).
    """

    model_config: Callable[..., flow.ModelConfig]
    dataset: str
    sample_batch: int
    sample_calls: int
    reconstruct_batch: int
    reconstruct_calls: int


WORKLOADS = {
    # 100 steps leave ten samples beyond the 90th percentile
    "toy-train": TrainSpec(flow.toy_config, "data/toy_train.smi", batch_size=25,
                           setups=60, min_steps=100),
    "qm9-train": TrainSpec(flow.qm9_table_config, "data/qm9_subset.smi", batch_size=4,
                           setups=2, min_steps=2),
    # each of the three operations takes about a third of a round
    "qm9-infer": InferSpec(flow.qm9_table_config, "data/qm9_subset.smi",
                           sample_batch=32, sample_calls=3,
                           reconstruct_batch=16, reconstruct_calls=3),
}

END_TO_END_UNITS = {"setup_s": "s", "mol_per_s": "1/s", "peak_rss_mb": "MB"}


class Failures:
    """Failed operations over attempted ones, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._last_failed = False

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self._last_failed = bool(problems)
        if problems:
            self.failed += 1
            self.reasons = (self.reasons + [f"{label}: {p}" for p in problems])[:3]

    def amend_last(self, problem: str) -> None:
        """Mark the most recent operation failed by a check that runs after the loop."""
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True
        self.reasons = (self.reasons + [problem])[:3]


# -- output checks ---------------------------------------------------------------

def exact_block_bounds(model) -> list[float]:
    """Product of exact per-layer spectral norms for each block (numpy SVD)."""
    bounds = []
    for block in model.blocks():
        if not all(isinstance(w, np.ndarray) for w in block.weights):
            raise TypeError("only dense, non-relational weights are benchmarked")
        sigmas = np.linalg.norm(np.stack(block.weights), 2, axis=(1, 2))
        bounds.append(float(np.prod(sigmas)))
    return bounds


def block_dims(model) -> list[int]:
    """Per-molecule input dimension of each block, in `model.blocks()` order."""
    s = model.schema
    return ([s.n_max * s.n_atom_types] * len(model.feature_layers)
            + [s.n_max * s.n_max * s.n_bond_types] * len(model.adjacency_layers))


def logdet_limit(dim: int, lipschitz: float) -> float:
    """|log det(I + J)| <= -dim * log(1 - L) for ||J|| <= L < 1."""
    return -dim * math.log1p(-lipschitz)


def check_logdets(logdets: list[float], dims: list[int], bounds: list[float]) -> list[str]:
    """Each layer's log-det against its block's analytic bound; a bound >= 1 fails."""
    problems = []
    for i, (ld, dim, lip) in enumerate(zip(logdets, dims, bounds)):
        if lip >= 1.0:
            problems.append(f"block {i} Lipschitz bound {lip:.6f} >= 1")
        elif not abs(ld) <= logdet_limit(dim, lip):
            problems.append(f"block {i} log-det {ld!r} beyond {logdet_limit(dim, lip):.4f}")
    return problems


def check_total_logdet(total: float, dims: list[int], bounds: list[float]) -> list[str]:
    """A sum of per-block log-dets against the sum of their analytic bounds."""
    problems = [f"block {i} Lipschitz bound {lip:.6f} >= 1"
                for i, lip in enumerate(bounds) if lip >= 1.0]
    if not problems:
        limit = sum(logdet_limit(d, lip) for d, lip in zip(dims, bounds))
        if not abs(total) <= limit:
            problems.append(f"per-molecule log-det {total!r} beyond {limit:.4f}")
    return problems


def one_hot(arr: np.ndarray) -> bool:
    return bool(np.isin(arr, (0.0, 1.0)).all() and (arr.sum(axis=-1) == 1.0).all())


# -- helpers ---------------------------------------------------------------------

def _load_dataset(root: Path, dataset: str, schema) -> tuple[list, list]:
    raws = chem.load_smiles_file(root / dataset)
    return raws, [graphs.pad_graph(raw, schema) for raw in raws]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile_with_tail(values: list[float], pct: int):
    """The pct-th percentile when at least ten samples lie beyond it, else None."""
    n = len(values)
    if n - math.ceil(n * pct / 100) < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _train_batches(n: int, cfg: training.TrainConfig):
    """(epoch, step, indices) exactly as `grf.training.train` draws them."""
    epoch = 0
    while True:
        perm = likelihood.derive_rng(cfg.rng_seed, likelihood.TAG_SHUFFLE, epoch).permutation(n)
        for step, lo in enumerate(range(0, n, cfg.batch_size)):
            yield epoch, step, perm[lo:lo + cfg.batch_size]
        epoch += 1


def _derived_seed(seed: int, tag: int, k: int) -> int:
    return int(likelihood.derive_rng(seed, tag, k).integers(2 ** 31))


def _timed(tracer: tracing.Tracer, region: str, fn):
    """Run one operation in a traced region: (its result or None, seconds, problems).

    A `NumericalError` is the program refusing its input; it fails the operation.
    """
    start = time.perf_counter()
    try:
        with tracer.region(region, tracing.LOOP):
            out = fn()
    except NumericalError as exc:
        return None, time.perf_counter() - start, [f"NumericalError: {exc}"]
    return out, time.perf_counter() - start, []


def _mol_per_s(mol_per_op: int, op_times: list[float]) -> float:
    """Molecules completed per second of operation time over the whole run.

    The machine's speed drifts over seconds to minutes; a run of a few long
    operations measures that drift least when every operation counts.
    """
    return mol_per_op * len(op_times) / sum(op_times)


def _closed_loop(min_ops: int, seconds: float, op) -> list[float]:
    """Call op(0), op(1), ... one after another until at least `min_ops` calls
    have run and `seconds` have passed; op returns the seconds it timed."""
    times = []
    start = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - start < seconds:
        times.append(op(len(times)))
    return times


# -- workloads -------------------------------------------------------------------

def run_train(spec: TrainSpec, seed: int, seconds: float, tracer: tracing.Tracer,
              root: Path) -> dict:
    # Model build time depends on the weights (power iterations to converge),
    # so each set-up builds from its own seed; the loop trains the first model.
    setup_times = []
    for i in range(spec.setups):
        model_seed = _derived_seed(seed, 37, i) if i else seed
        start = time.perf_counter()
        with tracer.region("bench.setup", tracing.SETUP):
            built = flow.GrfModel(spec.model_config(seed=model_seed))
            _, dataset = _load_dataset(root, spec.dataset, built.schema)
        setup_times.append(time.perf_counter() - start)
        if i == 0:
            model = built

    cfg = training.TrainConfig(batch_size=spec.batch_size, rng_seed=seed)
    state = training.AdamState()
    batches = _train_batches(len(dataset), cfg)
    dims = block_dims(model)
    # Untimed warm-up: the first tape of a process pays for fresh allocations.
    training.grad_nll(model, dataset[:spec.batch_size], cfg, epoch=-1, step=0)

    failures = Failures()
    losses = []

    def step_op(k: int) -> float:
        epoch, step, idx = next(batches)
        batch = [dataset[j] for j in idx]
        lipschitz = exact_block_bounds(model)

        def step_fn():
            loss, grads, stats = training.grad_nll(model, batch, cfg, epoch=epoch, step=step)
            training.adam_step(model, grads, state, cfg)
            return loss, stats

        out, elapsed, problems = _timed(tracer, "bench.step", step_fn)
        losses.append(math.nan if out is None else out[0])
        if out is not None:
            if not math.isfinite(out[0]):
                problems.append(f"non-finite loss {out[0]!r}")
            problems += check_total_logdet(out[1]["logdet_mean"], dims, lipschitz)
        failures.record(f"step {k}", problems)
        return elapsed

    step_times = _closed_loop(spec.min_steps, seconds, step_op)

    certified = model.certified_block_bounds()
    if max(certified) >= 1.0:
        failures.amend_last(f"certified block bound {max(certified):.6f} >= 1 after training")

    p90 = _percentile_with_tail(step_times, 90)
    report = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_mol_per_s": (_mol_per_s(spec.batch_size, step_times), "1/s"),
        "train_step_ms_p50": (1e3 * statistics.median(step_times), "ms"),
        "train_step_ms_p90": (None if p90 is None else 1e3 * p90, "ms"),
        "train_steps": (len(step_times), "count"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "failure_rate": (failures.failed / failures.attempted, "ratio"),
    }
    return {
        "setup_times": setup_times, "op_times": step_times, "mol_per_op": spec.batch_size,
        "failures": failures, "report": report,
        "digest": {"steps": spec.min_steps, "final_loss": repr(losses[spec.min_steps - 1])},
    }


def run_infer(spec: InferSpec, seed: int, seconds: float, tracer: tracing.Tracer,
              root: Path, work_dir: Path) -> dict:
    ckpt = work_dir / "model.npz"
    flow.save_checkpoint(ckpt, flow.GrfModel(spec.model_config(
        seed=seed, init_scale=BUDGET, lipschitz_budget=BUDGET)))

    setup_times = []
    for _ in range(INFER_SETUPS):
        start = time.perf_counter()
        with tracer.region("bench.setup", tracing.SETUP):
            model, _, _ = flow.load_checkpoint(ckpt)
            raws, dataset = _load_dataset(root, spec.dataset, model.schema)
            training_set = chem.training_string_set(raws)
        setup_times.append(time.perf_counter() - start)

    order = likelihood.derive_rng(seed, 29).permutation(len(dataset))
    certified = model.certified_block_bounds()
    dims = block_dims(model)
    eval_cfg = likelihood.LogDetEstimatorConfig(
        series_terms=EVAL_SERIES_TERMS, hutchinson_samples=EVAL_PROBES, rng_seed=seed)
    failures = Failures()
    op_times = {"eval": [], "sample": [], "reconstruct": []}
    kept = {"eval": [], "sample": [], "reconstruct": []}

    def eval_op(k: int) -> float:
        """Per-molecule log-likelihood, as `grf eval`."""
        g = dataset[order[k % len(order)]]
        trace, elapsed, problems = _timed(
            tracer, "bench.eval",
            lambda: likelihood.full_logp(model, g, eval_cfg, rng_seed=seed + k))
        if trace is not None:
            if not math.isfinite(trace.total_logp):
                problems.append(f"non-finite total_logp {trace.total_logp!r}")
            problems += check_logdets(trace.feature_logdets + trace.adjacency_logdets,
                                      dims, certified)
            kept["eval"].append(trace.total_logp)
        op_times["eval"].append(elapsed)
        failures.record(f"eval {k}", problems)
        return elapsed

    def sample_fn(k: int):
        """Generate, validity, SMILES, graph lines and metrics, as `grf sample --dataset`."""
        mols = inversion.generate(model, spec.sample_batch, SAMPLE_TX, SAMPLE_TA,
                                  inversion.InversionConfig(iterations=ITERATIONS),
                                  rng_seed=_derived_seed(seed, 31, k))
        for m in mols:
            if chem.check_validity(m):
                chem.write_smiles(m)
        lines = [graphs.unpad_graph(m).to_json_line() for m in mols]
        chem.compute_metrics(mols, training_set)
        return mols, lines

    def sample_op(k: int) -> float:
        out, elapsed, problems = _timed(tracer, "bench.sample", lambda: sample_fn(k))
        if out is not None:
            mols, lines = out
            problems += [f"molecule {i} is not one-hot" for i, m in enumerate(mols)
                         if not (one_hot(m.adjacency) and one_hot(m.features))]
            kept["sample"].extend(lines)
        op_times["sample"].append(elapsed)
        failures.record(f"sample call {k}", problems)
        return elapsed

    def reconstruct_op(k: int) -> float:
        """Encode, then invert with `early_stop_tol=0`, as `grf reconstruct`."""
        picks = [dataset[order[(k * spec.reconstruct_batch + j) % len(order)]]
                 for j in range(spec.reconstruct_batch)]
        rows, elapsed, problems = _timed(
            tracer, "bench.reconstruct",
            lambda: analysis.reconstruction_curve(model, picks, [ITERATIONS],
                                                  rng_seed=_derived_seed(seed, 41, k)))
        if rows is not None:
            if rows[0]["exact_rate"] < 1.0:
                problems.append(f"exact rate {rows[0]['exact_rate']!r} < 1")
            kept["reconstruct"].append(rows[0]["combined_l2"])
        op_times["reconstruct"].append(elapsed)
        failures.record(f"reconstruct call {k}", problems)
        return elapsed

    def round_op(k: int) -> float:
        """One round; returns the seconds its operations took, checks excluded."""
        return (eval_op(k)
                + sum(sample_op(k * spec.sample_calls + j) for j in range(spec.sample_calls))
                + sum(reconstruct_op(k * spec.reconstruct_calls + j)
                      for j in range(spec.reconstruct_calls)))

    round_times = _closed_loop(INFER_MIN_ROUNDS, seconds, round_op)
    logps = kept["eval"][:INFER_MIN_ROUNDS]
    lines = kept["sample"][:INFER_MIN_ROUNDS * spec.sample_calls * spec.sample_batch]
    errors = kept["reconstruct"][:INFER_MIN_ROUNDS * spec.reconstruct_calls]
    digest = {
        "rounds": INFER_MIN_ROUNDS,
        "mean_total_logp": repr(float(np.mean(logps))) if logps else None,
        "graphs_sha256": hashlib.sha256("".join(l + "\n" for l in lines).encode()).hexdigest(),
        "mean_combined_l2": repr(float(np.mean(errors))) if errors else None,
    }
    per_round = (1 + spec.sample_calls * spec.sample_batch
                 + spec.reconstruct_calls * spec.reconstruct_batch)
    report = {
        "setup_s": (statistics.median(setup_times), "s"),
        "infer_mol_per_s": (_mol_per_s(per_round, round_times), "1/s"),
        "infer_round_ms_p50": (1e3 * statistics.median(round_times), "ms"),
        "rounds": (len(round_times), "count"),
        "eval_ms_per_mol_p50": (1e3 * statistics.median(op_times["eval"]), "ms"),
        "sample_mol_per_s": (_mol_per_s(spec.sample_batch, op_times["sample"]), "1/s"),
        "sample_count": (spec.sample_batch, "count"),
        "reconstruct_mol_per_s": (_mol_per_s(spec.reconstruct_batch,
                                             op_times["reconstruct"]), "1/s"),
        "reconstruct_count": (spec.reconstruct_batch, "count"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "failure_rate": (failures.failed / failures.attempted, "ratio"),
    }
    return {
        "setup_times": setup_times, "op_times": round_times, "mol_per_op": per_round,
        "failures": failures, "report": report, "digest": digest,
    }


def run_workload(spec, seed: int, seconds: float, trace: bool, root: Path,
                 work_dir: Path) -> dict:
    """Run one workload; returns end-to-end metrics, the report, digest and trace."""
    tracer = tracing.Tracer()
    with tracing.install(tracer, grf) if trace else contextlib.nullcontext():
        if isinstance(spec, TrainSpec):
            out = run_train(spec, seed, seconds, tracer, root)
        else:
            out = run_infer(spec, seed, seconds, tracer, root, work_dir)
    failures: Failures = out["failures"]
    e2e = {
        "setup_s": statistics.median(out["setup_times"]),
        "mol_per_s": _mol_per_s(out["mol_per_op"], out["op_times"]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    result = {
        "seed": seed, "seconds": seconds, "trace": bool(trace),
        "correct": failures.failed == 0,
        "attempted": failures.attempted, "failed": failures.failed,
        "failure_reasons": failures.reasons,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "report": {k: {"value": v, "unit": u} for k, (v, u) in out["report"].items()},
        "digest": out["digest"],
        "ops": len(out["op_times"]),
        "op_ms": [1e3 * t for t in out["op_times"]],
        "setups": len(out["setup_times"]),
    }
    if trace:
        n_ops = len(out["op_times"])
        result["per_layer"] = {
            k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]}
            for k, v in tracing.layer_metrics(tracer, len(out["setup_times"]), n_ops).items()}
        result["self_ms_per_op"] = {
            name: 1e3 * row["self_s"] / n_ops
            for name, row in sorted(tracer.totals(tracing.LOOP).items(),
                                    key=lambda kv: -kv[1]["self_s"])}
    return result


def machine_info() -> dict:
    """Processor count, numpy version, BLAS library and its thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None
