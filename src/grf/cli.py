"""Command-line entry point.

Subcommands: train, sample, reconstruct, eval, latent-grid, selfcheck.
Every subcommand is deterministic given --seed, and all emitted files are
schema-stable (fixed CSV headers, fixed JSON keys) so downstream tooling
never parses free text.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical or
property failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import latent_grid, reconstruction_curve
from .chem import (DEFAULT_VALENCES, ChemError, SmilesError, check_validity,
                   compute_metrics, load_smiles_file, load_valence_table,
                   training_string_set, write_smiles)
from .flow import CheckpointError, GrfModel, ModelConfig, load_checkpoint, save_checkpoint
from .graphs import QM9_SCHEMA, GraphError, pad_graph, unpad_graph
from .inversion import InversionConfig, generate
from .likelihood import full_logp
from .linalg import NumericalError
from .selfcheck import format_report, run_selfcheck
from .training import TrainConfig, train, write_history_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# the name data errors give the table used when no --valence-table is given
DEFAULT_VALENCES_NAME = "grf.chem.DEFAULT_VALENCES"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _checked(convert, accept, expected: str):
    """argparse type: `convert(text)` if `accept` holds for it, else a usage
    error saying that `expected` was expected."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


# a seed in [0, 2**31), the range `derive_rng` keeps of every key
_seed = _checked(int, lambda v: 0 <= v < 2 ** 31, "an integer in [0, 2**31)")
_finite_float = _checked(float, math.isfinite, "a finite number")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")


def _iteration_counts(text: str) -> list[int]:
    """argparse type: comma-separated iteration counts, each >= 0."""
    counts = [_int_at_least(0)(tok) for tok in text.split(",") if tok.strip()]
    if not counts:
        raise argparse.ArgumentTypeError("expected at least one iteration count")
    return counts


def build_parser() -> _Parser:
    parser = _Parser(prog="grf",
                     description="Invertible residual flows for molecular graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a SMILES dataset")
    p_train.add_argument("--config", type=Path, help="JSON with 'model' and 'train' sections")
    p_train.add_argument("--dataset", type=Path, required=True)
    p_train.add_argument("--out", type=Path, required=True)
    p_train.add_argument("--seed", type=_seed, default=0)

    p_sample = sub.add_parser("sample", help="generate molecules from a checkpoint")
    p_sample.add_argument("--ckpt", type=Path, required=True)
    p_sample.add_argument("--out", type=Path, required=True)
    p_sample.add_argument("--count", type=_int_at_least(0), default=1000)
    p_sample.add_argument("--tx", type=_positive_float, default=0.65)
    p_sample.add_argument("--ta", type=_positive_float, default=0.69)
    p_sample.add_argument("--iterations", type=_int_at_least(1), default=100)
    p_sample.add_argument("--seed", type=_seed, default=0)
    p_sample.add_argument("--dataset", type=Path,
                          help="training SMILES for the novelty metric")
    p_sample.add_argument("--valence-table", type=Path)

    p_rec = sub.add_parser("reconstruct", help="encode-decode error vs iteration count")
    p_rec.add_argument("--ckpt", type=Path, required=True)
    p_rec.add_argument("--dataset", type=Path, required=True)
    p_rec.add_argument("--out", type=Path, required=True)
    p_rec.add_argument("--iterations", type=_iteration_counts, default="1,5,10,30,100",
                       help="comma-separated iteration counts")
    p_rec.add_argument("--count", type=_int_at_least(1), help="cap the number of molecules")
    p_rec.add_argument("--seed", type=_seed, default=0)

    p_eval = sub.add_parser("eval", help="per-molecule log-likelihood traces")
    p_eval.add_argument("--ckpt", type=Path, required=True)
    p_eval.add_argument("--dataset", type=Path, required=True)
    p_eval.add_argument("--out", type=Path, required=True)
    p_eval.add_argument("--count", type=_int_at_least(1))
    p_eval.add_argument("--seed", type=_seed, default=0)

    p_grid = sub.add_parser("latent-grid", help="decode a grid on the principal latent plane")
    p_grid.add_argument("--ckpt", type=Path, required=True)
    p_grid.add_argument("--dataset", type=Path, required=True)
    p_grid.add_argument("--out", type=Path, required=True)
    p_grid.add_argument("--grid-size", type=_int_at_least(1), default=5)
    p_grid.add_argument("--grid-step", type=_finite_float, default=0.5)
    p_grid.add_argument("--count", type=_int_at_least(3), default=100,
                        help="molecules used to fit the principal plane")
    p_grid.add_argument("--iterations", type=_int_at_least(1), default=100)
    p_grid.add_argument("--seed", type=_seed, default=0)

    p_check = sub.add_parser("selfcheck", help="run the numerical property suites")
    p_check.add_argument("--seed", type=_seed, default=0)
    p_check.add_argument("--dataset", type=Path,
                         help="also check dataset molecules' adjacency spectra")

    return parser


class DatasetError(ValueError):
    """A dataset file with fewer molecules than a command needs."""


def _load_dataset(path: Path, schema, cap: int | None = None, at_least: int = 1):
    raws = load_smiles_file(path)
    if len(raws) < at_least:
        raise DatasetError(f"dataset {path} holds {len(raws)} molecule(s), "
                           f"at least {at_least} needed")
    if cap is not None:
        raws = raws[:cap]
    return [pad_graph(raw, schema) for raw in raws]


def _parse_train_config(path, seed: int) -> tuple[ModelConfig, TrainConfig]:
    """The file's sections over the toy-profile defaults (an absent file or
    section reads as `{}`), with `seed` as the only seed."""
    blob = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        if not isinstance(blob, dict):
            raise ValueError("the file must hold a JSON object")
        unknown = sorted(set(blob) - {"model", "train"})
        if unknown:
            raise ValueError(f"unknown top-level key(s) {unknown}; "
                             "expected 'model' and 'train'")
    model_section, train_section = blob.get("model", {}), blob.get("train", {})
    for name, section in (("model", model_section), ("train", train_section)):
        if not isinstance(section, dict):
            raise ValueError(f"the {name!r} section must be a JSON object")
    return ModelConfig(seed=seed, **model_section), TrainConfig(rng_seed=seed, **train_section)


def _cmd_train(args) -> int:
    try:
        model_cfg, train_cfg = _parse_train_config(args.config, args.seed)
    except (TypeError, ValueError, KeyError) as exc:
        print(f"data error: bad config file {args.config}: {exc}", file=sys.stderr)
        return EXIT_DATA
    model = GrfModel(model_cfg)
    dataset = _load_dataset(args.dataset, model.schema)
    args.out.mkdir(parents=True, exist_ok=True)
    history = train(model, dataset, train_cfg, out_dir=args.out)
    save_checkpoint(args.out / "model.npz", model)
    write_history_csv(history, args.out / "loss_history.csv")
    print(f"trained {train_cfg.epochs} epochs on {len(dataset)} molecules; "
          f"final nll {history[-1]['nll']:.4f}")
    return EXIT_OK


def _load_contraction(path) -> GrfModel:
    """The checkpoint's model, once every block certifies as a contraction
    (`require_contraction`): a bound >= 1 raises `NumericalError` naming
    the first such block, before any command writes its output.  The
    library's `encode` and `invert_latents` trust the weights they are
    given, so this is where a command checks them."""
    model, _, _ = load_checkpoint(path)
    for block in model.blocks():
        block.require_contraction()
    return model


def _require_valences(model: GrfModel, table, table_name) -> None:
    """`ChemError` naming the table and the symbol unless `table` has an
    entry for every atom type of the checkpoint, so a command fails before
    it generates or writes anything rather than at the first decoded atom
    the table lacks."""
    for symbol in model.schema.atom_symbols:
        if symbol not in table:
            raise ChemError(f"valence table {table_name} has no entry for "
                            f"atom type {symbol!r}")


def _cmd_sample(args) -> int:
    model = _load_contraction(args.ckpt)
    valences, table_name = DEFAULT_VALENCES, DEFAULT_VALENCES_NAME
    if args.valence_table:
        valences, table_name = load_valence_table(args.valence_table), args.valence_table
    _require_valences(model, valences, table_name)
    molecules = generate(model, args.count, args.tx, args.ta,
                         InversionConfig(iterations=args.iterations),
                         rng_seed=args.seed)
    training_set = set()
    if args.dataset:
        training_set = training_string_set(load_smiles_file(args.dataset))
    raws = [unpad_graph(mol) for mol in molecules]
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "samples.smi", "w", encoding="utf-8") as fh:
        for i, raw in enumerate(raws):
            if check_validity(raw, valences):
                fh.write(write_smiles(raw) + "\n")
            else:
                fh.write(f"# invalid sample {i}\n")
    # every sample, valid or not, as one graph object per line
    with open(args.out / "graphs.jsonl", "w", encoding="utf-8") as fh:
        for raw in raws:
            fh.write(raw.to_json_line() + "\n")
    if raws:
        report = compute_metrics(raws, training_set, table=valences)
        with open(args.out / "metrics.json", "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{report.valid_count}/{report.sample_count} valid "
              f"(V={report.validity:.3f} N={report.novelty:.3f} U={report.uniqueness:.3f})")
    else:
        print("0 samples requested")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    model = _load_contraction(args.ckpt)
    graphs = _load_dataset(args.dataset, model.schema, cap=args.count)
    rows = reconstruction_curve(model, graphs, args.iterations, rng_seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "reconstruction.csv", "w", encoding="utf-8") as fh:
        fh.write("iterations,feature_l2,adjacency_l2,combined_l2,exact_rate\n")
        for row in rows:
            fh.write(f"{row['iterations']},{row['feature_l2']!r},{row['adjacency_l2']!r},"
                     f"{row['combined_l2']!r},{row['exact_rate']!r}\n")
    for row in rows:
        print(f"n={row['iterations']:>4d}  l2={row['combined_l2']:.3e}  "
              f"exact={row['exact_rate']:.3f}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = _load_contraction(args.ckpt)
    graphs = _load_dataset(args.dataset, model.schema, cap=args.count)
    args.out.mkdir(parents=True, exist_ok=True)
    totals = []
    with open(args.out / "traces.jsonl", "w", encoding="utf-8") as fh:
        for i, g in enumerate(graphs):
            trace = full_logp(model, g, rng_seed=args.seed + i)
            record = {"index": i, **dataclasses.asdict(trace)}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            totals.append(trace.total_logp)
    print(f"mean nll over {len(totals)} molecules: {-float(np.mean(totals)):.4f}")
    return EXIT_OK


def _cmd_latent_grid(args) -> int:
    model = _load_contraction(args.ckpt)
    _require_valences(model, DEFAULT_VALENCES, DEFAULT_VALENCES_NAME)
    # the principal plane needs three molecules: two give a rank-1 covariance
    graphs = _load_dataset(args.dataset, model.schema, at_least=3)
    records = latent_grid(model, graphs, grid_size=args.grid_size, step=args.grid_step,
                          rng_seed=args.seed, encode_count=args.count,
                          inversion=InversionConfig(iterations=args.iterations))
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "latent_grid.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    n_valid = sum(1 for rec in records if rec["valid"])
    print(f"decoded {len(records)} grid points, {n_valid} valid")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    extra = _load_dataset(args.dataset, QM9_SCHEMA) if args.dataset else None
    results = run_selfcheck(seed=args.seed, extra_graphs=extra)
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


_HANDLERS = {
    "train": _cmd_train,
    "sample": _cmd_sample,
    "reconstruct": _cmd_reconstruct,
    "eval": _cmd_eval,
    "latent-grid": _cmd_latent_grid,
    "selfcheck": _cmd_selfcheck,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (SmilesError, ChemError, GraphError, CheckpointError, DatasetError,
            OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
