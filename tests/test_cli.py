import json
from pathlib import Path

import pytest

from grf.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _parse_train_config, build_parser, main
from grf.flow import ModelConfig, qm9_table_config, toy_config
from grf.training import TrainConfig

DATA = Path(__file__).resolve().parent.parent / "data"

TINY_CONFIG = {
    "model": {"n_max": 6, "atom_symbols": ["C", "N", "O", "F"],
              "gcn_blocks": 1, "gcn_layers": 1, "mlp_blocks": 2, "mlp_layers": 2},
    "train": {"batch_size": 25, "epochs": 2, "learning_rate": 1e-3,
              "series_terms": 4, "hutchinson_samples": 2},
}


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = out / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--dataset", str(DATA / "toy_train.smi"),
                 "--out", str(out / "run"), "--seed", "1"])
    assert code == EXIT_OK
    return out


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--bogus-flag", "1"])
    assert exc.value.code == EXIT_USAGE


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_missing_dataset_is_data_error(tmp_path):
    code = main(["train", "--dataset", str(tmp_path / "nope.smi"),
                 "--out", str(tmp_path / "out"), "--seed", "0"])
    assert code == EXIT_DATA


def test_bad_smiles_is_data_error(tmp_path, trained_dir):
    bad = tmp_path / "bad.smi"
    bad.write_text("CC\nC(C\n", encoding="utf-8")
    code = main(["reconstruct", "--ckpt", str(trained_dir / "run" / "model.npz"),
                 "--dataset", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA


@pytest.mark.parametrize("command, smiles", [
    ("train", ""),
    ("reconstruct", "# only a comment\n"),
    ("eval", ""),
    # the principal plane needs three molecules: two span only a line
    ("latent-grid", "CCO\n"),
    ("latent-grid", "CCO\nCC\n"),
])
def test_too_small_dataset_is_data_error(command, smiles, trained_dir, tmp_path, capsys):
    dataset = tmp_path / "small.smi"
    dataset.write_text(smiles, encoding="utf-8")
    out = tmp_path / "o"
    argv = [command, "--dataset", str(dataset), "--out", str(out)]
    if command != "train":
        argv += ["--ckpt", str(trained_dir / "run" / "model.npz")]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: dataset") and str(dataset) in captured.err
    assert "nan" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("argv, culprit", [
    pytest.param(["eval", "--ckpt", "CKPT", "--dataset", "DIR", "--out", "OUT"], "DIR",
                 id="dataset-is-a-directory"),
    pytest.param(["eval", "--ckpt", "DIR", "--dataset", "TOY", "--out", "OUT"], "DIR",
                 id="ckpt-is-a-directory"),
    pytest.param(["train", "--config", "DIR", "--dataset", "TOY", "--out", "OUT"], "DIR",
                 id="config-is-a-directory"),
    pytest.param(["sample", "--ckpt", "CKPT", "--valence-table", "DIR", "--count", "1",
                  "--out", "OUT"], "DIR", id="valence-table-is-a-directory"),
    pytest.param(["eval", "--ckpt", "CKPT", "--dataset", "TOY", "--out", "FILE"], "FILE",
                 id="out-is-a-file"),
    pytest.param(["eval", "--ckpt", "CKPT", "--dataset", "LATIN1", "--out", "OUT"], "LATIN1:2",
                 id="dataset-is-not-utf8"),
    pytest.param(["train", "--config", "LATIN1", "--dataset", "TOY", "--out", "OUT"], "LATIN1",
                 id="config-is-not-utf8"),
    pytest.param(["sample", "--ckpt", "CKPT", "--valence-table", "LATIN1", "--count", "1",
                  "--out", "OUT"], "LATIN1", id="valence-table-is-not-utf8"),
])
def test_unreadable_input_is_data_error(argv, culprit, trained_dir, tmp_path, capsys):
    """One line on stderr that names the file at fault (a dataset also its
    line), and no output."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("taken\n", encoding="utf-8")
    (tmp_path / "latin1.smi").write_bytes("CCO\nCCC # caf\xe9\n".encode("latin-1"))
    paths = {"CKPT": trained_dir / "run" / "model.npz", "DIR": tmp_path / "dir",
             "TOY": DATA / "toy_train.smi", "OUT": tmp_path / "o",
             "FILE": tmp_path / "file", "LATIN1": tmp_path / "latin1.smi"}
    assert main([str(paths.get(arg, arg)) for arg in argv]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    name, *line = culprit.split(":")
    assert ":".join([str(paths[name]), *line]) in err, err
    assert not (tmp_path / "o").exists()


def test_train_outputs(trained_dir):
    run = trained_dir / "run"
    assert (run / "model.npz").exists()
    history = (run / "loss_history.csv").read_text().splitlines()
    assert history[0] == "epoch,step,nll,logdet_mean,prior_mean"
    assert len(history) == 1 + 2 * 2  # 2 epochs x 2 steps


def test_sample_outputs(trained_dir, tmp_path):
    code = main(["sample", "--ckpt", str(trained_dir / "run" / "model.npz"),
                 "--out", str(tmp_path / "s"), "--count", "12", "--seed", "3",
                 "--dataset", str(DATA / "toy_train.smi")])
    assert code == EXIT_OK
    lines = (tmp_path / "s" / "samples.smi").read_text().splitlines()
    assert len(lines) == 12
    metrics = json.loads((tmp_path / "s" / "metrics.json").read_text())
    assert metrics["sample_count"] == 12
    assert 0.0 <= metrics["validity"] <= 1.0
    graph_lines = (tmp_path / "s" / "graphs.jsonl").read_text().splitlines()
    assert len(graph_lines) == 12
    from grf.graphs import RawGraph

    for line in graph_lines:
        raw = RawGraph.from_json_line(line)
        assert raw.n <= 6


def test_bad_config_is_data_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": {"not_a_field": 1}}), encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--dataset",
                 str(DATA / "toy_train.smi"), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA


@pytest.mark.parametrize("field, value", [
    pytest.param("series_terms", 0, id="series_terms"),
    pytest.param("hutchinson_samples", 0, id="hutchinson_samples"),
    pytest.param("epochs", 0, id="epochs"),
    pytest.param("checkpoint_every", -1, id="checkpoint_every-negative"),
    pytest.param("beta1", 1.0, id="beta1-removed"),
    pytest.param("beta2", 0.9, id="beta2-removed"),
    pytest.param("adam_eps", 1e-8, id="adam_eps-removed"),
])
def test_train_config_below_one_is_data_error(field, value, tmp_path, capsys):
    """A count below one, a negative checkpoint interval, or one of Adam's
    settings (module constants, not options) is a bad config file."""
    blob = {"model": TINY_CONFIG["model"], "train": {**TINY_CONFIG["train"], field: value}}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(blob), encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--dataset",
                 str(DATA / "toy_train.smi"), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "bad config file" in err and field in err
    assert not (tmp_path / "o").exists()


def with_setting(section, field, value):
    """TINY_CONFIG with one field of one section replaced."""
    blob = dict(TINY_CONFIG)
    blob[section] = {**TINY_CONFIG[section], field: value}
    return blob


@pytest.mark.parametrize("blob", [
    pytest.param(with_setting("model", "init_scale", -0.5), id="init_scale-negative"),
    pytest.param(with_setting("model", "init_scale", float("nan")), id="init_scale-nan"),
    pytest.param(with_setting("train", "learning_rate", float("nan")), id="learning_rate-nan"),
    pytest.param(with_setting("train", "batch_size", 1.5), id="batch_size-fraction"),
    pytest.param(with_setting("model", "gcn_layers", 2.5), id="gcn_layers-fraction"),
    pytest.param(with_setting("model", "adjacency_rank", -1), id="adjacency_rank-negative"),
    pytest.param(with_setting("model", "adjacency_mode", "node"), id="adjacency_mode-removed"),
    pytest.param(with_setting("model", "atom_symbols", "ClBr"), id="atom_symbols-string"),
    pytest.param(with_setting("model", "atom_symbols", []), id="atom_symbols-empty"),
    pytest.param(with_setting("model", "atom_symbols", [1, 2]), id="atom_symbols-not-strings"),
    pytest.param(with_setting("model", "atom_symbols", ["C", "C", "N"]),
                 id="atom_symbols-repeated"),
    pytest.param(with_setting("model", "seed", 3), id="model-seed"),
    pytest.param(with_setting("train", "rng_seed", 3), id="train-rng_seed"),
    pytest.param([], id="top-level-list"),
    pytest.param({"model": []}, id="model-section-list"),
    pytest.param({"modle": TINY_CONFIG["model"], "train": TINY_CONFIG["train"]},
                 id="unknown-top-level-key"),
])
def test_malformed_config_value_is_data_error(blob, tmp_path, capsys):
    """A value of the wrong kind, a non-finite or out-of-range number, a
    seed (which only --seed sets), or a file or section that is not a JSON
    object exits 2 before training."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(blob), encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--dataset",
                 str(DATA / "toy_train.smi"), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "bad config file" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_top_level_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"modle": {"n_max": 6}, "train": {"epochs": 1}}),
                   encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--dataset",
                 str(DATA / "toy_train.smi"), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "bad config file" in err and "modle" in err


def test_reconstruct_outputs(trained_dir, tmp_path):
    code = main(["reconstruct", "--ckpt", str(trained_dir / "run" / "model.npz"),
                 "--dataset", str(DATA / "toy_train.smi"), "--out", str(tmp_path / "r"),
                 "--iterations", "1,5,30", "--count", "10", "--seed", "2"])
    assert code == EXIT_OK
    lines = (tmp_path / "r" / "reconstruction.csv").read_text().splitlines()
    assert lines[0] == "iterations,feature_l2,adjacency_l2,combined_l2,exact_rate"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert last[0] == "30" and float(last[-1]) == 1.0


def test_eval_outputs(trained_dir, tmp_path):
    code = main(["eval", "--ckpt", str(trained_dir / "run" / "model.npz"),
                 "--dataset", str(DATA / "toy_train.smi"), "--out", str(tmp_path / "e"),
                 "--count", "4", "--seed", "5"])
    assert code == EXIT_OK
    lines = (tmp_path / "e" / "traces.jsonl").read_text().splitlines()
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert {"index", "prior_logp", "adjacency_logdets", "feature_logdets",
            "total_logp"} <= set(rec)
    total = rec["prior_logp"] + sum(rec["adjacency_logdets"]) + sum(rec["feature_logdets"])
    assert abs(total - rec["total_logp"]) < 1e-9


def test_latent_grid_outputs(trained_dir, tmp_path):
    code = main(["latent-grid", "--ckpt", str(trained_dir / "run" / "model.npz"),
                 "--dataset", str(DATA / "toy_train.smi"), "--out", str(tmp_path / "g"),
                 "--grid-size", "3", "--grid-step", "0.4", "--seed", "6",
                 "--count", "20", "--iterations", "60"])
    assert code == EXIT_OK
    lines = (tmp_path / "g" / "latent_grid.jsonl").read_text().splitlines()
    assert len(lines) == 9
    recs = [json.loads(l) for l in lines]
    assert all({"gx", "gy", "offset_1", "offset_2", "smiles", "valid"} == set(r)
               for r in recs)


def test_latent_grid_center_reproduces_query(trained_dir, tmp_path):
    # 1x1 grid with zero step decodes the query's own latent point
    code = main(["latent-grid", "--ckpt", str(trained_dir / "run" / "model.npz"),
                 "--dataset", str(DATA / "toy_train.smi"), "--out", str(tmp_path / "g1"),
                 "--grid-size", "1", "--grid-step", "0.0", "--seed", "7",
                 "--count", "20"])
    assert code == EXIT_OK
    rec = json.loads((tmp_path / "g1" / "latent_grid.jsonl").read_text().strip())
    assert rec["valid"] and rec["smiles"]

    # identify the query molecule the same way latent_grid does
    import numpy as np

    from grf.chem import load_smiles_file, write_smiles
    from grf.graphs import GraphSchema, pad_graph
    from grf.likelihood import derive_rng

    graphs = [pad_graph(r, GraphSchema(6, ("C", "N", "O", "F")))
              for r in load_smiles_file(DATA / "toy_train.smi")]
    picks = derive_rng(7, 17).permutation(len(graphs))
    assert rec["smiles"] == write_smiles(graphs[int(picks[-1])])


def test_sample_rejects_bad_temperature(trained_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--ckpt", str(trained_dir / "run" / "model.npz"),
              "--out", str(tmp_path / "bad"), "--count", "2", "--tx", "-1.0"])
    assert exc.value.code == EXIT_USAGE
    assert "argument --tx" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["reconstruct", "--dataset", "d.smi", "--iterations", "1,x"], "--iterations",
                 id="reconstruct-iterations-not-int"),
    pytest.param(["reconstruct", "--dataset", "d.smi", "--iterations=-5"], "--iterations",
                 id="reconstruct-iterations-negative"),
    pytest.param(["reconstruct", "--dataset", "d.smi", "--count", "0"], "--count",
                 id="reconstruct-count-zero"),
    pytest.param(["sample", "--count", "-3"], "--count", id="sample-count-negative"),
    pytest.param(["sample", "--iterations", "0"], "--iterations", id="sample-iterations-zero"),
    pytest.param(["sample", "--ta", "nan"], "--ta", id="sample-ta-nan"),
    pytest.param(["eval", "--dataset", "d.smi", "--count", "-1"], "--count",
                 id="eval-count-negative"),
    pytest.param(["eval", "--dataset", "d.smi", "--count", "0"], "--count", id="eval-count-zero"),
    pytest.param(["latent-grid", "--dataset", "d.smi", "--count", "1"], "--count",
                 id="latent-grid-count-one"),
    pytest.param(["latent-grid", "--dataset", "d.smi", "--count", "2"], "--count",
                 id="latent-grid-count-two"),
    pytest.param(["latent-grid", "--dataset", "d.smi", "--grid-size", "0"], "--grid-size",
                 id="latent-grid-size-zero"),
    pytest.param(["latent-grid", "--dataset", "d.smi", "--grid-step", "nan"], "--grid-step",
                 id="latent-grid-step-nan"),
    pytest.param(["latent-grid", "--dataset", "d.smi", "--grid-step", "inf"], "--grid-step",
                 id="latent-grid-step-inf"),
])
def test_malformed_flag_is_usage_error(argv, flag, tmp_path, capsys):
    # argparse rejects the value before the (absent) checkpoint is opened
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--ckpt", str(tmp_path / "none.npz"), "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_USAGE
    assert f"argument {flag}" in capsys.readouterr().err


# every subcommand's required flags, none of which is opened before --seed is parsed
SEED_COMMANDS = {
    "train": ["--dataset", "d.smi", "--out", "o"],
    "sample": ["--ckpt", "m.npz", "--out", "o"],
    "reconstruct": ["--ckpt", "m.npz", "--dataset", "d.smi", "--out", "o"],
    "eval": ["--ckpt", "m.npz", "--dataset", "d.smi", "--out", "o"],
    "latent-grid": ["--ckpt", "m.npz", "--dataset", "d.smi", "--out", "o"],
    "selfcheck": [],
}


@pytest.mark.parametrize("seed", ["-1", "2147483648", "1.5"],
                         ids=["negative", "2**31", "fraction"])
@pytest.mark.parametrize("command", list(SEED_COMMANDS))
def test_seed_outside_31_bits_is_usage_error(command, seed, tmp_path, monkeypatch, capsys):
    # keys are masked to 31 bits, so -1 would replay seed 2**31 - 1;
    # the flags name files in an empty directory, and none is made
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *SEED_COMMANDS[command], "--seed", seed])
    assert exc.value.code == EXIT_USAGE
    assert "argument --seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", list(SEED_COMMANDS))
def test_seed_range_ends_parse(command):
    for seed in (0, 2 ** 31 - 1):
        args = build_parser().parse_args([command, *SEED_COMMANDS[command], "--seed", str(seed)])
        assert args.seed == seed


def test_reconstruct_accepts_zero_iterations(trained_dir, tmp_path):
    code = main(["reconstruct", "--ckpt", str(trained_dir / "run" / "model.npz"),
                 "--dataset", str(DATA / "toy_train.smi"), "--out", str(tmp_path / "r"),
                 "--iterations", "0,1", "--count", "2"])
    assert code == EXIT_OK
    rows = (tmp_path / "r" / "reconstruction.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]


def _rewrite_checkpoint(src, dst, drop=(), replace=None):
    """Copy a checkpoint's arrays, leaving out `drop` and swapping in `replace`."""
    import numpy as np

    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files if k not in drop}
    arrays.update(replace or {})
    np.savez(dst, **arrays)


def _eval_args(ckpt, tmp_path):
    return ["eval", "--ckpt", str(ckpt), "--dataset", str(DATA / "toy_train.smi"),
            "--out", str(tmp_path / "e"), "--count", "1"]


def test_corrupt_checkpoint_is_data_error(trained_dir, tmp_path, capsys):
    good = (trained_dir / "run" / "model.npz").read_bytes()
    for name, blob in (("garbage.npz", b"not a checkpoint" * 8),
                       ("truncated.npz", good[:len(good) // 2]),
                       ("empty.npz", b"")):
        ckpt = tmp_path / name
        ckpt.write_bytes(blob)
        assert main(_eval_args(ckpt, tmp_path)) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and name in err


def test_checkpoint_missing_parameter_is_data_error(trained_dir, tmp_path, capsys):
    ckpt = tmp_path / "missing.npz"
    _rewrite_checkpoint(trained_dir / "run" / "model.npz", ckpt, drop=("param::adjacency.1.w",))
    assert main(_eval_args(ckpt, tmp_path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "param::adjacency.1.w" in err


def test_checkpoint_wrong_shape_is_data_error(trained_dir, tmp_path, capsys):
    import numpy as np

    src, ckpt = trained_dir / "run" / "model.npz", tmp_path / "shape.npz"
    with np.load(src) as data:
        expected = data["param::feature.0.w"].shape
    _rewrite_checkpoint(src, ckpt, replace={"param::feature.0.w": np.zeros((1, 4, 4))})
    assert main(_eval_args(ckpt, tmp_path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "'param::feature.0.w'" in err
    assert "(1, 4, 4)" in err and str(expected) in err


@pytest.mark.parametrize("layers", [-1, 1], ids=["a-layer-short", "a-layer-long"])
def test_checkpoint_stack_of_another_depth_is_data_error(layers, trained_dir, tmp_path):
    import numpy as np

    from grf.flow import CheckpointError, load_checkpoint

    src, ckpt = trained_dir / "run" / "model.npz", tmp_path / "depth.npz"
    with np.load(src) as data:
        stack = data["param::adjacency.1.w"]
    resized = stack[:layers] if layers < 0 else np.concatenate([stack, stack[:layers]])
    _rewrite_checkpoint(src, ckpt, replace={"param::adjacency.1.w": resized})
    with pytest.raises(CheckpointError, match=r"'param::adjacency\.1\.w' has shape"):
        load_checkpoint(ckpt)


def _with_meta(src, dst, edit):
    """Copy a checkpoint with its metadata changed by `edit(meta)`."""
    import numpy as np

    with np.load(src) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
    edit(meta)
    _rewrite_checkpoint(src, dst, replace={
        "__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)})


def _sample_args(ckpt, tmp_path):
    return ["sample", "--ckpt", str(ckpt), "--out", str(tmp_path / "s"), "--count", "2"]


def test_checkpoint_of_another_format_version_is_data_error(trained_dir, tmp_path, capsys):
    from grf.flow import CheckpointError, load_checkpoint

    ckpt = tmp_path / "v3.npz"
    _with_meta(trained_dir / "run" / "model.npz", ckpt,
               lambda meta: meta.update(format_version=3))
    with pytest.raises(CheckpointError, match="format version 3"):
        load_checkpoint(ckpt)
    assert main(_sample_args(ckpt, tmp_path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "format version 3" in err
    assert not (tmp_path / "s").exists()


def test_format_4_checkpoint_is_data_error(tmp_path, capsys):
    """Format 4, one array per layer, is not read any more."""
    from dataclasses import asdict

    import numpy as np

    from grf.flow import CheckpointError, GrfModel, load_checkpoint, toy_config

    model = GrfModel(toy_config(seed=26))
    meta = {"format_version": 4, "config": asdict(model.config), "extra": {}}
    ckpt = tmp_path / "v4.npz"
    np.savez(ckpt, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **{f"param::{name}": arr for name, arr in model.named_parameters()})
    with pytest.raises(CheckpointError, match="format version 4"):
        load_checkpoint(ckpt)
    assert main(_sample_args(ckpt, tmp_path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "format version 4" in err
    assert not (tmp_path / "s").exists()


def test_checkpoint_whose_metadata_is_not_an_object_is_data_error(trained_dir, tmp_path,
                                                                 capsys):
    import numpy as np

    from grf.flow import CheckpointError, load_checkpoint

    ckpt = tmp_path / "list_meta.npz"
    _rewrite_checkpoint(trained_dir / "run" / "model.npz", ckpt, replace={
        "__meta__": np.frombuffer(json.dumps([4]).encode(), dtype=np.uint8)})
    with pytest.raises(CheckpointError, match="metadata is not a JSON object"):
        load_checkpoint(ckpt)
    assert main(_sample_args(ckpt, tmp_path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "metadata is not a JSON object" in err
    assert not (tmp_path / "s").exists()


def test_checkpoint_of_a_retired_adjacency_mode_is_data_error(trained_dir, tmp_path, capsys):
    # format-4 files written before the field was removed store "node"
    for field, value in (("adjacency_mode", "node"), ("relational_gcn", False)):
        ckpt = tmp_path / f"{field}.npz"
        _with_meta(trained_dir / "run" / "model.npz", ckpt,
                   lambda meta: meta["config"].update({field: value}))
        assert main(_sample_args(ckpt, tmp_path)) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"'{field}'" in err
        assert not (tmp_path / "s").exists()


@pytest.fixture(scope="module")
def over_budget_ckpt(tmp_path_factory):
    """A toy checkpoint whose every block certifies at 1.02, just above a
    contraction: its fixed-point iterates need not diverge to show it."""
    import numpy as np

    from grf.flow import GrfModel, save_checkpoint, toy_config

    model = GrfModel(toy_config(seed=60))
    for block in model.blocks():
        for w in block.weights:
            w *= 1.02 ** (1.0 / block.depth) / np.linalg.norm(w, 2)
    assert min(model.certified_block_bounds()) >= 1.0
    path = tmp_path_factory.mktemp("over_budget") / "model.npz"
    save_checkpoint(path, model)
    return path


@pytest.mark.parametrize("argv", [
    ["sample", "--count", "4"],
    ["reconstruct", "--dataset", str(DATA / "toy_train.smi"), "--count", "2"],
    ["latent-grid", "--dataset", str(DATA / "toy_train.smi"), "--grid-size", "2"],
    ["eval", "--dataset", str(DATA / "toy_train.smi"), "--count", "1"],
], ids=lambda argv: argv[0])
def test_non_contractive_checkpoint_is_numerical_error(argv, over_budget_ckpt, tmp_path,
                                                       capsys):
    from grf.cli import EXIT_NUMERICAL

    out = tmp_path / "o"
    assert main([*argv, "--ckpt", str(over_budget_ckpt), "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: feature.0: certified Lipschitz bound"), err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("name, preset", [
    pytest.param("toy.json", toy_config, id="toy"),
    pytest.param("qm9.json", qm9_table_config, id="qm9"),
    pytest.param(None, toy_config, id="no-config"),
])
def test_shipped_config_builds_its_python_preset(name, preset):
    """`grf train --config configs/<name>` builds the model the benchmark
    builds from the preset, so the two cannot drift apart unnoticed.  The
    toy preset is the default profile: `configs/toy.json`, both sections,
    and a run with no config file parse to `(ModelConfig(), TrainConfig())`."""
    model_cfg, train_cfg = _parse_train_config(name and DATA.parent / "configs" / name, 0)
    assert model_cfg == preset()
    if preset is toy_config:
        assert (model_cfg, train_cfg) == (ModelConfig(), TrainConfig())


def test_partial_model_section_fills_from_the_toy_profile(tmp_path):
    section = {"mlp_blocks": 2, "init_scale": 0.7}
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps({"model": section}), encoding="utf-8")
    model_cfg, train_cfg = _parse_train_config(cfg, 4)
    assert model_cfg == toy_config(**section, seed=4)
    assert train_cfg == TrainConfig(rng_seed=4)


def test_valence_table_missing_a_schema_atom_is_data_error(trained_dir, tmp_path, capsys):
    """A table without an entry for one of the checkpoint's atom types is
    refused before any sample is drawn or written, whatever the samples."""
    table = tmp_path / "valences.json"
    table.write_text(json.dumps({"C": 4, "N": 3, "O": 2}), encoding="utf-8")
    for count in ("10", "1"):
        out = tmp_path / f"s{count}"
        code = main(["sample", "--ckpt", str(trained_dir / "run" / "model.npz"),
                     "--out", str(out), "--count", count, "--seed", "0",
                     "--valence-table", str(table)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(table) in err and "'F'" in err, err
        assert not out.exists()
