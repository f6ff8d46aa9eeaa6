#!/usr/bin/env python3
"""Desk-scale end-to-end experiment.

Trains the toy profile (configs/toy.json) on the bundled 50-molecule set,
then reproduces the three headline artifacts on the trained model: the
reconstruction curve against fixed-point iterations, temperature-controlled
sampling with quality metrics, and a latent-grid decode around a query
molecule.  Every step is one `grf` subcommand writing into the output
directory, so the artifacts are exactly what the CLI writes.

Usage: python scripts/train_toy.py [out_dir] [--seed N] [--epochs N]
"""

import argparse
import json
import sys
from pathlib import Path

from grf import cli

REPO = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", type=Path, default=Path("out/toy"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=20)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    config = json.loads((REPO / "configs" / "toy.json").read_text(encoding="utf-8"))
    config["train"]["epochs"] = args.epochs
    config_path = args.out / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    out, ckpt = str(args.out), str(args.out / "model.npz")
    data = str(REPO / "data" / "toy_train.smi")
    steps = (
        ["train", "--config", str(config_path), "--dataset", data, "--out", out,
         "--seed", str(args.seed)],
        ["reconstruct", "--ckpt", ckpt, "--dataset", data, "--out", out,
         "--iterations", "1,5,10,30,100", "--seed", str(args.seed)],
        ["sample", "--ckpt", ckpt, "--out", out, "--count", "500", "--dataset", data,
         "--seed", str(args.seed + 1)],
        ["latent-grid", "--ckpt", ckpt, "--dataset", data, "--out", out,
         "--grid-step", "0.4", "--seed", str(args.seed + 2)],
    )
    for step in steps:
        code = cli.main(step)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
