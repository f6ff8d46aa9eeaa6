"""Record a baseline: every workload untraced and traced, each in its own process.

Usage, from the root of a grf checkout:

    python3 perfbench/record.py --seed 0 --out perfbench/results/baseline.json

Each workload runs twice through ``perfbench/run.py`` in a fresh process,
once with ``--trace 0`` and once with ``--trace 1``, so ``peak_rss_mb``
belongs to that workload alone.  The output holds the machine info, the
end-to-end metrics of both runs side by side with the tracing overhead
(the share by which tracing made each metric worse), the per-operation
report, the per-layer metrics, the self time per operation and the
determinism digest.  The script exits with code 1 if a run fails a check
or the traced and untraced digests differ.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_one(workload: str, seed: int, seconds: float, trace: int, out_dir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out_dir)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out_dir / "result.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    scratch = Path.cwd() / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for w in bench["workloads"]:
            name = w["name"]
            plain = run_one(name, args.seed, args.seconds, 0, tmp / f"{name}-0")
            traced = run_one(name, args.seed, args.seconds, 1, tmp / f"{name}-1")
            record["machine"] = plain["machine"]
            # share by which tracing made each metric worse (negative: better)
            overhead = {}
            for k, m in plain["end_to_end"].items():
                ratio = traced["end_to_end"][k]["value"] / m["value"]
                overhead[k] = ratio - 1.0 if better[k] == "lower" else 1.0 / ratio - 1.0
            same_digest = plain["digest"] == traced["digest"]
            ok = ok and plain["correct"] and traced["correct"] and same_digest
            record["workloads"][name] = {
                "why": w["why"],
                "attempted": plain["attempted"], "failed": plain["failed"],
                "end_to_end": plain["end_to_end"],
                "end_to_end_traced": traced["end_to_end"],
                "tracing_overhead": overhead,
                "report": plain["report"],
                "report_traced": traced["report"],
                "per_layer": traced["per_layer"],
                "self_ms_per_op": traced["self_ms_per_op"],
                "digest": plain["digest"],
                "digest_matches_traced_run": same_digest,
            }
            print(f"{name}: {plain['failed']}/{plain['attempted']} failed, "
                  f"digest {'matches' if same_digest else 'DIFFERS FROM'} the traced run")
            print(f"  {'metric':28s} {'untraced':>12s} {'traced':>12s} {'overhead':>9s}")
            for k, m in plain["end_to_end"].items():
                print(f"  {k:28s} {m['value']:12.5g} {traced['end_to_end'][k]['value']:12.5g} "
                      f"{100 * overhead[k]:8.1f}%  {m['unit']}")
            for k, m in plain["report"].items():
                value = "n/a" if m["value"] is None else f"{m['value']:.5g}"
                print(f"  {k:28s} {value:>12s} {m['unit']}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
