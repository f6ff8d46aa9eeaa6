"""Run one benchmark workload and print its metrics.

Usage, from the root of a grf checkout:

    python3 perfbench/run.py --workload qm9-infer --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics; with ``--trace 1`` the per-layer
metrics of a traced run.  The lines before it print every metric, the
per-operation report, the determinism digest and, when traced, the self time
per operation of each traced layer.  ``--out DIR`` also writes the full
result (and the machine info) to ``DIR/result.json``.

The program under test is imported from ``src/`` of the current directory;
without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXIT_NO_PROGRAM = 2


def _import_program(root: Path):
    src = root / "src"
    if not (src / "grf" / "__init__.py").is_file():
        print(f"error: no grf sources under {src}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.path[:0] = [str(src), str(HERE)]
    import grf

    if Path(grf.__file__).resolve().parent != (src / "grf").resolve():
        print(f"error: imported grf from {grf.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    import workloads

    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for result.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    workloads = _import_program(root)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    scratch_root = root / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        result = workloads.run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                        args.seconds, bool(args.trace), root, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    result["workload"] = args.workload
    result["machine"] = workloads.machine_info()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ops {result['ops']}  setups {result['setups']}")
    for section in ("end_to_end", "report", "per_layer"):
        for name, m in result.get(section, {}).items():
            value = "n/a (too few samples)" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{section:10s} {name:34s} {value} {m['unit']}")
    for name, ms in list(result.get("self_ms_per_op", {}).items())[:12]:
        print(f"self_time  {name:34s} {ms:.6g} ms/op")
    print(f"digest     {json.dumps(result['digest'], sort_keys=True)}")
    print(f"failures   {result['failed']}/{result['attempted']}"
          + "".join(f"\n  {reason}" for reason in result["failure_reasons"]))

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        with open(args.out / "result.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")

    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
