"""Run the benchmark over several seeds and report each metric's spread.

::

    python3 faultbench/spread.py --workloads hash_full cpu_tail --seeds 10

For every workload and end-to-end metric it prints the median of the
per-run values and their interquartile range as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  A benchmark is steady when every spread, ``setup_s``'s
included, stays within its bound.  Each run's last output line is
appended to ``--log`` (JSON lines) so a later comparison can reuse it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None):
    """Run every seed of every workload; exit 1 unless all spreads hold."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--log", default=str(BENCH_DIR / "_work" / "spread.jsonl"))
    args = parser.parse_args(argv)
    Path(args.log).parent.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = [
                sys.executable,
                *spec["command"][1:],
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                "0",
            ]
            run = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
            output = run.stdout
            result = json.loads(output.strip().splitlines()[-1])
            with open(args.log, "a", encoding="utf-8") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: INCORRECT ({result['failed']} failed)")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median
            ok = share <= bounds[name]
            steady = steady and ok
            verdict = "ok" if ok else "WIDE"
            print(
                f"{workload:14s} {name:20s} median {median:14.4f}  "
                f"iqr/median {share:6.3f}  bound {bounds[name]:.2f}  {verdict}"
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
