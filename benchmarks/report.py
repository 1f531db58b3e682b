"""Run every workload untraced and traced, then print one report.

    python3 benchmarks/report.py --seed 1

For each workload of `workloads.py` (the ones in BENCHMARK.json and
`vocab-scale`) this runs `run.py --trace 0` and `run.py --trace 1` as
child processes, so peak RSS is per workload, passes their output
through, and ends with three tables: end-to-end metrics, per-layer
metrics, and the tracing overhead with its base.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from workloads import WORKLOADS  # noqa: E402  (needs the path above)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(title: str, results: dict[str, dict]) -> None:
    names = list(results)
    print(f"\n{title}")
    print(f"{'metric':<36} {'unit':<6}" + "".join(f" {n:>14}" for n in names))
    first = results[names[0]]["metrics"]
    for metric, value in first.items():
        cells = "".join(f" {results[n]['metrics'][metric]['value']:>14.6g}"
                        for n in names)
        print(f"{metric:<36} {value['unit']:<6}{cells}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    untraced, traced = {}, {}
    for workload in WORKLOADS:
        untraced[workload] = run(workload, args.seed, args.seconds, 0)
        traced[workload] = run(workload, args.seed, args.seconds, 1)

    table("end-to-end (untraced runs; medians)", untraced)
    for name, result in untraced.items():
        print(f"{name}: {result['failed']} of {result['attempted']} "
              f"iterations failed")
    table("per-layer (traced runs: traced set-up + median iteration)",
          traced)
    print("\ntracing overhead (traced minus untraced iteration, "
          "alternating in one process)")
    for name, result in traced.items():
        m = result["metrics"]
        overhead, base = m["trace.overhead_s"]["value"], \
            m["trace.base_wall_s"]["value"]
        print(f"{name:<14} {overhead:8.4f} s on a base of {base:8.4f} s "
              f"({100 * overhead / base:+.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
