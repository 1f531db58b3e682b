"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload toy-pipeline --seed 1 \
        --seconds 50 --trace 0

Run from a checkout of the repository; the library is imported from the
checkout's ``src/``. With ``--trace 0`` the set-up runs, then untraced
iterations run for about ``--seconds`` seconds (a new iteration starts
only if the median iteration still fits), with the set-up repeated
between them (see SETUP_SHARE), and the last line of stdout is a JSON
object with the end-to-end metrics (see `fastest_iteration` for
`wall_s`). With ``--trace 1`` a
traced set-up runs once, then untraced and traced iterations alternate;
the last line holds the per-layer metrics (the traced set-up plus the
median traced iteration) and the tracing overhead with its base. The
lines before it give the machine record, each iteration's digest and
quality figures, and in traced runs a per-layer table.

Every iteration is checked; an iteration that raises or fails a check
counts as failed, its error goes to stderr, and the run goes on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# An untraced run repeats the set-up between iterations while all its
# set-ups so far took less than this share of the time since the first
# iteration began, so that set-up segments too are sampled across the
# whole run (`setup_s` follows the rule of `fastest_iteration`).
SETUP_SHARE = 0.15


def segments(t0: float, marks: list[tuple[str, float]],
             t1: float) -> dict[str, float]:
    """Split the interval from *t0* to *t1* at the checkpoint *marks*
    (see `tracing.Checkpoints`): each segment's duration, keyed by its
    position and the names of the marks that bound it."""
    out: dict[str, float] = {}
    left, start = "begin", t0
    for i, (right, end) in enumerate([*marks, ("finish", t1)]):
        out[f"{i} {left} > {right}"] = end - start
        left, start = right, end
    return out


def fastest_iteration(laps: list[dict[str, float]]) -> float:
    """One iteration's wall time on an undisturbed host: each segment's
    fastest time over the run's iterations, summed.

    Every iteration repeats the same calls on the same inputs, so it
    splits into the same segments at the start and end of each library
    call. On a shared host a vCPU runs at full speed most of the time but
    near half speed for stretches of seconds to a minute, so the median
    iteration moved by up to 1.4x from one run to the next, and even the
    fastest of forty 1.1 s iterations by up to 1.3x. Segments are mostly
    milliseconds long, and each one's fastest run in a 50 s run is one
    the host did not disturb."""
    keys = set().union(*laps)  # an iteration that raised has fewer
    return sum(min(it[key] for it in laps if key in it) for key in keys)


def import_library():
    """Import mtkit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mtkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no mtkit sources under {src}")
    sys.path.insert(0, str(src))
    import mtkit
    if Path(mtkit.__file__).resolve().parent != src / "mtkit":
        raise SystemExit(f"error: imported mtkit from {mtkit.__file__}")
    return mtkit


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(seed: int, threads: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mtkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "source_sha256": source.hexdigest(),
            "seed": seed, "threads": threads}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Iterations of one workload: timing, checks, digests, failures."""

    def __init__(self, workload, work: Path, checkpoints) -> None:
        self.workload = workload
        self.work = work
        self.checkpoints = checkpoints
        self.attempted = 0
        self.failed = 0
        self.first_digest: str | None = None
        self.quality: dict[str, float] = {}

    def iterate(self, before=None, after=None) -> dict[str, float]:
        """One timed iteration; returns its `segments`. `before` and
        `after` run just outside the timed region (they switch tracing)."""
        out = self.work / "iterations" / str(self.attempted)
        self.attempted += 1
        problems: list[str] = []
        result = None
        if before:
            before()
        self.checkpoints.marks.clear()
        t0 = time.perf_counter()
        try:
            result = self.workload.run(out)
        except Exception:
            problems.append(traceback.format_exc())
        t1 = time.perf_counter()
        wall = t1 - t0
        laps = segments(t0, self.checkpoints.marks, t1)
        if after:
            after()
        if result is not None:
            try:
                outcome = self.workload.check(result)
            except Exception:
                problems.append(traceback.format_exc())
            else:
                problems += outcome.problems
                print(f"iteration {self.attempted}: wall {wall:.4f} s, "
                      f"digest {outcome.digest}"
                      + "".join(f", {k} {v:.4f}"
                                for k, v in outcome.quality.items()),
                      flush=True)
                if self.first_digest is None:
                    self.first_digest = outcome.digest
                elif outcome.digest != self.first_digest:
                    problems.append(f"digest {outcome.digest} differs from "
                                    f"the first iteration's "
                                    f"{self.first_digest}")
                if self.quality and outcome.quality != self.quality:
                    problems.append(f"quality {outcome.quality} differs from "
                                    f"the first iteration's {self.quality}")
                self.quality = self.quality or outcome.quality
        del result
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"iteration {self.attempted} FAILED: {problem}",
                      file=sys.stderr, flush=True)
        return laps


def fits(started: float, seconds: float,
         *iterations: list[dict[str, float]]) -> bool:
    """Whether one more round of iterations ends within the budget."""
    needed = sum(statistics.median(sum(it.values()) for it in its)
                 for its in iterations)
    return time.perf_counter() - started + needed <= seconds


def timed_setup(make, setup_dir: Path, checkpoints):
    """A workload set up afresh in *setup_dir*, and its set-up's
    `segments`."""
    shutil.rmtree(setup_dir, ignore_errors=True)
    setup_dir.mkdir(parents=True)
    workload = make(setup_dir)
    checkpoints.marks.clear()
    t0 = time.perf_counter()
    workload.setup()
    return workload, segments(t0, checkpoints.marks, time.perf_counter())


def run_untraced(make, work: Path, checkpoints,
                 seconds: float) -> tuple[Loop, dict]:
    workload, first = timed_setup(make, work / "setup", checkpoints)
    setups = [first]
    loop = Loop(workload, work, checkpoints)
    laps: list[dict[str, float]] = []
    started = time.perf_counter()
    while not laps or fits(started, seconds, laps):
        laps.append(loop.iterate())
        spent = sum(sum(it.values()) for it in setups)
        if (spent < SETUP_SHARE * (time.perf_counter() - started)
                and fits(started, seconds, laps, setups)):
            gc.collect()
            setups.append(timed_setup(make, work / "setup-again",
                                      checkpoints)[1])
    metrics = {
        "wall_s": {"value": fastest_iteration(laps), "unit": "s"},
        "setup_s": {"value": fastest_iteration(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    median_wall = statistics.median(sum(it.values()) for it in laps)
    print(f"iterations: {len(laps)}; set-ups: {len(setups)}; "
          f"segments per iteration: {len(laps[0])}")
    print(f"median_wall_s: {median_wall:.6g} s (median iteration)")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    return loop, metrics


def run_traced(make, work: Path, checkpoints,
               seconds: float) -> tuple[Loop, dict]:
    import tracing
    instr = tracing.Instrumentation()

    def start(tracer):
        def go():
            instr.install()
            instr.tracer = tracer
        return go

    def stop():
        instr.tracer = None
        instr.uninstall()

    setup_dir = work / "setup"
    setup_dir.mkdir(parents=True)
    workload = make(setup_dir)
    setup_tracer = tracing.Tracer()
    start(setup_tracer)()
    try:
        workload.setup()
    finally:
        stop()
    loop = Loop(workload, work, checkpoints)
    base: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    raws: list[dict] = []
    started = time.perf_counter()
    while not traced or fits(started, seconds, base, traced):
        base.append(loop.iterate())
        tracer = tracing.Tracer()
        traced.append(loop.iterate(start(tracer), stop))
        raws.append(tracer.raw())
    combined = tracing.combine(setup_tracer.raw(), raws)
    values = tracing.layer_metrics(combined)
    values["trace.wall_s"] = fastest_iteration(traced)
    values["trace.base_wall_s"] = fastest_iteration(base)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.base_wall_s"]

    print(f"iterations: {len(base)} untraced, {len(traced)} traced")
    print(f"{'per-layer metric':<36} {'value':>16}  unit")
    for name, unit in tracing.LAYER_UNITS.items():
        print(f"{name:<36} {values[name]:>16.6g}  {unit}")
    overhead = values["trace.overhead_s"]
    base_wall = values["trace.base_wall_s"]
    print(f"tracing overhead: {overhead:.4f} s on an untraced wall_s of "
          f"{base_wall:.4f} s ({100 * overhead / base_wall:+.1f}%)")
    print("exact counters: " + json.dumps(tracing.exact_counters(combined),
                                          sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.LAYER_UNITS.items()}
    return loop, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    threads = workloads.THREADS
    print("machine: " + json.dumps(machine_record(args.seed, threads)),
          flush=True)

    def make(setup_dir: Path):
        return workloads.WORKLOADS[args.workload](args.seed, setup_dir,
                                                  threads)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checkpoints = tracing.Checkpoints()
    checkpoints.install()
    try:
        runner = run_traced if args.trace else run_untraced
        loop, metrics = runner(make, work, checkpoints, args.seconds)
    finally:
        checkpoints.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    print(f"digest {args.workload} seed {args.seed}: {loop.first_digest}")
    print(f"error_rate: {loop.failed / loop.attempted:.4f} ratio "
          f"({loop.failed} of {loop.attempted} iterations)")
    units = {"bleu_new": "BLEU", "bleu_old": "BLEU"}
    for name, value in loop.quality.items():
        print(f"{name}: {value:.4f} {units.get(name, '')}")
    print(json.dumps({"correct": loop.failed == 0,
                      "attempted": loop.attempted,
                      "failed": loop.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
