"""Tests of the benchmark itself (not part of the library's test suite).

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q

The counter and thread-invariance tests run each workload at full size,
so the file takes a minute or two.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

import mtkit
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
SEED = 3


def traced_iteration(name: str, work: Path, threads: int):
    """Set up and run one iteration of *name* with tracing on; returns the
    combined per-layer totals and the checked outcome."""
    workload = workloads.WORKLOADS[name](SEED, work, threads)
    instr = tracing.Instrumentation()
    setup, iteration = tracing.Tracer(), tracing.Tracer()
    instr.install()
    try:
        instr.tracer = setup
        workload.setup()
        instr.tracer = iteration
        result = workload.run(work / "out")
    finally:
        instr.tracer = None
        instr.uninstall()
    return tracing.combine(setup.raw(), [iteration.raw()]), \
        workload.check(result)


@pytest.fixture(scope="module")
def twice(tmp_path_factory):
    """Each workload traced twice from scratch with the same seed."""
    runs = {}
    for name in workloads.WORKLOADS:
        runs[name] = [
            traced_iteration(name, tmp_path_factory.mktemp(f"{name}-{i}"),
                             workloads.THREADS)
            for i in range(2)]
    return runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_outcome_is_correct_and_repeats(twice, name):
    (_, first), (_, second) = twice[name]
    assert first.problems == [] and second.problems == []
    assert first.digest == second.digest
    assert first.quality == second.quality


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_work_counters_repeat_exactly(twice, name):
    (first, _), (second, _) = twice[name]
    assert tracing.exact_counters(first) == tracing.exact_counters(second)


def test_counters_see_each_workloads_layers(twice):
    toy = tracing.exact_counters(twice["toy-pipeline"][0][0])
    assert toy["translator.train_lexicon.calls"] == 40
    scale = twice["vocab-scale"][0][0]
    assert scale["vocab.bpe.merges"] > 0 and scale["vocab.obpe.merges"] > 0
    assert scale.get("translator.train_lexicon.calls", 0) == 0
    mix = twice["synth-mix"][0][0]
    assert mix["translator.train_lexicon.calls"] == 16  # set-up only
    assert mix["dataset_builder.export.rows"] > 0
    assert mix["vocab.load.calls"] == 1


def test_toy_digest_is_thread_invariant(twice, tmp_path):
    """threads=1 and threads=min(nproc, 4) give the same run directory
    bytes; the untraced run also shows tracing changes no output."""
    workload = workloads.ToyPipeline(SEED, tmp_path, threads=1)
    workload.setup()
    outcome = workload.check(workload.run(tmp_path / "out"))
    traced = twice["toy-pipeline"][0][1]
    assert outcome.digest == traced.digest


def test_uninstall_restores_the_library():
    originals = (mtkit.bleu, mtkit.metrics.bleu, mtkit.pipeline.train_lexicon,
                 mtkit.Vocabulary.encode,
                 mtkit.LexiconTranslator.translate_batch)
    instr = tracing.Instrumentation()
    instr.install()
    assert mtkit.pipeline.train_lexicon is not originals[2]
    assert mtkit.toy.write_bitext is mtkit.corpus.write_bitext.__wrapped__
    instr.uninstall()
    assert (mtkit.bleu, mtkit.metrics.bleu, mtkit.pipeline.train_lexicon,
            mtkit.Vocabulary.encode,
            mtkit.LexiconTranslator.translate_batch) == originals


def test_self_time_subtracts_children_and_aggregates():
    tracer = tracing.Tracer()
    outer = tracer.open("outer", 0.0)
    inner = tracer.open("inner", 1.0)
    tracer.close(inner, 3.0)
    tracer.cover(outer, 1.5)  # a per-sentence aggregate under outer
    tracer.close(outer, 10.0)
    raw = tracer.raw()
    assert raw["inner.s"] == 2.0
    assert raw["outer.s"] == 10.0 - 2.0 - 1.5
    assert raw["outer.calls"] == 1


def test_segments_split_the_interval_at_each_mark():
    got = run.segments(10.0, [("f start", 11.0), ("f end", 14.0)], 14.5)
    assert got == {"0 begin > f start": 1.0, "1 f start > f end": 3.0,
                   "2 f end > finish": 0.5}


def test_fastest_iteration_sums_each_segments_fastest_time():
    laps = [{"a": 2.0, "b": 5.0, "c": 0.5},
            {"a": 3.0, "b": 4.0, "c": 0.25},
            {"a": 9.0}]  # an iteration that raised early
    assert run.fastest_iteration(laps) == 2.0 + 4.0 + 0.25


def test_checkpoints_mark_library_calls_and_uninstall(tmp_path):
    original = mtkit.pipeline.train_lexicon
    checkpoints = tracing.Checkpoints()
    checkpoints.install()
    try:
        corpus = mtkit.BitextCorpus(
            name="eng-xho", src_lang="eng", tgt_lang="xho",
            pairs=(mtkit.SentencePair("a b", "c d"),))
        mtkit.train_lexicon(corpus, iterations=1)
        # Tracing installed on top still binds the original's arguments.
        instr = tracing.Instrumentation()
        instr.install()
        instr.tracer = tracing.Tracer()
        mtkit.train_lexicon(corpus, iterations=2)
        raw = instr.tracer.raw()
        instr.tracer = None
        instr.uninstall()
    finally:
        checkpoints.uninstall()
    assert [name for name, _ in checkpoints.marks] == [
        "translator.train_lexicon start", "translator.train_lexicon end"] * 2
    assert raw["translator.em.token_pairs"] == 3 * 2 * 2
    assert mtkit.pipeline.train_lexicon is original


def test_combine_adds_setup_to_the_median_iteration():
    got = tracing.combine({"a": 1.0}, [{"a": 2.0, "b": 1.0}, {"a": 4.0},
                                       {"a": 3.0, "b": 1.0}])
    assert got == {"a": 4.0, "b": 1.0}


def test_fails_without_the_library_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*bench["command"], "--workload", "toy-pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
