"""Span tracing for the benchmark's traced runs.

`Instrumentation.install()` swaps wrappers in for the library's public
names (in every ``mtkit`` module that binds them, so calls made inside
the library are caught too) and `uninstall()` puts the originals back.
Each wrapped call records a span - name, start, end, parent - into the
current `Tracer`. Per-sentence calls (`Vocabulary.encode`,
`LexiconTranslator.translate_batch`) are too many for one span each:
they add their time and counts to an aggregate and to the time covered
inside the enclosing span.

A span's self time is its duration minus the time its children cover:
child spans by their wall time, per-sentence calls by the thread CPU
time they took, summed over threads and capped at the span's duration.
CPU time, because `export_mixture` encodes on worker threads that wait
on each other for the interpreter lock, and a call's wall time would
count that wait. Time the wrappers spend counting is also charged as
covered, so it does not inflate any layer's self time.

`Checkpoints` wraps the same names far more cheaply: it only stamps the
time at the start and end of each call, which splits an untraced
iteration into short segments (see `run.fastest_iteration`).

`mtkit.toy` (input generation) and `mtkit.cli` (a thin wrapper) are not
layers and are never patched.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from mtkit.translator import LexiconTranslator
from mtkit.vocab import Vocabulary

_NOT_LAYERS = ("mtkit.toy", "mtkit.cli")

# Span name -> the library function it wraps, by module attribute.
_SPANS = {
    "corpus.load_bitext": ("mtkit.corpus", "load_bitext"),
    "corpus.write_bitext": ("mtkit.corpus", "write_bitext"),
    "vocab.train_bpe": ("mtkit.vocab", "train_bpe"),
    "vocab.train_obpe": ("mtkit.vocab", "train_obpe"),
    "vocab.load": ("mtkit.vocab", "load_vocabulary"),
    "vocab_metrics.report": ("mtkit.vocab_metrics", "vocabulary_report"),
    "translator.train_lexicon": ("mtkit.translator", "train_lexicon"),
    "synthesis.backtranslate": ("mtkit.synthesis", "backtranslate"),
    "synthesis.pivot": ("mtkit.synthesis", "pivot_synthesize"),
    "dataset_builder.stage2_mixture":
        ("mtkit.dataset_builder", "build_stage2_mixture"),
    "dataset_builder.export": ("mtkit.dataset_builder", "export_mixture"),
    "metrics.bleu": ("mtkit.metrics", "bleu"),
    "metrics.spbleu": ("mtkit.metrics", "spbleu"),
    "metrics.chrf": ("mtkit.metrics", "chrf"),
    "metrics.select_best": ("mtkit.metrics", "select_best"),
    "pipeline.run": ("mtkit.pipeline", "run_pipeline"),
}


class _Tally:
    """One thread's counters, so recording takes no lock."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)
        self.covered: dict[int, float] = defaultdict(float)
        self.distinct: dict[int, set[str]] = defaultdict(set)


class Tracer:
    """Spans and counters of one phase (a set-up or one iteration).

    Spans open and close only on the thread that created the tracer.
    Counters may come from any thread; each thread keeps its own tally,
    merged by `raw()` once the phase's threads have finished."""

    def __init__(self) -> None:
        self.owner = threading.get_ident()
        self.spans: list[dict] = []  # name, start, end, parent index
        self.stack: list[int] = []
        self._local = threading.local()
        self._tallies: list[_Tally] = []
        self._lock = threading.Lock()

    def tally(self) -> _Tally:
        """The calling thread's tally."""
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = _Tally()
            with self._lock:
                self._tallies.append(tally)
        return tally

    def open(self, name: str, start: float) -> int:
        if threading.get_ident() != self.owner:
            raise RuntimeError(f"span {name} opened off the tracing thread")
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"name": name, "start": start, "end": None,
                           "parent": parent})
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, end: float) -> None:
        if self.stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        span = self.spans[index]
        span["end"] = end
        self.cover(span["parent"], end - span["start"])

    def cover(self, parent: int | None, seconds: float) -> None:
        """Charge *seconds* against *parent*'s self time."""
        if parent is not None:
            self.tally().covered[parent] += seconds

    def count(self, name: str, value: float) -> None:
        self.tally().counters[name] += value

    def aggregate(self, tally: _Tally, name: str, seconds: float,
                  bookkeeping: float) -> None:
        """One per-sentence call, charged to the innermost open span."""
        tally.counters[name + ".s"] += seconds
        tally.counters[name + ".calls"] += 1
        if self.stack:
            tally.covered[self.stack[-1]] += seconds + bookkeeping

    def raw(self) -> dict[str, float]:
        """Additive totals: `<span>.s` self seconds, `<span>.calls`, and
        every counter."""
        out: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        distinct: dict[int, set[str]] = defaultdict(set)
        for tally in self._tallies:
            for name, value in tally.counters.items():
                out[name] += value
            for index, seconds in tally.covered.items():
                covered[index] += seconds
            for key, words in tally.distinct.items():
                distinct[key] |= words
        for i, span in enumerate(self.spans):
            if span["end"] is None:
                raise RuntimeError(f"span {span['name']} never closed")
            duration = span["end"] - span["start"]
            out[span["name"] + ".s"] += duration - min(covered[i], duration)
            out[span["name"] + ".calls"] += 1
        out["vocab.encode.distinct"] += sum(map(len, distinct.values()))
        return dict(out)


def _file_bytes(*paths: Path) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# -- per-span counting, run outside the span's own timing -----------------

def _before_train_lexicon(tracer: Tracer, args: dict) -> None:
    pairs = sum((len(p.src.split()) + 1) * len(p.tgt.split())
                for p in args["corpus"].pairs)
    tracer.count("translator.em.token_pairs", pairs * args["iterations"])


def _before_scoring(tracer: Tracer, args: dict) -> None:
    tracer.count("metrics.segments", len(args["hyps"]))


def _after_write_bitext(tracer: Tracer, args: dict, manifest: Path) -> None:
    corpus = args["corpus"]
    tracer.count("corpus.bytes_written", _file_bytes(
        manifest, manifest.parent / f"{corpus.name}.{corpus.src_lang}",
        manifest.parent / f"{corpus.name}.{corpus.tgt_lang}"))


def _after_merges(kind: str):
    def after(tracer: Tracer, args: dict, vocab) -> None:
        tracer.count(f"vocab.{kind}.merges", len(vocab.merges))
    return after


def _after_synthesis(tracer: Tracer, args: dict, corpus) -> None:
    tracer.count("synthesis.pairs", len(corpus))


def _after_export(tracer: Tracer, args: dict, export) -> None:
    tracer.count("dataset_builder.export.rows", export.total)
    tracer.count("dataset_builder.export.bytes", _file_bytes(
        export.src_path, export.tgt_path, export.sidecar_path))


def _after_pipeline(tracer: Tracer, args: dict, result) -> None:
    log = json.loads(Path(result.log_path).read_text(encoding="utf-8"))
    run_dir = Path(result.run_dir)
    hashed = 0
    artifacts = set()
    for step in log["steps"]:
        for kind in ("inputs", "outputs"):
            for rel in step.get(kind, {}):
                path = run_dir / rel
                if path.is_file():
                    hashed += path.stat().st_size
                if kind == "outputs":
                    artifacts.add(rel)
    tracer.count("pipeline.checksum_bytes", hashed)
    tracer.count("pipeline.artifacts", len(artifacts))


_BEFORE = {
    "translator.train_lexicon": _before_train_lexicon,
    "metrics.bleu": _before_scoring,
    "metrics.spbleu": _before_scoring,
    "metrics.chrf": _before_scoring,
}
_AFTER = {
    "corpus.write_bitext": _after_write_bitext,
    "vocab.train_bpe": _after_merges("bpe"),
    "vocab.train_obpe": _after_merges("obpe"),
    "synthesis.backtranslate": _after_synthesis,
    "synthesis.pivot": _after_synthesis,
    "dataset_builder.export": _after_export,
    "pipeline.run": _after_pipeline,
}


def _bindings():
    """(span, attribute, function, modules binding it) for each name of
    `_SPANS`, over the layer modules loaded now."""
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "mtkit" or name.startswith("mtkit."))
               and name not in _NOT_LAYERS]
    for span, (module, attr) in _SPANS.items():
        original = getattr(sys.modules[module], attr)
        yield span, attr, original, [m for m in modules
                                     if getattr(m, attr, None) is original]


class Checkpoints:
    """Stamps `perf_counter()` into `marks` at the start and end of every
    call to a function of `_SPANS` made on the installing thread, with
    the function's name; nothing else, so the cost is a few microseconds
    a call."""

    def __init__(self) -> None:
        self.marks: list[tuple[str, float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for span, attr, original, modules in _bindings():
            wrapper = self._wrapper(span, original)
            for mod in modules:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrapper(self, name: str, fn):
        marks, owner = self.marks, threading.get_ident()
        start, end = name + " start", name + " end"

        def wrapper(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            marks.append((start, time.perf_counter()))
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append((end, time.perf_counter()))

        wrapper.__wrapped__ = fn
        return wrapper


class Instrumentation:
    """Installs and removes the wrappers; `tracer` is the phase that
    wrapped calls record into (None records nothing)."""

    def __init__(self) -> None:
        self.tracer: Tracer | None = None
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for span, attr, original, modules in _bindings():
            wrapper = self._span_wrapper(span, original)
            for mod in modules:
                self._swap(mod, attr, wrapper)
        self._swap(Vocabulary, "encode",
                   self._encode_wrapper(Vocabulary.encode))
        self._swap(LexiconTranslator, "translate_batch",
                   self._decode_wrapper(LexiconTranslator.translate_batch))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _swap(self, owner: object, attr: str, wrapper: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        signature = inspect.signature(fn)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        instr = self

        def wrapper(*args, **kwargs):
            tracer = instr.tracer
            if tracer is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            bound = None
            if before or after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            if before:
                before(tracer, bound)
            t1 = time.perf_counter()
            index = tracer.open(name, t1)
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                tracer.close(index, t2)
            if after:
                after(tracer, bound, result)
            parent = tracer.spans[index]["parent"]
            tracer.cover(parent, (t1 - t0) + (time.perf_counter() - t2))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _encode_wrapper(self, fn):
        instr = self

        def encode(vocab, text):
            tracer = instr.tracer
            if tracer is None:
                return fn(vocab, text)
            t0 = time.thread_time()
            ids = fn(vocab, text)
            t1 = time.thread_time()
            tally = tracer.tally()
            words = text.split()
            tally.distinct[id(vocab)].update(words)
            tally.counters["vocab.encode.words"] += len(words)
            tally.counters["vocab.encode.tokens"] += len(ids)
            tracer.aggregate(tally, "vocab.encode", t1 - t0,
                             time.thread_time() - t1)
            return ids

        encode.__wrapped__ = fn
        return encode

    def _decode_wrapper(self, fn):
        instr = self

        def translate_batch(model, sentences, src, tgt):
            tracer = instr.tracer
            if tracer is None:
                return fn(model, sentences, src, tgt)
            t0 = time.thread_time()
            out = fn(model, sentences, src, tgt)
            t1 = time.thread_time()
            table = model.lexicon.table
            words = copied = 0
            for sentence in sentences:
                for w in sentence.split():
                    words += 1
                    copied += not table.get(w)
            tally = tracer.tally()
            tally.counters["translator.decode.words"] += words
            tally.counters["translator.decode.copied"] += copied
            tracer.aggregate(tally, "translator.decode", t1 - t0,
                             time.thread_time() - t1)
            return out

        translate_batch.__wrapped__ = fn
        return translate_batch


# -- per-layer metrics ------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def combine(setup: dict[str, float],
            iterations: list[dict[str, float]]) -> dict[str, float]:
    """The traced set-up once plus the median iteration, key by key."""
    keys = set(setup).union(*iterations)
    return {k: setup.get(k, 0.0)
            + statistics.median(it.get(k, 0.0) for it in iterations)
            for k in keys}


# Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "translator.train_lexicon.s": "s",
    "translator.train_lexicon.calls": "count",
    "translator.em.token_pairs": "count",
    "translator.em.token_pairs_per_s": "1/s",
    "translator.decode.s": "s",
    "translator.decode.calls": "count",
    "translator.decode.words_per_s": "1/s",
    "translator.copy_through_ratio": "ratio",
    "vocab.train_bpe.s": "s",
    "vocab.bpe.merges": "count",
    "vocab.bpe.us_per_merge": "us",
    "vocab.train_obpe.s": "s",
    "vocab.obpe.merges": "count",
    "vocab.obpe.us_per_merge": "us",
    "vocab.encode.s": "s",
    "vocab.encode.words": "count",
    "vocab.encode.tokens_per_s": "1/s",
    "vocab.encode.distinct_word_ratio": "ratio",
    "vocab.load.s": "s",
    "vocab_metrics.report.s": "s",
    "synthesis.backtranslate.s": "s",
    "synthesis.pivot.s": "s",
    "synthesis.pairs": "count",
    "dataset_builder.stage2_mixture.s": "s",
    "dataset_builder.export.s": "s",
    "dataset_builder.export.rows": "count",
    "dataset_builder.export.rows_per_s": "1/s",
    "dataset_builder.export.bytes": "bytes",
    "metrics.bleu.s": "s",
    "metrics.spbleu.s": "s",
    "metrics.chrf.s": "s",
    "metrics.select_best.s": "s",
    "metrics.segments": "count",
    "metrics.segments_per_s": "1/s",
    "corpus.load_bitext.s": "s",
    "corpus.load_bitext.calls": "count",
    "corpus.write_bitext.s": "s",
    "corpus.bytes_written": "bytes",
    "pipeline.self_s": "s",
    "pipeline.checksum_bytes": "bytes",
    "pipeline.artifacts": "count",
    "trace.wall_s": "s",
    "trace.base_wall_s": "s",
    "trace.overhead_s": "s",
}


def _per(num: str, den: str, scale: float = 1.0):
    return lambda r: scale * _ratio(r[num], r[den])


# Per-layer metrics that are not a raw total under the same name.
_DERIVED = {
    "translator.em.token_pairs_per_s":
        _per("translator.em.token_pairs", "translator.train_lexicon.s"),
    "translator.decode.words_per_s":
        _per("translator.decode.words", "translator.decode.s"),
    "translator.copy_through_ratio":
        _per("translator.decode.copied", "translator.decode.words"),
    "vocab.bpe.us_per_merge":
        _per("vocab.train_bpe.s", "vocab.bpe.merges", 1e6),
    "vocab.obpe.us_per_merge":
        _per("vocab.train_obpe.s", "vocab.obpe.merges", 1e6),
    "vocab.encode.tokens_per_s": _per("vocab.encode.tokens", "vocab.encode.s"),
    "vocab.encode.distinct_word_ratio":
        _per("vocab.encode.distinct", "vocab.encode.words"),
    "dataset_builder.export.rows_per_s":
        _per("dataset_builder.export.rows", "dataset_builder.export.s"),
    "metrics.segments_per_s": lambda r: _ratio(
        r["metrics.segments"],
        r["metrics.bleu.s"] + r["metrics.spbleu.s"] + r["metrics.chrf.s"]),
    "pipeline.self_s": lambda r: r["pipeline.run.s"],
}


def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Every metric of LAYER_UNITS except the trace.* ones, from
    combined raw totals."""
    r = defaultdict(float, raw)
    return {name: _DERIVED[name](r) if name in _DERIVED else r[name]
            for name in LAYER_UNITS if not name.startswith("trace.")}


def exact_counters(raw: dict[str, float]) -> dict[str, float]:
    """The work counters that must repeat exactly for one seed."""
    names = ("translator.train_lexicon.calls", "translator.em.token_pairs",
             "translator.decode.calls", "vocab.bpe.merges",
             "vocab.obpe.merges", "dataset_builder.export.rows",
             "metrics.segments")
    return {n: raw.get(n, 0.0) for n in names}
