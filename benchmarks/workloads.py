"""The benchmark's workloads, each a closed loop of one caller.

A workload builds every input from its seed in `setup()`, does the timed
library work in `run(out)` and checks the result in `check(result)`,
untimed and untraced. `check` returns an `Outcome`: a digest of the
output bytes, the workload's quality figures and the problems found.

The workloads stress different layers:

* toy-pipeline - `run_pipeline` with the `repro-toy` config on toy data
  (the bundled generator's word maps) at a tenth of the bundled sizes:
  the paper's experiment end to end. Mostly EM and scoring; vocabulary
  training (budget 400) is a few percent.
* vocab-scale - BPE, OBPE (p=-2) and `vocabulary_report` on a
  9-language corpus with about 50k word types and a budget of 4000. The
  only workload where vocabulary training dominates; no EM, and its
  encode calls face a large working set of distinct words.
* synth-mix - the stage-2 data path at toy scale: decoding,
  synthesis, export and scoring over a small, warm word set. EM runs
  only in set-up.

The library is always called through the ``mtkit`` package namespace at
call time, so the traced run's wrappers see these calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mtkit
from mtkit import toy

# Wherever the library takes `threads`.
THREADS = min(os.cpu_count() or 1, 4)


@dataclass
class Outcome:
    digest: str
    quality: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _sha256_files(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _flipped(corpus: mtkit.BitextCorpus) -> mtkit.BitextCorpus:
    return mtkit.BitextCorpus(
        name=f"{corpus.name}-rev", src_lang=corpus.tgt_lang,
        tgt_lang=corpus.src_lang,
        pairs=tuple(mtkit.SentencePair(p.tgt, p.src) for p in corpus.pairs))


# -- toy data ---------------------------------------------------------------

def base_sentences(n: int, rng: np.random.Generator) -> list[str]:
    """Distinct English-like sentences over the toy word list, Zipf word
    frequencies, 4 to 9 words."""
    weights = np.arange(1, len(toy.WORDS) + 1) ** -1.5
    weights /= weights.sum()
    low, high = toy.SENTENCE_LENGTHS
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        batch = rng.choice(len(toy.WORDS), size=(n, high), p=weights)
        lengths = rng.integers(low, high + 1, size=n)
        for row, length in zip(batch, lengths):
            sentence = " ".join(toy.WORDS[i] for i in row[:length])
            if sentence not in seen and len(out) < n:
                seen.add(sentence)
                out.append(sentence)
    return out


@dataclass
class ToyCorpora:
    test: dict[str, list[str]]  # multiparallel, by language
    eng: dict[str, mtkit.BitextCorpus]  # eng-X, by X
    new_real: dict[tuple[str, str], mtkit.BitextCorpus]


def toy_corpora(seed: int, scale: float) -> ToyCorpora:
    """The bundled toy corpus's layout at *scale* times its sizes, with
    its word maps and renderer and this module's sentence sampler; no
    two parts share a sentence."""
    transforms = toy.word_transforms(seed)
    eng_sizes = {k: round(v * scale) for k, v in toy.ENG_TRAIN_SIZES.items()}
    new_sizes = {k: round(v * scale) for k, v in toy.NEW_PAIR_SIZES.items()}
    test_size = round(toy.DEV_SIZE * scale)
    base = base_sentences(
        test_size + sum(eng_sizes.values()) + sum(new_sizes.values()),
        np.random.default_rng([seed, 1]))
    test = {lang: [toy.render(s, transforms[lang]) for s in base[:test_size]]
            for lang in toy.LANGUAGES}
    at = test_size
    eng = {}
    for lang in sorted(eng_sizes):
        chunk, at = base[at:at + eng_sizes[lang]], at + eng_sizes[lang]
        eng[lang] = mtkit.BitextCorpus(
            name=f"eng-{lang}", src_lang="eng", tgt_lang=lang,
            pairs=tuple(mtkit.SentencePair(s, toy.render(s, transforms[lang]))
                        for s in chunk))
    new_real = {}
    for (src, tgt), size in new_sizes.items():
        chunk, at = base[at:at + size], at + size
        new_real[(src, tgt)] = mtkit.BitextCorpus(
            name=f"{src}-{tgt}", src_lang=src, tgt_lang=tgt,
            pairs=tuple(mtkit.SentencePair(toy.render(s, transforms[src]),
                                           toy.render(s, transforms[tgt]))
                        for s in chunk))
    return ToyCorpora(test, eng, new_real)


def write_dev_set(dev_dir: Path, sentences: dict[str, list[str]]) -> None:
    """An n-way parallel dev set in the layout `generate_toy_data` writes."""
    dev_dir.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for lang, lines in sentences.items():
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        (dev_dir / f"dev.{lang}").write_bytes(payload)
        checksums[lang] = hashlib.sha256(payload).hexdigest()
    (dev_dir / "dev.json").write_text(json.dumps({
        "languages": list(sentences),
        "pair_count": len(next(iter(sentences.values()))),
        "files": {lang: f"dev.{lang}" for lang in sentences},
        "sha256": checksums,
    }, indent=2) + "\n", encoding="utf-8")


# -- toy-pipeline -----------------------------------------------------------

# Of the bundled toy sizes: one `run_pipeline` call then takes about a
# second, so a 50 s run holds dozens and each segment of an iteration
# gets a fast run on a shared host (see `run.fastest_iteration`).
TOY_SCALE = 0.1


class ToyPipeline:
    """`run_pipeline` with the `repro-toy` config, a fresh run directory
    per iteration."""

    def __init__(self, seed: int, work: Path, threads: int) -> None:
        self.seed, self.work, self.threads = seed, Path(work), threads

    def setup(self) -> None:
        data = toy_corpora(self.seed, TOY_SCALE)
        train = self.work / "data" / "train"
        eng = [mtkit.write_bitext(c, train) for c in data.eng.values()]
        new = [mtkit.write_bitext(c, train) for c in data.new_real.values()]
        write_dev_set(self.work / "data" / "dev", data.test)

        def rel(paths):
            return sorted(p.relative_to(self.work).as_posix() for p in paths)

        # The config `mtkit repro-toy` writes. Paths are relative to the
        # config file, so the run's config snapshot (an output) does not
        # depend on where the benchmark runs.
        config = {
            "name": "toy-run",
            "seed": self.seed,
            "output_root": "run-root",
            "corpora": rel(eng),
            "new_corpora": rel(new),
            "validation_split": 0,
            "vocab": {"vocab_size": 400, "use": "obpe"},
            "stage1": {"em_iterations": [5, 15]},
            "stage2": {"new_directions": toy.new_direction_labels(),
                       "em_iterations": 20},
            "eval": {"dev_dir": "data/dev"},
        }
        self.config_path = self.work / "toy-config.json"
        self.config_path.write_text(
            json.dumps(config, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    def run(self, out: Path):
        return mtkit.run_pipeline(self.config_path, threads=self.threads,
                                  run_dir=out / "run")

    def check(self, result) -> Outcome:
        log = json.loads(Path(result.log_path).read_text(encoding="utf-8"))
        outputs = {}
        for step in log["steps"]:
            outputs.update(step.get("outputs", {}))
        digest = hashlib.sha256(json.dumps(
            sorted(outputs.items())).encode("utf-8")).hexdigest()
        summary = result.summary
        problems = []
        if log["status"] != "ok":
            problems.append(f"run log status {log['status']!r}")
        if not summary.get("improved"):
            problems.append("stage 2 did not improve the new directions")
        return Outcome(digest, {"bleu_new": summary["stage2_avg_bleu_new"]},
                       problems)


# -- vocab-scale ------------------------------------------------------------

VOCAB_SCALE_SENTENCES = 3000   # per language
VOCAB_SCALE_LEXICON = 12000    # word list per language
VOCAB_SCALE_BUDGET = 4000
VOCAB_SCALE_LENGTHS = (5, 13)  # words per sentence, inclusive
VOCAB_SCALE_SAMPLE = 400       # trainer segmentations checked per vocab


def random_letter_corpus(seed: int) -> dict[str, tuple[str, ...]]:
    """Per-language random-letter words, letters from one shared
    distribution, Zipf word frequencies. Languages share letter pairs
    but few whole words, so OBPE's p=-2 stops once no pair occurs in
    every language, well short of the budget."""
    rng = np.random.default_rng([seed, 0])
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    letter_p = 1.0 / np.arange(3, 29)
    letter_p = (letter_p / letter_p.sum())[rng.permutation(26)]
    word_p = np.arange(1, VOCAB_SCALE_LEXICON + 1, dtype=float) ** -1.0
    word_p /= word_p.sum()
    low, high = VOCAB_SCALE_LENGTHS
    out = {}
    for li, lang in enumerate(toy.LANGUAGES, start=1):
        lang_rng = np.random.default_rng([seed, li])
        lexicon: dict[str, None] = {}  # distinct words in draw order
        while len(lexicon) < VOCAB_SCALE_LEXICON:
            sizes = lang_rng.integers(2, 10, size=VOCAB_SCALE_LEXICON)
            drawn = "".join(lang_rng.choice(letters, size=int(sizes.sum()),
                                            p=letter_p))
            ends = np.cumsum(sizes)
            for start, end in zip(ends - sizes, ends):
                lexicon.setdefault(drawn[start:end])
        lexicon = list(lexicon)[:VOCAB_SCALE_LEXICON]
        lengths = lang_rng.integers(low, high + 1, size=VOCAB_SCALE_SENTENCES)
        picks = lang_rng.choice(len(lexicon), size=int(lengths.sum()),
                                p=word_p)
        sentences, at = [], 0
        for n in lengths:
            sentences.append(" ".join(lexicon[i] for i in picks[at:at + n]))
            at += n
        out[lang] = tuple(sentences)
    return out


class VocabScale:
    """`train_bpe`, `train_obpe` (p=-2), then `vocabulary_report`."""

    def __init__(self, seed: int, work: Path, threads: int) -> None:
        self.seed, self.work, self.threads = seed, Path(work), threads

    def setup(self) -> None:
        sentences = random_letter_corpus(self.seed)
        self.data = mtkit.LangCorpusSet(sentences)
        # The report compares the vocabularies on English-centric bitexts,
        # one per other language, all sharing the English sentences.
        self.bitexts = [
            mtkit.BitextCorpus(
                name=f"eng-{lang}", src_lang="eng", tgt_lang=lang,
                pairs=tuple(mtkit.SentencePair(a, b) for a, b in
                            zip(sentences["eng"], sentences[lang])))
            for lang in toy.LANGUAGES if lang != "eng"]
        self.config = mtkit.VocabConfig(vocab_size=VOCAB_SCALE_BUDGET)

    def run(self, out: Path):
        bpe = mtkit.train_bpe(self.data, self.config, threads=self.threads)
        obpe = mtkit.train_obpe(self.data, self.config, threads=self.threads)
        report = mtkit.vocabulary_report(self.bitexts, bpe, obpe)
        return bpe, obpe, report

    def check(self, result) -> Outcome:
        bpe, obpe, report = result
        problems = []
        if len(bpe) != VOCAB_SCALE_BUDGET:
            problems.append(f"BPE stopped at {len(bpe)} of "
                            f"{VOCAB_SCALE_BUDGET} tokens")
        marker = self.config.end_of_word_marker
        for vocab in (bpe, obpe):
            segs = vocab.trainer_segmentations
            keys = sorted(segs)
            step = max(1, len(keys) // VOCAB_SCALE_SAMPLE)
            for lang, marked in keys[::step]:
                word = marked[:-len(marker)]
                if vocab.segment(word) != segs[(lang, marked)]:
                    problems.append(f"{vocab.mode}: encode({word!r}) differs "
                                    f"from the trainer's segmentation")
                    break
            for lang in self.data.languages:
                for sentence in self.data.sentences[lang][:20]:
                    if vocab.decode(vocab.encode(sentence)) != sentence:
                        problems.append(f"{vocab.mode}: {lang} sentence does "
                                        f"not round-trip")
                        break
        digest = hashlib.sha256(json.dumps({
            "bpe": [bpe.tokens, bpe.merges],
            "obpe": [obpe.tokens, obpe.merges],
            "report": report["representation"],
            "avg_tokens": report["avg_tokens"],
        }, sort_keys=True).encode("utf-8")).hexdigest()
        return Outcome(digest, {}, problems)


# -- synth-mix --------------------------------------------------------------

SYNTH_SCALE = 1       # times the toy corpus sizes
SYNTH_EM_ITERATIONS = 2
SYNTH_VOCAB_SIZE = 400


@dataclass
class SynthResult:
    backtranslated: list
    pivoted: list
    bt_manifests: list
    pivot_manifests: list
    new_pool: list
    old_pool: list
    export: object
    report: object


class SynthMix:
    """Back-translation and pivot synthesis, `write_bitext`, the stage-2
    mixture and its export, then scoring, with a fresh `load_vocabulary`
    (a cold encode cache) per iteration."""

    def __init__(self, seed: int, work: Path, threads: int) -> None:
        self.seed, self.work, self.threads = seed, Path(work), threads

    def setup(self) -> None:
        data = toy_corpora(self.seed, SYNTH_SCALE)
        self.eng_corpora, self.new_real = data.eng, data.new_real
        self.new_directions = list(toy.NEW_PAIR_SIZES) + list(
            toy.PIVOT_ONLY_DIRECTIONS)

        self.routes = {}
        for corpus in self.eng_corpora.values():
            for oriented in (corpus, _flipped(corpus)):
                lexicon = mtkit.train_lexicon(oriented,
                                              iterations=SYNTH_EM_ITERATIONS)
                self.routes[(oriented.src_lang, oriented.tgt_lang)] = \
                    mtkit.LexiconTranslator(lexicon)
        self.router = mtkit.RoutingTranslator(self.routes, model_id="stage1")
        self.testsets = [
            mtkit.BitextCorpus(
                name=f"test-{src}-{tgt}", src_lang=src, tgt_lang=tgt,
                pairs=tuple(mtkit.SentencePair(a, b) for a, b in
                            zip(data.test[src], data.test[tgt])))
            for src, tgt in sorted(self.routes)]

        vocab = mtkit.train_obpe(
            mtkit.LangCorpusSet.from_bitexts(
                list(self.eng_corpora.values()) + list(self.new_real.values())),
            mtkit.VocabConfig(vocab_size=SYNTH_VOCAB_SIZE),
            threads=self.threads)
        self.vocab_path = vocab.save(self.work / "vocab.json")

    def run(self, out: Path) -> SynthResult:
        vocab = mtkit.load_vocabulary(self.vocab_path)
        backtranslated, bt_manifests, old_pool = [], [], []
        for lang, corpus in self.eng_corpora.items():
            synthetic = mtkit.backtranslate(corpus, self.routes[(lang, "eng")])
            bt_manifests.append(mtkit.write_bitext(synthetic, out / "bt"))
            backtranslated.append(synthetic)
            old_pool.append(mtkit.concat_corpora(f"{corpus.name}-all",
                                                 [corpus, synthetic]))
        pivoted, pivot_manifests, new_pool = [], [], []
        for src, tgt in self.new_directions:
            synthetic = mtkit.pivot_synthesize(
                self.eng_corpora[tgt], self.routes[("eng", src)], pivot_to=src)
            pivot_manifests.append(mtkit.write_bitext(synthetic, out / "pivot"))
            pivoted.append(synthetic)
            real = self.new_real.get((src, tgt))
            new_pool.append(mtkit.concat_corpora(
                f"{src}-{tgt}-all", ([real] if real else []) + [synthetic]))
        plan = mtkit.make_balance_plan(f"{s}-{t}" for s, t in self.new_directions)
        mixture = mtkit.build_stage2_mixture(old_pool, new_pool, plan,
                                             seed=self.seed)
        export = mtkit.export_mixture(mixture, vocab, out / "mixture",
                                      threads=self.threads)
        report = mtkit.evaluate_directions(self.router, self.testsets, vocab)
        return SynthResult(backtranslated, pivoted, bt_manifests,
                           pivot_manifests, new_pool, old_pool, export, report)

    def expected_counts(self, old_pool, new_pool) -> dict[str, int]:
        """Per-direction rows by the balance rule: each new X->Y keeps all
        its N pairs and matches min(N, available) of X->eng and of eng->Y;
        unmatched old directions are capped at the median new size."""
        old_sizes = {c.tgt_lang: len(c) for c in old_pool}  # eng-X corpora
        counts: Counter = Counter()
        for corpus in new_pool:
            n, src, tgt = len(corpus), corpus.src_lang, corpus.tgt_lang
            counts[f"{src}-{tgt}"] += n
            counts[f"{src}-eng"] += min(n, old_sizes[src])
            counts[f"eng-{tgt}"] += min(n, old_sizes[tgt])
        cap = int(statistics.median(len(c) for c in new_pool))
        for lang, size in old_sizes.items():
            for label in (f"eng-{lang}", f"{lang}-eng"):
                if label not in counts:
                    counts[label] = min(cap, size)
        return dict(counts)

    def check(self, result: SynthResult) -> Outcome:
        export = result.export
        problems = []
        sidecar = json.loads(export.sidecar_path.read_text(encoding="utf-8"))
        want = self.expected_counts(result.old_pool, result.new_pool)
        if sidecar["directions"] != want:
            problems.append(f"sidecar direction counts {sidecar['directions']}"
                            f" differ from the balance plan's {want}")
        for path in (export.src_path, export.tgt_path):
            lines = path.read_bytes().count(b"\n")
            if lines != sidecar["total"] or lines != sum(want.values()):
                problems.append(f"{path.name}: {lines} rows, sidecar says "
                                f"{sidecar['total']}")
        if not all(s["synthetic"] for s in sidecar["slices"]):
            problems.append("a mixture slice built on synthetic data is not "
                            "marked synthetic")

        genuine = ([(c, self.eng_corpora[c.tgt_lang].tgt_sentences)
                    for c in result.backtranslated]
                   + [(c, self.eng_corpora[c.tgt_lang].tgt_sentences)
                      for c in result.pivoted])
        for corpus, real_side in genuine:
            if corpus.src_provenance.kind != "synthetic":
                problems.append(f"{corpus.name}: synthetic side marked "
                                f"{corpus.src_provenance.kind}")
            if corpus.tgt_sentences != real_side:
                problems.append(f"{corpus.name}: genuine side changed")
        for manifest in result.bt_manifests + result.pivot_manifests:
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            if doc["src_provenance"].get("kind") != "synthetic":
                problems.append(f"{manifest.name}: synthetic side written "
                                f"as {doc['src_provenance']}")

        digest = _sha256_files(export.src_path, export.tgt_path,
                               export.sidecar_path)
        return Outcome(digest, {"bleu_old": result.report.average()},
                       problems)


WORKLOADS = {
    "toy-pipeline": ToyPipeline,
    "vocab-scale": VocabScale,
    "synth-mix": SynthMix,
}
