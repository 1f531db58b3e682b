"""Corpus evaluation: BLEU, spBLEU, and chrF, plus model selection.

BLEU is the classic corpus statistic: geometric mean of modified n-gram
precisions (orders 1..max_ngram, hypothesis orders with no n-grams skipped)
times the brevity penalty exp(min(0, 1 - r/c)). No smoothing by default:
any zero precision zeroes the score; an epsilon floor is available
behind the config. spBLEU is the same computation over subword token
ids from a vocabulary instead of whitespace tokens. chrF is
segment-level and macro-averaged: per order (character orders computed
with whitespace removed, plus word orders), an F_beta of n-gram
precision and recall; orders whose reference has no n-grams are
skipped. Defaults char_n=6, word_n=2, beta=2 make it chrF2++.

Identical hypothesis and reference streams score exactly 100.0; fully
disjoint ones score exactly 0.0. Model selection scores each candidate
by BLEU on a dev set stored in the candidates' direction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .corpus import BitextCorpus
from .errors import EmptyInput, LengthMismatch
from .translator import TranslatorModel, check_direction
from .vocab import Vocabulary


@dataclass(frozen=True)
class BleuConfig:
    max_ngram: int = 4
    smoothing: str = "none"  # "none" | "floor"
    floor_eps: float = 0.1

    def __post_init__(self) -> None:
        if self.max_ngram < 1:
            raise ValueError(f"max_ngram must be >= 1, got {self.max_ngram}")
        if self.smoothing not in ("none", "floor"):
            raise ValueError(f"smoothing {self.smoothing!r}")
        if self.smoothing == "floor" and not 0 < self.floor_eps < 1:
            raise ValueError(f"floor_eps {self.floor_eps!r}")


@dataclass(frozen=True)
class ChrfConfig:
    char_n: int = 6
    word_n: int = 2  # 0 turns off word n-grams (plain chrF2)
    beta: float = 2.0

    def __post_init__(self) -> None:
        if self.char_n < 1:
            raise ValueError(f"char_n must be >= 1, got {self.char_n}")
        if self.word_n < 0:
            raise ValueError(f"word_n must be >= 0, got {self.word_n}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


def _check_streams(hyps: Sequence[str], refs: Sequence[str]) -> None:
    if len(hyps) != len(refs):
        raise LengthMismatch(len(hyps), len(refs))
    if not hyps:
        raise EmptyInput("no segments to score")


def _corpus_bleu(hyp_tokens: list[list], ref_tokens: list[list],
                 cfg: BleuConfig) -> float:
    correct = [0] * cfg.max_ngram
    total = [0] * cfg.max_ngram
    hyp_len = ref_len = 0
    for h, r in zip(hyp_tokens, ref_tokens):
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, cfg.max_ngram + 1):
            ref_counts = Counter(tuple(r[i:i + n])
                                 for i in range(len(r) - n + 1))
            hyp_counts = Counter(tuple(h[i:i + n])
                                 for i in range(len(h) - n + 1))
            correct[n - 1] += sum(min(c, ref_counts[g])
                                  for g, c in hyp_counts.items())
            total[n - 1] += max(len(h) - n + 1, 0)
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    orders = 0
    for n in range(cfg.max_ngram):
        if total[n] == 0:
            continue  # no hypothesis n-grams of this order exist at all
        orders += 1
        if correct[n] == 0:
            if cfg.smoothing == "none":
                return 0.0
            log_sum += math.log(cfg.floor_eps / total[n])
        else:
            log_sum += math.log(correct[n] / total[n])
    if orders == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / orders)


def bleu(hyps: Sequence[str], refs: Sequence[str],
         config: BleuConfig | None = None) -> float:
    """Corpus BLEU over whitespace tokens."""
    cfg = config or BleuConfig()
    _check_streams(hyps, refs)
    return _corpus_bleu([h.split() for h in hyps],
                        [r.split() for r in refs], cfg)


def spbleu(hyps: Sequence[str], refs: Sequence[str], vocab: Vocabulary,
           config: BleuConfig | None = None) -> float:
    """BLEU over subword token ids; rewards the segmentation the model
    actually trains on rather than whitespace luck."""
    cfg = config or BleuConfig()
    _check_streams(hyps, refs)
    return _corpus_bleu([vocab.encode(h) for h in hyps],
                        [vocab.encode(r) for r in refs], cfg)


def _fbeta(matched: int, hyp_total: int, ref_total: int, beta2: float) -> float:
    precision = matched / hyp_total if hyp_total else 0.0
    recall = matched / ref_total if ref_total else 0.0
    if precision + recall == 0.0:
        return 0.0
    return (1 + beta2) * precision * recall / (beta2 * precision + recall)


def _segment_chrf(hyp: str, ref: str, cfg: ChrfConfig) -> float:
    beta2 = cfg.beta * cfg.beta
    hyp_chars = "".join(hyp.split())
    ref_chars = "".join(ref.split())
    hyp_words = hyp.split()
    ref_words = ref.split()
    scores: list[float] = []
    for n in range(1, cfg.char_n + 1):
        if len(ref_chars) - n + 1 <= 0:
            continue
        ref_counts = Counter(ref_chars[i:i + n]
                             for i in range(len(ref_chars) - n + 1))
        hyp_counts = Counter(hyp_chars[i:i + n]
                             for i in range(len(hyp_chars) - n + 1))
        matched = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        scores.append(_fbeta(matched, max(len(hyp_chars) - n + 1, 0),
                             len(ref_chars) - n + 1, beta2))
    for n in range(1, cfg.word_n + 1):
        if len(ref_words) - n + 1 <= 0:
            continue
        ref_counts = Counter(tuple(ref_words[i:i + n])
                             for i in range(len(ref_words) - n + 1))
        hyp_counts = Counter(tuple(hyp_words[i:i + n])
                             for i in range(len(hyp_words) - n + 1))
        matched = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        scores.append(_fbeta(matched, max(len(hyp_words) - n + 1, 0),
                             len(ref_words) - n + 1, beta2))
    return sum(scores) / len(scores) if scores else 0.0


def chrf(hyps: Sequence[str], refs: Sequence[str],
         config: ChrfConfig | None = None) -> float:
    """Macro-averaged segment chrF (chrF2++ with default config)."""
    cfg = config or ChrfConfig()
    _check_streams(hyps, refs)
    return 100.0 * sum(_segment_chrf(h, r, cfg)
                       for h, r in zip(hyps, refs)) / len(hyps)


@dataclass(frozen=True)
class EvalRow:
    direction: str
    pair_count: int
    bleu: float
    spbleu: float
    chrf: float

    def to_json(self) -> dict:
        return {"direction": self.direction, "pair_count": self.pair_count,
                "bleu": self.bleu, "spbleu": self.spbleu, "chrf": self.chrf}


@dataclass(frozen=True)
class EvalReport:
    model_id: str
    rows: tuple[EvalRow, ...]

    def to_json(self) -> dict:
        return {"model": self.model_id, "rows": [r.to_json() for r in self.rows]}

    def render_table(self) -> str:
        lines = [f"{'direction':<12} {'pairs':>6} {'BLEU':>8} "
                 f"{'spBLEU':>8} {'chrF':>8}"]
        for r in self.rows:
            lines.append(f"{r.direction:<12} {r.pair_count:>6} {r.bleu:>8.2f} "
                         f"{r.spbleu:>8.2f} {r.chrf:>8.2f}")
        return "\n".join(lines)

    def average(self, directions: Sequence[str] | None = None,
                metric: str = "bleu") -> float:
        rows = [r for r in self.rows
                if directions is None or r.direction in directions]
        if not rows:
            raise EmptyInput("no rows to average")
        return sum(getattr(r, metric) for r in rows) / len(rows)


def evaluate_directions(model: TranslatorModel,
                        testsets: Sequence[BitextCorpus],
                        vocab: Vocabulary,
                        bleu_config: BleuConfig | None = None,
                        chrf_config: ChrfConfig | None = None) -> EvalReport:
    """Translate each testset's source side and score against its target
    side; one report row per corpus, in the given order."""
    rows = []
    for corpus in testsets:
        check_direction(model, corpus.src_lang, corpus.tgt_lang)
        hyps = model.translate_batch(corpus.src_sentences,
                                     corpus.src_lang, corpus.tgt_lang)
        refs = corpus.tgt_sentences
        rows.append(EvalRow(
            direction=f"{corpus.src_lang}-{corpus.tgt_lang}",
            pair_count=len(corpus),
            bleu=bleu(hyps, refs, bleu_config),
            spbleu=spbleu(hyps, refs, vocab, bleu_config),
            chrf=chrf(hyps, refs, chrf_config),
        ))
    return EvalReport(getattr(model, "model_id", "model"), tuple(rows))


def score_candidates(candidates: Sequence[tuple[TranslatorModel, str]],
                     devset: BitextCorpus) -> list[float]:
    """Dev BLEU of each candidate, in candidate order: each model
    translates the devset's source side once."""
    if not candidates:
        raise EmptyInput("no candidate models")
    sources, refs = devset.src_sentences, devset.tgt_sentences
    return [bleu(model.translate_batch(sources, devset.src_lang,
                                       devset.tgt_lang), refs)
            for model, _ in candidates]


def select_best(candidates: Sequence[tuple[TranslatorModel, str]],
                devset: BitextCorpus) -> str:
    """Name of the candidate with the highest dev BLEU
    (`score_candidates`); ties keep the earliest listed."""
    scores = score_candidates(candidates, devset)
    return candidates[scores.index(max(scores))][1]
