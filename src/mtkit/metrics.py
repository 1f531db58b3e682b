"""Corpus evaluation: BLEU, spBLEU, and chrF, plus model selection.

The settings are fixed, so a score means one thing. BLEU is the classic
corpus statistic: geometric mean of modified n-gram precisions of
orders 1-4 (hypothesis orders with no n-grams skipped) times the
brevity penalty exp(min(0, 1 - r/c)), without smoothing: any zero
precision zeroes the score. spBLEU is the same computation over subword
token ids from a vocabulary instead of whitespace tokens. chrF is
chrF++ (character orders 1-6, word orders 1-2, beta 2), segment-level
and macro-averaged: per order (character orders computed with
whitespace removed, plus word orders), an F_beta of n-gram precision
and recall; orders whose reference has no n-grams are skipped.

A segment whose hypothesis is the same string as its reference (a
copy) is settled by that one comparison, before any tokenizing: each of
its n-grams matches, so BLEU and spBLEU add its number of n-grams,
max(len - n + 1, 0), to both the matches and the n-grams of order n,
from its token count alone; chrF gives it 1.0, the F_beta of every
order it has, or 0.0 when its reference has no non-whitespace character
and so no order at all. Only the other segments are tokenized and go
through the one corpus-level n-gram matcher (`_clipped_matches`): each
of their (segment, n-gram) pairs gets an exact dense id from np.unique,
built order by order, and each segment's clipped matches are the
bincount of min(hyp count, ref count) over its n-grams. A segment that
differs from its reference only as a string ("a  b" against "a b", two
unknown characters that encode to the same unk id) goes through the
matcher, which is exact for it too. These integers equal what
per-segment Counters give, and the float steps (BLEU's logs, each chrF
order's F_beta, the segment and corpus means summed left to right by
`corpus.left_to_right_sum`) run in plain Python in per-segment order, so
every score equals, bit for bit, the one plain per-segment Counter loops
give (the oracles in tests/oracles.py).

Identical hypothesis and reference streams score exactly 100.0; fully
disjoint ones score exactly 0.0. Model selection scores each candidate
by BLEU on a dev set stored in the candidates' direction.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .corpus import BitextCorpus, left_to_right_sum
from .errors import EmptyInput, LengthMismatch
from .translator import TranslatorModel, check_direction
from .vocab import Vocabulary


# The fixed settings of the module docstring.
BLEU_MAX_N = 4
CHRF_CHAR_N = 6
CHRF_WORD_N = 2
CHRF_BETA = 2.0


def _check_streams(hyps: Sequence[str], refs: Sequence[str]) -> None:
    if len(hyps) != len(refs):
        raise LengthMismatch(len(hyps), len(refs))
    if not hyps:
        raise EmptyInput("no segments to score")


def _clipped_matches(hyp_ids: np.ndarray, hyp_lens: np.ndarray,
                     ref_ids: np.ndarray, ref_lens: np.ndarray,
                     max_n: int) -> np.ndarray:
    """Clipped n-gram matches of every segment for orders 1..max_n.

    hyp_ids and ref_ids hold the int64 token ids of all segments end to
    end, in one id space (only equal tokens need equal ids); hyp_lens and
    ref_lens give each segment's token count. Row n-1 of the (max_n,
    segments) int64 result holds, per segment, the sum over its n-grams
    g of min(hyp count of g, ref count of g).

    Order 1 densifies (segment, token), order n densifies (id of the
    (n-1)-gram, next token), both with np.unique. Ids are exact for any
    vocabulary size (no hashing, and never more than two numbers packed
    into one key), and an n-gram that would run past its segment's end
    is never formed."""
    segments = len(hyp_lens)
    matches = np.zeros((max_n, segments), dtype=np.int64)
    lens = np.concatenate([hyp_lens, ref_lens])
    seg = np.repeat(np.tile(np.arange(segments), 2), lens)
    # tokens from each position to its segment's end, itself included
    room = np.repeat(np.cumsum(lens), lens) - np.arange(len(seg))
    distinct, tokens = np.unique(np.concatenate([hyp_ids, ref_ids]),
                                 return_inverse=True)
    width = len(distinct)
    starts, ids = np.arange(len(seg)), seg
    for n in range(1, max_n + 1):
        fits = room[starts] >= n
        starts = starts[fits]
        if not len(starts):
            break
        keys, ids = np.unique(ids[fits] * width + tokens[starts + n - 1],
                              return_inverse=True)
        hyp_side = starts < len(hyp_ids)
        clipped = np.minimum(
            np.bincount(ids[hyp_side], minlength=len(keys)),
            np.bincount(ids[~hyp_side], minlength=len(keys)))
        gram_seg = np.empty(len(keys), dtype=np.int64)
        gram_seg[ids] = seg[starts]
        # float weights are exact here: counts stay far below 2**53
        matches[n - 1] = np.bincount(gram_seg, weights=clipped,
                                     minlength=segments)
    return matches


_Streams = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _ints(values) -> np.ndarray:
    return np.fromiter(values, dtype=np.int64)


def _copies(hyps: Sequence[str], refs: Sequence[str]
            ) -> tuple[list[bool], list[str], list[str], list[str]]:
    """(copy, copies, hyps, refs): per segment, whether its hypothesis is
    the same string as its reference; the hypotheses of those copies; and
    the hypotheses and references of the other segments. Each list keeps
    segment order. One string comparison a segment, in C."""
    copy = list(map(operator.eq, hyps, refs))
    differ = list(map(operator.not_, copy))
    return (copy, list(itertools.compress(hyps, copy)),
            list(itertools.compress(hyps, differ)),
            list(itertools.compress(refs, differ)))


def _word_ids(hyps: Sequence[str], refs: Sequence[str]) -> _Streams:
    """Whitespace words of both streams as ids in one shared space:
    (hyp ids, hyp lengths, ref ids, ref lengths). Equal words get equal
    ids, and different words different ones; the ids are not dense."""
    index: dict[str, int] = {}
    fresh = itertools.count()
    out = []
    for texts in (hyps, refs):
        words = " ".join(texts).split()
        out.append(np.fromiter(map(index.setdefault, words, fresh),
                               dtype=np.int64, count=len(words)))
        out.append(_ints(map(len, map(str.split, texts))))
    return tuple(out)


def _code_points(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code points of *texts* end to end, and each text's length."""
    buf = "".join(texts).encode("utf-32-le", "surrogatepass")
    return (np.frombuffer(buf, dtype="<u4").astype(np.int64),
            _ints(map(len, texts)))


_BLEU_ORDERS = np.arange(1, BLEU_MAX_N + 1)[:, None]


def _ngram_counts(lens: np.ndarray) -> np.ndarray:
    """Number of n-grams of each order 1..BLEU_MAX_N over segments of
    *lens* tokens."""
    return np.maximum(lens - _BLEU_ORDERS + 1, 0).sum(axis=1)


def _corpus_bleu(copy_lens: np.ndarray, hyp_ids: np.ndarray,
                 hyp_lens: np.ndarray, ref_ids: np.ndarray,
                 ref_lens: np.ndarray) -> float:
    """BLEU over copies of *copy_lens* tokens, each of whose n-grams
    matches, and the other segments' id streams."""
    copied = _ngram_counts(copy_lens)
    correct = copied
    if len(hyp_lens):
        correct = correct + _clipped_matches(
            hyp_ids, hyp_lens, ref_ids, ref_lens, BLEU_MAX_N).sum(axis=1)
    correct = correct.tolist()
    total = (copied + _ngram_counts(hyp_lens)).tolist()
    copy_len = int(copy_lens.sum())
    hyp_len = copy_len + int(hyp_lens.sum())
    ref_len = copy_len + int(ref_lens.sum())
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    orders = 0
    for n in range(BLEU_MAX_N):
        if total[n] == 0:
            continue  # no hypothesis n-grams of this order exist at all
        if correct[n] == 0:
            return 0.0
        orders += 1
        log_sum += math.log(correct[n] / total[n])
    # hyp_len > 0, so order 1 has n-grams: orders >= 1
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / orders)


def _flat_ids(encoded: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Token id lists end to end, and each list's length."""
    lens = _ints(map(len, encoded))
    return (np.fromiter(itertools.chain.from_iterable(encoded),
                        dtype=np.int64, count=int(lens.sum())), lens)


def bleu(hyps: Sequence[str], refs: Sequence[str]) -> float:
    """Corpus BLEU over whitespace tokens."""
    _check_streams(hyps, refs)
    _, copies, hyps, refs = _copies(hyps, refs)
    return _corpus_bleu(_ints(map(len, map(str.split, copies))),
                        *_word_ids(hyps, refs))


def spbleu(hyps: Sequence[str], refs: Sequence[str],
           vocab: Vocabulary) -> float:
    """BLEU over subword token ids; rewards the segmentation the model
    actually trains on rather than whitespace luck."""
    _check_streams(hyps, refs)
    _, copies, hyps, refs = _copies(hyps, refs)
    encode = vocab.encode
    return _corpus_bleu(_ints(map(len, map(encode, copies))),
                        *_flat_ids(list(map(encode, hyps))),
                        *_flat_ids(list(map(encode, refs))))


def _order_fscores(streams: _Streams, max_n: int,
                   beta2: float) -> tuple[np.ndarray, np.ndarray]:
    """(F, valid), both (max_n, segments): F_beta of each order 1..max_n
    per segment, and whether the segment's reference has n-grams of that
    order. Elementwise in float64, with the operations and order of
    `(1 + beta2) * p * r / (beta2 * p + r)` on Python floats: p is 0 where
    the hypothesis has no n-grams, F is 0 where p + r is 0. F is 0 where
    not valid too: no reference n-grams, no matches."""
    matched = _clipped_matches(*streams, max_n).astype(np.float64)
    n = np.arange(1, max_n + 1)[:, None]
    hyp_total = np.maximum(streams[1] - n + 1, 0)
    ref_total = streams[3] - n + 1
    valid = ref_total > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(hyp_total > 0, matched / hyp_total, 0.0)
        r = np.where(valid, matched / ref_total, 0.0)
        f = np.where(p + r == 0.0, 0.0,
                     (1 + beta2) * p * r / (beta2 * p + r))
    return f, valid


def _segment_chrf(hyps: list[str], refs: list[str]) -> np.ndarray:
    """Each segment's chrF++: the mean F_beta over its valid char orders
    1-6 and word orders 1-2, summed left to right in that order, or 0
    without any."""
    beta2 = CHRF_BETA * CHRF_BETA
    chars = (*_code_points(["".join(h.split()) for h in hyps]),
             *_code_points(["".join(r.split()) for r in refs]))
    char_f, char_valid = _order_fscores(chars, CHRF_CHAR_N, beta2)
    word_f, word_valid = _order_fscores(_word_ids(hyps, refs), CHRF_WORD_N,
                                        beta2)
    total = np.zeros(len(hyps))
    for row in (*char_f, *word_f):  # an invalid order adds 0.0: no change
        total += row
    orders = char_valid.sum(axis=0) + word_valid.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(orders > 0, total / orders, 0.0)


def chrf(hyps: Sequence[str], refs: Sequence[str]) -> float:
    """Macro-averaged segment chrF++ (`_segment_chrf`); the corpus score
    is the mean over segments. A copy's valid orders each have F = 1.0,
    so it scores 1.0, or 0.0 when its reference has no non-whitespace
    character and so no valid order."""
    _check_streams(hyps, refs)
    copy, copies, hyps, refs = _copies(hyps, refs)
    is_copy = np.array(copy)
    scores = np.empty(len(is_copy))
    scores[is_copy] = np.fromiter(map(bool, map(str.strip, copies)),
                                  dtype=np.float64, count=len(copies))
    if hyps:
        scores[~is_copy] = _segment_chrf(hyps, refs)
    return 100.0 * left_to_right_sum(scores.tolist()) / len(scores)


@dataclass(frozen=True)
class EvalRow:
    direction: str
    pair_count: int
    bleu: float
    spbleu: float
    chrf: float

    def to_json(self) -> dict:
        return asdict(self)


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

    def average(self, directions: Sequence[str] | None = None) -> float:
        """Mean BLEU over the rows of *directions* (all rows by default)."""
        rows = [r for r in self.rows
                if directions is None or r.direction in directions]
        if not rows:
            raise EmptyInput("no rows to average")
        return left_to_right_sum(r.bleu for r in rows) / len(rows)


def evaluate_directions(model: TranslatorModel,
                        testsets: Sequence[BitextCorpus],
                        vocab: Vocabulary) -> EvalReport:
    """Translate each testset's source side and score against its target
    side; one report row per corpus, in the given order."""
    rows = []
    for corpus in testsets:
        check_direction(model, corpus.src_lang, corpus.tgt_lang)
        hyps = model.translate_batch(corpus.src_sentences,
                                     corpus.src_lang, corpus.tgt_lang)
        refs = corpus.tgt_sentences
        rows.append(EvalRow(
            direction=corpus.direction.label,
            pair_count=len(corpus),
            bleu=bleu(hyps, refs),
            spbleu=spbleu(hyps, refs, vocab),
            chrf=chrf(hyps, refs),
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
