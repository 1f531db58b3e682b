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

Scoring is batched. The kernels take several systems, each a (hyps,
refs) pair, split together by the copy rule (`_split`), and send the
other segments of all of them through one matcher call per stream (BLEU
words, spBLEU token ids, chrF characters, chrF words). Matches never
cross a segment, so each system reads its integer sums and segment
scores from its own range and runs its float steps alone, as above. A
whole report (`evaluate_directions`) or every candidate of a model
selection (`score_candidates`) is so scored in one matcher pass per
stream, with the scores that separate `bleu`, `spbleu` and `chrf` calls
give: those are the one-system case of the same kernels.

Identical hypothesis and reference streams score exactly 100.0; fully
disjoint ones score exactly 0.0. Model selection scores each candidate
by BLEU on a dev set stored in its direction.
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
# One system to score: its hypotheses and their references.
_System = tuple[Sequence[str], Sequence[str]]


def _ints(values) -> np.ndarray:
    return np.fromiter(values, dtype=np.int64)


def _range_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Integer sums of *values* along the last axis over each range
    bounds[k]:bounds[k + 1], exact (int64 prefix sums)."""
    prefix = np.zeros((*values.shape[:-1], values.shape[-1] + 1),
                      dtype=np.int64)
    np.cumsum(values, axis=-1, out=prefix[..., 1:])
    return prefix[..., bounds[1:]] - prefix[..., bounds[:-1]]


@dataclass(frozen=True)
class _Split:
    """The segments of several systems end to end, in system order, split
    by the copy rule: `copy` marks each segment whose hypothesis is the
    same string as its reference, `copies` holds those hypotheses, and
    `hyps` and `refs` the other segments; each keeps segment order.
    System k owns the segments bounds[k]:bounds[k + 1] of each order:
    all segments (`bounds`), copies (`copy_bounds`), the others
    (`other_bounds`)."""
    copy: np.ndarray
    copies: list[str]
    hyps: list[str]
    refs: list[str]
    bounds: np.ndarray
    copy_bounds: np.ndarray
    other_bounds: np.ndarray


def _split(systems: Sequence[_System]) -> _Split:
    """Check each system's streams and split their segments by the copy
    rule: one string comparison a segment, in C."""
    for hyps, refs in systems:
        _check_streams(hyps, refs)
    hyps = list(itertools.chain.from_iterable(h for h, _ in systems))
    refs = list(itertools.chain.from_iterable(r for _, r in systems))
    copy = list(map(operator.eq, hyps, refs))
    differ = list(map(operator.not_, copy))
    bounds = np.cumsum([0, *(len(h) for h, _ in systems)])
    copy_bounds = np.cumsum([0, *copy], dtype=np.int64)[bounds]
    return _Split(np.array(copy, dtype=bool),
                  list(itertools.compress(hyps, copy)),
                  list(itertools.compress(hyps, differ)),
                  list(itertools.compress(refs, differ)),
                  bounds, copy_bounds, bounds - copy_bounds)


def _word_counts(texts: list[str]) -> np.ndarray:
    """Each text's number of whitespace words."""
    return _ints(map(len, map(str.split, texts)))


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
        out.append(_word_counts(texts))
    return tuple(out)


def _code_points(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code points of *texts* end to end, and each text's length."""
    buf = "".join(texts).encode("utf-32-le", "surrogatepass")
    return (np.frombuffer(buf, dtype="<u4").astype(np.int64),
            _ints(map(len, texts)))


_BLEU_ORDERS = np.arange(1, BLEU_MAX_N + 1)[:, None]


def _ngram_counts(lens: np.ndarray) -> np.ndarray:
    """(BLEU_MAX_N, segments): the number of n-grams of each order
    1..BLEU_MAX_N in each segment of *lens* tokens."""
    return np.maximum(lens - _BLEU_ORDERS + 1, 0)


def _bleu(correct: list[int], total: list[int], hyp_len: int,
          ref_len: int) -> float:
    """BLEU from one system's matches and n-grams per order and its
    hypothesis and reference lengths."""
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


def _corpus_bleu(split: _Split, copy_lens: np.ndarray, hyp_ids: np.ndarray,
                 hyp_lens: np.ndarray, ref_ids: np.ndarray,
                 ref_lens: np.ndarray) -> list[float]:
    """BLEU of each system of *split*: its copies, of *copy_lens* tokens,
    each of whose n-grams matches, and its other segments, whose id
    streams go through one `_clipped_matches` call for all systems."""
    copied = _range_sums(_ngram_counts(copy_lens), split.copy_bounds)
    correct = copied
    if len(hyp_lens):
        correct = correct + _range_sums(
            _clipped_matches(hyp_ids, hyp_lens, ref_ids, ref_lens,
                             BLEU_MAX_N), split.other_bounds)
    total = copied + _range_sums(_ngram_counts(hyp_lens), split.other_bounds)
    copy_len = _range_sums(copy_lens, split.copy_bounds)
    hyp_len = copy_len + _range_sums(hyp_lens, split.other_bounds)
    ref_len = copy_len + _range_sums(ref_lens, split.other_bounds)
    return list(map(_bleu, correct.T.tolist(), total.T.tolist(),
                    hyp_len.tolist(), ref_len.tolist()))


def _flat_ids(encoded: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Token id lists end to end, and each list's length."""
    lens = _ints(map(len, encoded))
    return (np.fromiter(itertools.chain.from_iterable(encoded),
                        dtype=np.int64, count=int(lens.sum())), lens)


def _bleu_scores(split: _Split) -> list[float]:
    """Corpus BLEU over whitespace tokens of each system of *split*."""
    return _corpus_bleu(split, _word_counts(split.copies),
                        *_word_ids(split.hyps, split.refs))


def _spbleu_scores(split: _Split, vocab: Vocabulary) -> list[float]:
    """BLEU over subword token ids of each system of *split*."""
    encode = vocab.encode
    return _corpus_bleu(split, _ints(map(len, map(encode, split.copies))),
                        *_flat_ids(list(map(encode, split.hyps))),
                        *_flat_ids(list(map(encode, split.refs))))


def bleu(hyps: Sequence[str], refs: Sequence[str]) -> float:
    """Corpus BLEU over whitespace tokens."""
    return _bleu_scores(_split([(hyps, refs)]))[0]


def spbleu(hyps: Sequence[str], refs: Sequence[str],
           vocab: Vocabulary) -> float:
    """BLEU over subword token ids; rewards the segmentation the model
    actually trains on rather than whitespace luck."""
    return _spbleu_scores(_split([(hyps, refs)]), vocab)[0]


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
    without any. Every step is elementwise, so segments of several
    systems go through together."""
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


def _chrf_scores(split: _Split) -> list[float]:
    """Macro-averaged segment chrF++ (`_segment_chrf`) of each system of
    *split*: the mean over its segments, summed left to right. A copy's
    valid orders each have F = 1.0, so it scores 1.0, or 0.0 when its
    reference has no non-whitespace character and so no valid order."""
    scores = np.empty(len(split.copy))
    scores[split.copy] = np.fromiter(map(bool, map(str.strip, split.copies)),
                                     dtype=np.float64,
                                     count=len(split.copies))
    if split.hyps:
        scores[~split.copy] = _segment_chrf(split.hyps, split.refs)
    scores = scores.tolist()
    return [100.0 * left_to_right_sum(scores[lo:hi]) / (hi - lo)
            for lo, hi in itertools.pairwise(split.bounds.tolist())]


def chrf(hyps: Sequence[str], refs: Sequence[str]) -> float:
    """Macro-averaged segment chrF++; the corpus score is the mean over
    segments (`_chrf_scores`)."""
    return _chrf_scores(_split([(hyps, refs)]))[0]


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


def _translated(model: TranslatorModel, corpus: BitextCorpus) -> _System:
    """*model*'s translation of *corpus*'s source side, with the target
    side it is scored against; raises on a stream pair no metric takes."""
    hyps = model.translate_batch(corpus.src_sentences, corpus.src_lang,
                                 corpus.tgt_lang)
    refs = corpus.tgt_sentences
    _check_streams(hyps, refs)
    return hyps, refs


def evaluate_directions(model: TranslatorModel,
                        testsets: Sequence[BitextCorpus],
                        vocab: Vocabulary) -> EvalReport:
    """Translate each testset's source side, then score every testset
    against its target side in one call per metric; one report row per
    corpus, in the given order. A testset the model does not support, or
    whose translation has another number of lines, raises before the
    next testset is translated."""
    systems = []
    for corpus in testsets:
        check_direction(model, corpus.src_lang, corpus.tgt_lang)
        systems.append(_translated(model, corpus))
    split = _split(systems)
    rows = tuple(
        EvalRow(direction=corpus.direction.label, pair_count=len(corpus),
                bleu=b, spbleu=sp, chrf=c)
        for corpus, b, sp, c in zip(testsets, _bleu_scores(split),
                                    _spbleu_scores(split, vocab),
                                    _chrf_scores(split)))
    return EvalReport(getattr(model, "model_id", "model"), rows)


def score_candidates(candidates: Sequence[tuple[TranslatorModel,
                                                BitextCorpus]]
                     ) -> list[float]:
    """Dev BLEU of each (model, devset) candidate, in candidate order,
    scored in one BLEU pass: each model translates its devset's source
    side once."""
    if not candidates:
        raise EmptyInput("no candidate models")
    return _bleu_scores(_split([_translated(model, devset)
                                for model, devset in candidates]))


def select_best(candidates: Sequence[tuple[TranslatorModel, str]],
                devset: BitextCorpus) -> str:
    """Name of the candidate with the highest BLEU on *devset*
    (`score_candidates`); ties keep the earliest listed."""
    scores = score_candidates([(model, devset) for model, _ in candidates])
    return candidates[scores.index(max(scores))][1]
