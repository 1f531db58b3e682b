"""Independent reference implementations used to check the library.

Everything here is deliberately naive: full recounts instead of
incremental bookkeeping, literal rule-by-rule merge application, and
brute-force n-gram enumeration. Slow, but simple enough to be read as
obviously correct.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from collections import Counter, defaultdict

import numpy as np

from mtkit.errors import EmptyCorpus
from mtkit.toy import SENTENCE_LENGTHS, WORDS
from mtkit.translator import NULL_WORD, Lexicon

MARKER = "</w>"


# -- subword training --------------------------------------------------

def mark(word: str) -> list[str]:
    return list(word[:-1]) + [word[-1] + MARKER]


def merge_word(word: list[str], left: str, right: str) -> list[str]:
    """Replace left-to-right non-overlapping (left, right) occurrences."""
    merged: list[str] = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == left and word[i + 1] == right:
            merged.append(left + right)
            i += 2
        else:
            merged.append(word[i])
            i += 1
    return merged


def count_pairs(words: list[list[str]], freqs: list[int]) -> Counter:
    counts: Counter = Counter()
    for word, f in zip(words, freqs):
        for a, b in zip(word, word[1:]):
            counts[(a, b)] += f
    return counts


def recount_merge_state(words: list[list[str]], freqs: list[int],
                        word_langs: list[int], n_langs: int):
    """What the trainer's merge state keeps about pairs, recounted from
    *words* (symbol lists, each with its frequency and language index):
    pooled counts, counts per language, the number of languages holding
    each pair, the pairs every language holds, the indices of the words
    holding each pair, and each language's pair total."""
    pooled: dict = {}
    by_lang: dict = {}
    holders: dict = {}
    totals = [0] * n_langs
    for idx, (word, f, li) in enumerate(zip(words, freqs, word_langs)):
        for pair in zip(word, word[1:]):
            pooled[pair] = pooled.get(pair, 0) + f
            by_lang.setdefault(pair, [0] * n_langs)[li] += f
            holders.setdefault(pair, set()).add(idx)
            totals[li] += f
    support = {pair: sum(c > 0 for c in counts)
               for pair, counts in by_lang.items()}
    full = {pair for pair, s in support.items() if s == n_langs}
    return pooled, by_lang, support, full, holders, totals


def word_table(sentences_by_lang: dict[str, list[str]]):
    """(words, freqs, langs) with the same deterministic ordering rules the
    library documents: languages sorted, word types sorted within each."""
    words, freqs, langs = [], [], []
    for lang in sorted(sentences_by_lang):
        bag: Counter = Counter()
        for sent in sentences_by_lang[lang]:
            bag.update(sent.split())
        for w in sorted(bag):
            words.append(mark(w))
            freqs.append(bag[w])
            langs.append(lang)
    return words, freqs, langs


def reference_bpe(sentences_by_lang: dict[str, list[str]], budget: int):
    """Quadratic BPE: full recount each step, highest pooled count wins,
    ties go to the lexicographically smaller pair, stop below count 2.

    budget is the number of new token surfaces allowed (vocab_size minus
    specials minus base alphabet). Returns (merges, final words, the
    pooled count chosen at each step).
    """
    words, freqs, _ = word_table(sentences_by_lang)
    surfaces = {sym for w in words for sym in w}
    merges: list[tuple[str, str]] = []
    chosen_counts: list[int] = []
    new_tokens = 0
    while new_tokens < budget:
        counts = count_pairs(words, freqs)
        best, best_count = None, 0
        for pair, c in counts.items():
            if c < 2:
                continue
            if c > best_count or (c == best_count and pair < best):
                best, best_count = pair, c
        if best is None:
            break
        merges.append(best)
        chosen_counts.append(best_count)
        joined = best[0] + best[1]
        if joined not in surfaces:
            surfaces.add(joined)
            new_tokens += 1
        words = [merge_word(w, *best) for w in words]
    return merges, words, chosen_counts


def power_mean_score(counts_by_lang: dict[str, int],
                     totals_by_lang: dict[str, int], p: float) -> float:
    """The overlap score, written straight from its definition: weighted
    power mean of per-language relative frequencies, weights proportional
    to per-language adjacent-pair totals. At p < 0 a pair absent from any
    language scores zero; p = 0 is the weighted geometric mean over the
    languages of nonzero weight (zero if the pair is absent from one);
    p > 0 skips the languages without the pair. Languages are taken in
    sorted order and every float sum runs left to right (`_add`)."""
    langs = sorted(totals_by_lang)
    grand = sum(totals_by_lang.values())
    counts = {l: counts_by_lang.get(l, 0) for l in langs}
    weights = {l: totals_by_lang[l] / grand for l in langs}

    def rel(l: str) -> float:
        return counts[l] / totals_by_lang[l]

    if p == 0:
        weighted = [l for l in langs if weights[l] > 0]
        if any(counts[l] == 0 for l in weighted):
            return 0.0
        return math.exp(_add(weights[l] * math.log(rel(l)) for l in weighted))
    if p < 0 and any(counts[l] == 0 for l in langs):
        return 0.0
    acc = _add(weights[l] * rel(l) ** p for l in langs if counts[l] > 0)
    return acc ** (1.0 / p) if acc > 0 else 0.0


def reference_obpe(sentences_by_lang: dict[str, list[str]], budget: int,
                   p: float):
    """OBPE by full recount: each step counts every adjacent pair per
    language, scores each pair that occurs at least twice in all with
    `power_mean_score`, and merges the highest score; a score <= 0 never
    wins and ties go to the smaller pair. *budget* counts new token
    surfaces, as in `reference_bpe`. Returns the merge list."""
    words, freqs, word_langs = word_table(sentences_by_lang)
    langs = sorted(sentences_by_lang)
    surfaces = {sym for w in words for sym in w}
    merges: list[tuple[str, str]] = []
    new_tokens = 0
    while new_tokens < budget:
        by_lang = {lang: count_pairs(
            [w for w, l in zip(words, word_langs) if l == lang],
            [f for f, l in zip(freqs, word_langs) if l == lang])
            for lang in langs}
        totals = {lang: sum(by_lang[lang].values()) for lang in langs}
        pooled = count_pairs(words, freqs)
        best, best_score = None, 0.0
        for pair in sorted(pooled):
            if pooled[pair] < 2:
                continue
            score = power_mean_score(
                {lang: by_lang[lang][pair] for lang in langs}, totals, p)
            if score > best_score:
                best, best_score = pair, score
        if best is None:
            break
        merges.append(best)
        joined = best[0] + best[1]
        if joined not in surfaces:
            surfaces.add(joined)
            new_tokens += 1
        words = [merge_word(w, *best) for w in words]
    return merges


def reference_encode(word: str, merges: list[tuple[str, str]]) -> list[str]:
    """Apply every merge rule once, in training order, to one word."""
    symbols = mark(word)
    for left, right in merges:
        symbols = merge_word(symbols, left, right)
    return symbols


def encode_token_count(sentence: str, merges) -> int:
    return sum(len(reference_encode(w, merges)) for w in sentence.split())


# -- metrics -----------------------------------------------------------

def ngrams(tokens: list[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def char_ngrams(text: str, n: int) -> list[str]:
    squeezed = "".join(text.split())
    return [squeezed[i:i + n] for i in range(len(squeezed) - n + 1)]


def clipped_matches(hyp_grams: list, ref_grams: list) -> int:
    hyp_counts, ref_counts = Counter(hyp_grams), Counter(ref_grams)
    return sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())


def reference_bleu(hyps: list[str], refs: list[str], max_n: int = 4,
                   smoothing: str = "none", eps: float = 0.1) -> float:
    """Corpus BLEU from first principles over whitespace tokens."""
    correct = [0] * max_n
    total = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        h, r = hyp.split(), ref.split()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, max_n + 1):
            hg, rg = ngrams(h, n), ngrams(r, n)
            correct[n - 1] += clipped_matches(hg, rg)
            total[n - 1] += len(hg)
    if hyp_len == 0:
        return 0.0
    log_sum, orders = 0.0, 0
    for n in range(max_n):
        if total[n] == 0:
            continue
        orders += 1
        if correct[n] == 0:
            if smoothing == "none":
                return 0.0
            log_sum += math.log(eps / total[n])
        else:
            log_sum += math.log(correct[n] / total[n])
    if orders == 0:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum / orders)


def reference_chrf(hyps: list[str], refs: list[str], char_n: int = 6,
                   word_n: int = 2, beta: float = 2.0) -> float:
    """Segment-level chrF, macro-averaged: per order F_beta, orders with an
    empty reference n-gram set skipped, char orders on whitespace-stripped
    text, word orders on whitespace tokens."""
    beta2 = beta * beta
    seg_scores = []
    for hyp, ref in zip(hyps, refs):
        fs = []
        for n in range(1, char_n + 1):
            hg, rg = char_ngrams(hyp, n), char_ngrams(ref, n)
            if not rg:
                continue
            m = clipped_matches(hg, rg)
            prec = m / len(hg) if hg else 0.0
            rec = m / len(rg)
            fs.append((1 + beta2) * prec * rec / (beta2 * prec + rec)
                      if prec + rec > 0 else 0.0)
        for n in range(1, word_n + 1):
            hg, rg = ngrams(hyp.split(), n), ngrams(ref.split(), n)
            if not rg:
                continue
            m = clipped_matches(hg, rg)
            prec = m / len(hg) if hg else 0.0
            rec = m / len(rg)
            fs.append((1 + beta2) * prec * rec / (beta2 * prec + rec)
                      if prec + rec > 0 else 0.0)
        seg_scores.append(_add(fs) / len(fs) if fs else 0.0)
    return 100.0 * _add(seg_scores) / len(seg_scores)


def random_sentences_by_lang(seed: int, max_sentences: int = 100
                             ) -> dict[str, list[str]]:
    """Small randomized multilingual corpus for trainer-vs-oracle checks."""
    rng = random.Random(seed)
    langs = rng.sample(["eng", "xho", "afr", "zul", "tsn", "nso"],
                       rng.randint(1, 3))
    alphabet = "abcdefgh"[: rng.randint(3, 8)]
    total = rng.randint(3, max_sentences)
    data: dict[str, list[str]] = {}
    for i, lang in enumerate(langs):
        quota = total // len(langs) + (1 if i < total % len(langs) else 0)
        pool = ["".join(rng.choice(alphabet)
                        for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(4, 30))]
        data[lang] = [" ".join(rng.choice(pool)
                               for _ in range(rng.randint(1, 12)))
                      for _ in range(max(quota, 1))]
    return data


# -- toy data ----------------------------------------------------------

def reference_base_sentences(n: int, rng: np.random.Generator) -> list[str]:
    """`toy._base_sentences` drawn as it first was: one `rng.choice` over
    the Zipf-ish word weights per sentence, repeats skipped."""
    low, high = SENTENCE_LENGTHS
    weights = np.arange(1, len(WORDS) + 1) ** -1.5
    weights /= weights.sum()
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        length = int(rng.integers(low, high + 1))
        idx = rng.choice(len(WORDS), size=length, p=weights)
        sentence = " ".join(WORDS[i] for i in idx)
        if sentence not in seen:
            seen.add(sentence)
            out.append(sentence)
    return out


# -- mixture export ----------------------------------------------------

def reference_export(mixture, vocab) -> tuple[bytes, bytes]:
    """The .src and .tgt bytes of an exported mixture, rendered sentence
    by sentence: each slice's pairs in index order, flipped by hand when
    the corpus stores the other orientation, each side joined from
    `vocab.segment` behind its direction tag; then the rows permuted by
    the mixture seed."""
    rows = []
    for s in mixture.slices:
        d = s.direction
        flip = (s.corpus.src_lang, s.corpus.tgt_lang) != (d.src, d.tgt)
        for i in s.indices:
            pair = s.corpus.pairs[i]
            src, tgt = (pair.tgt, pair.src) if flip else (pair.src, pair.tgt)
            rows.append((" ".join([f"<src:{d.src}>", *vocab.segment(src)]),
                         " ".join([f"<tgt:{d.tgt}>", *vocab.segment(tgt)])))
    order = np.random.default_rng(mixture.seed).permutation(len(rows))
    rows = [rows[i] for i in order]
    return ("".join(r[0] + "\n" for r in rows).encode("utf-8"),
            "".join(r[1] + "\n" for r in rows).encode("utf-8"))


# -- cipher corpora for lexicon tests ----------------------------------

def make_cipher(vocab: list[str], seed: int) -> dict[str, str]:
    """Deterministic bijective word substitution over *vocab*."""
    rng = random.Random(seed)
    shuffled = list(vocab)
    rng.shuffle(shuffled)
    return {w: f"x{t}" for w, t in zip(vocab, shuffled)}


def cipher_corpus(n_pairs: int, vocab_words: int, seed: int,
                  min_len: int = 4, max_len: int = 8):
    """(src sentences, tgt sentences, cipher map) for EM recovery tests."""
    vocab = [f"w{i:02d}" for i in range(vocab_words)]
    cipher = make_cipher(vocab, seed + 1)
    rng = random.Random(seed)
    srcs, tgts = [], []
    for _ in range(n_pairs):
        length = rng.randint(min_len, max_len)
        words = [vocab[rng.randrange(vocab_words)] for _ in range(length)]
        srcs.append(" ".join(words))
        tgts.append(" ".join(cipher[w] for w in words))
    return srcs, tgts, cipher


# -- EM for word translation tables ------------------------------------

def reference_em(corpus, iterations: int = 20):
    """IBM Model 1 EM as nested loops over dicts: the pure-Python
    `train_lexicon` that the flat-index version replaced, kept verbatim
    apart from its `sum()` calls. Those are spelled as left-to-right
    additions (`_add`), which is what `sum()` did before Python 3.12
    started compensating float sums."""
    if len(corpus) == 0:
        raise EmptyCorpus(f"{corpus.name} has no pairs for EM")
    pairs = [(p.src.split() + [NULL_WORD], p.tgt.split())
             for p in corpus.pairs]

    support: dict[str, set[str]] = defaultdict(set)
    for src_words, tgt_words in pairs:
        for e in src_words:
            support[e].update(tgt_words)
    t: dict[str, dict[str, float]] = {
        e: {f: 1.0 / len(fs) for f in sorted(fs)}
        for e, fs in sorted(support.items())
    }

    log_likelihoods: list[float] = []
    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {e: defaultdict(float) for e in t}
        log_likelihood = 0.0
        for src_words, tgt_words in pairs:
            prior = 1.0 / len(src_words)
            for f in tgt_words:
                probs = [t[e].get(f, 0.0) for e in src_words]
                total = _add(probs)
                log_likelihood += math.log(prior * total)
                for e, p in zip(src_words, probs):
                    if p:
                        counts[e][f] += p / total
        for e, row in counts.items():
            norm = _add(row.values())
            t[e] = {f: c / norm for f, c in sorted(row.items())}
            assert abs(_add(t[e].values()) - 1.0) <= 1e-9, \
                f"row {e!r} failed to renormalize"
        log_likelihoods.append(log_likelihood)

    return Lexicon(corpus.src_lang, corpus.tgt_lang, t, tuple(log_likelihoods))


def _add(values) -> float:
    return functools.reduce(operator.add, values, 0.0)

