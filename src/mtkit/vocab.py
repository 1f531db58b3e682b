"""Subword vocabularies: BPE and overlap-aware BPE (OBPE) training.

Both trainers run greedy pair merging over whitespace-pretokenized words
with the fixed end-of-word marker `</w>` appended to each word's final
character, and every vocabulary opens with the same fixed special
tokens. BPE ranks candidate pairs by pooled occurrence count. OBPE ranks
them by a weighted power mean of per-language relative pair frequencies,
so a negative exponent rewards pairs shared across languages and a
positive one rewards raw frequency; exponent 1 reduces exactly to BPE
and runs BPE's merge loop.

Pair counts are maintained incrementally: a merge rescans only the words
containing the merged pair and applies only the change in each one's
pairs, which keeps training near-linear instead of recounting the whole
corpus every step.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Sequence

from .corpus import (
    DEFAULT_LANGUAGES,
    BitextCorpus,
    is_json_int,
    is_json_number,
    read_json,
    write_artifact,
)
from .errors import EmptyCorpus, InvalidConfig, UnknownId, VocabSizeTooSmall

END_OF_WORD = "</w>"
UNK = "<unk>"

DEFAULT_HRL = frozenset({"eng", "xho", "tsn", "sna"})
DEFAULT_LRL = frozenset({"afr", "zul", "ssw", "nso", "tso"})
# pad/unk/bos/eos plus one source and one target tag per default language
DEFAULT_SPECIAL_TOKENS: tuple[str, ...] = ("<pad>", UNK, "<bos>", "<eos>", *(
    tag for lang in sorted(DEFAULT_LANGUAGES)
    for tag in (f"<src:{lang}>", f"<tgt:{lang}>")))


@dataclass(frozen=True)
class VocabConfig:
    """Training-time settings, embedded verbatim in saved vocabularies.

    vocab_size is the full token budget: special tokens and the base
    alphabet count against it, not just learned merges. The split of the
    nine languages into high- and low-resource ones (`hrl_langs`,
    `lrl_langs`) is fixed, like the special tokens; OBPE's score does
    not read it yet.
    """

    vocab_size: int = 40_000
    mean_exponent_p: float = -2.0
    hrl_langs: ClassVar[frozenset[str]] = DEFAULT_HRL
    lrl_langs: ClassVar[frozenset[str]] = DEFAULT_LRL
    special_tokens: ClassVar[tuple[str, ...]] = DEFAULT_SPECIAL_TOKENS
    end_of_word_marker: ClassVar[str] = END_OF_WORD

    def __post_init__(self) -> None:
        if not is_json_int(self.vocab_size) or self.vocab_size < 1:
            raise InvalidConfig(
                f"vocab_size must be a positive int, got {self.vocab_size!r}")
        # NaN fails the comparison; an int too large for a float fails too
        if not (is_json_number(self.mean_exponent_p)
                and abs(self.mean_exponent_p) <= sys.float_info.max):
            raise InvalidConfig(f"mean_exponent_p must be a finite number, "
                                f"got {self.mean_exponent_p!r}")

    def to_json(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "hrl_langs": sorted(self.hrl_langs),
            "lrl_langs": sorted(self.lrl_langs),
            "mean_exponent_p": self.mean_exponent_p,
            "special_tokens": list(self.special_tokens),
            "end_of_word_marker": self.end_of_word_marker,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "VocabConfig":
        """The config `to_json` wrote; a file whose language split,
        special tokens or marker differ from the fixed ones raises
        InvalidConfig."""
        try:
            fixed = cls().to_json()
            for key in ("hrl_langs", "lrl_langs", "end_of_word_marker",
                        "special_tokens"):
                if obj[key] != fixed[key]:
                    raise InvalidConfig(
                        f"{key} must be {fixed[key]!r}, got {obj[key]!r}")
            return cls(
                vocab_size=obj["vocab_size"],
                mean_exponent_p=obj["mean_exponent_p"],
            )
        except KeyError as exc:
            raise InvalidConfig(f"vocab config missing field {exc}") from exc


def _mark_word(word: str) -> list[str]:
    """A word's characters, the end-of-word marker appended to the last
    one: the symbols merging starts from."""
    return list(word[:-1]) + [word[-1] + END_OF_WORD]


def _merge_pair(symbols: list[str], left: str, right: str) -> list[str]:
    """*symbols* with each adjacent (left, right), scanned left to right
    without overlaps, joined into one symbol."""
    joined = left + right
    merged: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
            merged.append(joined)
            i += 2
        else:
            merged.append(symbols[i])
            i += 1
    return merged


@dataclass(frozen=True)
class LangCorpusSet:
    """Per-language monolingual token streams, e.g. pooled bitext sides.
    `word_counts` counts each language's words on first use and keeps
    them, so validation and both trainers read one count per set."""

    sentences: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sentences",
            {lang: tuple(sents) for lang, sents in self.sentences.items()})

    @classmethod
    def from_bitexts(cls, corpora: Iterable[BitextCorpus]) -> "LangCorpusSet":
        acc: dict[str, list[str]] = {}
        for c in corpora:
            acc.setdefault(c.src_lang, []).extend(c.src_sentences)
            acc.setdefault(c.tgt_lang, []).extend(c.tgt_sentences)
        return cls({lang: tuple(v) for lang, v in acc.items()})

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self.sentences))

    def total_sentences(self) -> int:
        return sum(len(v) for v in self.sentences.values())

    @functools.cached_property
    def word_counts(self) -> dict[str, Counter[str]]:
        """Per language, how often each whitespace-separated word occurs
        in its sentences (one split of the joined text, counted in C)."""
        return {lang: Counter(" ".join(sents).split())
                for lang, sents in self.sentences.items()}


def base_tokens(data: LangCorpusSet, cfg: VocabConfig) -> list[str]:
    """The tokens training starts from: the special tokens, then the
    sorted base symbols of *data* (each word's characters, the last one
    marked). Raises VocabSizeTooSmall when they leave *cfg*'s vocab_size
    no room for a merge."""
    words = set().union(*data.word_counts.values())
    symbols = sorted({sym for w in words for sym in _mark_word(w)})
    n_special = len(DEFAULT_SPECIAL_TOKENS)
    if cfg.vocab_size <= n_special + len(symbols):
        raise VocabSizeTooSmall(
            f"vocab_size {cfg.vocab_size} <= {n_special} special tokens + "
            f"{len(symbols)} base symbols")
    return list(DEFAULT_SPECIAL_TOKENS) + symbols


class _MergeState:
    """Word types plus incrementally maintained adjacent-pair counts.

    `pair_pooled`, `pair_bylang` (one count per language) and
    `pair_words` (the indices of the words holding the pair) cover every
    pair that occurs; `_support` is the number of languages a pair
    occurs in, and `full_support` the pairs that occur in all of them.
    The counts are made in one pass over the words, and the support
    derived from them. A merge then changes only the words holding the
    merged pair, and each of those only by the difference between its
    old and its new pairs (`_count`), so only pairs whose count changes
    are updated, and `_train` pushes only those onto its heap."""

    def __init__(self, data: LangCorpusSet) -> None:
        self.langs: tuple[str, ...] = data.languages
        n = len(self.langs)
        self.words: list[list[str]] = []
        self.freqs: list[int] = []
        self.word_lang: list[int] = []
        for li, lang in enumerate(self.langs):
            freq = data.word_counts[lang]
            for w in sorted(freq):
                self.words.append(_mark_word(w))
                self.freqs.append(freq[w])
                self.word_lang.append(li)
        bylang: dict[tuple[str, str], list[int]] = {}
        pair_words: dict[tuple[str, str], set[int]] = {}
        self.lang_totals: list[int] = [0] * n
        for idx, (word, f, li) in enumerate(
                zip(self.words, self.freqs, self.word_lang)):
            for pair in zip(word, word[1:]):
                counts = bylang.get(pair)
                if counts is None:
                    counts = bylang[pair] = [0] * n
                    pair_words[pair] = {idx}
                else:
                    pair_words[pair].add(idx)
                counts[li] += f
            self.lang_totals[li] += f * (len(word) - 1)
        self.pair_bylang = bylang
        self.pair_words = pair_words
        self.pair_pooled: dict[tuple[str, str], int] = {
            pair: sum(counts) for pair, counts in bylang.items()}
        self._support: dict[tuple[str, str], int] = {
            pair: n - counts.count(0) for pair, counts in bylang.items()}
        self.full_support: set[tuple[str, str]] = {
            pair for pair, s in self._support.items() if s == n}

    def _count(self, pair: tuple[str, str], idx: int, change: int,
               held: bool) -> None:
        """Add *change* (nonzero) occurrences of *pair* in word *idx*,
        weighted by the word's frequency; *held* says whether the word
        still holds the pair. `lang_totals` is left to the caller."""
        li = self.word_lang[idx]
        f = self.freqs[idx] * change
        counts = self.pair_bylang.get(pair)
        if counts is None:
            counts = self.pair_bylang[pair] = [0] * len(self.langs)
            self.pair_pooled[pair] = 0
            self._support[pair] = 0
            self.pair_words[pair] = set()
        was = counts[li]
        counts[li] = was + f
        if not was:
            self._support[pair] += 1
            if self._support[pair] == len(self.langs):
                self.full_support.add(pair)
        elif not counts[li]:
            if self._support[pair] == len(self.langs):
                self.full_support.discard(pair)
            self._support[pair] -= 1
        pooled = self.pair_pooled[pair] + f
        if not pooled:
            del self.pair_pooled[pair], self.pair_bylang[pair]
            del self._support[pair], self.pair_words[pair]
            return
        self.pair_pooled[pair] = pooled
        if held:
            self.pair_words[pair].add(idx)
        else:
            self.pair_words[pair].discard(idx)

    def apply_merge(self, pair: tuple[str, str]) -> set[tuple[str, str]]:
        """Merge *pair* in every word containing it. Returns the pairs
        whose count changed in some word, which holds each pair whose
        pooled count changed."""
        touched: set[tuple[str, str]] = set()
        for idx in sorted(self.pair_words.get(pair, ())):
            word = self.words[idx]
            merged = _merge_pair(word, *pair)
            self.words[idx] = merged
            change: dict[tuple[str, str], int] = {}
            for other in zip(word, word[1:]):
                change[other] = change.get(other, 0) - 1
            for other in zip(merged, merged[1:]):
                change[other] = change.get(other, 0) + 1
            held = set(zip(merged, merged[1:]))
            for other, c in change.items():
                if c:
                    touched.add(other)
                    self._count(other, idx, c, other in held)
            self.lang_totals[self.word_lang[idx]] -= (
                self.freqs[idx] * (len(word) - len(merged)))
        return touched

    def segmentations(self) -> dict[tuple[str, str], list[str]]:
        """Final (lang, marked word) -> symbols; the trainer's end state."""
        out: dict[tuple[str, str], list[str]] = {}
        for idx, word in enumerate(self.words):
            lang = self.langs[self.word_lang[idx]]
            out[(lang, "".join(word))] = list(word)
        return out


def _obpe_best(state: _MergeState, p: float
               ) -> tuple[tuple[str, str], float] | None:
    """Highest-scoring candidate pair and its score, or None when training
    must stop; ties go to the smaller pair, as in BPE. Every p but 0 takes
    one power-mean loop that skips zero counts: for p > 0 they add
    nothing, and for p < 0 the candidates are the pairs every language
    holds, so none is zero. (`_train` ranks by pooled count at p = 1.)"""
    totals = state.lang_totals
    grand = sum(totals)
    if grand == 0:
        return None
    best_pair: tuple[str, str] | None = None
    best_score = 0.0

    weights = [t / grand for t in totals]
    candidates: Iterable[tuple[str, str]] = (
        state.full_support if p < 0 else state.pair_pooled)
    for pair in candidates:
        if state.pair_pooled[pair] < 2:
            continue
        counts = state.pair_bylang[pair]
        if p == 0:
            # geometric mean; zero anywhere sends the whole score to zero
            if any(c == 0 and w > 0 for c, w in zip(counts, weights)):
                continue
            log_acc = 0.0
            for li, c in enumerate(counts):
                if weights[li] > 0:
                    log_acc += weights[li] * math.log(c / totals[li])
            score = math.exp(log_acc)
        else:
            acc = 0.0
            for li, c in enumerate(counts):
                if c:
                    acc += weights[li] * (c / totals[li]) ** p
            score = acc ** (1.0 / p) if acc > 0 else 0.0
        if score <= 0.0:
            continue
        if (score > best_score or
                (score == best_score and (best_pair is None or pair < best_pair))):
            best_score, best_pair = score, pair
    if best_pair is None:
        return None
    return best_pair, best_score


def _train(data: LangCorpusSet, cfg: VocabConfig, mode: str) -> "Vocabulary":
    if data.total_sentences() == 0:
        raise EmptyCorpus("no training sentences")
    unknown = sorted(set(data.languages) - set(DEFAULT_LANGUAGES))
    if unknown:
        raise InvalidConfig(f"languages not in registry "
                            f"{list(DEFAULT_LANGUAGES)}: {unknown}")

    tokens = base_tokens(data, cfg)
    token_set = set(tokens)
    state = _MergeState(data)

    # BPE ranks by pooled count, as does OBPE at p = 1 (score = pooled count
    # / grand total): both pop a lazy max-heap of (-count, pair), whose
    # integers keep ties exact. Other exponents rescan the scores.
    p = cfg.mean_exponent_p
    heap = None
    if mode == "bpe" or p == 1:
        heap = [(-c, pair) for pair, c in state.pair_pooled.items() if c >= 2]
        heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    while len(tokens) < cfg.vocab_size:
        pair = None
        if heap is None:
            best = _obpe_best(state, p)
            pair = best and best[0]
        while heap and pair is None:  # skip entries whose count is stale
            negc, cand = heapq.heappop(heap)
            if state.pair_pooled.get(cand, 0) == -negc:
                pair = cand
        if pair is None:
            break
        merges.append(pair)
        joined = pair[0] + pair[1]
        if joined not in token_set:
            tokens.append(joined)
            token_set.add(joined)
        touched = state.apply_merge(pair)
        if heap is not None:
            for other in touched:
                count = state.pair_pooled.get(other, 0)
                if count >= 2:
                    heapq.heappush(heap, (-count, other))

    vocab = Vocabulary(mode=mode, tokens=tuple(tokens),
                       merges=tuple(merges), config=cfg)
    object.__setattr__(vocab, "_final_segmentations", state.segmentations())
    return vocab


def train_bpe(data: LangCorpusSet, config: VocabConfig | None = None,
              threads: int = 1) -> "Vocabulary":
    """Greedy merges on pooled pair counts until the budget is spent or no
    pair occurs at least twice. Equal counts merge the lexicographically
    smaller pair first, making the merge list deterministic. *threads*
    is accepted and ignored: word counting is serial, because
    `Counter.update` holds the interpreter lock, so it changes neither
    the bytes nor the speed."""
    return _train(data, config or VocabConfig(), "bpe")


def train_obpe(data: LangCorpusSet, config: VocabConfig | None = None,
               threads: int = 1) -> "Vocabulary":
    """Greedy merges ranked by the overlap score: a weighted power mean
    (exponent config.mean_exponent_p, weights proportional to each
    language's current adjacent-pair total) of per-language relative pair
    frequencies. Negative exponents score any pair absent from some
    language as zero; training stops when every candidate scores zero.
    High- and low-resource languages are scored alike: the fixed split
    (`VocabConfig.hrl_langs`, `lrl_langs`) does not enter the score yet.
    As for `train_bpe`, a language outside `DEFAULT_LANGUAGES` raises
    InvalidConfig, and *threads* is accepted and ignored."""
    return _train(data, config or VocabConfig(), "obpe")


@dataclass(frozen=True, eq=True)
class Vocabulary:
    """Immutable token table plus ordered merge rules.

    Token ids are contiguous positions in *tokens*: special tokens first,
    then the sorted base alphabet, then merge outputs in learned order.
    """

    mode: str
    tokens: tuple[str, ...]
    merges: tuple[tuple[str, str], ...]
    config: VocabConfig

    def __post_init__(self) -> None:
        if self.mode not in ("bpe", "obpe"):
            raise InvalidConfig(f"mode {self.mode!r}")
        if len(set(self.tokens)) != len(self.tokens):
            raise InvalidConfig("duplicate token surfaces")
        if len(self.tokens) > self.config.vocab_size:
            raise InvalidConfig("token table exceeds configured vocab_size")
        if self.tokens[:len(DEFAULT_SPECIAL_TOKENS)] != DEFAULT_SPECIAL_TOKENS:
            raise InvalidConfig("special tokens must occupy the first ids")
        object.__setattr__(self, "_ids",
                           {tok: i for i, tok in enumerate(self.tokens)})
        object.__setattr__(self, "_ranks",
                           {pair: i for i, pair in enumerate(self.merges)})
        # Per word type, filled lazily: token ids (`encode`) and the
        # space-joined token surfaces (`surface_line`).
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_surfaces", {})
        object.__setattr__(self, "_final_segmentations", None)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def n_special(self) -> int:
        return len(DEFAULT_SPECIAL_TOKENS)

    @property
    def unk_id(self) -> int:
        return self._ids[UNK]

    def token_id(self, surface: str) -> int | None:
        return self._ids.get(surface)

    def _encode_word(self, word: str) -> tuple[int, ...]:
        symbols = _mark_word(word)
        ranks = self._ranks
        while len(symbols) > 1:
            best_rank = None
            best_at = -1
            for i in range(len(symbols) - 1):
                rank = ranks.get((symbols[i], symbols[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank, best_at = rank, i
            if best_rank is None:
                break
            symbols = _merge_pair(symbols, *self.merges[best_rank])
        unk = self.unk_id
        return tuple(self._ids.get(s, unk) for s in symbols)

    def encode(self, text: str) -> list[int]:
        """Token ids for *text*; unknown characters become unk. Applies
        merges in training order within each whitespace-separated word."""
        ids: list[int] = []
        cache = self._cache
        for word in text.split():
            got = cache.get(word)
            if got is None:
                got = self._encode_word(word)
                cache[word] = got
            ids.extend(got)
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        """Inverse of encode up to whitespace normalization (and exactly
        inverse when no unk is involved)."""
        parts: list[str] = []
        n = len(self.tokens)
        for i in ids:
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < n:
                raise UnknownId(f"token id {i!r} outside [0, {n})")
            surface = self.tokens[i]
            parts.append(surface + " " if i < self.n_special else surface)
        text = "".join(parts).replace(END_OF_WORD, " ")
        return " ".join(text.split())

    def segment(self, text: str) -> list[str]:
        """Token surfaces rather than ids; convenience for inspection."""
        return [self.tokens[i] for i in self.encode(text)]

    def surface_line(self, text: str) -> str:
        """`" ".join(self.segment(text))`, built from one joined surface
        string per word type, each encoded once and cached."""
        cache = self._surfaces
        words = text.split()
        try:
            return " ".join(map(cache.__getitem__, words))
        except KeyError:  # a word not seen yet: fill the cache, then join
            for w in words:
                if w not in cache:
                    cache[w] = " ".join(self.segment(w))
            return " ".join(map(cache.__getitem__, words))

    @property
    def trainer_segmentations(self) -> dict[tuple[str, str], list[str]] | None:
        """Final (lang, marked word) -> symbols state of the training run
        that produced this vocabulary; None for loaded vocabularies.
        encode() must reproduce these segmentations exactly."""
        return self._final_segmentations

    def save(self, path: str | Path) -> Path:
        payload = {
            "mode": self.mode,
            "config": self.config.to_json(),
            "tokens": list(self.tokens),
            "merges": [list(m) for m in self.merges],
        }
        return write_artifact(
            path, json.dumps(payload, ensure_ascii=False, indent=2) + "\n")


def _is_base_symbol(token: str) -> bool:
    if token.endswith(END_OF_WORD):
        return len(token) - len(END_OF_WORD) == 1
    return len(token) == 1


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Load a saved vocabulary, re-validating structural invariants:
    contiguous ids, specials first, and every token reachable as a
    special, a base symbol, or the output of a listed merge. Every
    structural error raises InvalidConfig naming *path*."""
    payload = read_json(path, InvalidConfig)
    try:
        return _vocabulary_from_json(payload)
    except KeyError as exc:
        raise InvalidConfig(f"vocabulary {path}: missing field {exc}") from exc
    except (InvalidConfig, TypeError) as exc:
        raise InvalidConfig(f"vocabulary {path}: {exc}") from exc


def _vocabulary_from_json(payload: dict) -> Vocabulary:
    cfg = VocabConfig.from_json(payload["config"])
    mode, tokens, merges = payload["mode"], payload["tokens"], payload["merges"]
    if not (isinstance(tokens, list)
            and all(isinstance(t, str) for t in tokens)):
        raise InvalidConfig("tokens must be strings")
    if not (isinstance(merges, list) and all(
            isinstance(m, list) and len(m) == 2
            and all(isinstance(s, str) for s in m) for m in merges)):
        raise InvalidConfig("merges must be [left, right] string pairs")
    tokens, merges = tuple(tokens), tuple(map(tuple, merges))

    token_set = set(tokens)
    available = {t for t in tokens if _is_base_symbol(t)}
    produced: set[str] = set()
    for left, right in merges:
        if left not in available or right not in available:
            raise InvalidConfig(
                f"merge ({left!r}, {right!r}) uses a token that is neither a "
                f"base symbol nor an earlier merge output")
        joined = left + right
        if joined not in token_set:
            raise InvalidConfig(f"merge output {joined!r} missing from tokens")
        produced.add(joined)
        available.add(joined)
    specials = set(DEFAULT_SPECIAL_TOKENS)
    for tok in tokens:
        if tok in specials or tok in produced or _is_base_symbol(tok):
            continue
        raise InvalidConfig(f"unreachable token {tok!r}")
    return Vocabulary(mode=mode, tokens=tokens, merges=merges, config=cfg)
