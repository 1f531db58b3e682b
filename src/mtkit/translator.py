"""Word-level stand-in translators.

The heavy neural models the full recipe would train are out of scope;
what the surrounding machinery needs is anything satisfying the
TranslatorModel protocol: declared direction support plus deterministic
batch translation. Provided implementations:

* Lexicon / LexiconTranslator: an IBM-Model-1-style translation table
  trained with EM (uniform alignment prior, a null source word), decoded
  word-by-word via argmax with copy-through for unseen words;
* IdentityTranslator: copies input through, in any direction;
* ExternalProcessTranslator: wraps any command that maps stdin sentences
  to stdout sentences one per line, so real models can be plugged in;
* RoutingTranslator: dispatches per direction over other models.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
from itertools import chain, islice
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .corpus import (
    BitextCorpus,
    DirectionSpec,
    is_json_number,
    left_to_right_sum,
    read_json,
    split_lines,
    write_artifact,
)
from .errors import (
    BadLexicon,
    CorpusTooLarge,
    EmptyCorpus,
    ExternalProcessError,
    UnsupportedDirection,
)

NULL_WORD = "<null>"

# Seconds one `ExternalProcessTranslator` batch may run before its process
# is killed and the batch fails, so a hung command cannot hang a run: a
# start-up allowance (the command loads its model) plus an allowance per
# sentence, so the limit grows with the batch. Both are assumptions, not
# measurements: 5 s a sentence is several times what a slow CPU model
# takes.
EXTERNAL_START_TIMEOUT_S = 600.0
EXTERNAL_SENTENCE_TIMEOUT_S = 5.0

# The most EM iterations a config or `translator train-lexicon --iters`
# may ask for. Runs use 5-20; the bound is far above any useful count and
# keeps a typo such as 2**70 from starting a run that cannot finish.
MAX_EM_ITERATIONS = 1000


@runtime_checkable
class TranslatorModel(Protocol):
    """Anything that can translate sentence batches for known directions."""

    model_id: str

    def supported_directions(self) -> frozenset[tuple[str, str]] | None:
        """Directions this model accepts, or None for "any direction"."""
        ...

    def translate_batch(self, sentences: Sequence[str], src: str,
                        tgt: str) -> list[str]:
        ...


def check_direction(model: TranslatorModel, src: str, tgt: str) -> None:
    supported = model.supported_directions()
    if supported is not None and (src, tgt) not in supported:
        raise UnsupportedDirection(src, tgt)


class IdentityTranslator:
    model_id = "identity"

    def supported_directions(self) -> None:
        return None

    def translate_batch(self, sentences: Sequence[str], src: str,
                        tgt: str) -> list[str]:
        return list(sentences)


class _BestTranslations(dict):
    """word -> argmax_f t(f|word) over *table*, ties to the smaller f; a
    word without a row (or with an empty one) maps to itself. Each word
    is worked out on its first lookup and kept, so a hit is one dict
    lookup in C."""

    def __init__(self, table: dict[str, dict[str, float]]) -> None:
        super().__init__()
        self.table = table

    def __missing__(self, word: str) -> str:
        row = self.table.get(word)
        if row:
            top = max(row.values())
            best = min(f for f, p in row.items() if p == top)
        else:
            best = word
        self[word] = best
        return best


class Lexicon:
    """t(f|e): conditional probabilities of target words given source words.

    Rows (fixed source word, all target words) sum to 1 within 1e-9; a
    table with a row that does not raises BadLexicon. The table is
    sparse: only co-occurring pairs get mass. It is not modified after
    construction: decoding caches each row's argmax.
    """

    def __init__(self, src_lang: str, tgt_lang: str,
                 table: dict[str, dict[str, float]],
                 log_likelihoods: tuple[float, ...] = ()) -> None:
        self.src_lang = src_lang
        self.tgt_lang = tgt_lang
        self.table = table
        self.log_likelihoods = tuple(log_likelihoods)
        self._best = _BestTranslations(table)
        self._check_rows()

    def _check_rows(self) -> None:
        """Raise BadLexicon for a row whose left-to-right sum misses 1 by
        more than 1e-9 (the same sum on every interpreter)."""
        for e, row in self.table.items():
            total = left_to_right_sum(row.values())
            # `not <=`, not `>`: a NaN sum (from a NaN entry, or inf with
            # -inf) compares False either way and must fail
            if not abs(total - 1.0) <= 1e-9:
                raise BadLexicon(
                    f"row {e!r} sums to {total!r}, expected 1 within 1e-9")

    def best_translation(self, word: str) -> str:
        """argmax_f t(f|word); ties pick the lexicographically smaller f;
        words without a table row copy through unchanged. Each word's
        answer is worked out on its first lookup and cached."""
        return self._best[word]

    def save(self, path: str | Path) -> Path:
        """Write the lexicon as one line of JSON: header keys sorted, each
        row in its order in `table`, the order `_check_rows` sums it in
        (`train_lexicon` sorts them). Each float is written as its `repr`,
        so `load` reads back this very table, bit for bit:
        `mtkit eval report --model <run>/stage2/lexicons/<d>.json`
        reproduces that run's row for <d>. A NaN or infinite
        log-likelihood raises ValueError before anything is written.
        `python -m json.tool` prints a file readably."""
        return write_artifact(path, json.dumps({
            "log_likelihoods": list(self.log_likelihoods),
            "null_word": NULL_WORD,
            "src_lang": self.src_lang,
            "table": self.table,
            "tgt_lang": self.tgt_lang,
        }, ensure_ascii=False, allow_nan=False) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Lexicon":
        """Read a lexicon written by `save`; raises BadLexicon for a file
        that is not one. Rows are kept as written: a row whose sum misses
        1 by more than 1e-9 is refused (`_check_rows`), not renormalised."""
        payload = read_json(path, BadLexicon)
        for key in ("src_lang", "tgt_lang"):
            if not isinstance(payload.get(key), str):
                raise BadLexicon(f"lexicon {path}: {key} must be a string")
        if payload["src_lang"] == payload["tgt_lang"]:
            raise BadLexicon(f"lexicon {path}: src_lang equals tgt_lang")
        try:
            DirectionSpec(payload["src_lang"], payload["tgt_lang"])
        except ValueError as exc:
            raise BadLexicon(f"lexicon {path}: {exc}") from exc
        table = payload.get("table")
        if not isinstance(table, dict):
            raise BadLexicon(f"lexicon {path}: table must be an object")
        for e, row in table.items():
            if not isinstance(row, dict) or not row:
                raise BadLexicon(
                    f"lexicon {path}: row {e!r} must be a non-empty object")
            if not all(is_json_number(p) and 0 <= p <= 1 for p in row.values()):
                raise BadLexicon(
                    f"lexicon {path}: row {e!r} holds a value that is not "
                    f"a probability")
        log_likelihoods = payload.get("log_likelihoods", [])
        if not (isinstance(log_likelihoods, list)
                and all(map(is_json_number, log_likelihoods))):
            raise BadLexicon(
                f"lexicon {path}: log_likelihoods must be a list of numbers")
        try:
            return cls(payload["src_lang"], payload["tgt_lang"], table,
                       tuple(log_likelihoods))
        except BadLexicon as exc:
            raise BadLexicon(f"lexicon {path}: {exc}") from exc


def train_lexicon(corpus: BitextCorpus, iterations: int = 20) -> Lexicon:
    """EM for a source-to-target word translation table (IBM Model 1).

    Alignment prior is uniform over source positions plus a null word, so
    the E-step posterior for each target token is t(f|e) normalized over
    the candidate source tokens. Initialization is uniform over each
    source word's co-occurring target words. The per-iteration corpus
    log-likelihood (stored on the result) never decreases.

    Each sentence is split once per side, and its words are mapped to
    vocabulary ids in one pass (`_flat_em`), which then flattens the
    corpus into one entry per (target token, source position) and runs
    each iteration as four `np.bincount` passes. The table is built from
    the co-occurring pairs in (e, f) order, the order the vocabularies
    sort: one `np.searchsorted` gives each source word's run of pairs,
    and each row is one `dict` over its run.

    The result is bit-for-bit the one of the nested loops over dicts
    (`reference_em` in the tests), rows and entries in the same order.
    Raises CorpusTooLarge when the corpus is too large for `_flat_em`'s
    packed int64 sort keys (`_check_key_space`).
    """
    if len(corpus) == 0:
        raise EmptyCorpus(f"{corpus.name} has no pairs for EM")
    src = [p.src.split() for p in corpus.pairs]
    tgt = [p.tgt.split() for p in corpus.pairs]
    e_vocab = sorted({NULL_WORD}.union(*src))
    f_vocab = sorted(set().union(*tgt))
    keys, t, log_likelihoods = _flat_em(corpus.name, src, tgt, e_vocab,
                                        f_vocab, iterations)
    n_f = len(f_vocab)
    row_sizes = np.diff(np.searchsorted(keys, np.arange(len(e_vocab) + 1)
                                        * n_f)).tolist()
    entries = zip(map(f_vocab.__getitem__, (keys % n_f).tolist()),
                  t.tolist())
    table = {e: dict(islice(entries, size))
             for e, size in zip(e_vocab, row_sizes)}
    return Lexicon(corpus.src_lang, corpus.tgt_lang, table,
                   tuple(log_likelihoods))


def _check_key_space(name: str, n_e: int, n_f: int, n_entries: int) -> None:
    """Raise CorpusTooLarge, naming corpus *name*, unless every packed
    sort key ``(e_id * n_f + f_id) * n_entries + entry`` of `_flat_em`
    fits in an int64, i.e. unless ``n_e * n_f * n_entries < 2**63``."""
    if n_e * n_f * n_entries >= 2 ** 63:
        raise CorpusTooLarge(
            f"{name}: {n_e} source words x {n_f} target words x "
            f"{n_entries} (target token, source word) entries reach 2**63, "
            f"beyond EM's int64 sort keys; split the corpus")


def _flat_em(name: str, src: list[list[str]], tgt: list[list[str]],
             e_vocab: list[str], f_vocab: list[str], iterations: int
             ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """`train_lexicon`'s EM over the flat index. Returns the keys
    ``e_id * len(f_vocab) + f_id`` (ids index the vocabularies) of the
    pairs still in the table, ascending, their final t, and the
    log-likelihood of each iteration. A function of its own so that the
    corpus-sized arrays are freed before `train_lexicon` builds the
    table, which lowers peak memory.

    Entries run target token by target token, each over its sentence's
    source words in order, <null> last. Pair ids follow first occurrence
    in that walk, so every bincount adds its terms in the loops' order.
    They come from one value sort of ``key * n_entries + entry``: equal
    keys end up together with their first entry first, and the P
    distinct pairs are ranked by those first entries. The log-likelihood
    is a `math.log` per token summed left to right (`np.log` and pairwise
    `np.sum` both differ in the last bits). In the first iteration t is
    uniform over each source word's target words, so every target token
    of a sentence has the same total: one `math.log` per sentence,
    repeated per token and summed by `np.cumsum`, which adds in order as
    `left_to_right_sum` does. A pair whose t is exactly 0 going into an
    iteration leaves the table, as the loops' `if p:` drops it."""
    e_index = {e: i for i, e in enumerate(e_vocab)}
    f_index = {f: i for i, f in enumerate(f_vocab)}
    src_len = np.fromiter(map(len, src), np.int64, len(src))
    tgt_len = np.fromiter(map(len, tgt), np.int64, len(tgt))
    src_ids = np.fromiter(map(e_index.__getitem__, chain.from_iterable(src)),
                          np.int64, int(src_len.sum()))
    src_ids = np.insert(src_ids, np.cumsum(src_len), e_index[NULL_WORD])
    src_len += 1
    tgt_ids = np.fromiter(map(f_index.__getitem__, chain.from_iterable(tgt)),
                          np.int64, int(tgt_len.sum()))

    # entry j's source word is src_ids[src_word[j]]
    width = np.repeat(src_len, tgt_len)  # source words per target token
    n = int(width.sum())
    _check_key_space(name, len(e_vocab), len(f_vocab), n)
    entry_start = np.cumsum(width) - width
    src_start = np.repeat(np.cumsum(src_len) - src_len, tgt_len)
    src_word = np.arange(n) - np.repeat(entry_start - src_start, width)
    del entry_start, src_start
    packed = src_ids[src_word] * len(f_vocab) + np.repeat(tgt_ids, width)
    del src_word, src_ids, tgt_ids
    packed *= n
    packed += np.arange(n)
    packed.sort()
    sorted_key, entry = np.divmod(packed, n)
    del packed
    new_group = np.empty(n, bool)
    new_group[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    keys = sorted_key[starts]  # ascending
    del sorted_key
    by_first = np.argsort(entry[starts])  # pair id -> group
    group_pair = np.empty_like(by_first)  # group -> pair id
    group_pair[by_first] = np.arange(len(by_first))
    pair = np.empty_like(entry)
    pair[entry] = group_pair[np.cumsum(new_group) - 1]
    del entry, new_group, starts
    tok = np.repeat(np.arange(len(width)), width)
    pair_e = keys[by_first] // len(f_vocab)

    prior = 1.0 / width
    t = 1.0 / np.bincount(pair_e)[pair_e]
    kept = t != 0  # the table's entries: pairs whose t went in nonzero
    log_likelihoods = []
    for iteration in range(iterations):
        p = t[pair]
        total = np.bincount(tok, p)
        if iteration == 0:
            # every side holds a word (SentencePair), so each sentence's
            # first target token is its own
            first = np.cumsum(tgt_len) - tgt_len
            logs = np.fromiter(
                map(math.log, (prior[first] * total[first]).tolist()),
                float, len(first))
            log_likelihoods.append(
                float(np.cumsum(np.repeat(logs, tgt_len))[-1]))
        else:
            log_likelihoods.append(
                left_to_right_sum(map(math.log, (prior * total).tolist())))
        p /= total[tok]  # each entry's posterior
        counts = np.bincount(pair, p)
        kept = t != 0
        t = counts / np.bincount(pair_e, counts)[pair_e]
    t, kept = t[group_pair], kept[group_pair]  # in key order
    return keys[kept], t[kept], log_likelihoods


class LexiconTranslator:
    def __init__(self, lexicon: Lexicon) -> None:
        self.lexicon = lexicon
        self.model_id = "lexicon:" + DirectionSpec(
            lexicon.src_lang, lexicon.tgt_lang).label

    def supported_directions(self) -> frozenset[tuple[str, str]]:
        return frozenset({(self.lexicon.src_lang, self.lexicon.tgt_lang)})

    def translate_batch(self, sentences: Sequence[str], src: str,
                        tgt: str) -> list[str]:
        check_direction(self, src, tgt)
        # `best_translation` in C: dict.__getitem__ still calls
        # `_BestTranslations.__missing__` for a word not looked up yet
        best = self.lexicon._best.__getitem__
        return [" ".join(map(best, s.split())) for s in sentences]


class ExternalProcessTranslator:
    """One subprocess invocation per batch: sentences in on stdin, one per
    line, translations out on stdout, same count, same order. A batch
    of n sentences that runs longer than `EXTERNAL_START_TIMEOUT_S` +
    n * `EXTERNAL_SENTENCE_TIMEOUT_S` seconds is killed and raises
    ExternalProcessError."""

    def __init__(self, command: str) -> None:
        self.command = command
        try:
            self.argv = shlex.split(command)
        except ValueError as exc:
            raise ExternalProcessError(
                f"cannot parse translator command {command!r}: {exc}") from exc
        if not self.argv:
            raise ExternalProcessError("empty translator command")
        self.model_id = f"exec:{command}"

    def supported_directions(self) -> None:
        return None

    def translate_batch(self, sentences: Sequence[str], src: str,
                        tgt: str) -> list[str]:
        if not sentences:
            return []
        payload = "".join(s + "\n" for s in sentences).encode("utf-8")
        limit = (EXTERNAL_START_TIMEOUT_S
                 + EXTERNAL_SENTENCE_TIMEOUT_S * len(sentences))
        try:
            proc = subprocess.run(self.argv, input=payload,
                                  capture_output=True, check=False,
                                  timeout=limit)
        except OSError as exc:
            raise ExternalProcessError(f"cannot run {self.command!r}: {exc}")
        except subprocess.TimeoutExpired as exc:
            raise ExternalProcessError(
                f"{self.command!r} ran longer than the {limit:g} s limit "
                f"for a batch of {len(sentences)} sentences; killed") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace")
            raise ExternalProcessError(
                f"{self.command!r} exited {proc.returncode}: "
                f"{stderr.strip()[:200]}")
        lines = split_lines(proc.stdout, f"output of {self.command!r}",
                            ExternalProcessError)
        if len(lines) != len(sentences):
            raise ExternalProcessError(
                f"{self.command!r} returned {len(lines)} lines for "
                f"{len(sentences)} inputs")
        return lines


class RoutingTranslator:
    """Per-direction dispatch over other TranslatorModels."""

    def __init__(self, routes: dict[tuple[str, str], TranslatorModel],
                 model_id: str = "router") -> None:
        self.routes = dict(routes)
        self.model_id = model_id

    def supported_directions(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.routes)

    def translate_batch(self, sentences: Sequence[str], src: str,
                        tgt: str) -> list[str]:
        model = self.routes.get((src, tgt))
        if model is None:
            raise UnsupportedDirection(src, tgt)
        return model.translate_batch(sentences, src, tgt)


def load_translator(spec: str) -> TranslatorModel:
    """Model spec: a lexicon JSON path, or ``exec:<command>``."""
    if spec.startswith("exec:"):
        return ExternalProcessTranslator(spec[len("exec:"):])
    return LexiconTranslator(Lexicon.load(spec))
