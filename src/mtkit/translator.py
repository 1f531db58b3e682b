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

    The corpus is flattened once into one entry per (target token, source
    position), each holding the id of its co-occurring (e, f) pair and of
    its target token. An iteration is then four `np.bincount` passes:
    per-token totals of t over the source positions, expected pair
    counts, per-source-word norms, and the new table.

    The result is bit-for-bit the one of the nested loops over dicts
    (`reference_em` in the tests): pair ids follow first occurrence in
    the corpus walked target token by target token, source position by
    source position, so every bincount adds its terms in the loops'
    order; the log-likelihood is a `math.log` per token summed left to
    right (`np.log` and pairwise `np.sum` both differ in the last bits);
    a pair whose t is exactly 0 going into an iteration leaves the table,
    as the loops' `if p:` drops it.
    """
    if len(corpus) == 0:
        raise EmptyCorpus(f"{corpus.name} has no pairs for EM")
    src = [p.src.split() + [NULL_WORD] for p in corpus.pairs]
    tgt = [p.tgt.split() for p in corpus.pairs]
    e_vocab = sorted({e for words in src for e in words})
    f_vocab = sorted({f for words in tgt for f in words})
    keys, t, kept, log_likelihoods = _flat_em(src, tgt, e_vocab, f_vocab,
                                              iterations)
    table: dict[str, dict[str, float]] = {e: {} for e in e_vocab}
    in_order = np.argsort(keys)  # (e, f) order, as the vocabularies sort
    in_order = in_order[kept[in_order]]
    for key, prob in zip(keys[in_order].tolist(), t[in_order].tolist()):
        e, f = divmod(key, len(f_vocab))
        table[e_vocab[e]][f_vocab[f]] = prob
    return Lexicon(corpus.src_lang, corpus.tgt_lang, table,
                   tuple(log_likelihoods))


def _flat_em(src: list[list[str]], tgt: list[list[str]],
             e_vocab: list[str], f_vocab: list[str], iterations: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """`train_lexicon`'s EM over the flat index. Returns the co-occurring
    pairs' keys ``e_id * len(f_vocab) + f_id`` (ids index the
    vocabularies) in first-occurrence order, their final t, whether each
    is still in the table, and the log-likelihood of each iteration.
    A function of its own so that the corpus-sized arrays are freed
    before `train_lexicon` builds the table, which lowers peak memory."""
    e_index = {e: i for i, e in enumerate(e_vocab)}
    f_index = {f: i for i, f in enumerate(f_vocab)}
    src_ids = np.array([e_index[e] for words in src for e in words])
    tgt_ids = np.array([f_index[f] for words in tgt for f in words])
    src_len = np.array([len(words) for words in src])
    tgt_len = np.array([len(words) for words in tgt])

    # entries run target token by target token, each over its sentence's
    # source words in order; entry j's source word is src_ids[src_word[j]]
    width = np.repeat(src_len, tgt_len)  # source words per target token
    entry_start = np.cumsum(width) - width
    src_start = np.repeat(np.cumsum(src_len) - src_len, tgt_len)
    src_word = np.arange(width.sum()) - np.repeat(entry_start - src_start,
                                                  width)
    del entry_start, src_start
    entry_key = src_ids[src_word] * len(f_vocab) + np.repeat(tgt_ids, width)
    del src_word, src_ids, tgt_ids
    # one sort groups the entries by key; a group's pair id is the rank of
    # its first entry among all groups' first entries
    order = np.argsort(entry_key)
    sorted_key = entry_key[order]
    del entry_key
    new_group = np.empty(len(order), bool)
    new_group[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    first = np.minimum.reduceat(order, starts)  # each group's first entry
    is_first = np.zeros(len(order), bool)
    is_first[first] = True
    group_id = (np.cumsum(is_first) - 1)[first]
    del is_first, first
    keys = np.empty_like(sorted_key, shape=len(starts))
    keys[group_id] = sorted_key[starts]
    del sorted_key, starts
    pair = np.empty_like(order)
    pair[order] = group_id[np.cumsum(new_group) - 1]
    del order, new_group, group_id
    tok = np.repeat(np.arange(len(width)), width)
    pair_e = keys // len(f_vocab)

    prior = 1.0 / width
    t = 1.0 / np.bincount(pair_e)[pair_e]
    kept = t != 0  # the table's entries: pairs whose t went in nonzero
    log_likelihoods = []
    for _ in range(iterations):
        p = t[pair]
        total = np.bincount(tok, p)
        log_likelihoods.append(
            left_to_right_sum(map(math.log, (prior * total).tolist())))
        p /= total[tok]  # each entry's posterior
        counts = np.bincount(pair, p)
        kept = t != 0
        t = counts / np.bincount(pair_e, counts)[pair_e]
    return keys, t, kept, log_likelihoods


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
