"""Vocabulary diagnostics: how a tokenizer treats each language.

Two reports, both computed by encoding text and counting tokens (no
language tags or other specials involved):

* representation change: percent change in a language's total token
  count when switching from vocabulary A to vocabulary B, i.e.
  100 * (T_B - T_A) / T_A per language;
* tokens per pair: for a corpus with an English side, total tokens on
  both sides divided by the number of sentence pairs. Longer-segmented
  text costs proportionally more sequence positions, so this is the
  throughput-relevant number.

Reports serialize to JSON and render as aligned plain-text tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

from .corpus import BitextCorpus
from .errors import EmptyCorpus, EmptyLanguage
from .vocab import LangCorpusSet, Vocabulary


def _total_tokens(vocab: Vocabulary, word_counts: Counter[str]) -> int:
    """Tokens in text with these *word_counts*, counted per word type: a
    word encodes to the same tokens wherever it occurs."""
    return sum(n * len(vocab.encode(w)) for w, n in word_counts.items())


@dataclass(frozen=True)
class RepresentationRow:
    language: str
    tokens_a: int
    tokens_b: int
    change_pct: float


@dataclass(frozen=True)
class RepresentationReport:
    label_a: str
    label_b: str
    rows: tuple[RepresentationRow, ...]

    def to_json(self) -> dict:
        return {
            "vocab_a": self.label_a,
            "vocab_b": self.label_b,
            "rows": [asdict(r) for r in self.rows],
        }

    def render_table(self) -> str:
        lines = [f"{'language':<10} {'tokens_' + self.label_a:>12} "
                 f"{'tokens_' + self.label_b:>12} {'change_%':>10}"]
        for r in self.rows:
            lines.append(f"{r.language:<10} {r.tokens_a:>12} "
                         f"{r.tokens_b:>12} {r.change_pct:>10.2f}")
        return "\n".join(lines)


def representation_change(data: LangCorpusSet, vocab_a: Vocabulary,
                          vocab_b: Vocabulary) -> RepresentationReport:
    """Per-language token totals under both vocabularies plus the percent
    change relative to vocabulary A. Identical vocabularies give exactly
    0.0 for every language."""
    rows = []
    for lang in data.languages:
        tokens_a = _total_tokens(vocab_a, data.word_counts[lang])
        tokens_b = _total_tokens(vocab_b, data.word_counts[lang])
        if tokens_a == 0 or tokens_b == 0:
            raise EmptyLanguage(f"{lang} encodes to zero tokens")
        change = 0.0 if tokens_a == tokens_b else \
            100.0 * (tokens_b - tokens_a) / tokens_a
        rows.append(RepresentationRow(lang, tokens_a, tokens_b, change))
    return RepresentationReport(vocab_a.mode, vocab_b.mode, tuple(rows))


@dataclass(frozen=True)
class SpeedRow:
    pair: str
    other_lang: str
    pair_count: int
    tokens_other: int
    tokens_eng: int
    avg_tokens: float

    def to_json(self) -> dict:
        return {
            "pair": self.pair,
            "pair_count": self.pair_count,
            "tokens_other": self.tokens_other,
            "tokens_eng": self.tokens_eng,
            "avg_tokens": self.avg_tokens,
        }


def avg_tokens_per_pair(corpus: BitextCorpus, vocab: Vocabulary) -> SpeedRow:
    """(tokens on the non-English side + tokens on the English side) / N
    for a corpus with an English side."""
    if len(corpus) == 0:
        raise EmptyCorpus(f"{corpus.name} is empty")
    if "eng" not in corpus.languages():
        raise ValueError(f"{corpus.name} has no English side")
    other = next(iter(corpus.languages() - {"eng"}))
    counts = LangCorpusSet.from_bitexts([corpus]).word_counts
    tokens_eng = _total_tokens(vocab, counts["eng"])
    tokens_other = _total_tokens(vocab, counts[other])
    return SpeedRow(
        pair=corpus.direction.label,
        other_lang=other,
        pair_count=len(corpus),
        tokens_other=tokens_other,
        tokens_eng=tokens_eng,
        avg_tokens=(tokens_other + tokens_eng) / len(corpus),
    )


@dataclass(frozen=True)
class SpeedReport:
    label: str
    rows: tuple[SpeedRow, ...]

    def to_json(self) -> dict:
        return {"vocab": self.label, "rows": [r.to_json() for r in self.rows]}

    def render_table(self) -> str:
        lines = [f"{'pair':<12} {'pairs':>8} {'tokens_l':>10} "
                 f"{'tokens_eng':>10} {'avg_tokens':>11}"]
        for r in self.rows:
            lines.append(f"{r.pair:<12} {r.pair_count:>8} {r.tokens_other:>10} "
                         f"{r.tokens_eng:>10} {r.avg_tokens:>11.2f}")
        return "\n".join(lines)


def speed_report(corpora: Sequence[BitextCorpus],
                 vocab: Vocabulary) -> SpeedReport:
    return SpeedReport(vocab.mode,
                       tuple(avg_tokens_per_pair(c, vocab) for c in corpora))


def vocabulary_report(corpora: Sequence[BitextCorpus], vocab_a: Vocabulary,
                      vocab_b: Vocabulary) -> dict:
    """Combined JSON document comparing two vocabularies on the same
    corpora: per-language representation change plus per-pair average
    tokens under each vocabulary."""
    data = LangCorpusSet.from_bitexts(corpora)
    rep = representation_change(data, vocab_a, vocab_b)
    eng_corpora = [c for c in corpora if "eng" in c.languages()]
    speed_a = speed_report(eng_corpora, vocab_a)
    speed_b = speed_report(eng_corpora, vocab_b)
    return {
        "representation": rep.to_json(),
        "avg_tokens": {"a": speed_a.to_json(), "b": speed_b.to_json()},
        "tables": {
            "representation": rep.render_table(),
            "avg_tokens_a": speed_a.render_table(),
            "avg_tokens_b": speed_b.render_table(),
        },
    }
