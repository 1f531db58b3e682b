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


def _avg_tokens_table(rows: list[dict]) -> str:
    lines = [f"{'pair':<12} {'pairs':>8} {'tokens_l':>10} "
             f"{'tokens_eng':>10} {'avg_tokens':>11}"]
    for r in rows:
        lines.append(f"{r['pair']:<12} {r['pair_count']:>8} "
                     f"{r['tokens_other']:>10} {r['tokens_eng']:>10} "
                     f"{r['avg_tokens']:>11.2f}")
    return "\n".join(lines)


def vocabulary_report(corpora: Sequence[BitextCorpus], vocab_a: Vocabulary,
                      vocab_b: Vocabulary) -> dict:
    """Combined JSON document comparing two vocabularies on the same
    corpora: per-language representation change plus, for each corpus
    with an English side, average tokens per pair under each vocabulary
    (each corpus's words counted once for both)."""
    rep = representation_change(LangCorpusSet.from_bitexts(corpora),
                                vocab_a, vocab_b)
    rows: dict[str, list[dict]] = {"a": [], "b": []}
    for corpus in corpora:
        if "eng" not in corpus.languages():
            continue
        if len(corpus) == 0:
            raise EmptyCorpus(f"{corpus.name} is empty")
        counts = LangCorpusSet.from_bitexts([corpus]).word_counts
        (other,) = corpus.languages() - {"eng"}
        for key, vocab in (("a", vocab_a), ("b", vocab_b)):
            tokens_other = _total_tokens(vocab, counts[other])
            tokens_eng = _total_tokens(vocab, counts["eng"])
            rows[key].append({
                "pair": corpus.direction.label,
                "pair_count": len(corpus),
                "tokens_other": tokens_other,
                "tokens_eng": tokens_eng,
                "avg_tokens": (tokens_other + tokens_eng) / len(corpus),
            })
    return {
        "representation": rep.to_json(),
        "avg_tokens": {"a": {"vocab": vocab_a.mode, "rows": rows["a"]},
                       "b": {"vocab": vocab_b.mode, "rows": rows["b"]}},
        "tables": {
            "representation": rep.render_table(),
            "avg_tokens_a": _avg_tokens_table(rows["a"]),
            "avg_tokens_b": _avg_tokens_table(rows["b"]),
        },
    }
