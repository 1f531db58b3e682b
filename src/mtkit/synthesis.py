"""Synthetic bitext: back-translation and pivot-based synthesis.

Both operations keep the genuine side byte-identical to its input and
mark the generated side as synthetic with the producing model's id, so
provenance stays auditable through any number of mixing steps. Only the
generated side is checked (NFC, non-empty, single-line, as any
`SentencePair` side): the genuine side is a checked side already and is
kept as the same string.
"""

from __future__ import annotations

from dataclasses import replace

from .corpus import (
    BitextCorpus,
    DirectionSpec,
    Provenance,
    SentencePair,
    checked_line,
    orient,
)
from .errors import BadPivot, BadSyntheticSide, LanguageMismatch
from .translator import TranslatorModel, check_direction

DEFAULT_BATCH_SIZE = 64


def _batched_translate(model: TranslatorModel, sentences: list[str],
                       src: str, tgt: str, batch_size: int) -> list[str]:
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    out: list[str] = []
    for i in range(0, len(sentences), batch_size):
        out.extend(model.translate_batch(sentences[i:i + batch_size], src, tgt))
    return out


def _synthetic_pairs(generated: list[str], genuine: list[str],
                     model_id: str) -> tuple[SentencePair, ...]:
    """Pairs (generated_i, genuine_i); only the generated side is checked.
    A bad one raises BadSyntheticSide naming the model and the pair."""
    pairs = []
    for number, (src, tgt) in enumerate(zip(generated, genuine), 1):
        try:
            src = checked_line(src, "src side")
        except ValueError as exc:
            raise BadSyntheticSide(
                f"model {model_id!r}, pair {number}: {exc}") from exc
        pairs.append(SentencePair.trusted(src, tgt))
    return tuple(pairs)


def backtranslate(corpus: BitextCorpus, model: TranslatorModel,
                  batch_size: int = DEFAULT_BATCH_SIZE) -> BitextCorpus:
    """Rebuild the source side by translating the target side backwards.

    For an input (A, B) corpus and a B->A model, output pair i is
    (model(B_i), B_i): a synthetic A side, the untouched real B side.
    Only the generated side is checked, as a `SentencePair` side; the
    B side is kept as the same string.
    """
    back = corpus.direction.reversed()
    check_direction(model, *back)
    tgt_side = corpus.tgt_sentences
    translated = _batched_translate(model, tgt_side, *back, batch_size)
    return replace(corpus, name=f"{corpus.name}-bt",
                   pairs=_synthetic_pairs(translated, tgt_side,
                                          model.model_id),
                   src_provenance=Provenance("synthetic", model.model_id))


def pivot_synthesize(corpus: BitextCorpus, model: TranslatorModel,
                     pivot_to: str,
                     batch_size: int = DEFAULT_BATCH_SIZE) -> BitextCorpus:
    """Turn an English-L corpus into an X-L corpus by translating the
    English side to X. Output pair i is (model(eng_i), L_i); the L side
    stays the same string and real-if-it-was-real. Only the generated
    side is checked, as a `SentencePair` side."""
    langs = corpus.languages()
    if "eng" not in langs:
        raise LanguageMismatch(f"{corpus.name} has no English side to pivot")
    other = next(iter(langs - {"eng"}))
    if pivot_to in langs:
        raise BadPivot(f"pivot target {pivot_to} already in {corpus.name}")
    check_direction(model, "eng", pivot_to)
    kept = orient(corpus, "eng", other)
    translated = _batched_translate(model, kept.src_sentences, "eng",
                                    pivot_to, batch_size)
    return BitextCorpus(
        name=f"{DirectionSpec(pivot_to, other).label}-pivot",
        src_lang=pivot_to,
        tgt_lang=other,
        pairs=_synthetic_pairs(translated, kept.tgt_sentences,
                               model.model_id),
        src_provenance=Provenance("synthetic", model.model_id),
        tgt_provenance=kept.tgt_provenance,
    )
