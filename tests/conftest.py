"""Shared factories for corpus and vocabulary objects used across tests."""

import oracles
from mtkit.corpus import BitextCorpus, SentencePair
from mtkit.vocab import LangCorpusSet, VocabConfig, train_bpe


def make_corpus(pairs, name="toy", src="eng", tgt="zul", **kw):
    return BitextCorpus(
        name=name, src_lang=src, tgt_lang=tgt,
        pairs=tuple(SentencePair(a, b) for a, b in pairs), **kw)


def small_vocab(sentences_by_lang, budget=10, **kw):
    """BPE vocabulary over the given sentences with `budget` merge slots."""
    syms = set()
    for sents in sentences_by_lang.values():
        for s in sents:
            for w in s.split():
                syms.update(oracles.mark(w))
    cfg = VocabConfig(
        vocab_size=len(VocabConfig.special_tokens) + len(syms) + budget, **kw)
    data = LangCorpusSet({k: tuple(v) for k, v in sentences_by_lang.items()})
    return train_bpe(data, cfg)
