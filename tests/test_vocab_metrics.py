import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_corpus, small_vocab
from mtkit.errors import EmptyCorpus, EmptyLanguage
from mtkit.vocab import LangCorpusSet
from mtkit.vocab_metrics import representation_change, vocabulary_report

DATA = {
    "eng": ["the cat sat", "the dog sat", "a cat and a dog"],
    "zul": ["aba aba kha", "kha aba lu", "lulu kha aba"],
    "afr": ["die kat sit", "die hond sit"],
}


def data_of(d):
    return LangCorpusSet({k: tuple(v) for k, v in d.items()})


# -- representation change (per-language token totals) ------------------

def test_identity_change_is_exactly_zero():
    vocab = small_vocab(DATA, budget=6)
    report = representation_change(data_of(DATA), vocab, vocab)
    assert [r.language for r in report.rows] == sorted(DATA)
    for row in report.rows:
        assert row.tokens_a == row.tokens_b
        assert row.change_pct == 0.0


def test_change_matches_encode_and_count_oracle():
    vocab_a = small_vocab(DATA, budget=2)
    vocab_b = small_vocab(DATA, budget=12)
    report = representation_change(data_of(DATA), vocab_a, vocab_b)
    for row in report.rows:
        t_a = sum(oracles.encode_token_count(s, vocab_a.merges)
                  for s in DATA[row.language])
        t_b = sum(oracles.encode_token_count(s, vocab_b.merges)
                  for s in DATA[row.language])
        assert row.tokens_a == t_a
        assert row.tokens_b == t_b
        expected = 100.0 * (t_b - t_a) / t_a
        assert abs(row.change_pct - expected) <= 1e-9 * max(1.0, abs(expected))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 30), st.integers(1, 30))
def test_token_totals_equal_oracle_on_random_corpora(seed, budget_a,
                                                     budget_b):
    data = oracles.random_sentences_by_lang(seed, max_sentences=40)
    vocab_a = small_vocab(data, budget=budget_a)
    vocab_b = small_vocab(data, budget=budget_b)
    # words seen again and characters neither vocabulary knows
    extra = {lang: [f"{s} {s.split()[0]}Q é漢" for s in sents]
             for lang, sents in data.items()}
    for texts in (data, extra):
        report = representation_change(data_of(texts), vocab_a, vocab_b)
        for row in report.rows:
            assert row.tokens_a == sum(
                oracles.encode_token_count(s, vocab_a.merges)
                for s in texts[row.language])
            assert row.tokens_b == sum(
                oracles.encode_token_count(s, vocab_b.merges)
                for s in texts[row.language])


def test_more_merges_never_increase_token_totals():
    # every extra merge can only shorten or preserve encodings
    vocab_a = small_vocab(DATA, budget=1)
    vocab_b = small_vocab(DATA, budget=15)
    report = representation_change(data_of(DATA), vocab_a, vocab_b)
    for row in report.rows:
        assert row.tokens_b <= row.tokens_a
        assert row.change_pct <= 0.0


def test_change_formula_spot_value():
    # 100_000 -> 97_710 tokens is a -2.29% change
    assert 100.0 * (97_710 - 100_000) / 100_000 == pytest.approx(-2.29)


def test_empty_language_rejected():
    vocab = small_vocab(DATA, budget=2)
    data = LangCorpusSet({"eng": ("the cat",), "zul": ()})
    with pytest.raises(EmptyLanguage):
        representation_change(data, vocab, vocab)


def test_language_totals_sum_to_pooled_total():
    vocab = small_vocab(DATA, budget=4)
    report = representation_change(data_of(DATA), vocab, vocab)
    pooled = sum(len(vocab.encode(s))
                 for sents in DATA.values() for s in sents)
    assert sum(r.tokens_a for r in report.rows) == pooled


def test_report_table_and_json():
    vocab_a = small_vocab(DATA, budget=2)
    vocab_b = small_vocab(DATA, budget=12)
    report = representation_change(data_of(DATA), vocab_a, vocab_b)
    table = report.render_table()
    assert table.splitlines()[0].split()[0] == "language"
    assert len(table.splitlines()) == 1 + len(report.rows)
    doc = report.to_json()
    assert doc["vocab_a"] == "bpe" and doc["vocab_b"] == "bpe"
    assert doc["rows"][0]["language"] == "afr"


# -- tokens per pair (the report's avg_tokens tables) ----------------------

def avg_rows(corpora, vocab_a, vocab_b):
    """The report's tokens-per-pair rows under vocabulary A and B."""
    doc = vocabulary_report(corpora, vocab_a, vocab_b)["avg_tokens"]
    return doc["a"]["rows"], doc["b"]["rows"]


def test_avg_tokens_matches_oracle():
    corpus = make_corpus(
        [("the cat sat", "aba kha"), ("a dog", "lulu aba kha")],
        src="eng", tgt="zul")
    vocab_a = small_vocab(DATA, budget=2)
    vocab_b = small_vocab(DATA, budget=8)
    for vocab, (row,) in zip((vocab_a, vocab_b),
                             avg_rows([corpus], vocab_a, vocab_b)):
        tok_eng = sum(oracles.encode_token_count(p.src, vocab.merges)
                      for p in corpus.pairs)
        tok_zul = sum(oracles.encode_token_count(p.tgt, vocab.merges)
                      for p in corpus.pairs)
        assert row["tokens_eng"] == tok_eng
        assert row["tokens_other"] == tok_zul
        assert row["avg_tokens"] == pytest.approx((tok_eng + tok_zul) / 2,
                                                  rel=1e-9)
        assert row["pair"] == "eng-zul" and row["pair_count"] == 2


def test_avg_tokens_five_plus_five_over_one_pair():
    corpus = make_corpus([("a b c d e", "v w x y z")], src="eng", tgt="afr")
    # single-letter words have no in-word pairs, so no merges happen
    texts = {"eng": corpus.src_sentences, "afr": corpus.tgt_sentences}
    for (row,) in avg_rows([corpus], small_vocab(texts, budget=1),
                           small_vocab(texts, budget=4)):
        assert row["tokens_eng"] == 5 and row["tokens_other"] == 5
        assert row["avg_tokens"] == 10.0


def test_avg_tokens_invariant_under_pair_reordering():
    pairs = [("the cat sat", "aba kha"), ("a dog", "lulu aba kha"),
             ("the dog sat", "kha aba")]
    vocab_a = small_vocab(DATA, budget=3)
    vocab_b = small_vocab(DATA, budget=8)
    fwd = avg_rows([make_corpus(pairs, src="eng", tgt="zul")],
                   vocab_a, vocab_b)
    rev = avg_rows([make_corpus(pairs[::-1], src="eng", tgt="zul")],
                   vocab_a, vocab_b)
    assert fwd == rev


def test_avg_tokens_eng_side_detected_either_way():
    vocab_a = small_vocab(DATA, budget=2)
    vocab_b = small_vocab(DATA, budget=8)
    fwd = avg_rows([make_corpus([("the cat", "aba kha")],
                                src="eng", tgt="zul")], vocab_a, vocab_b)
    rev = avg_rows([make_corpus([("aba kha", "the cat")],
                                src="zul", tgt="eng")], vocab_a, vocab_b)
    for vocab, (f,), (r,) in zip((vocab_a, vocab_b), fwd, rev):
        assert (f["pair"], r["pair"]) == ("eng-zul", "zul-eng")
        assert f["tokens_eng"] == r["tokens_eng"] == \
            oracles.encode_token_count("the cat", vocab.merges)
        assert f["tokens_other"] == r["tokens_other"] == \
            oracles.encode_token_count("aba kha", vocab.merges)


def test_avg_tokens_rejects_empty_and_skips_non_english():
    vocab = small_vocab(DATA, budget=2)
    ez = make_corpus([("the cat", "aba kha")], src="eng", tgt="zul")
    with pytest.raises(EmptyCorpus, match="none is empty"):
        vocabulary_report(
            [ez, make_corpus([], src="eng", tgt="zul", name="none")],
            vocab, vocab)
    # a language with no text fails the representation table first
    with pytest.raises(EmptyLanguage):
        vocabulary_report(
            [ez, make_corpus([], src="afr", tgt="eng", name="none")],
            vocab, vocab)
    za = make_corpus([("aba", "die kat")], src="zul", tgt="afr")
    rows_a, rows_b = avg_rows([za, ez], vocab, vocab)
    assert [r["pair"] for r in rows_a] == [r["pair"] for r in rows_b] == \
        ["eng-zul"]


def test_each_corpus_is_counted_once(monkeypatch):
    corpora = [
        make_corpus([("the cat sat", "aba kha")], name="ez",
                    src="eng", tgt="zul"),
        make_corpus([("die kat sit", "the cat sat")], name="ae",
                    src="afr", tgt="eng"),
        make_corpus([("aba", "die kat")], name="za", src="zul", tgt="afr"),
    ]
    vocab_a = small_vocab(DATA, budget=2)
    vocab_b = small_vocab(DATA, budget=10)
    calls = []
    from_bitexts = LangCorpusSet.from_bitexts

    def counted(corpora):
        calls.append(len(corpora))
        return from_bitexts(corpora)

    monkeypatch.setattr(LangCorpusSet, "from_bitexts", staticmethod(counted))
    vocabulary_report(corpora, vocab_a, vocab_b)
    # one pooled set for the representation table, one per English-centric
    # corpus for both tokens-per-pair tables
    assert calls == [3, 1, 1]


def test_combined_report_document():
    corpora = [
        make_corpus([("the cat sat", "aba kha")], name="ez",
                    src="eng", tgt="zul"),
        make_corpus([("a b c d e", "v w x y z")], name="ae",
                    src="afr", tgt="eng"),
    ]
    vocab_a = small_vocab(DATA, budget=2)
    vocab_b = small_vocab(DATA, budget=10)
    doc = vocabulary_report(corpora, vocab_a, vocab_b)
    assert list(doc) == ["representation", "avg_tokens", "tables"]
    assert list(doc["tables"]) == ["representation", "avg_tokens_a",
                                   "avg_tokens_b"]
    langs = [r["language"] for r in doc["representation"]["rows"]]
    assert langs == ["afr", "eng", "zul"]
    for key, vocab in (("a", vocab_a), ("b", vocab_b)):
        table = doc["avg_tokens"][key]
        assert table["vocab"] == vocab.mode
        assert [list(r) for r in table["rows"]] == [[
            "pair", "pair_count", "tokens_other", "tokens_eng",
            "avg_tokens"]] * 2
        ez, ae = table["rows"]
        assert ae == {"pair": "afr-eng", "pair_count": 1, "tokens_other": 5,
                      "tokens_eng": 5, "avg_tokens": 10.0}
        assert doc["tables"][f"avg_tokens_{key}"] == "\n".join([
            "pair            pairs   tokens_l tokens_eng  avg_tokens",
            f"eng-zul             1 {ez['tokens_other']:>10} "
            f"{ez['tokens_eng']:>10} {ez['avg_tokens']:>11.2f}",
            "afr-eng             1          5          5       10.00"])
