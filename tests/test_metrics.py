import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_corpus, small_vocab
from mtkit import metrics
from mtkit.corpus import orient
from mtkit.errors import EmptyInput, LengthMismatch, UnsupportedDirection
from mtkit.metrics import (
    _clipped_matches,
    bleu,
    chrf,
    evaluate_directions,
    score_candidates,
    select_best,
    spbleu,
)
from mtkit.translator import IdentityTranslator, Lexicon, LexiconTranslator

CORPUS = [
    ("the cat sat on the mat", "the cat sat on a mat"),
    ("a quick brown fox", "the quick brown fox jumps"),
    ("hello world", "hello there world"),
]
HYPS = [h for h, _ in CORPUS]
REFS = [r for _, r in CORPUS]


# -- BLEU ----------------------------------------------------------------

def test_bleu_perfect_match_is_exactly_100():
    assert bleu(REFS, REFS) == 100.0
    assert bleu(["hi"], ["hi"]) == 100.0  # shorter than 4 tokens


def test_bleu_disjoint_is_exactly_zero():
    assert bleu(["x y z"], ["a b c"]) == 0.0


def test_bleu_zero_higher_order_matches_without_smoothing():
    assert bleu(["a b c d"], ["a b x d"]) == 0.0


def test_bleu_brevity_penalty_short_hypothesis():
    # precisions all 1, hypothesis 3 tokens vs reference 4: exp(1 - 4/3)
    score = bleu(["the cat sat"], ["the cat sat on"])
    assert score == pytest.approx(100.0 * math.exp(1.0 - 4.0 / 3.0), abs=1e-4)


def test_bleu_no_penalty_for_long_hypothesis():
    # precisions 4/5, 3/4, 2/3, 1/2; no brevity penalty since c > r
    hyp, ref = ["the cat sat on it"], ["the cat sat on"]
    score = bleu(hyp, ref)
    assert score == oracles.reference_bleu(hyp, ref)
    assert score == pytest.approx(100.0 * (1 / 5) ** (1 / 4), abs=1e-4)


def test_bleu_counts_are_clipped():
    # the reference holds 4 "the", so of 6, 5, 4, 3 hypothesis n-grams only
    # 4, 3, 2, 1 count; unclipped, every precision would be 1 (score 100)
    hyp, ref = ["the the the the the the"], ["the the the the cat"]
    score = bleu(hyp, ref)
    assert score == oracles.reference_bleu(hyp, ref)
    assert score == pytest.approx(
        100.0 * (4 / 6 * 3 / 5 * 2 / 4 * 1 / 3) ** 0.25, abs=1e-4)


def test_bleu_three_sentence_corpus_matches_enumeration():
    assert bleu(HYPS, REFS) == oracles.reference_bleu(HYPS, REFS)
    assert bleu(HYPS, REFS) == pytest.approx(41.5175, abs=1e-4)


def test_bleu_input_validation():
    with pytest.raises(LengthMismatch):
        bleu(["a"], ["a", "b"])
    with pytest.raises(EmptyInput):
        bleu([], [])


def test_bleu_permutation_invariance():
    assert bleu(HYPS, REFS) == bleu(HYPS[::-1], REFS[::-1])


def test_bleu_ignores_extra_whitespace():
    assert bleu(["a  b "], ["a b"]) == 100.0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_bleu_matches_oracle_on_random_inputs(seed):
    import random
    rng = random.Random(seed)
    words = ["a", "b", "c", "dd", "e"]
    n = rng.randint(1, 4)
    hyps = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
            for _ in range(n)]
    refs = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
            for _ in range(n)]
    got = bleu(hyps, refs)
    assert got == oracles.reference_bleu(hyps, refs)
    assert 0.0 <= got <= 100.0


# -- spBLEU --------------------------------------------------------------

def test_spbleu_perfect_match_is_100_under_any_vocab():
    vocab = small_vocab({"eng": REFS}, budget=5)
    assert spbleu(REFS, REFS, vocab) == 100.0


def test_spbleu_equals_bleu_on_pre_segmented_strings():
    vocab = small_vocab({"eng": HYPS + REFS}, budget=8)
    seg_hyps = [" ".join(vocab.segment(h)) for h in HYPS]
    seg_refs = [" ".join(vocab.segment(r)) for r in REFS]
    assert spbleu(HYPS, REFS, vocab) == bleu(seg_hyps, seg_refs)


def test_spbleu_with_merge_free_vocab_is_character_bleu():
    # zero merges segment every word into marked characters, so spBLEU
    # collapses to BLEU over (word-final-marked) character tokens
    from mtkit.vocab import VocabConfig, Vocabulary
    hyps, refs = ["abc de", "fgh"], ["abd de", "fgh i"]
    syms = sorted({s for t in hyps + refs for w in t.split()
                   for s in oracles.mark(w)})
    cfg = VocabConfig(vocab_size=len(VocabConfig().special_tokens)
                      + len(syms) + 1)
    vocab = Vocabulary("bpe", tuple(cfg.special_tokens) + tuple(syms),
                       (), cfg)
    char_hyps = [" ".join(s for w in h.split() for s in oracles.mark(w))
                 for h in hyps]
    char_refs = [" ".join(s for w in r.split() for s in oracles.mark(w))
                 for r in refs]
    assert spbleu(hyps, refs, vocab) == oracles.reference_bleu(char_hyps,
                                                               char_refs)


# -- chrF ----------------------------------------------------------------

def test_chrf_perfect_match_is_exactly_100():
    assert chrf(REFS, REFS) == 100.0
    assert chrf(["a"], ["a"]) == 100.0  # all long orders skipped


def test_chrf_disjoint_is_exactly_zero():
    assert chrf(["xyz"], ["abc"]) == 0.0


def test_chrf_two_segment_hand_computation():
    # only orders whose reference has n-grams count:
    # segment 1: char1 F=2/3, char2 F=1/2, char3 F=0, word1 F=0 -> 7/24
    # segment 2: char1 F=10/11, char2 F=5/6, word1 F=0 -> 115/198
    # macro average = 691/1584
    score = chrf(["abc", "aab"], ["abd", "ab"])
    assert score == pytest.approx(100.0 * 691.0 / 1584.0, abs=1e-4)
    assert score == oracles.reference_chrf(["abc", "aab"], ["abd", "ab"])


def test_chrf_beta_weighs_recall():
    # mirrored cases: every order has precision 1 and recall x in one and
    # precision x and recall 1 in the other; beta 1 would tie them
    precise = chrf(["abc def"], ["abc def ghi"])
    complete = chrf(["abc def ghi"], ["abc def"])
    assert oracles.reference_chrf(["abc def"], ["abc def ghi"], beta=1.0) \
        == oracles.reference_chrf(["abc def ghi"], ["abc def"], beta=1.0)
    assert complete > precise


def test_chrf_input_validation():
    with pytest.raises(LengthMismatch):
        chrf(["a"], [])
    with pytest.raises(EmptyInput):
        chrf([], [])


def test_chrf_counts_a_lone_surrogate_as_one_character():
    hyps, refs = ["a\ud800b c"], ["a\ud800b d"]
    assert chrf(hyps, refs) == oracles.reference_chrf(hyps, refs)
    assert chrf(refs, refs) == 100.0


def test_chrf_same_characters_other_words_matches_oracle():
    # whitespace removed, the characters are identical; the words are not
    hyps, refs = ["ab c"], ["a bc"]
    got = chrf(hyps, refs)
    assert got == oracles.reference_chrf(hyps, refs)
    # char orders 1-3 have F=1, word orders 1-2 have F=0: 3/5
    assert got == pytest.approx(60.0, abs=1e-9)


def test_chrf_completing_a_truncation_never_hurts():
    truncated = chrf(["the ca"], ["the cat sat"])
    completed = chrf(["the cat sat"], ["the cat sat"])
    assert completed >= truncated


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_chrf_matches_oracle_on_random_inputs(seed):
    import random
    rng = random.Random(seed)
    alphabet = "abcde"
    n = rng.randint(1, 4)

    def sentence():
        return " ".join(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 6)))

    hyps = [sentence() for _ in range(n)]
    refs = [sentence() for _ in range(n)]
    got = chrf(hyps, refs)
    assert got == oracles.reference_chrf(hyps, refs)
    assert 0.0 <= got <= 100.0


# -- exact agreement with the oracles -------------------------------------

# Multi-byte and astral-plane characters next to ASCII; a small alphabet so
# n-grams repeat within and across segments.
TOKENS = st.sampled_from(["a", "b", "ab", "ba", "é", "漢", "😀", "a😀", "漢é"])
GAPS = st.sampled_from([" ", "  ", "\t", " \u3000 "])


@st.composite
def segments(draw):
    """Empty, whitespace-only, short and repetitive segments."""
    base = draw(st.lists(TOKENS, max_size=5))
    words = base * draw(st.integers(1, 3))
    text = ""
    for word in words:
        text += draw(GAPS) + word if text else word
    return draw(st.sampled_from(["", " "])) + text + draw(
        st.sampled_from(["", "\t"]))


@st.composite
def scored_corpora(draw):
    """(hyps, refs); some hypotheses equal to their references."""
    refs = draw(st.lists(segments(), min_size=1, max_size=5))
    hyps = [ref if draw(st.booleans()) and draw(st.booleans())
            else draw(segments()) for ref in refs]
    return hyps, refs


@functools.cache
def oracle_vocab():
    return small_vocab({"eng": ["a b ab ba abab", "é 漢 😀 a😀 漢é"]},
                       budget=6)


@given(scored_corpora())
@settings(max_examples=150, deadline=None)
def test_bleu_equals_oracle_exactly(corpus):
    hyps, refs = corpus
    assert bleu(hyps, refs) == oracles.reference_bleu(hyps, refs)


@given(scored_corpora())
@settings(max_examples=100, deadline=None)
def test_spbleu_equals_oracle_over_token_ids_exactly(corpus):
    hyps, refs = corpus
    vocab = oracle_vocab()

    def ids(texts):
        return [" ".join(map(str, vocab.encode(t))) for t in texts]

    assert spbleu(hyps, refs, vocab) == oracles.reference_bleu(ids(hyps),
                                                               ids(refs))


@given(scored_corpora())
@settings(max_examples=150, deadline=None)
def test_chrf_equals_oracle_exactly(corpus):
    hyps, refs = corpus
    assert chrf(hyps, refs) == oracles.reference_chrf(hyps, refs)


# Token id streams: ids 0-3 so n-grams repeat, 4 only where a hypothesis
# is made to differ from its reference.
ID_LISTS = st.lists(st.integers(0, 3), max_size=6)


@st.composite
def id_segments(draw):
    """(hyps, refs) id lists. Each hypothesis is its reference, another
    list of the same length, or any list, empty ones included; a corpus
    is mixed, all identical, or has no identical segment at all."""
    kind = draw(st.sampled_from(["mixed", "all identical", "none identical"]))
    refs = draw(st.lists(ID_LISTS, min_size=1, max_size=6))
    hyps = []
    for ref in refs:
        how = ("copy" if kind == "all identical"
               else draw(st.sampled_from(["copy", "same length", "any"])))
        if how == "copy":
            hyp = list(ref)
        elif how == "same length":
            hyp = draw(st.lists(st.integers(0, 3), min_size=len(ref),
                                max_size=len(ref)))
        else:
            hyp = draw(ID_LISTS)
        if kind == "none identical" and hyp == ref:
            hyp = [4] + hyp[1:] if hyp else [4]
        hyps.append(hyp)
    return hyps, refs


def _flat(segments):
    return (np.array([t for seg in segments for t in seg], dtype=np.int64),
            np.array([len(seg) for seg in segments], dtype=np.int64))


@given(id_segments(), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_clipped_matches_equal_per_segment_oracle(corpus, max_n):
    hyps, refs = corpus
    got = _clipped_matches(*_flat(hyps), *_flat(refs), max_n)
    assert got.dtype == np.int64
    assert got.tolist() == [
        [oracles.clipped_matches(oracles.ngrams(h, n), oracles.ngrams(r, n))
         for h, r in zip(hyps, refs)]
        for n in range(1, max_n + 1)]


# -- copies: a hypothesis that is the same string as its reference ---------

def test_whitespace_variant_copies_equal_oracle():
    # the same words, other whitespace: not copies as strings, so they go
    # through the matcher, and score as the oracle says
    hyps = ["a  b", "x\ty z", " c d ", "a b"]
    refs = ["a b", "x y z", "c d", "a b"]
    assert bleu(hyps, refs) == oracles.reference_bleu(hyps, refs) == 100.0
    assert chrf(hyps, refs) == oracles.reference_chrf(hyps, refs) == 100.0


def id_strings(vocab, texts):
    """Each text's token ids as a whitespace-separated string."""
    return [" ".join(map(str, vocab.encode(t))) for t in texts]


def test_spbleu_different_strings_with_the_same_unk_ids_equal_oracle():
    vocab = oracle_vocab()
    hyps, refs = ["a q", "ab"], ["a w", "ab"]
    assert vocab.encode("q") == vocab.encode("w") == [vocab.unk_id]
    assert spbleu(hyps, refs, vocab) == oracles.reference_bleu(
        id_strings(vocab, hyps), id_strings(vocab, refs)) == 100.0


def test_chrf_identical_empty_and_blank_segments_score_zero():
    blank = ["", " ", "\t \u3000"]
    assert chrf(blank, blank) == oracles.reference_chrf(blank, blank) == 0.0
    hyps = refs = ["", "a b", " "]
    got = chrf(hyps, refs)
    assert got == oracles.reference_chrf(hyps, refs)
    assert got == 100.0 / 3


@st.composite
def copy_corpora(draw):
    """(hyps, refs) in which every hypothesis is its reference, or none
    is."""
    refs = draw(st.lists(segments(), min_size=1, max_size=5))
    if draw(st.booleans()):
        return list(refs), refs
    hyps = [hyp if hyp != ref else hyp + " a"
            for hyp, ref in zip(draw(st.lists(segments(), min_size=len(refs),
                                              max_size=len(refs))), refs)]
    return hyps, refs


@given(copy_corpora())
@settings(max_examples=100, deadline=None)
def test_all_copy_and_no_copy_corpora_equal_oracles(corpus):
    hyps, refs = corpus
    vocab = oracle_vocab()
    assert bleu(hyps, refs) == oracles.reference_bleu(hyps, refs)
    assert spbleu(hyps, refs, vocab) == oracles.reference_bleu(
        id_strings(vocab, hyps), id_strings(vocab, refs))
    assert chrf(hyps, refs) == oracles.reference_chrf(hyps, refs)


def test_an_all_copy_corpus_never_reaches_the_matcher(monkeypatch):
    """Copies are settled by string comparison: scoring a copy task must
    not tokenize and match it."""
    def matcher(*args):
        raise AssertionError("the n-gram matcher ran on a copy")

    monkeypatch.setattr(metrics, "_clipped_matches", matcher)
    vocab = small_vocab({"eng": HYPS, "zul": REFS}, budget=4)
    copy_set = make_corpus([(h, h) for h in HYPS + REFS], name="copy",
                           src="eng", tgt="zul")
    row = evaluate_directions(IdentityTranslator(), [copy_set], vocab).rows[0]
    assert row.bleu == row.spbleu == row.chrf == 100.0


# -- direction reports ----------------------------------------------------

def test_evaluate_directions_identity_on_copy_task():
    vocab = small_vocab({"eng": HYPS, "zul": REFS}, budget=4)
    copy_set = make_corpus([(h, h) for h in HYPS], name="copy",
                           src="eng", tgt="zul")
    report = evaluate_directions(IdentityTranslator(), [copy_set], vocab)
    row = report.rows[0]
    assert row.direction == "eng-zul"
    assert row.pair_count == 3
    assert row.bleu == row.spbleu == row.chrf == 100.0


# One report's test sets, of different sizes: all copies, no copies,
# mixed (a whitespace variant included), one-word segments (no n-grams of
# orders 2-4) and a single disjoint segment.
REPORT_SETS = [
    ("eng", "zul", [(h, h) for h in HYPS]),
    ("eng", "xho", CORPUS),
    ("eng", "ssw", CORPUS[:2] + [(r, r) for r in REFS] + [("a  b", "a b")]),
    ("eng", "tso", [("hello", "hello"), ("cat", "dog"), ("sat", "sat"),
                    ("mat", "mat")]),
    ("zul", "eng", CORPUS + [(h, h) for h in HYPS] + [("fox", "fox jumps"),
                                                     ("the", "a")]),
    ("xho", "eng", [("x y", "a b")]),
]


def report_sets():
    return [make_corpus(pairs, name=f"{src}-{tgt}", src=src, tgt=tgt)
            for src, tgt, pairs in REPORT_SETS]


def report_vocab():
    return small_vocab({"eng": [t for _, _, pairs in REPORT_SETS
                                for pair in pairs for t in pair]}, budget=8)


def test_evaluate_directions_rows_match_direct_metric_calls():
    """One report over test sets of several shapes: each row equals the
    per-direction oracles and the one-direction metric calls."""
    vocab = report_vocab()
    testsets = report_sets()
    report = evaluate_directions(IdentityTranslator(), testsets, vocab)
    assert [row.direction for row in report.rows] == \
        [f"{src}-{tgt}" for src, tgt, _ in REPORT_SETS]
    for row, corpus in zip(report.rows, testsets):
        hyps, refs = corpus.src_sentences, corpus.tgt_sentences
        assert row.pair_count == len(hyps)
        assert row.bleu == oracles.reference_bleu(hyps, refs) == \
            bleu(hyps, refs)
        assert row.spbleu == oracles.reference_bleu(
            [" ".join(vocab.segment(h)) for h in hyps],
            [" ".join(vocab.segment(r)) for r in refs]) == \
            spbleu(hyps, refs, vocab)
        assert row.chrf == oracles.reference_chrf(hyps, refs) == \
            chrf(hyps, refs)
    assert [row.bleu for row in report.rows][::5] == [100.0, 0.0]
    table = report.render_table()
    assert "eng-zul" in table and len(table.splitlines()) == 7
    assert report.to_json()["rows"][0]["direction"] == "eng-zul"


def test_scoring_makes_one_matcher_pass_per_stream(monkeypatch):
    """A report makes at most one n-gram matcher call per stream (BLEU
    words, spBLEU ids, chrF characters, chrF words), and scoring model
    candidates at most one, however many directions they cover."""
    def counting(*args):
        calls.append(args)
        return matcher(*args)

    calls = []
    matcher = metrics._clipped_matches
    monkeypatch.setattr(metrics, "_clipped_matches", counting)
    vocab = report_vocab()
    testsets = report_sets()
    for n in (1, 2, len(testsets)):
        calls.clear()
        evaluate_directions(IdentityTranslator(), testsets[1:n + 1], vocab)
        assert 0 < len(calls) <= 4
    calls.clear()
    scores = score_candidates([(IdentityTranslator(), corpus)
                               for corpus in testsets for _ in range(2)])
    assert len(calls) == 1
    assert scores == [bleu(c.src_sentences, c.tgt_sentences)
                      for c in testsets for _ in range(2)]


class _Recorder(IdentityTranslator):
    """Copies its input, records each direction it translates, supports
    only *supported*, and drops a line from the batches of *short*."""

    def __init__(self, supported, short=None):
        self.supported, self.short, self.translated = supported, short, []

    def supported_directions(self):
        return self.supported

    def translate_batch(self, sentences, src, tgt):
        self.translated.append(f"{src}-{tgt}")
        return list(sentences)[:-1 if (src, tgt) == self.short else None]


def test_evaluate_directions_fails_before_translating_the_next_set():
    vocab = report_vocab()
    testsets = report_sets()
    labels = [c.direction.label for c in testsets]
    supported = frozenset((c.src_lang, c.tgt_lang) for c in testsets)
    unsupported = _Recorder(supported - {("eng", "tso")})
    with pytest.raises(UnsupportedDirection):
        evaluate_directions(unsupported, testsets, vocab)
    assert unsupported.translated == labels[:3]
    short = _Recorder(supported, short=("eng", "ssw"))
    with pytest.raises(LengthMismatch):
        evaluate_directions(short, testsets, vocab)
    assert short.translated == labels[:3]


def test_evaluate_directions_checks_support():
    vocab = small_vocab({"eng": HYPS}, budget=2)
    testset = make_corpus(CORPUS, name="dev", src="eng", tgt="zul")
    model = LexiconTranslator(Lexicon("zul", "eng", {"a": {"b": 1.0}}))
    with pytest.raises(UnsupportedDirection):
        evaluate_directions(model, [testset], vocab)


def test_report_average():
    vocab = small_vocab({"eng": HYPS, "zul": REFS}, budget=4)
    sets = [make_corpus([(h, h) for h in HYPS], name="c1",
                        src="eng", tgt="zul"),
            make_corpus(CORPUS, name="c2", src="eng", tgt="zul")]
    report = evaluate_directions(IdentityTranslator(), sets, vocab)
    rows = report.rows
    assert report.average() == pytest.approx(
        (rows[0].bleu + rows[1].bleu) / 2)
    with pytest.raises(EmptyInput):
        report.average(["xho-tsn"])


# -- model selection -------------------------------------------------------

def perfect_and_noisy_candidates():
    devset = make_corpus([("a b", "x y"), ("b a", "y x")], name="dev",
                         src="eng", tgt="zul")
    good = LexiconTranslator(
        Lexicon("eng", "zul", {"a": {"x": 1.0}, "b": {"y": 1.0}}))
    bad = LexiconTranslator(
        Lexicon("eng", "zul", {"a": {"x": 1.0}, "b": {"q": 1.0}}))
    return devset, good, bad


def test_select_best_argmax():
    devset, good, bad = perfect_and_noisy_candidates()
    assert select_best([(bad, "bad"), (good, "good")], devset) == "good"
    assert select_best([(good, "only")], devset) == "only"


def test_score_candidates_scores_each_candidate_in_order():
    devset, good, bad = perfect_and_noisy_candidates()
    sources, refs = devset.src_sentences, devset.tgt_sentences
    noisy = bleu(bad.translate_batch(sources, "eng", "zul"), refs)
    assert noisy < 100.0
    rev_good = LexiconTranslator(
        Lexicon("zul", "eng", {"x": {"a": 1.0}, "y": {"b": 1.0}}))
    flipped = orient(devset, "zul", "eng")
    assert score_candidates([(bad, devset), (good, devset),
                             (rev_good, flipped)]) == [noisy, 100.0, 100.0]


def test_select_best_tie_keeps_first():
    devset, good, _ = perfect_and_noisy_candidates()
    assert select_best([(good, "first"), (good, "second")], devset) == "first"


def test_select_best_direction_flip_and_errors():
    devset, good, bad = perfect_and_noisy_candidates()
    rev_good = LexiconTranslator(
        Lexicon("zul", "eng", {"x": {"a": 1.0}, "y": {"b": 1.0}}))
    rev_bad = LexiconTranslator(
        Lexicon("zul", "eng", {"x": {"a": 1.0}, "y": {"z": 1.0}}))
    flipped = orient(devset, "zul", "eng")
    assert select_best([(rev_bad, "rb"), (rev_good, "rg")], flipped) == "rg"
    with pytest.raises(UnsupportedDirection):
        select_best([(good, "g")], flipped)
    with pytest.raises(EmptyInput):
        select_best([], devset)
