import pytest

from conftest import make_corpus
from mtkit.corpus import Provenance
from mtkit.errors import (
    BadPivot,
    BadSyntheticSide,
    LanguageMismatch,
    UnsupportedDirection,
)
from mtkit.synthesis import backtranslate, pivot_synthesize
from mtkit.translator import IdentityTranslator


def reverser(src, tgt):
    class _Reverser:
        model_id = f"rev:{src}-{tgt}"

        def supported_directions(self):
            return frozenset({(src, tgt)})

        def translate_batch(self, sentences, s, t):
            if (s, t) != (src, tgt):
                raise UnsupportedDirection(s, t)
            return [" ".join(x.split()[::-1]) for x in sentences]

    return _Reverser()


PAIRS = [("the cat sat", "aba kha lu"), ("a dog ran", "kha lu"),
         ("birds fly", "lulu aba")]


# -- back-translation ----------------------------------------------------

def test_backtranslate_rebuilds_source_side():
    corpus = make_corpus(PAIRS, name="ez", src="eng", tgt="zul")
    out = backtranslate(corpus, reverser("zul", "eng"))
    assert out.name == "ez-bt"
    assert (out.src_lang, out.tgt_lang) == ("eng", "zul")
    assert len(out) == len(corpus)
    # target side byte-identical, source side regenerated
    assert out.tgt_sentences == corpus.tgt_sentences
    assert out.src_sentences == [
        " ".join(t.split()[::-1]) for t in corpus.tgt_sentences]


def test_backtranslate_provenance():
    corpus = make_corpus(PAIRS, name="ez", src="eng", tgt="zul")
    out = backtranslate(corpus, reverser("zul", "eng"))
    assert out.src_provenance == Provenance("synthetic", "rev:zul-eng")
    assert out.tgt_provenance == Provenance("real")


def test_backtranslate_requires_reverse_direction():
    corpus = make_corpus(PAIRS, name="ez", src="eng", tgt="zul")
    with pytest.raises(UnsupportedDirection):
        backtranslate(corpus, reverser("eng", "zul"))


class Counting:
    """A model that copies its input and records each call it gets."""
    model_id = "counting"

    def __init__(self):
        self.calls = []

    def supported_directions(self):
        return None

    def translate_batch(self, sentences, s, t):
        self.calls.append((list(sentences), s, t))
        return list(sentences)


def test_backtranslate_batching_preserves_order():
    """Each function sends the whole side it translates in one call and
    keeps the corpus order."""
    corpus = make_corpus([(f"src {i}", f"tgt {i}") for i in range(150)],
                         name="big", src="eng", tgt="zul")
    model = Counting()
    out = backtranslate(corpus, model)
    assert model.calls == [(corpus.tgt_sentences, "zul", "eng")]
    assert out.src_sentences == out.tgt_sentences == corpus.tgt_sentences
    model = Counting()
    out = pivot_synthesize(corpus, model, pivot_to="xho")
    assert model.calls == [(corpus.src_sentences, "eng", "xho")]
    assert out.src_sentences == corpus.src_sentences
    assert out.tgt_sentences == corpus.tgt_sentences


# -- pivot synthesis -----------------------------------------------------

def test_pivot_translates_english_side_keeps_other():
    corpus = make_corpus(PAIRS, name="ez", src="eng", tgt="zul")
    out = pivot_synthesize(corpus, reverser("eng", "xho"), pivot_to="xho")
    assert out.name == "xho-zul-pivot"
    assert (out.src_lang, out.tgt_lang) == ("xho", "zul")
    assert len(out) == len(corpus)
    assert out.tgt_sentences == corpus.tgt_sentences
    assert out.src_sentences == [
        " ".join(s.split()[::-1]) for s in corpus.src_sentences]
    assert out.src_provenance == Provenance("synthetic", "rev:eng-xho")
    assert out.tgt_provenance == Provenance("real")


def test_pivot_handles_english_on_target_side():
    corpus = make_corpus([(t, s) for s, t in PAIRS], name="ze",
                         src="zul", tgt="eng")
    out = pivot_synthesize(corpus, reverser("eng", "xho"), pivot_to="xho")
    assert (out.src_lang, out.tgt_lang) == ("xho", "zul")
    assert out.tgt_sentences == corpus.src_sentences


def test_pivot_carries_synthetic_flag_of_kept_side():
    corpus = make_corpus(PAIRS, name="ez", src="eng", tgt="zul",
                         tgt_provenance=Provenance("synthetic", "m1"))
    out = pivot_synthesize(corpus, reverser("eng", "xho"), pivot_to="xho")
    assert out.tgt_provenance == Provenance("synthetic", "m1")


def test_pivot_rejections():
    corpus = make_corpus(PAIRS, name="ez", src="eng", tgt="zul")
    with pytest.raises(BadPivot):
        pivot_synthesize(corpus, reverser("eng", "zul"), pivot_to="zul")
    with pytest.raises(BadPivot):
        pivot_synthesize(corpus, IdentityTranslator(), pivot_to="eng")
    no_eng = make_corpus([("aba", "molo")], name="zx", src="zul", tgt="xho")
    with pytest.raises(LanguageMismatch):
        pivot_synthesize(no_eng, reverser("eng", "tsn"), pivot_to="tsn")
    with pytest.raises(UnsupportedDirection):
        pivot_synthesize(corpus, reverser("eng", "tsn"), pivot_to="xho")
    # a pivot target that is no language code, or not one of the nine,
    # is refused before the model translates anything
    model = Counting()
    with pytest.raises(BadPivot, match="bad language code 'a-b'"):
        pivot_synthesize(corpus, model, pivot_to="a-b")
    with pytest.raises(BadPivot, match="language 'fra' not in registry"):
        pivot_synthesize(corpus, model, pivot_to="fra")
    assert model.calls == []


# -- the generated side is checked, the genuine side kept ------------------

def constant(src, tgt, output):
    """A src->tgt model that turns every sentence into *output*."""
    class _Constant:
        model_id = f"const:{src}-{tgt}"

        def supported_directions(self):
            return frozenset({(src, tgt)})

        def translate_batch(self, sentences, s, t):
            return [output] * len(sentences)

    return _Constant()


@pytest.mark.parametrize("output,message", [
    ("", "src side is empty after trimming"),
    ("  ", "src side is empty after trimming"),
    ("a\nb", "src side contains a line break"),
    ("a\u2028b", "src side contains a line break"),
])
def test_synthesis_rejects_a_bad_generated_side(output, message):
    corpus = make_corpus(PAIRS, name="ez", src="eng", tgt="zul")
    with pytest.raises(BadSyntheticSide,
                       match=f"^model 'const:zul-eng', pair 1: {message}$"):
        backtranslate(corpus, constant("zul", "eng", output))
    with pytest.raises(BadSyntheticSide,
                       match=f"^model 'const:eng-xho', pair 1: {message}$"):
        pivot_synthesize(corpus, constant("eng", "xho", output),
                         pivot_to="xho")


def test_synthesis_names_the_first_bad_pair_counting_from_one():
    corpus = make_corpus(PAIRS, name="ez", src="eng", tgt="zul")

    class _BadThird:
        model_id = "bad-third"

        def supported_directions(self):
            return None

        def translate_batch(self, sentences, s, t):
            return ["ok"] * 2 + [" "] * (len(sentences) - 2)

    with pytest.raises(BadSyntheticSide, match="^model 'bad-third', pair 3: "
                       "src side is empty after trimming$"):
        backtranslate(corpus, _BadThird())


def test_synthesis_normalizes_the_generated_side_and_keeps_the_genuine_one():
    corpus = make_corpus(PAIRS, name="ez", src="eng", tgt="zul")
    decomposed = "cafe\u0301 noir"
    for out in (backtranslate(corpus, constant("zul", "eng", decomposed)),
                pivot_synthesize(corpus, constant("eng", "xho", decomposed),
                                 pivot_to="xho")):
        assert out.src_sentences == ["caf\u00e9 noir"] * len(PAIRS)
        # the genuine side is the input's string object, not a copy
        assert all(new.tgt is old.tgt
                   for new, old in zip(out.pairs, corpus.pairs))


@pytest.mark.parametrize("extra", [-1, 1])
def test_synthesis_rejects_a_generated_side_of_the_wrong_length(extra):
    corpus = make_corpus(PAIRS + [("one more", "aba lu"), ("last", "lu")],
                         name="ez", src="eng", tgt="zul")

    class _OffByOne:
        model_id = "off-by-one"

        def supported_directions(self):
            return None

        def translate_batch(self, sentences, s, t):
            return (list(sentences) + ["spare"])[:len(sentences) + extra]

    message = f"^model 'off-by-one' returned {5 + extra} lines for 5 " \
        "sentences sent$"
    with pytest.raises(BadSyntheticSide, match=message):
        backtranslate(corpus, _OffByOne())
    with pytest.raises(BadSyntheticSide, match=message):
        pivot_synthesize(corpus, _OffByOne(), pivot_to="xho")
