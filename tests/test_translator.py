import json
import math
import shlex
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_corpus
from mtkit import translator
from mtkit.errors import (
    BadLexicon,
    CorpusTooLarge,
    EmptyCorpus,
    ExternalProcessError,
    UnsupportedDirection,
)
from mtkit.translator import (
    NULL_WORD,
    ExternalProcessTranslator,
    IdentityTranslator,
    Lexicon,
    LexiconTranslator,
    RoutingTranslator,
    load_translator,
    train_lexicon,
)


def cipher_bitext(n_pairs=200, vocab_words=20, seed=0):
    srcs, tgts, cipher = oracles.cipher_corpus(n_pairs, vocab_words, seed)
    corpus = make_corpus(list(zip(srcs, tgts)), name="cipher",
                         src="eng", tgt="zul")
    return corpus, cipher


# -- EM training ---------------------------------------------------------

def test_single_pair_converges_to_certainty():
    corpus = make_corpus([("a", "x")] * 100, src="eng", tgt="zul")
    lex = train_lexicon(corpus, iterations=5)
    assert lex.table["a"]["x"] == pytest.approx(1.0, abs=1e-6)


def test_log_likelihood_never_decreases():
    corpus, _ = cipher_bitext(n_pairs=120, vocab_words=15, seed=3)
    lex = train_lexicon(corpus, iterations=12)
    assert len(lex.log_likelihoods) == 12
    for earlier, later in zip(lex.log_likelihoods, lex.log_likelihoods[1:]):
        assert later >= earlier - 1e-9


def test_rows_sum_to_one():
    corpus, _ = cipher_bitext(n_pairs=80, vocab_words=12, seed=7)
    lex = train_lexicon(corpus, iterations=4)
    for row in lex.table.values():
        assert abs(sum(row.values()) - 1.0) <= 1e-9


def test_cipher_recovery_small():
    corpus, cipher = cipher_bitext(n_pairs=400, vocab_words=25, seed=1)
    lex = train_lexicon(corpus, iterations=15)
    hits = sum(lex.best_translation(w) == c for w, c in cipher.items())
    assert hits / len(cipher) >= 0.95


def test_null_word_gets_a_row_but_stays_internal():
    corpus, _ = cipher_bitext(n_pairs=50, vocab_words=10, seed=5)
    lex = train_lexicon(corpus, iterations=3)
    assert NULL_WORD in lex.table
    assert lex.table.keys() - {NULL_WORD} == {
        w for pair in corpus.pairs for w in pair.src.split()}


def assert_same_as_reference_em(corpus, iterations):
    """The table is `reference_em`'s, rows and each row's entries in the
    same order: `Lexicon.save` writes that order and `_check_rows` sums
    each row in it."""
    lex = train_lexicon(corpus, iterations)
    ref = oracles.reference_em(corpus, iterations)
    assert [(e, list(row.items())) for e, row in lex.table.items()] == \
        [(e, list(row.items())) for e, row in ref.table.items()]
    assert lex.log_likelihoods == ref.log_likelihoods


# iterations 1 and 2: the first iteration's own log-likelihood path, then
# the first ordinary iteration
@pytest.mark.parametrize("seed, n_pairs, vocab_words, iterations",
                         [(0, 40, 8, 1), (5, 60, 10, 2), (3, 120, 15, 12),
                          (13, 300, 50, 20)])
def test_em_equals_reference_on_cipher_corpora(seed, n_pairs, vocab_words,
                                               iterations):
    corpus, _ = cipher_bitext(n_pairs, vocab_words, seed)
    assert_same_as_reference_em(corpus, iterations)


# few word types, so sentences repeat words; NULL_WORD may occur as a word;
# words are separated by runs of whitespace of more than one kind
_sentences = st.builds(
    str.join, st.sampled_from([" ", "  ", "\t"]),
    st.lists(st.sampled_from(["a", "b", "c", "dd", NULL_WORD]), min_size=1,
             max_size=7))


@given(st.lists(st.tuples(_sentences, _sentences), min_size=1, max_size=12),
       st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_em_equals_reference_on_random_corpora(pairs, iterations):
    assert_same_as_reference_em(make_corpus(pairs), iterations)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        train_lexicon(make_corpus([], src="eng", tgt="zul"))


def test_em_key_space_bound(monkeypatch):
    check = translator._check_key_space
    check("big", 2**31, 2**31, 1)
    with pytest.raises(CorpusTooLarge,
                       match=r"^big: 2147483648 source words x 2147483648 "):
        check("big", 2**31, 2**31, 2)  # a product of exactly 2**63
    seen = []
    monkeypatch.setattr(translator, "_check_key_space",
                        lambda *args: seen.append(args))
    train_lexicon(make_corpus([("a b", "x"), ("b", "y z")], name="tiny"), 1)
    # source words a, b and <null>; target words x, y and z; (2 + 1) * 1 +
    # (1 + 1) * 2 (target token, source word) entries
    assert seen == [("tiny", 3, 3, 7)]


# -- decoding ------------------------------------------------------------

def test_argmax_prefers_lexicographically_smaller_on_tie():
    lex = Lexicon("eng", "zul", {"a": {"z": 0.5, "b": 0.5}})
    assert lex.best_translation("a") == "b"


def test_unknown_words_copy_through():
    lex = Lexicon("eng", "zul", {"a": {"x": 1.0}})
    assert LexiconTranslator(lex).translate_batch(
        ["a mystery a"], "eng", "zul") == ["x mystery x"]


def test_translate_batch_caches_each_word_it_looked_up():
    lex = Lexicon("eng", "zul", {"a": {"x": 1.0}})
    model = LexiconTranslator(lex)
    assert model.translate_batch(["a mystery"], "eng", "zul") == ["x mystery"]
    # the copy-through of an unseen word is cached like a table word
    assert lex._best == {"a": "x", "mystery": "mystery"}
    assert model.translate_batch(["mystery b"], "eng", "zul") == ["mystery b"]
    assert lex._best == {"a": "x", "mystery": "mystery", "b": "b"}


def test_decode_recovers_cipher_sentences():
    corpus, cipher = cipher_bitext(n_pairs=400, vocab_words=25, seed=2)
    lex = train_lexicon(corpus, iterations=15)
    model = LexiconTranslator(lex)
    total = correct = 0
    for pair in corpus.pairs[:30]:
        out = model.translate_batch([pair.src], "eng", "zul")[0].split()
        want = pair.tgt.split()
        total += len(want)
        correct += sum(o == w for o, w in zip(out, want))
    assert correct / total >= 0.95


def test_row_check_rejects_bad_table():
    with pytest.raises(BadLexicon, match="row 'a' sums to 0.8999"):
        Lexicon("eng", "zul", {"a": {"x": 0.7, "y": 0.2}})


@pytest.mark.parametrize("row", [
    {"x": float("nan")},
    {"x": 0.5, "y": float("nan")},
    {"x": float("inf"), "y": float("-inf")},
], ids=["nan", "nan-beside-finite", "inf-and-minus-inf"])
def test_row_check_rejects_non_finite_rows(row):
    with pytest.raises(BadLexicon, match="sums to nan"):
        Lexicon("eng", "zul", {"a": row})


# -- persistence ---------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    corpus, _ = cipher_bitext(n_pairs=100, vocab_words=12, seed=9)
    lex = train_lexicon(corpus, iterations=6)
    path = lex.save(tmp_path / "lex.json")
    loaded = Lexicon.load(path)
    assert loaded.src_lang == "eng" and loaded.tgt_lang == "zul"
    assert loaded.log_likelihoods == lex.log_likelihoods
    assert set(loaded.table) == set(lex.table)
    assert loaded.table == lex.table
    for w in sorted(lex.table.keys() - {NULL_WORD})[:20]:
        assert loaded.best_translation(w) == lex.best_translation(w)


def test_load_rejects_a_lexicon_into_its_own_language(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({"src_lang": "zul", "tgt_lang": "zul",
                                "table": {"a": {"b": 1.0}}}))
    with pytest.raises(BadLexicon, match="src_lang equals tgt_lang"):
        Lexicon.load(path)


@pytest.mark.parametrize("src,tgt", [("", "zul"), ("eng", "xho-zul")])
def test_load_rejects_a_language_no_direction_can_name(tmp_path, src, tgt):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({"src_lang": src, "tgt_lang": tgt,
                                "table": {"a": {"b": 1.0}}}))
    with pytest.raises(BadLexicon, match="is empty or holds '-'"):
        Lexicon.load(path)


@pytest.fixture(scope="module")
def lexicon_file(tmp_path_factory):
    return tmp_path_factory.mktemp("lexicon") / "lex.json"


# keys holding characters that JSON escapes (quote, backslash, control
# characters) or writes as they are (DEL, line separator, astral ones)
_keys = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028",
                     "\U0001f600"]),
    st.characters(codec="utf-8")), max_size=4)
# zero, subnormals, the smallest normal and values far below 1
_small = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, sys.float_info.min, 1e-300,
                     1e-13, 1e-5]),
    st.floats(0.0, 1e-3))


@st.composite
def _rows(draw):
    """A row summing to 1 within 1e-9, entries inserted in no key order:
    small entries, plus one holding the rest of the mass or a value just
    below 1."""
    keys = draw(st.lists(_keys, min_size=1, max_size=6, unique=True))
    values = draw(st.lists(_small, min_size=len(keys) - 1,
                           max_size=len(keys) - 1))
    rest = 1.0 - sum(values)
    big = draw(st.sampled_from([rest, 1.0, 1.0 - 1e-13, 0.99999999999995]))
    order = draw(st.permutations(range(len(keys))))
    row = {keys[i]: (values + [big])[i] for i in order}
    # summed left to right in the row's own order, as `Lexicon` sums it:
    # near the 1e-9 bound another order can round to the other side
    if abs(oracles._add(row.values()) - 1.0) <= 1e-9:
        return row
    return {keys[i]: (values + [rest])[i] for i in order}


_lexicons = st.builds(
    Lexicon, st.just("eng"),
    _keys.filter(lambda lang: lang not in ("", "eng") and "-" not in lang),
    st.dictionaries(_keys, _rows(), max_size=4),
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             max_size=3).map(tuple))


@given(_lexicons)
@example(Lexicon("eng", "zul", {}, ()))
@example(Lexicon("eng", "zul", {
    "b": {"y": 1.0 - 1e-13, "x": 1e-13, "\x00": 0.0},
    'a"\\': {"\U0001f600": 5e-324, "z": 1.0},
    "\n": {"m": sys.float_info.min, "l": 1.0 - sys.float_info.min}}, ()))
# -0.0, zero and subnormals beside 1, and values on either side of where
# 12 significant digits round to 1
@example(Lexicon("eng", "zul", {
    "c": {"x": 1.0, "y": -0.0, "z": 0.0, "w": 5e-324, "v": 1e-310},
    "d": {"x": 0.9999999999, "y": 1e-10},
    "e": {"x": 0.99999999999996, "y": 4e-14},
    "f": {"x": 0.99999999999949, "y": 5.1e-13}}, (0.5, -1e300, 5e-324)))
# a row within 1e-9 of 1 summed in its own order, but not in key order
@example(Lexicon("eng", "zul", {
    "g": {"z": 1.0, "a": 4.999998860885416e-10, "b": 5.00000137899049e-10}},
    ()))
@settings(max_examples=200, deadline=None)
def test_save_load_round_trips_exactly(lexicon_file, lexicon):
    loaded = Lexicon.load(lexicon.save(lexicon_file))
    assert (loaded.src_lang, loaded.tgt_lang) == (lexicon.src_lang,
                                                  lexicon.tgt_lang)
    assert loaded.table == lexicon.table
    assert loaded.log_likelihoods == lexicon.log_likelihoods


# Two translations 2 ulp apart: both print as 0.481090664975 at 12
# significant digits, where the argmax tie goes to the smaller word.
_NEAR_TIE = 0.481090664975
_NEAR_TIE_ROW = {"x": _NEAR_TIE, "y": _NEAR_TIE + 2 * math.ulp(_NEAR_TIE)}
_NEAR_TIE_ROW["z"] = 1.0 - _NEAR_TIE_ROW["x"] - _NEAR_TIE_ROW["y"]


def _write_parent_format(lexicon, path):
    """The format lexicons had before they were saved at full precision:
    `indent=1` JSON, each probability rounded to 12 significant digits."""
    path.write_text(json.dumps({
        "src_lang": lexicon.src_lang, "tgt_lang": lexicon.tgt_lang,
        "null_word": NULL_WORD,
        "log_likelihoods": list(lexicon.log_likelihoods),
        "table": {e: {f: float(f"{p:.12g}") for f, p in sorted(row.items())}
                  for e, row in sorted(lexicon.table.items())},
    }, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("write, stored, best", [
    (Lexicon.save, _NEAR_TIE_ROW, "y"),
    # an older file still loads, each value as written
    (_write_parent_format,
     {f: float(f"{p:.12g}") for f, p in _NEAR_TIE_ROW.items()}, "x"),
], ids=["save", "twelve-digit-file"])
def test_load_keeps_rows_as_written(tmp_path, write, stored, best):
    lexicon = Lexicon("eng", "zul", {"ukuyidb": _NEAR_TIE_ROW}, (-1.5,))
    assert lexicon.best_translation("ukuyidb") == "y"
    loaded = Lexicon.load(write(lexicon, tmp_path / "lex.json"))
    assert loaded.table == {"ukuyidb": stored}
    assert loaded.best_translation("ukuyidb") == best


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_save_refuses_a_non_finite_log_likelihood(tmp_path, value):
    lexicon = Lexicon("eng", "zul", {"a": {"x": 1.0}}, (-2.0, value))
    with pytest.raises(ValueError, match="not JSON compliant"):
        lexicon.save(tmp_path / "lex.json")
    assert list(tmp_path.iterdir()) == []


# -- the model protocol implementations ----------------------------------

def test_identity_translator_passes_through():
    model = IdentityTranslator()
    assert model.translate_batch(["a b", "c"], "eng", "zul") == ["a b", "c"]
    assert model.supported_directions() is None
    assert model.model_id == "identity"


def test_lexicon_translator_direction_guard():
    lex = Lexicon("eng", "zul", {"a": {"x": 1.0}})
    model = LexiconTranslator(lex)
    assert model.model_id == "lexicon:eng-zul"
    assert model.translate_batch(["a a"], "eng", "zul") == ["x x"]
    with pytest.raises(UnsupportedDirection):
        model.translate_batch(["a"], "zul", "eng")


def test_external_process_cat_is_identity():
    model = ExternalProcessTranslator("cat")
    sentences = ["one two", "three", "four five six"]
    assert model.translate_batch(sentences, "eng", "zul") == sentences
    assert model.translate_batch([], "eng", "zul") == []


def test_external_process_failures():
    with pytest.raises(ExternalProcessError):
        ExternalProcessTranslator("false").translate_batch(["a"], "eng", "zul")
    with pytest.raises(ExternalProcessError):
        # swallows its input, emits nothing: line counts cannot match
        ExternalProcessTranslator("true").translate_batch(["a"], "eng", "zul")
    with pytest.raises(ExternalProcessError):
        ExternalProcessTranslator("/no/such/binary").translate_batch(
            ["a"], "eng", "zul")


def test_external_process_timeout(monkeypatch):
    monkeypatch.setattr(translator, "EXTERNAL_START_TIMEOUT_S", 0.1)
    monkeypatch.setattr(translator, "EXTERNAL_SENTENCE_TIMEOUT_S", 0.05)
    command = f"{shlex.quote(sys.executable)} -c 'import time; time.sleep(30)'"
    started = time.monotonic()
    with pytest.raises(ExternalProcessError) as excinfo:
        ExternalProcessTranslator(command).translate_batch(["a", "b"], "eng",
                                                           "zul")
    assert time.monotonic() - started < 10
    assert str(excinfo.value) == (
        f"{command!r} ran longer than the 0.2 s limit for a batch of 2 "
        f"sentences; killed")


def test_external_process_slow_batch_within_limit(monkeypatch):
    # 40 lines at 0.03 s each outlast the start-up allowance alone; the
    # per-sentence allowance lets the batch finish
    monkeypatch.setattr(translator, "EXTERNAL_START_TIMEOUT_S", 0.5)
    monkeypatch.setattr(translator, "EXTERNAL_SENTENCE_TIMEOUT_S", 0.1)
    slow_echo = ("import sys, time\n"
                 "for line in sys.stdin:\n"
                 "    time.sleep(0.03); sys.stdout.write(line)")
    command = f"{shlex.quote(sys.executable)} -c {shlex.quote(slow_echo)}"
    sentences = [f"s{i}" for i in range(40)]
    started = time.monotonic()
    got = ExternalProcessTranslator(command).translate_batch(sentences,
                                                             "eng", "zul")
    assert time.monotonic() - started > 0.5
    assert got == sentences


def test_routing_translator_dispatch_and_copy():
    lex = Lexicon("eng", "zul", {"a": {"x": 1.0}})
    strict = RoutingTranslator({("eng", "zul"): LexiconTranslator(lex)})
    assert strict.translate_batch(["a"], "eng", "zul") == ["x"]
    assert strict.supported_directions() == frozenset({("eng", "zul")})
    with pytest.raises(UnsupportedDirection):
        strict.translate_batch(["a"], "zul", "eng")

    # copy-through is an explicit identity route
    copying = RoutingTranslator({("eng", "zul"): LexiconTranslator(lex),
                                 ("xho", "tsn"): IdentityTranslator()})
    assert copying.translate_batch(["a b"], "xho", "tsn") == ["a b"]
    assert copying.supported_directions() == frozenset(
        {("eng", "zul"), ("xho", "tsn")})


def test_load_translator_specs(tmp_path):
    assert isinstance(load_translator("exec:cat"), ExternalProcessTranslator)
    lex = Lexicon("eng", "zul", {"a": {"x": 1.0}})
    path = lex.save(tmp_path / "lex.json")
    model = load_translator(str(path))
    assert isinstance(model, LexiconTranslator)
    assert model.translate_batch(["a"], "eng", "zul") == ["x"]
