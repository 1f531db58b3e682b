import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mtkit import errors
from mtkit.vocab import (
    END_OF_WORD,
    LangCorpusSet,
    VocabConfig,
    Vocabulary,
    _MergeState,
    _mark_word,
    load_vocabulary,
    train_bpe,
    train_obpe,
)

N_SPECIAL = len(VocabConfig().special_tokens)


def data_of(sentences_by_lang):
    return LangCorpusSet({k: tuple(v) for k, v in sentences_by_lang.items()})


def alphabet_size(sentences_by_lang):
    syms = set()
    for sents in sentences_by_lang.values():
        for s in sents:
            for w in s.split():
                syms.update(oracles.mark(w))
    return len(syms)


def config_for(sentences_by_lang, budget, **kw):
    size = N_SPECIAL + alphabet_size(sentences_by_lang) + budget
    return VocabConfig(vocab_size=size, **kw)


# -- end-of-word marking ------------------------------------------------

def test_mark_word_appends_marker_to_last_char():
    assert _mark_word("go") == ["g", "o" + END_OF_WORD]
    assert _mark_word("now") == ["n", "o", "w" + END_OF_WORD]
    assert _mark_word("a") == ["a" + END_OF_WORD]


@given(st.text(alphabet="abc xyz", max_size=30))
def test_marked_words_join_restores_normalized_text(text):
    joined = "".join(sym for w in text.split()
                     for sym in _mark_word(w))
    assert joined.replace(END_OF_WORD, " ").split() == text.split()


# -- BPE training -------------------------------------------------------

def test_bpe_first_merge_highest_count():
    data = {"eng": ["ab ab ab ab ab", "ac ac"]}
    vocab = train_bpe(data_of(data), config_for(data, 1))
    assert vocab.merges == (("a", "b" + END_OF_WORD),)
    assert vocab.tokens[-1] == "ab" + END_OF_WORD


def test_bpe_zero_merges_on_distinct_single_chars():
    data = {"eng": ["a b c d e"]}
    vocab = train_bpe(data_of(data), config_for(data, 10))
    assert vocab.merges == ()


def test_bpe_stops_below_count_two():
    data = {"eng": ["abc"]}  # every pair occurs once
    vocab = train_bpe(data_of(data), config_for(data, 5))
    assert vocab.merges == ()


def test_bpe_tie_breaks_lexicographically():
    # (a,x</w>) and (b,y</w>) both occur twice; smaller pair merges first
    data = {"eng": ["by by ax ax"]}
    vocab = train_bpe(data_of(data), config_for(data, 1))
    assert vocab.merges == (("a", "x" + END_OF_WORD),)


@pytest.mark.parametrize("seed", range(25))
def test_bpe_matches_quadratic_oracle(seed):
    data = oracles.random_sentences_by_lang(seed)
    budget = 5 + seed * 11 % 296
    ref_merges, _, ref_counts = oracles.reference_bpe(data, budget)
    vocab = train_bpe(data_of(data), config_for(data, budget))
    assert list(vocab.merges) == ref_merges
    # greedy counts never increase step over step
    assert all(a >= b for a, b in zip(ref_counts, ref_counts[1:]))


def test_bpe_threads_do_not_change_the_result():
    data = oracles.random_sentences_by_lang(7)
    cfg = config_for(data, 40)
    jsons = []
    for threads in (1, 2, 8):
        v = train_bpe(data_of(data), cfg, threads=threads)
        jsons.append(json.dumps({"tokens": v.tokens, "merges": v.merges}))
    assert jsons[0] == jsons[1] == jsons[2]


def test_vocab_size_too_small():
    data = {"eng": ["ab"]}
    with pytest.raises(errors.VocabSizeTooSmall):
        train_bpe(data_of(data), VocabConfig(vocab_size=N_SPECIAL + 2))


def test_word_counts_are_counted_once_per_set():
    data = data_of({"eng": ["ab cd ab", "cd\t ef"], "zul": ["ab"]})
    counts = data.word_counts
    assert counts == {"eng": {"ab": 2, "cd": 2, "ef": 1}, "zul": {"ab": 1}}
    # both trainers read the one count, and leave it as it was
    cfg = config_for({"eng": ["ab cd ef"]}, budget=3)
    train_bpe(data, cfg)
    train_obpe(data, cfg)
    assert data.word_counts is counts
    assert counts == {"eng": {"ab": 2, "cd": 2, "ef": 1}, "zul": {"ab": 1}}


def test_empty_corpus_rejected():
    with pytest.raises(errors.EmptyCorpus):
        train_bpe(LangCorpusSet({}), VocabConfig())


def test_data_language_must_be_covered():
    data = {"eng": ["a"], "zul": ["b"]}
    cfg = VocabConfig(vocab_size=2000, hrl_langs=frozenset({"eng"}),
                      lrl_langs=frozenset({"afr"}))
    with pytest.raises(errors.InvalidConfig, match="zul"):
        train_bpe(data_of(data), cfg)


def test_hrl_lrl_overlap_rejected():
    with pytest.raises(errors.InvalidConfig):
        VocabConfig(hrl_langs=frozenset({"eng"}), lrl_langs=frozenset({"eng"}))


@pytest.mark.parametrize("field,value", [
    ("hrl_langs", "eng"), ("lrl_langs", "zul"), ("lrl_langs", {"zul": 1}),
    ("hrl_langs", 5), ("lrl_langs", [["zul"]]),
])
def test_vocab_config_wants_a_list_of_strings(field, value):
    """A string would otherwise become the set of its characters."""
    with pytest.raises(errors.InvalidConfig, match=f"{field} must be a list"):
        VocabConfig(**{field: value})


def test_saved_vocabulary_with_a_string_language_set_is_rejected(tmp_path):
    data = {"eng": ["ab ab"]}
    path = train_bpe(data_of(data), config_for(data, 1)).save(
        tmp_path / "v.json")
    doc = json.loads(path.read_text())
    doc["config"]["hrl_langs"] = "eng"
    path.write_text(json.dumps(doc))
    with pytest.raises(errors.InvalidConfig, match="hrl_langs must be a list"):
        load_vocabulary(path)


def test_check_covers_names_the_uncovered_languages():
    cfg = VocabConfig(hrl_langs=["eng"], lrl_langs=["afr"])
    cfg.check_covers(["afr", "eng"])
    with pytest.raises(errors.InvalidConfig, match=r"\['tsn', 'zul'\]"):
        cfg.check_covers(["eng", "zul", "tsn"])


# -- OBPE ---------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_obpe_exponent_one_reduces_to_bpe(seed):
    data = oracles.random_sentences_by_lang(seed + 100)
    budget = 5 + seed * 23 % 296
    cfg = config_for(data, budget, mean_exponent_p=1.0)
    assert train_obpe(data_of(data), cfg).merges == \
        train_bpe(data_of(data), cfg).merges


@pytest.mark.parametrize("p", [-2.0, 0.0, 0.5, 2.0])
def test_obpe_single_language_equals_bpe(p):
    source = oracles.random_sentences_by_lang(3)
    data = {"eng": source[sorted(source)[0]]}
    cfg = config_for(data, 30, mean_exponent_p=p)
    assert train_obpe(data_of(data), cfg).merges == \
        train_bpe(data_of(data), cfg).merges


# One pair (X) frequent in the HRL but absent from the LRL, another (Y)
# present in both at relative frequency 0.10. A negative exponent zeroes
# X's score, so Y merges first even though X has triple its pooled count.
OVERLAP_HRL = ["xy xy xy ab cd ef gh ij kl mn"]
OVERLAP_LRL = ["ab op qr st uv wz ce df gi hj"]
X = ("x", "y" + END_OF_WORD)
Y = ("a", "b" + END_OF_WORD)


def test_overlap_setup_has_documented_relative_frequencies():
    words, freqs, _ = oracles.word_table({"eng": OVERLAP_HRL})
    counts = oracles.count_pairs(words, freqs)
    assert sum(counts.values()) == 10 and counts[X] == 3 and counts[Y] == 1
    words, freqs, _ = oracles.word_table({"zul": OVERLAP_LRL})
    counts = oracles.count_pairs(words, freqs)
    assert sum(counts.values()) == 10 and counts[Y] == 1 and counts[X] == 0


def test_obpe_negative_exponent_prefers_shared_pair():
    data = {"eng": OVERLAP_HRL, "zul": OVERLAP_LRL}
    bpe = train_bpe(data_of(data), config_for(data, 2))
    obpe = train_obpe(data_of(data), config_for(data, 2, mean_exponent_p=-2.0))
    assert bpe.merges.index(X) < bpe.merges.index(Y)
    assert obpe.merges[0] == Y
    assert X not in obpe.merges  # zero score while absent from the LRL
    assert obpe.merges.index(Y) < bpe.merges.index(Y)


def test_obpe_score_matches_hand_formula():
    from mtkit.vocab import _obpe_best
    data = data_of({"eng": OVERLAP_HRL, "zul": OVERLAP_LRL})
    state = _MergeState(data)
    pair, score = _obpe_best(state, -2.0)
    assert pair == Y
    want = oracles.power_mean_score({"eng": 1, "zul": 1},
                                    {"eng": 10, "zul": 10}, -2.0)
    assert score == pytest.approx(want, rel=1e-12)
    # and the p=1 path reproduces the pooled relative count of X
    pair1, score1 = _obpe_best(state, 1.0)
    assert pair1 == X
    assert score1 == pytest.approx(3 / 20, rel=1e-12)


def test_obpe_stops_when_all_scores_zero():
    # every cross-language pair is absent somewhere: p<0 stops immediately
    data = {"eng": ["aa aa"], "zul": ["bb bb"]}
    vocab = train_obpe(data_of(data), config_for(data, 5, mean_exponent_p=-2.0))
    assert vocab.merges == ()


@pytest.mark.parametrize("p", [-2.0, -0.5, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("seed", range(16))
def test_obpe_matches_full_recount_oracle(seed, p):
    """The incremental trainer gives the merge list of
    `oracles.reference_obpe`, which recounts every pair at every step."""
    data = oracles.random_sentences_by_lang(seed + 200)
    budget = 5 + seed * 37 % 150
    cfg = config_for(data, budget, mean_exponent_p=p)
    assert list(train_obpe(data_of(data), cfg).merges) == \
        oracles.reference_obpe(data, budget, p)


@pytest.mark.parametrize("p", [-2.0, -0.5, 0.0, 0.5, 2.0])
def test_obpe_matches_oracle_with_a_language_without_pairs(p):
    """A language of one-character words has a pair total of 0 and so a
    weight of 0."""
    data = {**oracles.random_sentences_by_lang(7), "ssw": ["a b c a b"]}
    cfg = config_for(data, 40, mean_exponent_p=p)
    assert list(train_obpe(data_of(data), cfg).merges) == \
        oracles.reference_obpe(data, 40, p)


# -- the trainer's merge state -------------------------------------------

def assert_state_is_recount(state):
    assert (state.pair_pooled, state.pair_bylang, state._support,
            state.full_support, state.pair_words, state.lang_totals) == \
        oracles.recount_merge_state(state.words, state.freqs, state.word_lang,
                                    len(state.langs))


@pytest.mark.parametrize("p", [None, -2.0, 0.0, 2.0], ids=[
    "bpe", "obpe-p-2", "obpe-p0", "obpe-p2"])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_merge_state_equals_a_recount_after_every_merge(p, seed):
    """Replays the merges a trainer learned on a fresh state. After each
    one, the state equals a recount of its words, and `apply_merge`
    returned every pair whose count changed."""
    data = oracles.random_sentences_by_lang(seed)
    if p is None:
        vocab = train_bpe(data_of(data), config_for(data, 60))
    else:
        vocab = train_obpe(data_of(data),
                           config_for(data, 60, mean_exponent_p=p))
    state = _MergeState(data_of(data))
    assert_state_is_recount(state)

    def counts():
        return {pair: (c, list(state.pair_bylang[pair]))
                for pair, c in state.pair_pooled.items()}

    for pair in vocab.merges:
        before = counts()
        touched = state.apply_merge(pair)
        assert_state_is_recount(state)
        after = counts()
        assert {q for q in before.keys() | after.keys()
                if before.get(q) != after.get(q)} <= touched


# -- encode / decode ----------------------------------------------------

def test_encode_matches_trainer_final_state():
    data = oracles.random_sentences_by_lang(42)
    vocab = train_bpe(data_of(data), config_for(data, 60))
    segs = vocab.trainer_segmentations
    assert segs
    for (lang, _), symbols in segs.items():
        word = "".join(symbols).replace(END_OF_WORD, "")
        assert vocab.segment(word) == symbols


def test_encode_applies_merges_in_training_order():
    data = oracles.random_sentences_by_lang(43)
    vocab = train_bpe(data_of(data), config_for(data, 60))
    for sent in list(data.values())[0][:10]:
        want = [sym for w in sent.split()
                for sym in oracles.reference_encode(w, list(vocab.merges))]
        assert vocab.segment(sent) == want


def test_encode_single_merge_example():
    data = {"eng": ["ab ab ab ab ab"]}
    vocab = train_bpe(data_of(data), config_for(data, 1))
    assert vocab.segment("ab") == ["ab" + END_OF_WORD]


def test_encode_empty_and_unknown():
    data = {"eng": ["ab ab"]}
    vocab = train_bpe(data_of(data), config_for(data, 1))
    assert vocab.encode("") == []
    ids = vocab.encode("aQb")
    assert vocab.unk_id in ids
    assert "<unk>" in vocab.decode(ids)


def test_decode_round_trips_whitespace_normalized():
    data = oracles.random_sentences_by_lang(5)
    vocab = train_bpe(data_of(data), config_for(data, 25))
    for sent in list(data.values())[0][:10]:
        assert vocab.decode(vocab.encode(sent)) == " ".join(sent.split())


def test_decode_rejects_out_of_range_ids():
    data = {"eng": ["ab ab"]}
    vocab = train_bpe(data_of(data), config_for(data, 1))
    with pytest.raises(errors.UnknownId):
        vocab.decode([len(vocab.tokens)])
    with pytest.raises(errors.UnknownId):
        vocab.decode([-1])


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="abcdefgh ", min_size=0, max_size=40))
def test_encode_never_longer_than_character_segmentation(text):
    data = {"eng": ["abab cdcd efef ghgh abcd"]}
    vocab = train_bpe(data_of(data), config_for(data, 10))
    n_symbols = sum(len(w) for w in text.split())
    assert len(vocab.encode(text)) <= n_symbols


@st.composite
def _vocab_and_texts(draw):
    """A random BPE vocabulary and texts over its words, repeated, plus
    words with characters it has never seen."""
    data = oracles.random_sentences_by_lang(draw(st.integers(0, 2**16)),
                                            max_sentences=30)
    vocab = train_bpe(data_of(data),
                      config_for(data, draw(st.integers(1, 40))))
    known = sorted({w for sents in data.values() for s in sents
                    for w in s.split()})
    word = st.sampled_from(known) | st.text(
        alphabet="abQé漢😀", min_size=1, max_size=4)
    space = st.sampled_from([" ", "  ", "\t", "\u00a0"])
    text = st.lists(st.tuples(word, space), max_size=8).map(
        lambda parts: "".join(w + sp for w, sp in parts))
    return vocab, draw(st.lists(text, min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(_vocab_and_texts())
def test_surface_line_equals_joined_segments(case):
    vocab, texts = case
    for _ in range(2):  # a cold surface cache, then a warm one
        for text in texts:
            assert vocab.surface_line(text) == " ".join(vocab.segment(text))


# -- persistence --------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    data = oracles.random_sentences_by_lang(11)
    vocab = train_obpe(data_of(data), config_for(data, 20, mean_exponent_p=-2.0))
    path = vocab.save(tmp_path / "v.json")
    loaded = load_vocabulary(path)
    assert loaded == vocab
    assert loaded.encode("abab") == vocab.encode("abab")


def test_load_rejects_unreachable_token(tmp_path):
    data = {"eng": ["ab ab"]}
    vocab = train_bpe(data_of(data), config_for(data, 1))
    path = vocab.save(tmp_path / "v.json")
    payload = json.loads(path.read_text())
    payload["tokens"].append("zzz")
    payload["config"]["vocab_size"] += 1
    path.write_text(json.dumps(payload))
    with pytest.raises(errors.InvalidConfig, match="unreachable"):
        load_vocabulary(path)


def test_load_rejects_merge_with_unknown_input(tmp_path):
    data = {"eng": ["ab ab"]}
    vocab = train_bpe(data_of(data), config_for(data, 1))
    path = vocab.save(tmp_path / "v.json")
    payload = json.loads(path.read_text())
    payload["merges"].append(["no", "pe"])
    path.write_text(json.dumps(payload))
    with pytest.raises(errors.InvalidConfig, match="merge"):
        load_vocabulary(path)


@pytest.mark.parametrize("damage", [
    "duplicate-last-token", "unreachable-token", "unknown-merge-input",
    "specials-moved", "too-many-tokens", "bad-mode", "no-merges",
    "merges-not-pairs", "tokens-not-strings", "bad-config"])
def test_load_names_the_file_in_every_structural_error(tmp_path, damage):
    data = {"eng": ["ab ab abc abc"]}
    vocab = train_bpe(data_of(data), config_for(data, 2))
    path = vocab.save(tmp_path / "v.json")
    payload = json.loads(path.read_text())
    tokens = payload["tokens"]
    if damage == "duplicate-last-token":
        tokens[-1] = tokens[-2]
    elif damage == "unreachable-token":
        tokens.append("zzz")
        payload["config"]["vocab_size"] += 1
    elif damage == "unknown-merge-input":
        payload["merges"].append(["no", "pe"])
    elif damage == "specials-moved":
        tokens[0], tokens[1] = tokens[1], tokens[0]
    elif damage == "too-many-tokens":
        payload["config"]["vocab_size"] = len(tokens) - 1
    elif damage == "bad-mode":
        payload["mode"] = "wordpiece"
    elif damage == "no-merges":
        del payload["merges"]
    elif damage == "merges-not-pairs":
        payload["merges"][0].append("c")
    elif damage == "tokens-not-strings":
        tokens[-1] = 7
    else:
        payload["config"]["vocab_size"] = True
    path.write_text(json.dumps(payload))
    with pytest.raises(errors.InvalidConfig,
                       match=re.escape(f"vocabulary {path}: ")):
        load_vocabulary(path)


def test_token_ids_are_contiguous_with_specials_first():
    data = {"eng": ["ab ab"]}
    cfg = config_for(data, 1)
    vocab = train_bpe(data_of(data), cfg)
    assert vocab.tokens[:N_SPECIAL] == cfg.special_tokens
    assert len(vocab.tokens) <= cfg.vocab_size
    assert vocab.token_id("<src:zul>") is not None
