import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_corpus, small_vocab
from mtkit import dataset_builder
from mtkit.corpus import Provenance, SentencePair, orient
from mtkit.dataset_builder import (
    BalancePlan,
    DirectionSpec,
    MixtureSlice,
    TrainingMixture,
    build_stage1_mixture,
    build_stage2_mixture,
    export_mixture,
    make_balance_plan,
    parse_direction,
    stage2_problems,
)
from mtkit.errors import (
    MissingCorpus,
    MissingTagToken,
    NonEnglishCorpus,
    PlanCoverage,
    UnsupportedDirection,
)
from mtkit.translator import IdentityTranslator, RoutingTranslator
from mtkit.vocab import Vocabulary

DATA = {
    "eng": ["the cat sat", "a dog ran", "birds fly south"],
    "zul": ["aba kha lu", "kha lu", "lulu aba kha"],
    "xho": ["molo aba", "kha molo lu"],
}


def pair_corpus(n, name, src, tgt, **kw):
    return make_corpus([(f"s{i} aba", f"t{i} kha") for i in range(n)],
                       name=name, src=src, tgt=tgt, **kw)


# -- direction specs -----------------------------------------------------

def test_direction_spec_and_parse():
    d = parse_direction("xho-zul")
    assert d == DirectionSpec("xho", "zul")
    assert d.label == "xho-zul"
    assert d.languages == frozenset({"xho", "zul"})
    with pytest.raises(ValueError):
        parse_direction("xho")
    with pytest.raises(ValueError):
        DirectionSpec("xho", "xho")
    # the role follows from the languages: English-centric is stage 1's
    assert DirectionSpec("eng", "zul").role == "old"
    assert DirectionSpec("zul", "eng").role == "old"
    assert d.role == "new"
    assert d.reversed() == DirectionSpec("zul", "xho")
    assert make_corpus([("a", "b")], src="zul", tgt="xho").direction == \
        d.reversed()
    # equal to and hashed as its (src, tgt) tuple, so a DirectionSpec-keyed
    # dict routes translate_batch(..., src, tgt) as it is
    assert d == ("xho", "zul") and hash(d) == hash(("xho", "zul"))
    router = RoutingTranslator({d: IdentityTranslator()})
    assert router.translate_batch(["molo"], "xho", "zul") == ["molo"]
    assert ("xho", "zul") in router.supported_directions()
    with pytest.raises(UnsupportedDirection):
        router.translate_batch(["molo"], "zul", "xho")
    labels = ["xho-zul", "eng-zul", "afr-eng", "zul-xho", "eng-afr",
              "ssw-tsn"]
    assert [x.label for x in sorted(map(parse_direction, labels))] == \
        sorted(labels)
    for bad in ("xho", "xho-xho", "a-b-c", "xho-", "-zul", "-", "xho--zul"):
        with pytest.raises(ValueError):
            parse_direction(bad)
    # a side is never empty and never holds '-', so every label reads back
    for src, tgt in (("xho", ""), ("", "zul"), ("xho-zul", "eng"),
                     ("eng", "-")):
        with pytest.raises(ValueError, match="is empty or holds '-'"):
            DirectionSpec(src, tgt)
    for label in labels:
        assert parse_direction(parse_direction(label).label).label == label
    with pytest.raises(ValueError, match="is empty or holds '-'"):
        make_balance_plan(["xho-"])


# -- tagging -------------------------------------------------------------

def test_export_prepends_tag_surfaces(tmp_path):
    vocab = small_vocab(DATA, budget=4)
    corpus = make_corpus([("the cat", "aba kha")], name="ez")
    mixture = TrainingMixture("stage1", (MixtureSlice(
        corpus, DirectionSpec("eng", "zul"), (0,)),), seed=0)
    result = export_mixture(mixture, vocab, tmp_path)
    assert result.src_path.read_text() == " ".join(
        ["<src:eng>"] + vocab.segment("the cat")) + "\n"
    assert result.tgt_path.read_text() == " ".join(
        ["<tgt:zul>"] + vocab.segment("aba kha")) + "\n"


def test_tag_direction_missing_tag_token(tmp_path):
    vocab = small_vocab(DATA, budget=2)
    corpus = make_corpus([("a", "b")], name="fz", src="fra", tgt="zul")
    mixture = TrainingMixture("stage2", (MixtureSlice(
        corpus, DirectionSpec("fra", "zul"), (0,)),), seed=0)
    with pytest.raises(MissingTagToken, match="<src:fra>"):
        export_mixture(mixture, vocab, tmp_path)


def test_export_rejects_a_slice_its_corpus_cannot_serve(tmp_path):
    vocab = small_vocab(DATA, budget=2)
    corpus = make_corpus([("the cat", "aba kha")], name="ez")
    for direction in (DirectionSpec("eng", "xho"), DirectionSpec("xho", "zul")):
        mixture = TrainingMixture("stage2", (MixtureSlice(
            corpus, direction, (0,)),), seed=0)
        with pytest.raises(MissingCorpus, match="ez cannot serve"):
            export_mixture(mixture, vocab, tmp_path)
    assert not list(tmp_path.iterdir())


# -- stage 1 -------------------------------------------------------------

def test_stage1_uses_both_directions_of_everything():
    corpora = [pair_corpus(4, "ez", "eng", "zul"),
               pair_corpus(3, "xe", "xho", "eng")]
    mixture = build_stage1_mixture(corpora, seed=1)
    assert mixture.stage == "stage1"
    assert mixture.direction_counts() == {
        "eng-zul": 4, "zul-eng": 4, "xho-eng": 3, "eng-xho": 3}
    assert mixture.total() == 14
    for s in mixture.slices:
        assert s.indices == tuple(range(len(s.corpus)))
        assert s.direction.role == "old"


def test_stage1_rejects_non_english_corpus():
    with pytest.raises(NonEnglishCorpus):
        build_stage1_mixture([pair_corpus(3, "xz", "xho", "zul")])


def test_oriented_pairs_flip():
    corpus = pair_corpus(3, "ez", "eng", "zul",
                         src_provenance=Provenance("synthetic", "bt"))
    assert orient(corpus, "eng", "zul") == corpus
    fwd = orient(corpus, "eng", "zul", (0, 2))
    rev = orient(corpus, "zul", "eng", (0, 2))
    assert [(p.src, p.tgt) for p in fwd.pairs] == \
        [("s0 aba", "t0 kha"), ("s2 aba", "t2 kha")]
    assert [(p.src, p.tgt) for p in rev.pairs] == \
        [("t0 kha", "s0 aba"), ("t2 kha", "s2 aba")]
    # provenance travels with its side
    assert (rev.src_lang, rev.tgt_lang) == ("zul", "eng")
    assert rev.src_provenance == Provenance("real")
    assert rev.tgt_provenance == Provenance("synthetic", "bt")
    with pytest.raises(MissingCorpus):
        orient(corpus, "xho", "eng", (0,))


_SIDE = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\n\r\v\f\x85\u2028\u2029"),
    min_size=1, max_size=12).filter(str.strip)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_SIDE, _SIDE), min_size=1, max_size=8),
       st.data())
def test_orient_flip_equals_constructed_pairs(rows, data):
    corpus = make_corpus(rows, name="ez")
    indices = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=8))
    for picked in (None, indices):
        flipped = orient(corpus, "zul", "eng", picked).pairs
        source = corpus.pairs if picked is None else \
            [corpus.pairs[i] for i in picked]
        assert len(flipped) == len(source)
        for got, pair in zip(flipped, source):
            want = SentencePair(pair.tgt, pair.src)
            assert type(got) is SentencePair
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            assert not hasattr(got, "__dict__")
            assert got == want


def test_slice_synthetic_flag():
    synth = pair_corpus(2, "bt", "eng", "zul",
                        src_provenance=Provenance("synthetic", "m"))
    s = MixtureSlice(synth, DirectionSpec("eng", "zul"), (0, 1))
    assert s.synthetic


# -- balance plans -------------------------------------------------------

def test_make_balance_plan_matching_rule():
    plan = make_balance_plan(["xho-zul", "ssw-tsn"])
    entry = plan.entries[0]
    assert entry.new.label == "xho-zul"
    assert [o.label for o in entry.old] == ["xho-eng", "eng-zul"]
    assert plan.entries[1].new.label == "ssw-tsn"
    assert [o.label for o in plan.entries[1].old] == ["ssw-eng", "eng-tsn"]


def test_plan_json_holds_the_matching_rule(tmp_path):
    """plan.json records each entry of `make_balance_plan` as its new
    direction and its two old ones, in that key order."""
    path = make_balance_plan(["xho-zul", "ssw-tsn"]).save(
        tmp_path / "plan.json")
    entries = json.loads(path.read_text())["entries"]
    assert entries == [{"new": "xho-zul", "old": ["xho-eng", "eng-zul"]},
                       {"new": "ssw-tsn", "old": ["ssw-eng", "eng-tsn"]}]
    assert all(list(e) == ["new", "old"] for e in entries)


# -- stage 2 -------------------------------------------------------------

def stage2_fixture():
    old = [pair_corpus(38, "ex", "eng", "xho"),
           pair_corpus(86, "ez", "eng", "zul"),
           pair_corpus(30, "et", "eng", "tsn")]
    new = [pair_corpus(10, "xz", "xho", "zul")]
    plan = make_balance_plan(["xho-zul"])
    return old, new, plan


def test_stage2_matches_old_directions_to_new_size():
    old, new, plan = stage2_fixture()
    mixture = build_stage2_mixture(old, new, plan, seed=7)
    counts = mixture.direction_counts()
    assert counts["xho-zul"] == 10
    assert counts["xho-eng"] == 10
    assert counts["eng-zul"] == 10
    # unmatched directions fall back to the median new size
    assert counts["eng-xho"] == 10
    assert counts["zul-eng"] == 10
    assert counts["eng-tsn"] == 10
    assert counts["tsn-eng"] == 10


def test_stage2_new_size_and_default_cap():
    """Matched old directions take the new corpus's size; the others take
    default_cap."""
    old, _, plan = stage2_fixture()
    new = [pair_corpus(6, "xz", "xho", "zul")]
    mixture = build_stage2_mixture(old, new, plan, seed=7, default_cap=3)
    counts = mixture.direction_counts()
    assert counts["xho-zul"] == 6
    assert counts["xho-eng"] == 6 and counts["eng-zul"] == 6
    assert counts["eng-xho"] == 3 and counts["tsn-eng"] == 3


def test_stage2_never_oversamples_small_old_corpora():
    old = [pair_corpus(4, "ex", "eng", "xho"),
           pair_corpus(86, "ez", "eng", "zul")]
    new = [pair_corpus(10, "xz", "xho", "zul")]
    mixture = build_stage2_mixture(old, new, make_balance_plan(["xho-zul"]),
                                   seed=0)
    counts = mixture.direction_counts()
    assert counts["xho-eng"] == 4  # all there is
    assert counts["eng-zul"] == 10


def test_stage2_per_slice_seeding_is_stable():
    old, new, plan = stage2_fixture()
    a = build_stage2_mixture(old, new, plan, seed=7)
    b = build_stage2_mixture(old, new, plan, seed=7)
    assert [s.indices for s in a.slices] == [s.indices for s in b.slices]
    c = build_stage2_mixture(old, new, plan, seed=8)
    assert [s.indices for s in a.slices] != [s.indices for s in c.slices]


def test_stage2_slice_indices_deterministic_and_ordered():
    old = [pair_corpus(50, "ex", "eng", "xho"),
           pair_corpus(50, "ez", "eng", "zul")]
    new = [pair_corpus(10, "xz", "xho", "zul")]
    plan = make_balance_plan(["xho-zul"])
    a = build_stage2_mixture(old, new, plan, seed=42)
    b = build_stage2_mixture(old, new, plan, seed=42)
    assert [s.indices for s in a.slices] == [s.indices for s in b.slices]
    sampled = [s for s in a.slices if s.corpus.name != "xz"]
    assert sampled and all(s.count == 10 for s in sampled)
    for s in sampled:
        assert list(s.indices) == sorted(s.indices)
    c = build_stage2_mixture(old, new, plan, seed=43)
    # different seed, different sample
    assert [s.indices for s in c.slices if s.corpus.name != "xz"] != \
        [s.indices for s in sampled]


def test_stage2_slice_sizes_and_bounds():
    old = [pair_corpus(5, "ex", "eng", "xho"),
           pair_corpus(8, "ez", "eng", "zul")]
    new = [pair_corpus(5, "xz", "xho", "zul")]
    plan = make_balance_plan(["xho-zul"])
    mixture = build_stage2_mixture(old, new, plan, seed=0)
    for s in mixture.slices:
        if len(s.corpus) == 5:
            # the whole corpus when it holds no more than asked for
            assert s.indices == tuple(range(5))
        else:
            assert s.count == 5
            assert all(0 <= i < 8 for i in s.indices)
    # a new corpus without pairs sizes every slice, and the cap, at 0
    empty = [pair_corpus(0, "xz", "xho", "zul")]
    mixture = build_stage2_mixture(old, empty, plan, seed=0)
    assert mixture.total() == 0


@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
@settings(max_examples=25, deadline=None)
def test_stage2_slice_indices_are_a_subsequence(seed, n_new):
    old = [pair_corpus(30, "ex", "eng", "xho"),
           pair_corpus(25, "ez", "eng", "zul")]
    new = [pair_corpus(n_new, "xz", "xho", "zul")]
    plan = make_balance_plan(["xho-zul"])
    mixture = build_stage2_mixture(old, new, plan, seed=seed)
    for s in mixture.slices:
        assert list(s.indices) == sorted(set(s.indices))
        assert all(0 <= i < len(s.corpus) for i in s.indices)
        # matched directions take n_new; the cap is the median new size
        assert s.count == min(len(s.corpus), n_new)
    again = build_stage2_mixture(old, new, plan, seed=seed)
    assert [s.indices for s in again.slices] == \
        [s.indices for s in mixture.slices]


def test_stage2_coverage_and_missing_corpus_errors():
    old, new, plan = stage2_fixture()
    with pytest.raises(PlanCoverage):
        build_stage2_mixture(old, new + [pair_corpus(5, "st", "ssw", "tsn")],
                             plan, seed=0)
    with pytest.raises(PlanCoverage):
        build_stage2_mixture(old[:1], new, plan, seed=0)  # no eng-zul corpus
    with pytest.raises(PlanCoverage):
        build_stage2_mixture(old + [pair_corpus(4, "ez2", "eng", "zul")],
                             new, plan, seed=0)  # duplicated eng-zul


def test_stage2_rejects_two_new_corpora_on_one_pair():
    old, new, plan = stage2_fixture()
    with pytest.raises(PlanCoverage, match="xho-zul and zul-xho share their "
                                           "languages"):
        build_stage2_mixture(old, new + [pair_corpus(4, "zx", "zul", "xho")],
                             plan, seed=0)


def test_stage2_rejects_two_plan_entries_for_one_new_corpus():
    old, new, plan = stage2_fixture()
    with pytest.raises(PlanCoverage, match="2 entries for new direction "
                                           "xho-zul, want exactly 1"):
        build_stage2_mixture(old, new, BalancePlan(plan.entries * 2), seed=0)


def test_stage2_problems_names_what_each_is_about():
    old, _, _ = stage2_fixture()
    old += [pair_corpus(3, "xz", "xho", "zul"), pair_corpus(3, "ze", "zul",
                                                             "eng")]
    new = [parse_direction(label)
           for label in ("ssw-tsn", "tsn-ssw", "eng-ssw")]
    plan = make_balance_plan(["ssw-tsn", "xho-ssw"])
    assert stage2_problems(old, new, plan) == [
        ("old", "xz (xho-zul) has no English side; stage 1 is "
                "English-centric"),
        ("old", "ez and ze share their languages; each language pair may "
                "appear once"),
        ("new", "ssw-tsn and tsn-ssw share their languages; each language "
                "pair may appear once"),
        ("new", "eng-ssw involves eng; new directions are the non-English "
                "ones"),
        ("plan", "0 entries for new direction eng-ssw, want exactly 1"),
        ("plan", "entry ssw-tsn: no English-centric corpus serves ssw-eng"),
        ("plan", "entry xho-ssw serves no new direction of the run"),
        ("plan", "entry xho-ssw: no English-centric corpus serves eng-ssw"),
    ]
    # without a plan, only the corpora and the directions are checked
    assert stage2_problems(old, new, None) == \
        stage2_problems(old, new, plan)[:4]


# -- export --------------------------------------------------------------

def test_export_writes_aligned_tagged_shuffled_files(tmp_path):
    vocab = small_vocab(DATA, budget=6)
    corpora = [make_corpus(list(zip(DATA["eng"], DATA["zul"])), name="ez",
                           src="eng", tgt="zul")]
    mixture = build_stage1_mixture(corpora, seed=5)
    result = export_mixture(mixture, vocab, tmp_path)
    src_lines = result.src_path.read_text().splitlines()
    tgt_lines = result.tgt_path.read_text().splitlines()
    assert len(src_lines) == len(tgt_lines) == mixture.total() == 6
    for s, t in zip(src_lines, tgt_lines):
        assert s.split()[0].startswith("<src:")
        assert t.split()[0].startswith("<tgt:")

    sidecar = json.loads(result.sidecar_path.read_text())
    assert sidecar["total"] == 6
    assert sidecar["directions"] == result.direction_counts
    # sidecar counts audit against a tag recount in the emitted file
    for label, count in sidecar["directions"].items():
        src_lang = label.split("-")[0]
        tagged = sum(1 for line in src_lines
                     if line.split()[0] == f"<src:{src_lang}>")
        assert tagged == count


def test_export_round_trips_sentences():
    import tempfile
    vocab = small_vocab(DATA, budget=6)
    corpora = [make_corpus(list(zip(DATA["eng"], DATA["zul"])), name="ez",
                           src="eng", tgt="zul")]
    mixture = build_stage1_mixture(corpora, seed=5)
    with tempfile.TemporaryDirectory() as d:
        result = export_mixture(mixture, vocab, d)
        src_lines = result.src_path.read_text().splitlines()
    # stripping the tag and undoing the segmentation recovers each sentence
    recovered = set()
    for line in src_lines:
        toks = line.split()[1:]
        recovered.add(vocab.decode([vocab.token_id(t) for t in toks]))
    assert recovered == set(DATA["eng"]) | set(DATA["zul"])


def test_export_deterministic_and_thread_invariant(tmp_path):
    vocab = small_vocab(DATA, budget=6)
    old = [pair_corpus(20, "ex", "eng", "xho"),
           pair_corpus(25, "ez", "eng", "zul")]
    new = [pair_corpus(8, "xz", "xho", "zul")]
    mixture = build_stage2_mixture(old, new, make_balance_plan(["xho-zul"]),
                                   seed=3)
    outputs = []
    for i, threads in enumerate((1, 2, 8)):
        out = tmp_path / f"run{i}"
        result = export_mixture(mixture, vocab, out, threads=threads)
        outputs.append((result.src_path.read_bytes(),
                        result.tgt_path.read_bytes(),
                        result.sidecar_path.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_export_equals_per_sentence_reference(tmp_path, seed):
    text = oracles.random_sentences_by_lang(seed, max_sentences=60)
    vocab = small_vocab(text, budget=8)
    rng = random.Random(seed)

    def sentences(n):
        # corpus words, repeated, plus characters the vocabulary lacks
        words = [w for sents in text.values() for s in sents
                 for w in s.split()] + ["Qé", "漢", "😀x"]
        return [" ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
                for _ in range(n)]

    old = [make_corpus(list(zip(sentences(n), sentences(n))),
                       name=f"eng-{lang}", src="eng", tgt=lang)
           for n, lang in zip((30, 17, 9), ("xho", "zul", "tsn"))]
    new = [make_corpus(list(zip(sentences(12), sentences(12))),
                       name="zul-xho", src="zul", tgt="xho")]
    mixture = build_stage2_mixture(old, new, make_balance_plan(["xho-zul"]),
                                   seed=seed)
    assert any(s.corpus.src_lang != s.direction.src for s in mixture.slices)
    want = oracles.reference_export(mixture, vocab)
    for threads in (1, 2, 8):
        # a fresh vocabulary each time: the caches start cold
        fresh = Vocabulary(vocab.mode, vocab.tokens, vocab.merges,
                           vocab.config)
        result = export_mixture(mixture, fresh, tmp_path / f"t{threads}",
                                threads=threads)
        assert (result.src_path.read_bytes(),
                result.tgt_path.read_bytes()) == want
        # and again on warm caches
        again = export_mixture(mixture, fresh, tmp_path / f"w{threads}",
                               threads=threads)
        assert (again.src_path.read_bytes(),
                again.tgt_path.read_bytes()) == want


def test_export_renders_repeated_sentences_like_the_reference(tmp_path):
    """One corpus read in both directions and twice in one slice, a
    sentence repeated inside it, and sides with a tab or a double space:
    the rows still equal the per-sentence reference, cold or warm."""
    vocab = small_vocab(DATA, budget=6)
    ez = make_corpus([("the cat sat", "aba kha lu"), ("a  dog", "kha\tlu"),
                      ("the cat sat", "aba kha lu"), ("birds fly", "kha\tlu"),
                      ("a  dog", "lulu aba")], name="ez")
    xz = make_corpus([("molo  aba", "kha lu"), ("kha\tmolo", "aba kha lu")],
                     name="xz", src="xho", tgt="zul")
    mixture = TrainingMixture("stage2", (
        MixtureSlice(ez, DirectionSpec("eng", "zul"), (0, 1, 2, 3, 4)),
        MixtureSlice(ez, DirectionSpec("zul", "eng"), (4, 2, 1, 1)),
        MixtureSlice(xz, DirectionSpec("xho", "zul"), (0, 1)),
        MixtureSlice(xz, DirectionSpec("zul", "xho"), (1,)),
    ), seed=7)
    want = oracles.reference_export(mixture, vocab)
    # a fresh vocabulary: its surface cache starts cold
    fresh = Vocabulary(vocab.mode, vocab.tokens, vocab.merges, vocab.config)
    for run in ("cold", "warm"):
        result = export_mixture(mixture, fresh, tmp_path / run)
        assert (result.src_path.read_bytes(),
                result.tgt_path.read_bytes()) == want, run
    assert want[0].count(b"\n") == mixture.total() == 12


_CHUNK_VOCAB = small_vocab(DATA, budget=6)
_CHUNK_WORDS = [w for sents in DATA.values() for s in sents
                for w in s.split()] + ["Qé", "漢", "😀x"]
_CHUNK_SENTENCE = st.lists(st.sampled_from(_CHUNK_WORDS), min_size=1,
                           max_size=5).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), multiple=st.integers(1, 3),
       delta=st.sampled_from([-1, 0, 1]), data=st.data())
def test_chunked_export_equals_whole_file_reference(k, multiple, delta,
                                                    data):
    """Files written `EXPORT_CHUNK_ROWS` rows at a time equal the whole
    files of `oracles.reference_export`, for row counts one below, at and
    one above multiples of the chunk size, down to a single row."""
    import tempfile
    n = max(multiple * k + delta, 1)
    rows = data.draw(st.lists(st.tuples(_CHUNK_SENTENCE, _CHUNK_SENTENCE),
                              min_size=n, max_size=n))
    corpus = make_corpus(rows, name="ez")
    direction = data.draw(st.sampled_from([DirectionSpec("eng", "zul"),
                                           DirectionSpec("zul", "eng")]))
    mixture = TrainingMixture("stage2", (
        MixtureSlice(corpus, direction, tuple(range(n))),),
        seed=data.draw(st.integers(0, 2**32 - 1)))
    want = oracles.reference_export(mixture, _CHUNK_VOCAB)
    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as out:
        patch.setattr(dataset_builder, "EXPORT_CHUNK_ROWS", k)
        result = export_mixture(mixture, _CHUNK_VOCAB, out)
        got = (result.src_path.read_bytes(), result.tgt_path.read_bytes())
    assert got == want
    assert want[0].count(b"\n") == n


def test_export_shuffles_with_seed(tmp_path):
    vocab = small_vocab(DATA, budget=6)
    corpora = [pair_corpus(40, "ez", "eng", "zul")]
    m1 = build_stage1_mixture(corpora, seed=1)
    m2 = build_stage1_mixture(corpora, seed=2)
    r1 = export_mixture(m1, vocab, tmp_path / "a")
    r2 = export_mixture(m2, vocab, tmp_path / "b")
    lines1 = r1.src_path.read_text().splitlines()
    lines2 = r2.src_path.read_text().splitlines()
    assert sorted(lines1) == sorted(lines2)  # same content
    assert lines1 != lines2                  # different order
