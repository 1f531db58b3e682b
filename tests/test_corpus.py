import json
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkit import errors
from mtkit.corpus import (
    _LINE_BREAKS,
    BitextCorpus,
    Provenance,
    SentencePair,
    concat_corpora,
    corpus_stats,
    load_bitext,
    split_lines,
    split_validation,
    write_bitext,
)


def make_corpus(pairs, name="toy", src="eng", tgt="zul", **kw):
    return BitextCorpus(
        name=name, src_lang=src, tgt_lang=tgt,
        pairs=tuple(SentencePair(s, t) for s, t in pairs), **kw)


SAMPLE = [("the cow", "inkomo"), ("water", "amanzi"), ("go now", "hamba manje")]


def test_round_trip_is_bit_identical(tmp_path):
    corpus = make_corpus(SAMPLE)
    manifest = write_bitext(corpus, tmp_path)
    loaded = load_bitext(manifest)
    assert loaded == corpus
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    write_bitext(loaded, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_load_normalizes_to_nfc(tmp_path):
    decomposed = unicodedata.normalize("NFD", "café")
    assert decomposed != "café"
    src = tmp_path / "c.eng"
    tgt = tmp_path / "c.zul"
    src.write_text(decomposed + "\n", encoding="utf-8")
    tgt.write_text("ikhofi\n", encoding="utf-8")
    manifest = {
        "name": "c", "src_lang": "eng", "tgt_lang": "zul",
        "src_file": "c.eng", "tgt_file": "c.zul",
        "src_provenance": {"kind": "real"}, "tgt_provenance": {"kind": "real"},
        "pair_count": 1,
        "src_sha256": __import__("hashlib").sha256(src.read_bytes()).hexdigest(),
        "tgt_sha256": __import__("hashlib").sha256(tgt.read_bytes()).hexdigest(),
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(manifest))
    loaded = load_bitext(path)
    assert loaded.pairs[0].src == "café"


def _manifest_dict(tmp_path, src_lines, tgt_lines, pair_count=None):
    import hashlib
    src = tmp_path / "m.eng"
    tgt = tmp_path / "m.zul"
    src.write_text("".join(l + "\n" for l in src_lines), encoding="utf-8")
    tgt.write_text("".join(l + "\n" for l in tgt_lines), encoding="utf-8")
    manifest = {
        "name": "m", "src_lang": "eng", "tgt_lang": "zul",
        "src_file": "m.eng", "tgt_file": "m.zul",
        "src_provenance": {"kind": "real"}, "tgt_provenance": {"kind": "real"},
        "pair_count": len(src_lines) if pair_count is None else pair_count,
        "src_sha256": hashlib.sha256(src.read_bytes()).hexdigest(),
        "tgt_sha256": hashlib.sha256(tgt.read_bytes()).hexdigest(),
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    return path


def test_empty_line_reports_file_and_position(tmp_path):
    path = _manifest_dict(tmp_path, ["ok", "   ", "ok"], ["a", "b", "c"])
    with pytest.raises(errors.EmptyLine) as exc:
        load_bitext(path)
    assert exc.value.line_no == 2
    assert exc.value.path.endswith("m.eng")


def test_misaligned_files(tmp_path):
    path = _manifest_dict(tmp_path, ["a", "b"], ["x"], pair_count=2)
    with pytest.raises(errors.MisalignedFiles) as exc:
        load_bitext(path)
    assert (exc.value.src_lines, exc.value.tgt_lines) == (2, 1)


def test_checksum_mismatch(tmp_path):
    path = _manifest_dict(tmp_path, ["a"], ["x"])
    (tmp_path / "m.eng").write_text("tampered\n", encoding="utf-8")
    with pytest.raises(errors.BadManifest, match="checksum"):
        load_bitext(path)


def test_pair_count_mismatch(tmp_path):
    path = _manifest_dict(tmp_path, ["a", "b"], ["x", "y"], pair_count=3)
    with pytest.raises(errors.BadManifest, match="pair_count"):
        load_bitext(path)


def test_language_registry(tmp_path):
    corpus = make_corpus(SAMPLE)
    manifest = write_bitext(corpus, tmp_path)
    data = json.loads(manifest.read_text())
    data["src_lang"] = "qqq"
    manifest.write_text(json.dumps(data))
    with pytest.raises(errors.BadManifest, match="registry"):
        load_bitext(manifest)
    # same manifest passes once the registry admits the code
    fixed = load_bitext(manifest, registry=("qqq", "zul"))
    assert fixed.src_lang == "qqq"


def test_provenance_requires_generator_iff_synthetic():
    with pytest.raises(errors.BadManifest):
        Provenance("synthetic")
    with pytest.raises(errors.BadManifest):
        Provenance("real", generator_id="x")
    assert Provenance("synthetic", "lex-1").to_json()["generator_id"] == "lex-1"


def test_sentence_pair_rejects_bad_text():
    with pytest.raises(ValueError):
        SentencePair("", "ok")
    with pytest.raises(ValueError):
        SentencePair("ok", "   ")
    with pytest.raises(ValueError):
        SentencePair("a\nb", "ok")
    assert SentencePair("a ", "b").src == "a "  # trailing space survives


@pytest.mark.parametrize("brk", sorted(_LINE_BREAKS))
def test_sentence_pair_rejects_every_line_break(brk):
    assert len(_LINE_BREAKS) == 7
    with pytest.raises(ValueError, match="src side contains a line break"):
        SentencePair(f"a{brk}b", "ok")
    with pytest.raises(ValueError, match="tgt side contains a line break"):
        SentencePair("ok", f"a{brk}b")


def test_sentence_pair_accepts_other_whitespace():
    for text in ("a\tb", "a\u00a0b", "a\u2009b", "a\u3000b", "\ta b\t"):
        pair = SentencePair(text, text)
        assert pair.src == pair.tgt == text


def test_same_language_pair_rejected():
    with pytest.raises(errors.BadManifest):
        make_corpus(SAMPLE, src="eng", tgt="eng")


def test_split_validation_takes_first_n_in_file_order():
    corpus = make_corpus([(f"s{i}", f"t{i}") for i in range(10)])
    valid, train = split_validation(corpus, n=3)
    assert [p.src for p in valid.pairs] == ["s0", "s1", "s2"]
    assert [p.src for p in train.pairs] == [f"s{i}" for i in range(3, 10)]
    assert valid.name == "toy-valid" and train.name == "toy-train"
    assert valid.pairs + train.pairs == corpus.pairs


@given(n=st.integers(min_value=0, max_value=12),
       k=st.integers(min_value=1, max_value=12))
def test_split_concat_identity(n, k):
    corpus = make_corpus([(f"s{i}", f"t{i}") for i in range(k)])
    valid, train = split_validation(corpus, n=n)
    assert len(valid) == min(n, k)
    assert valid.pairs + train.pairs == corpus.pairs


text_line = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\n\r\v\f\x85  "),
    min_size=1, max_size=40,
).filter(lambda s: unicodedata.normalize("NFC", s).rstrip() != "")


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(text_line, text_line), min_size=1, max_size=8))
def test_round_trip_arbitrary_text(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("rt")
    corpus = make_corpus(rows, name="prop")
    loaded = load_bitext(write_bitext(corpus, tmp))
    assert loaded == corpus


def test_corpus_stats_matches_wc_style_recount(tmp_path):
    corpus = make_corpus(SAMPLE)
    manifest = write_bitext(corpus, tmp_path)
    stats = corpus_stats(load_bitext(manifest))
    src_raw = (tmp_path / "toy.eng").read_text(encoding="utf-8")
    tgt_raw = (tmp_path / "toy.zul").read_text(encoding="utf-8")
    assert stats.pair_count == src_raw.count("\n")
    assert stats.src_tokens == len(src_raw.split())
    assert stats.tgt_tokens == len(tgt_raw.split())
    assert stats.src_chars == sum(len(l) for l in src_raw.splitlines())
    assert stats.tgt_chars == sum(len(l) for l in tgt_raw.splitlines())


def test_split_lines_drops_only_the_final_newline():
    assert split_lines(b"", "x") == []
    assert split_lines(b"a\nb\n", "x") == ["a", "b"]
    assert split_lines(b"a\nb", "x") == ["a", "b"]
    assert split_lines(b"a\n\n", "x") == ["a", ""]
    with pytest.raises(errors.BadManifest, match="f.txt is not valid UTF-8"):
        split_lines(b"caf\xe9\n", "f.txt")


def test_concat_corpora_merges_provenance():
    real = make_corpus(SAMPLE[:1])
    synth = make_corpus(SAMPLE[1:], name="toy-bt",
                        src_provenance=Provenance("synthetic", "lex-9"))
    merged = concat_corpora("both", [real, synth])
    assert len(merged) == 3
    assert merged.src_provenance.kind == "synthetic"
    assert merged.src_provenance.generator_id == "lex-9"
    assert merged.tgt_provenance.kind == "real"
    with pytest.raises(errors.BadManifest):
        concat_corpora("bad", [real, make_corpus(SAMPLE, src="zul", tgt="eng")])
