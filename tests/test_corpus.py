import hashlib
import json
import os
import re
import stat
import tracemalloc
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkit import corpus as corpus_module
from mtkit import errors
from mtkit.corpus import (
    _LINE_BREAKS,
    DEFAULT_LANGUAGES,
    BitextCorpus,
    Provenance,
    SentencePair,
    concat_corpora,
    corpus_stats,
    load_bitext,
    load_multiparallel,
    split_lines,
    split_validation,
    write_artifact,
    write_bitext,
    write_lines,
    write_multiparallel,
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


@pytest.mark.parametrize("count", [0, 1, 5])
def test_write_lines_writes_lf_ended_lines_and_returns_their_hash(
        tmp_path, monkeypatch, count):
    monkeypatch.setattr(corpus_module, "WRITE_CHUNK_LINES", 2)
    lines = [f"línea {i}" for i in range(count)]
    path = tmp_path / "out.txt"
    digest = write_lines(path, iter(lines))
    data = path.read_bytes()
    assert data == "".join(line + "\n" for line in lines).encode("utf-8")
    assert digest == hashlib.sha256(data).hexdigest()


def _write_bitext_peak(n_pairs, out_dir):
    """Traced peak bytes of `write_bitext` over a corpus of *n_pairs*
    distinct pairs, the corpus itself built before tracing starts."""
    corpus = make_corpus([(f"source sentence number {i} here",
                           f"target sentence number {i} there")
                          for i in range(n_pairs)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_bitext(corpus, out_dir)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_write_bitext_memory_stays_flat_as_the_corpus_grows(tmp_path):
    """Each side is streamed a chunk of lines at a time and hashed as it
    goes, so ten times the rows costs no whole file in memory."""
    small = _write_bitext_peak(2_000, tmp_path / "small")
    large = _write_bitext_peak(20_000, tmp_path / "large")
    assert large < 2 * small, (small, large)


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


def test_line_break_other_than_lf_is_a_bad_manifest(tmp_path):
    path = _manifest_dict(tmp_path, ["a", "b\r"], ["x", "y"])
    with pytest.raises(errors.BadManifest, match="m.json: pair 2"):
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
    with pytest.raises(errors.BadManifest,
                       match=re.escape(f"registry {list(DEFAULT_LANGUAGES)}")):
        load_bitext(manifest)


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


def _dev_set(root, lines_by_lang):
    """A dev set under *root* holding the given lines, checksums right."""
    files, sums = {}, {}
    for lang, lines in lines_by_lang.items():
        data = "".join(line + "\n" for line in lines).encode("utf-8")
        (root / f"dev.{lang}").write_bytes(data)
        files[lang] = f"dev.{lang}"
        sums[lang] = hashlib.sha256(data).hexdigest()
    (root / "dev.json").write_text(json.dumps({
        "languages": sorted(lines_by_lang), "files": files, "sha256": sums,
        "pair_count": len(next(iter(lines_by_lang.values())))}))
    return root


def test_write_multiparallel_round_trips_in_the_dev_format(tmp_path):
    """The dev-set writer gives the files `load_multiparallel` reads: one
    LF-ended line file per language and dev.json with its fields in
    order, languages in the given order."""
    dev = {"zul": ["x y", "café"], "eng": ["a b", "c"]}
    manifest = write_multiparallel(tmp_path / "dev", dev)
    assert manifest == tmp_path / "dev" / "dev.json"
    assert load_multiparallel(manifest.parent) == dev
    for lang, lines in dev.items():
        assert (tmp_path / "dev" / f"dev.{lang}").read_bytes() == \
            "".join(line + "\n" for line in lines).encode("utf-8")
    assert manifest.read_text(encoding="utf-8") == json.dumps({
        "languages": ["zul", "eng"], "pair_count": 2,
        "files": {"zul": "dev.zul", "eng": "dev.eng"},
        "sha256": {lang: hashlib.sha256(
            (tmp_path / "dev" / f"dev.{lang}").read_bytes()).hexdigest()
            for lang in dev}}, indent=2) + "\n"


@pytest.mark.parametrize("line,message", [
    *[(f"a{brk}b", "contains a line break") for brk in sorted(_LINE_BREAKS)
      if brk != "\n"],
    ("", "is empty after trimming"),
    (" \t\u3000", "is empty after trimming"),
])
def test_dev_lines_obey_the_sentence_pair_rule(tmp_path, line, message):
    """Dev lines pass the check a corpus side passes, and a dev line that
    fails it is an InvalidConfig naming the file and line."""
    _dev_set(tmp_path, {"eng": ["a", "b", "c"], "zul": ["x", line, "z"]})
    with pytest.raises(errors.InvalidConfig,
                       match=re.escape(f"dev.zul:2: line {message}")):
        load_multiparallel(tmp_path)
    with pytest.raises(ValueError, match=f"tgt side {message}"):
        SentencePair("ok", line)


def test_dev_lines_are_nfc(tmp_path):
    decomposed = unicodedata.normalize("NFD", "café")
    _dev_set(tmp_path, {"eng": ["cafe"], "zul": [decomposed]})
    assert load_multiparallel(tmp_path)["zul"] == ["café"]


@pytest.mark.parametrize("damage,message", [
    ("tamper", "dev.zul: checksum mismatch"),
    ("remove", "cannot read .*dev.zul"),
    ("extra", "dev.zul: 3 lines, manifest says 2"),
    ("latin-1", "dev.zul is not valid UTF-8"),
])
def test_every_dev_file_fault_is_invalid_config(tmp_path, damage, message):
    _dev_set(tmp_path, {"eng": ["a", "b"], "zul": ["x", "y"]})
    path = tmp_path / "dev.zul"
    if damage == "tamper":
        path.write_bytes(b"x\nY\n")
    elif damage == "remove":
        path.unlink()
    else:
        data = b"x\ny\nz\n" if damage == "extra" else b"x\n\xe9\n"
        path.write_bytes(data)
        doc = json.loads((tmp_path / "dev.json").read_text())
        doc["sha256"]["zul"] = hashlib.sha256(data).hexdigest()
        (tmp_path / "dev.json").write_text(json.dumps(doc))
    with pytest.raises(errors.InvalidConfig, match=message):
        load_multiparallel(tmp_path)


def test_unreadable_corpus_side_names_the_file(tmp_path):
    path = _manifest_dict(tmp_path, ["a"], ["x"])
    (tmp_path / "m.zul").unlink()
    with pytest.raises(errors.BadManifest, match="cannot read .*m.zul"):
        load_bitext(path)


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


# -- artifact writes -----------------------------------------------------


def _chunks_failing_mid_way():
    yield b"first new chunk\n"
    raise RuntimeError("simulated failure mid-way")


@pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["absent", "old"])
@pytest.mark.parametrize("failure", ["replace", "encode", "chunks"])
def test_write_artifact_failure_keeps_target(tmp_path, monkeypatch, old,
                                             failure):
    target = tmp_path / "a.json"
    if old is not None:
        target.write_bytes(old)
    data = "new\n"
    if failure == "replace":
        def refuse(src, dst):
            raise OSError("simulated rename failure")
        monkeypatch.setattr(os, "replace", refuse)
    elif failure == "encode":
        data = "lone \udc80 surrogate"
    else:
        data = _chunks_failing_mid_way()
    raised = {"replace": OSError, "encode": UnicodeError,
              "chunks": RuntimeError}[failure]
    with pytest.raises(raised):
        write_artifact(target, data)
    monkeypatch.undo()
    assert (target.read_bytes() if target.exists() else None) == old
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if old is None else ["a.json"])


def test_write_artifact_replaces_whole_file(tmp_path):
    target = tmp_path / "sub" / "dir" / "a.txt"
    assert write_artifact(target, "caf\u00e9\n") == target
    assert target.read_bytes() == "caf\u00e9\n".encode("utf-8")
    write_artifact(target, b"\x00\xff")
    assert target.read_bytes() == b"\x00\xff"
    assert [p.name for p in target.parent.iterdir()] == ["a.txt"]


def test_write_artifact_writes_chunks_in_order(tmp_path):
    target = tmp_path / "a.txt"
    chunks = [b"one\n", b"", "café\n".encode("utf-8"), b"three\n"]
    assert write_artifact(target, iter(chunks)) == target
    assert target.read_bytes() == b"".join(chunks)
    write_artifact(target, iter(()))
    assert target.read_bytes() == b""
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_write_artifact_mode_matches_write_text(tmp_path, umask):
    previous = os.umask(umask)
    try:
        write_artifact(tmp_path / "artifact", "x")
        (tmp_path / "plain").write_text("x")
    finally:
        os.umask(previous)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("artifact", "plain")]
    assert modes[0] == modes[1] == 0o666 & ~umask


def test_only_corpus_module_writes_or_reads_json_files():
    """Every artifact reaches the disk through `corpus.write_artifact` and
    every JSON file is read through `corpus.read_json`."""
    import mtkit
    forbidden = re.compile(
        r"\.write_text\(|\.write_bytes\(|shutil\.copyfile"
        r"|json\.loads?\((?!json\.dumps)")
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(mtkit.__file__).parent.glob("*.py"))
        if path.name != "corpus.py"
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1)
        if forbidden.search(line)]
    assert offenders == []
