"""Command-line interface: each subcommand, output shapes, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtkit
from mtkit import cli, translator
from mtkit.cli import build_parser, main
from mtkit.corpus import (
    BitextCorpus,
    SentencePair,
    load_bitext,
    orient,
    write_bitext,
    write_json,
)
from mtkit.metrics import bleu
from mtkit.translator import train_lexicon
from mtkit.toy import WORDS, render, word_transforms


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Two English-centric corpora, one new pair, and a 3-way dev set."""
    root = tmp_path_factory.mktemp("clidata")
    transforms = word_transforms(seed=0)
    rng = np.random.default_rng(3)
    seen = set()
    while len(seen) < 170:
        k = int(rng.integers(3, 7))
        seen.add(" ".join(WORDS[i] for i in rng.integers(0, 30, size=k)))
    base = sorted(seen)

    manifests = {}
    slices = {"eng-xho": base[:70], "eng-zul": base[70:130],
              "xho-zul": base[130:150]}
    for name, chunk in slices.items():
        src, tgt = name.split("-")
        pairs = tuple(
            SentencePair(render(s, transforms[src]), render(s, transforms[tgt]))
            for s in chunk)
        corpus = BitextCorpus(name=name, src_lang=src, tgt_lang=tgt,
                              pairs=pairs)
        manifests[name] = write_bitext(corpus, root / "train")

    dev_dir = root / "dev"
    dev_dir.mkdir()
    dev_base = base[150:]
    checksums = {}
    for lang in ("eng", "xho", "zul"):
        payload = "".join(render(s, transforms[lang]) + "\n"
                          for s in dev_base).encode("utf-8")
        (dev_dir / f"dev.{lang}").write_bytes(payload)
        checksums[lang] = hashlib.sha256(payload).hexdigest()
    (dev_dir / "dev.json").write_text(json.dumps({
        "languages": ["eng", "xho", "zul"], "pair_count": len(dev_base),
        "files": {lang: f"dev.{lang}" for lang in ("eng", "xho", "zul")},
        "sha256": checksums}) + "\n", encoding="utf-8")
    return root, manifests


@pytest.fixture(scope="module")
def vocab_file(data, tmp_path_factory):
    root, manifests = data
    out = tmp_path_factory.mktemp("clivocab") / "v.json"
    rc = main(["vocab", "train", "--mode", "bpe", "--vocab-size", "140",
               "--out", str(out)] + [str(p) for p in manifests.values()])
    assert rc == 0
    return out


def test_corpus_validate_and_stats(data, capsys):
    root, manifests = data
    assert main(["corpus", "validate", str(manifests["eng-xho"])]) == 0
    assert "ok eng-xho: 70 pairs" in capsys.readouterr().out
    assert main(["corpus", "stats", str(manifests["eng-zul"])]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eng-zul"]["pair_count"] == 60


def test_corpus_stats_refuses_two_manifests_of_one_stem(data, tmp_path,
                                                       capsys):
    """The output is keyed by file stem, so a second manifest of one stem
    would silently replace the first."""
    root, manifests = data
    paths = []
    for sub, name in (("a", "eng-xho"), ("b", "eng-zul")):
        (tmp_path / sub).mkdir()
        for f in manifests[name].parent.glob(name + ".*"):
            (tmp_path / sub / f.name).write_bytes(f.read_bytes())
        paths.append(str((tmp_path / sub / f"{name}.json").rename(
            tmp_path / sub / "train.json")))
    assert main(["corpus", "validate", *paths]) == 0
    capsys.readouterr()
    assert main(["corpus", "stats", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"{paths[0]} and {paths[1]} share the stem 'train'" in captured.err


def test_corpus_validate_rejects_tampering(data, tmp_path, capsys):
    root, manifests = data
    src = manifests["eng-xho"]
    for f in src.parent.iterdir():
        if f.name.startswith("eng-xho"):
            (tmp_path / f.name).write_bytes(f.read_bytes())
    (tmp_path / "eng-xho.eng").write_text("tampered\n", encoding="utf-8")
    assert main(["corpus", "validate", str(tmp_path / "eng-xho.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_corpus_split_and_concat(data, tmp_path, capsys):
    root, manifests = data
    assert main(["corpus", "split", "--n", "10", "--out", str(tmp_path),
                 str(manifests["eng-xho"])]) == 0
    capsys.readouterr()
    valid = load_bitext(tmp_path / "eng-xho-valid.json")
    train = load_bitext(tmp_path / "eng-xho-train.json")
    assert (len(valid.pairs), len(train.pairs)) == (10, 60)

    assert main(["corpus", "concat", "--name", "joined", "--out",
                 str(tmp_path), str(tmp_path / "eng-xho-valid.json"),
                 str(tmp_path / "eng-xho-train.json")]) == 0
    capsys.readouterr()
    joined = load_bitext(tmp_path / "joined.json")
    assert len(joined.pairs) == 70


def test_vocab_encode_decode_round_trip(data, vocab_file, tmp_path,
                                        capsys, monkeypatch):
    root, manifests = data
    sentence = load_bitext(manifests["eng-xho"]).src_sentences[0]
    infile = tmp_path / "in.txt"
    infile.write_text(sentence + "\n", encoding="utf-8")
    assert main(["vocab", "encode", "--vocab", str(vocab_file),
                 "--in", str(infile)]) == 0
    ids = capsys.readouterr().out.strip()
    assert all(tok.isdigit() for tok in ids.split())

    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(ids.encode() + b"\n")))
    assert main(["vocab", "decode", "--vocab", str(vocab_file)]) == 0
    assert capsys.readouterr().out == sentence + "\n"


def test_vocab_encode_names_a_structurally_bad_vocabulary(
        vocab_file, tmp_path, capsys):
    payload = json.loads(vocab_file.read_text(encoding="utf-8"))
    payload["tokens"][-1] = payload["tokens"][-2]  # last merge's output lost
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    infile = tmp_path / "in.txt"
    infile.write_text("molo\n", encoding="utf-8")
    assert main(["vocab", "encode", "--vocab", str(bad),
                 "--in", str(infile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "missing from tokens" in err


def test_vocab_report_prints_tables(data, vocab_file, tmp_path, capsys):
    root, manifests = data
    obpe = tmp_path / "obpe.json"
    assert main(["vocab", "train", "--mode", "obpe", "--vocab-size", "140",
                 "--p", "1.0", "--out", str(obpe),
                 str(manifests["eng-xho"]), str(manifests["eng-zul"])]) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["vocab-report", "--vocab-a", str(vocab_file),
                 "--vocab-b", str(obpe), "--out", str(report),
                 str(manifests["eng-xho"])]) == 0
    out = capsys.readouterr().out
    assert "change_%" in out
    assert "avg_tokens" in out
    doc = json.loads(report.read_text())
    assert {"representation", "avg_tokens", "tables"} <= set(doc)


def test_mixture_stage1_and_stage2(data, vocab_file, tmp_path, capsys):
    root, manifests = data
    mix1 = tmp_path / "mix1"
    assert main(["mixture", "stage1", "--seed", "17", "--vocab",
                 str(vocab_file), "--out", str(mix1),
                 str(manifests["eng-xho"]), str(manifests["eng-zul"])]) == 0
    capsys.readouterr()
    sidecar = json.loads((mix1 / "stage1.mixture.json").read_text())
    assert sidecar["total"] == 2 * (70 + 60)

    mix2 = tmp_path / "mix2"
    assert main(["mixture", "stage2", "--seed", "17", "--vocab",
                 str(vocab_file), "--out", str(mix2)]
                + [str(p) for p in manifests.values()]) == 0
    capsys.readouterr()
    sidecar = json.loads((mix2 / "stage2.mixture.json").read_text())
    # xho-zul (20) matches xho-eng and eng-zul at 20 each; the other two
    # old directions fall back to the only new size, 20
    assert sidecar["directions"]["xho-zul"] == 20
    assert sidecar["directions"]["xho-eng"] == 20
    assert sidecar["directions"]["eng-zul"] == 20
    assert sidecar["directions"]["eng-xho"] == 20
    assert sidecar["directions"]["zul-eng"] == 20


def test_mixture_stage2_takes_no_plan_file(data, vocab_file, tmp_path,
                                           capsys):
    """Stage 2's balance plan is always derived from the corpora without
    English; argparse refuses a --plan option and nothing is written."""
    root, manifests = data
    with pytest.raises(SystemExit) as excinfo:
        main(["mixture", "stage2", "--plan", str(tmp_path / "plan.json"),
              "--vocab", str(vocab_file), "--out", str(tmp_path / "mix")]
             + [str(p) for p in manifests.values()])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --plan" in capsys.readouterr().err
    assert not (tmp_path / "mix").exists()
    with pytest.raises(SystemExit):
        main(["mixture", "--help"])
    assert "--plan" not in capsys.readouterr().out


def test_mixture_stage2_without_a_new_direction_exits_2(data, vocab_file,
                                                        tmp_path, capsys):
    """Stage 2 given only English-centric corpora has nothing to balance:
    it exits 2 with an error line and writes no mixture."""
    root, manifests = data
    out = tmp_path / "mix"
    assert main(["mixture", "stage2", "--seed", "17", "--vocab",
                 str(vocab_file), "--out", str(out),
                 str(manifests["eng-xho"]), str(manifests["eng-zul"])]) == 2
    assert "error: stage 2 needs at least one new direction" in \
        capsys.readouterr().err
    assert not out.exists()


def test_translator_train_and_run(data, tmp_path, capsys):
    root, manifests = data
    lex = tmp_path / "lex.json"
    assert main(["translator", "train-lexicon", "--in",
                 str(manifests["eng-xho"]), "--iters", "8",
                 "--out", str(lex)]) == 0
    capsys.readouterr()

    infile = tmp_path / "in.txt"
    infile.write_text("the child\n", encoding="utf-8")
    assert main(["translator", "run", "--model", str(lex), "--src", "eng",
                 "--tgt", "xho", "--in", str(infile)]) == 0
    out = capsys.readouterr().out
    transforms = word_transforms(seed=0)
    assert out == render("the child", transforms["xho"]) + "\n"


def test_translator_train_on_too_large_a_corpus_exits_2(data, tmp_path,
                                                        capsys, monkeypatch):
    """EM's key bound exits 2 and names the corpus. No corpus here comes
    near the bound, so the check is shown 2**62 times the entries."""
    root, manifests = data
    check = translator._check_key_space
    monkeypatch.setattr(
        translator, "_check_key_space",
        lambda name, n_e, n_f, n: check(name, n_e, n_f, n * 2**62))
    lex = tmp_path / "lex.json"
    assert main(["translator", "train-lexicon", "--in",
                 str(manifests["eng-xho"]), "--out", str(lex)]) == 2
    name = load_bitext(manifests["eng-xho"]).name
    assert capsys.readouterr().err.startswith(f"error: {name}: ")
    assert not lex.exists()


def test_translator_run_exec_model(data, tmp_path, capsys):
    infile = tmp_path / "in.txt"
    infile.write_text("alpha beta\n", encoding="utf-8")
    assert main(["translator", "run", "--model", "exec:cat", "--src", "eng",
                 "--tgt", "zul", "--in", str(infile)]) == 0
    assert capsys.readouterr().out == "alpha beta\n"


def test_translator_run_unparsable_exec_command_exits_2(tmp_path, capsys):
    infile = tmp_path / "in.txt"
    infile.write_text("alpha\n", encoding="utf-8")
    assert main(["translator", "run", "--model", 'exec:"unclosed', "--src",
                 "eng", "--tgt", "zul", "--in", str(infile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cannot parse" in err


def test_translator_run_wrong_direction_fails(data, tmp_path, capsys):
    root, manifests = data
    lex = tmp_path / "lex.json"
    main(["translator", "train-lexicon", "--in", str(manifests["eng-xho"]),
          "--iters", "2", "--out", str(lex)])
    capsys.readouterr()
    infile = tmp_path / "in.txt"
    infile.write_text("x\n", encoding="utf-8")
    assert main(["translator", "run", "--model", str(lex), "--src", "zul",
                 "--tgt", "eng", "--in", str(infile)]) == 2
    assert "error:" in capsys.readouterr().err


_LEXICON = {"src_lang": "eng", "tgt_lang": "zul", "log_likelihoods": [],
            "table": {"a": {"x": 1.0}}}


def _row(row):
    return json.dumps({**_LEXICON, "table": {"a": row}})


@pytest.mark.parametrize("text, needle", [
    (_row({"x": 0.0, "y": 0.0}), "row 'a' sums to 0.0"),
    (json.dumps({k: v for k, v in _LEXICON.items() if k != "src_lang"}),
     "src_lang must be a string"),
    (json.dumps({k: v for k, v in _LEXICON.items() if k != "tgt_lang"}),
     "tgt_lang must be a string"),
    (json.dumps({k: v for k, v in _LEXICON.items() if k != "table"}),
     "table must be an object"),
    (_row({"x": "1.0"}), "row 'a' holds a value that is not a probability"),
    (_row({"x": True}), "row 'a' holds a value that is not a probability"),
    (_row({"x": None}), "row 'a' holds a value that is not a probability"),
    (_row({"x": -0.5, "y": 1.5}),
     "row 'a' holds a value that is not a probability"),
    (_row({}), "row 'a' must be a non-empty object"),
    (_row([1.0]), "row 'a' must be a non-empty object"),
    (json.dumps({**_LEXICON, "src_lang": 7}), "src_lang must be a string"),
    (json.dumps({**_LEXICON, "log_likelihoods": 5}),
     "log_likelihoods must be a list of numbers"),
    (json.dumps([_LEXICON]), "not a JSON object"),
    ('{"src_lang": "eng",', "line 1 column 20"),
    (json.dumps({**_LEXICON, "log_likelihoods": [float("nan")]}),
     "NaN is not a JSON value"),
    (json.dumps({**_LEXICON, "log_likelihoods": [float("inf")]}),
     "Infinity is not a JSON value"),
    (json.dumps({**_LEXICON, "log_likelihoods": [float("-inf")]}),
     "-Infinity is not a JSON value"),
    (json.dumps(_LEXICON).replace("1.0", "1" * 5000), "5000 digits"),
    # a row is kept as written, so one that misses 1 is refused rather
    # than renormalised
    (_row({"x": 0.333333, "y": 0.333333, "z": 0.333333}),
     "row 'a' sums to 0.999999, expected 1 within 1e-9"),
], ids=["all-zero-row", "no-src_lang", "no-tgt_lang", "no-table",
        "string-probability", "bool-probability", "null-probability",
        "out-of-range-probability", "empty-row", "row-not-object",
        "src_lang-not-string", "log_likelihoods-not-list", "not-object",
        "not-json", "nan-token", "infinity-token", "minus-infinity-token",
        "integer-too-long", "row-off-one"])
def test_translator_run_rejects_malformed_lexicon(tmp_path, capsys, text,
                                                  needle):
    lex = tmp_path / "bad.json"
    lex.write_text(text, encoding="utf-8")
    infile = tmp_path / "in.txt"
    infile.write_text("a\n", encoding="utf-8")
    assert main(["translator", "run", "--model", str(lex), "--src", "eng",
                 "--tgt", "zul", "--in", str(infile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.json" in err
    assert needle in err


@pytest.mark.parametrize("kind,path,value,needle", [
    ("manifest", ["name"], 5, "name must"),
    ("manifest", ["src_lang"], 5, "src_lang must"),
    ("manifest", ["src_file"], ["x"], "src_file must"),
    ("manifest", ["pair_count"], "0", "pair_count must"),
    ("manifest", ["pair_count"], True, "pair_count must"),
    ("vocabulary", ["tokens", 10], 7, "tokens must"),
    ("vocabulary", ["config", "end_of_word_marker"], 7,
     "end_of_word_marker must"),
    ("vocabulary", ["config", "end_of_word_marker"], "x",
     "end_of_word_marker must be '</w>', got 'x'"),
    ("vocabulary", ["config", "special_tokens"], ["<pad>", "<unk>"],
     "special_tokens must be ['<pad>', '<unk>', '<bos>', '<eos>', "),
    ("vocabulary", ["config", "mean_exponent_p"], "x",
     "mean_exponent_p must"),
    ("vocabulary", ["config", "mean_exponent_p"], float("nan"),
     "NaN is not a JSON value"),
    ("vocabulary", ["config", "mean_exponent_p"], float("inf"),
     "Infinity is not a JSON value"),
    ("vocabulary", ["config", "mean_exponent_p"], float("-inf"),
     "-Infinity is not a JSON value"),
    ("vocabulary", ["config", "mean_exponent_p"], 10 ** 400,
     "mean_exponent_p must be a finite number"),
], ids=["manifest-name-int", "manifest-src_lang-int", "manifest-src_file-list",
        "manifest-pair_count-str", "manifest-pair_count-bool",
        "vocab-token-int", "vocab-marker-int", "vocab-marker-other",
        "vocab-special-tokens-other", "vocab-p-str", "vocab-p-nan",
        "vocab-p-inf", "vocab-p-minus-inf", "vocab-p-huge"])
def test_wrong_typed_field_exits_2(vocab_file, tmp_path, capsys, kind, path,
                                   value, needle):
    one_pair = BitextCorpus(name="one", src_lang="eng", tgt_lang="xho",
                            pairs=(SentencePair("a", "b"),))
    good = {"manifest": write_bitext(one_pair, tmp_path),
            "vocabulary": vocab_file}[kind]
    doc = json.loads(good.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    argv = {
        "manifest": ["corpus", "validate", str(bad)],
        "vocabulary": ["vocab", "encode", "--vocab", str(bad),
                       "--in", str(tmp_path / "one.eng")],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.json" in err and needle in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_vocab_train_non_finite_exponent_exits_2(data, tmp_path, capsys,
                                                 value):
    """argparse's float() reads nan and inf; the vocabulary config refuses
    them before any training."""
    out = tmp_path / "v.json"
    assert main(["vocab", "train", "--mode", "obpe", f"--p={value}",
                 "--out", str(out)]
                + [str(p) for p in data[1].values()]) == 2
    assert "mean_exponent_p must be a finite number" in \
        capsys.readouterr().err
    assert not out.exists()


_RUN = ["translator", "run", "--src", "eng", "--tgt", "zul", "--model"]


@pytest.mark.parametrize("argv", [
    ["vocab", "encode", "--vocab", "VOCAB", "--in", "BAD"],
    ["vocab", "encode", "--vocab", "VOCAB"],
    ["vocab", "decode", "--vocab", "VOCAB", "--in", "BAD"],
    ["vocab", "decode", "--vocab", "VOCAB"],
    ["eval", "score", "--hyp", "BAD", "--ref", "GOOD"],
    ["eval", "score", "--hyp", "GOOD", "--ref", "BAD"],
    _RUN + ["exec:cat", "--in", "BAD"],
    _RUN + ["exec:cat"],
    _RUN + ["exec:printf 'caf\\351\\n'", "--in", "GOOD"],
    ["corpus", "validate", "BAD"],
    ["vocab", "encode", "--vocab", "BAD", "--in", "GOOD"],
    _RUN + ["BAD", "--in", "GOOD"],
], ids=["encode-file", "encode-stdin", "decode-file", "decode-stdin",
        "score-hyp", "score-ref", "run-file", "run-stdin", "run-output",
        "manifest", "vocabulary", "lexicon"])
def test_non_utf8_text_exits_2(data, vocab_file, tmp_path, capsys,
                               monkeypatch, argv):
    raw = b"caf\xe9\n"  # Latin-1, not UTF-8
    (tmp_path / "bad.txt").write_bytes(raw)
    (tmp_path / "good.txt").write_text("a\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
    paths = {"VOCAB": str(vocab_file), "BAD": str(tmp_path / "bad.txt"),
             "GOOD": str(tmp_path / "good.txt"), "OUT": str(tmp_path / "mix"),
             **{name.upper().replace("-", "_"): str(path)
                for name, path in data[1].items()}}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not valid UTF-8" in err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_vocab_decode_non_integer_token_exits_2(vocab_file, tmp_path, capsys,
                                                monkeypatch, source):
    raw = "1 2\n3 abc 4\n".encode()
    argv = ["vocab", "decode", "--vocab", str(vocab_file)]
    if source == "file":
        (tmp_path / "ids.txt").write_bytes(raw)
        argv += ["--in", str(tmp_path / "ids.txt")]
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "line 2" in err and "'abc'" in err


def test_synth_backtranslate_and_pivot(data, tmp_path, capsys):
    root, manifests = data
    lex = tmp_path / "xho-eng.json"
    corpus = load_bitext(manifests["eng-xho"])
    from mtkit.translator import train_lexicon
    flipped = BitextCorpus(
        name="xho-eng", src_lang="xho", tgt_lang="eng",
        pairs=tuple(SentencePair(p.tgt, p.src) for p in corpus.pairs))
    train_lexicon(flipped, iterations=8).save(lex)

    assert main(["synth", "backtranslate", "--model", str(lex),
                 "--in", str(manifests["eng-xho"]),
                 "--out", str(tmp_path / "bt")]) == 0
    capsys.readouterr()
    bt = load_bitext(tmp_path / "bt" / "eng-xho-bt.json")
    assert bt.src_provenance.kind == "synthetic"
    assert bt.tgt_sentences == corpus.tgt_sentences

    eng_zul = manifests["eng-zul"]
    lex2 = tmp_path / "eng-xho-lex.json"
    train_lexicon(corpus, iterations=8).save(lex2)
    assert main(["synth", "pivot", "--model", str(lex2), "--pivot-to", "xho",
                 "--in", str(eng_zul), "--out", str(tmp_path / "pv")]) == 0
    capsys.readouterr()
    pv = load_bitext(tmp_path / "pv" / "xho-zul-pivot.json")
    assert pv.languages() == frozenset({"xho", "zul"})


@pytest.mark.parametrize("pivot_to,reason", [
    ("a-b", "bad language code 'a-b'"),
    ("fra", "language 'fra' not in registry"),
    ("zul", "pivot target zul already in eng-zul"),
])
def test_synth_pivot_bad_target_exits_2_before_the_model_runs(
        data, tmp_path, capsys, pivot_to, reason):
    """A --pivot-to that is no code of the nine languages, or a language of
    the corpus, exits 2 with an error line; the model never starts and
    nothing is written."""
    root, manifests = data
    starts = tmp_path / "starts.txt"
    code = (f"import sys; open({str(starts)!r}, 'a').write('start\\n'); "
            "sys.stdout.write(sys.stdin.read())")
    model = f"exec:{shlex.quote(sys.executable)} -c {shlex.quote(code)}"
    out = tmp_path / "out"
    assert main(["synth", "pivot", "--model", model, "--pivot-to", pivot_to,
                 "--in", str(manifests["eng-zul"]), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert not starts.exists()
    assert not out.exists()


# exec: models whose output breaks the generated side: every line ends in
# CRLF, or every line after the first is blank
_CRLF_MODEL = ("import sys; sys.stdout.buffer.write(b''.join("
               "l.rstrip(b'\\n') + b'\\r\\n' for l in sys.stdin.buffer))")
_BLANK_MODEL = ("import sys; n = len(sys.stdin.readlines()); "
                "sys.stdout.write('ok\\n' + '\\n' * (n - 1))")


@pytest.mark.parametrize("command", ["backtranslate", "pivot"])
@pytest.mark.parametrize("code,pair,reason", [
    (_CRLF_MODEL, 1, "src side contains a line break"),
    (_BLANK_MODEL, 2, "src side is empty after trimming"),
], ids=["crlf", "blank"])
def test_synth_bad_generated_side_exits_2(data, tmp_path, command, code,
                                          pair, reason):
    """A model that generates a side no corpus may hold exits 2 with an
    error line naming the model and the pair, and writes nothing."""
    root, manifests = data
    model = f"exec:{shlex.quote(sys.executable)} -c {shlex.quote(code)}"
    argv = ["synth", command, "--model", model, "--in",
            str(manifests["eng-xho"]), "--out", str(tmp_path / "out")]
    if command == "pivot":
        argv[4:4] = ["--pivot-to", "zul"]
    src = os.path.dirname(os.path.dirname(mtkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mtkit.cli", *argv],
                          capture_output=True, text=True, env=env,
                          check=False)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"error: model {model!r}, pair {pair}: {reason}\n" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_eval_score_matches_library(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("the cat sat\nthe dog walked\n", encoding="utf-8")
    ref.write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
    assert main(["eval", "score", "--metric", "bleu", "--hyp", str(hyp),
                 "--ref", str(ref)]) == 0
    printed = capsys.readouterr().out.strip()
    expected = bleu(["the cat sat", "the dog walked"],
                    ["the cat sat", "the dog ran"])
    assert printed == f"{expected:.2f}"


def test_eval_score_spbleu_requires_vocab(tmp_path, capsys):
    hyp = tmp_path / "f.txt"
    hyp.write_text("x\n", encoding="utf-8")
    assert main(["eval", "score", "--metric", "spbleu", "--hyp", str(hyp),
                 "--ref", str(hyp)]) == 2
    assert "--vocab" in capsys.readouterr().err


def test_eval_report_table_and_json(data, vocab_file, tmp_path, capsys):
    root, manifests = data
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    corpus = load_bitext(manifests["eng-xho"])
    write_bitext(corpus, tests_dir)
    report = tmp_path / "report.json"
    assert main(["eval", "report", "--model", "exec:cat", "--tests",
                 str(tests_dir), "--vocab", str(vocab_file),
                 "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "direction" in out and "eng-xho" in out
    doc = json.loads(report.read_text())
    assert doc["rows"][0]["direction"] == "eng-xho"


def test_pipeline_validate_exit_codes(data, tmp_path, capsys):
    root, manifests = data
    cfg = {
        "name": "cli-mini", "seed": 5, "output_root": str(tmp_path / "out"),
        "corpora": [str(manifests["eng-xho"]), str(manifests["eng-zul"])],
        "new_corpora": [str(manifests["xho-zul"])],
        "vocab": {"vocab_size": 140},
        "stage1": {"em_iterations": [2, 4]},
        "stage2": {"em_iterations": 4},
        "eval": {"dev_dir": str(root / "dev")},
    }
    good = tmp_path / "good.json"
    good.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["pipeline", "validate", "--config", str(good)]) == 0
    assert "config ok" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    cfg_bad = dict(cfg)
    del cfg_bad["seed"]
    bad.write_text(json.dumps(cfg_bad), encoding="utf-8")
    assert main(["pipeline", "validate", "--config", str(bad)]) == 2
    assert "problem: seed" in capsys.readouterr().err

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(cfg).encode()[:-1] + b', "x": "caf\xe9"}')
    assert main(["pipeline", "validate", "--config", str(latin1)]) == 2
    assert "problem: " in capsys.readouterr().err

    dev_list = tmp_path / "dev-list"
    dev_list.mkdir()
    (dev_list / "dev.json").write_text('["eng", "xho", "zul"]',
                                       encoding="utf-8")
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps({**cfg, "eval": {"dev_dir": str(dev_list)}}),
                      encoding="utf-8")
    assert main(["pipeline", "validate", "--config", str(listed)]) == 2
    assert "problem: eval.dev_dir" in capsys.readouterr().err

    bad_field = tmp_path / "bad-em_iterations.json"
    bad_field.write_text(json.dumps({**cfg, "stage2": {"em_iterations": "x"}}),
                         encoding="utf-8")
    assert main(["pipeline", "validate", "--config", str(bad_field)]) == 2
    assert "problem: stage2.em_iterations" in capsys.readouterr().err

    # the stage-2 balance plan is always derived; a plan file is refused
    (tmp_path / "plan.json").write_text(json.dumps({"entries": []}),
                                        encoding="utf-8")
    with_plan = tmp_path / "with-plan.json"
    with_plan.write_text(json.dumps({**cfg, "stage2": {"plan": "plan.json"}}),
                         encoding="utf-8")
    for verb in ("validate", "run"):
        assert main(["pipeline", verb, "--config", str(with_plan)]) == 2, verb
        assert "problem: stage2: unknown fields ['plan']" in \
            capsys.readouterr().err.splitlines()
    # each corpus side goes to its model in one call; a batch size is refused
    with_batch = tmp_path / "with-batch.json"
    with_batch.write_text(json.dumps(
        {**cfg, "backtranslation": {"batch_size": 64}}), encoding="utf-8")
    for verb in ("validate", "run"):
        assert main(["pipeline", verb, "--config", str(with_batch)]) == 2, verb
        assert "problem: backtranslation: unknown fields ['batch_size']" in \
            capsys.readouterr().err.splitlines()
    assert not (tmp_path / "out").exists()

    # a lexicon path resolves against the config's directory
    lex_dir = tmp_path / "lexicons"
    lex_dir.mkdir()
    (lex_dir / "xho-eng.json").write_text(json.dumps(
        {"src_lang": "xho", "tgt_lang": "eng", "table": {"molo": {"hi": 1}}}),
        encoding="utf-8")
    with_lex = lex_dir / "config.json"
    with_lex.write_text(json.dumps(
        {**cfg, "backtranslation": {"models": {"eng-xho": "xho-eng.json"}}}),
        encoding="utf-8")
    assert main(["pipeline", "validate", "--config", str(with_lex)]) == 0
    assert "config ok" in capsys.readouterr().out
    (lex_dir / "xho-eng.json").unlink()
    assert main(["pipeline", "validate", "--config", str(with_lex)]) == 2
    assert "problem: backtranslation.models" in capsys.readouterr().err

    # a dev.json without files: a problem now, not a failed run (exit 3)
    no_files = tmp_path / "dev-no-files"
    no_files.mkdir()
    dev_doc = json.loads((root / "dev" / "dev.json").read_text())
    del dev_doc["files"]
    (no_files / "dev.json").write_text(json.dumps(dev_doc), encoding="utf-8")
    without_files = tmp_path / "without-files.json"
    without_files.write_text(
        json.dumps({**cfg, "eval": {"dev_dir": str(no_files)}}),
        encoding="utf-8")
    assert main(["pipeline", "validate", "--config", str(without_files)]) == 2
    err = capsys.readouterr().err
    assert "problem: eval.dev_dir: " in err and "files" in err

    # a lexicon file that is not a lexicon is a problem
    (lex_dir / "xho-eng.json").write_text("{}", encoding="utf-8")
    assert main(["pipeline", "validate", "--config", str(with_lex)]) == 2
    err = capsys.readouterr().err
    assert "problem: backtranslation.models: eng-xho: " in err
    assert str(lex_dir / "xho-eng.json") in err


def test_pipeline_run_and_failure_exit_codes(data, tmp_path, capsys):
    root, manifests = data
    cfg = {
        "name": "cli-run", "seed": 5, "output_root": str(tmp_path / "out"),
        "corpora": [str(manifests["eng-xho"]), str(manifests["eng-zul"])],
        "new_corpora": [str(manifests["xho-zul"])],
        "vocab": {"vocab_size": 140},
        "stage1": {"em_iterations": [2, 4]},
        "stage2": {"em_iterations": 4},
        "eval": {"dev_dir": str(root / "dev")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["pipeline", "run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "run dir:" in out and "improved: True" in out

    # same run dir again: config error, exit 2
    assert main(["pipeline", "run", "--config", str(path)]) == 2
    assert "not empty" in capsys.readouterr().err

    # an exec: model that loads but exits 1: the failure surfaces mid-run,
    # exit 3, with the steps before it on disk
    failing = f"exec:{shlex.quote(sys.executable)} -c 'import sys; sys.exit(1)'"
    cfg["backtranslation"] = {"models": {"eng-zul": failing}}
    cfg["output_root"] = str(tmp_path / "out3")
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["pipeline", "run", "--config", str(path)]) == 3
    assert "back-translation" in capsys.readouterr().err
    run_dir = tmp_path / "out3" / "cli-run"
    log = json.loads((run_dir / "run_log.json").read_text())
    assert log["status"] == "failed"
    assert log["steps"][-1]["step"] == "back-translation"
    assert (run_dir / "vocab" / "obpe.json").is_file()
    assert (run_dir / "stage1" / "mixture" / "stage1.src").is_file()


def _copy(src_dir, dst_dir, names):
    dst_dir.mkdir(exist_ok=True)
    for name in names:
        (dst_dir / name).write_bytes((src_dir / name).read_bytes())
    return dst_dir


def _corpus_text_edited(root, work, cfg):
    train = _copy(root / "train", work / "train",
                  ["eng-xho.json", "eng-xho.eng", "eng-xho.xho"])
    text = train / "eng-xho.xho"
    text.write_bytes(text.read_bytes().replace(b" ", b"  ", 1))
    cfg["corpora"][0] = str(train / "eng-xho.json")
    return "eng-xho.xho: checksum mismatch"


def _dev_text_edited(root, work, cfg):
    dev = _copy(root / "dev", work / "dev",
                ["dev.json", "dev.eng", "dev.xho", "dev.zul"])
    text = dev / "dev.zul"
    text.write_bytes(text.read_bytes().replace(b" ", b"  ", 1))
    cfg["eval"]["dev_dir"] = str(dev)
    return "dev.zul: checksum mismatch"


def _dev_line_added(root, work, cfg):
    dev = _copy(root / "dev", work / "dev",
                ["dev.json", "dev.eng", "dev.xho", "dev.zul"])
    text = dev / "dev.zul"
    text.write_bytes(text.read_bytes() + b"one more line\n")
    doc = json.loads((dev / "dev.json").read_text())
    doc["sha256"]["zul"] = hashlib.sha256(text.read_bytes()).hexdigest()
    (dev / "dev.json").write_text(json.dumps(doc), encoding="utf-8")
    cfg["eval"]["dev_dir"] = str(dev)
    return f"dev.zul: {doc['pair_count'] + 1} lines"


def _dev_line_break(root, work, cfg):
    dev = _copy(root / "dev", work / "dev",
                ["dev.json", "dev.eng", "dev.xho", "dev.zul"])
    text = dev / "dev.zul"
    lines = text.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b" ", "\u2028".encode(), 1)
    text.write_bytes(b"\n".join(lines))
    doc = json.loads((dev / "dev.json").read_text())
    doc["sha256"]["zul"] = hashlib.sha256(text.read_bytes()).hexdigest()
    (dev / "dev.json").write_text(json.dumps(doc), encoding="utf-8")
    cfg["eval"]["dev_dir"] = str(dev)
    return "dev.zul:3: line contains a line break"


def _set(section, key, value, message):
    """Set *key* of config *section*; a callable *value* is called with
    the work directory first."""
    def configure(root, work, cfg):
        cfg[section][key] = value(work) if callable(value) else value
        return f"{section}{message}"
    return configure


def _exec_model(spec, message):
    def configure(root, work, cfg):
        cfg["backtranslation"] = {"models": {"eng-xho": spec}}
        return f"backtranslation.models: eng-xho: {message}"
    return configure


def _listed_twice(key, name):
    def configure(root, work, cfg):
        cfg[key].append(str(root / "train" / f"{name}.json"))
        return f"{key}: {name} and {name} share their languages"
    return configure


def _stored_reversed(root, work, cfg):
    corpus = load_bitext(root / "train" / "eng-xho.json")
    flipped = BitextCorpus("xho-eng", "xho", "eng",
                           orient(corpus, "xho", "eng").pairs)
    cfg["corpora"].append(str(write_bitext(flipped, work)))
    return "corpora: eng-xho and xho-eng share their languages"


def _bt_lexicon(key, src, tgt, message):
    """A back-translation model under *key*: a src->tgt lexicon trained
    on eng-xho."""
    def configure(root, work, cfg):
        corpus = orient(load_bitext(root / "train" / "eng-xho.json"), src, tgt)
        lexicon = train_lexicon(corpus, iterations=1).save(work / "lex.json")
        cfg["backtranslation"] = {"models": {key: str(lexicon)}}
        return f"backtranslation.models: {key}: {message}"
    return configure


def _corpus_without_pairs(root, work, cfg):
    empty = BitextCorpus("eng-zul", "eng", "zul", ())
    cfg["corpora"][1] = str(write_bitext(empty, work))
    return "corpora: eng-zul holds no pairs"


def _split_takes_everything(root, work, cfg):
    cfg["validation_split"] = 60
    return "validation_split: 60 takes all 60 pairs of eng-zul"


def _seed(value, message):
    def configure(root, work, cfg):
        cfg["seed"] = value
        return message
    return configure


def _not_json(value, token):
    """mean_exponent_p set to a float json.dumps writes as *token*."""
    def configure(root, work, cfg):
        cfg["vocab"]["mean_exponent_p"] = value
        return f"cfg.json: {token} is not a JSON value"
    return configure


@pytest.mark.parametrize("breaks", [
    _corpus_text_edited, _dev_text_edited, _dev_line_added,
    _exec_model("exec:", "empty translator command"),
    _exec_model('exec:"unclosed', "cannot parse translator command"),
    _dev_line_break,
    _set("stage2", "new_directions", ["xho-tsn"],
         ".new_directions: xho-tsn needs an English-centric corpus for tsn"),
    _set("stage2", "new_directions", ["xho-"],
         ".new_directions: direction 'xho'->'': side '' is empty or holds "
         "'-'"),
    _set("vocab", "hrl_langs", ["eng", "sna", "tsn", "xho"],
         ": unknown fields ['hrl_langs']"),
    _set("vocab", "lrl_langs", ["afr"], ": unknown fields ['lrl_langs']"),
    _set("stage2", "new_direction", ["xho-zul"],
         ": unknown fields ['new_direction']"),
    _listed_twice("corpora", "eng-xho"),
    _stored_reversed,
    _listed_twice("new_corpora", "xho-zul"),
    _bt_lexicon("xho-eng", "xho", "eng",
                "no corpus in corpora is stored as xho-eng"),
    _bt_lexicon("eng-xho", "eng", "xho", "model does not support xho->eng"),
    _corpus_without_pairs,
    _split_takes_everything,
    _set("vocab", "vocab_size", 40,
         ".vocab_size: vocab_size 40 <= 22 special tokens + "),
    _seed(-1, "problem: seed: must be a non-negative integer"),
    # the run's one seed is the top-level one
    _set("stage1", "seed", -3, ": unknown fields ['seed']"),
    _set("stage2", "seed", -5, ": unknown fields ['seed']"),
    _not_json(float("nan"), "NaN"),
    _not_json(float("inf"), "Infinity"),
    _not_json(float("-inf"), "-Infinity"),
    _set("vocab", "mean_exponent_p", 10 ** 400,
         ": mean_exponent_p must be a finite number"),
    _set("stage1", "seed", 5, ": unknown fields ['seed']"),
    _set("stage2", "seed", 5, ": unknown fields ['seed']"),
    _set("vocab", "special_tokens", ["<pad>", "<unk>"],
         ": unknown fields ['special_tokens']"),
    _set("vocab", "end_of_word_marker", "x",
         ": unknown fields ['end_of_word_marker']"),
    _set("stage1", "em_iterations", [2, 1001],
         ".em_iterations: non-empty list of distinct ints in 1..1000"),
    _set("stage2", "em_iterations", 2 ** 70,
         ".em_iterations: must be an int in 1..1000"),
    _set("stage2", "default_cap", 3, ": unknown fields ['default_cap']"),
], ids=["corpus-checksum", "dev-checksum", "dev-line-count", "exec-empty",
        "exec-unclosed", "dev-line-break", "direction-without-corpus",
        "direction-side-empty",
        "vocab-hrl-langs",
        "vocab-lrl-langs", "unknown-field", "corpus-listed-twice",
        "corpus-stored-reversed", "new-corpus-listed-twice",
        "bt-model-key-unstored", "bt-model-wrong-direction",
        "corpus-without-pairs", "split-takes-everything",
        "vocab-size-too-small", "seed-negative", "stage1-seed-negative",
        "stage2-seed-negative", "nan-token", "infinity-token",
        "minus-infinity-token", "exponent-too-large", "stage1-seed",
        "stage2-seed", "vocab-special-tokens", "vocab-marker",
        "stage1-em-iterations-too-many", "stage2-em-iterations-too-many",
        "stage2-default-cap"])
def test_bad_input_file_exits_2_before_any_step(data, tmp_path, capsys,
                                                breaks):
    """`pipeline validate` and `pipeline run` load the same inputs, so they
    reject the same bad file, and the run stops before it makes a run
    directory."""
    root, manifests = data
    cfg = {
        "name": "bad-input", "seed": 5, "output_root": str(tmp_path / "out"),
        "corpora": [str(manifests["eng-xho"]), str(manifests["eng-zul"])],
        "new_corpora": [str(manifests["xho-zul"])],
        "vocab": {"vocab_size": 140},
        "stage1": {"em_iterations": [2, 4]},
        "stage2": {"em_iterations": 4},
        "eval": {"dev_dir": str(root / "dev")},
    }
    needle = breaks(root, tmp_path, cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    for verb in ("validate", "run"):
        assert main(["pipeline", verb, "--config", str(path)]) == 2, verb
        problems = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("problem: ")]
        assert any(needle in line for line in problems), (verb, problems)
    assert not (tmp_path / "out").exists()


def test_repro_toy_config_with_its_own_special_tokens_exits_2(
        tmp_path, capsys, monkeypatch):
    """The config `repro-toy` writes, given a special-token list: both
    verbs report the unknown field, and no step runs."""
    class Stop(Exception):
        pass

    def stop(config, run_dir):
        raise Stop

    monkeypatch.setattr(cli, "run_pipeline", stop)
    with pytest.raises(Stop):
        main(["repro-toy", "--out", str(tmp_path), "--seed", "1"])
    monkeypatch.undo()
    path = tmp_path / "toy-config.json"
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg["vocab"]["special_tokens"] = ["<pad>", "<unk>"]
    path.write_text(json.dumps(cfg), encoding="utf-8")
    for verb in ("validate", "run"):
        assert main(["pipeline", verb, "--config", str(path)]) == 2, verb
        assert "problem: vocab: unknown fields ['special_tokens']" in \
            capsys.readouterr().err.splitlines()
    assert not (tmp_path / "run-root").exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


@st.composite
def _field_replaced(draw, doc):
    """*doc* with one field, at any depth, replaced by a random JSON value."""
    doc = json.loads(json.dumps(doc))
    node, key = doc, draw(st.sampled_from(sorted(doc)))
    while (isinstance(node[key], (dict, list)) and node[key]
           and draw(st.booleans())):
        node = node[key]
        key = draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
    node[key] = draw(_JSON_VALUES)
    return doc


@pytest.fixture(scope="module")
def fuzz_targets(data, vocab_file, tmp_path_factory):
    """Per format: a valid document, the file the fuzzed document goes to,
    and the command that reads it."""
    root, manifests = data
    work = tmp_path_factory.mktemp("fuzz")
    for name in ("eng-xho.eng", "eng-xho.xho"):
        (work / name).write_bytes((root / "train" / name).read_bytes())
    # named dev.json so that, with the dev files beside it, `work` is also
    # the fuzzed dev set's directory
    _copy(root / "dev", work, ["dev.eng", "dev.xho", "dev.zul"])
    target = work / "dev.json"
    text = str(work / "eng-xho.eng")
    config = {
        "name": "fuzz", "seed": 5, "output_root": str(work / "out"),
        "corpora": [str(manifests["eng-xho"]), str(manifests["eng-zul"])],
        "new_corpora": [str(manifests["xho-zul"])],
        "vocab": {"vocab_size": 140},
        "stage1": {"em_iterations": [2, 4]},
        "stage2": {"em_iterations": 4},
        "backtranslation": {"models": {"eng-xho": "exec:cat"}},
        "eval": {"dev_dir": str(root / "dev")},
    }
    return target, {
        "manifest": (json.loads(manifests["eng-xho"].read_text()),
                     ["corpus", "validate", str(target)]),
        "vocabulary": (json.loads(vocab_file.read_text()),
                       ["vocab", "encode", "--vocab", str(target),
                        "--in", text]),
        "lexicon": (_LEXICON, _RUN + [str(target), "--in", text]),
        "config": (config, ["pipeline", "validate", "--config",
                            str(target)]),
        "dev": (json.loads((root / "dev" / "dev.json").read_text()),
                ["pipeline", "validate", "--config",
                 str(write_json(work / "dev-config.json",
                                {**config, "eval": {"dev_dir": str(work)}}))]),
    }


@pytest.mark.parametrize(
    "fmt", ["manifest", "vocabulary", "lexicon", "config", "dev"])
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_fuzzed_input_file_exits_2(fuzz_targets, fmt, data):
    """Random bytes, random JSON and valid documents with one field
    replaced: each ends as exit 2 with an error: or problem: line (or,
    for a replacement that happens to be valid, exit 0), never as an
    exception out of main()."""
    target, formats = fuzz_targets
    valid, argv = formats[fmt]
    kind, payload = data.draw(st.one_of(
        st.tuples(st.just("bytes"), st.binary(max_size=64)),
        st.tuples(st.just("json"),
                  _JSON_VALUES.map(lambda v: json.dumps(v).encode())),
        st.tuples(st.just("field"),
                  _field_replaced(valid).map(lambda d: json.dumps(d).encode())),
    ))
    target.write_bytes(payload)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if kind == "field" and code == 0:
        return
    assert code == 2, (code, err.getvalue())
    assert any(line.startswith(("error: ", "problem: "))
               for line in err.getvalue().splitlines()), err.getvalue()


def test_readme_command_lines_parse():
    """Every `mtkit ...` line of the README's command-line block is a
    command line the parser accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    commands = [argv[1:] for argv in (
        shlex.split(line, comments=True)
        for line in block.split("```", 1)[0].splitlines())
        if argv[:1] == ["mtkit"]]
    assert len(commands) == 19
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: mtkit "
                        f"{shlex.join(argv)}")


@pytest.mark.parametrize("argv", [
    ["vocab", "train", "--hrl", "eng", "--out", "v.json", "c.json"],
    ["vocab", "train", "--lrl", "zul", "--out", "v.json", "c.json"],
    ["mixture", "stage2", "--cap", "3", "--vocab", "v.json", "--out", "mix",
     "c.json"],
    ["synth", "backtranslate", "--batch-size", "8", "--model", "exec:cat",
     "--in", "c.json", "--out", "synth"],
    ["synth", "pivot", "--batch-size", "8", "--model", "exec:cat",
     "--pivot-to", "xho", "--in", "c.json", "--out", "synth"],
], ids=["vocab-train-hrl", "vocab-train-lrl", "mixture-stage2-cap",
        "backtranslate-batch-size", "pivot-batch-size"])
def test_removed_option_is_a_usage_error(argv, capsys):
    """The HRL/LRL split, the stage-2 cap and the synthesis batch size are
    fixed; argparse refuses the options that once set them, before the
    command runs."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {argv[2]}" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["corpus", "split", "--n", "-1", "--out", "{out}", "{eng-xho}"],
    ["mixture", "stage1", "--seed", "-3", "--vocab", "{vocab}",
     "--out", "{out}", "{eng-xho}", "{eng-zul}"],
    ["repro-toy", "--seed", "-1", "--out", "{out}"],
    ["translator", "train-lexicon", "--in", "{eng-xho}", "--iters", "0",
     "--out", "{out}/lex.json"],
    ["translator", "train-lexicon", "--in", "{eng-xho}", "--iters", "1001",
     "--out", "{out}/lex.json"],
], ids=["split-n", "stage1-seed", "repro-toy-seed", "train-lexicon-iters",
        "train-lexicon-iters-too-many"])
def test_out_of_range_integer_option_exits_2(data, vocab_file, tmp_path,
                                             argv):
    """An integer option out of its range is a usage error: argparse exits
    2 naming the option, before the command runs, with no traceback."""
    root, manifests = data
    paths = {name: str(path) for name, path in manifests.items()}
    paths.update(out=str(tmp_path / "out"), vocab=str(vocab_file))
    src = os.path.dirname(os.path.dirname(mtkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mtkit.cli",
         *(arg.format(**paths) for arg in argv)],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: argument --" in proc.stderr
    assert "must be >= " in proc.stderr
    assert not (tmp_path / "out").exists()
