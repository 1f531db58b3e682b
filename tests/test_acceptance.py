"""Acceptance gate: ten criteria, one test (and one result line) each.

Run with `pytest tests/test_acceptance.py -v` for the pass/fail line per
criterion; add `-s` for the printed detail lines.
"""

import hashlib
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from mtkit.corpus import (
    BitextCorpus,
    SentencePair,
    load_bitext,
    orient,
    write_bitext,
)
from mtkit.dataset_builder import (
    build_stage1_mixture,
    build_stage2_mixture,
    export_mixture,
    make_balance_plan,
)
from mtkit.pipeline import run_pipeline
from mtkit.synthesis import backtranslate, pivot_synthesize
from mtkit.toy import generate_toy_data
from mtkit.translator import IdentityTranslator, train_lexicon
from mtkit.vocab import (
    END_OF_WORD,
    LangCorpusSet,
    VocabConfig,
    train_bpe,
    train_obpe,
)
from mtkit.vocab_metrics import representation_change, vocabulary_report
from mtkit.metrics import bleu, chrf

from test_pipeline import _write_dataset, make_config

N_SPECIAL = len(VocabConfig().special_tokens)


def _report(n: int, detail: str) -> None:
    print(f"PASS criterion {n:2d}: {detail}")


def _alphabet(data: dict) -> int:
    syms = set()
    for sents in data.values():
        for s in sents:
            for w in s.split():
                syms.update(oracles.mark(w))
    return len(syms)


def _config_for(data: dict, budget: int, **kw) -> VocabConfig:
    return VocabConfig(vocab_size=N_SPECIAL + _alphabet(data) + budget, **kw)


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept-mini")
    manifests = _write_dataset(root)
    return root, manifests


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    return generate_toy_data(tmp_path_factory.mktemp("accept-toy"), seed=0)


# -- 1: BPE oracle equivalence --------------------------------------------


def test_criterion_01_bpe_matches_oracle_on_random_corpora():
    started = time.perf_counter()
    checked = 0
    for seed in range(22):
        data = oracles.random_sentences_by_lang(seed)
        budget = 5 + (seed * 37) % 296
        vocab = train_bpe(LangCorpusSet(data), _config_for(data, budget))
        want, _, _ = oracles.reference_bpe(data, budget)
        assert list(vocab.merges) == want, f"seed {seed}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(1, f"BPE merges equal the full-recount oracle on {checked} "
               f"random corpora in {elapsed:.2f}s")


# -- 2: OBPE p=1 reduction -------------------------------------------------


def test_criterion_02_obpe_exponent_one_equals_bpe():
    checked = 0
    for seed in range(22):
        data = oracles.random_sentences_by_lang(seed)
        budget = 5 + (seed * 37) % 296
        cfg = _config_for(data, budget, mean_exponent_p=1.0)
        obpe = train_obpe(LangCorpusSet(data), cfg)
        bpe = train_bpe(LangCorpusSet(data), cfg)
        assert obpe.merges == bpe.merges, f"seed {seed}"
        assert obpe.tokens == bpe.tokens, f"seed {seed}"
        checked += 1
    _report(2, f"OBPE with p=1 reproduced BPE exactly on {checked} corpora")


# -- 3: OBPE overlap preference -------------------------------------------


def test_criterion_03_obpe_negative_exponent_prefers_shared_pair():
    # pair X: relative frequency 0.30 in the HRL, absent from the LRL;
    # pair Y: 0.10 in both languages
    hrl = ["xy xy xy ab cd ef gh ij kl mn"]
    lrl = ["ab op qr st uv wz ce df gi hj"]
    shared = ("a", "b" + END_OF_WORD)
    data = {"eng": hrl, "zul": lrl}
    bpe = train_bpe(LangCorpusSet(data), _config_for(data, 2))
    obpe = train_obpe(LangCorpusSet(data),
                      _config_for(data, 2, mean_exponent_p=-2.0))
    assert shared in bpe.merges and shared in obpe.merges
    assert obpe.merges.index(shared) < bpe.merges.index(shared)
    assert obpe.merges[0] == shared
    _report(3, "with p=-2 the cross-lingually shared pair merged at rank "
               f"{obpe.merges.index(shared)} vs {bpe.merges.index(shared)} "
               "under BPE")


# -- 4: determinism --------------------------------------------------------


def test_criterion_04_byte_identical_across_threads_and_reruns(mini,
                                                               tmp_path):
    root, manifests = mini
    corpora = [load_bitext(p) for _, p in sorted(manifests.items())]
    data = LangCorpusSet.from_bitexts(corpora)
    cfg = VocabConfig(vocab_size=200)

    vocab_payloads = set()
    for threads in (1, 2, 8):
        path = tmp_path / f"v{threads}.json"
        train_obpe(data, cfg, threads=threads).save(path)
        vocab_payloads.add(path.read_bytes())
    assert len(vocab_payloads) == 1

    vocab = train_bpe(data, cfg)
    old = [c for c in corpora if "eng" in c.languages()]
    mixture = build_stage1_mixture(old, seed=17)
    export_payloads = set()
    for threads in (1, 2, 8):
        out = tmp_path / f"mix{threads}"
        export = export_mixture(mixture, vocab, out, threads=threads)
        export_payloads.add((export.src_path.read_bytes(),
                             export.tgt_path.read_bytes(),
                             export.sidecar_path.read_bytes()))
    assert len(export_payloads) == 1

    runs = {}
    for threads in (1, 8):
        run_dir = tmp_path / f"run{threads}"
        run_pipeline(make_config(root, manifests), threads=threads,
                     run_dir=run_dir)
        runs[threads] = {
            p.relative_to(run_dir).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "run_log.json"}
    assert runs[1] == runs[8]
    assert len(runs[1]) > 40
    _report(4, f"vocab training, mixture export, and {len(runs[1])}-file "
               "pipeline runs byte-identical across 1/2/8 threads and reruns")


# -- 5: segmentation reports match the encode-and-count oracle -------------


def test_criterion_05_representation_reports_match_oracle(toy):
    corpora = [load_bitext(p) for _, p in sorted(toy.train_manifests.items())
               if "eng" in str(p.name)][:4]
    data = LangCorpusSet.from_bitexts(corpora)
    raw = {lang: list(sents) for lang, sents in data.sentences.items()}
    cfg_a = _config_for(raw, 30)
    cfg_b = _config_for(raw, 90)
    vocab_a = train_bpe(data, cfg_a)
    vocab_b = train_bpe(data, cfg_b)

    report = representation_change(data, vocab_a, vocab_b)
    assert len(report.rows) == len(raw)
    for row in report.rows:
        tok_a = sum(oracles.encode_token_count(s, list(vocab_a.merges))
                    for s in raw[row.language])
        tok_b = sum(oracles.encode_token_count(s, list(vocab_b.merges))
                    for s in raw[row.language])
        want = 100.0 * (tok_b - tok_a) / tok_a
        assert row.tokens_a == tok_a and row.tokens_b == tok_b
        assert row.change_pct == pytest.approx(want, rel=1e-9)

    identity = representation_change(data, vocab_a, vocab_a)
    assert all(row.change_pct == 0.0 for row in identity.rows)

    speed_checked = 0
    avg_tokens = vocabulary_report(corpora, vocab_a, vocab_b)["avg_tokens"]
    for key, vocab in (("a", vocab_a), ("b", vocab_b)):
        rows = avg_tokens[key]["rows"]
        assert len(rows) == len(corpora)
        for corpus, row in zip(corpora, rows):
            eng, other = (corpus.src_sentences, corpus.tgt_sentences)
            if corpus.src_lang != "eng":
                eng, other = other, eng
            tok = sum(oracles.encode_token_count(s, list(vocab.merges))
                      for s in other)
            tok_eng = sum(oracles.encode_token_count(s, list(vocab.merges))
                          for s in eng)
            want = (tok + tok_eng) / len(corpus.pairs)
            assert row["avg_tokens"] == pytest.approx(want, rel=1e-9)
            speed_checked += 1
    _report(5, f"per-language change and {speed_checked} per-pair token "
               "averages match the encode-and-count oracle at 1e-9; "
               "identity comparison is exactly 0")


# -- 6: metric hand cases ---------------------------------------------------


def test_criterion_06_metric_hand_cases():
    cases = 0

    def check_bleu(hyps, refs, want):
        nonlocal cases
        got = bleu(hyps, refs)
        assert got == pytest.approx(want, abs=1e-4), (hyps, refs)
        assert got == pytest.approx(
            oracles.reference_bleu(list(hyps), list(refs)), rel=1e-9)
        cases += 1

    check_bleu(["the cat sat on the mat"], ["the cat sat on the mat"], 100.0)
    assert bleu(["the cat"], ["the cat"]) == 100.0
    check_bleu(["aa bb cc dd"], ["ee ff gg hh"], 0.0)
    assert bleu(["aa bb cc dd"], ["ee ff gg hh"]) == 0.0
    # short hypothesis: clean precisions, brevity penalty exp(1 - 4/3)
    check_bleu(["the cat sat"], ["the cat sat on"],
               100.0 * np.exp(1.0 - 4.0 / 3.0))
    # long hypothesis: precisions 4/5, 3/4, 2/3, 1/2 and no penalty
    check_bleu(["the cat sat on it"], ["the cat sat on"],
               100.0 * (1.0 / 5.0) ** 0.25)
    # clipping at every order: the reference holds "the" 4 times, so of
    # 6, 5, 4, 3 hypothesis n-grams only 4, 3, 2, 1 match (unclipped: 100)
    check_bleu(["the the the the the the"], ["the the the the cat"],
               100.0 * (4.0 / 6.0 * 3.0 / 5.0 * 2.0 / 4.0 * 1.0 / 3.0) ** 0.25)
    # three-sentence corpus, enumerated by hand with the oracle
    check_bleu(
        ["the cat sat on the mat", "a quick brown fox", "hello world"],
        ["the cat sat on a mat", "the quick brown fox jumps",
         "hello there world"],
        41.51754373367223)
    # a 2-token hypothesis has no 3- or 4-grams: those orders are skipped,
    # precisions 2/2 and 1/1, brevity penalty exp(1 - 4/2)
    check_bleu(["the cat"], ["the cat sat on"], 100.0 * np.exp(-1.0))

    def check_chrf(hyps, refs, want):
        nonlocal cases
        got = chrf(hyps, refs)
        assert got == pytest.approx(want, abs=1e-4), (hyps, refs)
        assert got == pytest.approx(
            oracles.reference_chrf(list(hyps), list(refs)), rel=1e-9)
        cases += 1

    check_chrf(["the cat"], ["the cat"], 100.0)
    assert chrf(["the cat"], ["the cat"]) == 100.0
    check_chrf(["aaaa"], ["bbbb"], 0.0)
    # two segments; only orders whose reference has n-grams count.
    # "ab c" | "ab d": char1 F=2/3, char2 F=1/2, char3 F=0, word1 F=1/2,
    # word2 F=0 -> 1/3. "aab" | "ab": char1 F=10/11, char2 F=5/6,
    # word1 F=0 -> 115/198. Macro average 181/396.
    check_chrf(["ab c", "aab"], ["ab d", "ab"], 100.0 * 181.0 / 396.0)
    assert cases >= 10
    _report(6, f"{cases} hand-enumerated BLEU/chrF cases matched at 1e-4 "
               "with exact 100/0 edges")


# -- 7: stage-2 balancing ---------------------------------------------------


def test_criterion_07_balancing_caps_old_directions(tmp_path):
    rng = np.random.default_rng(5)
    pool = [f"w{i}" for i in range(30)]

    def sentences(n, salt):
        rows = []
        for i in range(n):
            k = int(rng.integers(3, 7))
            rows.append(" ".join(pool[j] for j in rng.integers(0, 30, size=k)))
        return rows

    def corpus(name, src, tgt, n):
        return BitextCorpus(
            name=name, src_lang=src, tgt_lang=tgt,
            pairs=tuple(SentencePair(a, b) for a, b in
                        zip(sentences(n, 0), sentences(n, 1))))

    old = [corpus("eng-xho", "eng", "xho", 3800),
           corpus("eng-zul", "eng", "zul", 8600)]
    new = [corpus("xho-zul", "xho", "zul", 1000)]
    plan = make_balance_plan(["xho-zul"])
    mixture = build_stage2_mixture(old, new, plan, seed=9)

    data = LangCorpusSet.from_bitexts(old + new)
    vocab = train_bpe(data, VocabConfig(vocab_size=N_SPECIAL + 40 + 5))
    export = export_mixture(mixture, vocab, tmp_path / "mix")

    counts = export.direction_counts
    assert counts["xho-zul"] == 1000
    assert counts["xho-eng"] == 1000
    assert counts["eng-zul"] == 1000

    # recount the direction tags in the emitted files
    src_lines = export.src_path.read_text(encoding="utf-8").splitlines()
    tgt_lines = export.tgt_path.read_text(encoding="utf-8").splitlines()
    recount: dict[str, int] = {}
    for s, t in zip(src_lines, tgt_lines):
        src_lang = re.match(r"<src:(\w+)>", s).group(1)
        tgt_lang = re.match(r"<tgt:(\w+)>", t).group(1)
        label = f"{src_lang}-{tgt_lang}"
        recount[label] = recount.get(label, 0) + 1
    sidecar = json.loads(export.sidecar_path.read_text(encoding="utf-8"))
    assert recount == sidecar["directions"] == counts
    assert len(src_lines) == export.total
    _report(7, "matched old directions and the new direction each "
               "contributed exactly 1000 pairs (old corpora 3800/8600); "
               "tag recount agrees with the sidecar")


# -- 8: synthesis soundness -------------------------------------------------


def test_criterion_08_synthesis_preserves_real_sides(toy, tmp_path):
    model = IdentityTranslator()
    eng_corpora = [load_bitext(p)
                   for name, p in sorted(toy.train_manifests.items())
                   if name.startswith("eng-")]
    assert len(eng_corpora) == 8

    bt_checked = 0
    for corpus in eng_corpora:
        synthetic = backtranslate(corpus, model)
        assert synthetic.tgt_sentences == corpus.tgt_sentences
        assert len(synthetic.pairs) == len(corpus.pairs)
        manifest = json.loads(
            write_bitext(synthetic, tmp_path / "bt").read_text())
        assert manifest["src_provenance"]["kind"] == "synthetic"
        assert manifest["tgt_provenance"]["kind"] == "real"
        bt_checked += 1

    pivot_checked = 0
    for corpus in eng_corpora:
        other = next(iter(corpus.languages() - {"eng"}))
        if other == "xho":
            continue
        synthetic = pivot_synthesize(corpus, model, pivot_to="xho")
        kept = orient(corpus, "eng", other).tgt_sentences
        assert orient(synthetic, "xho", other).tgt_sentences == kept
        assert len(synthetic.pairs) == len(corpus.pairs)
        manifest = json.loads(
            write_bitext(synthetic, tmp_path / "pivot").read_text())
        prov = (manifest["src_provenance"] if synthetic.src_lang == "xho"
                else manifest["tgt_provenance"])
        assert prov["kind"] == "synthetic"
        pivot_checked += 1
    _report(8, f"back-translation on {bt_checked} corpora and pivoting on "
               f"{pivot_checked} kept real sides byte-exact with synthetic "
               "provenance recorded in manifests")


# -- 9: EM lexicon recovery --------------------------------------------------


def test_criterion_09_em_recovers_cipher():
    srcs, tgts, cipher = oracles.cipher_corpus(1000, 50, seed=13)
    corpus = BitextCorpus(
        name="cipher", src_lang="eng", tgt_lang="zul",
        pairs=tuple(SentencePair(s, t) for s, t in zip(srcs, tgts)))
    lexicon = train_lexicon(corpus, iterations=20)

    lls = lexicon.log_likelihoods
    assert len(lls) == 20
    assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    for row in lexicon.table.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    recovered = sum(lexicon.best_translation(w) == cipher[w] for w in cipher)
    assert recovered >= 0.95 * len(cipher)
    _report(9, f"argmax recovered {recovered}/{len(cipher)} cipher words; "
               "log-likelihood non-decreasing; rows sum to 1 +/- 1e-9")


# -- 10: end-to-end toy reproduction -----------------------------------------


def test_criterion_10_repro_toy_improves_new_directions(tmp_path):
    binary = shutil.which("mtkit")
    command = ([binary] if binary else [sys.executable, "-m", "mtkit.cli"])
    started = time.perf_counter()
    proc = subprocess.run(
        command + ["repro-toy", "--out", str(tmp_path / "repro"),
                   "--seed", "17"],
        capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 120.0, f"took {elapsed:.1f}s"

    before = float(re.search(r"before \(stage 1\): ([0-9.]+)",
                             proc.stdout).group(1))
    after = float(re.search(r"after  \(stage 2\): ([0-9.]+)",
                            proc.stdout).group(1))
    assert "improved: yes" in proc.stdout
    assert after > before

    summary = json.loads(
        (tmp_path / "repro" / "run" / "eval" / "summary.json").read_text())
    assert len(summary["new_directions"]) == 8
    assert summary["stage2_avg_bleu_new"] > summary["stage1_avg_bleu_new"]

    # Refactors keep every artifact byte, eval/ included: metrics sum
    # floats left to right, so scores do not depend on the interpreter.
    log = json.loads(
        (tmp_path / "repro" / "run" / "run_log.json").read_text())
    outputs = {rel: sha for step in log["steps"]
               for rel, sha in step["outputs"].items()}
    golden = json.loads((Path(__file__).parent
                         / "repro_toy_seed17_checksums.json").read_text())
    assert outputs == golden
    _report(10, f"repro-toy finished in {elapsed:.1f}s; new-direction "
                f"average BLEU {before:.2f} -> {after:.2f} across "
                f"{len(summary['new_directions'])} directions")
