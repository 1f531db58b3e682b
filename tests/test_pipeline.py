"""Pipeline: config validation, full runs, determinism, failure handling."""

import hashlib
import json
import shlex
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtkit import metrics, pipeline, translator
from mtkit.cli import main
from mtkit.corpus import (
    BitextCorpus,
    SentencePair,
    load_bitext,
    orient,
    parse_direction,
    write_bitext,
)
from mtkit.errors import ConfigValidationError, InvalidConfig, StepFailure
from mtkit.pipeline import (
    STEPS,
    dev_bitext,
    load_config,
    load_multiparallel,
    run_pipeline,
    validate_config,
)
from mtkit.toy import WORDS, new_direction_labels, render, word_transforms
from mtkit.translator import train_lexicon
from mtkit.vocab import LangCorpusSet, load_vocabulary, train_bpe, train_obpe

LANGS = ("eng", "ssw", "xho", "zul")
OLD_SIZES = {"xho": 120, "zul": 100, "ssw": 60}
NEW_SIZE = 50
DEV_SIZE = 25


def _sentences(n: int, rng: np.random.Generator) -> list[str]:
    seen: set[str] = set()
    while len(seen) < n:
        k = int(rng.integers(3, 7))
        seen.add(" ".join(WORDS[i] for i in rng.integers(0, 40, size=k)))
    return sorted(seen)


def _write_dataset(root: Path) -> dict:
    transforms = word_transforms(seed=0)
    rng = np.random.default_rng(7)
    total = DEV_SIZE + sum(OLD_SIZES.values()) + NEW_SIZE
    base = _sentences(total, rng)
    dev_base, rest = base[:DEV_SIZE], base[DEV_SIZE:]

    manifests = {}
    cursor = 0
    for lang, size in sorted(OLD_SIZES.items()):
        chunk = rest[cursor:cursor + size]
        cursor += size
        corpus = BitextCorpus(
            name=f"eng-{lang}", src_lang="eng", tgt_lang=lang,
            pairs=tuple(SentencePair(s, render(s, transforms[lang]))
                        for s in chunk))
        manifests[corpus.name] = write_bitext(corpus, root / "train")
    chunk = rest[cursor:cursor + NEW_SIZE]
    corpus = BitextCorpus(
        name="xho-zul", src_lang="xho", tgt_lang="zul",
        pairs=tuple(SentencePair(render(s, transforms["xho"]),
                                 render(s, transforms["zul"]))
                    for s in chunk))
    manifests[corpus.name] = write_bitext(corpus, root / "train")

    dev_dir = root / "dev"
    dev_dir.mkdir(parents=True)
    checksums = {}
    for lang in LANGS:
        payload = "".join(render(s, transforms[lang]) + "\n"
                          for s in dev_base).encode("utf-8")
        (dev_dir / f"dev.{lang}").write_bytes(payload)
        checksums[lang] = hashlib.sha256(payload).hexdigest()
    (dev_dir / "dev.json").write_text(json.dumps({
        "languages": list(LANGS), "pair_count": DEV_SIZE,
        "files": {lang: f"dev.{lang}" for lang in LANGS},
        "sha256": checksums}) + "\n", encoding="utf-8")

    return manifests


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    manifests = _write_dataset(root)
    return root, manifests


def make_config(root: Path, manifests: dict, **overrides) -> dict:
    cfg = {
        "name": "mini",
        "seed": 11,
        "output_root": str(root / "out"),
        "corpora": [str(manifests[n]) for n in sorted(manifests)
                    if n.startswith("eng-")],
        "new_corpora": [str(manifests["xho-zul"])],
        "validation_split": 0,
        "vocab": {"vocab_size": 160},
        "stage1": {"em_iterations": [2, 5]},
        "stage2": {"em_iterations": 6},
        "eval": {"dev_dir": str(root / "dev")},
    }
    cfg.update(overrides)
    return cfg


# -- validation ----------------------------------------------------------


def test_valid_config_has_no_problems(dataset):
    root, manifests = dataset
    assert validate_config(make_config(root, manifests)) == []
    # EM iteration counts may reach the bound
    bound = translator.MAX_EM_ITERATIONS
    assert validate_config(make_config(
        root, manifests, stage1={"em_iterations": [1, bound]},
        stage2={"em_iterations": bound})) == []


@pytest.mark.parametrize("overrides,needle", [
    ({"seed": "7"}, "seed"),
    ({"name": ""}, "name"),
    ({"corpora": []}, "corpora"),
    ({"vocab": {"vocab_size": 160, "hrl_langs": ["eng", "zul"],
                "lrl_langs": ["zul"]}}, "vocab"),
    ({"vocab": {"nonsense": 3}}, "vocab"),
    ({"validation_split": -1}, "validation_split"),
    ({"stage1": {"em_iterations": []}}, "em_iterations"),
    ({"stage1": {"em_iterations": [3, 3]}}, "em_iterations"),
    ({"stage1": {"em_iterations": [0]}}, "em_iterations"),
    ({"backtranslation": {"default": "external"}}, "backtranslation"),
    ({"stage2": {"new_directions": ["eng-zul"]}}, "involves eng"),
    ({"stage2": {"new_directions": ["xho-qqq"]}}, "unknown language"),
    ({"stage2": {"new_directions": ["xhozul"]}}, "new_directions"),
    ({"stage2": {"plan": "/nowhere/plan.json"}}, "plan"),
    ({"eval": {"dev_dir": "/nowhere"}}, "dev.json"),
    ({"eval": {}}, "dev_dir"),
    # JSON booleans are not integers
    ({"seed": True}, "seed"),
    ({"validation_split": False}, "validation_split"),
    ({"stage1": {"em_iterations": [True, 5]}}, "em_iterations"),
    ({"stage2": {"em_iterations": "many"}}, "stage2.em_iterations"),
    ({"stage2": {"em_iterations": 0}}, "stage2.em_iterations"),
    ({"stage2": {"em_iterations": True}}, "stage2.em_iterations"),
    ({"backtranslation": {"batch_size": 0}}, "backtranslation.batch_size"),
    ({"backtranslation": {"batch_size": "64"}}, "backtranslation.batch_size"),
    ({"backtranslation": {"batch_size": False}}, "backtranslation.batch_size"),
    # the run's one seed is the top-level one
    ({"stage1": {"em_iterations": [2, 5], "seed": 3}},
     "stage1: unknown fields"),
    ({"stage2": {"em_iterations": 6, "seed": 3}}, "stage2: unknown fields"),
    ({"stage2": {"em_iterations": 6, "seed": "x"}}, "stage2: unknown fields"),
    ({"stage2": {"default_cap": "many"}}, "stage2.default_cap"),
    ({"stage2": {"default_cap": -1}}, "stage2.default_cap"),
    ({"stage2": {"default_cap": True}}, "stage2.default_cap"),
    ({"stage2": {"new_directions": ["xho-zul", "xho-zul"]}}, "appear once"),
    ({"stage2": {"plan": 5}}, "stage2: unknown fields ['plan']"),
    ({"backtranslation": {"models": {"xho-eng": "/nowhere/lex.json"}}},
     "backtranslation.models"),
    ({"backtranslation": {"models": ["exec:cat"]}}, "backtranslation.models"),
    ({"backtranslation": {"models": {"xho-eng": 5}}},
     "backtranslation.models"),
    # stage-2 directions against the corpora
    ({"stage2": {"new_directions": ["xho-tsn"]}},
     "xho-tsn needs an English-centric corpus for tsn"),
    ({"stage2": {"new_directions": ["tsn-zul"]}},
     "tsn-zul needs an English-centric corpus for tsn"),
    ({"stage2": {"new_directions": ["xho-zul", "zul-xho"]}},
     "share their languages"),
    # vocabulary language sets
    ({"vocab": {"vocab_size": 160, "hrl_langs": "eng"}}, "vocab: hrl_langs"),
    ({"vocab": {"vocab_size": 160, "lrl_langs": "zul"}}, "vocab: lrl_langs"),
    ({"vocab": {"vocab_size": 160, "special_tokens": "<unk>"}},
     "vocab: unknown fields"),
    ({"vocab": {"vocab_size": 160, "hrl_langs": [["eng"]]}},
     "vocab: hrl_langs"),
    ({"vocab": {"vocab_size": 160, "lrl_langs": ["afr"]}},
     "vocab: languages not covered by hrl/lrl sets: ['ssw', 'zul']"),
    # unknown fields, in every section
    ({"new_corpus": []}, "unknown fields ['new_corpus']"),
    ({"stage1": {"em_iteration": [2]}}, "stage1: unknown fields"),
    ({"backtranslation": {"model": {}}}, "backtranslation: unknown fields"),
    ({"stage2": {"new_direction": ["xho-zul"]}},
     "stage2: unknown fields ['new_direction']"),
    ({"eval": {"dev_dir": "/nowhere", "metrics": "bleu"}},
     "eval: unknown fields"),
    # the OBPE exponent must be a finite number
    ({"vocab": {"vocab_size": 160, "mean_exponent_p": float("nan")}},
     "vocab: mean_exponent_p must be a finite number"),
    ({"vocab": {"vocab_size": 160, "mean_exponent_p": float("inf")}},
     "vocab: mean_exponent_p must be a finite number"),
    ({"vocab": {"vocab_size": 160, "mean_exponent_p": float("-inf")}},
     "vocab: mean_exponent_p must be a finite number"),
    # the special tokens and the end-of-word marker are fixed
    ({"vocab": {"vocab_size": 160, "special_tokens": ["<pad>", "<unk>"]}},
     "vocab: unknown fields ['special_tokens']"),
    ({"vocab": {"vocab_size": 160, "end_of_word_marker": "x"}},
     "vocab: unknown fields ['end_of_word_marker']"),
    # EM runs at most translator.MAX_EM_ITERATIONS iterations
    ({"stage1": {"em_iterations": [5, 1001]}}, "stage1.em_iterations"),
    ({"stage2": {"em_iterations": 2 ** 70}}, "stage2.em_iterations"),
])
def test_validate_config_flags_problems(dataset, overrides, needle):
    root, manifests = dataset
    problems = validate_config(make_config(root, manifests, **overrides))
    assert any(needle in p for p in problems), problems


@pytest.mark.parametrize("overrides,problems", [
    ({"seed": "x"}, ["seed: required integer (seeds must be explicit)"]),
    ({"seed": "x", "stage2": {"seed": "y"}},
     ["seed: required integer (seeds must be explicit)",
      "stage2: unknown fields ['seed']"]),
    ({"seed": -1}, ["seed: must be a non-negative integer"]),
    ({"seed": -1, "stage1": {"seed": -2}},
     ["seed: must be a non-negative integer",
      "stage1: unknown fields ['seed']"]),
    ({"vocab": "obpe"}, ["vocab: must be an object"]),
    ({"stage1": []}, ["stage1: must be an object"]),
    ({"backtranslation": None}, ["backtranslation: must be an object"]),
    ({"stage2": [6]}, ["stage2: must be an object"]),
    ({"eval": 5}, ["eval: must be an object"]),
])
def test_validate_config_reports_each_problem_once(dataset, overrides,
                                                   problems):
    """Defaults are applied before validation: a section that is not an
    object gives one problem line."""
    root, manifests = dataset
    assert validate_config(make_config(root, manifests, **overrides)) == \
        problems


def test_validate_config_flags_missing_manifest(dataset):
    root, manifests = dataset
    cfg = make_config(root, manifests)
    cfg["corpora"] = cfg["corpora"] + [str(root / "absent.json")]
    assert any("missing manifest" in p for p in validate_config(cfg))


def test_validate_config_rejects_non_english_old_corpus(dataset):
    root, manifests = dataset
    cfg = make_config(root, manifests)
    cfg["corpora"] = [str(manifests["xho-zul"])]
    cfg["new_corpora"] = []
    problems = validate_config(cfg)
    assert any("English side" in p for p in problems)


def test_validate_config_requires_some_new_direction(dataset):
    root, manifests = dataset
    cfg = make_config(root, manifests, new_corpora=[])
    assert any("new direction" in p for p in validate_config(cfg))


def test_validate_config_rejects_an_english_new_corpus(dataset):
    root, manifests = dataset
    cfg = make_config(root, manifests, new_corpora=[str(manifests["eng-xho"])])
    assert "new_corpora: eng-xho involves eng; new directions are the " \
        "non-English ones" in validate_config(cfg)


def test_validate_config_flags_corpora_of_one_name(dataset, tmp_path):
    """Split-validation writes each corpus as corpora/<name>.* and
    back-translation as synth/bt/<name>-bt.*, so two corpora of one name
    would overwrite each other's files: one problem per repeated name, and
    `run` stops before any step."""
    root, manifests = dataset
    paths = [str(write_bitext(replace(load_bitext(manifests[label]),
                                      name=name), tmp_path / label))
             for label, name in (("eng-ssw", "dev"), ("eng-xho", "train"),
                                 ("eng-zul", "train"))]
    paths.append(paths[0])  # the one named dev, listed twice
    cfg = make_config(root, manifests, corpora=paths)
    problems = validate_config(cfg)
    assert [p for p in problems if "manifests are named" in p] == [
        "corpora: 2 manifests are named 'dev'; their files in the run "
        "directory would overwrite each other",
        "corpora: 2 manifests are named 'train'; their files in the run "
        "directory would overwrite each other"]
    run_dir = tmp_path / "never"
    with pytest.raises(ConfigValidationError) as excinfo:
        run_pipeline(cfg, run_dir=run_dir)
    assert excinfo.value.problems == problems
    assert not run_dir.exists()


def test_validate_config_checks_dev_language_coverage(dataset, tmp_path):
    root, manifests = dataset
    doc = json.loads((root / "dev" / "dev.json").read_text())
    sparse = tmp_path / "dev"
    sparse.mkdir()
    langs = ["eng", "xho"]
    for lang in langs:
        (sparse / f"dev.{lang}").write_bytes(
            (root / "dev" / f"dev.{lang}").read_bytes())
    (sparse / "dev.json").write_text(json.dumps({
        "languages": langs, "pair_count": doc["pair_count"],
        "files": {lang: doc["files"][lang] for lang in langs},
        "sha256": {lang: doc["sha256"][lang] for lang in langs}}),
        encoding="utf-8")
    assert set(load_multiparallel(sparse)) == set(langs)
    cfg = make_config(root, manifests, eval={"dev_dir": str(sparse)})
    problems = validate_config(cfg)
    assert any("lacks languages" in p for p in problems)


@pytest.mark.parametrize("field,value", [
    ("languages", None),
    ("languages", "eng"),
    ("languages", ["eng", 5]),
    ("languages", ["eng", "qqq"]),
    ("files", None),
    ("files", ["dev.eng"]),
    ("files", {"eng": "dev.eng"}),
    ("sha256", None),
    ("sha256", {"eng": 5, "ssw": 5, "xho": 5, "zul": 5}),
    ("pair_count", None),
    ("pair_count", True),
    ("pair_count", -1),
    ("pair_count", "25"),
])
def test_dev_manifest_fields_are_checked(dataset, tmp_path, field, value):
    root, manifests = dataset
    doc = json.loads((root / "dev" / "dev.json").read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    bad = tmp_path / "dev"
    bad.mkdir()
    (bad / "dev.json").write_text(json.dumps(doc), encoding="utf-8")
    where = str(bad / "dev.json")
    with pytest.raises(InvalidConfig, match=field) as excinfo:
        load_multiparallel(bad)
    assert where in str(excinfo.value)
    cfg = make_config(root, manifests, eval={"dev_dir": str(bad)})
    problems = validate_config(cfg)
    assert any(p.startswith("eval.dev_dir: ") and where in p
               for p in problems), problems


def test_dev_file_that_cannot_be_read_names_it(dataset, tmp_path):
    root, _ = dataset
    doc = json.loads((root / "dev" / "dev.json").read_text())
    (tmp_path / "dev.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InvalidConfig, match="cannot read .*dev.eng"):
        load_multiparallel(tmp_path)


def test_load_config_resolves_relative_paths(dataset, tmp_path):
    root, manifests = dataset
    cfg = make_config(root, manifests)
    cfg["corpora"] = ["train/eng-xho.json"]
    models = {"xho-eng": "lex/xho-eng.json", "zul-eng": "exec:cat",
              "ssw-eng": "internal", "eng-ssw": "none"}
    cfg["backtranslation"] = {"models": models}
    path = root / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    loaded = load_config(path)
    assert loaded["corpora"][0] == str(manifests["eng-xho"])
    assert loaded["backtranslation"]["models"] == {
        **models, "xho-eng": str(root / "lex" / "xho-eng.json")}


@pytest.fixture(scope="module")
def variant_inputs(dataset, tmp_path_factory):
    """Manifest paths by corpus name, with an xho-eng copy of eng-xho
    among them, and an eng->xho and an xho->eng lexicon."""
    root, manifests = dataset
    work = tmp_path_factory.mktemp("variants")
    eng_xho = load_bitext(manifests["eng-xho"])
    flipped = BitextCorpus("xho-eng", "xho", "eng",
                           orient(eng_xho, "xho", "eng").pairs)
    paths = {**manifests, "xho-eng": write_bitext(flipped, work)}
    lexicons = {f"{s}-{t}": train_lexicon(orient(eng_xho, s, t), 1).save(
        work / f"{s}-{t}.lexicon.json") for s, t in (("eng", "xho"),
                                                     ("xho", "eng"))}
    return paths, lexicons


_LANGS = ("ssw", "xho", "zul")
_NON_ENGLISH = [f"{a}-{b}" for a in _LANGS for b in _LANGS if a != b]
# the lexicon that back-translates the corpus stored as the key
_BT_LEXICON = {"eng-xho": "xho-eng", "xho-eng": "eng-xho"}
_FAULTS = ("corpus repeated", "corpus reversed", "corpus dropped",
           "new corpus repeated", "any new direction", "plan named",
           "split takes everything",
           "any model key", "vocab too small")


@st.composite
def _variant(draw):
    """Overrides of `make_config`, by name: a valid variation (corpus
    subsets, either orientation of eng-xho, new directions among the
    corpora's languages or from new_corpora, a split of 0 or 10, models
    keyed by a corpus), then up to two faults validation must catch."""
    langs = sorted(draw(st.sets(st.sampled_from(_LANGS), min_size=2)))
    corpora = ["xho-eng" if lang == "xho" and draw(st.booleans())
               else f"eng-{lang}" for lang in langs]
    directions = draw(st.lists(
        st.sampled_from([d for d in _NON_ENGLISH
                         if set(d.split("-")) <= set(langs)]),
        min_size=1, max_size=2, unique_by=lambda d: frozenset(d.split("-"))))
    new_corpora = (["xho-zul"] if {"xho", "zul"} <= set(langs)
                   and draw(st.booleans()) else [])
    if new_corpora and draw(st.booleans()):
        directions = None  # the run's directions come from new_corpora
    plan = None
    split = draw(st.sampled_from([0, 10]))
    vocab_size = 100
    models = {key: draw(st.sampled_from(["internal", "none"] + (
        [_BT_LEXICON[key]] if key in _BT_LEXICON else [])))
        for key in draw(st.sets(st.sampled_from(corpora), max_size=2))}
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        if fault == "corpus repeated":
            corpora.append(draw(st.sampled_from(corpora)))
        elif fault == "corpus reversed":
            corpora.append("eng-xho" if "xho-eng" in corpora else "xho-eng")
        elif fault == "corpus dropped":
            corpora.remove(draw(st.sampled_from(corpora)))
        elif fault == "new corpus repeated":
            new_corpora = ["xho-zul", "xho-zul"]
        elif fault == "any new direction":
            directions = draw(st.lists(st.sampled_from(_NON_ENGLISH),
                                       min_size=1, max_size=2))
        elif fault == "plan named":
            # the balance plan is always derived; stage2.plan is no field
            plan = "plan.json"
        elif fault == "split takes everything":
            split = draw(st.sampled_from([60, 200]))
        elif fault == "vocab too small":
            # no more than the 22 special tokens plus the base symbols
            vocab_size = draw(st.sampled_from([1, 22, 40]))
        else:
            models[draw(st.sampled_from(["eng-xho", "xho-eng", "eng-zul"]))] \
                = draw(st.sampled_from(["internal", "eng-xho", "xho-eng"]))
    return {"corpora": corpora, "new_corpora": new_corpora,
            "new_directions": directions, "plan": plan,
            "validation_split": split, "models": models,
            "vocab_size": vocab_size}


@settings(max_examples=50, deadline=None)
@given(_variant())
@example({"corpora": ["eng-xho", "eng-zul"], "new_corpora": ["xho-zul"],
          "new_directions": None, "plan": None, "validation_split": 0,
          "models": {}, "vocab_size": 40})
def test_validate_and_run_agree(dataset, variant_inputs, tmp_path_factory,
                                variant):
    """`validate_config` finds no problem exactly when `run_pipeline`
    finishes; otherwise the run raises the same problems before it makes
    a run directory."""
    root, manifests = dataset
    paths, lexicons = variant_inputs
    work = tmp_path_factory.mktemp("variant")
    stage2 = {"em_iterations": 2}
    if variant["new_directions"] is not None:
        stage2["new_directions"] = variant["new_directions"]
    if variant["plan"] is not None:
        stage2["plan"] = variant["plan"]
    cfg = make_config(
        root, manifests,
        corpora=[str(paths[name]) for name in variant["corpora"]],
        new_corpora=[str(paths[name]) for name in variant["new_corpora"]],
        validation_split=variant["validation_split"],
        vocab={"vocab_size": variant["vocab_size"]},
        stage1={"em_iterations": [2]},
        stage2=stage2,
        backtranslation={"models": {
            key: spec if spec in ("internal", "none") else str(lexicons[spec])
            for key, spec in variant["models"].items()}})
    problems = validate_config(cfg)
    run_dir = work / "run"
    try:
        run_pipeline(cfg, run_dir=run_dir)
    except ConfigValidationError as exc:
        assert exc.problems == problems != []
        assert not run_dir.exists()
    else:
        assert problems == []


def test_run_rejects_bad_config_without_side_effects(dataset, tmp_path):
    root, manifests = dataset
    cfg = make_config(root, manifests, seed="bad")
    run_dir = tmp_path / "never"
    with pytest.raises(ConfigValidationError):
        run_pipeline(cfg, run_dir=run_dir)
    assert not run_dir.exists()


# -- full runs -----------------------------------------------------------


@pytest.fixture(scope="module")
def finished_run(dataset, tmp_path_factory):
    root, manifests = dataset
    run_dir = tmp_path_factory.mktemp("runs") / "first"
    result = run_pipeline(make_config(root, manifests), run_dir=run_dir)
    return result


def test_run_completes_every_step(finished_run):
    text = (finished_run.run_dir / "run_log.json").read_text()
    log = json.loads(text)
    assert text == json.dumps(log, indent=2) + "\n"
    assert log["status"] == "ok"
    assert [s["step"] for s in log["steps"]] == list(STEPS)
    assert all(s["status"] == "ok" for s in log["steps"])


def test_every_step_carries_its_duration(finished_run):
    log = json.loads((finished_run.run_dir / "run_log.json").read_text())
    durations = [s["duration_ms"] for s in log["steps"]]
    assert len(durations) == len(STEPS) == 11
    assert all(isinstance(d, float) and d >= 0 for d in durations)


def test_a_failed_step_carries_its_duration(dataset, tmp_path, monkeypatch):
    def fail(self):
        raise RuntimeError("split broke")

    def recording(path, data):
        if path.name == "run_log.json":
            log_texts.append(data)
        return write_artifact(path, data)

    log_texts = []
    write_artifact = pipeline.write_artifact
    monkeypatch.setattr(pipeline._Runner, "step_split_validation", fail)
    monkeypatch.setattr(pipeline, "write_artifact", recording)
    root, manifests = dataset
    with pytest.raises(StepFailure):
        run_pipeline(make_config(root, manifests), run_dir=tmp_path / "run")
    # every write of the log is the indent-2 JSON of its document
    assert len(log_texts) == 2
    for text in log_texts:
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    log = json.loads((tmp_path / "run" / "run_log.json").read_text())
    assert [s["status"] for s in log["steps"]] == ["ok", "failed"]
    assert all(s["duration_ms"] >= 0 for s in log["steps"])


def test_run_log_keys_inputs_of_one_name_apart(dataset, tmp_path,
                                               monkeypatch):
    """Each manifest, copied to a directory of its own as train.json,
    keeps its own run-log key (its resolved path) and digest."""
    def stop(self):
        raise RuntimeError("stop after split-validation")

    root, manifests = dataset
    moved = {}
    for name, manifest in manifests.items():
        doc = json.loads(manifest.read_text())
        where = tmp_path / name
        where.mkdir()
        for key in ("src_file", "tgt_file"):
            (where / doc[key]).write_bytes(
                (manifest.parent / doc[key]).read_bytes())
        moved[name] = where / "train.json"
        moved[name].write_bytes(manifest.read_bytes())
    cfg = make_config(root, manifests,
                      corpora=[str(moved[n]) for n in sorted(moved)
                               if n.startswith("eng-")],
                      new_corpora=[str(moved["xho-zul"])])
    monkeypatch.setattr(pipeline._Runner, "step_vocab_train", stop)
    with pytest.raises(StepFailure):
        run_pipeline(cfg, run_dir=tmp_path / "run")
    log = json.loads((tmp_path / "run" / "run_log.json").read_text())
    inputs = log["steps"][1]["inputs"]
    assert inputs == {
        p.resolve().as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in moved.values()}
    assert len(set(inputs.values())) == len(moved) == 4


def test_vocab_train_learns_from_the_text_validation_checked(
        dataset, tmp_path, monkeypatch):
    """vocab-train trains both vocabularies on the `LangCorpusSet` that
    `_load_inputs` checked against vocab_size, and they are the
    vocabularies of the split train files plus the new corpora."""
    def stop(self):
        raise RuntimeError("stop after vocab-train")

    def recording(fn):
        def wrapper(data, cfg):
            seen.append((fn.__name__, data, cfg))
            return fn(data, cfg)
        return wrapper

    seen = []
    for name in ("base_tokens", "train_bpe", "train_obpe"):
        monkeypatch.setattr(pipeline, name, recording(getattr(pipeline, name)))
    monkeypatch.setattr(pipeline._Runner, "step_vocab_report", stop)
    root, manifests = dataset
    cfg = make_config(root, manifests, validation_split=5)
    run_dir = tmp_path / "run"
    with pytest.raises(StepFailure):
        run_pipeline(cfg, run_dir=run_dir)
    assert [name for name, _, _ in seen] == ["base_tokens", "train_bpe",
                                             "train_obpe"]
    assert seen[0][1] is seen[1][1] is seen[2][1]

    monkeypatch.undo()
    train = [load_bitext(run_dir / "corpora" / f"{Path(p).stem}-train.json")
             for p in cfg["corpora"]]
    data = LangCorpusSet.from_bitexts(
        train + [load_bitext(p) for p in cfg["new_corpora"]])
    assert data.sentences == seen[0][1].sentences
    for mode, train_vocab in (("bpe", train_bpe), ("obpe", train_obpe)):
        saved = train_vocab(data, seen[0][2]).save(tmp_path / f"{mode}.json")
        assert (run_dir / "vocab" / f"{mode}.json").read_bytes() == \
            saved.read_bytes()


def test_run_summary_reports_improvement(finished_run):
    summary = finished_run.summary
    assert summary["new_directions"] == ["xho-zul"]
    # 3 old corpora give 6 eng directions, plus the new one
    assert summary["directions_evaluated"] == 7
    assert summary["stage2_avg_bleu_new"] > summary["stage1_avg_bleu_new"]
    assert summary["improved"] is True


def test_run_writes_expected_artifacts(finished_run):
    run_dir = finished_run.run_dir
    for rel in (
        "config.json",
        "vocab/bpe.json", "vocab/obpe.json", "vocab/vocab_report.json",
        "stage1/mixture/stage1.src", "stage1/selection.json",
        "stage1/lexicons/eng-xho.json", "stage1/lexicons/zul-eng.json",
        "synth/bt/eng-xho-bt.json", "synth/pivot/xho-zul-pivot.json",
        "stage2/plan.json", "stage2/mixture/stage2.mixture.json",
        "stage2/lexicons/xho-zul.json",
        "eval/stage1_eval.json", "eval/stage2_eval.json",
        "eval/summary.json",
    ):
        assert (run_dir / rel).is_file(), rel


def test_log_checksums_match_files_on_disk(finished_run):
    run_dir = finished_run.run_dir
    log = json.loads((run_dir / "run_log.json").read_text())
    checked = 0
    for step in log["steps"]:
        for rel, digest in step["outputs"].items():
            path = run_dir / rel
            if path.is_file():
                actual = hashlib.sha256(path.read_bytes()).hexdigest()
                assert actual == digest, rel
                checked += 1
    assert checked >= 10


def test_selection_scores_cover_all_candidates(finished_run):
    doc = json.loads(
        (finished_run.run_dir / "stage1" / "selection.json").read_text())
    assert sorted(doc) == sorted(
        [f"eng-{l}" for l in OLD_SIZES] + [f"{l}-eng" for l in OLD_SIZES])
    stage1 = finished_run.run_dir / "stage1"
    for label, entry in doc.items():
        assert set(entry["dev_bleu"]) == {"em2", "em5"}
        assert entry["chosen"] in ("em2", "em5")
        assert entry["dev_bleu"][entry["chosen"]] == \
            max(entry["dev_bleu"].values())
        chosen = stage1 / "candidates" / f"{label}-{entry['chosen']}.json"
        assert (stage1 / "lexicons" / f"{label}.json").read_bytes() == \
            chosen.read_bytes()


def test_eval_rows_score_the_saved_lexicons(finished_run):
    """Each eval row a lexicon served equals `evaluate_directions` over the
    lexicon file the run saved for it, scored with the run's saved
    vocabulary: `translator run` on a run's own lexicon reproduces its
    report. Stage 1 copies the source on a new direction (an identity
    route, no file), so those rows are skipped."""
    run_dir = finished_run.run_dir
    cfg = json.loads((run_dir / "config.json").read_text())
    vocab = load_vocabulary(run_dir / "vocab" / f"{cfg['vocab']['use']}.json")
    dev = load_multiparallel(Path(cfg["eval"]["dev_dir"]))
    checked = 0
    for stage in ("stage1", "stage2"):
        report = json.loads((run_dir / "eval" / f"{stage}_eval.json")
                            .read_text())
        for row in report["rows"]:
            d = parse_direction(row["direction"])
            if d.role == "new" and stage == "stage1":
                continue
            served_by = "stage2" if d.role == "new" else "stage1"
            lexicon = translator.Lexicon.load(
                run_dir / served_by / "lexicons" / f"{d.label}.json")
            rescored = metrics.evaluate_directions(
                translator.LexiconTranslator(lexicon),
                [dev_bitext(dev, d.src, d.tgt)], vocab)
            assert [r.to_json() for r in rescored.rows] == [row], row
            checked += 1
    # 6 English-centric rows in each report, and the new one in stage 2
    assert checked == 13


@pytest.mark.parametrize("stage, label", [("stage2", "xho-zul"),
                                          ("stage1", "eng-xho")])
def test_eval_report_reproduces_a_run_row(finished_run, tmp_path, capsys,
                                          stage, label):
    """`mtkit eval report` on a run's saved lexicon and vocabulary, over
    one direction's dev pairs written as a bitext manifest, prints the
    row the run's eval report holds for that direction."""
    run_dir = finished_run.run_dir
    cfg = json.loads((run_dir / "config.json").read_text())
    d = parse_direction(label)
    tests_dir = tmp_path / "tests"
    write_bitext(dev_bitext(load_multiparallel(cfg["eval"]["dev_dir"]),
                            d.src, d.tgt), tests_dir)
    out = tmp_path / "report.json"
    assert main(["eval", "report",
                 "--model", str(run_dir / stage / "lexicons" / f"{label}.json"),
                 "--vocab", str(run_dir / "vocab"
                                / f"{cfg['vocab']['use']}.json"),
                 "--tests", str(tests_dir), "--out", str(out)]) == 0
    capsys.readouterr()
    run_rows = json.loads((run_dir / "eval" / f"{stage}_eval.json")
                          .read_text())["rows"]
    want = [row for row in run_rows if row["direction"] == label]
    assert len(want) == 1
    assert json.loads(out.read_text())["rows"] == want


def test_rerun_is_byte_identical(dataset, finished_run, tmp_path):
    root, manifests = dataset
    second = run_pipeline(make_config(root, manifests),
                          run_dir=tmp_path / "second", threads=2)

    def digest(run_dir: Path) -> dict[str, str]:
        return {p.relative_to(run_dir).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(run_dir).rglob("*"))
                if p.is_file() and p.name != "run_log.json"}

    assert digest(finished_run.run_dir) == digest(second.run_dir)


def test_rerun_log_identical_modulo_timestamps(dataset, finished_run,
                                               tmp_path):
    root, manifests = dataset
    second = run_pipeline(make_config(root, manifests),
                          run_dir=tmp_path / "again")

    def stripped(run_dir: Path) -> dict:
        log = json.loads((Path(run_dir) / "run_log.json").read_text())
        for step in log["steps"]:
            step.pop("started_at")
            step.pop("finished_at")
            step.pop("duration_ms")
        return log

    assert stripped(finished_run.run_dir) == stripped(second.run_dir)


def test_run_dir_must_be_empty(dataset, finished_run):
    root, manifests = dataset
    with pytest.raises(ConfigValidationError, match="not empty"):
        run_pipeline(make_config(root, manifests),
                     run_dir=finished_run.run_dir)


def test_seed_changes_mixture_order(dataset, finished_run, tmp_path):
    root, manifests = dataset
    other = run_pipeline(make_config(root, manifests, seed=12),
                         run_dir=tmp_path / "reseeded")
    ours = (finished_run.run_dir / "stage1" / "mixture" / "stage1.src")
    theirs = Path(other.run_dir) / "stage1" / "mixture" / "stage1.src"
    a, b = ours.read_text(), theirs.read_text()
    assert a != b
    assert sorted(a.splitlines()) == sorted(b.splitlines())


def test_final_eval_scores_each_system_and_direction_once(tmp_path, capsys,
                                                          monkeypatch):
    """Stage 2 routes the English-centric directions to stage 1's selected
    lexicons, so the toy run scores them once, for stage 1, and its
    stage-2 report carries stage 1's rows for them. Each report makes at
    most one n-gram matcher call per metric stream, and model selection
    one for all 16 directions' candidates."""
    evaluated, matcher_calls = [], []

    def recording(model, testsets, vocab):
        evaluated.append((model.model_id,
                          [f"{c.src_lang}-{c.tgt_lang}" for c in testsets]))
        before = len(matcher_calls)
        report = evaluate(model, testsets, vocab)
        assert len(matcher_calls) - before <= 4
        return report

    def counting(*args):
        matcher_calls.append(len(evaluated))
        return matcher(*args)

    evaluate = pipeline.evaluate_directions
    matcher = metrics._clipped_matches
    monkeypatch.setattr(pipeline, "evaluate_directions", recording)
    monkeypatch.setattr(metrics, "_clipped_matches", counting)
    assert main(["repro-toy", "--out", str(tmp_path), "--seed", "17"]) == 0
    capsys.readouterr()
    # the calls made before final-eval are model selection's
    assert matcher_calls.count(0) <= 1

    new = new_direction_labels()
    assert [(model, len(labels)) for model, labels in evaluated] == \
        [("stage1", 24), ("stage2", 8)]
    assert sorted(evaluated[1][1]) == sorted(new)
    eval_dir = tmp_path / "run" / "eval"
    stage1, stage2 = (json.loads((eval_dir / f"{name}_eval.json").read_text())
                      for name in ("stage1", "stage2"))
    assert [r["direction"] for r in stage2["rows"]] == \
        [r["direction"] for r in stage1["rows"]] == evaluated[0][1]
    old = [[r for r in doc["rows"] if r["direction"] not in new]
           for doc in (stage1, stage2)]
    assert len(old[0]) == 16
    assert old[1] == old[0]


# -- failures ------------------------------------------------------------


def test_step_failure_keeps_partial_outputs(dataset, tmp_path):
    # an exec: model loads cleanly, so validation passes, and fails when
    # back-translation runs it
    root, manifests = dataset
    failing = f"exec:{shlex.quote(sys.executable)} -c 'import sys; sys.exit(1)'"
    cfg = make_config(root, manifests,
                      backtranslation={"models": {"eng-xho": failing}})
    assert validate_config(cfg) == []
    run_dir = tmp_path / "failing"
    with pytest.raises(StepFailure) as excinfo:
        run_pipeline(cfg, run_dir=run_dir)
    assert excinfo.value.step == "back-translation"

    log = json.loads((run_dir / "run_log.json").read_text())
    assert log["status"] == "failed"
    failed = log["steps"][-1]
    assert failed["step"] == "back-translation"
    assert failed["status"] == "failed"
    assert "exited 1" in failed["error"]
    # everything before the failing step is still on disk
    assert (run_dir / "vocab" / "obpe.json").is_file()
    assert (run_dir / "stage1" / "mixture" / "stage1.src").is_file()


def test_hung_exec_model_fails_its_step(dataset, tmp_path, monkeypatch):
    # a batch that outlives its time limit is killed and fails the step
    # that ran it, as any other ExternalProcessError does
    monkeypatch.setattr(translator, "EXTERNAL_START_TIMEOUT_S", 0.2)
    monkeypatch.setattr(translator, "EXTERNAL_SENTENCE_TIMEOUT_S", 0.0)
    root, manifests = dataset
    hung = f"exec:{shlex.quote(sys.executable)} -c 'import time; time.sleep(30)'"
    cfg = make_config(root, manifests,
                      backtranslation={"models": {"eng-xho": hung}})
    with pytest.raises(StepFailure) as excinfo:
        run_pipeline(cfg, run_dir=tmp_path / "hung")
    assert excinfo.value.step == "back-translation"
    assert "ran longer than the 0.2 s limit for a batch of" in str(
        excinfo.value)


# -- dev-set helpers ------------------------------------------------------


def test_load_multiparallel_rejects_bad_checksum(dataset, tmp_path):
    root, _ = dataset
    broken = tmp_path / "dev"
    broken.mkdir()
    for f in (root / "dev").iterdir():
        (broken / f.name).write_bytes(f.read_bytes())
    text = (broken / "dev.eng").read_text()
    (broken / "dev.eng").write_text(text + "extra line\n", encoding="utf-8")
    with pytest.raises(InvalidConfig, match="checksum"):
        load_multiparallel(broken)


def test_dev_bitext_orients_any_language_pair(dataset):
    root, _ = dataset
    dev = load_multiparallel(root / "dev")
    corpus = dev_bitext(dev, "zul", "xho")
    assert corpus.src_lang == "zul"
    assert corpus.tgt_lang == "xho"
    assert len(corpus.pairs) == DEV_SIZE
    assert corpus.src_sentences == dev["zul"]
