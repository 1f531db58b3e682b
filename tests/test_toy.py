"""Toy dataset generator: structure, determinism, disjointness."""

import hashlib
import json
from pathlib import Path

import numpy as np
import oracles
import pytest

from mtkit.corpus import load_bitext
from mtkit.pipeline import load_multiparallel
from mtkit.toy import (
    AFFIXES,
    DEV_SIZE,
    ENG_TRAIN_SIZES,
    FAMILIES,
    LANGUAGES,
    NEW_PAIR_SIZES,
    WORDS,
    _base_sentences,
    family_of,
    generate_toy_data,
    new_direction_labels,
    render,
    word_transforms,
)


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    return generate_toy_data(root, seed=0)


def test_word_transforms_injective_per_language():
    transforms = word_transforms(seed=0)
    assert set(transforms) == set(LANGUAGES)
    for lang, mapping in transforms.items():
        assert set(mapping) == set(WORDS)
        assert len(set(mapping.values())) == len(WORDS)


def test_english_transform_is_identity():
    transforms = word_transforms(seed=0)
    assert transforms["eng"] == {w: w for w in WORDS}


def test_family_members_share_stems():
    # Same family, same cipher: stripping the language affix must leave
    # the same stem for every member.
    transforms = word_transforms(seed=0)
    for family, langs in FAMILIES.items():
        non_eng = [l for l in langs if l != "eng"]
        if len(non_eng) < 2:
            continue
        for word in WORDS:
            stems = set()
            for lang in non_eng:
                prefix, suffix = AFFIXES[lang]
                form = transforms[lang][word]
                # ciphers preserve length, so affix placement follows
                # the base word's length parity
                stem = (form[len(prefix):] if len(word) % 2 == 0
                        else form[:-len(suffix)])
                stems.add(stem)
            assert len(stems) == 1, (family, word, stems)


def test_render_is_word_for_word():
    transforms = word_transforms(seed=0)
    sentence = " ".join(WORDS[:5])
    for lang in LANGUAGES:
        out = render(sentence, transforms[lang])
        assert len(out.split()) == 5


def test_new_direction_labels_exclude_english():
    labels = new_direction_labels()
    assert len(labels) == 8
    assert len(set(labels)) == 8
    for label in labels:
        src, tgt = label.split("-")
        assert "eng" not in (src, tgt)
        assert src in LANGUAGES and tgt in LANGUAGES


def test_generated_counts_match_declared_sizes(toy):
    for lang, size in ENG_TRAIN_SIZES.items():
        corpus = load_bitext(toy.train_manifests[f"eng-{lang}"])
        assert len(corpus.pairs) == size
        assert (corpus.src_lang, corpus.tgt_lang) == ("eng", lang)
    for (src, tgt), size in NEW_PAIR_SIZES.items():
        corpus = load_bitext(toy.train_manifests[f"{src}-{tgt}"])
        assert len(corpus.pairs) == size


def test_dev_set_loads_with_all_languages(toy):
    dev = load_multiparallel(toy.dev_dir)
    assert set(dev) == set(LANGUAGES)
    assert all(len(lines) == DEV_SIZE for lines in dev.values())


def test_dev_rows_are_translations_of_each_other(toy):
    # Inverting the word transform on any language recovers the same
    # base sentence the English row shows.
    transforms = word_transforms(seed=0)
    dev = load_multiparallel(toy.dev_dir)
    for lang in LANGUAGES:
        inverse = {v: k for k, v in transforms[lang].items()}
        for i in (0, DEV_SIZE // 2, DEV_SIZE - 1):
            recovered = " ".join(inverse[w] for w in dev[lang][i].split())
            assert recovered == dev["eng"][i]


def test_training_slices_disjoint_from_each_other_and_dev(toy):
    transforms = word_transforms(seed=0)
    dev = load_multiparallel(toy.dev_dir)
    seen: set[str] = set(dev["eng"])
    assert len(seen) == DEV_SIZE
    for name, manifest in sorted(toy.train_manifests.items()):
        corpus = load_bitext(manifest)
        inverse = {v: k for k, v in transforms[corpus.src_lang].items()}
        bases = {" ".join(inverse[w] for w in s.split())
                 for s in corpus.src_sentences}
        assert len(bases) == len(corpus.pairs), name
        assert not (bases & seen), name
        seen |= bases


@pytest.mark.parametrize("seed", [0, 1, 17, 20261])
def test_base_sentences_match_the_choice_draw(seed):
    total = (DEV_SIZE + sum(ENG_TRAIN_SIZES.values())
             + sum(NEW_PAIR_SIZES.values()))
    assert _base_sentences(total, np.random.default_rng(seed)) == \
        oracles.reference_base_sentences(total, np.random.default_rng(seed))


def test_generation_is_deterministic(tmp_path):
    a = generate_toy_data(tmp_path / "a", seed=0)
    b = generate_toy_data(tmp_path / "b", seed=0)

    def digest(root: Path) -> dict[str, str]:
        return {p.relative_to(root).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}

    assert digest(a.root) == digest(b.root)


def test_seed_changes_content(tmp_path):
    a = generate_toy_data(tmp_path / "a", seed=0)
    b = generate_toy_data(tmp_path / "b", seed=1)
    eng_a = load_bitext(a.train_manifests["eng-zul"]).src_sentences
    eng_b = load_bitext(b.train_manifests["eng-zul"]).src_sentences
    assert eng_a != eng_b


def test_summary_file_lists_everything(toy):
    doc = json.loads(toy.summary_path.read_text(encoding="utf-8"))
    assert doc["seed"] == 0
    assert sorted(doc["train_manifests"]) == sorted(toy.train_manifests)
    assert doc["new_directions"] == list(new_direction_labels())
    assert set(doc["languages"]) == set(LANGUAGES)


def test_family_of_covers_all_languages():
    for lang in LANGUAGES:
        assert lang in FAMILIES[family_of(lang)]
