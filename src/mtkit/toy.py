"""Bundled toy multilingual corpus generator.

Nine "languages" over one English-like base: eng is the base itself;
every other language renders a sentence word by word through a
family-level letter-substitution cipher plus language-specific affixes
(even-length cipher output takes the language's prefix, odd-length its
suffix). The per-language word maps are checked to be injective, so any
two renderings of the same base text are exactly parallel, word-aligned
and 1:1 - which is what lets desk-scale lexical models learn them and
lets tests score against a known ground truth.

Everything is driven by one seed through numpy's Generator, so repeated
generation is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (
    BitextCorpus,
    DirectionSpec,
    SentencePair,
    seeded_rng,
    write_bitext,
    write_json,
    write_multiparallel,
)

FAMILIES: dict[str, tuple[str, ...]] = {
    "germanic": ("eng", "afr"),
    "nguni": ("xho", "zul", "ssw"),
    "sotho_tswana": ("tsn", "nso"),
    "other": ("sna", "tso"),
}

# (prefix for even-length cipher output, suffix for odd-length)
AFFIXES: dict[str, tuple[str, str]] = {
    "afr": ("ge", "heid"),
    "xho": ("isi", "ile"),
    "zul": ("uku", "ela"),
    "ssw": ("si", "ini"),
    "tsn": ("bo", "eng"),
    "nso": ("le", "ego"),
    "sna": ("chi", "ka"),
    "tso": ("xi", "ani"),
}

WORDS: tuple[str, ...] = (
    "the", "a", "this", "that", "every", "some", "no", "one", "two",
    "three", "man", "woman", "child", "farmer", "teacher", "river",
    "mountain", "village", "city", "house", "field", "tree", "bird",
    "fish", "cow", "goat", "dog", "rain", "sun", "moon", "star", "road",
    "market", "school", "song", "story", "word", "water", "fire",
    "stone", "grass", "seed", "bread", "milk", "salt", "night", "day",
    "year", "friend", "stranger", "walks", "runs", "sees", "hears",
    "finds", "loses", "builds", "breaks", "carries", "brings", "gives",
    "takes", "plants", "harvests", "sings", "speaks", "learns",
    "teaches", "loves", "fears", "crosses", "climbs", "follows",
    "leads", "old", "young", "tall", "small", "green", "dry", "cold",
    "warm", "bright", "dark", "heavy", "light", "far", "near", "under",
    "over", "beside", "toward", "slowly", "quickly", "quietly", "again",
)

ENG_TRAIN_SIZES: dict[str, int] = {
    "sna": 1200, "xho": 1150, "tsn": 900, "zul": 700,
    "nso": 600, "afr": 500, "tso": 300, "ssw": 200,
}

NEW_PAIR_SIZES: dict[tuple[str, str], int] = {
    ("xho", "zul"): 400, ("zul", "sna"): 420, ("ssw", "tsn"): 150,
    ("tsn", "tso"): 260, ("tso", "nso"): 240, ("nso", "xho"): 220,
}

# zero-resource directions, filled purely by pivot synthesis
PIVOT_ONLY_DIRECTIONS: tuple[tuple[str, str], ...] = (
    ("sna", "afr"), ("afr", "ssw"))

DEV_SIZE = 110
SENTENCE_LENGTHS = (4, 9)  # inclusive bounds

LANGUAGES: tuple[str, ...] = tuple(sorted(
    lang for members in FAMILIES.values() for lang in members))


def family_of(lang: str) -> str:
    for family, members in FAMILIES.items():
        if lang in members:
            return family
    raise ValueError(f"no toy family for {lang!r}")


def new_direction_labels() -> list[str]:
    """The eight non-English directions of the toy setup, real-data ones
    first, each as 'src-tgt'."""
    return [DirectionSpec(*pair).label
            for pair in (*NEW_PAIR_SIZES, *PIVOT_ONLY_DIRECTIONS)]


def _family_cipher(family: str, seed: int) -> dict[str, str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    if family == "germanic":
        return {c: c for c in letters}  # keeps eng and afr legible-ish
    rng = seeded_rng(f"cipher:{family}:{seed}")
    shuffled = list(letters)
    rng.shuffle(shuffled)
    return dict(zip(letters, shuffled))


def word_transforms(seed: int = 0) -> dict[str, dict[str, str]]:
    """Per-language word map over WORDS; eng is the identity. Injective
    per language by construction (asserted)."""
    ciphers = {family: _family_cipher(family, seed) for family in FAMILIES}
    transforms: dict[str, dict[str, str]] = {"eng": {w: w for w in WORDS}}
    for lang in LANGUAGES:
        if lang == "eng":
            continue
        cipher = ciphers[family_of(lang)]
        prefix, suffix = AFFIXES[lang]
        mapping = {}
        for word in WORDS:
            ciphered = "".join(cipher[c] for c in word)
            mapping[word] = (prefix + ciphered if len(ciphered) % 2 == 0
                             else ciphered + suffix)
        assert len(set(mapping.values())) == len(WORDS), \
            f"{lang} word map is not injective"
        transforms[lang] = mapping
    return transforms


def render(sentence: str, mapping: dict[str, str]) -> str:
    return " ".join(mapping[w] for w in sentence.split())


def _base_sentences(n: int, rng: np.random.Generator) -> list[str]:
    low, high = SENTENCE_LENGTHS
    # Zipf-ish word frequencies: rare words stay rare in small corpora, so
    # lexicons trained on them plateau below a perfect score and scores
    # grade with corpus size instead of saturating.
    weights = np.arange(1, len(WORDS) + 1) ** -1.5
    weights /= weights.sum()
    # the draw `rng.choice(len(WORDS), size=length, p=weights)` makes,
    # with its CDF built once rather than once per sentence
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        length = int(rng.integers(low, high + 1))
        idx = cdf.searchsorted(rng.random(length), side="right")
        sentence = " ".join(WORDS[i] for i in idx)
        if sentence not in seen:
            seen.add(sentence)
            out.append(sentence)
    return out


@dataclass(frozen=True)
class ToyData:
    root: Path
    train_manifests: dict[str, Path]  # corpus name -> manifest path
    dev_dir: Path
    summary_path: Path


def generate_toy_data(root: str | Path, seed: int = 0) -> ToyData:
    """Write the full toy dataset under *root*: one eng-X training corpus
    per non-English language, six genuine non-English training pairs, and
    a 9-way parallel dev set. Disjoint base-sentence slices everywhere,
    so no training corpus overlaps another or the dev set."""
    root = Path(root)
    train_dir = root / "train"
    dev_dir = root / "dev"

    transforms = word_transforms(seed)
    total = DEV_SIZE + sum(ENG_TRAIN_SIZES.values()) \
        + sum(NEW_PAIR_SIZES.values())
    base = _base_sentences(total, np.random.default_rng(seed))

    cursor = DEV_SIZE
    manifests: dict[str, Path] = {}

    # eng-X corpora first, then the new pairs; eng renders as itself
    sizes = {("eng", lang): ENG_TRAIN_SIZES[lang]
             for lang in sorted(ENG_TRAIN_SIZES)} | NEW_PAIR_SIZES
    for (src, tgt), size in sizes.items():
        chunk = base[cursor:cursor + size]
        cursor += size
        corpus = BitextCorpus(
            name=DirectionSpec(src, tgt).label, src_lang=src, tgt_lang=tgt,
            pairs=tuple(SentencePair(render(s, transforms[src]),
                                     render(s, transforms[tgt]))
                        for s in chunk))
        manifests[corpus.name] = write_bitext(corpus, train_dir)

    write_multiparallel(dev_dir, {
        lang: [render(s, transforms[lang]) for s in base[:DEV_SIZE]]
        for lang in LANGUAGES})

    summary_path = write_json(root / "toy.json", {
        "seed": seed,
        "languages": list(LANGUAGES),
        "dev_size": DEV_SIZE,
        "train_manifests": {name: str(path.relative_to(root))
                            for name, path in sorted(manifests.items())},
        "dev_dir": str(dev_dir.relative_to(root)),
        "new_directions": new_direction_labels(),
    })
    return ToyData(root, manifests, dev_dir, summary_path)
