"""Aligned bitext corpora with provenance-tracking manifests.

A corpus is two plain-text files (one sentence per line, UTF-8, LF, no
BOM) plus a JSON manifest recording languages, per-side provenance, the
pair count, and per-file SHA-256 checksums. Text is NFC-normalized on
load and write, so a write/load round trip is bit-identical.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
import os
import re
import unicodedata
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Literal, NoReturn, Sequence

import numpy as np

from .errors import (
    BadManifest,
    EmptyLine,
    InvalidConfig,
    MisalignedFiles,
    MissingCorpus,
    MTKitError,
)

# The nine languages of the experiment; a manifest naming any other fails.
DEFAULT_LANGUAGES: tuple[str, ...] = (
    "afr", "eng", "nso", "sna", "ssw", "tsn", "tso", "xho", "zul",
)

_CODE_RE = re.compile(r"^[a-z]{3}$")
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")
# Characters that would break one-sentence-per-line storage.
_LINE_BREAKS = frozenset("\n\r\v\f\x85\u2028\u2029")


def validate_language(code: str) -> str:
    """Return *code* if it is one of the codes in DEFAULT_LANGUAGES."""
    if not _CODE_RE.match(code):
        raise BadManifest(f"bad language code {code!r}: want 3 lowercase letters")
    if code not in DEFAULT_LANGUAGES:
        raise BadManifest(
            f"language {code!r} not in registry {list(DEFAULT_LANGUAGES)}")
    return code


@dataclass(frozen=True)
class Provenance:
    kind: Literal["real", "synthetic"]
    generator_id: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("real", "synthetic"):
            raise BadManifest(f"provenance kind {self.kind!r}")
        if (self.kind == "synthetic") != isinstance(self.generator_id, str):
            raise BadManifest(
                "generator_id is required iff kind is synthetic, as a string")

    def to_json(self) -> dict:
        if self.kind == "real":
            return {"kind": "real"}
        return {"kind": "synthetic", "generator_id": self.generator_id}

    @classmethod
    def from_json(cls, obj: object) -> "Provenance":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise BadManifest(f"bad provenance entry: {obj!r}")
        return cls(obj["kind"], obj.get("generator_id"))


REAL = Provenance("real")


class DirectionSpec(namedtuple("DirectionSpec", "src tgt")):
    """A translation direction src->tgt. It compares and hashes as the
    (src, tgt) tuple, so it keys `RoutingTranslator` routes as it is, and
    with 3-letter codes tuple order is label order."""

    __slots__ = ()

    def __new__(cls, src: str, tgt: str) -> "DirectionSpec":
        if src == tgt:
            raise ValueError(f"direction {src}->{tgt}")
        for side in (src, tgt):
            # so that every label reads back through parse_direction
            if not side or "-" in side:
                raise ValueError(f"direction {src!r}->{tgt!r}: side {side!r}"
                                 f" is empty or holds '-'")
        return super().__new__(cls, src, tgt)

    @property
    def label(self) -> str:
        """The direction as 'src-tgt', the form configs and files use."""
        return f"{self.src}-{self.tgt}"

    @property
    def languages(self) -> frozenset[str]:
        return frozenset(self)

    @property
    def role(self) -> str:
        """"old" if English-centric (trained in stage 1), else "new"."""
        return "old" if "eng" in self else "new"

    def reversed(self) -> "DirectionSpec":
        return DirectionSpec(self.tgt, self.src)


def parse_direction(label: str) -> DirectionSpec:
    """The direction a 'src-tgt' *label* names; ValueError otherwise."""
    parts = label.split("-")
    if len(parts) != 2:
        raise ValueError(f"direction label {label!r}, want 'src-tgt'")
    return DirectionSpec(*parts)


def checked_line(text: str, what: str = "line") -> str:
    """*text* in NFC; ValueError naming it *what* if it is empty after
    trimming or holds a line break. Corpus sides and dev lines alike."""
    text = unicodedata.normalize("NFC", text)
    if not text.rstrip():
        raise ValueError(f"{what} is empty after trimming")
    if not _LINE_BREAKS.isdisjoint(text):
        raise ValueError(f"{what} contains a line break")
    return text


@dataclass(frozen=True, slots=True)
class SentencePair:
    """One aligned sentence pair; both sides NFC, non-empty, single-line.
    Slotted: a corpus holds one per line, and slots keep each one small."""

    src: str
    tgt: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", checked_line(self.src, "src side"))
        object.__setattr__(self, "tgt", checked_line(self.tgt, "tgt side"))

    @classmethod
    def trusted(cls, src: str, tgt: str) -> "SentencePair":
        """A pair of sides that are already checked (each a side of some
        SentencePair, or `checked_line` output), kept as the same
        objects without running the checks again."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "src", src)
        object.__setattr__(pair, "tgt", tgt)
        return pair

    def swapped(self) -> "SentencePair":
        """This pair with its sides exchanged. The checks treat both
        sides alike, so a swapped valid pair is valid and skips them."""
        return SentencePair.trusted(self.tgt, self.src)


@dataclass(frozen=True)
class BitextCorpus:
    name: str
    src_lang: str
    tgt_lang: str
    pairs: tuple[SentencePair, ...]
    src_provenance: Provenance = REAL
    tgt_provenance: Provenance = REAL

    def __post_init__(self) -> None:
        if self.src_lang == self.tgt_lang:
            raise BadManifest(f"src_lang == tgt_lang ({self.src_lang})")
        if not _NAME_RE.match(self.name):
            raise BadManifest(f"corpus name {self.name!r} is not filesystem-safe")
        if not isinstance(self.pairs, tuple):
            object.__setattr__(self, "pairs", tuple(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def src_sentences(self) -> list[str]:
        return [p.src for p in self.pairs]

    @property
    def tgt_sentences(self) -> list[str]:
        return [p.tgt for p in self.pairs]

    def languages(self) -> frozenset[str]:
        return frozenset((self.src_lang, self.tgt_lang))

    @property
    def direction(self) -> DirectionSpec:
        """The direction the corpus is stored in."""
        return DirectionSpec(self.src_lang, self.tgt_lang)


def stored_reversed(corpus: BitextCorpus, src: str, tgt: str) -> bool:
    """Whether reading *corpus* as src->tgt swaps its sides: False when it
    stores src->tgt, True when it stores tgt->src. Raises MissingCorpus
    when the corpus holds neither orientation."""
    if corpus.direction == (src, tgt):
        return False
    if corpus.direction == (tgt, src):
        return True
    raise MissingCorpus(f"{corpus.name} cannot serve {src}->{tgt}")


def orient(corpus: BitextCorpus, src: str, tgt: str,
           indices: Sequence[int] | None = None) -> BitextCorpus:
    """*corpus* read as src->tgt: the pairs at *indices* (all of them by
    default), with pairs and provenance swapped side for side when the
    corpus stores tgt->src (`stored_reversed`). Only the pairs read are
    flipped."""
    flip = stored_reversed(corpus, src, tgt)
    pairs = corpus.pairs if indices is None else tuple(
        corpus.pairs[i] for i in indices)
    if not flip:
        return replace(corpus, pairs=pairs)
    return BitextCorpus(
        name=f"{corpus.name}-rev", src_lang=src, tgt_lang=tgt,
        pairs=tuple(p.swapped() for p in pairs),
        src_provenance=corpus.tgt_provenance,
        tgt_provenance=corpus.src_provenance)


def is_json_int(value: object) -> bool:
    """A JSON integer; booleans are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value: object) -> bool:
    """A JSON number: int or float, but not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def left_to_right_sum(values: Iterable[float]) -> float:
    """Float sum in iteration order. Builtin sum() compensates float sums
    from Python 3.12 on, so its result would depend on the interpreter."""
    return functools.reduce(operator.add, values, 0.0)


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 of *data*, as manifests and run logs record it."""
    return hashlib.sha256(data).hexdigest()


def seeded_rng(text: str) -> np.random.Generator:
    """A numpy generator seeded by the first 8 bytes, read big-endian, of
    the SHA-256 of *text* in UTF-8."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def split_lines(data: bytes, source: object,
                error: Callable[[str], MTKitError] = BadManifest
                ) -> list[str]:
    """The LF-separated lines of UTF-8 *data*; a final LF ends the last
    line rather than starting an empty one. Bytes that are not UTF-8
    raise *error*, naming *source*."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{source} is not valid UTF-8: {exc}") from exc
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_json(path: str | Path, error: Callable[[str], MTKitError]) -> dict:
    """The JSON object in the file at *path*. A file that cannot be read,
    is not strict UTF-8, is not JSON (NaN and Infinity are not, though
    Python's json module reads them) or holds anything but an object
    raises *error* with a message naming *path*."""
    def not_json(token: str) -> NoReturn:
        raise error(f"{path}: {token} is not a JSON value")

    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"),
                         parse_constant=not_json)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno} column {exc.colno}: "
                    f"{exc.msg}") from exc
    except ValueError as exc:  # an integer too long to convert
        raise error(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: not a JSON object")
    return doc


def write_artifact(path: str | Path,
                   data: str | bytes | Iterable[bytes]) -> Path:
    """Write *data* (str as UTF-8, bytes as given, or an iterable of bytes
    chunks written in order) to *path*, creating parent directories, via
    ``.<name>.<pid>.tmp`` and `os.replace`: *path* holds its old bytes or
    all the new ones, never a part, also when the chunks' iterator raises
    (no fsync, so a machine crash may still lose the write). Returns
    *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, bytes):
        data = (data,)
    try:
        with open(tmp, "wb") as out:
            for chunk in data:
                out.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


WRITE_CHUNK_LINES = 1024  # lines `write_lines` encodes and hashes at a time


def write_lines(path: str | Path, lines: Iterable[str]) -> str:
    """`write_artifact` of *lines*, each ended by LF, in UTF-8 (none: an
    empty file), `WRITE_CHUNK_LINES` at a time; returns their hex SHA-256."""
    digest = hashlib.sha256()

    def chunks():
        lines_left = iter(lines)
        while batch := list(itertools.islice(lines_left, WRITE_CHUNK_LINES)):
            chunk = ("\n".join(batch) + "\n").encode("utf-8")
            digest.update(chunk)
            yield chunk

    write_artifact(path, chunks())
    return digest.hexdigest()


def write_json(path: str | Path, doc: object, sort_keys: bool = False) -> Path:
    """`write_artifact` of *doc* as ASCII-escaped, indent-2 JSON + LF."""
    return write_artifact(
        path, json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n")


def _read_checked(path: Path, sha256: str,
                  error: Callable[[str], MTKitError]) -> list[str]:
    """The lines (`split_lines`) of the file at *path*, whose bytes must
    hash to *sha256*; any fault raises *error* naming *path*."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    got = sha256_hex(data)
    if got != sha256:
        raise error(f"{path}: checksum mismatch (expected {sha256[:12]}..., "
                    f"got {got[:12]}...)")
    return split_lines(data, path, error)


def load_bitext(manifest_path: str | Path) -> BitextCorpus:
    """Load a corpus from its manifest, verifying alignment and checksums."""
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path, BadManifest)
    required = ("name", "src_lang", "tgt_lang", "src_file", "tgt_file",
                "src_provenance", "tgt_provenance", "pair_count",
                "src_sha256", "tgt_sha256")
    missing = [k for k in required if k not in manifest]
    if missing:
        raise BadManifest(f"{manifest_path}: missing fields {missing}")
    for key in ("name", "src_lang", "tgt_lang", "src_file", "tgt_file",
                "src_sha256", "tgt_sha256"):
        if not isinstance(manifest[key], str):
            raise BadManifest(f"{manifest_path}: {key} must be a string")
    if not is_json_int(manifest["pair_count"]) or manifest["pair_count"] < 0:
        raise BadManifest(
            f"{manifest_path}: pair_count must be a non-negative integer")

    src_lang = validate_language(manifest["src_lang"])
    tgt_lang = validate_language(manifest["tgt_lang"])
    base = manifest_path.parent
    src_path = base / manifest["src_file"]
    tgt_path = base / manifest["tgt_file"]
    src_lines = _read_checked(src_path, manifest["src_sha256"], BadManifest)
    tgt_lines = _read_checked(tgt_path, manifest["tgt_sha256"], BadManifest)
    if len(src_lines) != len(tgt_lines):
        raise MisalignedFiles(len(src_lines), len(tgt_lines))
    if len(src_lines) != manifest["pair_count"]:
        raise BadManifest(
            f"{manifest_path}: pair_count {manifest['pair_count']} but files "
            f"hold {len(src_lines)} lines")

    pairs = []
    for i, (src, tgt) in enumerate(zip(src_lines, tgt_lines), start=1):
        if not src.rstrip():
            raise EmptyLine(str(src_path), i)
        if not tgt.rstrip():
            raise EmptyLine(str(tgt_path), i)
        try:
            pairs.append(SentencePair(src, tgt))
        except ValueError as exc:  # a line break other than LF
            raise BadManifest(f"{manifest_path}: pair {i}: {exc}") from exc

    return BitextCorpus(
        name=manifest["name"],
        src_lang=src_lang,
        tgt_lang=tgt_lang,
        pairs=tuple(pairs),
        src_provenance=Provenance.from_json(manifest["src_provenance"]),
        tgt_provenance=Provenance.from_json(manifest["tgt_provenance"]),
    )


def write_bitext(corpus: BitextCorpus, out_dir: str | Path) -> Path:
    """Write text files plus manifest under *out_dir*; returns manifest path."""
    out_dir = Path(out_dir)
    src_name = f"{corpus.name}.{corpus.src_lang}"
    tgt_name = f"{corpus.name}.{corpus.tgt_lang}"
    src_sha256 = write_lines(out_dir / src_name, (p.src for p in corpus.pairs))
    tgt_sha256 = write_lines(out_dir / tgt_name, (p.tgt for p in corpus.pairs))
    manifest = {
        "name": corpus.name,
        "src_lang": corpus.src_lang,
        "tgt_lang": corpus.tgt_lang,
        "src_file": src_name,
        "tgt_file": tgt_name,
        "src_provenance": corpus.src_provenance.to_json(),
        "tgt_provenance": corpus.tgt_provenance.to_json(),
        "pair_count": len(corpus),
        "src_sha256": src_sha256,
        "tgt_sha256": tgt_sha256,
    }
    return write_artifact(
        out_dir / f"{corpus.name}.json",
        json.dumps(manifest, ensure_ascii=False, indent=2) + "\n")


def load_multiparallel(dev_dir: str | Path) -> dict[str, list[str]]:
    """Read an n-way parallel dev set: dev.json's `languages` lists known
    language codes, its `files` and `sha256` give a string for each, and
    `pair_count` is a non-negative integer. Each file is read as a corpus
    side is, holds `pair_count` lines, and each line passes the rule of a
    `SentencePair` side. Any fault raises InvalidConfig naming the file."""
    dev_dir = Path(dev_dir)
    path = dev_dir / "dev.json"
    manifest = read_json(path, InvalidConfig)
    langs = manifest.get("languages")
    if not (isinstance(langs, list) and all(isinstance(x, str) for x in langs)):
        raise InvalidConfig(f"{path}: languages must be a list of strings")
    try:
        for lang in langs:
            validate_language(lang)
    except MTKitError as exc:
        raise InvalidConfig(f"{path}: languages: {exc}") from exc
    for key in ("files", "sha256"):
        table = manifest.get(key)
        if not (isinstance(table, dict) and all(
                isinstance(table.get(lang), str) for lang in langs)):
            raise InvalidConfig(
                f"{path}: {key} must be an object with a string for each "
                f"language")
    count = manifest.get("pair_count")
    if not (is_json_int(count) and count >= 0):
        raise InvalidConfig(f"{path}: pair_count must be a non-negative int")
    out: dict[str, list[str]] = {}
    for lang in langs:
        path = dev_dir / manifest["files"][lang]
        lines = _read_checked(path, manifest["sha256"][lang], InvalidConfig)
        if len(lines) != count:
            raise InvalidConfig(
                f"{path}: {len(lines)} lines, manifest says {count}")
        out[lang] = []
        for i, line in enumerate(lines, start=1):
            try:
                out[lang].append(checked_line(line))
            except ValueError as exc:
                raise InvalidConfig(f"{path}:{i}: {exc}") from exc
    return out


def write_multiparallel(dev_dir: str | Path,
                        sentences_by_lang: dict[str, list[str]]) -> Path:
    """Write the dev set `load_multiparallel` reads, languages in the given
    order: a `dev.<lang>` file per language, then `dev.json` (returned).
    Every language must hold the same number of lines."""
    dev_dir = Path(dev_dir)
    return write_json(dev_dir / "dev.json", {
        "languages": list(sentences_by_lang),
        "pair_count": len(next(iter(sentences_by_lang.values()), [])),
        "files": {lang: f"dev.{lang}" for lang in sentences_by_lang},
        "sha256": {lang: write_lines(dev_dir / f"dev.{lang}", lines)
                   for lang, lines in sentences_by_lang.items()},
    })


def dev_bitext(dev: dict[str, list[str]], src: str, tgt: str) -> BitextCorpus:
    return BitextCorpus(
        f"dev-{DirectionSpec(src, tgt).label}", src, tgt,
        tuple(SentencePair(a, b) for a, b in zip(dev[src], dev[tgt])))


def split_validation(corpus: BitextCorpus, n: int = 3000
                     ) -> tuple[BitextCorpus, BitextCorpus]:
    """Reserve the first *n* pairs (released file order) for validation.

    Returns (validation, train); both keep the original ordering and
    side provenance. n may exceed the corpus, leaving an empty train set.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    head, tail = corpus.pairs[:n], corpus.pairs[n:]
    return (replace(corpus, name=f"{corpus.name}-valid", pairs=head),
            replace(corpus, name=f"{corpus.name}-train", pairs=tail))


@dataclass(frozen=True)
class CorpusStats:
    name: str
    pair_count: int
    src_tokens: int
    tgt_tokens: int
    src_chars: int
    tgt_chars: int

    def to_json(self) -> dict:
        return asdict(self)


def corpus_stats(corpus: BitextCorpus) -> CorpusStats:
    """Pair, whitespace-token, and character counts (deterministic)."""
    return CorpusStats(
        name=corpus.name,
        pair_count=len(corpus),
        src_tokens=sum(len(p.src.split()) for p in corpus.pairs),
        tgt_tokens=sum(len(p.tgt.split()) for p in corpus.pairs),
        src_chars=sum(len(p.src) for p in corpus.pairs),
        tgt_chars=sum(len(p.tgt) for p in corpus.pairs),
    )


def concat_corpora(name: str, corpora: Sequence[BitextCorpus]) -> BitextCorpus:
    """Concatenate same-direction corpora; provenance falls back to the
    most permissive side label (synthetic wins if any part is synthetic)."""
    if not corpora:
        raise ValueError("nothing to concatenate")
    first = corpora[0]
    for c in corpora[1:]:
        if c.direction != first.direction:
            raise BadManifest(
                f"cannot concatenate {c.name}: {c.direction.label} vs "
                f"{first.direction.label}")
    pairs = tuple(p for c in corpora for p in c.pairs)

    def merge_side(provs: list[Provenance]) -> Provenance:
        synth = [p for p in provs if p.kind == "synthetic"]
        if not synth:
            return REAL
        ids = sorted({p.generator_id or "" for p in synth})
        return Provenance("synthetic", "+".join(ids))

    return BitextCorpus(
        name=name,
        src_lang=first.src_lang,
        tgt_lang=first.tgt_lang,
        pairs=pairs,
        src_provenance=merge_side([c.src_provenance for c in corpora]),
        tgt_provenance=merge_side([c.tgt_provenance for c in corpora]),
    )
