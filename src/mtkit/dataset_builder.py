"""Direction-tagged training mixtures for multilingual models.

Stage 1 mixes every English-centric corpus in both directions. Stage 2
adds new (non-English) directions and rebalances: each new direction of
size N is matched with its encoder-side old direction X->eng and its
decoder-side old direction eng->Y, both sliced down to min(N, available)
by seeded uniform sampling; old directions no plan entry matches are
capped at a default (the median new-direction size). A slice holds
indices into its corpus; readers take just those pairs through
`corpus.orient`, which flips them when the corpus stores the other
orientation; export takes their two strings by index under the same
rule (`corpus.stored_reversed`). Exports are globally shuffled with the
mixture seed and byte-stable for a given seed, with a sidecar manifest
recording per-direction example counts.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import (
    BitextCorpus,
    DirectionSpec,
    orient,
    parse_direction,
    seeded_rng,
    stored_reversed,
    write_artifact,
    write_json,
)
from .errors import MissingTagToken, NonEnglishCorpus, PlanCoverage
from .vocab import Vocabulary


@dataclass(frozen=True)
class MixtureSlice:
    corpus: BitextCorpus
    direction: DirectionSpec
    indices: tuple[int, ...]

    def read(self) -> BitextCorpus:
        """The slice's pairs, read in its direction."""
        return orient(self.corpus, *self.direction, self.indices)

    @property
    def count(self) -> int:
        return len(self.indices)

    @property
    def synthetic(self) -> bool:
        return (self.corpus.src_provenance.kind == "synthetic"
                or self.corpus.tgt_provenance.kind == "synthetic")


@dataclass(frozen=True)
class TrainingMixture:
    stage: str  # "stage1" | "stage2"
    slices: tuple[MixtureSlice, ...]
    seed: int

    def direction_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.slices:
            counts[s.direction.label] = counts.get(s.direction.label, 0) + s.count
        return counts

    def total(self) -> int:
        return sum(s.count for s in self.slices)


def _both_directions(corpus: BitextCorpus) -> tuple[DirectionSpec, ...]:
    """The two old directions of an English-centric corpus, stored first."""
    return corpus.direction, corpus.direction.reversed()


def _without_english(corpora: Sequence[BitextCorpus]) -> list[str]:
    return [f"{c.name} ({c.direction.label}) has no English side; "
            f"stage 1 is English-centric"
            for c in corpora if "eng" not in c.languages()]


def build_stage1_mixture(corpora: Sequence[BitextCorpus],
                         seed: int = 0) -> TrainingMixture:
    """Both directions of every English-centric corpus, nothing sampled."""
    problems = _without_english(corpora)
    if problems:
        raise NonEnglishCorpus("; ".join(problems))
    return TrainingMixture("stage1", tuple(
        MixtureSlice(corpus, direction, tuple(range(len(corpus))))
        for corpus in corpora for direction in _both_directions(corpus)), seed)


@dataclass(frozen=True)
class PlanEntry:
    new: DirectionSpec
    old: tuple[DirectionSpec, DirectionSpec]


@dataclass(frozen=True)
class BalancePlan:
    entries: tuple[PlanEntry, ...]

    def to_json(self) -> dict:
        return {"entries": [
            {"new": e.new.label, "old": [o.label for o in e.old]}
            for e in self.entries]}

    def save(self, path: str | Path) -> Path:
        return write_json(path, self.to_json())


def make_balance_plan(new_directions: Iterable[str | DirectionSpec]
                      ) -> BalancePlan:
    """Apply the matching rule: new X->Y pairs with X->eng (the encoder
    keeps seeing X input) and eng->Y (the decoder keeps emitting Y)."""
    entries = []
    for d in new_directions:
        spec = parse_direction(d) if isinstance(d, str) else d
        entries.append(PlanEntry(
            new=spec,
            old=(DirectionSpec(spec.src, "eng"),
                 DirectionSpec("eng", spec.tgt)),
        ))
    return BalancePlan(tuple(entries))


def stage2_problems(old: Sequence[BitextCorpus],
                    new: Sequence[DirectionSpec],
                    plan: BalancePlan | None) -> list[tuple[str, str]]:
    """Why *old* corpora, *new* directions and *plan* (if given) cannot
    make a stage-2 mixture, each problem as (what, message) with *what*
    one of "old", "new" and "plan". Old corpora need an English side and
    new directions none; no two old corpora and no two new directions
    share a language pair; each new direction's language pair has
    exactly one plan entry, no entry is off those pairs, and each entry's
    old directions have a corpus. Directions match by language pair. A
    plan from `make_balance_plan` over *new* has its one entry per
    direction by construction; a hand-built plan may not, and an old
    direction it names may lack a corpus either way."""
    problems = [("old", m) for m in _without_english(old)]
    for what, named in (("old", [(c.languages(), c.name) for c in old]),
                        ("new", [(d.languages, d.label) for d in new])):
        by_pair: dict[frozenset[str], list[str]] = {}
        for pair, name in named:
            by_pair.setdefault(pair, []).append(name)
        problems += [(what, f"{' and '.join(names)} share their languages; "
                            f"each language pair may appear once")
                     for names in by_pair.values() if len(names) > 1]
    problems += [("new", f"{d.label} involves eng; new directions are the "
                         f"non-English ones")
                 for d in new if "eng" in d.languages]
    if plan is None:
        return problems
    pairs = {d.languages: d for d in new}
    served = {c.languages() for c in old}
    for d in pairs.values():
        n = sum(e.new.languages == d.languages for e in plan.entries)
        if n != 1:
            problems.append(("plan", f"{n} entries for new direction "
                                     f"{d.label}, want exactly 1"))
    for e in plan.entries:
        if e.new.languages not in pairs:
            problems.append(("plan", f"entry {e.new.label} serves no new "
                                     f"direction of the run"))
        problems += [("plan", f"entry {e.new.label}: no English-centric "
                              f"corpus serves {o.label}")
                     for o in e.old if o.languages not in served]
    return problems


def build_stage2_mixture(old: Sequence[BitextCorpus],
                         new: Sequence[BitextCorpus],
                         plan: BalancePlan,
                         seed: int,
                         default_cap: int | None = None) -> TrainingMixture:
    """Balanced stage-2 mixture per the plan; raises PlanCoverage with
    every problem `stage2_problems` finds. Sampling is per-slice seeded,
    so adding or removing one entry never reshuffles the others."""
    problems = stage2_problems(old, [c.direction for c in new], plan)
    if problems:
        raise PlanCoverage("; ".join(m for _, m in problems))
    by_pair = {c.languages(): c for c in (*old, *new)}
    new_sizes = [len(by_pair[e.new.languages]) for e in plan.entries]
    cap = default_cap if default_cap is not None else (
        int(statistics.median(new_sizes)) if new_sizes else 0)

    def sampled_slice(direction: DirectionSpec, n: int) -> MixtureSlice:
        corpus = by_pair[direction.languages]
        n = min(n, len(corpus))
        if n == len(corpus):
            indices = tuple(range(len(corpus)))
        else:
            rng = seeded_rng(f"{seed}:stage2:{direction.label}:{corpus.name}")
            indices = tuple(
                int(i) for i in
                np.sort(rng.choice(len(corpus), size=n, replace=False)))
        return MixtureSlice(corpus, direction, indices)

    slices = [sampled_slice(d, n) for e, n in zip(plan.entries, new_sizes)
              for d in (e.new, *e.old)]
    matched = {d for e in plan.entries for d in e.old}
    leftovers = sorted(d for c in old for d in _both_directions(c)
                       if d not in matched)
    slices += [sampled_slice(d, cap) for d in leftovers]
    return TrainingMixture("stage2", tuple(slices), seed)


@dataclass(frozen=True)
class ExportResult:
    src_path: Path
    tgt_path: Path
    sidecar_path: Path
    direction_counts: dict[str, int]
    total: int


# Rows rendered per chunk of an export file: each file is written in
# pieces of this many rows, so memory stays flat as the file grows.
EXPORT_CHUNK_ROWS = 1024


def _chunks(tags: list[str], surfaces: list[str], order: np.ndarray
            ) -> Iterator[bytes]:
    """The UTF-8 rows `f"{tags[j]} {surfaces[j]}\n"` for j in *order*,
    `EXPORT_CHUNK_ROWS` rows a chunk, each chunk joined from tag and
    surface pieces without building a row string."""
    for start in range(0, len(order), EXPORT_CHUNK_ROWS):
        rows = order[start:start + EXPORT_CHUNK_ROWS].tolist()
        parts: list[str | None] = [None, " ", None, "\n"] * len(rows)
        parts[0::4] = map(tags.__getitem__, rows)
        parts[2::4] = map(surfaces.__getitem__, rows)
        yield "".join(parts).encode("utf-8")


def export_mixture(mixture: TrainingMixture, vocab: Vocabulary,
                   out_dir: str | Path, threads: int = 1) -> ExportResult:
    """Write the shuffled, tagged mixture as aligned token-surface files.

    Lines are space-joined token surfaces with the direction tag first,
    so `grep -c '^<src:xho>'` style recounts can audit the sidecar. The
    global shuffle is seeded by the mixture seed; output bytes depend
    only on (mixture, vocab). Each slice's strings are taken by index
    from its corpus's pairs, sides swapped when the corpus stores the
    other orientation (`corpus.stored_reversed`); no oriented corpus or
    swapped pair is built. Each distinct sentence is rendered once per
    call (`Vocabulary.surface_line`, itself cached per word type), through
    a memo local to the call: the balance rule reads most pool sentences
    in both directions. Each file is then written in chunks of
    `EXPORT_CHUNK_ROWS` rows in shuffled order (`_chunks`), so no
    whole-file string or bytes object is built. *threads* is unused.
    """
    out_dir = Path(out_dir)
    surface = functools.cache(vocab.surface_line)
    src_tags: list[str] = []
    tgt_tags: list[str] = []
    src_surfaces: list[str] = []
    tgt_surfaces: list[str] = []
    for s in mixture.slices:
        d = s.direction
        src_tag, tgt_tag = f"<src:{d.src}>", f"<tgt:{d.tgt}>"
        for tag in (src_tag, tgt_tag):
            if vocab.token_id(tag) is None:
                raise MissingTagToken(f"vocabulary lacks {tag}")
        pairs = [s.corpus.pairs[i] for i in s.indices]
        srcs, tgts = [p.src for p in pairs], [p.tgt for p in pairs]
        if stored_reversed(s.corpus, *d):
            srcs, tgts = tgts, srcs
        src_tags += [src_tag] * len(pairs)
        tgt_tags += [tgt_tag] * len(pairs)
        src_surfaces += map(surface, srcs)
        tgt_surfaces += map(surface, tgts)
    del surface  # the memo: no longer needed once every row has its surface

    order = np.random.default_rng(mixture.seed).permutation(len(src_tags))
    src_path = out_dir / f"{mixture.stage}.src"
    tgt_path = out_dir / f"{mixture.stage}.tgt"
    write_artifact(src_path, _chunks(src_tags, src_surfaces, order))
    write_artifact(tgt_path, _chunks(tgt_tags, tgt_surfaces, order))

    counts = mixture.direction_counts()
    sidecar = {
        "stage": mixture.stage,
        "seed": mixture.seed,
        "total": mixture.total(),
        "src_file": src_path.name,
        "tgt_file": tgt_path.name,
        "directions": {k: counts[k] for k in sorted(counts)},
        "slices": [{
            "corpus": s.corpus.name,
            "direction": s.direction.label,
            "role": s.direction.role,
            "count": s.count,
            "synthetic": s.synthetic,
        } for s in mixture.slices],
    }
    sidecar_path = write_json(out_dir / f"{mixture.stage}.mixture.json",
                              sidecar)
    return ExportResult(src_path, tgt_path, sidecar_path, counts,
                        mixture.total())
