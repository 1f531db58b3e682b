"""Declarative two-stage training pipeline.

One JSON config pins an entire experiment: corpora, vocabulary settings,
stage-1 candidate training, back-translation and pivot synthesis, the
balanced stage-2 mixture, and evaluation. `run_pipeline` executes the
steps in order into a single-writer run directory, records a run log
with input/output checksums per step, and leaves partial outputs in
place when a step fails.

Relative paths in a config file are resolved against the config file's
directory, so a config can travel with its data. Every input the config
names is loaded once, before any step runs, by the pass `validate_config`
makes. Outputs are byte-identical across repeated runs (timestamps in the
log aside).
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

from .corpus import (
    DEFAULT_LANGUAGES,
    BitextCorpus,
    DirectionSpec,
    concat_corpora,
    dev_bitext,
    is_json_int,
    load_bitext,
    load_multiparallel,
    orient,
    parse_direction,
    read_json,
    sha256_hex,
    split_validation,
    write_artifact,
    write_bitext,
    write_json,
)
from .dataset_builder import (
    TrainingMixture,
    build_stage1_mixture,
    build_stage2_mixture,
    export_mixture,
    make_balance_plan,
    stage2_problems,
)
from .errors import (
    ConfigValidationError,
    MTKitError,
    StepFailure,
    VocabSizeTooSmall,
)
from .metrics import EvalReport, evaluate_directions, score_candidates
from .synthesis import backtranslate, pivot_synthesize
from .translator import (
    MAX_EM_ITERATIONS,
    IdentityTranslator,
    LexiconTranslator,
    RoutingTranslator,
    TranslatorModel,
    check_direction,
    load_translator,
    train_lexicon,
)
from .vocab import (
    LangCorpusSet,
    VocabConfig,
    Vocabulary,
    base_tokens,
    train_bpe,
    train_obpe,
)
from .vocab_metrics import vocabulary_report

# Run order; step "x-y" runs `_Runner.step_x_y`.
STEPS = (
    "validate",
    "split-validation",
    "vocab-train",
    "vocab-report",
    "stage1-train",
    "model-selection",
    "back-translation",
    "pivot-synthesis",
    "stage2-balance",
    "stage2-retrain",
    "final-eval",
)


# -- configuration -------------------------------------------------------

def load_config(path: str | Path) -> dict:
    """Parse a config file and resolve its relative paths against the
    config file's own directory."""
    path = Path(path)
    cfg = read_json(path, lambda msg: ConfigValidationError([msg]))
    return _resolve_paths(cfg, path.parent)


def _resolve_paths(cfg: dict, base: Path) -> dict:
    cfg = json.loads(json.dumps(cfg))  # deep copy, JSON types only

    def resolve(p):
        return (str((base / p).resolve())
                if isinstance(p, str) and not Path(p).is_absolute() else p)

    for key in ("corpora", "new_corpora"):
        if isinstance(cfg.get(key), list):
            cfg[key] = [resolve(p) for p in cfg[key]]
    for section, key in ((cfg, "output_root"), (cfg.get("eval"), "dev_dir")):
        if isinstance(section, dict) and key in section:
            section[key] = resolve(section[key])
    bt = cfg.get("backtranslation")
    if isinstance(bt, dict) and isinstance(bt.get("models"), dict):
        # 'internal', 'none' and exec: commands name no file
        bt["models"] = {label: spec if spec in ("internal", "none")
                        or str(spec).startswith("exec:") else resolve(spec)
                        for label, spec in bt["models"].items()}
    return cfg


# Each config field with its default (vocab may add VocabConfig's fields);
# a required field defaults to None.
_DEFAULTS = {
    "name": None, "seed": None, "output_root": None, "corpora": None,
    "new_corpora": [],
    "validation_split": 0,
    "vocab": {"use": "obpe"},
    "stage1": {"em_iterations": [5, 15]},
    "backtranslation": {"default": "internal", "models": {}},
    "stage2": {"em_iterations": 20, "new_directions": None},
    "eval": {"dev_dir": None},
}


def _with_defaults(cfg: dict) -> dict:
    """A copy of *cfg* with each field it omits set to its default. A
    section that is not an object stays as it is, for validation to
    report."""
    cfg, defaults = json.loads(json.dumps([cfg, _DEFAULTS]))
    for key, default in defaults.items():
        section = cfg.setdefault(key, default)
        if isinstance(default, dict) and isinstance(section, dict):
            for field_name, value in default.items():
                section.setdefault(field_name, value)
    return cfg


_VOCAB_FIELDS = frozenset(f.name for f in fields(VocabConfig))


def _vocab_config(section: dict) -> VocabConfig:
    """The VocabConfig of a config's vocab section, defaults for the rest."""
    return VocabConfig(**{k: v for k, v in section.items()
                          if k in _VOCAB_FIELDS})


def _is_em_iterations(value: object) -> bool:
    return is_json_int(value) and 1 <= value <= MAX_EM_ITERATIONS


@dataclass
class _Inputs:
    """Every input a config names, each loaded by its format's own loader,
    the VocabConfig and new directions the config gives, and the text
    vocab-train learns from (the corpora after validation_split, plus
    new_corpora)."""
    corpora: list[BitextCorpus] = field(default_factory=list)
    new_corpora: list[BitextCorpus] = field(default_factory=list)
    dev: dict[str, list[str]] = field(default_factory=dict)
    models: dict[str, TranslatorModel] = field(default_factory=dict)
    vocab: VocabConfig | None = None
    vocab_data: LangCorpusSet | None = None
    new: list[DirectionSpec] = field(default_factory=list)


def _direction_problems(where: str, new: list[DirectionSpec],
                        corpora: list[BitextCorpus]) -> list[str]:
    """The run's own rule for its *new* directions (from config field
    *where*): pivot synthesis, and stage 2's balance plan, need an
    English-centric corpus in *corpora* for each language of one."""
    served = {c.languages() for c in corpora}
    return [f"{where}: {d.label} needs an English-centric corpus for {lang}"
            for d in new if "eng" not in d.languages
            for lang in (d.src, d.tgt)
            if frozenset(("eng", lang)) not in served]


def _load_inputs(cfg: dict) -> tuple[_Inputs, list[str]]:
    """Check *cfg*, its defaults applied, against the schema and load
    every input it names: corpora, the dev set and the back-translation
    models. Returns the inputs and one problem line per failure; the
    inputs are whole only when there is no problem."""
    inputs = _Inputs()
    problems: list[str] = []

    def section(key: str) -> dict | None:
        if isinstance(cfg[key], dict):
            return cfg[key]
        problems.append(f"{key}: must be an object")
        return None

    name = cfg.get("name")
    if not isinstance(name, str) or not name:
        problems.append("name: required non-empty string")
    seed = cfg.get("seed")
    if not is_json_int(seed):
        problems.append("seed: required integer (seeds must be explicit)")
    elif seed < 0:  # numpy takes no negative seed
        problems.append("seed: must be a non-negative integer")
    if not isinstance(cfg.get("output_root"), str):
        problems.append("output_root: required path string")
    for key, default in (("", _DEFAULTS), *_DEFAULTS.items()):
        given = cfg[key] if key else cfg
        if isinstance(default, dict) and isinstance(given, dict):
            unknown = given.keys() - default.keys() - (
                _VOCAB_FIELDS if key == "vocab" else set())
            if unknown:
                problems.append(f"{key + ': ' if key else ''}unknown fields "
                                f"{sorted(unknown)}")

    corpora = cfg.get("corpora")
    if not isinstance(corpora, list) or not corpora:
        problems.append("corpora: required non-empty list of manifest paths")
        corpora = []
    new_corpora = cfg["new_corpora"]
    if not isinstance(new_corpora, list):
        problems.append("new_corpora: must be a list of manifest paths")
        new_corpora = []
    for key, paths, loaded in (("corpora", corpora, inputs.corpora),
                               ("new_corpora", new_corpora,
                                inputs.new_corpora)):
        for p in paths:
            if not isinstance(p, str):
                problems.append(f"{key}: entries must be path strings")
            elif not Path(p).is_file():
                problems.append(f"{key}: missing manifest {p}")
            else:
                try:
                    loaded.append(load_bitext(p))
                except MTKitError as exc:
                    where = "" if p in str(exc) else f"{p}: "
                    problems.append(f"{key}: {where}{exc}")
    # split-validation and back-translation name a corpus's files after it
    problems += [f"corpora: {k} manifests are named {name!r}; their files "
                 f"in the run directory would overwrite each other"
                 for name, k in Counter(c.name for c in inputs.corpora).items()
                 if k > 1]

    vocab_cfg = section("vocab")
    if vocab_cfg is not None:
        if vocab_cfg["use"] not in ("bpe", "obpe"):
            problems.append("vocab.use: must be 'bpe' or 'obpe'")
        try:
            inputs.vocab = _vocab_config(vocab_cfg)
        except MTKitError as exc:
            problems.append(f"vocab: {exc}")

    split = cfg["validation_split"]
    split_ok = is_json_int(split) and split >= 0
    if not split_ok:
        problems.append("validation_split: must be a non-negative integer")
    for corpus in inputs.corpora:
        if not corpus.pairs:
            problems.append(f"corpora: {corpus.name} holds no pairs")
        elif split_ok and split >= len(corpus):
            problems.append(
                f"validation_split: {split} takes all {len(corpus)} pairs of "
                f"{corpus.name}, leaving none to train on")
    if (inputs.vocab is not None and split_ok
            and len(inputs.corpora) == len(corpora)
            and len(inputs.new_corpora) == len(new_corpora)):
        # the text vocab-train learns from
        train = [split_validation(c, split)[1] for c in inputs.corpora]
        inputs.vocab_data = LangCorpusSet.from_bitexts(
            train + inputs.new_corpora)
        try:
            base_tokens(inputs.vocab_data, inputs.vocab)
        except VocabSizeTooSmall as exc:
            problems.append(f"vocab.vocab_size: {exc}")

    stage1, bt, stage2 = (section(key) for key in
                          ("stage1", "backtranslation", "stage2"))
    if stage1 is not None:
        iters = stage1["em_iterations"]
        if (not isinstance(iters, list) or not iters
                or not all(map(_is_em_iterations, iters))
                or len(set(iters)) != len(iters)):
            problems.append("stage1.em_iterations: non-empty list of "
                            f"distinct ints in 1..{MAX_EM_ITERATIONS}")

    if bt is not None:
        if bt["default"] not in ("internal", "none"):
            problems.append(
                "backtranslation.default: must be 'internal' or 'none'")
        models = bt["models"]
        if not isinstance(models, dict):
            problems.append("backtranslation.models: must be an object")
            models = {}
        # a model back-translates the corpus stored as its key
        stored = {c.direction.label: c for c in inputs.corpora}
        for label, spec in models.items():
            corpus = stored.get(label)
            if not isinstance(spec, str):
                problems.append(
                    f"backtranslation.models: {label}: spec must be a string")
                continue
            if corpus is None and len(inputs.corpora) == len(corpora):
                problems.append(f"backtranslation.models: {label}: no corpus "
                                f"in corpora is stored as {label}")
            if spec in ("internal", "none"):
                continue
            try:
                inputs.models[label] = model = load_translator(spec)
                if corpus is not None:
                    check_direction(model, corpus.tgt_lang, corpus.src_lang)
            except MTKitError as exc:
                problems.append(f"backtranslation.models: {label}: {exc}")

    new: list[DirectionSpec] = []
    directions, where = [], "stage2.new_directions"
    if stage2 is not None:
        if not _is_em_iterations(stage2["em_iterations"]):
            problems.append("stage2.em_iterations: must be an int in "
                            f"1..{MAX_EM_ITERATIONS}")
        directions = stage2["new_directions"]
        if directions is None:
            if not new_corpora:
                problems.append(
                    "stage2: the run needs at least one new direction; give "
                    "new_corpora or stage2.new_directions")
            # load_bitext has checked these corpora's languages
            new = [c.direction for c in inputs.new_corpora]
            directions, where = new, "new_corpora"
        elif not isinstance(directions, list) or not directions:
            problems.append("stage2.new_directions: must be a non-empty list")
            directions = []
        else:
            for label in directions:
                try:
                    d = parse_direction(str(label))
                except ValueError as exc:
                    problems.append(f"{where}: {exc}")
                    continue
                unknown = [lang for lang in d if lang not in DEFAULT_LANGUAGES]
                problems += [f"{where}: unknown language {lang!r} in {label}"
                             for lang in unknown]
                if not unknown:
                    new.append(d)
        inputs.new = new
    # new directions only from whole inputs, lest a corpus or label that
    # failed counts twice
    whole = bool(inputs.corpora and len(inputs.corpora) == len(corpora)
                 and len(inputs.new_corpora) == len(new_corpora)
                 and len(new) == len(directions))
    fields_of = {"old": "corpora", "new": where}
    problems += [f"{fields_of[what]}: {message}" for what, message in
                 stage2_problems(inputs.corpora, new if whole else [], None)]
    if whole:
        problems += _direction_problems(where, new, inputs.corpora)

    ev = section("eval")
    if ev is not None:
        if not isinstance(ev.get("dev_dir"), str):
            problems.append("eval.dev_dir: required path string")
        else:
            try:
                inputs.dev = load_multiparallel(ev["dev_dir"])
            except MTKitError as exc:
                problems.append(f"eval.dev_dir: {exc}")
            else:
                languages = {lang for c in inputs.corpora + inputs.new_corpora
                             for lang in c.languages()}
                missing = sorted(languages - set(inputs.dev))
                if missing:
                    problems.append(
                        f"eval.dev_dir: dev set lacks languages {missing}")

    return inputs, problems


def validate_config(cfg: dict | str | Path) -> list[str]:
    """Schema checks, and every input file the config names loaded as a
    run loads it (corpus languages must be among the nine known ones).
    Returns a list of problems, empty when the config is usable. Writes
    nothing."""
    try:
        cfg = load_config(cfg) if isinstance(cfg, (str, Path)) else cfg
    except ConfigValidationError as exc:
        return list(exc.problems)
    return _load_inputs(_with_defaults(cfg))[1]


# -- run machinery -------------------------------------------------------

def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _ms_since(clock: float) -> float:
    """Milliseconds since the `time.perf_counter` reading *clock*, to the
    microsecond."""
    return round((time.perf_counter() - clock) * 1000, 3)


@dataclass
class RunResult:
    run_dir: Path
    log_path: Path
    config: dict
    summary: dict


@dataclass
class _State:
    cfg: dict
    run_dir: Path
    inputs: _Inputs
    old_train: list[BitextCorpus] = field(default_factory=list)
    vocab_bpe: Vocabulary | None = None
    vocab_obpe: Vocabulary | None = None
    vocab: Vocabulary | None = None
    candidates: dict[DirectionSpec, list[tuple[TranslatorModel, str]]] = \
        field(default_factory=dict)
    selected: dict[DirectionSpec, TranslatorModel] = \
        field(default_factory=dict)
    old_pool: list[BitextCorpus] = field(default_factory=list)
    new_pool: list[BitextCorpus] = field(default_factory=list)
    stage2_mixture: TrainingMixture | None = None
    stage2_models: dict[DirectionSpec, TranslatorModel] = \
        field(default_factory=dict)
    summary: dict = field(default_factory=dict)


class _Runner:
    def __init__(self, cfg: dict, run_dir: Path, inputs: _Inputs,
                 config_source: Path | None) -> None:
        self.state = _State(cfg, run_dir, inputs)
        self.config_source = config_source
        self.log_path = run_dir / "run_log.json"
        self.entries: list[dict] = []

    def _rel(self, path: Path) -> str:
        """*path*'s run-log key: relative to the run dir when inside it,
        else resolved, so that two inputs of one name keep two keys."""
        try:
            return path.relative_to(self.state.run_dir).as_posix()
        except ValueError:
            return path.resolve().as_posix()

    def _write_log(self, status: str) -> None:
        """Rewrite the run log: indent-2 JSON of the run's name, *status*
        and the step entries so far."""
        doc = {"name": self.state.cfg["name"], "status": status,
               "steps": self.entries}
        write_artifact(self.log_path, json.dumps(doc, indent=2) + "\n")

    def run(self) -> RunResult:
        for name in STEPS:
            step = getattr(self, "step_" + name.replace("-", "_"))
            started, clock = _now(), time.perf_counter()
            try:
                inputs, outputs = step()
            except Exception as exc:
                self.entries.append({
                    "step": name, "status": "failed", "error": str(exc),
                    "started_at": started, "finished_at": _now(),
                    "duration_ms": _ms_since(clock)})
                self._write_log("failed")
                raise StepFailure(name, exc) from exc
            self.entries.append({
                "step": name, "status": "ok",
                "started_at": started, "finished_at": _now(),
                "duration_ms": _ms_since(clock),
                "inputs": {self._rel(p): sha256_hex(p.read_bytes())
                           for p in inputs},
                "outputs": {self._rel(p): sha256_hex(p.read_bytes())
                            for p in outputs}})
            self._write_log("running")
        self._write_log("ok")
        return RunResult(self.state.run_dir, self.log_path,
                         self.state.cfg, self.state.summary)

    # -- steps ---------------------------------------------------------

    def step_validate(self):
        snapshot = self.state.run_dir / "config.json"
        if self.config_source is not None:
            write_artifact(snapshot, self.config_source.read_bytes())
        else:
            write_json(snapshot, self.state.cfg, sort_keys=True)
        inputs = [self.config_source] if self.config_source else []
        return inputs, [snapshot]

    def step_split_validation(self):
        cfg, run_dir = self.state.cfg, self.state.run_dir
        out = run_dir / "corpora"
        n = cfg["validation_split"]
        outputs = []
        for corpus in self.state.inputs.corpora:
            if n:
                valid, train = split_validation(corpus, n)
                outputs.append(write_bitext(valid, out))
            else:
                train = corpus
            outputs.append(write_bitext(train, out))
            self.state.old_train.append(train)
        return [Path(p) for p in cfg["corpora"] + cfg["new_corpora"]], outputs

    def step_vocab_train(self):
        cfg, inputs = self.state.cfg, self.state.inputs
        out = self.state.run_dir / "vocab"
        self.state.vocab_bpe = train_bpe(inputs.vocab_data, inputs.vocab)
        self.state.vocab_obpe = train_obpe(inputs.vocab_data, inputs.vocab)
        bpe_path = self.state.vocab_bpe.save(out / "bpe.json")
        obpe_path = self.state.vocab_obpe.save(out / "obpe.json")
        self.state.vocab = (self.state.vocab_obpe
                            if cfg["vocab"]["use"] == "obpe"
                            else self.state.vocab_bpe)
        return [], [bpe_path, obpe_path]

    def step_vocab_report(self):
        out = self.state.run_dir / "vocab"
        doc = vocabulary_report(self.state.old_train
                                + self.state.inputs.new_corpora,
                                self.state.vocab_bpe, self.state.vocab_obpe)
        path = write_json(out / "vocab_report.json", doc, sort_keys=True)
        table_path = write_artifact(out / "vocab_report.txt",
                                    "\n\n".join(doc["tables"].values()) + "\n")
        return [out / "bpe.json", out / "obpe.json"], [path, table_path]

    def step_stage1_train(self):
        cfg, state = self.state.cfg, self.state
        out = state.run_dir / "stage1"
        cand_dir = out / "candidates"
        outputs = []
        mixture = build_stage1_mixture(state.old_train, seed=cfg["seed"])
        for s in mixture.slices:
            d = s.direction
            oriented = orient(s.corpus, d.src, d.tgt)
            state.candidates[d] = []
            for iters in cfg["stage1"]["em_iterations"]:
                lexicon = train_lexicon(oriented, iterations=iters)
                name = f"em{iters}"
                outputs.append(
                    lexicon.save(cand_dir / f"{d.label}-{name}.json"))
                state.candidates[d].append(
                    (LexiconTranslator(lexicon), name))
        export = export_mixture(mixture, state.vocab, out / "mixture")
        outputs += [export.src_path, export.tgt_path, export.sidecar_path]
        return [], outputs

    def step_model_selection(self):
        state = self.state
        dev = state.inputs.dev
        out = state.run_dir / "stage1"
        selection: dict[str, dict] = {}
        outputs = []
        directions = sorted(state.candidates)
        devsets = {d: dev_bitext(dev, d.src, d.tgt) for d in directions}
        # every candidate of every direction in one BLEU pass
        all_scores = iter(score_candidates(
            [(model, devsets[d]) for d in directions
             for model, _ in state.candidates[d]]))
        for d in directions:
            label = d.label
            candidates = state.candidates[d]
            scores = list(itertools.islice(all_scores, len(candidates)))
            best = scores.index(max(scores))
            model, chosen = candidates[best]
            selection[label] = {
                "chosen": chosen,
                "dev_bleu": {name: round(score, 4) for (_, name), score
                             in zip(candidates, scores)}}
            state.selected[d] = model
            # the candidate file already holds this lexicon's bytes
            outputs.append(write_artifact(
                out / "lexicons" / f"{label}.json",
                (out / "candidates" / f"{label}-{chosen}.json").read_bytes()))
        path = write_json(out / "selection.json", selection, sort_keys=True)
        return [], outputs + [path]

    def step_back_translation(self):
        cfg, state = self.state.cfg, self.state
        bt_cfg = cfg["backtranslation"]
        out = state.run_dir / "synth" / "bt"
        outputs = []
        for corpus in state.old_train:
            label = corpus.direction.label
            spec = bt_cfg["models"].get(label, bt_cfg["default"])
            if spec == "none":
                state.old_pool.append(corpus)
                continue
            model = (state.selected[corpus.direction.reversed()]
                     if spec == "internal" else state.inputs.models[label])
            synthetic = backtranslate(corpus, model)
            outputs.append(write_bitext(synthetic, out))
            combined = concat_corpora(f"{label}-all", [corpus, synthetic])
            state.old_pool.append(combined)
        return [], outputs

    def step_pivot_synthesis(self):
        state = self.state
        out = state.run_dir / "synth" / "pivot"
        outputs = []
        by_pair = {c.languages(): c for c in state.inputs.new_corpora}
        eng_train = {({c.src_lang, c.tgt_lang} - {"eng"}).pop(): c
                     for c in state.old_train}
        for d in state.inputs.new:
            base = eng_train[d.tgt]
            model = state.selected[DirectionSpec("eng", d.src)]
            synthetic = pivot_synthesize(base, model, pivot_to=d.src)
            outputs.append(write_bitext(synthetic, out))
            real = by_pair.get(d.languages)
            parts = ([orient(real, *d)] if real else []) + [synthetic]
            state.new_pool.append(concat_corpora(f"{d.label}-all", parts))
        return [], outputs

    def step_stage2_balance(self):
        cfg, state = self.state.cfg, self.state
        out = state.run_dir / "stage2"
        plan = make_balance_plan(state.inputs.new)
        plan_path = plan.save(out / "plan.json")
        mixture = build_stage2_mixture(
            state.old_pool, state.new_pool, plan, seed=cfg["seed"])
        state.stage2_mixture = mixture
        export = export_mixture(mixture, state.vocab, out / "mixture")
        return [], [plan_path, export.src_path, export.tgt_path,
                    export.sidecar_path]

    def step_stage2_retrain(self):
        cfg, state = self.state.cfg, self.state
        out = state.run_dir / "stage2" / "lexicons"
        outputs = []
        for s in state.stage2_mixture.slices:
            if s.direction.role != "new":
                continue
            lexicon = train_lexicon(
                s.read(), iterations=cfg["stage2"]["em_iterations"])
            outputs.append(lexicon.save(out / f"{s.direction.label}.json"))
            state.stage2_models[s.direction] = LexiconTranslator(lexicon)
        return [], outputs

    def step_final_eval(self):
        """Stage 1 on every direction, stage 2 on the new ones only. The
        stage-2 system routes every other direction to the same selected
        lexicon as stage 1, so its report takes those rows from stage 1's
        rather than translating and scoring them again."""
        state = self.state
        dev = state.inputs.dev
        out = state.run_dir / "eval"
        new = state.inputs.new
        # stage 1 has no model for a new direction: it copies the source
        stage1_system = RoutingTranslator(
            {**state.selected, **{d: IdentityTranslator() for d in new}},
            model_id="stage1")
        stage2_system = RoutingTranslator(state.stage2_models,
                                          model_id="stage2")
        directions = sorted(set(state.candidates) | set(new))
        testsets = {d: dev_bitext(dev, d.src, d.tgt) for d in directions}
        stage1 = evaluate_directions(stage1_system, list(testsets.values()),
                                     state.vocab)
        stage2_new = evaluate_directions(
            stage2_system, [testsets[d] for d in new], state.vocab)
        rows = {row.direction: row for row in stage1.rows}
        rows.update((row.direction, row) for row in stage2_new.rows)
        stage2 = EvalReport(stage2_system.model_id,
                            tuple(rows[d.label] for d in directions))

        outputs = []
        for report in (stage1, stage2):
            outputs += [
                write_json(out / f"{report.model_id}_eval.json",
                           report.to_json()),
                write_artifact(out / f"{report.model_id}_eval.txt",
                               report.render_table() + "\n")]

        new_labels = sorted(d.label for d in new)
        before = stage1.average(new_labels)
        after = stage2.average(new_labels)
        state.summary = {
            "new_directions": new_labels,
            "stage1_avg_bleu_new": round(before, 4),
            "stage2_avg_bleu_new": round(after, 4),
            "improved": after > before,
            "directions_evaluated": len(directions),
        }
        summary_path = write_json(out / "summary.json", state.summary,
                                  sort_keys=True)
        return [], outputs + [summary_path]


def run_pipeline(config: dict | str | Path, threads: int = 1,
                 run_dir: str | Path | None = None) -> RunResult:
    """Validate the config and load every input it names, then execute
    every step into the run directory (default: output_root/name, which
    must not already hold a previous run). Raises ConfigValidationError
    before any work if the config or an input is bad, StepFailure if a
    step fails; partial outputs and the run log stay on disk in the
    failure case. *threads* is accepted and ignored: every step runs
    serially, so it changes neither the bytes nor the speed."""
    config_source = Path(config) if isinstance(config, (str, Path)) else None
    cfg = _with_defaults(load_config(config) if config_source
                         else _resolve_paths(config, Path.cwd()))
    inputs, problems = _load_inputs(cfg)
    if problems:
        raise ConfigValidationError(problems)

    run_dir = Path(run_dir) if run_dir is not None \
        else Path(cfg["output_root"]) / cfg["name"]
    if run_dir.exists() and any(run_dir.iterdir()):
        raise ConfigValidationError(
            [f"run directory {run_dir} already exists and is not empty"])
    run_dir.mkdir(parents=True, exist_ok=True)

    runner = _Runner(cfg, run_dir, inputs, config_source)
    return runner.run()
