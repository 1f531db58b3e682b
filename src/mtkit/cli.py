"""Command-line front end.

Subcommands map one-to-one onto the library modules: corpus hygiene,
vocabulary training and reporting, mixture construction, lexicon
training and translation, synthetic data, scoring, the full pipeline,
and a self-contained toy reproduction. Exit codes: 0 success, 2 bad
input or config, 3 pipeline step failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import (
    BitextCorpus,
    concat_corpora,
    corpus_stats,
    load_bitext,
    split_lines,
    split_validation,
    write_bitext,
    write_json,
)
from .dataset_builder import (
    build_stage1_mixture,
    build_stage2_mixture,
    export_mixture,
    make_balance_plan,
)
from .errors import ConfigValidationError, MTKitError, StepFailure, UnknownId
from .metrics import bleu, chrf, evaluate_directions, spbleu
from .pipeline import run_pipeline, validate_config
from .synthesis import backtranslate, pivot_synthesize
from .toy import generate_toy_data, new_direction_labels
from .translator import MAX_EM_ITERATIONS, load_translator, train_lexicon
from .vocab import (
    DEFAULT_HRL,
    DEFAULT_LRL,
    LangCorpusSet,
    VocabConfig,
    load_vocabulary,
    train_bpe,
    train_obpe,
)
from .vocab_metrics import vocabulary_report


def _langs(arg: str) -> frozenset[str]:
    return frozenset(x for x in arg.split(",") if x)


def _int_at_least(low: int, high: int | None = None):
    """An argparse `type=`: an integer >= *low* (and <= *high*, if
    given), else a usage error."""
    bounds = f">= {low}" if high is None else f">= {low} and <= {high}"

    def parse(arg: str) -> int:
        value = int(arg)
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value
    parse.__name__ = "int"  # a non-integer reads "invalid int value: ..."
    return parse


_non_negative_int, _positive_int = _int_at_least(0), _int_at_least(1)


def _read_lines(path: str | None) -> list[str]:
    """Lines of a UTF-8 text file, or of stdin when *path* is None."""
    data = Path(path).read_bytes() if path else sys.stdin.buffer.read()
    return split_lines(data, path or "stdin")


def _load_corpora(paths: list[str]) -> list[BitextCorpus]:
    return [load_bitext(p) for p in paths]


def _emit_json(doc, out: str | None) -> None:
    if out:
        write_json(out, doc, sort_keys=True)
    else:
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# -- corpus ---------------------------------------------------------------

def cmd_corpus_validate(args) -> int:
    for path in args.manifests:
        corpus = load_bitext(path)
        print(f"ok {corpus.name}: {len(corpus.pairs)} pairs "
              f"{corpus.direction.label}")
    return 0


def cmd_corpus_stats(args) -> int:
    _emit_json({Path(p).stem: corpus_stats(load_bitext(p)).to_json()
                for p in args.manifests}, args.out)
    return 0


def cmd_corpus_split(args) -> int:
    corpus = load_bitext(args.manifest)
    valid, train = split_validation(corpus, args.n)
    for part in (valid, train):
        print(write_bitext(part, args.out))
    return 0


def cmd_corpus_concat(args) -> int:
    combined = concat_corpora(args.name, _load_corpora(args.manifests))
    print(write_bitext(combined, args.out))
    return 0


# -- vocab ----------------------------------------------------------------

def cmd_vocab_train(args) -> int:
    config = VocabConfig(vocab_size=args.vocab_size, hrl_langs=args.hrl,
                         lrl_langs=args.lrl, mean_exponent_p=args.p)
    data = LangCorpusSet.from_bitexts(_load_corpora(args.manifests))
    train = train_obpe if args.mode == "obpe" else train_bpe
    vocab = train(data, config)
    print(vocab.save(args.out))
    return 0


def cmd_vocab_encode(args) -> int:
    vocab = load_vocabulary(args.vocab)
    for line in _read_lines(args.infile):
        sys.stdout.write(" ".join(str(i) for i in vocab.encode(line)) + "\n")
    return 0


def cmd_vocab_decode(args) -> int:
    vocab = load_vocabulary(args.vocab)
    for number, line in enumerate(_read_lines(args.infile), 1):
        ids = []
        for tok in line.split():
            try:
                ids.append(int(tok))
            except ValueError:
                raise UnknownId(f"{args.infile or 'stdin'} line {number}: "
                                f"token {tok!r} is not an integer id") from None
        sys.stdout.write(vocab.decode(ids) + "\n")
    return 0


def cmd_vocab_report(args) -> int:
    vocab_a = load_vocabulary(args.vocab_a)
    vocab_b = load_vocabulary(args.vocab_b)
    doc = vocabulary_report(_load_corpora(args.manifests), vocab_a, vocab_b)
    if args.out:
        _emit_json(doc, args.out)
    print("\n\n".join(doc["tables"].values()))
    return 0


# -- mixture --------------------------------------------------------------

def cmd_mixture(args) -> int:
    corpora = _load_corpora(args.manifests)
    vocab = load_vocabulary(args.vocab)
    if args.stage == "stage1":
        mixture = build_stage1_mixture(corpora, seed=args.seed)
    else:
        old = [c for c in corpora if "eng" in c.languages()]
        new = [c for c in corpora if "eng" not in c.languages()]
        plan = make_balance_plan([c.direction for c in new])
        mixture = build_stage2_mixture(old, new, plan, seed=args.seed,
                                       default_cap=args.cap)
    export = export_mixture(mixture, vocab, args.out)
    print(export.src_path)
    print(export.tgt_path)
    print(export.sidecar_path)
    return 0


# -- translator -----------------------------------------------------------

def cmd_translator_train(args) -> int:
    corpus = load_bitext(args.infile)
    lexicon = train_lexicon(corpus, iterations=args.iters)
    print(lexicon.save(args.out))
    return 0


def cmd_translator_run(args) -> int:
    model = load_translator(args.model)
    for line in model.translate_batch(_read_lines(args.infile),
                                      args.src, args.tgt):
        sys.stdout.write(line + "\n")
    return 0


# -- synth ----------------------------------------------------------------

def cmd_synth_backtranslate(args) -> int:
    corpus = load_bitext(args.infile)
    model = load_translator(args.model)
    synthetic = backtranslate(corpus, model, batch_size=args.batch_size)
    print(write_bitext(synthetic, args.out))
    return 0


def cmd_synth_pivot(args) -> int:
    corpus = load_bitext(args.infile)
    model = load_translator(args.model)
    synthetic = pivot_synthesize(corpus, model, pivot_to=args.pivot_to,
                                 batch_size=args.batch_size)
    print(write_bitext(synthetic, args.out))
    return 0


# -- eval -----------------------------------------------------------------

def cmd_eval_score(args) -> int:
    hyps = _read_lines(args.hyp)
    refs = _read_lines(args.ref)
    if args.metric == "bleu":
        score = bleu(hyps, refs)
    elif args.metric == "chrf":
        score = chrf(hyps, refs)
    else:
        if not args.vocab:
            raise ConfigValidationError(["--vocab is required for spbleu"])
        score = spbleu(hyps, refs, load_vocabulary(args.vocab))
    print(f"{score:.2f}")
    return 0


def cmd_eval_report(args) -> int:
    model = load_translator(args.model)
    vocab = load_vocabulary(args.vocab)
    manifests = sorted(Path(args.tests).glob("*.json"))
    if not manifests:
        raise ConfigValidationError([f"no manifests under {args.tests}"])
    testsets = [load_bitext(p) for p in manifests]
    report = evaluate_directions(model, testsets, vocab)
    if args.out:
        _emit_json(report.to_json(), args.out)
    print(report.render_table())
    return 0


# -- pipeline -------------------------------------------------------------

def cmd_pipeline_validate(args) -> int:
    problems = validate_config(args.config)
    if problems:
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 2
    print("config ok")
    return 0


def cmd_pipeline_run(args) -> int:
    result = run_pipeline(args.config, run_dir=args.out)
    print(f"run dir: {result.run_dir}")
    for key, value in sorted(result.summary.items()):
        print(f"{key}: {value}")
    return 0


# -- repro-toy ------------------------------------------------------------

def cmd_repro_toy(args) -> int:
    """Generate the toy dataset, run the full pipeline on it, and print
    the before/after comparison for the non-English directions."""
    out = Path(args.out)
    data = generate_toy_data(out / "data", seed=args.seed)
    manifests = {name: (out / "data" / "train" / path.name).relative_to(out)
                 for name, path in data.train_manifests.items()}
    config = {
        "name": "toy-run",
        "seed": args.seed,
        "output_root": "run-root",
        "corpora": [str(p) for n, p in sorted(manifests.items())
                    if n.startswith("eng-")],
        "new_corpora": [str(p) for n, p in sorted(manifests.items())
                        if not n.startswith("eng-")],
        "validation_split": 0,
        "vocab": {"vocab_size": 400, "use": "obpe"},
        "stage1": {"em_iterations": [5, 15]},
        "stage2": {"new_directions": list(new_direction_labels()),
                   "em_iterations": 20},
        "eval": {"dev_dir": str((out / "data" / "dev").relative_to(out))},
    }
    config_path = write_json(out / "toy-config.json", config, sort_keys=True)
    result = run_pipeline(config_path, run_dir=out / "run")
    print((Path(result.run_dir) / "eval" / "stage2_eval.txt")
          .read_text(encoding="utf-8"))
    summary = result.summary
    print(f"new directions: {', '.join(summary['new_directions'])}")
    print(f"avg BLEU before (stage 1): {summary['stage1_avg_bleu_new']:.2f}")
    print(f"avg BLEU after  (stage 2): {summary['stage2_avg_bleu_new']:.2f}")
    print(f"improved: {'yes' if summary['improved'] else 'no'}")
    return 0 if summary["improved"] else 3


# -- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtkit",
        description="Multilingual MT data and training toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="manifest hygiene")
    csub = p.add_subparsers(dest="verb", required=True)
    v = csub.add_parser("validate", help="check manifests and checksums")
    v.add_argument("manifests", nargs="+")
    v.set_defaults(fn=cmd_corpus_validate)
    v = csub.add_parser("stats", help="sentence/token counts per corpus")
    v.add_argument("--out", default=None)
    v.add_argument("manifests", nargs="+")
    v.set_defaults(fn=cmd_corpus_stats)
    v = csub.add_parser("split", help="reserve leading pairs for validation")
    v.add_argument("--n", type=_non_negative_int, default=3000)
    v.add_argument("--out", required=True)
    v.add_argument("manifest")
    v.set_defaults(fn=cmd_corpus_split)
    v = csub.add_parser("concat", help="concatenate same-direction corpora")
    v.add_argument("--name", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("manifests", nargs="+")
    v.set_defaults(fn=cmd_corpus_concat)

    p = sub.add_parser("vocab", help="subword vocabularies")
    vsub = p.add_subparsers(dest="verb", required=True)
    v = vsub.add_parser("train", help="train a vocabulary on manifests")
    v.add_argument("--mode", choices=("bpe", "obpe"), default="obpe")
    v.add_argument("--vocab-size", type=int, default=40000)
    v.add_argument("--hrl", type=_langs, default=DEFAULT_HRL,
                   help="comma-separated high-resource languages")
    v.add_argument("--lrl", type=_langs, default=DEFAULT_LRL,
                   help="comma-separated low-resource languages")
    v.add_argument("--p", type=float, default=-2.0,
                   help="power-mean exponent for obpe pair scoring")
    v.add_argument("--out", required=True)
    v.add_argument("manifests", nargs="+")
    v.set_defaults(fn=cmd_vocab_train)
    for verb, fn in (("encode", cmd_vocab_encode), ("decode", cmd_vocab_decode)):
        v = vsub.add_parser(verb, help=f"{verb} stdin lines")
        v.add_argument("--vocab", required=True)
        v.add_argument("--in", dest="infile", default=None,
                       help="input file (default stdin)")
        v.set_defaults(fn=fn)

    p = sub.add_parser("vocab-report",
                       help="compare two vocabularies on shared corpora")
    p.add_argument("--vocab-a", required=True)
    p.add_argument("--vocab-b", required=True)
    p.add_argument("--out", default=None, help="also write the JSON report")
    p.add_argument("manifests", nargs="+")
    p.set_defaults(fn=cmd_vocab_report)

    p = sub.add_parser("mixture", help="build tagged training mixtures")
    p.add_argument("stage", choices=("stage1", "stage2"))
    p.add_argument("--seed", type=_non_negative_int, default=17)
    p.add_argument("--cap", type=_non_negative_int, default=None,
                   help="stage2 cap for directions the plan does not match")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("manifests", nargs="+")
    p.set_defaults(fn=cmd_mixture)

    p = sub.add_parser("translator", help="word-translation models")
    tsub = p.add_subparsers(dest="verb", required=True)
    v = tsub.add_parser("train-lexicon", help="EM-train a lexicon")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--iters", type=_int_at_least(1, MAX_EM_ITERATIONS),
                   default=20)
    v.add_argument("--out", required=True)
    v.set_defaults(fn=cmd_translator_train)
    v = tsub.add_parser("run", help="translate stdin lines")
    v.add_argument("--model", required=True,
                   help="lexicon path or exec:<command>")
    v.add_argument("--src", required=True)
    v.add_argument("--tgt", required=True)
    v.add_argument("--in", dest="infile", default=None)
    v.set_defaults(fn=cmd_translator_run)

    p = sub.add_parser("synth", help="synthetic parallel data")
    ssub = p.add_subparsers(dest="verb", required=True)
    v = ssub.add_parser("backtranslate",
                        help="rebuild the source side with a reverse model")
    v.add_argument("--model", required=True)
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--batch-size", type=_positive_int, default=64)
    v.add_argument("--out", required=True)
    v.set_defaults(fn=cmd_synth_backtranslate)
    v = ssub.add_parser("pivot",
                        help="translate the English side into a third language")
    v.add_argument("--model", required=True)
    v.add_argument("--pivot-to", required=True)
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--batch-size", type=_positive_int, default=64)
    v.add_argument("--out", required=True)
    v.set_defaults(fn=cmd_synth_pivot)

    p = sub.add_parser("eval", help="scoring and reports")
    esub = p.add_subparsers(dest="verb", required=True)
    v = esub.add_parser("score", help="score a hypothesis file")
    v.add_argument("--metric", choices=("bleu", "spbleu", "chrf"),
                   default="bleu")
    v.add_argument("--hyp", required=True)
    v.add_argument("--ref", required=True)
    v.add_argument("--vocab", default=None, help="required for spbleu")
    v.set_defaults(fn=cmd_eval_score)
    v = esub.add_parser("report", help="evaluate a model on test manifests")
    v.add_argument("--model", required=True)
    v.add_argument("--tests", required=True,
                   help="directory of test-set manifests")
    v.add_argument("--vocab", required=True)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_eval_report)

    p = sub.add_parser("pipeline", help="end-to-end experiment runner")
    psub = p.add_subparsers(dest="verb", required=True)
    v = psub.add_parser("validate", help="check a config without running")
    v.add_argument("--config", required=True)
    v.set_defaults(fn=cmd_pipeline_validate)
    v = psub.add_parser("run", help="execute every pipeline step")
    v.add_argument("--config", required=True)
    v.add_argument("--out", default=None,
                   help="run directory (default output_root/name)")
    v.set_defaults(fn=cmd_pipeline_run)

    p = sub.add_parser(
        "repro-toy",
        help="generate toy data, run the pipeline, report the improvement")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=17)
    p.set_defaults(fn=cmd_repro_toy)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigValidationError as exc:
        for problem in exc.problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 2
    except MTKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
