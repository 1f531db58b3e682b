"""mtkit: data tooling for multilingual low-resource MT experiments.

Covers the full two-stage recipe: aligned bitext corpora with provenance
manifests, BPE / overlap-aware BPE subword vocabularies, vocabulary
diagnostics, direction-tagged and balance-capped training mixtures,
lexical stand-in translators, synthetic bitext (back-translation and
pivoting), BLEU/spBLEU/chrF evaluation, and a config-driven pipeline
that runs the whole experiment deterministically.
"""

from .corpus import (
    DEFAULT_LANGUAGES,
    BitextCorpus,
    CorpusStats,
    DirectionSpec,
    Provenance,
    SentencePair,
    concat_corpora,
    corpus_stats,
    load_bitext,
    load_multiparallel,
    parse_direction,
    split_validation,
    write_bitext,
)
from .vocab import (
    DEFAULT_HRL,
    DEFAULT_LRL,
    DEFAULT_SPECIAL_TOKENS,
    END_OF_WORD,
    LangCorpusSet,
    VocabConfig,
    Vocabulary,
    load_vocabulary,
    train_bpe,
    train_obpe,
)
from .vocab_metrics import representation_change, vocabulary_report
from .translator import (
    NULL_WORD,
    ExternalProcessTranslator,
    IdentityTranslator,
    Lexicon,
    LexiconTranslator,
    RoutingTranslator,
    TranslatorModel,
    load_translator,
    train_lexicon,
)
from .synthesis import backtranslate, pivot_synthesize
from .dataset_builder import (
    BalancePlan,
    PlanEntry,
    TrainingMixture,
    build_stage1_mixture,
    build_stage2_mixture,
    export_mixture,
    make_balance_plan,
)
from .metrics import (
    EvalReport,
    EvalRow,
    bleu,
    chrf,
    evaluate_directions,
    score_candidates,
    select_best,
    spbleu,
)
from .pipeline import (
    STEPS,
    RunResult,
    run_pipeline,
    validate_config,
)
from .toy import generate_toy_data, new_direction_labels
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BalancePlan", "BitextCorpus", "CorpusStats",
    "DEFAULT_HRL", "DEFAULT_LANGUAGES", "DEFAULT_LRL",
    "DEFAULT_SPECIAL_TOKENS", "DirectionSpec",
    "END_OF_WORD", "EvalReport", "EvalRow", "ExternalProcessTranslator",
    "IdentityTranslator", "LangCorpusSet", "Lexicon", "LexiconTranslator",
    "NULL_WORD", "PlanEntry", "Provenance", "RoutingTranslator", "RunResult",
    "STEPS", "SentencePair", "TrainingMixture", "TranslatorModel",
    "VocabConfig", "Vocabulary", "backtranslate", "bleu",
    "build_stage1_mixture", "build_stage2_mixture", "chrf",
    "concat_corpora", "corpus_stats", "errors",
    "evaluate_directions", "export_mixture", "generate_toy_data",
    "load_bitext", "load_multiparallel", "load_translator",
    "load_vocabulary", "make_balance_plan", "new_direction_labels",
    "parse_direction", "pivot_synthesize",
    "representation_change", "run_pipeline", "score_candidates",
    "select_best", "spbleu", "split_validation", "train_bpe",
    "train_lexicon", "train_obpe", "validate_config", "vocabulary_report",
    "write_bitext", "__version__",
]
