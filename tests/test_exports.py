"""The package's export list."""

import dataclasses
import inspect

import mtkit
from mtkit import cli, corpus, dataset_builder, metrics, pipeline, \
    synthesis, translator, vocab, vocab_metrics


def test_every_exported_name_resolves_once():
    assert len(set(mtkit.__all__)) == len(mtkit.__all__)
    for name in mtkit.__all__:
        assert hasattr(mtkit, name), name


def test_deleted_names_are_gone():
    assert "default_special_tokens" not in mtkit.__all__
    assert "DEFAULT_SPECIAL_TOKENS" in mtkit.__all__
    assert not hasattr(mtkit, "default_special_tokens")
    assert not hasattr(translator, "lexicon_translate")
    assert not hasattr(translator.Lexicon, "src_vocab")
    for name in ("BleuConfig", "ChrfConfig", "pretokenize"):
        assert name not in mtkit.__all__, name
        assert not hasattr(mtkit, name), name
    assert not hasattr(metrics, "BleuConfig")
    assert not hasattr(metrics, "ChrfConfig")
    assert not hasattr(vocab, "pretokenize")
    for name in ("SpeedRow", "SpeedReport", "avg_tokens_per_pair",
                 "speed_report"):
        assert name not in mtkit.__all__, name
        assert not hasattr(mtkit, name), name
        assert not hasattr(vocab_metrics, name), name
    # the language split, the special tokens and the end-of-word marker
    # are constants
    assert [f.name for f in dataclasses.fields(vocab.VocabConfig)] == [
        "vocab_size", "mean_exponent_p"]
    assert vocab.VocabConfig.hrl_langs == vocab.DEFAULT_HRL
    assert vocab.VocabConfig.lrl_langs == vocab.DEFAULT_LRL
    assert vocab.VocabConfig.special_tokens == vocab.DEFAULT_SPECIAL_TOKENS
    assert vocab.VocabConfig.end_of_word_marker == vocab.END_OF_WORD
    for name in ("check_covers", "languages"):
        assert not hasattr(vocab.VocabConfig, name), name
    # the stage-2 cap is always the median new-direction size
    assert "default_cap" not in inspect.signature(
        dataset_builder.build_stage2_mixture).parameters
    for fn in (corpus.load_bitext, corpus.validate_language):
        assert "registry" not in inspect.signature(fn).parameters, fn
    # the stage-2 balance plan is always derived, never read from a file
    for name in ("load", "from_json"):
        assert not hasattr(dataset_builder.BalancePlan, name), name
    assert [f.name for f in dataclasses.fields(dataset_builder.PlanEntry)] \
        == ["new", "old"]
    # each corpus side goes to its model in one call: no batch size
    for module, name in ((synthesis, "DEFAULT_BATCH_SIZE"),
                         (synthesis, "_batched_translate"),
                         (pipeline, "_is_positive_int"),
                         (cli, "_positive_int")):
        assert not hasattr(module, name), name
    assert "batch_size" not in pipeline._DEFAULTS["backtranslation"]
    assert list(inspect.signature(synthesis.backtranslate).parameters) == [
        "corpus", "model"]
    assert list(inspect.signature(
        synthesis.pivot_synthesize).parameters) == [
        "corpus", "model", "pivot_to"]
