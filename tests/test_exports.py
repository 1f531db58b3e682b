"""The package's export list."""

import mtkit
from mtkit import metrics, translator, vocab


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

