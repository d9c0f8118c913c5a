import json
from dataclasses import asdict

import pytest

from endef.corpus import Corpus
from endef.payload import from_fields
from endef.vocab import SPECIAL_TOKENS, Vocabulary, VocabularyError, build_vocabulary

from conftest import make_piece


def test_specials_occupy_first_indices():
    v = Vocabulary(SPECIAL_TOKENS + ("hello",))
    assert v.pad_id == 0 and v.mask_id == 1 and v.unk_id == 2 and v.sep_id == 3
    assert v.size == 5


def test_build_orders_by_frequency_then_alphabet():
    v = Vocabulary.build([["b", "b", "a", "a", "c", "c", "c"]], min_freq=2)
    assert v.tokens[4:] == ("c", "a", "b")


def test_build_min_freq_filters():
    v = Vocabulary.build([["x", "x", "rare"]], min_freq=2)
    assert "x" in v
    assert "rare" not in v


def test_specials_never_duplicated():
    v = Vocabulary.build([["[MASK]", "[MASK]", "w", "w"]], min_freq=1)
    assert v.tokens.count("[MASK]") == 1
    with pytest.raises(VocabularyError):
        Vocabulary(("[PAD]", "[MASK]"))  # missing specials
    with pytest.raises(VocabularyError):
        Vocabulary(SPECIAL_TOKENS + ("a", "a"))


def test_encode_tokens_unknown_maps_to_unk_and_truncates():
    v = Vocabulary.build([["w1", "w1", "w2", "w2"]], min_freq=2)
    ids = v.encode_tokens(["w1", "unseen", "w2"], max_len=2)
    assert ids.tolist() == [v.encode_tokens(["w1"])[0], v.unk_id]


def test_encode_entities_sep_joined_and_pad_when_empty():
    v = Vocabulary.build([["alpha", "alpha", "beta", "beta"]], min_freq=2)
    ids = v.encode_entities(["alpha beta", "alpha"]).tolist()
    a = v.encode_tokens(["alpha"])[0]
    b = v.encode_tokens(["beta"])[0]
    assert ids == [a, b, v.sep_id, a]
    assert v.encode_entities([]).tolist() == [v.pad_id]


def test_build_vocabulary_from_train_corpus_only():
    train = Corpus((make_piece("a", ("seen", "seen")),))
    v = build_vocabulary(train, min_freq=2)
    assert "seen" in v
    assert v.encode_tokens(["val-only-token"]).tolist() == [v.unk_id]


def test_payload_round_trip():
    v = Vocabulary.build([["x", "x", "y", "y"]])
    assert from_fields(Vocabulary, json.loads(json.dumps(asdict(v))), "vocab", VocabularyError) == v
