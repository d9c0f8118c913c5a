import json
from dataclasses import asdict

import numpy as np
import pytest

from endef.corpus import Corpus
from endef.payload import from_fields
from endef.vocab import SEP_TOKEN, SPECIAL_TOKENS, Vocabulary, VocabularyError, build_vocabulary

from conftest import make_piece


def test_specials_occupy_first_indices():
    v = Vocabulary(SPECIAL_TOKENS + ("hello",))
    assert v.pad_id == 0 and v.mask_id == 1 and v.unk_id == 2 and v.tokens.index(SEP_TOKEN) == 3
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
    assert ids == [a, b, v.tokens.index(SEP_TOKEN), a]
    assert v.encode_entities([]).tolist() == [v.pad_id]


def literal_id_encode_entities(vocab, entities, max_len=None):
    """The entity encoder before it went through encode_tokens: its own lookup with [SEP] = 3, [UNK] = 2, [PAD] = 0."""
    idx = {t: i for i, t in enumerate(vocab.tokens)}
    ids = []
    for j, e in enumerate(entities):
        if j:
            ids.append(3)
        ids.extend(idx.get(t, 2) for t in e.split())
    if not ids:
        ids = [0]
    if max_len is not None:
        ids = ids[:max_len]
    return np.asarray(ids, dtype=np.intp)


def test_encode_entities_matches_the_literal_id_encoder():
    v = Vocabulary.build([["alpha", "alpha", "beta", "beta", "gamma", "gamma"]], min_freq=2)
    words = ["alpha", "beta", "gamma", "unseen", *SPECIAL_TOKENS]
    entity_forms = ["", " ", "  \t ", *words, *(f"{a} {b}" for a in words for b in words[::3]), "alpha  [SEP]\tbeta "]
    rng = np.random.default_rng(5)
    cases = [[], [""], ["  "], ["", "alpha"], ["[SEP]", "[PAD]"]]
    cases += [list(rng.choice(entity_forms, size=rng.integers(1, 6))) for _ in range(300)]
    sep = v.tokens.index(SEP_TOKEN)
    cut_at_sep = 0
    for entities in cases:
        full = literal_id_encode_entities(v, entities)
        assert v.encode_entities(entities).tolist() == full.tolist()
        seps = np.flatnonzero(full == sep).tolist()
        # cuts before, at and just after every [SEP], and past the end
        for max_len in {0, 1, full.size, full.size + 2, *seps, *(i + 1 for i in seps), *(i + 2 for i in seps)}:
            got = v.encode_entities(entities, max_len)
            assert got.dtype == np.intp
            assert got.tolist() == literal_id_encode_entities(v, entities, max_len).tolist()
            cut_at_sep += bool(max_len) and full[min(max_len, full.size) - 1] == sep
    assert cut_at_sep > 0


def test_build_vocabulary_from_train_corpus_only():
    train = Corpus((make_piece("a", ("seen", "seen")),))
    v = build_vocabulary(train, min_freq=2)
    assert "seen" in v
    assert v.encode_tokens(["val-only-token"]).tolist() == [v.unk_id]


def test_payload_round_trip():
    v = Vocabulary.build([["x", "x", "y", "y"]])
    assert from_fields(Vocabulary, json.loads(json.dumps(asdict(v))), "vocab", VocabularyError) == v
