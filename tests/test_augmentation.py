import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import endef
from endef.augmentation import (
    AUGMENT_ACTIONS,
    AUGMENT_KINDS,
    MASK_TOKEN,
    augment,
    recompute_entities,
)
from endef.corpus import contains_subsequence
from endef.framework import input_ids
from endef.models import MAX_SEQ_LEN
from endef.recognizer import Gazetteer, recognize
from endef.training import AugmentSettings, TrainingError

from conftest import make_piece, make_plan, make_record, reference_longest_matches, shown, snapshot


def only(kind, action, probability):
    """Settings that allow a single kind and a single action."""
    return AugmentSettings(probability=probability, kinds=(kind,), actions=(action,))


def test_policy_validation():
    with pytest.raises(TrainingError):
        AugmentSettings(kinds=("nope",))
    with pytest.raises(TrainingError):
        AugmentSettings(actions=("nope",))
    with pytest.raises(TrainingError):
        AugmentSettings(probability=1.5)
    with pytest.raises(TrainingError):
        AugmentSettings(kinds=())


def test_p_zero_is_identity(rng):
    piece = make_piece("a", ("x", "y", "z"), ("y",), 1, 3)
    record = make_record(piece)
    for kind in AUGMENT_KINDS:
        for action in AUGMENT_ACTIONS:
            out = augment(record, only(kind, action, 0.0), rng)
            assert out is record and record.piece is piece
            assert shown(out) == (piece.id, piece.label, piece.tokens, piece.entities)


def test_p_one_drop_guard_leaves_one_token(rng):
    piece = make_piece("a", ("t1", "t2", "t3", "t4", "t5"))
    out = augment(make_record(piece), only("word_level", "drop", 1.0), rng)
    _, _, tokens, _ = shown(out)
    assert len(out.kept) == 1 and len(tokens) == 1
    assert tokens[0] in piece.tokens
    assert out.record.piece.label == piece.label and out.record.piece.id == piece.id


def test_mask_preserves_length(rng):
    piece = make_piece("a", ("t1", "t2", "t3"), ("t2",))
    out = augment(make_record(piece), only("word_level", "mask", 1.0), rng)
    assert out.kept is None and out.masked == {0, 1, 2}
    assert shown(out)[2] == (MASK_TOKEN,) * 3


def test_package_root_re_exports_no_augment_that_needs_a_plan(rng):
    """`augment` edits a planned record, so the package root does not offer it for a piece."""
    import endef

    with pytest.raises(ImportError):
        from endef import augment as _  # noqa: F401
    piece = make_piece("a", ("t1", "t2", "t3"), ("t2",))
    out = endef.augmentation.augment(make_record(piece), only("word_level", "mask", 1.0), rng)
    assert shown(out)[2] == (MASK_TOKEN,) * 3


def test_word_level_selection_fraction():
    rng = np.random.default_rng(7)
    settings = only("word_level", "mask", 0.1)
    total = masked = 0
    records, _ = make_plan(make_piece(f"p{i}", tuple(f"t{j}" for j in range(20))) for i in range(500))
    for record in records:
        out = augment(record, settings, rng)
        total += 20
        masked += sum(t == MASK_TOKEN for t in shown(out)[2])
    assert total == 10000
    assert abs(masked / total - 0.1) <= 0.01


def entity_reader_ids(out, encoders):
    """The ids an entity reader gets from a training sample, as a list."""
    return out.ids(encoders["entities"], MAX_SEQ_LEN).tolist()


def test_entity_level_hits_whole_span(rng):
    piece = make_piece("a", ("New", "York", "is", "big"), ("New York",))
    (record,), encoders = make_plan([piece])
    out = augment(record, only("entity_level", "mask", 1.0), rng)
    assert shown(out)[2:] == ((MASK_TOKEN, MASK_TOKEN, "is", "big"), ())  # masked span no longer matches
    assert entity_reader_ids(out, encoders) == [encoders["entities"].vocab.pad_id]
    assert entity_reader_ids(record, encoders) == encoders["entities"].vocab.encode_entities(piece.entities).tolist()


def test_entity_level_drop_removes_span_and_recomputes(rng):
    piece = make_piece("a", ("New", "York", "is", "big", "New", "York"), ("New York", "New York"))
    (record,), encoders = make_plan([piece])
    out = augment(record, only("entity_level", "drop", 1.0), rng)
    assert shown(out)[2:] == (("is", "big"), ())
    assert out.kept == [2, 3]
    assert entity_reader_ids(out, encoders) == [encoders["entities"].vocab.pad_id]


def test_label_and_id_never_change():
    rng = np.random.default_rng(3)
    piece = make_piece("keep", ("a", "b", "c", "d"), ("b",), 1, 9)
    record = make_record(piece)
    settings = AugmentSettings(probability=0.5)
    for _ in range(50):
        out = augment(record, settings, rng)
        assert shown(out)[:2] == (piece.id, piece.label)
        # the source piece, timestamp included, is the record's untouched piece
        assert (out if out is record else out.record) is record and record.piece is piece


def test_external_entities_survive_editing(rng):
    piece = make_piece("a", ("x", "y"), ("external one",), 0, 0)
    (record,), encoders = make_plan([piece])
    out = augment(record, only("word_level", "drop", 1.0), rng)
    assert "external one" in shown(out)[3]
    # the entity list did not change, so an entity reader gets the planned ids themselves
    assert out.ids(encoders["entities"], MAX_SEQ_LEN) is record.ids(encoders["entities"], MAX_SEQ_LEN)


def test_entity_spans_longest_leftmost():
    record = make_record(make_piece("s", ("a", "b", "c", "a"), ("a b", "a", "c")))
    assert record.spans == ((0, 2), (2, 3), (3, 4))


def test_recompute_entities_after_edit():
    piece = make_piece("a", ("u", "v", "w"), ("u", "w"))
    assert recompute_entities(piece, ("w", "u")) == ("w", "u")
    assert recompute_entities(piece, ("x",)) == ()
    # an external entity stays external even when an edit joins its tokens
    joined = make_piece("b", ("u", "x", "v"), ("u v",))
    assert recompute_entities(joined, ("u", "v")) == ("u v",)


def test_recount_reports_the_canonical_spelling_under_any_hash_seed():
    # two spellings of one word tuple; string hashing, and so set order, differs between these seeds
    tokens, entities, edited = ("New", "York", "is", "big"), ("New York", "New  York"), ("New", "York", "big")
    code = (
        "from endef.augmentation import recompute_entities\n"
        "from endef.corpus import NewsPiece\n"
        f"print(repr(recompute_entities(NewsPiece('a', {tokens!r}, {entities!r}), {edited!r})))\n"
    )
    package_root = str(Path(endef.__file__).resolve().parents[1])
    for seed in ("0", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_root}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == repr(("New  York",)), seed
    assert recognize(edited, Gazetteer(frozenset(entities))) == ("New  York",)


# Every output of `augment` on this piece at probability 1 tells which kind and action were drawn.
KIND_ACTION_PIECE = make_piece("a", ("New", "York", "is", "big"), ("New York",))


def drawn_kind_action(out):
    tokens = shown(out)[2]
    if tokens == (MASK_TOKEN,) * 4:
        return "word_level", "mask"
    if len(tokens) == 1:
        return "word_level", "drop"
    if tokens == (MASK_TOKEN, MASK_TOKEN, "is", "big"):
        return "entity_level", "mask"
    assert tokens == ("is", "big")
    return "entity_level", "drop"


def test_kind_action_draw_deterministic_and_uniform():
    settings = AugmentSettings(probability=1.0)
    (record,), encoders = make_plan([KIND_ACTION_PIECE])
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    seq1 = [snapshot(augment(record, settings, rng1), encoders) for _ in range(20)]
    seq2 = [snapshot(augment(record, settings, rng2), encoders) for _ in range(20)]
    assert seq1 == seq2

    rng = np.random.default_rng(11)
    counts = {}
    n = 10000
    for _ in range(n):
        key = drawn_kind_action(augment(record, settings, rng))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 4
    for count in counts.values():
        assert abs(count / n - 0.25) <= 0.02


def test_kind_action_restriction(rng):
    record = make_record(KIND_ACTION_PIECE)
    for _ in range(20):
        out = augment(record, AugmentSettings(probability=1.0, kinds=("word_level",)), rng)
        assert drawn_kind_action(out)[0] == "word_level"
    for _ in range(20):
        out = augment(record, AugmentSettings(probability=1.0, actions=("mask",)), rng)
        assert drawn_kind_action(out)[1] == "mask"


def reference_matches(tokens, entity_strings):
    """(start, end, entity) of each exact token-tuple match, found by the scan that probes every position."""
    forms = {}
    for e in entity_strings:
        if e.split():
            forms.setdefault(tuple(e.split()), e)
    return reference_longest_matches(tuple(tokens), max(map(len, forms)), forms, tuple) if forms else []


def reference_recompute_entities(piece, new_tokens):
    """Entity recount before it read the external partition from the piece."""
    in_text = {e for e in piece.entities if contains_subsequence(piece.tokens, e.split())}
    external = tuple(e for e in piece.entities if e not in in_text)
    return tuple(e for _, _, e in reference_matches(new_tokens, in_text)) + external


def reference_augment(piece, settings, rng, seen):
    """The augmentation path `augment` replaced: the training gate, `choose_policy`, then one scalar draw per token or span.

    Adds the drawn (kind, action) to `seen`, and "fallback" when the drop-all guard ran.
    """
    if not settings.enabled:
        return piece
    if settings.apply_probability < 1.0 and rng.random() >= settings.apply_probability:
        return piece
    kind = settings.kinds[int(rng.integers(len(settings.kinds)))]
    action = settings.actions[int(rng.integers(len(settings.actions)))]
    seen.add((kind, action))
    p = settings.probability
    tokens = piece.tokens
    if kind == "word_level":
        selected = {i for i in range(len(tokens)) if rng.random() < p}
    else:
        selected = set()
        for a, b, _ in reference_matches(tokens, set(piece.entities)):
            if rng.random() < p:
                selected.update(range(a, b))
    if not selected:
        return piece
    if action == "mask":
        new_tokens = tuple(MASK_TOKEN if i in selected else t for i, t in enumerate(tokens))
    else:
        new_tokens = tuple(t for i, t in enumerate(tokens) if i not in selected)
        if not new_tokens:
            seen.add("fallback")
            keep = int(rng.integers(len(tokens)))
            new_tokens = (tokens[keep],)
    return replace(piece, tokens=new_tokens, entities=reference_recompute_entities(piece, new_tokens))


def random_piece(rng, i):
    """1-12 tokens over a small alphabet; in-text single- and multi-token entities, sometimes external ones.

    An external entity made of the piece's own words can become contiguous once a drop joins its tokens.
    """
    words = ("a", "b", "c", "d", "e")
    tokens = tuple(words[k] for k in rng.integers(0, len(words), int(rng.integers(1, 13))))
    candidates = ("a", "b c", "c d e", "d", "a b")
    entities = [e for e in candidates if contains_subsequence(tokens, e.split()) and rng.random() < 0.7]
    absent = [e for e in candidates if not contains_subsequence(tokens, e.split())]
    if absent and rng.random() < 0.5:
        entities.append(absent[0])
    if rng.random() < 0.3:
        entities.append("outside entity")
    if entities and rng.random() < 0.3:
        entities.append(entities[0])
    return make_piece(f"p{i}", tokens, entities, int(rng.integers(2)), i)


# masking position 0 makes a new "[MASK] x" there, although the mask touches no span: every mask rescans
MASK_FORM_PIECE = make_piece("m0", ("y", "x", MASK_TOKEN, "x"), (f"{MASK_TOKEN} x",), 1, 0)


def mask_form_piece(rng, i):
    """1-8 tokens over x, y and [MASK]; in-text entities, some containing [MASK], so masking can create a match."""
    words = ("x", "y", MASK_TOKEN)
    tokens = tuple(words[k] for k in rng.integers(0, len(words), int(rng.integers(1, 9))))
    candidates = (f"{MASK_TOKEN} x", "x", "y y")
    entities = [e for e in candidates if contains_subsequence(tokens, e.split()) and rng.random() < 0.7]
    return make_piece(f"m{i}", tokens, entities, int(rng.integers(2)), i)


REFERENCE_SETTINGS = (
    AugmentSettings(),
    AugmentSettings(probability=0.5),
    AugmentSettings(probability=1.0),
    AugmentSettings(probability=0.3, apply_probability=0.7),
    AugmentSettings(probability=0.0, apply_probability=0.5),
    AugmentSettings(probability=0.6, kinds=("entity_level",)),
    AugmentSettings(probability=0.9, kinds=("word_level",), actions=("drop",)),
    AugmentSettings(probability=0.8, actions=("mask",)),
    AugmentSettings(enabled=False),
)


def test_augment_matches_reference_stream():
    seen = set()
    for seed in range(40):
        data_rng = np.random.default_rng(1000 + seed)
        pieces = [random_piece(data_rng, i) for i in range(30)]
        form_rng = np.random.default_rng(2000 + seed)
        pieces += [MASK_FORM_PIECE] + [mask_form_piece(form_rng, i) for i in range(1, 10)]
        records, encoders = make_plan(pieces)
        for settings in REFERENCE_SETTINGS:
            rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            for piece, record in zip(pieces, records):
                out = augment(record, settings, rng)
                expect = reference_augment(piece, settings, ref_rng, seen)
                assert (out is record) == (expect is piece)
                assert (out if out is record else out.record) is record and record.piece is piece
                expect_ids = {name: input_ids(enc, expect, MAX_SEQ_LEN).tolist() for name, enc in encoders.items()}
                assert snapshot(out, encoders) == (expect.id, expect.label, expect.tokens, expect.entities, expect_ids)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
    kinds_actions = {(k, a) for k in AUGMENT_KINDS for a in AUGMENT_ACTIONS}
    assert kinds_actions | {"fallback"} <= seen
