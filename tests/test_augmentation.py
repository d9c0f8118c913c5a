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
from endef.models import MAX_SEQ_LEN
from endef.recognizer import Gazetteer, recognize
from endef.replay import Draws
from endef.training import AugmentSettings, TrainingError

from conftest import (
    Sample,
    augment_record,
    batch_ids,
    input_ids,
    make_piece,
    make_plan,
    reference_longest_matches,
    shown,
    snapshot,
)


def only(kind, action, probability):
    """Settings that allow a single kind and a single action."""
    return AugmentSettings(probability=probability, kinds=(kind,), actions=(action,))


def planned(plan, view, r=0):
    """The ids the plan holds for piece r's view."""
    flat, bounds = plan.ids[view]
    return flat[bounds[r] : bounds[r + 1]]


def words_of(ids, plan):
    """The tokens a token reader's ids stand for."""
    return tuple(plan.vocabs["tokens"].tokens[j] for j in ids)


def test_policy_validation():
    with pytest.raises(TrainingError):
        AugmentSettings(kinds=("nope",))
    with pytest.raises(TrainingError):
        AugmentSettings(actions=("nope",))
    with pytest.raises(TrainingError):
        AugmentSettings(probability=1.5)
    with pytest.raises(TrainingError):
        AugmentSettings(kinds=())


def test_p_zero_is_identity():
    piece = make_piece("a", ("x", "y", "z"), ("y",), 1, 3)
    (record,), _, plan = make_plan([piece])
    draws = Draws(0)
    for kind in AUGMENT_KINDS:
        for action in AUGMENT_ACTIONS:
            (out,) = batch_ids(plan, [0], only(kind, action, 0.0), draws)
            assert out["tokens"] == planned(plan, "tokens").tolist()
            assert out["entities"] == planned(plan, "entities").tolist() and plan.pieces[0] is piece
            assert augment_record(record, only(kind, action, 0.0), np.random.default_rng(0)) is record


def test_p_one_drop_guard_leaves_one_token():
    piece = make_piece("a", ("t1", "t2", "t3", "t4", "t5"))
    _, _, plan = make_plan([piece])
    (out,) = batch_ids(plan, [0], only("word_level", "drop", 1.0), Draws(0))
    tokens = words_of(out["tokens"], plan)
    assert len(tokens) == 1 and tokens[0] in piece.tokens
    assert plan.pieces[0] is piece


def test_mask_preserves_length():
    piece = make_piece("a", ("t1", "t2", "t3"), ("t2",))
    _, _, plan = make_plan([piece])
    (out,) = batch_ids(plan, [0], only("word_level", "mask", 1.0), Draws(0))
    assert words_of(out["tokens"], plan) == (MASK_TOKEN,) * 3


def test_package_root_re_exports_no_augment_that_needs_a_plan():
    """`augment` edits a batch of a training plan, so the package root does not offer it for a piece."""
    with pytest.raises(ImportError):
        from endef import augment as _  # noqa: F401
    _, _, plan = make_plan([make_piece("a", ("t1", "t2", "t3"), ("t2",))])
    out = endef.augmentation.augment(plan, np.array([0]), only("word_level", "mask", 1.0), Draws(0))
    assert words_of(out["tokens"][0], plan) == (MASK_TOKEN,) * 3


def test_word_level_selection_fraction():
    settings = only("word_level", "mask", 0.1)
    _, _, plan = make_plan(make_piece(f"p{i}", tuple(f"t{j}" for j in range(20))) for i in range(500))
    draws, total, masked = Draws(7), 0, 0
    for start in range(0, 500, 64):
        for out in batch_ids(plan, range(start, min(start + 64, 500)), settings, draws):
            total += 20
            masked += words_of(out["tokens"], plan).count(MASK_TOKEN)
    assert total == 10000
    assert abs(masked / total - 0.1) <= 0.01


def test_entity_level_hits_whole_span():
    piece = make_piece("a", ("New", "York", "is", "big"), ("New York",))
    _, encoders, plan = make_plan([piece])
    (out,) = batch_ids(plan, [0], only("entity_level", "mask", 1.0), Draws(0))
    assert words_of(out["tokens"], plan) == (MASK_TOKEN, MASK_TOKEN, "is", "big")
    assert out["entities"] == [encoders["entities"].vocab.pad_id]  # the masked span no longer matches
    assert planned(plan, "entities").tolist() == encoders["entities"].vocab.encode_entities(piece.entities).tolist()


def test_entity_level_drop_removes_span_and_recomputes():
    piece = make_piece("a", ("New", "York", "is", "big", "New", "York"), ("New York", "New York"))
    _, encoders, plan = make_plan([piece])
    (out,) = batch_ids(plan, [0], only("entity_level", "drop", 1.0), Draws(0))
    assert words_of(out["tokens"], plan) == ("is", "big")
    assert out["entities"] == [encoders["entities"].vocab.pad_id]


def test_label_and_id_never_change():
    piece = make_piece("keep", ("a", "b", "c", "d"), ("b",), 1, 9)
    _, _, plan = make_plan([piece])
    draws = Draws(3)
    for _ in range(50):
        out = augment(plan, np.array([0]), AugmentSettings(probability=0.5), draws)
        # a batch hands back ids only: the piece, with its id, label and timestamp, stays the plan's own
        assert out.keys() == {"tokens", "entities"} and plan.pieces == [piece] and plan.pieces[0] is piece
    assert (piece.id, piece.label, piece.timestamp) == ("keep", 1, 9)


def test_external_entities_survive_editing():
    piece = make_piece("a", ("x", "y"), ("external one",), 0, 0)
    (record,), _, plan = make_plan([piece])
    (out,) = batch_ids(plan, [0], only("word_level", "drop", 1.0), Draws(0))
    assert len(out["tokens"]) == 1
    assert "external one" in shown(augment_record(record, only("word_level", "drop", 1.0), np.random.default_rng(0)))[3]
    # the entity list did not change, so an entity reader gets the planned ids themselves
    assert out["entities"] == planned(plan, "entities").tolist()


def test_entity_spans_longest_leftmost():
    (record,), _, plan = make_plan([make_piece("s", ("a", "b", "c", "a"), ("a b", "a", "c"))])
    assert record.spans == ((0, 2), (2, 3), (3, 4))
    # the plan's spans as (first token, tokens); they cover every token, so a drop of all 3 keeps one of the 4
    assert plan.first_span.tolist() == [0]
    assert list(zip(plan.span_start.tolist(), plan.span_length.tolist())) == [(0, 2), (2, 1), (3, 1)]
    assert plan.in_span.tolist() == [True] * 4 and plan.options[False, True] == ([3], [4])


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


# Every edit of this piece at probability 1 tells by its tokens which kind and action were drawn.
KIND_ACTION_PIECE = make_piece("a", ("New", "York", "is", "big"), ("New York",))


def drawn_kind_action(tokens):
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
    _, _, plan = make_plan([KIND_ACTION_PIECE])
    draws1, draws2 = Draws(42), Draws(42)
    seq1 = [batch_ids(plan, [0], settings, draws1) for _ in range(20)]
    seq2 = [batch_ids(plan, [0], settings, draws2) for _ in range(20)]
    assert seq1 == seq2

    draws = Draws(11)
    counts = {}
    n = 10000
    for _ in range(n):
        key = drawn_kind_action(words_of(batch_ids(plan, [0], settings, draws)[0]["tokens"], plan))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 4
    for count in counts.values():
        assert abs(count / n - 0.25) <= 0.02


def test_kind_action_restriction():
    _, _, plan = make_plan([KIND_ACTION_PIECE])
    draws = Draws(0)
    for _ in range(20):
        (out,) = batch_ids(plan, [0], AugmentSettings(probability=1.0, kinds=("word_level",)), draws)
        assert drawn_kind_action(words_of(out["tokens"], plan))[0] == "word_level"
    for _ in range(20):
        (out,) = batch_ids(plan, [0], AugmentSettings(probability=1.0, actions=("mask",)), draws)
        assert drawn_kind_action(words_of(out["tokens"], plan))[1] == "mask"


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
    # a repeated entry is picked more often: three entries make a pick by Lemire's draw, which can reject
    AugmentSettings(probability=0.9, actions=("drop", "drop", "mask")),
    AugmentSettings(probability=0.4, apply_probability=0.8, kinds=("entity_level", "word_level", "entity_level")),
)


# dropping only "d" joins a second "b c" that no span of the piece covers: a drop that misses every span rescans
DROP_JOIN_PIECE = make_piece("j0", ("b", "c", "a", "b", "d", "c"), ("b c",), 0, 0)
# entities listed out of occurrence order: an unedited sample reads them in this order, every edit in the recount's
OUT_OF_ORDER_PIECE = make_piece("o0", ("x", "a", "y", "b", "z"), ("b", "a"), 1, 0)


def oracle_pieces(seed):
    """Random pieces, pieces whose masking can form an entity, and fixed pieces whose edits are easy to get wrong."""
    data_rng = np.random.default_rng(1000 + seed)
    pieces = [random_piece(data_rng, i) for i in range(30)]
    form_rng = np.random.default_rng(2000 + seed)
    pieces += [mask_form_piece(form_rng, i) for i in range(1, 10)] + [MASK_FORM_PIECE, OUT_OF_ORDER_PIECE]
    return pieces + [replace(DROP_JOIN_PIECE, id=f"j{i}") for i in range(6)]


def test_augment_matches_reference_stream():
    seen = set()
    for seed in range(40):
        pieces = oracle_pieces(seed)
        records, encoders, _ = make_plan(pieces)
        for settings in REFERENCE_SETTINGS:
            rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            for piece, record in zip(pieces, records):
                out = augment_record(record, settings, rng)
                expect = reference_augment(piece, settings, ref_rng, seen)
                assert (out is record) == (expect is piece)
                assert (out if out is record else out.record) is record and record.piece is piece
                expect_ids = {name: input_ids(enc, expect, MAX_SEQ_LEN).tolist() for name, enc in encoders.items()}
                assert snapshot(out, encoders) == (expect.id, expect.label, expect.tokens, expect.entities, expect_ids)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
    kinds_actions = {(k, a) for k in AUGMENT_KINDS for a in AUGMENT_ACTIONS}
    assert kinds_actions | {"fallback"} <= seen


class CountingDraws(Draws):
    """Draws that count their scalar integer draws: a batch makes one where it rewinds, and where it picks among three."""

    def __init__(self, seed):
        super().__init__(seed)
        self.scalar_integers = 0

    def integers(self, lo, hi):
        self.scalar_integers += 1
        return super().integers(lo, hi)


def edit_case(out):
    """Which easy-to-miss edit an oracle sample is, if any."""
    if not isinstance(out, Sample):
        return None
    piece = out.record.piece
    touched = set(out.masked) if out.kept is None else set(range(len(piece.tokens))) - set(out.kept)
    if piece.tokens == DROP_JOIN_PIECE.tokens and touched == {4}:
        return "a drop joins an entity"
    if piece is OUT_OF_ORDER_PIECE and not touched & {1, 3}:
        return "an edit misses every span of an out-of-order piece"
    return None


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_batch_matches_the_per_sample_oracle(batch_size):
    """Each sample of a batch reads the ids the per-sample oracle gives it, and both streams end at the same draw."""
    rewinds, cases = 0, set()
    for seed in range(12):
        pieces = oracle_pieces(seed)
        records, encoders, plan = make_plan(pieces)
        order = np.random.default_rng(seed).permutation(len(pieces))
        for settings in REFERENCE_SETTINGS:
            draws, rng = CountingDraws(seed), np.random.default_rng(seed)
            for epoch in range(3):
                for start in range(0, len(order), batch_size):
                    batch = order[start : start + batch_size].tolist()
                    for i, got in zip(batch, batch_ids(plan, batch, settings, draws)):
                        out = augment_record(records[i], settings, rng)
                        assert got == {view: out.ids(enc, MAX_SEQ_LEN).tolist() for view, enc in encoders.items()}
                        cases.add(edit_case(out))
            if max(len(settings.kinds), len(settings.actions)) <= 2:
                rewinds += draws.scalar_integers
            assert draws.random() == rng.random()
            assert draws.integers(0, 7) == rng.integers(7)
    assert rewinds > 0
    assert cases >= {"a drop joins an entity", "an edit misses every span of an out-of-order piece"}


def test_a_drop_that_misses_every_span_still_rescans_a_multi_word_entity():
    # the word-level drop of "d" alone: selection draws below 0.5 only at token 4
    (record,), encoders, plan = make_plan([DROP_JOIN_PIECE])
    settings = only("word_level", "drop", 0.5)
    for seed in range(200):
        out = augment_record(record, settings, np.random.default_rng(seed))
        if edit_case(out) == "a drop joins an entity":
            break
    (got,) = batch_ids(plan, [0], settings, Draws(seed))
    vocab = encoders["entities"].vocab
    assert shown(out)[2:] == (("b", "c", "a", "b", "c"), ("b c", "b c"))
    assert got["entities"] == vocab.encode_entities(("b c", "b c")).tolist() != planned(plan, "entities").tolist()
