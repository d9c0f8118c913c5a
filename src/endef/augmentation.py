"""Token-level training augmentation: random drop/mask of words or entity spans."""

from dataclasses import replace

from .recognizer import longest_matches
from .vocab import MASK_TOKEN

AUGMENT_KINDS = ("word_level", "entity_level")
AUGMENT_ACTIONS = ("drop", "mask")


def _entity_forms(entity_strings):
    # token-tuple form -> canonical entity string (first spelling wins)
    forms = {}
    for e in entity_strings:
        parts = tuple(e.split())
        if parts:
            forms.setdefault(parts, e)
    return forms


def _entity_matches(tokens, entity_strings):
    # (start, end, entity) for every longest-leftmost exact token-tuple match
    forms = _entity_forms(entity_strings)
    if not forms:
        return []
    tokens = tuple(tokens)
    starts = {form[0] for form in forms}
    return longest_matches(tokens, range(len(tokens) + 1), max(map(len, forms)), forms, starts)


def entity_spans(tokens, entity_strings):
    """Non-overlapping (start, end) entity spans, longest match first at each position."""
    return [(a, b) for a, b, _ in _entity_matches(tokens, entity_strings)]


def recompute_entities(piece, new_tokens):
    """Entity list for an edited token sequence.

    In-text entities are re-matched against the new tokens; entities that
    never occurred in the original tokens were supplied externally and are
    preserved untouched at the end of the list.
    """
    external = piece.external_entities()
    in_text = {e for e in piece.entities if e not in external}
    matched = tuple(e for _, _, e in _entity_matches(new_tokens, in_text))
    return matched + external


def augment(piece, settings, rng):
    """Augment one training sample under validated `training.AugmentSettings`.

    Nothing is drawn when augmentation is disabled. Otherwise the sample is
    skipped with chance 1 - apply_probability (one draw, made only when that
    chance is positive), then one kind and one action are picked uniformly
    from the allowed ones. Word-level selects each token independently with
    the settings' probability; entity-level selects whole recognized spans
    (one draw per occurrence). When dropping would empty the sequence, one
    unmodified token chosen uniformly is retained instead. Label and id
    never change; the entity list is recomputed against the edited tokens.
    """
    if not settings.enabled:
        return piece
    if settings.apply_probability < 1.0 and rng.random() >= settings.apply_probability:
        return piece
    kind = settings.kinds[int(rng.integers(len(settings.kinds)))]
    action = settings.actions[int(rng.integers(len(settings.actions)))]
    p = settings.probability
    tokens = piece.tokens
    if kind == "word_level":
        draws = rng.random(len(tokens)).tolist()
        selected = {i for i, u in enumerate(draws) if u < p}
    else:
        spans = entity_spans(tokens, piece.entities)
        draws = rng.random(len(spans)).tolist()
        selected = {i for (a, b), u in zip(spans, draws) if u < p for i in range(a, b)}
    if not selected:
        return piece
    if action == "mask":
        new_tokens = tuple(MASK_TOKEN if i in selected else t for i, t in enumerate(tokens))
    else:
        new_tokens = tuple(t for i, t in enumerate(tokens) if i not in selected)
        if not new_tokens:
            keep = int(rng.integers(len(tokens)))
            new_tokens = (tokens[keep],)
    return replace(piece, tokens=new_tokens, entities=recompute_entities(piece, new_tokens))
