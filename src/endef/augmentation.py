"""Token-level training augmentation: random drop/mask of words or entity spans."""

from dataclasses import dataclass, replace

from .corpus import contains_subsequence
from .recognizer import longest_matches

MASK_TOKEN = "[MASK]"
AUGMENT_KINDS = ("word_level", "entity_level")
AUGMENT_ACTIONS = ("drop", "mask")


@dataclass(frozen=True)
class AugmentPolicy:
    """One sampled augmentation choice: what to select and what to do with it."""

    kind: str
    action: str
    probability: float

    def __post_init__(self):
        if self.kind not in AUGMENT_KINDS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        if self.action not in AUGMENT_ACTIONS:
            raise ValueError(f"unknown augmentation action {self.action!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("selection probability must lie in [0, 1]")


def choose_policy(rng, probability=0.1, kinds=AUGMENT_KINDS, actions=AUGMENT_ACTIONS):
    """Pick one policy uniformly over the allowed kind x action grid."""
    if not kinds or not actions:
        raise ValueError("at least one kind and one action must be allowed")
    kind = kinds[int(rng.integers(len(kinds)))]
    action = actions[int(rng.integers(len(actions)))]
    return AugmentPolicy(kind, action, probability)


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
    return longest_matches(tuple(tokens), max(map(len, forms)), forms, tuple)


def entity_spans(tokens, entity_strings):
    """Non-overlapping (start, end) entity spans, longest match first at each position."""
    return [(a, b) for a, b, _ in _entity_matches(tokens, entity_strings)]


def recompute_entities(piece, new_tokens):
    """Entity list for an edited token sequence.

    In-text entities are re-matched against the new tokens; entities that
    never occurred in the original tokens were supplied externally and are
    preserved untouched at the end of the list.
    """
    in_text = {e for e in piece.entities if contains_subsequence(piece.tokens, e.split())}
    external = tuple(e for e in piece.entities if e not in in_text)
    matched = tuple(e for _, _, e in _entity_matches(new_tokens, in_text))
    return matched + external


def augment(piece, policy, rng):
    """Apply one drop/mask policy to a training sample.

    Word-level selects each token independently with the policy probability;
    entity-level selects whole recognized spans (one draw per occurrence).
    When dropping would empty the sequence, one unmodified token chosen
    uniformly is retained instead. Label and id never change; the entity
    list is recomputed against the edited tokens.
    """
    p = policy.probability
    tokens = piece.tokens
    if policy.kind == "word_level":
        selected = {i for i in range(len(tokens)) if rng.random() < p}
    else:
        selected = set()
        for a, b in entity_spans(tokens, set(piece.entities)):
            if rng.random() < p:
                selected.update(range(a, b))
    if not selected:
        return piece
    if policy.action == "mask":
        new_tokens = tuple(MASK_TOKEN if i in selected else t for i, t in enumerate(tokens))
    else:
        new_tokens = tuple(t for i, t in enumerate(tokens) if i not in selected)
        if not new_tokens:
            keep = int(rng.integers(len(tokens)))
            new_tokens = (tokens[keep],)
    return replace(piece, tokens=new_tokens, entities=recompute_entities(piece, new_tokens))
