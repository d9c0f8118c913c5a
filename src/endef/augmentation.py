"""Token-level training augmentation: random drop/mask of words or entity spans.

Training augments records, not pieces: `plan_records` scans each
truncated training piece once per run, and `augment` edits a record with
the same random draws as an edit of the piece, rescanning only the edited
tokens. Every scan is `recognizer.Gazetteer.spans` over a gazetteer of the
piece's in-text entities, so a recount names the spelling recognition would.
Neither a record nor an edit stands in for a piece: a piece's id, label,
tokens and entities are read from `record.piece`, and an edit holds only
what it changed.
"""

from .recognizer import Gazetteer
from .vocab import MASK_TOKEN

AUGMENT_KINDS = ("word_level", "entity_level")
AUGMENT_ACTIONS = ("drop", "mask")


def _partition(piece, scanners):
    # (gazetteer of the in-text entities, external entities): entities absent
    # from the piece's tokens were supplied externally and survive every edit
    external = piece.external_entities()
    in_text = frozenset(e for e in piece.entities if e not in external)
    if in_text not in scanners:
        scanners[in_text] = Gazetteer(in_text)
    return scanners[in_text], external


def recompute_entities(piece, new_tokens):
    """Entity list for an edited token sequence.

    In-text entities are re-matched against the new tokens; entities that
    never occurred in the original tokens were supplied externally and are
    preserved untouched at the end of the list.
    """
    scanner, external = _partition(piece, {})
    return tuple(e for _, _, e in scanner.spans(tuple(new_tokens))) + external


def plan_records(pieces):
    """The training records of one run: one `PieceRecord` per piece; records whose in-text entities match share a gazetteer."""
    scanners = {}
    return [PieceRecord(p, scanners) for p in pieces]


class PieceRecord:
    """A training piece scanned once for `augment`: the piece, its in-text gazetteer, external entities and entity spans."""

    __slots__ = ("piece", "scanner", "external", "spans")

    def __init__(self, piece, scanners):
        self.piece = piece
        self.scanner, self.external = _partition(piece, scanners)
        self.spans = tuple((a, b) for a, b, _ in self.scanner.spans(piece.tokens))


class Sample:
    """An edited training record: the record, the edited tokens and their entities, and where the edit fell.

    `masked` holds the positions a mask replaced (empty for a drop) and
    `kept` the positions a drop kept (None for a mask), both counted on
    the tokens of `record.piece`; `framework.sample_ids` derives ids from
    them. The id and label stay on `record.piece`.
    """

    __slots__ = ("record", "tokens", "entities", "masked", "kept")

    def __init__(self, record, tokens, entities, masked, kept):
        self.record = record
        self.tokens = tokens
        self.entities = entities
        self.masked = masked
        self.kept = kept


def augment(record, settings, rng):
    """Augment one training record under validated `training.AugmentSettings`.

    Nothing is drawn when augmentation is disabled. Otherwise the sample is
    skipped with chance 1 - apply_probability (one draw, made only when that
    chance is positive), then one kind and one action are picked uniformly
    from the allowed ones. Word-level selects each token independently with
    the settings' probability; entity-level selects whole recognized spans
    (one draw per occurrence). When dropping would empty the sequence, one
    unmodified token chosen uniformly is retained instead. An unedited
    record comes back as itself; an edited one as a `Sample` of the record
    whose entity list is recounted on the edited tokens; neither changes
    the piece, so its label and id are those of `record.piece`.
    """
    if not settings.enabled:
        return record
    if settings.apply_probability < 1.0 and rng.random() >= settings.apply_probability:
        return record
    kind = settings.kinds[int(rng.integers(len(settings.kinds)))]
    action = settings.actions[int(rng.integers(len(settings.actions)))]
    p = settings.probability
    tokens = record.piece.tokens
    if kind == "word_level":
        draws = rng.random(len(tokens)).tolist()
        selected = {i for i, u in enumerate(draws) if u < p}
    else:
        draws = rng.random(len(record.spans)).tolist()
        selected = {i for (a, b), u in zip(record.spans, draws) if u < p for i in range(a, b)}
    if not selected:
        return record
    if action == "mask":
        masked, kept = selected, None
        new_tokens = tuple(MASK_TOKEN if i in selected else t for i, t in enumerate(tokens))
    else:
        masked = ()
        kept = [i for i in range(len(tokens)) if i not in selected] or [int(rng.integers(len(tokens)))]
        new_tokens = tuple(tokens[i] for i in kept)
    entities = tuple(e for _, _, e in record.scanner.spans(new_tokens)) + record.external
    return Sample(record, new_tokens, entities, masked, kept)
