"""Token-level training augmentation: random drop/mask of words or entity spans.

Training augments records, not pieces: `plan_records` scans each truncated
training piece once per run and keeps the ids each view reads from it, and
`augment` edits a record with the same random draws as an edit of the piece,
keeping only where the edit fell. A record or an edit gives each encoder its
`ids`; only an entity reader of an edit rebuilds the edited tokens and
rescans them. Every scan is `recognizer.Gazetteer.spans` over a gazetteer of
the piece's in-text entities, so a recount names the spelling recognition
would. A piece's id, label, tokens and entities are read from `record.piece`.
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


def plan_records(pieces, planned):
    """One `PieceRecord` per training piece, sharing gazetteers; `planned` holds the ids each view reads from each piece."""
    scanners = {}
    return [PieceRecord(p, scanners, {view: ids[k] for view, ids in planned.items()}) for k, p in enumerate(pieces)]


class PieceRecord:
    """A training piece scanned once: its in-text gazetteer, external entities, entity spans and the ids each view reads."""

    __slots__ = ("piece", "scanner", "external", "spans", "planned")

    def __init__(self, piece, scanners, planned):
        self.piece = piece
        self.scanner, self.external = _partition(piece, scanners)
        self.spans = tuple((a, b) for a, b, _ in self.scanner.spans(piece.tokens))
        self.planned = planned

    def ids(self, encoder, max_len):
        """The ids an encoder reads from the unedited piece: those planned for its view."""
        return self.planned[encoder.reads]


class Sample:
    """An edited training record: the record and where the edit fell.

    `masked` holds the positions a mask replaced (empty for a drop) and
    `kept` the positions a drop kept (None for a mask), both counted on
    the tokens of `record.piece`. The id and label stay on `record.piece`.
    """

    __slots__ = ("record", "masked", "kept")

    def __init__(self, record, masked, kept):
        self.record = record
        self.masked = masked
        self.kept = kept

    def ids(self, encoder, max_len):
        """The ids an encoder reads from the edit, derived from those planned for its record.

        A token reader's ids are the planned ones with [MASK]'s id written at
        the masked positions, or only the kept ones left: training pieces are
        cut to max_len before they are planned, so their token ids line up
        with their tokens. Only an entity reader rebuilds the edited tokens; it
        rescans them and re-encodes the recount only when it changed.
        """
        record = self.record
        planned = record.planned[encoder.reads]
        if encoder.reads == "tokens":
            if self.kept is not None:
                return planned[self.kept]
            ids = planned.copy()
            ids[list(self.masked)] = encoder.vocab.mask_id
            return ids
        tokens = record.piece.tokens
        positions = range(len(tokens)) if self.kept is None else self.kept
        edited = tuple(MASK_TOKEN if i in self.masked else tokens[i] for i in positions)
        entities = tuple(e for _, _, e in record.scanner.spans(edited)) + record.external
        if entities == record.piece.entities:
            return planned
        return encoder.vocab.encode_entities(entities, max_len)


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
    and the positions the edit masked or kept, without its tokens or
    entities; neither changes the piece, so its label and id are those of
    `record.piece`.
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
        return Sample(record, selected, None)
    return Sample(record, (), [i for i in range(len(tokens)) if i not in selected] or [int(rng.integers(len(tokens)))])
