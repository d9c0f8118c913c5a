"""Token-level training augmentation: random drop/mask of words or entity spans, a batch at a time.

A `Plan` scans each truncated training piece once per run and keeps, as
run-level arrays, the ids every view reads from it and its entity spans.
`augment` edits a batch of the plan's pieces with the draws the per-sample
rule below makes from `np.random.default_rng`, replayed by `replay.Draws`,
and returns the ids each view reads from the batch as one flat array and
the bounds of each sample's ids. Every scan is `recognizer.Gazetteer.spans`
over a gazetteer of the piece's in-text entities, so a recount names the
spelling recognition would.
"""

from itertools import accumulate, product

import numpy as np

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


def _runs(starts, lengths):
    """The positions start, ..., start + length - 1 of every run, flat and in order."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


class Plan:
    """The truncated training pieces of one run, scanned once, as the run-level arrays `augment` reads.

    `planned` maps each view an encoder reads (`tokens` or `entities`) to
    (vocabulary, flat ids, bounds), the ids of piece r being
    flat[bounds[r]:bounds[r + 1]] (`framework.planned_ids`); `ids` keeps the
    (flat ids, bounds) pair of each view. Training pieces are cut to max_len
    before they are planned, so token ids line up with tokens. Token
    positions are counted over all pieces end to end; the spans of piece i
    are spans first_span[i], first_span[i] + 1, ...
    """

    def __init__(self, pieces, planned, max_len):
        self.pieces = pieces
        self.max_len = max_len
        self.vocabs = {view: vocab for view, (vocab, _, _) in planned.items()}
        self.ids = {view: (flat, bounds) for view, (_, flat, bounds) in planned.items()}
        ntok = [len(p.tokens) for p in pieces]
        self.first = np.concatenate(([0], np.cumsum(ntok, dtype=np.intp)))
        scanners = {}
        self.scanners, self.externals, nspan, spans, names, rescans = [], [], [], [], [], []
        for piece, first in zip(pieces, self.first.tolist()):
            scanner, external = _partition(piece, scanners)
            found = scanner.spans(piece.tokens)
            self.scanners.append(scanner)
            self.externals.append(external)
            nspan.append(len(found))
            spans += [(first + a, b - a) for a, b, _ in found]
            names.append(tuple(e for _, _, e in found) + external)
            rescans.append((any(MASK_TOKEN in e.split() for e in scanner.entries), scanner.max_tokens > 1))
        start, length = np.array(spans, dtype=np.intp).reshape(-1, 2).T
        self.span_start, self.span_length = start.astype(np.int32), length.astype(np.int32)
        self.first_span = np.cumsum(nspan, dtype=np.intp) - nspan
        self.in_span = np.zeros(int(self.first[-1]), dtype=bool)
        self.in_span[_runs(start, length)] = True
        # per (word level, drop): the selection draws of each piece, and the range of the token a drop that
        # selects them all keeps, if such a drop empties the piece: every word, or spans that cover every token
        spanned = np.bincount(np.repeat(np.arange(len(pieces)), nspan), length, len(pieces))
        emptied = [n if covered else 1 for n, covered in zip(ntok, (spanned == ntok).tolist())]
        self.options = {(True, True): (ntok, ntok), (True, False): (ntok, None), (False, True): (nspan, emptied)}
        self.options[False, False] = (nspan, None)
        # an edit that misses every span leaves a recount unchanged unless masking can complete an entity
        # with [MASK] in its words, or dropping can join the words of a multi-word entity
        self.rescans = np.array(rescans, dtype=bool).reshape(-1, 2)
        if "entities" in planned:
            # what an entity reader gets from such an edit where its planning scan lists entities in another order
            encode = self.vocabs["entities"].encode_entities
            self.scan_order = {i: encode(names[i], max_len) for i, p in enumerate(pieces) if names[i] != p.entities}


def augment(plan, batch, settings, draws):
    """The ids each view of `plan` reads from each sample of a batch of its pieces, augmented under `settings`.

    `batch` holds piece indices; returns {view: (flat, bounds)}, the ids of
    sample k being flat[bounds[k]:bounds[k + 1]]. Each sample is augmented
    by the per-sample rule below, drawing from the `Generator` stream that
    `draws` replays. Nothing is drawn, and nothing edited, when
    augmentation is disabled. Otherwise the sample is skipped with chance
    1 - apply_probability (one `random()`, made only when that chance is
    positive), then one kind and one action are picked uniformly from the
    allowed ones (one `integers(k)` each; a repeated entry is picked more
    often). Word-level selects each token independently with the settings'
    probability; entity-level selects whole recognized spans (one
    `random(n)`: a draw per token or span). A sample whose selection is
    empty is unedited. When dropping would empty the sequence, one token
    chosen uniformly (`integers(len(tokens))`) is kept.

    `draws.selections` makes the draws of the whole batch; the edits are then
    applied to the batch in NumPy.
    """
    batch = batch.tolist()
    choices = list(product([kind == "word_level" for kind in settings.kinds], [a == "drop" for a in settings.actions]))
    gate = settings.apply_probability if settings.apply_probability < 1.0 else None
    ranges = (len(settings.kinds), len(settings.actions))
    options = [plan.options[choice] for choice in choices]
    keys = batch if settings.enabled else []  # disabled: no sample draws, so none picks
    slots, picks, counts, selected, keeps = draws.selections(keys, gate, ranges, options, settings.probability)
    word_level, drops = np.array(choices, dtype=bool).reshape(-1, 2)[picks].T
    return _edited_ids(plan, batch, slots, word_level, drops, counts, selected, keeps)


def _edited_ids(plan, batch, slots, word_level, drops, counts, selected, keeps):
    """The (flat, bounds) ids each view reads from a batch, given the edit and the selections of each picking sample.

    A token reader's ids are one gather of the planned ids, [MASK]'s id written
    at masked positions and dropped positions left out. An entity reader gets
    the planned ids of an unedited sample. It rescans the edited tokens only
    when the edit touches a span, or could complete or join an entity
    (`Plan.rescans`); otherwise the recount is that of the planning scan.
    """
    idx = np.array(batch, dtype=np.intp)
    sizes = plan.first[idx + 1] - plan.first[idx]
    first = np.cumsum(sizes) - sizes  # the batch's tokens, sample after sample
    owner = np.repeat(np.arange(len(slots)), counts)  # the sample of each selection draw
    offset = (np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner])[selected]
    owner = owner[selected]
    # a selected word is the token at its draw's offset; a selected span covers the tokens of its span
    start, length = first[slots][owner] + offset, np.ones(len(owner), dtype=np.intp)
    spans = np.flatnonzero(~word_level[owner])
    slot = slots[owner[spans]]
    unit = plan.first_span[idx[slot]] + offset[spans]
    start[spans] = plan.span_start[unit] - plan.first[idx[slot]] + first[slot]
    length[spans] = plan.span_length[unit]
    edit = np.zeros(int(sizes.sum()), dtype=np.int8)  # per token: 0 kept, 1 masked, 2 dropped
    edit[_runs(start, length)] = np.repeat(1 + drops[owner], length)
    at = _runs(plan.first[idx], sizes)
    picked = np.add.reduceat(edit > 0, first)
    drop = np.zeros(len(batch), dtype=bool)
    drop[slots] = drops
    for k in np.flatnonzero(drop & (picked == sizes)).tolist():  # a drop that selected every token keeps one
        edit[first[k] + keeps.get(k, 0)] = 0
    out = {}
    if "tokens" in plan.ids:
        ids = plan.ids["tokens"][0][at]
        ids[edit == 1] = plan.vocabs["tokens"].mask_id
        kept = edit < 2
        out["tokens"] = ids[kept], np.concatenate(([0], np.cumsum(np.add.reduceat(kept, first))))
    if "entities" in plan.ids:
        (flat, planned), encode = plan.ids["entities"], plan.vocabs["entities"].encode_entities
        touched = np.add.reduceat((edit > 0) & plan.in_span[at], first) > 0
        rescan = np.flatnonzero(touched | (picked > 0) & plan.rescans[idx, drop.view(np.int8)]).tolist()
        own = [flat[planned[i] : planned[i + 1]] for i in batch]
        ids = [plan.scan_order.get(i, ids) if n else ids for i, n, ids in zip(batch, picked.tolist(), own)]
        bounds, edit = np.append(first, len(at)).tolist(), edit.tolist()
        for k in rescan:
            i, piece = batch[k], plan.pieces[batch[k]]
            edited = zip(piece.tokens, edit[bounds[k] : bounds[k + 1]])
            tokens = tuple(MASK_TOKEN if e == 1 else t for t, e in edited if e < 2)
            entities = tuple(e for _, _, e in plan.scanners[i].spans(tokens)) + plan.externals[i]
            ids[k] = own[k] if entities == piece.entities else encode(entities, plan.max_len)
        out["entities"] = np.concatenate(ids), [0, *accumulate(map(len, ids))]
    return out
