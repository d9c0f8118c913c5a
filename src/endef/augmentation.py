"""Token-level training augmentation: random drop/mask of words or entity spans, a batch at a time.

A `Plan` scans each training piece, cut to max_len, once per run and keeps,
as run-level arrays, the ids every view reads from it and its entity spans.
`augment` edits a batch of the plan's pieces with the draws the per-sample
rule below makes from `np.random.default_rng`, replayed by `replay.Draws`,
and returns the ids each view reads from the batch as one flat array and
the bounds of each sample's ids. Every scan is `recognizer.Gazetteer.spans`
over a gazetteer of the piece's in-text entities, so a recount names the
spelling recognition would, in the order it finds them (`recompute_entities`).
"""

from itertools import product

import numpy as np

from .corpus import require_recognized
from .models import ModelError
from .recognizer import Gazetteer
from .vocab import MASK_TOKEN, entity_words

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


def recompute_entities(piece, new_tokens, scanners=None):
    """The entities an entity reader reads from a piece whose tokens are `new_tokens`.

    In-text entities come in the order the scan of the new tokens finds
    them; entities that never occurred in the piece's tokens were supplied
    externally and follow, as listed. `scanners` keeps one gazetteer per
    distinct in-text entity set across calls.
    """
    scanner, external = _partition(piece, {} if scanners is None else scanners)
    return tuple(e for _, _, e in scanner.spans(tuple(new_tokens))) + external


def _runs(starts, lengths):
    """The positions start, ..., start + length - 1 of every run, flat and in order."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


class Plan:
    """The training pieces of one run, cut to max_len and scanned once, as the run-level arrays `augment` reads.

    `vocabs` maps each view an encoder reads (`tokens` or `entities`) to its
    vocabulary. `ids[view]` is that view's (flat ids, bounds), the ids of
    piece r being flat[bounds[r]:bounds[r + 1]]: its cut tokens, or the
    entities the planning scan found in them, then its external ones, as
    `framework.input_words` reads them. Token positions are counted over all
    cut pieces end to end; the spans of piece i are spans first_span[i],
    first_span[i] + 1, ...
    """

    def __init__(self, pieces, vocabs, max_len):
        self.pieces = pieces
        self.max_len = max_len
        self.vocabs = vocabs
        self.tokens = tokens = [p.tokens[:max_len] for p in pieces]
        ntok = list(map(len, tokens))
        self.first = np.concatenate(([0], np.cumsum(ntok, dtype=np.intp)))
        scanners = {}
        self.scanners, self.externals, nspan, spans, names, rescans = [], [], [], [], [], []
        for piece, cut, first in zip(pieces, tokens, self.first.tolist()):
            scanner, external = _partition(piece, scanners)
            found = scanner.spans(cut)
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
        words = {"tokens": tokens}
        if "entities" in vocabs:
            require_recognized(pieces, ModelError)
            words["entities"] = [entity_words(found)[:max_len] for found in names]
        self.ids = {view: vocab.encode_sequences(words[view]) for view, vocab in vocabs.items()}


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

    Each view's ids are one gather of its planned ids. A token reader's get
    [MASK]'s id written at masked positions and dropped positions left out.
    An entity reader's stay the planned ones unless the edit touches a span,
    or could complete or join an entity (`Plan.rescans`): only such a
    sample's edited tokens are rescanned, and its recount encoded in their
    place.
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
        flat, planned = plan.ids["entities"]
        touched = np.add.reduceat((edit > 0) & plan.in_span[at], first) > 0
        rescan = np.flatnonzero(touched | (picked > 0) & plan.rescans[idx, drop.view(np.int8)])
        words = []
        for k in rescan.tolist():
            i = batch[k]
            edited = zip(plan.tokens[i], edit[first[k] : first[k] + sizes[k]].tolist())
            tokens = tuple(MASK_TOKEN if e == 1 else t for t, e in edited if e < 2)
            found = tuple(e for _, _, e in plan.scanners[i].spans(tokens)) + plan.externals[i]
            words.append(entity_words(found)[: plan.max_len])
        starts, lengths = planned[idx], planned[idx + 1] - planned[idx]
        lengths[rescan] = list(map(len, words))
        reused = np.ones(len(batch), dtype=bool)
        reused[rescan] = False
        from_plan = np.repeat(reused, lengths)
        ids = np.empty(from_plan.size, dtype=flat.dtype)
        ids[from_plan] = flat[_runs(starts[reused], lengths[reused])]
        if words:
            ids[~from_plan] = plan.vocabs["entities"].encode_sequences(words)[0]
        out["entities"] = ids, np.concatenate(([0], np.cumsum(lengths)))
    return out
