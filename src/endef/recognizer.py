"""Dictionary (gazetteer) entity recognition with longest-match-leftmost semantics."""

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
from pathlib import Path

from .corpus import Corpus, NewsPiece


class GazetteerError(ValueError):
    """Invalid gazetteer contents or misuse of the recognizer."""


def _surface_words(surface, fold):
    # whitespace-split and, for a case-insensitive gazetteer, case-folded
    return (surface.lower() if fold else surface).split()


@dataclass(frozen=True)
class Gazetteer:
    """A fixed set of entity surface forms matched on token boundaries."""

    entries: frozenset
    case_sensitive: bool = True

    def __post_init__(self):
        object.__setattr__(self, "entries", frozenset(self.entries))
        for e in self.entries:
            if not isinstance(e, str) or not e.split():
                raise GazetteerError("gazetteer entries must be non-empty strings")

    @classmethod
    def from_file(cls, path, case_sensitive=True):
        """One entity per line; first TSV column, any extra columns ignored."""
        entries = set()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            surface = line.split("\t", 1)[0].strip()
            if surface:
                entries.add(surface)
        return cls(frozenset(entries), case_sensitive=case_sensitive)

    @cached_property
    def _table(self):
        # normalized word tuple -> canonical entry; on case-insensitive
        # collisions the lexicographically smallest entry wins
        table = {}
        for e in sorted(self.entries):
            table.setdefault(tuple(_surface_words(e, not self.case_sensitive)), e)
        return table

    @cached_property
    def _starts(self):
        return frozenset(key[0] for key in self._table)

    @cached_property
    def max_tokens(self):
        return max(map(len, self._table), default=0)

    def __len__(self):
        return len(self.entries)

    def spans(self, words, bounds=None):
        """Longest-match-leftmost scan of items against the entries' word tuples.

        Item k holds words[bounds[k]:bounds[k + 1]]: one word each when bounds
        is None, several or none otherwise. A span of items matches when its
        words are an entry's normalized words; at each position the longest
        matching span of at most max_tokens items wins and scanning resumes
        after it. Only positions whose first word, words[bounds[start]], can
        start an entry are probed. Returns [(start, end, canonical entry), ...].
        """
        if bounds is None:
            bounds = range(len(words) + 1)
        table, max_span = self._table, self.max_tokens
        found = []
        n = len(bounds) - 1
        resume = 0
        # flags[j]: word j can start an entry; the trailing False stands for
        # the end of the words, where only empty items begin
        flags = [*map(self._starts.__contains__, words), False]
        for i in compress(range(n), map(flags.__getitem__, bounds)):
            if i < resume:
                continue
            first = bounds[i]
            for end in range(min(i + max_span, n), i, -1):
                value = table.get(words[first : bounds[end]])
                if value is not None:
                    found.append((i, end, value))
                    resume = end
                    break
        return found


def recognize(tokens, gazetteer, *, dedupe=False):
    """All maximal gazetteer matches in `tokens`, scanning left to right.

    A span matches when its whitespace-split words (case-folded for a
    case-insensitive gazetteer) are the words of an entry, so a token may
    hold several words or none. Duplicate mentions are kept in occurrence
    order unless `dedupe` is set.
    """
    if len(gazetteer) == 0:
        raise GazetteerError("recognition needs a non-empty gazetteer")
    fold = not gazetteer.case_sensitive
    tokens = tuple(tokens)
    joined = "".join(tokens)
    if all(tokens) and joined.split() == [joined]:
        # every token is one word; folding a token alone folds it as the
        # joined span does, because a space bounds every case mapping's context
        words = tuple(map(str.lower, tokens)) if fold else tokens
        bounds = range(len(tokens) + 1)
    else:
        per_token = [_surface_words(t, fold) for t in tokens]
        words = tuple(chain.from_iterable(per_token))
        bounds = [0, *accumulate(map(len, per_token))]
    found = [e for _, _, e in gazetteer.spans(words, bounds)]
    if dedupe:
        found = list(dict.fromkeys(found))
    return tuple(found)


def recognize_corpus(corpus, gazetteer, *, dedupe=False):
    """Fill the entity list of every piece; clears needs_recognition flags."""
    pieces = tuple(
        NewsPiece(p.id, p.tokens, recognize(p.tokens, gazetteer, dedupe=dedupe), p.label, p.timestamp)
        for p in corpus.pieces
    )
    return Corpus(pieces, name=corpus.name)
