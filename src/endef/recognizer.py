"""Dictionary (gazetteer) entity recognition with longest-match-leftmost semantics."""

from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from .corpus import Corpus


class GazetteerError(ValueError):
    """Invalid gazetteer contents or misuse of the recognizer."""


def _surface_key(surface, fold):
    # whitespace-normalized and, for a case-insensitive gazetteer, case-folded
    return " ".join((surface.lower() if fold else surface).split())


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
    def _lookup(self):
        # normalized surface -> canonical entry; on case-insensitive
        # collisions the lexicographically smallest entry wins
        table = {}
        for e in sorted(self.entries):
            table.setdefault(_surface_key(e, not self.case_sensitive), e)
        return table

    @cached_property
    def max_tokens(self):
        return max(len(e.split()) for e in self.entries) if self.entries else 0

    def __len__(self):
        return len(self.entries)


def longest_matches(items, max_span, table, key):
    """Longest-match-leftmost scan of a sequence against a lookup table.

    The span items[start:end] matches when `table` holds key(items[start:end]).
    At each position the longest matching span of at most max_span items
    wins and scanning resumes after it, so shorter matches overlapping a
    taken span are suppressed. Returns [(start, end, table value), ...].
    """
    found = []
    i, n = 0, len(items)
    while i < n:
        for end in range(min(i + max_span, n), i, -1):
            value = table.get(key(items[i:end]))
            if value is not None:
                found.append((i, end, value))
                i = end
                break
        else:
            i += 1
    return found


def recognize(tokens, gazetteer, *, dedupe=False):
    """All maximal gazetteer matches in `tokens`, scanning left to right.

    A span matches when its whitespace-normalized surface (case-folded for a
    case-insensitive gazetteer) is an entry. Duplicate mentions are kept in
    occurrence order unless `dedupe` is set.
    """
    if len(gazetteer) == 0:
        raise GazetteerError("recognition needs a non-empty gazetteer")
    fold = not gazetteer.case_sensitive
    spans = longest_matches(
        tuple(tokens), gazetteer.max_tokens, gazetteer._lookup, lambda span: _surface_key(" ".join(span), fold)
    )
    found = [e for _, _, e in spans]
    if dedupe:
        found = list(dict.fromkeys(found))
    return tuple(found)


def recognize_corpus(corpus, gazetteer, *, dedupe=False):
    """Fill the entity list of every piece; clears needs_recognition flags."""
    pieces = tuple(
        replace(p, entities=recognize(p.tokens, gazetteer, dedupe=dedupe), needs_recognition=False)
        for p in corpus.pieces
    )
    return Corpus(pieces, name=corpus.name)
