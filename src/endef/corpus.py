"""News corpus data model, JSONL I/O, temporal splitting, and entity-bias audits."""

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class CorpusError(ValueError):
    """Malformed corpus data or an operation violating corpus invariants."""


_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text, lowercase=False):
    """Whitespace/punctuation tokenizer for corpora stored as raw text."""
    if lowercase:
        text = text.lower()
    return tuple(_TOKEN_RE.findall(text))


def contains_subsequence(tokens, sub):
    """True if `sub` occurs as a contiguous run inside `tokens`."""
    sub = tuple(sub)
    m = len(sub)
    if m == 0 or m > len(tokens):
        return False
    return any(tuple(tokens[i : i + m]) == sub for i in range(len(tokens) - m + 1))


@dataclass(frozen=True)
class NewsPiece:
    """One news sample: tokens, recognized entities, binary label, timestamp.

    `label` is 1 for fake and 0 for real. `needs_recognition` marks pieces
    loaded without an entity field; such pieces must pass through entity
    recognition before bias audits or entity-branch training. Entities that
    do not occur as contiguous token runs were supplied out-of-band; they are
    tolerated and reported by `external_entities`.
    """

    id: str
    tokens: tuple[str, ...]
    entities: tuple[str, ...] = ()
    label: int = 0
    timestamp: int = 0
    needs_recognition: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "entities", tuple(self.entities))
        if not self.id or not isinstance(self.id, str):
            raise CorpusError("piece id must be a non-empty string")
        if len(self.tokens) < 1:
            raise CorpusError(f"piece {self.id!r}: token sequence is empty")
        if isinstance(self.label, bool) or self.label not in (0, 1):
            raise CorpusError(f"piece {self.id!r}: label must be 0 or 1, got {self.label!r}")
        if isinstance(self.timestamp, bool) or not isinstance(self.timestamp, int) or self.timestamp < 0:
            raise CorpusError(f"piece {self.id!r}: timestamp must be a non-negative integer, got {self.timestamp!r}")
        if any(not e for e in self.entities):
            raise CorpusError(f"piece {self.id!r}: empty entity string")
        if self.needs_recognition and self.entities:
            raise CorpusError(f"piece {self.id!r}: a needs-recognition piece cannot carry entities")

    def external_entities(self):
        """Entities not present as contiguous token runs (supplied out-of-band)."""
        return tuple(e for e in self.entities if not contains_subsequence(self.tokens, e.split()))


@dataclass(frozen=True)
class Corpus:
    """Immutable collection of pieces with unique ids."""

    pieces: tuple[NewsPiece, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        seen = set()
        for p in self.pieces:
            if p.id in seen:
                raise CorpusError(f"duplicate piece id {p.id!r}")
            seen.add(p.id)

    def __len__(self):
        return len(self.pieces)

    def __iter__(self):
        return iter(self.pieces)

    def ids(self):
        return tuple(p.id for p in self.pieces)


def _strings(raw, key):
    # one C-level pass over the list: no Python frame runs per item
    value = raw[key]
    if not isinstance(value, list) or not all(map(str.__instancecheck__, value)):
        raise CorpusError(f"{key!r} must be a list of strings")
    return tuple(value)


def _piece_from_record(raw, lowercase):
    if not isinstance(raw, dict):
        raise CorpusError("record is not a JSON object")
    if "id" not in raw:
        raise CorpusError("missing field 'id'")
    if isinstance(raw["id"], bool) or not isinstance(raw["id"], (str, int)):
        raise CorpusError(f"'id' must be a string or an integer, got {raw['id']!r}")
    pid = str(raw["id"])
    if "tokens" in raw:
        tokens = _strings(raw, "tokens")
    elif "text" in raw:
        if not isinstance(raw["text"], str):
            raise CorpusError(f"'text' must be a string, got {type(raw['text']).__name__}")
        tokens = tokenize(raw["text"], lowercase=lowercase)
    else:
        raise CorpusError("record needs either 'tokens' or 'text'")
    for key in ("label", "timestamp"):
        if key not in raw:
            raise CorpusError(f"missing field {key!r}")
    if raw.get("entities") is None:
        return NewsPiece(pid, tokens, (), raw["label"], raw["timestamp"], needs_recognition=True)
    return NewsPiece(pid, tokens, _strings(raw, "entities"), raw["label"], raw["timestamp"])


def load_corpus(path, *, lowercase=False, name=None):
    """Read a JSONL corpus; raises CorpusError naming the offending line.

    Each line is an object with fields id (a string, or an integer read as
    its decimal string), tokens (or a text string), label, timestamp and an
    optional entities list. A missing entities field marks the piece as
    needing recognition.
    """
    path = Path(path)
    pieces, seen = [], set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON: {exc.msg}") from None
            try:
                piece = _piece_from_record(raw, lowercase)
            except CorpusError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from None
            if piece.id in seen:
                raise CorpusError(f"{path}: line {lineno}: duplicate id {piece.id!r}")
            seen.add(piece.id)
            pieces.append(piece)
    return Corpus(tuple(pieces), name=name if name is not None else path.stem)


def save_corpus(corpus, path):
    """Write a corpus as JSONL; pieces needing recognition omit the entities field."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for p in corpus.pieces:
            rec = {"id": p.id, "tokens": list(p.tokens)}
            if not p.needs_recognition:
                rec["entities"] = list(p.entities)
            rec["label"] = p.label
            rec["timestamp"] = p.timestamp
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class SplitResult:
    """Temporally disjoint train/validation/test parts; training alone needs no test part."""

    train: Corpus
    validation: Corpus
    test: Corpus = Corpus(())

    def __post_init__(self):
        ids = [set(part.ids()) for part in (self.train, self.validation, self.test)]
        if ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2]:
            raise CorpusError("split parts share piece ids")
        recent = [p.timestamp for part in (self.validation, self.test) for p in part]
        if self.train.pieces and recent and max(p.timestamp for p in self.train) > min(recent):
            raise CorpusError("train part contains timestamps newer than validation/test")


def temporal_split(corpus, train_ratio, val_ratio, seed):
    """Oldest fraction trains; the most recent remainder is shuffled into validation/test.

    Pieces are ordered by (timestamp, id). The first round(n * train_ratio)
    go to train; the rest are permuted with the given seed and cut at
    round(n * val_ratio) into validation vs test.
    """
    if len(corpus) == 0:
        raise CorpusError("cannot split an empty corpus")
    # written so that NaN fails each check
    if not (0 < train_ratio < 1 and 0 < val_ratio < 1):
        raise CorpusError(f"split ratios must lie in (0, 1), got {train_ratio}/{val_ratio}")
    if not train_ratio + val_ratio < 1:
        raise CorpusError("train_ratio + val_ratio must leave room for a test part")
    ordered = sorted(corpus.pieces, key=lambda p: (p.timestamp, p.id))
    n = len(ordered)
    n_train = int(round(n * train_ratio))
    n_val = int(round(n * val_ratio))
    n_test = n - n_train - n_val
    if n_train < 1 or n_val < 1 or n_test < 1:
        raise CorpusError(f"ratios {train_ratio}/{val_ratio} leave an empty part for {n} pieces")
    recent = ordered[n_train:]
    perm = np.random.default_rng(seed).permutation(len(recent))
    by_time = lambda p: (p.timestamp, p.id)  # noqa: E731
    val = sorted((recent[i] for i in perm[:n_val]), key=by_time)
    test = sorted((recent[i] for i in perm[n_val:]), key=by_time)
    return SplitResult(
        Corpus(tuple(ordered[:n_train]), name=f"{corpus.name}:train"),
        Corpus(tuple(val), name=f"{corpus.name}:validation"),
        Corpus(tuple(test), name=f"{corpus.name}:test"),
    )


@dataclass(frozen=True)
class EntityBiasRow:
    """Audit row: how often an entity occurs in one period and how fake it runs."""

    entity: str
    period: str
    news_count: int
    fake_fraction: float


def entity_bias_table(corpus, period_boundary):
    """Per-entity piece counts and fake fractions before/after the boundary.

    Pieces with timestamp < period_boundary fall in period "pre", the rest
    in "post". A piece counts once per entity regardless of repeated
    mentions. Rows are sorted by total count over both periods descending,
    ties by entity string; periods with zero occurrences are omitted.
    """
    for p in corpus:
        if p.needs_recognition:
            raise CorpusError(f"piece {p.id!r} has no recognized entities; run recognition first")
    counts = {}
    for p in corpus:
        period = "pre" if p.timestamp < period_boundary else "post"
        for entity in set(p.entities):
            n, nf = counts.get((entity, period), (0, 0))
            counts[(entity, period)] = (n + 1, nf + p.label)
    totals = {}
    for (entity, _), (n, _) in counts.items():
        totals[entity] = totals.get(entity, 0) + n
    rows = []
    for entity in sorted(totals, key=lambda e: (-totals[e], e)):
        for period in ("pre", "post"):
            if (entity, period) in counts:
                n, nf = counts[(entity, period)]
                rows.append(EntityBiasRow(entity, period, n, nf / n))
    return tuple(rows)


def export_bias_table(rows, path):
    """Write audit rows as TSV with fake_fraction at 4 decimal places."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("entity\tperiod\tnews_count\tfake_fraction\n")
        for r in rows:
            fh.write(f"{r.entity}\t{r.period}\t{r.news_count}\t{r.fake_fraction:.4f}\n")
