"""Synthetic corpora with controlled, period-dependent entity-label correlations.

Each sample carries a genuine class signal in its content words plus one to
three injected entity tokens whose fake fraction is dialed per period.
Flipping those fractions between the train and test periods plants exactly
the shortcut trap the fused trainer is meant to dodge, while the content
signal stays stable so an entity-ignoring classifier keeps working.

Sampling scheme per piece: the label is drawn from the period's mean fake
fraction, then 1 to max_entities_per_piece entity draws are taken with
replacement with probabilities proportional to corr (fake pieces) or
1 - corr (real pieces), and deduplicated in draw order. Each entity draw is
one uniform mapped through the period's CDF for the label: the entity that
`Generator.choice` picks from that uniform. With the label marginal equal to
mean(corr), Bayes gives P(fake | entity drawn) = corr_k exactly per draw;
presence-level fractions attenuate slightly toward the mean when several
draws land on few entities, so recipes with at least ~8 entities track
their targets closely.

Every draw is replayed from the raw PCG64 words of
`np.random.default_rng(spec.seed)` by `replay.Draws`: the values equal what
that `Generator`'s `random` and `integers` return, call for call, without a
`Generator` call per token. A piece's label, entities, content length and
insert positions are drawn one call at a time; its content pairs, one
`random()` and one `integers` per token, are drawn a block of pieces at a time
in one NumPy pass. A rejected integer draw in that pass sends its piece back
to the one-call-at-a-time loop.
"""

import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, NewsPiece, entity_bias_table
from .payload import check_type, from_fields
from .replay import Draws


class SyntheticSpecError(ValueError):
    """Infeasible or malformed corpus recipe."""


def _as_corr_tuple(value, n_entities, name):
    if not isinstance(value, (list, tuple)):
        value = (check_type(value, float, name, SyntheticSpecError),) * n_entities
    value = tuple(float(check_type(v, float, f"{name}[{i}]", SyntheticSpecError)) for i, v in enumerate(value))
    if len(value) != n_entities:
        raise SyntheticSpecError(f"{name} must have one value per entity ({n_entities}), got {len(value)}")
    if any(not 0.0 <= v <= 1.0 for v in value):
        raise SyntheticSpecError(f"{name} values must lie in [0, 1]")
    return value


@dataclass(frozen=True)
class BiasSpec:
    """Recipe for one synthetic corpus.

    train_corr / test_corr give P(fake | entity present) per entity for the
    respective period; a scalar is broadcast to all entities.
    content_signal_strength is the chance each content token comes from the
    class-conditional pool instead of the neutral one.
    """

    n_entities: int = 12
    vocab_size: int = 400
    n_train: int = 1600
    n_val: int = 320
    n_test: int = 320
    train_corr: tuple | float = 0.9
    test_corr: tuple | float = 0.1
    content_signal_strength: float = 0.3
    min_tokens: int = 12
    max_tokens: int = 24
    max_entities_per_piece: int = 3
    period_boundary: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.n_entities < 1:
            raise SyntheticSpecError("n_entities must be positive")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise SyntheticSpecError("sample counts must be positive")
        if self.vocab_size < 8:
            raise SyntheticSpecError("vocab_size must be at least 8")
        if not 0.0 < self.content_signal_strength < 1.0:
            raise SyntheticSpecError("content_signal_strength must lie in (0, 1)")
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise SyntheticSpecError("need 1 <= min_tokens <= max_tokens")
        if self.max_entities_per_piece < 1:
            raise SyntheticSpecError("max_entities_per_piece must be positive")
        if self.n_train > self.period_boundary:
            raise SyntheticSpecError("period_boundary must not fall inside the train period")
        object.__setattr__(self, "train_corr", _as_corr_tuple(self.train_corr, self.n_entities, "train_corr"))
        object.__setattr__(self, "test_corr", _as_corr_tuple(self.test_corr, self.n_entities, "test_corr"))

    def entity_names(self):
        return tuple(f"ent_{i:02d}" for i in range(self.n_entities))

    @classmethod
    def from_file(cls, path):
        return from_fields(cls, json.loads(Path(path).read_text(encoding="utf-8")), "bias_spec", SyntheticSpecError)


def _content_pools(vocab_size):
    q = max(vocab_size // 4, 2)
    fake_pool = tuple(f"fw{i:03d}" for i in range(q))
    real_pool = tuple(f"rw{i:03d}" for i in range(q))
    neutral_pool = tuple(f"nw{i:03d}" for i in range(max(vocab_size - 2 * q, 2)))
    return fake_pool, real_pool, neutral_pool


def entity_cdf(weights):
    """The CDF that `Generator.choice(len(weights), p=weights / weights.sum())` searches; uniform if all are 0."""
    total = float(weights.sum())
    probs = weights / total if total > 0.0 else np.full(len(weights), 1.0 / len(weights))
    cdf = probs.cumsum()
    return (cdf / cdf[-1]).tolist()


def generate(spec):
    """Build the corpus and its ground-truth bias ledger.

    Returns (corpus, ledger). The ledger is the entity-bias audit of the
    emitted corpus at spec.period_boundary (`corpus.entity_bias_table`): the
    realized per-entity counts and fake fractions of each period.
    Generation is deterministic given the seed.
    """
    rng = Draws(spec.seed)
    random, integers = rng.random, rng.integers
    names = spec.entity_names()
    fake_pool, real_pool, neutral_pool = _content_pools(spec.vocab_size)
    q = len(fake_pool)
    words = np.array(fake_pool + real_pool + neutral_pool, dtype=object)

    def draws(corr):
        """A period's fake chance and its entity CDF per label (real, fake)."""
        corr = np.asarray(corr, dtype=np.float64)
        return float(corr.mean()), (entity_cdf(1.0 - corr), entity_cdf(corr))

    pre, post = draws(spec.train_corr), draws(spec.test_corr)

    def walk(i, content):
        """Piece i's label, entities, content length and insert positions, around its content pairs."""
        fake_chance, cdfs = pre if i < spec.n_train else post
        label = int(random() < fake_chance)
        k = integers(1, spec.max_entities_per_piece + 1)
        chosen = []
        for _ in range(k):
            idx = bisect_right(cdfs[label], random())
            if idx not in chosen:
                chosen.append(idx)
        n_content = integers(spec.min_tokens, spec.max_tokens + 1)
        content(n_content)
        return label, n_content, [(names[e], integers(0, n_content + j + 1)) for j, e in enumerate(chosen)]

    pieces = []
    n_pieces = spec.n_train + spec.n_val + spec.n_test
    for walked, signal, index in rng.blocks(n_pieces, walk, spec.content_signal_strength, (len(neutral_pool), q)):
        labels = np.repeat([label for label, _, _ in walked], [n for _, n, _ in walked])
        # fake_pool, real_pool and neutral_pool sit end to end in `words`
        flat = words[np.where(signal, q * (1 - labels), 2 * q) + index].tolist()
        at = 0
        for label, n, inserts in walked:
            i = len(pieces)
            period, number = ("pre", i) if i < spec.n_train else ("post", i - spec.n_train)
            tokens, at = flat[at : at + n], at + n
            for e, position in inserts:
                tokens.insert(position, e)
            timestamp = number if period == "pre" else spec.period_boundary + number
            pieces.append(NewsPiece(f"{period}-{number:05d}", tuple(tokens), tuple(e for e, _ in inserts), label, timestamp))

    corpus = Corpus(tuple(pieces), name=f"synthetic-seed{spec.seed}")
    ledger = entity_bias_table(corpus, spec.period_boundary)
    drawn = {(row.entity, row.period) for row in ledger}
    for e in names:
        for period in ("pre", "post"):
            if (e, period) not in drawn:
                raise SyntheticSpecError(
                    f"infeasible spec: entity {e!r} drew no samples in period {period!r}; increase sample counts"
                )
    return corpus, ledger
