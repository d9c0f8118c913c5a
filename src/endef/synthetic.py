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
`np.random.default_rng(spec.seed)`, read in chunks: the values equal what
that `Generator`'s `random` and `integers` return, call for call (the tests
check this against the installed numpy), without a `Generator` call per token.
"""

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import Corpus, EntityBiasRow, NewsPiece
from .payload import check_type, from_fields


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


_RAW_CHUNK = 4096  # raw PCG64 words read per refill
_HALF_MASK = 0xFFFFFFFF
_HALF_RANGE = 1 << 32
_DOUBLE_UNIT = 2.0**-53


class _Draws:
    """`np.random.default_rng(seed).random()` and `.integers(lo, hi)`, replayed from the raw PCG64 words.

    `random()` is the top 53 bits of one word. `integers` is numpy's 32-bit Lemire
    draw with its rejection loop, fed by PCG64's buffered half-words: a fresh word
    serves its low half and keeps its high half for the next integer draw, which
    `random()` never touches. A range of 1 draws nothing.
    """

    __slots__ = ("_word", "_half")

    def __init__(self, seed):
        bits = np.random.default_rng(seed).bit_generator
        self._word = chain.from_iterable(iter(lambda: bits.random_raw(_RAW_CHUNK).tolist(), None)).__next__
        self._half = None

    def random(self):
        return (self._word() >> 11) * _DOUBLE_UNIT

    def integers(self, lo, hi):
        n = hi - lo
        if n == 1:
            return lo
        if not 1 < n <= _HALF_RANGE:
            raise ValueError(f"integers range [{lo}, {hi}) must hold 1 to 2**32 values, not {n}")
        threshold = _HALF_RANGE % n  # Lemire: a low product half below 2**32 mod n is rejected
        while True:
            half = self._half
            if half is None:
                word = self._word()
                self._half = word >> 32
                half = word & _HALF_MASK
            else:
                self._half = None
            m = half * n
            if (m & _HALF_MASK) >= threshold:
                return lo + (m >> 32)


def generate(spec):
    """Build the corpus and its ground-truth bias ledger.

    Returns (corpus, ledger). Ledger rows are realized per-entity counts
    tallied during generation; an entity-bias audit of the emitted corpus
    must reproduce them exactly. Generation is deterministic given the seed.
    """
    rng = _Draws(spec.seed)
    random, integers = rng.random, rng.integers
    names = spec.entity_names()
    fake_pool, real_pool, neutral_pool = _content_pools(spec.vocab_size)
    counts = {}

    def draws(corr):
        """A period's fake chance and its entity CDF per label (real, fake)."""
        corr = np.asarray(corr, dtype=np.float64)
        return float(corr.mean()), (entity_cdf(1.0 - corr), entity_cdf(corr))

    def emit(period, index, timestamp, fake_chance, cdfs):
        label = int(random() < fake_chance)
        k = integers(1, spec.max_entities_per_piece + 1)
        chosen = []
        for _ in range(k):
            idx = bisect_right(cdfs[label], random())
            if idx not in chosen:
                chosen.append(idx)
        n_content = integers(spec.min_tokens, spec.max_tokens + 1)
        signal_pool = fake_pool if label else real_pool
        tokens = []
        for _ in range(n_content):
            pool = signal_pool if random() < spec.content_signal_strength else neutral_pool
            tokens.append(pool[integers(0, len(pool))])
        entities = [names[int(i)] for i in chosen]
        for e in entities:
            tokens.insert(integers(0, len(tokens) + 1), e)
            n, nf = counts.get((e, period), (0, 0))
            counts[(e, period)] = (n + 1, nf + label)
        return NewsPiece(f"{period}-{index:05d}", tuple(tokens), tuple(entities), label, timestamp)

    pre, post = draws(spec.train_corr), draws(spec.test_corr)
    pieces = [emit("pre", i, i, *pre) for i in range(spec.n_train)]
    pieces += [emit("post", i, spec.period_boundary + i, *post) for i in range(spec.n_val + spec.n_test)]

    for e in names:
        for period in ("pre", "post"):
            if (e, period) not in counts:
                raise SyntheticSpecError(
                    f"infeasible spec: entity {e!r} drew no samples in period {period!r}; increase sample counts"
                )

    totals = {e: counts[(e, "pre")][0] + counts[(e, "post")][0] for e in names}
    ledger = tuple(
        EntityBiasRow(e, period, counts[(e, period)][0], counts[(e, period)][1] / counts[(e, period)][0])
        for e in sorted(names, key=lambda e: (-totals[e], e))
        for period in ("pre", "post")
    )
    return Corpus(tuple(pieces), name=f"synthetic-seed{spec.seed}"), ledger
