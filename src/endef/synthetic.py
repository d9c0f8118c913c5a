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
A piece's label, entities, content length and insert positions are drawn one
call at a time; its content pairs, one `random()` and one `integers` per token,
are drawn a block of pieces at a time in one NumPy pass. A rejected integer
draw in that pass sends its piece back to the one-call-at-a-time loop.
"""

import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, NewsPiece, entity_bias_table
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


_RAW_CHUNK = 4096  # raw PCG64 words read per window refill
_BLOCK = 32  # pieces whose content pairs one NumPy pass draws; larger blocks raised peak RSS, not speed
_HALF_MASK = 0xFFFFFFFF
_HALF_RANGE = 1 << 32
_DOUBLE_UNIT = 2.0**-53


class _Draws:
    """`np.random.default_rng(seed).random()` and `.integers(lo, hi)`, replayed from the raw PCG64 words.

    `random()` is the top 53 bits of one word. `integers` is numpy's 32-bit Lemire
    draw with its rejection loop, fed by PCG64's buffered half-words: a fresh word
    serves its low half and keeps its high half for the next integer draw, which
    `random()` never touches. A range of 1 draws nothing.

    The words sit in a window, a NumPy array and a read position, that `blocks`
    trims after each block of pieces. `blocks` draws the content pairs of a whole
    block in one NumPy pass over that window; a piece whose pass meets a
    rejection is drawn again by the scalar calls.
    """

    __slots__ = ("_bits", "_words", "_pos", "_half")

    def __init__(self, seed):
        self._bits = np.random.default_rng(seed).bit_generator
        self._words = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self._half = None

    def _fill(self, end):
        """Make the window hold at least `end` words."""
        if end > len(self._words):
            fresh = self._bits.random_raw(max(_RAW_CHUNK, end - len(self._words)))
            self._words = np.concatenate((self._words, fresh))

    def _word(self):
        pos = self._pos
        if pos >= len(self._words):
            self._fill(pos + 1)
        self._pos = pos + 1
        return self._words.item(pos)

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

    def _pairs(self, marks, counts, chance, sizes):
        """The content pairs of runs of `counts` pairs entered at `marks` (position, buffered half), in one pass.

        Returns (signal flags, indices, runs): the pairs of the leading runs that draw no rejection.
        """
        counts = np.array(counts, dtype=np.intp)
        ends = counts.cumsum()
        start = np.repeat(np.array([pos for pos, _ in marks], dtype=np.intp), counts)
        buffered = np.repeat(np.array([half is not None for _, half in marks], dtype=np.intp), counts)
        held = np.repeat(np.array([half or 0 for _, half in marks], dtype=np.uint64), counts)
        i = np.arange(len(start)) - np.repeat(ends - counts, counts)  # each pair's place in its run
        words = self._words
        signal = (words[start + i + (i + 1 - buffered) // 2] >> 11) * _DOUBLE_UNIT < chance
        slot = i - buffered  # the pair's half among its run's fresh half-words; -1 is the buffered half
        word = words[start + buffered + 3 * (np.maximum(slot, 0) // 2) + 1]
        half = np.where(slot < 0, held, np.where(slot % 2 == 1, word >> 32, word & _HALF_MASK))
        n = sizes[signal.view(np.uint8)]  # sizes[s] per pair
        m = half * n
        rejected = np.flatnonzero((m & _HALF_MASK) < _HALF_RANGE % n)
        runs = int(np.searchsorted(ends, rejected[0], side="right")) if len(rejected) else len(marks)
        cut = int(ends[runs] - counts[runs]) if runs < len(marks) else len(start)
        return signal[:cut], (m[:cut] >> 32).astype(np.intp), runs

    def blocks(self, count, walk, chance, sizes):
        """Walk `count` pieces in order, drawing their content pairs a block of pieces at a time.

        `walk(i, content)` makes piece i's draws and calls `content(n)` once, where its n content pairs fall in
        the stream; it never reads them. A content pair is `(s, integers(0, sizes[s]))` with
        `s = random() < chance`, and both sizes lie in (1, 2**32]. Yields `(walked, signal, index)`: what `walk`
        returned for the next pieces and their content pairs, flat and in order.

        The walk steps over each piece's pairs by arithmetic, then one pass draws them all. A rejection shifts
        every later word, so the block ends before the piece that drew it: that piece is walked again from its
        start with the scalar calls, and the next block starts after it.
        """
        if not all(1 < n <= _HALF_RANGE for n in sizes):
            raise ValueError(f"content pair sizes must lie in (1, 2**32], not {sizes}")
        array_sizes = np.array(sizes, dtype=np.uint64)
        done = 0
        while done < count:
            starts, marks, counts, walked = [], [], [], []

            def skip(n):
                """Step over n pairs as if none rejects: a word per `random()`, a fresh word per two integer draws
                after the buffered half, if there is one."""
                buffered = self._half is not None
                marks.append((self._pos, self._half))
                counts.append(n)
                end = self._pos + n + (n + 1 - buffered) // 2
                self._fill(end)
                if (n + buffered) % 2 == 0:
                    self._half = None
                elif n:
                    self._half = self._words.item(end - 1) >> 32  # the last fresh word is the last word read
                self._pos = end

            for i in range(done, min(done + _BLOCK, count)):
                starts.append((self._pos, self._half))
                walked.append(walk(i, skip))
            signal, index, runs = self._pairs(marks, counts, chance, array_sizes)
            if runs:
                yield walked[:runs], signal, index
            done += runs
            if runs < len(walked):
                self._pos, self._half = starts[runs]
                flags, picks = [], []

                def draw(n):
                    for _ in range(n):
                        flags.append(self.random() < chance)
                        picks.append(self.integers(0, sizes[flags[-1]]))

                yield [walk(done, draw)], np.array(flags, dtype=bool), np.array(picks, dtype=np.intp)
                done += 1
            self._words, self._pos = self._words[self._pos :], 0


def generate(spec):
    """Build the corpus and its ground-truth bias ledger.

    Returns (corpus, ledger). The ledger is the entity-bias audit of the
    emitted corpus at spec.period_boundary (`corpus.entity_bias_table`): the
    realized per-entity counts and fake fractions of each period.
    Generation is deterministic given the seed.
    """
    rng = _Draws(spec.seed)
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
