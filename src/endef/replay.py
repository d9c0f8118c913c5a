"""`np.random.default_rng(seed)` draws replayed from the raw PCG64 words, so a caller can draw runs of them in NumPy."""

import numpy as np

_RAW_CHUNK = 4096  # raw PCG64 words read per window refill
_BLOCK = 32  # pieces whose content pairs one NumPy pass draws; larger blocks raised peak RSS, not speed
_HALF_MASK = 0xFFFFFFFF
_HALF_RANGE = 1 << 32
DOUBLE_UNIT = 2.0**-53


class Draws:
    """`np.random.default_rng(seed).random()` and `.integers(lo, hi)`, replayed from the raw PCG64 words.

    `seed` is anything `default_rng` takes, a `SeedSequence` included; the
    values equal that `Generator`'s call for call (the tests check this
    against the installed numpy). `random()` is the top 53 bits of one word,
    so `Generator.random(n)` is n words in a row. `integers` is numpy's 32-bit
    Lemire draw with its rejection loop, fed by PCG64's buffered half-words: a
    fresh word serves its low half and keeps its high half for the next
    integer draw, which `random()` never touches. A range of 1 draws nothing,
    and a range of 2 takes a half-word's top bit and never rejects.

    The words sit in a window, a NumPy array and a read position. `blocks`
    draws the content pairs of a whole block of pieces in one NumPy pass; a
    piece whose pass meets a rejection is drawn again by the scalar calls.
    `selections` draws a batch of samples' picks and selection runs, the
    runs in one NumPy pass.
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
        return (self._word() >> 11) * DOUBLE_UNIT

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
        signal = (words[start + i + (i + 1 - buffered) // 2] >> 11) * DOUBLE_UNIT < chance
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

    def selections(self, keys, gate, ranges, options, chance):
        """The picks and selection runs of a batch of samples, each drawn in turn as by the scalar calls.

        Sample k, of key `keys[k]`, is skipped when `gate` is not None and `random() >= gate`. Otherwise it draws
        `integers(0, r)` for each r in `ranges`, read as one mixed-radix pick c (the first draw most significant);
        with `(counts, tails) = options[c]` it then draws n = `counts[key]` doubles and selects those below
        `chance`. When it selects all n > 0 of them and `tails` is not None, it ends with `integers(0, tails[key])`.
        Returns (places, picks, counts, selected, drawn): k, c and n of each sample that picked, in order; their
        selections, flat and in order; {k: the last integer} of each sample that drew one from a range above 1.

        One Python step per sample reads its gate and picks and steps over its doubles by arithmetic: a double is
        a word, which leaves the buffered half-word alone. One NumPy pass then reads the doubles of all. The last
        integer depends on the doubles before it, so the pass ends at the first sample that draws one; that
        integer is drawn by the scalar call and the walk goes on from the next sample.
        """
        # random() < p is a word's top 53 bits < p * 2**53, exactly: random() scales them by 2**-53
        gate = None if gate is None else gate / DOUBLE_UNIT
        below = chance / DOUBLE_UNIT
        ranges = [r for r in ranges if r > 1]  # integers(0, 1) draws nothing
        need = 1 + len(ranges)  # the words a gate and its picks read when none rejects
        passes, drawn = [], {}
        start = 0
        while start < len(keys):
            self._words, self._pos = self._words[self._pos :], 0
            self._fill(need * (len(keys) - start))
            words, pos, half = self._words, 0, self._half
            walked = []  # (k, c, n, first double, buffered half, range of the last integer)
            for k in range(start, len(keys)):
                if pos + need > len(words):
                    self._fill(pos + need)
                    words = self._words
                if gate is not None:
                    pos += 1
                    if words.item(pos - 1) >> 11 >= gate:
                        continue
                c = 0
                for r in ranges:
                    if r > 2:  # a range above 2 can reject: the scalar call draws it
                        self._pos, self._half = pos, half
                        c = c * r + self.integers(0, r)
                        self._fill(self._pos + need)
                        words, pos, half = self._words, self._pos, self._half
                    elif half is None:  # integers(0, 2) is a half-word's top bit
                        raw = words.item(pos)
                        pos += 1
                        c, half = c << 1 | (raw >> 31) & 1, raw >> 32
                    else:
                        c, half = c << 1 | half >> 31, None
                counts, tails = options[c]
                key = keys[k]
                n = counts[key]
                walked.append((k, c, n, pos, half, 0 if tails is None else tails[key]))
                pos += n
            start, last = len(keys), None
            if walked:
                self._fill(pos)
                columns = list(zip(*walked))
                place, pick, n, first, tail = (np.array(columns[i], dtype=np.intp) for i in (0, 1, 2, 3, 5))
                ends = n.cumsum()
                chosen = (self._words[np.repeat(first - ends + n, n) + np.arange(ends[-1])] >> 11) < below
                if tail.max() > 1:
                    hits = np.concatenate(([0], chosen.cumsum()))
                    (full,) = np.nonzero((hits[ends] - hits[ends - n] == n) & (n > 0) & (tail > 1))
                    if len(full):  # end the pass after the first sample that draws its last integer
                        j = int(full[0])
                        last, _, _, pos, half, tail = walked[j]
                        start, pos = last + 1, pos + int(n[j])
                        place, pick, n, chosen = place[: j + 1], pick[: j + 1], n[: j + 1], chosen[: ends[j]]
                passes.append((place, pick, n, chosen))
            self._pos, self._half = pos, half
            if last is not None:
                drawn[last] = self.integers(0, tail)
        if len(passes) == 1:
            return (*passes[0], drawn)
        if not passes:
            return (np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0, dtype=bool), drawn)
        return (*(np.concatenate(column) for column in zip(*passes)), drawn)
