"""Token vocabulary with reserved control tokens, built from training data only."""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

PAD_TOKEN = "[PAD]"
MASK_TOKEN = "[MASK]"
UNK_TOKEN = "[UNK]"
SEP_TOKEN = "[SEP]"
SPECIAL_TOKENS = (PAD_TOKEN, MASK_TOKEN, UNK_TOKEN, SEP_TOKEN)


class VocabularyError(ValueError):
    """Vocabulary construction or serialization problem."""


@dataclass(frozen=True)
class Vocabulary:
    """Contiguous token -> index map; the four control tokens occupy 0..3."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.tokens[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise VocabularyError(f"vocabulary must start with the control tokens {SPECIAL_TOKENS}")
        if len(set(self.tokens)) != len(self.tokens):
            raise VocabularyError("vocabulary contains duplicate tokens")

    @classmethod
    def build(cls, token_sequences, min_freq=2):
        """Count tokens across sequences and keep those seen at least min_freq times.

        Kept tokens are ordered by descending frequency, ties alphabetically,
        after the control tokens, so construction is deterministic.
        """
        if min_freq < 1:
            raise VocabularyError("min_freq must be at least 1")
        counts = Counter()
        for seq in token_sequences:
            counts.update(seq)
        for s in SPECIAL_TOKENS:
            counts.pop(s, None)
        kept = sorted((t for t, c in counts.items() if c >= min_freq), key=lambda t: (-counts[t], t))
        return cls(SPECIAL_TOKENS + tuple(kept))

    @cached_property
    def _index(self):
        return {t: i for i, t in enumerate(self.tokens)}

    @property
    def size(self):
        return len(self.tokens)

    @property
    def pad_id(self):
        return 0

    @property
    def mask_id(self):
        return 1

    @property
    def unk_id(self):
        return 2

    def __contains__(self, token):
        return token in self._index

    def encode_tokens(self, tokens, max_len=None, count=None):
        """Ids of a token sequence cut to max_len, or of any iterable of `count` tokens; unknowns map to [UNK]."""
        if max_len is not None:
            tokens = tokens[:max_len]
        if count is None:
            count = len(tokens)
        return np.fromiter(map(self._index.get, tokens, repeat(self.unk_id)), dtype=np.intp, count=count)

    def encode_sequences(self, sequences):
        """The ids of a list of token sequences end to end, as one flat array, and the bounds of each one's ids."""
        bounds = np.concatenate(([0], np.cumsum(list(map(len, sequences)), dtype=np.intp)))
        return self.encode_tokens(chain.from_iterable(sequences), count=int(bounds[-1])), bounds

    def encode_entities(self, entities, max_len=None):
        """The words of the entity strings joined with [SEP] and encoded as tokens; a lone [PAD] when empty."""
        return self.encode_tokens(entity_words(entities), max_len)


def entity_words(entities):
    """The words of the entity strings joined with [SEP]; a lone [PAD] when there are none."""
    words = []
    for j, e in enumerate(entities):
        if j:
            words.append(SEP_TOKEN)
        words.extend(e.split())
    return words or [PAD_TOKEN]


def build_vocabulary(corpus, min_freq=2):
    """Vocabulary from a training corpus (piece tokens only)."""
    return Vocabulary.build((p.tokens for p in corpus), min_freq=min_freq)
