"""Counter-based random streams.

Every draw is a pure function of (seed, stream, counter), so a run can be
replayed from its config alone and independent streams never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class StreamState:
    """Position in a counter-based random stream."""

    seed: int
    stream: int = 0
    counter: int = 0

    def __post_init__(self):
        if not self.counter >= 0:
            raise ValueError("counter must be non-negative")


class CounterStream:
    """One Philox generator keyed by (seed, stream), moved to any counter.

    at(c) returns the same Generator every time, repositioned so its draws
    are bit-identical to a Philox freshly built at counter c. Repositioning
    resets the whole bit-generator state (counter, output buffer, cached
    uint32), so what was drawn at the previous counter never leaks into
    the next: a draw can span several counter blocks (a 32-index bigram batch
    spans about 4), so advancing one long-lived generator would overlap
    consecutive counters' draws. at() costs ~2 us, a new Philox ~12 us: its
    constructor draws OS entropy for a seed sequence the key then overrides.
    """

    def __init__(self, seed: int, stream: int = 0):
        # A uint64 array, not a list: numpy turns a list holding an int of
        # 2**63 or more into float64, which rounds the key.
        key = np.array([seed & _U64, stream & _U64], dtype=np.uint64)
        self._bits = np.random.Philox(counter=0, key=key)
        self._rng = np.random.Generator(self._bits)
        # The state a fresh Philox(counter=c, key=...) starts from; at() only
        # rewrites counter[0] before assigning it.
        self._state = self._bits.state
        self._counter = self._state["state"]["counter"]

    def at(self, counter: int) -> np.random.Generator:
        if counter < 0:
            raise ValueError("counter must be non-negative")
        self._counter[0] = counter
        self._bits.state = self._state
        return self._rng

    def integers_at(self, first: int, count: int, high: int, size: int) -> np.ndarray:
        """A (count, size) int64 array whose row r is
        at(first + r).integers(0, high, size=size), from one random_raw pass.

        A Philox at counter c emits the four-word blocks of counters c + 1,
        c + 2, ..., and integers reads each word's low, then high, uint32.
        So row r is the size uint32s that start at block r of the pass, and
        for 2 <= high < 2**32 each index is Lemire's (u32 * high) >> 32. A
        row where Lemire would redraw (a product whose low half is below
        (2**32 - high) % high) reads past its own uint32s, so it is drawn
        again through at(); so is every row of a high that numpy bounds by
        another algorithm. A 3 000-step bigram run's indices take ~1.5 ms this
        way, against 5-11 us a step through integers, which also pays numpy's
        Python-level np.prod(size) on every call.
        """
        if not 2 <= high < 2**32:
            return np.array([self.at(first + r).integers(0, high, size=size)
                             for r in range(count)], dtype=np.int64).reshape(count, size)
        row_blocks = -(-size // 8)
        words = self.at(first).bit_generator.random_raw(4 * (count + row_blocks - 1))
        u32 = np.stack((words & 0xFFFFFFFF, words >> 32), axis=1).ravel()
        draws = u32[np.add.outer(np.arange(0, 8 * count, 8), np.arange(size))]
        product = draws * np.uint64(high)
        out = (product >> 32).astype(np.int64)
        threshold = (2**32 - high) % high
        if threshold:
            redraw = ((product & 0xFFFFFFFF) < threshold).any(axis=1)
            for r in np.flatnonzero(redraw).tolist():
                out[r] = self.at(first + r).integers(0, high, size=size)
        return out


def generator(state: StreamState) -> np.random.Generator:
    """Philox generator keyed by (seed, stream) at the given counter."""
    return CounterStream(state.seed, state.stream).at(state.counter)


def advance(state: StreamState, n: int = 1) -> StreamState:
    """Move the stream forward by n draws."""
    if n < 1:
        raise ValueError("advance requires n >= 1")
    return replace(state, counter=state.counter + n)
