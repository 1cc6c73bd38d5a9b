"""Deterministic random streams based on the splitmix64 generator.

Every random draw in the package flows from a single 64-bit seed through
named streams (stream id = FNV-1a hash of the stage name mixed into the
seed), so identical configs reproduce identical outputs.  The generator
itself is pure 64-bit integer arithmetic; derived uniforms use only
shifts and multiplies, so the raw stream is bit-identical across
platforms.  A block of outputs is mixed in place in its own array (with
one cache-sized scratch array) and its uniforms are scaled in place by
powers of two, so every block is bitwise the scalar recurrence.  Values that pass through
an FFT afterwards inherit the FFT implementation's roundoff and are only
reproducible per-platform.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# words of a block mixed per pass (128 KB): a longer pass over a 1 MB block
# ran 2-3x slower on a 2-CPU Xeon, out of cache
_MIX_WORDS = 2**14


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of a UTF-8 string."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream: state advances by the golden gamma per draw.

    The k-th output is mix(seed + (k+1)*gamma), which lets blocks of
    outputs be produced vectorized without changing the stream: a consumer
    that takes a fixed number of draws per item can take one block for many
    items and split it, and gets the values it would get item by item.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        return _mix((self._seed + self._count * _GAMMA) & _MASK64)

    def next_block_u64(self, n: int) -> np.ndarray:
        """n further outputs of the same stream, as uint64, mixed in place
        one slice of _MIX_WORDS at a time (one scratch slice holds the
        shifted words, and both stay in cache)."""
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        scratch = np.empty(min(n, _MIX_WORDS), dtype=np.uint64)
        for start in range(0, n, _MIX_WORDS):
            part = z[start:start + _MIX_WORDS]
            shifted = scratch[:len(part)]
            np.multiply(part, np.uint64(_GAMMA), out=part)
            np.add(part, np.uint64(self._seed), out=part)
            for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
                np.right_shift(part, np.uint64(shift), out=shifted)
                np.bitwise_xor(part, shifted, out=part)
                np.multiply(part, np.uint64(factor), out=part)
            np.right_shift(part, np.uint64(31), out=shifted)
            np.bitwise_xor(part, shifted, out=part)
        return z

    def uniform(self, n: int | None = None):
        """Uniforms in [0, 1) with 53-bit mantissas (scalar if n is None)."""
        if n is None:
            return (self.next_u64() >> 11) * 2.0**-53
        return uniform_from_bits(self.next_block_u64(n))

    def symmetric(self, n: int) -> np.ndarray:
        """Uniforms in [-1, 1)."""
        return symmetric_from_bits(self.next_block_u64(n))

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers in [0, bound) by 64-bit modular reduction."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.next_block_u64(n) % np.uint64(bound)).astype(np.int64)

    def split(self, stream: str) -> "SplitMix64":
        """Independent child stream identified by name."""
        return SplitMix64(_mix((self._seed ^ fnv1a64(stream)) & _MASK64))


def uniform_from_bits(bits: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from raw uint64 outputs: x 2^-53 for the top 53
    bits x, converted once and scaled in place."""
    out = (bits >> np.uint64(11)).astype(np.float64)
    out *= 2.0**-53
    return out


def symmetric_from_bits(bits: np.ndarray) -> np.ndarray:
    """Uniforms in [-1, 1) from raw uint64 outputs: x 2^-52 - 1 for the top
    53 bits x, which is exactly 2 (x 2^-53) - 1 (powers of two scale
    exactly)."""
    out = (bits >> np.uint64(11)).astype(np.float64)
    out *= 2.0**-52
    out -= 1.0
    return out
