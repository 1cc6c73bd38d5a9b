import numpy as np

from hylosolve.rng import SplitMix64, fnv1a64, symmetric_from_bits, uniform_from_bits

MASK = (1 << 64) - 1


def reference_splitmix(seed, count):
    """Independent transcription of the published splitmix64 recurrence."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_matches_reference_recurrence():
    for seed in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(16)]
        assert got == reference_splitmix(seed, 16)


def test_block_and_scalar_agree():
    a = SplitMix64(42)
    b = SplitMix64(42)
    scalars = [a.next_u64() for _ in range(100)]
    block = b.next_block_u64(100)
    assert scalars == [int(v) for v in block]
    # interleaving keeps the stream position consistent
    c = SplitMix64(42)
    mixed = [c.next_u64() for _ in range(3)] + [int(v) for v in c.next_block_u64(4)]
    assert mixed == scalars[:7]


def test_uniform_range_and_determinism():
    rng = SplitMix64(7)
    u = rng.uniform(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(SplitMix64(7).uniform(10000), u)


def test_stream_splitting():
    root = SplitMix64(99)
    a = root.split("stage-a").next_block_u64(8)
    b = root.split("stage-b").next_block_u64(8)
    a2 = SplitMix64(99).split("stage-a").next_block_u64(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, a2)
    # splitting does not advance the parent stream
    assert SplitMix64(99).next_u64() == root.next_u64()


def test_fnv_hash_stability():
    # spot value verified against the FNV-1a definition by direct expansion
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == ((0xCBF29CE484222325 ^ ord("a")) * 0x100000001B3) & MASK


def test_in_place_block_matches_the_recurrence():
    for n in (0, 1, 7, 65664):
        rng = SplitMix64(0xC0FFEE)
        rng.next_u64()  # a block that starts mid-stream
        block = rng.next_block_u64(n)
        assert block.dtype == np.uint64 and block.shape == (n,)
        assert [int(v) for v in block] == reference_splitmix(0xC0FFEE, n + 1)[1:]
        assert rng.next_u64() == reference_splitmix(0xC0FFEE, n + 2)[-1]


def test_bit_converters_match_the_plain_formulas():
    words = [0, 2**11 - 1, 2**11, 2**63, 2**64 - 1]
    bits = np.array(words, dtype=np.uint64)
    uniform = [(x >> 11) * 2.0**-53 for x in words]
    symmetric = [2.0 * ((x >> 11) * 2.0**-53) - 1.0 for x in words]
    assert uniform_from_bits(bits).tolist() == uniform
    assert symmetric_from_bits(bits).tolist() == symmetric
    assert symmetric == [-1.0, -1.0, -1.0 + 2.0**-52, 0.0, 1.0 - 2.0**-52]
    # the stream's own converters, on a strided view of a block
    block = SplitMix64(5).next_block_u64(64).reshape(8, 8)
    column = [int(v) for v in block[:, 3]]
    assert uniform_from_bits(block[:, 3]).tolist() == [(x >> 11) * 2.0**-53 for x in column]
