"""Seed derivation and random streams.

Every stochastic component draws from a counter-based Philox generator
keyed by a 64-bit seed.  Child seeds are derived with a SplitMix64-style
mixing function so that the stream of replicate ``i`` depends only on
``(master_seed, i)`` and never on execution order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """One SplitMix64 finalizer round; a bijection on 64-bit integers."""
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def check_seed(seed) -> None:
    """ValueError unless ``seed`` is an ``int`` in [0, 2**64): a wider one
    would be masked to another seed's streams, and a bool or a float is not
    a seed."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _MASK64:
        raise ValueError("rng_seed must be a non-negative 64-bit integer")


def mix64(master_seed: int, index: int) -> int:
    """Derive the 64-bit seed of stream ``index`` under ``master_seed``.

    Injective in ``index`` for a fixed master seed: multiplication by an
    odd constant and SplitMix64 are bijections mod 2**64, and xor with a
    fixed key preserves distinctness.
    """
    if index < 0:
        raise ValueError(f"stream index must be non-negative, got {index}")
    key = splitmix64(master_seed & _MASK64)
    return splitmix64(key ^ (((index + 1) * _GOLDEN) & _MASK64))


def make_generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed."""
    import numpy as np  # here, so that importing this module for mix64 loads no numpy

    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def rewind(generator: np.random.Generator, seed: int) -> None:
    """Return ``generator`` to the state of a fresh ``make_generator(seed)``:
    Philox counter 0 and no buffered output, set through the public state
    setter, which costs a fraction of building a new generator."""
    import numpy as np

    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([seed & _MASK64, 0], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
