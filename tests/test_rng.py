import numpy as np
import pytest

from attractorlab.rng import make_generator, mix64, rewind


@pytest.mark.parametrize("seed", [0, mix64(7, 3), 2 ** 64 - 1])
@pytest.mark.parametrize("drawn", [0, 1, 3, 5, 8])
def test_a_rewound_generator_draws_as_a_fresh_one(seed, drawn):
    # Philox hands out 4 words per counter step, so these counts leave its
    # buffer empty, part used or full; a 32-bit draw leaves half a word held
    g = make_generator(seed)
    g.random(drawn)
    g.integers(0, 2 ** 32, size=drawn, dtype=np.uint32)
    rewind(g, seed)
    fresh = make_generator(seed)
    assert g.random(16).tobytes() == fresh.random(16).tobytes()
    assert g.integers(0, 2 ** 32, size=3, dtype=np.uint32).tobytes() == \
        fresh.integers(0, 2 ** 32, size=3, dtype=np.uint32).tobytes()
