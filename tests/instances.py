"""Seeded random trace pairs for tests that pin results on fixed instances,
and a hypothesis strategy for bool (n, T) blocks of rows.

Pair `index` under `seed` comes from its own Philox stream (seed, 4, index),
the two traces drawn as one (2, period_len) Bernoulli(p) array. The witness
digest in test_golden.py, criterion 5 and test_offline.py's random oracle
check were recorded on these pairs, so the stream must not change.
"""

import numpy as np
from hypothesis import strategies as st

from dutycycle import EnergyTrace
from dutycycle.traces import _stream, bernoulli


def random_instance(seed, index, period_len, p):
    """The (u, v) EnergyTrace pair of stream (seed, 4, index)."""
    b_u, b_v = bernoulli(_stream(seed, 4, index), (2, period_len), p)
    return EnergyTrace("u", b_u), EnergyTrace("v", b_v)


@st.composite
def bool_blocks(draw, count):
    """count bool (n, T) blocks of one shape, n in 0..20 and T in 1..40;
    rows may be all zero or all one."""
    n, period = draw(st.integers(0, 20)), draw(st.integers(1, 40))
    row = st.one_of(st.just(0), st.just(2**period - 1), st.integers(0, 2**period - 1))
    slots = np.arange(period)
    return [
        np.array([(r >> slots) & 1 for r in draw(st.lists(row, min_size=n, max_size=n))], bool)
        .reshape(n, period)
        for _ in range(count)
    ]
