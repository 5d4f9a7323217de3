"""Seeded random trace pairs for tests that pin results on fixed instances.

Pair `index` under `seed` comes from its own Philox stream (seed, 4, index),
the two traces drawn as one (2, period_len) Bernoulli(p) array. The witness
digest in test_golden.py, criterion 5 and test_offline.py's random oracle
check were recorded on these pairs, so the stream must not change.
"""

from dutycycle import EnergyTrace
from dutycycle.traces import _stream, bernoulli


def random_instance(seed, index, period_len, p):
    """The (u, v) EnergyTrace pair of stream (seed, 4, index)."""
    b_u, b_v = bernoulli(_stream(seed, 4, index), (2, period_len), p)
    return EnergyTrace("u", b_u), EnergyTrace("v", b_v)
