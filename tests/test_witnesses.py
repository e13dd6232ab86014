import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroflow import DensityMatrix, QuantumChannel, pinsker_gap
from entroflow.sampling import random_full_rank_state, random_mixed_unitary_channel
from entroflow.witnesses import WitnessError


def test_pinsker_gap_rejects_trace_nonincreasing_operation():
    # N = sqrt(1/2) id on I/2: D = log 2 exceeds ||rho - N^dag N(rho)||_1 ||log rho||_inf
    # = (1/2) log 2, so the reverse bound fails and the input must be refused up front.
    operation = QuantumChannel([np.sqrt(0.5) * np.eye(2)])
    assert operation.trace_nonincreasing and not operation.trace_preserving
    with pytest.raises(WitnessError, match="trace-preserving"):
        pinsker_gap(operation, DensityMatrix.maximally_mixed(2))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
def test_pinsker_pair_on_random_unital_channels(seed, d):
    rng = np.random.default_rng(seed)
    channel = random_mixed_unitary_channel(rng, d, 3)
    gap = pinsker_gap(channel, random_full_rank_state(rng, d))
    trace_norm = np.sqrt(2.0 * gap.half_trace_norm_sq)
    assert gap.half_trace_norm_sq - 1e-10 <= gap.relative_entropy
    assert gap.reverse_bound <= trace_norm + 1e-10
