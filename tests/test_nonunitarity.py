import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroflow import (
    QuantumChannel,
    depolarizing,
    diamond_distance,
    gadc,
    oslash_depolarizing_analytic,
    oslash_norm,
    proposition7_check,
    unitary_channel,
)
from entroflow.linalg import dagger, hermitian_part
from entroflow.nonunitarity import BRACKET_TOL, NonUnitarityError, _difference_superoperator
from entroflow.sampling import random_cptp_channel, random_mixed_unitary_channel, random_unitary

from conftest import kraus_choi

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
# Few starts keep the open-bracket d = 3 cases cheap; the bracket holds for any number.
STARTS = 2


def _choi_of_difference(channel: QuantumChannel) -> np.ndarray:
    """Choi matrix of id - N^dag N, built from Kraus operators alone."""
    products = [dagger(a) @ b for a in channel.kraus for b in channel.kraus]
    return kraus_choi([np.eye(channel.dim_in)]) - kraus_choi(products)


def _kron_difference(channel: QuantumChannel) -> np.ndarray:
    """I - sum kron(K, conj K) over the d^4 Kraus products {K_a^dag K_b} of N^dag o N."""
    composed = [dagger(a) @ b for a in channel.kraus for b in channel.kraus]
    return np.eye(channel.dim_in**2) - sum(np.kron(k, k.conj()) for k in composed)


DIFFERENCE_CHANNELS = {
    **{f"random cptp d = {d}": (lambda rng, d=d: random_cptp_channel(rng, d)) for d in (2, 3, 4)},
    **{f"mixed unitary d = {d}": (lambda rng, d=d: random_mixed_unitary_channel(rng, d, 3))
       for d in (2, 3, 4)},
    **{f"depolarizing d = {d}": (lambda rng, d=d: depolarizing(d, 0.7)) for d in (2, 3, 4)},
    **{f"gadc t = {t}": (lambda rng, t=t: gadc(t, 5.0)) for t in (0.3, 0.8, 2.0)},
}


@pytest.mark.parametrize("make", DIFFERENCE_CHANNELS.values(), ids=DIFFERENCE_CHANNELS.keys())
def test_difference_map_is_identity_minus_s_dag_s(rng, make):
    channel = make(rng)
    np.testing.assert_allclose(_difference_superoperator(channel), _kron_difference(channel),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("q", [0.5, 1.0])
def test_depolarizing_closes_at_the_largest_validated_dimension(q):
    # d = 16 is the largest dimension fig2_depolarizing accepts; the bracket
    # closes at the first evaluation from the maximally entangled start.
    result = oslash_norm(depolarizing(16, q), starts=1)
    assert result.converged
    assert abs(result.value - oslash_depolarizing_analytic(16, q)) <= BRACKET_TOL


def _maximally_entangled_value(choi: np.ndarray, d: int) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(choi)))) / d


def _dual_bound(choi: np.ndarray, d: int) -> float:
    lam, vecs = np.linalg.eigh(choi)
    abs_j = (vecs * np.abs(lam)) @ vecs.conj().T
    reduced = np.einsum("iaja->ij", abs_j.reshape(d, d, d, d))
    return float(np.linalg.eigvalsh(reduced)[-1])


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, d=st.sampled_from([2, 3]), n_unitaries=st.integers(2, 4))
def test_bracket_holds_on_random_unital_channels(seed, d, n_unitaries):
    channel = random_mixed_unitary_channel(np.random.default_rng(seed), d, n_unitaries)
    result = oslash_norm(channel, starts=STARTS, seed=seed)
    choi = _choi_of_difference(channel)
    assert result.upper == pytest.approx(_dual_bound(choi, d), abs=1e-10)
    assert result.value >= _maximally_entangled_value(choi, d) - 1e-12
    assert result.value <= result.upper + 1e-9
    assert result.gap == pytest.approx(result.upper - result.value)
    assert result.starts == len(result.per_start_values) <= STARTS


def _assert_maximizer_certifies(channel: QuantumChannel, result) -> None:
    """The maximizer is a unit vector psi on reference x input at which
    ||(id (x) (id - N^dag N))(|psi><psi|)||_1, built from Kraus operators
    alone, is the bracket's lower end."""
    psi = result.maximizer
    d = channel.dim_in
    assert psi.shape == (d * d,)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    rho = np.outer(psi, psi.conj())
    back_action = [np.kron(np.eye(d), dagger(b) @ a) for a in channel.kraus for b in channel.kraus]
    out = rho - sum(k @ rho @ dagger(k) for k in back_action)
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(hermitian_part(out)))))
    assert trace_norm == pytest.approx(result.value, abs=1e-12)


@pytest.mark.parametrize("d, q", [(2, 0.0), (2, 0.7), (2, 1.3), (3, 0.5), (3, 1.0)])
def test_maximizer_certifies_the_depolarizing_value(d, q):
    # fig2_depolarizing's default points: q_values at d = 2, extra_points at d = 3
    channel = depolarizing(d, q)
    _assert_maximizer_certifies(channel, oslash_norm(channel, seed=7))


@settings(max_examples=4, deadline=None)
@given(seed=SEEDS)
def test_maximizer_certifies_the_value_on_random_mixed_unitary_channels(seed):
    channel = random_mixed_unitary_channel(np.random.default_rng(seed), 3, 3)
    _assert_maximizer_certifies(channel, oslash_norm(channel, starts=STARTS, seed=seed))


@settings(max_examples=12, deadline=None)
@given(d=st.sampled_from([2, 3]), fraction=st.floats(0.0, 1.0))
def test_depolarizing_matches_closed_form_with_closed_bracket(d, fraction):
    q = fraction * d**2 / (d**2 - 1)
    result = oslash_norm(depolarizing(d, q))
    assert abs(result.value - oslash_depolarizing_analytic(d, q)) <= 1e-9
    assert result.gap <= 1e-6 and result.converged and not result.stalled
    assert result.starts == 1


def test_open_bracket_is_reported_as_stalled_not_converged(monkeypatch):
    # A random d = 3 mixed-unitary channel whose bracket stays open by about
    # 0.23: every start stops gaining before the step cap, so the result is
    # stalled, not converged.  Starts cut off at the cap leave both false.
    channel = random_mixed_unitary_channel(np.random.default_rng(20261018), 3, 3)
    result = oslash_norm(channel, starts=STARTS)
    assert result.gap > 0.1 and not result.converged and result.stalled
    monkeypatch.setattr("entroflow.nonunitarity._MAX_STEPS", 1)
    capped = oslash_norm(channel, starts=STARTS)
    assert capped.gap > 0.1 and not capped.converged and not capped.stalled


@settings(max_examples=6, deadline=None)
@given(seed=SEEDS, d=st.sampled_from([2, 3]))
def test_unitary_channel_gives_zero_with_closed_bracket(seed, d):
    channel = unitary_channel(random_unitary(np.random.default_rng(seed), d))
    result = oslash_norm(channel)
    assert abs(result.value) <= 1e-12
    assert result.gap <= 1e-6


@settings(max_examples=6, deadline=None)
@given(seed=SEEDS, d=st.sampled_from([2, 3]))
def test_distance_of_a_channel_to_itself_is_zero(seed, d):
    channel = random_mixed_unitary_channel(np.random.default_rng(seed), d, 3)
    assert diamond_distance(channel, channel) == 0.0


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, d=st.sampled_from([2, 3]), weight=st.floats(0.5, 1.0))
def test_proposition7_certifies_itself_on_mixed_unitary_channels(seed, d, weight):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, d)
    others = random_mixed_unitary_channel(rng, d, 2).kraus
    channel = QuantumChannel([np.sqrt(weight) * u] + [np.sqrt(1.0 - weight) * k for k in others])
    claim = proposition7_check(channel, u, starts=STARTS, seed=seed)
    assert claim.name == "proposition7" and not claim.masked
    assert claim.holds() and claim.slack >= -1e-9


def test_non_unital_channel_is_rejected():
    with pytest.raises(NonUnitarityError):
        oslash_norm(gadc(0.5, 1.0))


def test_proposition7_masks_a_non_unital_channel():
    claim = proposition7_check(gadc(0.5, 1.0), np.eye(2), starts=2)
    assert claim.masked and claim.needs == "a unital channel"
    assert np.isnan(claim.rhs) and not claim.holds()
