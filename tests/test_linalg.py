import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import logm

from entroflow import (
    DensityMatrix,
    LinalgError,
    QuantumChannel,
    is_infinite,
    matrix_log_on_support,
    relative_entropy,
    schatten_norm,
    entropy_rate,
    spectral_decompose,
    von_neumann_entropy,
)
from entroflow import linalg
from entroflow.dynamics import _entropy_rates
from entroflow.linalg import (INFINITE_DIVERGENCE, EigenSystem, _density_spectra, _eigh,
                              check_density_stack, dagger)
from entroflow.sampling import (
    haar_pure_state,
    random_cptp_channel,
    random_full_rank_state,
    random_mixed_state,
)

from conftest import support_projectors

LOG2 = np.log(2.0)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + dagger(g))


def bell_state():
    return DensityMatrix.pure([1, 0, 0, 1])


class TestSpectralDecompose:
    def test_identity(self):
        es = spectral_decompose(np.eye(2))
        np.testing.assert_allclose(es.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(es.eigenvectors @ dagger(es.eigenvectors), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        es = spectral_decompose(np.diag([0.75, 0.25]))
        np.testing.assert_allclose(es.eigenvalues, [0.75, 0.25])

    def test_random_residual(self, rng):
        for d in (2, 3, 5):
            h = random_hermitian(rng, d)
            es = spectral_decompose(h)
            for lam, v in zip(es.eigenvalues, es.eigenvectors.T):
                assert np.linalg.norm(h @ v - lam * v) <= 1e-12 * max(1.0, np.abs(es.eigenvalues).max())
            v = es.eigenvectors
            np.testing.assert_allclose((v * es.eigenvalues) @ dagger(v), h, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(LinalgError):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSupportProjector:
    # The support projector and rank, as read from EigenSystem.support_mask.
    def test_pure_state(self):
        es = spectral_decompose(DensityMatrix.pure([1, 0]))
        assert es.support_mask().sum() == 1
        np.testing.assert_allclose(support_projectors(es), np.diag([1.0, 0.0]), atol=1e-14)

    def test_full_rank(self):
        es = spectral_decompose(DensityMatrix.maximally_mixed(2))
        assert es.support_mask().sum() == 2
        np.testing.assert_allclose(support_projectors(es), np.eye(2), atol=1e-14)

    def test_rank_two_with_kernel(self):
        rho = DensityMatrix.diagonal([1 - np.exp(-1), np.exp(-1), 0.0])
        es = spectral_decompose(rho)
        pi = support_projectors(es)
        assert es.support_mask().sum() == 2
        np.testing.assert_allclose(pi, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        # Pi rho Pi = rho
        np.testing.assert_allclose(pi @ rho.entries @ pi, rho.entries, atol=1e-12)

    def test_idempotent(self, rng):
        pi = support_projectors(spectral_decompose(random_mixed_state(rng, 4)))
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-12)


class TestMatrixLogOnSupport:
    def test_maximally_mixed(self):
        log = matrix_log_on_support(DensityMatrix.maximally_mixed(2))
        np.testing.assert_allclose(log, -LOG2 * np.eye(2), atol=1e-14)

    def test_pure_state_vanishes(self):
        log = matrix_log_on_support(DensityMatrix.pure([0, 1]))
        np.testing.assert_allclose(log, np.zeros((2, 2)), atol=1e-14)

    def test_diagonal(self):
        log = matrix_log_on_support(DensityMatrix.diagonal([0.75, 0.25]))
        np.testing.assert_allclose(np.diagonal(log), [np.log(0.75), np.log(0.25)])


class TestVonNeumannEntropy:
    def test_pure(self):
        assert von_neumann_entropy(DensityMatrix.pure([1, 1j])) == pytest.approx(0.0, abs=1e-13)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(2)) == pytest.approx(LOG2)

    def test_damping_profile_value(self):
        # -(1-1/e) log(1-1/e) + 1/e, evaluated independently
        rho = DensityMatrix.diagonal([1 - np.exp(-1), np.exp(-1)])
        assert von_neumann_entropy(rho) == pytest.approx(0.6578174303942945, abs=1e-12)

    def test_bounds(self, rng):
        for d in (2, 3, 4):
            for _ in range(20):
                s = von_neumann_entropy(random_mixed_state(rng, d))
                assert -1e-12 <= s <= np.log(d) + 1e-12


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = random_mixed_state(rng, 3)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        d = relative_entropy(DensityMatrix.pure([1, 0]), DensityMatrix.maximally_mixed(2))
        assert d == pytest.approx(LOG2, abs=1e-12)

    def test_orthogonal_supports_are_infinite(self):
        d = relative_entropy(DensityMatrix.pure([1, 0]), DensityMatrix.pure([0, 1]))
        assert is_infinite(d)

    def test_sentinel_blocks_arithmetic(self):
        with pytest.raises(TypeError):
            INFINITE_DIVERGENCE + 1.0

    def test_positivity_on_states(self, rng):
        for _ in range(40):
            d = relative_entropy(random_mixed_state(rng, 3), random_mixed_state(rng, 3))
            assert is_infinite(d) or d >= -1e-10

    def test_faithfulness(self, rng):
        rho = random_mixed_state(rng, 2)
        sigma = random_mixed_state(rng, 2)
        dist = schatten_norm(rho.entries - sigma.entries, 1)
        if dist > 1e-6:
            assert relative_entropy(rho, sigma) > 0.0

    def test_data_processing(self, rng):
        for _ in range(15):
            n = random_cptp_channel(rng, 3)
            rho, sigma = random_mixed_state(rng, 3), random_mixed_state(rng, 3)
            before = relative_entropy(rho, sigma)
            after = relative_entropy(n.apply(rho), n.apply(sigma))
            assert float(after) <= float(before) + 1e-9

    def test_rank_deficient_double_sum(self, rng):
        # rank-deficient sigma with supp(rho) inside supp(sigma)
        v1, v2 = np.array([1, 0, 0]), np.array([0, 1, 0])
        sigma = 0.7 * np.outer(v1, v1) + 0.3 * np.outer(v2, v2)
        rho = 0.5 * np.outer(v1, v1) + 0.5 * np.outer(v2, v2)
        expected = 0.5 * np.log(0.5 / 0.7) + 0.5 * np.log(0.5 / 0.3)
        assert relative_entropy(DensityMatrix(rho.astype(complex)), sigma) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]))
def test_relative_entropy_matches_logm_on_full_rank_pairs(seed, d):
    """The overlap double sum against Tr{rho (log rho - log sigma)} from scipy's logm."""
    rng = np.random.default_rng(seed)
    rho, sigma = random_full_rank_state(rng, d), random_full_rank_state(rng, d)
    r, s = rho.entries, sigma.entries
    expected = float(np.real(np.trace(r @ (logm(r) - logm(s)))))
    assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-10)
    assert relative_entropy(r, s) == pytest.approx(expected, abs=1e-10)


class TestSchattenNorm:
    def test_trace_norm_identity(self):
        assert schatten_norm(np.eye(2), 1) == pytest.approx(2.0)

    def test_operator_norm(self):
        assert schatten_norm(np.diag([3.0, -4.0]), np.inf) == pytest.approx(4.0)

    def test_bell_vs_maximally_mixed(self):
        diff = bell_state().entries - np.eye(4) / 4
        assert schatten_norm(diff, 1) == pytest.approx(1.5, abs=1e-12)

    def test_rejects_p_below_one(self):
        with pytest.raises(LinalgError):
            schatten_norm(np.eye(2), 0.5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([(1.0, np.inf), (2.0, 2.0)]))
    def test_hoelder(self, seed, pq):
        p, q = pq
        gen = np.random.default_rng(seed)
        a = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        b = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        lhs = abs(np.trace(dagger(a) @ b))
        assert lhs <= schatten_norm(a, p) * schatten_norm(b, q) + 1e-10


class TestTraceFunctionDerivative:
    # d/ds Tr{f(A + s A_dot)} = Tr{f'(A) A_dot} for f(x) = x log x and a
    # traceless A_dot is -entropy_rate(A, A_dot).
    def test_traceless_direction_at_maximally_mixed(self):
        val = -entropy_rate(np.eye(2) / 2, np.diag([0.5, -0.5]))
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_value(self):
        val = -entropy_rate(np.diag([0.75, 0.25]), np.diag([1.0, -1.0]))
        assert val == pytest.approx(np.log(3.0), abs=1e-12)

    def test_zero_direction(self, rng):
        a = random_mixed_state(rng, 3).entries
        assert entropy_rate(a, np.zeros((3, 3))) == 0.0


class TestOperatorConcavity:
    def test_log_concavity_for_unital_adjoints(self, rng):
        # adjoint of a CPTP map is unital; log(N^dag(sigma)) >= N^dag(log sigma)
        for _ in range(10):
            n_dag = QuantumChannel([dagger(k) for k in random_cptp_channel(rng, 3).kraus])
            sigma = random_mixed_state(rng, 3).entries + 0.1 * np.eye(3)
            gap = matrix_log_on_support(n_dag.apply(sigma)) - n_dag.apply(
                matrix_log_on_support(sigma))
            assert np.linalg.eigvalsh(0.5 * (gap + dagger(gap)))[0] >= -1e-9


class TestDensityMatrixValidation:
    def test_rejects_negative(self):
        with pytest.raises(LinalgError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(LinalgError):
            DensityMatrix(np.diag([0.6, 0.6]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite(self, entry):
        with pytest.raises(LinalgError):
            DensityMatrix([[entry, 0.0], [0.0, 0.5]])

    def test_non_finite_stack_names_its_index(self):
        stack = np.array([np.eye(2) / 2, [[np.nan, 0.0], [0.0, 0.5]]])
        with pytest.raises(LinalgError, match=r"not Hermitian.*stack index \(1,\)"):
            check_density_stack(stack)
        with pytest.raises(LinalgError, match=r"not PSD.*stack index \(1,\)"):
            _density_spectra(stack)  # past the Hermiticity check: the PSD test


def diagonal_stack(rng, shape, d, dtype=complex, zeros=0):
    """Random density matrices (*shape, d, d), diagonal, with ``zeros`` zero
    populations each (at random levels)."""
    p = rng.random(shape + (d,))
    for k in np.ndindex(shape):
        p[k][rng.permutation(d)[:zeros]] = 0.0
    p /= p.sum(axis=-1, keepdims=True)
    a = np.zeros(shape + (d, d), dtype=dtype)
    np.einsum("...ii->...i", a)[...] = p
    return a


def eigh_spectra(a) -> EigenSystem:
    ascending, vectors = np.linalg.eigh(a)
    return EigenSystem(ascending[..., ::-1], vectors[..., ::-1])


def refuse_eigh(*args, **kwargs):
    raise AssertionError("eigh called on a diagonal stack")


class TestDiagonalStacks:
    """A diagonal stack is decomposed from its diagonals, with no eigh, into
    the spectra eigh gives it."""

    @pytest.mark.parametrize("case", ["random", "ties", "rank_deficient", "single", "real"])
    def test_equals_eigh(self, case, rng, monkeypatch):
        d = 5
        a = {"random": lambda: diagonal_stack(rng, (4, 3), d),
             "ties": lambda: np.broadcast_to(np.eye(d, dtype=complex) / d, (3, d, d)).copy(),
             "rank_deficient": lambda: diagonal_stack(rng, (6,), d, zeros=2),
             "single": lambda: diagonal_stack(rng, (), d),
             "real": lambda: diagonal_stack(rng, (4,), d, dtype=float, zeros=1)}[case]()
        operators = a.shape[:-2] + (d, d)
        b = rng.normal(size=operators) + 1j * rng.normal(size=operators)
        b = b + dagger(b)
        reference = eigh_spectra(a)
        monkeypatch.setattr(np.linalg, "eigh", refuse_eigh)
        es = _eigh(a)
        assert es.order is not None
        assert np.array_equal(es.eigenvalues, reference.eigenvalues)
        v = es.eigenvectors
        assert np.array_equal((v * es.eigenvalues[..., None, :]) @ dagger(v), a)
        assert np.array_equal(np.abs(v), np.abs(v) ** 2)  # permutation columns
        np.testing.assert_allclose(es.entropies(), reference.entropies(), rtol=0, atol=1e-15)
        np.testing.assert_allclose(es.support_traces(b), reference.support_traces(b),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(_entropy_rates(es, es.expectations(b)),
                                   _entropy_rates(reference, reference.expectations(b)),
                                   rtol=0, atol=1e-15)
        # Per eigenvector wherever the eigenvalue is simple: in a tie eigh
        # may order the basis vectors differently.
        lam = es.eigenvalues
        simple = np.ones(lam.shape, dtype=bool)
        tied = lam[..., 1:] == lam[..., :-1]
        simple[..., 1:] &= ~tied
        simple[..., :-1] &= ~tied
        np.testing.assert_allclose(np.where(simple, es.expectations(b), 0.0),
                                   np.where(simple, reference.expectations(b), 0.0),
                                   rtol=0, atol=1e-15)
        assert np.array_equal(es[..., :1].order, es.order[..., :1])  # indexing keeps the order

    def test_density_matrix_and_stack_validation_take_no_eigh(self, rng, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", refuse_eigh)
        a = diagonal_stack(rng, (7,), 4, zeros=1)
        _, spectrum = check_density_stack(a)
        assert spectrum.order.shape == (7, 4)
        rho = DensityMatrix(a[2])
        assert von_neumann_entropy(rho) == pytest.approx(float(spectrum[2].entropies()), abs=1e-15)
        assert rho.spectrum.order is not None and not rho.spectrum.order.flags.writeable

    def test_a_single_off_diagonal_entry_goes_to_eigh(self, rng):
        a = diagonal_stack(rng, (3,), 3)
        a[1, 0, 2] = a[1, 2, 0] = 0.01
        spectrum = _eigh(a)
        assert spectrum.order is None
        np.testing.assert_allclose(spectrum.eigenvalues, eigh_spectra(a).eigenvalues,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", ["negative", "nan", "off_trace"])
    @pytest.mark.parametrize("public", [False, True])
    def test_failures_read_as_on_the_eigh_path(self, bad, public, rng, monkeypatch):
        # Through _density_spectra, and through check_density_stack, which
        # checks Hermiticity first (a NaN fails there, on either path).
        validate = check_density_stack if public else _density_spectra
        a = diagonal_stack(rng, (2, 3), 4)
        level = {"negative": [1.2, -0.2, 0.0, 0.0], "nan": [np.nan, 0.5, 0.5, 0.0],
                 "off_trace": [0.6, 0.3, 0.2, 0.1]}[bad]
        np.einsum("...ii->...i", a)[1, 2] = level
        with monkeypatch.context() as m:
            if bad != "nan":  # a non-finite diagonal goes to eigh on purpose
                m.setattr(np.linalg, "eigh", refuse_eigh)
            with pytest.raises(LinalgError) as diagonal:
                validate(a)
        monkeypatch.setattr(linalg, "_is_diagonal", lambda a: False)
        with pytest.raises(LinalgError) as by_eigh:
            validate(a)
        assert str(diagonal.value) == str(by_eigh.value)
        assert str(diagonal.value).endswith("at stack index (1, 2)")
