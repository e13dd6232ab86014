import json

import numpy as np
import pytest

from entroflow import (
    ChannelError,
    DensityMatrix,
    LindbladGenerator,
    QuantumChannel,
    annihilation_operator,
    apply_superoperators,
    bosonic_generator,
    choi_tensor,
    dephasing_generator,
    depolarizing,
    gadc,
    is_sub_unital,
    is_unital,
    oslash_norm,
    partial_trace_channel,
    thermal_state,
    trace_defects,
    unitary_channel,
    von_neumann_entropy,
)
from entroflow import channels
from entroflow.channels import (
    ConstantCoefficient,
    CosineSquaredCoefficient,
    ExponentialCoefficient,
    JumpTerm,
    SIGMA_X,
    SIGMA_Z,
)
from entroflow.linalg import dagger, hermitian_part
from entroflow.sampling import (
    random_cptp_channel,
    random_mixed_state,
    random_mixed_unitary_channel,
    random_subunital_operation,
    random_unitary,
)
from entroflow.serialize import (
    SerializationError,
    generator_from_document,
    generator_to_document,
    matrix_from_document,
)

from conftest import is_cptp, kraus_choi


class TestApply:
    def test_identity(self, rng):
        rho = random_mixed_state(rng, 3)
        np.testing.assert_allclose(unitary_channel(np.eye(3)).apply(rho), rho.entries, atol=1e-14)

    def test_full_depolarizing(self, rng):
        d = depolarizing(2, 1.0)
        rho = random_mixed_state(rng, 2)
        np.testing.assert_allclose(d.apply(rho), np.eye(2) / 2, atol=1e-12)

    def test_gadc_on_maximally_mixed(self):
        t, omega = 0.5, 5.0
        w = np.cos(2.0 * omega * t) * (1.0 - np.exp(-t))  # W_t of the evolved I/2
        assert w == pytest.approx(0.11161237297868826, abs=1e-12)
        out = gadc(t, omega).apply(DensityMatrix.maximally_mixed(2))
        np.testing.assert_allclose(out, 0.5 * np.diag([1 + w, 1 - w]), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ChannelError):
            unitary_channel(np.eye(2)).apply(np.eye(3))


def _adjoint(channel: QuantumChannel) -> QuantumChannel:
    """The Hilbert-Schmidt adjoint, Kraus set {K_i^dag}."""
    return QuantumChannel([dagger(k) for k in channel.kraus])


def _composed(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """``outer`` after ``inner``, Kraus set {K_outer K_inner}."""
    return QuantumChannel([a @ b for a in outer.kraus for b in inner.kraus])


class TestAdjoint:
    def test_partial_trace_adjoint_tensors_identity(self, rng):
        tr_a = partial_trace_channel(dim_keep=2, dim_drop=3)
        y = random_mixed_state(rng, 2).entries
        np.testing.assert_allclose(_adjoint(tr_a).apply(y), np.kron(np.eye(3), y), atol=1e-12)

    def test_unitary_adjoint_inverts(self, rng):
        u = random_unitary(rng, 3)
        ch = unitary_channel(u)
        rho = random_mixed_state(rng, 3)
        np.testing.assert_allclose(_adjoint(ch).apply(ch.apply(rho)), rho.entries, atol=1e-12)

    def test_depolarizing_self_adjoint(self):
        for q in (0.3, 1.0, 4 / 3):
            d = depolarizing(2, q)
            np.testing.assert_allclose(d.superoperator(),
                                       _adjoint(d).superoperator(), atol=1e-12)

    def test_duality_on_builtins(self, rng):
        channels = [depolarizing(2, 0.7), gadc(0.8, 5.0), unitary_channel(np.eye(2)),
                    unitary_channel(random_unitary(rng, 2))]
        for ch in channels:
            adj = _adjoint(ch)
            for _ in range(25):
                x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                lhs = np.trace(dagger(y) @ ch.apply(x))
                rhs = np.trace(dagger(adj.apply(y)) @ x)
                assert abs(lhs - rhs) <= 1e-10

    def test_adjoint_of_tp_is_unital(self, rng):
        n = random_cptp_channel(rng, 3)
        np.testing.assert_allclose(_adjoint(n).apply(np.eye(3)), np.eye(3), atol=1e-10)

    def test_adjoint_apply_is_the_adjoint_channel(self, rng):
        # sum_i K_i^dag x K_i without the adjoint channel, also from Tr_A,
        # whose input and output dimensions differ.
        for ch in (random_cptp_channel(rng, 3), gadc(0.8, 5.0),
                   partial_trace_channel(dim_keep=2, dim_drop=3)):
            x = rng.normal(size=(ch.dim_out,) * 2) + 1j * rng.normal(size=(ch.dim_out,) * 2)
            np.testing.assert_allclose(ch.adjoint_apply(x), _adjoint(ch).apply(x),
                                       rtol=0, atol=1e-14)
        with pytest.raises(ChannelError):
            gadc(0.8, 5.0).adjoint_apply(np.eye(3))


class TestCompose:
    # Composing maps multiplies their superoperators: S_{A o B} = S_A S_B,
    # held against the channel of the Kraus products {a @ b}.
    def test_identity_neutral(self, rng):
        n = random_cptp_channel(rng, 2)
        identity = unitary_channel(np.eye(2))
        product = identity.superoperator() @ n.superoperator()
        np.testing.assert_allclose(_composed(identity, n).superoperator(), product,
                                   atol=1e-13)
        np.testing.assert_allclose(product, n.superoperator(), atol=1e-13)

    def test_unitary_reversibility(self, rng):
        u = unitary_channel(random_unitary(rng, 3))
        product = _adjoint(u).superoperator() @ u.superoperator()
        np.testing.assert_allclose(_composed(_adjoint(u), u).superoperator(), product,
                                   atol=1e-10)
        np.testing.assert_allclose(product, np.eye(9), atol=1e-10)

    def test_depolarizing_composition_law(self):
        q = 0.6
        once = depolarizing(2, q)
        product = once.superoperator() @ once.superoperator()
        np.testing.assert_allclose(_composed(once, once).superoperator(), product,
                                   atol=1e-12)
        np.testing.assert_allclose(product, depolarizing(2, 2 * q - q * q).superoperator(),
                                   atol=1e-12)

    def test_sequential_apply_consistency(self, rng):
        n1 = random_cptp_channel(rng, 2)
        n2 = random_cptp_channel(rng, 2)
        rho = random_mixed_state(rng, 2)
        product = n2.superoperator() @ n1.superoperator()
        np.testing.assert_allclose(_composed(n2, n1).apply(rho),
                                   apply_superoperators(product, rho), atol=1e-12)
        np.testing.assert_allclose(apply_superoperators(product, rho), n2.apply(n1.apply(rho)),
                                   atol=1e-12)


class TestChoiAndCptp:
    def test_identity_choi(self):
        # (id x id) of the unnormalized maximally entangled operator
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[i * 2 + i, j * 2 + j] = 1.0
        choi = choi_tensor(unitary_channel(np.eye(2)).superoperator()).reshape(4, 4)
        np.testing.assert_allclose(choi, expected, atol=1e-14)
        assert is_cptp(unitary_channel(np.eye(2)))

    def test_transpose_not_cp(self):
        transpose = np.eye(4)[[0, 2, 1, 3]]  # X -> X^T
        assert channels._choi_minima(transpose) == pytest.approx(-1.0, abs=1e-12)
        assert channels._preserves_trace(transpose)
        assert not is_cptp(transpose)

    def test_gadc_cptp(self):
        assert is_cptp(gadc(0.5, 5.0))

    def test_choi_psd_for_builtins(self, rng):
        for ch in (depolarizing(3, 0.9), gadc(1.3, 2.0), random_cptp_channel(rng, 3)):
            n = ch.dim_in * ch.dim_out
            assert np.linalg.eigvalsh(choi_tensor(ch.superoperator()).reshape(n, n))[0] >= -1e-10

    def test_stacked_choi_minima_equal_per_map_eigvalsh(self, rng):
        # One stacked eigvalsh gives each map's Choi minimum bit for bit as an
        # eigvalsh of that map alone.  The last map, X -> X^T on a qutrit, is not CP.
        maps = np.stack([random_cptp_channel(rng, 3).superoperator() for _ in range(4)]
                        + [np.eye(9, dtype=complex)[[0, 3, 6, 1, 4, 7, 2, 5, 8]]])
        per_map = [np.linalg.eigvalsh(hermitian_part(choi_tensor(m).reshape(9, 9)))[0]
                   for m in maps]
        minima = channels._choi_minima(maps)
        assert minima.tobytes() == np.array(per_map).tobytes()
        assert minima[-1] == pytest.approx(-1.0, abs=1e-12)

    def test_superoperator_choi_agree(self, rng):
        ch = random_cptp_channel(rng, 3)
        np.testing.assert_allclose(choi_tensor(ch.superoperator()).reshape(9, 9),
                                   kraus_choi(ch.kraus), atol=1e-12)

    def test_kraus_superoperator_consistency(self, rng):
        ch = random_cptp_channel(rng, 3)
        rho = random_mixed_state(rng, 3)
        np.testing.assert_allclose(apply_superoperators(ch.superoperator(), rho), ch.apply(rho),
                                   atol=1e-10)


class TestUnitality:
    def test_depolarizing_unital(self):
        assert is_unital(depolarizing(3, 0.8))

    def test_gadc_generic_is_neither(self):
        # away from p_t = 1/2 and eta_t = 1 the image of I tilts both ways
        assert not is_sub_unital(gadc(0.8, 5.0))

    def test_gadc_identity_at_t_zero(self):
        assert is_unital(gadc(0.0, 5.0))

    def test_unitary_unital(self, rng):
        assert is_unital(unitary_channel(random_unitary(rng, 2)))

    def test_strict_subunital(self):
        half = QuantumChannel([np.sqrt(0.5) * np.eye(2)])
        assert is_sub_unital(half) and not is_unital(half)


class TestDepolarizing:
    def test_q_zero_is_identity(self, rng):
        rho = random_mixed_state(rng, 3)
        np.testing.assert_allclose(depolarizing(3, 0.0).apply(rho), rho.entries, atol=1e-12)

    def test_boundary_q_still_cptp(self):
        assert is_cptp(depolarizing(2, 4 / 3))

    def test_out_of_range(self):
        with pytest.raises(ChannelError):
            depolarizing(2, 1.5)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 16])
    def test_clock_and_shift_stack_is_the_matrix_powers(self, d):
        # Entry a d + b of the stack is X^a Z^b, X the cyclic shift and Z the clock.
        shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
        powers = [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                  for a in range(d) for b in range(d)]
        np.testing.assert_allclose(channels._heisenberg_weyl(d), powers, rtol=0, atol=1e-13)


# Channels whose Kraus sums are held against per-Kraus loops: TP, mixed-unitary,
# trace-non-increasing, builtin, and Tr_A, whose input and output dimensions differ.
STACK_CHANNELS = {
    **{f"random cptp d = {d}": (lambda rng, d=d: random_cptp_channel(rng, d)) for d in (2, 3)},
    **{f"mixed unitary d = {d}": (lambda rng, d=d: random_mixed_unitary_channel(rng, d, 3))
       for d in (2, 3, 4)},
    **{f"sub-unital operation d = {d}": (lambda rng, d=d: random_subunital_operation(rng, d))
       for d in (2, 3)},
    "gadc": lambda rng: gadc(0.8, 5.0),
    "depolarizing d = 3": lambda rng: depolarizing(3, 0.7),
    "partial trace 3 x 2": lambda rng: partial_trace_channel(dim_keep=2, dim_drop=3),
}


class TestKrausStack:
    @pytest.mark.parametrize("make", STACK_CHANNELS.values(), ids=STACK_CHANNELS.keys())
    def test_sums_are_the_per_kraus_loops(self, rng, make):
        ch = make(rng)
        x = rng.normal(size=(ch.dim_in,) * 2) + 1j * rng.normal(size=(ch.dim_in,) * 2)
        y = rng.normal(size=(ch.dim_out,) * 2) + 1j * rng.normal(size=(ch.dim_out,) * 2)
        n = ch.dim_in * ch.dim_out
        loops = {
            "superoperator": (ch.superoperator(), sum(np.kron(k, k.conj()) for k in ch.kraus)),
            "choi": (choi_tensor(ch.superoperator()).reshape(n, n), kraus_choi(ch.kraus)),
            "apply": (ch.apply(x), sum(k @ x @ dagger(k) for k in ch.kraus)),
            "adjoint_apply": (ch.adjoint_apply(y), sum(dagger(k) @ y @ k for k in ch.kraus)),
        }
        for name, (stacked, loop) in loops.items():
            np.testing.assert_allclose(stacked, loop, rtol=0, atol=1e-14, err_msg=name)
        gram = sum(dagger(k) @ k for k in ch.kraus)
        completeness = np.max(np.abs(gram - np.eye(ch.dim_in)))
        assert trace_defects(ch.superoperator()) == pytest.approx(completeness, rel=0, abs=1e-14)
        assert ch.trace_preserving == (completeness <= channels.CPTP_ATOL)

    def test_kraus_entries_are_read_only(self):
        source = [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * SIGMA_X]
        ch = QuantumChannel(source)
        with pytest.raises(ValueError):
            ch.kraus[1][0, 1] = 2.0
        source[1][0, 1] = 2.0  # the channel holds a copy
        np.testing.assert_array_equal(ch.kraus[1], np.sqrt(0.5) * SIGMA_X)

    def test_superoperator_is_read_only(self):
        # A write to the cached map would change every later result read from it.
        ch = depolarizing(2, 0.5)
        before = oslash_norm(ch).value
        with pytest.raises(ValueError):
            ch.superoperator()[:] = 0.0
        assert oslash_norm(ch).value == before


class TestGadc:
    def test_identity_at_t_zero(self, rng):
        rho = random_mixed_state(rng, 2)
        np.testing.assert_allclose(gadc(0.0, 7.0).apply(rho), rho.entries, atol=1e-14)

    def test_kraus_completeness(self, rng):
        for _ in range(100):
            t = rng.uniform(0, 4)
            omega = rng.uniform(-8, 8)
            ch = gadc(t, omega)
            total = sum(dagger(k) @ k for k in ch.kraus)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12

    def test_rejects_negative_time(self):
        with pytest.raises(ChannelError):
            gadc(-0.1, 5.0)


class TestDephasingGenerator:
    def test_diagonal_states_invariant(self):
        gen = dephasing_generator(1.0)
        np.testing.assert_allclose(gen.apply(0.0, np.diag([0.3, 0.7])), np.zeros((2, 2)), atol=1e-14)

    def test_sigma_x_flips_sign(self):
        gen = dephasing_generator(1.0)
        np.testing.assert_allclose(gen.apply(0.0, SIGMA_X), -SIGMA_X, atol=1e-14)

    def test_unital(self):
        gen = dephasing_generator(2.0)
        np.testing.assert_allclose(gen.apply(0.3, np.eye(2)), np.zeros((2, 2)), atol=1e-14)


class TestBosonic:
    def test_annihilation_matrix_elements(self):
        a = annihilation_operator(5)
        for n in range(1, 5):
            assert a[n - 1, n] == pytest.approx(np.sqrt(n))

    def test_commutator_below_cutoff(self):
        cutoff = 10
        a = annihilation_operator(cutoff)
        comm = a @ dagger(a) - dagger(a) @ a
        np.testing.assert_allclose(comm[:cutoff - 1, :cutoff - 1],
                                   np.eye(cutoff - 1), atol=1e-12)

    def test_trace_annihilation_on_trusted_states(self, rng):
        gen = bosonic_generator(1.2, 0.2, 12)
        probs = np.zeros(12)
        probs[:6] = rng.dirichlet(np.ones(6))
        rho = DensityMatrix.diagonal(probs)
        assert abs(np.trace(gen.apply(0.0, rho.entries))) <= 1e-9

    def test_rate_conventions(self):
        # amplifier gamma_+ = N+1, gamma_- = N; lossy swaps them; additive ties them
        n = 0.5
        amp = bosonic_generator(n + 1, n, 8)
        assert amp.jumps[0].rate_at(0.0) == pytest.approx(n + 1)
        assert amp.jumps[1].rate_at(0.0) == pytest.approx(n)

    def test_rejects_negative_rates(self):
        with pytest.raises(ChannelError):
            bosonic_generator(-0.1, 1.0, 8)


class TestThermalState:
    def test_vacuum(self):
        rho = thermal_state(0.0, 6)
        np.testing.assert_allclose(np.diagonal(rho.entries), np.eye(6)[0], atol=1e-14)

    def test_mean_photon_number(self):
        rho = thermal_state(0.5, 40)
        number_op = np.diag(np.arange(40.0))
        mean = float(np.real(np.trace(number_op @ rho.entries)))
        assert mean == pytest.approx(0.5, abs=1e-6)

    def test_entropy_closed_form(self):
        n = 0.5
        expected = (n + 1) * np.log(n + 1) - n * np.log(n)
        assert von_neumann_entropy(thermal_state(n, 40)) == pytest.approx(expected, abs=1e-8)

    def test_insufficient_cutoff(self):
        with pytest.raises(ChannelError):
            thermal_state(5.0, 8)


class TestLindbladApply:
    def test_unital_generator_kills_maximally_mixed(self):
        gen = dephasing_generator(1.3)
        np.testing.assert_allclose(gen.apply(0.0, np.eye(2) / 2), np.zeros((2, 2)), atol=1e-14)

    def test_adjoint_duality(self, rng):
        gen = LindbladGenerator(
            3,
            hamiltonian=0.5 * (lambda g: g + dagger(g))(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))),
            jumps=[JumpTerm(0.7, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))],
        )
        for t in (0.0, 0.4):
            for _ in range(20):
                x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                lhs = np.trace(dagger(x) @ gen.apply(t, rho))
                rhs = np.trace(dagger(gen.adjoint_apply(t, x)) @ rho)
                assert abs(lhs - rhs) <= 1e-10

    def test_trace_annihilation(self, rng):
        gen = bosonic_generator(0.8, 0.3, 6)
        for t in (0.0, 1.0):
            rho = random_mixed_state(rng, 6)
            assert abs(np.trace(gen.apply(t, rho.entries))) <= 1e-10

    def test_superoperator_matches_structural_form(self, rng):
        gen = dephasing_generator(lambda t: 0.5 + np.cos(2 * t))
        rho = random_mixed_state(rng, 2).entries
        for t in (0.0, 0.9):
            np.testing.assert_allclose(apply_superoperators(gen.superoperator(t), rho),
                                       gen.apply(t, rho), atol=1e-12)


def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _engine_generators(rng):
    """One generator with a constant and a cosine-squared rate, one with a
    plain callable rate and no Hamiltonian."""
    h = _random_matrix(rng, 3)
    h = 0.5 * (h + dagger(h))
    a, b = _random_matrix(rng, 3), _random_matrix(rng, 3)
    constant = LindbladGenerator(3, hamiltonian=h, jumps=[
        JumpTerm(0.7, a), JumpTerm(CosineSquaredCoefficient(omega=1.3, scale=0.4), b)])
    timed = LindbladGenerator(3, jumps=[JumpTerm(lambda t: 0.2 + np.sin(t), a + b), JumpTerm(0.5, b)])
    return [constant, timed]


class TestLindbladEngine:
    """apply, adjoint_apply and superoperator(t) describe one map."""

    def test_apply_adjoint_and_superoperator_agree(self, rng):
        for gen in _engine_generators(rng):
            for t in (0.0, 0.35, 1.7):
                s = gen.superoperator(t)
                for _ in range(3):
                    x, y = _random_matrix(rng, 3), _random_matrix(rng, 3)
                    np.testing.assert_allclose(gen.apply(t, x).reshape(-1), s @ x.reshape(-1),
                                               atol=1e-12)
                    lhs = np.trace(dagger(y) @ gen.apply(t, x))
                    rhs = np.trace(dagger(gen.adjoint_apply(t, y)) @ x)
                    assert abs(lhs - rhs) <= 1e-10

    def test_stacked_apply_matches_single(self, rng):
        for gen in _engine_generators(rng):
            stack = np.stack([_random_matrix(rng, 3) for _ in range(4)])
            for t in (0.0, 0.9):
                for apply in (gen.apply, gen.adjoint_apply):
                    out = apply(t, stack)
                    assert out.shape == stack.shape
                    for x, y in zip(stack, out):
                        np.testing.assert_allclose(y, apply(t, x), atol=1e-13)

    def test_array_of_times_applies_one_time_per_row(self, rng):
        times = np.array([0.0, 0.4, 1.3])
        for gen in _engine_generators(rng):
            stack = np.stack([[_random_matrix(rng, 3) for _ in range(2)] for _ in times])
            for apply in (gen.apply, gen.adjoint_apply):
                out = apply(times, stack)
                assert out.shape == stack.shape
                for t, rows, images in zip(times, stack, out):
                    np.testing.assert_allclose(images, apply(t, rows), atol=1e-13)

    def test_constant_hamiltonian_checked_at_construction(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            LindbladGenerator(2, hamiltonian=np.array([[0, 1], [0, 0]]))

    def test_plain_number_rates_are_time_independent(self):
        assert LindbladGenerator(2, jumps=[JumpTerm(0.5, SIGMA_Z)]).is_time_independent()
        assert dephasing_generator(1.0).is_time_independent()
        assert not dephasing_generator(lambda t: 1.0 + t).is_time_independent()


def _sets(gen):
    labels = gen.invariant_sets()
    return sorted(np.flatnonzero(labels == label).tolist() for label in np.unique(labels))


def _phase_covariant(rng, cutoff, lowering=True, raising=True):
    """H = omega a^dag a with jumps a (time-dependent rate) and a^dag (constant rate)."""
    a = annihilation_operator(cutoff)
    jumps = [JumpTerm(CosineSquaredCoefficient(omega=1.3, scale=rng.uniform(0.2, 1.0)), a)] * lowering
    jumps += [JumpTerm(rng.uniform(0.1, 1.0), dagger(a))] * raising
    return LindbladGenerator(cutoff, hamiltonian=rng.uniform(0.5, 2.0) * np.diag(np.arange(cutoff)),
                             jumps=jumps)


class TestInvariantSets:
    """The coordinates of vec(x) split into sets that no L_t couples."""

    def test_sigma_z_dephasing_keeps_each_coherence_apart(self):
        assert _sets(dephasing_generator(1.0)) == [[0, 3], [1], [2]]  # {00, 11}, {01}, {10}
        assert _sets(dephasing_generator(lambda t: 1.0 + t)) == [[0, 3], [1], [2]]

    def test_sigma_x_jump_swaps_populations_and_coherences(self):
        assert _sets(LindbladGenerator(2, jumps=[(0.7, SIGMA_X)])) == [[0, 3], [1, 2]]

    def test_random_jump_couples_everything(self, rng):
        assert _sets(LindbladGenerator(3, jumps=[(0.5, _random_matrix(rng, 3))])) == [list(range(9))]

    def test_restricted_apply_equals_the_full_one_in_every_coherence_order(self, rng):
        # Both jumps, and each alone: one-way couplings join a set too.
        for cutoff, lowering, raising in [(int(c), True, True) for c in rng.integers(6, 11, size=4)] \
                + [(7, True, False), (8, False, True)]:
            gen = _phase_covariant(rng, cutoff, lowering, raising)
            orders = np.subtract.outer(np.arange(cutoff), np.arange(cutoff)).reshape(-1)
            assert _sets(gen) == sorted(np.flatnonzero(orders == q).tolist()
                                        for q in range(1 - cutoff, cutoff))
            for q in range(1 - cutoff, cutoff):
                x = np.diag(rng.normal(size=cutoff - abs(q)) + 1j * rng.normal(size=cutoff - abs(q)), -q)
                labels = gen.invariant_sets()
                restricted = gen.restricted(np.flatnonzero(labels == labels[orders == q][0]))
                for t in (0.0, 0.7):
                    y = restricted.coordinates(x[None])
                    assert y.shape == (1, cutoff - abs(q))
                    np.testing.assert_allclose(restricted.states(restricted.apply(t, y)),
                                               gen.apply(t, x[None]), rtol=0, atol=1e-13)


def _restriction_cases(rng):
    """(name, generator, coordinates): a dephasing qubit at a time-dependent
    rate, a driven qutrit, a cutoff-10 mode's populations under a cos^2
    raising rate, and the coherence orders -1, 0 and 1 of a driven mode, a
    union of three sets."""
    qutrit_h = _random_matrix(rng, 3)
    qutrit = LindbladGenerator(3, hamiltonian=qutrit_h + dagger(qutrit_h),
                               jumps=[(lambda t: 0.6 + 0.3 * np.sin(t), _random_matrix(rng, 3)),
                                      (0.4, _random_matrix(rng, 3))])
    a = annihilation_operator(10)
    mode = LindbladGenerator(10, jumps=[(CosineSquaredCoefficient(omega=1.1, scale=0.3), dagger(a)),
                                        (0.8, a)])
    coherent = _phase_covariant(rng, 8)
    orders = np.abs(np.subtract.outer(np.arange(8), np.arange(8)).reshape(-1))
    return [("dephasing", dephasing_generator(lambda t: 0.5 + np.cos(2.0 * t)), np.arange(4)),
            ("qutrit", qutrit, np.arange(9)),
            ("populations", mode, np.arange(10) * 11),
            ("coherent_union", coherent, np.flatnonzero(orders <= 1))]


@pytest.mark.parametrize("case", range(4), ids=["dephasing", "qutrit", "populations",
                                                 "coherent_union"])
def test_restricted_adjoint_is_the_dual_and_the_gathered_whole_space_adjoint(rng, case):
    # <y', y G> = <y' G^dag, y> row by row, at one time and at one time per
    # row, and y G^dag is the whole generator's L_t^dag on the scattered rows,
    # gathered back: the sets are invariant under L_t^dag too.
    name, gen, index = _restriction_cases(rng)[case]
    restricted = gen.restricted(index)
    labels = gen.invariant_sets()
    # the coordinates are whole sets
    np.testing.assert_array_equal(index, np.flatnonzero(np.isin(labels, labels[index])))
    n, m = 5, len(index)
    y, y_prime = (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)) for _ in range(2))
    for t in (0.7, np.linspace(0.0, 2.0, n)):
        forward, backward = restricted.apply(t, y), restricted.adjoint_apply(t, y_prime)
        np.testing.assert_allclose(np.sum(y_prime.conj() * forward, axis=-1),
                                   np.sum(backward.conj() * y, axis=-1), rtol=0, atol=1e-13)
        whole = gen.adjoint_apply(t, restricted.states(y_prime))
        np.testing.assert_allclose(backward, restricted.coordinates(whole), rtol=0, atol=1e-14)
        np.testing.assert_array_equal(np.delete(whole.reshape(n, -1), index, axis=-1), 0.0)


def _dense_lindblad(h, terms, x, adjoint=False):
    """-i[H, x] + sum gamma (A x A^dag - {A^dag A, x}/2), or its adjoint
    i[H, x] + sum gamma (A^dag x A - {A^dag A, x}/2), with plain numpy
    products on one operator or a stack."""
    sign = 1j if adjoint else -1j
    out = sign * (h @ x - x @ h)
    for gamma, a in terms:
        a_dag = dagger(a)
        ada = a_dag @ a
        sandwich = a_dag @ x @ a if adjoint else a @ x @ a_dag
        out = out + gamma * (sandwich - 0.5 * (ada @ x + x @ ada))
    return out


def _dense_lindblad_matrix(h, terms):
    """Row-stacking matrix of the reference map, one basis matrix per column."""
    d = h.shape[0]
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return _dense_lindblad(h, terms, basis).reshape(d * d, d * d).T


def _assert_close(actual, expected, rtol=1e-12):
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


def _reference_cases(rng):
    """(generator, parts) pairs; parts(t) gives the Hamiltonian and the
    (rate, operator) list that the generator holds at time t."""
    h = _random_matrix(rng, 3)
    h = 0.5 * (h + dagger(h))
    a, b = _random_matrix(rng, 3), _random_matrix(rng, 3)
    cos2 = CosineSquaredCoefficient(omega=1.3, scale=0.4)
    decay = ExponentialCoefficient(decay=0.8, scale=1.1)
    return [
        (LindbladGenerator(3, hamiltonian=h, jumps=[JumpTerm(0.7, a), JumpTerm(0.3, b)]),
         lambda t: (h, [(0.7, a), (0.3, b)])),
        (LindbladGenerator(3, hamiltonian=h, jumps=[
            JumpTerm(0.7, a), JumpTerm(cos2, b), JumpTerm(decay, a), JumpTerm(lambda t: np.sin(3 * t), b)]),
         lambda t: (h, [(0.7, a), (cos2(t), b), (decay(t), a), (np.sin(3 * t), b)])),
    ]


class TestRatesOnArrays:
    RATES = [0.7, ConstantCoefficient(-0.25), CosineSquaredCoefficient(omega=1.3, scale=0.4),
             ExponentialCoefficient(decay=0.8, scale=1.1), lambda t: np.sin(3 * t)]

    @pytest.mark.parametrize("rate", RATES)
    def test_array_of_times_equals_one_time_each(self, rate):
        times = np.array([[0.0, 0.35, 1.7], [2.0, 2.5, 3.1]])
        term = JumpTerm(rate, SIGMA_Z)
        rates = term.rate_at(times)
        assert rates.shape == times.shape and isinstance(term.rate_at(0.35), float)
        np.testing.assert_allclose(rates, [[term.rate_at(float(t)) for t in row] for row in times],
                                   rtol=1e-15, atol=0)

    def test_one_call_per_time_only_for_arbitrary_callables(self):
        calls = []
        term = JumpTerm(lambda t: calls.append(t) or 2.0 * t, SIGMA_Z)
        np.testing.assert_array_equal(term.rate_at(np.arange(4.0)), [0.0, 2.0, 4.0, 6.0])
        assert calls == [0.0, 1.0, 2.0, 3.0] and all(type(t) is float for t in calls)


class TestLindbladAgainstDenseReference:
    """apply, adjoint_apply and superoperator(t) against plain numpy products."""

    def test_apply_and_adjoint_apply(self, rng):
        for gen, parts in _reference_cases(rng):
            for t in (0.0, 0.35, 1.7):
                h, terms = parts(t)
                single = _random_matrix(rng, 3)  # not Hermitian
                stack = np.stack([_random_matrix(rng, 3) for _ in range(4)])
                for x in (single, stack):
                    _assert_close(gen.apply(t, x), _dense_lindblad(h, terms, x))
                    _assert_close(gen.adjoint_apply(t, x), _dense_lindblad(h, terms, x, adjoint=True))

    def test_superoperator(self, rng):
        for gen, parts in _reference_cases(rng):
            for t in (0.0, 0.35, 1.7):
                _assert_close(gen.superoperator(t), _dense_lindblad_matrix(*parts(t)))

    def test_array_of_times_one_per_row(self, rng):
        times = np.array([0.0, 0.4, 1.3])
        for gen, parts in _reference_cases(rng):
            stack = np.stack([[_random_matrix(rng, 3) for _ in range(2)] for _ in times])
            for adjoint, apply in ((False, gen.apply), (True, gen.adjoint_apply)):
                expected = np.stack([_dense_lindblad(*parts(t), rows, adjoint=adjoint)
                                     for t, rows in zip(times, stack)])
                _assert_close(apply(times, stack), expected)

    def test_bosonic_generator_at_cutoff_40(self, rng):
        gen = bosonic_generator(0.8, 0.3, 40)
        a = annihilation_operator(40)
        h, terms = np.zeros((40, 40), dtype=complex), [(0.8, dagger(a)), (0.3, a)]
        stack = np.stack([_random_matrix(rng, 40) for _ in range(3)])
        _assert_close(gen.apply(0.5, stack), _dense_lindblad(h, terms, stack))
        _assert_close(gen.adjoint_apply(0.5, stack), _dense_lindblad(h, terms, stack, adjoint=True))
        s = gen.superoperator(0.5)
        _assert_close((stack.reshape(3, -1) @ s.T).reshape(stack.shape), _dense_lindblad(h, terms, stack))

    def test_constant_generator_builds_no_piece_per_call(self, rng, monkeypatch):
        # Every block is summed once, at construction.  superoperator,
        # invariant_sets and restricted read the summed triples; the CSR
        # pair of the whole-space products is built once per generator, by
        # its first apply or adjoint_apply (two vstacks), and never again.
        from scipy import sparse

        summed, stacked = [], []
        sum_entries, vstack = channels._summed_entries, sparse.vstack
        monkeypatch.setattr(channels, "_summed_entries",
                            lambda *args: summed.append(1) or sum_entries(*args))
        monkeypatch.setattr(sparse, "vstack",
                            lambda *args, **kwargs: stacked.append(1) or vstack(*args, **kwargs))
        generators = [gen for gen, _ in _reference_cases(rng)]  # constant or time-dependent rates
        # a copy of each, whose first whole-space product is an adjoint_apply
        generators += [LindbladGenerator(gen.dim, gen.hamiltonian, gen.jumps) for gen in generators]
        at_construction = len(summed)
        x = _random_matrix(rng, 3)
        for i, gen in enumerate(generators):
            gen.superoperator(0.3)
            gen.invariant_sets()
            gen.restricted(np.arange(9))  # all coordinates: the union of every set
            assert len(stacked) == 2 * i and "_compiled" not in vars(gen)
            first = gen.apply if i < len(generators) // 2 else gen.adjoint_apply
            first(0.0, x)
            assert len(stacked) == 2 * (i + 1)
            for t in (0.0, 0.5, np.array([0.1, 0.2])):
                y = x if np.ndim(t) == 0 else np.stack([x, x])
                gen.apply(t, y)
                gen.adjoint_apply(t, y)
            gen.superoperator(0.3)
        assert len(stacked) == 2 * len(generators)
        assert len(summed) == at_construction

    def test_summed_triples_agree_with_scipy_sparse(self, rng, monkeypatch):
        # Oracle: the unsummed entries of every compiled block summed by
        # scipy.sparse.csr_array.  superoperator(t) and the blocks of every
        # restriction (each invariant set, and all coordinates) must agree
        # with it within 4 ulp of the summed magnitudes, since scipy may add
        # duplicates in another order.  The Hamiltonian and the jumps of the
        # reference cases are dense, and the bosonic jumps share their
        # diagonal, so every block sums duplicates.
        from scipy import sparse

        raw = {}
        sum_entries = channels._summed_entries

        def recording(dim, entries, name):
            triple = sum_entries(dim, entries, name)
            raw[id(triple)] = entries
            return triple

        monkeypatch.setattr(channels, "_summed_entries", recording)
        cases = [gen for gen, _ in _reference_cases(rng)] + [bosonic_generator(0.8, 0.3, 40)]
        for gen in cases:
            n = gen.dim ** 2
            dense, magnitudes = [], []
            for triple in gen._blocks:
                rows, cols, vals = (np.concatenate(part) for part in zip(*raw[id(triple)]))
                assert len(vals) > len(triple[2])  # duplicates were summed
                dense.append(sparse.csr_array((vals, (rows, cols)), shape=(n, n)).toarray())
                magnitudes.append(sparse.csr_array((np.abs(vals), (rows, cols)),
                                                   shape=(n, n)).toarray())
            for t in (0.0, 0.35, 1.7):
                expected, magnitude = dense[0].copy(), magnitudes[0].copy()
                for term, block, size in zip(gen._rated_terms, dense[1:], magnitudes[1:]):
                    expected += term.rate_at(t) * block
                    magnitude += abs(term.rate_at(t)) * size
                _assert_within_ulp(gen.superoperator(t), expected, magnitude)
            labels = gen.invariant_sets()
            for index in [np.flatnonzero(labels == label) for label in np.unique(labels)] \
                    + [np.arange(n)]:
                _assert_within_ulp(gen.restricted(index)._blocks,
                                   *(np.stack([block[np.ix_(index, index)].T for block in blocks])
                                     for blocks in (dense, magnitudes)))


def _assert_within_ulp(actual, expected, magnitude, maxulp=4):
    """Entrywise |actual - expected| within ``maxulp`` units in the last
    place of ``magnitude``, the sum of the magnitudes of the terms."""
    assert np.all(np.abs(actual - expected) <= maxulp * np.spacing(magnitude))


class TestLindbladShapes:
    def test_mis_sized_constant_parts_rejected_at_construction(self):
        with pytest.raises(ChannelError, match="jump operator has shape"):
            LindbladGenerator(2, jumps=[JumpTerm(0.5, np.eye(3))])
        with pytest.raises(ChannelError, match="hamiltonian has shape"):
            LindbladGenerator(2, hamiltonian=np.eye(3))

    def test_callable_hamiltonian_or_operator_rejected_at_construction(self):
        # Time dependence belongs in the rates: H and every A_i are matrices.
        with pytest.raises(ChannelError, match="hamiltonian must be a matrix.*in the rates"):
            LindbladGenerator(2, hamiltonian=lambda t: np.cos(t) * SIGMA_Z)
        with pytest.raises(ChannelError, match="jump operator must be a matrix.*in the rates"):
            LindbladGenerator(2, jumps=[JumpTerm(0.5, lambda t: SIGMA_X)])
        with pytest.raises(ChannelError, match="jump operator must be a matrix"):
            LindbladGenerator(2, jumps=[(lambda t: 1.0 + t, lambda t: SIGMA_X)])

    def test_mis_sized_input_rejected(self):
        with pytest.raises(ChannelError, match="does not match dim"):
            dephasing_generator(1.0).apply(0.0, np.eye(4))

    def test_overflowing_jump_rejected_by_name_without_a_warning(self):
        # pytest turns a RuntimeWarning into an error, so each case must
        # raise before numpy warns about the overflow.
        big = np.array([[2.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ChannelError, match="^jump 1 gives a non-finite generator entry"):
            LindbladGenerator(2, jumps=[(0.5, SIGMA_Z), (1e308, big)])
        with pytest.raises(ChannelError, match="^jump 0 gives a non-finite generator entry"):
            LindbladGenerator(2, jumps=[(lambda t: 1.0, 1e200 * big)])  # A^dag A overflows
        with pytest.raises(ChannelError, match="^the entries of the constant terms add up"):
            LindbladGenerator(2, jumps=[(1e308, SIGMA_Z)])  # 1e308 (Z X Z - X) is -2e308 X
        with pytest.raises(ChannelError, match="bosonic rates 1e\\+308 and 0 overflow"):
            bosonic_generator(1e308, 0.0, 40)
        bosonic_generator(1e300, 0.0, 40)  # 4e301 at most: compiled


class TestSerialization:
    def test_generator_round_trip_with_tagged_rates(self):
        gen = LindbladGenerator(
            2,
            hamiltonian=0.5 * SIGMA_Z,
            jumps=[
                JumpTerm(ConstantCoefficient(0.25), SIGMA_Z),
                JumpTerm(CosineSquaredCoefficient(omega=1.0, scale=2.0), SIGMA_Z),
                JumpTerm(ExponentialCoefficient(decay=1.0, scale=0.3), SIGMA_X),
            ],
        )
        doc = json.loads(json.dumps(generator_to_document(gen)))
        back = generator_from_document(doc)
        assert back.dim == 2
        assert np.array_equal(np.asarray(back.hamiltonian), 0.5 * SIGMA_Z)
        for t in (0.0, 0.7, 2.0):
            for orig, copy in zip(gen.jumps, back.jumps):
                assert copy.rate_at(t) == orig.rate_at(t)
                assert np.array_equal(copy.operator, orig.operator)

    @pytest.mark.parametrize("number", [0.7, -3, np.float64(1.25), np.int64(2)])
    def test_number_rate_is_its_constant_coefficient(self, number):
        # A plain-number rate is held as its ConstantCoefficient, so it
        # serializes, compiles and evaluates exactly as that coefficient does.
        plain, coefficient = JumpTerm(number, SIGMA_Z), JumpTerm(ConstantCoefficient(float(number)),
                                                                 SIGMA_Z)
        assert plain.rate == coefficient.rate and type(plain.rate.value) is float
        times = np.array([[0.0, 0.35], [1.7, 2.0]])
        assert plain.rate_at(0.35) == coefficient.rate_at(0.35) == float(number)
        assert np.array_equal(plain.rate_at(times), coefficient.rate_at(times))
        assert plain.rate_at(times).dtype == float
        generators = [LindbladGenerator(2, jumps=[term]) for term in (plain, coefficient)]
        assert generator_to_document(generators[0]) == generator_to_document(generators[1])
        assert LindbladGenerator(2, jumps=[(number, SIGMA_Z)]).jumps[0].rate == coefficient.rate
        x = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
        for t, y in ((0.0, x), (np.array([0.3, 1.1]), np.stack([x, 2.0 * x]))):
            assert np.array_equal(generators[0].apply(t, y), generators[1].apply(t, y))

    def test_unserializable_rate_rejected(self):
        gen = dephasing_generator(lambda t: np.sin(t))
        with pytest.raises(SerializationError):
            generator_to_document(gen)

    @pytest.mark.parametrize("entry", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0], [0, -10**400]])
    def test_non_finite_matrix_entry_rejected(self, entry):
        with pytest.raises(SerializationError, match=r"entry \[1\]\[0\] is not finite"):
            matrix_from_document([[[1.0, 0.0], [0.0, 0.0]], [entry, [0.0, 0.0]]])

    @pytest.mark.parametrize("rate", [{"type": "constant", "value": np.nan},
                                      {"type": "cosine_squared", "omega": np.inf},
                                      {"type": "exponential", "decay": 1.0, "scale": -np.inf},
                                      {"type": "constant", "value": 10**400}])
    def test_non_finite_rate_rejected(self, rate):
        doc = generator_to_document(dephasing_generator(0.5))
        doc["jumps"][0]["rate"] = rate
        with pytest.raises(SerializationError, match="must be a finite number"):
            generator_from_document(doc)

    def test_tail_guard_round_trip(self):
        gen = bosonic_generator(1.2, 0.2, 5)
        back = generator_from_document(json.loads(json.dumps(generator_to_document(gen))))
        assert back.tail_guard == gen.tail_guard
        for orig, copy in zip(gen.jumps, back.jumps):
            assert np.array_equal(copy.operator, orig.operator)
        # a second document is identical
        assert generator_to_document(back) == generator_to_document(gen)
