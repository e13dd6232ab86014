import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from entroflow import (
    DensityMatrix,
    DephasingFamily,
    GadcFamily,
    IntegrationError,
    LindbladGenerator,
    TailMassError,
    annihilation_operator,
    bosonic_generator,
    closed_form_trajectory,
    cp_divisibility_check,
    damping_qubit_trajectory,
    dephasing_generator,
    entropy_rate,
    entropy_rate_fd,
    export_trajectory,
    gadc,
    intermediate_map,
    oscillating_qubit_trajectory,
    propagate,
    semigroup_sandwich,
    theorem2_bound,
    thermal_state,
    von_neumann_entropy,
)
from entroflow.channels import (
    ChannelError,
    ConstantCoefficient,
    CosineSquaredCoefficient,
    JumpTerm,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _Restriction,
)
from entroflow import channels, dynamics
from entroflow.dynamics import (
    PROPAGATE_ERROR_TARGET,
    Trajectory,
    _damping_qubit_derivative,
    _gaps_exceed,
    _Matrices,
    _oscillating_qubit_derivative,
    _rk4_segment,
    damping_qubit_state,
    oscillating_qubit_state,
    states_off_grid,
)
from entroflow.linalg import (ZERO_EIGENVALUE_RTOL, EigenSystem, LinalgError, as_matrix, dagger,
                              hermitian_part, spectral_decompose)
from entroflow.sampling import random_full_rank_state, random_mixed_state
from entroflow.witnesses import EPS_WITNESS, _pinned_adjoint_traces

from conftest import (depolarizing_generator, family_trajectory, first_scipy_use,
                      fresh_interpreter, is_cptp, reference_maps, superoperators,
                      support_projectors)

DAMPING_RATE_AT_ONE = -0.19914228500721254  # e^-1 log(e^-1 / (1 - e^-1))


@pytest.mark.parametrize("case", ["constant", "time_dependent", "sandwich", "dephasing"])
def test_scipy_loads_on_first_use(case, tmp_path):
    # A fresh interpreter in which the case would be the first user of
    # scipy.  A generator compiles in numpy, and every case propagates on
    # restrictions or reads the dense superoperator, so none loads
    # scipy.sparse; the maps are dynamics.expm's, elementwise for the
    # dephasing maps and sandwich and numpy's Padé kernel for the driven
    # qubit, so none loads scipy.linalg.  Either way the numbers are those
    # of this process.
    code = ("import sys\n"
            "import numpy as np\n"
            "from conftest import first_scipy_use\n"
            "def loaded(): return [m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.linalg'))]\n"
            "assert not loaded()\n"
            "np.save(sys.argv[1], first_scipy_use(sys.argv[2]))\n"
            "print(loaded())\n")
    path = tmp_path / "result.npy"
    out = fresh_interpreter(code, str(path), case)
    assert out.strip() == "[]"
    assert np.array_equal(np.load(path), first_scipy_use(case))


def random_qubit_generator(rng, dim=2, n_jumps=2):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    jumps = [
        JumpTerm(float(rng.uniform(0.2, 1.0)),
                 rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        for _ in range(n_jumps)
    ]
    return LindbladGenerator(dim, hamiltonian=0.5 * (h + dagger(h)), jumps=jumps)


class TestPropagate:
    def test_dephasing_closed_form(self):
        gen = dephasing_generator(1.0)
        plus = DensityMatrix.pure([1, 1])
        grid = np.linspace(0.0, 2.0, 41)
        traj = propagate(gen, plus, grid)
        for t, state in zip(traj.grid, traj.states):
            np.testing.assert_allclose(np.diagonal(state.entries), [0.5, 0.5], atol=1e-9)
            assert state.entries[0, 1] == pytest.approx(0.5 * np.exp(-t), abs=1e-8)

    def test_fixed_point_stays_fixed(self, rng):
        gen = depolarizing_generator(2, 0.25)
        traj = propagate(gen, DensityMatrix.maximally_mixed(2), np.linspace(0, 3, 31))
        for state in traj.states:
            assert np.max(np.abs(state.entries - np.eye(2) / 2)) <= 1e-7

    def test_bosonic_trace_preserved(self):
        gen = bosonic_generator(0.2, 0.2, 20)
        traj = propagate(gen, thermal_state(0.2, 20), np.linspace(0, 1.0, 11))
        for state in traj.states:
            assert abs(state.trace() - 1.0) <= 1e-8

    def test_trajectory_invariants(self, rng):
        gen = random_qubit_generator(rng)
        traj = propagate(gen, random_full_rank_state(rng, 2), np.linspace(0, 1, 21))
        for dot in traj.derivatives:
            assert abs(np.trace(dot)) <= 1e-9
        for pi, dot in zip(support_projectors(traj.spectrum), traj.derivatives):
            assert abs(np.trace(pi @ dot)) <= 1e-8

    def test_tail_guard_raises(self):
        gen = bosonic_generator(1.2, 0.2, 20)  # amplifier outgrows the cutoff
        grid = np.linspace(0, 3.0, 61)
        with pytest.raises(TailMassError):
            propagate(gen, thermal_state(0.2, 20), grid)

    def test_tail_guard_truncates(self):
        gen = bosonic_generator(1.2, 0.2, 20)
        grid = np.linspace(0, 3.0, 61)
        traj = propagate(gen, thermal_state(0.2, 20), grid, on_tail_breach="truncate")
        assert traj.truncated_at is not None
        assert traj.grid[-1] < 3.0
        assert len(traj) >= 3

    def test_decreasing_grid_rejected(self):
        with pytest.raises(IntegrationError):
            propagate(dephasing_generator(1.0), DensityMatrix.maximally_mixed(2),
                      np.array([0.0, 0.5, 0.4]))


    def test_stacked_propagate_matches_single_states(self, rng):
        gen = random_qubit_generator(rng, dim=3)
        states = [random_full_rank_state(rng, 3), random_mixed_state(rng, 3),
                  DensityMatrix.maximally_mixed(3)]
        grid = np.linspace(0.0, 1.2, 13)
        stacked = propagate(gen, states, grid)
        assert stacked.entries.shape == stacked.derivatives.shape == (len(grid), len(states), 3, 3)
        assert len(stacked.states) == len(grid) * len(states)  # time-major
        np.testing.assert_array_equal(stacked.states[len(states) + 2].entries, stacked.entries[1, 2])
        for n, rho0 in enumerate(states):
            single = propagate(gen, rho0, grid)
            assert single.entries.shape == (len(grid), 3, 3)
            np.testing.assert_array_equal(stacked.grid, single.grid)
            for a, b in zip(stacked.entries[:, n], single.entries):
                assert np.max(np.abs(a - b)) <= 1e-7 * grid[-1]
        np.testing.assert_allclose(stacked.derivatives[-1], gen.apply(grid[-1], stacked.entries[-1]))

    def test_stacked_tail_guard_ends_the_whole_stack(self):
        gen = bosonic_generator(1.2, 0.2, 20)
        grid = np.linspace(0, 3.0, 31)
        vacuum, warm = thermal_state(0.0, 20), thermal_state(0.2, 20)
        singles = [propagate(gen, rho0, grid, on_tail_breach="truncate") for rho0 in (vacuum, warm)]
        first = min(singles, key=len)
        assert len(first) < max(map(len, singles))  # the two states breach at different times
        stacked = propagate(gen, [vacuum, warm], grid, on_tail_breach="truncate")
        assert stacked.truncated_at == first.truncated_at
        assert len(stacked) == len(first)
        assert stacked.entries.shape[:2] == (len(first), 2)

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [0.0, np.inf]], ids=["nan", "inf"])
    @pytest.mark.parametrize("rate", [lambda t: 0.5 + np.cos(2.0 * t), 0.5],
                             ids=["time_dependent", "constant"])
    def test_non_finite_time_fails_before_integrating(self, grid, rate, monkeypatch):
        _forbid_maps(monkeypatch)
        with pytest.raises(IntegrationError, match="finite"):
            propagate(dephasing_generator(rate), DensityMatrix.pure([1, 0.5]), grid)

    @pytest.mark.parametrize("grid", [[], [[0.0, 1.0], [2.0, 3.0]]], ids=["empty", "2-D"])
    def test_grid_off_one_axis_fails_before_integrating(self, grid, monkeypatch):
        _forbid_maps(monkeypatch)
        with pytest.raises(IntegrationError, match=r"at least 1 finite point on one axis"):
            propagate(dephasing_generator(1.0), DensityMatrix.diagonal([0.6, 0.4]), grid)

    @pytest.mark.parametrize("rate", [lambda t: 0.5 + np.cos(2.0 * t), 0.5],
                             ids=["time_dependent", "constant"])
    def test_one_point_grid_holds_the_initial_state(self, rate):
        # A lone row has no neighbour to show that its rank holds, so |+>,
        # whose kernel fills at once, is held too, and its one row reports
        # the rate its support leaves out.
        for rho, leaves_out in ((DensityMatrix(np.array([[0.6, 0.2], [0.2, 0.4]])), False),
                                (DensityMatrix(np.full((2, 2), 0.5)), True)):
            traj = propagate(dephasing_generator(rate), rho, [0.3])
            assert traj.entries.shape == (1, 2, 2)
            np.testing.assert_array_equal(traj.entries[0], rho.entries)
            assert (np.abs(traj.left_out_rates()) > EPS_WITNESS).tolist() == [leaves_out]


def reference_propagate(generator, states, grid, error_target=1e-7, operator=None):
    """The step-doubling loop written plainly: every segment computes its own
    first stage, the trace-norm test always takes eigenvalues, states are
    symmetrized at every turn, and the loop stops at a tail-guard breach.
    The loop runs on the coordinates of ``operator``, by default the one
    ``propagate`` picks for the initial stack.  Returns the (T, N, d, d)
    states and derivatives and the (T, N, d) descending eigenvalues."""
    def segment(rho, t0, t1, n):
        y = operator.coordinates(rho)
        dt = (t1 - t0) / n
        for j in range(n):
            t = t0 + j * dt
            k1 = operator.apply(t, y)
            k2 = operator.apply(t + 0.5 * dt, y + 0.5 * dt * k1)
            k3 = operator.apply(t + 0.5 * dt, y + 0.5 * dt * k2)
            k4 = operator.apply(t + dt, y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return hermitian_part(operator.states(y))

    def derivative(t, rho):
        return operator.states(operator.apply(t, operator.coordinates(rho)))

    def clean(raw):
        # the traces sum the gathered (N, d) diagonals, as propagate sums its
        # population rows; a stacked np.trace sums them in another order
        sym = hermitian_part(raw)
        d = sym.shape[-1]
        traces = sym.reshape(len(sym), -1)[..., np.arange(d) * (d + 1)].sum(axis=-1).real
        sym = hermitian_part(sym / traces[:, None, None])
        return sym, np.linalg.eigh(sym)[0][..., ::-1]

    raw = np.stack([getattr(s, "entries", s) for s in states]).astype(complex)
    if operator is None:
        operator = dynamics._integration_operator(generator, raw)
    # in the dtype of the rows propagate carries: float64 where they are real
    # populations of real blocks, whose divisions by the traces are then real
    rho, lam = clean(raw.real if operator.coordinates(raw).dtype == float else raw)
    entries, dots, eigenvalues = [rho], [derivative(grid[0], rho)], [lam]
    substeps = 1
    for t0, t1 in zip(grid[:-1], grid[1:]):
        substeps = max(1, substeps // 2)
        trial, converged = segment(rho, t0, t1, substeps), False
        while not converged:
            substeps *= 2
            refined = segment(rho, t0, t1, substeps)
            disagreement = np.abs(np.linalg.eigvalsh(trial - refined)).sum(axis=-1).max()
            trial, converged = refined, disagreement <= error_target * (t1 - t0)
        rho, lam = clean(trial)
        guard = generator.tail_guard
        if guard is not None and np.any(
                guard.tails(np.diagonal(rho, axis1=-2, axis2=-1).real) > guard.bound):
            break
        entries.append(rho)
        dots.append(derivative(t1, rho))
        eigenvalues.append(lam)
    return np.stack(entries), np.stack(dots), np.stack(eigenvalues)


def _reference_cases():
    rng = np.random.default_rng(8)
    h = hermitian_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    jump = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    timed = LindbladGenerator(3, hamiltonian=h,
                              jumps=[JumpTerm(CosineSquaredCoefficient(omega=1.5, scale=0.6), jump)])
    return {
        "bosonic amplifier, tail truncation": (
            bosonic_generator(1.2, 0.2, 12), [thermal_state(0.05, 12)], np.linspace(0.0, 0.3, 31)),
        "oscillating dephasing, 3 states": (
            dephasing_generator(lambda t: 0.5 + np.cos(2.0 * t)),
            [random_full_rank_state(rng, 2), random_mixed_state(rng, 2), DensityMatrix.pure([1, 1j])],
            np.linspace(0.0, 3.0, 31)),
        "constant Hamiltonian, timed rate": (
            timed, [random_full_rank_state(rng, 3)], np.linspace(0.0, 1.0, 11)),
    }


@pytest.fixture
def rk4(monkeypatch):
    """propagate through its RK4 loop on every operator, the dense
    restriction included, where it otherwise takes the interval maps."""
    monkeypatch.setattr(dynamics, "_map_intervals", dynamics._rk4_intervals)


def trace_norms_exceed(x, budget) -> bool:
    """The step-doubling test on one Hermitian stack (N, d, d), held as the
    d^2 entries of its matrices: whether its largest trace norm exceeds
    ``budget``."""
    d = x.shape[-1]
    return bool(_gaps_exceed(_Matrices(d), x.reshape(1, len(x), d * d), np.array([budget]))[0])


class TestOnePassPerInterval:
    """The shared first stage, the Frobenius bracket and the single
    validation leave every number of the plain RK4 loop unchanged."""

    @pytest.mark.parametrize("case", list(_reference_cases()))
    def test_equals_the_plain_step_doubling_loop(self, case, rk4):
        generator, states, grid = _reference_cases()[case]
        traj = propagate(generator, states, grid, on_tail_breach="truncate")
        entries, dots, eigenvalues = reference_propagate(generator, states, grid)
        assert len(traj) == len(entries)
        assert np.array_equal(traj.entries, entries)
        assert np.array_equal(traj.derivatives, dots)
        assert np.array_equal(traj.spectrum.eigenvalues, eigenvalues)
        if generator.tail_guard is not None:
            assert traj.truncated_at is not None

    def test_block_path_agrees_with_the_full_sparse_path(self, rk4):
        # The d populations of a thermal start, and the whole space (m = 4)
        # of a qubit stack, which lies within the dense limit: the RK4 loop
        # on the dense restriction against the same loop on the sparse apply.
        for case, m in (("bosonic amplifier, tail truncation", 12),
                        ("oscillating dephasing, 3 states", 4)):
            generator, states, grid = _reference_cases()[case]
            traj = propagate(generator, states, grid, on_tail_breach="truncate")
            operator = dynamics._integration_operator(generator, traj.entries[0])
            assert isinstance(operator, _Restriction)
            assert len(operator.index) == m
            entries, dots, eigenvalues = reference_propagate(
                generator, states, grid, operator=dynamics._WholeStates(generator))
            assert len(traj) == len(entries)
            np.testing.assert_allclose(traj.entries, entries, rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.derivatives, dots, rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.spectrum.eigenvalues, eigenvalues, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["stack touching every set", "d = 5 stack above the dense limit",
                                      "two-state d = 5 stack above the dense limit",
                                      "time-dependent d = 5 stack above the dense limit"])
    def test_full_path_is_the_plain_sparse_loop(self, case, rk4):
        # Stacks whose sets hold more than max(d, 16) coordinates run bit for
        # bit the loop over the whole generator's apply, with constant or
        # time-dependent rates: these trajectories are those of the sparse
        # path alone.  A d = 3 stack touching every set (m = 9) lies within
        # the limit: it takes the dense restriction, on which the RK4 loop
        # agrees with that one to rounding.
        rng = np.random.default_rng(13)
        lower = np.diag([1.0, 1.0], 1).astype(complex)
        lower5 = np.diag(np.ones(4), 1).astype(complex)
        generator, states = {
            "stack touching every set": (
                LindbladGenerator(3, hamiltonian=np.diag([0.0, 1.0, 2.0]),
                                  jumps=[(0.4, lower), (0.2, dagger(lower))]),
                [DensityMatrix.diagonal([0.6, 0.3, 0.1]), random_full_rank_state(rng, 3)]),
            "d = 5 stack above the dense limit": (
                LindbladGenerator(5, hamiltonian=np.diag(np.arange(5.0)),
                                  jumps=[(0.4, lower5), (0.2, dagger(lower5))]),
                [random_full_rank_state(rng, 5)]),
            "two-state d = 5 stack above the dense limit": (
                LindbladGenerator(5, hamiltonian=np.diag(np.arange(5.0)),
                                  jumps=[(0.4, lower5), (0.2, dagger(lower5))]),
                [random_full_rank_state(rng, 5), random_full_rank_state(rng, 5)]),
            "time-dependent d = 5 stack above the dense limit": (
                LindbladGenerator(5, hamiltonian=np.diag(np.arange(5.0)), jumps=[
                    (CosineSquaredCoefficient(omega=1.3, scale=0.4), lower5), (0.2, dagger(lower5))]),
                [random_full_rank_state(rng, 5)]),
        }[case]
        grid = np.linspace(0.0, 1.0, 11)
        traj = propagate(generator, states, grid)
        stack = np.stack([rho.entries for rho in states])
        operator = dynamics._integration_operator(generator, stack)
        entries, dots, eigenvalues = reference_propagate(
            generator, states, grid, operator=dynamics._WholeStates(generator))
        if case == "stack touching every set":
            assert isinstance(operator, _Restriction) and len(operator.index) == 9
            np.testing.assert_allclose(traj.entries, entries, rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.derivatives, dots, rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.spectrum.eigenvalues, eigenvalues, rtol=0, atol=1e-12)
            return
        assert isinstance(operator, dynamics._WholeStates)
        assert np.array_equal(traj.entries, entries)
        assert np.array_equal(traj.derivatives, dots)
        assert np.array_equal(traj.spectrum.eigenvalues, eigenvalues)

    @pytest.mark.parametrize("case", ["populations", "whole states"])
    def test_a_point_within_rounding_of_the_last_does_not_stall(self, case, monkeypatch):
        # RK4 on the 20 populations of a thermal start and on a d = 5 state
        # above the dense limit, both under a timed rate.  Over [0.5, 0.5 +
        # 1e-12] the budget PROPAGATE_ERROR_TARGET * w lies below the
        # rounding of the n- and 2n-substep states, which the certificate
        # then takes: the run ends as the one without the point does.
        if case == "populations":
            a = annihilation_operator(20)
            generator = LindbladGenerator(20, jumps=[
                JumpTerm(CosineSquaredCoefficient(omega=1.0, scale=0.2), dagger(a)), (1.2, a)])
            start = thermal_state(0.2, 20)
        else:
            lower5 = np.diag(np.ones(4), 1).astype(complex)
            generator = LindbladGenerator(5, hamiltonian=np.diag(np.arange(5.0)), jumps=[
                (CosineSquaredCoefficient(omega=1.3, scale=0.4), lower5), (0.2, dagger(lower5))])
            start = random_full_rank_state(np.random.default_rng(13), 5)
        _forbid_maps(monkeypatch)
        ends_within_the_certificate(generator, start, 1e-12)

    def test_non_finite_state_fails_without_a_warning(self):
        # A Fock-diagonal start at cutoff 40 under a time-dependent rate runs
        # RK4 on its 40 populations.  At a 1e300 raising rate the first
        # interval's stages overflow: propagate names the state that is not
        # finite, and emits no RuntimeWarning (pytest turns one into an error).
        a = annihilation_operator(40)
        generator = LindbladGenerator(40, jumps=[
            (CosineSquaredCoefficient(omega=1.0, scale=1e300), dagger(a)), (1.2, a)])
        with pytest.raises(IntegrationError, match=r"state at t=0\.05 is not finite"):
            propagate(generator, thermal_state(0.2, 40), np.linspace(0.0, 5.0, 101))

    def test_bracket_decides_as_eigvalsh(self, rng, monkeypatch):
        d = 6
        x = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
        x = hermitian_part(x) * np.array([1.0, 0.3, 2.0, 0.01])[:, None, None]
        norm = np.abs(np.linalg.eigvalsh(x)).sum(axis=-1).max()
        frobenius = np.linalg.norm(x, axis=(-2, -1)).max()
        calls = count_eig_calls(monkeypatch)
        undecided = []
        for budget in norm * np.array([0.2, 0.9, 0.999, 1.0, 1.001, 1.05, 5.0]):
            calls.clear()
            assert trace_norms_exceed(x, budget) == (norm > budget)
            undecided.append(frobenius <= budget < np.sqrt(d) * frobenius)
            assert calls == (["eigvalsh"] if undecided[-1] else [])
        assert any(undecided) and not all(undecided)

    def test_bracket_ends_are_exact_for_extreme_spectra(self, monkeypatch):
        d = 5
        rank_one = np.zeros((1, d, d), dtype=complex)
        rank_one[0, 0, 0] = 1.0                     # ||X||_1 = ||X||_F
        flat = np.eye(d, dtype=complex)[None] / d   # ||X||_1 = sqrt(d) ||X||_F
        calls = count_eig_calls(monkeypatch)
        assert trace_norms_exceed(rank_one, 0.99)
        assert not trace_norms_exceed(flat, 1.01)
        assert calls == []

    def test_first_stage_shared_within_an_interval(self, monkeypatch, rk4):
        gen = dephasing_generator(1.0)
        grid = np.linspace(0.0, 1.0, 51)
        calls = []
        pick = dynamics._integration_operator

        def counted(generator, states):
            """The operator propagate integrates with, its applies counted."""
            operator = pick(generator, states)
            apply = operator.apply
            operator.apply = lambda t, y: calls.append(t) or apply(t, y)
            return operator

        monkeypatch.setattr(dynamics, "_integration_operator", counted)
        propagate(gen, DensityMatrix.pure([1, 1]), grid)
        # per interval: 1 substep (3 new stages) against 2 (7), then the stored derivative
        assert len(calls) == 11 * (len(grid) - 1) + 1

    def test_non_hermitian_initial_state_rejected_with_its_index(self):
        lopsided = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
        with pytest.raises(LinalgError, match="not Hermitian"):
            DensityMatrix(lopsided)
        with pytest.raises(IntegrationError, match=r"initial state is not Hermitian.*index \(1,\)"):
            propagate(dephasing_generator(1.0), [DensityMatrix.maximally_mixed(2), lopsided],
                      np.linspace(0.0, 1.0, 3))

    def test_trajectory_rates_equal_the_stacked_formula(self, rng):
        traj = propagate(random_qubit_generator(rng, dim=3), random_full_rank_state(rng, 3),
                         np.linspace(0.0, 0.5, 11))
        assert np.array_equal(traj.entropy_rates(), entropy_rate(traj.spectrum, traj.derivatives))


def oscillating_dephasing(base=0.5, amplitude=1.0, frequency=2.0):
    """gamma(t) = base + amplitude cos(frequency t) on sigma_z, from the
    serializable coefficients (rates on arrays of times), and Gamma(t)."""
    generator = LindbladGenerator(2, jumps=[
        JumpTerm(ConstantCoefficient(0.5 * (base - amplitude)), SIGMA_Z),
        JumpTerm(CosineSquaredCoefficient(omega=0.5 * frequency, scale=amplitude), SIGMA_Z)])
    return generator, lambda t: base * t + amplitude / frequency * np.sin(frequency * t)


def trace_norms(x):
    return np.abs(np.linalg.eigvalsh(x)).sum(axis=-1)


def ends_within_the_certificate(generator, start, w):
    """Propagate ``start`` over [0, 0.5, 0.5 + w, 1] and over [0, 0.5, 1]:
    the run with the extra point returns, and its last state lies within
    the certificate over [0, 1] of the other's, plus rounding."""
    extra = propagate(generator, start, [0.0, 0.5, 0.5 + w, 1.0])
    plain = propagate(generator, start, [0.0, 0.5, 1.0])
    assert trace_norms(extra.entries[-1] - plain.entries[-1]) <= PROPAGATE_ERROR_TARGET + 1e-14


class TestIntervalMaps:
    """propagate on a dense restriction: CF4 interval maps, built at once."""

    def test_oscillating_dephasing_matches_closed_form(self, rng):
        generator, gamma = oscillating_dephasing()
        starts = np.stack([DensityMatrix.pure([1, 1j]).entries, random_mixed_state(rng, 2).entries,
                           random_full_rank_state(rng, 2).entries])
        grid = np.linspace(0.0, 3.0, 61)
        traj = propagate(generator, starts, grid)
        factors = np.exp(-gamma(grid))[:, None, None, None]
        exact = np.where(np.eye(2, dtype=bool), starts[None], starts[None] * factors)
        errors = trace_norms(traj.entries - exact).max(axis=-1)
        assert np.all(errors <= 1e-7 * grid + 1e-15)
        np.testing.assert_allclose(traj.derivatives, generator.apply(np.repeat(grid, 3), traj.entries
                                   .reshape(-1, 2, 2)).reshape(traj.entries.shape), rtol=0, atol=1e-15)

    def test_non_commuting_generator_agrees_with_rk4(self, rng):
        # A constant sigma_x drive against a time-dependent damping.
        generator = LindbladGenerator(2, hamiltonian=SIGMA_X, jumps=[
            JumpTerm(CosineSquaredCoefficient(omega=1.5, scale=0.8), np.array([[0, 1], [0, 0]]))])
        starts = [random_full_rank_state(rng, 2), DensityMatrix.pure([1, 0])]
        grid = np.linspace(0.0, 2.0, 41)
        traj = propagate(generator, starts, grid)
        operator = dynamics._integration_operator(generator, traj.entries[0])
        assert isinstance(operator, _Restriction) and not operator.time_independent
        entries, dots, eigenvalues = reference_propagate(
            generator, starts, grid, operator=dynamics._WholeStates(generator))
        assert np.all(trace_norms(traj.entries - entries).max(axis=-1) <= 1e-7 * grid)
        assert np.max(np.abs(traj.spectrum.eigenvalues - eigenvalues)) <= 1e-7 * grid[-1]
        assert np.max(np.abs(traj.derivatives - dots)) <= 1e-7 * grid[-1]

    def test_long_interval_doubles_alone(self, monkeypatch):
        generator, gamma = oscillating_dephasing()
        grid = np.append(np.linspace(0.0, 1.0, 41), 4.0)
        built = []

        def counted(operator, starts, widths, steps, _original=dynamics._cf4_maps):
            built.append((len(starts), steps))
            return _original(operator, starts, widths, steps)

        monkeypatch.setattr(dynamics, "_cf4_maps", counted)
        traj = propagate(generator, DensityMatrix.pure([1, 1]), grid)
        assert built[:2] == [(41, 1), (41, 2)]
        assert len(built) > 2 and all(count == 1 for count, _ in built[2:])
        assert [steps for _, steps in built[2:]] == [4 * 2**j for j in range(len(built) - 2)]
        exact = 0.5 * np.exp(-gamma(grid))
        assert np.all(np.abs(traj.entries[:, 0, 1] - exact) <= 0.5e-7 * grid + 1e-16)

    def test_stall_names_the_interval(self, monkeypatch):
        generator, _ = oscillating_dephasing()
        grid = np.append(np.linspace(0.0, 1.0, 11), 4.0)
        monkeypatch.setattr(dynamics, "MAX_REFINEMENTS", 2)
        with pytest.raises(IntegrationError, match=r"stalled on \[1, 4\].* within 2 doublings"):
            propagate(generator, DensityMatrix.pure([1, 1]), grid)

    def test_a_point_within_rounding_of_the_last_does_not_stall(self):
        # Random d = 2, 3 generators with a timed rate, on [0, 0.5, 0.5 + w,
        # 1]: over [0.5, 0.5 + w] the budget PROPAGATE_ERROR_TARGET * w lies
        # below the rounding of the n- and 2n-step maps' states, which the
        # certificate then takes.
        for seed in range(5):
            for d in (2, 3):
                rng = np.random.default_rng(seed)
                h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
                generator = LindbladGenerator(d, hamiltonian=hermitian_part(h), jumps=[
                    JumpTerm(CosineSquaredCoefficient(omega=1.3, scale=0.6), ops[0]),
                    JumpTerm(0.3, ops[1])])
                for w in (1e-9, 1e-11, 1e-13, 1e-15):
                    ends_within_the_certificate(generator, random_full_rank_state(rng, d), w)

    def test_lost_positivity_names_its_time_as_rk4_does(self, monkeypatch):
        # Without the constant part, Gamma(t) = sin(2t)/2 turns negative
        # after pi/2: the coherence of |+> exceeds 1/2, and the state is no
        # longer PSD at the next grid point, t = 1.6.
        generator, _ = oscillating_dephasing(base=0.0)
        grid = np.linspace(0.0, 3.0, 31)
        for intervals in (dynamics._map_intervals, dynamics._rk4_intervals):
            monkeypatch.setattr(dynamics, "_map_intervals", intervals)
            with pytest.raises(IntegrationError, match=r"^state at t=1\.6 lost positivity: "
                                                       r"density matrix not PSD: .* at stack index \(0,\)$"):
                propagate(generator, DensityMatrix.pure([1, 1]), grid)

    @pytest.mark.parametrize("case", ["stall", "growth"])
    @pytest.mark.parametrize("integrator", ["maps", "rk4"])
    def test_lost_positivity_is_named_before_a_later_loop_error(self, integrator, case,
                                                                monkeypatch):
        # Both integrators validate the states they reached before a stall,
        # an overflow or a state past any density matrix ends their loop.
        # "stall": positivity is lost at t = 1.6 (as above), and the last
        # interval, [3, 12], cannot converge within 2 doublings.  "growth":
        # a negative lowering rate of 50 drives the ground population below
        # zero by t = 0.1 and grows the states without bound; the chained
        # maps overflow at t = 14.3, and RK4 stops at t = 0.1, where the
        # Frobenius norm passes sqrt(2).
        if integrator == "rk4":
            monkeypatch.setattr(dynamics, "_map_intervals", dynamics._rk4_intervals)
        if case == "stall":
            monkeypatch.setattr(dynamics, "MAX_REFINEMENTS", 2)
            generator, start = oscillating_dephasing(base=0.0)[0], DensityMatrix.pure([1, 1])
            grid, lost = np.append(np.linspace(0.0, 3.0, 31), 12.0), r"1\.6"
        else:
            generator = LindbladGenerator(2, jumps=[(-50.0, np.array([[0, 1], [0, 0]]))])
            start = DensityMatrix.diagonal([0.5, 0.5])
            grid, lost = np.linspace(0.0, 16.0, 161), r"0\.1"
        with pytest.raises(IntegrationError, match=rf"^state at t={lost} lost positivity: "
                                                   r"density matrix not PSD: .* at stack index \(0,\)$"):
            propagate(generator, start, grid)

    @pytest.mark.parametrize("case", ["cancelled traces", "overflowed CF4 exponentials",
                                      "overflowed width exponentials"])
    def test_map_failures_warn_nothing(self, case):
        # "cancelled traces": a negative lowering rate of 50 grows the states
        # to about 1e217 by t = 10 with no overflow, and the rounding of the
        # chained rows cancels some traces to 0; those rows are left
        # undivided, and positivity is named lost at t = 0.1.  "overflowed
        # CF4 exponentials": a dephasing map over [1, 1e4] overflows its CF4
        # exponentials, and the state it reaches is named not finite.
        # "overflowed width exponentials": a constant negative dephasing rate
        # overflows the exponential of the width 999, after positivity is
        # lost at t = 1.
        start = DensityMatrix.pure([1, 1])
        if case == "cancelled traces":
            generator = LindbladGenerator(2, jumps=[(-50.0, np.array([[0, 1], [0, 0]]))])
            start, grid = DensityMatrix.diagonal([0.5, 0.5]), np.linspace(0.0, 10.0, 101)
            message = (r"^state at t=0\.1 lost positivity: density matrix not PSD: "
                       r"min eigenvalue -7\.321e\+01 at stack index \(0,\)$")
        elif case == "overflowed CF4 exponentials":
            generator, grid = dephasing_generator(lambda t: 0.5 + np.cos(2 * t)), [0, 1, 1e4]
            message = r"^state at t=10000 is not finite$"
        else:
            generator, grid = dephasing_generator(-1.0), [0, 1, 1e3]
            message = (r"^state at t=1 lost positivity: density matrix not PSD: "
                       r"min eigenvalue -8\.591e-01 at stack index \(0,\)$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match=message):
                propagate(generator, start, grid)

    def test_the_first_failing_interval_doubles_alone(self, monkeypatch):
        # A rate oscillating at 1e9 fails every interval of the grid up to
        # the cap.  The first failing interval doubles alone from its settled
        # start, so the stall is named after one interval's maps, not those
        # of every failing interval.
        generator, _ = oscillating_dephasing(frequency=1e9)
        grid = np.linspace(0.0, 3.0, 751)
        built = []

        def counted(operator, starts, widths, steps, _original=dynamics._cf4_maps):
            built.append((len(starts), steps))
            return _original(operator, starts, widths, steps)

        monkeypatch.setattr(dynamics, "_cf4_maps", counted)
        with pytest.raises(IntegrationError, match=r"^integrator stalled on \[0, 0\.004\]: "
                                                   r"no convergence to 4\.0e-10 within 12 doublings$"):
            propagate(generator, DensityMatrix.pure([1, 1]), grid)
        doublings = dynamics.MAX_REFINEMENTS - 1
        assert built == [(750, 1), (750, 2)] + [(1, 4 * 2 ** j) for j in range(doublings)]

    def test_a_regrowing_run_chains_once_per_doubling(self, monkeypatch):
        # At frequency 1e3 the intervals of the grid end at 8 to 32 CF4
        # steps.  The first failing interval doubles alone and the later ones
        # once per chain, so the grid is chained about as often as one
        # interval doubles, not once per failing interval.
        generator, gamma = oscillating_dephasing(frequency=1e3)
        grid = np.linspace(0.0, 3.0, 751)
        renormalized = []

        def counted(operator, rows, _original=dynamics._renormalized):
            renormalized.append(len(rows))
            return _original(operator, rows)

        monkeypatch.setattr(dynamics, "_renormalized", counted)
        traj = propagate(generator, DensityMatrix.pure([1, 1]), grid)
        exact = 0.5 * np.exp(-gamma(grid))
        assert np.all(np.abs(traj.entries[:, 0, 1] - exact) <= 1e-7 * grid + 1e-15)
        chains = renormalized[1:]  # the first divides the start
        assert chains == [len(grid)] * len(chains)
        assert len(chains) <= dynamics.MAX_REFINEMENTS

    def test_amplifier_truncates_where_rk4_does(self, monkeypatch):
        generator, states, grid = _reference_cases()["bosonic amplifier, tail truncation"]
        trajectories, breaches = [], []
        for intervals in (dynamics._map_intervals, dynamics._rk4_intervals):
            monkeypatch.setattr(dynamics, "_map_intervals", intervals)
            trajectories.append(propagate(generator, states, grid, on_tail_breach="truncate"))
            with pytest.raises(TailMassError) as breach:
                propagate(generator, states, grid)
            breaches.append(str(breach.value).split(" at ")[1])
        mapped, stepped = trajectories
        assert mapped.truncated_at is not None
        assert (len(mapped), mapped.truncated_at) == (len(stepped), stepped.truncated_at)
        assert np.max(trace_norms(mapped.entries - stepped.entries)) <= 1e-7 * grid[-1]
        assert breaches[0] == breaches[1]

    def test_lossy_thermal_fixed_point_stays_fixed(self):
        # N0 = gamma_+ / (gamma_- - gamma_+) = 0.2 is the lossy map's fixed point
        cutoff = 80
        traj = propagate(bosonic_generator(0.2, 1.2, cutoff), thermal_state(0.2, cutoff),
                         np.linspace(0.0, 5.0, 101), on_tail_breach="truncate")
        assert traj.truncated_at is None
        assert np.max(np.abs(traj.entropy_rates())) <= 1e-12

    @pytest.mark.parametrize("cutoff", [40, 80])
    def test_time_dependent_fock_stack_above_the_limit_runs_rk4(self, cutoff, monkeypatch):
        # The m = cutoff populations of a thermal start under a timed rate:
        # the interval maps would build and certify CF4 maps for every
        # interval (0.30 s against 0.06 s by RK4 at cutoff 40, 3.8 s against
        # 0.21 s at cutoff 80), so RK4 integrates the dense restriction.  At
        # cutoff 40 it agrees with the maps, which a raised limit forces,
        # within 5.0e-10 entrywise.
        a = annihilation_operator(cutoff)
        generator = LindbladGenerator(cutoff, jumps=[
            JumpTerm(CosineSquaredCoefficient(omega=1.0, scale=0.2), dagger(a)), (1.2, a)])
        start, grid = thermal_state(0.2, cutoff), np.linspace(0.0, 5.0, 101)
        operator = dynamics._integration_operator(generator, start.entries[None])
        assert isinstance(operator, _Restriction) and not operator.time_independent
        assert len(operator.index) == cutoff
        built = []

        def counted(operator, starts, widths, steps, _original=dynamics._cf4_maps):
            built.append(steps)
            return _original(operator, starts, widths, steps)

        monkeypatch.setattr(dynamics, "_cf4_maps", counted)
        stepped = propagate(generator, start, grid)
        assert built == []
        if cutoff == 40:
            monkeypatch.setattr(dynamics, "_DENSE_COORDINATES", cutoff)
            mapped = propagate(generator, start, grid)
            assert built
            assert np.max(np.abs(stepped.entries - mapped.entries)) <= 1e-9

    def test_restriction_applies_once(self, monkeypatch):
        calls = []
        pick = dynamics._integration_operator

        def counted(generator, states):
            operator = pick(generator, states)
            apply = operator.apply
            operator.apply = lambda t, y: calls.append(t) or apply(t, y)
            return operator

        monkeypatch.setattr(dynamics, "_integration_operator", counted)
        for generator in (dephasing_generator(1.0), oscillating_dephasing()[0]):
            calls.clear()
            traj = propagate(generator, DensityMatrix.pure([1, 1]), np.linspace(0.0, 1.0, 51))
            assert len(calls) == 1 and np.array_equal(calls[0], traj.grid)


def record_pade_calls(monkeypatch) -> list[np.ndarray]:
    """Record every stack that dynamics.expm hands to its Padé kernel, by the
    kernel's name."""
    calls = []
    kernel = dynamics._pade_expm

    def recorded(a):
        calls.append(a)
        return kernel(a)
    monkeypatch.setattr(dynamics, "_pade_expm", recorded)
    return calls


def one_norm_gaps(x, reference):
    """The 1-norm distance of each matrix of a stack from its reference,
    relative to the reference's 1-norm."""
    norm = lambda m: np.abs(m).sum(axis=-2).max(axis=-1)
    return norm(x - reference) / norm(reference)


def mpmath_expm(a):
    """exp of each matrix of a stack at 40 digits, rounded to complex."""
    mpmath = pytest.importorskip("mpmath")
    out = np.empty(a.shape, dtype=complex)
    with mpmath.workdps(40):
        for index in np.ndindex(a.shape[:-2]):
            exp = mpmath.expm(mpmath.matrix(a[index].tolist()))
            out[index] = [[complex(exp[i, j]) for j in range(exp.cols)] for i in range(exp.rows)]
    return out


def random_exponents(rng, d, norms):
    """Seeded complex (len(norms), d, d) exponents with those 1-norms, each
    shifted so that its spectral abscissa is 0 (its exponential stays
    finite at any norm)."""
    g = rng.normal(size=(len(norms), d, d)) + 1j * rng.normal(size=(len(norms), d, d))
    g -= np.linalg.eigvals(g).real.max(axis=-1)[:, None, None] * np.eye(d)
    return g * (np.asarray(norms) / np.abs(g).sum(axis=-2).max(axis=-1))[:, None, None]


class TestExponentials:
    """dynamics.expm: one elementwise exp for a diagonal stack, numpy's
    batched Padé kernel otherwise, with scipy.linalg.expm as the oracle."""

    @pytest.mark.parametrize("shape, dtype", [((6,), complex), ((2, 3), complex), ((5,), float),
                                              ((1,), complex), ((4,), complex)])
    def test_diagonal_stacks_equal_scipy_bit_for_bit(self, shape, dtype, rng, monkeypatch):
        m = 1 if shape == (1,) else 4
        diagonals = rng.normal(scale=3.0, size=shape + (m,))
        if dtype is complex:
            diagonals = diagonals + 1j * rng.normal(scale=3.0, size=diagonals.shape)
        diagonals[..., 0] = 0.0  # a zero exponent among them
        a = np.zeros(shape + (m, m), dtype=dtype)
        np.einsum("...ii->...i", a)[...] = diagonals
        calls = record_pade_calls(monkeypatch)
        out = dynamics.expm(a)
        assert calls == []
        reference = expm(a)
        assert out.dtype == reference.dtype
        assert np.array_equal(out, reference)

    def test_one_non_diagonal_matrix_sends_the_stack_to_the_pade_kernel(self, rng, monkeypatch):
        a = np.zeros((5, 3, 3), dtype=complex)
        np.einsum("...ii->...i", a)[...] = rng.normal(size=(5, 3))
        a[3, 0, 1] = 0.2
        calls = record_pade_calls(monkeypatch)
        out = dynamics.expm(a)
        assert [len(c) for c in calls] == [5]
        assert out.dtype == complex
        assert one_norm_gaps(out, expm(a)).max() <= 1e-14

    def test_dephasing_maps_need_no_scipy(self, rng, monkeypatch):
        # Both map kernels on a dephasing generator, time-dependent (CF4) and
        # constant (one exponential per width), and the whole-space map.
        calls = record_pade_calls(monkeypatch)
        states = [random_mixed_state(rng, 2) for _ in range(3)]
        grid = np.linspace(0.0, 2.0, 21)
        propagate(oscillating_dephasing()[0], states, grid)
        propagate(dephasing_generator(0.7), states, grid)
        intermediate_map(dephasing_generator(lambda t: 0.5 + np.cos(2.0 * t)), 0.2, 1.4)
        assert calls == []
        propagate(random_qubit_generator(rng), states, grid)
        assert calls


class TestPadeKernel:
    """Accuracy of dynamics.expm's Padé kernel against scipy.linalg.expm and
    a 40-digit mpmath reference, and its non-finite inputs."""

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_random_stacks_match_scipy_and_a_40_digit_reference(self, d, rng):
        # One stack per norm, each on its own: up to a 1-norm of 100 within
        # 1e-14 of scipy, and at every norm no farther from the 40-digit
        # reference than twice scipy's own distance, plus 2 eps.
        norms = np.array([1e-2, 1.0, 100.0, 1e3])
        a = random_exponents(rng, d, norms)
        out = np.array([dynamics.expm(m[None])[0] for m in a])
        oracle = expm(a)
        assert np.all(one_norm_gaps(out, oracle)[norms <= 100] <= 1e-14)
        exact = mpmath_expm(a)
        eps = np.finfo(float).eps
        assert np.all(one_norm_gaps(out, exact) <= 2 * one_norm_gaps(oracle, exact) + 2 * eps)

    def test_the_default_gaussian_exponents_match_scipy(self, tmp_path, monkeypatch):
        # The three (1, 40, 40) exponents of the default gaussian_bounds run,
        # exp(h G) at the grid width h = 0.05 of each kind's population
        # generator: real-valued, so the kernel works on their real parts.
        from entroflow.scenarios import DEFAULT_CONFIGS, run_config
        kernel = dynamics._pade_expm
        exponents = record_pade_calls(monkeypatch)
        assert run_config(DEFAULT_CONFIGS["gaussian_bounds"], tmp_path).passed
        assert [a.shape for a in exponents] == [(1, 40, 40)] * 3
        for a in exponents:
            assert a.dtype == float
            assert one_norm_gaps(kernel(a), expm(a)).max() <= 1e-14

    @pytest.mark.parametrize("case", ["constant", "time_dependent"])
    def test_the_driven_qubit_cf4_exponents_match_scipy_and_the_reference(self, case, monkeypatch):
        kernel = dynamics._pade_expm
        exponents = record_pade_calls(monkeypatch)
        first_scipy_use(case)
        a = np.concatenate([e.reshape(-1, 4, 4) for e in exponents])
        out = kernel(a)
        assert one_norm_gaps(out, expm(a)).max() <= 1e-14
        assert one_norm_gaps(out[::10], mpmath_expm(a[::10])).max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("largest", [1e3, 1e15])
    def test_a_stack_of_mixed_norms_keeps_each_matrix_exact(self, largest, rng):
        # One degree for the whole stack, set by its largest norm, but each
        # matrix squared its own number of times: the small ones are as
        # close to scipy as on their own, however large their neighbour.  A
        # neighbour of norm 1e15 would take a stack-wide count to 48
        # squarings, which leaves nothing of a matrix of norm 1e-2.
        norms = np.array([1e-2, 1e-1, 1.0, 10.0, largest])
        a = random_exponents(rng, 6, norms)
        together = dynamics.expm(a)
        alone = np.array([dynamics.expm(m[None])[0] for m in a])
        assert np.array_equal(together[-1], alone[-1])
        assert one_norm_gaps(together[:-1], alone[:-1]).max() <= 1e-15
        assert one_norm_gaps(together[:-1], expm(a[:-1])).max() <= 1e-15

    def test_zero_matrices_give_the_identity(self, rng):
        # Zero exponents among non-diagonal ones, and a stack of zeros sent to
        # the kernel directly: exactly the identity, with no division by
        # their zero norms.
        a = random_exponents(rng, 3, [0.5, 0.5, 0.5])
        a[1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = dynamics.expm(a)
            zeros = dynamics._pade_expm(np.zeros((2, 3, 3), dtype=complex))
        assert np.array_equal(out[1], np.eye(3))
        assert np.array_equal(zeros, np.broadcast_to(np.eye(3), (2, 3, 3)))
        assert one_norm_gaps(out, expm(a)).max() <= 1e-14

    @pytest.mark.parametrize("bad", ["nan", "inf", "overflowing square", "overflowing sixth power",
                                     "overflowing eighth power"])
    def test_non_finite_and_overflowing_matrices_come_out_non_finite(self, bad, rng):
        # Inside the callers' errstate no warning is raised and no exception
        # (no OverflowError from the squaring count, no LinAlgError from the
        # solve): the bad matrix is NaN, and its neighbour in the stack is
        # still its exponential.  The scales make A^2, A^6 or A^8 of a dense
        # 4 x 4 matrix overflow while the lower powers stay finite.
        a = random_exponents(rng, 4, [1.0, 1.0])
        if bad in ("nan", "inf"):
            a[1, 0, 1] = float(bad)
        else:
            a[1] = {"overflowing square": 1e300, "overflowing sixth power": 1e60,
                    "overflowing eighth power": 1e45}[bad] * (1.0 + rng.random((4, 4)))
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            out = dynamics.expm(a)
        assert np.isnan(out[1]).all()
        assert one_norm_gaps(out[0], expm(a[0])) <= 1e-14
        if bad == "nan":  # NaN raises no floating-point flag: silent with no errstate too
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(dynamics.expm(a), out, equal_nan=True)

class TestIntermediateMap:
    def test_oscillating_dephasing_matches_closed_form(self):
        # gamma(t) = 0.5 + cos 2t: coherences scale by exp(-Gamma), Gamma = int_s^t gamma.
        atol = 1e-9
        gen = dephasing_generator(lambda t: 0.5 + np.cos(2.0 * t))
        for s, t in [(0.0, 0.9), (0.3, 2.4), (1.1, 1.9)]:
            gamma = 0.5 * (t - s) + 0.5 * (np.sin(2.0 * t) - np.sin(2.0 * s))
            c = np.exp(-gamma)
            m = intermediate_map(gen, s, t)
            assert np.max(np.abs(m - np.diag([1.0, c, c, 1.0]))) <= atol

    def test_time_independent_matches_expm(self):
        gen = dephasing_generator(1.0)
        m = intermediate_map(gen, 0.3, 1.7)
        direct = expm(1.4 * gen.superoperator(0.0))
        assert np.max(np.abs(m - direct)) <= 1e-9

    def test_identity_at_equal_times(self):
        m = intermediate_map(dephasing_generator(1.0), 0.5, 0.5)
        np.testing.assert_allclose(m, np.eye(4), atol=1e-14)

    def test_composition_law(self):
        gen = dephasing_generator(lambda t: 0.5 + np.cos(2.0 * t))
        full = intermediate_map(gen, 0.2, 1.4)
        left = intermediate_map(gen, 0.8, 1.4)
        right = intermediate_map(gen, 0.2, 0.8)
        np.testing.assert_allclose(full, left @ right, atol=1e-7)

    def test_semigroup_property(self):
        gen = depolarizing_generator(2, 0.3)
        m_t = intermediate_map(gen, 0.0, 0.6)
        m_2t = intermediate_map(gen, 0.0, 1.2)
        np.testing.assert_allclose(m_2t, m_t @ m_t, atol=1e-7)

    def test_dephasing_interval_cptp(self):
        gen = dephasing_generator(1.0)
        interval = intermediate_map(gen, 0.0, 0.8)
        assert channels._choi_minima(interval) >= -1e-9
        assert is_cptp(interval)

    def test_non_finite_time_fails_up_front(self, monkeypatch):
        _forbid_maps(monkeypatch)
        gen = oscillating_dephasing()[0]
        for s, t in [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf)]:
            with pytest.raises(IntegrationError, match="finite"):
                intermediate_map(gen, s, t)
        with pytest.raises(IntegrationError, match="requires s <= t"):
            intermediate_map(gen, 1.0, 0.5)

    @pytest.mark.parametrize("case", ["intermediate_map", "sandwich", "divisibility",
                                      "driven_divisibility", "timed_intermediate_map"])
    def test_overflowing_map_names_its_interval(self, case):
        # A rate of -1e300 overflows every exponential: each route to an
        # interval map, constant or time-ordered, names the interval, with
        # no warning, no NaN claim and no numpy error.
        grown = LindbladGenerator(2, jumps=[(-1e300, SIGMA_Z)])
        calls = {
            "intermediate_map": lambda: intermediate_map(grown, 0.0, 1.0),
            "sandwich": lambda: semigroup_sandwich(grown, np.eye(2) / 2, 1.0),
            "divisibility": lambda: cp_divisibility_check(grown, [0.0, 1.0]),
            "driven_divisibility": lambda: cp_divisibility_check(
                LindbladGenerator(2, hamiltonian=SIGMA_X, jumps=[(-1e300, SIGMA_Z)]), [0.0, 1.0]),
            "timed_intermediate_map": lambda: intermediate_map(LindbladGenerator(2, jumps=[
                (CosineSquaredCoefficient(omega=1.0, scale=-1e300), SIGMA_Z)]), 0.0, 1.0),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match=r"interval map over \[0, 1\] is not finite"):
                calls[case]()


class TestEntropyRate:
    def test_unitary_pure_state_rate_vanishes(self, rng):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gen = LindbladGenerator(2, hamiltonian=0.5 * (h + dagger(h)))
        traj = propagate(gen, DensityMatrix.pure([1, 1j]), np.linspace(0, 1, 11))
        for state, dot in zip(traj.states, traj.derivatives):
            assert abs(entropy_rate(state, dot)) <= 1e-8

    def test_damping_spot_values(self):
        traj = damping_qubit_trajectory(np.array([np.log(2.0), 1.0]))
        rates = traj.entropy_rates()
        assert abs(rates[0]) <= 1e-8
        assert rates[1] == pytest.approx(DAMPING_RATE_AT_ONE, abs=1e-5)

    def test_rejects_traced_direction(self):
        with pytest.raises(ValueError):
            entropy_rate(DensityMatrix.maximally_mixed(2), np.eye(2))


def rank_change_distance(rho, rho_dot) -> float:
    """Time for the smallest eigenvalue to reach 0 at its current speed; inf
    when the state is rank-deficient or that eigenvalue is not moving."""
    es = spectral_decompose(rho)
    lam_min, v = es.eigenvalues[-1], es.eigenvectors[:, -1]
    speed = abs(float(np.real(np.conj(v) @ as_matrix(rho_dot) @ v)))
    if lam_min <= ZERO_EIGENVALUE_RTOL * es.eigenvalues[0] or speed == 0.0:
        return np.inf
    return float(lam_min) / speed


class TestEntropyRateFd:
    def test_damping_matches_analytic(self):
        traj = damping_qubit_trajectory(np.array([0.5, 1.0]))
        fd = entropy_rate_fd(traj, 1, h=1e-4)
        assert fd == pytest.approx(DAMPING_RATE_AT_ONE, abs=1e-6)

    def test_oscillatory_quarter_point(self):
        traj = oscillating_qubit_trajectory(np.array([0.2, 0.25, 0.3]))
        assert entropy_rate_fd(traj, 1, h=1e-4) == pytest.approx(0.0, abs=1e-6)

    def test_richardson_improves_near_rank_change(self):
        grid = np.array([0.4, 0.499, 0.6])  # 1e-3 away from the t = 1/2 rank change
        traj = oscillating_qubit_trajectory(grid)
        exact = traj.entropy_rates()[1]
        assert abs(entropy_rate_fd(traj, 1, h=1e-4) - exact) <= 1e-6

    def test_stacked_table_matches_pointwise_stencils(self):
        # Points next to the rank changes at t = 1/2 and 1 take a capped step.
        grid = np.array([0.1, 0.3, 0.499, 0.7, 0.9995])
        traj = oscillating_qubit_trajectory(grid)
        table = entropy_rate_fd(traj, np.arange(len(grid)), h=1e-4)

        def central_difference(t, h):
            def entropy_at(tau):
                return von_neumann_entropy(hermitian_part(oscillating_qubit_state(tau)))
            return (entropy_at(t + h) - entropy_at(t - h)) / (2.0 * h)

        for k, t in enumerate(grid):
            h = min(1e-4, 0.01 * rank_change_distance(traj.spectrum[k], traj.derivatives[k]))
            coarse = central_difference(t, h)
            fine = central_difference(t, 0.5 * h)
            assert table[k] == pytest.approx((4.0 * fine - coarse) / 3.0, rel=1e-12, abs=1e-12)
            one = entropy_rate_fd(traj, k, h=1e-4)
            assert isinstance(one, float) and one == table[k]
        assert 0.01 * rank_change_distance(traj.spectrum[4], traj.derivatives[4]) < 1e-4

    def test_grid_only_uses_neighbors(self, rng):
        from entroflow.dynamics import Trajectory

        gen = random_qubit_generator(rng)
        grid = np.linspace(0, 0.5, 51)
        traj = propagate(gen, random_full_rank_state(rng, 2), grid)
        grid_only = Trajectory(grid=traj.grid, states=traj.entries,
                               derivatives=traj.derivatives)
        fd = entropy_rate_fd(grid_only, 25)
        rate = entropy_rate(traj.states[25], traj.derivatives[25])
        assert fd == pytest.approx(rate, abs=1e-3)
        with pytest.raises(IndexError):
            entropy_rate_fd(grid_only, 0)

    def test_stacked_trajectory_rejected(self):
        traj = family_trajectory(GadcFamily(5.0), [DensityMatrix.maximally_mixed(2)] * 2,
                                 np.linspace(0.1, 1.0, 10))
        with pytest.raises(IntegrationError, match="one-state"):
            entropy_rate_fd(traj, 3)

    def test_theorem1_agreement_on_random_trajectories(self, rng):
        for dim in (2, 3):
            gen = random_qubit_generator(rng, dim=dim)
            traj = propagate(gen, random_full_rank_state(rng, dim), np.linspace(0, 0.6, 13))
            for k in (4, 8):
                rate = entropy_rate(traj.states[k], traj.derivatives[k])
                fd = entropy_rate_fd(traj, k, h=1e-4)
                assert abs(rate - fd) <= 1e-6


def _forbid_maps(monkeypatch):
    """Make building any interval map fail the test."""
    def built(*args):
        raise AssertionError("an interval map was built")
    for kernel in ("_cf4_maps", "_width_maps"):
        monkeypatch.setattr(dynamics, kernel, built)


def test_one_whole_space_restriction_per_generator(rng, monkeypatch):
    # superoperator, intermediate_map, cp_divisibility_check,
    # semigroup_sandwich and a stack that touches every coordinate all read
    # the generator's one restriction to every coordinate, built on first use.
    built, init = [], _Restriction.__init__
    monkeypatch.setattr(_Restriction, "__init__",
                        lambda self, generator, index: built.append((generator, len(index)))
                        or init(self, generator, index))
    grid = np.linspace(0.0, 1.0, 6)
    semigroup = depolarizing_generator(2, 0.1)  # time independent, self-adjoint and unital
    timed = LindbladGenerator(2, jumps=[(CosineSquaredCoefficient(omega=1.0), SIGMA_Z),
                                        (0.3, SIGMA_X)])
    for generator in (semigroup, timed):
        generator.superoperator(0.3)
        intermediate_map(generator, 0.1, 0.6)
        cp_divisibility_check(generator, grid)
        if generator is semigroup:
            semigroup_sandwich(generator, random_full_rank_state(rng, 2), 0.5)
        traj = propagate(generator, random_full_rank_state(rng, 2), grid)
        assert traj.operator is generator.restricted(np.arange(4))
    assert built == [(semigroup, 4), (timed, 4)]
    assert generator.restricted(np.array([0, 3])) is not generator.restricted(np.array([0, 3]))
    assert built[2:] == [(timed, 2), (timed, 2)]


def _per_interval_divisibility(generator, grid):
    """Oracle for :func:`cp_divisibility_check`: its Choi minima, trace
    defects and verdict from one interval map at a time, with the Choi
    matrix, its reduced trace and each sampled state's image written out."""
    grid = np.asarray(grid, dtype=float)
    d = generator.dim
    whole = generator.restricted(np.arange(d * d))
    maps = [m.T for m in dynamics._certified_maps(whole, grid[:-1], np.diff(grid))]
    minima, defects = [], []
    for m in maps:
        choi = m.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
        minima.append(float(np.linalg.eigvalsh(hermitian_part(choi))[0]))
        reduced = np.einsum("iaja->ij", choi.reshape(d, d, d, d))
        defects.append(float(np.max(np.abs(reduced - np.eye(d)))))
    if all(lo >= -dynamics.DIVISIBILITY_CHOI_ATOL and tr <= 1e-7
           for lo, tr in zip(minima, defects)):
        return minima, defects, "cp_divisible"
    worst = maps[int(np.argmin(minima))]
    rng = np.random.default_rng(dynamics.POSITIVITY_SEED)
    for _ in range(dynamics.POSITIVITY_SAMPLES):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        image = (worst @ np.outer(v, v.conj()).reshape(-1)).reshape(d, d)
        if spectral_decompose(hermitian_part(image)).eigenvalues[-1] < -1e-8:
            return minima, defects, "not_cp_divisible"
    return minima, defects, "p_divisible_only_undetermined"


# The generators of the cases below, the oscillating profile over a whole
# period, and the benchmark's grid at the edge of its window.
DIVISIBILITY_CASES = {
    "markovian": lambda: (dephasing_generator(1.0), np.linspace(0, 1, 6)),
    "negative_rate": lambda: (dephasing_generator(lambda t: -np.sin(t)), np.linspace(0.5, 2.5, 6)),
    "eternal": lambda: (LindbladGenerator(2, jumps=[
        JumpTerm(0.5, SIGMA_X), JumpTerm(0.5, SIGMA_Y),
        JumpTerm(lambda t: -0.5 * np.tanh(t), SIGMA_Z)]), np.linspace(0.5, 2.0, 4)),
    "bosonic_amplifier": lambda: (bosonic_generator(1.5, 0.5, 6), np.linspace(0, 0.4, 3)),
    "whole_period": lambda: (oscillating_dephasing()[0], np.linspace(0.0, 3.0, 31)),
    "edge_of_window": lambda: (oscillating_dephasing()[0], np.array([1.0, 1.1, 1.2])),
}


class TestCpDivisibility:
    def test_markovian_dephasing(self):
        report = cp_divisibility_check(dephasing_generator(1.0), np.linspace(0, 1, 6))
        assert report.verdict == "cp_divisible"
        assert report.min_sampled_rates[0] >= 0.0

    def test_negative_rate_dephasing(self):
        gen = dephasing_generator(lambda t: -np.sin(t))
        report = cp_divisibility_check(gen, np.linspace(0.5, 2.5, 6))
        assert report.verdict == "not_cp_divisible"
        assert report.worst_choi_eigenvalue < -1e-9
        assert report.min_sampled_rates[0] < 0.0

    def test_eternal_example_keeps_positivity(self):
        gen = LindbladGenerator(2, jumps=[
            JumpTerm(0.5, SIGMA_X), JumpTerm(0.5, SIGMA_Y),
            JumpTerm(lambda t: -0.5 * np.tanh(t), SIGMA_Z)])
        report = cp_divisibility_check(gen, np.linspace(0.5, 2.0, 4))
        assert report.verdict == "p_divisible_only_undetermined"

    def test_bosonic_amplifier(self):
        gen = bosonic_generator(1.5, 0.5, 6)
        report = cp_divisibility_check(gen, np.linspace(0, 0.4, 3))
        assert report.verdict == "cp_divisible"

    @pytest.mark.parametrize("grid", [np.array([1.0, 1.1, 1.2]), np.linspace(0.0, 3.0, 31)],
                             ids=["edge_of_window", "whole_period"])
    def test_choi_minima_match_closed_form(self, grid):
        # Coherences scale by exp(-dGamma) over an interval, so its Choi
        # matrix has eigenvalues 1 -+ exp(-dGamma) and 0: the minimum is
        # min(0, 1 - exp(-dGamma)), negative where Gamma decreases.
        generator, gamma = oscillating_dephasing()
        report = cp_divisibility_check(generator, grid)
        expected = np.minimum(0.0, 1.0 - np.exp(-np.diff(gamma(grid))))
        minima = [e.choi_min_eigenvalue for e in report.intervals]
        assert [(e.t_start, e.t_end) for e in report.intervals] == list(zip(grid[:-1], grid[1:]))
        assert np.max(np.abs(np.array(minima) - expected)) <= 1e-8
        assert np.any(expected < -1e-3) and report.verdict == "not_cp_divisible"

    @pytest.mark.parametrize("case", DIVISIBILITY_CASES.values(), ids=DIVISIBILITY_CASES.keys())
    def test_stacked_check_is_the_per_interval_loop(self, case):
        generator, grid = case()
        report = cp_divisibility_check(generator, grid)
        minima, defects, verdict = _per_interval_divisibility(generator, grid)
        assert [e.choi_min_eigenvalue for e in report.intervals] == minima
        assert [e.trace_defect for e in report.intervals] == defects
        assert report.verdict == verdict

    def test_grid_of_one_point_fails_up_front(self, monkeypatch):
        _forbid_maps(monkeypatch)
        with pytest.raises(IntegrationError, match="at least 2"):
            cp_divisibility_check(oscillating_dephasing()[0], [0.5])

    def test_repeated_time_fails_up_front(self, monkeypatch):
        _forbid_maps(monkeypatch)
        for grid in ([0.0, 0.0, 1.0], [0.0, 1.0, 0.5]):
            with pytest.raises(IntegrationError, match="time grid must be strictly increasing"):
                cp_divisibility_check(oscillating_dephasing()[0], grid)

    def test_non_finite_time_fails_up_front(self, monkeypatch):
        _forbid_maps(monkeypatch)
        for grid in ([0.0, np.nan, 1.0], [0.0, np.inf]):
            with pytest.raises(IntegrationError, match="finite"):
                cp_divisibility_check(oscillating_dephasing()[0], grid)


class TestChannelFamilies:
    @pytest.mark.parametrize("grid", [[0.1, np.nan, 1.0], [0.0, np.inf]], ids=["nan", "inf"])
    def test_trajectory_rejects_non_finite_times(self, grid):
        with pytest.raises(IntegrationError, match="finite"):
            family_trajectory(GadcFamily(5.0), DensityMatrix.maximally_mixed(2), grid)
        states = np.stack([np.eye(2) / 2] * len(grid))
        with pytest.raises(IntegrationError, match="finite"):
            Trajectory(grid, states, np.zeros_like(states))

    @pytest.mark.parametrize("grid", [[], [[0.0, 1.0], [2.0, 3.0]]], ids=["empty", "2-D"])
    def test_trajectory_rejects_a_grid_off_one_axis(self, grid):
        with pytest.raises(IntegrationError, match="on one axis"):
            family_trajectory(GadcFamily(5.0), DensityMatrix.maximally_mixed(2), grid)

    def test_gadc_family_states(self, rng):
        fam = GadcFamily(5.0)
        rho0 = random_mixed_state(rng, 2)
        for t in (0.0, 0.4, 1.1):
            np.testing.assert_allclose(fam.states([rho0], [t])[0, 0], gadc(t, 5.0).apply(rho0),
                                       atol=1e-14)

    def test_gadc_family_trajectory_derivatives(self):
        fam = GadcFamily(5.0)
        rho0 = DensityMatrix.maximally_mixed(2)
        grid = np.linspace(0.0, 1.0, 11)
        traj = family_trajectory(fam, rho0, grid)
        t = 0.5
        w_dot = -10 * np.sin(10 * t) * (1 - np.exp(-t)) + np.cos(10 * t) * np.exp(-t)
        np.testing.assert_allclose(traj.derivatives[5], 0.5 * np.diag([w_dot, -w_dot]), atol=1e-9)

    def test_dephasing_family_matches_generator(self, rng):
        gamma = 1.0
        fam = DephasingFamily(lambda t: gamma * t)
        gen = dephasing_generator(gamma)
        rho0 = random_mixed_state(rng, 2)
        grid = np.linspace(0, 1.5, 16)
        traj_fam = family_trajectory(fam, rho0, grid)
        traj_gen = propagate(gen, rho0, grid)
        for a, b in zip(traj_fam.states, traj_gen.states):
            assert np.max(np.abs(a.entries - b.entries)) <= 1e-7

    def test_dephasing_step_where_gamma_decreases_is_not_cp(self):
        # gamma(t) = 0.5 + cos 2t is negative on (pi/3, 2pi/3), so Gamma decreases
        # there and the interval map amplifies coherences: no Kraus form exists.
        fam = DephasingFamily(lambda t: 0.5 * t + 0.5 * np.sin(2.0 * t))
        _, step_map = reference_maps(fam)
        step = step_map(1.5, 1e-3)
        c = np.exp(fam.gamma_integral(1.5) - fam.gamma_integral(1.5 + 1e-3))
        assert c > 1.0
        np.testing.assert_allclose(step, np.diag([1.0, c, c, 1.0]), rtol=1e-12)
        assert not is_cptp(step)
        assert is_cptp(step_map(0.5, 1e-3))


def _oscillating_family():
    # gamma(t) = 0.5 + cos 2t is negative on (pi/3, 2pi/3): Gamma decreases there.
    return DephasingFamily(lambda t: 0.5 * t + 0.5 * np.sin(2.0 * t))


class TestStackedFamilyMaps:
    """superoperators over a grid are the per-time reference maps, stacked."""

    TIMES = np.array([0.0, 0.3, 1.2, 1.5, 1.9, 2.7])

    @pytest.mark.parametrize("family", [
        GadcFamily(5.0), _oscillating_family(), DephasingFamily(lambda t: t),
    ], ids=["gadc", "oscillating_dephasing", "markovian_dephasing"])
    def test_stacks_equal_per_time_maps(self, family):
        at, _ = reference_maps(family)
        stacked = family.superoperators(self.TIMES)
        assert stacked.shape == (len(self.TIMES), 4, 4)
        for m, t in zip(stacked, self.TIMES):
            np.testing.assert_allclose(m, at(t), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("family, k_tol", [
        (GadcFamily(5.0), 1.3e-5), (_oscillating_family(), 6e-7),
        (DephasingFamily(lambda t: t), 1e-7),
        (dephasing_generator(lambda t: 0.5 + np.cos(2 * t)), 6e-7),
    ], ids=["gadc", "oscillating_dephasing", "markovian_dephasing", "generator"])
    def test_exact_limits_match_finite_differences(self, family, k_tol):
        # K_t against the Richardson quotient 2 q(eps/2) - q(eps) of the steps,
        # q(eps) = (M_{t+eps,t} - I)/eps at eps = 1e-3, whose O(eps^2) error on
        # TIMES is 1.25e-5 (GADC), 5.3e-7 (oscillating dephasing, generator) and
        # 8.3e-8 (Markovian dephasing).  A generator's K_t is L_t, and its steps
        # are intermediate maps.  d/dt M_{t,0} of a family against the central
        # difference of the maps with h = 1e-5, taken about t + h so that no
        # time is negative: 7.4e-9 at most (GADC).
        eps, h = 1e-3, 1e-5

        if isinstance(family, LindbladGenerator):
            def step(t, e):
                return intermediate_map(family, t, t + e)
            generators = superoperators(family, self.TIMES)
        else:
            _, step = reference_maps(family)
            generators = family.step_generators(self.TIMES)

        def quotient(e):
            steps = np.stack([step(t, e) for t in self.TIMES])
            return (steps - np.eye(4)) / e

        assert generators.shape == (len(self.TIMES), 4, 4)
        np.testing.assert_allclose(generators, 2 * quotient(eps / 2) - quotient(eps),
                                   rtol=0, atol=k_tol)
        if isinstance(family, LindbladGenerator):
            return
        mid = self.TIMES + h
        central = (family.superoperators(mid + h) - family.superoperators(mid - h)) / (2 * h)
        np.testing.assert_allclose(family.derivatives(mid), central, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("base, amplitude, frequency",
                             [(0.5, 1.0, 2.0), (1.0, 0.0, 1.0), (0.3, -0.2, 7.0)])
    def test_dephasing_rate_is_exact(self, base, amplitude, frequency):
        t = np.linspace(0.0, 3.0, 301)
        fam = DephasingFamily(lambda s: base * s + (amplitude / frequency) * np.sin(frequency * s))
        expected = np.zeros((len(t), 4, 4))
        expected[:, 1, 1] = expected[:, 2, 2] = -(base + amplitude * np.cos(frequency * t))
        np.testing.assert_allclose(fam.step_generators(t), expected, rtol=0, atol=1e-14)

    def test_dephasing_rate_needs_complex_times(self):
        fam = DephasingFamily(lambda t: np.real(t))  # Gamma(t) = t, read at real times only
        with pytest.raises(ChannelError, match="complex time"):
            fam.step_generators([0.5])

    @pytest.mark.parametrize("s", [3.0, 4.0])
    def test_dephasing_gamma_must_be_real_at_real_times(self, s):
        # Gamma = 1 - [(1 + it)^(1-s) + (1 - it)^(1-s)]/2 is real on the real
        # axis but computed in complex arithmetic, so its complex step is not
        # the rate (s - 1)(1 + t^2)^(-s/2) sin(s arctan t); the same Gamma in
        # real arithmetic gives that rate to rounding.
        with pytest.raises(ChannelError, match="real arithmetic"):
            DephasingFamily(lambda t: 1.0 - 0.5 * ((1 + 1j * t) ** (1 - s) + (1 - 1j * t) ** (1 - s)))
        fam = DephasingFamily(
            lambda t: 1.0 - (1.0 + t * t) ** ((1 - s) / 2) * np.cos((s - 1) * np.arctan(t)))
        t = np.linspace(0.0, 10.0, 11)
        rate = (s - 1) * (1.0 + t * t) ** (-s / 2) * np.sin(s * np.arctan(t))
        np.testing.assert_allclose(-fam.step_generators(t)[:, 1, 1], rate, rtol=0, atol=1e-15)

    def test_dephasing_gamma_complex_past_the_probe_is_refused(self):
        # Gamma = log 2 - log(2 - t) is real at the probe t = 0 and complex past t = 2.
        fam = DephasingFamily(lambda t: np.log(2.0) - np.emath.log(2.0 - t))
        fam.superoperators([0.0, 1.0])
        with pytest.raises(ChannelError, match="real arithmetic"):
            fam.superoperators([1.0, 3.0])

    @pytest.mark.parametrize("make", [lambda g: DephasingFamily(g), lambda g: GadcFamily(5.0)],
                             ids=["dephasing", "gadc"])
    def test_evolve_builds_the_maps_once(self, rng, make):
        # evolve's states, derivatives and K_t read one stack of maps: a
        # dephasing family calls Gamma once at real times (the maps) and once
        # at complex times (the rates of K_t), and every array is the one the
        # separate builds of states, derivatives and step generators give, bit
        # for bit.
        calls = []

        def gamma_integral(t):
            calls.append(np.iscomplexobj(t))
            return 0.5 * t + 0.5 * np.sin(2.0 * t)

        family = make(gamma_integral)
        starts = np.stack([random_mixed_state(rng, 2).entries for _ in range(3)])
        calls.clear()
        states, dots, spectrum, steps = family.evolve(starts, self.TIMES)
        if isinstance(family, DephasingFamily):
            assert calls == [False, True]
        expected = hermitian_part(family.states(starts, self.TIMES))
        np.testing.assert_array_equal(states, expected)
        np.testing.assert_array_equal(spectrum.eigenvalues,
                                      spectral_decompose(expected).eigenvalues)
        np.testing.assert_array_equal(dots, hermitian_part(
            dynamics.apply_superoperators(family.derivatives(self.TIMES), starts)))
        np.testing.assert_array_equal(steps, family.step_generators(self.TIMES))

    def test_states_map_every_initial_state_through_every_time(self, rng):
        fam = GadcFamily(5.0)
        rho0s = [random_mixed_state(rng, 2) for _ in range(3)]
        states = fam.states(rho0s, self.TIMES)
        assert states.shape == (len(self.TIMES), 3, 2, 2)
        for t, row in zip(self.TIMES, states):
            for rho0, state in zip(rho0s, row):
                np.testing.assert_allclose(state, gadc(t, 5.0).apply(rho0), atol=1e-14)

    def test_family_trajectory_rates_match_finite_differences(self, rng):
        # The trajectory keeps its closed form: the FD oracle reads the family
        # off the grid, the rates read the exact derivative on it.
        grid = np.linspace(0.1, 1.0, 10)
        traj = family_trajectory(GadcFamily(5.0), random_full_rank_state(rng, 2), grid)
        rates = traj.entropy_rates()
        for k in range(len(grid)):
            assert entropy_rate_fd(traj, k) == pytest.approx(rates[k], abs=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(IntegrationError, match="negative time"):
            GadcFamily(5.0).states([DensityMatrix.maximally_mixed(2)], [-0.1, 0.2])

    def test_nan_maps_and_times_are_refused(self):
        # A map with a NaN entry does not preserve the trace, a NaN coherence
        # factor lies outside [-1, 1], and a non-finite time is named before
        # any map is built.
        for family, times in ((GadcFamily(5.0), [np.nan]), (GadcFamily(np.nan), [1.0])):
            with pytest.raises(ChannelError, match="not trace preserving: defect nan"):
                family.superoperators(times)
        dephasing = DephasingFamily(lambda t: 0.5 * t)
        with pytest.raises(ChannelError, match=r"coherence factor must lie in \[-1, 1\]"):
            dephasing.superoperators([np.nan])
        with pytest.raises(IntegrationError, match=r"non-finite or negative time \[-inf  nan\]"):
            dephasing.states(np.eye(2) / 2, [0.5, np.nan, -np.inf, np.nan])


class TestStackedTrajectory:
    """One eigh over the (T, d, d) states gives every spectral read."""

    @staticmethod
    def left_out_rate(rho, rho_dot):
        """-sum over the kernel of lambda_dot (log max(lambda, eps lambda_max) + 1),
        for one state, from its own eigh."""
        eigenvalues, vectors = np.linalg.eigh(rho)
        kernel = eigenvalues <= ZERO_EIGENVALUE_RTOL * eigenvalues.max()
        speeds = np.einsum("ji,jk,ki->i", vectors.conj(), rho_dot, vectors).real
        floor = np.finfo(float).eps * eigenvalues.max()
        return -np.sum(speeds[kernel] * (np.log(np.maximum(eigenvalues[kernel], floor)) + 1.0))

    @classmethod
    def per_state(cls, traj):
        states = [DensityMatrix(rho) for rho in traj.entries]
        return (np.array([von_neumann_entropy(s) for s in states]),
                np.array([entropy_rate(s, dot) for s, dot in zip(states, traj.derivatives)]),
                np.array([s.spectrum.rank for s in states]),
                np.array([cls.left_out_rate(rho, dot)
                          for rho, dot in zip(traj.entries, traj.derivatives)]))

    def test_matches_per_state_formulas_with_one_eigh(self, rng, monkeypatch):
        gen = random_qubit_generator(rng, dim=3)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        grid = np.linspace(0.0, 0.6, 31)
        run = propagate(gen, DensityMatrix.pure(psi), grid)  # rank 1 -> 3 at t = 0+
        calls = count_eig_calls(monkeypatch)
        traj = Trajectory(grid, run.entries, run.derivatives)
        stacked = (traj.entropies(), traj.entropy_rates(), traj.ranks(), traj.left_out_rates())
        assert calls == ["eigh"]
        entropies, rates, ranks, left_out = self.per_state(traj)
        np.testing.assert_allclose(stacked[0], entropies, rtol=0, atol=1e-14)
        np.testing.assert_allclose(stacked[1], rates, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(stacked[2], ranks)
        np.testing.assert_allclose(stacked[3], left_out, rtol=1e-9, atol=1e-12)
        assert ranks[0] == 1 and ranks[-1] == 3
        assert (np.abs(left_out) > EPS_WITNESS).tolist() == [True] + [False] * (len(grid) - 1)

    def test_states_carry_the_stored_spectrum(self, rng, monkeypatch):
        grid = np.linspace(0.0, 1.0, 11)
        traj = family_trajectory(GadcFamily(5.0), random_mixed_state(rng, 2), grid)
        calls = count_eig_calls(monkeypatch)
        for k, state in enumerate(traj.states):
            np.testing.assert_array_equal(state.entries, traj.entries[k])
            np.testing.assert_array_equal(state.spectrum.eigenvalues, traj.spectrum.eigenvalues[k])
            assert von_neumann_entropy(state) == pytest.approx(traj.entropies()[k], abs=1e-15)
        assert calls == []

    @pytest.mark.parametrize("n_states", [None, 1, 5])
    def test_batched_left_out_rates_match_the_one_state_formula(self, rng, n_states):
        grid = np.cumsum(rng.uniform(0.5, 1.5, size=40)) * 1e-2
        shape = (len(grid),) if n_states is None else (len(grid), n_states)
        # diagonal states of rank 1, 2 or 3 whose kernels hold exact zeros and
        # populations below ZERO_EIGENVALUE_RTOL, moving at up to 1e-9 each,
        # which the support's populations offset to keep the trace
        ranks = rng.integers(1, 4, size=shape)
        support = np.arange(3) < ranks[..., None]
        tails = np.where(~support, rng.choice([0.0, 1e-14, 1e-13], size=shape + (3,)), 0.0)
        states = np.where(support, (1.0 - tails.sum(axis=-1, keepdims=True)) / ranks[..., None],
                          tails)
        speeds = np.where(support, rng.normal(size=shape + (3,)),
                          rng.uniform(-1e-9, 1e-9, size=shape + (3,)))
        speeds -= support * speeds.sum(axis=-1, keepdims=True) / ranks[..., None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = Trajectory(grid, states[..., None] * np.eye(3), speeds[..., None] * np.eye(3))
            left_out = traj.left_out_rates()
        assert left_out.shape == shape and np.all(np.isfinite(left_out))
        columns = (states, speeds) if n_states else (states[:, None], speeds[:, None])
        reference = np.array([[self.left_out_rate(np.diag(p), np.diag(v)) for p, v in zip(*row)]
                              for row in zip(*columns)])
        np.testing.assert_allclose(left_out, reference.reshape(shape), rtol=1e-13, atol=0)
        assert np.all((left_out == 0.0) == (ranks == 3))

    @pytest.mark.parametrize("kind", ["amplifier", "lossy", "additive"])
    @pytest.mark.parametrize("start", ["thermal", "vacuum"])
    def test_kept_rows_read_the_whole_entropy_rate(self, kind, start):
        # The rule's premise: where the left-out part is within EPS_WITNESS,
        # the rate on the support is the entropy rate.  At cutoff 40 the
        # thermal start (N0 = 0.2) keeps every row although its Fock tail
        # keeps crossing ZERO_EIGENVALUE_RTOL; the vacuum drops t = 0, where
        # the first excited level enters its support.
        traj = propagate(bosonic_generator(*GAUSSIAN_RATES[kind], 40),
                         thermal_state(0.2 if start == "thermal" else 0.0, 40),
                         np.linspace(0.0, 5.0, 101), on_tail_breach="truncate")
        excluded = np.abs(traj.left_out_rates()) > EPS_WITNESS
        assert np.flatnonzero(excluded).tolist() == ([0] if start == "vacuum" else [])
        kept = np.flatnonzero(~excluded[1:-1]) + 1
        np.testing.assert_allclose(traj.entropy_rates()[kept], entropy_rate_fd(traj, kept),
                                   rtol=0, atol=1e-8)

    def test_steady_kernels_exclude_no_row_without_a_warning(self, rng):
        # A pure state under a Hamiltonian of norm 1e6 keeps its rank: its
        # kernel moves only by rounding of that scale, far below EPS_WITNESS.
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (h + dagger(h)) * (1e6 / np.linalg.norm(h + dagger(h), 2))
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = propagate(LindbladGenerator(3, hamiltonian=h), DensityMatrix.pure(psi),
                             np.linspace(0.0, 1e-5, 21))
            left_out = traj.left_out_rates()
            assert np.all(traj.ranks() == 1)
            assert np.max(np.abs(left_out)) <= EPS_WITNESS
            # exact zeros of a pure, non-diagonal stack floor at eps * lambda_max
            pure = np.stack([np.outer(psi, psi.conj()) / np.vdot(psi, psi).real] * 3)
            assert np.all(np.isfinite(Trajectory([0.0, 1.0, 2.0], pure,
                                                 np.zeros_like(pure)).left_out_rates()))

    def test_entering_eigenvalue_excludes_its_row_alone(self):
        # |+> under unit dephasing: at t = 0 the kernel fills at rate 1/2, so
        # the left-out part is -(1/2)(log eps + 1) = 17.5; every later row is
        # full rank and leaves nothing out.
        traj = propagate(dephasing_generator(1.0), DensityMatrix(np.full((2, 2), 0.5)),
                         np.linspace(0.0, 1.0, 11))
        left_out = traj.left_out_rates()
        assert left_out[0] == pytest.approx(-0.5 * (np.log(np.finfo(float).eps) + 1.0), rel=1e-9)
        assert np.flatnonzero(np.abs(left_out) > EPS_WITNESS).tolist() == [0]

    def test_off_grid_states_match_one_state_rk4(self, rng):
        gen = random_qubit_generator(rng, dim=3)
        grid = np.linspace(0.0, 0.5, 11)
        traj = propagate(gen, [random_full_rank_state(rng, 3) for _ in range(3)], grid)
        columns, times = [2, 0, 1, 2], [0.013, 0.27, 0.5, 0.449]
        stacked = states_off_grid(traj, columns, times)
        for n, t, state in zip(columns, times, stacked):
            k = int(np.argmin(np.abs(grid - t)))
            fine = hermitian_part(_rk4_segment(gen, traj.entries[k, n], float(grid[k]), t, 4096))
            assert trace_norms(state - fine) <= PROPAGATE_ERROR_TARGET * abs(t - grid[k])
            column = propagate(gen, traj.entries[0, n], grid)
            np.testing.assert_allclose(states_off_grid(column, [0], [t])[0], state, atol=1e-14)

    def test_restricted_rows_take_one_time_each(self, rng):
        # (N, m) coordinate rows of a qubit stack (m = 4) at per-row times,
        # through the dense restriction, against the whole-state segment;
        # then states_off_grid, whose certified RK4 on this restriction
        # carries each stored state to its time as the dephasing closed form
        # rho_01(t) = rho_01(s) exp(-(Gamma(t) - Gamma(s))) does.
        gen = dephasing_generator(lambda t: 0.5 + np.cos(2.0 * t))
        starts = np.stack([random_mixed_state(rng, 2).entries for _ in range(6)])
        t0 = rng.uniform(0.0, 2.5, size=6)
        t1 = t0 + rng.uniform(0.01, 0.2, size=6)
        operator = dynamics._integration_operator(gen, starts)
        assert isinstance(operator, _Restriction) and len(operator.index) == 4
        rows = _rk4_segment(operator, operator.coordinates(starts), t0, t1, 8)
        assert rows.shape == (6, 4)
        whole = _rk4_segment(dynamics._WholeStates(gen), starts, t0, t1, 8)
        np.testing.assert_allclose(operator.states(rows), whole, rtol=0, atol=1e-12)

        grid = np.linspace(0.0, 3.0, 31)
        traj = propagate(gen, starts[:3], grid)
        columns, times = np.array([0, 2, 1, 0, 2, 1]), np.array([0.013, 0.27, 1.5, 2.449, 2.99, 0.7])
        nearest = np.argmin(np.abs(grid[None, :] - times[:, None]), axis=1)
        integral = oscillating_dephasing()[1]  # Gamma(t) of the rate 0.5 + cos 2t
        expected = dephased(traj.entries[nearest, columns],
                            integral(times) - integral(grid[nearest]))
        np.testing.assert_allclose(states_off_grid(traj, columns, times), expected,
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 20.0])
    def test_off_grid_states_meet_the_certificate(self, rng, scale):
        # A driven qubit with a time-dependent rate: each off-grid state, from
        # its nearest grid point before or after, lies within the certificate
        # of every propagated grid state of a 4096-substep RK4 from there.
        # 1.2 lies one ulp before the grid point 1.2000000000000002, where
        # the certificate is the rounding the reference itself carries.
        gen = driven_qubit(scale)
        grid = np.linspace(0.0, 2.0, 21)
        traj = propagate(gen, [random_mixed_state(rng, 2) for _ in range(3)], grid)
        operator = traj.operator
        assert isinstance(operator, _Restriction) and not operator.time_independent
        columns, times = np.array([1, 0, 2, 1]), np.array([0.013, 0.47, 1.2, 1.99])
        nearest = np.argmin(np.abs(grid[None, :] - times[:, None]), axis=1)
        fine = hermitian_part(operator.states(_rk4_segment(
            operator, operator.coordinates(traj.entries[nearest, columns]), grid[nearest], times,
            4096)))
        gaps = trace_norms(states_off_grid(traj, columns, times) - fine)
        assert np.all(gaps <= np.maximum(PROPAGATE_ERROR_TARGET * np.abs(times - grid[nearest]),
                                         4096 * np.finfo(float).eps))

    @pytest.mark.parametrize("scale", [1.0, 20.0])
    def test_times_within_rounding_of_a_grid_point_do_not_stall(self, rng, scale):
        # Widths from 1e-9 to 1e-16 on both sides of grid points, where the
        # budget PROPAGATE_ERROR_TARGET * |w| lies below the rounding of the
        # states: each row ends at the rounding of one RK4 substep.
        grid = np.linspace(0.0, 2.0, 21)
        traj = propagate(driven_qubit(scale), [random_mixed_state(rng, 2) for _ in range(3)],
                         grid)
        widths = 10.0 ** -np.arange(9, 17)
        points = np.repeat([0, 1, 1, 12, 12, 20], len(widths))
        times = grid[points] + np.tile(widths, 6) * np.repeat([1, 1, -1, 1, -1, -1], len(widths))
        columns = np.arange(len(times)) % 3
        operator = traj.operator
        one = hermitian_part(operator.states(_rk4_segment(
            operator, operator.coordinates(traj.entries[points, columns]), grid[points], times,
            1)))
        assert np.all(trace_norms(states_off_grid(traj, columns, times) - one) <= 1e-14)

    def test_a_stiff_rate_raises_without_a_warning(self, rng):
        # At rate scale 1e5 the RK4 stages from t = 0 overflow: the call
        # raises before any gap test, which would read a NaN gap as converged.
        traj = propagate(driven_qubit(1e5), [random_mixed_state(rng, 2) for _ in range(3)],
                         np.linspace(0.0, 2.0, 21))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="not finite"):
                states_off_grid(traj, [1, 0, 2, 1], [0.013, 0.47, 1.2, 1.99])

    def test_nearest_grid_points_match_argmin(self):
        # Exact midpoints of a dyadic grid tie, and both picks take the
        # earlier point; so do the rounded midpoints of an irregular grid.
        for grid in (np.arange(0.0, 4.25, 0.25), np.cumsum([0.0, 0.1, 0.3, 0.05, 0.7, 0.2])):
            middles = 0.5 * (grid[:-1] + grid[1:])
            times = np.concatenate([middles, grid, grid[:-1] + 1e-3, grid[1:] - 1e-3,
                                    [grid[0] - 1.0, grid[-1] + 1.0]])
            expected = np.argmin(np.abs(grid[None, :] - times[:, None]), axis=1)
            np.testing.assert_array_equal(dynamics._nearest_points(grid, times), expected)

    @pytest.mark.parametrize("rate", ["oscillating", "constant"])
    def test_dephasing_stack_needs_no_scipy(self, rng, monkeypatch, rate):
        gen = oscillating_dephasing()[0] if rate == "oscillating" else dephasing_generator(0.7)
        grid = np.linspace(0.0, 3.0, 31)
        traj = propagate(gen, [random_mixed_state(rng, 2) for _ in range(4)], grid)
        calls = record_pade_calls(monkeypatch)
        states = states_off_grid(traj, [0, 3, 1, 2], [0.04, 1.17, 2.2, 2.96])
        assert calls == [] and states.shape == (4, 2, 2)

    @pytest.mark.parametrize("driven", [False, True], ids=["dephasing", "driven"])
    def test_grid_times_return_the_stored_states(self, rng, driven):
        gen = (LindbladGenerator(2, hamiltonian=0.7 * SIGMA_X, jumps=[JumpTerm(0.4, SIGMA_Z)])
               if driven else oscillating_dephasing()[0])
        grid = np.linspace(0.0, 3.0, 31)
        traj = propagate(gen, [random_mixed_state(rng, 2) for _ in range(3)], grid)
        columns, rows = np.array([2, 0, 1, 0]), np.array([0, 7, 19, 30])
        assert np.array_equal(states_off_grid(traj, columns, grid[rows]),
                              traj.entries[rows, columns])

    @pytest.mark.parametrize("rate", ["oscillating", "constant"])
    def test_times_before_their_grid_point_match_the_closed_form(self, rng, rate):
        # Every time lies just before its nearest grid point, so each row runs
        # backward over a negative width, through and past the window (pi/3,
        # 2pi/3) where the oscillating rate is negative.
        if rate == "oscillating":
            gen, integral = oscillating_dephasing()
        else:
            gen, integral = dephasing_generator(0.7), lambda t: 0.7 * t
        grid = np.linspace(0.0, 3.0, 31)
        traj = propagate(gen, [random_mixed_state(rng, 2) for _ in range(3)], grid)
        rows = np.array([1, 9, 11, 16, 21, 30])
        columns, times = np.array([0, 1, 2, 0, 1, 2]), grid[rows] - np.array([0.049, 0.02, 0.03,
                                                                              0.001, 0.04, 0.03])
        nearest = np.argmin(np.abs(grid[None, :] - times[:, None]), axis=1)
        assert np.array_equal(nearest, rows)
        expected = dephased(traj.entries[rows, columns], integral(times) - integral(grid[rows]))
        np.testing.assert_allclose(states_off_grid(traj, columns, times), expected,
                                   rtol=0, atol=1e-10)


def test_off_grid_states_are_finite_hermitian_or_named():
    # Random generators whose first rate dips below 0 (over a window of
    # times when it is time-dependent, throughout when it is constant).
    # Wherever propagate returns, off-grid states at random (column, time)
    # pairs are finite and Hermitian or raise IntegrationError, with no
    # warning.  The 20 derandomized examples are counted: at least a quarter
    # get past propagate to the off-grid states (11 of 20 with hypothesis
    # 6.155; 54 of seeds 0 to 9 over each of the 12 draws of d, rate kind
    # and scale).
    outcomes = []

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
           time_dependent=st.booleans(), scale=st.sampled_from([0.5, 5.0, 50.0]))
    def check(seed, d, time_dependent, scale):
        outcomes.append(off_grid_outcome(seed, d, time_dependent, scale))

    check()
    assert 4 * sum(outcome != "propagate raised" for outcome in outcomes) >= len(outcomes)


def off_grid_outcome(seed, d, time_dependent, scale):
    """Which of propagate and states_off_grid raised on one random
    generator with a negative rate, under warnings as errors, after
    checking the off-grid states when both returned."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
    dip = -scale * rng.uniform(0.05, 0.5)
    jumps = [JumpTerm(dip, ops[0]), JumpTerm(float(scale * rng.uniform(0.2, 1.0)), ops[1])]
    if time_dependent:
        jumps.append(JumpTerm(CosineSquaredCoefficient(omega=float(rng.uniform(0.5, 3.0)),
                                                       scale=2.0 * scale), ops[0]))
    gen = LindbladGenerator(d, hamiltonian=0.5 * (h + dagger(h)), jumps=jumps)
    grid = np.linspace(0.0, float(rng.uniform(0.2, 2.0)), int(rng.integers(3, 30)))
    starts = [random_full_rank_state(rng, d) for _ in range(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            traj = propagate(gen, starts, grid)
        except IntegrationError:
            return "propagate raised"
        columns = rng.integers(0, 2, size=8)
        times = rng.uniform(traj.grid[0], traj.grid[-1], size=8)
        try:
            states = states_off_grid(traj, columns, times)
        except IntegrationError:
            return "off-grid raised"
    assert np.isfinite(states).all() and np.array_equal(states, dagger(states))
    return "returned"


def driven_qubit(scale):
    """A qubit driven by 0.7 sigma_x, dephased at the rate scale cos^2(t) and
    damped at 0.3: a restriction with non-diagonal blocks."""
    return LindbladGenerator(2, hamiltonian=0.7 * SIGMA_X, jumps=[
        JumpTerm(CosineSquaredCoefficient(omega=1.0, scale=scale), SIGMA_Z),
        JumpTerm(0.3, np.array([[0, 1], [0, 0]], dtype=complex))])


def dephased(states, gammas):
    """The states (C, 2, 2) with their coherences scaled by exp(-gammas)."""
    out = states.copy()
    out[:, 0, 1] *= np.exp(-gammas)
    out[:, 1, 0] *= np.exp(-gammas)
    return out


class TestClosedFormTrajectories:
    def test_damping_supports_track_rank_jump(self):
        traj = damping_qubit_trajectory(np.array([0.0, 0.1, 0.5]))
        assert list(traj.ranks()) == [1, 2, 2]
        assert np.trace(support_projectors(traj.spectrum)[0]).real == pytest.approx(1.0)
        assert list(np.abs(traj.left_out_rates()) > EPS_WITNESS) == [True, False, False]

    @pytest.mark.parametrize("grid", [[], [[0.0, 1.0], [2.0, 3.0]]], ids=["empty", "2-D"])
    def test_grid_off_one_axis_fails_before_the_closed_form(self, grid):
        def state_fn(times):
            raise AssertionError("the closed form was evaluated")

        with pytest.raises(IntegrationError, match="on one axis"):
            damping_qubit_trajectory(np.array(grid))
        with pytest.raises(IntegrationError, match="on one axis"):
            closed_form_trajectory(state_fn, grid, state_fn)
        assert len(damping_qubit_trajectory(np.array([0.2]))) == 1

    def test_oscillating_entropy_values(self):
        traj = oscillating_qubit_trajectory(np.array([0.25]))
        assert traj.entropies()[0] == pytest.approx(np.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("fn", [damping_qubit_state, _damping_qubit_derivative,
                                    oscillating_qubit_state, _oscillating_qubit_derivative])
    def test_array_of_times_is_the_stacked_scalar_calls(self, fn, rng):
        # bit for bit, rank-change instants included, and shaped (..., 2, 2)
        times = np.concatenate([[0.0, 0.25, 0.5, 1.0], rng.uniform(0.0, 3.0, size=29)])
        times = times.reshape(3, 11)
        stacked = np.stack([fn(float(t)) for t in times.ravel()]).reshape(3, 11, 2, 2)
        np.testing.assert_array_equal(fn(times), stacked)
        assert fn(0.3).shape == (2, 2)


def count_eig_calls(monkeypatch) -> list[str]:
    """Record every numpy eigh/eigvalsh call made from now on."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestOneSpectrumPerState:
    """A state is diagonalized once, when it is built; reads reuse that spectrum."""

    @staticmethod
    def read_everything(traj, generator):
        traj.entropies()
        traj.entropy_rates()
        traj.ranks()
        traj.spectrum.support_traces(traj.derivatives)
        for t, state in zip(traj.grid, traj.states):
            theorem2_bound(generator, float(t), state)

    def test_propagated_trajectory(self, rng, monkeypatch):
        gen = random_qubit_generator(rng, dim=3)
        traj = propagate(gen, random_full_rank_state(rng, 3), np.linspace(0, 0.5, 11))
        calls = count_eig_calls(monkeypatch)
        self.read_everything(traj, gen)
        assert calls == []

    def test_closed_form_trajectory(self, monkeypatch):
        traj = closed_form_trajectory(damping_qubit_state, np.linspace(0.0, 1.0, 11),
                                      _damping_qubit_derivative)
        calls = count_eig_calls(monkeypatch)
        self.read_everything(traj, dephasing_generator(1.0))
        assert calls == []

    @pytest.mark.parametrize("rate", [1.2, lambda t: 1.2 * np.cos(t) ** 2], ids=["maps", "rk4"])
    def test_diagonal_stack_reads_as_through_eigh(self, rate, monkeypatch):
        # A thermal start under phase-insensitive dynamics stays diagonal: its
        # spectra come from the diagonals, on the map and the RK4 path, and
        # read as eigh's within rounding.
        a = annihilation_operator(20)
        generator = LindbladGenerator(20, jumps=[(rate, dagger(a)), (1.4, a)])
        grid = np.linspace(0.0, 2.0, 21)
        calls = count_eig_calls(monkeypatch)
        traj = propagate(generator, thermal_state(0.3, 20), grid)
        assert calls.count("eigh") == 0
        by_eigh = Trajectory(traj.grid, traj.entries, traj.derivatives,
                             spectrum=EigenSystem(*np.linalg.eigh(traj.entries))[..., ::-1])
        for read in ("entropies", "entropy_rates", "ranks"):
            np.testing.assert_allclose(getattr(traj, read)(), getattr(by_eigh, read)(),
                                       rtol=0, atol=1e-15)

    def test_lost_positivity_is_an_integration_error(self):
        start = np.diag([1.0 + 1e-7, -1e-7]).astype(complex)
        with pytest.raises(IntegrationError, match="t=0 lost positivity"):
            propagate(dephasing_generator(1.0), [start], np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("case", ["lossy_mode", "qubit_stack"])
    def test_dense_restriction_decomposes_the_initial_states_once(self, case, rng, monkeypatch):
        # The interval maps validate every state, the initial ones among
        # them, with one decomposition at the end, and propagate takes none
        # before it: one eigh for the dephasing states, and none for the
        # lossy mode's stack, which is diagonal (its sorted populations).
        if case == "lossy_mode":  # 16 populations, time-independent
            generator, states = bosonic_generator(0.2, 1.2, 16), thermal_state(0.2, 16)
        else:  # 4 states, time-dependent rate gamma(t) = 1 + cos(2t)/2
            generator = oscillating_dephasing(base=1.0, amplitude=0.5)[0]
            states = [random_mixed_state(rng, 2) for _ in range(4)]
        grid = np.linspace(0.5, 3.5, 61)
        calls = count_eig_calls(monkeypatch)
        propagate(generator, states, grid)
        assert calls.count("eigh") == (0 if case == "lossy_mode" else 1)
        # A non-PSD initial state is still refused, at t0, by either path.
        start = np.diag([1.0 + 1e-7, -1e-7] + [0.0] * (generator.dim - 2)).astype(complex)
        for intervals in (dynamics._map_intervals, dynamics._rk4_intervals):
            monkeypatch.setattr(dynamics, "_map_intervals", intervals)
            with pytest.raises(IntegrationError, match=r"^state at t=0\.5 lost positivity: "):
                propagate(generator, [start], grid)


GAUSSIAN_RATES = {"amplifier": (1.2, 0.2), "lossy": (0.2, 1.2), "additive": (0.2, 0.2)}


class TestPopulationRows:
    """A Fock-diagonal stack is held, validated and read as its population
    rows, on the map and the RK4 path, and reads bit for bit as the
    trajectory rebuilt from its scattered states."""

    @staticmethod
    def fock_run(kind, cutoff, mean_photons):
        if kind == "timed":  # raising rate 0.2 cos^2(t): RK4 above 16 populations
            a = annihilation_operator(cutoff)
            generator = LindbladGenerator(cutoff, jumps=[
                (CosineSquaredCoefficient(omega=1.0, scale=0.2), dagger(a)), (1.2, a)],
                tail_guard=bosonic_generator(0.0, 1.2, cutoff).tail_guard)
        else:
            generator = bosonic_generator(*GAUSSIAN_RATES[kind], cutoff)
        if cutoff == 2:  # the guard's two top levels would be the whole space
            generator = LindbladGenerator(cutoff, jumps=generator.jumps)
        probs = (mean_photons / (mean_photons + 1.0)) ** np.arange(cutoff)
        start = DensityMatrix.diagonal(probs / probs.sum())
        traj = propagate(generator, start, np.linspace(0.0, 5.0, 101), on_tail_breach="truncate")
        return generator, traj

    @pytest.mark.parametrize("cutoff", [2, 12, 40])
    @pytest.mark.parametrize("kind", list(GAUSSIAN_RATES) + ["timed"])
    @pytest.mark.parametrize("start", ["thermal", "vacuum"])
    def test_reads_as_the_scattered_states(self, kind, cutoff, start):
        # N = 0.2, the default, breaches the cutoff-12 tail guard at once
        mean_photons = 0.0 if start == "vacuum" else (0.05 if cutoff == 12 else 0.2)
        generator, traj = self.fock_run(kind, cutoff, mean_photons)
        operator = traj.operator
        assert isinstance(operator, _Restriction) and operator.populations_only
        if kind == "amplifier" and cutoff > 2:
            assert traj.truncated_at is not None  # the tail guard ends it
        rows = traj.coordinates()
        states = operator.states(rows)
        if kind == "timed":
            # RK4 applies the generator at one time per grid point, whose
            # products differ from one batched apply by rounding
            dots = traj.derivatives
        else:
            dots = operator.states(operator.apply(traj.grid, rows))
        rebuilt = Trajectory(traj.grid, states, dots)  # check_density_stack
        assert traj.spectrum._eigenvectors is None  # not built until read
        for read in ("entries", "derivatives"):
            np.testing.assert_array_equal(getattr(traj, read), getattr(rebuilt, read))
        for read in ("eigenvalues", "order", "eigenvectors"):
            np.testing.assert_array_equal(getattr(traj.spectrum, read),
                                          getattr(rebuilt.spectrum, read))
        assert not traj.spectrum.eigenvectors.flags.writeable
        for read in ("entropies", "entropy_rates", "ranks"):
            np.testing.assert_array_equal(getattr(traj, read)(), getattr(rebuilt, read)())
        left_out = traj.left_out_rates()
        np.testing.assert_array_equal(left_out, rebuilt.left_out_rates())
        images = operator.states(operator.adjoint_apply(traj.grid, rows))
        np.testing.assert_array_equal(
            _pinned_adjoint_traces(operator, traj.grid, rows, traj.spectrum),
            rebuilt.spectrum.support_traces(images))
        excluded = np.flatnonzero(np.abs(left_out) > EPS_WITNESS)
        assert excluded.tolist() == ([0] if start == "vacuum" else [])

    def test_state_views_keep_their_order(self):
        traj = self.fock_run("lossy", 12, 0.05)[1]
        for (k,), state in zip(np.ndindex(len(traj)), traj.states):
            spectrum = state.spectrum
            np.testing.assert_array_equal(spectrum.order, traj.spectrum.order[k])
            np.testing.assert_array_equal(spectrum.expectations(traj.derivatives[k]),
                                          traj._expectations[k])
            assert not spectrum.eigenvectors.flags.writeable
            np.testing.assert_array_equal(spectrum.eigenvectors, traj.spectrum.eigenvectors[k])

    @staticmethod
    def failure(generator, start, grid, monkeypatch, by_scatter: bool) -> str:
        with monkeypatch.context() as m:
            if by_scatter:  # every state scattered and validated by _validated
                m.setattr(_Restriction, "populations_only", property(lambda self: False))
            with pytest.raises(IntegrationError) as failed:
                propagate(generator, start, grid)
        return str(failed.value)

    def test_failures_read_as_through_the_scattered_states(self, monkeypatch):
        # A negative lowering rate drives the ground population below zero;
        # at a huge raising rate the interval maps overflow.  Either way the
        # error names the same time and state as the scattered route.
        a = annihilation_operator(3)
        grid = np.linspace(0.0, 1.0, 21)
        starts = [np.diag(p).astype(complex) for p in ([0.9, 0.05, 0.05], [0.05, 0.9, 0.05])]
        negative = LindbladGenerator(3, jumps=[(-1.0, a)])
        message = self.failure(negative, starts, grid, monkeypatch, by_scatter=False)
        assert message.startswith("state at t=0.1 lost positivity: density matrix not PSD")
        assert message.endswith("at stack index (1,)")
        assert message == self.failure(negative, starts, grid, monkeypatch, by_scatter=True)
        huge = bosonic_generator(1e300, 0.0, 40)
        message = self.failure(huge, thermal_state(0.2, 40), grid, monkeypatch, by_scatter=False)
        assert message == "state at t=0.05 is not finite"
        assert message == self.failure(huge, thermal_state(0.2, 40), grid, monkeypatch,
                                       by_scatter=True)

    @staticmethod
    def assert_real_rows(traj):
        operator = traj.operator
        assert isinstance(operator, _Restriction) and operator.populations_only
        assert operator._blocks.dtype == np.float64
        assert traj.coordinates().dtype == np.float64
        assert traj._dot_rows.dtype == np.float64 and traj.derivatives.dtype == np.float64
        assert states_off_grid(traj, [0, 0, 0], [0.013, 0.27, 1.99]).dtype == np.float64

    @pytest.mark.parametrize("kind", list(GAUSSIAN_RATES) + ["timed"])
    def test_real_blocks_carry_float64_rows(self, kind):
        # The constant kinds take the interval maps; "timed", a time-dependent
        # cutoff-40 generator (m = 40 > 16), takes RK4 by default.
        traj = self.fock_run(kind, 40, 0.2)[1]
        self.assert_real_rows(traj)
        assert traj.operator.time_independent == (kind != "timed")

    @pytest.mark.parametrize("kind", list(GAUSSIAN_RATES))
    def test_real_blocks_carry_float64_rows_on_rk4(self, kind, rk4):
        self.assert_real_rows(self.fock_run(kind, 40, 0.2)[1])

    def test_coherent_stacks_stay_complex(self):
        # One coherence in a Fock-diagonal start brings the coherence sets
        # into the restriction (m = 10); a diagonal start under a Hamiltonian
        # that couples populations to coherences touches them at once.
        grid = np.linspace(0.0, 1.0, 11)
        a = annihilation_operator(4)
        bosonic = LindbladGenerator(4, jumps=[(0.2, dagger(a)), (1.2, a)])
        coherent = np.diag([0.7, 0.2, 0.07, 0.03]).astype(complex)
        coherent[0, 1] = coherent[1, 0] = 0.1
        driven = LindbladGenerator(3, hamiltonian=np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1),
                                   jumps=[(0.5, annihilation_operator(3))])
        for generator, start in ((bosonic, coherent),
                                 (driven, DensityMatrix.diagonal([0.5, 0.3, 0.2]))):
            traj = propagate(generator, start, grid)
            assert isinstance(traj.operator, _Restriction) and not traj.operator.populations_only
            assert traj.operator._blocks.dtype == np.complex128
            assert traj.coordinates().dtype == np.complex128
            assert traj.derivatives.dtype == np.complex128
            assert states_off_grid(traj, [0], [0.27]).dtype == np.complex128

    @pytest.mark.parametrize("kind", list(GAUSSIAN_RATES) + ["timed"])
    def test_float64_rows_match_complex_rows(self, kind, monkeypatch):
        # The same restriction with its blocks cast to complex128 carries
        # complex rows through the same integrator.
        integration_operator = dynamics._integration_operator

        def complex_blocks(generator, states):
            operator = integration_operator(generator, states)
            operator._blocks = operator._blocks.astype(complex)
            return operator

        real = self.fock_run(kind, 40, 0.2)[1]
        monkeypatch.setattr(dynamics, "_integration_operator", complex_blocks)
        complex_ = self.fock_run(kind, 40, 0.2)[1]
        assert complex_.coordinates().dtype == np.complex128
        assert len(real) == len(complex_)
        np.testing.assert_allclose(real.entries, complex_.entries, rtol=0, atol=1e-15)
        np.testing.assert_allclose(real.entropy_rates(), complex_.entropy_rates(), rtol=0,
                                   atol=1e-13)
        bounds = [-_pinned_adjoint_traces(t.operator, t.grid, t.coordinates(), t.spectrum)
                  for t in (real, complex_)]
        np.testing.assert_allclose(*bounds, rtol=0, atol=1e-13)


class TestExport:
    def test_trajectory_export_deterministic(self, tmp_path):
        traj = damping_qubit_trajectory(np.linspace(0.2, 1.0, 5))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trajectory(traj, p1)
        export_trajectory(traj, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert header[-2:] == ["entropy", "entropy_rate"]
        assert len(header) == 1 + 2 * 4 + 2
