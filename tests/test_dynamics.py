import numpy as np
import pytest
from scipy.linalg import expm

from entroflow import (
    DensityMatrix,
    DephasingFamily,
    GadcFamily,
    GeneratorFamily,
    IntegrationError,
    LindbladGenerator,
    SuperOperator,
    TailMassError,
    bosonic_generator,
    closed_form_trajectory,
    cp_divisibility_check,
    damping_qubit_trajectory,
    dephasing_generator,
    depolarizing_generator,
    entropy_rate,
    entropy_rate_fd,
    export_trajectory,
    gadc,
    intermediate_map,
    is_cptp,
    oscillating_qubit_trajectory,
    propagate,
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
from entroflow import dynamics
from entroflow.dynamics import (
    Trajectory,
    _damping_qubit_derivative,
    _rank_change_distance,
    _rk4_segment,
    _trace_norms_exceed,
    damping_qubit_state,
    oscillating_qubit_state,
    states_off_grid,
)
from entroflow.linalg import LinalgError, dagger, hermitian_part
from entroflow.sampling import random_full_rank_state, random_mixed_state

from conftest import reference_maps

DAMPING_RATE_AT_ONE = -0.19914228500721254  # e^-1 log(e^-1 / (1 - e^-1))


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
        for pi, dot in zip(traj.spectrum.projectors(), traj.derivatives):
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
        sym = hermitian_part(raw)
        sym = hermitian_part(sym / np.real(np.trace(sym, axis1=-2, axis2=-1))[:, None, None])
        return sym, np.linalg.eigh(sym)[0][..., ::-1]

    rho, lam = clean(np.stack([getattr(s, "entries", s) for s in states]).astype(complex))
    if operator is None:
        operator = dynamics._integration_operator(generator, rho)
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
        if guard is not None and np.any(guard.check(rho) > guard.bound):
            break
        entries.append(rho)
        dots.append(derivative(t1, rho))
        eigenvalues.append(lam)
    return np.stack(entries), np.stack(dots), np.stack(eigenvalues)


def _reference_cases():
    rng = np.random.default_rng(8)
    h0, h1 = (hermitian_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
              for _ in range(2))
    jump = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    timed = LindbladGenerator(3, hamiltonian=lambda t: h0 + t * h1,
                              jumps=[JumpTerm(lambda t: 0.5 + 0.3 * np.sin(3.0 * t), jump)])
    return {
        "bosonic amplifier, tail truncation": (
            bosonic_generator(1.2, 0.2, 12), [thermal_state(0.05, 12)], np.linspace(0.0, 0.3, 31)),
        "oscillating dephasing, 3 states": (
            dephasing_generator(lambda t: 0.5 + np.cos(2.0 * t)),
            [random_full_rank_state(rng, 2), random_mixed_state(rng, 2), DensityMatrix.pure([1, 1j])],
            np.linspace(0.0, 3.0, 31)),
        "callable Hamiltonian, timed rate": (
            timed, [random_full_rank_state(rng, 3)], np.linspace(0.0, 1.0, 11)),
    }


@pytest.fixture
def rk4(monkeypatch):
    """propagate through its RK4 loop on every operator, the dense
    restriction included, where it otherwise takes the interval maps."""
    monkeypatch.setattr(dynamics, "_map_intervals", dynamics._rk4_intervals)


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

    @pytest.mark.parametrize("case", ["callable Hamiltonian", "callable operator",
                                      "stack touching every set", "d = 5 stack above the dense limit",
                                      "two-state d = 5 stack above the dense limit"])
    def test_full_path_is_the_plain_sparse_loop(self, case, rk4):
        # Callable generators and stacks whose sets hold more than
        # max(d, 16) coordinates run bit for bit the loop over the whole
        # generator's apply: these trajectories are those of the sparse path
        # alone.  A d = 3 stack touching every set (m = 9) lies within the
        # limit: it takes the dense restriction, on which the RK4 loop agrees
        # with that one to rounding.
        rng = np.random.default_rng(13)
        h = hermitian_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        lower = np.diag([1.0, 1.0], 1).astype(complex)
        lower5 = np.diag(np.ones(4), 1).astype(complex)
        generator, states = {
            "callable Hamiltonian": (
                LindbladGenerator(3, hamiltonian=lambda t: np.cos(t) * h, jumps=[(0.4, lower)]),
                [DensityMatrix.diagonal([0.6, 0.3, 0.1])]),
            "callable operator": (
                LindbladGenerator(3, hamiltonian=np.diag([0.0, 1.0, 2.0]),
                                  jumps=[(0.4, lambda t: np.cos(t) * lower)]),
                [DensityMatrix.diagonal([0.6, 0.3, 0.1])]),
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
            assert _trace_norms_exceed(x, budget) == (norm > budget)
            undecided.append(frobenius <= budget < np.sqrt(d) * frobenius)
            assert calls == (["eigvalsh"] if undecided[-1] else [])
        assert any(undecided) and not all(undecided)

    def test_bracket_ends_are_exact_for_extreme_spectra(self, monkeypatch):
        d = 5
        rank_one = np.zeros((1, d, d), dtype=complex)
        rank_one[0, 0, 0] = 1.0                     # ||X||_1 = ||X||_F
        flat = np.eye(d, dtype=complex)[None] / d   # ||X||_1 = sqrt(d) ||X||_F
        calls = count_eig_calls(monkeypatch)
        assert _trace_norms_exceed(rank_one, 0.99)
        assert not _trace_norms_exceed(flat, 1.01)
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

    def test_stall_names_the_interval(self):
        generator, _ = oscillating_dephasing()
        grid = np.append(np.linspace(0.0, 1.0, 11), 4.0)
        with pytest.raises(IntegrationError, match=r"stalled on \[1, 4\].* within 2 doublings"):
            propagate(generator, DensityMatrix.pure([1, 1]), grid, max_refinements=2)

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


class TestIntermediateMap:
    def test_oscillating_dephasing_matches_closed_form(self):
        # gamma(t) = 0.5 + cos 2t: coherences scale by exp(-Gamma), Gamma = int_s^t gamma.
        atol = 1e-9
        gen = dephasing_generator(lambda t: 0.5 + np.cos(2.0 * t))
        for s, t in [(0.0, 0.9), (0.3, 2.4), (1.1, 1.9)]:
            gamma = 0.5 * (t - s) + 0.5 * (np.sin(2.0 * t) - np.sin(2.0 * s))
            c = np.exp(-gamma)
            for steps in (1, 3):  # an odd count multiplies its last two steps first
                m = intermediate_map(gen, s, t, steps=steps, atol=atol)
                assert np.max(np.abs(m.matrix - np.diag([1.0, c, c, 1.0]))) <= atol

    def test_time_independent_matches_expm(self):
        gen = dephasing_generator(1.0)
        m = intermediate_map(gen, 0.3, 1.7)
        direct = expm(1.4 * gen.superoperator(0.0).matrix)
        assert np.max(np.abs(m.matrix - direct)) <= 1e-9

    def test_identity_at_equal_times(self):
        m = intermediate_map(dephasing_generator(1.0), 0.5, 0.5)
        np.testing.assert_allclose(m.matrix, np.eye(4), atol=1e-14)

    def test_composition_law(self):
        gen = dephasing_generator(lambda t: 0.5 + np.cos(2.0 * t))
        full = intermediate_map(gen, 0.2, 1.4)
        left = intermediate_map(gen, 0.8, 1.4)
        right = intermediate_map(gen, 0.2, 0.8)
        np.testing.assert_allclose(full.matrix, left.compose(right).matrix, atol=1e-7)

    def test_semigroup_property(self):
        gen = depolarizing_generator(2, 0.3)
        m_t = intermediate_map(gen, 0.0, 0.6)
        m_2t = intermediate_map(gen, 0.0, 1.2)
        np.testing.assert_allclose(m_2t.matrix, m_t.compose(m_t).matrix, atol=1e-7)

    def test_dephasing_interval_cptp(self):
        gen = dephasing_generator(1.0)
        report = is_cptp(intermediate_map(gen, 0.0, 0.8))
        assert report.choi_min_eigenvalue >= -1e-9
        assert report.passed

    def test_callable_hamiltonian_rotates_coherences(self):
        # H(t) = cos(t) sigma_z: rho_01 picks up exp(-2i (sin t - sin s))
        gen = LindbladGenerator(2, hamiltonian=lambda t: np.cos(t) * SIGMA_Z)
        for s, t in [(0.0, 1.3), (0.4, 2.9)]:
            phase = np.exp(-2j * (np.sin(t) - np.sin(s)))
            m = intermediate_map(gen, s, t)
            assert np.max(np.abs(m.matrix - np.diag([1.0, phase, np.conj(phase), 1.0]))) <= 1e-8

    def test_non_finite_time_fails_up_front(self, monkeypatch):
        _forbid_maps(monkeypatch)
        gen = oscillating_dephasing()[0]
        for s, t in [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf)]:
            with pytest.raises(IntegrationError, match="finite"):
                intermediate_map(gen, s, t)
        with pytest.raises(IntegrationError, match="requires s <= t"):
            intermediate_map(gen, 1.0, 0.5)


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
        plain = entropy_rate_fd(traj, 1, h=1e-4)
        extrapolated = entropy_rate_fd(traj, 1, h=1e-4, richardson=True)
        assert abs(extrapolated - exact) <= 1e-6
        assert abs(extrapolated - exact) < abs(plain - exact)

    def test_stacked_table_matches_pointwise_stencils(self):
        # Points next to the rank changes at t = 1/2 and 1 take a capped step.
        grid = np.array([0.1, 0.3, 0.499, 0.7, 0.9995])
        traj = oscillating_qubit_trajectory(grid)
        table = entropy_rate_fd(traj, np.arange(len(grid)), h=1e-4, richardson=True)

        def central_difference(t, h):
            def entropy_at(tau):
                return von_neumann_entropy(hermitian_part(oscillating_qubit_state(tau)))
            return (entropy_at(t + h) - entropy_at(t - h)) / (2.0 * h)

        for k, t in enumerate(grid):
            h = min(1e-4, 0.01 * _rank_change_distance(traj.spectrum[k], traj.derivatives[k]))
            coarse = central_difference(t, h)
            fine = central_difference(t, 0.5 * h)
            assert table[k] == pytest.approx((4.0 * fine - coarse) / 3.0, rel=1e-12, abs=1e-12)
            one = entropy_rate_fd(traj, k, h=1e-4, richardson=True)
            assert isinstance(one, float) and one == table[k]
        assert 0.01 * _rank_change_distance(traj.spectrum[4], traj.derivatives[4]) < 1e-4

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
        traj = GadcFamily(5.0).trajectories([DensityMatrix.maximally_mixed(2)] * 2,
                                            np.linspace(0.1, 1.0, 10))
        with pytest.raises(IntegrationError, match="one-state"):
            entropy_rate_fd(traj, 3)

    def test_theorem1_agreement_on_random_trajectories(self, rng):
        for dim in (2, 3):
            gen = random_qubit_generator(rng, dim=dim)
            traj = propagate(gen, random_full_rank_state(rng, dim), np.linspace(0, 0.6, 13))
            for k in (4, 8):
                rate = entropy_rate(traj.states[k], traj.derivatives[k])
                fd = entropy_rate_fd(traj, k, h=1e-4, richardson=True)
                assert abs(rate - fd) <= 1e-6


def _forbid_maps(monkeypatch):
    """Make building any interval map fail the test."""
    def built(*args):
        raise AssertionError("an interval map was built")
    for kernel in ("_cf4_maps", "_width_maps"):
        monkeypatch.setattr(dynamics, kernel, built)


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
        traj = fam.trajectories(rho0, grid)
        t = 0.5
        w_dot = -10 * np.sin(10 * t) * (1 - np.exp(-t)) + np.cos(10 * t) * np.exp(-t)
        np.testing.assert_allclose(traj.derivatives[5], 0.5 * np.diag([w_dot, -w_dot]), atol=1e-9)

    def test_dephasing_family_matches_generator(self, rng):
        gamma = 1.0
        fam = DephasingFamily(lambda t: gamma * t)
        gen = dephasing_generator(gamma)
        rho0 = random_mixed_state(rng, 2)
        grid = np.linspace(0, 1.5, 16)
        traj_fam = fam.trajectories(rho0, grid)
        traj_gen = propagate(gen, rho0, grid)
        for a, b in zip(traj_fam.states, traj_gen.states):
            assert np.max(np.abs(a.entries - b.entries)) <= 1e-7

    def test_generator_family_consistency(self, rng):
        gen = dephasing_generator(lambda t: 0.5 + np.cos(2 * t))
        fam = GeneratorFamily(gen)
        rho0 = random_mixed_state(rng, 2)
        direct = fam.states([rho0], [0.9])[0, 0]
        _, step = reference_maps(fam)
        stepped = step(0.5, 0.4).apply(fam.states([rho0], [0.5])[0, 0])
        np.testing.assert_allclose(direct, stepped, atol=1e-7)

    def test_dephasing_step_where_gamma_decreases_is_not_cp(self):
        # gamma(t) = 0.5 + cos 2t is negative on (pi/3, 2pi/3), so Gamma decreases
        # there and the interval map amplifies coherences: no Kraus form exists.
        fam = DephasingFamily(lambda t: 0.5 * t + 0.5 * np.sin(2.0 * t))
        _, step_map = reference_maps(fam)
        step = step_map(1.5, 1e-3).superoperator()
        c = np.exp(fam.gamma_integral(1.5) - fam.gamma_integral(1.5 + 1e-3))
        assert c > 1.0
        np.testing.assert_allclose(step.matrix, np.diag([1.0, c, c, 1.0]), rtol=1e-12)
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
        GeneratorFamily(dephasing_generator(lambda t: 0.5 + np.cos(2 * t))),
    ], ids=["gadc", "oscillating_dephasing", "markovian_dephasing", "generator"])
    def test_stacks_equal_per_time_maps(self, family):
        at, _ = reference_maps(family)
        stacked = family.superoperators(self.TIMES)
        assert stacked.shape == (len(self.TIMES), 4, 4)
        if isinstance(family, GeneratorFamily):
            # M_{t,0} is the ordered product of the maps between the times,
            # each certified to its share of map_atol over the span
            span = self.TIMES[-1]
            reference = [SuperOperator.identity(2)]
            for s, t in zip(self.TIMES[:-1], self.TIMES[1:]):
                step = intermediate_map(family.generator, s, t, atol=family.map_atol * (t - s) / span)
                reference.append(step.compose(reference[-1]))
        else:
            reference = [at(t).superoperator() for t in self.TIMES]
        for m, expected in zip(stacked, reference):
            np.testing.assert_allclose(m, expected.matrix, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("family, k_tol", [
        (GadcFamily(5.0), 1.3e-5), (_oscillating_family(), 6e-7),
        (DephasingFamily(lambda t: t), 1e-7),
        (GeneratorFamily(dephasing_generator(lambda t: 0.5 + np.cos(2 * t))), 6e-7),
    ], ids=["gadc", "oscillating_dephasing", "markovian_dephasing", "generator"])
    def test_exact_limits_match_finite_differences(self, family, k_tol):
        # K_t against the Richardson quotient 2 q(eps/2) - q(eps) of the steps,
        # q(eps) = (M_{t+eps,t} - I)/eps at eps = 1e-3, whose O(eps^2) error on
        # TIMES is 1.25e-5 (GADC), 5.3e-7 (oscillating dephasing, generator) and
        # 8.3e-8 (Markovian dephasing).  d/dt M_{t,0} against the central
        # difference of the maps with h = 1e-5, taken about t + h so that no
        # time is negative: 7.4e-9 at most (GADC).
        eps, h = 1e-3, 1e-5

        _, step = reference_maps(family)

        def quotient(e):
            steps = np.stack([step(t, e).superoperator().matrix for t in self.TIMES])
            return (steps - np.eye(4)) / e

        generators = family.step_generators(self.TIMES)
        assert generators.shape == (len(self.TIMES), 4, 4)
        np.testing.assert_allclose(generators, 2 * quotient(eps / 2) - quotient(eps),
                                   rtol=0, atol=k_tol)
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

    def test_states_map_every_initial_state_through_every_time(self, rng):
        fam = GadcFamily(5.0)
        rho0s = [random_mixed_state(rng, 2) for _ in range(3)]
        states = fam.states(rho0s, self.TIMES)
        assert states.shape == (len(self.TIMES), 3, 2, 2)
        for t, row in zip(self.TIMES, states):
            for rho0, state in zip(rho0s, row):
                np.testing.assert_allclose(state, gadc(t, 5.0).apply(rho0), atol=1e-14)

    def test_generator_family_steps_grow_linearly(self, monkeypatch):
        # T times 0.03 apart: chaining the interval maps builds each interval
        # once (30 and 668 CF4 steps for T = 11 and 101; the shares of
        # map_atol shrink as the span grows), where maps built from 0 for
        # every time grow quadratically (242 and 23,576 steps).
        built = []

        def counted(operator, starts, widths, steps, _original=dynamics._cf4_maps):
            built.append(len(starts) * steps)
            return _original(operator, starts, widths, steps)

        monkeypatch.setattr(dynamics, "_cf4_maps", counted)
        fam = GeneratorFamily(dephasing_generator(lambda t: 0.5 + np.cos(2 * t)))
        counts = {}
        for n in (11, 101):
            built.clear()
            fam.superoperators(0.03 * np.arange(n))
            counts[n] = sum(built)
        assert counts[11] >= 3 * 10 and counts[101] >= 3 * 100  # a 1- and a 2-step map each
        assert counts[101] <= 3 * (100 / 10) * counts[11]

    def test_generator_family_takes_unsorted_repeated_times(self, rng):
        fam = GeneratorFamily(dephasing_generator(lambda t: 0.5 + np.cos(2 * t)))
        times = np.linspace(0.0, 3.0, 101)
        times = np.concatenate([rng.permutation(times), times[[7, 50, 50, 100]]])
        maps = fam.superoperators(times)
        assert maps.shape == (len(times), 4, 4)
        coherences = np.exp(-(0.5 * times + 0.5 * np.sin(2.0 * times)))
        expected = np.zeros_like(maps)
        expected[:, 0, 0] = expected[:, 3, 3] = 1.0
        expected[:, 1, 1] = expected[:, 2, 2] = coherences
        assert np.max(np.abs(maps - expected)) <= fam.map_atol

    def test_family_trajectory_rates_match_finite_differences(self, rng):
        # The trajectory keeps its closed form: the FD oracle reads the family
        # off the grid, the rates read the exact derivative on it.
        grid = np.linspace(0.1, 1.0, 10)
        traj = GadcFamily(5.0).trajectories(random_full_rank_state(rng, 2), grid)
        rates = traj.entropy_rates()
        for k in range(len(grid)):
            assert entropy_rate_fd(traj, k, richardson=True) == pytest.approx(rates[k], abs=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(IntegrationError, match="negative time"):
            GadcFamily(5.0).states([DensityMatrix.maximally_mixed(2)], [-0.1, 0.2])


class TestStackedTrajectory:
    """One eigh over the (T, d, d) states gives every spectral read."""

    @staticmethod
    def per_state(traj, margin):
        states = [DensityMatrix(rho) for rho in traj.entries]
        ranks = np.array([s.spectrum.rank for s in states])
        rows = np.zeros(len(traj.grid), dtype=bool)
        for k in range(len(traj.grid) - 1):
            if ranks[k + 1] != ranks[k]:
                rows |= np.abs(traj.grid - traj.grid[k + 1]) < margin
                rows[k] = True
        return (np.array([von_neumann_entropy(s) for s in states]),
                np.array([entropy_rate(s, dot) for s, dot in zip(states, traj.derivatives)]),
                ranks, rows)

    def test_matches_per_state_formulas_with_one_eigh(self, rng, monkeypatch):
        gen = random_qubit_generator(rng, dim=3)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        grid = np.linspace(0.0, 0.6, 31)
        run = propagate(gen, DensityMatrix.pure(psi), grid)  # rank 1 -> 3 at t = 0+
        calls = count_eig_calls(monkeypatch)
        traj = Trajectory(grid, run.entries, run.derivatives)
        stacked = (traj.entropies(), traj.entropy_rates(), traj.ranks(), traj.rank_jump_rows(0.05))
        assert calls == ["eigh"]
        entropies, rates, ranks, rows = self.per_state(traj, 0.05)
        np.testing.assert_allclose(stacked[0], entropies, rtol=0, atol=1e-14)
        np.testing.assert_allclose(stacked[1], rates, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(stacked[2], ranks)
        np.testing.assert_array_equal(stacked[3], rows)
        assert ranks[0] == 1 and ranks[-1] == 3 and rows.any()

    def test_states_carry_the_stored_spectrum(self, rng, monkeypatch):
        grid = np.linspace(0.0, 1.0, 11)
        traj = GadcFamily(5.0).trajectories(random_mixed_state(rng, 2), grid)
        calls = count_eig_calls(monkeypatch)
        for k, state in enumerate(traj.states):
            np.testing.assert_array_equal(state.entries, traj.entries[k])
            np.testing.assert_array_equal(state.spectrum.eigenvalues, traj.spectrum.eigenvalues[k])
            assert von_neumann_entropy(state) == pytest.approx(traj.entropies()[k], abs=1e-15)
        assert calls == []

    @staticmethod
    def reference_rank_jump_rows(grid, ranks, margin):
        """Rank-jump rows of one state's rank sequence, by the one-state formula."""
        jumps = np.diff(ranks) != 0
        changes = grid[1:][jumps]
        rows = np.any(np.abs(grid[:, None] - changes[None, :]) < margin, axis=1)
        rows[:-1] |= jumps
        return rows

    @pytest.mark.parametrize("n_states", [None, 1, 5])
    def test_batched_rank_jump_rows_match_the_one_state_formula(self, rng, n_states):
        grid = np.cumsum(rng.uniform(0.5, 1.5, size=40)) * 1e-2
        shape = (len(grid),) if n_states is None else (len(grid), n_states)
        # ranks in {1, 2, 3} that hold for a few grid points, then change
        jumps, shift = rng.random(shape) < 0.2, rng.integers(0, 2, size=shape)
        ranks = 1 + shift
        for k in range(1, len(grid)):
            ranks[k] = np.where(jumps[k], (ranks[k - 1] + shift[k]) % 3 + 1, ranks[k - 1])
        states = (np.arange(3) < ranks[..., None]) / ranks[..., None]
        states = states[..., None] * np.eye(3)
        traj = Trajectory(grid, states, np.zeros_like(states))
        np.testing.assert_array_equal(traj.ranks(), ranks)
        columns = ranks[:, None] if n_states is None else ranks
        assert np.all(np.count_nonzero(np.diff(columns, axis=0), axis=0) >= 3)
        for margin in (1e-3, 0.025, 0.06):  # inside one spacing, up to several
            rows = traj.rank_jump_rows(margin)
            assert rows.shape == shape
            reference = np.stack([self.reference_rank_jump_rows(grid, column, margin)
                                  for column in columns.T], axis=1)
            np.testing.assert_array_equal(rows, reference.reshape(shape))

    def test_off_grid_states_match_one_state_rk4(self, rng):
        gen = random_qubit_generator(rng, dim=3)
        grid = np.linspace(0.0, 0.5, 11)
        traj = propagate(gen, [random_full_rank_state(rng, 3) for _ in range(3)], grid)
        columns, times = [2, 0, 1, 2], [0.013, 0.27, 0.5, 0.449]
        stacked = states_off_grid(traj, columns, times)
        for n, t, state in zip(columns, times, stacked):
            k = int(np.argmin(np.abs(grid - t)))
            one = hermitian_part(_rk4_segment(gen, traj.entries[k, n], float(grid[k]), t, 8))
            np.testing.assert_allclose(state, one, atol=1e-14)
            column = Trajectory(grid, traj.entries[:, n], traj.derivatives[:, n], generator=gen)
            np.testing.assert_allclose(states_off_grid(column, [0], [t])[0], one, atol=1e-14)

    def test_restricted_rows_take_one_time_each(self, rng):
        # (N, m) coordinate rows of a qubit stack (m = 4) at per-row times,
        # through the dense restriction, against the whole-state segment;
        # then states_off_grid, which integrates through the same operator.
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
        expected = _rk4_segment(dynamics._WholeStates(gen), traj.entries[nearest, columns],
                                grid[nearest], times, 8)
        np.testing.assert_allclose(states_off_grid(traj, columns, times), hermitian_part(expected),
                                   rtol=0, atol=1e-12)


class TestClosedFormTrajectories:
    def test_damping_supports_track_rank_jump(self):
        traj = damping_qubit_trajectory(np.array([0.0, 0.1, 0.5]))
        assert list(traj.ranks()) == [1, 2, 2]
        assert np.trace(traj.spectrum.projectors()[0]).real == pytest.approx(1.0)
        assert list(traj.rank_jump_rows(0.01)) == [True, True, False]

    def test_oscillating_entropy_values(self):
        traj = oscillating_qubit_trajectory(np.array([0.25]))
        assert traj.entropies()[0] == pytest.approx(np.log(2.0), abs=1e-12)


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
        traj.spectrum.projectors()
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

    def test_lost_positivity_is_an_integration_error(self):
        start = np.diag([1.0 + 1e-7, -1e-7]).astype(complex)
        with pytest.raises(IntegrationError, match="t=0 lost positivity"):
            propagate(dephasing_generator(1.0), [start], np.linspace(0.0, 1.0, 3))


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
