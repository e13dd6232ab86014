import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroflow import (
    DensityMatrix,
    DephasingFamily,
    GadcFamily,
    IntegrationError,
    LindbladGenerator,
    QuantumChannel,
    WitnessReport,
    annihilation_operator,
    bosonic_generator,
    dephasing_generator,
    entropy_change,
    entropy_change_lower_bound,
    entropy_change_upper_bound,
    entropy_rate,
    blp_measure,
    channel_claims,
    environment_simulation_bound,
    matrix_log_on_support,
    measure_channel,
    measure_generator,
    nonunitality_witness,
    pinsker_gap,
    propagate,
    proposition7_check,
    rate_limit,
    semigroup_sandwich,
    theorem2_bound,
    thermal_state,
    unitary_channel,
    witness_reports,
)
from entroflow.channels import (ChannelError, JumpTerm, SIGMA_X, SIGMA_Y, SIGMA_Z,
                                apply_superoperators, depolarizing, gadc, trace_defects)
from entroflow.dynamics import Trajectory, _WholeStates, intermediate_map
from entroflow.linalg import as_matrix, dagger, hermitian_part, spectral_decompose
from entroflow.sampling import (
    default_pair_sampler,
    default_state_sampler,
    random_cptp_channel,
    random_full_rank_state,
    random_mixed_state,
    random_mixed_unitary_channel,
    random_unitary,
)
from entroflow.scenarios import DEFAULT_CONFIGS, _oscillating_dephasing, _step_grid
from entroflow.witnesses import (
    BISECT_ATOL,
    EPS_WITNESS,
    Claim,
    WitnessError,
    _Sides,
    _f_parts,
    _pinned_adjoint_traces,
    _violation_integrals,
    export_witness_reports,
    f_components,
)

from conftest import (depolarizing_generator, family_trajectory, fresh_interpreter,
                      reference_maps, superoperators, support_projectors)


def test_pinsker_gap_rejects_trace_nonincreasing_operation():
    # N = sqrt(1/2) id on I/2: N^dag N(rho) = rho/4, so D = log 4 exceeds
    # ||rho - N^dag N(rho)||_1 ||log rho||_inf = (3/4) log 2, and the reverse
    # bound fails.  Its one Kraus operator gives sum K^dag K = I/2 <= I:
    # trace-non-increasing, with a trace defect of 1/2.  pinsker_gap reports
    # the sides; the claims mask every row that needs trace preservation,
    # and name it.
    operation = QuantumChannel([np.sqrt(0.5) * np.eye(2)])
    rho = DensityMatrix.maximally_mixed(2)
    assert not operation.trace_preserving
    assert trace_defects(operation.superoperator()) == pytest.approx(0.5, rel=0, abs=1e-15)
    gap = pinsker_gap(operation, rho)
    assert gap.relative_entropy == pytest.approx(np.log(4.0), rel=0, abs=1e-14)
    assert gap.half_trace_norm_sq == pytest.approx(0.5 * 0.75**2, rel=0, abs=1e-14)
    assert gap.reverse_bound == pytest.approx(2.0, rel=0, abs=1e-14)
    claims = channel_claims(operation.superoperator(), rho)
    assert claims["reverse_pinsker"].slack == pytest.approx(0.75 - 2.0, rel=0, abs=1e-14)
    for claim in claims.values():
        assert claim.masked and "trace-preserving" in claim.needs
        assert np.isnan(claim.worst()[0]) and claim.worst()[1] is None
        assert not claim.holds()


def test_failed_preconditions_mask_rows_and_name_them():
    # Row t of each claim goes through map t: a unital channel, a
    # trace-preserving one that is not sub-unital (N(I) > I), and the
    # trace-non-increasing sqrt(1/2) id; column 0 is full rank, column 1 pure.
    maps = np.stack([depolarizing(2, 0.3).superoperator(), gadc(0.8, 5.0).superoperator(),
                     0.5 * np.eye(4)])
    full_rank, pure = np.diag([0.7, 0.3]), DensityMatrix.pure([1, 1]).entries
    claims = channel_claims(maps, np.stack([[full_rank, pure]] * 3))
    lower = claims.pop("theorem1_lower")
    np.testing.assert_array_equal(lower.masked, [[False, False]] * 2 + [[True, True]])
    assert lower.needs == "a trace-preserving map" and lower.holds()
    for claim in claims.values():
        np.testing.assert_array_equal(claim.masked, [[False, True]] + [[True, True]] * 2)
        assert "sub-unital" in claim.needs and "full-rank" in claim.needs
        assert claim.worst()[1] == (0, 0) and claim.holds()
    # A pure start masks the sandwich, and an interaction that loses trace
    # masks the environment bound; neither raises.
    sandwich = semigroup_sandwich(dephasing_generator(0.7), pure, 0.4)
    assert all(claim.masked and not claim.holds() for claim in sandwich.values())
    assert sandwich["sandwich_lower"].needs == "a full-rank initial state"
    lossy = QuantumChannel([np.sqrt(0.5) * np.eye(4)])
    simulation = environment_simulation_bound(lossy, np.eye(2) / 2, full_rank)
    assert simulation.masked and simulation.needs == "a trace-preserving interaction"
    assert np.isnan(simulation.worst()[0])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
def test_pinsker_pair_on_random_unital_channels(seed, d):
    rng = np.random.default_rng(seed)
    channel = random_mixed_unitary_channel(rng, d, 3)
    gap = pinsker_gap(channel, random_full_rank_state(rng, d))
    trace_norm = np.sqrt(2.0 * gap.half_trace_norm_sq)
    assert gap.half_trace_norm_sq - 1e-10 <= gap.relative_entropy
    assert gap.reverse_bound <= trace_norm + 1e-10


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
def test_entropy_change_above_back_action_divergence(seed, d):
    # Theorem 1 lower bound: S(N(rho)) - S(rho) >= D(rho || N^dag N(rho)).
    rng = np.random.default_rng(seed)
    channel = random_cptp_channel(rng, d)
    rho = random_full_rank_state(rng, d)
    assert entropy_change(channel, rho) >= entropy_change_lower_bound(channel, rho) - 1e-10


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_environment_simulation_bound_tight_for_unitary_interaction(seed):
    rng = np.random.default_rng(seed)
    interaction = unitary_channel(random_unitary(rng, 4))
    claim = environment_simulation_bound(
        interaction, random_full_rank_state(rng, 2), random_full_rank_state(rng, 2))
    assert not claim.masked and claim.holds()
    assert claim.lhs == pytest.approx(claim.rhs, abs=1e-8)


@pytest.mark.parametrize("generator", [dephasing_generator(0.7), depolarizing_generator(3, 0.2)],
                         ids=["dephasing", "depolarizing_d3"])
def test_nonunitality_witness_vanishes_for_unital_generator_at_full_rank(generator, rng):
    for _ in range(5):
        rho = random_full_rank_state(rng, generator.dim)
        assert abs(nonunitality_witness(generator, 0.0, rho)) <= 1e-12


def test_nonunitality_witness_leaves_scipy_sparse_out():
    # A fresh interpreter: one qubit's witness and bound take the dense
    # restriction propagate would integrate the state with, no sparse product.
    code = ("import sys\n"
            "from entroflow import DensityMatrix, dephasing_generator, theorem2_bound\n"
            "from entroflow.witnesses import nonunitality_witness\n"
            "plus = DensityMatrix.pure([1, 1])\n"
            "print(nonunitality_witness(dephasing_generator(1.0), 0.0, plus),\n"
            "      theorem2_bound(dephasing_generator(1.0), 0.0, plus))\n"
            "print([m for m in sys.modules if m.startswith('scipy.sparse')])\n")
    values, loaded = fresh_interpreter(code).splitlines()
    assert [float(v) for v in values.split()] == pytest.approx([-0.5, 0.5])
    assert loaded == "[]"


def test_nonunitality_witness_nonzero_for_unital_generator_at_pure_state():
    plus = DensityMatrix.pure(np.array([1.0, 1.0]))
    assert nonunitality_witness(dephasing_generator(1.0), 0.0, plus) == pytest.approx(-0.5)


@pytest.mark.parametrize("t", [0.5, 0.0], ids=["central", "one_sided"])
def test_time_local_generator_recovers_dephasing(t):
    # dM_t/dt o M_t^{-1} from the family's exact derivative and map.
    family, times = DephasingFamily(lambda s: s), np.array([t])
    generator = family.derivatives(times)[0] @ np.linalg.inv(family.superoperators(times)[0])
    np.testing.assert_allclose(generator, np.diag([0.0, -1.0, -1.0, 0.0]), atol=1e-8)


def test_channel_claims_mask_a_nan_map():
    # A map with a NaN entry fails the trace test, so every claim masks its rows.
    maps = np.stack([depolarizing(2, 0.3).superoperator(), np.full((4, 4), np.nan)])
    claims = channel_claims(maps, np.broadcast_to(np.eye(2) / 2, (2, 1, 2, 2)))
    for claim in claims.values():
        assert claim.masked.tolist() == [[False], [True]], claim.name
        assert claim.holds(), claim.name


def test_witness_report_holds_the_rate_limit_claim():
    # witness_reports builds the Theorem 2 claim once, from the same images
    # and mask as rate_limit: the same sides and mask, bit for bit.  |+>
    # changes rank at t = 0+, where the left-out rate masks the first row.
    generator = dephasing_generator(1.0)
    traj = propagate(generator, DensityMatrix.pure([1.0, 1.0]), np.linspace(0.0, 1.0, 21))
    report, claim = witness_reports(generator, traj), rate_limit(traj, EPS_WITNESS)
    for side in ("lhs", "rhs", "masked"):
        assert getattr(report.theorem2, side).tobytes() == getattr(claim, side).tobytes()
    assert (report.theorem2.name, report.theorem2.tol, report.theorem2.needs) == \
        (claim.name, claim.tol, claim.needs)
    assert report.excluded.tolist() == [True] + [False] * 20
    assert report.entropy_rate is report.theorem2.lhs and report.excluded is report.theorem2.masked


def test_export_witness_reports_format(tmp_path):
    theorem2 = Claim("theorem2", np.array([0.1, -0.0]), np.array([-0.25, 0.0]), EPS_WITNESS,
                     np.array([False, False]), "a left-out entropy rate within tol")
    report = WitnessReport(
        time=np.array([0.5, 1.0]), theorem2=theorem2, f_value=np.array([1e-20, 2.0]),
        nonunitality=np.array([0.25, -0.0]),
        flags={"test_b_passed": np.array([True, False]), "test_c_passed": np.array([False, False]),
               "test_a_passed": np.array([True, False])})
    path = tmp_path / "w.csv"
    export_witness_reports(report, path)
    assert path.read_text().splitlines() == [
        "t,entropy_rate,theorem2_bound,f,nonunitality,flags",
        "0.5,0.1,-0.25,1e-20,0.25,test_a_passed;test_b_passed",
        "1.0,-0.0,0.0,2.0,-0.0,",
    ]


def test_exported_flags_follow_the_sign_of_the_dephasing_rate(tmp_path):
    # gamma(t) = 0.5 + cos 2t from a full-rank start: the generator is unital
    # and the state keeps full rank, so theorem2_bound = 0 and f is the
    # entropy rate, whose sign is that of -gamma.  Tests (a) and (b) fire
    # together where gamma < 0 and neither where gamma > 0.  With Pi = I,
    # Tr{L_t(rho)} = 0, so the short-time term equals the witness and (c)
    # never fires.
    generator, _ = _oscillating_dephasing(0.5, 1.0, 2.0)
    grid = np.linspace(0.0, 3.0, 301)
    start = DensityMatrix(0.5 * (np.eye(2) + 0.6 * SIGMA_X))
    report = witness_reports(generator, propagate(generator, start, grid))
    assert not report.excluded.any()
    path = tmp_path / "w.csv"
    export_witness_reports(report, path)
    flags = np.array([line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]])
    gamma = 0.5 + np.cos(2.0 * grid)
    assert (gamma < -0.05).any() and (gamma > 0.05).any()
    assert set(flags[gamma < -0.05]) == {"test_a_passed;test_b_passed"}
    assert set(flags[gamma > 0.05]) == {""}
    assert not any("test_c_passed" in cell for cell in flags)


def test_measures_agree_on_non_cp_divisible_dephasing():
    # The rate 0.5 + cos 2t is negative on (pi/3, 2pi/3), where the channel-side
    # measure needs interval maps that are not CP.
    generator, family = _oscillating_dephasing(0.5, 1.0, 2.0)
    states = default_state_sampler(2, np.random.default_rng(7), n_random=2, bloch_points=1)
    assert len(states) == 4
    grid = np.linspace(0.0, 3.0, 61)
    from_generator = measure_generator(generator, states, grid).value
    from_channel = measure_channel(family, states, grid).value
    assert from_generator > 1e-2
    assert abs(from_generator - from_channel) <= 1e-5


def test_measure_channel_reads_the_rates_its_trajectory_holds(monkeypatch):
    # On the grid, f's entropy rates are those the family trajectory
    # computed at construction, bit for bit those entropy_rate recomputes;
    # entropy_rate runs only in the rounds of the window-edge search, on one
    # (C, 1, d, d) stack of off-grid states each.
    from entroflow import witnesses

    _, family = _oscillating_dephasing(0.5, 1.0, 2.0)
    states = default_state_sampler(2, np.random.default_rng(7), n_random=2, bloch_points=1)
    grid = np.linspace(0.0, 3.0, 61)
    traj = family_trajectory(family, states, grid)
    np.testing.assert_array_equal(traj.entropy_rates(),
                                  entropy_rate(traj.spectrum, traj.derivatives))
    shapes, rate = [], witnesses.entropy_rate
    monkeypatch.setattr(witnesses, "entropy_rate",
                        lambda rho, dot: shapes.append(np.shape(dot)) or rate(rho, dot))
    assert measure_channel(family, states, grid).value > 1e-2
    assert shapes and all(shape[1:] == (1, 2, 2) for shape in shapes)


def test_measure_generator_derives_its_operator_once(monkeypatch):
    # propagate builds the integration operator and keeps it on the
    # trajectory; every round of the window-edge search reads it.
    from entroflow import dynamics, witnesses

    generator, _ = _oscillating_dephasing(0.5, 1.0, 2.0)
    states = default_state_sampler(2, np.random.default_rng(7), n_random=2, bloch_points=1)
    builds, rounds = [], []
    pick, off_grid = dynamics._integration_operator, witnesses._rows_off_grid
    monkeypatch.setattr(dynamics, "_integration_operator",
                        lambda *args: builds.append(1) or pick(*args))
    monkeypatch.setattr(witnesses, "_rows_off_grid",
                        lambda *args: rounds.append(1) or off_grid(*args))
    assert measure_generator(generator, states, np.linspace(0.0, 3.0, 61)).value > 1e-2
    assert len(builds) == 1 and len(rounds) >= 2


def _bisected_integrals(grid, values, threshold, evaluate, excluded):
    """The window-edge search by plain bisection to BISECT_ATOL, kept as the
    oracle of :func:`_violation_integrals`: one evaluate call per round, at
    the midpoint of every open bracket."""
    violating = (values < -threshold) & ~excluded
    a, b = violating[:-1], violating[1:]
    v0, v1 = values[:-1], values[1:]
    totals = np.sum(np.where(a & b, 0.5 * (-v0 - v1) * np.diff(grid)[:, None], 0.0), axis=0)
    ks, ns = np.nonzero(a != b)
    if ks.size:
        t0, t1 = grid[ks], grid[ks + 1]
        lo, hi = t0.copy(), t1.copy()
        below_lo = v0[ks, ns] < -threshold
        active = hi - lo > BISECT_ATOL
        while active.any():
            mid = 0.5 * (lo + hi)
            keep_lo = (evaluate(ns[active], mid[active]) < -threshold) == below_lo[active]
            lo[active] = np.where(keep_lo, mid[active], lo[active])
            hi[active] = np.where(keep_lo, hi[active], mid[active])
            active = hi - lo > BISECT_ATOL
        t_star = np.clip(0.5 * (lo + hi), t0, t1)
        np.add.at(totals, ns, np.where(a[ks, ns], 0.5 * (-v0[ks, ns] + threshold) * (t_star - t0),
                                       0.5 * (threshold - v1[ks, ns]) * (t1 - t_star)))
    return totals


def _plateau(t, r):
    # violating below r, exactly at the threshold on [r, r + 0.03], above it after
    return np.minimum(t - r, 0.0) + np.maximum(t - r - 0.03, 0.0)


def _undefined_past(t, r):
    with np.errstate(invalid="ignore"):
        return np.where(t < r, t - r, np.nan)


# f(t, r) = v(t) + threshold per column root r; the grid interval holding r
# has one change of side.  The last case is violating everywhere, with grid
# point 25 excluded (a rank change), so both intervals at it end on
# violating values.
EDGE_CASES = {
    "sin2t-0.3": (lambda t, r: np.sin(2.0 * t) - 0.3 + 0.0 * r, None),
    "cubic": (lambda t, r: (t - r) ** 3, None),
    "exponential": (lambda t, r: np.expm1(200.0 * (t - r)), None),
    "sqrt_cusp": (lambda t, r: np.sign(t - r) * np.sqrt(np.abs(t - r)), None),
    "plateau": (_plateau, None),
    "step": (lambda t, r: np.where(t < r, -1.0, 1.0), None),
    "non_finite": (_undefined_past, None),
    "excluded_endpoint": (lambda t, r: -1.0 - t + 0.0 * r, 25),
}


def _edge_search(search, f, excluded_row):
    """Integrals, evaluate rounds, final brackets and the largest |v| at
    the ends of a window-edge interval, of ``search`` on the witness
    v = f - EPS_WITNESS over the 61-point grid of [0, 3], with one column per
    root r.  An edge moves its integral by at most |v| at its interval's ends
    times half the distance its midpoint moves."""
    grid = np.linspace(0.0, 3.0, 61)
    roots = np.array([1.2345, 0.4321, 2.6789])
    values = f(grid[:, None], roots[None, :]) - EPS_WITNESS
    excluded = np.zeros(values.shape, bool)
    if excluded_row is not None:
        excluded[excluded_row] = True
    calls = []

    def evaluate(ns, ts):
        v = f(ts, roots[ns]) - EPS_WITNESS
        calls.append((ns, ts, v))
        return v

    integrals = search(grid, values, EPS_WITNESS, evaluate, excluded)
    violating = (values < -EPS_WITNESS) & ~excluded
    brackets, v_max = [], 0.0
    for k, n in zip(*np.nonzero(violating[:-1] != violating[1:])):
        v_max = np.nanmax([v_max, abs(values[k, n]), abs(values[k + 1, n])])
        below_lo = values[k, n] < -EPS_WITNESS
        on, off = [grid[k]], [grid[k + 1]]
        for ns, ts, v in calls:
            inside = (ns == n) & (ts > grid[k]) & (ts < grid[k + 1])
            same = (v[inside] < -EPS_WITNESS) == below_lo
            on += list(ts[inside][same])
            off += list(ts[inside][~same])
        brackets.append((max(on), min(off)))
    return integrals, len(calls), np.array(brackets), v_max


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_window_edges_by_false_position_match_bisection(case):
    f, excluded_row = EDGE_CASES[case]
    integrals, rounds, brackets, v_max = _edge_search(_violation_integrals, f, excluded_row)
    oracle, oracle_rounds, _, _ = _edge_search(_bisected_integrals, f, excluded_row)
    assert len(brackets) > 0
    assert np.all(brackets[:, 0] < brackets[:, 1])
    assert np.all(brackets[:, 1] - brackets[:, 0] <= BISECT_ATOL)
    assert np.all(np.abs(integrals - oracle) <= BISECT_ATOL * v_max)
    assert rounds <= oracle_rounds == int(np.ceil(np.log2(0.05 / BISECT_ATOL)))


def test_oscillating_measure_locates_its_edges_in_few_rounds(monkeypatch):
    # On the 61-point grid every edge of the window (pi/3, 2pi/3) closes
    # within 4 rounds, where bisection takes 16, and the measure stays
    # within its edges' BISECT_ATOL of bisection's.
    from entroflow import witnesses

    generator, _ = _oscillating_dephasing(0.5, 1.0, 2.0)
    states = default_state_sampler(2, np.random.default_rng(7), n_random=2, bloch_points=1)
    grid = np.linspace(0.0, 3.0, 61)
    rounds, off_grid = [], witnesses._rows_off_grid
    monkeypatch.setattr(witnesses, "_rows_off_grid",
                        lambda *args: rounds.append(1) or off_grid(*args))
    value = measure_generator(generator, states, grid).value
    assert 2 <= len(rounds) <= 4
    monkeypatch.setattr(witnesses, "_violation_integrals", _bisected_integrals)
    rounds.clear()
    assert abs(measure_generator(generator, states, grid).value - value) <= 1e-8
    assert len(rounds) == 16


def test_markovian_measures_silent_on_pure_states():
    # Pure states change rank at t = 0+; the grid point before that jump must not
    # open a violation window.
    generator = LindbladGenerator(2, jumps=[JumpTerm(0.5, SIGMA_Z)])
    family = DephasingFamily(lambda t: t)
    states = [DensityMatrix.pure([1.0, 1.0]), DensityMatrix.pure([1.0, 1j]),
              DensityMatrix.pure([0.6, 0.8])]
    grid = np.linspace(0.0, 3.0, 61)
    assert measure_generator(generator, states, grid).value <= 1e-8
    assert measure_channel(family, states, grid).value <= 1e-8


def test_semigroup_sandwich_accepts_plain_number_rates(rng):
    generator = LindbladGenerator(2, jumps=[JumpTerm(0.5, SIGMA_Z)])
    claims = semigroup_sandwich(generator, random_full_rank_state(rng, 2), 0.4)
    assert sorted(claims) == ["sandwich_lower", "sandwich_upper"]
    assert all(claim.holds() and not claim.masked for claim in claims.values())


def _bloch_traces(s, u):
    """Tr{sigma log tau} for qubits with Bloch vectors s and u (|u| < 1):
    log tau = (1/2) log((1 - |u|^2)/4) I + artanh(|u|) u.sigma/|u|."""
    r = np.linalg.norm(u)
    return 0.5 * np.log((1.0 - r * r) / 4.0) + np.arctanh(r) * (s @ u) / r


def test_semigroup_sandwich_on_dephasing_is_the_closed_form():
    # sigma_z dephasing at rate gamma scales the x and y Bloch components by
    # exp(-gamma t); the entropy, both sides and D(rho_0||rho_2t) follow from
    # the Bloch vectors of rho_0, rho_t and rho_2t.
    gamma, t = 0.7, 0.4
    r0 = np.array([0.3, -0.4, 0.5])
    rho0 = 0.5 * (np.eye(2) + r0[0] * SIGMA_X + r0[1] * SIGMA_Y + r0[2] * SIGMA_Z)

    def at(time):
        return r0 * np.array([np.exp(-gamma * time), np.exp(-gamma * time), 1.0])

    def entropy(r):
        p = 0.5 * (1.0 + np.linalg.norm(r))
        return -p * np.log(p) - (1.0 - p) * np.log(1.0 - p)

    claims = semigroup_sandwich(dephasing_generator(gamma), rho0, t)
    lower, upper = -_bloch_traces(r0, at(2 * t)), -_bloch_traces(at(2 * t), r0)
    expected = {"sandwich_lower": (entropy(at(t)), lower),
                "sandwich_upper": (upper, entropy(at(t)))}
    for name, sides in expected.items():
        assert (claims[name].lhs, claims[name].rhs) == pytest.approx(sides, rel=0, abs=1e-12), name
    # The lower side is S(rho_0) + D(rho_0 || rho_2t): Theorem 1 on M_t.
    m_t = intermediate_map(dephasing_generator(gamma), 0.0, t)
    assert channel_claims(m_t, rho0)["theorem1_lower"].rhs == pytest.approx(
        lower - entropy(r0), rel=0, abs=1e-12)


def _decompositions(monkeypatch):
    """Count the eigh, eigvalsh and svd calls made after this returns."""
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_bounds_decompose_each_operator_once(rng, monkeypatch):
    channel = random_mixed_unitary_channel(rng, 3)
    rho = random_full_rank_state(rng, 3)
    qubit = random_full_rank_state(rng, 2).entries
    generator = dephasing_generator(0.7)

    def holder():  # the lhs of theorem1_holder, ||rho - N^dag N(rho)||_1 ||log rho||_inf
        sides = _Sides(channel, rho.entries)
        return sides.trace_norms * sides.log_norms

    cases = [
        # the state carries its spectrum: N^dag N(rho), and the eigenvalues
        # of rho - N^dag N(rho) for its trace norm
        (lambda: pinsker_gap(channel, rho), {"eigh": 1, "eigvalsh": 1, "svd": 0}),
        (lambda: pinsker_gap(channel, rho.entries), {"eigh": 2, "eigvalsh": 1, "svd": 0}),
        (holder, {"eigh": 1, "eigvalsh": 1, "svd": 0}),
        # rho_0 and rho_2t, and the eigenvalues of rho_t for its entropy
        (lambda: semigroup_sandwich(generator, qubit, 0.4), {"eigh": 2, "eigvalsh": 1, "svd": 0}),
    ]
    for call, expected in cases:
        counts = _decompositions(monkeypatch)
        call()
        assert counts == expected
        monkeypatch.undo()


def test_misshaped_states_raise_channel_error(rng):
    channel = random_mixed_unitary_channel(rng, 3)
    with pytest.raises(ChannelError, match="does not match dim_in 3"):
        entropy_change(channel, DensityMatrix.maximally_mixed(2))
    with pytest.raises(ChannelError, match="does not match dim_in 3"):
        environment_simulation_bound(channel, DensityMatrix.maximally_mixed(2),
                                     DensityMatrix.maximally_mixed(2))


def _random_semigroup(rng, d):
    """Random Hamiltonian and two jump operators of unit Frobenius norm, positive rates."""
    def unit(m):
        return m / np.linalg.norm(m)

    h = unit(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    jumps = [JumpTerm(float(rng.uniform(0.1, 1.0)),
                      unit(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))
             for _ in range(2)]
    return LindbladGenerator(d, hamiltonian=h + h.conj().T, jumps=jumps)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
def test_rate_above_theorem2_limit_on_cp_divisible_semigroups(seed, d):
    # Theorem 2: dS/dt >= -Tr{Pi L^dag(rho)} along any CP-divisible evolution.  The
    # start is full rank: at a pure start the rate on the support reads 0 while its
    # right limit at the t = 0+ rank jump is +inf.
    rng = np.random.default_rng(seed)
    generator = _random_semigroup(rng, d)
    traj = propagate(generator, random_mixed_state(rng, d), np.linspace(0.0, 1.0, 11))
    for t, state, dot in zip(traj.grid, traj.states, traj.derivatives):
        assert entropy_rate(state, dot) >= theorem2_bound(generator, float(t), state) - 1e-6


def _self_adjoint_unital_semigroup(rng, d):
    """Two Hermitian jump operators at positive rates and no Hamiltonian: a
    self-adjoint, unital generator, as the semigroup sandwich needs."""
    jumps = []
    for _ in range(2):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        jumps.append(JumpTerm(float(rng.uniform(0.1, 1.0)), (a + dagger(a)) / np.linalg.norm(a)))
    return LindbladGenerator(d, jumps=jumps)


def _stacked_channel_claims(rng, d, make):
    """channel_claims on 3 random maps from ``make`` and (3, 2, d, d) full-rank states."""
    maps = np.stack([make(rng, d).superoperator() for _ in range(3)])
    states = np.stack([[random_full_rank_state(rng, d).entries for _ in range(2)]
                       for _ in range(3)])
    return channel_claims(maps, states)


def _proposition7_claim(rng, d):
    u = random_unitary(rng, d)
    others = random_mixed_unitary_channel(rng, d, 2).kraus
    weight = float(rng.uniform(0.5, 1.0))
    channel = QuantumChannel([np.sqrt(weight) * u] + [np.sqrt(1.0 - weight) * k for k in others])
    return proposition7_check(channel, u, starts=2, seed=7)


def _theorem2_claim(rng, d):
    traj = propagate(_random_semigroup(rng, d), random_mixed_state(rng, d),
                     np.linspace(0.0, 1.0, 11))
    return rate_limit(traj, 1e-6)


# Each listed inequality on random inputs that meet its precondition: a
# positive trace-preserving map for the lower bound and the environment
# bound (random CPTP), a unital one (mixed unitary) for the upper bounds and
# the Pinsker pair, a self-adjoint unital semigroup for the sandwich, and a
# CP-divisible semigroup for Theorem 2.
CLAIM_CASES = {
    **{name: (lambda rng, d, _name=name, _make=make:
              _stacked_channel_claims(rng, d, _make)[_name])
       for name, make in [("theorem1_lower", random_cptp_channel),
                          ("theorem1_upper", random_mixed_unitary_channel),
                          ("theorem1_holder", random_mixed_unitary_channel),
                          ("pinsker", random_mixed_unitary_channel),
                          ("reverse_pinsker", random_mixed_unitary_channel)]},
    "environment_simulation": lambda rng, d: environment_simulation_bound(
        random_cptp_channel(rng, 2 * d), random_full_rank_state(rng, 2),
        random_full_rank_state(rng, d)),
    **{name: (lambda rng, d, _name=name: semigroup_sandwich(
        _self_adjoint_unital_semigroup(rng, d), random_full_rank_state(rng, d),
        float(rng.uniform(0.05, 2.0)))[_name])
       for name in ("sandwich_lower", "sandwich_upper")},
    "proposition7": _proposition7_claim,
    "theorem2": _theorem2_claim,
}


@pytest.mark.parametrize("name", list(CLAIM_CASES))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
def test_each_inequality_holds_on_random_inputs(name, seed, d):
    claim = CLAIM_CASES[name](np.random.default_rng(seed), d)
    assert claim.name == name
    if name != "theorem2":  # a rank-deficient start masks its first rows
        assert not claim.masked.any(), claim.needs
    slack, where = claim.worst()
    assert claim.holds(), (slack, where)


def test_theorem1_on_step_maps_flags_exactly_where_gamma_decreases():
    # Gamma = 0.5 t + 0.5 sin 2t on 151 points of [0, 3]: the step maps
    # M_{k+1} M_k^-1 of the dephasing family scale coherences by
    # exp(Gamma_k - Gamma_{k+1}), above 1, so not positive, on the 53 steps
    # where Gamma decreases.  Theorem 1's lower bound fails there by more than
    # 1e-10 for every start, and holds everywhere else: the interval
    # witness of non-P-divisibility, with no derivative taken.
    gamma = lambda t: 0.5 * t + 0.5 * np.sin(2.0 * t)
    family = DephasingFamily(gamma)
    grid = np.linspace(0.0, 3.0, 151)
    maps = family.superoperators(grid)
    steps = maps[1:] @ np.linalg.inv(maps[:-1])
    rng = np.random.default_rng(20)
    starts = [random_full_rank_state(rng, 2) for _ in range(10)] + [DensityMatrix.pure([1, 1])]
    claim = channel_claims(steps, family.states(starts, grid[:-1]))["theorem1_lower"]
    decreasing = np.diff(gamma(grid)) < 0.0
    assert decreasing.sum() == 53 and claim.slack.shape == (150, 11)
    assert not claim.masked.any()
    np.testing.assert_array_equal(claim.slack < -1e-10, np.repeat(decreasing[:, None], 11, axis=1))
    assert claim.slack[~decreasing].min() > 1e-6
    assert not claim.holds() and decreasing[claim.worst()[1][0]]


def test_measure_channel_builds_each_step_generator_stack_once():
    # One default-sampler measure_channel on the decoherence_measures profile
    # evolves three stacks: the grid and two rounds of the window-edge
    # search.  Each evaluates Gamma once at real times (the maps) and once
    # at complex times (the rates of K_t), and the short-time derivative term
    # reads the K_t its stack built.
    config = DEFAULT_CONFIGS["decoherence_measures"]
    params = config["parameters"]
    _, family = _oscillating_dephasing(params["base"], params["amplitude"], params["frequency"])
    gamma, calls = family.gamma_integral, []

    def counted(t):
        calls.append(np.iscomplexobj(t))
        return gamma(t)

    family.gamma_integral = counted
    sampler = default_state_sampler(2, np.random.default_rng(config["seed"]),
                                    n_random=params["n_random"],
                                    bloch_points=params["bloch_points"])
    assert measure_channel(family, sampler, _step_grid(params)).value > 0.0
    assert calls == [False, True] * 3


def test_witness_reports_without_a_family_build_no_superoperator(rng, monkeypatch):
    generator = _random_semigroup(rng, 3)
    traj = propagate(generator, random_mixed_state(rng, 3), np.linspace(0.0, 1.0, 11))
    built = []
    superoperator = LindbladGenerator.superoperator
    monkeypatch.setattr(LindbladGenerator, "superoperator",
                        lambda self, t: built.append(t) or superoperator(self, t))
    assert len(witness_reports(generator, traj).time) == len(traj)
    assert built == []


def _trace_products(a, b):
    """Re Tr{a b}, matrix by matrix for two stacks (..., d, d)."""
    return np.real(np.einsum("...ij,...ji->...", a, b))


def _dense_epsilon_terms(k, states, projectors):
    """Tr{Pi (K_t + K_t^dag)(rho)} from dense (T, d^2, d^2) step generators
    K_t, for states and projectors (T, N, d, d)."""
    return _trace_products(projectors, apply_superoperators(
        k + np.conj(np.swapaxes(k, -1, -2)), states))


def test_witness_reports_f_matches_the_generator_family(rng):
    # K_t = L_t: the f column, read from sparse generator applications,
    # agrees with the dense route through the stacked superoperators of L_t.
    generator = _random_semigroup(rng, 3)
    traj = propagate(generator, random_mixed_state(rng, 3), np.linspace(0.0, 1.0, 11))
    dense = _dense_epsilon_terms(superoperators(generator, traj.grid), traj.entries[:, None],
                                 support_projectors(traj.spectrum)[:, None])
    np.testing.assert_allclose(witness_reports(generator, traj).f_value,
                               traj.entropy_rates() + dense[:, 0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 12])
def test_support_traces_equal_the_projector_form(rng, d):
    # Tr{Pi X} as the expectations of X summed over the support, against the
    # trace with the support projector, on rank-deficient (T, N, d, d) stacks.
    shape = (4, 3)
    ranks = rng.integers(1, d, size=shape)
    g = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    v = np.linalg.qr(g)[0]
    p = rng.uniform(0.1, 1.0, size=shape + (d,)) * (np.arange(d) < ranks[..., None])
    p /= p.sum(axis=-1, keepdims=True)
    states = hermitian_part((v * p[..., None, :]) @ dagger(v))
    spectrum = spectral_decompose(states)
    np.testing.assert_array_equal(spectrum.support_mask().sum(axis=-1), ranks)
    projectors = support_projectors(spectrum)
    x = rng.normal(size=states.shape) + 1j * rng.normal(size=states.shape)
    np.testing.assert_allclose(spectrum.support_traces(x), _trace_products(projectors, x),
                               rtol=0, atol=1e-12)
    generator, times = _random_semigroup(rng, d), np.linspace(0.0, 1.0, shape[0])
    adjoint_images = generator.adjoint_apply(times, states)
    # through the sparse generator and through its restriction to all d^2
    # coordinates, one time per (T, N) row either way
    for operator in (_WholeStates(generator), generator.restricted(np.arange(d * d))):
        np.testing.assert_allclose(
            _pinned_adjoint_traces(operator, times, operator.coordinates(states), spectrum),
            _trace_products(projectors, adjoint_images), rtol=0, atol=1e-12)
    # the short-time term of witness_reports, K_t = L_t
    np.testing.assert_allclose(
        spectrum.support_traces(adjoint_images + generator.apply(times, states)),
        _dense_epsilon_terms(superoperators(generator, times), states, projectors),
        rtol=0, atol=1e-12)


def test_whole_state_stack_reads_the_whole_space_witness():
    # (|0> + |1>)/sqrt(2) at cutoff 12 touches the populations and the
    # coherence orders -1 and 1: m = 34 > max(d, 16) coordinates, so
    # propagate integrates the whole states, and the witness is the sparse
    # L_t^dag's, bit for bit.  The restriction to the same 34 coordinates,
    # which no integrator takes here, gives it within rounding.
    generator, plus = bosonic_generator(0.0, 1.0, 12), np.zeros(12)
    plus[:2] = 2 ** -0.5
    traj = propagate(generator, DensityMatrix.pure(plus), np.linspace(0.0, 2.0, 41))
    assert isinstance(traj.operator, _WholeStates)
    whole = traj.spectrum.support_traces(generator.adjoint_apply(traj.grid, traj.entries))
    np.testing.assert_array_equal(
        _pinned_adjoint_traces(traj.operator, traj.grid, traj.coordinates(), traj.spectrum), whole)
    np.testing.assert_array_equal(witness_reports(generator, traj).nonunitality, whole)
    labels = generator.invariant_sets()
    index = np.flatnonzero(np.isin(labels, labels[np.flatnonzero(traj.entries[0].reshape(-1))]))
    assert len(index) == 34
    restricted = generator.restricted(index)
    np.testing.assert_allclose(
        _pinned_adjoint_traces(restricted, traj.grid, restricted.coordinates(traj.entries),
                               traj.spectrum),
        whole, rtol=0, atol=1e-14)


def test_witness_reports_need_a_trajectory_propagated_with_the_generator(rng):
    # The witnesses read the rows and the operator that propagate kept: a
    # trajectory built from states, or propagated with another generator,
    # holds neither for this generator, and is refused.  So is a stack of
    # states, whose (T, N) columns have no one-state record.
    generator = _random_semigroup(rng, 3)
    traj = propagate(generator, random_mixed_state(rng, 3), np.linspace(0.0, 1.0, 11))
    bare = Trajectory(traj.grid, traj.entries, traj.derivatives, spectrum=traj.spectrum)
    other = propagate(_random_semigroup(rng, 3), traj.entries[0], traj.grid)
    for refused in (bare, other):
        with pytest.raises(WitnessError, match="propagated with the generator"):
            witness_reports(generator, refused)
    stacked = propagate(generator, [traj.entries[0]] * 2, traj.grid)
    with pytest.raises(WitnessError, match=r"one-state trajectory, not a stack of shape "
                                           r"\(11, 2\)"):
        witness_reports(generator, stacked)


def test_back_action_builds_no_adjoint_channel(rng, monkeypatch):
    # N^dag(N(rho)) from the Kraus operators: the Theorem 1 bounds and the
    # Pinsker pair build no QuantumChannel at all, adjoint or other, and
    # give the adjoint channel's values.
    channel, rho = random_mixed_unitary_channel(rng, 3, 3), random_full_rank_state(rng, 3)
    values = (entropy_change_lower_bound, entropy_change_upper_bound,
              lambda ch, r: channel_claims(ch, r)["theorem1_holder"].lhs,
              lambda ch, r: pinsker_gap(ch, r).relative_entropy)
    with monkeypatch.context() as patch:
        patch.setattr(QuantumChannel, "adjoint_apply",
                      lambda self, x: QuantumChannel([dagger(k) for k in self.kraus]).apply(x))
        expected = [f(channel, rho) for f in values]

    def refused(self, kraus):
        raise AssertionError("channel built")
    monkeypatch.setattr(QuantumChannel, "__init__", refused)
    np.testing.assert_allclose([f(channel, rho) for f in values], expected, rtol=0, atol=1e-14)


def test_generator_family_epsilon_terms_need_no_dense_superoperators():
    # witness_reports at d = 20 over 101 points, at constant and at
    # time-dependent rates: its f column against the dense route through the
    # 400 x 400 superoperators of L_t at every tenth point, and its peak
    # memory with none of them built (101 of them and their adjoints took
    # 558 MiB at the peak).
    a = annihilation_operator(20)
    constant = bosonic_generator(0.2, 1.2, 20)
    timed = LindbladGenerator(20, jumps=[(lambda t: 0.5 + 0.3 * np.sin(t), a), (0.2, dagger(a))])
    grid = np.linspace(0.0, 2.0, 101)
    rows = slice(None, None, 10)
    for generator in (constant, timed):
        traj = propagate(generator, thermal_state(0.2, 20), grid)
        report = witness_reports(generator, traj)
        dense = _dense_epsilon_terms(superoperators(generator, grid[rows]), traj.entries[rows, None],
                                     support_projectors(traj.spectrum[rows])[:, None])
        np.testing.assert_allclose(report.f_value[rows],
                                   traj.entropy_rates()[rows] + dense[:, 0], rtol=0, atol=1e-12)
    single = propagate(constant, thermal_state(0.2, 20), grid)
    tracemalloc.start()
    try:
        witness_reports(constant, single)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
def test_entropy_change_below_subunital_upper_bound(seed, d):
    # Theorem 1 upper bound for sub-unital channels: Delta S <= Tr{[rho - N^dag N(rho)] log rho}.
    rng = np.random.default_rng(seed)
    channel = random_mixed_unitary_channel(rng, d)
    rho = random_full_rank_state(rng, d)
    assert entropy_change(channel, rho) <= entropy_change_upper_bound(channel, rho) + 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
def test_holder_relaxation_above_trace_form_upper_bound(seed, d):
    # Delta S <= Tr{[rho - N^dag N(rho)] log rho} <= ||rho - N^dag N(rho)||_1 ||log rho||_inf.
    rng = np.random.default_rng(seed)
    channel = random_mixed_unitary_channel(rng, d)
    rho = random_full_rank_state(rng, d)
    upper = entropy_change_upper_bound(channel, rho)
    assert entropy_change(channel, rho) <= upper + 1e-10
    assert upper <= channel_claims(channel, rho)["theorem1_holder"].lhs + 1e-10


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]))
def test_commutator_form_equals_theorem2_bound_at_full_rank(seed, d):
    # At rho > 0, Pi = I and -Tr{L^dag(rho)} = -Tr{rho L(I)} = sum_i gamma_i <[A_i^dag, A_i]>:
    # the Hamiltonian drops out of L(I).
    rng = np.random.default_rng(seed)
    generator = _random_semigroup(rng, d)
    rho = random_full_rank_state(rng, d)
    commutator_form = sum(term.rate_at(0.3) * np.real(np.trace(
        (dagger(term.operator) @ term.operator - term.operator @ dagger(term.operator)) @ rho.entries))
        for term in generator.jumps)
    assert commutator_form == pytest.approx(theorem2_bound(generator, 0.3, rho), abs=1e-12)


def _f_per_point(family, rho0, t, h=1e-5, eps0=1e-3):
    """f(t) one point at a time from reference map objects of the family: the
    state and its central (one-sided before t = h) difference, the rate on the
    support, and the Richardson pair of short-time quotients."""
    at, step_map = reference_maps(family)

    def state(tau):
        return apply_superoperators(at(tau), rho0)

    rho = DensityMatrix(hermitian_part(state(t)))
    if t >= h:
        dot = (state(t + h) - state(t - h)) / (2 * h)
    else:
        dot = (-3 * state(t) + 4 * state(t + h) - state(t + 2 * h)) / (2 * h)
    rate = -np.real(np.trace(hermitian_part(dot) @ matrix_log_on_support(rho)))
    pi = support_projectors(spectral_decompose(rho))
    base = np.real(np.trace(pi @ rho.entries))

    def quotient(eps):
        step = step_map(t, eps)
        return (np.real(np.vdot(apply_superoperators(step, pi),
                                apply_superoperators(step, rho.entries))) - base) / eps

    return rate + 2 * quotient(eps0 / 2) - quotient(eps0)


@pytest.mark.parametrize("family", [GadcFamily(5.0), _oscillating_dephasing(0.5, 1.0, 2.0)[1]],
                         ids=["gadc", "oscillating_dephasing"])
def test_stacked_f_matches_per_point_f(family, rng):
    # f is exact; _f_per_point takes both limits by finite differences, so it
    # agrees only to its own truncation error, which the Richardson pair at
    # eps0 = 1e-3 dominates: up to 1.7e-5 on GADC at these points (25 times
    # less at eps0 = 2e-4), 3.0e-11 on the dephasing family.
    fd_reference_tol = 3e-5
    times = np.sort(np.concatenate([[0.0, 4e-6], rng.uniform(0.0, 3.0, 3)]))
    states = [random_mixed_state(rng, 2), random_full_rank_state(rng, 2)]
    for rho0 in states:  # 2 families x 2 states x 5 times = 20 points
        stacked = sum(f_components(family, rho0, times))
        assert stacked.shape == times.shape
        for t, f in zip(times, stacked):
            assert f == pytest.approx(_f_per_point(family, rho0, t), abs=fd_reference_tol)
            assert f == pytest.approx(sum(f_components(family, rho0, [t]))[0], abs=1e-10)
    # Row-aligned pairs, as the measure's boundary bisection evaluates them.
    pairs = np.stack([as_matrix(states[k % 2]) for k in range(len(times))])[:, None]
    rates, eps_terms = _f_parts(*family.evolve(pairs, times))
    for k, t in enumerate(times):
        assert rates[k, 0] + eps_terms[k, 0] == pytest.approx(
            sum(f_components(family, states[k % 2], [t]))[0], abs=1e-10)


@pytest.mark.parametrize("family", [GadcFamily(5.0), _oscillating_dephasing(0.5, 1.0, 2.0)[1]],
                         ids=["gadc", "oscillating_dephasing"])
def test_blp_measure_matches_per_pair_loop(family, rng):
    pairs = default_pair_sampler(2, rng, n_pairs=20)
    grid = np.linspace(0.0, 3.0, 151)
    at, _ = reference_maps(family)
    best = 0.0
    for rho1, rho2 in pairs:
        distances = [0.5 * np.linalg.svd(apply_superoperators(at(t), rho1)
                                         - apply_superoperators(at(t), rho2),
                                         compute_uv=False).sum() for t in grid]
        revivals = np.clip(np.gradient(distances, grid), 0.0, None)
        best = max(best, float(np.sum(0.5 * (revivals[1:] + revivals[:-1]) * np.diff(grid))))
    assert blp_measure(family, pairs, grid) == pytest.approx(best, abs=1e-12)


def test_blp_measure_rejects_empty_pair_sampler():
    with pytest.raises(WitnessError, match="no state pairs"):
        blp_measure(DephasingFamily(lambda t: t), [], np.linspace(0.0, 1.0, 11))


def test_blp_measure_refuses_grids_that_are_not_increasing():
    # |+> and |-> under Gamma(t) = t/2 + sin(2t)/2 revive by exp(-Gamma(2pi/3))
    # - exp(-Gamma(pi/3)) on the sorted grid.  Reversed, shuffled or repeated
    # times would flip the sign of the gradient or divide by 0, and a single
    # time has none: each is refused as cp_divisibility_check refuses it,
    # with no warning (pytest turns one into an error).
    gamma = lambda t: 0.5 * t + 0.5 * np.sin(2.0 * t)
    family = DephasingFamily(gamma)
    pairs = [(DensityMatrix.pure([1, 1]), DensityMatrix.pure([1, -1]))]
    grid = np.linspace(0.0, 3.0, 301)
    revival = np.exp(-gamma(2.0 * np.pi / 3.0)) - np.exp(-gamma(np.pi / 3.0))
    assert blp_measure(family, pairs, grid) == pytest.approx(revival, abs=1e-4)
    shuffled = np.random.default_rng(0).permutation(grid)
    for bad in (grid[::-1], shuffled, np.insert(grid, 10, grid[10])):
        with pytest.raises(IntegrationError, match="time grid must be strictly increasing"):
            blp_measure(family, pairs, bad)
    with pytest.raises(IntegrationError, match="time grid needs at least 2 finite points"):
        blp_measure(family, pairs, [0.5])


@pytest.mark.parametrize("measure", ["generator", "channel"])
def test_measures_refuse_an_empty_grid(measure):
    rho = DensityMatrix.diagonal([0.6, 0.4])
    with pytest.raises(IntegrationError, match="on one axis"):
        if measure == "generator":
            measure_generator(dephasing_generator(1.0), [rho], [])
        else:
            measure_channel(GadcFamily(5.0), [rho], [])


_QUBIT_GENERATOR = dephasing_generator(1.0)
_QUBIT_FAMILY = DephasingFamily(lambda t: t)
_QUTRIT = np.eye(3) / 3
_GRID = np.linspace(0.0, 1.0, 5)
WRONG_DIMENSION_CALLS = {  # the entry point: (what it names, the call)
    "propagate": ("generator", lambda: propagate(_QUBIT_GENERATOR, _QUTRIT, _GRID)),
    "measure_generator": ("generator",
                          lambda: measure_generator(_QUBIT_GENERATOR, [_QUTRIT], _GRID)),
    "theorem2_bound": ("generator", lambda: theorem2_bound(_QUBIT_GENERATOR, 0.1, _QUTRIT)),
    "nonunitality_witness": ("generator",
                             lambda: nonunitality_witness(_QUBIT_GENERATOR, 0.1, _QUTRIT)),
    "measure_channel": ("family", lambda: measure_channel(_QUBIT_FAMILY, [_QUTRIT], _GRID)),
    "blp_measure": ("family", lambda: blp_measure(_QUBIT_FAMILY, [(_QUTRIT, _QUTRIT)], _GRID)),
    "evolve": ("family", lambda: _QUBIT_FAMILY.evolve([_QUTRIT], _GRID)),
    "f_components": ("family", lambda: f_components(_QUBIT_FAMILY, _QUTRIT, _GRID)),
}


@pytest.mark.parametrize("call", list(WRONG_DIMENSION_CALLS))
def test_states_of_another_dimension_are_named(call):
    # A qutrit state on a qubit generator or family names both dimensions.
    kind, run = WRONG_DIMENSION_CALLS[call]
    with pytest.raises(IntegrationError,
                       match=rf"states of shape \(3, 3\) do not match the {kind}'s dimension 2"):
        run()
