import numpy as np
import pytest

from entroflow import (
    DephasingFamily,
    GadcFamily,
    SuperOperator,
    dephasing_channel,
    gadc,
    intermediate_map,
)

_ACCEPTANCE: dict[str, str] = {}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def brute_force_partial_trace(rho: np.ndarray, dims, keep: str) -> np.ndarray:
    """Element-indexed summation oracle, independent of the library routine."""
    d_a, d_b = dims
    if keep == "B":
        out = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_b):
            for j in range(d_b):
                for a in range(d_a):
                    out[i, j] += rho[a * d_b + i, a * d_b + j]
    else:
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                for b in range(d_b):
                    out[i, j] += rho[i * d_b + b, j * d_b + b]
    return out


def reference_maps(family):
    """M_{t,0} and M_{t+eps,t} of a channel family as two callables giving map
    objects, built without the family's stacks: :func:`gadc` for GADC (whose
    step is the channel at time eps), :func:`dephasing_channel` for dephasing,
    or the diagonal SuperOperator where its coherence factor exceeds 1, and
    :func:`intermediate_map` for a generator."""
    if isinstance(family, GadcFamily):
        return (lambda t: gadc(t, family.omega)), (lambda t, eps: gadc(eps, family.omega))
    if isinstance(family, DephasingFamily):
        def coherence_map(s, t):
            c = float(np.exp(family.gamma_integral(s) - family.gamma_integral(t)))
            return dephasing_channel(c) if c <= 1.0 else SuperOperator(np.diag([1.0, c, c, 1.0]))
        return (lambda t: coherence_map(0.0, t)), (lambda t, eps: coherence_map(t, t + eps))

    def interval_map(s, t):
        return intermediate_map(family.generator, s, t, atol=family.map_atol)
    return (lambda t: interval_map(0.0, t)), (lambda t, eps: interval_map(t, t + eps))


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.failed):
        _ACCEPTANCE[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[name]
        mark = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{mark}  {name}")
