import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entroflow
from entroflow import (
    DensityMatrix,
    GadcFamily,
    LindbladGenerator,
    dephasing_channel,
    gadc,
    propagate,
    semigroup_sandwich,
)
from entroflow.channels import SIGMA_X, SIGMA_Z
from entroflow.linalg import dagger, hermitian_part

_ACCEPTANCE: dict[str, str] = {}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def support_projectors(spectrum):
    """The projectors onto the supports of a spectrum, or of a stack of them,
    built from the eigenvectors that ``support_mask`` selects."""
    v = spectrum.eigenvectors
    return hermitian_part((v * spectrum.support_mask()[..., None, :]) @ dagger(v))


def superoperators(generator, times) -> np.ndarray:
    """The matrices of L_t at an array of times, as a (T, d^2, d^2) stack of
    the generator's ``superoperator(t)``."""
    return np.stack([generator.superoperator(float(t)) for t in times])


def kraus_choi(kraus) -> np.ndarray:
    """The Choi matrix sum_i vec(K_i^T) vec(K_i^T)^dag of a Kraus set, from
    the Kraus operators alone."""
    vecs = np.array([np.asarray(k).T.reshape(-1) for k in kraus])
    return hermitian_part(vecs.T @ vecs.conj())


def reference_maps(family):
    """M_{t,0} and M_{t+eps,t} of a channel family as two callables giving
    (4, 4) maps, built without the family's stacks: from :func:`gadc` for
    GADC (whose step is the channel at time eps), and from
    :func:`dephasing_channel` for dephasing, or the diagonal matrix where its
    coherence factor exceeds 1."""
    if isinstance(family, GadcFamily):
        return ((lambda t: gadc(t, family.omega).superoperator()),
                (lambda t, eps: gadc(eps, family.omega).superoperator()))

    def coherence_map(s, t):
        c = float(np.exp(family.gamma_integral(s) - family.gamma_integral(t)))
        return dephasing_channel(c).superoperator() if c <= 1.0 \
            else np.diag([1.0, c, c, 1.0])
    return (lambda t: coherence_map(0.0, t)), (lambda t, eps: coherence_map(t, t + eps))


def fresh_interpreter(code: str, *args: str) -> str:
    """The output of ``python -c code *args`` in a new interpreter, which
    imports this checkout's package and this file as ``conftest``."""
    paths = [str(Path(entroflow.__file__).resolve().parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def first_scipy_use(case: str) -> np.ndarray:
    """A computation that would load scipy if any of its steps needed it: the
    trajectory entries of a driven, damped qubit under a ``constant`` or
    ``time_dependent`` rate (maps by dynamics.expm's Padé kernel), of a
    qubit under ``dephasing`` at a time-dependent rate (diagonal maps), or
    the sides and masks of the ``sandwich`` claims of a dephasing
    semigroup.  Every generator compiles in numpy, every map is built in
    numpy, and none of these makes
    a whole-space product, the one step that loads scipy.sparse.  It lives
    here, not in a test module, so that a fresh interpreter can import it
    without scipy."""
    if case == "sandwich":
        claims = semigroup_sandwich(LindbladGenerator(2, jumps=[(0.5, SIGMA_Z)]),
                                    np.array([[0.7, 0.2], [0.2, 0.3]]), 0.4)
        return np.array([(claim.lhs, claim.rhs, claim.masked) for claim in claims.values()])
    lowering = np.array([[0, 1], [0, 0]], dtype=complex)
    rate = 0.7 if case == "constant" else (lambda t: 0.5 + 0.4 * np.cos(3.0 * t))
    if case == "dephasing":
        generator = LindbladGenerator(2, jumps=[(rate, SIGMA_Z)])
    else:
        generator = LindbladGenerator(2, hamiltonian=0.3 * SIGMA_X, jumps=[(rate, lowering)])
    return propagate(generator, DensityMatrix.pure([1, 0.5]), np.linspace(0.0, 2.0, 21)).entries


def pytest_configure(config):
    """numpy's ComplexWarning is an error, beside ``error::RuntimeWarning``
    (pyproject.toml): a complex value written into a float64 row, such as
    the population rows of a real restriction, fails the test instead of
    silently losing its imaginary part.  The class is in numpy.exceptions
    from numpy 1.25 on, and at numpy's top level before."""
    module = "numpy.exceptions" if hasattr(getattr(np, "exceptions", None),
                                           "ComplexWarning") else "numpy"
    config.addinivalue_line("filterwarnings", f"error::{module}.ComplexWarning")


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
