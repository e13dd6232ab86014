"""Independent references for the benchmark's checks.

Everything here is written from the closed forms in the paper's examples and
from plain numpy, without calling into ``entroflow``, so a defect in the
package cannot also hide in its reference.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Plain-numpy quantum information
# ---------------------------------------------------------------------------

def kraus_apply(kraus, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def kraus_adjoint_apply(kraus, x: np.ndarray) -> np.ndarray:
    return sum(k.conj().T @ x @ k for k in kraus)


def entropy(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    lam = lam[lam > 1e-300]
    return float(-np.sum(lam * np.log(lam)))


def _log_full_rank(a: np.ndarray) -> np.ndarray:
    lam, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    if lam[0] <= 0.0:
        raise ValueError("reference log needs a positive definite matrix")
    return (v * np.log(lam)) @ v.conj().T


def relative_entropy_full_rank(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr{rho (log rho - log sigma)}, both positive definite."""
    return float(np.real(np.trace(rho @ (_log_full_rank(rho) - _log_full_rank(sigma)))))


def trace_norm(a: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def upper_bound_theorem1(rho: np.ndarray, back: np.ndarray) -> float:
    """Tr{[rho - N^dag N(rho)] log rho}, the sub-unital upper bound."""
    return float(np.real(np.trace((rho - back) @ _log_full_rank(rho))))


def choi_from_superoperator(matrix: np.ndarray, dim: int) -> np.ndarray:
    """J = sum_ij |i><j| (x) Phi(|i><j|), with vec(X) = X.reshape(-1)."""
    j = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[a, b] = 1.0
            image = (matrix @ e.reshape(-1)).reshape(dim, dim)
            j[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] = image
    return j


def diamond_bracket(matrix: np.ndarray, dim: int) -> tuple[float, float]:
    """(lower, upper) bounds on the diamond norm of a Hermiticity-preserving map.

    Lower: the maximally entangled input, ||J||_1 / d.  Upper: the dual
    feasible point ||Tr_out |J| ||_inf of Watrous' semidefinite program.
    """
    j = choi_from_superoperator(matrix, dim)
    j = 0.5 * (j + j.conj().T)
    lam, v = np.linalg.eigh(j)
    abs_j = (v * np.abs(lam)) @ v.conj().T
    reduced = np.einsum("iaja->ij", abs_j.reshape(dim, dim, dim, dim))
    upper = float(np.max(np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))))
    lower = float(np.sum(np.abs(lam))) / dim
    return lower, upper


def kraus_superoperator(kraus) -> np.ndarray:
    return sum(np.kron(k, k.conj()) for k in kraus)


# ---------------------------------------------------------------------------
# Qubit dephasing with gamma(t) = base + amplitude cos(frequency t)
# ---------------------------------------------------------------------------

def bloch_vector(rho: np.ndarray) -> np.ndarray:
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag,
                     (rho[0, 0] - rho[1, 1]).real])


class Dephasing:
    """Coherences decay as exp(-Gamma(t)); populations stay fixed."""

    def __init__(self, base: float, amplitude: float = 0.0, frequency: float = 1.0):
        self.base, self.amplitude, self.frequency = base, amplitude, frequency

    def gamma(self, t):
        return self.base + self.amplitude * np.cos(self.frequency * t)

    def gamma_integral(self, t):
        return self.base * t + self.amplitude / self.frequency * np.sin(self.frequency * t)

    def bloch_at(self, rho0: np.ndarray, t) -> np.ndarray:
        x, y, z = bloch_vector(rho0)
        c = np.exp(-self.gamma_integral(np.asarray(t, dtype=float)))
        return np.stack(np.broadcast_arrays(x * c, y * c, z + 0.0 * c), axis=-1)

    def entropy_rate(self, rho0: np.ndarray, t) -> np.ndarray:
        """dS/dt = (1/2) log((1 - r)/(1 + r)) dr/dt, dr/dt = -gamma r_perp^2 / r."""
        t = np.asarray(t, dtype=float)
        b = self.bloch_at(rho0, t)
        r = np.linalg.norm(b, axis=-1)
        perp2 = b[..., 0] ** 2 + b[..., 1] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            dr = -self.gamma(t) * perp2 / r
            rate = 0.5 * np.log((1.0 - r) / (1.0 + r)) * dr
        # A pure state has no coherence left to lose at t = 0; the package
        # takes the logarithm on the support there, which gives 0.
        return np.where((perp2 > 0.0) & (r < 1.0 - 1e-12), rate, 0.0)

    def trace_distance(self, rho1: np.ndarray, rho2: np.ndarray, t) -> np.ndarray:
        return 0.5 * np.linalg.norm(self.bloch_at(rho1, t) - self.bloch_at(rho2, t), axis=-1)

    def interval_choi_min(self, a: float, b: float) -> float:
        """Smallest Choi eigenvalue of the map from a to b: min(0, 1 - e^{-dGamma})."""
        decay = self.gamma_integral(b) - self.gamma_integral(a)
        return min(0.0, 1.0 - float(np.exp(-decay)))


def violation_integral(grid: np.ndarray, values: np.ndarray, threshold: float,
                       rate_fn) -> float:
    """Trapezoid integral of |v| over {v < -threshold} with exact window edges.

    The measure's own definition on a grid, evaluated on closed-form values:
    window edges are located by bisection on the closed form to 1e-12.
    """
    target = -threshold
    below = values < target

    def edge(t0, t1):
        lo, hi = t0, t1
        lo_below = rate_fn(lo) < target
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if (rate_fn(mid) < target) == lo_below:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    total = 0.0
    for k in range(len(grid) - 1):
        t0, t1, v0, v1 = grid[k], grid[k + 1], values[k], values[k + 1]
        if below[k] and below[k + 1]:
            total += 0.5 * (-v0 - v1) * (t1 - t0)
        elif below[k]:
            total += 0.5 * (threshold - v0) * (edge(t0, t1) - t0)
        elif below[k + 1]:
            total += 0.5 * (threshold - v1) * (t1 - edge(t0, t1))
    return total


def revival_integral(grid: np.ndarray, distances: np.ndarray) -> float:
    """Integrated positive part of the central-difference slope of a distance."""
    slope = np.clip(np.gradient(distances, grid), 0.0, None)
    return float(np.sum(0.5 * (slope[1:] + slope[:-1]) * np.diff(grid)))


# ---------------------------------------------------------------------------
# Other closed forms
# ---------------------------------------------------------------------------

def gadc_f(omega: float, t: np.ndarray) -> np.ndarray:
    """f(t) for the evolved maximally mixed qubit under the GADC family."""
    w = np.cos(2.0 * omega * t) * (1.0 - np.exp(-t))
    w_dot = (-2.0 * omega * np.sin(2.0 * omega * t) * (1.0 - np.exp(-t))
             + np.cos(2.0 * omega * t) * np.exp(-t))
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = 0.5 * w_dot * np.log((1.0 - w) / (1.0 + w))
    return np.where(w == 0.0, 0.0, rate) + w


def damping_rate(t: np.ndarray) -> np.ndarray:
    """diag(1 - e^{-t}, e^{-t}): dS/dt = e^{-t} log(e^{-t} / (1 - e^{-t}))."""
    q = np.exp(-t)
    return q * np.log(q / (1.0 - q))


def oscillating_rate(t: np.ndarray) -> np.ndarray:
    """diag(cos^2 pi t, sin^2 pi t): dS/dt = pi sin(2 pi t) log(cot^2 pi t)."""
    c = np.cos(np.pi * t) ** 2
    return np.pi * np.sin(2.0 * np.pi * t) * np.log(c / (1.0 - c))


def depolarizing_oslash(dim: int, q: float) -> float:
    return 2.0 * q * (2.0 - q) * (1.0 - 1.0 / dim**2)


def thermal_rate(mean0: float, gamma_plus: float, gamma_minus: float,
                 t: np.ndarray) -> np.ndarray:
    """Phase-insensitive dynamics keep a thermal state thermal:
    dN/dt = g+ (N + 1) - g- N and dS/dt = dN/dt log(1 + 1/N)."""
    if gamma_plus == gamma_minus:
        n = mean0 + gamma_plus * t
    else:
        n_inf = gamma_plus / (gamma_minus - gamma_plus)
        n = n_inf + (mean0 - n_inf) * np.exp((gamma_plus - gamma_minus) * t)
    n_dot = gamma_plus * (n + 1.0) - gamma_minus * n
    return n_dot * np.log1p(1.0 / n)
