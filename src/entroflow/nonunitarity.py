"""Diamond-norm distance from reversibility for unital channels.

The key quantity is the diamond norm of id - N^dag o N, which vanishes
exactly when the unital channel N is a unitary conjugation.  Its matrix is
I - S^dag S, read from the superoperator matrix S = sum_i K_i (x) conj(K_i) of
N: the Kraus set {K_i^dag} of N^dag has matrix sum_i K_i^dag (x) conj(K_i^dag)
= S^dag, and composing maps multiplies their matrices, so the d^4 Kraus
products of N^dag o N are never formed.  Every evaluation
brackets the norm of a Hermiticity-preserving map M, lower <= norm <= upper:

* ``lower`` comes from a seesaw ascent over pure bipartite inputs psi on
  reference x input, with a reference of the same dimension as the channel
  input.  With T = (id (x) M)(|psi><psi|) and S = sign T, one step moves psi
  to the top eigenvector of A = (id (x) M^dag)(S).  The objective never
  decreases, since ||T(psi')||_1 >= Tr[S T(psi')] = lambda_max(A)
  >= <psi|A|psi> = ||T(psi)||_1.  The maximally entangled input is always the
  first start.
* ``upper`` is the dual feasible point ||Tr_out |J| ||_inf of Watrous'
  semidefinite program (J. Watrous, "Simpler semidefinite programs for
  completely bounded norms", Chicago J. Theor. Comput. Sci. 2013), J the Choi
  matrix of M: Y0 = Y1 = |J| satisfy [[Y0, -J], [-J, Y1]] >= 0.

The ascent stops, skipping any remaining starts, as soon as
upper - lower <= ``BRACKET_TOL``.  Inputs psi are plain unit amplitude
arrays of shape (d^2,), psi = vec R with R indexed (reference, input); the bracket returns
the best one as its ``maximizer``, at which ||T(psi)||_1 is ``lower``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, choi_tensor, is_unital, unitary_channel
from .linalg import hermitian_part
from .witnesses import Claim

__all__ = [
    "NonUnitarityError",
    "OslashResult",
    "oslash_norm",
    "oslash_depolarizing_analytic",
    "success_probability",
    "diamond_distance",
    "proposition7_bound",
    "proposition7_check",
]

# Target width of the bracket: the ascent stops once upper - lower is within it.
BRACKET_TOL = 1e-6
# A start that gains less than this fraction of ``BRACKET_TOL`` in one step has stalled.
_STALL_FRACTION = 1e-4
_MAX_STEPS = 2000
_MAX_EXTRAPOLATION = 64.0


class NonUnitarityError(ValueError):
    pass


def _difference_superoperator(channel: QuantumChannel) -> np.ndarray:
    """Matrix of id - N^dag o N, which is I - S^dag S for S the matrix of N."""
    s = channel.superoperator()
    return np.eye(s.shape[1], dtype=complex) - s.conj().T @ s


def _local_map_output(choi: np.ndarray, amplitudes: np.ndarray, dim: int) -> np.ndarray:
    """(id (x) M)(|psi><psi|) = (R (x) I) J (R (x) I)^dag, psi = vec R."""
    r = amplitudes.reshape(dim, dim)
    t = np.einsum("ri,iajc,sj->rasc", r, choi, r.conj())
    return hermitian_part(t.reshape(dim * dim, dim * dim))


def _require_hermiticity_preserving(map_matrix: np.ndarray, dim: int) -> None:
    choi = choi_tensor(map_matrix).reshape(dim * dim, dim * dim)
    if np.max(np.abs(choi - choi.conj().T)) > 1e-9:
        raise NonUnitarityError("map is not Hermiticity-preserving")


@dataclass(frozen=True)
class OslashResult:
    """Certified bracket ``value <= norm <= upper``.

    ``value`` is the best seesaw value over the starts run, ``upper`` the
    Watrous dual bound.  ``converged`` is true when the bracket closed
    within ``BRACKET_TOL``.  ``stalled`` is true when it did not and every start
    run stopped gaining before the step cap, so the open ``gap`` is the
    ascent's best, not a cut-off one; a start that reached the cap leaves
    both false.  ``maximizer``
    is the unit (d^2,) amplitude vector psi on reference x input at which
    ||(id (x) M)(|psi><psi|)||_1 = ``value``, the input that certifies it.
    """

    value: float
    upper: float
    maximizer: np.ndarray
    starts: int
    per_start_values: tuple[float, ...]
    converged: bool
    stalled: bool

    @property
    def gap(self) -> float:
        return self.upper - self.value


def _dual_upper_bound(choi: np.ndarray, dim: int) -> float:
    """||Tr_out |J| ||_inf, the value of a dual feasible point."""
    lam, vecs = np.linalg.eigh(hermitian_part(choi.reshape(dim * dim, dim * dim)))
    abs_j = (vecs * np.abs(lam)) @ vecs.conj().T
    reduced = np.einsum("iaja->ij", abs_j.reshape(dim, dim, dim, dim))
    return float(np.linalg.eigvalsh(hermitian_part(reduced))[-1])


def _trace_norm_eigh(choi: np.ndarray, amplitudes: np.ndarray, dim: int):
    lam, vecs = np.linalg.eigh(_local_map_output(choi, amplitudes, dim))
    return float(np.sum(np.abs(lam))), lam, vecs


def _seesaw(choi: np.ndarray, amplitudes: np.ndarray, dim: int, target: float,
            stall: float) -> tuple[float, np.ndarray, bool]:
    """Ascend from one start until the value reaches ``target`` or stalls.

    Each step also tries the point ``beta`` times further along the seesaw
    move and keeps it when it scores at least lambda_max(A), the value the
    plain step guarantees, so the ascent stays monotone.  Near maximizers of
    lower Schmidt rank the plain seesaw converges slowly; the extrapolation
    cut the steps there by 2-4x.  Returns the best value, its amplitudes,
    and whether the start ended before the step cap.
    """
    psi = amplitudes
    value, lam, vecs = _trace_norm_eigh(choi, psi, dim)
    beta = 1.0
    for _ in range(_MAX_STEPS):
        if value >= target:
            return value, psi, True
        sign_t = (vecs * np.sign(lam)) @ vecs.conj().T
        a = np.einsum("scra,iajc->sjri", sign_t.reshape(dim, dim, dim, dim), choi)
        w, v = np.linalg.eigh(hermitian_part(a.reshape(dim * dim, dim * dim)))
        floor, step = w[-1], v[:, -1]
        overlap = np.vdot(psi, step)
        trial = step
        if abs(overlap) > 0.0:
            trial = step + beta * (step - psi * (overlap / abs(overlap)))
            trial = trial / np.linalg.norm(trial)
        trial_value, trial_lam, trial_vecs = _trace_norm_eigh(choi, trial, dim)
        if trial_value >= floor:
            beta = min(2.0 * beta, _MAX_EXTRAPOLATION)
        else:
            beta = 1.0
            trial = step
            trial_value, trial_lam, trial_vecs = _trace_norm_eigh(choi, step, dim)
        gain = trial_value - value
        if gain > 0.0:
            psi, value, lam, vecs = trial, trial_value, trial_lam, trial_vecs
        if gain < stall:
            return value, psi, True
    return value, psi, False


def _maximize_local_map(map_matrix: np.ndarray, dim: int, starts: int, seed: int) -> OslashResult:
    if starts < 1:
        raise NonUnitarityError(f"starts must be at least 1, got {starts}")
    choi = choi_tensor(map_matrix)
    upper = _dual_upper_bound(choi, dim)
    rng = np.random.default_rng(seed)
    start = np.eye(dim, dtype=complex).reshape(-1) / math.sqrt(dim)  # maximally entangled
    values: list[float] = []
    best, best_psi = -math.inf, start
    before_cap = True
    for k in range(starts):
        if k:  # Haar-random
            start = rng.normal(size=dim**2) + 1j * rng.normal(size=dim**2)
            start /= np.linalg.norm(start)
        value, psi, ended = _seesaw(choi, start, dim, upper - BRACKET_TOL,
                                    _STALL_FRACTION * BRACKET_TOL)
        values.append(value)
        before_cap = before_cap and ended
        if value > best:
            best, best_psi = value, psi
        if upper - best <= BRACKET_TOL:
            break
    closed = upper - best <= BRACKET_TOL
    return OslashResult(
        value=best,
        upper=upper,
        maximizer=best_psi / np.linalg.norm(best_psi),
        starts=len(values),
        per_start_values=tuple(values),
        converged=closed,
        stalled=before_cap and not closed,
    )


def oslash_norm(channel: QuantumChannel, starts: int = 32, seed: int = 7) -> OslashResult:
    """Diamond norm of id - N^dag o N for a unital channel N, as a bracket.

    ``value`` is a lower bound from the seesaw ascent and ``upper`` the
    Watrous dual bound.  The ascent stops, skipping any remaining starts,
    once ``gap <= BRACKET_TOL``; otherwise each of the at most ``starts``
    starts (the maximally entangled state first) runs until its gain per
    step falls below a small fraction of ``BRACKET_TOL``, and ``gap``
    reports the width left open.
    """
    if not is_unital(channel):
        raise NonUnitarityError("the non-unitarity norm is defined for unital channels only")
    return _maximize_local_map(_difference_superoperator(channel), channel.dim_in, starts, seed)


def oslash_depolarizing_analytic(dim: int, q: float) -> float:
    """Closed form 2 q (2 - q)(1 - 1/d^2) for the depolarizing family."""
    q_max = dim**2 / (dim**2 - 1)
    if not 0.0 <= q <= q_max + 1e-12:
        raise NonUnitarityError(f"q={q} outside [0, {q_max}]")
    return 2.0 * q * (2.0 - q) * (1.0 - 1.0 / dim**2)


def success_probability(norm_value: float) -> float:
    """Optimal discrimination success probability (1 + value/2)/2 in [1/2, 1]."""
    if not 0.0 <= norm_value <= 2.0 + 1e-9:
        raise NonUnitarityError(f"norm value {norm_value} outside [0, 2]")
    return 0.5 * (1.0 + 0.5 * norm_value)


def _distance_bracket(channel_a: QuantumChannel, channel_b: QuantumChannel,
                      starts: int, seed: int) -> OslashResult:
    if (channel_a.dim_in, channel_a.dim_out) != (channel_b.dim_in, channel_b.dim_out):
        raise NonUnitarityError("channels must share input and output dimensions")
    if channel_a.dim_in != channel_a.dim_out:
        raise NonUnitarityError("the maximization assumes equal input/output dimension")
    diff = channel_a.superoperator() - channel_b.superoperator()
    _require_hermiticity_preserving(diff, channel_a.dim_in)
    return _maximize_local_map(diff, channel_a.dim_in, starts, seed)


def diamond_distance(channel_a: QuantumChannel, channel_b: QuantumChannel,
                     starts: int = 32, seed: int = 7) -> float:
    """Diamond norm of the difference of two same-dimension channels.

    Returns the lower end of the same bracket as the non-unitarity norm,
    whose ascent stops at a width of ``BRACKET_TOL``.
    """
    return _distance_bracket(channel_a, channel_b, starts, seed).value


def proposition7_bound(delta: float) -> float:
    """sqrt(2 delta) + delta."""
    if delta < 0:
        raise NonUnitarityError("delta must be non-negative")
    return math.sqrt(2.0 * delta) + delta


def proposition7_check(channel: QuantumChannel, unitary, starts: int = 16,
                       seed: int = 7) -> Claim:
    """Proposition 7 as the claim ``proposition7``: sqrt(2 delta) + delta, delta the diamond
    distance to the unitary conjugation, is at least the non-unitarity norm of a unital
    channel (masked, the norm NaN, otherwise).  The bound reads the upper end of the bracket
    on delta and the norm the lower end of its own: a slack below -1e-9 is a real violation."""
    u_channel = unitary if isinstance(unitary, QuantumChannel) else unitary_channel(unitary)
    distance = _distance_bracket(channel, u_channel, starts=starts, seed=seed)
    unital = is_unital(channel)
    oslash_est = oslash_norm(channel, starts=starts, seed=seed).value if unital else np.nan
    return Claim("proposition7", proposition7_bound(distance.upper), oslash_est, 1e-9,
                 not unital, "a unital channel")
