"""Reproducible samplers for states, unitaries, and random channels.

Everything is driven by an explicit numpy Generator so that fixed seeds give
fixed samples.  Reported maxima over sampled sets are lower bounds on the
corresponding suprema; enlarging a sampler can only increase them.
"""

from __future__ import annotations

import numpy as np

from .channels import QuantumChannel
from .linalg import DensityMatrix, dagger, hermitian_part

__all__ = [
    "random_unitary",
    "haar_pure_state",
    "random_mixed_state",
    "random_full_rank_state",
    "bloch_grid",
    "default_state_sampler",
    "default_pair_sampler",
    "random_cptp_channel",
    "random_mixed_unitary_channel",
    "random_subunital_operation",
]

FULL_RANK_FLOOR = 0.2  # weight of I/d in a random full-rank state
SUBUNITAL_KRAUS = 3    # Kraus operators of a random sub-unital operation


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary (QR of a Ginibre matrix with phase fixing)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def haar_pure_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DensityMatrix.pure(v)


def random_mixed_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Hilbert-Schmidt random density matrix G G^dag / Tr."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    return DensityMatrix(rho / np.trace(rho))


def random_full_rank_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Random state mixed with I/d at weight ``FULL_RANK_FLOOR``, so lambda_min >= that / d."""
    rho = random_mixed_state(rng, dim).entries
    mixed = (1.0 - FULL_RANK_FLOOR) * rho + FULL_RANK_FLOOR * np.eye(dim) / dim
    return DensityMatrix(mixed)


def bloch_grid(n_points: int = 96) -> list[DensityMatrix]:
    """Deterministic Fibonacci grid of pure qubit states on the Bloch sphere."""
    golden = np.pi * (3.0 - np.sqrt(5.0))
    states = []
    for k in range(n_points):
        z = 1.0 - 2.0 * (k + 0.5) / n_points
        r = np.sqrt(1.0 - z * z)
        phi = golden * k
        x, y = r * np.cos(phi), r * np.sin(phi)
        rho = 0.5 * (np.eye(2, dtype=complex)
                     + x * np.array([[0, 1], [1, 0]])
                     + y * np.array([[0, -1j], [1j, 0]])
                     + z * np.array([[1, 0], [0, -1]]))
        states.append(DensityMatrix(hermitian_part(rho)))
    return states


def default_state_sampler(dim: int, rng: np.random.Generator,
                          n_random: int = 64, bloch_points: int = 96) -> list[DensityMatrix]:
    """Maximally mixed state, Haar-random pure and mixed states, and for
    qubits a deterministic Bloch-sphere grid on top."""
    states = [DensityMatrix.maximally_mixed(dim)]
    if dim == 2 and bloch_points:
        states += bloch_grid(bloch_points)
    n_pure = n_random // 2
    states += [haar_pure_state(rng, dim) for _ in range(n_pure)]
    states += [random_mixed_state(rng, dim) for _ in range(n_random - n_pure)]
    return states


def default_pair_sampler(dim: int, rng: np.random.Generator,
                         n_pairs: int = 64) -> list[tuple[DensityMatrix, DensityMatrix]]:
    """State pairs for trace-distance witnesses.

    For qubits the first pairs are antipodal pure states (maximally distant),
    the rest are random pure/mixed pairs.
    """
    pairs: list[tuple[DensityMatrix, DensityMatrix]] = []
    if dim == 2:
        for rho in bloch_grid(min(16, n_pairs)):
            flipped = DensityMatrix(np.eye(2, dtype=complex) - rho.entries)
            pairs.append((rho, flipped))
    while len(pairs) < n_pairs:
        if len(pairs) % 2 == 0:
            pairs.append((haar_pure_state(rng, dim), haar_pure_state(rng, dim)))
        else:
            pairs.append((random_mixed_state(rng, dim), haar_pure_state(rng, dim)))
    return pairs[:n_pairs]


def random_cptp_channel(rng: np.random.Generator, dim: int) -> QuantumChannel:
    """Random channel of d Kraus operators from a Haar-random Stinespring isometry."""
    g = rng.normal(size=(dim * dim, dim)) + 1j * rng.normal(size=(dim * dim, dim))
    q, _ = np.linalg.qr(g)
    return QuantumChannel([q[i * dim:(i + 1) * dim, :] for i in range(dim)])


def random_mixed_unitary_channel(rng: np.random.Generator, dim: int,
                                 n_unitaries: int = 4) -> QuantumChannel:
    """Convex mixture of Haar unitaries: unital and CPTP by construction."""
    weights = rng.dirichlet(np.ones(n_unitaries))
    return QuantumChannel([
        np.sqrt(w) * random_unitary(rng, dim) for w in weights
    ])


def random_subunital_operation(rng: np.random.Generator, dim: int) -> QuantumChannel:
    """Random sub-unital, trace-non-increasing quantum operation.

    A random CP map of ``SUBUNITAL_KRAUS`` Kraus operators is rescaled so
    that both sum K^dag K (trace side) and
    sum K K^dag (unitality side) are strictly dominated by the identity.
    """
    kraus = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
             for _ in range(SUBUNITAL_KRAUS)]
    gram_tr = sum(dagger(k) @ k for k in kraus)
    gram_un = sum(k @ dagger(k) for k in kraus)
    top = max(np.linalg.eigvalsh(gram_tr)[-1], np.linalg.eigvalsh(gram_un)[-1])
    margin = rng.uniform(0.3, 0.95)
    scale = np.sqrt(margin / top)
    return QuantumChannel([scale * k for k in kraus])
