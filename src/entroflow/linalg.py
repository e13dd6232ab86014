"""Dense complex Hermitian linear algebra for density operators.

Spectral decompositions, supports and the matrix log restricted to them,
von Neumann and relative entropies and Schatten norms.  All logarithms
are natural, so entropic quantities are in nats.  A :class:`DensityMatrix` carries its
spectrum, which every spectral function here reads; a raw array gets one
fresh decomposition per call.  An :class:`EigenSystem` may hold the spectra
of a whole stack (..., d, d) of matrices, and its support, log and entropy
formulas act on every matrix of the stack at once; the single-matrix
functions read the same formulas.  A stack with no nonzero entry off its
diagonals is decomposed without eigh: its eigenvalues are its sorted
diagonals, and the order of that sort stands for its eigenvectors, whose
permutation columns are built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ZERO_EIGENVALUE_RTOL",
    "HERMITICITY_ATOL",
    "TRACE_ATOL",
    "PSD_ATOL",
    "SUPPORT_LEAK_ATOL",
    "LinalgError",
    "INFINITE_DIVERGENCE",
    "is_infinite",
    "DensityMatrix",
    "EigenSystem",
    "check_density_stack",
    "as_matrix",
    "dagger",
    "hermitian_part",
    "require_hermitian",
    "spectral_decompose",
    "matrix_log_on_support",
    "von_neumann_entropy",
    "relative_entropy",
    "relative_entropies",
    "schatten_norm",
]

# Eigenvalues <= ZERO_EIGENVALUE_RTOL * lambda_max are treated as kernel.
ZERO_EIGENVALUE_RTOL = 1e-12
# Inputs with asymmetry above this are rejected rather than symmetrized.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-8
PSD_ATOL = 1e-8
# Allowed state mass outside supp(sigma) before D(rho||sigma) is declared infinite.
SUPPORT_LEAK_ATOL = 1e-9


class LinalgError(ValueError):
    """An operator violates a structural precondition (shape, Hermiticity, ...)."""


class _InfiniteDivergence:
    """Sentinel for an infinite relative entropy.

    Deliberately supports no arithmetic: callers must branch on
    :func:`is_infinite` instead of letting an IEEE infinity propagate.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE_DIVERGENCE"


INFINITE_DIVERGENCE = _InfiniteDivergence()


def is_infinite(value) -> bool:
    """True when ``value`` is the infinite-divergence sentinel."""
    return isinstance(value, _InfiniteDivergence)


def as_matrix(operator) -> np.ndarray:
    """Unwrap a DensityMatrix, or coerce to a complex array."""
    entries = getattr(operator, "entries", operator)
    return np.asarray(entries, dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(a, -1, -2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dagger(a))


def require_hermitian(operator, name: str = "operator") -> np.ndarray:
    """Return the symmetrized matrix (or stack (..., d, d) of matrices),
    rejecting inputs whose asymmetry exceeds ``HERMITICITY_ATOL`` or that
    hold a non-finite entry (its gap is NaN); for a stack, the error names
    the index of the first such matrix."""
    a = as_matrix(operator)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise LinalgError(f"{name} must be a square matrix, got shape {a.shape}")
    with np.errstate(invalid="ignore"):  # an infinite diagonal entry gives a NaN gap
        gaps = np.abs(a - dagger(a))
    if not gaps.max(initial=0.0) <= HERMITICITY_ATOL:
        asym = gaps.max(axis=(-2, -1))
        k = np.unravel_index(np.argmin(asym <= HERMITICITY_ATOL), asym.shape)
        where = f" at stack index {tuple(map(int, k))}" if asym.ndim else ""
        raise LinalgError(f"{name} is not Hermitian: max asymmetry {asym[k]:.3e} "
                          f"> {HERMITICITY_ATOL:.1e}" + where)
    return hermitian_part(a)


def _is_diagonal(a: np.ndarray) -> bool:
    """Whether a matrix, or a stack (..., m, m) of them, has no nonzero (or
    NaN) entry off the diagonal anywhere, read from two counts: no copy."""
    return np.count_nonzero(a) == np.count_nonzero(np.diagonal(a, axis1=-2, axis2=-1))


class EigenSystem:
    """Eigenvalues sorted in descending order with matching eigenvector columns.

    For a stack of matrices the arrays are (..., d) and (..., d, d), and the
    methods below return one result per matrix of the stack.  ``order`` is
    set for the spectra of a diagonal stack, (..., d): eigenvector i is the
    basis vector order[i], so expectations read the diagonal, and
    ``eigenvectors``, those permutation columns, is built on first read,
    read-only; such spectra may be constructed from ``order`` alone.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray | None = None,
                 order: np.ndarray | None = None):
        self.eigenvalues = eigenvalues
        self._eigenvectors = eigenvectors
        self.order = order

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._eigenvectors is None:
            vectors = np.zeros(self.order.shape + self.order.shape[-1:], dtype=complex)
            np.put_along_axis(vectors, self.order[..., None, :], 1.0, axis=-2)
            vectors.setflags(write=False)
            self._eigenvectors = vectors
        return self._eigenvectors

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    @property
    def rank(self) -> int:
        return int(self.support_mask().sum())

    def __getitem__(self, index) -> "EigenSystem":
        """The spectra of part of a stack, indexed over its leading axes."""
        order = None if self.order is None else self.order[index]
        vectors = None if self._eigenvectors is None else self._eigenvectors[index]
        return EigenSystem(self.eigenvalues[index], vectors, order)

    def support_mask(self) -> np.ndarray:
        """Eigenvalues above ``ZERO_EIGENVALUE_RTOL`` * lambda_max, per
        matrix; none when lambda_max <= 0."""
        lam_max = self.eigenvalues.max(axis=-1, keepdims=True, initial=0.0)
        return (self.eigenvalues > ZERO_EIGENVALUE_RTOL * lam_max) & (lam_max > 0.0)

    def support_logs(self) -> np.ndarray:
        """log lambda on the supports, 0 (log 1) on the kernels, per matrix."""
        return np.log(np.where(self.support_mask(), self.eigenvalues, 1.0))

    def support_traces(self, operators: np.ndarray) -> np.ndarray:
        """Re Tr{Pi A} per matrix, with Pi the projector onto its support:
        the :meth:`expectations` of A summed over the support, with no
        projector built."""
        return self.support_sums(self.expectations(operators))

    def support_sums(self, values: np.ndarray) -> np.ndarray:
        """The sum of values (..., d), one per eigenvector, over the support,
        per matrix."""
        return np.where(self.support_mask(), values, 0.0).sum(axis=-1)

    def expectations(self, operators: np.ndarray) -> np.ndarray:
        """Re <v_i|A|v_i> for every eigenvector v_i, per matrix: (..., d).

        For Hermitian A this is the diagonal of V^dag A V, from the one
        product A V and no other stacked temporary; for the spectra of a
        diagonal stack, Re A_jj in eigenvalue order, with no product.
        """
        if self.order is not None:
            return self.diagonal_expectations(np.diagonal(operators, axis1=-2, axis2=-1).real)
        v = self.eigenvectors
        w = operators @ v
        return (np.einsum("...ji,...ji->...i", v.real, w.real)
                + np.einsum("...ji,...ji->...i", v.imag, w.imag))

    def diagonal_expectations(self, diagonals: np.ndarray) -> np.ndarray:
        """The expectations of A for the spectra of a diagonal stack, from
        the real parts of its diagonals (..., d): Re A_jj in eigenvalue order."""
        diagonals, order = np.broadcast_arrays(diagonals, self.order)
        return np.take_along_axis(diagonals, order, axis=-1)

    def entropies(self) -> np.ndarray:
        """-sum lambda log lambda in nats, with the 0 log 0 = 0 convention."""
        return _entropies(self.eigenvalues[..., ::-1])


def _entropies(eigenvalues: np.ndarray) -> np.ndarray:
    """-sum lambda log lambda over the last axis of (..., d) eigenvalues, in
    nats, with 0 log 0 = 0; summed in ascending order, as eigh and eigvalsh
    return them."""
    lam = np.maximum(eigenvalues, 0.0)
    positive = lam > 0.0
    return -np.sum(np.where(positive, lam * np.log(np.where(positive, lam, 1.0)), 0.0), axis=-1)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semi-definite matrix with unit trace.

    It carries ``spectrum``, its one eigendecomposition, which the PSD
    check, support, log and entropy read.
    """

    entries: np.ndarray
    dim: int = field(init=False)
    spectrum: EigenSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = as_matrix(self.entries)
        if a.ndim != 2:
            raise LinalgError(f"density matrix must be a square matrix, got shape {a.shape}")
        a, spectrum = check_density_stack(a)
        self._set(a, spectrum)

    def _set(self, entries: np.ndarray, spectrum: EigenSystem) -> None:
        for array in (entries, spectrum.eigenvalues, spectrum._eigenvectors, spectrum.order):
            if array is not None:
                array.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dim", entries.shape[0])
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def _from_checked(cls, entries: np.ndarray, spectrum: EigenSystem) -> "DensityMatrix":
        """A state over one matrix of a stack that :func:`check_density_stack`
        has validated, carrying its spectrum from that stack: no second eigh."""
        state = object.__new__(cls)
        state._set(entries, spectrum)
        return state

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0:
            raise LinalgError("cannot build a pure state from the zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def diagonal(cls, probabilities) -> "DensityMatrix":
        p = np.asarray(probabilities, dtype=float)
        return cls(np.diag(p).astype(complex))

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))


def spectral_decompose(operator) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, or of a stack (..., d, d) of
    them in one eigh call (none for a diagonal stack), eigenvalues descending.

    A :class:`DensityMatrix` returns the spectrum it carries, and an
    :class:`EigenSystem` is returned as it is.  Inputs with asymmetry within
    ``HERMITICITY_ATOL`` are symmetrized; anything worse is rejected.  The
    reconstruction V diag(w) V^dag matches the input to machine precision.
    """
    if isinstance(operator, DensityMatrix):
        return operator.spectrum
    if isinstance(operator, EigenSystem):
        return operator
    return _eigh(require_hermitian(operator))


def _eigh(a: np.ndarray) -> EigenSystem:
    """One eigh of an exactly Hermitian matrix or stack, eigenvalues descending.

    A diagonal stack with finite diagonals takes no eigh: its spectra are
    :func:`_diagonal_spectra` of its diagonals' real parts, which are the
    eigenvalues eigh returns for it.  A non-finite diagonal goes to eigh, so
    that the checks read the eigenvalues they always read.
    """
    diagonals = np.diagonal(a, axis1=-2, axis2=-1).real
    if _is_diagonal(a) and np.isfinite(diagonals).all():
        return _diagonal_spectra(diagonals)
    ascending, vectors = np.linalg.eigh(a)
    return EigenSystem(ascending[..., ::-1].copy(), vectors[..., ::-1].copy())


def _diagonal_spectra(diagonals: np.ndarray) -> EigenSystem:
    """The spectra of diagonal matrices from their real diagonals (..., d):
    the diagonals sorted descending, by a stable argsort reversed, and that
    order for the eigenvectors, the matching basis vectors."""
    order = np.argsort(diagonals, axis=-1, kind="stable")[..., ::-1]
    return EigenSystem(np.take_along_axis(diagonals, order, axis=-1), order=order)


def check_density_stack(operators) -> tuple[np.ndarray, EigenSystem]:
    """Validate a density matrix, or a stack (..., d, d) of them, with one eigh
    (none for a diagonal stack).

    Each matrix must be Hermitian within ``HERMITICITY_ATOL``, PSD within
    ``PSD_ATOL`` and of unit trace within ``TRACE_ATOL``.  Returns the
    symmetrized stack and its spectra; the first failing matrix of a stack
    raises :class:`LinalgError`, with its index.
    """
    a = require_hermitian(operators, name="density matrix")
    return a, _density_spectra(a)


def _density_spectra(a: np.ndarray) -> EigenSystem:
    """The spectra of an exactly Hermitian matrix or stack, after the PSD and
    trace checks of :func:`check_density_stack`, which this is without the
    Hermiticity check: for stacks already symmetrized, such as a
    :func:`hermitian_part` divided by real traces."""
    spectrum = _eigh(a)
    _check_density(spectrum.eigenvalues[..., -1], np.real(np.trace(a, axis1=-2, axis2=-1)))
    return spectrum


def _check_density(lam_min: np.ndarray, tr: np.ndarray) -> None:
    """The PSD and trace checks of :func:`check_density_stack`, read from the
    smallest eigenvalue and the real trace of each matrix; the first failing
    matrix of a stack raises :class:`LinalgError`, with its index."""
    # Each check states what passes, so that NaN fails it.
    checks = ((lam_min >= -PSD_ATOL, "density matrix not PSD: min eigenvalue {lam:.3e}"),
              (np.abs(tr - 1.0) <= TRACE_ATOL, "density matrix has trace {tr}, expected 1"))
    for ok, message in checks:
        if not np.all(ok):
            k = np.unravel_index(np.argmin(ok), ok.shape)
            where = f" at stack index {tuple(map(int, k))}" if ok.ndim else ""
            raise LinalgError(message.format(lam=lam_min[k], tr=tr[k]) + where)


def matrix_log_on_support(rho) -> np.ndarray:
    """Natural matrix logarithm restricted to the support; zero on the kernel."""
    es = spectral_decompose(rho)
    v = es.eigenvectors
    return hermitian_part((v * es.support_logs()[..., None, :]) @ dagger(v))


def von_neumann_entropy(rho) -> float:
    """-Tr{rho log rho} in nats, with the 0 log 0 = 0 convention."""
    return float(spectral_decompose(rho).entropies())


def relative_entropies(rho: np.ndarray, entropies: np.ndarray, sigma: EigenSystem) -> np.ndarray:
    """D(rho || sigma) = -S(rho) - sum_j log q_j <psi_j|rho|psi_j> over supp(sigma)
    for states rho (..., d, d), their entropies and the spectra (q_j, psi_j)
    of sigma, stacked alike; inf where Tr{(1 - Pi_sigma) rho} > ``SUPPORT_LEAK_ATOL``."""
    inside, weights = sigma.support_mask(), sigma.expectations(rho)
    leaks = np.where(inside, 0.0, weights).sum(axis=-1)
    d = -entropies - (np.log(np.where(inside, sigma.eigenvalues, 1.0)) * weights).sum(axis=-1)
    return np.where(leaks > SUPPORT_LEAK_ATOL, np.inf, d)


def relative_entropy(rho, sigma):
    """Quantum relative entropy D(rho || sigma), the one-pair case of :func:`relative_entropies`,
    or :data:`INFINITE_DIVERGENCE` when supp(rho) is not contained in supp(sigma)."""
    es_r, es_s = spectral_decompose(rho), spectral_decompose(sigma)
    if es_r.dim != es_s.dim:
        raise LinalgError(f"dimension mismatch: {es_r.dim} vs {es_s.dim}")
    v = es_r.eigenvectors
    d = relative_entropies((v * es_r.eigenvalues) @ dagger(v), es_r.entropies(), es_s)
    return INFINITE_DIVERGENCE if np.isinf(d) else float(d)


def schatten_norm(operator, p: float) -> float:
    """Schatten p-norm (sum of singular values to the p-th power, p-th root).

    ``p = inf`` (``math.inf`` / ``numpy.inf``) returns the largest singular
    value.  Values of p below 1 are rejected.
    """
    a = as_matrix(operator)
    singular_values = np.linalg.svd(a, compute_uv=False)
    if math.isinf(p):
        return float(singular_values[0]) if singular_values.size else 0.0
    if p < 1:
        raise LinalgError(f"Schatten norm requires p >= 1, got {p}")
    if p == 1:
        return float(np.sum(singular_values))
    return float(np.sum(singular_values**p) ** (1.0 / p))

