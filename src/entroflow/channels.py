"""Quantum channels and Lindblad generators.

Channels are carried in Kraus form; the superoperator matrix and the Choi
matrix are derived caches.  Superoperator matrices use the row-stacking
convention vec(X) = X.reshape(-1), under which the map X -> K X L has matrix
kron(K, L.T).  Generators keep their Hamiltonian and rate/jump-operator
pairs, and are compiled once into sparse d^2 x d^2 matrices in that
convention: one for all constant parts and one dissipator per time-dependent
rate, each with its conjugate transpose, which is the matrix of the adjoint
map.  Applying a generator or its adjoint and building its dense
superoperator all read those matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .linalg import (
    DensityMatrix,
    as_matrix,
    dagger,
    hermitian_part,
    require_hermitian,
)

__all__ = [
    "ChannelError",
    "SuperOperator",
    "apply_superoperators",
    "QuantumChannel",
    "CptpReport",
    "UnitalityTag",
    "UnitalityClass",
    "compose",
    "is_cptp",
    "unitality_class",
    "identity_channel",
    "unitary_channel",
    "depolarizing",
    "gadc",
    "gadc_coherence",
    "dephasing_channel",
    "partial_trace_channel",
    "transpose_superoperator",
    "ConstantCoefficient",
    "CosineSquaredCoefficient",
    "ExponentialCoefficient",
    "JumpTerm",
    "LindbladGenerator",
    "TailGuard",
    "dephasing_generator",
    "depolarizing_generator",
    "annihilation_operator",
    "bosonic_generator",
    "thermal_state",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class ChannelError(ValueError):
    """A map violates a structural precondition (dimensions, CP-ness, ...)."""


def _vec(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1)


def _unvec(v: np.ndarray, d_out: int) -> np.ndarray:
    return v.reshape(d_out, d_out)


class SuperOperator:
    """Matrix representation of a linear map on operators.

    Not necessarily completely positive or trace-preserving; this is the
    representation used for generators, map differences, and intermediate
    maps that may fail complete positivity.
    """

    def __init__(self, matrix, dim_in: int | None = None, dim_out: int | None = None):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2:
            raise ChannelError("superoperator matrix must be 2-D")
        if dim_in is None:
            dim_in = round(m.shape[1] ** 0.5)
        if dim_out is None:
            dim_out = round(m.shape[0] ** 0.5)
        if m.shape != (dim_out**2, dim_in**2):
            raise ChannelError(f"matrix shape {m.shape} incompatible with dims ({dim_in}, {dim_out})")
        self.matrix = m
        self.dim_in = dim_in
        self.dim_out = dim_out

    def apply(self, x) -> np.ndarray:
        a = as_matrix(x)
        if a.shape != (self.dim_in, self.dim_in):
            raise ChannelError(f"input shape {a.shape} does not match dim {self.dim_in}")
        return _unvec(self.matrix @ _vec(a), self.dim_out)

    def adjoint(self) -> "SuperOperator":
        # Row stacking preserves the Hilbert-Schmidt inner product, so the
        # adjoint map's matrix is the conjugate transpose.
        return SuperOperator(dagger(self.matrix), dim_in=self.dim_out, dim_out=self.dim_in)

    def compose(self, inner: "SuperOperator | QuantumChannel") -> "SuperOperator":
        inner = inner.superoperator() if isinstance(inner, QuantumChannel) else inner
        if inner.dim_out != self.dim_in:
            raise ChannelError("dimension mismatch in composition")
        return SuperOperator(self.matrix @ inner.matrix, dim_in=inner.dim_in, dim_out=self.dim_out)

    def choi(self) -> np.ndarray:
        d_in, d_out = self.dim_in, self.dim_out
        s4 = self.matrix.reshape(d_out, d_out, d_in, d_in)
        # J[(i,a),(j,b)] = <a| N(|i><j|) |b> = S[(a,b),(i,j)]
        return s4.transpose(2, 0, 3, 1).reshape(d_in * d_out, d_in * d_out)

    def superoperator(self) -> "SuperOperator":
        return self

    @classmethod
    def identity(cls, dim: int) -> "SuperOperator":
        return cls(np.eye(dim * dim, dtype=complex), dim_in=dim, dim_out=dim)


def apply_superoperators(matrices: np.ndarray, operators) -> np.ndarray:
    """Apply a stack of superoperator matrices (T, d_out^2, d_in^2) to operators.

    Operators (N, d_in, d_in) go through every map, giving (T, N, d_out, d_out);
    operators (T, N, d_in, d_in) go row t through map t.
    """
    x = as_matrix(operators)
    out = x.reshape(x.shape[:-2] + (-1,)) @ np.swapaxes(matrices, -1, -2)
    d_out = round(out.shape[-1] ** 0.5)
    return out.reshape(out.shape[:-1] + (d_out, d_out))


class QuantumChannel:
    """Completely positive map in Kraus form.

    Trace preservation is classified at construction: ``trace_preserving``
    when sum_i K_i^dag K_i = I, otherwise ``trace_nonincreasing`` when it is
    dominated by the identity.  Maps satisfying neither (e.g. adjoints of
    non-unital channels) are still representable; both flags are False.
    Channels are immutable after construction.
    """

    def __init__(self, kraus, atol: float = 1e-8):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ChannelError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise ChannelError("Kraus operators must share a common 2-D shape")
        self.kraus = tuple(k.copy() for k in ops)
        for k in self.kraus:
            k.setflags(write=False)
        self.dim_out, self.dim_in = shape
        gram = sum(dagger(k) @ k for k in self.kraus)
        defect = gram - np.eye(self.dim_in)
        self.completeness_defect = float(np.max(np.abs(defect)))
        self.trace_preserving = self.completeness_defect <= atol
        if self.trace_preserving:
            self.trace_nonincreasing = True
        else:
            self.trace_nonincreasing = bool(
                np.linalg.eigvalsh(hermitian_part(defect))[-1] <= atol
            )
        self._superop: SuperOperator | None = None
        self._choi: np.ndarray | None = None

    def __repr__(self) -> str:
        return (f"QuantumChannel(dim_in={self.dim_in}, dim_out={self.dim_out}, "
                f"n_kraus={len(self.kraus)}, tp={self.trace_preserving})")

    def apply(self, rho) -> np.ndarray:
        a = as_matrix(rho)
        if a.shape != (self.dim_in, self.dim_in):
            raise ChannelError(f"input shape {a.shape} does not match dim_in {self.dim_in}")
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for k in self.kraus:
            out += k @ a @ dagger(k)
        return out

    def adjoint(self) -> "QuantumChannel":
        """Hilbert-Schmidt adjoint, Kraus set {K_i^dag}; unital when self is TP."""
        return QuantumChannel([dagger(k) for k in self.kraus])

    def compose(self, inner: "QuantumChannel") -> "QuantumChannel":
        """self after ``inner``, Kraus set {K_self K_inner}."""
        if inner.dim_out != self.dim_in:
            raise ChannelError("dimension mismatch in composition")
        return QuantumChannel([a @ b for a in self.kraus for b in inner.kraus])

    def superoperator(self) -> SuperOperator:
        if self._superop is None:
            m = sum(np.kron(k, k.conj()) for k in self.kraus)
            self._superop = SuperOperator(m, dim_in=self.dim_in, dim_out=self.dim_out)
        return self._superop

    def choi(self) -> np.ndarray:
        if self._choi is None:
            vecs = [k.T.reshape(-1) for k in self.kraus]
            j = sum(np.outer(v, v.conj()) for v in vecs)
            j = hermitian_part(j)
            j.setflags(write=False)
            self._choi = j
        return self._choi


@dataclass(frozen=True)
class CptpReport:
    choi_min_eigenvalue: float
    trace_defect: float
    completely_positive: bool
    trace_preserving: bool

    @property
    def passed(self) -> bool:
        return self.completely_positive and self.trace_preserving

    def __bool__(self) -> bool:
        return self.passed


class UnitalityTag(enum.Enum):
    UNITAL = "unital"
    STRICTLY_SUB_UNITAL = "strictly_sub_unital"
    STRICTLY_SUPER_UNITAL = "strictly_super_unital"
    NEITHER = "neither"


@dataclass(frozen=True)
class UnitalityClass:
    tag: UnitalityTag
    min_eigenvalue: float
    max_eigenvalue: float

    @property
    def is_unital(self) -> bool:
        return self.tag is UnitalityTag.UNITAL

    @property
    def is_sub_unital(self) -> bool:
        # Unital counts as (non-strictly) sub-unital.
        return self.tag in (UnitalityTag.UNITAL, UnitalityTag.STRICTLY_SUB_UNITAL)


def compose(outer, inner):
    """outer after inner.  Kraus-level when both are channels."""
    if isinstance(outer, QuantumChannel) and isinstance(inner, QuantumChannel):
        return outer.compose(inner)
    return outer.superoperator().compose(inner)


def is_cptp(channel_like, atol: float = 1e-8) -> CptpReport:
    """Check complete positivity (Choi PSD) and trace preservation."""
    choi = channel_like.choi()
    min_eig = float(np.linalg.eigvalsh(hermitian_part(choi))[0])
    if isinstance(channel_like, QuantumChannel):
        trace_defect = channel_like.completeness_defect
    else:
        d_in = channel_like.dim_in
        d_out = channel_like.dim_out
        j4 = choi.reshape(d_in, d_out, d_in, d_out)
        reduced = np.einsum("iaja->ij", j4)
        trace_defect = float(np.max(np.abs(reduced - np.eye(d_in))))
    return CptpReport(
        choi_min_eigenvalue=min_eig,
        trace_defect=trace_defect,
        completely_positive=min_eig >= -atol,
        trace_preserving=trace_defect <= atol,
    )


def unitality_class(channel_like, atol: float = 1e-9) -> UnitalityClass:
    """Classify N(I) against I by the spectrum of N(I) - I."""
    image = channel_like.apply(np.eye(channel_like.dim_in, dtype=complex))
    deviation = np.linalg.eigvalsh(hermitian_part(image - np.eye(image.shape[0])))
    lo, hi = float(deviation[0]), float(deviation[-1])
    if hi <= atol and lo >= -atol:
        tag = UnitalityTag.UNITAL
    elif hi <= atol:
        tag = UnitalityTag.STRICTLY_SUB_UNITAL
    elif lo >= -atol:
        tag = UnitalityTag.STRICTLY_SUPER_UNITAL
    else:
        tag = UnitalityTag.NEITHER
    return UnitalityClass(tag=tag, min_eigenvalue=lo, max_eigenvalue=hi)


# ---------------------------------------------------------------------------
# Builtin channels
# ---------------------------------------------------------------------------

def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel([np.eye(dim, dtype=complex)])


def unitary_channel(u) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    if np.max(np.abs(dagger(u) @ u - np.eye(u.shape[1]))) > 1e-10:
        raise ChannelError("matrix is not unitary/isometric")
    return QuantumChannel([u])


def _heisenberg_weyl(dim: int) -> list[np.ndarray]:
    """The d^2 clock-and-shift unitaries X^a Z^b."""
    omega = np.exp(2j * np.pi / dim)
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(dim))
    ops = []
    for a in range(dim):
        xa = np.linalg.matrix_power(shift, a)
        for b in range(dim):
            ops.append(xa @ np.linalg.matrix_power(clock, b))
    return ops


def depolarizing(dim: int, q: float) -> QuantumChannel:
    """rho -> (1 - q) rho + q Tr(rho) I/d for q in [0, d^2/(d^2 - 1)].

    Kraus form over the clock-and-shift unitary basis; the identity Kraus
    weight 1 - q (1 - 1/d^2) fixes the upper end of the admissible range.
    """
    if dim < 2:
        raise ChannelError("depolarizing channel needs dim >= 2")
    q_max = dim**2 / (dim**2 - 1)
    if not 0.0 <= q <= q_max + 1e-12:
        raise ChannelError(f"q={q} outside [0, {q_max}]")
    identity_weight = max(1.0 - q * (1.0 - 1.0 / dim**2), 0.0)
    uniform_weight = q / dim**2
    ops = _heisenberg_weyl(dim)
    kraus = [np.sqrt(identity_weight) * ops[0]]
    kraus += [np.sqrt(uniform_weight) * u for u in ops[1:]]
    return QuantumChannel(kraus)


def gadc(t: float, omega: float) -> QuantumChannel:
    """Generalized amplitude damping channel at time t.

    Four Kraus operators with excitation probability p_t = cos^2(omega t)
    and damping parameter eta_t = exp(-t); the identity channel at t = 0.
    """
    if t < 0:
        raise ChannelError("gadc requires t >= 0")
    p = np.cos(omega * t) ** 2
    eta = np.exp(-t)
    sp, sq = np.sqrt(p), np.sqrt(1.0 - p)
    se, sl = np.sqrt(eta), np.sqrt(1.0 - eta)
    kraus = [
        sp * np.array([[1, 0], [0, se]], dtype=complex),
        sp * np.array([[0, sl], [0, 0]], dtype=complex),
        sq * np.array([[se, 0], [0, 1]], dtype=complex),
        sq * np.array([[0, 0], [sl, 0]], dtype=complex),
    ]
    return QuantumChannel(kraus)


def gadc_coherence(t: float, omega: float) -> float:
    """Population imbalance W_t = cos(2 omega t)(1 - e^{-t}) of the evolved I/2."""
    return float(np.cos(2.0 * omega * t) * (1.0 - np.exp(-t)))


def dephasing_channel(coherence: float) -> QuantumChannel:
    """Qubit phase damping that scales off-diagonals by ``coherence`` in [-1, 1]."""
    if not -1.0 <= coherence <= 1.0:
        raise ChannelError("coherence factor must lie in [-1, 1]")
    return QuantumChannel([
        np.sqrt((1.0 + coherence) / 2.0) * np.eye(2, dtype=complex),
        np.sqrt((1.0 - coherence) / 2.0) * SIGMA_Z,
    ])


def partial_trace_channel(dim_keep: int, dim_drop: int, keep: str = "B") -> QuantumChannel:
    """The channel Tr_A (keep="B") or Tr_B (keep="A") on a bipartite input."""
    if keep == "B":
        d_a, d_b = dim_drop, dim_keep
        kraus = [np.kron(e.reshape(1, -1), np.eye(d_b, dtype=complex))
                 for e in np.eye(d_a, dtype=complex)]
    elif keep == "A":
        d_a, d_b = dim_keep, dim_drop
        kraus = [np.kron(np.eye(d_a, dtype=complex), e.reshape(1, -1))
                 for e in np.eye(d_b, dtype=complex)]
    else:
        raise ChannelError("keep must be 'A' or 'B'")
    return QuantumChannel(kraus)


def transpose_superoperator(dim: int) -> SuperOperator:
    """Matrix transposition: the canonical positive map that is not CP."""
    m = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            m[i * dim + j, j * dim + i] = 1.0
    return SuperOperator(m, dim_in=dim, dim_out=dim)


# ---------------------------------------------------------------------------
# Time-dependent coefficients and Lindblad generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantCoefficient:
    value: float

    def __call__(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class CosineSquaredCoefficient:
    """scale * cos^2(omega t)"""

    omega: float
    scale: float = 1.0

    def __call__(self, t: float) -> float:
        return self.scale * np.cos(self.omega * t) ** 2


@dataclass(frozen=True)
class ExponentialCoefficient:
    """scale * exp(-decay t)"""

    decay: float
    scale: float = 1.0

    def __call__(self, t: float) -> float:
        return self.scale * np.exp(-self.decay * t)


# Coefficients whose call is a numpy expression, so that it takes an array of
# times whole; a constant broadcasts its value.
_ARRAY_COEFFICIENTS = (ConstantCoefficient, CosineSquaredCoefficient, ExponentialCoefficient)


def _as_coefficient(rate):
    if isinstance(rate, (int, float)):
        return ConstantCoefficient(float(rate))
    if callable(rate):
        return rate
    raise ChannelError(f"rate must be a number or callable, got {type(rate)!r}")


@dataclass(frozen=True)
class JumpTerm:
    """One dissipator: rate gamma(t) and jump operator A(t).

    The rate may be temporarily negative; only the overall evolution has to
    stay completely positive.
    """

    rate: object
    operator: object

    def rate_at(self, t):
        """gamma(t): a float for one time, an array of the same shape for an
        array of times.  The coefficient classes take the array whole; any
        other callable is called once per time, here only."""
        if not isinstance(t, np.ndarray):
            return float(self.rate(t)) if callable(self.rate) else float(self.rate)
        if isinstance(self.rate, _ARRAY_COEFFICIENTS):
            return np.broadcast_to(self.rate(t), t.shape)
        if callable(self.rate):
            return np.array([float(self.rate(float(s))) for s in t.ravel()]).reshape(t.shape)
        return np.full(t.shape, float(self.rate))

    def operator_at(self, t: float) -> np.ndarray:
        op = self.operator(t) if callable(self.operator) else self.operator
        return np.asarray(op, dtype=complex)


@dataclass(frozen=True)
class TailGuard:
    """Population bound on the top Fock levels of a truncated mode."""

    levels: int = 2
    bound: float = 1e-8

    def check(self, state: np.ndarray):
        """Population of the top ``levels`` levels: a float for one state, an
        array for a stack (..., d, d)."""
        return self.tails(np.real(np.diagonal(state, axis1=-2, axis2=-1)))

    def tails(self, populations: np.ndarray):
        """The same from the populations (..., d) of the levels in order."""
        tails = np.sum(populations[..., -self.levels:], axis=-1)
        return float(tails) if tails.ndim == 0 else tails


def _sandwich_matrix(dim: int, sandwiches) -> sparse.csr_array:
    """Matrix of X -> sum_k c_k K_k X M_k for (c_k, K_k, M_k) in ``sandwiches``:
    sum_k c_k kron(K_k, M_k^T) in the row-stacking convention, assembled as one
    CSR matrix from the nonzero entries of the factors."""
    n = dim * dim
    if not sandwiches:
        return sparse.csr_array((n, n), dtype=complex)
    rows, cols, vals = [], [], []
    for c, k, m in sandwiches:
        m_t = m.T
        kr, kc = np.nonzero(k)
        mr, mc = np.nonzero(m_t)
        rows.append((kr[:, None] * dim + mr).ravel())
        cols.append((kc[:, None] * dim + mc).ravel())
        vals.append((c * k[kr, kc][:, None] * m_t[mr, mc]).ravel())
    return sparse.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(n, n))


def _commutator(h: np.ndarray) -> list:
    """-i[H, X] as sandwiches."""
    eye = np.eye(len(h), dtype=complex)
    return [(-1j, h, eye), (1j, eye, h)]


def _dissipator(gamma: float, a: np.ndarray) -> list:
    """gamma (A X A^dag - {A^dag A, X}/2) as sandwiches."""
    a_dag = dagger(a)
    ada = a_dag @ a
    eye = np.eye(len(a), dtype=complex)
    return [(gamma, a, a_dag), (-0.5 * gamma, ada, eye), (-0.5 * gamma, eye, ada)]


def _constant_rate(rate) -> bool:
    """A rate that does not depend on time: a number or a ConstantCoefficient."""
    return isinstance(rate, ConstantCoefficient) or not callable(rate)


class LindbladGenerator:
    """Time-dependent generator: -i[H, rho] + sum_i gamma_i (A_i rho A_i^dag - {A_i^dag A_i, rho}/2).

    The Hamiltonian may be None (no coherent part), a constant matrix, or a
    callable of t.  Jump rates are numbers, coefficient objects, or callables.

    The generator is compiled once, at construction, into sparse d^2 x d^2
    blocks in the row-stacking convention: all constant parts (a constant
    Hamiltonian and every jump term whose rate and operator are both
    constant) merged into one block L_0, and one dissipator D_i for each
    jump term with a time-dependent rate and a constant operator.  The
    blocks are stacked vertically into one CSR matrix [L_0; D_1; ...; D_m],
    and their conjugate transposes into a second one for the adjoint.  A
    constant Hamiltonian is checked for Hermiticity there, and it and every
    constant operator must be dim x dim.  A callable Hamiltonian or operator
    is built into a matrix, and checked, at each time it is evaluated.
    ``apply`` reads a stack (..., d, d) as the columns vec(x) of one
    d^2-row matrix, multiplies the stacked matrix onto them once, and
    combines the row blocks as L_0 x + sum_i gamma_i(t) D_i x;
    ``adjoint_apply`` does the same with the conjugate transposes, and
    ``superoperator`` returns the same sum of the same blocks as a dense
    matrix.  Every call thus costs one sparse product.

    The compiled pattern also splits the coordinates of vec(x) into
    invariant sets (:meth:`invariant_sets`, labelled on first use and
    cached): entries outside the sets an operator touches stay zero under
    every L_t, so the generator may act on those sets alone.
    :meth:`restricted` gives that action through dense restrictions of the
    compiled blocks, which :func:`~entroflow.dynamics.propagate` takes for
    stacks whose sets hold m <= max(d, 16) coordinates, and every
    intermediate map M_{t,s} for all d^2 coordinates.  A generator with a
    callable Hamiltonian or operator has no fixed pattern and no sets; its
    maps read :meth:`superoperators`.
    """

    def __init__(self, dim: int, hamiltonian=None, jumps=(), tail_guard: TailGuard | None = None):
        self.dim = int(dim)
        self.hamiltonian = hamiltonian
        terms = []
        for term in jumps:
            if not isinstance(term, JumpTerm):
                rate, op = term
                term = JumpTerm(_as_coefficient(rate), op)
            terms.append(term)
        self.jumps = tuple(terms)
        self.tail_guard = tail_guard
        self._hamiltonian = None if callable(hamiltonian) else self._checked_hamiltonian(hamiltonian)
        constant = [] if self._hamiltonian is None else _commutator(self._hamiltonian)
        rated, dissipators, self._callable_terms = [], [], []
        for term in self.jumps:
            if callable(term.operator):
                self._callable_terms.append(term)
                continue
            a = self._checked_operator(term.operator)
            if _constant_rate(term.rate):
                constant += _dissipator(term.rate_at(0.0), a)
            else:
                rated.append(term)
                dissipators.append(_sandwich_matrix(self.dim, _dissipator(1.0, a)))
        blocks = [_sandwich_matrix(self.dim, constant)] + dissipators
        self._rated_terms = tuple(rated)
        self._callable_parts = self._hamiltonian is None or bool(self._callable_terms)
        self._compiled = {
            False: sparse.vstack(blocks, format="csr"),
            True: sparse.vstack([b.conj().T.tocsr() for b in blocks], format="csr"),
        }
        self._sets: np.ndarray | None = None

    def _checked_shape(self, a: np.ndarray, name: str) -> np.ndarray:
        if a.shape != (self.dim, self.dim):
            raise ChannelError(f"{name} has shape {a.shape}, but the generator acts on "
                               f"dimension {self.dim}")
        return a

    def _checked_hamiltonian(self, h) -> np.ndarray:
        if h is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return require_hermitian(self._checked_shape(as_matrix(h), "hamiltonian"), name="hamiltonian")

    def _checked_operator(self, op) -> np.ndarray:
        return self._checked_shape(np.asarray(op, dtype=complex), "jump operator")

    def hamiltonian_at(self, t: float) -> np.ndarray:
        if self._hamiltonian is not None:
            return self._hamiltonian
        return self._checked_hamiltonian(self.hamiltonian(t))

    def terms_at(self, t: float) -> list[tuple[float, np.ndarray]]:
        return [(term.rate_at(t), term.operator_at(t)) for term in self.jumps]

    def _built_at(self, t: float, adjoint: bool) -> sparse.sparray:
        """The callable Hamiltonian and callable-operator terms at t, built
        (and checked) now as one matrix; its conjugate transpose for the adjoint."""
        sandwiches = [] if self._hamiltonian is not None else _commutator(self.hamiltonian_at(t))
        for term in self._callable_terms:
            sandwiches += _dissipator(term.rate_at(t), self._checked_operator(term.operator(t)))
        m = _sandwich_matrix(self.dim, sandwiches)
        return m.conj().T if adjoint else m

    def _act(self, t, x: np.ndarray, adjoint: bool) -> np.ndarray:
        """L_t(x), or L_t^dag(x), for a stack x (..., d, d) at one time or at
        an array of times, one for each entry along the first axis."""
        d = self.dim
        if x.shape[-2:] != (d, d):
            raise ChannelError(f"operator shape {x.shape} does not match dim {d}")
        n = d * d
        cols = x.reshape(-1, n).T
        blocks = self._compiled[adjoint] @ cols
        out = blocks[:n]
        times = np.atleast_1d(t)
        per_time = cols.shape[1] // len(times)
        for i, term in enumerate(self._rated_terms, start=1):
            part = blocks[i * n:(i + 1) * n]
            part *= np.repeat(term.rate_at(times), per_time)
            out += part
        if self._callable_parts:
            for k, s in enumerate(times):
                block = slice(k * per_time, (k + 1) * per_time)
                out[:, block] += self._built_at(float(s), adjoint) @ cols[:, block]
        # Returned in C order: a strided (N, d, d) view would send every later
        # elementwise step through numpy's strided loops, whose rounding
        # differs from the contiguous ones, so a state's trajectory would
        # depend on the stack it is in.  With the rated blocks scaled in
        # place, the copy sits beside no other temporary.
        return np.ascontiguousarray(out.T).reshape(x.shape)

    def apply(self, t, rho) -> np.ndarray:
        """L_t(rho) for one operator or a stack (..., d, d).

        ``t`` is one time, or an array of times, one for each entry along
        the first axis of the stack.
        """
        return self._act(t, as_matrix(rho), adjoint=False)

    def adjoint_apply(self, t, x) -> np.ndarray:
        """L_t^dag(x) for one operator or a stack (..., d, d), with ``t`` as in :meth:`apply`."""
        return self._act(t, as_matrix(x), adjoint=True)

    def superoperator(self, t: float) -> SuperOperator:
        """Matrix of L_t: the compiled block L_0 plus sum_i gamma_i(t) D_i, dense."""
        n = self.dim * self.dim
        blocks = self._compiled[False].toarray()
        m = blocks[:n]
        for i, term in enumerate(self._rated_terms, start=1):
            m += term.rate_at(t) * blocks[i * n:(i + 1) * n]
        if self._callable_parts:
            m += self._built_at(t, adjoint=False).toarray()
        return SuperOperator(m, dim_in=self.dim, dim_out=self.dim)

    def superoperators(self, times) -> np.ndarray:
        """The matrices of L_t at an array of times, as a (..., d^2, d^2) stack."""
        times = np.asarray(times, dtype=float)
        return np.array([self.superoperator(float(t)).matrix for t in times.ravel()]).reshape(
            times.shape + (self.dim ** 2,) * 2)

    def invariant_sets(self) -> np.ndarray | None:
        """The invariant set of each coordinate of vec(x), as a (d^2,) array
        of labels; None for a generator with callable parts.

        Two coordinates share a set when an entry of a compiled block couples
        them, in either direction, and all populations (i, i) share one, so
        that the sets of a phase-covariant generator are its coherence
        orders whatever its rates (a union of invariant sets is invariant).
        An operator vanishing on a set keeps vanishing there under every L_t.
        The labels are the largest coordinate of each set, spread along the
        entries of the compiled blocks and of their conjugate transposes,
        with pointer jumping, until they settle; once per generator.
        """
        if self._callable_parts:
            return None
        if self._sets is None:
            d, n = self.dim, self.dim * self.dim
            # the stored entries of every compiled block and of its transpose
            rows = np.concatenate([np.repeat(np.arange(m.shape[0]) % n, np.diff(m.indptr))
                                   for m in self._compiled.values()])
            cols = np.concatenate([m.indices for m in self._compiled.values()])
            populations = np.arange(d) * (d + 1)
            labels = np.arange(n)
            while True:
                spread = labels.copy()
                np.maximum.at(spread, rows, labels[cols])
                spread[populations] = spread[populations].max()
                spread = spread[spread]
                if np.array_equal(spread, labels):
                    break
                labels = spread
            self._sets = labels
        return self._sets

    def restricted(self, index) -> _Restriction:
        """The generator on the coordinates ``index`` of vec(x), a union of
        its invariant sets, through dense restrictions of its compiled blocks."""
        return _Restriction(self, np.asarray(index))

    def is_time_independent(self) -> bool:
        constant_h = not callable(self.hamiltonian)
        constant_terms = all(_constant_rate(term.rate) and not callable(term.operator)
                             for term in self.jumps)
        return constant_h and constant_terms


class _Restriction:
    """A generator without callable parts on the coordinates ``index`` of
    vec(x), a union of its invariant sets, as (..., m) rows y.

    Each compiled block, L_0 and every rated D_i, is restricted to those
    coordinates once, as a dense m x m matrix B_0, B_i acting on rows from
    the right: y' = y G(t) with G(t) = B_0 + sum_i gamma_i(t) B_i, which
    ``generators`` gives as a stack at an array of times and ``apply(t, y)``
    multiplies onto (N, m) rows at one time t, or at an (N,) array of times,
    one per row.  ``coordinates`` gathers the rows from an (N, d, d) stack
    that vanishes off ``index``, and ``states`` scatters a (..., m) stack of
    them back into (..., d, d).  ``transpose`` is the position of the
    coordinate of x_ji for each x_ij (the index of a Hermitian stack holds
    both), and ``populations`` that of each x_ii in level order (all
    populations share one set).  The integrators take it for
    m <= max(d, 16), where one dense product costs less than the sparse
    one's dispatch.
    """

    def __init__(self, generator: LindbladGenerator, index: np.ndarray):
        self.dim, self.index = generator.dim, index
        d, n, m = self.dim, self.dim * self.dim, len(index)
        compiled = generator._compiled[False]
        self._rated_terms = generator._rated_terms
        position = np.full(n, -1)
        position[index] = np.arange(m)
        row_of, col_of = np.divmod(index, d)
        self.transpose = position[col_of * d + row_of]
        self.populations = position[np.arange(d) * (d + 1)]
        block, row = np.divmod(np.repeat(np.arange(compiled.shape[0]), np.diff(compiled.indptr)), n)
        kept = position[row] >= 0  # the rows of the sets, whose entries lie in the sets too
        # each block transposed, since the rows y (N, m) multiply it from the left
        self._blocks = np.zeros((1 + len(self._rated_terms), m, m), dtype=complex)
        transposed = (block[kept], position[compiled.indices[kept]], position[row[kept]])
        self._blocks[transposed] = compiled.data[kept]

    @property
    def time_independent(self) -> bool:
        return not self._rated_terms

    def generators(self, times: np.ndarray) -> np.ndarray:
        """G(t) at every entry of an array of times, as a (..., m, m) stack."""
        out = np.broadcast_to(self._blocks[0], times.shape + self._blocks.shape[1:]).copy()
        for term, block in zip(self._rated_terms, self._blocks[1:]):
            out += term.rate_at(times)[..., None, None] * block
        return out

    def apply(self, t, y: np.ndarray) -> np.ndarray:
        # ndarray.dot: the same BLAS product as @ on these 2-d operands, at
        # about half the call cost for m <= 16; isinstance, not np.ndim,
        # which takes about 2 us on a float
        out = y.dot(self._blocks[0])
        per_row = isinstance(t, np.ndarray)
        for term, block in zip(self._rated_terms, self._blocks[1:]):
            rate = term.rate_at(t)[:, None] if per_row else term.rate_at(float(t))
            out += rate * y.dot(block)
        return out

    def coordinates(self, states: np.ndarray) -> np.ndarray:
        return states.reshape(len(states), -1)[:, self.index]

    def states(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape[:-1] + (self.dim * self.dim,), dtype=complex)
        out[..., self.index] = y
        return out.reshape(y.shape[:-1] + (self.dim, self.dim))


def dephasing_generator(rate) -> LindbladGenerator:
    """Pure decoherence of a qubit: single jump sigma_z with rate gamma(t)/2."""
    gamma = _as_coefficient(rate)
    half = (lambda t: 0.5 * gamma(t)) if not isinstance(gamma, ConstantCoefficient) \
        else ConstantCoefficient(0.5 * gamma.value)
    return LindbladGenerator(2, jumps=[JumpTerm(half, SIGMA_Z)])


def depolarizing_generator(dim: int, rate: float) -> LindbladGenerator:
    """Semigroup generator whose flow is rho -> e^{-c t} rho + (1 - e^{-c t}) I/d.

    Jumps are the non-identity clock-and-shift unitaries with equal constant
    rates; c = rate * d^2.  Unital and self-adjoint as a superoperator.
    """
    ops = _heisenberg_weyl(dim)[1:]
    jumps = [JumpTerm(ConstantCoefficient(rate), u) for u in ops]
    return LindbladGenerator(dim, jumps=jumps)


def check_cutoff(cutoff: int) -> None:
    """A truncated mode keeps at least two Fock levels."""
    if cutoff < 2:
        raise ChannelError("cutoff must be at least 2")


def check_bosonic_rates(gamma_plus: float, gamma_minus: float) -> None:
    """Both rates of a phase-insensitive bosonic generator are non-negative."""
    if gamma_plus < 0 or gamma_minus < 0:
        raise ChannelError("bosonic rates must be non-negative")


def check_thermal_tail(mean_photons: float, cutoff: int, tail_atol: float = 1e-8) -> None:
    """A non-negative mean photon number whose thermal tail beyond the
    cutoff, (N/(N+1))^cutoff, stays within ``tail_atol`` (the vacuum has none)."""
    if mean_photons < 0:
        raise ChannelError("mean photon number must be non-negative")
    tail = (mean_photons / (mean_photons + 1.0))**cutoff if mean_photons > 0 else 0.0
    if tail > tail_atol:
        raise ChannelError(
            f"cutoff {cutoff} insufficient for N={mean_photons}: tail mass {tail:.3e}"
        )


def annihilation_operator(cutoff: int) -> np.ndarray:
    """Truncated field-mode annihilation operator, a|n> = sqrt(n)|n-1>."""
    check_cutoff(cutoff)
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)


def bosonic_generator(gamma_plus: float, gamma_minus: float, cutoff: int,
                      tail_bound: float = 1e-8) -> LindbladGenerator:
    """Phase-insensitive single-mode generator gamma_+ L_+ + gamma_- L_-.

    L_+ raises with the creation operator, L_- lowers with the annihilation
    operator.  The truncation breaks [a, a^dag] = I on the top level, so the
    generator carries a tail guard: propagation is trusted only while the
    population of the top two levels stays below ``tail_bound``.
    """
    check_bosonic_rates(gamma_plus, gamma_minus)
    a = annihilation_operator(cutoff)
    jumps = [
        JumpTerm(ConstantCoefficient(float(gamma_plus)), dagger(a)),
        JumpTerm(ConstantCoefficient(float(gamma_minus)), a),
    ]
    return LindbladGenerator(cutoff, jumps=jumps,
                             tail_guard=TailGuard(levels=2, bound=tail_bound))


def thermal_state(mean_photons: float, cutoff: int, tail_atol: float = 1e-8) -> DensityMatrix:
    """Geometric Fock-diagonal state with the given mean photon number.

    The truncated tail (N/(N+1))^cutoff must stay below ``tail_atol``;
    otherwise the cutoff is declared insufficient.  The retained weights are
    renormalized.
    """
    check_thermal_tail(mean_photons, cutoff, tail_atol)
    if mean_photons == 0:
        probs = np.zeros(cutoff)
        probs[0] = 1.0
        return DensityMatrix.diagonal(probs)
    ratio = mean_photons / (mean_photons + 1.0)
    probs = ratio ** np.arange(cutoff) / (mean_photons + 1.0)
    return DensityMatrix.diagonal(probs / probs.sum())
