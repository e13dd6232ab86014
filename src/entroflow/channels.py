"""Quantum channels and Lindblad generators.

Channels are carried in Kraus form; the superoperator matrix and the Choi
matrix are derived caches.  Superoperator matrices use the row-stacking
convention vec(X) = X.reshape(-1), under which the map X -> K X L has matrix
kron(K, L.T).  A generator's Hamiltonian and jump operators are fixed
d x d matrices, and only its rates depend on time, so every generator is
compiled once into d^2 x d^2 matrices in that convention, each kept as the
summed (rows, cols, values) numpy triple of its entries: one for all
constant parts and one dissipator per time-dependent rate.  Its invariant
sets, its dense restrictions and its dense superoperator are read from
those triples.  The sparse matrices of the whole-space products, and their
conjugate transposes (the matrices of the adjoint map), are built from
them on the first such product, which is where ``scipy.sparse`` is
imported.  Nothing is rebuilt per time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    "is_cptp",
    "unitality_class",
    "unitary_channel",
    "depolarizing",
    "gadc",
    "dephasing_channel",
    "partial_trace_channel",
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

# Largest thermal mass (N/(N+1))^cutoff a truncated mode may drop.
THERMAL_TAIL_ATOL = 1e-8
# Largest population of the top Fock levels a tail guard trusts.
TAIL_GUARD_BOUND = 1e-8
# Kraus completeness defect and Choi negativity still counted as CPTP.
CPTP_ATOL = 1e-8
# |eigenvalue| of N(I) - I still counted as unital.
UNITALITY_ATOL = 1e-9


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

    def choi(self) -> np.ndarray:
        d_in, d_out = self.dim_in, self.dim_out
        s4 = self.matrix.reshape(d_out, d_out, d_in, d_in)
        # J[(i,a),(j,b)] = <a| N(|i><j|) |b> = S[(a,b),(i,j)]
        return s4.transpose(2, 0, 3, 1).reshape(d_in * d_out, d_in * d_out)


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

    The Kraus operators are held as one read-only (n, d_out, d_in) stack, and
    ``kraus`` is the tuple of its n read-only (d_out, d_in) views; every Kraus
    sum below (the completeness Gram, ``apply``, ``adjoint_apply``, the
    superoperator and Choi matrices) is one product over that stack.
    Trace preservation is classified at construction, within ``CPTP_ATOL``:
    ``trace_preserving`` when sum_i K_i^dag K_i = I, otherwise
    ``trace_nonincreasing`` when it is dominated by the identity.  Maps
    satisfying neither (e.g. adjoints of
    non-unital channels) are still representable; both flags are False.
    Channels are immutable after construction.
    """

    def __init__(self, kraus):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ChannelError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise ChannelError("Kraus operators must share a common 2-D shape")
        self._stack = np.array(ops)
        self._stack.setflags(write=False)
        self.kraus = tuple(self._stack)
        self.dim_out, self.dim_in = shape
        gram = (dagger(self._stack) @ self._stack).sum(axis=0)
        defect = gram - np.eye(self.dim_in)
        self.completeness_defect = float(np.max(np.abs(defect)))
        self.trace_preserving = self.completeness_defect <= CPTP_ATOL
        if self.trace_preserving:
            self.trace_nonincreasing = True
        else:
            self.trace_nonincreasing = bool(
                np.linalg.eigvalsh(hermitian_part(defect))[-1] <= CPTP_ATOL
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
        return (self._stack @ a @ dagger(self._stack)).sum(axis=0)

    def adjoint_apply(self, x) -> np.ndarray:
        """sum_i K_i^dag x K_i: the adjoint map on one operator."""
        a = as_matrix(x)
        if a.shape != (self.dim_out, self.dim_out):
            raise ChannelError(f"input shape {a.shape} does not match dim_out {self.dim_out}")
        return (dagger(self._stack) @ a @ self._stack).sum(axis=0)

    def superoperator(self) -> SuperOperator:
        if self._superop is None:
            # sum_i kron(K_i, conj(K_i)), entry [(a, c), (b, d)] = sum_i K_i[a, b] conj(K_i[c, d])
            m = np.einsum("nab,ncd->acbd", self._stack, self._stack.conj())
            self._superop = SuperOperator(m.reshape(self.dim_out**2, self.dim_in**2),
                                          dim_in=self.dim_in, dim_out=self.dim_out)
        return self._superop

    def choi(self) -> np.ndarray:
        if self._choi is None:
            # Row i of vecs is vec(K_i^T), so J = sum_i vec(K_i^T) vec(K_i^T)^dag.
            vecs = self._stack.transpose(0, 2, 1).reshape(len(self.kraus), -1)
            j = hermitian_part(vecs.T @ vecs.conj())
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


def is_cptp(channel_like) -> CptpReport:
    """Check complete positivity (Choi PSD) and trace preservation within ``CPTP_ATOL``."""
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
        completely_positive=min_eig >= -CPTP_ATOL,
        trace_preserving=trace_defect <= CPTP_ATOL,
    )


def unitality_class(channel_like) -> UnitalityClass:
    """Classify N(I) against I by the spectrum of N(I) - I, within ``UNITALITY_ATOL``."""
    image = channel_like.apply(np.eye(channel_like.dim_in, dtype=complex))
    deviation = np.linalg.eigvalsh(hermitian_part(image - np.eye(image.shape[0])))
    lo, hi = float(deviation[0]), float(deviation[-1])
    if hi <= UNITALITY_ATOL and lo >= -UNITALITY_ATOL:
        tag = UnitalityTag.UNITAL
    elif hi <= UNITALITY_ATOL:
        tag = UnitalityTag.STRICTLY_SUB_UNITAL
    elif lo >= -UNITALITY_ATOL:
        tag = UnitalityTag.STRICTLY_SUPER_UNITAL
    else:
        tag = UnitalityTag.NEITHER
    return UnitalityClass(tag=tag, min_eigenvalue=lo, max_eigenvalue=hi)


# ---------------------------------------------------------------------------
# Builtin channels
# ---------------------------------------------------------------------------

def unitary_channel(u) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    if np.max(np.abs(dagger(u) @ u - np.eye(u.shape[1]))) > 1e-10:
        raise ChannelError("matrix is not unitary/isometric")
    return QuantumChannel([u])


def _heisenberg_weyl(dim: int) -> np.ndarray:
    """The d^2 clock-and-shift unitaries X^a Z^b as a (d^2, d, d) stack,
    entry [a d + b, j, k] = delta_{j, (k + a) mod d} omega^{b k}."""
    omega = np.exp(2j * np.pi / dim)
    k = np.arange(dim)
    phases = (omega ** k) ** k[:, None]  # [b, k]
    shifts = k[:, None] == (k + k[:, None, None]) % dim  # [a, j, k]
    return np.where(shifts[:, None], phases[:, None, :], 0).reshape(dim**2, dim, dim)


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
    weights = np.full(dim**2, np.sqrt(uniform_weight))
    weights[0] = np.sqrt(identity_weight)
    return QuantumChannel(weights[:, None, None] * _heisenberg_weyl(dim))


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


def dephasing_channel(coherence: float) -> QuantumChannel:
    """Qubit phase damping that scales off-diagonals by ``coherence`` in [-1, 1]."""
    if not -1.0 <= coherence <= 1.0:
        raise ChannelError("coherence factor must lie in [-1, 1]")
    return QuantumChannel([
        np.sqrt((1.0 + coherence) / 2.0) * np.eye(2, dtype=complex),
        np.sqrt((1.0 - coherence) / 2.0) * SIGMA_Z,
    ])


def partial_trace_channel(dim_keep: int, dim_drop: int) -> QuantumChannel:
    """The channel Tr_A on A (x) B, of dimensions ``dim_drop`` x ``dim_keep``."""
    return QuantumChannel([np.kron(e.reshape(1, -1), np.eye(dim_keep, dtype=complex))
                           for e in np.eye(dim_drop, dtype=complex)])


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


@dataclass(frozen=True)
class TailGuard:
    """Population bound on the top Fock levels of a truncated mode."""

    levels: int = 2
    bound: float = TAIL_GUARD_BOUND

    def tails(self, populations: np.ndarray):
        """Population of the top ``levels`` levels, from the populations
        (..., d) of the levels in order: a float for one state, an array
        for a stack."""
        tails = np.sum(populations[..., -self.levels:], axis=-1)
        return float(tails) if tails.ndim == 0 else tails


def _sandwich_entries(dim: int, sandwiches, name: str) -> list:
    """The entries of X -> sum_k c_k K_k X M_k for (c_k, K_k, M_k) in
    ``sandwiches``: sum_k c_k kron(K_k, M_k^T) in the row-stacking convention,
    as (rows, cols, values) from the nonzero entries of the factors, one
    triple per sandwich.  A value that overflows (a rate near the float
    limit) raises ChannelError naming the part, with no RuntimeWarning."""
    entries = []
    for c, k, m in sandwiches:
        m_t = m.T
        kr, kc = np.nonzero(k)
        mr, mc = np.nonzero(m_t)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = (c * k[kr, kc][:, None] * m_t[mr, mc]).ravel()
        if not np.isfinite(vals).all():
            raise ChannelError(f"{name} gives a non-finite generator entry: its rate times "
                               "its operator's entries overflows")
        entries.append(((kr[:, None] * dim + mr).ravel(), (kc[:, None] * dim + mc).ravel(), vals))
    return entries


def _summed_entries(dim: int, entries, name: str) -> tuple:
    """The :func:`_sandwich_entries` triples of ``name`` summed into one
    (rows, cols, values) triple with one entry per coupled pair of
    coordinates, sorted by row and then by column (a sum that cancels keeps
    its entry, so the pattern is that of the factors); ChannelError when a
    sum of finite entries overflows, with no RuntimeWarning."""
    n = dim * dim
    if not entries:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0, dtype=complex)
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    keys, where = np.unique(rows * n + cols, return_inverse=True)
    summed = np.zeros(len(keys), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(summed, where, vals)
    if not np.isfinite(summed).all():
        raise ChannelError(f"the entries of {name} add up to a non-finite generator entry")
    return (*np.divmod(keys, n), summed)


def _commutator(h: np.ndarray) -> list:
    """-i[H, X] as sandwiches."""
    eye = np.eye(len(h), dtype=complex)
    return [(-1j, h, eye), (1j, eye, h)]


def _dissipator(gamma: float, a: np.ndarray) -> list:
    """gamma (A X A^dag - {A^dag A, X}/2) as sandwiches; an A^dag A that
    overflows is left to :func:`_sandwich_entries` to refuse."""
    a_dag = dagger(a)
    with np.errstate(over="ignore", invalid="ignore"):
        ada = a_dag @ a
    eye = np.eye(len(a), dtype=complex)
    return [(gamma, a, a_dag), (-0.5 * gamma, ada, eye), (-0.5 * gamma, eye, ada)]


def _constant_rate(rate) -> bool:
    """A rate that does not depend on time: a number or a ConstantCoefficient."""
    return isinstance(rate, ConstantCoefficient) or not callable(rate)


class LindbladGenerator:
    """Time-dependent generator: -i[H, rho] + sum_i gamma_i(t) (A_i rho A_i^dag - {A_i^dag A_i, rho}/2).

    The Hamiltonian is None (no coherent part) or a d x d Hermitian matrix,
    and every jump operator a d x d matrix; time dependence lives in the
    rates alone, which are numbers, coefficient objects, or any callable of
    t.  A callable Hamiltonian or operator is refused with ChannelError.

    The generator is compiled once, at construction, into d^2 x d^2 blocks
    in the row-stacking convention: all constant parts (the Hamiltonian
    and every jump term with a constant rate) merged into one block L_0,
    and one dissipator D_i for each jump term with a time-dependent rate.
    Each block is kept as its summed (rows, cols, values) triple, sorted by
    row and column, in numpy alone.  The Hamiltonian is checked for
    Hermiticity there, and it and every operator must be dim x dim; a jump
    whose block entries overflow (a rate near the float limit) is refused
    with ChannelError naming it.  ``superoperator`` scatters the blocks
    into dense matrices and returns L_0 + sum_i gamma_i(t) D_i.
    ``apply`` reads a stack (..., d, d) as the columns vec(x) of one
    d^2-row matrix, multiplies the CSR matrix [L_0; D_1; ...; D_m] onto
    them once, and combines the row blocks as L_0 x + sum_i gamma_i(t) D_i x;
    ``adjoint_apply`` does the same with the conjugate transposes.  Every
    such call costs one sparse product.  The two CSR matrices are built
    from the triples on the first whole-space product, which imports
    ``scipy.sparse``; runs whose stacks all propagate on restrictions never
    load it.

    The compiled pattern, fixed for every generator, also splits the
    coordinates of vec(x) into invariant sets (:meth:`invariant_sets`,
    labelled on first use and cached): entries outside the sets an operator
    touches stay zero under every L_t and every L_t^dag, so the generator
    and its adjoint may act on those sets alone.  :meth:`restricted` gives
    that action through dense restrictions of the compiled triples, which
    :func:`~entroflow.dynamics.propagate` takes for stacks whose sets hold
    m <= max(d, 16) coordinates, the Theorem-2 witnesses read on the
    trajectories it returns, and every intermediate map M_{t,s} for all
    d^2 coordinates.
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
        constant = [] if hamiltonian is None else _sandwich_entries(self.dim, _commutator(
            require_hermitian(self._checked(hamiltonian, "hamiltonian"), name="hamiltonian")),
            "hamiltonian")
        rated, dissipators = [], []
        for i, term in enumerate(self.jumps):
            a, name = self._checked(term.operator, "jump operator"), f"jump {i}"
            if _constant_rate(term.rate):
                constant += _sandwich_entries(self.dim, _dissipator(term.rate_at(0.0), a), name)
            else:
                rated.append(term)
                entries = _sandwich_entries(self.dim, _dissipator(1.0, a), name)
                dissipators.append(_summed_entries(self.dim, entries, name))
        self._blocks = (_summed_entries(self.dim, constant, "the constant terms"),
                        *dissipators)
        self._rated_terms = tuple(rated)
        self._sets: np.ndarray | None = None

    def _checked(self, m, name: str) -> np.ndarray:
        if callable(m):
            raise ChannelError(f"{name} must be a matrix, not a callable of t: "
                               "time dependence belongs in the rates")
        a = as_matrix(m)
        if a.shape != (self.dim, self.dim):
            raise ChannelError(f"{name} has shape {a.shape}, but the generator acts on "
                               f"dimension {self.dim}")
        return a

    @cached_property
    def _compiled(self) -> dict:
        """The blocks stacked vertically into one CSR matrix [L_0; D_1; ...]
        (``False``) and their conjugate transposes into a second (``True``),
        for the whole-space products: built on the first of them."""
        from scipy import sparse

        n = self.dim * self.dim
        bounds = np.arange(n + 1)
        blocks = [sparse.csr_array((vals, cols, np.searchsorted(rows, bounds)), shape=(n, n))
                  for rows, cols, vals in self._blocks]
        return {
            False: sparse.vstack(blocks, format="csr"),
            True: sparse.vstack([b.conj().T.tocsr() for b in blocks], format="csr"),
        }

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
        """Matrix of L_t, dense: the transpose of G(t) = B_0 + sum_i gamma_i(t) B_i
        of the restriction to all d^2 coordinates (:meth:`restricted`), whose
        blocks act on rows from the right."""
        whole = self.restricted(np.arange(self.dim * self.dim))
        m = whole.generators(np.asarray(t, dtype=float))
        return SuperOperator(np.ascontiguousarray(m.T), dim_in=self.dim, dim_out=self.dim)

    def invariant_sets(self) -> np.ndarray:
        """The invariant set of each coordinate of vec(x), as a (d^2,) array
        of labels.

        Two coordinates share a set when an entry of a compiled block couples
        them, in either direction, and all populations (i, i) share one, so
        that the sets of a phase-covariant generator are its coherence
        orders whatever its rates (a union of invariant sets is invariant).
        An operator vanishing on a set keeps vanishing there under every L_t
        and, since the labels spread along the transposed pattern too, under
        every L_t^dag.
        The labels are the largest coordinate of each set, spread along the
        entries of the compiled blocks and of their transposes, with pointer
        jumping, until they settle; once per generator.
        """
        if self._sets is None:
            d, n = self.dim, self.dim * self.dim
            # the entries of every compiled block and of its transpose
            rows = np.concatenate([part for r, c, _ in self._blocks for part in (r, c)])
            cols = np.concatenate([part for r, c, _ in self._blocks for part in (c, r)])
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
        return not self._rated_terms


class _Restriction:
    """A generator on the coordinates ``index`` of vec(x), a union of its
    invariant sets, as (..., m) rows y.

    Each compiled block, L_0 and every rated D_i, is restricted to those
    coordinates once, by one scatter of the entries of its triple whose rows
    lie in the sets, as a dense m x m matrix B_0, B_i acting on rows from
    the right: y' = y G(t) with G(t) = B_0 + sum_i gamma_i(t) B_i, which
    ``generators`` gives as a stack at an array of times and ``apply(t, y)``
    multiplies onto (N, m) rows at one time t, or at an (N,) array of times,
    one per row.  ``adjoint_apply(t, y)`` multiplies the rows by G(t)^dag,
    the rows of L_t^dag, the same way: the blocks are conjugate-transposed
    once, on first use, and the rates are real.  It is exact because the
    sets are invariant under L_t^dag too
    (:meth:`LindbladGenerator.invariant_sets`).  ``coordinates`` gathers
    the rows from a (..., d, d) stack that vanishes off ``index``, and
    ``states`` scatters a (..., m) stack of them back into (..., d, d).
    ``transpose`` is the position of the coordinate of x_ji for each x_ij
    (the index of a Hermitian stack holds both), and ``populations`` that
    of each x_ii in level order (all populations share one set).
    ``populations_only`` says whether the coordinates are the d
    populations alone, as for a Fock-diagonal stack of a phase-insensitive
    bosonic generator, so that every state on them is diagonal.  The
    integrators take it for m <= max(d, 16), where one dense product costs
    less than the sparse one's dispatch, and so do the off-grid states.

    The dtype comes from the data.  A ``populations_only`` restriction
    whose kept entries all have a zero imaginary part, as every
    phase-insensitive bosonic generator's do, stores its blocks as
    float64; any other restriction stores them as complex128, including a
    population one whose complex jump operators left rounding-level
    imaginary parts.  ``coordinates`` gathers float64 rows where float64
    blocks meet states whose gathered entries have no imaginary part (every
    Fock-diagonal stack), and the rows as gathered otherwise; products with
    the blocks keep the rows' dtype, and ``states`` scatters rows into
    matrices of their own dtype.
    """

    def __init__(self, generator: LindbladGenerator, index: np.ndarray):
        self.dim, self.index = generator.dim, index
        d, n, m = self.dim, self.dim * self.dim, len(index)
        self._rated_terms = generator._rated_terms
        position = np.full(n, -1)
        position[index] = np.arange(m)
        row_of, col_of = np.divmod(index, d)
        self.transpose = position[col_of * d + row_of]
        self.populations = position[np.arange(d) * (d + 1)]
        # each block transposed, since the rows y (N, m) multiply it from the left
        blocks = np.zeros((len(generator._blocks), m, m), dtype=complex)
        for block, (rows, cols, vals) in zip(blocks, generator._blocks):
            kept = position[rows] >= 0  # the rows of the sets, whose entries lie in the sets too
            block[position[cols[kept]], position[rows[kept]]] = vals[kept]
        self._blocks = (np.ascontiguousarray(blocks.real)
                        if self.populations_only and not blocks.imag.any() else blocks)

    @property
    def time_independent(self) -> bool:
        return not self._rated_terms

    @cached_property
    def populations_only(self) -> bool:
        return np.array_equal(self.populations, np.arange(len(self.index)))

    def generators(self, times: np.ndarray) -> np.ndarray:
        """G(t) at every entry of an array of times, as a (..., m, m) stack."""
        out = np.broadcast_to(self._blocks[0], times.shape + self._blocks.shape[1:]).copy()
        for term, block in zip(self._rated_terms, self._blocks[1:]):
            out += term.rate_at(times)[..., None, None] * block
        return out

    @cached_property
    def _adjoint_blocks(self) -> np.ndarray:
        return np.ascontiguousarray(np.conj(np.swapaxes(self._blocks, -1, -2)))

    def _product(self, blocks: np.ndarray, t, y: np.ndarray) -> np.ndarray:
        # ndarray.dot: the same BLAS product as @ on these 2-d operands, at
        # about half the call cost for m <= 16; isinstance, not np.ndim,
        # which takes about 2 us on a float
        out = y.dot(blocks[0])
        per_row = isinstance(t, np.ndarray)
        for term, block in zip(self._rated_terms, blocks[1:]):
            rate = term.rate_at(t)[:, None] if per_row else term.rate_at(float(t))
            out += rate * y.dot(block)
        return out

    def apply(self, t, y: np.ndarray) -> np.ndarray:
        return self._product(self._blocks, t, y)

    def adjoint_apply(self, t, y: np.ndarray) -> np.ndarray:
        return self._product(self._adjoint_blocks, t, y)

    def coordinates(self, states: np.ndarray) -> np.ndarray:
        rows = states.reshape(states.shape[:-2] + (-1,))[..., self.index]
        if self._blocks.dtype == float and np.iscomplexobj(rows) and not rows.imag.any():
            return np.ascontiguousarray(rows.real)
        return rows

    def states(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape[:-1] + (self.dim * self.dim,), dtype=y.dtype)
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


def check_bosonic_rates(gamma_plus: float, gamma_minus: float, cutoff: int) -> None:
    """Both rates of a phase-insensitive bosonic generator are non-negative,
    and (gamma_+ + gamma_-) * cutoff, which bounds every entry of its
    compiled blocks, is finite."""
    if gamma_plus < 0 or gamma_minus < 0:
        raise ChannelError("bosonic rates must be non-negative")
    if not np.isfinite((float(gamma_plus) + float(gamma_minus)) * cutoff):
        raise ChannelError(f"bosonic rates {gamma_plus:g} and {gamma_minus:g} overflow the "
                           f"generator at cutoff {cutoff}")


def check_thermal_tail(mean_photons: float, cutoff: int) -> None:
    """A non-negative mean photon number whose thermal tail beyond the
    cutoff, (N/(N+1))^cutoff, stays within ``THERMAL_TAIL_ATOL`` (the vacuum
    has none)."""
    if mean_photons < 0:
        raise ChannelError("mean photon number must be non-negative")
    tail = (mean_photons / (mean_photons + 1.0))**cutoff if mean_photons > 0 else 0.0
    if tail > THERMAL_TAIL_ATOL:
        raise ChannelError(
            f"cutoff {cutoff} insufficient for N={mean_photons}: tail mass {tail:.3e}"
        )


def annihilation_operator(cutoff: int) -> np.ndarray:
    """Truncated field-mode annihilation operator, a|n> = sqrt(n)|n-1>."""
    check_cutoff(cutoff)
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)


def bosonic_generator(gamma_plus: float, gamma_minus: float, cutoff: int) -> LindbladGenerator:
    """Phase-insensitive single-mode generator gamma_+ L_+ + gamma_- L_-.

    L_+ raises with the creation operator, L_- lowers with the annihilation
    operator.  The truncation breaks [a, a^dag] = I on the top level, so the
    generator carries a tail guard: propagation is trusted only while the
    population of the top two levels stays below ``TAIL_GUARD_BOUND``.
    """
    a = annihilation_operator(cutoff)
    check_bosonic_rates(gamma_plus, gamma_minus, cutoff)
    jumps = [
        JumpTerm(ConstantCoefficient(float(gamma_plus)), dagger(a)),
        JumpTerm(ConstantCoefficient(float(gamma_minus)), a),
    ]
    return LindbladGenerator(cutoff, jumps=jumps,
                             tail_guard=TailGuard(levels=2, bound=TAIL_GUARD_BOUND))


def thermal_state(mean_photons: float, cutoff: int) -> DensityMatrix:
    """Geometric Fock-diagonal state with the given mean photon number.

    The truncated tail (N/(N+1))^cutoff must stay below ``THERMAL_TAIL_ATOL``;
    otherwise the cutoff is declared insufficient.  The retained weights are
    renormalized.
    """
    check_thermal_tail(mean_photons, cutoff)
    if mean_photons == 0:
        probs = np.zeros(cutoff)
        probs[0] = 1.0
        return DensityMatrix.diagonal(probs)
    ratio = mean_photons / (mean_photons + 1.0)
    probs = ratio ** np.arange(cutoff) / (mean_photons + 1.0)
    return DensityMatrix.diagonal(probs / probs.sum())
