"""Quantum channels and Lindblad generators.

A map is a plain (..., d_out^2, d_in^2) array, one matrix or a stack of
them, in the row-stacking convention vec(X) = X.reshape(-1), under which the
map X -> K X L has matrix kron(K, L.T); :func:`apply_superoperators` applies
it, :func:`choi_tensor` is the one home of the Choi layout and
:func:`trace_defects` of the trace defect.  A channel is carried in Kraus
form, and it acts through its map, derived once, read-only.  A generator's Hamiltonian
and jump operators are fixed d x d matrices, and only its rates depend on
time, so every generator is compiled once into d^2 x d^2 matrices in that
convention, each kept as the summed (rows, cols, values) numpy triple of its
entries: one for all constant parts and one dissipator per time-dependent
rate.  Its invariant sets, its dense restrictions and its dense map are
read from those triples.  The sparse matrices of the whole-space products,
and their conjugate transposes (the matrices of the adjoint map), are built
from them on the first such product, which is where ``scipy.sparse`` is
imported.  Nothing is rebuilt per time.
"""

from __future__ import annotations

import numbers
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
    "apply_superoperators",
    "choi_tensor",
    "trace_defects",
    "QuantumChannel",
    "is_unital",
    "is_sub_unital",
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
# Trace defect and Choi negativity still counted as CPTP.
CPTP_ATOL = 1e-8
# |eigenvalue| of N(I) - I still counted as unital.
UNITALITY_ATOL = 1e-9


class ChannelError(ValueError):
    """A map violates a structural precondition (dimensions, CP-ness, ...)."""


def apply_superoperators(matrices: np.ndarray, operators) -> np.ndarray:
    """Apply a map (d_out^2, d_in^2) or a stack of maps (T, d_out^2, d_in^2) to operators.

    One map takes an operator (d_in, d_in) or a stack (N, d_in, d_in) to
    (..., d_out, d_out).  A stack of maps takes operators (N, d_in, d_in)
    through every map, giving (T, N, d_out, d_out), and operators
    (T, N, d_in, d_in) row t through map t; other shapes raise :class:`ChannelError`.
    """
    x = as_matrix(operators)
    d_in = round(matrices.shape[-1] ** 0.5)
    if x.shape[-2:] != (d_in, d_in):
        raise ChannelError(f"input shape {x.shape} does not match dim_in {d_in}")
    out = x.reshape(x.shape[:-2] + (-1,)) @ np.swapaxes(matrices, -1, -2)
    d_out = round(out.shape[-1] ** 0.5)
    return out.reshape(out.shape[:-1] + (d_out, d_out))


def _dims(maps: np.ndarray) -> tuple[int, int]:
    """(d_out, d_in) of a map or a stack of maps (..., d_out^2, d_in^2)."""
    return round(maps.shape[-2] ** 0.5), round(maps.shape[-1] ** 0.5)


def choi_tensor(maps) -> np.ndarray:
    """The Choi tensors J[..., i, a, j, b] = <a| N(|i><j|) |b> of a map
    (d_out^2, d_in^2) or a stack of maps (..., d_out^2, d_in^2), as a strided
    (..., d_in, d_out, d_in, d_out) view of ``maps``.

    Reshaped to (..., d_in d_out, d_in d_out) it is the Choi matrix
    sum_ij |i><j| (x) N(|i><j|), which is PSD exactly when N is completely
    positive.  Entry [(a, b), (i, j)] of the map is <a| N(|i><j|) |b>.
    """
    maps = np.asarray(maps)
    d_out, d_in = _dims(maps)
    lead = maps.ndim - 2
    split = maps.reshape(maps.shape[:-2] + (d_out, d_out, d_in, d_in))
    return split.transpose(*range(lead), lead + 2, lead, lead + 3, lead + 1)


def trace_defects(maps) -> np.ndarray:
    """max_ij |Tr N(|i><j|) - delta_ij| of a map (d_out^2, d_in^2), or of
    every map of a stack (..., d_out^2, d_in^2) as an (...,) array: zero
    exactly when N preserves the trace.  Tr N(|i><j|) is the sum of the map's
    rows (a, a) in column (i, j)."""
    maps = np.asarray(maps)
    d_out, d_in = _dims(maps)
    traces = maps[..., np.arange(d_out) * (d_out + 1), :].sum(axis=-2)
    return np.abs(traces - np.eye(d_in).reshape(-1)).max(axis=-1)


def _preserves_trace(maps) -> np.ndarray:
    """Whether each map (:func:`trace_defects`) has its trace defect within
    ``CPTP_ATOL``; a map with a NaN entry has not."""
    return trace_defects(maps) <= CPTP_ATOL


def _choi_minima(maps) -> np.ndarray:
    """The least eigenvalue of the Hermitian part of each map's Choi matrix
    (:func:`choi_tensor`), from one stacked eigvalsh."""
    choi = choi_tensor(maps)
    k = choi.shape[-2] * choi.shape[-1]  # d_in d_out
    return np.linalg.eigvalsh(hermitian_part(choi.reshape(choi.shape[:-4] + (k, k))))[..., 0]


class QuantumChannel:
    """Completely positive map in Kraus form.

    The Kraus operators are held as ``kraus``, a tuple of read-only
    (d_out, d_in) arrays, and the channel's map S = sum_i kron(K_i, conj(K_i))
    is built from them once, read-only: ``apply`` is a product with S,
    ``adjoint_apply`` one with S^dag, and ``trace_preserving`` says whether
    :func:`trace_defects` of S is within ``CPTP_ATOL``.  Maps that do not
    preserve the trace (e.g. adjoints of non-unital channels) are still
    representable.  Channels are immutable after construction.
    """

    def __init__(self, kraus):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ChannelError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise ChannelError("Kraus operators must share a common 2-D shape")
        stack = np.array(ops)
        stack.setflags(write=False)
        self.kraus = tuple(stack)
        self.dim_out, self.dim_in = shape
        # entry [(a, c), (b, d)] = sum_i K_i[a, b] conj(K_i[c, d])
        self._superop = np.einsum("nab,ncd->acbd", stack, stack.conj()).reshape(
            self.dim_out**2, self.dim_in**2)
        self._superop.setflags(write=False)
        self.trace_preserving = bool(_preserves_trace(self._superop))

    def __repr__(self) -> str:
        return (f"QuantumChannel(dim_in={self.dim_in}, dim_out={self.dim_out}, "
                f"n_kraus={len(self.kraus)}, tp={self.trace_preserving})")

    def apply(self, rho) -> np.ndarray:
        return apply_superoperators(self._superop, rho)

    def adjoint_apply(self, x) -> np.ndarray:
        """sum_i K_i^dag x K_i: the adjoint map, whose matrix is S^dag."""
        return apply_superoperators(dagger(self._superop), x)

    def superoperator(self) -> np.ndarray:
        """The channel's map, sum_i kron(K_i, conj(K_i)), as a read-only
        (d_out^2, d_in^2) array."""
        return self._superop


def _map_of(channel) -> np.ndarray:
    """The map of a :class:`QuantumChannel`, or maps given as an array."""
    return channel.superoperator() if isinstance(channel, QuantumChannel) else np.asarray(channel)


def _unitality_deviation(channel) -> np.ndarray:
    """The eigenvalues of N(I) - I, ascending, per map (:func:`_map_of`)."""
    m = _map_of(channel)
    image = apply_superoperators(m, np.eye(_dims(m)[1], dtype=complex))
    return np.linalg.eigvalsh(hermitian_part(image - np.eye(image.shape[-1])))


def is_unital(channel: QuantumChannel) -> bool:
    """N(I) = I, within ``UNITALITY_ATOL`` on every eigenvalue of N(I) - I."""
    return bool(np.max(np.abs(_unitality_deviation(channel))) <= UNITALITY_ATOL)


def is_sub_unital(channel):
    """N(I) <= I, within ``UNITALITY_ATOL`` on the largest eigenvalue of
    N(I) - I; a unital channel is sub-unital.  One per map of a stack."""
    sub = _unitality_deviation(channel)[..., -1] <= UNITALITY_ATOL
    return bool(sub) if sub.ndim == 0 else sub


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
# times whole.
_ARRAY_COEFFICIENTS = (CosineSquaredCoefficient, ExponentialCoefficient)


def _as_coefficient(rate):
    if isinstance(rate, numbers.Real):
        return ConstantCoefficient(float(rate))
    if callable(rate):
        return rate
    raise ChannelError(f"rate must be a number or callable, got {type(rate)!r}")


@dataclass(frozen=True)
class JumpTerm:
    """One dissipator: rate gamma(t) and jump operator A(t).

    The rate may be temporarily negative; only the overall evolution has to
    stay completely positive.  A plain-number rate is held as its
    :class:`ConstantCoefficient`.
    """

    rate: object
    operator: object

    def __post_init__(self):
        object.__setattr__(self, "rate", _as_coefficient(self.rate))

    def rate_at(self, t):
        """gamma(t): a float for one time, an array of the same shape for an
        array of times.  A constant fills the array with its value, the
        coefficient classes take it whole, and any other callable is called
        once per time, here only."""
        if not isinstance(t, np.ndarray):
            return float(self.rate(t))
        if isinstance(self.rate, ConstantCoefficient):
            return np.full(t.shape, float(self.rate.value))
        if isinstance(self.rate, _ARRAY_COEFFICIENTS):
            return self.rate(t)
        return np.array([float(self.rate(float(s))) for s in t.ravel()]).reshape(t.shape)


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
    into dense matrices and returns the array L_0 + sum_i gamma_i(t) D_i.
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
    trajectories it returns, and every intermediate map M_{t,s} on the one
    kept restriction to all d^2 coordinates.
    """

    def __init__(self, dim: int, hamiltonian=None, jumps=(), tail_guard: TailGuard | None = None):
        self.dim = int(dim)
        self.hamiltonian = hamiltonian
        self.jumps = tuple(term if isinstance(term, JumpTerm) else JumpTerm(*term)
                           for term in jumps)
        self.tail_guard = tail_guard
        constant = [] if hamiltonian is None else _sandwich_entries(self.dim, _commutator(
            require_hermitian(self._checked(hamiltonian, "hamiltonian"), name="hamiltonian")),
            "hamiltonian")
        rated, dissipators = [], []
        for i, term in enumerate(self.jumps):
            a, name = self._checked(term.operator, "jump operator"), f"jump {i}"
            if isinstance(term.rate, ConstantCoefficient):
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

    def superoperator(self, t: float) -> np.ndarray:
        """The map of L_t as a dense C-contiguous (d^2, d^2) array: the
        transpose of G(t) = B_0 + sum_i gamma_i(t) B_i of the restriction to
        all d^2 coordinates (:meth:`restricted`), whose blocks act on rows
        from the right."""
        return np.ascontiguousarray(self._whole.generators(np.asarray(t, dtype=float)).T)

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
        its invariant sets, through dense restrictions of its compiled blocks;
        all d^2 coordinates in order give the one kept whole-space restriction."""
        index = np.asarray(index)
        whole = len(index) == self.dim ** 2 and np.array_equal(index, np.arange(len(index)))
        return self._whole if whole else _Restriction(self, index)

    @cached_property
    def _whole(self) -> _Restriction:
        return _Restriction(self, np.arange(self.dim * self.dim))

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
