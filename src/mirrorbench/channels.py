"""Quantum channels in the Pauli transfer matrix (PTM) representation.

A channel on n qubits is a real (4^n x 4^n) matrix with entries
``M[i, j] = Tr(P_i M(P_j)) / d`` in the normalized Pauli basis
``P_i / sqrt(d)``, where ``d = 2^n`` and the basis is ordered by base-4
digits (I, X, Y, Z) with qubit 0 as the most significant digit.  Channel
composition is matrix multiplication, the adjoint (dual) is the transpose,
trace preservation means the first row is ``(1, 0, ..., 0)``, and unitality
means the same for the first column.

States and measurement effects are real coordinate vectors
``r_j = Tr(P_j rho) / sqrt(d)`` and ``e_j = Tr(P_j E) / sqrt(d)``, so that
``Tr(E M(rho)) = e @ M @ r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .operators import PAULI_MATRICES, CLIFFORD_UNITARIES

_MAX_QUBITS = 4  # a SuperOp holds at most a 256 x 256 PTM

_ATOL = 1e-10


def _check_n(n_qubits: int) -> int:
    if not 1 <= n_qubits <= _MAX_QUBITS:
        raise ValueError(f"dense channels support 1..{_MAX_QUBITS} qubits")
    return n_qubits


@lru_cache(maxsize=None)
def pauli_labels(n_qubits: int) -> tuple:
    """Basis labels in PTM order, e.g. ('II', 'IX', ..., 'ZZ') for n=2."""
    labels = [""]
    for _ in range(n_qubits):
        labels = [a + b for a in labels for b in "IXYZ"]
    return tuple(labels)


@lru_cache(maxsize=None)
def _basis_stack(n_qubits: int) -> np.ndarray:
    """(4^n, d, d) stack of unnormalized Pauli matrices in PTM order."""
    _check_n(n_qubits)
    mats = []
    for label in pauli_labels(n_qubits):
        m = np.array([[1.0 + 0j]])
        for ch in label:
            m = np.kron(m, PAULI_MATRICES[ch])
        mats.append(m)
    stack = np.array(mats)
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True)
class SuperOp:
    """A channel as a real PTM acting on n <= 4 qubits.

    Args:
        d: Hilbert space dimension 2^n.
        mat: real (d^2, d^2) transfer matrix.
    """

    d: int
    mat: np.ndarray

    def __post_init__(self):
        n = self.d.bit_length() - 1
        if self.d != 2 ** n:
            raise ValueError("d must be a power of two")
        _check_n(n)
        mat = np.asarray(self.mat, dtype=float)
        if mat.shape != (self.d ** 2, self.d ** 2):
            raise ValueError("PTM shape mismatch")
        object.__setattr__(self, "mat", mat)

    @property
    def n_qubits(self) -> int:
        return self.d.bit_length() - 1

    @classmethod
    def identity(cls, d: int) -> "SuperOp":
        return cls(d, np.eye(d * d))

    def __matmul__(self, other: "SuperOp") -> "SuperOp":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return SuperOp(self.d, self.mat @ other.mat)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.mat @ vec

    def is_trace_preserving(self, atol: float = _ATOL) -> bool:
        row = np.zeros(self.d ** 2)
        row[0] = 1.0
        return bool(np.allclose(self.mat[0], row, atol=atol))

    def is_unital(self, atol: float = _ATOL) -> bool:
        col = np.zeros(self.d ** 2)
        col[0] = 1.0
        return bool(np.allclose(self.mat[:, 0], col, atol=atol))


# ---------------------------------------------------------------------------
# Channel parameter families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Depolarizing:
    """Uniform depolarizing: rho -> (1-p) rho + p Tr(rho) I / d."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")


@dataclass(frozen=True)
class StochasticPauli:
    """Random Pauli applied with fixed probabilities.

    ``probs`` lists the non-identity Paulis in PTM order (X, Y, Z for one
    qubit; IX, IY, ..., ZZ for two); the identity gets the remainder.
    """

    probs: tuple

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        m = 1
        while 4 ** m - 1 < len(probs):
            m += 1
        if 4 ** m - 1 != len(probs):
            raise ValueError("probs length must be 4^m - 1 for m qubits")
        if any(p < -1e-12 or p > 1.0 + 1e-12 for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if sum(probs) > 1.0 + 1e-9:
            raise ValueError("probabilities must sum to at most 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n_qubits(self) -> int:
        m = 1
        while 4 ** m - 1 != len(self.probs):
            m += 1
        return m

    def full_probs(self) -> np.ndarray:
        """All 4^m probabilities in PTM order, identity first."""
        rest = np.asarray(self.probs, dtype=float)
        return np.concatenate(([1.0 - rest.sum()], rest))


@dataclass(frozen=True)
class UnitaryError:
    """Coherent rotation exp(-1j * theta/2 * P_axis) about a Pauli axis."""

    axis: str
    theta: float

    def __post_init__(self):
        if not self.axis or any(ch not in "IXYZ" for ch in self.axis):
            raise ValueError("axis must be a Pauli label like 'Z' or 'ZZ'")


@dataclass(frozen=True)
class AmplitudeDamping:
    """Per-qubit amplitude damping toward |0> with decay probability gamma."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")


ChannelParams = Union[Depolarizing, StochasticPauli, UnitaryError, AmplitudeDamping]


def _pauli_sign_table(n_qubits: int) -> np.ndarray:
    """signs[i, k] = +1 if P_i and P_k commute else -1 (PTM index order)."""
    size = 4 ** n_qubits
    idx = np.arange(size)
    digits = np.stack(
        [(idx // 4 ** (n_qubits - 1 - q)) % 4 for q in range(n_qubits)], axis=1
    )
    # digit -> (x, z): I=(0,0), X=(1,0), Y=(1,1), Z=(0,1)
    xs = ((digits == 1) | (digits == 2)).astype(int)
    zs = ((digits == 2) | (digits == 3)).astype(int)
    sym = (xs[:, None, :] * zs[None, :, :] + zs[:, None, :] * xs[None, :, :]).sum(axis=2)
    return np.where(sym % 2 == 0, 1.0, -1.0)


def superop_of_unitary(unitary: np.ndarray) -> SuperOp:
    """PTM of conjugation by a unitary: M[i,j] = Tr(P_i U P_j U^dag) / d."""
    unitary = np.asarray(unitary, dtype=complex)
    d = unitary.shape[0]
    n = d.bit_length() - 1
    _check_n(n)
    basis = _basis_stack(n)
    moved = unitary @ basis @ unitary.conj().T
    mat = np.einsum("iab,jba->ij", basis, moved).real / d
    return SuperOp(d, mat)


def _amp_damp_ptm_1q(gamma: float) -> np.ndarray:
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    basis = _basis_stack(1)
    mat = np.zeros((4, 4))
    for kraus in (k0, k1):
        moved = kraus @ basis @ kraus.conj().T
        mat += np.einsum("iab,jba->ij", basis, moved).real / 2.0
    return mat


def superop_of(params: ChannelParams, n_qubits: int) -> SuperOp:
    """Build the PTM of a parameterized channel on ``n_qubits`` qubits.

    Depolarizing and StochasticPauli act on the full register; UnitaryError
    rotates about the given n-qubit Pauli axis; AmplitudeDamping applies the
    one-qubit damping channel to every qubit independently.
    """
    _check_n(n_qubits)
    d = 2 ** n_qubits
    if isinstance(params, Depolarizing):
        diag = np.full(d * d, 1.0 - params.p)
        diag[0] = 1.0
        return SuperOp(d, np.diag(diag))
    if isinstance(params, StochasticPauli):
        if params.n_qubits != n_qubits:
            raise ValueError("StochasticPauli qubit count mismatch")
        signs = _pauli_sign_table(n_qubits)
        diag = signs @ params.full_probs()
        return SuperOp(d, np.diag(diag))
    if isinstance(params, UnitaryError):
        if len(params.axis) != n_qubits:
            raise ValueError("axis length must equal n_qubits")
        axis = np.array([[1.0 + 0j]])
        for ch in params.axis:
            axis = np.kron(axis, PAULI_MATRICES[ch])
        unitary = (
            math.cos(params.theta / 2.0) * np.eye(d)
            - 1j * math.sin(params.theta / 2.0) * axis
        )
        return SuperOp(d, superop_of_unitary(unitary).mat)
    if isinstance(params, AmplitudeDamping):
        one = _amp_damp_ptm_1q(params.gamma)
        mat = one
        for _ in range(n_qubits - 1):
            mat = np.kron(mat, one)
        return SuperOp(d, mat)
    raise TypeError(f"unknown channel params {params!r}")


def stochastic_pauli_tensor(a: StochasticPauli, b: StochasticPauli) -> StochasticPauli:
    """Tensor product of two independent stochastic Pauli channels."""
    pa = a.full_probs()
    pb = b.full_probs()
    full = np.kron(pa, pb)  # PTM order: first factor is the high digit
    return StochasticPauli(tuple(full[1:]))


def tensor(ops: Sequence[SuperOp]) -> SuperOp:
    """Tensor product of channels; the first factor is qubit 0 (high digits)."""
    mat = np.array([[1.0]])
    d = 1
    for op in ops:
        mat = np.kron(mat, op.mat)
        d *= op.d
    return SuperOp(d, mat)


def dual(op: SuperOp) -> SuperOp:
    """Adjoint channel: the PTM transpose."""
    return SuperOp(op.d, op.mat.T.copy())


def pi1(d: int) -> SuperOp:
    """Projector onto the identity component (rank one)."""
    mat = np.zeros((d * d, d * d))
    mat[0, 0] = 1.0
    return SuperOp(d, mat)


def pi2(d: int) -> SuperOp:
    """Projector onto the traceless (non-identity Pauli) component."""
    diag = np.ones(d * d)
    diag[0] = 0.0
    return SuperOp(d, np.diag(diag))


def f_value(op: SuperOp) -> float:
    """Depolarizing parameter f = Tr(Pi2 E) / (d^2 - 1)."""
    big_d = op.d ** 2 - 1
    return float((np.trace(op.mat) - op.mat[0, 0]) / big_d)


def process_fidelity(op: SuperOp) -> float:
    """Entanglement fidelity to the identity: F = (1 + (d^2-1) f) / d^2."""
    big_d = op.d ** 2 - 1
    return float((1.0 + big_d * f_value(op)) / op.d ** 2)


def unitarity(op: SuperOp) -> float:
    """u = Tr(Pi2 E^dag Pi2 E) / (d^2 - 1): mean squared action on traceless part."""
    big_d = op.d ** 2 - 1
    block = op.mat[1:, 1:]
    return float(np.sum(block * block) / big_d)


def twirl_over_group(op: SuperOp, group: Sequence[SuperOp]) -> SuperOp:
    """Average g^{-1} E g over a finite unitary group (PTMs are orthogonal)."""
    if not group:
        raise ValueError("empty group")
    acc = np.zeros_like(op.mat)
    for g in group:
        if g.d != op.d:
            raise ValueError("dimension mismatch in group element")
        acc += g.mat.T @ op.mat @ g.mat
    return SuperOp(op.d, acc / len(group))


@lru_cache(maxsize=None)
def single_qubit_clifford_group() -> tuple:
    """PTMs of the 24 single-qubit Cliffords (a unitary 2-design)."""
    return tuple(superop_of_unitary(CLIFFORD_UNITARIES[i]) for i in range(24))


def t_sequence(op: SuperOp, op_inv: SuperOp = None, group: Sequence[SuperOp] = None,
               length: int = 1) -> SuperOp:
    """Iterated twirled composition T_1 = twirl(E), T_{l+1} = twirl(E_inv T_l E).

    For a 2-design twirl this collapses to Pi1 + f(E) v^{l-1} Pi2 with
    v = Tr(Pi2 E_inv Pi2 E) / (d^2 - 1); ``op_inv`` defaults to the dual.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if op_inv is None:
        op_inv = dual(op)
    if group is None:
        if op.d != 2:
            raise ValueError("a twirling group is required for d > 2")
        group = single_qubit_clifford_group()
    t_mat = twirl_over_group(op, group)
    for _ in range(length - 1):
        t_mat = twirl_over_group(SuperOp(op.d, op_inv.mat @ t_mat.mat @ op.mat), group)
    return t_mat


def fidelity_bounds(u: float, d: int) -> tuple:
    """Fidelity window implied by unitarity for stochastic Pauli channels.

    Returns ``(lower, upper) = ((1 + D u) / d^2, (1 + D sqrt(u)) / d^2)`` with
    ``D = d^2 - 1``.  The upper bound is attained by the depolarizing channel
    (equal PTM diagonal); the bounds are not claimed for non-Pauli channels.
    """
    if not -1e-12 <= u <= 1.0 + 1e-12:
        raise ValueError("u must be in [0, 1]")
    u = min(max(u, 0.0), 1.0)
    big_d = d * d - 1
    lower = (1.0 + big_d * u) / d ** 2
    upper = (1.0 + big_d * math.sqrt(u)) / d ** 2
    return (lower, upper)


def nonunital_split(op: SuperOp) -> tuple:
    """Split E = Pi1 + E_n + E_u for a trace-preserving channel.

    Returns ``(E_n, E_u)`` where ``E_n = Pi2 E Pi1`` is the non-unital part
    (first column below the top entry) and ``E_u = Pi2 E Pi2`` the unital block.
    """
    if not op.is_trace_preserving(atol=1e-9):
        raise ValueError("channel is not trace preserving")
    size = op.d ** 2
    e_n = np.zeros((size, size))
    e_n[1:, 0] = op.mat[1:, 0]
    e_u = np.zeros((size, size))
    e_u[1:, 1:] = op.mat[1:, 1:]
    return (SuperOp(op.d, e_n), SuperOp(op.d, e_u))


def inverse_half_channel(op: SuperOp) -> SuperOp:
    """The partner channel E' = Pi1 + E_n + E_u^T.

    E' keeps the non-unital part of E and transposes (adjoints) its unital
    block.  Under the 2-design twirl of ``t_sequence``, pairing E on forward
    gates with E' on inverted gates makes the sequence decay factor equal
    the unitarity of E.  The mirror circuits of this package twirl each
    qubit on its own, so their decay rate need not equal it: a coherent
    ``UnitaryError("XI", 0.4)`` paired with its E' decays at about 0.92
    at n = 2, while its unitarity is 1.
    """
    e_n, e_u = nonunital_split(op)
    size = op.d ** 2
    mat = np.zeros((size, size))
    mat[0, 0] = 1.0
    mat[1:, 0] = e_n.mat[1:, 0]
    mat[1:, 1:] = e_u.mat[1:, 1:].T
    return SuperOp(op.d, mat)


def depolarizing_tensor_unitarity(p: float, n_pairs: int) -> float:
    """Unitarity of N independent two-qubit depolarizing channels.

    Each factor acts on its own qubit pair as
    ``rho -> (1-p) rho + p Tr(rho) I/4``; the tensor channel's PTM diagonal
    entry for a Pauli hitting ``w`` of the N pairs non-trivially is
    ``(1-p)^w``, and 15^w C(N, w) Paulis do so, giving

        u = sum_{w=1}^{N} 15^w C(N, w) (1-p)^{2w} / (16^N - 1).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    total = sum(15 ** w * math.comb(n_pairs, w) * (1.0 - p) ** (2 * w)
                for w in range(1, n_pairs + 1))
    return total / (16 ** n_pairs - 1)


def random_stochastic_pauli(rng: np.random.Generator, n_qubits: int = 1,
                            identity_floor: float = 0.5) -> StochasticPauli:
    """Random stochastic Pauli channel with identity probability >= the floor."""
    size = 4 ** n_qubits
    weights = rng.dirichlet(np.ones(size))
    full = (1.0 - identity_floor) * weights
    full[0] += identity_floor
    return StochasticPauli(tuple(full[1:]))


# ---------------------------------------------------------------------------
# States, effects and the decay law
# ---------------------------------------------------------------------------


def computational_state_vector(n_qubits: int, bits: int = 0) -> np.ndarray:
    """PTM coordinates of |b><b| for the basis state with bit b_j at qubit j.

    A product over qubits of ``(1, 0, 0, +-1) / sqrt(2)``, since
    ``|0><0| = (I + Z) / 2`` and ``|1><1| = (I - Z) / 2``.
    """
    vec = np.ones(1)
    for q in range(n_qubits):
        sign = -1.0 if (bits >> q) & 1 else 1.0
        vec = np.kron(vec, np.array([1.0, 0.0, 0.0, sign]) / math.sqrt(2.0))
    return vec


def computational_effect_vector(n_qubits: int, bits: int = 0) -> np.ndarray:
    """PTM coordinates of the projector effect |b><b| (same as the state)."""
    return computational_state_vector(n_qubits, bits)


@dataclass(frozen=True)
class DecayLawParams:
    """Parameters of the mirror survival law p(L) = A f u^{L-1} + B."""

    amplitude: float      # A, the SPAM overlap on the traceless component
    baseline: float       # B, the SPAM overlap on the identity component
    f: float              # first-layer depolarizing parameter
    u: float              # per-layer decay factor (unitarity of the layer channel)

    def predict(self, length: int) -> float:
        if length < 1:
            raise ValueError("length must be >= 1")
        return self.amplitude * self.f * self.u ** (length - 1) + self.baseline

    @classmethod
    def from_channel(cls, op: SuperOp, state: np.ndarray,
                     effect: np.ndarray) -> "DecayLawParams":
        f = f_value(op)
        u = unitarity(op)
        if u < f * f - 1e-12:
            raise ValueError("unitarity below f^2: not a physical channel PTM")
        amplitude = float(effect[1:] @ state[1:])
        baseline = float(effect[0] * state[0])
        return cls(amplitude, baseline, f, u)
