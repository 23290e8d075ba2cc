"""Quantum channels in the Pauli transfer matrix (PTM) representation.

A channel on k qubits is its PTM: a real ``(4^k, 4^k)`` numpy array with
entries ``M[i, j] = Tr(P_i M(P_j)) / d`` in the normalized Pauli basis
``P_i / sqrt(d)``, where ``d = 2^k`` and the basis is ordered by base-4
digits (I, X, Y, Z) with qubit 0 as the most significant digit.  Channel
composition is ``@``, the adjoint (dual) is ``.T``, the tensor product is
``np.kron`` with qubit 0's factor first, trace preservation means the first
row is ``(1, 0, ..., 0)``, and unitality means the same for the first column.
Every function here that takes a PTM checks its shape (k <= 4).

A state is its real coordinate vector ``r_j = Tr(P_j rho) / sqrt(d)``, and
a measurement effect E likewise, so that ``Tr(E M(rho)) = e @ M @ r``; the
projector effect ``|b><b|`` has the same coordinates as the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .operators import PAULI_MATRICES, CLIFFORD_UNITARIES

_MAX_QUBITS = 4  # a PTM here is at most 256 x 256


def _check_n(n_qubits: int) -> int:
    if not 1 <= n_qubits <= _MAX_QUBITS:
        raise ValueError(f"dense channels support 1..{_MAX_QUBITS} qubits")
    return n_qubits


def _as_ptm(op) -> tuple:
    """``(op as a float array, d)``, after checking that ``op`` is the
    ``(4^k, 4^k)`` PTM of a channel on k <= 4 qubits."""
    mat = np.asarray(op, dtype=float)
    size = len(mat) if mat.ndim == 2 else 0
    k = (size.bit_length() - 1) // 2
    if mat.shape != (size, size) or size != 4 ** k:
        raise ValueError(f"a PTM is a (4^k, 4^k) matrix, not one of shape {mat.shape}")
    return mat, 2 ** _check_n(k)


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
        object.__setattr__(self, "probs", probs)
        m = self.n_qubits
        if m < 1 or 4 ** m - 1 != len(probs):
            raise ValueError("probs length must be 4^m - 1 for m qubits")
        if not all(-1e-12 <= p <= 1.0 + 1e-12 for p in probs):  # NaN fails too
            raise ValueError("probabilities must lie in [0, 1]")
        if sum(probs) > 1.0 + 1e-9:
            raise ValueError("probabilities must sum to at most 1")

    @property
    def n_qubits(self) -> int:
        """m, where ``probs`` has 4^m - 1 entries (checked on construction)."""
        return (len(self.probs) + 1).bit_length() // 2

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
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


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


def _ptm_of_kraus(*kraus: np.ndarray) -> np.ndarray:
    """PTM of rho -> sum_K K rho K^dag: M[i,j] = sum_K Tr(P_i K P_j K^dag) / d."""
    d = kraus[0].shape[0]
    basis = _basis_stack(d.bit_length() - 1)
    return sum(np.einsum("iab,jba->ij", basis, k @ basis @ k.conj().T).real / d
               for k in kraus)


def superop_of_unitary(unitary: np.ndarray) -> np.ndarray:
    """PTM of conjugation by a unitary: M[i,j] = Tr(P_i U P_j U^dag) / d."""
    return _ptm_of_kraus(np.asarray(unitary, dtype=complex))


def superop_of(params: ChannelParams, n_qubits: int) -> np.ndarray:
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
        return np.diag(diag)
    if isinstance(params, StochasticPauli):
        if params.n_qubits != n_qubits:
            raise ValueError("StochasticPauli qubit count mismatch")
        signs = _pauli_sign_table(n_qubits)
        return np.diag(signs @ params.full_probs())
    if isinstance(params, UnitaryError):
        if len(params.axis) != n_qubits:
            raise ValueError("axis length must equal n_qubits")
        axis = _basis_stack(n_qubits)[pauli_labels(n_qubits).index(params.axis)]
        unitary = (
            math.cos(params.theta / 2.0) * np.eye(d)
            - 1j * math.sin(params.theta / 2.0) * axis
        )
        return superop_of_unitary(unitary)
    if isinstance(params, AmplitudeDamping):
        gamma = params.gamma
        one = _ptm_of_kraus(
            np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
            np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
        )
        mat = one
        for _ in range(n_qubits - 1):
            mat = np.kron(mat, one)
        return mat
    raise TypeError(f"unknown channel params {params!r}")


def stochastic_pauli_tensor(a: StochasticPauli, b: StochasticPauli) -> StochasticPauli:
    """Tensor product of two independent stochastic Pauli channels."""
    pa = a.full_probs()
    pb = b.full_probs()
    full = np.kron(pa, pb)  # PTM order: first factor is the high digit
    return StochasticPauli(tuple(full[1:]))


def pi1(d: int) -> np.ndarray:
    """Projector onto the identity component (rank one)."""
    mat = np.zeros((d * d, d * d))
    mat[0, 0] = 1.0
    return mat


def pi2(d: int) -> np.ndarray:
    """Projector onto the traceless (non-identity Pauli) component."""
    diag = np.ones(d * d)
    diag[0] = 0.0
    return np.diag(diag)


def f_value(op: np.ndarray) -> float:
    """Depolarizing parameter f = Tr(Pi2 E) / (d^2 - 1)."""
    mat, d = _as_ptm(op)
    big_d = d ** 2 - 1
    return float((np.trace(mat) - mat[0, 0]) / big_d)


def process_fidelity(op: np.ndarray) -> float:
    """Entanglement fidelity to the identity: F = (1 + (d^2-1) f) / d^2."""
    d = _as_ptm(op)[1]
    return float((1.0 + (d ** 2 - 1) * f_value(op)) / d ** 2)


def unitarity(op: np.ndarray) -> float:
    """u = Tr(Pi2 E^dag Pi2 E) / (d^2 - 1): mean squared action on traceless part."""
    mat, d = _as_ptm(op)
    block = mat[1:, 1:]
    return float(np.sum(block * block) / (d ** 2 - 1))


@lru_cache(maxsize=None)
def single_qubit_clifford_group() -> np.ndarray:
    """(24, 4, 4) PTMs of the single-qubit Cliffords (a unitary 2-design)."""
    group = np.array([superop_of_unitary(u) for u in CLIFFORD_UNITARIES])
    group.flags.writeable = False
    return group


def twirl_over_group(op: np.ndarray) -> np.ndarray:
    """Average g^{-1} E g over the 24 single-qubit Cliffords (PTMs are
    orthogonal, so g^{-1} is g.T); E must act on one qubit."""
    mat, d = _as_ptm(op)
    if d != 2:
        raise ValueError("the Clifford twirl acts on one qubit")
    group = single_qubit_clifford_group()
    acc = np.zeros_like(mat)
    for g in group:
        acc += g.T @ mat @ g
    return acc / len(group)


def t_sequence(op: np.ndarray, op_inv: np.ndarray = None, length: int = 1) -> np.ndarray:
    """Iterated twirled composition T_1 = twirl(E), T_{l+1} = twirl(E_inv T_l E).

    For the single-qubit Clifford twirl (a 2-design) this collapses to
    Pi1 + f(E) v^{l-1} Pi2 with v = Tr(Pi2 E_inv Pi2 E) / (d^2 - 1);
    ``op_inv`` defaults to the dual ``op.T``.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    mat = _as_ptm(op)[0]
    inv = mat.T if op_inv is None else _as_ptm(op_inv)[0]
    t_mat = twirl_over_group(mat)
    for _ in range(length - 1):
        t_mat = twirl_over_group(inv @ t_mat @ mat)
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


def nonunital_split(op: np.ndarray) -> tuple:
    """Split E = Pi1 + E_n + E_u for a trace-preserving channel.

    Returns ``(E_n, E_u)`` where ``E_n = Pi2 E Pi1`` is the non-unital part
    (first column below the top entry) and ``E_u = Pi2 E Pi2`` the unital block.
    """
    mat, d = _as_ptm(op)
    size = d ** 2
    if not np.allclose(mat[0], pi1(d)[0], atol=1e-9):
        raise ValueError("channel is not trace preserving")
    e_n = np.zeros((size, size))
    e_n[1:, 0] = mat[1:, 0]
    e_u = np.zeros((size, size))
    e_u[1:, 1:] = mat[1:, 1:]
    return (e_n, e_u)


def inverse_half_channel(op: np.ndarray) -> np.ndarray:
    """The partner channel E' = Pi1 + E_n + E_u^T.

    E' keeps the non-unital part of E and transposes (adjoints) its unital
    block.  Under the 2-design twirl of ``t_sequence``, pairing E on forward
    gates with E' on inverted gates makes the sequence decay factor equal
    the unitarity of E.  The mirror circuits of this package twirl each
    qubit on its own, so their decay rate need not equal it: a coherent
    ``UnitaryError("XI", 0.4)`` paired with its E' decays at about 0.92
    at n = 2, while its unitarity is 1.
    """
    mat, e_u = nonunital_split(op)  # mat starts as E_n
    mat[0, 0] = 1.0
    mat[1:, 1:] = e_u[1:, 1:].T
    return mat


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
    ``|0><0| = (I + Z) / 2`` and ``|1><1| = (I - Z) / 2``.  These are also
    the coordinates of the projector effect |b><b|.
    """
    vec = np.ones(1)
    for q in range(n_qubits):
        sign = -1.0 if (bits >> q) & 1 else 1.0
        vec = np.multiply.outer(vec, np.array([1.0, 0.0, 0.0, sign]) / math.sqrt(2.0)).ravel()
    return vec


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
    def from_channel(cls, op: np.ndarray, state: np.ndarray,
                     effect: np.ndarray) -> "DecayLawParams":
        f = f_value(op)
        u = unitarity(op)
        if u < f * f - 1e-12:
            raise ValueError("unitarity below f^2: not a physical channel PTM")
        amplitude = float(effect[1:] @ state[1:])
        baseline = float(effect[0] * state[0])
        return cls(amplitude, baseline, f, u)
