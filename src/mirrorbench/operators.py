"""Exact Pauli and single-qubit Clifford algebra for mirror circuits.

Conventions used throughout the package:

- An n-qubit Pauli is stored in the canonical form ``phase * X^x * Z^z`` where
  ``x`` and ``z`` are integer bitmasks (bit ``j`` belongs to qubit ``j``) and
  ``phase`` is one of ``{1, -1, 1j, -1j}``.  ``Y = 1j * X * Z``, so the
  operator usually written ``+Y`` has ``phase == 1j`` in canonical form.
- Qubit 0 is the leftmost tensor factor: ``to_matrix`` returns
  ``phase * kron(F_0, F_1, ..., F_{n-1})`` and computational basis index
  ``sum(b_j * 2**(n-1-j))`` for bits ``b_j``.
- The native two-qubit entangler is ``UZZ = exp(-1j * pi/4 * Z (x) Z)``.
- A single-qubit Clifford is its action on Paulis: the signed images of the
  letters X, Z and Y (Dehaene & De Moor, PRA 68, 042318).  The 24 of them
  are enumerated once by breadth-first search over H and S acting on those
  images, starting from the identity; no matrix is classified.  Index 0 is
  the identity; composition, inversion and the Pauli elements are lookups
  in that one letter table, and the unitaries ride along as products of
  each generator word.
- ``ZObservables`` carries the images of every Z_q through a circuit in one
  bit-packed pass.  It is the single Clifford-propagation path behind both
  the mirror check of compiled circuits and the simulator's fault masks.
  Its gate rules, ``_letter_step`` and ``_uzz_step``, also run on numpy
  arrays, where ``analysis`` uses them for the frame potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

_I2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_S2 = np.array([[1, 0], [0, 1j]], dtype=complex)

PAULI_MATRICES = {"I": _I2, "X": _X2, "Y": _Y2, "Z": _Z2}

# exp(-1j*pi/4 * kron(Z, Z)) is diagonal; exact entries.
UZZ_MATRIX = np.diag(np.exp(-1j * np.pi / 4.0 * np.array([1.0, -1.0, -1.0, 1.0])))
UZZ_MATRIX.flags.writeable = False


def _canon_phase(value: complex) -> complex:
    """Snap a product of exact phase units back onto {1, -1, 1j, -1j}."""
    re = round(value.real)
    im = round(value.imag)
    cand = complex(re, im)
    if abs(value - cand) > 1e-9 or (re, im) not in {(1, 0), (-1, 0), (0, 1), (0, -1)}:
        raise ValueError(f"phase {value!r} is not a fourth root of unity")
    return _PHASES[{(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}[(re, im)]]


@dataclass(frozen=True)
class PauliOperator:
    """An n-qubit Pauli ``phase * X^x * Z^z`` with integer bitmasks.

    Args:
        n_qubits: number of qubits n >= 1.
        x: X-part bitmask, bit j for qubit j.
        z: Z-part bitmask.
        phase: one of 1, -1, 1j, -1j (canonical form; note +Y has phase 1j).
    """

    n_qubits: int
    x: int = 0
    z: int = 0
    phase: complex = 1 + 0j

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        mask = (1 << self.n_qubits) - 1
        if not 0 <= self.x <= mask or not 0 <= self.z <= mask:
            raise ValueError("bitmask out of range for n_qubits")
        object.__setattr__(self, "phase", _canon_phase(self.phase))

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliOperator":
        return cls(n_qubits)

    @classmethod
    def from_label(cls, label: str) -> "PauliOperator":
        """Parse labels like ``"XIZ"``, ``"-Y"``, ``"+iXZ"``, ``"-iYY"``."""
        body = label
        phase = 1 + 0j
        for prefix, value in (("+i", 1j), ("-i", -1j), ("+", 1 + 0j), ("-", -1 + 0j)):
            if body.startswith(prefix):
                phase = value
                body = body[len(prefix):]
                break
        if not body or any(ch not in "IXYZ" for ch in body):
            raise ValueError(f"bad Pauli label {label!r}")
        x = z = 0
        for j, ch in enumerate(body):
            if ch in "XY":
                x |= 1 << j
            if ch in "ZY":
                z |= 1 << j
            if ch == "Y":
                phase *= 1j
        return cls(len(body), x, z, phase)

    def to_label(self) -> str:
        """Inverse of :meth:`from_label`; always carries an explicit sign."""
        letters = []
        phase = self.phase
        for j in range(self.n_qubits):
            xb = (self.x >> j) & 1
            zb = (self.z >> j) & 1
            letters.append("IXZY"[xb + 2 * zb])
            if xb and zb:
                phase *= -1j  # pull the i out of Y = i X Z
        prefix = {1 + 0j: "+", -1 + 0j: "-", 1j: "+i", -1j: "-i"}[_canon_phase(phase)]
        return prefix + "".join(letters)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def is_identity(self, up_to_phase: bool = False) -> bool:
        if self.x or self.z:
            return False
        return up_to_phase or self.phase == 1

    def commutes_with(self, other: "PauliOperator") -> bool:
        sym = (self.x & other.z).bit_count() + (self.z & other.x).bit_count()
        return sym % 2 == 0

    def adjoint(self) -> "PauliOperator":
        sign = -1 if (self.x & self.z).bit_count() % 2 else 1
        return PauliOperator(self.n_qubits, self.x, self.z, sign * self.phase.conjugate())

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return pauli_multiply(self, other)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix; qubit 0 is the leftmost kron factor. n <= 10."""
        if self.n_qubits > 10:
            raise ValueError("to_matrix limited to n <= 10")
        out = np.array([[self.phase]])
        for j in range(self.n_qubits):
            fac = _I2
            if (self.x >> j) & 1:
                fac = fac @ _X2
            if (self.z >> j) & 1:
                fac = fac @ _Z2
            out = np.kron(out, fac)
        return out

    def __repr__(self) -> str:
        return f"PauliOperator({self.to_label()!r})"


def pauli_multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact product of two Paulis, including the phase.

    Moving ``X^{q.x}`` through ``Z^{p.z}`` contributes ``(-1)^{|p.z & q.x|}``.
    """
    if p.n_qubits != q.n_qubits:
        raise ValueError("qubit count mismatch")
    sign = -1 if (p.z & q.x).bit_count() % 2 else 1
    return PauliOperator(p.n_qubits, p.x ^ q.x, p.z ^ q.z, sign * p.phase * q.phase)


def sample_pauli(rng: np.random.Generator, n_qubits: int) -> PauliOperator:
    """Uniform Hermitian Pauli on n qubits (4^n outcomes, phase-free)."""
    codes = rng.integers(0, 4, size=n_qubits)
    x = z = 0
    phase = 1 + 0j
    for j, c in enumerate(codes):
        if c in (1, 2):
            x |= 1 << j
        if c in (2, 3):
            z |= 1 << j
        if c == 2:
            phase *= 1j
    return PauliOperator(n_qubits, x, z, phase)


# ---------------------------------------------------------------------------
# Single-qubit Clifford group
# ---------------------------------------------------------------------------


# A signed one-qubit Pauli "letter" is ``(x, z, minus)`` in Hermitian form:
# X = (1, 0), Z = (0, 1), Y = (1, 1).  A single-qubit Clifford C is stored as
# its letter images: the images C P C^dagger of P = X, Z, Y, in that order.
_IDENTITY_IMAGES = ((1, 0, 0), (0, 1, 0), (1, 1, 0))
_GENERATORS = (
    ("h", _H2, ((0, 1, 0), (1, 0, 0), (1, 1, 1))),  # X -> Z, Z -> X, Y -> -Y
    ("s", _S2, ((1, 1, 0), (0, 1, 0), (1, 0, 1))),  # X -> Y, Z -> Z, Y -> -X
)


def _after(outer: tuple, inner: tuple) -> tuple:
    """Letter images of the Clifford ``outer`` applied after ``inner``."""
    images = []
    for x, z, minus in inner:
        to_x, to_z, flip = outer[x + 2 * z - 1]
        images.append((to_x, to_z, minus ^ flip))
    return tuple(images)


def _build_clifford_table():
    """Enumerate the group by breadth-first search over H and S.

    Elements are told apart by their letter images, so index 0 is the
    identity and each unitary is the product of its generator word.
    """
    records = [((), np.eye(2, dtype=complex), _IDENTITY_IMAGES)]
    seen = {_IDENTITY_IMAGES: 0}
    for word, mat, images in records:  # grows while it is walked: a queue
        for name, gen, gen_images in _GENERATORS:
            new_images = _after(gen_images, images)
            if new_images not in seen:
                seen[new_images] = len(records)
                # time order: gen applied after word
                records.append((word + (name,), gen @ mat, new_images))
    if len(records) != 24:
        raise RuntimeError(f"Clifford enumeration found {len(records)} elements")
    words, mats, letter_images = zip(*records)
    unitaries = np.array(mats)
    unitaries.flags.writeable = False

    compose = np.array([[seen[_after(a, b)] for b in letter_images]
                        for a in letter_images], dtype=np.int8)
    inverse = np.argmax(compose == 0, axis=1).astype(np.int8)
    # Pauli (px, pz) flips the sign of each letter it anticommutes with
    pauli_index = tuple(
        seen[tuple((x, z, (px & z) ^ (pz & x)) for x, z, _ in _IDENTITY_IMAGES)]
        for px, pz in ((0, 0), (1, 0), (1, 1), (0, 1))  # I, X, Y, Z
    )
    return words, unitaries, letter_images, compose, inverse, pauli_index


(_CLIFF_WORDS, CLIFFORD_UNITARIES, _LETTER_IMAGES,
 _CLIFF_COMPOSE, _CLIFF_INVERSE, _PAULI_CLIFF_INDEX) = _build_clifford_table()
# Each Clifford's letter images as the seven masks :func:`_letter_step` takes,
# each all-ones (-1) or 0: the X parts of the images of X and Z, their Z
# parts, their signs, and the sign of Y's image XOR both of those.
_LETTER_MASKS = tuple(
    tuple(-bit for bit in (x_img[0], z_img[0], x_img[1], z_img[1],
                           x_img[2], z_img[2], x_img[2] ^ z_img[2] ^ y_img[2]))
    for x_img, z_img, y_img in _LETTER_IMAGES
)
_HADAMARD_INDEX = _CLIFF_WORDS.index(("h",))
_PHASE_INDEX = _CLIFF_WORDS.index(("s",))


def _letter_pauli(letter: tuple) -> PauliOperator:
    """The signed letter ``(x, z, minus)`` as a canonical one-qubit Pauli."""
    x, z, minus = letter
    return PauliOperator(1, x, z, (-1) ** minus * 1j ** (x & z))


@dataclass(frozen=True, order=True)
class SingleQubitClifford:
    """One of the 24 single-qubit Cliffords, identified by table index."""

    index: int

    def __post_init__(self):
        if not 0 <= self.index < 24:
            raise ValueError("Clifford index must be in [0, 24)")

    @classmethod
    def identity(cls) -> "SingleQubitClifford":
        return cls(0)

    @classmethod
    def from_pauli_code(cls, code: int) -> "SingleQubitClifford":
        """The Clifford whose conjugation action equals Pauli I/X/Y/Z (code 0..3)."""
        return cls(_PAULI_CLIFF_INDEX[code])

    @property
    def word(self) -> tuple:
        """Generator word in application (time) order, letters 'h'/'s'."""
        return _CLIFF_WORDS[self.index]

    @property
    def unitary(self) -> np.ndarray:
        """Canonical 2x2 matrix: the product of the generator word."""
        return CLIFFORD_UNITARIES[self.index]

    @property
    def x_image(self) -> PauliOperator:
        return _letter_pauli(_LETTER_IMAGES[self.index][0])

    @property
    def z_image(self) -> PauliOperator:
        return _letter_pauli(_LETTER_IMAGES[self.index][1])

    def compose(self, other: "SingleQubitClifford") -> "SingleQubitClifford":
        """self after other (matrix product self.unitary @ other.unitary)."""
        return SingleQubitClifford(int(_CLIFF_COMPOSE[self.index, other.index]))

    def inverse(self) -> "SingleQubitClifford":
        return SingleQubitClifford(int(_CLIFF_INVERSE[self.index]))

    def __repr__(self) -> str:
        return f"SingleQubitClifford({self.index})"


def clifford_named(name: str) -> SingleQubitClifford:
    """Look up I, X, Y, Z, H or S by conjugation action."""
    name = name.upper()
    if name in ("I", "X", "Y", "Z"):
        return SingleQubitClifford.from_pauli_code("IXYZ".index(name))
    if name == "H":
        return SingleQubitClifford(_HADAMARD_INDEX)
    if name == "S":
        return SingleQubitClifford(_PHASE_INDEX)
    raise ValueError(f"unknown Clifford name {name!r}")


def sample_clifford(rng: np.random.Generator) -> SingleQubitClifford:
    """Uniform draw from the 24-element single-qubit Clifford group."""
    return SingleQubitClifford(int(rng.integers(24)))


# ---------------------------------------------------------------------------
# Conjugation rules
# ---------------------------------------------------------------------------


def _embed_1q(img: PauliOperator, qubit: int, n_qubits: int) -> PauliOperator:
    return PauliOperator(n_qubits, img.x << qubit, img.z << qubit, img.phase)


def conjugate_by_clifford(p: PauliOperator, c: SingleQubitClifford,
                          qubit: int) -> PauliOperator:
    """Exact image ``C p C^dagger`` for a single-qubit Clifford at ``qubit``.

    A phase-exact reference for :class:`ZObservables`, checked against it by
    the tests; the program itself propagates through ``ZObservables``.
    """
    if not 0 <= qubit < p.n_qubits:
        raise ValueError("qubit out of range")
    bit = 1 << qubit
    xq = p.x & bit
    zq = p.z & bit
    if not (xq or zq):
        return p
    res = PauliOperator(p.n_qubits, p.x & ~bit, p.z & ~bit, p.phase)
    if xq:
        res = pauli_multiply(res, _embed_1q(c.x_image, qubit, p.n_qubits))
    if zq:
        res = pauli_multiply(res, _embed_1q(c.z_image, qubit, p.n_qubits))
    return res


def conjugate_by_uzz(p: PauliOperator, pair: tuple) -> PauliOperator:
    """Exact image ``U p U^dagger`` for ``U = exp(-1j pi/4 ZZ)`` on ``pair``.

    Generator images: X_a -> Y_a Z_b, X_b -> Z_a Y_b, Z_a -> Z_a, Z_b -> Z_b.
    Like :func:`conjugate_by_clifford`, a tested reference for
    :class:`ZObservables`, not used by the program.
    """
    a, b = pair
    n = p.n_qubits
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise ValueError("bad qubit pair")
    bits = (1 << a) | (1 << b)
    res = PauliOperator(n, p.x & ~bits, p.z & ~bits, p.phase)
    both_z = (1 << a) | (1 << b)
    # canonical forms: Y_a Z_b = 1j * X_a Z_a Z_b, Z_a Y_b = 1j * X_b Z_a Z_b
    if (p.x >> a) & 1:
        res = pauli_multiply(res, PauliOperator(n, 1 << a, both_z, 1j))
    if (p.x >> b) & 1:
        res = pauli_multiply(res, PauliOperator(n, 1 << b, both_z, 1j))
    if (p.z >> a) & 1:
        res = pauli_multiply(res, PauliOperator(n, 0, 1 << a))
    if (p.z >> b) & 1:
        res = pauli_multiply(res, PauliOperator(n, 0, 1 << b))
    return res


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordGate:
    """A single-qubit Clifford applied at one qubit."""

    qubit: int
    clifford: SingleQubitClifford

    @property
    def qubits(self) -> tuple:
        return (self.qubit,)


@dataclass(frozen=True)
class NativeGate:
    """The native two-qubit entangler UZZ on an ordered qubit pair."""

    qubits: tuple

    def __post_init__(self):
        a, b = self.qubits
        if a == b:
            raise ValueError("UZZ needs two distinct qubits")


# ---------------------------------------------------------------------------
# Z-observable pass
# ---------------------------------------------------------------------------


def _letter_step(x, z, x_to_x, z_to_x, x_to_z, z_to_z, x_minus, z_minus, y_minus):
    """The letters held in ``x`` and ``z`` after one single-qubit Clifford.

    ``x`` and ``z`` hold, bit by bit, the letter at one qubit of a set of
    Paulis (Y is x = z = 1).  The masks are the Clifford's entry of
    ``_LETTER_MASKS``: ``x_to_z`` says the image of X has a Z part, and so
    on.  Since Y = iXZ, X^x Z^z maps to the product of the images of X^x and
    Z^z, and its sign flips by the XOR of theirs, corrected by ``y_minus``
    where both are held.  Returns the new ``x`` and ``z`` and the bits whose
    sign flips.  Python ints and numpy ``uint64`` arrays both work, the masks
    then being arrays that pick a Clifford per element.
    """
    return ((x & x_to_x) ^ (z & z_to_x), (x & x_to_z) ^ (z & z_to_z),
            (x & x_minus) ^ (z & z_minus) ^ (x & z & y_minus))


def _uzz_step(xa, za, xb, zb):
    """The Z-part toggle and the sign flips of UZZ on qubits a and b.

    UZZ maps P to -i Z_a Z_b P when P anticommutes with Z_a Z_b, which is
    when ``xa ^ xb``; the sign flips when the anticommuting letter is a Y.
    The caller XORs the returned toggle into both Z parts.  Works on Python
    ints and numpy arrays alike.
    """
    t = xa ^ xb
    return t, t & ((xa & za) | (xb & zb))


class ZObservables:
    """The n observables ``U Z_q U^dagger`` of a Clifford circuit U, bit-packed.

    Bit q of ``x[p]`` and ``z[p]`` is the X and Z part, at physical qubit p,
    of the image of Z_q written in Hermitian letters (Y is x = z = 1); bit q
    of ``signs`` is set when that image carries a minus sign.  Each
    :meth:`apply` appends one gate to U with a few big-integer operations,
    whatever n is.
    """

    def __init__(self, n_qubits: int):
        self.x = [0] * n_qubits
        self.z = [1 << p for p in range(n_qubits)]
        self.signs = 0

    def apply(self, gate) -> None:
        if isinstance(gate, CliffordGate):
            p = gate.qubit
            self.x[p], self.z[p], flips = _letter_step(
                self.x[p], self.z[p], *_LETTER_MASKS[gate.clifford.index])
        else:
            a, b = gate.qubits
            t, flips = _uzz_step(self.x[a], self.z[a], self.x[b], self.z[b])
            self.z[a] ^= t
            self.z[b] ^= t
        self.signs ^= flips

    def fault_masks(self, qubits: tuple) -> list:
        """Final measurement flips of every Pauli fault on ``qubits`` placed here.

        Entry ``k = (x_a + 2 z_a) + 4 (x_b + 2 z_b)`` is the mask of outcome
        bits that fault flips, since it flips bit q iff it anticommutes with
        the current image of Z_q.  That holds when the whole circuit is a
        Pauli (see :meth:`outcome`): then the rest of the circuit maps Z_q
        back to +/- the current image.
        """
        masks = [0]
        for p in qubits:
            for generator in (self.z[p], self.x[p]):
                masks += [m ^ generator for m in masks]
        return masks

    def outcome(self) -> tuple:
        """Outcome bits of ``U |0...0>`` if U is a Pauli; ValueError otherwise."""
        n = len(self.z)
        if any(self.x) or self.z != [1 << p for p in range(n)]:
            raise ValueError("circuit is not a mirror (a Z image is not +/- Z)")
        return tuple((self.signs >> q) & 1 for q in range(n))


def mirror_outcome(gates: Iterable, n_qubits: int) -> tuple:
    """Noiseless outcome bits of a gate list whose product is a Pauli.

    Bit q is 1 iff U maps Z_q to -Z_q, since ``U |0...0>`` is then the
    basis state with bit q flipped.  Raises ValueError for a gate list
    that is not a Pauli.
    """
    observables = ZObservables(n_qubits)
    for gate in gates:
        observables.apply(gate)
    return observables.outcome()
