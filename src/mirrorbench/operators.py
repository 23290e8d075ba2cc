"""Exact single-qubit Clifford algebra and the Z-observable rules for mirror circuits.

Conventions used throughout the package:

- A Pauli is written in Hermitian letters per qubit: X, Z and Y = iXZ, held
  as an X bit and a Z bit.  A uniform Pauli layer is an array of codes
  0, 1, 2, 3 for I, X, Y, Z.
- Qubit 0 is the leftmost tensor factor: computational basis index
  ``sum(b_j * 2**(n-1-j))`` for bits ``b_j``.
- The native two-qubit entangler is ``UZZ = exp(-1j * pi/4 * Z (x) Z)``.
- A single-qubit Clifford is its action on Paulis: the signed images of the
  letters X, Z and Y (Dehaene & De Moor, PRA 68, 042318).  The 24 of them
  are enumerated once by breadth-first search over H and S acting on those
  images, starting from the identity; no matrix is classified.  Index 0 is
  the identity; composition, inversion and the Pauli elements are lookups
  in that one letter table, and the unitaries ride along as products of
  each generator word.
- The images of a set of Paulis under a Clifford circuit are carried
  bit-packed in unsigned numpy words (``uint64`` in ``circuits``, ``uint16``
  in the frame potential): ``x[p]`` and ``z[p]`` hold, bit by bit, the X
  and Z letter of each tracked Pauli at physical qubit p, one column per
  word or per sample.  ``_clifford_round`` applies one single-qubit
  Clifford to every qubit and ``_uzz_round`` one layer of UZZ gates, both
  on every column at once.  They are the one set of round rules: the
  mirror check and fault masks of ``circuits`` call them, and the frame
  potential of ``analysis`` evaluates the same rules in its own work
  buffers, from ``_LETTER_MASK_ROWS``, without calling them.
"""

from __future__ import annotations

import numpy as np

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

    compose = np.array([[seen[_after(a, b)] for b in letter_images]
                        for a in letter_images], dtype=np.int8)
    inverse = np.argmax(compose == 0, axis=1).astype(np.int8)
    # Pauli (px, pz) flips the sign of each letter it anticommutes with
    pauli_index = np.array([
        seen[tuple((x, z, (px & z) ^ (pz & x)) for x, z, _ in _IDENTITY_IMAGES)]
        for px, pz in ((0, 0), (1, 0), (1, 1), (0, 1))  # I, X, Y, Z
    ], dtype=np.int8)
    for table in (unitaries, compose, inverse, pauli_index):
        table.flags.writeable = False
    return words, unitaries, letter_images, compose, inverse, pauli_index


# A Clifford is its index c in these tables: ``_CLIFF_WORDS[c]`` is its
# generator word in time order ('h'/'s'), ``CLIFFORD_UNITARIES[c]`` the
# product of that word, ``_CLIFF_COMPOSE[a, b]`` is a after b,
# ``_CLIFF_INVERSE[c]`` the inverse and ``_PAULI_CLIFF_INDEX[code]`` the
# Pauli I/X/Y/Z of code 0-3.
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
# ``_LETTER_MASKS`` as uint64, one row per mask and one column per Clifford
_LETTER_MASK_ROWS = np.array(_LETTER_MASKS, dtype=np.int64).view(np.uint64).T.copy()


# ---------------------------------------------------------------------------
# Round rules on bit-packed Pauli images
# ---------------------------------------------------------------------------
#
# ``x`` and ``z`` are unsigned integer arrays, and the masks of the same word
# type, whose second-to-last axis is the physical qubit p; bit j of
# ``x[..., p, :]`` and ``z[..., p, :]`` is the letter at p of tracked Pauli j
# (Y is x = z = 1).  Each rule comes in two parts: the new images, and the
# sign flips per qubit, whose XOR over the qubits is the round's.  The flips
# are computed from the images before the round, so a sequential pass
# (``circuits._z_pass``) takes each round's sign part before its image part
# and XORs the flips up round by round.


def _clifford_masks(cliffords: np.ndarray) -> np.ndarray:
    """The seven ``_LETTER_MASKS`` of each Clifford index, on a new first axis."""
    return np.take(_LETTER_MASK_ROWS, cliffords, axis=1)


def _clifford_round(x, z, masks) -> tuple:
    """Images after a single-qubit Clifford on every qubit.

    ``masks`` is :func:`_clifford_masks` of the Cliffords, broadcast against
    ``x`` and ``z``: ``x_to_z`` says the image of X has a Z part, and so on.
    Since Y = iXZ, X^x Z^z maps to the product of the images of X^x and Z^z.
    """
    x_to_x, z_to_x, x_to_z, z_to_z = masks[:4]
    return (x & x_to_x) ^ (z & z_to_x), (x & x_to_z) ^ (z & z_to_z)


def _clifford_signs(x, z, masks):
    """Sign flips of :func:`_clifford_round` at each qubit: the XOR of the
    signs of the images of X^x and Z^z, corrected where both are held."""
    x_minus, z_minus, y_minus = masks[4:]
    return (x & x_minus) ^ (z & z_minus) ^ (x & z & y_minus)


def _partners(pairs: np.ndarray) -> np.ndarray:
    """``(count, n)`` array of each qubit's partner in ``(count, n/2, 2)`` pairs."""
    count, half, _ = pairs.shape
    partner = np.empty((count, 2 * half), dtype=np.intp)
    rows = np.arange(count)[:, None]
    partner[rows, pairs[..., 0]] = pairs[..., 1]
    partner[rows, pairs[..., 1]] = pairs[..., 0]
    return partner


def _uzz_round(x, z, x_partner):
    """Z images after UZZ on every pair of a perfect matching; X does not change.

    ``x_partner`` holds at each qubit the X letters of its pair's other
    qubit (:func:`_partners`).  UZZ maps P to -i Z_a Z_b P when P
    anticommutes with Z_a Z_b, which is when ``t = x_a ^ x_b``, toggling
    both Z letters.
    """
    return z ^ x ^ x_partner


def _uzz_signs(x, z, x_partner):
    """Sign flips of :func:`_uzz_round` at each qubit.

    The sign flips when the anticommuting letter is a Y.  Where t is set
    only one letter of the pair has an X part, so ``t & x & z`` at the two
    qubits XORs to the pair's flip.
    """
    return (x ^ x_partner) & x & z
