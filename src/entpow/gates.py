"""Constructors for the concrete gate families with known entangling power.

Values worth remembering (and enforced in the tests):

* controlled families built from ``d`` pairwise Hilbert-Schmidt orthogonal
  unitaries reach ``d(d-1)/(d+1)^2`` -- e.g. CNOT's 2/9 at d=2;
* the additive index permutation ``|i,j> -> |i+j, i-j>`` (mod d, odd d)
  saturates the upper bound ``(d-1)/(d+1)``;
* identities, swaps, and bilocal products entangle nothing.
"""

import json
from pathlib import Path

import numpy as np

from .errors import DimensionError, ResourceLimitError, ValidationError
from .power import UnitaryGate
from .tensorops import DEFAULT_DIM_CAP, Bipartition, _is_integer, ensure_finite, kron, permutation_matrix

#: tolerance for the pairwise Hilbert-Schmidt orthogonality check
HS_ORTHO_ATOL = 1e-8


def make_identity(part: Bipartition) -> UnitaryGate:
    """The identity gate on the given bipartition."""
    return UnitaryGate(np.eye(part.dim, dtype=complex), part)


def make_swap(d: int) -> UnitaryGate:
    """The gate exchanging the two factors of a ``d x d`` system."""
    if d < 1:
        raise DimensionError(f"swap dimension must be >= 1, got {d}")
    idx = np.arange(d * d).reshape(d, d)
    return UnitaryGate(permutation_matrix(idx.T.ravel()), Bipartition(d, d))


def make_cnot() -> UnitaryGate:
    """Controlled-NOT on two qubits, first factor controlling the second."""
    m = np.array(
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0]], dtype=complex)
    return UnitaryGate(m, Bipartition(2, 2))


def clock_matrix(d: int) -> np.ndarray:
    """Diagonal of the ``d``-th roots of unity; its powers are pairwise HS-orthogonal."""
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def shift_matrix(d: int) -> np.ndarray:
    """Cyclic shift ``|k> -> |k+1 mod d``; an alternative HS-orthogonal power family."""
    m = np.zeros((d, d), dtype=complex)
    m[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return m


def make_controlled_family(d: int, unitaries: list[np.ndarray] | None = None) -> UnitaryGate:
    """Block-diagonal controlled gate ``sum_a |a><a| (x) U_a`` on ``d x d``.

    Parameters
    ----------
    d : int
        Dimension of each factor, at least 2.
    unitaries : list of ndarray, optional
        The ``d`` controlled blocks, each ``d x d``.  Must be unitary and pairwise orthogonal
        in the Hilbert-Schmidt inner product ``<A,B> = tr(A^dag B)``; defaults
        to the clock powers ``Z^a``.

    The entangling power of any such gate is ``d(d-1)/(d+1)^2``, independent
    of which orthogonal family is used.
    """
    if d < 2:
        raise DimensionError(f"controlled family needs d >= 2, got {d}")
    if unitaries is None:
        z = clock_matrix(d)
        unitaries = [np.linalg.matrix_power(z, a) for a in range(d)]
    if len(unitaries) != d:
        raise ValidationError(f"expected {d} controlled blocks, got {len(unitaries)}")
    blocks = [ensure_finite(u, "controlled block") for u in unitaries]
    for a, u in enumerate(blocks):
        if u.shape != (d, d):
            raise DimensionError(f"controlled block {a} must be {d}x{d}, got shape {u.shape}")
    for a in range(d):
        for b in range(a + 1, d):
            overlap = abs(np.trace(blocks[a].conj().T @ blocks[b]))
            if overlap > HS_ORTHO_ATOL:
                raise ValidationError(
                    f"controlled blocks {a} and {b} are not Hilbert-Schmidt orthogonal: "
                    f"|<U_{a}, U_{b}>| = {overlap:.3e}"
                )
    m = np.zeros((d * d, d * d), dtype=complex)
    for a, u in enumerate(blocks):
        m[a * d:(a + 1) * d, a * d:(a + 1) * d] = u
    return UnitaryGate(m, Bipartition(d, d))


def make_additive_permutation(d: int) -> UnitaryGate:
    """Basis permutation ``|i>|j> -> |i+j>|i-j>`` (sums mod ``d``), odd ``d`` only.

    For odd ``d`` the index map is a bijection and the gate saturates the
    entangling-power upper bound ``(d-1)/(d+1)``; for even ``d`` the map is
    two-to-one and no such permutation exists.
    """
    if d < 3 or d % 2 == 0:
        raise ValidationError(
            f"the additive index map is a permutation only for odd d >= 3, got {d}"
        )
    i, j = np.divmod(np.arange(d * d), d)
    return make_basis_permutation(Bipartition(d, d), ((i + j) % d) * d + (i - j) % d)


def make_bilocal(u1: np.ndarray, u2: np.ndarray) -> UnitaryGate:
    """Product gate ``u1 (x) u2`` acting independently on the factors."""
    u1 = ensure_finite(u1, "first factor unitary")
    u2 = ensure_finite(u2, "second factor unitary")
    part = Bipartition(u1.shape[0], u2.shape[0])
    return UnitaryGate(kron(u1, u2), part)


def make_basis_permutation(part: Bipartition, table) -> UnitaryGate:
    """Gate permuting computational basis states: ``|k> -> |table[k]>``."""
    table = list(table)
    n = part.dim
    if not all(_is_integer(k) for k in table):
        raise ValidationError(f"table entries must be integers: {table}")
    if sorted(table) != list(range(n)):
        raise ValidationError(f"table is not a bijection on 0..{n - 1}: {table}")
    return UnitaryGate(permutation_matrix(table), part)


def save_gate(gate: UnitaryGate, path) -> None:
    """Write a gate to the JSON matrix format (row-major ``[re, im]`` pairs)."""
    payload = {
        "d1": gate.d1,
        "d2": gate.d2,
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in gate.matrix],
    }
    Path(path).write_text(json.dumps(payload))


def _complex_entry(entry, row: int, column: int) -> complex:
    """One ``[re, im]`` entry of a gate file; anything but a list of two JSON numbers is refused."""
    # exact types: json reads numbers as int or float, so a bool (an int subclass) is refused
    if (type(entry) is not list or len(entry) != 2
            or any(type(x) not in (int, float) for x in entry)):
        raise ValueError(f"matrix entry at row {row}, column {column} must be [re, im] "
                         f"with two numbers, got {json.dumps(entry)}")
    return complex(*entry)


def load_gate(path) -> UnitaryGate:
    """Read a gate from the JSON matrix format written by :func:`save_gate`."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"gate file {path} is not valid JSON: {exc}") from exc
    try:
        dims = payload["d1"], payload["d2"]
        for name, d in zip(("d1", "d2"), dims):
            # json reads only integers as int; bool is an int subclass, so compare exactly
            if type(d) is not int:
                raise ValueError(f"{name} must be an integer, got {json.dumps(d)}")
        part = Bipartition(*dims)
        if part.dim > DEFAULT_DIM_CAP:
            raise ResourceLimitError(
                f"gate file {path} declares d1*d2 = {part.dim}, above the cap of {DEFAULT_DIM_CAP}"
            )
        m = np.array([[_complex_entry(entry, i, j) for j, entry in enumerate(row)]
                      for i, row in enumerate(payload["matrix"])])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"gate file {path} is malformed: {exc}") from exc
    return UnitaryGate(m, part)

