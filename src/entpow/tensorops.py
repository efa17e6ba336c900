"""Dense complex tensor algebra on bipartite spaces.

Matrices are plain ``numpy.ndarray`` objects (dense, row-major).  A state on a
``d1 x d2`` system is a column vector of length ``d1*d2`` whose basis is
ordered ``|i>|j> -> i*d2 + j``.  Operators on the doubled space ``H (x) H``
carry four factors ``(d1, d2, d1, d2)`` flattened row-major in the same way.
"""

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DimensionError, ValidationError

#: cap on any matrix side produced by :func:`kron`
DEFAULT_DIM_CAP = 2000

#: absolute tolerance of every exactness check on input (unit states,
#: unitarity, Kraus completeness) and of the ``verify`` identity checks
ATOL = 1e-10

#: axis order of each exchange on the ``(d1, d2, d1, d2)`` index grid
_EXCHANGES = {"T13": (2, 1, 0, 3), "T24": (0, 3, 2, 1), "T13T24": (2, 3, 0, 1)}


def _is_integer(value) -> bool:
    """True for Python and numpy integers, false for bools (an ``int`` subclass)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Bipartition:
    """A fixed tensor factorization ``C^{d1} (x) C^{d2}``."""

    d1: int
    d2: int

    def __post_init__(self):
        if not (_is_integer(self.d1) and _is_integer(self.d2)):
            raise DimensionError(f"factor dimensions must be integers, got ({self.d1!r}, {self.d2!r})")
        if self.d1 < 1 or self.d2 < 1:
            raise DimensionError(f"factor dimensions must be >= 1, got ({self.d1}, {self.d2})")

    @property
    def dim(self) -> int:
        """Total dimension ``d1*d2``."""
        return self.d1 * self.d2

    def __str__(self) -> str:
        return f"{self.d1}x{self.d2}"


def ensure_finite(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex array, rejecting NaN/Inf entries."""
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():   # false for a complex entry with either part non-finite
        raise ValidationError(f"{what} contains non-finite entries")
    return m


def flat_vector(v, d: int, what: str) -> np.ndarray:
    """``v`` as a flat array of length ``d``, from one of the shapes ``(d,)``, ``(d, 1)``, ``(1, d)``.

    Any other shape is refused with a :class:`DimensionError` that names it,
    so a matrix with ``d`` entries is not read as a vector.
    """
    v = np.asarray(v)
    if not (v.ndim == 1 or v.ndim == 2 and 1 in v.shape):
        raise DimensionError(f"{what} has shape {v.shape}, expected ({d},), ({d}, 1) or (1, {d})")
    if v.size != d:
        raise DimensionError(f"{what} has dimension {v.size}, expected {d}")
    return v.reshape(d)


def unit_vector(v: np.ndarray, d: int, what: str) -> np.ndarray:
    """:func:`flat_vector` of ``v``, finite and complex, with norm 1 to within :data:`ATOL`."""
    v = flat_vector(ensure_finite(v, what), d, what)
    defect = abs(np.linalg.norm(v) - 1.0)
    if defect > ATOL:
        raise ValidationError(f"{what} is not normalized: |norm - 1| = {defect:.3e}")
    return v


def _leading(buf: np.ndarray, shape) -> np.ndarray:
    """The leading entries of the flat array ``buf`` as a view of ``shape``: a reused buffer's slot."""
    return buf[:math.prod(shape)].reshape(shape)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product ``a (x) b`` of dense matrices (or column vectors).

    A side of the result above ``DEFAULT_DIM_CAP`` raises :class:`DimensionError`.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    rows = a.shape[0] * b.shape[0]
    cols = (a.shape[1] if a.ndim > 1 else 1) * (b.shape[1] if b.ndim > 1 else 1)
    if rows > DEFAULT_DIM_CAP or cols > DEFAULT_DIM_CAP:
        raise DimensionError(
            f"kron result {rows}x{cols} exceeds the configured cap of {DEFAULT_DIM_CAP} per side"
        )
    return np.kron(a, b)


def permutation_matrix(images) -> np.ndarray:
    """Real 0/1 matrix sending basis vector ``k`` to basis vector ``images[k]``.

    Parameters
    ----------
    images : array_like of int, shape ``(..., n)``
        One index table, or a stack of them; each must be a permutation of
        ``0..n-1`` (not checked here).

    Returns
    -------
    ndarray
        Float64 array of shape ``(..., n, n)`` with ``m[..., images[k], k] = 1``
        and zeros elsewhere.
    """
    images = np.asarray(images)
    n = images.shape[-1]
    tables = images.reshape(-1, n)
    m = np.zeros((len(tables), n, n))
    m[np.arange(len(tables))[:, None], tables, np.arange(n)] = 1.0
    return m.reshape(images.shape + (n,))


def pair_exchange(part: Bipartition, which: str = "T13") -> np.ndarray:
    """Permutation operator exchanging factors of the doubled space.

    The doubled space ``H (x) H`` carries four factors numbered 1..4 with
    dimensions ``(d1, d2, d1, d2)``; factors 1,2 belong to the first copy and
    3,4 to the second.  ``"T13"`` exchanges the two ``d1`` factors, ``"T24"``
    the two ``d2`` factors, and ``"T13T24"`` swaps the copies wholesale.

    Returns
    -------
    ndarray
        Real 0/1 permutation matrix of side ``(d1*d2)**2``; it is its own
        inverse.
    """
    if which not in _EXCHANGES:
        raise ValidationError(f"which must be one of {tuple(_EXCHANGES)}, got {which!r}")
    d1, d2 = part.d1, part.d2
    idx = np.arange((d1 * d2) ** 2).reshape(d1, d2, d1, d2)
    return permutation_matrix(idx.transpose(_EXCHANGES[which]).ravel())

