"""Exact Haar moments of the entangling power by Weingarten calculus, shared by the tests.

Let ``n = d1 d2`` and ``C = C_{d1} C_{d2}``.  Split each row and column index
of ``U`` into its ``(d1, d2)`` pair, ``U[(i, j), (k, l)]``.  The closed form is

    e(U) = 1 - C (n d2 + n d1 + X0 + X1),   X0 = ||T0||^2,   X1 = ||T1||^2,

with the Grams ``T0`` of ``A0[(i, k), (j, l)]`` and ``T1`` of ``A1[(j, k),
(i, l)]`` (``saturation.py``).  Each of ``X0`` and ``X1`` is a *monomial*: a
sum over all indices of a product of ``m`` copies of ``U`` and ``m`` of
``conj U``, in which copy ``r`` of ``U`` shares its ``i`` index with copy
``pi[r]`` of ``conj U``, its ``j`` index with copy ``pj[r]``, and so on.  So a
monomial is four pairings ``(pi, pj, pk, pl)`` in ``S_m``: ``X0`` is ``(swap,
id, swap, id)`` and ``X1`` is ``(id, swap, swap, id)``, and a product of
monomials sets their pairings side by side.

The Haar average of a monomial is an exact sum over ``S_m x S_m`` (Collins &
Śniady, CMP 264, 773 (2006)):

    E = sum_{s, t} f(s) Wg(s, t) g(t),
    f(s) = d1^#(pi^-1 s) d2^#(pj^-1 s),    g(t) = d1^#(pk^-1 t) d2^#(pl^-1 t),

where ``#`` counts cycles and ``Wg`` is the inverse of the Gram matrix
``n^#(s^-1 t)``.  For ``n < m`` the Gram is singular and ``Wg`` is its
pseudo-inverse; ``f`` and ``g`` are overlaps of an operator with the
permutation operators, so they lie in the Gram's range, and ``Wg g`` may be
replaced by any solution ``x`` of ``Gram x = g``.  That is how the averages
are formed here, in exact ``Fraction`` arithmetic: ``e`` has degree (2, 2), so
its mean needs ``S2`` and its variance ``S4``.  :func:`variance` is the same
variance in closed form.
"""

import functools
import itertools
import string
from fractions import Fraction

import numpy as np

ID, SWAP = (0, 1), (1, 0)

#: the pairings ``(pi, pj, pk, pl)`` of ``X0 = ||T0||^2`` and ``X1 = ||T1||^2``
X0 = (SWAP, ID, SWAP, ID)
X1 = (ID, SWAP, SWAP, ID)


def cycles(p: tuple) -> int:
    """The number of cycles of the permutation ``p`` (``r -> p[r]``)."""
    seen, count = set(), 0
    for start in range(len(p)):
        if start in seen:
            continue
        count += 1
        r = start
        while r not in seen:
            seen.add(r)
            r = p[r]
    return count


def relative(p: tuple, s: tuple) -> tuple:
    """``p^-1 s``."""
    return tuple(p.index(x) for x in s)


def product(*monomials) -> tuple:
    """The pairings of a product of monomials: the factors' pairings side by side."""
    joined = []
    for slot in range(4):
        pairing = []
        for m in monomials:
            offset = len(pairing)
            pairing += [offset + r for r in m[slot]]
        joined.append(tuple(pairing))
    return tuple(joined)


def _solve(matrix: list, columns: list) -> list:
    """One exact solution ``x`` of ``matrix x = c`` per column ``c``, with every free unknown 0.

    Gauss-Jordan elimination; it asserts that each system is consistent.
    """
    size = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(c[r]) for c in columns]
            for r, row in enumerate(matrix)]
    pivots = []
    for col in range(size):
        top = len(pivots)
        pivot = next((r for r in range(top, size) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [v / rows[top][col] for v in rows[top]]
        for r in range(size):
            if r != top and rows[r][col]:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    assert not any(any(row[size:]) for row in rows[len(pivots):]), "inconsistent system"
    solutions = [[Fraction(0)] * size for _ in columns]
    for r, col in enumerate(pivots):
        for c, x in enumerate(solutions):
            x[col] = rows[r][size + c]
    return solutions


def expectations(monomials: list, d1: int, d2: int) -> list:
    """The exact Haar averages, as ``Fraction``s, of monomials of one degree on a ``d1 x d2`` system."""
    perms = list(itertools.permutations(range(len(monomials[0][0]))))
    gram = [[(d1 * d2) ** cycles(relative(s, t)) for t in perms] for s in perms]

    def overlaps(p1, p2):
        return [d1 ** cycles(relative(p1, s)) * d2 ** cycles(relative(p2, s)) for s in perms]

    solutions = _solve(gram, [overlaps(pk, pl) for _, _, pk, pl in monomials])
    return [sum(f * x for f, x in zip(overlaps(pi, pj), sol))
            for (pi, pj, _, _), sol in zip(monomials, solutions)]


@functools.cache
def haar_moments(d1: int, d2: int) -> tuple:
    """The exact Haar mean and variance of ``e`` on a ``d1 x d2`` system, as ``Fraction``s."""
    n = d1 * d2
    c = Fraction(1, d1 * (d1 + 1) * d2 * (d2 + 1))
    x0, x1 = expectations([X0, X1], d1, d2)
    x00, x01, x11 = expectations([product(X0, X0), product(X0, X1), product(X1, X1)], d1, d2)
    mean = 1 - c * (n * d2 + n * d1 + x0 + x1)
    return mean, c * c * (x00 + 2 * x01 + x11 - (x0 + x1) ** 2)


def variance(d1: int, d2: int) -> Fraction:
    """The exact Haar variance of ``e`` on a ``d1 x d2`` system, in closed form.

    With ``n = d1 d2`` and the mean ``m = (d1 - 1)(d2 - 1) / (n + 1)``::

        Var e = 4 (d1 - 1)^2 (d2 - 1)^2 / (n^2 (n - 1) (n + 1)^2 (n + 3))
              = m^2 * 4 / (n^2 (n - 1) (n + 3)),

    so ``std / mean = 2 / (n sqrt((n - 1)(n + 3)))``, about ``2 / n^2``.  It is
    :func:`haar_moments`' ``S4 x S4`` sum done symbolically.  ``Wg(s, t)``
    depends only on the cycle type of ``s^-1 t``; over ``D = n^2 (n^2 - 1)
    (n^2 - 4)(n^2 - 9)`` it reads ``(n^4 - 8 n^2 + 6) / D`` at ``1^4``, ``-n
    (n^2 - 4) / D`` at ``2 1^2``, ``(n^2 + 6) / D`` at ``2^2``, ``(2 n^2 - 3) /
    D`` at ``3 1`` and ``-5 n / D`` at ``4``.  Each ``f(s) g(t)`` is a monomial
    in ``d1`` and ``d2``, and in the variance the factors ``n - 3``, ``n - 2``
    and ``n + 2`` cancel.  At ``n = 1`` the form reads ``0 / 0``; there ``e =
    0``.
    """
    n = d1 * d2
    if n == 1:
        return Fraction(0)
    return Fraction(4 * (d1 - 1) ** 2 * (d2 - 1) ** 2, n ** 2 * (n - 1) * (n + 1) ** 2 * (n + 3))


def evaluate(monomial: tuple, u: np.ndarray, d1: int, d2: int) -> complex:
    """The monomial's value at one ``(d1 d2) x (d1 d2)`` matrix ``u``, by one ``einsum``."""
    m = len(monomial[0])
    letters = iter(string.ascii_letters)
    names = [[next(letters) for _ in range(m)] for _ in range(4)]     # names[slot][copy of U]
    plain = ["".join(names[slot][r] for slot in range(4)) for r in range(m)]
    conj = ["".join(names[slot][p.index(r)] for slot, p in enumerate(monomial)) for r in range(m)]
    t = u.reshape(d1, d2, d1, d2)
    return complex(np.einsum(",".join(plain + conj) + "->", *[t] * m, *[t.conj()] * m, optimize=True))
