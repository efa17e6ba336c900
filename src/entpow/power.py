"""Entangling power of bipartite unitaries under the uniform product-state average.

The headline quantity is the mean linear entropy produced by a unitary ``U``
on ``C^{d1} (x) C^{d2}`` acting on Haar-random product states.  It admits a
closed form in terms of pair-exchange operators on the doubled space:

    e(U) = 1 - C_{d1} C_{d2} (I_0 + I_1),      C_d = 1/(d (d+1)),

where ``I_0`` and ``I_1`` are traces of ``U^{(x)2}``-conjugated exchange
operators against the exchange of the two ``d1`` factors.  Three independent
evaluation routes are provided: the closed form (fast index contraction), a
dense operator oracle on the doubled space, and a Monte Carlo average over
sampled product states.  They agree to 1e-10 / within sampling error, and the
test suite holds them to that.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ResourceLimitError, ValidationError
from .sampling import SeedSpec, block_sizes, haar_unitary, product_state_block
from .tensorops import Bipartition, ensure_finite, kron, pair_exchange, permutation_matrix

#: absolute tolerance for the unitarity check on gate construction
UNITARY_ATOL = 1e-10

#: cap on d1*d2 for the dense doubled-space oracle (matrices of side (d1*d2)^2)
DENSE_ORACLE_MAX_DIM = 36


@dataclass(frozen=True, eq=False)
class UnitaryGate:
    """A validated unitary together with the bipartition it acts on."""

    matrix: np.ndarray
    part: Bipartition

    def __post_init__(self):
        m = ensure_finite(self.matrix, "gate matrix")
        n = self.part.dim
        if m.shape != (n, n):
            raise DimensionError(
                f"gate matrix must be {n}x{n} for bipartition {self.part}, got {m.shape}"
            )
        defect = np.abs(m.conj().T @ m - np.eye(n)).max()
        if defect > UNITARY_ATOL:
            raise ValidationError(
                f"matrix is not unitary: max |U^dag U - 1| = {defect:.3e} exceeds {UNITARY_ATOL:.1e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def d1(self) -> int:
        return self.part.d1

    @property
    def d2(self) -> int:
        return self.part.d2


@dataclass
class EntanglingPowerReport:
    """Entangling power of one gate plus the analytic context it sits in."""

    value: float
    i0: float
    i1: float
    haar_mean: float
    upper_bound: float
    gap_to_bound: float
    method: str
    mc_samples: int | None = None
    mc_stderr: float | None = None


def _c(d: int) -> float:
    return 1.0 / (d * (d + 1))


def haar_mean(part: Bipartition) -> float:
    """Average entangling power over Haar-random unitaries: (d1-1)(d2-1)/(d1 d2 + 1)."""
    return (part.d1 - 1) * (part.d2 - 1) / (part.d1 * part.d2 + 1)


def upper_bound(part: Bipartition) -> float:
    """Upper bound on the entangling power: (b - b/a)/(b + 1) with a=min, b=max dimension.

    Symmetric in the two factors, so callers need not order the dimensions.
    """
    a, b = min(part.d1, part.d2), max(part.d1, part.d2)
    return (b - b / a) / (b + 1)


def linear_entropy(state: np.ndarray, part: Bipartition) -> float:
    """Linear entropy ``1 - tr(rho^2)`` of a pure state, ``rho`` the first-factor reduction.

    Zero exactly on product states; maximal, ``1 - 1/min(d1,d2)``, on maximally
    entangled states.
    """
    psi = ensure_finite(state, "state").reshape(-1)
    if psi.shape[0] != part.dim:
        raise DimensionError(f"state has dimension {psi.shape[0]}, expected {part.dim}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return float(_linear_entropies(psi[None], part)[0])


def _linear_entropies(states: np.ndarray, part: Bipartition) -> np.ndarray:
    """Linear entropies of an ``(N, d1*d2)`` stack of (unvalidated) pure states, ``(N,)``.

    The one output-entropy kernel: :func:`linear_entropy` is its ``N = 1``
    case, and :func:`ep_monte_carlo` and :func:`ep_on_states` call it on
    batches of output states.
    """
    m = states.reshape(-1, part.d1, part.d2)
    if part.d1 > part.d2:
        m = m.transpose(0, 2, 1)   # the purity is that of the smaller reduction, tr(rho^2)
    return 1.0 - _frobenius2(_gram(m))


def _gram(a: np.ndarray) -> np.ndarray:
    return a @ a.conj().transpose(0, 2, 1)


def _i0_i1(stack: np.ndarray, part: Bipartition) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The two exchange-operator traces of a stack of gates, and the stacks behind them.

    With ``u`` each gate reshaped to four indices (row pair, column pair),
    ``A0`` pairs the ``d1`` indices and ``A1`` the ``d2`` indices, so that
    contracting two copies of ``u`` against two conjugated copies becomes
    one matrix product per trace, at cost O((d1 d2)^3) per gate.  Each trace
    is a constant plus the squared Frobenius norm of its ``T = A A^dag``; the
    third value is ``(A0, T0, A1, T1)``, from which :func:`_gradients` reads
    the gradient.
    """
    d1, d2 = part.d1, part.d2
    u = stack.reshape(-1, d1, d2, d1, d2)
    n = u.shape[0]
    # I0: contract over the d2 indices of each copy -> matrix indexed by d1 index pairs
    a0 = u.transpose(0, 1, 3, 2, 4).reshape(n, d1 * d1, d2 * d2)
    # I1: contract over the d1 indices of each copy -> matrix indexed by d2 index pairs
    a1 = u.transpose(0, 2, 3, 1, 4).reshape(n, d2 * d1, d1 * d2)
    t0, t1 = _gram(a0), _gram(a1)
    return d1 * d2 * d2 + _frobenius2(t0), d1 * d1 * d2 + _frobenius2(t1), (a0, t0, a1, t1)


def _frobenius2(t: np.ndarray) -> np.ndarray:
    flat = t.reshape(t.shape[0], -1)
    return np.vecdot(flat, flat).real


def _closed_form(i0, i1, part: Bipartition):
    return 1.0 - _c(part.d1) * _c(part.d2) * (i0 + i1)


def ep_values(stack: np.ndarray, part: Bipartition) -> np.ndarray:
    """Closed-form entangling power of a stack of (unvalidated) unitaries, ``(N, n, n) -> (N,)``.

    The one closed-form kernel: :func:`ep_value` and :func:`ep_closed` are its
    ``N = 1`` case (a single ``(n, n)`` matrix counts as a stack of one), and
    sampling loops call it on whole stacks of gates.
    """
    i0, i1, _ = _i0_i1(stack, part)
    return _closed_form(i0, i1, part)


#: matrix entries per sub-stack of matrices (see :func:`substack_size`); caps
#: the working set without changing any value.  Larger sub-stacks mean fewer,
#: longer GIL-free calls for the threads of ``dist``; the peak RSS bounds it.
_SUBSTACK_ENTRIES = 8192


def substack_size(n: int) -> int:
    """Number of ``(n, n)`` matrices in one sub-stack passed to :func:`ep_values`.

    A sub-stack holds at most 8192 matrix entries.  ``dist`` draws and
    evaluates one sub-stack at a time on each of its threads (one per CPU, up
    to 64), so its working set is about that many sub-stacks; the values do not
    depend on the number of CPUs.  Also the number of restarts in one lockstep
    group of :func:`entpow.search.maximize_ep`, whose stack of three-step
    windows then holds at most three times as many entries.
    """
    return max(1, _SUBSTACK_ENTRIES // (n * n))


def ep_value(matrix: np.ndarray, part: Bipartition) -> float:
    """Closed-form entangling power of one (unvalidated) unitary matrix.

    The ``N = 1`` case of :func:`ep_values`, bit for bit; the identity checks
    of :mod:`entpow.selfcheck` and the benchmark's kernel timings call it.
    :func:`ep_closed` adds validation and a full report.
    """
    return float(ep_values(matrix, part)[0])


def _gradients(a0: np.ndarray, t0: np.ndarray, a1: np.ndarray, t1: np.ndarray,
               part: Bipartition) -> np.ndarray:
    """Euclidean gradients of the closed form at a stack of unitaries, from :func:`_i0_i1`'s stacks.

    The closed form is quartic in ``U``.  With ``T = A A^dag`` for each
    rearrangement ``A``, ``d||T||^2 = 4 Re tr((T A)^dag dA)``, so in the
    convention ``de = Re tr(G^dag dU)`` the gradient is
    ``G = -4 C_{d1} C_{d2} (R0^-1(T0 A0) + R1^-1(T1 A1))``, where ``R^-1``
    undoes each rearrangement.  Returns ``(N, n, n)``.
    """
    d1, d2 = part.d1, part.d2
    n = a0.shape[0]
    g0 = (t0 @ a0).reshape(n, d1, d1, d2, d2).transpose(0, 1, 3, 2, 4)
    g1 = (t1 @ a1).reshape(n, d2, d1, d1, d2).transpose(0, 3, 1, 2, 4)
    grad = -4.0 * _c(d1) * _c(d2) * (g0 + g1)
    return grad.reshape(n, part.dim, part.dim)


def _report(value: float, i0: float, i1: float, part: Bipartition, method: str,
            mc_samples: int | None = None, mc_stderr: float | None = None) -> EntanglingPowerReport:
    return EntanglingPowerReport(
        value=value, i0=i0, i1=i1,
        haar_mean=haar_mean(part), upper_bound=upper_bound(part),
        gap_to_bound=upper_bound(part) - value,
        method=method, mc_samples=mc_samples, mc_stderr=mc_stderr,
    )


def ep_closed(gate: UnitaryGate) -> EntanglingPowerReport:
    """Entangling power via the closed form ``1 - C_{d1} C_{d2} (I_0 + I_1)``."""
    part = gate.part
    i0, i1 = (float(t[0]) for t in _i0_i1(gate.matrix, part)[:2])
    return _report(_closed_form(i0, i1, part), i0, i1, part, "closed_form")


def ep_dense_oracle(gate: UnitaryGate) -> EntanglingPowerReport:
    """Entangling power via explicit dense operators on the doubled space.

    Builds the uniform product-state average as ``4 C_{d1} C_{d2} P+_{13} P+_{24}``
    and takes twice its ``U^{(x)2}``-conjugated overlap with the antisymmetric
    projector.  Slow but structurally independent of the closed form; agrees
    with it to 1e-10.
    """
    part = gate.part
    if part.dim > DENSE_ORACLE_MAX_DIM:
        raise ResourceLimitError(
            f"dense oracle supports d1*d2 <= {DENSE_ORACLE_MAX_DIM}, got {part.dim}"
        )
    t13 = pair_exchange(part, "T13")
    t24 = pair_exchange(part, "T24")
    eye = np.eye(t13.shape[0])
    omega = _c(part.d1) * _c(part.d2) * ((eye + t13) @ (eye + t24))
    u2 = kron(gate.matrix, gate.matrix)
    conj = u2 @ omega @ u2.conj().T
    value = float(np.trace(conj @ (eye - t13)).real)
    i0 = float(np.trace(t13).real) + float(np.trace(u2 @ t13 @ u2.conj().T @ t13).real)
    i1 = float(np.trace(t24).real) + float(np.trace(u2 @ t24 @ u2.conj().T @ t13).real)
    return _report(value, i0, i1, part, "dense_oracle")


def _batch_entropies(matrix: np.ndarray, part: Bipartition,
                     p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Linear entropies of ``U (psi1 (x) psi2)`` for batched rows of states."""
    prod = np.einsum("ni,nj->nij", p1, p2).reshape(p1.shape[0], part.dim)
    return _linear_entropies(prod @ matrix.T, part)


def ep_monte_carlo(gate: UnitaryGate, n_samples: int, seed: SeedSpec) -> EntanglingPowerReport:
    """Entangling power as a sample mean over Haar product states.

    Samples are spread over a fixed set of seed substreams and concatenated in
    stream order, so the estimate is deterministic for a given seed.  The call
    consumes streams ``seed.stream_index`` to ``seed.stream_index + 63``
    (fewer below 64 samples); for independent estimates use distinct master
    seeds.  The report carries the sample count and the standard error of the
    mean.
    """
    if n_samples < 2:
        raise ValidationError(f"n_samples must be >= 2 for a standard error, got {n_samples}")
    part = gate.part
    chunks = []
    for b, count in enumerate(block_sizes(n_samples)):
        p1, p2 = product_state_block(part, seed.substream(b), count)
        chunks.append(_batch_entropies(gate.matrix, part, p1, p2))
    values = np.concatenate(chunks)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n_samples))
    i0, i1 = (float(t[0]) for t in _i0_i1(gate.matrix, part)[:2])
    return _report(mean, i0, i1, part, "monte_carlo", mc_samples=n_samples, mc_stderr=stderr)


def ep_on_states(gate: UnitaryGate, states: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Plain average of output linear entropies over an explicit list of product pairs.

    Supports arbitrary user-chosen input distributions, e.g. one supported on
    computational basis states only.  Each factor state may be flat or a
    column; each product ``|psi1| |psi2|`` must be 1 to within 1e-10.  Each
    entry of ``states`` is a tuple or list of the two factor states.
    """
    if not states:
        raise ValidationError("states list is empty")
    for k, pair in enumerate(states):
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ValidationError(f"states[{k}] is not a (first, second) pair of factor states")
    part = gate.part
    first, second = zip(*states)
    p1 = _factor_states(first, part.d1, "first")
    p2 = _factor_states(second, part.d2, "second")
    defect = np.abs(np.linalg.norm(p1, axis=1) * np.linalg.norm(p2, axis=1) - 1.0).max()
    if defect > 1e-10:
        raise ValidationError(f"product state is not normalized: |norm - 1| = {defect:.3e}")
    return float(_batch_entropies(gate.matrix, part, p1, p2).mean())


def _factor_states(states, d: int, which: str) -> np.ndarray:
    """One factor's states as a finite complex ``(N, d)`` array; any other length is refused."""
    rows = [np.ravel(s) for s in states]
    for row in rows:
        if row.shape != (d,):
            raise DimensionError(f"{which}-factor state has dimension {row.size}, expected {d}")
    return ensure_finite(np.array(rows), f"{which}-factor state")


def swap_symmetric_ep(gate: UnitaryGate) -> float:
    """Entangling power at ``d1 = d2`` through the manifestly swap-invariant form.

    Averages the functional ``d^3 + <U^{(x)2}, T13 U^{(x)2} T13>`` over the
    gate and its swap-composed partner.  Used as an independent identity check
    against :func:`ep_closed`.
    """
    part = gate.part
    if part.d1 != part.d2:
        raise ValidationError(f"swap-symmetric form requires d1 = d2, got {part}")
    d = part.d1
    swap = permutation_matrix(np.arange(d * d).reshape(d, d).T.ravel())

    def functional(m: np.ndarray) -> float:
        u = m.reshape(d, d, d, d)
        cu = u.conj()
        inner = np.einsum("abcd,efgh,ebgd,afch->", cu, cu, u, u, optimize=True)
        return d**3 + float(inner.real)

    c = _c(d)
    return 1.0 - c * c * (functional(gate.matrix) + functional(swap @ gate.matrix))


def haar_gate(part: Bipartition, seed: SeedSpec) -> UnitaryGate:
    """A Haar-random gate on the given bipartition."""
    return UnitaryGate(haar_unitary(part.dim, seed), part)

