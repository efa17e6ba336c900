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
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .sampling import SeedSpec, block_sizes, product_state_block
from .tensorops import Bipartition, ensure_finite, kron, pair_exchange

#: absolute tolerance for the unitarity check on gate construction
UNITARY_ATOL = 1e-10

#: cap on d1*d2 for the dense doubled-space oracle (matrices of side (d1*d2)^2)
DENSE_ORACLE_MAX_DIM = 36


@dataclass(frozen=True, eq=False)
class UnitaryGate:
    """A validated unitary together with the bipartition it acts on."""

    matrix: np.ndarray
    part: Bipartition
    atol: InitVar[float] = UNITARY_ATOL

    def __post_init__(self, atol):
        m = ensure_finite(self.matrix, "gate matrix")
        n = self.part.dim
        if m.shape != (n, n):
            raise DimensionError(
                f"gate matrix must be {n}x{n} for bipartition {self.part}, got {m.shape}"
            )
        defect = np.abs(m.conj().T @ m - np.eye(n)).max()
        if defect > atol:
            raise ValidationError(
                f"matrix is not unitary: max |U^dag U - 1| = {defect:.3e} exceeds {atol:.1e}"
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
    mean_haar: float
    upper_bound: float
    method: str
    mc_samples: int | None = None
    mc_stderr: float | None = None

    @property
    def gap_to_bound(self) -> float:
        return self.upper_bound - self.value


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


def max_linear_entropy(part: Bipartition) -> float:
    """Largest linear entropy a pure state on this bipartition can have: 1 - 1/min(d1,d2)."""
    return 1.0 - 1.0 / min(part.d1, part.d2)


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
    m = psi.reshape(part.d1, part.d2)
    rho = m @ m.conj().T
    return 1.0 - float(np.trace(rho @ rho).real)


def _i0_i1(stack: np.ndarray, part: Bipartition) -> tuple[np.ndarray, np.ndarray]:
    """The two exchange-operator traces entering the closed form, for a stack of gates.

    With ``u`` each gate reshaped to four indices (row pair, column pair), each
    trace contracts two copies of ``u`` against two conjugated copies; pairing
    the copies first reduces both to squared Frobenius norms of ``A A^dag``,
    one batched matrix product per trace, at cost O((d1 d2)^3) per gate.
    """
    d1, d2 = part.d1, part.d2
    u = stack.reshape(-1, d1, d2, d1, d2)
    n = u.shape[0]
    # I0: contract over the d2 indices of each copy -> matrix indexed by d1 index pairs
    a0 = u.transpose(0, 1, 3, 2, 4).reshape(n, d1 * d1, d2 * d2)
    # I1: contract over the d1 indices of each copy -> matrix indexed by d2 index pairs
    a1 = u.transpose(0, 2, 3, 1, 4).reshape(n, d2 * d1, d1 * d2)
    i0 = d1 * d2 * d2 + _frobenius2(a0 @ a0.conj().transpose(0, 2, 1))
    i1 = d1 * d1 * d2 + _frobenius2(a1 @ a1.conj().transpose(0, 2, 1))
    return i0, i1


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
    return _closed_form(*_i0_i1(stack, part), part)


def ep_value(matrix: np.ndarray, part: Bipartition) -> float:
    """Closed-form entangling power of one (unvalidated) unitary matrix.

    The ``N = 1`` case of :func:`ep_values`, bit for bit; used by optimization
    loops.  :func:`ep_closed` adds validation and a full report.
    """
    return float(ep_values(matrix, part)[0])


def _report(value: float, i0: float, i1: float, part: Bipartition, method: str,
            mc_samples: int | None = None, mc_stderr: float | None = None) -> EntanglingPowerReport:
    return EntanglingPowerReport(
        value=value, i0=i0, i1=i1,
        mean_haar=haar_mean(part), upper_bound=upper_bound(part),
        method=method, mc_samples=mc_samples, mc_stderr=mc_stderr,
    )


def ep_closed(gate: UnitaryGate) -> EntanglingPowerReport:
    """Entangling power via the closed form ``1 - C_{d1} C_{d2} (I_0 + I_1)``."""
    part = gate.part
    i0, i1 = (float(t[0]) for t in _i0_i1(gate.matrix, part))
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
        raise DimensionError(
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
    out = (prod @ matrix.T).reshape(-1, part.d1, part.d2)
    purity = np.einsum("nab,ncb,ncd,nad->n", out, out.conj(), out, out.conj(), optimize=True)
    return 1.0 - purity.real


def ep_monte_carlo(gate: UnitaryGate, n_samples: int, seed: SeedSpec,
                   threads: int | None = None) -> EntanglingPowerReport:
    """Entangling power as a sample mean over Haar product states.

    Samples are spread over a fixed set of seed substreams and reduced in
    stream order, so the estimate is deterministic for a given seed no matter
    how many workers run the blocks.  The report carries the sample count and
    the standard error of the mean.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    part = gate.part

    def one_block(args):
        b, count = args
        p1, p2 = product_state_block(part, seed.substream(b), count)
        return _batch_entropies(gate.matrix, part, p1, p2)

    sizes = block_sizes(n_samples)
    chunks = _map_ordered(one_block, list(enumerate(sizes)), threads)
    values = np.concatenate(chunks)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else float("inf")
    i0, i1 = (float(t[0]) for t in _i0_i1(gate.matrix, part))
    return _report(mean, i0, i1, part, "monte_carlo", mc_samples=n_samples, mc_stderr=stderr)


def ep_on_states(gate: UnitaryGate, states: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Plain average of output linear entropies over an explicit list of product pairs.

    Supports arbitrary user-chosen input distributions, e.g. one supported on
    computational basis states only.
    """
    if not states:
        raise ValidationError("states list is empty")
    part = gate.part
    total = 0.0
    for p1, p2 in states:
        psi = kron(np.asarray(p1).reshape(-1, 1), np.asarray(p2).reshape(-1, 1))
        total += linear_entropy(gate.matrix @ psi, part)
    return total / len(states)


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
    swap = _swap_matrix(d)

    def functional(m: np.ndarray) -> float:
        u = m.reshape(d, d, d, d)
        cu = u.conj()
        inner = np.einsum("abcd,efgh,ebgd,afch->", cu, cu, u, u, optimize=True)
        return d**3 + float(inner.real)

    c = _c(d)
    return 1.0 - c * c * (functional(gate.matrix) + functional(swap @ gate.matrix))


def _swap_matrix(d: int) -> np.ndarray:
    idx = np.arange(d * d).reshape(d, d)
    m = np.zeros((d * d, d * d))
    m[idx.T.ravel(), np.arange(d * d)] = 1.0
    return m


def haar_gate(part: Bipartition, seed: SeedSpec) -> UnitaryGate:
    """A Haar-random gate on the given bipartition."""
    from .sampling import haar_unitary

    return UnitaryGate(haar_unitary(part.dim, seed), part)


def _map_ordered(fn, items, threads: int | None):
    """Apply ``fn`` over ``items`` and return results in input order.

    ``threads`` > 1 runs blocks on a thread pool; the ordered reduction keeps
    results identical to the sequential run.
    """
    n = resolve_threads(threads)
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def resolve_threads(threads: int | None) -> int:
    """Worker count: explicit argument, else the ENTPOW_THREADS variable, else 1.

    A count below 1, from either source, is a :class:`ValidationError`.
    """
    source = "threads"
    if threads is None:
        import os

        env = os.environ.get("ENTPOW_THREADS")
        if not env:
            return 1
        source = "ENTPOW_THREADS"
        try:
            threads = int(env)
        except ValueError:
            raise ValidationError(f"ENTPOW_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise ValidationError(f"{source} must be >= 1, got {threads}")
    return int(threads)
