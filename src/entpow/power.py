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
from .tensorops import (ATOL, Bipartition, _leading, ensure_finite, flat_vector, kron,
                        pair_exchange, unit_vector)

#: cap on d1*d2 for the dense doubled-space oracle (matrices of side (d1*d2)^2)
DENSE_ORACLE_MAX_DIM = 36


@dataclass(frozen=True, eq=False)
class UnitaryGate:
    """A validated unitary together with the bipartition it acts on.

    The gate keeps its own read-only complex copy of ``matrix``: the caller's
    array stays writable, and writing to it does not change the gate.
    """

    matrix: np.ndarray
    part: Bipartition

    def __post_init__(self):
        m = ensure_finite(np.array(self.matrix, dtype=complex), "gate matrix")
        n = self.part.dim
        if m.shape != (n, n):
            raise DimensionError(
                f"gate matrix must be {n}x{n} for bipartition {self.part}, got {m.shape}"
            )
        defect = np.abs(m.conj().T @ m - np.eye(n)).max()
        if defect > ATOL:
            raise ValidationError(
                f"matrix is not unitary: max |U^dag U - 1| = {defect:.3e} exceeds {ATOL:.1e}"
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
    psi = unit_vector(state, part.dim, "state")
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
    """``A A^dag`` for each matrix of a stack."""
    return np.matmul(a, a.conj().transpose(0, 2, 1))


#: the ``(axes, undo)`` pairs of ``A0`` and ``A1`` (see :func:`_rearrangements`), keyed by
#: ``d1 <= d2``; ``undo``, the argsort of ``axes``, undoes the rearrangement
_REARRANGEMENTS = {d1_le_d2: tuple((axes, tuple(np.argsort(axes).tolist())) for axes in (a0, (0, 2, 3, 1, 4)))
                   for d1_le_d2, a0 in ((True, (0, 1, 3, 2, 4)), (False, (0, 2, 4, 1, 3)))}


def _rearrangements(part: Bipartition) -> tuple:
    """The ``(axes, undo, constant)`` of ``A0`` and of ``A1`` for a stack of gates on ``part``.

    The stack is indexed ``(gate, a, b, c, d)`` for ``U[(a, b), (c, d)]``.
    ``A0`` pairs the d1 indices and the d2 indices, with the smaller factor's
    pair as rows: ``A0[(a, c), (b, d)]`` when ``d1 <= d2``, its transpose
    ``A0[(b, d), (a, c)]`` otherwise.  ``A1`` is ``A1[(b, c), (a, d)]``.  So
    no Gram ``A A^dag`` has more than ``(d1 d2)^2`` entries.  ``axes``
    rearranges the stack, ``undo`` (its argsort) puts it back, and
    ``constant`` is the trace constant, ``n d2`` for ``I0`` and ``n d1`` for
    ``I1`` with ``n = d1 d2``.  This is the one place the constants are
    written: :class:`_EvalPlan` and :func:`_gradients` read them from here.
    """
    (a0, undo0), (a1, undo1) = _REARRANGEMENTS[part.d1 <= part.d2]
    return (a0, undo0, part.dim * part.d2), (a1, undo1, part.dim * part.d1)


def _gate_shape(n, part: Bipartition) -> tuple:
    """Shape of ``n`` gates with each row and column index split into its ``(d1, d2)`` pair."""
    return n, part.d1, part.d2, part.d1, part.d2


def _frobenius2(t: np.ndarray) -> np.ndarray:
    flat = t.reshape(len(t), t.shape[1] * t.shape[2])
    return np.vecdot(flat, flat).real


def _closed_form(i0, i1, part: Bipartition):
    """``1 - C_{d1} C_{d2} (I0 + I1)``: the one place the value is formed from the traces."""
    return 1.0 - _c(part.d1) * _c(part.d2) * (i0 + i1)


class _EvalPlan:
    """The closed form's two exchange-operator traces of one stack, laid out once in five rows.

    Each gate ``u``, its row and its column index each split into a ``(d1,
    d2)`` pair, is rearranged into ``A0`` and ``A1`` (:func:`_rearrangements`),
    so that contracting two copies of ``u`` against two conjugated copies
    becomes one matrix product per trace, at cost O((d1 d2)^3) per gate.  Its
    Gram ``T = A A^dag`` has at most ``n^2`` entries, ``n = d1 d2``: ``T0`` is
    the ``a^2 x a^2`` Gram of ``A0`` on the smaller side, ``a = min(d1, d2)``,
    and ``T1`` is ``n x n``.  Then ``I0 = n d2 + ||T0||^2`` and ``I1 = n d1 +
    ||T1||^2``, with the constants of :func:`_rearrangements`.

    ``work`` is five rows of at least ``N n^2`` entries each, for the
    conjugate of ``A``, for ``A0``, ``T0``, ``A1`` and ``T1``; without it the
    plan allocates them, of the stack's dtype, so real stacks stay real.  A
    caller that needs only the traces passes ``A0``'s and ``T0``'s rows again
    for ``A1`` and ``T1``, as views.  For each rearrangement the plan holds its
    trace constant, its view of ``stack``, its slots in the rows, the
    conjugate's transpose and the Gram's flat view; ``grams`` holds the views
    ``(A0, T0, A1, T1)`` that :func:`_gradients` reads once :meth:`traces`
    has filled them.  A plan serves any number of evaluations of whatever
    ``stack`` holds at the time.
    """

    def __init__(self, stack: np.ndarray, part: Bipartition, work=None):
        u = stack.reshape(_gate_shape(-1, part))
        n = u.shape[0]
        conj, a0, t0, a1, t1 = np.empty((5, u.size), dtype=u.dtype) if work is None else work
        self.steps, self.grams = [], ()
        for (axes, _, constant), rearranged, gram in zip(_rearrangements(part), (a0, a1), (t0, t1)):
            r = u.transpose(axes)
            rows = r.shape[1] * r.shape[2]
            slot = _leading(rearranged, r.shape)
            a, t = slot.reshape(n, rows, r.shape[3] * r.shape[4]), _leading(gram, (n, rows, rows))
            c = _leading(conj, a.shape)
            self.steps.append((constant, (r, slot, a, c, c.transpose(0, 2, 1), t, t.reshape(n, rows * rows))))
            self.grams += a, t

    def traces(self, count: int | None = None) -> list:
        """``[I0, I1]`` of the whole stack, or of its first ``count`` gates.

        The one place a closed-form Gram is formed: each rearrangement and
        its Gram are written into the plan's slots and reduced to the trace
        before the next starts.
        """
        traces = []
        for constant, views in self.steps:
            r, slot, a, c, c_t, t, flat = views if count is None else (v[:count] for v in views)
            np.copyto(slot, r)
            np.conjugate(a, out=c)
            np.matmul(a, c_t, out=t)
            traces.append(constant + np.vecdot(flat, flat).real)
        return traces


def ep_values(stack: np.ndarray, part: Bipartition, plan: _EvalPlan | None = None) -> np.ndarray:
    """Closed-form entangling power of a stack of (unvalidated) unitaries, ``(N, n, n) -> (N,)``.

    The one closed-form kernel: :func:`ep_value` and :func:`ep_closed` are its
    ``N = 1`` case (a single ``(n, n)`` matrix counts as a stack of one), and
    sampling loops call it on whole stacks of gates.  It forms the value by
    :func:`_closed_form` from the traces of :meth:`_EvalPlan.traces`, through
    ``plan``, an :class:`_EvalPlan` built on ``stack``, or without it through
    a plan on fresh rows.  ``dist`` evaluates each of its repeated sub-stacks
    through one plan per thread and part size, in one call per sub-stack
    through ``entpow.spectrum``'s binding of this function, which the tests
    patch to watch or fail the sub-stacks.
    """
    if plan is None:
        plan = _EvalPlan(stack, part)
    return _closed_form(*plan.traces(), part)


#: matrix entries per sub-stack of matrices (see :func:`substack_size`); caps
#: the working set without changing any value
_SUBSTACK_ENTRIES = 16384


def substack_size(n: int) -> int:
    """Most ``(n, n)`` matrices in one sub-stack passed to :func:`ep_values`.

    A sub-stack holds at most 16384 matrix entries.  It sizes ``dist``'s
    sub-stacks (:mod:`entpow.spectrum`), the number of restarts in one
    lockstep group of :func:`entpow.search.maximize_ep`, whose stack of
    three-step windows then holds at most three times as many entries, and
    the number of tables per call of
    :func:`entpow.search.exhaustive_permutation_max`.
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
    """Euclidean gradients of the closed form at a stack of unitaries, from ``(A0, T0, A1, T1)``.

    The four stacks are an :class:`_EvalPlan`'s ``grams`` once its
    :meth:`~_EvalPlan.traces` has filled them (or their rows at the gates
    wanted), so a gradient forms no Gram of its own; its plan must have
    rows of its own for ``A1`` and ``T1``.  The closed form is quartic in ``U``.  With ``T = A A^dag`` for each
    rearrangement ``A``, ``d||T||^2 = 4 Re tr((T A)^dag dA)``, so in the
    convention ``de = Re tr(G^dag dU)`` the gradient is
    ``G = -4 C_{d1} C_{d2} (R0^-1(T0 A0) + R1^-1(T1 A1))``, where ``R^-1``
    undoes each rearrangement of :func:`_rearrangements` by its undo order.
    With ``A0`` on the smaller side, ``T0 A0`` multiplies
    an ``a^2 x a^2`` Gram into an ``a^2 x b^2`` matrix, ``a = min(d1, d2)``
    and ``b = max(d1, d2)``.  Returns ``(N, n, n)``.
    """
    shape = _gate_shape(len(a0), part)
    g0, g1 = ((t @ a).reshape([shape[i] for i in axes]).transpose(undo)
              for (axes, undo, _), a, t in zip(_rearrangements(part), (a0, a1), (t0, t1)))
    return (-4.0 * _c(part.d1) * _c(part.d2) * (g0 + g1)).reshape(len(a0), part.dim, part.dim)


def _report(value: float, i0: float, i1: float, part: Bipartition, method: str,
            mc_samples: int | None = None, mc_stderr: float | None = None) -> EntanglingPowerReport:
    return EntanglingPowerReport(
        value=value, i0=i0, i1=i1,
        haar_mean=haar_mean(part), upper_bound=upper_bound(part),
        gap_to_bound=upper_bound(part) - value,
        method=method, mc_samples=mc_samples, mc_stderr=mc_stderr,
    )


def ep_closed(gate: UnitaryGate) -> EntanglingPowerReport:
    """Entangling power via the closed form ``1 - C_{d1} C_{d2} (I_0 + I_1)``.

    The ``N = 1`` case of :func:`ep_values`, bit for bit, through a one-shot
    :class:`_EvalPlan` on fresh rows, whose traces the report keeps as
    ``i0`` and ``i1``.
    """
    part = gate.part
    i0, i1 = (float(t[0]) for t in _EvalPlan(gate.matrix, part).traces())
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
    closed = ep_closed(gate)
    return _report(mean, closed.i0, closed.i1, part, "monte_carlo",
                   mc_samples=n_samples, mc_stderr=stderr)


def ep_on_states(gate: UnitaryGate, states) -> float:
    """Plain average of output linear entropies over an explicit list of product pairs.

    Supports arbitrary user-chosen input distributions, e.g. one supported on
    computational basis states only.  Each factor state may be flat, a
    column or a row, and any other shape is refused; each product
    ``|psi1| |psi2|`` must be 1 to within :data:`~entpow.tensorops.ATOL` (the
    factors need not each be unit vectors).  ``states`` is any iterable, read once, whose entries are each a
    tuple or list of the two factor states.
    """
    states = list(states)
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
    if defect > ATOL:
        raise ValidationError(f"product state is not normalized: |norm - 1| = {defect:.3e}")
    return float(_batch_entropies(gate.matrix, part, p1, p2).mean())


def _factor_states(states, d: int, which: str) -> np.ndarray:
    """One factor's states as a finite complex ``(N, d)`` array; any shape but a vector's is refused."""
    what = f"{which}-factor state"
    return ensure_finite(np.array([flat_vector(s, d, what) for s in states]), what)


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

    def functional(m: np.ndarray) -> float:
        u = m.reshape(d, d, d, d)
        cu = u.conj()
        inner = np.einsum("abcd,efgh,ebgd,afch->", cu, cu, u, u, optimize=True)
        return d**3 + float(inner.real)

    c = _c(d)
    # the swap-composed partner SWAP @ U: U with its two row factors exchanged
    swapped = gate.matrix.reshape(d, d, -1).transpose(1, 0, 2).reshape(d * d, d * d)
    return 1.0 - c * c * (functional(gate.matrix) + functional(swapped))


def haar_gate(part: Bipartition, seed: SeedSpec) -> UnitaryGate:
    """A Haar-random gate on the given bipartition."""
    return UnitaryGate(haar_unitary(part.dim, seed), part)

