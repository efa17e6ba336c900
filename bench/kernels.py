"""Layer kernels at fixed sizes, called through public functions only.

Each figure is the median over repeated batches of the per-call (or per-item)
time.  A kernel whose function no longer exists is left out and named in
``absent``.
"""

import math
import statistics
from time import perf_counter

import numpy as np

DRAW_SIZES = (4, 9, 12, 25)
PAIR_SIZES = ((2, 2), (3, 3), (3, 4), (5, 5))
EP_SIZES = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (5, 5))
PAIR_BLOCK = 3125          # product pairs per block: 2e5 samples over 64 streams
PERM_PART = (2, 3)         # 6! = 720 tables per call


def haar_matrix(n: int, seed: int) -> np.ndarray:
    """A Haar unitary from numpy's default generator, so the kernel inputs do not come from the program."""
    rng = np.random.default_rng([seed, n])
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _per_call(fn, calls: int, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = perf_counter()
        for i in range(calls):
            fn(i)
        times.append((perf_counter() - start) / calls)
    return statistics.median(times)


def ep_value_flops(d1: int, d2: int) -> int:
    """Real floating-point operations of the two complex contractions in the closed form."""
    return 8 * d1 * d1 * d2 * d2 * (d1 * d1 + d2 * d2)


def measure(seed: int, tiny: bool = False) -> tuple[dict, list[str]]:
    """Kernel metrics as ``{name: (value, unit)}``, plus the names of kernels that are absent."""
    import entpow.power
    import entpow.sampling
    import entpow.search
    from entpow.tensorops import Bipartition

    scale, reps = (0.05, 1) if tiny else (1.0, 9)
    calls = lambda n: max(1, int(n * scale))   # noqa: E731
    metrics, absent = {}, []
    haar_unitary = getattr(entpow.sampling, "haar_unitary", None)
    product_state_block = getattr(entpow.sampling, "product_state_block", None)
    ep_value = getattr(entpow.power, "ep_value", None)
    perm_max = getattr(entpow.search, "exhaustive_permutation_max", None)
    seed_spec = entpow.sampling.SeedSpec

    if haar_unitary is None:
        absent.append("sampling.haar_unitary")
    else:
        for n in DRAW_SIZES:
            t = _per_call(lambda k: haar_unitary(n, seed_spec(seed, k)), calls(400), reps)
            metrics[f"sampling.haar_draw_us.n{n}"] = (t * 1e6, "us")
    if product_state_block is None:
        absent.append("sampling.product_state_block")
    else:
        for d1, d2 in PAIR_SIZES:
            part = Bipartition(d1, d2)
            t = _per_call(lambda k: product_state_block(part, seed_spec(seed, k), PAIR_BLOCK),
                          calls(40), reps)
            metrics[f"sampling.product_pair_ns.{d1}x{d2}"] = (t / PAIR_BLOCK * 1e9, "ns")
    if ep_value is None:
        absent.append("power.ep_value")
    else:
        for d1, d2 in EP_SIZES:
            part, u = Bipartition(d1, d2), haar_matrix(d1 * d2, seed)
            t = _per_call(lambda k: ep_value(u, part), calls(500), reps)
            flops = ep_value_flops(d1, d2)
            metrics[f"power.ep_value_us.{d1}x{d2}"] = (t * 1e6, "us")
            metrics[f"power.ep_value_flops.{d1}x{d2}"] = (flops, "flop")
            metrics[f"power.ep_value_gflops.{d1}x{d2}"] = (flops / t / 1e9, "GFLOP/s")
    if perm_max is None:
        absent.append("search.exhaustive_permutation_max")
    else:
        part = Bipartition(*PERM_PART)
        t = _per_call(lambda k: perm_max(part), 1, reps)
        metrics["search.perm_tables_per_s"] = (math.factorial(part.dim) / t, "1/s")
    return metrics, absent
