"""The benchmark's workloads: the operations each one runs and the checks on their outputs.

Every operation is a user-visible ``entpow`` command driven in-process through
``entpow.cli.main(argv)`` with ``--out``, except the permutation search, which
has no command and is a library call.  The references the checks use are
computed here, independently of the package: analytic values, the Haar mean
and bound formulas, and an own closed-form contraction for gate files.

No operation passes ``--threads``, ``--step``, ``--decay`` or ``--method``, so
the workloads stay valid when those knobs go away.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: name -> why it was chosen; BENCHMARK.json carries the same lines
WORKLOADS = {
    "haar-dist": "entpow dist at 2x2/3x3 (2e4 gates) and 3x4/5x5 (5e3): one Haar draw and one "
                 "closed-form call per gate from Python, so sampling and ep_value dominate",
    "search": "entpow optimize at 2x2, 2x3, 2x4 plus exhaustive permutation search at 2x4: "
              "tens of thousands of sequential ep_value calls and one eigh per step",
}

SEARCH_TARGETS = {(2, 2): 2 / 9, (2, 3): 1 / 3, (2, 4): 2 / 5}
PERM_TARGET = 2 / 5


@dataclass
class Outcome:
    """What one operation produced: captured stdout, exit code or error, return value."""

    stdout: str = ""
    code: int | None = None
    error: str | None = None
    value: object = None


@dataclass
class Op:
    """One timed operation and the reference checks on what it produced."""

    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list[tuple[str, bool, str]]]
    outputs: list[Path] = field(default_factory=list)
    items: int = 0          # Haar gates the operation samples and evaluates


def haar_mean(d1: int, d2: int) -> float:
    return (d1 - 1) * (d2 - 1) / (d1 * d2 + 1)


def upper_bound(d1: int, d2: int) -> float:
    a, b = min(d1, d2), max(d1, d2)
    return (b - b / a) / (b + 1)


def reference_ep(matrix: np.ndarray, d1: int, d2: int) -> float:
    """Closed form ``1 - C_{d1} C_{d2} (I_0 + I_1)``, written out with einsum."""
    u = matrix.reshape(d1, d2, d1, d2)
    t0 = np.einsum("ajbl,cjdl->abcd", u, u.conj())
    t1 = np.einsum("jabl,jcdl->abcd", u, u.conj())
    i0 = d1 * d2 * d2 + np.sum(np.abs(t0) ** 2)
    i1 = d1 * d1 * d2 + np.sum(np.abs(t1) ** 2)
    return float(1.0 - (i0 + i1) / (d1 * (d1 + 1) * d2 * (d2 + 1)))


def read_gate(path: Path) -> tuple[np.ndarray, int, int]:
    payload = json.loads(path.read_text())
    m = np.array([[complex(re_, im) for re_, im in row] for row in payload["matrix"]])
    return m, payload["d1"], payload["d2"]


def digest(path: Path) -> str:
    """sha256 of an output; for a manifest, of its JSON without the ``wall_time`` field."""
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(data)
        manifest.pop("wall_time", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def digest_value(value) -> str:
    """sha256 of a library call's return value, through its repr."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _printed(stdout: str, key: str) -> float:
    """The number printed after ``key =`` on the command's stdout."""
    found = re.search(rf"^{re.escape(key)}\s*=\s*([-+0-9.eE]+)", stdout, re.MULTILINE)
    if found is None:
        raise ValueError(f"no '{key} =' line in the output")
    return float(found.group(1))


def _cli(argv: list[str]) -> Callable[[], Outcome]:
    def run() -> Outcome:
        import entpow.cli   # main is looked up per call, so a traced run sees the patched one

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entpow.cli.main(argv)
        return Outcome(stdout=out.getvalue(), code=code, error=err.getvalue().strip() or None)
    return run


def _dist_op(work: Path, seed: int, d1: int, d2: int, samples: int) -> Op:
    out = work / f"dist-{d1}x{d2}.csv"
    argv = ["dist", "--d1", str(d1), "--d2", str(d2), "--samples", str(samples),
            "--bins", "100", "--seed", str(seed), "--out", str(out)]

    def check(o: Outcome):
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        counts = np.array([int(r["count"]) for r in rows])
        mids = np.array([(float(r["bin_left"]) + float(r["bin_right"])) / 2 for r in rows])
        n = int(counts.sum())
        mean_bins = float(counts @ mids) / n
        stderr = math.sqrt(float(counts @ (mids - mean_bins) ** 2) / (n - 1) / n)
        mean = _printed(o.stdout, "empirical_mean")
        peak = _printed(o.stdout, "empirical_max")
        ref_mean, bound = haar_mean(d1, d2), upper_bound(d1, d2)
        return [
            ("counts_sum", n == samples, f"{n} counts for {samples} samples"),
            # the max is printed to 6 decimals; rounding is monotone, so compare at that resolution
            ("max_le_bound", peak <= round(bound, 6) + 1e-9, f"max {peak} bound {bound:.9f}"),
            ("mean_vs_haar", abs(mean - ref_mean) <= 5 * stderr,
             f"mean {mean} haar {ref_mean:.6f} stderr {stderr:.2e}"),
        ]

    return Op(f"dist-{d1}x{d2}", _cli(argv), check, [out, Path(f"{out}.manifest.json")], samples)


def _optimize_op(work: Path, seed: int, d1: int, d2: int, restarts: int, iters: int) -> Op:
    out = work / f"optimize-{d1}x{d2}.json"
    argv = ["optimize", "--d1", str(d1), "--d2", str(d2), "--restarts", str(restarts),
            "--iters", str(iters), "--seed", str(seed), "--out", str(out)]

    def check(o: Outcome):
        best = _printed(o.stdout, "best_value")
        matrix, g1, g2 = read_gate(out)
        value = reference_ep(matrix, g1, g2)
        target, bound = SEARCH_TARGETS[(d1, d2)], upper_bound(d1, d2)
        return [
            ("target", abs(best - target) <= 1e-3, f"best {best} target {target:.9f}"),
            ("gate_file_value", abs(value - best) <= 1e-8, f"gate file {value!r} printed {best}"),
            ("le_bound", value <= bound + 1e-9, f"{value!r} bound {bound!r}"),
        ]

    return Op(f"optimize-{d1}x{d2}", _cli(argv), check, [out, Path(f"{out}.manifest.json")])


def _permutation_op() -> Op:
    def run() -> Outcome:
        import entpow.search
        from entpow.tensorops import Bipartition

        best, table = entpow.search.exhaustive_permutation_max(Bipartition(2, 4))
        return Outcome(code=0, value=(best, tuple(table)))

    def check(o: Outcome):
        best = o.value[0]
        return [("target", abs(best - PERM_TARGET) <= 1e-12, f"best {best!r} target {PERM_TARGET!r}")]

    return Op("permutation-2x4", run, check)


def build(name: str, work: Path, seed: int, tiny: bool = False) -> list[Op]:
    """The operations of one workload; ``tiny`` shrinks every size for the smoke test."""
    if name == "haar-dist":
        sizes = [(2, 2, 20000), (3, 3, 20000), (3, 4, 5000), (5, 5, 5000)]
        return [_dist_op(work, seed, d1, d2, n // 100 if tiny else n) for d1, d2, n in sizes]
    if name == "search":
        configs = [(2, 2, 4, 2000), (2, 3, 6, 2500), (2, 4, 6, 6000)]
        if tiny:
            configs = [(d1, d2, 3, 600) for d1, d2, _, _ in configs]
        ops = [_optimize_op(work, seed, *cfg) for cfg in configs]
        ops.append(_permutation_op())
        return ops
    raise ValueError(f"unknown workload {name!r}")


def reference_loop(name: str) -> Callable[[], None]:
    """A fixed numpy-only stand-in for the workload's inner loop, 30-80 ms long.

    The host's CPU speed drifts by up to 2x over minutes as other tenants load
    it.  The benchmark times this loop around every operation and reports
    operation time in units of it; the loop does the same kind of work as the
    workload (small QR, ``eigh`` and closed-form contractions called from
    Python), so it slows as the operations do.  It never calls entpow and its
    inputs do not depend on the seed, so only the host moves it.
    """
    rng = np.random.default_rng(20000531)

    def ginibre(n: int) -> np.ndarray:
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)

    if name == "haar-dist":
        inputs = [(ginibre(d1 * d2), d1, d2) for d1, d2 in ((2, 2), (3, 3), (3, 4), (5, 5))]

        def loop() -> None:
            for _ in range(100):
                for z, d1, d2 in inputs:
                    q, r = np.linalg.qr(z)
                    d = np.diagonal(r)
                    reference_ep(q * (d / np.abs(d)), d1, d2)
        return loop
    if name == "search":
        inputs = []
        for d1, d2 in ((2, 2), (2, 3), (2, 4)):
            g = ginibre(d1 * d2)
            inputs.append((np.linalg.qr(ginibre(d1 * d2))[0], (g + g.conj().T) / 2, d1, d2))

        def loop() -> None:
            for _ in range(300):
                for u, h, d1, d2 in inputs:
                    w, v = np.linalg.eigh(h)
                    reference_ep((v * np.exp(0.01j * w)) @ v.conj().T @ u, d1, d2)
        return loop
    raise ValueError(f"unknown workload {name!r}")


def warm_up(work: Path) -> None:
    """Run each command once at a small size so imports, BLAS and code paths are loaded."""
    for argv in (["dist", "--d", "2", "--samples", "64", "--out", str(work / "warm.csv")],
                 ["optimize", "--d", "2", "--restarts", "1", "--iters", "50",
                  "--out", str(work / "warm-gate.json")]):
        _cli(argv)()
