"""entpow benchmark: user-visible runs end to end, and a traced per-layer breakdown.

Usage (from the repository root)::

    python3 bench/run.py --workload haar-dist --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload search --seed 1 --seconds 60 --trace 1 --result BENCH.json

The program is imported from ``src/`` of the checkout the script sits in and
driven in-process through ``entpow.cli.main(argv)``, warm, with ``--out`` so
output and manifest writes are timed too.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (cold import of
``entpow.cli`` plus ``build_parser()`` in fresh interpreters, median),
``wall_rel`` (a warm pass over the workload's operations in units of a fixed
reference loop timed beside each operation, passes repeated for ``--seconds``)
and ``peak_rss_mb``.  The pass time in seconds, ``wall_s``, is printed and
kept in the result file.  ``--trace 1`` measures the per-layer
metrics: the layer kernels at fixed sizes, then one untraced and one traced
pass, whose difference is the tracing overhead.

Every operation's output is checked against a reference (see
``workloads.py``); a failed operation, nonzero exit or failed check counts in
``failed``, and so does an output digest that differs between passes.  The last
line of stdout is the JSON result; a fuller record (machine block, checks,
digests, every layer) goes to ``bench/results/`` or to ``--result``, which
merges runs of several workloads into one file for ``bench/diff.py``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

import kernels
import spans
import workloads
from workloads import WORKLOADS, Outcome, digest, digest_value

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = ("import time; t = time.perf_counter(); import entpow.cli; entpow.cli.build_parser(); "
              "print(time.perf_counter() - t); import entpow; print(entpow.__file__)")
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3


@dataclass
class OpResult:
    name: str
    seconds: float
    ok: bool
    ref_seconds: float = 0.0    # reference loop time around the operation
    checks: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    bytes_written: int = 0


@dataclass
class PassResult:
    ops: list

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ENTPOW_THREADS"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds() -> float:
    """Cold import of ``entpow.cli`` plus ``build_parser()`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, module = done.stdout.split()
    if not Path(module).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up interpreter imported entpow from {module}, not {SRC}")
    return float(seconds)


def import_scipy_seconds() -> float:
    """Import time of scipy as pulled in by ``entpow.cli``, from ``-X importtime``; 0 if unused.

    importtime prints each module after its children, indented by depth; scipy's
    cost is the cumulative time of every scipy module whose importer is not scipy.
    """
    done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import entpow.cli; entpow.cli.build_parser()"],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    is_scipy = lambda name: name == "scipy" or name.startswith("scipy.")   # noqa: E731
    total, pending = 0, []      # pending: (depth, name, cumulative us) awaiting their importer
    for line in done.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].strip()
        depth = len(fields[2]) - len(fields[2].lstrip())
        while pending and pending[-1][0] > depth:
            _, child, cumulative = pending.pop()
            if is_scipy(child) and not is_scipy(name):
                total += cumulative
        pending.append((depth, name, int(fields[1])))
    total += sum(cumulative for _, name, cumulative in pending if is_scipy(name))
    return total / 1e6


def machine() -> dict:
    """Machine and build block recorded in every result file."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                                ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "caveat": f"measured with {nproc} CPU(s) available; thread-scaling figures do not "
                  "generalise to machines with more cores",
    }


def timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def run_pass(ops, reference) -> PassResult:
    """One pass over the workload's operations, each timed alone and between two reference loops."""
    results = []
    ref_before = timed(reference)
    for op in ops:
        start = perf_counter()
        try:
            outcome = op.run()
        except (Exception, SystemExit):
            outcome = Outcome(error=traceback.format_exc(limit=3))
        seconds = perf_counter() - start
        ref_after = timed(reference)
        res = OpResult(op.name, seconds, ok=False, ref_seconds=(ref_before + ref_after) / 2)
        ref_before = ref_after
        if outcome.code != 0:
            res.checks.append(("exit", False, f"code {outcome.code}: {outcome.error}"))
        else:
            try:
                res.checks = op.check(outcome)
                res.digests = {p.name: digest(p) for p in op.outputs}
                if outcome.value is not None:
                    res.digests[op.name] = digest_value(outcome.value)
                res.bytes_written = sum(p.stat().st_size for p in op.outputs
                                        if not p.name.endswith(".manifest.json"))
            except Exception as exc:   # an unreadable or changed output fails the operation
                res.checks.append(("readable", False, f"{type(exc).__name__}: {exc}"))
            res.ok = all(ok for _, ok, _ in res.checks)
        results.append(res)
    return PassResult(results)


def tally(passes: list[PassResult]) -> tuple[int, int, list]:
    """Attempted and failed operations; a digest that changes between passes is a failure."""
    attempted = failed = 0
    problems = []
    first = {op.name: op.digests for op in passes[0].ops}
    for i, p in enumerate(passes):
        for op in p.ops:
            attempted += 1
            bad = [c for c in op.checks if not c[1]]
            if op.ok and op.digests != first[op.name]:
                bad.append(("determinism", False, f"pass {i} digests differ from pass 0"))
            if bad:
                failed += 1
                problems += [f"{op.name} pass {i}: {name}: {detail}" for name, _, detail in bad]
    return attempted, failed, problems


def end_to_end(name: str, ops, passes: list[PassResult], setups: list[float]) -> tuple[dict, dict]:
    """Set-up time (median of fresh interpreters), pass time and peak memory.

    ``wall_rel`` sums, over the operations, the median over passes of each
    operation's time divided by the reference loop time around it.  On a shared
    host whose speed drifts by up to 2x over minutes, a pass time in seconds
    spreads by tens of percent between runs of the same code; the ratio, whose
    reference loop slows with the host, by much less.
    ``wall_s``, the mean pass time in seconds, is kept beside it.
    """
    measured = sum(p.wall for p in passes)
    ratios = {}
    for p in passes:
        for op in p.ops:
            ratios.setdefault(op.name, []).append(op.seconds / op.ref_seconds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_rel": (sum(statistics.median(r) for r in ratios.values()), "ratio"),
        "wall_s": (measured / len(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    if name == "haar-dist":
        metrics["gates_per_s"] = (sum(op.items for op in ops) * len(passes) / measured, "1/s")
    return metrics, {"setup_runs_s": setups, "pass_walls_s": [p.wall for p in passes],
                     "reference_loop_s": [op.ref_seconds for p in passes for op in p.ops]}


def per_layer(tracer, untraced: PassResult, traced: PassResult, kernels: dict,
              importtime_runs: int) -> tuple[dict, dict]:
    """Traced and kernel metrics, and the layer breakdown for the result file.

    Metrics of a layer none of whose boundary functions exist are left out rather
    than reported as 0 s; ``absent_layers`` names them.
    """
    summary = tracer.summary()
    layers, targets = summary["layers"], summary["targets"]
    absent = tracer.absent_layers()
    t = lambda target, key: targets.get(target, {}).get(key, 0)   # noqa: E731
    evals = t("entpow.search.ep_value", "calls")
    searches = [out for target, out in tracer.results if target.endswith("maximize_ep")]
    improved = sum(len(getattr(r, "trace", ())) for r in searches)
    climbed = sum(getattr(r, "iterations_used", 0) for r in searches)
    traced_metrics = {
        "cli": {"cli.self_s": (layers["cli"]["self_s"], "s"),
                "cli.bytes_written": (sum(op.bytes_written for op in traced.ops), "bytes")},
        "gates": {"gates.self_s": (layers["gates"]["self_s"], "s")},
        "spectrum": {"spectrum.self_s": (layers["spectrum"]["self_s"], "s")},
        "search": {"search.self_s": (layers["search"]["self_s"], "s"),
                   "search.evals": (evals, "count")},
        "power": {"power.self_s": (layers["power"]["self_s"], "s"),
                  "power.ep_value_calls": (t("entpow.spectrum.ep_value", "calls") + evals, "count")},
        "sampling": {"sampling.self_s": (layers["sampling"]["self_s"], "s"),
                     "sampling.calls": (layers["sampling"]["calls"], "count")},
    }
    if evals:
        traced_metrics["search"]["search.step_us"] = (layers["search"]["self_s"] / evals * 1e6, "us")
    if climbed:
        traced_metrics["search"]["search.improve_ratio"] = (improved / climbed, "ratio")
    metrics = {k: v for layer, group in traced_metrics.items() if layer not in absent
               for k, v in group.items()}
    scipy_s = statistics.median(import_scipy_seconds() for _ in range(importtime_runs))
    metrics["cli.import_scipy_s"] = (scipy_s, "s")
    metrics["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    metrics.update(kernels)
    self_sum = sum(row["self_s"] for row in layers.values())
    detail = {
        "layers": layers,
        "targets": targets,
        "absent_layers": absent,
        "missing_targets": tracer.missing,
        "traced_wall_s": traced.wall,
        "untraced_wall_s": untraced.wall,
        "self_sum_s": self_sum,
        "unattributed_s": traced.wall - self_sum,
    }
    return metrics, detail


def merge_result(path: Path, record: dict, workload: str, trace: int) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"benchmark": "entpow", "workloads": {}}
    data["machine"] = record.pop("machine")
    data["workloads"].setdefault(workload, {})[f"trace{trace}"] = record
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description="entpow benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", type=Path, help="result file to merge this run into")
    p.add_argument("--tiny", action="store_true", help="every size shrunk, for the smoke test")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds < 1:
        p.error("--seed must be in [0, 2**63) and --seconds at least 1")
    return args


def main(argv=None) -> int:
    if not (SRC / "entpow" / "cli.py").is_file():
        print(f"error: no entpow sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ENTPOW_THREADS", None)
    os.chdir(ROOT)      # outputs are named relative to the checkout, so manifests do not depend on it
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import entpow

    if not Path(entpow.__file__).resolve().is_relative_to(SRC):
        print(f"error: entpow imported from {entpow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = BENCH.relative_to(ROOT) / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, work, args.seed, tiny=args.tiny)
        reference = workloads.reference_loop(args.workload)
        workloads.warm_up(work)
        record = {"seed": args.seed, "seconds": args.seconds, "tiny": args.tiny}
        if args.trace == 0:
            # a set-up interpreter after every pass, so set-up time is sampled across
            # the run rather than in one burst; stop before a pass and set-up that
            # would end past --seconds, taking the last ones as their length
            passes, setups, started, last = [], [], perf_counter(), 0.0
            while not passes or perf_counter() - started + last <= args.seconds:
                begun = perf_counter()
                passes.append(run_pass(ops, reference))
                setups.append(setup_seconds())
                last = perf_counter() - begun
            while len(setups) < (1 if args.tiny else SETUP_RUNS):
                setups.append(setup_seconds())
            metrics, record["timings"] = end_to_end(args.workload, ops, passes, setups)
        else:
            kernel_metrics, record["absent_kernels"] = kernels.measure(args.seed, tiny=args.tiny)
            untraced = run_pass(ops, reference)
            with spans.Tracer() as tracer:
                traced = run_pass(ops, reference)
            passes = [untraced, traced]
            metrics, record["layers"] = per_layer(tracer, untraced, traced, kernel_metrics,
                                                  1 if args.tiny else IMPORTTIME_RUNS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted, failed, problems = tally(passes)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    contract = {m["name"]: metrics[m["name"]] for m in spec if m["name"] in metrics}
    record.update(
        machine=machine(),
        attempted=attempted, failed=failed, error_rate=failed / attempted, problems=problems,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        checks=[{"op": op.name, "pass": i, "checks": op.checks, "seconds": op.seconds,
                 "ref_seconds": op.ref_seconds}
                for i, p in enumerate(passes) for op in p.ops],
        digests={op.name: op.digests for op in passes[0].ops},
    )
    result_path = args.result or BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    merge_result(result_path, record, args.workload, args.trace)

    print(f"{args.workload}: seed {args.seed}, trace {args.trace}, {len(passes)} pass(es), "
          f"{attempted} operations, {failed} failed (error_rate {failed / attempted:.4g})")
    for problem in problems:
        print(f"  FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    if args.trace == 1:
        layers = record["layers"]
        for layer, row in layers["layers"].items():
            print(f"  layer {layer:9s} self {row['self_s']:.4f} s  calls {row['calls']}")
        print(f"  traced wall {layers['traced_wall_s']:.4f} s = layer self times "
              f"{layers['self_sum_s']:.4f} s + unattributed {layers['unattributed_s']:.2e} s")
        for layer in layers["absent_layers"]:
            print(f"  layer {layer} is absent: none of its boundary functions exist")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in contract.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
