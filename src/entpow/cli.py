"""Command-line interface: evaluate, sample, optimize, and verify entangling power.

Commands
--------
eval      closed-form (or dense-oracle) entangling power of a named or file gate
mc        Monte Carlo estimate next to the closed-form value
dist      histogram of entangling power over Haar-random gates (CSV)
optimize  hill-climb maximization; writes the best gate as JSON
verify    run the analytic identity suite
replay    re-run the command recorded in a manifest file

Every output file gets a sibling ``<file>.manifest.json`` recording command,
bipartition, seed, and parameters; replaying the manifest reproduces the
output bit for bit.  Exit codes: 0 success, 2 validation error, 3 I/O error,
4 resource cap exceeded.
"""

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .errors import ResourceLimitError, ValidationError
from .gates import GateSpec, save_gate, shift_matrix
from .power import (UnitaryGate, ep_closed, ep_dense_oracle, ep_monte_carlo,
                    haar_mean, resolve_threads, upper_bound)
from .sampling import SeedSpec
from .search import OptimizeConfig, maximize_ep
from .selfcheck import run_self_checks
from .spectrum import sample_q
from .tensorops import Bipartition

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_RESOURCE = 4

_NAMED_GATES = ("identity", "swap", "cnot", "controlled-clock", "controlled-shift", "additive-perm")


@dataclass
class RunManifest:
    """Everything needed to reproduce one command's output."""

    command: str
    part: dict
    seed: dict
    parameters: dict = field(default_factory=dict)
    tool_version: str = __version__
    wall_time: float = 0.0

    def write(self, out_path: Path) -> None:
        manifest_path = Path(str(out_path) + ".manifest.json")
        manifest_path.write_text(json.dumps(asdict(self), indent=2) + "\n")


def _gate_spec_from_args(args) -> GateSpec:
    if args.file:
        return GateSpec("file", {"path": args.file})
    name = args.gate
    if name is None:
        raise ValidationError("no gate given: use --gate or --file")
    if name == "cnot":
        return GateSpec("cnot")
    if name == "identity":
        d1, d2 = _dims_from_args(args)
        return GateSpec("identity", {"d1": d1, "d2": d2})
    if name == "swap":
        return GateSpec("swap", {"d": _square_dim_from_args(args)})
    if name == "controlled-clock":
        return GateSpec("controlled_family", {"d": _square_dim_from_args(args)})
    if name == "controlled-shift":
        d = _square_dim_from_args(args)
        import numpy as np

        fam = [np.linalg.matrix_power(shift_matrix(d), a) for a in range(d)]
        return GateSpec("controlled_family", {"d": d, "unitaries": fam})
    if name == "additive-perm":
        return GateSpec("additive_permutation", {"d": _square_dim_from_args(args)})
    raise ValidationError(f"unknown gate name {name!r}; choices: {', '.join(_NAMED_GATES)}")


def _dims_from_args(args) -> tuple[int, int]:
    if args.d is not None:
        return args.d, args.d
    if args.d1 is None or args.d2 is None:
        raise ValidationError("this gate needs --d or both --d1 and --d2")
    return args.d1, args.d2


def _square_dim_from_args(args) -> int:
    if args.d is not None:
        return args.d
    if args.d1 is not None and args.d1 == args.d2:
        return args.d1
    raise ValidationError("this gate needs --d (or equal --d1/--d2)")


def _gate_params_for_manifest(args) -> dict:
    return {"gate": args.gate, "file": args.file, "d": args.d, "d1": args.d1, "d2": args.d2}


def _seed_from_args(args) -> SeedSpec:
    return SeedSpec(args.seed, args.stream)


def _print_report(gate: UnitaryGate, report) -> None:
    print(f"gate         : {gate.part} unitary")
    print(f"method       : {report.method}")
    print(f"value        = {report.value:.12f}")
    print(f"i0           = {report.i0:.12f}")
    print(f"i1           = {report.i1:.12f}")
    print(f"haar_mean    = {report.mean_haar:.12f}")
    print(f"upper_bound  = {report.upper_bound:.12f}")
    print(f"gap_to_bound = {report.gap_to_bound:.12f}")
    if report.mc_samples is not None:
        print(f"mc_samples   = {report.mc_samples}")
        print(f"mc_stderr    = {report.mc_stderr:.3e}")


def _report_json(report) -> dict:
    return {
        "value": report.value, "i0": report.i0, "i1": report.i1,
        "haar_mean": report.mean_haar, "upper_bound": report.upper_bound,
        "gap_to_bound": report.gap_to_bound, "method": report.method,
        "mc_samples": report.mc_samples, "mc_stderr": report.mc_stderr,
    }


def cmd_eval(args) -> int:
    started = time.perf_counter()
    gate = _gate_spec_from_args(args).resolve()
    report = ep_dense_oracle(gate) if args.method == "oracle" else ep_closed(gate)
    _print_report(gate, report)
    if args.out:
        Path(args.out).write_text(json.dumps(_report_json(report), indent=2) + "\n")
        manifest = RunManifest(
            command="eval",
            part={"d1": gate.d1, "d2": gate.d2},
            seed={"master_seed": args.seed, "stream_index": args.stream},
            parameters={**_gate_params_for_manifest(args), "method": args.method, "out": args.out},
            wall_time=time.perf_counter() - started,
        )
        manifest.write(Path(args.out))
    return EXIT_OK


def cmd_mc(args) -> int:
    started = time.perf_counter()
    gate = _gate_spec_from_args(args).resolve()
    seed = _seed_from_args(args)
    mc = ep_monte_carlo(gate, args.samples, seed, threads=args.threads)
    closed = ep_closed(gate)
    print(f"gate          : {gate.part} unitary")
    print(f"mc_estimate   = {mc.value:.9f} +/- {mc.mc_stderr:.3e}  ({args.samples} samples)")
    print(f"closed_form   = {closed.value:.12f}")
    sigma = abs(mc.value - closed.value) / mc.mc_stderr if mc.mc_stderr else 0.0
    print(f"|difference|  = {abs(mc.value - closed.value):.3e}  ({sigma:.2f} stderr)")
    if args.out:
        payload = {"monte_carlo": _report_json(mc), "closed_form": _report_json(closed)}
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        manifest = RunManifest(
            command="mc",
            part={"d1": gate.d1, "d2": gate.d2},
            seed={"master_seed": seed.master_seed, "stream_index": seed.stream_index},
            parameters={**_gate_params_for_manifest(args), "samples": args.samples,
                        "threads": args.threads, "out": args.out},
            wall_time=time.perf_counter() - started,
        )
        manifest.write(Path(args.out))
    return EXIT_OK


def cmd_dist(args) -> int:
    started = time.perf_counter()
    d1, d2 = _dims_from_args(args)
    part = Bipartition(d1, d2)
    seed = _seed_from_args(args)
    hist = sample_q(part, args.samples, args.bins, seed, threads=args.threads)
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count", "density"])
        densities = hist.densities
        for i in range(len(hist.counts)):
            writer.writerow([f"{hist.bin_edges[i]:.12g}", f"{hist.bin_edges[i + 1]:.12g}",
                             int(hist.counts[i]), f"{densities[i]:.12g}"])
    manifest = RunManifest(
        command="dist",
        part={"d1": d1, "d2": d2},
        seed={"master_seed": seed.master_seed, "stream_index": seed.stream_index},
        parameters={"samples": args.samples, "bins": args.bins,
                    "threads": args.threads, "out": args.out},
        wall_time=time.perf_counter() - started,
    )
    manifest.write(out)
    print(f"wrote {out} ({args.bins} bins, {args.samples} samples)")
    print(f"empirical_mean = {hist.empirical_mean:.6f}  (haar mean {haar_mean(part):.6f})")
    print(f"empirical_max  = {hist.empirical_max:.6f}  (upper bound {upper_bound(part):.6f})")
    return EXIT_OK


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    d1, d2 = _dims_from_args(args)
    part = Bipartition(d1, d2)
    seed = _seed_from_args(args)
    cfg = OptimizeConfig(
        part=part, seed=seed, restarts=args.restarts, max_iters=args.iters,
        initial_step=args.step, step_decay=args.decay,
    )
    result = maximize_ep(cfg, threads=args.threads)
    print(f"bipartition   : {part}")
    print(f"best_value    = {result.best_value:.9f}")
    print(f"upper_bound   = {result.bound:.9f}")
    print(f"gap_to_bound  = {result.gap_to_bound:.3e}")
    print(f"iterations    = {result.iterations_used}")
    if args.out:
        save_gate(result.best_gate, args.out)
        manifest = RunManifest(
            command="optimize",
            part={"d1": d1, "d2": d2},
            seed={"master_seed": seed.master_seed, "stream_index": seed.stream_index},
            parameters={"restarts": args.restarts, "iters": args.iters, "step": args.step,
                        "decay": args.decay, "threads": args.threads, "out": args.out},
            wall_time=time.perf_counter() - started,
        )
        manifest.write(Path(args.out))
        print(f"wrote best gate to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    extra = GateSpec("file", {"path": args.file}).resolve() if args.file else None
    results = run_self_checks(extra_gate=extra)
    failed = 0
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} identity checks passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


def cmd_replay(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest {args.manifest} is not valid JSON: {exc}") from exc
    command = manifest.get("command")
    params = dict(manifest.get("parameters", {}))
    part = manifest.get("part", {})
    seed = manifest.get("seed", {})
    if args.out:
        params["out"] = args.out
    argv = [command]
    # eval and mc record their gate arguments as given; dist and optimize only the bipartition
    for key in ("gate", "file", "d", "d1", "d2"):
        if params.get(key) is not None:
            argv += [f"--{key}", str(params[key])]
    if command in ("dist", "optimize"):
        argv += ["--d1", str(part.get("d1")), "--d2", str(part.get("d2"))]
    for key in ("samples", "bins", "restarts", "iters", "step", "decay", "method"):
        if params.get(key) is not None:
            argv += [f"--{key}", str(params[key])]
    argv += ["--seed", str(seed.get("master_seed", 0)), "--stream", str(seed.get("stream_index", 0))]
    if params.get("out"):
        argv += ["--out", str(params["out"])]
    return main(argv)


def _add_gate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gate", choices=_NAMED_GATES, help="named gate family")
    p.add_argument("--file", help="gate file in the JSON matrix format")
    p.add_argument("--d", type=int, help="factor dimension for square-bipartition gates")
    p.add_argument("--d1", type=int, help="first factor dimension")
    p.add_argument("--d2", type=int, help="second factor dimension")


def _add_seed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed (64-bit unsigned)")
    p.add_argument("--stream", type=int, default=0, help="base stream index")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entpow",
        description="Entangling power of bipartite unitary gates: evaluate, bound, sample, maximize.",
    )
    parser.add_argument("--version", action="version", version=f"entpow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="closed-form entangling power of one gate")
    _add_gate_args(p)
    _add_seed_args(p)
    p.add_argument("--method", choices=["closed", "oracle"], default="closed",
                   help="evaluation route (dense oracle is capped at d1*d2 <= 36)")
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mc", help="Monte Carlo estimate vs the closed form")
    _add_gate_args(p)
    _add_seed_args(p)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", help="also write both reports as JSON")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("dist", help="histogram of entangling power over Haar gates")
    p.add_argument("--d", type=int, help="square bipartition shortcut")
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    _add_seed_args(p)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("optimize", help="maximize entangling power by hill climbing")
    p.add_argument("--d", type=int, help="square bipartition shortcut")
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    _add_seed_args(p)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--iters", type=int, default=4000)
    p.add_argument("--step", type=float, default=0.8, help="initial perturbation step")
    p.add_argument("--decay", type=float, default=0.995, help="step decay on rejection")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", help="write the best gate in the JSON matrix format")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="run the analytic identity suite")
    p.add_argument("--file", help="also include this gate file in the checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="re-run the command recorded in a manifest")
    p.add_argument("manifest", help="path to a .manifest.json file")
    p.add_argument("--out", help="override the recorded output path")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # resolve the thread setting early so a bad --threads or ENTPOW_THREADS fails fast
        if hasattr(args, "threads"):
            resolve_threads(args.threads)
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
