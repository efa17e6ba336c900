"""Command-line interface: evaluate, sample, optimize, and verify entangling power.

Commands
--------
eval      closed-form (or dense-oracle) entangling power of a named or file gate
mc        Monte Carlo estimate next to the closed-form value
dist      histogram of entangling power over Haar-random gates (CSV)
optimize  gradient-ascent maximization; writes the best gate as JSON
verify    run the analytic identity suite
replay    re-run the command recorded in a manifest file

Every output file gets a sibling ``<file>.manifest.json`` recording command,
bipartition, seed, parameters, and the full command line (``argv``, defaults
included); both are moved into place only once both are written.  Replay runs
that ``argv`` again and reproduces the output bit for bit.  Exit codes: 0
success, 2 validation error, 3 I/O error, 4 resource cap exceeded or memory
exhausted.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ResourceLimitError, ValidationError
from .gates import (load_gate, make_additive_permutation, make_cnot, make_controlled_family,
                    make_identity, make_swap, save_gate, shift_matrix)
from .power import (UnitaryGate, ep_closed, ep_dense_oracle, ep_monte_carlo,
                    haar_mean, upper_bound)
from .sampling import SeedSpec
from .search import maximize_ep
from .selfcheck import run_self_checks
from .spectrum import sample_q
from .tensorops import DEFAULT_DIM_CAP, Bipartition

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_RESOURCE = 4

#: commands whose runs write a manifest and can be replayed from it
REPLAYABLE = ("eval", "mc", "dist", "optimize")


def _dims_from_args(args, square: bool = False) -> tuple[int, int]:
    """Factor dimensions from ``--d`` or ``--d1/--d2``; ``d1*d2 > DEFAULT_DIM_CAP`` is refused."""
    if args.d is not None and (args.d1 is not None or args.d2 is not None):
        raise ValidationError("give --d or --d1/--d2, not both")
    if args.d is not None:
        d1 = d2 = args.d
    elif square:
        if args.d1 is None or args.d1 != args.d2:
            raise ValidationError("this gate needs --d (or equal --d1/--d2)")
        d1 = d2 = args.d1
    elif args.d1 is None or args.d2 is None:
        raise ValidationError("this gate needs --d or both --d1 and --d2")
    else:
        d1, d2 = args.d1, args.d2
    # dimensions below 1 are left to the constructors, which name them in their own errors
    if d1 >= 1 and d2 >= 1 and d1 * d2 > DEFAULT_DIM_CAP:
        raise ResourceLimitError(f"d1*d2 = {d1 * d2} exceeds the cap of {DEFAULT_DIM_CAP}")
    return d1, d2


def _square_dim_from_args(args) -> int:
    return _dims_from_args(args, square=True)[0]


def _controlled_shift(args) -> UnitaryGate:
    d = _square_dim_from_args(args)
    return make_controlled_family(d, [np.linalg.matrix_power(shift_matrix(d), a) for a in range(d)])


#: ``--gate`` name -> constructor from the parsed arguments
GATES = {
    "identity": lambda args: make_identity(Bipartition(*_dims_from_args(args))),
    "swap": lambda args: make_swap(_square_dim_from_args(args)),
    "cnot": lambda args: make_cnot(),
    "controlled-clock": lambda args: make_controlled_family(_square_dim_from_args(args)),
    "controlled-shift": _controlled_shift,
    "additive-perm": lambda args: make_additive_permutation(_square_dim_from_args(args)),
}


def _gate_from_args(args) -> UnitaryGate:
    fixed = "--file" if args.file else "--gate cnot" if args.gate == "cnot" else None
    if fixed and (args.d, args.d1, args.d2) != (None, None, None):
        raise ValidationError(f"{fixed} fixes the dimensions: drop --d, --d1 and --d2")
    if args.file:
        return load_gate(args.file)
    if args.gate is None:
        raise ValidationError("no gate given: use --gate or --file")
    return GATES[args.gate](args)


def _json_writer(payload):
    return lambda path: path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_outputs(args, part: Bipartition, started: float, write) -> None:
    """Write ``args.out`` by ``write(path)`` and its sibling ``<out>.manifest.json``, atomically.

    Both are written to temporary files next to their targets; only when both
    are complete is the output moved into place, then the manifest.  A hard
    link keeps the previous output until the manifest is in place, so a failed
    second move puts it back.  A failed run leaves no temporary file, and an
    existing output and manifest as they were.  ``argv`` is the command plus
    ``--<dest> <value>`` for every option that is set, defaults included, so
    replaying it re-runs the same command.
    ``seed`` is the master seed (``null`` for a command that does not sample),
    and ``parameters`` holds the other options except, for commands without a
    gate, the dimensions, recorded under ``part``.
    """
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    argv = [args.command]
    for key, value in options.items():
        if value is not None:
            argv += [f"--{key}", str(value)]
    recorded_elsewhere = {"seed"} | (set() if "gate" in options else {"d", "d1", "d2"})
    manifest = {
        "command": args.command,
        "part": {"d1": part.d1, "d2": part.d2},
        "seed": {"master_seed": args.seed} if "seed" in options else None,
        "parameters": {k: v for k, v in options.items() if k not in recorded_elsewhere},
        "argv": argv,
        "tool_version": __version__,
        "wall_time": time.perf_counter() - started,
    }
    targets = [Path(args.out), Path(args.out + ".manifest.json")]
    temps = [t.with_name(f".{t.name}.{os.getpid()}.tmp") for t in targets]
    previous = temps[0].with_suffix(".old")
    for target in targets:
        if target.is_dir():     # refused before anything is written
            raise IsADirectoryError(f"{target} is a directory")
    kept = False    # whether `previous` is a hard link to the output being replaced
    try:
        write(temps[0])
        _json_writer(manifest)(temps[1])
        try:
            os.link(targets[0], previous)
            kept = True
        except FileNotFoundError:
            pass
        os.replace(temps[0], targets[0])
        try:
            os.replace(temps[1], targets[1])
        except OSError:
            # undo the first move, so the output still matches its manifest
            if kept:
                kept = False    # if this move fails too, the link is the old output's last copy
                os.replace(previous, targets[0])
            else:
                targets[0].unlink()
            raise
    finally:
        for path in temps + [previous] * kept:
            path.unlink(missing_ok=True)


def _print_report(gate: UnitaryGate, report) -> None:
    print(f"gate         : {gate.part} unitary")
    print(f"method       : {report.method}")
    print(f"value        = {report.value:.12f}")
    print(f"i0           = {report.i0:.12f}")
    print(f"i1           = {report.i1:.12f}")
    print(f"haar_mean    = {report.haar_mean:.12f}")
    print(f"upper_bound  = {report.upper_bound:.12f}")
    print(f"gap_to_bound = {report.gap_to_bound:.12f}")
    if report.mc_samples is not None:
        print(f"mc_samples   = {report.mc_samples}")
        print(f"mc_stderr    = {report.mc_stderr:.3e}")


def cmd_eval(args) -> int:
    started = time.perf_counter()
    gate = _gate_from_args(args)
    report = ep_dense_oracle(gate) if args.method == "oracle" else ep_closed(gate)
    _print_report(gate, report)
    if args.out:
        _write_outputs(args, gate.part, started, _json_writer(dataclasses.asdict(report)))
    return EXIT_OK


def cmd_mc(args) -> int:
    started = time.perf_counter()
    gate = _gate_from_args(args)
    mc = ep_monte_carlo(gate, args.samples, SeedSpec(args.seed))
    closed = ep_closed(gate)
    print(f"gate          : {gate.part} unitary")
    print(f"mc_estimate   = {mc.value:.9f} +/- {mc.mc_stderr:.3e}  ({args.samples} samples)")
    print(f"closed_form   = {closed.value:.12f}")
    sigma = abs(mc.value - closed.value) / mc.mc_stderr if mc.mc_stderr else 0.0
    print(f"|difference|  = {abs(mc.value - closed.value):.3e}  ({sigma:.2f} stderr)")
    if args.out:
        payload = {"monte_carlo": dataclasses.asdict(mc), "closed_form": dataclasses.asdict(closed)}
        _write_outputs(args, gate.part, started, _json_writer(payload))
    return EXIT_OK


def cmd_dist(args) -> int:
    started = time.perf_counter()
    part = Bipartition(*_dims_from_args(args))
    hist = sample_q(part, args.samples, args.bins, SeedSpec(args.seed))

    def write_csv(path: Path) -> None:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_left", "bin_right", "count", "density"])
            densities = hist.densities
            for i in range(len(hist.counts)):
                writer.writerow([f"{hist.bin_edges[i]:.12g}", f"{hist.bin_edges[i + 1]:.12g}",
                                 int(hist.counts[i]), f"{densities[i]:.12g}"])

    _write_outputs(args, part, started, write_csv)
    print(f"wrote {args.out} ({args.bins} bins, {args.samples} samples)")
    print(f"empirical_mean = {hist.empirical_mean:.6f}  (haar mean {haar_mean(part):.6f})")
    print(f"empirical_max  = {hist.empirical_max:.6f}  (upper bound {upper_bound(part):.6f})")
    return EXIT_OK


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    part = Bipartition(*_dims_from_args(args))
    result = maximize_ep(part, SeedSpec(args.seed), args.restarts, args.iters)
    print(f"bipartition   : {part}")
    print(f"best_value    = {result.best_value:.9f}")
    print(f"upper_bound   = {result.bound:.9f}")
    print(f"gap_to_bound  = {result.gap_to_bound:.3e}")
    print(f"iterations    = {result.iterations_used}")
    if args.out:
        _write_outputs(args, part, started, lambda path: save_gate(result.best_gate, path))
        print(f"wrote best gate to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    extra = load_gate(args.file) if args.file else None
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
    if not isinstance(manifest, dict):
        raise ValidationError(f"manifest {args.manifest} is not a JSON object")
    if "argv" not in manifest:
        raise ValidationError(
            f"manifest {args.manifest} records no argv; it was written before manifests "
            "recorded their command line, so re-run the command to get a replayable one"
        )
    argv = manifest["argv"]
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise ValidationError(f"manifest {args.manifest}: argv must be a list of strings")
    if not argv or argv[0] not in REPLAYABLE:
        raise ValidationError(
            f"manifest {args.manifest}: argv must start with one of {', '.join(REPLAYABLE)}"
        )
    # argparse keeps the last occurrence, so an appended --out overrides the recorded one
    return main(argv + (["--out", args.out] if args.out else []))


def _add_dim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, help="both factor dimensions (square bipartition)")
    p.add_argument("--d1", type=int, help="first factor dimension")
    p.add_argument("--d2", type=int, help="second factor dimension")


def _add_gate_args(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--gate", choices=list(GATES), help="named gate family")
    source.add_argument("--file", help="gate file in the JSON matrix format")
    _add_dim_args(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entpow",
        description="Entangling power of bipartite unitary gates: evaluate, bound, sample, maximize.",
    )
    parser.add_argument("--version", action="version", version=f"entpow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="closed-form entangling power of one gate")
    _add_gate_args(p)
    p.add_argument("--method", choices=["closed", "oracle"], default="closed",
                   help="evaluation route (dense oracle is capped at d1*d2 <= 36)")
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mc", help="Monte Carlo estimate vs the closed form")
    _add_gate_args(p)
    p.add_argument("--seed", type=int, default=0, help="master seed (64-bit unsigned)")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--out", help="also write both reports as JSON")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("dist", help="histogram of entangling power over Haar gates")
    _add_dim_args(p)
    p.add_argument("--seed", type=int, default=0, help="master seed (64-bit unsigned)")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("optimize", help="maximize entangling power by gradient ascent on U(n)")
    _add_dim_args(p)
    p.add_argument("--seed", type=int, default=0, help="master seed (64-bit unsigned)")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--iters", type=int, default=4000)
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
        return args.func(args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
