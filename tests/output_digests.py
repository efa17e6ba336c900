"""Print one sha256 per output whose bytes a change that keeps behaviour must not move.

Run it in two trees and compare what they print, for example in a clone of
the parent commit and in the working tree::

    python3 tests/output_digests.py --against /path/to/parent-clone

``--against PATH`` runs the script of the tree at ``PATH`` in a child
interpreter, prints the label of every digest that differs between the two
trees, or is printed by one tree only, and exits 1 if any does.  Without it
the script prints every digest, one ``sha256  label`` line each.

Covered: ``eval`` (closed form and oracle) and ``mc`` (seed 9, 1000 and 2e5
samples) for every ``--gate`` name; ``dist`` for the four ``haar-dist``
benchmark configurations and at 4x2, and ``optimize`` for the three ``search``
ones and at 3x2 and 4x2, each at seeds 1-3 (shapes with ``d1 > d2`` take the
``A0`` Gram on the other side from those with ``d1 <= d2``); the optimizer at
criterion 7's six configurations (seed 1007); ``verify`` with and without
``--file``; and ``exhaustive_permutation_max`` at every shape with ``d1 d2 <=
10``.  Each command's stdout, output file and
manifest are digested; a manifest without its ``wall_time``.

``entpow`` is imported from the ``src`` directory of the tree this file is in.
Commands run in a fresh temporary directory with relative output names, so the
``argv`` in their manifests is the same in every tree.  The file name has no
``test_`` prefix, so pytest does not collect it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from entpow import Bipartition, SeedSpec, exhaustive_permutation_max, maximize_ep  # noqa: E402
from entpow.cli import GATES, main  # noqa: E402
from test_acceptance import OPTIMIZER_CASES  # noqa: E402

DIST_CONFIGS = [(2, 2, 20000), (3, 3, 20000), (3, 4, 5000), (5, 5, 5000), (4, 2, 20000)]
SEARCH_CONFIGS = [(2, 2, 4, 2000), (2, 3, 6, 2500), (2, 4, 6, 6000), (3, 2, 6, 2500), (4, 2, 6, 6000)]


def emit(label: str, data: bytes) -> None:
    print(f"{hashlib.sha256(data).hexdigest()}  {label}", flush=True)


def command(label: str, argv: list[str], out: str | None = None) -> None:
    """Run ``entpow`` in-process; digest its stdout and, with ``out``, the file and manifest."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + (["--out", out] if out else []))
    emit(f"{label} stdout, exit {code}", stdout.getvalue().encode())
    if out:
        emit(f"{label} output", Path(out).read_bytes())
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        manifest.pop("wall_time")
        emit(f"{label} manifest", json.dumps(manifest, sort_keys=True).encode())


def main_digests() -> None:
    for name in GATES:
        gate = ["--gate", name] + ([] if name == "cnot" else ["--d", "3"])
        for method in ("closed", "oracle"):
            command(f"eval {name} {method}", ["eval", *gate, "--method", method],
                    f"eval-{name}-{method}.json")
        for samples in (1000, 200000):
            command(f"mc {name} {samples}",
                    ["mc", *gate, "--samples", str(samples), "--seed", "9"],
                    f"mc-{name}-{samples}.json")
    for d1, d2, samples in DIST_CONFIGS:
        for seed in (1, 2, 3):
            command(f"dist {d1}x{d2} seed {seed}",
                    ["dist", "--d1", str(d1), "--d2", str(d2), "--samples", str(samples),
                     "--bins", "100", "--seed", str(seed)], f"dist-{d1}x{d2}-{seed}.csv")
    for d1, d2, restarts, iters in SEARCH_CONFIGS:
        for seed in (1, 2, 3):
            command(f"optimize {d1}x{d2} seed {seed}",
                    ["optimize", "--d1", str(d1), "--d2", str(d2), "--restarts", str(restarts),
                     "--iters", str(iters), "--seed", str(seed)], f"optimize-{d1}x{d2}-{seed}.json")
    for part, _, knobs in OPTIMIZER_CASES:
        res = maximize_ep(part, SeedSpec(1007), **knobs)
        emit(f"maximize_ep {part} seed 1007",
             repr((res.best_value, res.trace, res.iterations_used)).encode()
             + res.best_gate.matrix.tobytes())
    command("verify", ["verify"])
    command("verify --file", ["verify", "--file", "optimize-2x3-1.json"])
    for d1 in range(1, 11):
        for d2 in range(1, 10 // d1 + 1):
            emit(f"exhaustive_permutation_max {d1}x{d2}",
                 repr(exhaustive_permutation_max(Bipartition(d1, d2))).encode())


def digests(printed: str) -> dict:
    """``label -> sha256`` from the lines this script prints."""
    return {label: digest for digest, label in (line.split("  ", 1) for line in printed.splitlines())}


def against(tree: Path) -> int:
    """Print the labels whose digests differ from those of the script in ``tree``; 1 if any do."""
    child = subprocess.Popen([sys.executable, str(tree / "tests" / "output_digests.py")],
                             stdout=subprocess.PIPE, text=True)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        main_digests()
    theirs = child.communicate()[0]
    if child.returncode:
        sys.exit(f"output_digests.py in {tree} exited {child.returncode}")
    theirs, ours = digests(theirs), digests(printed.getvalue())
    differing = [label for label in {**theirs, **ours} if theirs.get(label) != ours.get(label)]
    for label in differing:
        print(label)
    print(f"{len(differing)} differ: {len(ours)} digests here, {len(theirs)} in {tree}")
    return 1 if differing else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print or compare digests of entpow's outputs.")
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="compare with the digests of the tree at PATH instead of printing them")
    args = parser.parse_args()
    tree = args.against.resolve() if args.against else None
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        if tree is None:
            main_digests()
        else:
            sys.exit(against(tree))
