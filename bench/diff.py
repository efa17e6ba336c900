"""Compare two benchmark result files, workload by workload and metric by metric.

Usage::

    python3 bench/diff.py BASE.json NEW.json

Each row reads ``base -> new (ratio new/base)`` with a label.  An end-to-end
metric is ``better`` or ``worse`` when it moved by more than its bound in
BENCHMARK.json and ``unresolved`` when it stayed within it.  A per-layer metric
has no bound: an exact count (unit count, bytes or flop) is ``same``, ``better``
or ``worse``; a timing is ``unresolved``.  Output digests of runs with the same
seed are compared too, since the program's outputs must not change with speed.
"""

import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXACT_UNITS = {"count", "bytes", "flop"}


def label(base: float, new: float, better: str, bound: float | None, unit: str) -> str:
    if base == new:
        return "same"
    if bound is None:
        if unit not in EXACT_UNITS:
            return "unresolved"
        bound = 0.0
    change = (new - base) / abs(base) if base else float("inf") * (1 if new > base else -1)
    gain = change if better == "higher" else -change
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "unresolved"


def rows(base: dict, new: dict, spec: dict):
    """(workload, metric, base, new, unit, label) for every metric either file has."""
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        for trace in ("trace0", "trace1"):
            b = base["workloads"][workload].get(trace)
            n = new["workloads"][workload].get(trace)
            if not b or not n:
                continue
            for name in dict.fromkeys([*b["metrics"], *n["metrics"]]):
                bm, nm = b["metrics"].get(name), n["metrics"].get(name)
                if bm is None or nm is None:
                    yield workload, name, bm and bm["value"], nm and nm["value"], (bm or nm)["unit"], "absent"
                    continue
                m = known.get(name, {})
                better = m.get("better", "higher" if nm["unit"].endswith("/s") else "lower")
                yield (workload, name, bm["value"], nm["value"], nm["unit"],
                       label(bm["value"], nm["value"], better, m.get("bound"), nm["unit"]))
            yield (workload, f"error_rate.{trace}", b["error_rate"], n["error_rate"], "ratio",
                   label(b["error_rate"], n["error_rate"], "lower", None, "count"))


def digest_notes(base: dict, new: dict):
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        for trace in ("trace0", "trace1"):
            b = base["workloads"][workload].get(trace)
            n = new["workloads"][workload].get(trace)
            if b and n and b["seed"] == n["seed"] and not b.get("tiny") and not n.get("tiny"):
                same = b["digests"] == n["digests"]
                yield f"{workload} {trace} seed {b['seed']}: outputs {'identical' if same else 'DIFFER'}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(a).read_text()) for a in args)
    spec = json.loads(SPEC_PATH.read_text())
    for side, data in (("base", base), ("new", new)):
        print(f"{side}: commit {data['machine'].get('git_commit')}  python {data['machine']['python']}"
              f"  numpy {data['machine']['numpy']}  nproc {data['machine']['nproc']}")
    for workload, name, b, n, unit, verdict in rows(base, new, spec):
        ratio = f"x{n / b:.3f}" if b and n is not None else "-"
        b, n = ("-" if v is None else f"{v:.6g}" for v in (b, n))
        print(f"{workload:11s} {name:34s} {b:>12} -> {n:<12} {unit:8s} {ratio:>9} {verdict}")
    for note in digest_notes(base, new):
        print(note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
