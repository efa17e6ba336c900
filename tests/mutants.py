"""Mutation check: make one small wrong change at a time and see whether the tests notice.

Each mutation replaces one exact snippet of one module of ``src/entpow`` in a
temporary copy of ``src`` and ``tests``, then runs that module's test files
with ``pytest -x``.  The mutation is *killed* if they fail or time out, and
*survived* if they pass: a survivor is wrong code that the suite accepts.  A
mutation whose snippet is no longer found exactly once is *stale*; the code
has moved, and its line here must follow it.  Run it from anywhere::

    python3 tests/mutants.py

It prints one line per mutation and then the score, and exits 1 if any
mutation is stale.  The file name has no ``test_`` prefix, so pytest does not
collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: seconds one mutant's test run may take; a run that hangs counts as killed
TIMEOUT = 600

#: module -> the test files run against its mutations
TESTS = {
    "power": ["test_power.py", "test_properties.py", "test_saturation.py", "test_designs.py"],
    "sampling": ["test_sampling.py"],
    "search": ["test_search.py"],
    "spectrum": ["test_spectrum.py"],
    "tensorops": ["test_tensorops.py"],
    "gates": ["test_gates.py"],
    "channels": ["test_channels.py"],
    "cli": ["test_cli.py"],
}

#: (module, what the mutation breaks, snippet, replacement)
MUTATIONS = [
    ("power", "upper bound constant",
     "return (b - b / a) / (b + 1)", "return (b - b / a) / (b + 2)"),
    ("power", "gradient drops the A1 term",
     "* (g0 + g1)", "* g0"),
    ("power", "Monte Carlo stderr with ddof=0",
     "values.std(ddof=1)", "values.std(ddof=0)"),
    ("power", "ep_on_states normalization tolerance 1e-3",
     "if defect > ATOL:\n        raise ValidationError(f\"product state",
     "if defect > 1e-3:\n        raise ValidationError(f\"product state"),
    ("power", "UnitaryGate keeps the caller's array",
     "ensure_finite(np.array(self.matrix, dtype=complex), \"gate matrix\")",
     "ensure_finite(self.matrix, \"gate matrix\")"),
    ("power", "unitarity tolerance 1e-3",
     "if defect > ATOL:\n            raise ValidationError(\n                f\"matrix is not unitary",
     "if defect > 1e-3:\n            raise ValidationError(\n                f\"matrix is not unitary"),
    ("power", "Haar mean denominator",
     "/ (part.d1 * part.d2 + 1)", "/ (part.d1 * part.d2)"),
    ("power", "linear_entropy skips the unit-state check",
     "psi = unit_vector(state, part.dim, \"state\")", "psi = ensure_finite(state, \"state\").reshape(-1)"),
    ("power", "closed form subtracts I1",
     "_c(part.d2) * (i0 + i1)", "_c(part.d2) * (i0 - i1)"),
    ("power", "dense oracle cap exclusive",
     "if part.dim > DENSE_ORACLE_MAX_DIM:", "if part.dim >= DENSE_ORACLE_MAX_DIM:"),
    ("power", "Monte Carlo accepts one sample",
     "if n_samples < 2:", "if n_samples < 1:"),
    ("power", "trace constants take the row factor: n d1 for I0 and n d2 for I1",
     "(a0, undo0, part.dim * part.d2), (a1, undo1, part.dim * part.d1)",
     "(a0, undo0, part.dim * part.d1), (a1, undo1, part.dim * part.d2)"),
    ("power", "A0 on the larger side: its Gram has max(d1, d2)^4 entries",
     "_REARRANGEMENTS[part.d1 <= part.d2]", "_REARRANGEMENTS[part.d1 > part.d2]"),
    ("power", "gradient undoes the rearrangements by their forward axes",
     ".transpose(undo)", ".transpose(axes)"),
    ("power", "ep_values passes I0 twice to the closed form",
     "return _closed_form(*plan.traces(), part)", "return _closed_form(*plan.traces()[:1] * 2, part)"),
    ("power", "A's written-out column count takes the wrong factor",
     "slot.reshape(n, rows, r.shape[3] * r.shape[4])", "slot.reshape(n, rows, r.shape[2] * r.shape[4])"),
    ("power", "the Gram's flat size inferred, which an empty stack leaves ambiguous",
     "t.reshape(n, rows * rows)", "t.reshape(n, -1)"),
    ("power", "the plan ignores count and evaluates its whole stack",
     "views if count is None else (v[:count] for v in views)", "views"),
    ("power", "product states built with the factors in the wrong order",
     "np.einsum(\"ni,nj->nij\", p1, p2)", "np.einsum(\"ni,nj->nji\", p1, p2)"),
    ("power", "product states sent through U^T instead of U",
     "prod @ matrix.T", "prod @ matrix"),
    ("power", "purity taken from the larger reduction's Gram",
     "m = m.transpose(0, 2, 1)", "m = m"),
    ("power", "ep_on_states accepts an empty list",
     "    if not states:\n", "    if False:\n"),
    ("sampling", "Haar sign fix multiplies rows",
     "self.column_signs = self.beta[:, None, :]", "self.column_signs = self.beta[:, :, None]"),
    ("sampling", "Haar sign fix dropped",
     "np.multiply(p.q, p.signs, out=p.q)", "np.multiply(p.q, 1, out=p.q)"),
    ("sampling", "Gaussians scaled by sqrt 2",
     "np.multiply(p.g, 1.0 / np.sqrt(2.0), out=p.g)", "np.multiply(p.g, np.sqrt(2.0), out=p.g)"),
    ("sampling", "imaginary part read from the real Gaussian block",
     "self.g_imag = self.g[:, 0].T, self.g[:, 1].T", "self.g_imag = self.g[:, 0].T, self.g[:, 0].T"),
    ("sampling", "reflected norm beta takes the sign of Re alpha",
     "np.negative(np.copysign(np.sqrt(p.beta_real, out=p.beta_real), p.alpha_real, out=p.beta_real),\n"
     "                out=p.beta_real)",
     "np.copysign(np.sqrt(p.beta_real, out=p.beta_real), p.alpha_real, out=p.beta_real)"),
    ("sampling", "tau conjugated, so zungqr multiplies the reflectors' adjoints",
     "np.subtract(p.beta, p.alpha, out=p.tau)", "np.subtract(p.beta, p.alpha.conj(), out=p.tau)"),
    ("sampling", "Gaussians fill the lower triangle column by column",
     "return np.tril_indices(n)", "return np.triu_indices(n)[::-1]"),
    ("sampling", "matrix slot not zeroed, so the squares read its last contents above the diagonal",
     "    p.x.fill(0)\n", ""),
    ("sampling", "beta's imaginary parts left as the slot held them",
     "    p.beta_imag.fill(0)\n", ""),
    ("sampling", "zungqr writes into the float slot, which still holds beta for the signs",
     "self.q, self.signs = _leading(out,", "self.q, self.signs = _leading(work[0],"),
    ("sampling", "tau's row aliased to the matrices' row",
     "work[0].view(float), *work[1:]", "work[0].view(float), work[1], work[1], work[3]"),
    ("sampling", "block_sizes gives the extra samples to the last blocks",
     "(1 if b < extra else 0)", "(1 if b >= blocks - extra else 0)"),
    ("sampling", "master seed range 65 bits",
     "self.master_seed < 2**64", "self.master_seed < 2**65"),
    ("sampling", "one stream block fewer",
     "blocks = min(NUM_STREAM_BLOCKS, n_samples)", "blocks = min(NUM_STREAM_BLOCKS - 1, n_samples)"),
    ("search", "restart generators taken out of order",
     "for r in range(first, min(first + group, restarts))]",
     "for r in reversed(range(first, min(first + group, restarts)))]"),
    ("search", "floor stop one step early",
     "centre - 1 >= MIN_STEP_EXPONENT", "centre - 2 >= MIN_STEP_EXPONENT"),
    ("search", "failed window drops the steps by 2",
     "centre - 3)", "centre - 2)"),
    ("search", "last maximum wins a tie",
     "if v > best_val:", "if v >= best_val:"),
    ("search", "tolerance stop at 10x the tolerance",
     "gain > ASCENT_TOLERANCE", "gain > 10 * ASCENT_TOLERANCE"),
    ("search", "window 2^(c+1), 2^c, 2^(c-2)",
     "_WINDOW = np.array([1, 0, -1])", "_WINDOW = np.array([1, 0, -2])"),
    ("search", "a window that gains nothing is accepted",
     "accepted = gain > 0", "accepted = gain >= 0"),
    ("search", "last permutation maximizer wins a tie",
     "best_row = int(np.argmax(values))",
     "best_row = int(len(values) - 1 - np.argmax(values[::-1]))"),
    ("search", "permutation cap exclusive",
     "if n > PERMUTATION_DIM_CAP:", "if n >= PERMUTATION_DIM_CAP:"),
    ("search", "orbit representatives let a labels skip",
     "(a_of <= max_a[:, None] + 1)", "(a_of <= max_a[:, None] + 2)"),
    ("search", "max_iters not validated",
     "if restarts < 1 or max_iters < 1:", "if restarts < 1:"),
    ("search", "no stop at an exactly zero Omega",
     "omega.any(axis=(1, 2))", "True"),
    ("search", "the ascent passes A0's and T0's rows again for A1 and T1, so its gradients read T1 for T0",
     "plan = _EvalPlan(candidates, part)",
     "plan = _EvalPlan(candidates, part, (lambda w: [w[i] for i in (0, 1, 2, 1, 2)])("
     "np.empty((3, candidates.size), dtype=complex)))"),
    ("spectrum", "dist values not clipped",
     "np.histogram(np.clip(values, 0.0, hi), bins=edges)", "np.histogram(values, bins=edges)"),
    ("spectrum", "one bin accepted",
     "if n_bins < 2:", "if n_bins < 1:"),
    ("spectrum", "threads keep going after a failed block",
     "if b >= len(sizes) or failures:", "if b >= len(sizes):"),
    ("spectrum", "one helper thread too many",
     "for _ in range(min(_cpu_count(), len(sizes)) - 1)]",
     "for _ in range(min(_cpu_count(), len(sizes)))]"),
    ("spectrum", "degenerate bound bins over [0, 1/2]",
     "hi = bound if bound > 0 else 1.0", "hi = bound if bound > 0 else 0.5"),
    ("spectrum", "part count taken per block instead of from the largest block",
     "for k in _equal_parts(sizes[b], parts) if k]",
     "for k in _equal_parts(sizes[b], -(-sizes[b] // substack_size(n))) if k]"),
    ("spectrum", "evaluation's rows shifted, so the Grams overwrite the gates' row",
     "for i in (0, 1, 2, 1, 2)]", "for i in (1, 2, 3, 2, 3)]"),
    ("spectrum", "the larger part's plans reused for the smaller part",
     "plans[k][0]), part, plans[k][1])", "plans[max(plans)][0]), part, plans[max(plans)][1])"),
    ("spectrum", "evaluation plan built on the matrices' row, not on the draw's output",
     "_EvalPlan(draw.q, part,", "_EvalPlan(draw.signs, part,"),
    ("spectrum", "empty parts evaluated",
     "for k in _equal_parts(sizes[b], parts) if k]", "for k in _equal_parts(sizes[b], parts)]"),
    ("tensorops", "ensure_finite checks only the real part",
     "if not np.isfinite(m).all():", "if not np.isfinite(m.real).all():"),
    ("tensorops", "one input tolerance 1e-3",
     "ATOL = 1e-10", "ATOL = 1e-3"),
    ("tensorops", "unit_vector admits norms off by up to 1e3 * ATOL",
     "if defect > ATOL:", "if defect > 1e3 * ATOL:"),
    ("tensorops", "matrices read as vectors",
     "if not (v.ndim == 1 or v.ndim == 2 and 1 in v.shape):", "if v.ndim > 2:"),
    ("tensorops", "a buffer's slot is the whole buffer",
     "return buf[:math.prod(shape)].reshape(shape)", "return buf.reshape(shape)"),
    ("tensorops", "kron caps only the rows",
     "if rows > DEFAULT_DIM_CAP or cols > DEFAULT_DIM_CAP:", "if rows > DEFAULT_DIM_CAP:"),
    ("tensorops", "Bipartition checks only d1",
     "if self.d1 < 1 or self.d2 < 1:", "if self.d1 < 1:"),
    ("tensorops", "bools count as integers",
     "isinstance(value, Integral) and not isinstance(value, bool)", "isinstance(value, Integral)"),
    ("tensorops", "T24 built as T13",
     "\"T24\": (0, 3, 2, 1)", "\"T24\": (2, 1, 0, 3)"),
    ("gates", "CNOT controlled on |0>",
     "[0, 1, 3, 2]", "[1, 0, 2, 3]"),
    ("gates", "swap built as the identity",
     ".reshape(d, d).T.ravel()", ".reshape(d, d).ravel()"),
    ("gates", "HS orthogonality tolerance 0.5",
     "HS_ORTHO_ATOL = 1e-8", "HS_ORTHO_ATOL = 0.5"),
    ("gates", "gate file accepts bool dimensions",
     "if type(d) is not int:", "if not isinstance(d, int):"),
    ("gates", "gate file entry may have extra numbers",
     "len(entry) != 2", "len(entry) < 2"),
    ("gates", "additive permutation accepts d = 1",
     "if d < 3 or d % 2 == 0:", "if d % 2 == 0:"),
    ("channels", "Kraus completeness tolerance 1e-3",
     "if defect > ATOL:", "if defect > 1e-3:"),
    ("channels", "partial_ep weighted by C_d2",
     "_c(k.source_gate.d1) * (tr_xt2 + tr_x2)", "_c(k.source_gate.d2) * (tr_xt2 + tr_x2)"),
    ("channels", "kraus_from_unitary skips the unit-state check",
     "psi2 = unit_vector(psi2, d2, \"fixed state\")", "psi2 = np.ravel(psi2)"),
    ("cli", "directory targets not refused",
     "raise IsADirectoryError(f\"{target} is a directory\")", "pass"),
    ("cli", "parser rebuilt on every call",
     "@functools.cache\ndef build_parser", "def build_parser"),
    ("cli", "square gates accept unequal dimensions",
     "if square and d1 != d2:", "if False:"),
    ("cli", "start time recorded as an option",
     "(\"command\", \"func\", \"started\")", "(\"command\", \"func\")"),
    ("cli", "replay ignores --out",
     "return main(argv + ([\"--out\", args.out] if args.out else []))", "return main(argv)"),
    ("cli", "MemoryError not mapped to exit 4",
     "except (ResourceLimitError, MemoryError) as exc:", "except ResourceLimitError as exc:"),
    ("cli", "failed manifest move keeps the new output",
     "os.replace(previous, targets[0])", "pass"),
    ("cli", "dimension cap exclusive",
     "d1 * d2 > DEFAULT_DIM_CAP:", "d1 * d2 >= DEFAULT_DIM_CAP:"),
]


def run_mutant(work: Path, module: str, snippet: str, replacement: str) -> str:
    """Apply one mutation in ``work``, run its module's tests, restore it; return the verdict."""
    path = work / "src" / "entpow" / f"{module}.py"
    original = path.read_text()
    if original.count(snippet) != 1:
        return "stale"
    path.write_text(original.replace(snippet, replacement))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(str(work / "tests" / name) for name in TESTS[module])],
            cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
            capture_output=True, timeout=TIMEOUT)
        return "survived" if done.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    finally:
        path.write_text(original)


def main() -> int:
    verdicts = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        for module, what, snippet, replacement in MUTATIONS:
            verdict = run_mutant(work, module, snippet, replacement)
            verdicts.append(verdict)
            print(f"{verdict:16} {module:10} {what}", flush=True)
    killed = sum(v.startswith("killed") for v in verdicts)
    print(f"{killed}/{len(verdicts)} killed, {verdicts.count('survived')} survived, "
          f"{verdicts.count('stale')} stale")
    return 1 if "stale" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
