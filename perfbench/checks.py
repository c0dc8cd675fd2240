"""Output checks for the benchmark's ``ltlab`` runs.

Every check returns a list of problems, each a ``(invocation name,
message)`` pair; an invocation with any problem counts as failed.

* ``check_reference``: at the default workload seed, each run's
  ``summary.json`` and ``metrics*.csv`` must match the values stored in
  ``reference/<workload>.json``, captured from the program. The tolerance
  (``RTOL``, ``ATOL``) admits a reordered floating-point sum: a last-bit
  change in the training arithmetic grows through 40 epochs of SGD to a
  relative change below 1e-13 in these outputs (measured with a one-ulp
  change to the initial weights of every method). Any change to a loss,
  a gradient, a weight solve or the method that ran moves them by far
  more than 1e-9.
* ``check_sweep_claims``: the paper's directional claims (acceptance
  criteria 3 to 5) on the ``sweep`` summaries at the default seed.
* ``check_sane``: at every seed, exit code 0, the summary printed on
  stdout equal to ``summary.json``, and every metric finite.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path
from statistics import median

RTOL = 1e-9
ATOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_outputs(out: Path) -> dict[str, str]:
    """The checked artifacts of one invocation: summary.json and metrics*.csv."""
    files = {}
    for path in sorted(out.glob("metrics*.csv")) + [out / "summary.json"]:
        if path.exists():
            files[path.name] = path.read_text()
    return files


def fingerprint(out: Path) -> dict[str, str]:
    """sha256 of every file an invocation wrote, by path relative to ``out``."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str) or isinstance(a, bool) or isinstance(b, bool):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=ATOL)


def _compare_json(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [p for k in want for p in _compare_json(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _compare_json(g, w, f"{where}[{i}]")]
    return [] if _close(got, want) else [f"{where}: {got!r} != {want!r}"]


def _compare_csv(got: str, want: str, where: str) -> list[str]:
    g, w = _csv_rows(got), _csv_rows(want)
    if len(g) != len(w) or (g and g[0] != w[0]):
        return [f"{where}: {len(g)} rows / header {g[:1]} != {len(w)} rows / header {w[:1]}"]
    for r, (grow, wrow) in enumerate(zip(g[1:], w[1:]), start=2):
        if len(grow) != len(wrow):
            return [f"{where} row {r}: {len(grow)} cells != {len(wrow)}"]
        for col, gv, wv in zip(w[0], grow, wrow):
            if not _close(float(gv), float(wv)):
                return [f"{where} row {r} {col}: {gv} != {wv}"]
    return []


def load_reference(workload: str) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def make_reference(seed: int, outputs: dict[str, dict[str, str]]) -> dict:
    """Reference document for one repetition's checked artifacts."""
    return {
        "seed": seed,
        "invocations": {
            name: {fname: (json.loads(text) if fname.endswith(".json") else text.splitlines())
                   for fname, text in files.items()}
            for name, files in outputs.items()
        },
    }


def check_reference(outputs: dict[str, dict[str, str]], ref: dict) -> list[tuple[str, str]]:
    problems = []
    expected = ref["invocations"]
    for name in sorted(set(expected) | set(outputs)):
        if name not in expected or name not in outputs:
            problems.append((name, "invocation missing from the run or from the reference"))
            continue
        got, want = outputs[name], expected[name]
        if set(got) != set(want):
            problems.append((name, f"files {sorted(got)} != reference {sorted(want)}"))
            continue
        for fname, wanted in want.items():
            where = f"{name}/{fname}"
            if fname.endswith(".json"):
                found = _compare_json(json.loads(got[fname]), wanted, where)
            else:
                found = _compare_csv(got[fname], "\n".join(wanted) + "\n", where)
            problems += [(name, p) for p in found]
    return problems


def check_sane(run: dict, files: dict[str, str]) -> list[str]:
    """Exit code, stdout/summary agreement and finiteness of one train run."""
    if run["rc"] != 0:
        return [f"exit code {run['rc']}: {run['stderr'].strip()[-300:]}"]
    if "summary.json" not in files:
        return ["no summary.json"]
    summary = json.loads(files["summary.json"])
    problems = []
    if json.loads(run["stdout"]) != summary:
        problems.append("stdout summary differs from summary.json")
    metric_files = [f for f in files if f.endswith(".csv")]
    if len(metric_files) != len(summary["seeds"]):
        problems.append(f"{len(metric_files)} metrics files for {len(summary['seeds'])} seeds")
    values = [v for v in summary.values() if isinstance(v, float)]
    values += [float(v) for f in metric_files for row in _csv_rows(files[f])[1:] for v in row]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite metric value")
    return problems


def _final_rows(files: dict[str, str]) -> list[dict[str, float]]:
    rows = []
    for fname in sorted(f for f in files if f.endswith(".csv")):
        table = _csv_rows(files[fname])
        rows.append({k: float(v) for k, v in zip(table[0], table[-1])})
    return rows


def check_sweep_claims(outputs: dict[str, dict[str, str]]) -> list[tuple[str, str]]:
    """Acceptance criteria 3-5 on the sweep's outputs.

    3: at IF=100, inverse(both) lowers the seed-median final rho, nc2, nc3.
    4: at every IF, inverse(both) raises mean balanced and tail accuracy.
    5: at IF=100, batch and macro alone beat ce, and both >= max of them.
    """
    final = {name: _final_rows(files) for name, files in outputs.items()}
    summary = {name: json.loads(files["summary.json"]) for name, files in outputs.items()}

    def med(name, key):
        return median(r[key] for r in final[name])

    problems = []
    for key in ("rho", "nc2", "nc3"):
        ce, inv = med("if100-ce", key), med("if100-inverse-both", key)
        if not inv < ce:
            problems.append(("if100-inverse-both", f"criterion 3: {key} {ce:.4f} -> {inv:.4f} did not drop"))
    for imb in (50, 100, 200):
        ce, inv = summary[f"if{imb}-ce"], summary[f"if{imb}-inverse-both"]
        for key in ("bal_acc_mean", "acc_tail"):
            if not inv[key] > ce[key]:
                problems.append((f"if{imb}-inverse-both",
                                 f"criterion 4: {key} {ce[key]:.4f} -> {inv[key]:.4f} did not rise"))
    ce = med("if100-ce", "bal_acc")
    batch, macro = med("if100-inverse-batch", "bal_acc"), med("if100-inverse-macro", "bal_acc")
    both = med("if100-inverse-both", "bal_acc")
    if not batch > ce:
        problems.append(("if100-inverse-batch", f"criterion 5: batch {batch:.4f} <= ce {ce:.4f}"))
    if not macro > ce:
        problems.append(("if100-inverse-macro", f"criterion 5: macro {macro:.4f} <= ce {ce:.4f}"))
    if not both >= max(batch, macro):
        problems.append(("if100-inverse-both", f"criterion 5: both {both:.4f} < max(batch, macro)"))
    return problems

