"""ltlab benchmark: end-to-end and per-layer timings of ``ltlab`` runs.

Run from the root of an ltlab checkout:

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 30 --trace 0

Each repetition of a workload runs in a fresh Python process
(``perfbench/rep.py``) with the BLAS thread variables pinned to 1, and
drives ltlab only through ``ltlab.cli.main``. Within ``--seconds`` the
benchmark first starts ``SETUP_ONLY`` processes that only set up (after
one discarded warm-up that compiles bytecode), then repeats the workload
until the next repetition would overrun (at least ``MIN_REPS`` times).
Every repetition's outputs are checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics, each the median over the
run's repetitions. ``--trace 1`` then adds one traced repetition and
reports the per-layer metrics from its spans. Every metric is printed by
name with its unit; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the
run (environment, per-repetition timings, problems, span aggregates) is
written under ``.perfbench_work/records/``.

``--write-reference`` runs one repetition at the default seed and stores
its checked outputs as ``perfbench/reference/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from tracer import layer_of  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_ONLY = 3
MIN_REPS = 3
RUN_LIMIT_S = 120  # no repetition starts that would end after this, MIN_REPS or not
CHILD_TIMEOUT_S = 120
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK_DIR = ".perfbench_work"

LAYERS = ("cli", "config", "data", "trainer", "reweighting", "baselines",
          "nc_metrics", "linalg", "scheduler", "etf")

# Per-function metrics: (metric, unit, span, field) with field in calls/self/total.
FUNCTION_METRICS = (
    ("trainer.train_epoch.self_s", "s", "trainer.train_epoch", "self"),
    ("trainer.forward_batch.self_s", "s", "trainer.forward_batch", "self"),
    ("trainer.forward_batch.calls", "count", "trainer.forward_batch", "calls"),
    ("trainer.sgd_step.self_s", "s", "trainer.sgd_step", "self"),
    ("data.batch_iter.next_s", "s", "data.batch_iter", "total"),
    ("data.load_csv_dataset.self_s", "s", "data.load_csv_dataset", "self"),
    ("data.gaussian_mixture.total_s", "s", "data.gaussian_mixture", "total"),
    ("reweighting.batch_class_stats.self_s", "s", "reweighting.batch_class_stats", "self"),
    ("reweighting.effective_weights.total_s", "s", "reweighting.effective_weights", "total"),
    ("reweighting.closed_form_weight.calls", "count", "reweighting.closed_form_weight", "calls"),
    ("reweighting.update_macro_counters.self_s", "s", "reweighting.update_macro_counters", "self"),
    ("baselines.range_loss_grad.self_s", "s", "baselines.range_loss_grad", "self"),
    ("baselines.range_loss_grad.calls", "count", "baselines.range_loss_grad", "calls"),
    ("nc_metrics.make_report.total_s", "s", "nc_metrics.make_report", "total"),
    ("nc_metrics.nc1.total_s", "s", "nc_metrics.nc1", "total"),
    ("nc_metrics.nc4_agreement.self_s", "s", "nc_metrics.nc4_agreement", "self"),
    ("linalg.pinv.self_s", "s", "linalg.pinv", "self"),
    ("cli.cmd_train.self_s", "s", "cli.cmd_train", "self"),
)

# Counts per unit of work, as (metric, unit, numerator spans, denominator).
# A denominator is a span name, or "batches" for batches yielded.
RATIO_METRICS = (
    ("trainer.forward_batch_per_batch", "calls/batch", ("trainer.forward_batch",), "batches"),
    ("scheduler.lr_evals_per_batch", "calls/batch",
     ("scheduler.mile_lr_at", "scheduler.multistep_lr_at"), "batches"),
    ("nc_metrics.class_means_per_report", "calls/report",
     ("nc_metrics.class_means",), "nc_metrics.make_report"),
    ("reweighting.closed_form_calls_per_solve", "calls/solve",
     ("reweighting.closed_form_weight",), "reweighting.batch_class_stats"),
)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "passed_frac": "frac"}

# Spans each workload was chosen to exercise; any with zero calls is reported by name.
_COMMON_SPANS = (
    "cli.main", "cli.cmd_train", "config.load_experiment_config", "trainer.run_experiment",
    "trainer.train_epoch", "trainer.forward_batch", "trainer.sgd_step", "data.batch_iter",
    "nc_metrics.make_report", "nc_metrics.nc1", "nc_metrics.nc4_agreement",
    "nc_metrics.class_means", "linalg.pinv", "reweighting.update_macro_counters",
)
_SOLVE_SPANS = ("reweighting.batch_class_stats", "reweighting.effective_weights",
                "reweighting.closed_form_weight")
EXPECTED_SPANS = {
    "sweep": _COMMON_SPANS + _SOLVE_SPANS + ("data.gaussian_mixture", "scheduler.multistep_lr_at"),
    "methods": _COMMON_SPANS + _SOLVE_SPANS + (
        "data.gaussian_mixture", "scheduler.multistep_lr_at", "baselines.range_loss_grad",
        "baselines.inv_freq_weights", "baselines.inv_sqrt_weights", "baselines.cb_weights",
        "baselines.ib_class_coefficients"),
    "wide": _COMMON_SPANS + _SOLVE_SPANS + (
        "data.load_csv_dataset", "scheduler.mile_lr_at", "scheduler.mittag_leffler",
        "scheduler.entropy_alpha"),
}


def per_layer_spec() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"), (f"{layer}.self_share", "frac")]
    spec += [(m, u) for m, u, _, _ in FUNCTION_METRICS]
    spec += [("baselines.range_loss_grad.self_share", "frac"), ("trainer.batches", "count")]
    spec += [(m, u) for m, u, _, _ in RATIO_METRICS]
    spec += [("traced_wall_s", "s"), ("trace_coverage_frac", "frac"), ("tracing_overhead_frac", "frac")]
    return spec


def per_layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    spans, yields = trace["spans"], trace["yields"]

    def field(span: str, kind: str) -> float:
        calls, total, own = spans.get(span, (0, 0, 0))
        return {"calls": calls, "total": total / 1e9, "self": own / 1e9}[kind]

    values = {}
    for layer in LAYERS:
        members = [v for k, v in spans.items() if layer_of(k) == layer]
        self_s = sum(v[2] for v in members) / 1e9
        values[f"{layer}.calls"] = sum(v[0] for v in members)
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.self_share"] = self_s / traced_wall
    for metric, _, span, kind in FUNCTION_METRICS:
        values[metric] = field(span, kind)
    values["baselines.range_loss_grad.self_share"] = field("baselines.range_loss_grad", "self") / traced_wall
    batches = yields.get("data.batch_iter", 0)
    values["trainer.batches"] = batches
    for metric, _, numer, denom in RATIO_METRICS:
        base = batches if denom == "batches" else field(denom, "calls")
        values[metric] = sum(field(s, "calls") for s in numer) / base if base else 0.0
    values["traced_wall_s"] = traced_wall
    values["trace_coverage_frac"] = sum(v[2] for v in spans.values()) / 1e9 / traced_wall
    values["tracing_overhead_frac"] = traced_wall / untraced_wall - 1.0
    return values


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/mounts."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if path.is_relative_to(mount) and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


class Bench:
    """One benchmark run: spawns repetitions, checks them, keeps a record."""

    def __init__(self, root: Path, workload: str, seed: int, trace: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = root / WORK_DIR / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.reference = checks.load_reference(workload) if seed == DEFAULT_SEED else None
        self.first_fingerprint: dict[str, dict[str, str]] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[float] = []
        self.reps: list[dict] = []
        self.count = 0

    def spawn(self, trace: int = 0, setup_only: bool = False) -> tuple[dict, Path]:
        self.count += 1
        rep_dir = self.work / f"rep{self.count}"
        result_path = self.work / f"rep{self.count}.json"
        cmd = [sys.executable, str(BENCH_DIR / "rep.py"), "--root", str(self.root),
               "--workload", self.workload, "--seed", str(self.seed), "--dir", str(rep_dir),
               "--result", str(result_path), "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--spawned-ns", str(time.monotonic_ns())]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            detail = proc.stderr.strip()[-500:]
            ok = proc.returncode == 0 and result_path.exists()
        except subprocess.TimeoutExpired:
            detail, ok = f"repetition exceeded {CHILD_TIMEOUT_S} s", False
        if not ok:
            return {"runs": [{"name": "repetition", "command": "", "rc": 1, "stdout": "", "stderr": detail}],
                    "outputs": {}}, rep_dir
        with open(result_path) as fh:
            return json.load(fh), rep_dir

    def check(self, result: dict, rep_dir: Path) -> None:
        """Check one repetition's outputs and count its runs."""
        problems: dict[str, list[str]] = {}
        train_outputs = {}
        for run in result["runs"]:
            name = run["name"]
            out = Path(result["outputs"].get(name, rep_dir))
            if run["rc"] != 0 or run["command"] != "train":
                problems[name] = [] if run["rc"] == 0 else [f"exit code {run['rc']}: {run['stderr'][-300:]}"]
                continue
            files = checks.read_outputs(out)
            train_outputs[name] = files
            problems[name] = checks.check_sane(run, files)
        complete = train_outputs and all(not p for p in problems.values())
        if complete and self.reference is not None:
            for name, msg in checks.check_reference(train_outputs, self.reference):
                problems.setdefault(name, []).append(msg)
        if complete and self.workload == "sweep" and self.seed == DEFAULT_SEED:
            for name, msg in checks.check_sweep_claims(train_outputs):
                problems.setdefault(name, []).append(msg)
        if train_outputs:
            prints = {name: checks.fingerprint(Path(out)) for name, out in result["outputs"].items()}
            if self.first_fingerprint is None:
                self.first_fingerprint = prints
            for name, fp in prints.items():
                if fp != self.first_fingerprint.get(name):
                    problems.setdefault(name, []).append("outputs differ from the run's first repetition")
        self.attempted += len(problems)
        self.failed += sum(1 for p in problems.values() if p)
        self.problems += [f"rep{self.count} {name}: {msg}" for name, ps in problems.items() for msg in ps]
        shutil.rmtree(rep_dir, ignore_errors=True)

    def repetition(self, trace: int = 0) -> dict | None:
        result, rep_dir = self.spawn(trace)
        self.check(result, rep_dir)
        if "wall_s" not in result:
            return None
        self.setups.append(result["setup_s"])
        return result

    def run(self, seconds: float) -> None:
        self.work.mkdir(parents=True)
        warm, warm_dir = self.spawn(setup_only=True)  # compiles bytecode, fills caches
        self.check(warm, warm_dir)
        start = time.monotonic()
        for _ in range(SETUP_ONLY):
            result, rep_dir = self.spawn(setup_only=True)
            self.check(result, rep_dir)
            if "setup_s" in result:
                self.setups.append(result["setup_s"])
        durations = []
        while True:
            began = time.monotonic()
            result = self.repetition()
            durations.append(time.monotonic() - began)
            if result is not None:
                self.reps.append(result)
            next_end = time.monotonic() - start + median(durations)
            if next_end > RUN_LIMIT_S or (len(durations) >= MIN_REPS and next_end > seconds):
                break

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": median(r["wall_s"] for r in self.reps),
            "cpu_s": median(r["cpu_s"] for r in self.reps),
            "setup_s": median(self.setups),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in self.reps),
            "passed_frac": 1.0 - self.failed / self.attempted,
        }


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": THREAD_ENV,
        "loadavg": list(os.getloadavg()),
        "tempdir": tempfile.gettempdir(),
        "tempdir_fs": _fs_type(Path(tempfile.gettempdir()).resolve()),
        "workdir_fs": _fs_type((root / WORK_DIR).resolve()),
    }


def _print_metrics(metrics: dict[str, float], units: dict[str, str]) -> None:
    width = max(len(k) for k in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ltlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this workload's outputs at the default seed as its reference")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # Turn SIGTERM into SystemExit, so the running repetition is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "ltlab" / "cli.py").is_file() or not (root / "configs" / "default.ini").is_file():
        print("perfbench: run from the root of an ltlab checkout (src/ltlab and configs/ not found)",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, args.trace)
    try:
        if args.write_reference:
            return write_reference(bench)
        return report(bench, args)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def write_reference(bench: Bench) -> int:
    if bench.seed != DEFAULT_SEED:
        print(f"perfbench: references are taken at the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    bench.work.mkdir(parents=True)
    result, rep_dir = bench.spawn()
    if any(run["rc"] != 0 for run in result["runs"]):
        print(f"perfbench: a run failed; no reference written: {result['runs']}", file=sys.stderr)
        return 1
    outputs = {run["name"]: checks.read_outputs(Path(result["outputs"][run["name"]]))
               for run in result["runs"] if run["command"] == "train"}
    path = checks.REFERENCE_DIR / f"{bench.workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(checks.make_reference(bench.seed, outputs), fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def report(bench: Bench, args) -> int:
    env = environment(bench.root)
    bench.run(args.seconds)
    record = {"workload": bench.workload, "seed": bench.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env}
    if not bench.reps:
        print("perfbench: no repetition completed:\n  " + "\n  ".join(bench.problems), file=sys.stderr)
        return 1
    env.update(bench.reps[0]["numpy"])
    end_to_end = bench.end_to_end()
    units = dict(END_TO_END_UNITS)
    metrics = end_to_end
    if args.trace:
        began = time.monotonic()
        traced = bench.repetition(trace=1)
        if traced is None:
            print("perfbench: traced repetition failed:\n  " + "\n  ".join(bench.problems), file=sys.stderr)
            return 1
        metrics = per_layer_metrics(traced["trace"], traced["wall_s"], end_to_end["wall_s"])
        units = dict(per_layer_spec())
        installed = set(traced["spans_installed"])
        spans = traced["trace"]["spans"]
        missing = [s for s in EXPECTED_SPANS[bench.workload] if spans.get(s, (0,))[0] == 0]
        gone = sorted({s for _, _, s, _ in FUNCTION_METRICS} - installed)
        if missing or gone:
            print(f"perfbench: expected spans with zero calls: {missing}; metric spans not found: {gone}",
                  file=sys.stderr)
        record.update(trace_s=time.monotonic() - began, spans=spans, expected_zero=missing,
                      spans_not_found=gone)
    env["loadavg_end"] = list(os.getloadavg())
    record.update(
        end_to_end=end_to_end,
        repetitions=[{k: r.get(k) for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "calib_s")}
                     for r in bench.reps],
        setups=bench.setups, attempted=bench.attempted, failed=bench.failed, problems=bench.problems,
    )
    records = bench.root / WORK_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    with open(records / f"{bench.workload}-seed{bench.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    calib = [r["calib_s"] for r in bench.reps]
    print(f"ltlab benchmark: workload {bench.workload}, seed {bench.seed}, {len(bench.reps)} repetitions, "
          f"{len(bench.setups)} set-ups, python {env['python']}, numpy {env.get('numpy')} "
          f"({env.get('blas')} {env.get('blas_version')}), nproc {env['nproc']}, "
          f"calibration {min(calib):.4f}-{max(calib):.4f} s")
    for problem in bench.problems:
        print(f"  FAILED {problem}")
    _print_metrics(metrics, units)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
