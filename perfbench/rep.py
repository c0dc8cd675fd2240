"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition with the BLAS thread
variables pinned, and reads the JSON it writes to ``--result``. Set-up is
everything from the parent's spawn to the end of the workload's set-up:
interpreter start, imports, writing the configs and, for ``wide``, the
``ltlab gen`` call. The timed body then runs the workload's ``ltlab``
invocations back to back through ``ltlab.cli.main``, each with its
standard streams captured. With ``--trace 1`` the tracer wraps the package
for the body only.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_invocation(cli, inv) -> dict:
    """Run one ``ltlab`` command line; never raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(inv.argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return {"name": inv.name, "command": inv.argv[0], "rc": rc,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def calibrate() -> float:
    """Seconds for a fixed mix of Python dispatch and small numpy kernels,
    the same kind of work as one training batch. A host-speed diagnostic."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 32))
    b = rng.standard_normal((32, 10))
    start = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        z = a @ b
        z -= z.max(axis=1, keepdims=True)
        acc += float(np.exp(z).sum()) + sum(range(i % 50))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration loop produced a non-finite value")
    return elapsed


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="repository checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="fresh directory for this repetition's files")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--spawned-ns", type=int, required=True, help="parent's time.monotonic_ns at spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy
    import ltlab.cli as cli
    from tracer import Tracer, ltlab_modules
    from workloads import WORKLOADS

    ltlab_modules()  # every module is imported in set-up, traced or not
    work = Path(args.dir)
    work.mkdir(parents=True)
    setup_invs, invs = WORKLOADS[args.workload].setup(Path(args.root), work, args.seed)
    runs = [run_invocation(cli, inv) for inv in setup_invs]
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    result = {"setup_s": setup_s, "runs": runs,
              "outputs": {inv.name: str(inv.out) for inv in setup_invs + invs}}

    if not args.setup_only:
        result["calib_s"] = calibrate()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            result["spans_installed"] = tracer.install()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        runs += [run_invocation(cli, inv) for inv in invs]
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.snapshot()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no dict form of its build config
        blas = {}
    result["numpy"] = {"numpy": numpy.__version__, "blas": blas.get("name"),
                       "blas_version": blas.get("version")}

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
