"""One pass over a workload's experiments, in a fresh process.

Does what ``lab run`` does for each experiment: ``harness.load_config`` with
the seed and output directory as config overrides, then
``harness.run_experiment``.  Reports go to ``reports/`` under the working
directory, and the pass's timings, rows and environment go to ``pass.json``
beside them.  With ``--trace 1`` the layers are wrapped after set-up and the
aggregated spans go to the ``trace.json`` sidecar.

    python3 passrun.py --experiments zero-drift-sanity --offset 0 --trace 0
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiments", required=True, help="comma-separated experiment ids")
    parser.add_argument("--offset", type=int, default=0, help="added to every stock seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    import transportlab
    from transportlab import experiments, harness

    ids = args.experiments.split(",")
    configs = []
    for eid in ids:
        stock = harness.load_config(eid)
        overrides = [f"seed={stock.seed + args.offset}", 'out_dir="reports"']
        configs.append(harness.load_config(eid, overrides=overrides))
    out = {"setup_s": time.perf_counter() - _START}
    if not args.setup_only:
        out.update(run_pass(transportlab, experiments, harness, configs, args.trace))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    with open("pass.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


def run_pass(package, experiments, harness, configs, trace):
    tracer = None
    if trace:
        from tracer import Tracer

        specs = [experiments.get(c.experiment) for c in configs]
        tracer = Tracer().install(package, specs)
    results = {}
    start = time.perf_counter()
    for config in configs:
        t0 = time.perf_counter()
        entry = {"rows": [], "error": None}
        try:
            report = harness.run_experiment(config)
        except Exception:  # a failed experiment is recorded and the pass goes on
            entry["error"] = traceback.format_exc()
        else:
            entry["rows"] = [
                {"name": r.name, "measured": r.measured, "passed": r.passed} for r in report.rows
            ]
        entry["wall_s"] = time.perf_counter() - t0
        results[config.experiment] = entry
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        with open("trace.json", "w") as fh:
            json.dump(tracer.dump(), fh, indent=1)
    return {"wall_s": wall, "experiments": results, "seeds": {c.experiment: c.seed for c in configs}}


def environment():
    """Interpreter, library, BLAS and machine facts for the result file."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _blas_threads():
    """Thread counts of the OpenBLAS libraries loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    threads = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:  # a mapping whose file is gone
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(lib)] = fn()
                break
    return threads


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


if __name__ == "__main__":
    sys.exit(main())
