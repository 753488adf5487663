"""Benchmark of the transportlab experiments, end to end and layer by layer.

    python3 perfbench/run.py --workload paths --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

Run from the repository root.  A workload is a fixed list of registered
experiments at their stock configs; ``--seed`` is added to every stock seed.
Each pass runs in a fresh process (``passrun.py``).  ``--trace 0`` runs set-up
probes and then untraced passes for ``--seconds`` (at least one pass) and
reports the end-to-end metrics.  ``--trace 1`` runs one untraced pass and one
traced pass and reports the per-layer metrics.  ``--workload all`` runs every
workload both ways.  Every metric is printed as ``name value unit``; the last
line of standard output is one JSON object.  README.md in this directory
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import filecmp
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from layers import per_layer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Why each workload exists is in README.md; the split comes from profiles
# of each experiment at its stock config.
WORKLOADS = {
    "paths": ["stochastic-uniqueness", "jacobian-consistency", "measure-preservation",
              "zero-drift-sanity", "random-drift-negative"],
    "pde": ["grad-decay", "mean-pde-mc", "conjugated-sde"],
    "quadrature": ["commutator-decay", "det-nonuniqueness"],
}
SMOKE = {"smoke": ["zero-drift-sanity"]}  # one cheap experiment, for the benchmark's own test
SETUP_PROBES = 4  # set-up-only processes per untraced run, besides each pass's own set-up
RUN_LIMIT_S = 170.0  # a whole run, every child process included

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"experiments.{e}.wall_s": "s" for ids in WORKLOADS.values() for e in ids},
    "experiments.self_s": "s", "harness.report_s": "s",
    "drift.calls": "count", "drift.points": "count", "drift.base_calls": "count",
    "drift.fanout": "ratio", "drift.small.points_per_s": "1/s",
    "drift.large.points_per_s": "1/s", "drift.self_s": "s", "drift.share": "ratio",
    "noise.streams": "count", "noise.normals": "count", "noise.self_s": "s",
    "noise.share": "ratio",
    "flow.calls": "count", "flow.drift_calls": "count", "flow.euler_steps": "count",
    "flow.points_per_step": "ratio", "flow.euler_steps_per_s": "1/s", "flow.self_s": "s",
    "flow.share": "ratio",
    "parabolic.solves": "count", "parabolic.banded_solves": "count",
    "parabolic.banded_s": "s", "parabolic.cn_nodes": "count", "parabolic.pad_frac": "ratio",
    "parabolic.drift_calls": "count", "parabolic.self_s": "s", "parabolic.share": "ratio",
    "transport.calls": "count", "transport.conv_windows": "count",
    "transport.quad_nodes": "count", "transport.unsplit_window_frac": "ratio",
    "transport.drift_calls": "count", "transport.self_s": "s", "transport.share": "ratio",
    "trace.overhead_s": "s", "failed_frac": "ratio",
}


class PassError(RuntimeError):
    pass


def run_child(ids, seed, pass_dir, deadline, trace=0, setup_only=False):
    """Run passrun.py in pass_dir and return its pass.json."""
    os.makedirs(pass_dir)
    env = dict(os.environ)
    # absolute, because the child runs in pass_dir
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--experiments", ",".join(ids),
           "--offset", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    log_path = os.path.join(pass_dir, "log.txt")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=pass_dir, env=env, stdout=log, stderr=log,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise PassError(f"pass in {pass_dir} overran the run limit") from exc
    if proc.returncode != 0:
        with open(log_path) as fh:
            raise PassError(f"pass in {pass_dir} exited {proc.returncode}:\n{fh.read()[-2000:]}")
    with open(os.path.join(pass_dir, "pass.json")) as fh:
        return json.load(fh)


def check_pass(result, pass_dir, ref_dir):
    """(experiment, kind, reason) for every problem of one pass.

    Every report row must pass, and report.csv and report.json must match the
    bytes of the first run at this seed, which the first run stores.  All
    passes write to the same relative out_dir, so the config echo matches too.
    """
    problems = []
    for eid, entry in result["experiments"].items():
        if entry["error"]:
            problems.append((eid, "raised", entry["error"].strip().splitlines()[-1]))
            continue
        problems += [(eid, "row", f"row {r['name']} failed, measured {r['measured']!r}")
                     for r in entry["rows"] if not r["passed"]]
        produced = os.path.join(pass_dir, "reports", eid)
        reference = os.path.join(ref_dir, eid)
        if not os.path.isdir(reference):
            staging = reference + f".tmp{os.getpid()}"
            shutil.copytree(produced, staging)
            os.replace(staging, reference)
            continue
        for name in ("report.csv", "report.json"):
            if not filecmp.cmp(os.path.join(produced, name), os.path.join(reference, name),
                               shallow=False):
                problems.append((eid, "bytes", f"{name} differs from the first run at this seed"))
    return problems


def run_workload(workload, ids, seed, seconds, trace, out_root):
    """One benchmark run; returns the JSON result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = os.path.join(out_root, workload, f"seed{seed}")
    ref_dir = os.path.join(run_dir, "ref")
    last = os.path.join(run_dir, "last")
    shutil.rmtree(last, ignore_errors=True)
    os.makedirs(ref_dir, exist_ok=True)

    passes = []  # (kind, pass dir, pass.json)

    def one_pass(kind, **kw):
        pass_dir = os.path.join(last, f"{len(passes):02d}-{kind}")
        passes.append((kind, pass_dir, run_child(ids, seed, pass_dir, deadline, **kw)))
        return passes[-1][2]

    if trace:
        untraced = [one_pass("untraced")]
        traced = one_pass("traced", trace=1)
    else:
        for _ in range(SETUP_PROBES):
            one_pass("setup", setup_only=True)
        untraced = []
        begin = time.monotonic()
        while True:
            t0 = time.monotonic()
            untraced.append(one_pass("untraced"))
            now = time.monotonic()
            if now - begin + (now - t0) > seconds or now + (now - t0) > deadline:
                break

    failures, attempted = [], 0
    for kind, pass_dir, result in passes:
        if kind == "setup":
            continue
        attempted += len(result["experiments"])
        problems = check_pass(result, pass_dir, ref_dir)
        failures += [{"pass": os.path.basename(pass_dir), "experiment": e, "kind": k, "reason": r}
                     for e, k, r in problems]
    failed = len({(f["pass"], f["experiment"]) for f in failures})
    # a failing report row is a failed run but a reproducible, correct output
    correct = not any(f["kind"] != "row" for f in failures)

    wall = statistics.median(p["wall_s"] for p in untraced)
    if trace:
        traced_dir = passes[-1][1]
        metrics = per_layer(_read_json(os.path.join(traced_dir, "trace.json")), traced["wall_s"])
        for eid in (e for all_ids in WORKLOADS.values() for e in all_ids):
            # experiments outside this workload read 0
            metrics[f"experiments.{eid}.wall_s"] = \
                untraced[0]["experiments"].get(eid, {}).get("wall_s", 0.0)
        metrics["trace.overhead_s"] = traced["wall_s"] - wall
        metrics["failed_frac"] = failed / attempted
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(p["setup_s"] for _, _, p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        units = END_TO_END

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    _write_json(os.path.join(last, "result.json"), {
        **result,
        "workload": workload, "seed": seed, "trace": trace, "failures": failures,
        "env": {**passes[-1][2]["env"], "git_commit": _git_commit(), "src_lines": _src_lines()},
        "passes": [{"kind": k, "dir": os.path.relpath(d, out_root),
                    **{key: p[key] for key in ("setup_s", "wall_s", "peak_rss_mb", "seeds")
                       if key in p},
                    "experiments": {e: {"wall_s": x["wall_s"], "rows": x["rows"]}
                                    for e, x in p.get("experiments", {}).items()}}
                   for k, d, p in passes],
    })
    for f in failures:
        print(f"FAILED {workload} {f['pass']} {f['experiment']}: {f['reason']}")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']!r} {m['unit']}")
    return result


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines():
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def main(argv=None):
    workloads = {**WORKLOADS, **SMOKE}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0, help="offset added to every stock seed")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="untraced passes start while they fit in this time; at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"),
                        help="directory for reports, references and results")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not os.path.isfile(os.path.join(SRC, "transportlab", "__init__.py")):
        print(f"no transportlab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, workloads[args.workload], args.seed,
                                  args.seconds, args.trace, args.out)
        else:
            result = {f"{w}/trace{t}": run_workload(w, ids, args.seed, args.seconds, t, args.out)
                      for w, ids in WORKLOADS.items() for t in (0, 1)}
    except PassError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
