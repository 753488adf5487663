"""Per-layer metrics from a traced pass's aggregated spans.

A drift *evaluation* is a call of a ``Drift`` method that takes points
``x``.  It is *top level* when no other drift evaluation caused it, and a
*base* evaluation when a drift of another class caused it, as
``MollifiedDrift`` does for each quadrature node.  A span's layer is the
module that defines the callable; the experiment functions are the layer
``experiments``.
"""

from __future__ import annotations

SMALL_BATCH = 64  # drift calls of at most this many points
LARGE_BATCH = 1024  # drift calls of at least this many points
KERNEL = "drift.Mollifier.kernel"
BANDED = "parabolic.solve_banded"


def _layer(name):
    return name.split(".", 1)[0]


def _class(name):
    parts = name.split(".")
    return parts[1] if len(parts) > 2 else None


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(trace, traced_wall_s):
    """Metric name -> value for everything the trace can give."""
    records = trace["records"]
    evals = set(trace["drift_evals"])
    counters = trace["counters"]
    m = {}

    self_s = {}
    for r in records:
        self_s[_layer(r["name"])] = self_s.get(_layer(r["name"]), 0.0) + r["self_s"]

    def outermost(layer):
        # spans of a layer that no span of the same layer caused
        return [r for r in records if _layer(r["name"]) == layer and _layer(r["parent"]) != layer]

    top = [r for r in records if r["name"] in evals and r["parent"] not in evals]
    base = [r for r in records if r["name"] in evals and r["parent"] in evals
            and _class(r["name"]) != _class(r["parent"])]
    delegating = {_class(r["parent"]) for r in base}

    m["experiments.self_s"] = self_s.get("experiments", 0.0)
    m["harness.report_s"] = sum(
        r["inclusive_s"] for r in records if r["name"] == "harness.ExperimentReport.write")

    m["drift.calls"] = sum(r["calls"] for r in top)
    m["drift.points"] = sum(r["calls"] * r["points"] for r in top)
    m["drift.base_calls"] = sum(r["calls"] for r in base)
    m["drift.fanout"] = _ratio(
        sum(r["calls"] * r["points"] for r in base),
        sum(r["calls"] * r["points"] for r in top if _class(r["name"]) in delegating))
    small = [r for r in top if r["points"] <= SMALL_BATCH]
    large = [r for r in top if r["points"] >= LARGE_BATCH]
    m["drift.small.points_per_s"] = _ratio(
        sum(r["calls"] * r["points"] for r in small), sum(r["inclusive_s"] for r in small))
    m["drift.large.points_per_s"] = _ratio(
        sum(r["calls"] * r["points"] for r in large), sum(r["inclusive_s"] for r in large))

    m["noise.streams"] = counters["streams"]
    m["noise.normals"] = counters["normals"]

    flow_evals = [r for r in top if _layer(r["parent"]) == "flow"]
    m["flow.calls"] = sum(r["calls"] for r in outermost("flow"))
    m["flow.drift_calls"] = sum(r["calls"] for r in flow_evals)
    m["flow.euler_steps"] = sum(r["calls"] * r["points"] for r in flow_evals)
    m["flow.points_per_step"] = _ratio(m["flow.euler_steps"], m["flow.drift_calls"])
    m["flow.euler_steps_per_s"] = _ratio(
        m["flow.euler_steps"], sum(r["inclusive_s"] for r in outermost("flow")))

    banded = [r for r in records if r["name"] == BANDED]
    m["parabolic.solves"] = counters["solves"]
    m["parabolic.banded_solves"] = sum(r["calls"] for r in banded)
    m["parabolic.banded_s"] = sum(r["inclusive_s"] for r in banded)
    m["parabolic.cn_nodes"] = sum(r["calls"] * r["points"] for r in banded)
    m["parabolic.pad_frac"] = _ratio(counters["pad_solves"], m["parabolic.banded_solves"])
    m["parabolic.drift_calls"] = sum(r["calls"] for r in top if _layer(r["parent"]) == "parabolic")

    windows = [r for r in records if r["name"] == KERNEL and _layer(r["parent"]) == "transport"]
    n_windows = sum(r["calls"] for r in windows)
    # a window holding a jump gets extra cell edges, so the plain stencil is the smallest
    plain = min((r["points"] for r in windows), default=0)
    m["transport.calls"] = sum(r["calls"] for r in outermost("transport"))
    m["transport.conv_windows"] = n_windows
    m["transport.quad_nodes"] = sum(r["calls"] * r["points"] for r in windows)
    m["transport.unsplit_window_frac"] = _ratio(
        sum(r["calls"] for r in windows if r["points"] == plain), n_windows)
    m["transport.drift_calls"] = sum(r["calls"] for r in top if _layer(r["parent"]) == "transport")

    for layer in ("drift", "noise", "flow", "parabolic", "transport"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        m[f"{layer}.share"] = _ratio(self_s.get(layer, 0.0), traced_wall_s)
    return m
