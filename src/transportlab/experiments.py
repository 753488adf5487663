"""Registered experiments, one per acceptance check.

Each experiment function maps a validated config to (rows, series).  Default
parameters are chosen so the stock run passes its bound check within its
runtime budget; every knob can be overridden from the config file or --set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import drift as _drift
from . import flow as _flow
from . import noise as _noise
from . import parabolic as _pb
from . import transport as _tp
from .harness import ReportRow

_REGISTRY: dict = {}


@dataclass(frozen=True)
class ExperimentSpec:
    id: str
    description: str
    criterion: str
    defaults: dict
    fn: object


def register(id, description, criterion, defaults):
    def deco(fn):
        _REGISTRY[id] = ExperimentSpec(id, description, criterion, defaults, fn)
        return fn

    return deco


def get(experiment_id):
    if experiment_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return _REGISTRY[experiment_id]


def all_specs():
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def _row(name, measured, expected, tolerance, passed, **params):
    return ReportRow(
        name=name,
        params=params,
        measured=float(measured),
        expected=str(expected),
        tolerance=str(tolerance),
        passed=bool(passed),
    )


def _paths(config):
    """The config's ensemble of Brownian paths, streams 0..ensemble-1."""
    g = config.grid
    return [
        _noise.sample_brownian(config.seed, j, 1, g["T"], g["dt"])
        for j in range(int(config.ensemble))
    ]


def _mollified_power(config):
    """The experiment's drift: config.drift wins, else mollified power law."""
    if config.drift is not None:
        return _drift.drift_from_dict(config.drift)
    ex = config.extra
    return _drift.mollify_drift(
        _drift.HolderPowerDrift(gamma=ex["gamma"], cap=ex["cap"], signed=True),
        ex["eps"],
    )


# ---------------------------------------------------------------------------


@register(
    "zero-drift-sanity",
    "b = 0: the flow is the translation x + W_t and its Jacobian is 1",
    "acceptance 1",
    {
        "seed": 1,
        "grid": {"n_x": 128, "L": 2.0, "dt": 2.0**-8, "T": 1.0},
    },
)
def zero_drift_sanity(config):
    g = config.grid
    path = _noise.sample_brownian(config.seed, 0, 1, g["T"], g["dt"])
    grid = np.linspace(-g["L"], g["L"], int(g["n_x"]))
    ens = _flow.forward_flow(_drift.ZeroDrift(), path, grid, 0.0, [g["T"]])
    w = _noise.grid_values(path)[:, 0]
    err = np.max(np.abs(ens.states[:, :, 0] - (grid[None, :] + w[:, None])))
    jerr = max(
        abs(_flow.jacobian_fd(ens, i, g["T"]) - 1.0) for i in range(1, len(grid) - 1)
    )
    rows = [
        _row("translation_error", err, "0", "<1e-12", err < 1e-12, n_x=len(grid)),
        _row("jacobian_error", jerr, "0", "<1e-10", jerr < 1e-10, n_x=len(grid)),
    ]
    return rows, {}


@register(
    "det-nonuniqueness",
    "noiseless power-law drift: three distinct weak solutions, all with tiny residuals",
    "acceptance 2",
    {
        "seed": 1,
        "grid": {"n_x": 512, "n_t": 512, "T": 1.0},
        "extra": {"gamma": 0.5, "cap": 2.0, "a_values": [0.0, 0.5, 1.0]},
    },
)
def det_nonuniqueness(config):
    gamma = config.extra["gamma"]
    cap = config.extra["cap"]
    t = config.grid["T"]
    xp = float(_flow.holder_extremal_branch(gamma, cap, t))
    branch_err = abs(xp - t ** (1.0 / (1.0 - gamma)))
    out = _tp.uniqueness_gap_experiment(
        gamma,
        cap,
        _tp.StepDatum(0.0),
        t=t,
        n_x=config.grid["n_x"],
        n_s=config.grid["n_t"],
        a_values=tuple(config.extra["a_values"]),
    )
    rows = [
        _row("x_plus_closed_form", branch_err, "0", "<1e-12", branch_err < 1e-12, t=t),
        _row(
            "min_pairwise_gap",
            out["min_pairwise_gap"],
            ">=0.5",
            ">=0.5",
            out["min_pairwise_gap"] >= 0.5,
            gamma=gamma,
        ),
    ]
    for a, res in zip(out["a_values"], out["residuals"]):
        rows.append(
            _row(f"residual_a={a}", res, "0", "<5e-4", res < 5e-4, a=a, gamma=gamma)
        )
    series = {"a-vs-residual": list(zip(out["a_values"], out["residuals"]))}
    return rows, series


@register(
    "stochastic-uniqueness",
    "shared-noise separations shrink with the initial perturbation; the noiseless fan stays open",
    "acceptance 3",
    {
        "seed": 1,
        "ensemble": 100,
        "grid": {"dt": 2.0**-9, "T": 1.0},
        "ladders": {"delta": [1e-2, 1e-3, 1e-4]},
        "extra": {"gamma": 0.5, "cap": 2.0},
    },
)
def stochastic_uniqueness(config):
    gamma, cap = config.extra["gamma"], config.extra["cap"]
    spec = _drift.HolderPowerDrift(gamma=gamma, cap=cap, signed=True)
    deltas = list(config.ladders["delta"])
    g = config.grid
    rep = _flow.pathwise_uniqueness_probe(spec, _paths(config), 0.0, deltas, g["T"])
    extremal = rep.extremal_separation
    medians = [_tp._median(r["separation_at_t"]) for r in rep.rows]
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    det_err = abs(extremal - 2.0)
    rows = [
        _row(
            "noisy_median_separation_decreasing",
            float(decreasing),
            "strictly decreasing in delta",
            "bool",
            decreasing,
            medians=";".join(f"{m:.6g}" for m in medians),
        ),
        _row("extremal_branch_separation", extremal, "2.0", "<=1e-9", det_err <= 1e-9, t=g["T"]),
    ]
    series = {"delta-vs-separation": list(zip(deltas, medians))}
    return rows, series


@register(
    "mean-pde-mc",
    "Monte Carlo mean of the characteristics solution against the well-posed mean equation",
    "acceptance 4",
    {
        "seed": 1,
        "ensemble": 10000,
        "grid": {"L": 28.0, "n_x": 2048, "n_t": 512, "dt": 2.0**-8, "T": 1.0},
        "extra": {"gamma": 0.6, "cap": 2.0, "eps": 0.05, "probes": [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]},
    },
)
def mean_pde_mc(config):
    ex = config.extra
    g = config.grid
    spec = _mollified_power(config)
    u0 = _tp.SmoothBumpDatum(0.0, 1.0)
    probes = np.asarray(ex["probes"], dtype=float)
    n_paths = int(config.ensemble)
    k_t = int(round(g["T"] / g["dt"]))
    mc = np.empty((n_paths, len(probes)))
    block = 2000
    for lo in range(0, n_paths, block):
        hi = min(lo + block, n_paths)
        inc = _noise.sample_increments(config.seed, 1, g["T"], g["dt"], hi - lo, stream_offset=lo)
        pre = _flow.march(spec, inc[:, :, None, :], probes[:, None], g["dt"], 0, k_t, backward=True)
        mc[lo:hi] = u0(pre[..., 0])
    mc_mean = mc.mean(axis=0)

    bar = _pb.solve_mean_pde(spec, u0, g["L"], g["n_x"], g["n_t"], g["T"])
    pde = bar.interpolate(g["T"], probes)
    tol = 3.0 * u0.sup_norm / np.sqrt(n_paths) + 5e-3
    diff = float(np.max(np.abs(mc_mean - pde)))

    flipped = _pb.solve_mean_pde(spec, u0, g["L"], g["n_x"], g["n_t"], g["T"], laplacian_sign=-1.0)
    flipped_vals = flipped.interpolate(g["T"], probes)
    flip_diff = float(np.max(np.abs(mc_mean - flipped_vals)))
    diverged = bool(flip_diff > 10.0 * tol or flipped.notes)

    rows = [
        _row("max_probe_difference", diff, "0", f"<{tol:.6g}", diff < tol, N=n_paths),
        _row(
            "sign_flip_diverges",
            flip_diff if np.isfinite(flip_diff) else 1e300,
            "large (negative control)",
            f">{10 * tol:.6g}",
            diverged,
        ),
    ]
    series = {
        "x-vs-mc": list(zip(probes.tolist(), mc_mean.tolist())),
        "x-vs-pde": list(zip(probes.tolist(), pde.tolist())),
    }
    return rows, series


@register(
    "ito-tanaka",
    "time averages along the diffusion equal boundary terms plus a stochastic integral",
    "acceptance 5",
    {
        "seed": 42,
        "ensemble": 20,
        "grid": {"L": 12.0, "n_x": 12288, "n_t": 1024, "dt": 2.0**-12, "T": 1.0},
        "extra": {"gamma": 0.5, "cap": 2.0, "eps": 0.05, "x0": 0.1},
    },
)
def ito_tanaka(config):
    ex = config.extra
    g = config.grid
    spec = _mollified_power(config)
    f = lambda xs: spec.divergence(0.0, xs[..., None])
    reps = _pb.ito_tanaka_check(spec, f, _paths(config), ex["x0"], g["L"], g["n_x"], g["n_t"])
    rels = [rep["residual"] / (abs(rep["lhs"]) + 0.01) for rep in reps]
    med = _tp._median(rels)
    rows = [
        _row("median_relative_residual", med, "0", "<0.05", med < 0.05, paths=config.ensemble)
    ]
    series = {"path-vs-relative-residual": list(zip(range(len(rels)), rels))}
    return rows, series


@register(
    "grad-decay",
    "resolvent gradient sup-norm decays along the lambda ladder",
    "acceptance 6",
    {
        "seed": 1,
        "grid": {"L": 8.0, "n_x": 8192},
        "ladders": {"lam": [10.0, 30.0, 100.0, 300.0]},
        "extra": {"gamma": 0.05, "cap": 2.0, "eps": 0.01},
    },
)
def grad_decay(config):
    ex = config.extra
    g = config.grid
    spec = _mollified_power(config)
    study = _pb.grad_decay_study(spec, config.ladders["lam"], g["L"], g["n_x"])
    sups = [r["grad_sup"] for r in study["rows"]]
    monotone = all(b <= a for a, b in zip(sups, sups[1:]))
    slope = float("nan") if study["slope"] is None else study["slope"]  # None: every sup is 0
    rows = [
        _row(f"grad_sup_lambda={r['lambda']:g}", r["grad_sup"], "reported", "none", True,
             lam=r["lambda"])
        for r in study["rows"]
    ]
    rows += [
        _row("fitted_slope", slope, "-0.5 envelope", "[-0.65,-0.35]", -0.65 <= slope <= -0.35),
        _row("monotone_nonincreasing", float(monotone), "true", "bool", monotone),
    ]
    series = {"lambda-vs-grad": [(r["lambda"], r["grad_sup"]) for r in study["rows"]]}
    return rows, series


@register(
    "conjugated-sde",
    "direct characteristics vs the drift-removed conjugated equation mapped back",
    "acceptance 7",
    {
        "seed": 11,
        "grid": {"L": 12.0, "n_x": 4096, "dt": 2.0**-10, "T": 1.0},
        "extra": {"gamma": 0.5, "cap": 2.0, "eps": 0.05, "lam": 50.0, "x0": 0.3},
    },
)
def conjugated_sde(config):
    ex = config.extra
    g = config.grid
    spec = _mollified_power(config)
    transform = _pb.build_zvonkin_transform(spec, ex["lam"], g["L"], g["n_x"])
    path = _noise.sample_brownian(config.seed, 3, 1, g["T"], g["dt"])
    direct = _flow.integrate_sde(spec, path, ex["x0"], 0.0, g["T"])
    _, mapped = _pb.integrate_conjugated(transform, path, ex["x0"], 0.0, g["T"])
    sup = float(np.max(np.abs(direct.states[:, 0] - mapped)))
    h_x = 2.0 * g["L"] / g["n_x"]
    tol = 3.0 * (np.sqrt(g["dt"]) + h_x)
    rows = [
        _row("sup_difference", sup, "0", f"<{tol:.6g}", sup < tol, lam=ex["lam"]),
        _row("grad_sup", transform.grad_sup, "<1", "<1", transform.grad_sup < 1.0),
    ]
    series = {"t-vs-direct": list(zip(direct.times.tolist(), direct.states[:, 0].tolist()))}
    return rows, series


@register(
    "measure-preservation",
    "divergence-free rotation: the flow Jacobian stays at one",
    "acceptance 8",
    {
        "seed": 1,
        "grid": {"n_side": 32, "L": 1.0, "dt": 2.0**-8, "T": 1.0},
        "extra": {"omega": 0.01},
    },
)
def measure_preservation(config):
    g = config.grid
    spec = _drift.Rotation2DDrift(omega=config.extra["omega"])
    path = _noise.sample_brownian(config.seed, 0, 2, g["T"], g["dt"])
    side = np.linspace(-g["L"], g["L"], int(g["n_side"]))
    lattice = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1)
    ens = _flow.forward_flow(spec, path, lattice, 0.0, [g["T"]])
    n = int(g["n_side"])
    worst = 0.0
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            worst = max(worst, abs(_flow.jacobian_fd(ens, (i, j), g["T"]) - 1.0))
    rows = [
        _row("max_jacobian_error", worst, "0", "<1e-6", worst < 1e-6, omega=config.extra["omega"])
    ]
    return rows, {}


@register(
    "jacobian-consistency",
    "finite-difference Jacobian vs the exponential of the integrated divergence",
    "acceptance 9",
    {
        "seed": 5,
        "ensemble": 10,
        "grid": {"dt": 2.0**-12, "h_x": 2.0**-8, "half_width": 0.5, "T": 0.5},
        "extra": {"gamma": 0.7, "cap": 2.0, "eps": 0.05},
    },
)
def jacobian_consistency(config):
    ex = config.extra
    g = config.grid
    spec = _mollified_power(config)
    n = int(round(2 * g["half_width"] / g["h_x"]))
    xs = np.linspace(-g["half_width"], g["half_width"], n + 1)
    mid = n // 2
    k_t = int(round(g["T"] / g["dt"]))
    inc = _noise.stacked_increments(_paths(config))[:, :, None, :]
    # the centered difference at xs[mid] reads only its two lattice
    # neighbours, so march those three points; columns march independently
    traj = _flow.march(spec, inc, xs[mid - 1 : mid + 2, None], g["dt"], 0, k_t, record=True)
    jfd = (traj[-1, :, 2, 0] - traj[-1, :, 0, 0]) / (2.0 * float(xs[1] - xs[0]))
    times = g["dt"] * np.arange(k_t + 1)
    jld = _flow.jacobian_logdiv(spec, times, traj[:, :, 1], g["dt"])
    rels = (abs(np.exp(jld) - jfd) / jfd).tolist()
    med = _tp._median(rels)
    rows = [_row("median_relative_gap", med, "0", "<5e-2", med < 5e-2, gamma=ex["gamma"])]
    series = {"path-vs-relative-gap": list(zip(range(len(rels)), rels))}
    return rows, series


@register(
    "commutator-decay",
    "mollification commutator against a step function dies along the eps ladder",
    "acceptance 10",
    {
        "seed": 21,
        "ensemble": 10,
        "grid": {"dt": 2.0**-8, "T": 0.5},
        "ladders": {"eps": [0.1, 0.05, 0.025, 0.0125]},
        "extra": {"gamma": 0.5, "cap": 2.0, "rho_center": 0.3, "rho_radius": 1.2,
                  "times": [0.125, 0.25, 0.5]},
    },
)
def commutator_decay(config):
    ex = config.extra
    ladder = list(config.ladders["eps"])
    v = _drift.HolderPowerDrift(gamma=ex["gamma"], cap=ex["cap"], signed=True)
    gfun = _tp.StepDatum(0.0)
    rho = _tp.TestFunction(ex["rho_center"], ex["rho_radius"])
    ladder_report = _tp.commutator_ladder(v, gfun, rho, ladder)
    vals = [abs(x) for x in ladder_report.values]
    exponent = ladder_report.decay_exponent

    g = config.grid
    times = list(ex["times"])
    medians = {e: [] for e in ladder}
    per_path = {e: [] for e in ladder}
    for j in range(int(config.ensemble)):
        path = _noise.sample_brownian(config.seed, j, 1, g["T"], g["dt"])
        ens = _flow.forward_flow(v, path, np.linspace(-5.0, 5.0, 513), 0.0, [g["T"]])
        for e in ladder:
            per_path[e].append(
                [abs(_tp.commutator_along_flow(v, gfun, e, rho, ens, tt)) for tt in times]
            )
    flow_monotone = True
    flow_medians = []
    for ti in range(len(times)):
        med = [_tp._median([vals_p[ti] for vals_p in per_path[e]]) for e in ladder]
        flow_medians.append(med)
        flow_monotone &= all(b < a for a, b in zip(med, med[1:]))
    rows = [
        _row("fitted_decay_exponent", exponent, ">=0.3", ">=0.3", exponent >= 0.3),
        _row(
            "along_flow_monotone",
            float(flow_monotone),
            "monotone decay in eps at each time",
            "bool",
            flow_monotone,
            times=";".join(str(t) for t in times),
        ),
    ]
    series = {"eps-vs-commutator": list(zip(ladder, vals))}
    for ti, tt in enumerate(times):
        series[f"eps-vs-flow-commutator-t{tt}"] = list(
            zip(ladder, flow_medians[ti])
        )
    return rows, series


@register(
    "wong-zakai",
    "random ODEs driven by smoothed noise approach the stochastic flow",
    "acceptance 11",
    {
        "seed": 31,
        "ensemble": 20,
        "grid": {"dt": 2.0**-10, "T": 1.0},
        "ladders": {"n": [8, 64]},
        "extra": {"gamma": 0.6, "cap": 2.0, "eps": 0.05, "points": [-1.0, 0.0, 1.0]},
    },
)
def wong_zakai(config):
    ex = config.extra
    g = config.grid
    spec = _mollified_power(config)
    pts = np.asarray(ex["points"], dtype=float)
    ladder = [int(n) for n in config.ladders["n"]]
    dt = g["dt"]
    steps = int(round(g["T"] / dt))
    paths = _paths(config)
    inc = _noise.stacked_increments(paths)[:, :, None, :]
    ref = _flow.march(spec, inc, pts[:, None], dt, 0, steps)[..., 0]  # (paths, points)
    med = {}
    for n in ladder:
        # random ODE x' = b(x) + W_n'(t), all paths at once; the step keeps
        # the form (b + W_n') dt
        smooth = [_noise.wong_zakai_smooth(path, n) for path in paths]
        X = np.array(np.broadcast_to(pts, ref.shape))
        for k in range(steps):
            tk = k * dt
            wdot = np.array([sp.derivative(tk)[0] for sp in smooth])
            X = X + (spec.value(tk, X[..., None])[..., 0] + wdot[:, None]) * dt
        med[n] = _tp._median(np.abs(X - ref))
    ratio = med[ladder[0]] / med[ladder[-1]]
    rows = [
        _row(
            "error_reduction_8_to_64",
            ratio,
            ">=1.5",
            ">=1.5",
            ratio >= 1.5,
            med_coarse=med[ladder[0]],
            med_fine=med[ladder[-1]],
        )
    ]
    series = {"n-vs-error": [(n, med[n]) for n in ladder]}
    return rows, series


@register(
    "random-drift-negative",
    "noise-dependent drift: both explicit branches solve the equation, no selection",
    "acceptance 12",
    {
        "seed": 1,
        "grid": {"dt": 2.0**-8, "T": 1.0},
    },
)
def random_drift_negative(config):
    g = config.grid
    path = _noise.sample_brownian(config.seed, 0, 1, g["T"], g["dt"])
    rep = _flow.random_drift_negative_probe(path, 0.0, g["T"])
    tol = 5.0 * g["dt"]
    sep_err = abs(rep["separation_at_t"] - 0.25)
    rows = [
        _row("residual_zero_branch", rep["residual_zero"], "0", f"<{tol:.6g}", rep["residual_zero"] < tol),
        _row("residual_parabola_branch", rep["residual_parabola"], "0", f"<{tol:.6g}", rep["residual_parabola"] < tol),
        _row("branch_separation", rep["separation_at_t"], "0.25", "<1e-12", sep_err < 1e-12),
    ]
    return rows, {}


@register(
    "sobolev-jacobian",
    "integrated squared gradient of log J across the mollification ladder, low vs high exponent",
    "acceptance 13",
    {
        "seed": 13,
        "ensemble": 32,
        "grid": {"dt": 2.0**-9, "T": 0.5, "n_x": 128, "r": 0.5},
        "ladders": {"eps": [0.1, 0.05, 0.025]},
        "extra": {"gammas": [0.25, 0.75], "cap": 2.0},
    },
)
def sobolev_jacobian(config):
    ex = config.extra
    g = config.grid
    rows_data = _flow.sobolev_jacobian_probe(
        ex["gammas"],
        config.ladders["eps"],
        _paths(config),
        g["r"],
        cap=ex["cap"],
        n_x=g["n_x"],
        t=g["T"],
    )
    ladder = list(config.ladders["eps"])
    growth = {}
    series = {}
    for gamma in ex["gammas"]:
        sub = {r["eps"]: r["estimate"] for r in rows_data if r["gamma"] == gamma}
        growth[gamma] = sub[ladder[-1]] / sub[ladder[0]]
        series[f"eps-vs-estimate-gamma{gamma}"] = [(e, sub[e]) for e in ladder]
    low, high = min(ex["gammas"]), max(ex["gammas"])
    ordered = growth[low] > growth[high]
    rows = [
        _row(
            "growth_ratio_ordering",
            growth[low] / growth[high],
            f"gamma={low} grows faster than gamma={high}",
            ">1",
            ordered,
            growth_low=growth[low],
            growth_high=growth[high],
        )
    ]
    return rows, series
