"""Transport-equation solutions and weak-form machinery.

Solutions come in two kinds: the characteristics solution u(t, x) =
u0(phi_t^{-1}(x)) of the noisy equation, and the closed-form non-unique
family of the deterministic equation with the power-law drift.  The checker
tests candidate fields against the pathwise (perturbative) weak form; the
commutators of mollification are evaluated plain and composed with a flow.

Quadrature.  Space integrals use composite two-point Gauss cells, the same
number per axis and tensorized in 2-d, with cells split at every known
discontinuity of the integrand (step data, family branch curves) so jumps
never sit inside a cell.  Terms carrying div b are computed as
Riemann-Stieltjes sums against b itself, b_i across the cells of axis i, which
tolerates the integrable singularity of the power-law divergence without ever
sampling it.  A plain trapezoid rule cannot reach the tolerances used here;
the cell-split Gauss rule is the same fixed-node idea, two orders more
accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import flow as _flow
from . import noise as _noise
from .drift import Drift, HolderPowerDrift, Mollifier, _convolve_at, _edges, _gauss_nodes_weights

__all__ = [
    "StepDatum",
    "SmoothBumpDatum",
    "TestFunction",
    "TransportError",
    "CharacteristicsSolution",
    "ShiftedDatumSolution",
    "DeterministicFamilySolution",
    "ConstantField",
    "CommutatorReport",
    "deterministic_family",
    "perturbative_residual",
    "commutator",
    "commutator_ladder",
    "commutator_along_flow",
    "uniqueness_gap_experiment",
]


class TransportError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class StepDatum:
    """u0 = 1_{x > threshold}."""

    threshold: float = 0.0

    sup_norm = 1.0

    def __call__(self, x):
        return (np.asarray(x, dtype=float) > self.threshold).astype(float)

    @property
    def discontinuities(self):
        return (self.threshold,)


@dataclass(frozen=True)
class SmoothBumpDatum:
    """C^2 polynomial bump of unit height on (center - radius, center + radius)."""

    center: float = 0.0
    radius: float = 1.0

    @property
    def sup_norm(self):
        return 1.0

    def __call__(self, x):
        q = ((np.asarray(x, dtype=float) - self.center) / self.radius) ** 2
        return np.where(q < 1.0, (1.0 - np.minimum(q, 1.0)) ** 3, 0.0)

    @property
    def discontinuities(self):
        return ()


# ---------------------------------------------------------------------------
# C^2 compactly supported test functions


class TestFunction:
    """theta(x) = (1 - |x-c|^2 / r^2)^3 inside B(c, r), zero outside.

    Polynomial, so quadrature against it is exact on Gauss cells; exposes the
    gradient used by the weak form (C^2 suffices for every integral the
    checker builds).
    """

    def __init__(self, center=0.0, radius=1.0):
        c = np.atleast_1d(np.asarray(center, dtype=float))
        r = float(radius)
        if not (np.all(np.isfinite(c)) and math.isfinite(r) and r > 0.0):
            raise TransportError(
                f"test function needs a finite center and a finite radius > 0, "
                f"got center={center!r}, radius={radius!r}"
            )
        self.center = c if c.size > 1 else float(c[0])
        self.radius = r
        self.dim = c.size

    def _q(self, x):
        x = np.asarray(x, dtype=float)
        if self.dim == 1:
            return ((x - self.center) / self.radius) ** 2
        return np.sum((x - self.center) ** 2, axis=-1) / self.radius**2

    def value(self, x):
        q = self._q(x)
        return np.where(q < 1.0, (1.0 - np.minimum(q, 1.0)) ** 3, 0.0)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        q = self._q(x)
        w = np.where(q < 1.0, (1.0 - np.minimum(q, 1.0)) ** 2, 0.0)
        if self.dim == 1:
            return -6.0 * (x - self.center) * w / self.radius**2
        return -6.0 * (x - self.center) * w[..., None] / self.radius**2


def _tensor(axes):
    """Points (..., d) of the tensor grid of per-axis coordinates."""
    d = len(axes)
    points = np.empty(tuple(map(len, axes)) + (d,))
    for i, a in enumerate(axes):
        points[..., i] = a.reshape(-1, *(1,) * (d - 1 - i))
    return points


def _native(points):
    """Points (..., d) as providers and test functions take them: bare in 1-d."""
    return points[..., 0] if points.shape[-1] == 1 else points


class _Cells(NamedTuple):
    edges: tuple        # per axis
    nodes: tuple        # per axis
    weights: tuple      # per axis, shaped to broadcast over the grid
    points: np.ndarray  # tensor Gauss nodes, (..., d)
    W: np.ndarray       # product of the per-axis weights
    x: np.ndarray       # the nodes as providers take them (_native)
    shift: np.ndarray   # the grid's shift, likewise


def _cells(theta, shift, n_x, splits):
    """Two-point Gauss cells over supp theta - shift, n_x per axis, every axis
    split at ``splits``, tensorized into one grid."""
    r = theta.radius
    edges = tuple(
        _edges(c - r - w, c + r - w, n_x, splits)
        for c, w in zip(np.atleast_1d(theta.center).tolist(), shift.tolist())
    )
    nodes, weights = zip(*map(_gauss_nodes_weights, edges))
    d = len(edges)
    weights = tuple(w.reshape(-1, *(1,) * (d - 1 - i)) for i, w in enumerate(weights))
    points = _tensor(nodes)
    return _Cells(edges, nodes, weights, points, reduce(np.multiply, weights),
                  _native(points), _native(shift))


def _steps(spec: Drift, s, edge_points, axis=0):
    """b_i(e+) - b_i(e-), i = ``axis``, across the cells of that axis;
    ``edge_points`` (..., d) runs over the cell edges along ``axis``."""
    bvals = spec.value(s, edge_points)[..., axis]
    hi = (slice(None),) * axis + (slice(1, None),)
    lo = (slice(None),) * axis + (slice(None, -1),)
    return bvals[hi] - bvals[lo]


def _stieltjes_div(spec: Drift, s, edge_points, cofactor_at_mid, axis=0):
    """int d_i b_i(s, x) cofactor(x) dx, i = ``axis``, as the Riemann-Stieltjes
    sum of (b_i(e+) - b_i(e-)) cofactor(mid) over the cells of that axis."""
    return float(np.sum(_steps(spec, s, edge_points, axis) * cofactor_at_mid))


def _sharp_points(spec: Drift):
    if isinstance(spec, HolderPowerDrift):
        return (-spec.cap, 0.0, spec.cap)
    return ()


# ---------------------------------------------------------------------------
# solution providers: callables u(s, x-array) with u0 and known jump locations


class ConstantField:
    """u identically constant (trivial solution for divergence-free drift).

    No experiment uses it: it is an exact solution that tests hold the weak
    forms against.
    """

    def __init__(self, value, dim=1):
        self.c = float(value)
        self.dim = dim
        self.u0 = lambda x: np.full(np.shape(np.asarray(x)[..., 0] if dim > 1 else x), self.c)

    def __call__(self, s, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1] if self.dim > 1 else x.shape
        return np.full(shape, self.c)

    def discontinuities(self, s):
        return ()


class ShiftedDatumSolution:
    """Exact zero-drift solution u(s, x) = u0(x - W_s).

    No experiment uses it: it is the closed form that tests compare the weak
    forms and the characteristics solution against.
    """

    def __init__(self, path, u0):
        self.path = path
        self.u0 = u0

    def __call__(self, s, x):
        w = _noise.evaluate(self.path, s)[0]
        return self.u0(np.asarray(x, dtype=float) - w)

    def discontinuities(self, s):
        w = _noise.evaluate(self.path, s)[0]
        return tuple(d + w for d in getattr(self.u0, "discontinuities", ()))


class CharacteristicsSolution:
    """u(s, x) = u0(phi_s^{-1}(x)) through a forward grid ensemble.

    The solution the paper proves unique under noise.  No experiment uses it:
    tests hold it to the weak form.  The ensemble is built once on
    construction over ``x_span``, up to the path's end; jump points of u0 are
    integrated alongside so their images (the moving discontinuities) are
    known at every stored time.
    """

    def __init__(self, spec, path, u0, x_span, n_grid=513):
        self.spec = spec
        self.path = path
        self.u0 = u0
        grid = np.linspace(x_span[0], x_span[1], int(n_grid))
        jumps = list(getattr(u0, "discontinuities", ()))
        self.ens = _flow.forward_flow(spec, path, grid, 0.0, [path.T])
        if jumps:
            jstates = _flow.march(
                spec, path.increments, np.asarray(jumps, dtype=float)[:, None],
                path.dt, 0, path.n_steps, record=True,
            )
            self._jumps = jstates[:, :, 0]
        else:
            self._jumps = None

    def __call__(self, s, x):
        pre = _flow.inverse_flow_interpolate(self.ens, np.asarray(x, dtype=float), s)
        return self.u0(pre)

    def discontinuities(self, s):
        if self._jumps is None:
            return ()
        k = self.ens.time_index(s)
        return tuple(self._jumps[k])


# ---------------------------------------------------------------------------
# the deterministic non-unique family for the power-law drift


def _time_from_origin(gamma, cap, z):
    """Travel time of the deterministic flow from 0+ to z > 0."""
    slope = cap**gamma / (1.0 - gamma)
    t_cap = cap ** (1.0 - gamma)
    return np.where(z <= cap, z ** (1.0 - gamma), t_cap + (z - cap) / slope)


def _phi_inverse_positive(gamma, cap, t, y):
    """phi_t^{-1}(y) for a float array y > x_+(t) on the positive half line."""
    slope = cap**gamma / (1.0 - gamma)
    out = np.maximum(y ** (1.0 - gamma) - t, 0.0) ** (1.0 / (1.0 - gamma))
    far = y > cap
    y = y[far]
    t_lin = np.maximum((y - cap) / slope, 0.0)
    rem = np.maximum(t - t_lin, 0.0)
    above_far = y - t * slope  # never re-enters the capped zone
    above_near = np.maximum(cap ** (1.0 - gamma) - rem, 0.0) ** (1.0 / (1.0 - gamma))
    out[far] = np.where(t <= t_lin, above_far, above_near)
    return out


def deterministic_family(gamma, cap, u0, gamma_plus, gamma_minus, t, x):
    """The four-branch weak solutions of the noiseless equation.

    Outside the extremal characteristics x_(+/-)(t) the initial datum is
    transported along the unique flow; between them the branch functions
    gamma_(+/-) applied to the emission time t0(t, x) fill the fan.  Branch
    boundaries follow the closed-middle tie-break (<= on the inner branches).
    Each branch function takes the array of emission times of its points and
    returns values that broadcast to it (a constant will do).
    """
    if not 0.0 < gamma < 1.0:
        raise TransportError("family exponent must lie in (0, 1)")
    for name, v in (("t", t), ("cap", cap)):
        if not (math.isfinite(v) and v > 0):
            raise TransportError(f"{name}={v!r}: the family needs a finite {name} > 0")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise TransportError(f"x: the family needs finite points, {np.count_nonzero(~np.isfinite(x))} are not")
    xp = float(_flow.holder_extremal_branch(gamma, cap, t))
    absx = np.abs(x)
    t0 = t - _time_from_origin(gamma, cap, absx)
    out = np.empty_like(x)

    outer = absx > xp
    mid_plus = (x >= 0.0) & ~outer
    mid_minus = (x < 0.0) & ~outer
    # phi^{-1} is odd, and the inverse on |x| is never -0.0, so copysign gives -p for x < 0
    out[outer] = u0(np.copysign(_phi_inverse_positive(gamma, cap, t, absx[outer]), x[outer]))
    out[mid_plus] = gamma_plus(t0[mid_plus])
    out[mid_minus] = gamma_minus(t0[mid_minus])
    return out


class DeterministicFamilySolution:
    """Provider wrapping deterministic_family for the residual checkers."""

    def __init__(self, gamma, cap, u0, gamma_plus, gamma_minus):
        self.gamma = gamma
        self.cap = cap
        self.u0 = u0
        self.gp = gamma_plus
        self.gm = gamma_minus

    def __call__(self, s, x):
        if s <= 0.0:
            return self.u0(np.asarray(x, dtype=float))
        return deterministic_family(self.gamma, self.cap, self.u0, self.gp, self.gm, s, x)

    def discontinuities(self, s):
        if s <= 0.0:
            return tuple(getattr(self.u0, "discontinuities", ()))
        xp = float(_flow.holder_extremal_branch(self.gamma, self.cap, s))
        return (-xp, 0.0, xp)


# ---------------------------------------------------------------------------
# weak-form residual checkers


def _on_grid(values, points, name):
    """``values`` of ``name`` at the tensor nodes ``points`` (..., d), checked to
    have the node grid's shape: a field of another dimension does not."""
    if np.shape(values) != points.shape[:-1]:
        raise TransportError(
            f"{name} gives values of shape {np.shape(values)} on a node grid of shape "
            f"{points.shape[:-1]}; a {points.shape[-1]}-d weak form needs a {points.shape[-1]}-d field"
        )
    return values


def _against_theta(u, theta, shift, n_x, splits, name):
    """int u(x) theta(x + shift) dx, cells split at ``splits``."""
    cells = _cells(theta, shift, n_x, splits)
    u_x = _on_grid(u(cells.x), cells.points, name)
    return float(np.sum(cells.W * u_x * theta.value(cells.x + cells.shift)))


def _drift_terms(providers, spec, theta, s, cells):
    """Per provider, (u_s at the cell nodes, int u_s (b . grad theta + div b theta)(x + shift) dx).

    div b enters axis by axis: b_i differenced across the cells of axis i, at
    the Gauss nodes (and weights) of the other axes.  The providers share all
    but u_s; each term keeps the one-provider products (W b . grad theta) u and
    (b_i steps) (theta u at the midpoints), so it has that provider's bits."""
    grad = np.reshape(theta.grad(cells.x + cells.shift), cells.points.shape)
    b = spec.value(s, cells.points)
    b_grad = reduce(np.add, [cells.W * b[..., i] * grad[..., i] for i in range(b.shape[-1])])
    us = [_on_grid(p(s, cells.x), cells.points, "provider") for p in providers]
    totals = [float(np.sum(b_grad * u)) for u in us]
    for i, e in enumerate(cells.edges):
        edge_points = _tensor(cells.nodes[:i] + (e,) + cells.nodes[i + 1:])
        mid_points = _tensor(cells.nodes[:i] + (0.5 * (e[:-1] + e[1:]),) + cells.nodes[i + 1:])
        mids = _native(mid_points)
        theta_mid = theta.value(mids + cells.shift)
        steps = _steps(spec, s, edge_points, axis=i)
        for j, p in enumerate(providers):
            cof = theta_mid * _on_grid(p(s, mids), mid_points, "provider")
            cof = reduce(np.multiply, cells.weights[:i] + cells.weights[i + 1:], cof)
            totals[j] += float(np.sum(steps * cof))
    return list(zip(us, totals))


def _check_weak_form(spec, theta, path, n_x):
    if int(n_x) < 1:
        raise TransportError(f"n_x={n_x}: the weak form needs at least one cell per axis")
    dim = np.size(theta.center)
    if dim != spec.dim or path.d != spec.dim:
        raise TransportError(
            f"dimension mismatch: drift is {spec.dim}-d, test function {dim}-d, path {path.d}-d"
        )


def _time_indices(path, t, n_s):
    if int(n_s) < 1:
        raise TransportError(f"n_s={n_s}: the time quadrature needs at least one interval")
    K = path.index_of(t)
    stride = max(1, K // int(n_s))
    if K % stride:
        raise TransportError(
            f"n_s={n_s} does not divide the {K} path steps up to t={t}"
        )
    return np.arange(0, K + 1, stride), stride


def perturbative_residual(provider, spec, theta, path, t, n_x=512, n_s=512, signed=False):
    """Residual of the pathwise weak form (no stochastic integrals).

    u_t(theta) = u0(theta(. + W_t))
               + int_0^t ds int [b . Dtheta(x + W_{ts}) + div b theta(x + W_{ts})] u_s(x) dx

    Space integrals run over supp theta shifted per time node (the integrand
    vanishes outside a bounded set for bounded paths) with ``n_x`` cells per
    axis; time quadrature is a trapezoid on path-grid-aligned nodes.  Each
    time node evaluates the drift and the provider on (2 n_x)^d Gauss nodes:
    in 2-d the default n_x = 512 makes that about a million nodes, roughly
    120 MB of temporaries per node; pass a smaller ``n_x`` there.
    """
    defect = _perturbative_residuals([provider], spec, theta, path, t, n_x, n_s)[0]
    return defect if signed else abs(defect)


def _perturbative_residuals(providers, spec, theta, path, t, n_x, n_s):
    """Signed ``perturbative_residual`` of each provider, bit for bit, with the
    time-node cells and drift values computed once for all of them: the
    providers must jump at the same points at every time node."""
    _check_weak_form(spec, theta, path, n_x)
    idx, stride = _time_indices(path, t, n_s)
    wt = _noise.evaluate(path, t)
    grid_w = _noise.grid_values(path)
    sharp = _sharp_points(spec)
    ivals = np.empty((len(providers), len(idx)))
    for j, k in enumerate(idx):
        s = k * path.dt
        splits = {tuple(p.discontinuities(s)) for p in providers}
        if len(splits) > 1:
            raise TransportError(f"providers jump at different points at s={s}: {sorted(splits)}")
        cells = _cells(theta, wt - grid_w[k], n_x, splits.pop() + sharp)
        ivals[:, j] = [term for _, term in _drift_terms(providers, spec, theta, s, cells)]
    defects = []
    for p, row in zip(providers, ivals):
        lhs = _against_theta(lambda x: p(t, x), theta, np.zeros(spec.dim), n_x,
                             tuple(p.discontinuities(t)), "provider")
        term0 = _against_theta(p.u0, theta, wt, n_x, tuple(getattr(p.u0, "discontinuities", ())), "u0")
        defects.append(lhs - (term0 + float(np.trapezoid(row, dx=stride * path.dt))))
    return defects


# ---------------------------------------------------------------------------
# mollification commutators


@dataclass(frozen=True)
class CommutatorReport:
    """Commutator values along a strictly decreasing eps ladder."""

    eps_ladder: tuple
    values: tuple
    decay_exponent: float

    def __post_init__(self):
        ladder = self.eps_ladder
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise TransportError("eps ladder must be strictly decreasing")
        if not all(np.isfinite(v) for v in self.values):
            raise TransportError("commutator values must be finite")


def commutator_ladder(v, g, rho, eps_ladder, n_outer=256, inner_cells=24):
    """Evaluate the commutator along an eps ladder and fit its decay rate."""
    if len(eps_ladder) < 2:
        raise TransportError(
            f"a decay rate needs an eps ladder of 2 or more entries, got {len(eps_ladder)}"
        )
    values = tuple(
        commutator(v, g, e, rho, n_outer=n_outer, inner_cells=inner_cells)
        for e in eps_ladder
    )
    exponent = float(
        np.polyfit(np.log(eps_ladder), np.log(np.abs(values)), 1)[0]
    )
    return CommutatorReport(
        eps_ladder=tuple(eps_ladder), values=values, decay_exponent=exponent
    )


def commutator(v: Drift, g, eps, rho, n_outer=256, inner_cells=24):
    """int R_eps[v, g](x) rho(x) dx for drift-like v and bounded g, at time 0.

    Uses the integrated-by-parts double-integral form: difference terms in v
    keep the size O(eps^alpha), and the div v parts enter as Stieltjes sums
    against v so its singular points are integrated across, never sampled.
    """
    return _commutator_core(
        v, g, eps, lo=rho.center - rho.radius, hi=rho.center + rho.radius, weight=rho.value,
        dweight=rho.grad, n_outer=n_outer, inner_cells=inner_cells, t=0.0,
    )


def _commutator_core(v, g, eps, lo, hi, weight, dweight, n_outer, inner_cells, t):
    if getattr(v, "dim", 1) != 1:
        raise TransportError("commutator quadrature is one-dimensional")
    if not (math.isfinite(eps) and eps > 0.0):
        raise TransportError(f"eps={eps!r}: the mollifier needs a finite width > 0")
    for name, n in (("inner_cells", inner_cells), ("n_outer", n_outer)):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise TransportError(f"{name}={n!r}: the quadrature needs an integer number of cells >= 1")
    kern = Mollifier(eps=float(eps)).kernel
    g_splits = tuple(getattr(g, "discontinuities", ()))
    v_splits = _sharp_points(v)
    gv = lambda x: np.asarray(g(x), dtype=float) * v.value(t, x[..., None])[..., 0]

    # resolve the kernel scale in the outer direction
    n_cells = max(int(n_outer), int(math.ceil(4.0 * (hi - lo) / eps)))
    edges = _edges(lo, hi, n_cells, v_splits + g_splits)
    nodes, w = _gauss_nodes_weights(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])

    conv_g = _convolve_at(np.concatenate([nodes, mids]), g, eps, kern, inner_cells, g_splits)
    conv_g_nodes, conv_g_mids = conv_g[:len(nodes)], conv_g[len(nodes):]
    conv_gv_nodes = _convolve_at(nodes, gv, eps, kern, inner_cells, g_splits + v_splits)
    dw_nodes = dweight(nodes)
    c1 = float(np.sum(w * dw_nodes * v.value(t, nodes[..., None])[..., 0] * conv_g_nodes))
    c2 = float(np.sum(w * dw_nodes * conv_gv_nodes))

    a_term = _stieltjes_div(v, t, edges[..., None], np.asarray(weight(mids)) * conv_g_mids)

    # B term lives on supp(rho) inflated by eps
    edges_b = _edges(lo - eps, hi + eps, n_cells, v_splits + g_splits)
    mids_b = 0.5 * (edges_b[:-1] + edges_b[1:])
    conv_w_mids = _convolve_at(mids_b, weight, eps, kern, inner_cells, ())
    b_term = _stieltjes_div(v, t, edges_b[..., None], np.asarray(g(mids_b)) * conv_w_mids)

    return c1 - c2 + a_term - b_term


def commutator_along_flow(v, g, eps, rho, ens, t, n_outer=256, inner_cells=24):
    """int R_eps[v, g](phi_t(x)) rho(x) dx by the change of variables.

    Transforms to int R_eps(y) rho(phi^{-1}(y)) J phi^{-1}(y) dy over the
    image of supp rho; the inverse map and its Jacobian come from the
    monotone interpolated ensemble.
    """
    if ens.d != 1:
        raise TransportError("flow composition implemented in one dimension")
    img = ens.states_at(t)[:, 0]
    init = ens.initial[:, 0]
    lo = float(np.interp(rho.center - rho.radius, init, img))
    hi = float(np.interp(rho.center + rho.radius, init, img))
    inverse_slope = _inverse_slope(init, img)

    def weight(y):
        return rho.value(_flow.inverse_flow_interpolate(ens, y, t)) * inverse_slope(y)

    def dweight(y):
        x = _flow.inverse_flow_interpolate(ens, y, t)
        jinv = inverse_slope(y)
        return rho.grad(x) * jinv * jinv

    return _commutator_core(
        v, g, eps, lo=lo, hi=hi, weight=weight, dweight=dweight,
        n_outer=n_outer, inner_cells=inner_cells, t=t,
    )


def _inverse_slope(init, img):
    """y -> d/dy of the piecewise-linear inverse map (piecewise constant), its
    slopes tabulated once per lattice interval."""
    slopes = (init[1:] - init[:-1]) / (img[1:] - img[:-1])
    return lambda y: slopes[np.clip(np.searchsorted(img, y) - 1, 0, len(img) - 2)]


def _median(values):
    """float(np.median(values)) bit for bit, without the numpy.ma import (about
    15 ms) of np.median's NaN check: the same partition and middle mean."""
    a = np.asarray(values, dtype=float).ravel()
    mid = [a.size // 2 - 1, a.size // 2] if a.size % 2 == 0 else [a.size // 2]
    part = np.partition(a, mid + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    # np.median's mean: a sum from +0.0, so a -0.0 middle gives +0.0
    return float(np.add.reduce(part[mid]) / len(mid))


# ---------------------------------------------------------------------------
# the uniqueness gap, measured


def uniqueness_gap_experiment(gamma, cap, u0, t=1.0, n_x=512, n_s=256, a_values=(0.0, 0.5, 1.0)):
    """Deterministic non-uniqueness, as residuals.

    The family members with gamma_+ = gamma_- = a, one per entry of
    ``a_values``, all carry a near-zero pathwise residual on the zero path
    while being far apart in sup norm (non-uniqueness certified).
    """
    spec = HolderPowerDrift(gamma=gamma, cap=cap, signed=True)
    theta = TestFunction(center=0.0, radius=2.0)
    zero = _noise.zero_path(1, t, t / n_s)
    members = [
        DeterministicFamilySolution(gamma, cap, u0, (lambda s, a=a: a), (lambda s, a=a: a))
        for a in a_values
    ]
    residuals = [abs(d) for d in _perturbative_residuals(members, spec, theta, zero, t, n_x, n_s)]
    xp = float(_flow.holder_extremal_branch(gamma, cap, t))
    probe = np.linspace(-0.95 * xp, 0.95 * xp, 101)
    fields = [m(t, probe) for m in members]
    gaps = [
        float(np.max(np.abs(fields[i] - fields[j])))
        for i in range(len(fields))
        for j in range(i + 1, len(fields))
    ]
    return {"a_values": list(a_values), "residuals": residuals, "min_pairwise_gap": min(gaps)}
