"""Catalogue of drift fields b(t, x): evaluation, divergences, mollification.

All drifts are pure values: evaluating one never mutates state, so instances
can be shared freely across threads.  Points are numpy arrays of shape
``(..., dim)`` in every dimension, 1-d included; ``value`` and ``divergence``
check shape and finiteness once at entry and then evaluate through the
variants' unchecked ``_value`` and ``_divergence``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cache, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "Drift",
    "ZeroDrift",
    "HolderPowerDrift",
    "Rotation2DDrift",
    "LinearDrift",
    "MollifiedDrift",
    "GridSampledDrift",
    "Mollifier",
    "bump_value",
    "bump_derivative",
    "mollify_drift",
    "drift_to_dict",
    "drift_from_dict",
    "drift_to_json",
    "drift_from_json",
]


class DriftError(ValueError):
    pass


def _fields_equal(a, b):
    """Dataclass == over the compared fields, arrays by np.array_equal."""
    if type(b) is not type(a):
        return NotImplemented
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare)
    )


# ---------------------------------------------------------------------------
# smooth compactly supported bump kernel, shared by mollifiers and smoothing


def bump_value(u):
    """Unnormalized C^inf bump exp(-1/(1-u^2)) on (-1, 1), zero outside."""
    u = np.asarray(u, dtype=float)
    # |u| capped at 1 keeps NaN and |u| >= 1 out of the division; exp(-inf) is +0
    m = np.minimum(np.abs(u), 1.0)
    out = np.divide(-1.0, 1.0 - m * m, out=np.full_like(m, -np.inf), where=m < 1.0)
    return np.exp(out, out=out)


def bump_derivative(u):
    """Derivative of the unnormalized bump."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    g = 1.0 - ui * ui
    out[inside] = np.exp(-1.0 / g) * (-2.0 * ui / (g * g))
    return out


@dataclass(frozen=True)
class Mollifier:
    """Normalized 1-d bump kernel of radius ``eps``: exp(-1/(1-x^2)) on
    (-1, 1), scaled to unit mass; even, smooth and supported in (-eps, eps)."""

    eps: float

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise DriftError(f"mollifier radius must be positive and finite, got {self.eps}")

    def kernel(self, x):
        """Kernel value theta_eps(x) at points x of any shape."""
        r = np.abs(np.asarray(x, dtype=float))
        return bump_value(r / self.eps) / (_bump_mass() * self.eps)


@cache
def _bump_mass():
    """Integral of the unnormalized bump over R."""
    u, w = leggauss(200)
    return float(np.sum(w * bump_value(u)))


# ---------------------------------------------------------------------------
# split-cell quadrature: cells split at the integrand's jumps, 2-pt Gauss per
# cell.  The mollified power law's table and the transport commutators share it.

_GAUSS_OFF = 1.0 / math.sqrt(3.0)


def _edges(lo, hi, n_cells, splits=()):
    base = np.linspace(lo, hi, int(n_cells) + 1)
    extra = [s for s in splits if lo < s < hi]
    if extra:
        base = np.unique(np.concatenate([base, np.asarray(extra, dtype=float)]))
    return base


def _gauss_nodes_weights(edges):
    """Gauss nodes and weights of the cells along the last axis of ``edges``."""
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    nodes = np.concatenate([mid - half * _GAUSS_OFF, mid + half * _GAUSS_OFF], axis=-1)
    weights = np.concatenate([half, half], axis=-1)
    return nodes, weights


# windows per block in _convolve_at: bounds the (windows, nodes) temporaries
_CONV_BLOCK = 256


def _convolve_at(points, fn, eps, kernel, inner_cells, splits):
    """(theta_eps * fn)(p) for each p, cells split at the jump locations.

    Windows [p - eps, p + eps] are grouped by how many distinct splits lie
    strictly inside them (none for most) and evaluated _CONV_BLOCK at a time
    as one C-ordered (windows, nodes) array: the linspace edges with the
    window's splits sorted in.  Each row gets the edges, node values and
    pairwise row sum of a single-window evaluation, so the result is bit for
    bit the per-window sum.  A split on a linspace edge doubles that edge,
    which ``_edges`` drops: only such windows are redone one at a time.  A
    row whose values are all signed zeros skips the kernel: w theta_eps is
    finite and >= +0, so each product there is the value itself.
    """
    points = np.asarray(points, dtype=float)
    lo, hi = points - eps, points + eps
    cuts = np.unique(np.asarray(splits, dtype=float))
    first = np.searchsorted(cuts, lo, side="right")  # the splits inside are cuts[first:first + count]
    count = np.maximum(np.searchsorted(cuts, hi, side="left") - first, 0)
    out = np.empty(len(points))

    def rows(idx, edges):
        nodes, w = _gauss_nodes_weights(edges)
        vals = fn(nodes.ravel()).reshape(nodes.shape)
        zero = ~np.any(vals, axis=-1)
        if zero.any():
            out[idx[zero]] = vals[zero].sum(axis=-1)
            idx, nodes, w, vals = idx[~zero], nodes[~zero], w[~zero], vals[~zero]
        if len(idx):
            out[idx] = np.sum(w * kernel(points[idx, None] - nodes) * vals, axis=-1)

    for k in np.unique(count):
        members = np.flatnonzero(count == k)
        for start in range(0, len(members), _CONV_BLOCK):
            idx = members[start:start + _CONV_BLOCK]
            # np.linspace's own arithmetic, built C-ordered: strided rows would sum in another order
            edges = np.arange(inner_cells + 1) * ((hi[idx] - lo[idx]) / inner_cells)[:, None]
            edges += lo[idx, None]
            edges[:, -1] = hi[idx]
            if k:
                edges = np.sort(np.concatenate([edges, cuts[first[idx, None] + np.arange(k)]], axis=-1))
            rows(idx, edges)
            for i in idx[np.any(edges[:, 1:] == edges[:, :-1], axis=-1)] if k else ():
                rows(np.array([i]), _edges(lo[i], hi[i], inner_cells, splits)[None])
    return out


# A mollified power law is a cubic Hermite table of b^eps = theta_eps * b with
# nodes eps / _TABLE_CELLS_PER_EPS apart, each a _convolve_at window of
# _TABLE_INNER_CELLS cells; the convergence study in CHANGES.md chose both.
_TABLE_CELLS_PER_EPS = 16
_TABLE_INNER_CELLS = 64
_TABLE_MAX_CELLS = 2**17  # on the half line: a build of seconds, 15 MB of table


def _table_cells(cap, eps):
    """Cells on the half line, unrounded: a huge cap gives inf, not an OverflowError."""
    return (cap + eps) * _TABLE_CELLS_PER_EPS / eps


@lru_cache(maxsize=16)
def _power_table(base, eps):
    """(offset, 1/step, top, values, slopes) of b^eps's table for a power law b.

    x lies u = x/step + offset cells into the table, u clipped to [0, top]; row
    k of ``values`` (``slopes``) is cell k's cubic (its derivative) in u - k,
    highest power first.  Nodes span [-(cap + eps), cap + eps] and one step
    beyond, where b^eps is exactly b(+-cap): each outer cell is that constant,
    so the clip is the exact clamp.  Values and slopes come from theta_eps and
    theta_eps' on x >= 0, cells split at 0 and +-cap, mirrored by b's parity.
    """
    half = base.cap + eps
    n = math.ceil(_table_cells(base.cap, eps))
    step = half / n
    r = np.linspace(0.0, half, n + 1)
    b = lambda y: base._value(0.0, y[:, None])[:, 0]
    slope_scale = _bump_mass() * eps * eps
    splits = (-base.cap, 0.0, base.cap)
    v = _convolve_at(r, b, eps, Mollifier(eps).kernel, _TABLE_INNER_CELLS, splits)
    d = _convolve_at(r, b, eps, lambda u: bump_derivative(u / eps) / slope_scale, _TABLE_INNER_CELLS, splits)
    # exact where the constant tail and the parity say so
    v[-1], d[-1] = b(r[-1:])[0], 0.0
    (v if base.signed else d)[0] = 0.0
    s = -1.0 if base.signed else 1.0  # b^eps(-x) = s b^eps(x)
    p = np.concatenate([[s * v[-1]], s * v[:0:-1], v, [v[-1]]])
    m = np.concatenate([[0.0], -s * d[:0:-1], d, [0.0]])
    p0, p1, m0, m1 = p[:-1], p[1:], step * m[:-1], step * m[1:]
    c3, c2 = 2.0 * (p0 - p1) + m0 + m1, 3.0 * (p1 - p0) - 2.0 * m0 - m1
    values = np.stack([c3, c2, m0, p0], axis=-1)
    slopes = np.stack([3.0 * c3 / step, 2.0 * c2 / step, m[:-1]], axis=-1)
    return n + 1.0, 1.0 / step, np.nextafter(len(p0), 0.0), values, slopes


def _hermite(table, x, slope=False):
    """The table's cubic at points x (..., 1), or with ``slope`` its derivative."""
    offset, inv_step, top, values, slopes = table
    u = np.multiply(x, inv_step)
    u += offset
    np.maximum(u, 0.0, out=u)
    np.minimum(u, top, out=u)
    cell = u.astype(np.intp)
    u -= cell
    rows = (slopes if slope else values).take(cell, axis=0)  # (..., 1, powers)
    out = rows[..., 0] * u
    for k in range(1, rows.shape[-1] - 1):
        out += rows[..., k]
        out *= u
    out += rows[..., -1]
    return out


# ---------------------------------------------------------------------------
# drift variants

_FD_STEP = 1e-5  # centered-difference step where a drift has no analytic divergence


class Drift:
    """Base class; subclasses are immutable evaluators of b(t, x)."""

    dim: int = 1
    time_dependent: bool = False

    def value(self, t, x):
        """b(t, x) at points x of shape (..., dim); the result has x's shape."""
        return self._value(t, self._check_point(x))

    def _value(self, t, x):
        raise NotImplementedError

    def divergence_analytic(self, t, x):
        """Analytic div b where defined; NaN marks points it is undefined at."""
        return np.full(x.shape[:-1], np.nan)

    def divergence(self, t, x):
        """div b(t, x): analytic where the variant defines it, a centered
        difference of step _FD_STEP at the points where it does not."""
        return self._divergence(t, self._check_point(x))

    def _divergence(self, t, x):
        ana = self.divergence_analytic(t, x)
        bad = np.isnan(ana)
        if not np.any(bad):
            return ana
        fd = 0.0
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = _FD_STEP
            fd = fd + (self._value(t, x + e)[..., i] - self._value(t, x - e)[..., i]) / (2.0 * _FD_STEP)
        return np.where(bad, fd, ana)

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dim:
            raise DriftError(
                f"dimension mismatch: drift has dim={self.dim}, point shape {x.shape}; "
                f"points are (..., dim)"
            )
        if not np.all(np.isfinite(x)):
            raise DriftError("drift evaluated at a non-finite point")
        return x


@dataclass(frozen=True)
class ZeroDrift(Drift):
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise DriftError(f"zero drift needs dim >= 1, got {self.dim}")

    def _value(self, t, x):
        return np.zeros_like(x)

    def divergence_analytic(self, t, x):
        return np.zeros(x.shape[:-1])


@dataclass(frozen=True)
class HolderPowerDrift(Drift):
    """1-d field (1/(1-gamma)) sign(x) (|x| ^ gamma, capped at R).

    ``signed=False`` drops the sign factor.  C_b^gamma but not Lipschitz at the
    origin; its derivative gamma/(1-gamma) |x|^(gamma-1) is singular there and
    kinks at |x| = cap.
    """

    gamma: float
    cap: float = 2.0
    signed: bool = True
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise DriftError("HolderPower exponent must lie in (0, 1)")
        if not 0 < self.cap < math.inf:
            raise DriftError("HolderPower truncation radius must be positive and finite")
        if self.dim != 1:
            raise DriftError("HolderPower drift is one-dimensional")

    @property
    def coef(self):
        return 1.0 / (1.0 - self.gamma)

    def _value(self, t, x):
        a = np.abs(x)
        np.minimum(a, self.cap, out=a)
        # **= keeps numpy's scalar-exponent path (sqrt at 0.5); np.power does not
        a **= self.gamma
        if self.signed:
            # a fresh sign array: np.sign(y, out=y) is about 5x slower
            np.multiply(np.sign(x), a, out=a)
        return np.multiply(self.coef, a, out=a)

    def divergence_analytic(self, t, x):
        xx = x[..., 0]
        absx = np.abs(xx)
        out = np.where(
            absx > self.cap,
            0.0,
            self.gamma * self.coef * np.where(absx > 0, absx, 1.0) ** (self.gamma - 1.0),
        )
        if not self.signed:
            out = out * np.sign(xx)
        # undefined exactly at the singularity and at the cap kink
        out = np.where((absx == 0.0) | (absx == self.cap), np.nan, out)
        return out


@dataclass(frozen=True)
class Rotation2DDrift(Drift):
    """Rigid rotation field omega * (-x2, x1); divergence-free."""

    omega: float = 1.0
    dim: int = 2

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise DriftError(f"rotation rate must be finite, got {self.omega}")

    def _value(self, t, x):
        out = np.empty_like(x)
        out[..., 0] = -self.omega * x[..., 1]
        out[..., 1] = self.omega * x[..., 0]
        return out

    def divergence_analytic(self, t, x):
        return np.zeros(x.shape[:-1])


@dataclass(frozen=True)
class LinearDrift(Drift):
    """b(x) = A x for a constant matrix A (1-d: scalar a)."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(1))

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
            raise DriftError(f"linear drift needs a finite square matrix, got {a.tolist()}")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "dim", a.shape[0])

    def _value(self, t, x):
        return np.einsum("ij,...j->...i", self.matrix, x)

    def divergence_analytic(self, t, x):
        return np.full(x.shape[:-1], float(np.trace(self.matrix)))

    __eq__ = _fields_equal

    def __hash__(self):
        # by value, not bytes: -0.0 and 0.0 compare equal
        return hash(tuple(self.matrix.ravel().tolist()))


@dataclass(frozen=True)
class MollifiedDrift(Drift):
    """Convolution b^eps = theta_eps * b of a base drift with the bump mollifier.

    A power-law base is read from its converged Hermite table (_power_table),
    whose derivative is the divergence.  theta_eps is even with unit mass, so
    it leaves an affine field as it is: over a zero, linear or rotation base,
    b^eps and its divergence are the base's own.  Any other base is refused.
    """

    base: Drift
    eps: float

    def __post_init__(self):
        if type(self.base) not in (HolderPowerDrift, ZeroDrift, LinearDrift, Rotation2DDrift):
            raise DriftError(f"a mollified drift takes a holder_power, zero, linear or rotation2d base, "
                             f"got {type(self.base).__name__}")
        if not 0 < self.eps < math.inf:
            raise DriftError("mollification radius must be positive and finite")
        if isinstance(self.base, HolderPowerDrift) and _table_cells(self.base.cap, self.eps) > _TABLE_MAX_CELLS:
            raise DriftError(f"mollification radius {self.eps} is too small for the cap {self.base.cap}: "
                             f"its table would pass {_TABLE_MAX_CELLS} cells")
        object.__setattr__(self, "dim", self.base.dim)

    def _value(self, t, x):
        if isinstance(self.base, HolderPowerDrift):
            return _hermite(_power_table(self.base, self.eps), x)
        return self.base._value(t, x)

    def divergence_analytic(self, t, x):
        if isinstance(self.base, HolderPowerDrift):
            return _hermite(_power_table(self.base, self.eps), x, slope=True)[..., 0]
        return self.base.divergence_analytic(t, x)


@dataclass(frozen=True)
class GridSampledDrift(Drift):
    """1-d drift interpolated bilinearly from a space-time field.

    The paper's drift is b(t, x); this is the time-dependent drift that
    ``lab run mean-pde-mc --set drift=<grid_sampled JSON>`` reaches, and with
    it the time-dependent march of ``parabolic.solve_mean_pde``.
    """

    field: object = None
    dim: int = 1
    time_dependent: bool = True

    def _value(self, t, x):
        return self.field.interpolate(t, x)


# ---------------------------------------------------------------------------
# module-level operations


def mollify_drift(spec: Drift, eps):
    """Return the mollified variant b^eps = theta_eps * b."""
    return MollifiedDrift(base=spec, eps=float(eps))


# ---------------------------------------------------------------------------
# JSON serialization; the CLI schema uses {"kind": ..., parameters...}


def drift_to_dict(spec: Drift) -> dict:
    if isinstance(spec, ZeroDrift):
        return {"kind": "zero", "dim": spec.dim}
    if isinstance(spec, HolderPowerDrift):
        return {
            "kind": "holder_power",
            "gamma": spec.gamma,
            "cap": spec.cap,
            "signed": spec.signed,
        }
    if isinstance(spec, Rotation2DDrift):
        return {"kind": "rotation2d", "omega": spec.omega}
    if isinstance(spec, LinearDrift):
        return {"kind": "linear", "matrix": np.asarray(spec.matrix).tolist()}
    if isinstance(spec, MollifiedDrift):
        return {"kind": "mollified", "eps": spec.eps, "base": drift_to_dict(spec.base)}
    if isinstance(spec, GridSampledDrift):
        return {
            "kind": "grid_sampled",
            "xs": np.asarray(spec.field.xs).tolist(),
            "ts": np.asarray(spec.field.ts).tolist(),
            "values": np.asarray(spec.field.values).tolist(),
        }
    raise DriftError(f"cannot serialize drift of type {type(spec).__name__}")


def drift_from_dict(data: dict) -> Drift:
    """Drift from its JSON object; a malformed object raises DriftError."""
    if not isinstance(data, dict):
        raise DriftError(f"drift JSON must be an object with a kind, got {data!r}")
    kind = data.get("kind")
    try:
        return _drift_of_kind(kind, data)
    except DriftError:
        raise
    except KeyError as exc:
        raise DriftError(f"{kind} drift JSON needs the key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DriftError(f"{kind} drift JSON has a malformed value: {exc}") from exc


_KINDS = {bool: "true or false", int: "an integer", float: "a number", np.ndarray: "a number or nested lists of numbers"}


def _typed(data, key, default, kind):
    """data[key], or the default unless it is None, as a flag (kind bool), a
    count (int), a real (float) or an array of reals (np.ndarray).  Only a
    flag is true or false, and none of them is a string."""
    value = data[key] if default is None else data.get(key, default)
    items = np.asarray(value, dtype=object).ravel() if kind is np.ndarray else (value,)
    number = numbers.Integral if kind in (bool, int) else numbers.Real
    if not all(isinstance(v, bool) == (kind is bool) and isinstance(v, number) for v in items):
        raise DriftError(f"drift JSON has a malformed value: key {key!r} must be {_KINDS[kind]}, got {value!r}")
    try:
        return np.asarray(value, dtype=float) if kind is np.ndarray else kind(value)
    except OverflowError as exc:
        raise DriftError(f"drift JSON has a malformed value: key {key!r} is too large for a float") from exc


def _drift_of_kind(kind, data):
    if kind == "zero":
        return ZeroDrift(dim=_typed(data, "dim", 1, int))
    if kind == "holder_power":
        return HolderPowerDrift(
            gamma=_typed(data, "gamma", None, float),
            cap=_typed(data, "cap", 2.0, float),
            signed=_typed(data, "signed", True, bool),
        )
    if kind == "rotation2d":
        return Rotation2DDrift(omega=_typed(data, "omega", 1.0, float))
    if kind == "linear":
        return LinearDrift(matrix=_typed(data, "matrix", None, np.ndarray))
    if kind == "mollified":
        if "quad_points" in data:
            raise DriftError("mollified drift JSON has no key 'quad_points': its resolution is fixed")
        return MollifiedDrift(base=drift_from_dict(data["base"]), eps=_typed(data, "eps", None, float))
    if kind == "grid_sampled":
        from .parabolic import SpaceTimeField

        xs = _typed(data, "xs", None, np.ndarray)
        ts = _typed(data, "ts", None, np.ndarray)
        values = _typed(data, "values", None, np.ndarray)
        if xs.ndim != 1 or ts.ndim != 1:
            raise DriftError(f"grid_sampled xs and ts must be lists, got shapes {xs.shape} and {ts.shape}")
        if values.shape != (len(ts), len(xs)):
            raise DriftError(
                f"grid_sampled values must be (len(ts), len(xs)) = {(len(ts), len(xs))}, got {values.shape}"
            )
        # np.interp misreads a decreasing grid, and a repeated time gives dt = 0
        if not (np.all(np.diff(xs) > 0) and np.all(np.diff(ts) > 0)):
            raise DriftError("grid_sampled xs and ts must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise DriftError("grid_sampled values must be finite")
        return GridSampledDrift(field=SpaceTimeField(xs=xs, ts=ts, values=values))
    raise DriftError(f"unknown drift kind: {kind!r}")


def drift_to_json(spec: Drift) -> str:
    return json.dumps(drift_to_dict(spec), sort_keys=True)


def drift_from_json(text: str) -> Drift:
    return drift_from_dict(json.loads(text))
