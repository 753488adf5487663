"""Catalogue of drift fields b(t, x): evaluation, divergences, mollification.

All drifts are pure values: evaluating one never mutates state, so instances
can be shared freely across threads.  Points are numpy arrays of shape
``(..., dim)`` in every dimension, 1-d included; ``value`` and ``divergence``
check shape and finiteness once at entry and then evaluate through the
variants' unchecked ``_value`` and ``_divergence``, so a mollified drift does
not re-check its points at every quadrature node.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cache

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


def _gauss_nodes(n):
    x, w = leggauss(int(n))
    return x, w


@dataclass(frozen=True)
class Mollifier:
    """Normalized 1-d bump kernel of radius ``eps``: exp(-1/(1-x^2)) on
    (-1, 1), scaled to unit mass; even, smooth and supported in (-eps, eps)."""

    eps: float

    def __post_init__(self):
        if self.eps <= 0:
            raise DriftError("mollifier radius must be positive")

    def kernel(self, x):
        """Kernel value theta_eps(x) at points x of any shape."""
        r = np.abs(np.asarray(x, dtype=float))
        return bump_value(r / self.eps) / (_bump_mass() * self.eps)


@cache
def _bump_mass():
    """Integral of the unnormalized bump over R."""
    u, w = _gauss_nodes(200)
    return float(np.sum(w * bump_value(u)))


# element budget of one grouped base call of a mollified drift (see _fan_out)
_GROUP_ELEMENTS = 16384
_NODE_CACHE: dict[tuple, tuple] = {}
_STIELTJES_CACHE: dict[tuple, tuple] = {}


def _stieltjes_kernel(eps, cells):
    """Cell edges on [-eps, eps] and normalized kernel values at midpoints.

    Supports the Stieltjes convolution sum_j theta_eps(mid_j) (b(x+e_{j+1}) -
    b(x+e_j)); weights are scaled so a linear b yields its exact slope.
    """
    key = (float(eps), int(cells))
    if key not in _STIELTJES_CACHE:
        m = int(cells) + int(cells) % 2
        edges = np.linspace(-eps, eps, m + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        k = bump_value(mids / eps)
        k = k / np.sum(k * np.diff(edges))
        _STIELTJES_CACHE[key] = (edges, k)
    return _STIELTJES_CACHE[key]


def _mollifier_nodes(eps, dim, quad_points):
    key = (float(eps), int(dim), int(quad_points))
    if key not in _NODE_CACHE:
        n = int(quad_points)
        if n % 2:
            n += 1  # even count keeps all nodes off the kernel's center
        u, w = _gauss_nodes(n)
        if dim == 1:
            y = eps * u
            raw = w * bump_value(u)
            offsets = y.reshape(-1, 1)
        elif dim == 2:
            uu, vv = np.meshgrid(u, u, indexing="ij")
            ww = np.outer(w, w)
            rr = np.sqrt(uu**2 + vv**2)
            raw = (ww * bump_value(rr)).ravel()
            offsets = eps * np.stack([uu.ravel(), vv.ravel()], axis=-1)
            keep = raw > 0.0
            raw, offsets = raw[keep], offsets[keep]
        else:
            raise DriftError(f"mollifier not implemented for dim={dim}")
        weights = raw / raw.sum()
        _NODE_CACHE[key] = (offsets, weights)
    return _NODE_CACHE[key]


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
        if a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
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
    """Fixed-node convolution of a base drift with the bump mollifier.

    ``value`` and ``divergence`` commute with the discrete convolution: the
    reported divergence is the exact derivative of the discretely mollified
    field wherever the base divergence exists at the shifted nodes.
    """

    base: Drift = None
    eps: float = 0.1
    quad_points: int = 32

    def __post_init__(self):
        if self.base is None:
            raise DriftError("mollified drift needs a base drift")
        if not 0 < self.eps < math.inf:
            raise DriftError("mollification radius must be positive and finite")
        if self.quad_points < 8:
            raise DriftError("mollification needs at least 8 quadrature points")
        object.__setattr__(self, "dim", self.base.dim)
        object.__setattr__(self, "time_dependent", self.base.time_dependent)

    def _nodes(self):
        return _mollifier_nodes(self.eps, self.dim, self.quad_points)

    def _fan_out(self, t, x, shifts):
        """Base values at x + s for each row s of ``shifts`` (n, dim), in order.

        Yields (lo, values), values of shape (k, *x.shape) for shifts lo..lo+k-1.
        k is the most shifts whose points fit in _GROUP_ELEMENTS, and at least
        one: a small batch makes one base call for all shifts, a large one keeps
        one call, and one point array's memory, per shift.  The shifted points
        of every group share one buffer, so the base must not keep its input.
        """
        k = min(max(_GROUP_ELEMENTS // max(x.size, 1), 1), len(shifts))
        shifts = shifts.reshape((-1,) + (1,) * (x.ndim - 1) + (self.dim,))
        points = np.empty((k,) + x.shape)
        for lo in range(0, len(shifts), k):
            group = shifts[lo : lo + k]
            yield lo, self.base._value(t, np.add(x, group, out=points[: len(group)]))

    def _value(self, t, x):
        offsets, weights = self._nodes()
        weights = weights.reshape((-1,) + (1,) * x.ndim)
        acc = None
        # x + (-o) has the bits of x - o; the fold runs in node order, because
        # a reduction over the node axis may sum pairwise.  The base's values
        # are fresh, so they are weighted and summed in place, the earlier
        # groups' sum into the first row.  add.accumulate is the same fold in
        # one call, but it pays per column: it wins on short rows only.
        for lo, vals in self._fan_out(t, x, -offsets):
            vals *= weights[lo : lo + len(vals)]
            if acc is not None:
                vals[0] += acc
            if x.size < 4 * len(vals):
                acc = np.add.accumulate(vals, out=vals)[-1]
            else:
                acc = vals[0]
                for term in vals[1:]:
                    acc += term
        return acc

    def divergence_analytic(self, t, x):
        """div b^eps; in 1-d via the Stieltjes form int theta_eps(o) db(x + o).

        The Stieltjes sum touches only values of b, so the integrable
        singularity of the base divergence is integrated across rather than
        sampled; the result is bounded uniformly in x for every eps.  In
        higher dimension the divergence commutes with the node sum instead
        (the catalogue's multi-d fields all have smooth divergences).
        """
        if self.dim == 1:
            edges, kern = _stieltjes_kernel(self.eps, max(2 * self.quad_points, 64))
            # streamed: one group of edge values and the last edge before it
            # stay alive between terms
            rows = (cur for _, vals in self._fan_out(t, x, edges[:, None]) for cur in vals[..., 0])
            prev = next(rows)
            acc = None
            for k, cur in zip(kern, rows):
                term = k * (cur - prev)
                acc = term if acc is None else acc + term
                prev = cur
            return acc
        offsets, weights = self._nodes()
        acc = None
        for off, w in zip(offsets, weights):
            term = w * self.base._divergence(t, x - off)
            acc = term if acc is None else acc + term
        return acc


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


def mollify_drift(spec: Drift, eps, quad_points=32):
    """Return the mollified variant b^eps = theta_eps * b."""
    return MollifiedDrift(base=spec, eps=float(eps), quad_points=int(quad_points))


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
        return {
            "kind": "mollified",
            "eps": spec.eps,
            "quad_points": spec.quad_points,
            "base": drift_to_dict(spec.base),
        }
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
    except (TypeError, ValueError) as exc:
        raise DriftError(f"{kind} drift JSON has a malformed value: {exc}") from exc


def _drift_of_kind(kind, data):
    if kind == "zero":
        return ZeroDrift(dim=int(data.get("dim", 1)))
    if kind == "holder_power":
        return HolderPowerDrift(
            gamma=float(data["gamma"]),
            cap=float(data.get("cap", 2.0)),
            signed=bool(data.get("signed", True)),
        )
    if kind == "rotation2d":
        return Rotation2DDrift(omega=float(data.get("omega", 1.0)))
    if kind == "linear":
        return LinearDrift(matrix=np.asarray(data["matrix"], dtype=float))
    if kind == "mollified":
        return MollifiedDrift(
            base=drift_from_dict(data["base"]),
            eps=float(data["eps"]),
            quad_points=int(data.get("quad_points", 32)),
        )
    if kind == "grid_sampled":
        from .parabolic import SpaceTimeField

        xs = np.asarray(data["xs"], dtype=float)
        ts = np.asarray(data["ts"], dtype=float)
        values = np.asarray(data["values"], dtype=float)
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
