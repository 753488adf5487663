import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportlab import drift as dr
from transportlab import harness
from transportlab import parabolic as pa


def test_holder_power_values():
    b = dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=True)
    assert b.value(0.0, [1.0])[0] == pytest.approx(2.0, abs=0)
    # cap active and sign factor: -(1/0.5) * 2^0.5
    assert b.value(0.0, [-9.0])[0] == pytest.approx(-2.0 * np.sqrt(2.0), rel=1e-12)
    unsigned = dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=False)
    assert unsigned.value(0.0, [-9.0])[0] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


def test_zero_drift_everywhere():
    z = dr.ZeroDrift(dim=2)
    out = z.value(0.3, np.array([[1.0, -2.0], [0.5, 4.0]]))
    assert np.all(out == 0.0)


def test_divergences_analytic():
    rot = dr.Rotation2DDrift(omega=1.0)
    assert rot.divergence(0.0, np.array([0.7, -1.1])) == 0.0
    b = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    assert b.divergence(0.0, [1.0]) == pytest.approx(1.0, rel=1e-12)
    lin = dr.LinearDrift(matrix=[[1.0, 2.0], [0.0, 3.0]])
    assert lin.divergence(0.0, np.array([5.0, -3.0])) == pytest.approx(4.0)


def test_divergence_error_modes():
    b = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    # the centered-difference fallback stays finite at the singularity
    v = b.divergence(0.0, [0.0])
    assert np.isfinite(v) and v > 0


@pytest.mark.parametrize("signed", [True, False])
def test_holder_power_divergence_falls_back_to_centered_difference_bitwise(signed):
    b = dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=signed)
    x = np.array([[0.0], [-0.0], [0.7], [2.0], [-2.0], [-0.3], [5.0], [-2.5]])
    sharp = np.array([True, True, False, True, True, False, False, False])
    h = 1e-5
    fd = (b.value(0.0, x + h)[:, 0] - b.value(0.0, x - h)[:, 0]) / (2.0 * h)
    ana = b.divergence_analytic(0.0, x)
    assert np.array_equal(np.isnan(ana), sharp)
    assert b.divergence(0.0, x).tobytes() == np.where(sharp, fd, ana).tobytes()
    assert b.divergence(0.0, x[sharp]).tobytes() == fd[sharp].tobytes()
    assert b.divergence(0.0, x[~sharp]).tobytes() == ana[~sharp].tobytes()


def test_mollify_trivial_cases():
    z = dr.mollify_drift(dr.ZeroDrift(), 0.1)
    assert z.value(0.0, [0.37])[0] == 0.0
    lin = dr.mollify_drift(dr.LinearDrift(matrix=[[2.0]]), 0.3)
    # symmetric kernel reproduces affine fields exactly
    assert lin.value(0.0, [0.7])[0] == pytest.approx(1.4, abs=1e-14)
    hp = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    assert abs(hp.value(0.0, [0.0])[0]) < 1e-15  # odd field, even kernel


@pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_mollify_refuses_a_bad_radius(eps):
    with pytest.raises(dr.DriftError, match="positive and finite"):
        dr.mollify_drift(dr.ZeroDrift(), eps)
    # the kernel alone too: a NaN width gave NaN values
    with pytest.raises(dr.DriftError, match="positive and finite"):
        dr.Mollifier(eps)


def test_mollify_uniform_convergence_monotone():
    b = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    xs = np.linspace(-3.0, 3.0, 1000)[:, None]
    sups = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        m = dr.mollify_drift(b, eps)
        sups.append(float(np.max(np.abs(m.value(0.0, xs) - b.value(0.0, xs)))))
    assert all(b2 < a2 for a2, b2 in zip(sups, sups[1:]))
    assert sups[-1] < 0.5  # tends to zero on compacts


def test_mollified_rotation_divergence_free():
    rot = dr.mollify_drift(dr.Rotation2DDrift(omega=1.3), 0.1)
    pts = np.array([[0.0, 0.0], [0.5, -0.25], [1.0, 2.0]])
    assert np.max(np.abs(rot.divergence(0.0, pts))) < 1e-8


def test_mollified_divergence_bounded_small_gamma():
    # the Stieltjes convolution keeps div b^eps bounded even for gamma < 1/2
    eps = 0.05
    m = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.25, cap=2.0), eps)
    xs = np.linspace(-0.02, 0.02, 4001)[:, None]
    dv = m.divergence(0.0, xs)
    scale = (0.25 / 0.75) * eps ** (0.25 - 1.0)
    assert np.max(np.abs(dv)) < 20.0 * scale


def test_mollified_linear_divergence_exact():
    m = dr.mollify_drift(dr.LinearDrift(matrix=[[2.0]]), 0.1)
    assert m.divergence(0.0, np.array([[0.0], [0.4], [-1.0]])) == pytest.approx([2.0] * 3, abs=1e-12)


def test_holder_seminorm_estimates():
    # brute-force oracle: on B(1) the sup of |b(x)-b(y)| / |x-y|^0.5 for
    # b = 2 sign(x) sqrt|x| is attained at opposite pairs and equals 2 sqrt 2
    b = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    grid = np.linspace(-1.0, 1.0, 401)
    bx = b.value(0.0, grid[:, None])[:, 0]
    quot = np.abs(bx[:, None] - bx[None, :]) / np.sqrt(
        np.abs(grid[:, None] - grid[None, :]) + np.eye(len(grid))
    )
    oracle = float(np.max(quot))
    assert oracle == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-2)


@settings(max_examples=25, deadline=None)
@given(
    gamma=st.floats(0.05, 0.95),
    x=st.floats(-5.0, 5.0),
    t=st.floats(0.0, 1.0),
)
def test_eval_drift_is_pure(gamma, x, t):
    a = dr.HolderPowerDrift(gamma=gamma, cap=2.0)
    b = dr.HolderPowerDrift(gamma=gamma, cap=2.0)
    va = a.value(t, [x])[0]
    vb = b.value(t, [x])[0]
    assert va == vb == a.value(t, [x])[0]


def test_dimension_mismatch_raises():
    rot = dr.Rotation2DDrift()
    with pytest.raises(dr.DriftError):
        rot.value(0.0, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(dr.DriftError):
        dr.ZeroDrift().value(0.0, np.array([np.inf]))


def test_mollifier_normalization_and_support():
    moll = dr.Mollifier(eps=0.2)
    xs = np.linspace(-0.25, 0.25, 20001)
    total = np.trapezoid(moll.kernel(xs), xs)
    assert total == pytest.approx(1.0, abs=1e-8)
    assert np.all(moll.kernel(np.array([0.21, -0.3])) == 0.0)
    assert moll.kernel(0.13) == moll.kernel(-0.13)
    offsets, weights = dr.mollify_drift(dr.ZeroDrift(), 0.2)._nodes()
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(offsets)) < 0.2


@pytest.mark.parametrize("eps", [0.2, 0.0125, 1.0, 3.0])
def test_mollifier_kernel_matches_previous_formula_bitwise(eps):
    u, w = np.polynomial.legendre.leggauss(200)
    mass = float(np.sum(w * dr.bump_value(u)))
    x = np.concatenate([[0.0, -0.0, eps, -eps, np.inf, -np.inf], np.linspace(-1.5 * eps, 1.5 * eps, 4002)])
    want = dr.bump_value(np.abs(x) / eps) / (mass * eps**1)
    assert dr.Mollifier(eps).kernel(x).tobytes() == want.tobytes()
    assert dr.Mollifier(eps).kernel(x.reshape(2, -1)).tobytes() == want.tobytes()


def _bump_masked(u):
    """Oracle: the bump through a boolean gather and scatter."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


_NEAR_ONE = np.nextafter(1.0, 0.0)


@pytest.mark.parametrize(
    "u",
    [
        [1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, np.nan, _NEAR_ONE, -_NEAR_ONE, 0.5],
        np.linspace(-1.5, 1.5, 4002).reshape(3, -1)[:, ::2],  # strided
        0.3, -0.0, 1.0, np.inf, np.array(-0.7),
    ],
)
def test_bump_value_matches_masked_formula_bitwise(u):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dr.bump_value(u)
    want = _bump_masked(u)
    assert type(got) is type(want) and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "spec",
    [
        dr.ZeroDrift(dim=2),
        dr.HolderPowerDrift(gamma=0.3, cap=1.5, signed=False),
        dr.Rotation2DDrift(omega=0.4),
        dr.LinearDrift(matrix=[[1.0, 0.5], [0.0, -2.0]]),
        dr.MollifiedDrift(base=dr.HolderPowerDrift(gamma=0.5, cap=2.0), eps=0.05),
    ],
)
def test_json_roundtrip(spec):
    again = dr.drift_from_json(dr.drift_to_json(spec))
    assert dr.drift_to_json(again) == dr.drift_to_json(spec)


def test_json_unknown_kind():
    with pytest.raises(dr.DriftError):
        dr.drift_from_dict({"kind": "nope"})


def test_json_grid_sampled_shape_is_a_drift_error():
    data = {"kind": "grid_sampled", "xs": [0, 1], "ts": [0, 1], "values": [[1], [1]]}
    with pytest.raises(dr.DriftError, match=r"\(2, 2\), got \(2, 1\)"):
        dr.drift_from_dict(data)
    with pytest.raises(dr.DriftError, match="lists"):
        dr.drift_from_dict(dict(data, xs=1.0))


@pytest.mark.parametrize(
    "text, match",
    [
        ('"zero"', "must be an object"),
        ('{"kind": "holder_power"}', "needs the key 'gamma'"),
        ('{"kind": "mollified", "base": {"kind": "zero"}}', "needs the key 'eps'"),
        ('{"kind": "linear"}', "needs the key 'matrix'"),
        ('{"kind": "holder_power", "gamma": "abc"}', "malformed value"),
        ('{"kind": "holder_power", "gamma": 0.5, "cap": NaN}', "radius must be positive"),
        ('{"kind": "linear", "matrix": [[NaN]]}', "finite square matrix"),
        ('{"kind": "grid_sampled", "xs": [1, 0], "ts": [0, 1], "values": [[0, 0], [0, 0]]}', "increasing"),
        ('{"kind": "grid_sampled", "xs": [0, 1], "ts": [0, 0], "values": [[0, 0], [0, 0]]}', "increasing"),
        ('{"kind": "grid_sampled", "xs": [0, 1], "ts": [0, 1], "values": [[0, NaN], [0, 0]]}', "finite"),
    ],
    ids=[
        "not-an-object", "no-gamma", "no-eps", "no-matrix", "gamma-abc", "cap-nan",
        "matrix-nan", "xs-decreasing", "ts-repeated", "values-nan",
    ],
)
def test_malformed_drift_json_is_a_drift_error(text, match):
    with pytest.raises(dr.DriftError, match=match):
        dr.drift_from_json(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "mollified", "eps": NaN, "base": {"kind": "zero"}}',
        '{"kind": "mollified", "eps": Infinity, "base": {"kind": "zero"}}',
        '{"kind": "rotation2d", "omega": NaN}',
        '{"kind": "rotation2d", "omega": -Infinity}',
        '{"kind": "zero", "dim": 0}',
        '{"kind": "zero", "dim": -2}',
        '{"kind": "holder_power", "gamma": 0.5, "cap": Infinity}',
    ],
    ids=["eps-nan", "eps-inf", "omega-nan", "omega-inf", "dim-0", "dim-negative", "cap-inf"],
)
def test_non_finite_or_out_of_range_drift_json_is_refused(text):
    with pytest.raises(dr.DriftError, match="finite|dim >= 1"):
        dr.drift_from_json(text)
    # so `lab run --set drift=...` is a usage error
    with pytest.raises(harness.ConfigError, match="^drift: "):
        harness.load_config("mean-pde-mc", overrides=[f"drift={text}"])


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"kind": "holder_power", "gamma": 0.5, "signed": "false"}', "signed"),
        ('{"kind": "holder_power", "gamma": 0.5, "signed": 0}', "signed"),
        ('{"kind": "zero", "dim": true}', "dim"),
        ('{"kind": "zero", "dim": 1.5}', "dim"),
        ('{"kind": "zero", "dim": "2"}', "dim"),
        ('{"kind": "mollified", "eps": 0.05, "quad_points": 32, "base": {"kind": "zero"}}', "quad_points"),
    ],
    ids=["signed-string", "signed-int", "dim-bool", "dim-float", "dim-string", "quad-points"],
)
def test_drift_json_reads_flags_and_counts_by_type(text, key):
    # each of these used to build a drift: "false" a signed one, true dim 1
    with pytest.raises(dr.DriftError, match=f"'{key}'"):
        dr.drift_from_json(text)
    with pytest.raises(harness.ConfigError, match="^drift: "):
        harness.load_config("mean-pde-mc", overrides=[f"drift={text}"])


def test_eval_drift_thread_safe():
    # values may be shared and evaluated concurrently without synchronization
    from concurrent.futures import ThreadPoolExecutor

    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    xs = np.linspace(-3, 3, 257)[:, None]
    serial = spec.value(0.0, xs)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: spec.value(0.0, xs), range(32)))
    assert all(np.array_equal(r, serial) for r in results)


def test_mollified_linear_exact_2d():
    A = np.array([[0.3, -1.1], [0.7, 0.2]])
    m = dr.mollify_drift(dr.LinearDrift(matrix=A), 0.2)
    pts = np.array([[0.4, -0.6], [0.0, 0.0]])
    assert np.allclose(m.value(0.0, pts), pts @ A.T, atol=1e-12)


def test_array_backed_drifts_compare_by_value():
    A = np.array([[0.3, -1.1], [0.7, 0.2]])
    assert dr.LinearDrift(np.eye(2)) == dr.LinearDrift(np.eye(2))
    assert dr.LinearDrift(A) != dr.LinearDrift(A.T)
    assert dr.LinearDrift(np.eye(2)) != dr.LinearDrift(np.eye(3))
    assert dr.LinearDrift([[0.0]]) == dr.LinearDrift([[-0.0]])
    assert hash(dr.LinearDrift([[0.0]])) == hash(dr.LinearDrift([[-0.0]]))
    assert len({dr.LinearDrift(A), dr.LinearDrift(A.copy()), dr.LinearDrift(A.T)}) == 2
    assert dr.mollify_drift(dr.LinearDrift(A), 0.1) == dr.mollify_drift(dr.LinearDrift(A.copy()), 0.1)

    def field(values):
        return pa.SpaceTimeField(xs=np.linspace(-1, 1, 3), ts=np.array([0.0, 1.0]), values=values)

    assert dr.GridSampledDrift(field=field(np.zeros((2, 3)))) == dr.GridSampledDrift(field=field(np.zeros((2, 3))))
    assert dr.GridSampledDrift(field=field(np.zeros((2, 3)))) != dr.GridSampledDrift(field=field(np.ones((2, 3))))


ONE_D = [
    dr.ZeroDrift(),
    dr.HolderPowerDrift(gamma=0.5, cap=2.0),
    dr.LinearDrift(matrix=[[2.0]]),
    dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05),
]


@pytest.mark.parametrize("spec", ONE_D)
def test_points_are_dim_last_and_checked_at_entry(spec):
    # a 1-d drift takes (..., 1) points only; a 0-d or (n,) point is refused
    for x in (np.float64(0.5), np.array([0.1, 0.2, 0.3])):
        with pytest.raises(dr.DriftError, match="point shape"):
            spec.value(0.0, x)
        with pytest.raises(dr.DriftError, match="point shape"):
            spec.divergence(0.0, x)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.array([[0.1], [bad]])
        with pytest.raises(dr.DriftError, match="non-finite"):
            spec.value(0.0, x)
        with pytest.raises(dr.DriftError, match="non-finite"):
            spec.divergence(0.0, x)
    assert spec.value(0.0, np.zeros((4, 3, 1))).shape == (4, 3, 1)
    assert spec.divergence(0.0, np.full((4, 3, 1), 0.5)).shape == (4, 3)


# The loops below are the previous MollifiedDrift code, kept as references:
# the value fold checked the points at every base call, and the 1-d Stieltjes
# divergence held all edge values in a list before folding them.  A power law
# is tabulated now; behind _Opaque it is a nonlinear base with a cusp that
# takes the node rule, so the rule keeps the fields it was pinned on.


class _Opaque(dr.Drift):
    """A drift's values under a class the mollifier has no table for."""

    def __init__(self, inner):
        self.inner = inner

    def _value(self, t, x):
        return self.inner._value(t, x)


def _mollified_value_reference(m, t, x):
    offsets, weights = m._nodes()
    acc = None
    for off, w in zip(offsets, weights):
        term = w * m.base.value(t, x - off)
        acc = term if acc is None else acc + term
    return acc


def _stieltjes_divergence_reference(m, t, x):
    edges, kern = dr._stieltjes_kernel(m.eps)
    bvals = [m.base.value(t, x + o)[..., 0] for o in edges]
    acc = kern[0] * (bvals[1] - bvals[0])
    for j in range(1, len(kern)):
        acc = acc + kern[j] * (bvals[j + 1] - bvals[j])
    return acc


BASES = [
    _Opaque(dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=True)),
    _Opaque(dr.HolderPowerDrift(gamma=0.3, cap=1.5, signed=False)),
    dr.LinearDrift(matrix=[[-1.3]]),
    dr.Rotation2DDrift(omega=0.7),
    dr.ZeroDrift(),
    dr.LinearDrift(matrix=[[0.3, -1.1], [0.7, 0.2]]),
    dr.GridSampledDrift(
        field=pa.SpaceTimeField(
            xs=np.linspace(-2.0, 2.0, 9),
            ts=np.array([0.0, 0.5]),
            values=np.sin(np.arange(18.0)).reshape(2, 9),
        )
    ),
]


# batch sizes on both sides of the fan-out's group boundaries (16,384
# elements): all 32 nodes per call up to 512 points, one node per call past
# 8,192 elements, and past the budget itself at 16,385
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize(
    "n", [1, 129, 2049, 30, 511, 512, 513, 16385, pytest.param((2000, 9), id="2000x9")]
)
def test_mollified_drift_matches_previous_loops_bitwise(base, n):
    m = dr.mollify_drift(base, 0.05)
    rng = np.random.default_rng(n)
    lead = n if isinstance(n, tuple) else (n,)
    offsets = m._nodes()[0][:, 0]
    edges = dr._stieltjes_kernel(m.eps)[0]
    # signed zeros, the caps and beyond, and points whose shifts land on 0.0
    special = np.concatenate([[0.0, -0.0, 2.0, -2.0, 1.5, -1.5, 3.7, -3.7], offsets[:4], -edges[:4]])
    for shape in (lead + (base.dim,), (3,) + lead + (base.dim,)):
        x = rng.uniform(-2.5, 2.5, size=shape)
        x[..., 0][:: max(lead[0] // 4, 1)] = 0.0  # on the singularity
        flat = x.reshape(-1, base.dim)  # a view: writes land in x
        flat[: len(special), 0] = special[: len(flat)]
        assert np.array_equal(m.value(0.25, x), _mollified_value_reference(m, 0.25, x))
        if base.dim == 1:
            ref = _stieltjes_divergence_reference(m, 0.25, x)
            assert np.array_equal(m.divergence(0.25, x), ref)


# values computed in place must leave the caller's points alone: the raw power
# law, its table, and the node rule on a batch that fans out in one group of
# all 32 nodes (30 points) and on one that makes one base call per node (9,000
# points, past 8,192 elements); the bytes, signed zeros included, are those of
# the previous code
@pytest.mark.parametrize("n", [30, 9000])
@pytest.mark.parametrize("signed", [True, False])
def test_in_place_values_keep_the_points_and_the_bytes(n, signed):
    holder = dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=signed)
    x = np.linspace(-2.5, 2.5, n).reshape(n, 1)
    x[:4, 0] = [0.0, -0.0, 2.0, -2.0]
    before = x.tobytes()
    sign = np.sign(x) if signed else 1.0
    previous = holder.coef * (sign * np.minimum(np.abs(x), holder.cap) ** holder.gamma)
    assert holder.value(0.0, x).tobytes() == previous.tobytes()
    assert x.tobytes() == before
    table = dr.mollify_drift(holder, 0.05)
    table.value(0.0, x)
    table.divergence(0.0, x)
    assert x.tobytes() == before
    nodes = dr.mollify_drift(_Opaque(holder), 0.05)
    assert nodes.value(0.0, x).tobytes() == _mollified_value_reference(nodes, 0.0, x).tobytes()
    assert x.tobytes() == before


def _stock_mollifications():
    """Every (gamma, eps) at which a stock config mollifies the power law."""
    from transportlab import experiments

    pairs = set()
    for spec in experiments.all_specs():
        extra, ladders = spec.defaults.get("extra", {}), spec.defaults.get("ladders", {})
        if "eps" in extra:
            pairs.add((extra["gamma"], extra["eps"]))
        if "gammas" in extra:
            pairs |= {(g, e) for g in extra["gammas"] for e in ladders["eps"]}
    return sorted(pairs)


def _converged_mollification(base, eps, x):
    """theta_eps * b at x: 512 cells a window, graded toward the cusp at 0 and
    divided by the rule's own kernel mass; it moves by about 1e-9 from 256 cells."""
    grade = eps * 0.7 ** np.arange(1, 78)
    splits = (-base.cap, 0.0, base.cap, *grade, *-grade)
    b = lambda y: base.value(0.0, y[:, None])[:, 0]
    kern = dr.Mollifier(eps).kernel
    return dr._convolve_at(x, b, eps, kern, 512, splits) / dr._convolve_at(x, np.ones_like, eps, kern, 512, splits)


def _near_sharp_points(base, eps, n=41):
    """Points across the field and clustered at 0, +-cap and +-(cap +- eps)."""
    c = base.cap
    spots = (0.0, c, -c, c + eps, -c - eps, c - eps, -c + eps)
    return np.concatenate([np.linspace(-c - eps - 0.1, c + eps + 0.1, 401)]
                          + [s + np.linspace(-1.5 * eps, 1.5 * eps, n) for s in spots])


@pytest.mark.parametrize("gamma, eps", _stock_mollifications())
def test_mollified_power_law_table_is_converged(gamma, eps):
    base = dr.HolderPowerDrift(gamma=gamma, cap=2.0)
    x = _near_sharp_points(base, eps)
    want = _converged_mollification(base, eps, x)
    table = dr.mollify_drift(base, eps).value(0.0, x[:, None])[:, 0]
    node_rule = dr.mollify_drift(_Opaque(base), eps).value(0.0, x[:, None])[:, 0]
    # the 32-node rule is off by 2e-4 to 5e-2 here, the table by 2e-7 to 1e-5
    assert np.max(np.abs(table - want)) * 100 < np.max(np.abs(node_rule - want))


@pytest.mark.parametrize("gamma, eps", [(0.05, 0.01), (0.5, 0.05), (0.75, 0.1)])
@pytest.mark.parametrize("signed", [True, False])
def test_mollified_power_law_divergence_is_the_tables_derivative(gamma, eps, signed):
    base = dr.HolderPowerDrift(gamma=gamma, cap=2.0, signed=signed)
    m = dr.mollify_drift(base, eps)
    c = base.cap
    x = np.array([0.0, c, -c, c + eps, -c - eps, c - eps, -c + eps, 0.3, -1.1])[:, None]
    h = 1e-6
    centred = (m.value(0.0, x + h) - m.value(0.0, x - h))[:, 0] / (2.0 * h)
    div = m.divergence(0.0, x)
    assert np.all(np.abs(centred - div) <= 1e-6 * (1.0 + np.abs(div)))
    # past cap + eps the field is the power law's constant, exactly
    far = np.array([c + eps + 1e-9, -c - eps - 1e-9, 3.0, -7.5, 1e300, -1e300])[:, None]
    assert m.value(0.0, far).tobytes() == base.value(0.0, far).tobytes()
    assert np.array_equal(m.divergence(0.0, far), np.zeros(len(far)))


def test_mollified_power_law_never_takes_the_node_rule(monkeypatch):
    m = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.6, cap=2.0), 0.05)
    x = np.linspace(-3.0, 3.0, 18000).reshape(2000, 9, 1)
    m.value(0.0, x[:1])  # builds the table, which convolves the base
    calls = []
    inner = dr.HolderPowerDrift._value
    monkeypatch.setattr(dr.HolderPowerDrift, "_value", lambda self, t, y: calls.append(y.shape) or inner(self, t, y))
    assert m.value(0.0, x).shape == x.shape and m.divergence(0.0, x).shape == x.shape[:-1]
    assert calls == []
    dr.mollify_drift(dr.HolderPowerDrift(gamma=0.6, cap=2.0), 0.0499).value(0.0, x[:1])
    assert calls  # a new table does reach the base
    # a table finer than its node budget is refused rather than built
    with pytest.raises(dr.DriftError, match="too small"):
        dr.mollify_drift(dr.HolderPowerDrift(gamma=0.6, cap=2.0), 1e-6)


@pytest.mark.parametrize("signed", [True, False])
def test_holder_power_signed_zeros_give_positive_zero(signed):
    b = dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=signed)
    assert b.value(0.0, np.array([[-0.0], [0.0]])).tobytes() == np.zeros((2, 1)).tobytes()


def test_mollified_divergence_streams_its_edges():
    import tracemalloc

    m = dr.mollify_drift(_Opaque(dr.HolderPowerDrift(gamma=0.5, cap=2.0)), 0.05)
    x = np.linspace(-1.0, 1.0, 2049 * 10).reshape(2049, 10, 1)
    m.divergence(0.0, x)  # warm the kernel caches
    tracemalloc.start()
    try:
        m.divergence(0.0, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 65 edge arrays of 164 kB each held at once peaked near 10.6 MB
    assert peak < 2e6


class _Swirl(dr.Drift):
    """2-d field with no analytic divergence: its divergence is a difference stencil."""

    dim = 2

    def _value(self, t, x):
        return np.stack([np.sin(x[..., 1]) * x[..., 0] ** 2, np.cos(x[..., 0]) * x[..., 1]], axis=-1)


@pytest.mark.parametrize(
    "base", [dr.LinearDrift(matrix=[[0.3, 0.1], [-0.2, 0.5]]), dr.Rotation2DDrift(omega=0.7), _Swirl()]
)
def test_mollified_2d_divergence_checks_points_once(monkeypatch, base):
    m = dr.mollify_drift(base, 0.1)
    x = np.random.default_rng(3).uniform(-1.5, 1.5, size=(64, 64, 2))
    # previous node loop: the base's public divergence, with its checks, at every node
    offsets, weights = m._nodes()
    ref = None
    for off, w in zip(offsets, weights):
        term = w * base.divergence(0.0, x - off)
        ref = term if ref is None else ref + term
    checks = []
    check_point = dr.Drift._check_point
    monkeypatch.setattr(dr.Drift, "_check_point", lambda self, p: checks.append(p.shape) or check_point(self, p))
    assert np.array_equal(m.divergence(0.0, x), ref)
    assert checks == [x.shape]


_finite = st.floats(-3.0, 3.0, allow_nan=False)
_plain_drifts = st.one_of(
    st.builds(dr.ZeroDrift, dim=st.sampled_from([1, 2])),
    st.builds(
        dr.HolderPowerDrift,
        gamma=st.floats(0.01, 0.99),
        cap=st.floats(0.1, 5.0),
        signed=st.booleans(),
    ),
    st.builds(dr.LinearDrift, matrix=st.lists(_finite, min_size=1, max_size=1).map(lambda v: [v])),
    st.builds(
        dr.LinearDrift,
        matrix=st.lists(st.lists(_finite, min_size=2, max_size=2), min_size=2, max_size=2),
    ),
    st.builds(dr.Rotation2DDrift, omega=_finite),
)
_drifts = st.one_of(
    _plain_drifts,
    st.builds(
        dr.MollifiedDrift,
        base=_plain_drifts,
        eps=st.floats(0.01, 0.5),
    ),
)


@settings(max_examples=60, deadline=None)
@given(spec=_drifts, data=st.data())
def test_json_roundtrip_property(spec, data):
    again = dr.drift_from_json(dr.drift_to_json(spec))
    assert again == spec
    x = np.array(data.draw(st.lists(
        st.lists(st.floats(-4.0, 4.0), min_size=spec.dim, max_size=spec.dim), min_size=1, max_size=5,
    )))
    assert np.array_equal(again.value(0.0, x), spec.value(0.0, x))
