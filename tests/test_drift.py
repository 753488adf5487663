import json
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    # an even kernel of unit mass leaves an affine field as it is
    assert lin.value(0.0, [0.7])[0] == 1.4
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
    # the table's derivative keeps div b^eps bounded even for gamma < 1/2
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
        # an OverflowError, and a ValueError from einsum at evaluation, before
        ('{"kind": "mollified", "eps": 0.05, "base": {"kind": "holder_power", "gamma": 0.5, "cap": 1e308}}',
         "too small for the cap"),
        ('{"kind": "linear", "matrix": [[[1.0]]]}', "finite square matrix"),
    ],
    ids=[
        "not-an-object", "no-gamma", "no-eps", "no-matrix", "gamma-abc", "cap-nan",
        "matrix-nan", "xs-decreasing", "ts-repeated", "values-nan", "huge-cap", "3d-matrix",
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
        ('{"kind": "holder_power", "gamma": "0.5"}', "gamma"),
        ('{"kind": "holder_power", "gamma": 0.5, "cap": true}', "cap"),
        ('{"kind": "rotation2d", "omega": true}', "omega"),
        ('{"kind": "mollified", "eps": "0.05", "base": {"kind": "zero"}}', "eps"),
        ('{"kind": "linear", "matrix": "7"}', "matrix"),
        ('{"kind": "linear", "matrix": true}', "matrix"),
        ('{"kind": "linear", "matrix": [[1.0, false]]}', "matrix"),
    ],
    ids=[
        "signed-string", "signed-int", "dim-bool", "dim-float", "dim-string", "quad-points",
        "gamma-string", "cap-bool", "omega-bool", "eps-string", "matrix-string", "matrix-bool", "matrix-entry-bool",
    ],
)
def test_drift_json_reads_flags_and_counts_by_type(text, key):
    # each of these used to build a drift: "false" a signed one, true dim 1,
    # and the reals through float(...): "0.5" gamma 0.5, true omega 1
    with pytest.raises(dr.DriftError, match=f"'{key}'"):
        dr.drift_from_json(text)
    with pytest.raises(harness.ConfigError, match="^drift: "):
        harness.load_config("mean-pde-mc", overrides=[f"drift={text}"])


def test_drift_json_matrix_message_names_the_number_it_takes():
    # a bare number is a 1x1 matrix, so the message offers it
    assert dr.drift_from_json('{"kind": "linear", "matrix": 7}') == dr.LinearDrift([[7.0]])
    with pytest.raises(dr.DriftError, match="'matrix' must be a number or nested lists of numbers, got '7'"):
        dr.drift_from_json('{"kind": "linear", "matrix": "7"}')


@pytest.mark.parametrize(
    "template, key",
    [
        ('{{"kind": "holder_power", "gamma": {}}}', "gamma"),
        ('{{"kind": "holder_power", "gamma": 0.5, "cap": {}}}', "cap"),
        ('{{"kind": "mollified", "eps": {}, "base": {{"kind": "zero"}}}}', "eps"),
        ('{{"kind": "linear", "matrix": [[{}]]}}', "matrix"),
    ],
)
def test_drift_json_integer_beyond_a_float_names_its_key(template, key):
    # "int too large to convert to float" named no key
    text = template.format("1" + "0" * 400)
    with pytest.raises(dr.DriftError, match=f"^drift JSON has a malformed value: key '{key}' is too large for a float$"):
        dr.drift_from_json(text)
    with pytest.raises(harness.ConfigError, match=f"^drift: .*'{key}' is too large"):
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


# The previous MollifiedDrift folded a 32-node rule with reference loops to
# match; for an affine base theta_eps * (Ax + c) = Ax + c, so the loops are now
# the base's one call.  The ids base2-base5 are the affine entries of that
# table (base0, base1 and base6 were an opaque power law and a grid-sampled
# field, which are refused now), and the batch sizes and shapes are the ones
# that pinned the old fan-out.
AFFINE_BASES = [
    pytest.param(dr.LinearDrift(matrix=[[-1.3]]), id="base2"),
    pytest.param(dr.Rotation2DDrift(omega=0.7), id="base3"),
    pytest.param(dr.ZeroDrift(), id="base4"),
    pytest.param(dr.LinearDrift(matrix=[[0.3, -1.1], [0.7, 0.2]]), id="base5"),
    pytest.param(dr.ZeroDrift(dim=2), id="zero-2d"),
]


@pytest.mark.parametrize("base", AFFINE_BASES)
@pytest.mark.parametrize(
    "n", [1, 129, 2049, 30, 511, 512, 513, 16385, pytest.param((2000, 9), id="2000x9")]
)
def test_mollified_drift_matches_previous_loops_bitwise(base, n):
    m = dr.mollify_drift(base, 0.05)
    rng = np.random.default_rng(n)
    lead = n if isinstance(n, tuple) else (n,)
    # signed zeros, the caps and beyond
    special = np.array([0.0, -0.0, 2.0, -2.0, 1.5, -1.5, 3.7, -3.7])
    for shape in (lead + (base.dim,), (3,) + lead + (base.dim,)):
        x = rng.uniform(-2.5, 2.5, size=shape)
        x[..., 0][:: max(lead[0] // 4, 1)] = 0.0
        flat = x.reshape(-1, base.dim)  # a view: writes land in x
        flat[: len(special), 0] = special[: len(flat)]
        assert m.value(0.25, x).tobytes() == base.value(0.25, x).tobytes()
        assert m.divergence(0.25, x).tobytes() == base.divergence(0.25, x).tobytes()


class _Opaque(dr.Drift):
    """A drift's values under a class the mollifier does not know."""

    def __init__(self, inner):
        self.inner = inner

    def _value(self, t, x):
        return self.inner._value(t, x)


@dataclass(frozen=True)
class _Shear(dr.LinearDrift):
    """A user subclass of an accepted base: it could change the field."""


_GRID_FIELD = pa.SpaceTimeField(xs=np.linspace(-1, 1, 3), ts=np.array([0.0, 1.0]), values=np.zeros((2, 3)))


@pytest.mark.parametrize(
    "base",
    [
        dr.GridSampledDrift(field=_GRID_FIELD),
        dr.mollify_drift(dr.ZeroDrift(), 0.1),
        _Opaque(dr.HolderPowerDrift(gamma=0.5, cap=2.0)),
        _Shear(matrix=[[1.0]]),
        None,
    ],
    ids=["grid-sampled", "mollified", "opaque", "linear-subclass", "none"],
)
def test_mollified_drift_refuses_other_bases(base):
    with pytest.raises(dr.DriftError, match="holder_power, zero, linear or rotation2d base"):
        dr.mollify_drift(base, 0.05)
    if isinstance(base, (dr.GridSampledDrift, dr.MollifiedDrift)):
        text = json.dumps({"kind": "mollified", "eps": 0.05, "base": dr.drift_to_dict(base)})
        with pytest.raises(dr.DriftError, match="rotation2d base"):
            dr.drift_from_json(text)
        with pytest.raises(harness.ConfigError, match="^drift: .*rotation2d base"):
            harness.load_config("mean-pde-mc", overrides=[f"drift={text}"])


# values computed in place must leave the caller's points alone: the raw power
# law and its table, on a small and a large batch; the raw law's bytes, signed
# zeros included, are those of the previous code
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


def _node_rule(base, eps, x):
    """theta_eps * b at x by the 32-node Gauss rule the table replaced: the
    bump's Legendre weights on [-eps, eps], normalized to unit sum."""
    u, w = np.polynomial.legendre.leggauss(32)
    weights = w * dr.bump_value(u)
    vals = base.value(0.0, (x[None, :] - eps * u[:, None])[..., None])[..., 0]
    return weights @ vals / weights.sum()


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
    node_rule = _node_rule(base, eps, x)
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


# a mollified affine drift checks its points once, at entry, and then takes
# the base's analytic divergence without checking them again
@pytest.mark.parametrize(
    "base",
    [
        pytest.param(dr.LinearDrift(matrix=[[0.3, 0.1], [-0.2, 0.5]]), id="base0"),
        pytest.param(dr.Rotation2DDrift(omega=0.7), id="base1"),
    ],
)
def test_mollified_2d_divergence_checks_points_once(monkeypatch, base):
    m = dr.mollify_drift(base, 0.1)
    x = np.random.default_rng(3).uniform(-1.5, 1.5, size=(64, 64, 2))
    ref = base.divergence(0.0, x)
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


# Drift JSON objects of every kind, each value drawn well-typed or mistyped.  A
# well-typed eps lies in [0.05, 1] and a well-typed cap in [0.1, 5], besides a
# few edge values a power law refuses: its table may hold up to 2^17 cells and
# take seconds to build, and these bounds keep each built table under 2,000.
_NOT_A_NUMBER = st.one_of(st.booleans(), st.sampled_from(["0.5", "7", "", "nan"]), st.none(), st.just([0.5]), st.just({}))
_COEF = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3), st.sampled_from([np.nan, np.inf, 1e308]))
_MATRIX = st.one_of(
    st.integers(1, 2).flatmap(lambda n: st.lists(st.lists(_COEF, min_size=n, max_size=n), min_size=n, max_size=n)),
    st.lists(st.lists(_COEF, max_size=2), max_size=2),  # empty, ragged or not square
    _COEF.map(lambda c: [[[c]]]),  # 3-d
    _COEF,  # a 1x1 matrix
)
_MISTYPED_MATRIX = st.one_of(st.booleans(), st.sampled_from(["7", "", None, {}, [[True]], [["1"]], [[1.0, None]]]))


@st.composite
def _drift_json(draw, depth=0):
    """(a drift JSON object, whether one of its values is mistyped)."""
    mistyped = False

    def value(good, bad=_NOT_A_NUMBER):
        nonlocal mistyped
        if draw(st.integers(0, 3)):
            return draw(good)
        mistyped = True
        return draw(bad)

    kinds = ["zero", "holder_power", "rotation2d", "linear", "grid_sampled", "mollified"]
    kind = draw(st.sampled_from(kinds[:-1] if depth == 2 else kinds))
    data = {"kind": kind}
    if kind == "zero" and draw(st.booleans()):
        data["dim"] = value(st.integers(-1, 3), st.sampled_from([True, 1.5, "2"]))
    elif kind == "holder_power":
        data["gamma"] = value(st.one_of(st.floats(0.05, 0.95), st.sampled_from([0, 1, 1.5, np.nan])))
        if draw(st.booleans()):
            data["cap"] = value(st.one_of(st.floats(0.1, 5.0), st.sampled_from([0.0, -1.0, 1e308, np.inf, np.nan])))
        if draw(st.booleans()):
            data["signed"] = value(st.booleans(), st.sampled_from([0, 1, "false"]))
    elif kind == "rotation2d" and draw(st.booleans()):
        data["omega"] = value(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([np.nan, -np.inf])))
    elif kind == "linear":
        data["matrix"] = value(_MATRIX, _MISTYPED_MATRIX)
    elif kind == "grid_sampled":
        data["xs"] = value(st.just([-1.0, 1.0]), _MISTYPED_MATRIX)
        data["ts"] = [0.0, 1.0]
        data["values"] = value(st.lists(st.lists(_COEF, min_size=2, max_size=2), min_size=2, max_size=2), _MISTYPED_MATRIX)
    elif kind == "mollified":
        data["eps"] = value(st.one_of(st.floats(0.05, 1.0), st.sampled_from([0.0, -0.1, 1e-6, 5e-324, np.nan, np.inf])))
        data["base"], base_mistyped = draw(_drift_json(depth + 1))
        mistyped |= base_mistyped
    return data, mistyped


@settings(max_examples=150, deadline=None)
@given(drawn=_drift_json())
@example(drawn=({"kind": "mollified", "eps": 0.05, "base": {"kind": "holder_power", "gamma": 0.5, "cap": 1e308}}, False))
@example(drawn=({"kind": "linear", "matrix": [[[1.0]]]}, False))
@example(drawn=({"kind": "holder_power", "gamma": "0.5"}, True))
def test_drift_json_is_refused_or_round_trips(drawn):
    data, mistyped = drawn
    text = json.dumps(data)
    try:
        spec = dr.drift_from_dict(data)
    except dr.DriftError:
        with pytest.raises(harness.ConfigError, match="^drift: "):
            harness.load_config("mean-pde-mc", overrides=[f"drift={text}"])
        return
    # a bool, a string or a list where a number belongs never builds a drift
    assert not mistyped
    assert dr.drift_from_json(dr.drift_to_json(spec)) == spec
    config = harness.load_config("mean-pde-mc", overrides=[f"drift={text}"])
    assert dr.drift_from_dict(config.drift) == spec
    x = np.full((2, spec.dim), 0.3)
    assert spec.value(0.0, x).shape == x.shape and spec.divergence(0.0, x).shape == (2,)
