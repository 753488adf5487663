import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportlab import noise as nz


def test_sampling_deterministic():
    a = nz.sample_brownian(1, 0, 1, 1.0, 1 / 256)
    b = nz.sample_brownian(1, 0, 1, 1.0, 1 / 256)
    assert np.array_equal(a.increments, b.increments)
    c = nz.sample_brownian(1, 1, 1, 1.0, 1 / 256)
    assert not np.array_equal(a.increments, c.increments)


def test_grid_must_align():
    with pytest.raises(nz.NoiseError):
        nz.sample_brownian(1, 0, 1, 1.0, 0.3)
    with pytest.raises(nz.NoiseError):
        nz.sample_brownian(1, 0, 1, -1.0, 0.1)


def test_ensemble_statistics():
    n = 10000
    w1 = np.array(
        [nz.grid_values(nz.sample_brownian(123, j, 1, 1.0, 1 / 64))[-1, 0] for j in range(n)]
    )
    assert abs(w1.mean()) < 4.0 / np.sqrt(n)
    assert abs(w1.var() - 1.0) < 0.1


def test_coordinate_independence():
    n = 10000
    ends = np.array(
        [nz.grid_values(nz.sample_brownian(77, j, 2, 1.0, 1 / 64))[-1] for j in range(n)]
    )
    rho = np.corrcoef(ends.T)[0, 1]
    assert abs(rho) < 0.05


def test_batch_increments_match_streams():
    batch = nz.sample_increments(9, 2, 1.0, 1 / 128, 4, stream_offset=2)
    for j in range(4):
        rng = np.random.Generator(np.random.Philox(key=[9, 2 + j]))
        assert np.array_equal(batch[:, j, :], rng.standard_normal((128, 2)) * np.sqrt(1 / 128))
        single = nz.sample_brownian(9, 2 + j, 2, 1.0, 1 / 128)
        assert np.array_equal(single.increments, batch[:, j, :])
    paths = [nz.sample_brownian(9, 2 + j, 2, 1.0, 1 / 128) for j in range(4)]
    assert np.array_equal(nz.stacked_increments(paths), batch)
    # one re-keyed generator gives each stream's own bits, far offsets and a
    # single path included
    for seed, d, n_paths, offset in [(9, 1, 1, 0), (3, 3, 3, 2**50), (2**40, 2, 1, 2**50 + 7)]:
        batch = nz.sample_increments(seed, d, 1.0, 1 / 64, n_paths, stream_offset=offset)
        for j in range(n_paths):
            rng = np.random.Generator(np.random.Philox(key=[seed, offset + j]))
            assert batch[:, j, :].tobytes() == (rng.standard_normal((64, d)) * np.sqrt(1 / 64)).tobytes()


def test_noise_arguments_checked_in_one_place():
    assert "sample_increments" in nz.__all__
    # n_paths < 1, T <= 0, dt <= 0, dt > T
    for args in [(1, 1, 1.0, 0.1, 0), (1, 1, 1.0, 0.1, -1), (1, 1, 0.0, 0.1, 1),
                 (1, 1, 1.0, 0.0, 1), (1, 1, 1.0, -0.1, 1), (1, 1, 1.0, 2.0, 1)]:
        with pytest.raises(nz.NoiseError):
            nz.sample_increments(*args)
    with pytest.raises(nz.NoiseError):
        nz.sample_brownian(1, 0, 1, 1.0, -0.5)
    # the noiseless path shares the grid checks: dt > T, dt not dividing T
    with pytest.raises(nz.NoiseError, match="dt <= T"):
        nz.zero_path(1, 0.5, 1.0)
    with pytest.raises(nz.NoiseError, match="does not divide"):
        nz.zero_path(1, 1.0, 0.3)
    assert nz.zero_path(2, 0.5, 0.125).increments.shape == (4, 2)
    with pytest.raises(nz.NoiseError, match="share dt"):
        nz.stacked_increments([nz.zero_path(1, 1.0, 0.25), nz.zero_path(1, 1.0, 0.5)])


@pytest.mark.parametrize(
    "seed, stream, name",
    [(1.5, 0, "seed"), (True, 0, "seed"), (-1, 0, "seed"), (2**64, 0, "seed"), (None, 0, "seed"),
     (1, 0.5, "stream_id"), (1, False, "stream_id"), (1, -2, "stream_id")],
)
def test_seed_and_stream_must_be_integers(seed, stream, name):
    # a seed of 1.5 drew seed 1's stream (uint64 truncation), and True was seed 1
    with pytest.raises(nz.NoiseError, match=f"^{name}="):
        nz.sample_increments(seed, 1, 1.0, 0.25, 2, stream_offset=stream)
    with pytest.raises(nz.NoiseError, match=f"^{name}="):
        nz.sample_brownian(seed, stream, 1, 1.0, 0.25)
    # numpy integers are integers: the same bits as the Python int
    want = nz.sample_brownian(7, 3, 1, 1.0, 0.25).increments
    assert nz.sample_brownian(np.int64(7), np.uint32(3), 1, 1.0, 0.25).increments.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_times_are_refused(bad):
    # each raised numpy's "cannot convert float NaN to integer" (or OverflowError)
    p = nz.sample_brownian(1, 0, 1, 1.0, 0.25)
    with pytest.raises(nz.NoiseError, match=r"^t=.* outside the path range"):
        nz.evaluate(p, bad)
    with pytest.raises(nz.NoiseError, match=r"^time=.* is not on the path grid"):
        p.index_of(bad)
    with pytest.raises(nz.NoiseError, match=rf"got T={bad}, dt=0.25$"):
        nz.zero_path(1, bad, 0.25)
    with pytest.raises(nz.NoiseError, match=rf"got T=1.0, dt={bad}$"):
        nz.sample_increments(1, 1, 1.0, bad, 1)


def test_evaluate_interpolation():
    p = nz.sample_brownian(1, 0, 1, 1.0, 1 / 4)
    assert np.all(nz.evaluate(p, 0.0) == 0.0)
    grid = nz.grid_values(p)
    assert nz.evaluate(p, 0.5)[0] == pytest.approx(grid[2, 0], abs=0)
    midway = nz.evaluate(p, 0.375)[0]
    assert midway == pytest.approx(0.5 * (grid[1, 0] + grid[2, 0]), rel=1e-14)
    with pytest.raises(nz.NoiseError):
        nz.evaluate(p, 1.5)
    with pytest.raises(nz.NoiseError):
        nz.evaluate(p, -0.2)


def test_smoothing_of_flat_and_affine_paths():
    flat = nz.path_from_increments(np.zeros((64, 1)), 1 / 64)
    sp = nz.wong_zakai_smooth(flat, 8)
    assert np.all(sp.value(0.3) == 0.0)
    assert np.all(sp.derivative(0.3) == 0.0)

    affine = nz.path_from_increments(np.full((256, 1), 1 / 256), 1 / 256)
    sp = nz.wong_zakai_smooth(affine, 8)
    # exact on [1/n, T - 1/n]: the even kernel reproduces affine paths
    for t in (0.125, 0.5, 0.8):
        assert sp.value(t)[0] == pytest.approx(t, abs=1e-12)
        assert sp.derivative(t)[0] == pytest.approx(1.0, abs=1e-12)


def test_smoothing_error_ladder():
    p = nz.sample_brownian(1, 0, 1, 1.0, 1 / 256)
    ts = np.linspace(0.0, 1.0, 257)
    sups = []
    for n in (4, 8, 16, 32, 64):
        sp = nz.wong_zakai_smooth(p, n)
        sups.append(max(abs(sp.value(t)[0] - nz.evaluate(p, t)[0]) for t in ts))
    assert all(b <= a for a, b in zip(sups, sups[1:]))
    assert sups[-1] / sups[1] < 1.0  # n=64 beats n=8


def test_smoothing_causality():
    p = nz.sample_brownian(5, 0, 1, 1.0, 1 / 128)
    sp = nz.wong_zakai_smooth(p, 8)
    seen = []
    inner = sp._w_many
    sp.__dict__["_w_many"] = lambda ts: (seen.append(float(np.max(ts))), inner(ts))[1]
    sp.value(0.5)
    assert max(seen) <= 0.5 + 1.0 / 8 + 1e-12


def test_smoothing_index_rejected():
    p = nz.sample_brownian(1, 0, 1, 1.0, 1 / 64)
    with pytest.raises(nz.NoiseError):
        nz.wong_zakai_smooth(p, 0)


def test_csv_export():
    p = nz.sample_brownian(1, 0, 2, 0.5, 1 / 8)
    buf = io.StringIO()
    nz.path_to_csv(p, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,W1,W2"
    assert len(lines) == p.n_steps + 2
    assert lines[1].startswith("0,0,0")


_csv_floats = st.floats(min_value=-1e300, max_value=1e300, width=64)


@settings(max_examples=60, deadline=None)
@given(
    dt=st.floats(min_value=1e-300, max_value=1e3),
    steps=st.integers(1, 8),
    d=st.integers(1, 3),
    data=st.data(),
)
def test_path_csv_roundtrip_property(dt, steps, d, data):
    inc = data.draw(st.lists(_csv_floats, min_size=steps * d, max_size=steps * d))
    p = nz.BrownianPath(dt=dt, increments=np.array(inc).reshape(steps, d))
    buf = io.StringIO()
    nz.path_to_csv(p, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["t"] + [f"W{i + 1}" for i in range(d)]
    back = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(back[:, 0], p.times) and np.array_equal(back[:, 1:], p._grid)
    assert back[:, 1:].tobytes() == p._grid.tobytes()  # signed zeros too
