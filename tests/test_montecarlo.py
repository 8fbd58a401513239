"""Classical renewal-process simulation: statistics, determinism, guards."""

import numpy as np
import pytest

from qsemimarkov import (
    DomainError,
    ExpConvolutionWTD,
    ExponentialWTD,
    NonUnitalSemiMarkov,
    TanhSechWTD,
    classical_jump_simulate,
)
from qsemimarkov import cli, semimarkov


def _z_scores(observed, se, exact):
    guard = np.where(se > 0, se, np.inf)
    return np.abs(observed - exact) / guard


@pytest.mark.parametrize("wtd", [
    ExponentialWTD(rate=1.0),
    ExpConvolutionWTD(rate1=1.0, rate2=2.0),
    TanhSechWTD(rate=1.0),
])
def test_survival_matches_waiting_time_distribution(wtd):
    result = classical_jump_simulate(wtd, 1.0, 2.0, 20_000, seed=7, n_times=5)
    assert np.array_equal(result.times, np.linspace(0.0, 2.0, 5))
    exact = np.asarray(wtd.survival(result.times))
    assert _z_scores(result.survival, result.survival_se, exact).max() < 4.0


def test_the_nonunital_process_walks_as_its_tanh_sech_waits():
    # the non-unital process is the tanh-sech law with a projector jump
    for rate in (0.5, 1.05):
        got = classical_jump_simulate(NonUnitalSemiMarkov(rate), 0.5, 3.0,
                                      2000, seed=5, n_times=7)
        want = classical_jump_simulate(TanhSechWTD(rate), 0.5, 3.0, 2000,
                                       seed=5, n_times=7)
        for field in ("times", "survival", "survival_se", "occupation",
                      "occupation_se"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert got.philox_counters == want.philox_counters
    proc = NonUnitalSemiMarkov(1.05)
    assert repr(proc) == "NonUnitalSemiMarkov(rate=1.05)"
    assert proc == NonUnitalSemiMarkov(rate=1.05) != TanhSechWTD(1.05)
    with pytest.raises(DomainError,
                       match=r"^rate must be positive and finite, got 0\.0$"):
        NonUnitalSemiMarkov(rate=0.0)


@pytest.mark.parametrize("rates", [(1.0, 2.0), (1e5, 2.0), (1e300, 1e-300),
                                   (1.5, 1.5)])
def test_two_stage_forms_are_symmetric_and_finite(rates):
    # the smaller rate takes the prefactor, so expm1 cannot overflow
    t = np.array([0.0, 1e-6, 1.0, 2.0, 1e3])
    one, swapped = ExpConvolutionWTD(*rates), ExpConvolutionWTD(*rates[::-1])
    values = one.survival(t)
    assert np.array_equal(values, swapped.survival(t))
    assert np.isfinite(values).all()


def test_occupation_without_hops_stays_put():
    result = classical_jump_simulate(
        ExponentialWTD(rate=1.0), 0.0, 2.0, 5_000, seed=3, n_times=5
    )
    assert np.all(result.occupation[0] == 1.0)
    assert np.all(result.occupation[1] == 0.0)


def test_occupation_telegraph_oracle():
    # exponential waits with certain hops: two-state telegraph process,
    # P(site 0 at t) = (1 + exp(-2 lambda t)) / 2
    lam = 1.0
    result = classical_jump_simulate(
        ExponentialWTD(rate=lam), 1.0, 1.5, 40_000, seed=11, n_times=4
    )
    exact = 0.5 * (1.0 + np.exp(-2 * lam * result.times))
    z = _z_scores(result.occupation[0], result.occupation_se[0], exact)
    assert z.max() < 4.0


def test_occupation_thinned_hops_oracle():
    # hop probability 1/2 thins the flips: rate lambda instead of 2 lambda
    lam = 1.0
    result = classical_jump_simulate(
        ExponentialWTD(rate=lam), 0.5, 2.0, 40_000, seed=13, n_times=5
    )
    exact = 0.5 * (1.0 + np.exp(-lam * result.times))
    z = _z_scores(result.occupation[0], result.occupation_se[0], exact)
    assert z.max() < 4.0


def test_occupations_sum_to_one():
    result = classical_jump_simulate(
        ExpConvolutionWTD(1.0, 2.0), 0.7, 2.0, 2_000, seed=5, n_times=5
    )
    assert np.abs(result.occupation.sum(axis=0) - 1.0).max() < 1e-12


def test_determinism_and_seed_sensitivity():
    wtd = ExpConvolutionWTD(rate1=1.0, rate2=2.0)
    a = classical_jump_simulate(wtd, 1.0, 2.0, 3_000, seed=42, n_times=9)
    b = classical_jump_simulate(wtd, 1.0, 2.0, 3_000, seed=42, n_times=9)
    assert np.array_equal(a.survival, b.survival)
    assert np.array_equal(a.occupation, b.occupation)
    c = classical_jump_simulate(wtd, 1.0, 2.0, 3_000, seed=43, n_times=9)
    assert not np.array_equal(a.survival, c.survival)


def test_path_count_extension_is_consistent(monkeypatch):
    # per-path streams are keyed by (seed, path index), so a 1000-path run
    # counts the paths of a 500-path run and then the per-path loop's paths
    # 500 to 999, though with chunks of 500 paths (a chunk holds budget / 6
    # paths, so that a one-counter block and its carry fit) the survivors
    # of both chunks are walked together, parked by counter
    wtd = TanhSechWTD(rate=1.0)
    small = classical_jump_simulate(wtd, 1.0, 1.0, 500, seed=9, n_times=3)
    monkeypatch.setattr(semimarkov, "_CHUNK_UNIFORMS", 500 * 6)
    keys = []
    draws = _recording_philox(monkeypatch, keys)
    large = classical_jump_simulate(wtd, 1.0, 1.0, 1_000, seed=9, n_times=3)
    _check_schedule(draws, keys, 1_000, per_step=2)
    assert any(np.unique(k // 500).size == 2 for k in keys)
    rest = _loop_reference(wtd, 1.0, 1.0, 1_000, 9, 3, first_path=500)
    for got, want, tail in zip((large.survival, large.occupation[0]),
                               (small.survival, small.occupation[0]), rest):
        assert np.array_equal(np.rint(got * 1_000),
                              np.rint(want * 500) + np.rint(tail * 500))


def test_result_shapes_and_se_bounds():
    result = classical_jump_simulate(
        TanhSechWTD(rate=1.0), 1.0, 1.0, 1_000, seed=1, n_times=7
    )
    assert result.times.shape == (7,)
    assert result.survival.shape == (7,)
    assert result.survival_se.shape == (7,)
    assert result.occupation.shape == (2, 7)
    assert result.occupation_se.shape == (2, 7)
    assert result.n_paths == 1_000
    assert result.seed == 1
    assert float(result.survival[0]) == 1.0  # nobody has jumped at t = 0
    assert np.all(result.survival_se >= 0)
    assert np.all(result.survival_se <= 0.5 / np.sqrt(1_000) + 1e-12)


def test_argument_validation():
    wtd = ExponentialWTD(rate=1.0)
    with pytest.raises(DomainError):
        classical_jump_simulate(wtd, 1.0, 2.0, 0, seed=1)
    with pytest.raises(DomainError):
        classical_jump_simulate(wtd, 1.0, 2.0, 10, seed=-1)
    for seed in (1.5, np.nan, np.inf, 2**64):  # 1.5 would run seed 1
        with pytest.raises(DomainError, match="seed must be a whole number"):
            classical_jump_simulate(wtd, 1.0, 2.0, 10, seed=seed)
    # a whole float is a count: 1e2 paths walk as 100 do
    floats = classical_jump_simulate(wtd, 1.0, 2.0, 1e2, seed=1.0)
    ints = classical_jump_simulate(wtd, 1.0, 2.0, 100, seed=1)
    assert (floats.n_paths, floats.seed) == (100, 1)
    assert np.array_equal(floats.survival, ints.survival)
    with pytest.raises(DomainError):
        classical_jump_simulate(wtd, 1.5, 2.0, 10, seed=1)
    with pytest.raises(DomainError):
        classical_jump_simulate(wtd, 1.0, -2.0, 10, seed=1)
    with pytest.raises(DomainError):
        classical_jump_simulate(wtd, 1.0, 2.0, 10, seed=1, n_times=1)


# ------------------------------------------------------------------ streams

def _generator_uniforms(seed, path, start, stop):
    key = np.array([seed, path], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(stop)[start:]


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("per_step", [2, 3])
def test_vectorized_streams_equal_per_path_generators(seed, per_step):
    # path ids straddle the first chunk boundary, and the largest ids,
    # whose key word the first round xors in. The counter ranges are the
    # schedule's: three of one counter, then 2, 4 and 8 counters, and a
    # capped block far along the path. They start at draws 0, 4, 8, 12,
    # 20, 36 and 756: with 3 uniforms a step, draws 4, 8 and 20 lie inside
    # a step that the range before began
    chunk = semimarkov._CHUNK_UNIFORMS // 6
    paths = np.array([*range(chunk - 3, chunk + 3), 2**63, 2**64 - 1],
                     dtype=np.uint64)
    ranges = ((1, 1), (2, 1), (3, 1), (4, 2), (6, 4), (10, 8), (190, 10))
    inside = [first for first, _ in ranges if 4 * (first - 1) % per_step]
    assert inside == ([2, 3, 6] if per_step == 3 else [])
    for first, n_counters in ranges:
        u = semimarkov._philox_uniforms(seed, paths, first, n_counters)
        expected = [_generator_uniforms(seed, int(i), 4 * (first - 1),
                                        4 * (first + n_counters - 1))
                    for i in paths]
        assert np.array_equal(u, np.array(expected).T)
        # leading rows for a carry leave the draws below them as they are
        led = semimarkov._philox_uniforms(seed, paths, first, n_counters, 2)
        assert led.shape == (2 + len(u), paths.size)
        assert np.array_equal(led[2:], u)


def _recording_philox(monkeypatch, keys=None):
    """Record (live paths, first counter, counters, carried rows) of every
    block drawn, and append its path keys to ``keys`` if given."""
    draws = []
    philox = semimarkov._philox_uniforms

    def recording_philox(seed, paths, first_counter, n_counters, lead=0):
        draws.append((paths.size, first_counter, n_counters, lead))
        if keys is not None:
            keys.append(paths.astype(np.int64))
        return philox(seed, paths, first_counter, n_counters, lead)

    monkeypatch.setattr(semimarkov, "_philox_uniforms", recording_philox)
    return draws


def _check_schedule(draws, keys, n_paths, per_step):
    """Check a run's recorded draws against the parked block schedule and
    return how many fell short of doubling at the uniform budget's cap."""
    budget = semimarkov._CHUNK_UNIFORMS
    chunk = budget // 6
    n_chunks = -(-n_paths // chunk)
    next_ctr = np.ones(n_paths, dtype=np.int64)  # each path's next counter
    last = np.zeros(n_paths, dtype=np.int64)     # and its last block's size
    opened = n_capped = 0
    for (n, first, n_ctr, lead), k in zip(draws, keys):
        # the uniforms of a step the path's last block began carry into
        # this one, as the block's leading rows
        carried = 4 * (first - 1) % per_step
        assert lead == carried
        assert n * (4 * n_ctr + carried) <= budget
        # each path's counters run on from 1, one block after another
        assert np.unique(k).size == n and np.all(next_ctr[k] == first)
        if first == 1:               # chunks open in order
            assert np.array_equal(k, np.arange(opened * chunk,
                                               min(n_paths,
                                                   (opened + 1) * chunk)))
            opened += 1
        # until the last chunk opens, a draw covers at least half a chunk
        assert opened == n_chunks or 2 * n >= chunk
        if first <= 3:               # three one-counter blocks first
            assert n_ctr == 1
        else:                        # then at most doubling a path's last
            assert n_ctr <= 2 * last[k].min()
            # short of that only where one more counter breaks the cap
            n_capped += (n_ctr < 2 * last[k].min()
                         and n * (4 * (n_ctr + 1) + carried) > budget)
        next_ctr[k] += n_ctr
        last[k] = n_ctr
    assert opened == n_chunks and np.all(next_ctr > 1)
    return n_capped


@pytest.mark.parametrize("wtd, t_max, n_paths, capped", [
    (ExpConvolutionWTD(rate1=1.0, rate2=2.0), 2.0, 30_000, False),
    (TanhSechWTD(rate=1.0), 400.0, 300, True),
    # 2**16 // 512 = 128 uniforms a path: a carry costs the cap a counter
    (ExpConvolutionWTD(rate1=1.0, rate2=2.0), 400.0, 512, True),
])
def test_blocks_double_within_the_uniform_budget(monkeypatch, wtd, t_max,
                                                 n_paths, capped):
    per_step = 3 if isinstance(wtd, ExpConvolutionWTD) else 2
    keys = []
    draws = _recording_philox(monkeypatch, keys)
    result = classical_jump_simulate(wtd, 1.0, t_max, n_paths, seed=3,
                                     n_times=5)
    assert result.philox_counters == sum(n * k for n, _, k, _ in draws)
    # long paths reach the budget's cap
    assert (_check_schedule(draws, keys, n_paths, per_step) > 0) == capped


def test_short_paths_draw_few_counters(monkeypatch, capsys):
    # the default run's paths read about 2.05 counters each (counted with a
    # Generator(Philox) per path), and draw little past them
    draws = _recording_philox(monkeypatch)
    assert cli.run(["classical-sim", "--seed", "1", "--paths", "10000"]) == 0
    capsys.readouterr()
    assert sum(n * n_ctr for n, _, n_ctr, _ in draws) / 10_000 <= 2.1


def test_long_paths_draw_few_counters(monkeypatch, capsys):
    # the 5000 heavy-tailed tanh-sech paths draw 66.69 counters a path, the
    # last few in blocks of up to 16; classical-sim reports the counters it
    # drew
    draws = _recording_philox(monkeypatch)
    assert cli.run(["classical-sim", "--seed", "1", "--wtd", "tanhsech",
                    "--paths", "5000", "--t-max", "200"]) == 0
    drawn = sum(n * n_ctr for n, _, n_ctr, _ in draws)
    assert f"# meta.philox_counters: {drawn}\n" in capsys.readouterr().out
    assert drawn / 5_000 <= 66.69


@pytest.mark.parametrize("wtd, jump_prob, t_max", [
    (ExpConvolutionWTD(rate1=1.0, rate2=2.0), 0.7, 2.0),
    (TanhSechWTD(rate=1.0), 1.0, 40.0),
    (ExponentialWTD(rate=1.0), 0.3, 2.0),
])
def test_chunk_size_does_not_change_results(monkeypatch, wtd, jump_prob,
                                            t_max):
    def simulate(n_paths):
        return classical_jump_simulate(wtd, jump_prob, t_max, n_paths,
                                       seed=17, n_times=21)

    # one path per chunk; then chunks of 1000 paths; chunks of 100 paths,
    # whose survivors merge at two or more counters; and all paths in one
    # chunk with blocks that double without a cap, where the default
    # budget walks the 3000 paths as one chunk
    for budget, n_paths, meet in ((1, 300, 0), (6 * 1000, 3000, 0),
                                  (6 * 100, 3000, 2), (10**9, 3000, 0)):
        default = simulate(n_paths)
        monkeypatch.setattr(semimarkov, "_CHUNK_UNIFORMS", budget)
        keys = []
        draws = _recording_philox(monkeypatch, keys)
        other = simulate(n_paths)
        monkeypatch.undo()
        assert np.array_equal(default.survival, other.survival)
        assert np.array_equal(default.occupation, other.occupation)
        # the counters at which one draw walks paths of several chunks
        chunk = max(1, budget // 6)
        met = {first for (_, first, _, _), k in zip(draws, keys)
               if np.unique(k // chunk).size > 1}
        assert len(met) >= meet
@pytest.mark.parametrize("n_times", [2, 3, 41, 401, 10**6])
@pytest.mark.parametrize("t_max", [5e-324, 1e-320, 7.4e-321, 1e-310, 1e-3,
                                   0.3, 7.7, 200.0, 1e308])
def test_time_bins_equal_searchsorted(n_times, t_max):
    # 1e-320 and 7.4e-321 are subnormal horizons whose linspace step rounds
    # far off i t_max / (n - 1), or makes the grid decrease at its end
    # far from every grid point, the uniform queries take the arithmetic
    # route; grid points and their neighbours take the binary search
    times = np.linspace(0.0, t_max, n_times)
    queries = np.concatenate([
        times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf),
        [0.0, t_max, np.inf],
        np.random.default_rng(n_times).uniform(0.0, t_max, 10_000),
    ])
    bins = semimarkov._grid_bins(times)(queries)
    assert np.array_equal(bins, np.searchsorted(times, queries))


def test_time_bins_off_a_uniform_grid_equal_searchsorted():
    # a grid the arithmetic cannot index within one bin takes the search
    for times in (np.array([0.0, 0.1, 0.5, 2.0]),
                  np.linspace(0.0, 1.0, 41) ** 2):
        queries = np.concatenate([times, (times[1:] + times[:-1]) / 2])
        bins = semimarkov._grid_bins(times)(queries)
        assert np.array_equal(bins, np.searchsorted(times, queries))


def _loop_reference(wtd, jump_prob, t_max, n_paths, seed, n_times,
                    first_path=0):
    """The original per-path walk: one Generator per path, one path a loop,
    over paths ``first_path`` to ``n_paths - 1``."""
    per_step = 3 if isinstance(wtd, ExpConvolutionWTD) else 2
    times = np.linspace(0.0, t_max, n_times)
    survived = np.zeros(times.size)
    occ0 = np.zeros(times.size)
    for i in range(first_path, n_paths):
        key = np.array([seed, i], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        wait_blocks, hop_blocks, total = [], [], 0.0
        while total < t_max:
            u = gen.random((16, per_step))
            w = semimarkov._waits_from_uniforms(wtd, u)
            wait_blocks.append(w)
            hop_blocks.append(u[:, -1])
            total += float(w.sum())
        epochs = np.cumsum(np.concatenate(wait_blocks))
        n_jumps = int(np.searchsorted(epochs, t_max, side="left"))
        first_jump = epochs[0] if n_jumps >= 1 else np.inf
        survived += times < first_jump
        hops = np.concatenate(hop_blocks)[:n_jumps] < jump_prob
        sites = np.concatenate([[0], np.cumsum(hops) & 1])
        idx = np.searchsorted(np.concatenate([[0.0], epochs[:n_jumps]]),
                              times, side="right") - 1
        occ0 += sites[idx] == 0
    return survived / (n_paths - first_path), occ0 / (n_paths - first_path)


_WALK_CASES = [
    (ExpConvolutionWTD(rate1=1.0, rate2=2.0), 0.7, 2.0, 2**64 - 1, 33),
    (ExpConvolutionWTD(rate1=1.5, rate2=1.5), 0.5, 60.0, 2**63, 33),
    (TanhSechWTD(rate=1.0), 0.3, 80.0, 11, 33),
    (ExponentialWTD(rate=1.0), 0.6, 50.0, 0, 33),
    # about 250 steps a path: blocks of 4, 8, ..., 128 and more
    (ExponentialWTD(rate=1.0), 0.4, 250.0, 5, 33),
    # many bins, then a subnormal horizon whose grid repeats values
    (TanhSechWTD(rate=1.0), 0.8, 30.0, 7, 401),
    (ExponentialWTD(rate=1.0), 0.5, 5e-324, 3, 33),
    # every step hops, so the site alternates; then no step hops, so every
    # block's tally is empty
    (TanhSechWTD(rate=1.0), 1.0, 40.0, 13, 33),
    (ExpConvolutionWTD(rate1=1.0, rate2=2.0), 0.0, 20.0, 2, 33),
]


# a case's id is its first four values, the grid size left out
@pytest.mark.parametrize("wtd, jump_prob, t_max, seed, n_times", _WALK_CASES,
                         ids=[f"wtd{i}-{p}-{t}-{s}"
                              for i, (_, p, t, s, _) in enumerate(_WALK_CASES)])
def test_walk_equals_per_path_loop(wtd, jump_prob, t_max, seed, n_times):
    # several blocks per path and thinned hops: the site parity and the
    # epoch sum both carry over block boundaries
    survival, occ0 = _loop_reference(wtd, jump_prob, t_max, 200, seed,
                                     n_times)
    result = classical_jump_simulate(wtd, jump_prob, t_max, 200, seed=seed,
                                     n_times=n_times)
    assert np.array_equal(result.survival, survival)
    assert np.array_equal(result.occupation[0], occ0)
