"""Photon-counting Monte Carlo and its closed-form correlation oracle."""

import hashlib
import math
import sys
import threading
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    jackknife_se_exact,
    jackknife_se_loop,
    pearson_map_direct,
    pearson_map_exact,
    simulate_frames_serial,
)
from strategies import criterion_07_model, frame_arrays_held

from rbfilter import photon_stats
from rbfilter.config import MAX_COUNTS_PER_ARM
from rbfilter.errors import ConfigError, DataError
from rbfilter.photon_stats import (
    CHUNK_ENTRIES,
    CHUNK_FRAMES_MIN,
    CountsBatch,
    NoiseModel,
    RegionLayout,
    analytic_pair_correlation,
    correlation_coefficient,
    correlation_map,
    correlation_standard_error,
    filtered_preset,
    pair_correlation_summary,
    sample_thermal,
    simulate_frames,
    unfiltered_preset,
)


# ---------------------------------------------------------------- layout

def test_layout_partner_is_mirror_and_involutive():
    layout = RegionLayout(n_regions=10)
    assert layout.partner(0) == 9
    assert layout.partner(4) == 5
    for i in range(10):
        assert layout.partner(layout.partner(i)) == i
    assert len(layout.pairs()) == 10


def test_layout_validation():
    with pytest.raises(ConfigError):
        RegionLayout(n_regions=0)
    with pytest.raises(DataError):
        RegionLayout(n_regions=5).partner(5)


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel(n_sig=-0.1)
    with pytest.raises(ConfigError):
        NoiseModel(eta_s=1.2)
    with pytest.raises(ConfigError):
        NoiseModel(b_leakage=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(NoiseModel)])
def test_noise_model_rejects_nan_and_infinities(name, value):
    """NaN passes no comparison, so a NaN background would simulate as none."""
    with pytest.raises(ConfigError, match=f"noise.{name} must be finite"):
        NoiseModel(**{name: value})


# ---------------------------------------------------- thermal sampling

def test_sample_thermal_moments():
    rng = np.random.default_rng(5)
    nbar = 0.7
    draws = sample_thermal(rng, nbar, 200_000)
    assert draws.min() >= 0
    # thermal variance is nbar (1 + nbar)
    assert draws.mean() == pytest.approx(nbar, abs=0.01)
    assert draws.var() == pytest.approx(nbar * (1 + nbar), rel=0.03)


def test_sample_thermal_edge_cases():
    rng = np.random.default_rng(0)
    assert np.all(sample_thermal(rng, 0.0, 100) == 0)
    with pytest.raises(ConfigError):
        sample_thermal(rng, -0.5, 10)


# ------------------------------------------------------------ simulate

def test_simulate_frames_deterministic_and_seed_sensitive():
    noise, layout = filtered_preset()
    a = simulate_frames(500, noise, seed=42, layout=layout)
    b = simulate_frames(500, noise, seed=42, layout=layout)
    c = simulate_frames(500, noise, seed=43, layout=layout)
    assert np.array_equal(a.n_s, b.n_s) and np.array_equal(a.n_as, b.n_as)
    assert not np.array_equal(a.n_s, c.n_s)


# SHA-256 of the int64 bytes of n_s then n_as, seed 11, recorded from the
# chunked sampler (2**15 frames per SeedSequence.spawn child, which is still
# the chunk at 4 regions) when the counts were stored as int64; the last case
# is two chunks, the second one frame long.
@pytest.mark.parametrize("noise, layout, frames, digest", [
    (*filtered_preset(), 3001,
     "198dd8df99308214b9938e58f765ade195a0f1db33b42acf541f222733c2a561"),
    (*unfiltered_preset(), 3001,
     "ee49b136dc72f4d7be6e82647db9e87aea3c5a604dd8558fc6c2f1514d65cd83"),
    (NoiseModel(n_sig=0.8, eta_s=0.7, eta_as=0.4, b_fluorescence=0.0, b_leakage=0.0,
                intensifier_per_frame=0.0), RegionLayout(n_regions=4), 3001,
     "57e617c9fb00512f1872dfe02fdb21563d2bd28818bc5232585aa911c2b2a2ae"),
    (filtered_preset()[0], RegionLayout(n_regions=4), photon_stats._chunk_frames(4) + 1,
     "4027e06239332d058175ef3960edb51dd5984ec19a4d3ff416869398aae2a705"),
], ids=["filtered", "unfiltered", "no-background", "two-chunks"])
def test_simulate_frames_stream_is_pinned(noise, layout, frames, digest):
    batch = simulate_frames(frames, noise, seed=11, layout=layout)
    assert batch.n_s.dtype == np.int16 and batch.n_as.dtype == np.int16
    assert batch.n_s.nbytes == batch.n_as.nbytes == 2 * frames * layout.n_regions
    assert batch.n_s.flags.c_contiguous and batch.n_as.flags.c_contiguous
    stream = batch.n_s.astype(np.int64).tobytes() + batch.n_as.astype(np.int64).tobytes()
    assert hashlib.sha256(stream).hexdigest() == digest


def _chunk_edges(n_regions: int) -> list:
    """(frames, n_regions) pairs at the chunk edges of n_regions: one chunk
    less a frame, one chunk, one chunk and a frame, two chunks and 7 frames."""
    chunk = photon_stats._chunk_frames(n_regions)
    return [pytest.param(frames, n_regions, id=str(frames))
            for frames in (chunk - 1, chunk, chunk + 1, 2 * chunk + 7)]


@pytest.mark.parametrize("one_worker", [False, True], ids=["all-cpus", "one-worker"])
@pytest.mark.parametrize("frames, n_regions", [pytest.param(1, 10, id="1"), *_chunk_edges(4),
                                               *_chunk_edges(10)])
def test_simulate_frames_matches_serial_oracle(monkeypatch, frames, n_regions, one_worker):
    """Chunk i draws from spawned seed i whatever the worker count: at the
    chunk edges of 4 regions (2**15 frames, as before chunks were bounded by
    entries) and of 10 regions (13107 frames)."""
    if one_worker:
        monkeypatch.setattr(photon_stats, "_cpu_count", lambda: 1)
    noise, _ = filtered_preset()
    layout = RegionLayout(n_regions)
    batch = simulate_frames(frames, noise, seed=19, layout=layout)
    n_s, n_as = simulate_frames_serial(frames, noise, 19, n_regions,
                                       photon_stats._chunk_frames(n_regions))
    assert batch.n_s.dtype == np.int16 and batch.n_as.dtype == np.int16
    assert np.array_equal(batch.n_s, n_s) and np.array_equal(batch.n_as, n_as)


def test_counts_written_in_place_by_more_workers_than_cpus(monkeypatch):
    """Each worker writes its own chunk's rows of the shared count arrays; a
    short switch interval interleaves the eight workers' writes."""
    monkeypatch.setattr(photon_stats, "_cpu_count", lambda: 8)
    noise, _ = filtered_preset()
    chunk = photon_stats._chunk_frames(2)
    frames = 9 * chunk + 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        batch = simulate_frames(frames, noise, seed=23, layout=RegionLayout(n_regions=2))
        counts = batch.n_s, batch.n_as
    finally:
        sys.setswitchinterval(interval)
    n_s, n_as = simulate_frames_serial(frames, noise, 23, 2, chunk)
    assert np.array_equal(counts[0], n_s) and np.array_equal(counts[1], n_as)


def test_simulation_memory_does_not_grow_with_frames(monkeypatch):
    """A simulated batch keeps block sums, not counts: each of two workers
    holds one chunk's int16 counts (1.6 MB at 50 regions), its int64 draws in
    slices of DRAW_ENTRIES, and float64 copies of one sub-block of each arm,
    DRAW_ENTRIES entries or 256 rows.  None of these grows with the frame
    count: copies of a whole block (frames / 50 rows) would add 1.6 MB from 4
    to 16 chunks, and the count arrays 20 MB."""
    monkeypatch.setattr(photon_stats, "_cpu_count", lambda: 2)
    noise, _ = filtered_preset()
    m = 50
    layout = RegionLayout(m)
    chunk = photon_stats._chunk_frames(m)
    batches, peak = {}, {}
    for chunks in (4, 16):
        tracemalloc.start()
        try:
            batches[chunks] = simulate_frames(chunks * chunk, noise, seed=7, layout=layout)
            pair_correlation_summary(batches[chunks])
            peak[chunks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    chunk_counts = 2 * chunk * m * 4
    sub_blocks = 2 * 2 * 8 * max(photon_stats.DRAW_ENTRIES, 256 * m)
    for k in peak:
        # the slack holds each worker's int64 draws, a few slices at once
        assert peak[k] <= chunk_counts + sub_blocks + 3e6
    assert peak[16] - peak[4] <= 1e6

    assert not any(frame_arrays_held(batch) for batch in batches.values())
    batch = batches[4]
    n_s = batch.n_s
    assert len(frame_arrays_held(batch)) == 2 and batch.n_s is n_s
    assert n_s.shape == (4 * chunk, m) and not n_s.flags.writeable


def test_simulation_memory_at_many_regions_is_bounded_by_chunk_entries(monkeypatch):
    """At 1000 regions a chunk is CHUNK_FRAMES_MIN frames, as CHUNK_ENTRIES //
    1000 is fewer.  The one worker holds one chunk's int16 counts (4 B an
    entry), float64 copies of a 256-row sub-block of both arms, int64 draws,
    indices and thinned counts of a slice of DRAW_ENTRIES entries, and one
    sub-block's (m, m) float64 product; beside them the batch keeps its int64
    (m, m) Σxy and block sums.  Chunks of 2**15 frames held both chunks'
    counts here, 66 MB, and 131 MB at 2**15 frames or more."""
    monkeypatch.setattr(photon_stats, "_cpu_count", lambda: 1)
    noise, _ = filtered_preset()
    m = 1000
    chunk = photon_stats._chunk_frames(m)
    assert chunk == CHUNK_FRAMES_MIN > CHUNK_ENTRIES // m
    square = 8 * m * m
    per_worker = 4 * chunk * m + 16 * 256 * m + 3 * 8 * photon_stats.DRAW_ENTRIES + square
    kept = square + 5 * 8 * photon_stats.JACKKNIFE_BLOCKS * m
    tracemalloc.start()
    try:
        batch = simulate_frames(2 * chunk, noise, seed=7, layout=RegionLayout(m))
        drawn = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        pair_correlation_summary(batch)
        summarised = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the slack holds a few slices of draws at once, as in the test at 50 regions
    assert drawn <= per_worker + kept + 3e6
    # the map's comoments and quotient: a few (m, m) float64 arrays, whatever the chunking
    assert summarised <= kept + 4 * square + 1e6


def test_pool_is_capped_by_the_chunks_it_can_hold(monkeypatch):
    """The queue may hold 2 x workers drawn chunks, so _drawn starts no more
    workers than POOL_ENTRIES has room for, whatever the CPU count: 2 at 1000
    regions, and at least 128 up to 16 regions.  With room for four 10-region
    chunks, eight CPUs get two workers."""
    def cap(m):
        return photon_stats.POOL_ENTRIES // (2 * photon_stats._chunk_frames(m) * m)

    assert cap(1000) == 2 and min(map(cap, range(1, 17))) >= 128
    m = 10
    chunk = photon_stats._chunk_frames(m)
    monkeypatch.setattr(photon_stats, "_cpu_count", lambda: 8)
    monkeypatch.setattr(photon_stats, "POOL_ENTRIES", 4 * chunk * m)
    threads = set()
    draw = photon_stats._draw_chunk

    def spy(*args):
        threads.add(threading.get_ident())
        draw(*args)

    monkeypatch.setattr(photon_stats, "_draw_chunk", spy)
    noise, _ = filtered_preset()
    simulate_frames(8 * chunk, noise, seed=5, layout=RegionLayout(m))
    assert 1 <= len(threads) <= 2


@pytest.mark.parametrize("pairs", [[0, 3, 0, 2], [0, 200, 0, 90]], ids=["inversion", "btpe"])
@pytest.mark.parametrize("eta", [0.32, 0.52])
def test_binomial_reads_no_bits_for_a_zero_pair(pairs, eta):
    """_draw_chunk thins only the pair numbers that are not 0.  That leaves the
    stream as it was only while NumPy's binomial gives 0 for n = 0 without
    reading the generator, in both of its samplers (n p at most 30 or not)."""
    full, short = np.random.default_rng(29), np.random.default_rng(29)
    drawn = full.binomial(pairs, eta)
    hit = np.flatnonzero(pairs)
    skipped = short.binomial(np.asarray(pairs)[hit], eta)
    message = (f"NumPy {np.__version__}: binomial reads the generator for n = 0, so "
               "thinning only the nonzero pair numbers changes the frame stream")
    assert drawn[hit].tolist() == skipped.tolist(), message
    assert full.bit_generator.state == short.bit_generator.state, message

    pairs = sample_thermal(np.random.default_rng(3), 0.5, (64, 10)).astype(np.int16)
    full, short = np.random.default_rng(31), np.random.default_rng(31)
    thinned = photon_stats._thinned(short, pairs, eta)
    assert thinned.dtype == np.int16 and thinned.shape == pairs.shape
    assert np.array_equal(thinned, full.binomial(pairs, eta))
    assert full.bit_generator.state == short.bit_generator.state


@pytest.mark.parametrize("one_worker", [False, True], ids=["all-cpus", "one-worker"])
def test_counts_past_int16_raise_rather_than_wrap(monkeypatch, one_worker):
    """A library model past the validator's ranges: Poisson(5e4) counts."""
    if one_worker:
        monkeypatch.setattr(photon_stats, "_cpu_count", lambda: 1)
    noise = NoiseModel(n_sig=0.0, b_fluorescence=5e4, b_leakage=0.0, intensifier_per_frame=0.0)
    with pytest.raises(DataError, match="int16 count limit 32767: NoiseModel"):
        simulate_frames(photon_stats._chunk_frames(1) + 1, noise, seed=3,
                        layout=RegionLayout(n_regions=1))


def test_thermal_pairs_past_int16_raise_rather_than_wrap():
    noise = NoiseModel(n_sig=1e5, eta_s=1.0, eta_as=1.0, intensifier_per_frame=0.0)
    with pytest.raises(DataError, match="int16 count limit"):
        simulate_frames(100, noise, seed=3, layout=RegionLayout(n_regions=1))


def test_simulate_frames_workers_see_the_callers_errstate(monkeypatch):
    seen = []
    draw = photon_stats._draw_chunk

    def spy(*args):
        seen.append(np.geterr()["over"])
        draw(*args)

    monkeypatch.setattr(photon_stats, "_draw_chunk", spy)
    noise, layout = filtered_preset()
    with np.errstate(over="raise"):
        simulate_frames(2 * photon_stats._chunk_frames(layout.n_regions) + 1, noise, seed=1,
                        layout=layout)
    assert seen == ["raise"] * 3


def test_simulate_frames_validation():
    noise, layout = filtered_preset()
    with pytest.raises(ConfigError):
        simulate_frames(0, noise, seed=1, layout=layout)


def test_counts_batch_validation():
    layout = RegionLayout(n_regions=3)
    good = np.zeros((4, 3), dtype=np.int64)
    with pytest.raises(DataError):
        CountsBatch(n_s=good, n_as=np.zeros((4, 2), dtype=np.int64), layout=layout)
    with pytest.raises(DataError):
        CountsBatch(n_s=good, n_as=good - 1, layout=layout)
    with pytest.raises(DataError):
        CountsBatch(n_s=np.zeros((4, 5), dtype=np.int64),
                    n_as=np.zeros((4, 5), dtype=np.int64), layout=layout)
    with pytest.raises(DataError, match="empty frame stream"):
        CountsBatch(n_s=good[:0], n_as=good[:0], layout=layout)


@pytest.mark.parametrize("top, accepted", [(photon_stats.COUNT_MAX, True),
                                          (photon_stats.COUNT_MAX + 1, False)])
def test_counts_are_checked_against_the_count_limit(top, accepted):
    """The block sums are exact only for counts in [0, COUNT_MAX]; int64 counts
    can pass it, and both entry points check."""
    layout = RegionLayout(n_regions=2)
    rng = np.random.default_rng(4)
    x = rng.integers(0, 3, (60, 2))
    y = rng.integers(0, 3, (60, 2))
    x[7, 1] = top
    for n_s, n_as in ((x, y), (y, x)):
        if accepted:
            assert np.isfinite(correlation_map(CountsBatch(n_s=n_s, n_as=n_as, layout=layout))).all()
            assert np.isfinite(correlation_standard_error(n_s, n_as)).all()
            continue
        with pytest.raises(DataError, match=f"must lie in \\[0, {photon_stats.COUNT_MAX}\\]"):
            CountsBatch(n_s=n_s, n_as=n_as, layout=layout)
        with pytest.raises(DataError, match="must lie in"):
            correlation_standard_error(n_s, n_as)
        with pytest.raises(DataError, match="must lie in"):
            correlation_standard_error(n_s[:, 1], n_as[:, 1])


def test_correlation_standard_error_rejects_non_integer_and_negative_counts():
    with pytest.raises(DataError, match="integer array"):
        correlation_standard_error(np.full(10, 0.5), np.arange(10))
    with pytest.raises(DataError, match="must lie in"):
        correlation_standard_error(np.arange(10) - 1, np.arange(10))


@pytest.mark.parametrize("counts", [
    np.array([[0.5, 1.2, 0.0]] * 4), np.full((4, 3), np.nan), np.ones((4, 3), dtype=bool),
    [[0, 1, 2]] * 4,
], ids=["float", "nan", "bool", "list"])
def test_counts_batch_rejects_non_integer_counts(counts):
    """The moments are exact only for integer counts."""
    layout = RegionLayout(n_regions=3)
    good = np.zeros((4, 3), dtype=np.int16)
    with pytest.raises(DataError, match="integer array"):
        CountsBatch(n_s=counts, n_as=good, layout=layout)
    with pytest.raises(DataError, match="integer array"):
        CountsBatch(n_s=good, n_as=counts, layout=layout)


# -------------------------------------------------------- correlations

def test_correlation_perfect_pair_is_one():
    # unit efficiency, no background: both arms detect the same thermal draw
    noise = NoiseModel(n_sig=0.8, eta_s=1.0, eta_as=1.0,
                       b_fluorescence=0.0, b_leakage=0.0, intensifier_per_frame=0.0)
    layout = RegionLayout(n_regions=4)
    batch = simulate_frames(2000, noise, seed=3, layout=layout)
    for i, j in layout.pairs():
        assert np.array_equal(batch.n_s[:, i], batch.n_as[:, j])
        c = correlation_coefficient(batch.n_s[:, i], batch.n_as[:, j])
        assert c == pytest.approx(1.0, abs=1e-12)
    assert analytic_pair_correlation(noise, layout) == pytest.approx(1.0, abs=1e-15)


def test_correlation_affine_invariance():
    rng = np.random.default_rng(7)
    x = rng.poisson(3.0, 5000).astype(float)
    y = x + rng.normal(0, 1, 5000)
    c0 = correlation_coefficient(x, y)
    c1 = correlation_coefficient(2.5 * x + 7.0, y)
    c2 = correlation_coefficient(x, 0.3 * y - 11.0)
    assert c1 == pytest.approx(c0, abs=1e-12)
    assert c2 == pytest.approx(c0, abs=1e-12)


def test_correlation_zero_variance_is_error():
    with pytest.raises(DataError):
        correlation_coefficient(np.ones(100), np.arange(100.0))
    noise = NoiseModel(n_sig=0.0, eta_s=1.0, eta_as=1.0,
                       b_fluorescence=0.0, b_leakage=0.0, intensifier_per_frame=0.0)
    batch = simulate_frames(50, noise, seed=1)
    with pytest.raises(DataError):
        correlation_map(batch)
    with pytest.raises(DataError):
        analytic_pair_correlation(noise)


def test_correlation_shape_checks():
    with pytest.raises(DataError):
        correlation_coefficient(np.ones(5), np.ones(6))
    with pytest.raises(DataError):
        correlation_coefficient(np.ones((5, 2)), np.ones((5, 2)))


# ------------------------------------------- blocked jackknife vs loop

HIGH_COUNT = NoiseModel(n_sig=100.0, eta_s=0.9, eta_as=0.9, b_fluorescence=0.0,
                        b_leakage=0.0, intensifier_per_frame=1e4)


@pytest.mark.parametrize("noise, layout, frames", [
    (*filtered_preset(), 20_000),
    (*unfiltered_preset(), 20_000),
    (*filtered_preset(), 137),  # uneven block edges
    (*filtered_preset(), 73),   # n < 2 n_batches: 36 blocks
    (NoiseModel(), RegionLayout(n_regions=1), 5_000),
    (HIGH_COUNT, RegionLayout(n_regions=1), 5_000),  # the validator's high-count corner
], ids=["filtered", "unfiltered", "137-frames", "73-frames", "one-region", "high-count"])
def test_jackknife_and_map_match_loop_oracle(noise, layout, frames):
    batch = simulate_frames(frames, noise, seed=5, layout=layout)
    partner = [j for _, j in layout.pairs()]
    expected = np.array([jackknife_se_loop(batch.n_s[:, i], batch.n_as[:, j])
                         for i, j in layout.pairs()])

    paired = correlation_standard_error(batch.n_s, batch.n_as[:, partner])
    np.testing.assert_allclose(paired, expected, rtol=1e-10, atol=0.0)
    single = correlation_standard_error(batch.n_s[:, 0], batch.n_as[:, partner[0]])
    assert isinstance(single, float)
    assert single == pytest.approx(expected[0], rel=1e-10, abs=0.0)

    cmap = correlation_map(batch)
    np.testing.assert_allclose(cmap, pearson_map_direct(batch.n_s, batch.n_as),
                               rtol=1e-10, atol=0.0)
    summary = pair_correlation_summary(batch)
    assert summary["se_on_pair"] == pytest.approx(
        expected.mean() / math.sqrt(layout.n_regions), rel=1e-10, abs=0.0)
    assert summary["mean_on_pair"] == pytest.approx(
        np.mean([cmap[i, j] for i, j in layout.pairs()]), rel=1e-10, abs=0.0)


def _summary_and_map(batch):
    return pair_correlation_summary(batch), correlation_map(batch)


def _or_error(fn, batch):
    try:
        return fn(batch)
    except DataError as exc:
        return str(exc)


@settings(max_examples=20, deadline=None)
@given(frames=st.integers(1, 3 * 2**15), n_regions=st.integers(1, 12),
       one_worker=st.booleans(), unfiltered=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_moments_kept_by_simulate_frames_match_the_array_path(frames, n_regions, one_worker,
                                                              unfiltered, seed):
    noise = (unfiltered_preset() if unfiltered else filtered_preset())[0]
    layout = RegionLayout(n_regions=n_regions)
    all_cpus = photon_stats._cpu_count()
    with mock.patch.object(photon_stats, "_cpu_count", return_value=1 if one_worker else all_cpus):
        batch = simulate_frames(frames, noise, seed=seed, layout=layout)
    with mock.patch.object(photon_stats, "_cpu_count", return_value=all_cpus if one_worker else 1):
        other = simulate_frames(frames, noise, seed=seed, layout=layout)
    assert not batch.n_s.flags.writeable and not batch.n_as.flags.writeable

    reads = []
    real = photon_stats._run_sums

    def counting(*args):
        reads.append(args[0].shape)
        return real(*args)

    with mock.patch.object(photon_stats, "_run_sums", counting):
        _or_error(pair_correlation_summary, batch)
        _or_error(correlation_map, batch)
        kept = _or_error(_summary_and_map, batch)
        assert reads == []  # the sums simulate_frames kept: no pass over the counts
        plain = CountsBatch(n_s=np.array(batch.n_s), n_as=np.array(batch.n_as), layout=layout)
        read = _or_error(_summary_and_map, plain)
        # the plain arrays are read once, in runs of at most a chunk's rows
        assert sum(shape[0] for shape in reads) == frames
        assert max(shape[0] for shape in reads) <= photon_stats._chunk_frames(n_regions)

    again = _or_error(_summary_and_map, other)
    if isinstance(kept, str) or isinstance(read, str):
        assert kept == read == again
        return
    # exact integer sums: the same bits from the worker's chunks and from the arrays
    for other_result in (read, again):
        assert kept[0] == other_result[0]
        assert kept[1].tobytes() == other_result[1].tobytes()


@pytest.mark.parametrize("noise, frames, seed", [
    (filtered_preset()[0], 300, 1),
    (unfiltered_preset()[0], 257, 2),
    (HIGH_COUNT, 200, 3),
], ids=["filtered", "unfiltered", "high-count"])
def test_map_and_se_are_within_a_few_ulps_of_exact_arithmetic(noise, frames, seed):
    """Against comoments in exact rational arithmetic, every map entry and
    every SE is within 2 ulps of 1: |C| <= 1, an entry near 0 is a difference
    of two sums, and the SE is the spread of 50 estimates that each round as
    a map entry does."""
    layout = RegionLayout(n_regions=3)
    batch = simulate_frames(frames, noise, seed=seed, layout=layout)
    partner = [j for _, j in layout.pairs()]
    exact_se = [jackknife_se_exact(batch.n_s[:, i], batch.n_as[:, j]) for i, j in layout.pairs()]
    se = correlation_standard_error(batch.n_s, batch.n_as[:, partner])
    cmap = correlation_map(batch)
    assert np.abs(cmap - pearson_map_exact(batch.n_s, batch.n_as)).max() <= 2 * np.spacing(1.0)
    assert np.abs(se - exact_se).max() <= 2 * np.spacing(1.0)


def test_jackknife_zero_variance_after_one_deletion_is_error():
    # x varies only inside block 5 of 50: deleting that block leaves a constant
    # stream, whose merged centred moment must come out exactly 0
    rng = np.random.default_rng(3)
    x = np.full(1000, 7, dtype=np.int64)
    x[100:120] = rng.poisson(2.0, 20) + 1
    y = rng.poisson(3.0, 1000)
    assert np.isfinite(correlation_map(CountsBatch(
        n_s=x[:, None], n_as=y[:, None], layout=RegionLayout(n_regions=1)))).all()
    with pytest.raises(DataError):
        correlation_standard_error(x, y)
    with pytest.raises(DataError):
        correlation_standard_error(y, x)
    # too few frames: a deleted block leaves a single frame
    with pytest.raises(DataError):
        correlation_standard_error([1, 2, 4], [0, 3, 1])
    with pytest.raises(DataError):
        correlation_standard_error(np.ones(5), np.ones(6))
    with pytest.raises(DataError, match="equal-shape"):
        correlation_standard_error(np.zeros((5, 0), dtype=int), np.zeros((5, 0), dtype=int))


def _cut_and_join(x, y, layout, bounds):
    """The block sums of a batch whose runs of frames end at the given row
    bounds, as a simulated batch's chunks do."""
    class CutBatch(CountsBatch):
        def _runs(self, reduce):
            return (reduce(self.n_s[a:b], self.n_as[a:b], a) for a, b in zip(bounds, bounds[1:]))

    return CutBatch(n_s=x, n_as=y, layout=layout)._moments


def _map_and_se(mom, pair):
    try:
        return photon_stats._moment_map(mom), photon_stats._jackknife_se(mom, pair)
    except DataError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(frames=st.integers(2, 3000), n_regions=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_pieces_cut_anywhere_match_one_piece_per_block(frames, n_regions, seed, data):
    rng = np.random.default_rng(seed)
    x = rng.poisson(2.0, (frames, n_regions))
    y = x[:, ::-1] // 2 + rng.poisson(1.0, (frames, n_regions))
    layout = RegionLayout(n_regions=n_regions)
    pair = photon_stats._partners(layout)
    cuts = data.draw(st.sets(st.integers(1, frames - 1), max_size=12))
    pieces = _cut_and_join(x, y, layout, [0, *sorted(cuts), frames])
    edges = photon_stats._block_edges(frames)
    blocks = _cut_and_join(x, y, layout, list(edges))  # one run per block

    assert pieces.count.tolist() == np.diff(edges).tolist()
    assert pieces.sums.dtype == pieces.sxy.dtype == np.int64
    for field in ("count", "sums", "sxy"):
        assert np.array_equal(getattr(pieces, field), getattr(blocks, field)), field
    assert np.array_equal(pieces.sxy, x.T @ y)
    first = blocks.sums[0]
    assert np.array_equal(first[:4], [x[:edges[1]].sum(0), y[:edges[1]].sum(0),
                                      (x[:edges[1]] ** 2).sum(0), (y[:edges[1]] ** 2).sum(0)])
    assert np.array_equal(first[4], (x[:edges[1]] * y[:edges[1], pair]).sum(0))

    joined, whole = _map_and_se(pieces, pair), _map_and_se(blocks, pair)
    if isinstance(whole, str) or isinstance(joined, str):
        assert joined == whole
        return
    assert joined[0].tobytes() == whole[0].tobytes()
    assert joined[1].tobytes() == whole[1].tobytes()


def test_jackknife_zero_variance_survives_a_block_cut_into_pieces():
    # the stream of test_jackknife_zero_variance_after_one_deletion_is_error: its
    # varying block 5 (rows 100..119) cut into three pieces, as chunk edges would
    rng = np.random.default_rng(3)
    x = np.full(1000, 7, dtype=np.int64)
    x[100:120] = rng.poisson(2.0, 20) + 1
    y = rng.poisson(3.0, 1000)
    pair, layout = np.arange(1), RegionLayout(n_regions=1)
    pieces = _cut_and_join(x[:, None], y[:, None], layout, [0, 105, 113, 1000])
    assert np.array_equal(pieces.sums, _cut_and_join(x[:, None], y[:, None], layout,
                                                     [0, 1000]).sums)
    assert np.isfinite(photon_stats._moment_map(pieces)).all()
    with pytest.raises(DataError):
        photon_stats._jackknife_se(pieces, pair)
    with pytest.raises(DataError):
        photon_stats._jackknife_se(_cut_and_join(y[:, None], x[:, None], layout,
                                                 [0, 105, 113, 1000]), pair)


def test_moments_stay_exact_in_the_validator_range():
    """The validator accepts 1e8 frames and the high-count corner with 1e3
    fluorescence and leakage per region; magnitudes are computed, not run.
    Counts are integers in [0, COUNT_MAX], which CountsBatch and
    correlation_standard_error check."""
    noise = NoiseModel(n_sig=100.0, eta_s=1.0, eta_as=1.0, b_fluorescence=1e3,
                       b_leakage=1e3, intensifier_per_frame=1e4)
    layout = RegionLayout(n_regions=1)
    frames = MAX_COUNTS_PER_ARM
    assert frames == 10**8
    mean = noise.n_sig + noise.background_per_region(layout)
    high = mean + 50.0 * math.sqrt(noise.n_sig * (1.0 + noise.n_sig)
                                   + noise.background_per_region(layout))
    top = photon_stats.COUNT_MAX
    # int64 block sums: Σx² and Σxy over every frame, 50 sd above the mean and
    # at the count limit itself
    assert frames * high**2 < frames * top**2 < 2**63
    # float64 sums before the int64 ones: a sub-block has at most DRAW_ENTRIES
    # rows (256 rows when a row has more than DRAW_ENTRIES / 256 entries), so
    # each of its sums, its (m, m) Σxy too, is an integer below 2**53
    assert max(photon_stats.DRAW_ENTRIES, 256) * top**2 < 2**53
    # the shifted comoment Σxy - cy Σx - cx v: each of its three terms, and so
    # every partial sum, is at most frames * top**2 in size
    assert 3 * frames * top**2 < 2**63
    # its one float step subtracts u v / n with |u|, |v| <= n / 2: below 2**53
    assert frames / 4 < 2.0**53

    # the same corner, run small, gives finite float errors
    batch = simulate_frames(2_000, noise, seed=8, layout=layout)
    se = correlation_standard_error(batch.n_s, batch.n_as)
    assert se.dtype == np.float64 and np.isfinite(se).all()
    assert se[0] == pytest.approx(jackknife_se_loop(batch.n_s[:, 0], batch.n_as[:, 0]),
                                  rel=1e-10, abs=0.0)


def test_counts_stay_below_int16_in_the_validator_range():
    """At the validator's high-count corner, with MAX_COUNTS_PER_ARM frames of
    one region, no count and no overflow guard reaches 32768 (computed, not run).

    If every pair number stays below t and every Poisson background below
    32769 - t, every count and every guard bound is at most 32767; union bounds
    over the 2 * MAX_COUNTS_PER_ARM draws of each kind give the chance of
    anything else.
    """
    noise = NoiseModel(n_sig=100.0, eta_s=1.0, eta_as=1.0, b_fluorescence=1e3,
                       b_leakage=1e3, intensifier_per_frame=1e4)
    lam = noise.background_per_region(RegionLayout(n_regions=1))
    assert lam == 7e3
    draws = 2 * MAX_COUNTS_PER_ARM
    t = np.arange(1.0, photon_stats.COUNT_MAX + 1)
    # thermal tail: P(pair >= t) = (nbar / (1 + nbar))**t
    log_thermal = t * math.log(noise.n_sig / (1.0 + noise.n_sig))
    # Chernoff: P(Poisson(lam) >= x) <= exp(-lam) (e lam / x)**x for x > lam
    x = photon_stats.COUNT_MAX + 2 - t
    log_poisson = np.where(x > lam, -lam + x - x * np.log(x / lam), 0.0)
    log_p = math.log(draws) + np.logaddexp(log_thermal, log_poisson).min()
    assert log_p / math.log(10.0) < -30.0


# --------------------------------------------- analytic oracle vs MC

def test_monte_carlo_matches_analytic_presets():
    for noise, layout in (filtered_preset(), unfiltered_preset()):
        batch = simulate_frames(40_000, noise, seed=11, layout=layout)
        summary = pair_correlation_summary(batch)
        expected = analytic_pair_correlation(noise, layout)
        dev = abs(summary["mean_on_pair"] - expected)
        assert dev < 4.0 * summary["se_on_pair"]
        # unpaired regions are statistically independent
        assert summary["max_abs_off_pair"] < 5.0 / math.sqrt(batch.n_frames)


def test_se_on_pair_is_calibrated():
    """The z-scores (C_MC - C_analytic) / se_on_pair of 40 seeds of models drawn
    as criterion 07 draws them spread as a unit normal would: criterion 07 and
    the benchmark's gate divide by se_on_pair, which comes from the piece
    moments alone.  The sample spread of 40 unit normals leaves [0.7, 1.35]
    with a chance of 0.4 %."""
    rng = np.random.default_rng(2027)
    layout = RegionLayout()
    z = []
    for k in range(40):
        noise = criterion_07_model(rng)
        summary = pair_correlation_summary(simulate_frames(20_000, noise, seed=3000 + k,
                                                           layout=layout))
        z.append((summary["mean_on_pair"] - analytic_pair_correlation(noise, layout))
                 / summary["se_on_pair"])
    assert 0.7 <= np.std(z, ddof=1) <= 1.35


def test_correlation_map_structure():
    noise, layout = filtered_preset()
    batch = simulate_frames(30_000, noise, seed=21, layout=layout)
    cmap = correlation_map(batch)
    assert cmap.shape == (10, 10)
    expected = analytic_pair_correlation(noise, layout)
    for i, j in layout.pairs():
        assert cmap[i, j] == pytest.approx(expected, abs=0.02)
        off = np.delete(cmap[i], j)
        assert np.all(np.abs(off) < 0.5 * cmap[i, j])


def test_filtering_restores_correlations():
    """The filtered configuration shows an order of magnitude higher pair
    correlation than the unfiltered one, for identical frame budgets."""
    f_noise, f_layout = filtered_preset()
    u_noise, u_layout = unfiltered_preset()
    assert analytic_pair_correlation(f_noise, f_layout) == pytest.approx(0.38529, abs=2e-4)
    assert analytic_pair_correlation(u_noise, u_layout) == pytest.approx(0.036788, abs=2e-4)

    bf = simulate_frames(30_000, f_noise, seed=2, layout=f_layout)
    bu = simulate_frames(30_000, u_noise, seed=2, layout=u_layout)
    c_f = pair_correlation_summary(bf)["mean_on_pair"]
    c_u = pair_correlation_summary(bu)["mean_on_pair"]
    assert c_f > 8.0 * c_u


def test_unfiltered_frame_brightness():
    noise, layout = unfiltered_preset()
    m = layout.n_regions
    expected = (m * (noise.eta_s + noise.eta_as) * noise.n_sig
                + 2 * m * (noise.b_fluorescence + noise.b_leakage) + noise.intensifier_per_frame)
    assert expected == pytest.approx(29.98, abs=1e-10)
    batch = simulate_frames(20_000, noise, seed=4, layout=layout)
    per_frame = (batch.n_s.sum() + batch.n_as.sum()) / batch.n_frames
    assert per_frame == pytest.approx(29.98, abs=0.3)


def test_analytic_correlation_decreases_with_background():
    noise, layout = filtered_preset()
    values = [
        analytic_pair_correlation(
            NoiseModel(n_sig=noise.n_sig, eta_s=noise.eta_s, eta_as=noise.eta_as,
                       b_fluorescence=b, b_leakage=0.0,
                       intensifier_per_frame=noise.intensifier_per_frame),
            layout)
        for b in (0.0, 0.2, 0.5, 1.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
