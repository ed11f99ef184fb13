"""Monte Carlo photon-counting statistics for the filtered quantum memory.

Each camera frame holds photon counts in small angular regions along a
horizontal line on the Stokes side and mirror regions on the anti-Stokes side.
A Stokes region and its mirror partner share one thermally distributed photon
number (single-mode spontaneous Raman statistics); each arm detects a
binomially thinned copy, plus independent Poisson backgrounds (fluorescence,
drive-laser leakage, and the light-independent intensifier term).

For this model the pair correlation has a closed form used as the oracle for
every Monte Carlo run:

    C = eta_S eta_AS nbar (1 + nbar)
        / sqrt[(eta_S nbar (1 + eta_S nbar) + b_S) (eta_AS nbar (1 + eta_AS nbar) + b_AS)]

where b_S, b_AS are the total per-region Poisson background means (a thinned
thermal variable keeps thermal statistics, so its variance is n'(1+n')).

The correlation map and the delete-one-block jackknife come from exact
integer sums per jackknife block: n, Σx, Σy, Σx², Σy² and each region's
on-pair Σxy, plus one (m, m) Σxy for the map.  A batch has one reader,
CountsBatch._runs(reduce): reduce(n_s, n_as, lo) of each run of at most
_chunk_frames(n_regions) frames from row lo, in row order.  Plain arrays are
read in runs of that many rows; a simulated batch's runs are its chunks, each
drawn again from its seed, with reduce run by the worker thread that drew it.
_run_sums adds the sums of sub-blocks that never cross a block edge to the
totals, so every sum is exact in int64 (counts lie in [0, COUNT_MAX]) and none
depends on where the rows are cut, on the chunking, on the worker count or on
the order of the adds.  The jackknife drops a block by subtracting its sums
from the totals; each comoment is formed from sums shifted by the rounded
means (_comoment), so its one float step does not cancel.

A simulated batch keeps its block sums and the arguments that drew it, not
its counts, which are drawn again when asked for: the whole int16 arrays on
the first read of n_s or n_as, or one chunk at a time for the CLI's per-frame
export.  Memory per worker: one chunk's int16 counts of both arms (4 B per
entry: 512 kB at 10 regions, 33 MB at 1000), int64 draws, indices and thinned
counts of a slice of DRAW_ENTRIES (768 kB), a background slice's int64
positions and bincount (141 kB at the filtered preset, below 1.5 MB), float64
copies of one sub-block of each arm, DRAW_ENTRIES entries or 256 rows,
whichever is more (256 kB each at 10 regions, 2 MB at 1000), and one
sub-block's (m, m) product (8 MB at 1000), beside the totals' int64 (m, m)
Σxy.  Up to 2 x workers chunks may wait in the queue (the frames writer's
reduce returns its chunk); POOL_ENTRIES caps them, at 2 workers for 1000
regions.  Nothing grows with the frame count.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections import deque
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError

# entries (frames x regions) per seeded chunk of simulate_frames, but at least
# CHUNK_FRAMES_MIN frames (see _chunk_frames); both are part of the stream
CHUNK_ENTRIES = 1 << 17
CHUNK_FRAMES_MIN = 1 << 13
# counts are stored as int16: a region's count per frame is a handful of photons
COUNT_MAX = int(np.iinfo(np.int16).max)
# entries per sampler call in _draw_chunk, whose draws are its only temporaries
DRAW_ENTRIES = 1 << 15
# entries per background slice in _draw_chunk, part of the stream: 2^12 is GIL-bound, 2^15 adds RSS
BACKGROUND_ENTRIES = DRAW_ENTRIES // 2
# mean from which _background draws per entry: NumPy's poisson turns to PTRS there
POISSON_SCATTER_MAX = 10.0
# entries of the 2 * workers chunks _drawn may hold at once: 2 workers at 1000 regions
POOL_ENTRIES = 1 << 25


@dataclass(frozen=True)
class RegionLayout:
    """Equal-area angular regions; Stokes region i pairs with anti-Stokes
    region n-1-i (mirror symmetry about the beam axis)."""

    n_regions: int = 10

    def __post_init__(self):
        if self.n_regions < 1:
            raise ConfigError([f"layout: need at least one region, got {self.n_regions}"])

    def partner(self, i: int) -> int:
        if not 0 <= i < self.n_regions:
            raise DataError(f"region index {i} outside 0..{self.n_regions - 1}")
        return self.n_regions - 1 - i

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, self.partner(i)) for i in range(self.n_regions)]


@dataclass(frozen=True)
class NoiseModel:
    """Source and background parameters for one simulated configuration.

    n_sig: mean thermal photon number per mode pair.
    eta_s / eta_as: end-to-end detection efficiencies (filter chain times
        camera) for the two arms.
    b_fluorescence / b_leakage: Poisson background means per region.
    intensifier_per_frame: light-independent background photons per camera
        frame, spread evenly over all regions of both arms.
    """

    n_sig: float = 0.5
    eta_s: float = 0.52
    eta_as: float = 0.32
    b_fluorescence: float = 0.0
    b_leakage: float = 0.0
    intensifier_per_frame: float = 1.5

    def __post_init__(self):
        errors = [f"noise.{f.name} must be finite, got {getattr(self, f.name)}"
                  for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if not self.n_sig >= 0:
            errors.append(f"noise.n_sig must be >= 0, got {self.n_sig}")
        for label, eta in (("eta_s", self.eta_s), ("eta_as", self.eta_as)):
            if not 0.0 <= eta <= 1.0:
                errors.append(f"noise.{label} must lie in [0, 1], got {eta}")
        for label, b in (("b_fluorescence", self.b_fluorescence),
                         ("b_leakage", self.b_leakage),
                         ("intensifier_per_frame", self.intensifier_per_frame)):
            if not b >= 0:
                errors.append(f"noise.{label} must be >= 0, got {b}")
        if errors:
            raise ConfigError(errors)

    def background_per_region(self, layout: RegionLayout) -> float:
        return (self.b_fluorescence + self.b_leakage
                + self.intensifier_per_frame / (2.0 * layout.n_regions))


def filtered_preset() -> tuple[NoiseModel, RegionLayout]:
    """Dual-filter operating conditions, which are NoiseModel's defaults.

    Efficiencies 0.52 / 0.32 are the paper's quoted filter transmissions
    (0.65 Stokes / 0.40 anti-Stokes, criterion 05's targets) times camera
    efficiency 0.8; the cascade at PAPER_OPTIMUM transmits 0.669 (-2.3 GHz) and
    0.278 (+7.8 GHz) instead.  Fluorescence, leakage and the four-wave-mixing background are
    blocked, leaving only the intensifier term (1.5 per frame); n_sig is 0.5.
    Analytic C = 0.385, from the quoted values.
    """
    return NoiseModel(), RegionLayout()


def unfiltered_preset() -> tuple[NoiseModel, RegionLayout]:
    """No spectral filtering: backgrounds dominate the frame.

    Camera efficiency 0.8 on both arms; fluorescence and leakage backgrounds
    split 50/50 so the frame total is ~30 photons with the documented 1.5
    intensifier-equivalent share.  Analytic C = 0.037.
    """
    return NoiseModel(n_sig=0.08, eta_s=0.8, eta_as=0.8,
                      b_fluorescence=0.68, b_leakage=0.68,
                      intensifier_per_frame=1.5), RegionLayout()


@dataclass
class CountsBatch:
    """Per-frame, per-region photon counts for both arms."""

    n_s: np.ndarray   # (frames, regions) integer counts, Stokes arm (int16 when simulated)
    n_as: np.ndarray  # (frames, regions) integer counts, anti-Stokes arm
    layout: RegionLayout

    def __post_init__(self):
        for counts in (self.n_s, self.n_as):
            if not (isinstance(counts, np.ndarray) and np.issubdtype(counts.dtype, np.integer)):
                raise DataError("photon counts must be an integer array, got "
                                f"{getattr(counts, 'dtype', type(counts).__name__)}")
            # the range in which the block sums are exact
            if counts.size and (counts.min() < 0 or counts.max() > COUNT_MAX):
                raise DataError(f"photon counts must lie in [0, {COUNT_MAX}]")
        if self.n_s.shape != self.n_as.shape or self.n_s.ndim != 2:
            raise DataError("count arrays must share shape (frames, regions)")
        if self.n_s.shape[1] != self.layout.n_regions:
            raise DataError("count arrays disagree with layout region count")
        if self.n_s.shape[0] < 1:
            raise DataError("empty frame stream")

    @property
    def n_frames(self) -> int:
        return int(self.n_s.shape[0])

    def _runs(self, reduce):
        """reduce(n_s, n_as, lo) of each run of frames from row lo, in row
        order: here runs of _chunk_frames rows, as a simulated batch's chunks."""
        step = _chunk_frames(self.layout.n_regions)
        return (reduce(self.n_s[lo:lo + step], self.n_as[lo:lo + step], lo)
                for lo in range(0, self.n_frames, step))

    @cached_property
    def _moments(self) -> _BlockSums:
        """The exact block sums of every run."""
        return _sums(self._runs, self.n_frames, _partners(self.layout))


def sample_thermal(rng: np.random.Generator, nbar: float, size) -> np.ndarray:
    """Thermal (geometric on 0,1,2,...) photon numbers with mean nbar."""
    if nbar < 0:
        raise ConfigError([f"thermal mean must be >= 0, got {nbar}"])
    if nbar == 0.0:
        return np.zeros(size, dtype=np.int64)
    draws = rng.geometric(1.0 / (1.0 + nbar), size=size)  # int64, support 1, 2, ...
    draws -= 1
    return draws


def _chunk_frames(n_regions: int) -> int:
    """Frames per chunk.  The floor keeps a chunk's draw long: BLAS's pool
    threads spin a while after each product, on the other workers' CPUs."""
    return max(CHUNK_FRAMES_MIN, CHUNK_ENTRIES // n_regions)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _check_fits(bound: int, noise: NoiseModel) -> None:
    """Raise unless a count bound fits the int16 count arrays."""
    if bound > COUNT_MAX:
        raise DataError(f"a region's photon count can reach {bound}, past the int16 "
                        f"count limit {COUNT_MAX}: {noise!r}")


def _thinned(rng: np.random.Generator, pairs: np.ndarray, eta: float) -> np.ndarray:
    """rng.binomial(pairs, eta), drawn only for nonzero pairs: NumPy gives 0
    for n = 0 before it reads the generator, so the stream is the same."""
    hit = np.flatnonzero(pairs)
    out = np.zeros_like(pairs)
    np.put(out, hit, rng.binomial(pairs.take(hit), eta))
    return out


def _background(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    """size iid Poisson(lam) counts; below POISSON_SCATTER_MAX, a Poisson(lam *
    size) total placed uniformly, as a Poisson process split over cells gives
    independent Poisson cells (Devroye 1986, ch. X)."""
    if lam >= POISSON_SCATTER_MAX:
        return rng.poisson(lam, size)
    return np.bincount(rng.integers(0, size, rng.poisson(lam * size)), minlength=size)


def _draw_chunk(rng: np.random.Generator, noise: NoiseModel, b: float,
                n_s: np.ndarray, n_as: np.ndarray) -> None:
    """Fill one chunk's (frames, regions) slices of both count arrays.

    Each sampler draws the whole chunk before the next starts (thermal pairs,
    Stokes thinning, anti-Stokes thinning, the two Poisson backgrounds) into
    the int16 arrays.  The first three read the stream element by element in
    slices of DRAW_ENTRIES, as if drawn at once; each background's slices of
    BACKGROUND_ENTRIES flat entries are part of the stream (_background).  The
    pair numbers wait in n_as until both binomials have read them.  Each int64
    draw is checked before it is cast: a binomial count is at most the pair
    number, so the chunk's largest pair number plus the largest Poisson
    background bounds every count of an arm.
    """
    step = max(1, DRAW_ENTRIES // n_s.shape[1])
    slices = [slice(lo, lo + step) for lo in range(0, n_s.shape[0], step)]
    pair_max = 0
    for rows in slices:
        n_pair = sample_thermal(rng, noise.n_sig, n_as[rows].shape)
        pair_max = max(pair_max, int(n_pair.max()))
        _check_fits(pair_max, noise)
        n_as[rows] = n_pair
    for rows in slices:
        n_s[rows] = _thinned(rng, n_as[rows], noise.eta_s)
    for rows in slices:
        # mirror pairing: signal drawn for Stokes region i lands in AS region m-1-i
        n_as[rows] = _thinned(rng, n_as[rows], noise.eta_as)[:, ::-1]
    if b > 0:
        for flat in (n_s.reshape(-1), n_as.reshape(-1)):  # views: _drawn's arrays are contiguous
            for lo in range(0, flat.size, BACKGROUND_ENTRIES):
                background = _background(rng, b, min(BACKGROUND_ENTRIES, flat.size - lo))
                _check_fits(pair_max + int(background.max()), noise)
                flat[lo:lo + background.size] += background


def _drawn(frames: int, noise: NoiseModel, seed: int, layout: RegionLayout, reduce):
    """reduce(n_s, n_as, lo) of each chunk of the stream, in row order.

    Chunk i holds rows lo = i * _chunk_frames(n_regions) onward and draws from
    its own generator, SeedSequence(seed).spawn(n_chunks)[i], into int16
    arrays of its own, so the chunks run on a thread per available CPU
    (NumPy's samplers release the GIL) and the stream depends only on the
    arguments, not on the worker count.  reduce runs in the worker, while the
    chunk is in cache.  Two chunks per worker are queued, so a worker that
    finishes early starts the next at once; each may hold its counts, as the
    frames writer's reduce returns them, hence the cap on workers.
    """
    b = noise.background_per_region(layout)
    step = _chunk_frames(layout.n_regions)
    starts = range(0, frames, step)
    seeds = np.random.SeedSequence(seed).spawn(len(starts))
    workers = max(1, min(_cpu_count(), len(starts), POOL_ENTRIES // (2 * step * layout.n_regions)))

    def job(lo, seed_seq):
        n_s = np.empty((min(step, frames - lo), layout.n_regions), dtype=np.int16)
        n_as = np.empty_like(n_s)
        _draw_chunk(np.random.default_rng(seed_seq), noise, b, n_s, n_as)
        return reduce(n_s, n_as, lo)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for lo, seed_seq in zip(starts, seeds):
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            # a context copy per job carries the caller's np.errstate into the worker
            pending.append(pool.submit(contextvars.copy_context().run, job, lo, seed_seq))
        while pending:
            yield pending.popleft().result()


def simulate_frames(frames: int, noise: NoiseModel, seed: int,
                    layout: RegionLayout | None = None) -> CountsBatch:
    """Draw a reproducible stream of camera frames.

    Frames are drawn in chunks of _chunk_frames(n_regions), each from its own
    spawned seed, on a capped thread pool (see _drawn).  The worker that
    draws a chunk adds its block sums to the batch's and drops it; the batch
    keeps the sums, so the correlation functions read no counts.  Its n_s and
    n_as are drawn again, from the same seeds, when first read, and are then
    kept read-only.  Counts are int16, 2 bytes each; a model whose counts could
    pass 32767 raises DataError here rather than wrap.  Memory per worker is
    in the module docstring.
    """
    if frames < 1:
        raise ConfigError([f"need at least one frame, got {frames}"])
    batch = _SimulatedBatch(frames, noise, seed, layout or RegionLayout())
    batch._moments  # drawn here, under the caller's errstate, so a DataError raises here
    return batch


class _SimulatedBatch(CountsBatch):
    """The batch simulate_frames returns: the arguments that drew it and its
    block sums.  Its runs are its chunks, each drawn again from its seed."""

    def __init__(self, frames: int, noise: NoiseModel, seed: int, layout: RegionLayout):
        self._frames, self._noise, self._seed = frames, noise, seed
        self.layout = layout

    def __repr__(self) -> str:
        return (f"simulate_frames({self._frames}, {self._noise!r}, seed={self._seed}, "
                f"layout={self.layout!r})")

    @property
    def n_frames(self) -> int:
        return self._frames

    @property
    def n_s(self) -> np.ndarray:
        return self._counts[0]

    @property
    def n_as(self) -> np.ndarray:
        return self._counts[1]

    def _runs(self, reduce):
        return _drawn(self._frames, self._noise, self._seed, self.layout, reduce)

    @cached_property
    def _counts(self) -> tuple[np.ndarray, np.ndarray]:
        n_s = np.empty((self._frames, self.layout.n_regions), dtype=np.int16)
        n_as = np.empty_like(n_s)

        def fill(s, a, lo):  # each worker writes the rows of its own chunk
            n_s[lo:lo + len(s)] = s
            n_as[lo:lo + len(a)] = a

        for _ in self._runs(fill):
            pass
        n_s.flags.writeable = False
        n_as.flags.writeable = False
        return n_s, n_as


def correlation_coefficient(x, y) -> float:
    """Pearson correlation over frames; zero variance is an error, not 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("correlation needs two equal-length 1-D count streams")
    vx = x.var()
    vy = y.var()
    if vx == 0.0 or vy == 0.0:
        raise DataError("correlation undefined: a count stream has zero variance")
    return float(((x - x.mean()) * (y - y.mean())).mean() / math.sqrt(vx * vy))


class _BlockSums(NamedTuple):
    """Exact integer sums of two (frames, columns) count arrays x and y over
    each jackknife block."""

    count: np.ndarray  # (B,) frames per block
    sums: np.ndarray   # (B, 5, m) int64: Σx, Σy, Σx², Σy² and Σ x[:, i] y[:, pair[i]]
    sxy: np.ndarray    # (m, m) int64: Σ x[:, i] y[:, j] over all frames


JACKKNIFE_BLOCKS = 50


def _block_edges(n: int) -> np.ndarray:
    """Row edges of the jackknife's blocks of an n-frame stream."""
    n_blocks = JACKKNIFE_BLOCKS if n >= 2 * JACKKNIFE_BLOCKS else max(2, n // 2)
    return np.linspace(0, n, n_blocks + 1, dtype=int)


def _run_sums(x: np.ndarray, y: np.ndarray, pair: np.ndarray, edges: np.ndarray, lo: int,
              total: _BlockSums, lock) -> None:
    """Add the sums of x and y, rows lo.. of a stream, to total: the (5, m)
    sums of each block they touch and the (m, m) Σxy.

    The rows are read in sub-blocks of DRAW_ENTRIES entries or 256 rows,
    whichever is more, that never cross a block edge, each copied to float64.
    A sub-block has at most DRAW_ENTRIES rows, so its sums of counts up to
    COUNT_MAX are integers below 2**53, exact whatever order BLAS adds in, and
    are added to total's int64 sums under lock: in any order, the same bits.
    """
    n, m = x.shape
    cuts = np.concatenate(([lo], edges[(edges > lo) & (edges < lo + n)], [lo + n])) - lo
    first = np.searchsorted(edges, lo, side="right") - 1
    # BLAS needs a few hundred rows for the (m, m) product to run at speed
    step = max(DRAW_ENTRIES // m, 256)
    ones = np.ones(step)
    cols = np.arange(m)
    for k in range(cuts.size - 1):
        for a in range(cuts[k], cuts[k + 1], step):
            b = min(a + step, cuts[k + 1])
            xs, ys = x[a:b].astype(float), y[a:b].astype(float)
            cross = xs.T @ ys
            # column sums as a BLAS product: several times faster than .sum(axis=0)
            # on narrow rows
            part = np.stack([ones[:b - a] @ xs, ones[:b - a] @ ys,
                             np.einsum("ij,ij->j", xs, xs), np.einsum("ij,ij->j", ys, ys),
                             cross[cols, pair]]).astype(np.int64)
            with lock:
                total.sums[first + k] += part
                np.add(total.sxy, cross, out=total.sxy, dtype=np.int64, casting="unsafe")
            del xs, ys, cross  # freed before the next sub-block's copies are made


def _sums(runs, n: int, pair: np.ndarray) -> _BlockSums:
    """The block sums of an n-frame stream from runs(reduce), its reader."""
    edges = _block_edges(n)
    total = _BlockSums(np.diff(edges), np.zeros((edges.size - 1, 5, pair.size), dtype=np.int64),
                       np.zeros((pair.size, pair.size), dtype=np.int64))
    lock = threading.Lock()
    for _ in runs(lambda x, y, lo: _run_sums(x, y, pair, edges, lo, total, lock)):
        pass
    return total


def _comoment(sxy, sx, sy, n, mul=np.multiply):
    """Σ(x - x̄)(y - ȳ) over n frames from the exact sums Σxy, Σx and Σy: with
    cx, cy the rounded means, u = Σx - n cx and v = Σy - n cy, the int64
    Σ(x - cx)(y - cy) = Σxy - cy Σx - cx v less u v / n.  As u² / n ≤ Σ(x - x̄)²
    and v² / n ≤ Σ(y - ȳ)², that one float step errs by a few ulps of the
    Pearson denominator at most; a constant stream gives exactly 0."""
    cx, cy = (2 * sx + n) // (2 * n), (2 * sy + n) // (2 * n)
    u, v = sx - n * cx, sy - n * cy
    shifted = sxy - mul(sx, cy)
    shifted -= mul(cx, v)
    return shifted - mul(u / n, v)


def _pearson(sxy: np.ndarray, sxx: np.ndarray, syy: np.ndarray) -> np.ndarray:
    if not ((sxx > 0.0).all() and (syy > 0.0).all()):
        raise DataError("correlation undefined: a count stream has zero variance")
    return sxy / np.sqrt(sxx * syy)


def _moment_map(mom: _BlockSums) -> np.ndarray:
    """C_ij over all frames from the block sums."""
    n = int(mom.count.sum())
    sx, sy, sxx, syy = mom.sums[:, :4].sum(axis=0)
    return _pearson(_comoment(mom.sxy, sx, sy, n, np.multiply.outer),
                    _comoment(sxx, sx, sx, n)[:, None], _comoment(syy, sy, sy, n)[None, :])


def _jackknife_se(mom: _BlockSums, pair: np.ndarray) -> np.ndarray:
    """Delete-one-block jackknife standard error of r(x[:, i], y[:, pair[i]])."""
    n_blocks = mom.count.size
    # row k sums every block but block k
    n = (mom.count.sum() - mom.count)[:, None]
    if n.min() < 2:
        raise DataError("correlation undefined: a deleted block leaves fewer than 2 frames")
    sx, sy, sxx, syy, sxy = np.moveaxis(mom.sums.sum(axis=0) - mom.sums, 1, 0)
    sy, syy = sy[:, pair], syy[:, pair]
    stats = _pearson(_comoment(sxy, sx, sy, n), _comoment(sxx, sx, sx, n),
                     _comoment(syy, sy, sy, n))
    spread = ((stats - stats.mean(axis=0)) ** 2).sum(axis=0)
    return np.sqrt((n_blocks - 1) / n_blocks * spread)


def correlation_standard_error(x, y):
    """Delete-one-block jackknife standard error of the Pearson coefficient,
    over JACKKNIFE_BLOCKS contiguous row blocks (n // 2 when fewer than two
    frames per block, at least 2).

    x and y are two 1-D count streams (returns a float) or (frames, k) arrays of
    k paired columns, x[:, i] with y[:, i] (returns k values).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim not in (1, 2) or x.size == 0:
        raise DataError("jackknife needs two equal-shape (frames,) or (frames, k) count streams")
    n = x.shape[0]
    pair = np.arange(x.size // n)
    batch = CountsBatch(x.reshape(n, -1), y.reshape(n, -1), RegionLayout(pair.size))
    se = _jackknife_se(_sums(batch._runs, n, pair), pair)
    return float(se[0]) if x.ndim == 1 else se


def _partners(layout: RegionLayout) -> np.ndarray:
    return np.array([j for _, j in layout.pairs()])


def correlation_map(batch: CountsBatch) -> np.ndarray:
    """C_ij between every Stokes region i and anti-Stokes region j."""
    return _moment_map(batch._moments)


def analytic_pair_correlation(noise: NoiseModel, layout: RegionLayout | None = None) -> float:
    """Closed-form C for one mirror pair under this noise model."""
    layout = layout or RegionLayout()
    n = noise.n_sig
    b = noise.background_per_region(layout)
    cov = noise.eta_s * noise.eta_as * n * (1.0 + n)
    var_s = noise.eta_s * n * (1.0 + noise.eta_s * n) + b
    var_as = noise.eta_as * n * (1.0 + noise.eta_as * n) + b
    if var_s == 0.0 or var_as == 0.0:
        raise DataError("correlation undefined for zero-variance model")
    return cov / math.sqrt(var_s * var_as)


def pair_correlation_summary(batch: CountsBatch) -> dict:
    """Mean on-pair and off-pair correlations with jackknife errors."""
    partner = _partners(batch.layout)
    cmap = _moment_map(batch._moments)
    m = batch.layout.n_regions
    pair_mask = np.zeros((m, m), dtype=bool)
    pair_mask[np.arange(m), partner] = True
    on = cmap[pair_mask]
    off = cmap[~pair_mask]
    se = _jackknife_se(batch._moments, partner)
    return {
        "n_frames": batch.n_frames,
        "mean_on_pair": float(on.mean()),
        "se_on_pair": float(np.mean(se) / math.sqrt(len(se))),
        "mean_abs_off_pair": float(np.abs(off).mean()) if off.size else 0.0,
        "max_abs_off_pair": float(np.abs(off).max()) if off.size else 0.0,
    }
