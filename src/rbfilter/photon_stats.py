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

The correlation map and the delete-one-block jackknife come from piece
moments: per run of rows inside one jackknife block, the frame count, the
column means and the centred second moments, plus the block it lies in.  A
batch has one reader, CountsBatch._runs(reduce): reduce(n_s, n_as, lo) of each
run of frames from row lo, in row order.  Plain arrays are one run; a
simulated batch's runs are its chunks, each drawn again from its seed, with
reduce run by the worker thread that drew it.  CountsBatch._moments cuts each
run at the block edges (_piece_moments), so a block spanning two chunks is two
pieces, and keeps the pieces joined in row order.  Pieces merge by the
pairwise update of Chan, Golub & LeVeque (Am. Stat. 37, 242 (1983)); the map
merges all pieces, and each jackknife estimate all pieces outside one block.

A simulated batch keeps its moments and the arguments that drew it, not its
counts, which are drawn again when asked for: the whole int16 arrays on the
first read of n_s or n_as, or one chunk at a time for the CLI's per-frame
export.  Memory per worker: one chunk's int16 counts of both arms (4 B per
entry: 1.3 MB at 10 regions), one slice of DRAW_ENTRIES int64 draws (256 kB)
and float64 copies of one piece, the part of one block in one chunk (at most
frames / 50 rows and CHUNK_FRAMES rows): 1.6 MB each at 10 regions and 1e6
frames, 16 MB each at the validator's 1e8 counts per arm.  No count array
grows with the frame count; the pieces grow with the blocks, up to a chunk.
"""

from __future__ import annotations

import contextvars
import math
import os
from collections import deque
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError

# frames per seeded chunk of simulate_frames; part of the stream's definition
CHUNK_FRAMES = 1 << 15
# counts are stored as int16: a region's count per frame is a handful of photons
COUNT_MAX = int(np.iinfo(np.int16).max)
# entries per sampler call in _draw_chunk, whose int64 draws are its only temporary
DRAW_ENTRIES = 1 << 15


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

    def mean_counts_per_frame(self, layout: RegionLayout) -> float:
        m = layout.n_regions
        sig = m * (self.eta_s + self.eta_as) * self.n_sig
        return sig + 2.0 * m * self.background_per_region(layout)


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
        if self.n_s.shape != self.n_as.shape or self.n_s.ndim != 2:
            raise DataError("count arrays must share shape (frames, regions)")
        if self.n_s.shape[1] != self.layout.n_regions:
            raise DataError("count arrays disagree with layout region count")
        if self.n_s.shape[0] < 1:
            raise DataError("empty frame stream")
        if self.n_s.min() < 0 or self.n_as.min() < 0:
            raise DataError("negative photon counts")

    @property
    def n_frames(self) -> int:
        return int(self.n_s.shape[0])

    def _runs(self, reduce):
        """reduce(n_s, n_as, lo) of each run of frames from row lo, in row
        order: here one run, the whole arrays."""
        yield reduce(self.n_s, self.n_as, 0)

    @cached_property
    def _moments(self) -> _PieceMoments:
        """The piece moments of every run, joined in row order."""
        pair, edges = _partners(self.layout), _block_edges(self.n_frames)
        parts, sxy_within = [], 0
        for part in self._runs(lambda n_s, n_as, lo: _piece_moments(n_s, n_as, pair, edges, lo)):
            parts.append(part[:-1])
            sxy_within = sxy_within + part.sxy_within  # one (m, m) sum, not one per run
        return _PieceMoments(*map(np.concatenate, zip(*parts)), sxy_within)


def sample_thermal(rng: np.random.Generator, nbar: float, size) -> np.ndarray:
    """Thermal (geometric on 0,1,2,...) photon numbers with mean nbar."""
    if nbar < 0:
        raise ConfigError([f"thermal mean must be >= 0, got {nbar}"])
    if nbar == 0.0:
        return np.zeros(size, dtype=np.int64)
    draws = rng.geometric(1.0 / (1.0 + nbar), size=size)  # int64, support 1, 2, ...
    draws -= 1
    return draws


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


def _draw_chunk(rng: np.random.Generator, noise: NoiseModel, b: float,
                n_s: np.ndarray, n_as: np.ndarray) -> None:
    """Fill one chunk's (frames, regions) slices of both count arrays.

    Each sampler draws the whole chunk before the next starts (thermal pairs,
    Stokes thinning, anti-Stokes thinning, the two Poisson backgrounds), in
    slices of at most DRAW_ENTRIES entries written straight into the int16
    arrays; NumPy's samplers take the bit stream element by element, so the
    slicing leaves the stream as if each sampler drew the chunk at once.  The
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
        n_s[rows] = rng.binomial(n_as[rows], noise.eta_s)
    for rows in slices:
        # mirror pairing: signal drawn for Stokes region i lands in AS region m-1-i
        n_as[rows] = rng.binomial(n_as[rows], noise.eta_as)[:, ::-1]
    if b > 0:
        for counts in (n_s, n_as):
            for rows in slices:
                background = rng.poisson(b, size=counts[rows].shape)
                _check_fits(pair_max + int(background.max()), noise)
                counts[rows] += background


def _drawn(frames: int, noise: NoiseModel, seed: int, layout: RegionLayout, reduce):
    """reduce(n_s, n_as, lo) of each chunk of the stream, in row order.

    Chunk i holds rows lo = i * CHUNK_FRAMES onward and draws from its own
    generator, SeedSequence(seed).spawn(n_chunks)[i], into int16 arrays of its
    own, so the chunks run on a thread per available CPU (NumPy's samplers
    release the GIL) and the stream depends only on the arguments, not on the
    CPU count.  reduce runs in the worker, while the chunk is in cache; a
    chunk is submitted only when the oldest result is taken, so at most one
    chunk per worker is in flight.
    """
    b = noise.background_per_region(layout)
    starts = range(0, frames, CHUNK_FRAMES)
    seeds = np.random.SeedSequence(seed).spawn(len(starts))
    workers = min(_cpu_count(), len(starts))

    def job(lo, seed_seq):
        n_s = np.empty((min(CHUNK_FRAMES, frames - lo), layout.n_regions), dtype=np.int16)
        n_as = np.empty_like(n_s)
        _draw_chunk(np.random.default_rng(seed_seq), noise, b, n_s, n_as)
        return reduce(n_s, n_as, lo)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for lo, seed_seq in zip(starts, seeds):
            if len(pending) == workers:
                yield pending.popleft().result()
            # a context copy per job carries the caller's np.errstate into the worker
            pending.append(pool.submit(contextvars.copy_context().run, job, lo, seed_seq))
        while pending:
            yield pending.popleft().result()


def simulate_frames(frames: int, noise: NoiseModel, seed: int,
                    layout: RegionLayout | None = None) -> CountsBatch:
    """Draw a reproducible stream of camera frames.

    Frames are drawn in chunks of CHUNK_FRAMES, each from its own spawned
    seed, on a thread per available CPU (see _drawn).  The worker that draws
    a chunk reduces it to piece moments and drops it; the batch keeps the
    moments, so the correlation functions read no counts.  Its n_s and n_as
    are drawn again, from the same seeds, when first read, and are then kept
    read-only.  Counts are int16, 2 bytes each; a model whose counts could
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
    piece moments.  Its runs are its chunks, each drawn again from its seed."""

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


class _PieceMoments(NamedTuple):
    """Moments of two (frames, columns) count arrays x and y over consecutive
    runs of rows (pieces), none of which crosses a jackknife block edge."""

    count: np.ndarray      # (P,) frames per piece
    block: np.ndarray      # (P,) jackknife block each piece lies in
    mean_x: np.ndarray     # (P, m) piece means
    mean_y: np.ndarray     # (P, m)
    sxx: np.ndarray        # (P, m) sums of squared deviations from the piece means
    syy: np.ndarray        # (P, m)
    sxy_pair: np.ndarray   # (P, m) centred cross moment of x[:, i] with y[:, pair[i]]
    sxy_within: np.ndarray  # (m, m) centred cross moments of x with y, summed over pieces


JACKKNIFE_BLOCKS = 50


def _block_edges(n: int) -> np.ndarray:
    """Row edges of the jackknife's blocks of an n-frame stream."""
    n_blocks = JACKKNIFE_BLOCKS if n >= 2 * JACKKNIFE_BLOCKS else max(2, n // 2)
    return np.linspace(0, n, n_blocks + 1, dtype=int)


def _piece_moments(x: np.ndarray, y: np.ndarray, pair: np.ndarray, edges: np.ndarray,
                   lo: int = 0) -> _PieceMoments:
    """One pass over x and y, rows lo.. of a stream, cut into pieces at the
    block edges that fall inside them.

    Moments are float and centred on each piece's own means, so no integer sum
    can overflow; integer counts make every piece sum exact (they stay far
    below 2**53), which keeps the centred moments of a constant stream exactly 0.
    """
    n, m = x.shape
    cuts = np.concatenate(([0], edges[(edges > lo) & (edges < lo + n)] - lo, [n]))
    n_pieces = cuts.size - 1
    mean_x, mean_y, sxx, syy, sxy_pair = (np.zeros((n_pieces, m)) for _ in range(5))
    sxy_within = np.zeros((m, m))
    rows = np.arange(m)
    ones = np.ones(np.diff(cuts).max())
    for k in range(n_pieces):
        a, b = cuts[k], cuts[k + 1]
        xb = x[a:b].astype(float)
        yb = y[a:b].astype(float)
        # column sums as a BLAS product: several times faster than .mean(axis=0)
        # on narrow rows, and still exact for integer counts
        mean_x[k] = ones[:b - a] @ xb / (b - a)
        mean_y[k] = ones[:b - a] @ yb / (b - a)
        xb -= mean_x[k]
        yb -= mean_y[k]
        cross = xb.T @ yb
        sxy_within += cross
        sxy_pair[k] = cross[rows, pair]
        sxx[k] = np.einsum("ij,ij->j", xb, xb)
        syy[k] = np.einsum("ij,ij->j", yb, yb)
        del xb, yb  # freed before the next piece's copies are made
    block = np.searchsorted(edges, lo + cuts[:-1], side="right") - 1
    return _PieceMoments(np.diff(cuts).astype(float), block, mean_x, mean_y, sxx, syy,
                         sxy_pair, sxy_within)


def _merge(keep: np.ndarray, count: np.ndarray, mean_a: np.ndarray, mean_b: np.ndarray,
           s_ab: np.ndarray) -> np.ndarray:
    """Centred co-moments over the pieces that each row of the 0/1 matrix keep selects.

    Chan et al.: the within-piece moments add, plus each piece's count times the
    product of its mean offsets from the merged means.
    """
    weight = keep * count
    total = weight.sum(axis=1)[:, None]
    da = mean_a - (weight @ mean_a / total)[:, None, :]
    db = mean_b - (weight @ mean_b / total)[:, None, :]
    return keep @ s_ab + np.einsum("gb,gbi,gbi->gi", weight, da, db)


def _pearson(sxy: np.ndarray, sxx: np.ndarray, syy: np.ndarray) -> np.ndarray:
    if not ((sxx > 0.0).all() and (syy > 0.0).all()):
        raise DataError("correlation undefined: a count stream has zero variance")
    return sxy / np.sqrt(sxx * syy)


def _moment_map(mom: _PieceMoments) -> np.ndarray:
    """C_ij over all frames from the piece moments."""
    n = mom.count
    dx = mom.mean_x - n @ mom.mean_x / n.sum()
    dy = mom.mean_y - n @ mom.mean_y / n.sum()
    sxx = mom.sxx.sum(axis=0) + n @ (dx * dx)
    syy = mom.syy.sum(axis=0) + n @ (dy * dy)
    sxy = mom.sxy_within + (n[:, None] * dx).T @ dy
    return _pearson(sxy, sxx[:, None], syy[None, :])


def _jackknife_se(mom: _PieceMoments, pair: np.ndarray) -> np.ndarray:
    """Delete-one-block jackknife standard error of r(x[:, i], y[:, pair[i]])."""
    n_blocks = _block_edges(int(mom.count.sum())).size - 1
    # row k keeps every piece outside block k
    keep = (mom.block != np.arange(n_blocks)[:, None]).astype(float)
    if (keep @ mom.count).min() < 2:
        raise DataError("correlation undefined: a deleted block leaves fewer than 2 frames")
    mean_y = mom.mean_y[:, pair]
    stats = _pearson(_merge(keep, mom.count, mom.mean_x, mean_y, mom.sxy_pair),
                     _merge(keep, mom.count, mom.mean_x, mom.mean_x, mom.sxx),
                     _merge(keep, mom.count, mean_y, mean_y, mom.syy[:, pair]))
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
    if x.shape != y.shape or x.ndim not in (1, 2) or x.shape[0] < 1:
        raise DataError("jackknife needs two equal-shape (frames,) or (frames, k) count streams")
    n = x.shape[0]
    pair = np.arange(x.size // n)
    se = _jackknife_se(_piece_moments(x.reshape(n, -1), y.reshape(n, -1), pair,
                                      _block_edges(n)), pair)
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
