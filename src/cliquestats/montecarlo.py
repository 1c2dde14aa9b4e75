"""Seeded Monte Carlo for the standardized count vectors, empirical
covariance, degenerate-safe multivariate normal sampling, and discrepancy
estimation against the matched normal.

Replicate r of a run draws from the counter-based stream keyed by
(master_seed, replicate_offset + r), so half-runs merge into a full run and
reruns are bit-identical.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from . import moments
from .graphs import check_p, check_seed, check_streams, gnp_generator, gnp_streams, gnp_uniforms
from .kinds import _small_graph_counts, statistic  # noqa: F401 (re-exported)

# Replicates per gnp_uniforms call on the count-table path: the arrays of a
# block take O(TABLE_BLOCK m) bytes, and per replicate (m = 10..21 variates,
# one BLAS thread) 1024 costs 1.3-2.3 us against 4.3-5.1 us at 256.
TABLE_BLOCK = 1024
PSD_TOL = 1e-9  # relative to the trace: how negative an eigenvalue may round
QUANTILE_CUTS = 9  # per axis of the rectangle grid, and per halfspace direction
HALFSPACE_DIRECTIONS = 16
RECT_GATHER_BYTES = 10 ** 9  # convex_discrepancy's corner gathers: 234 MB at d = 4


@dataclass(frozen=True)
class MCConfig:
    kind: str
    n: int
    p: float
    d: int
    replicates: int
    master_seed: int
    t: tuple = ()
    standardization: str = "analytic"
    replicate_offset: int = 0

    def __post_init__(self):
        stat = statistic(self.kind)
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        check_p(self.p)
        stat.check(self.n, self.d, self.t)
        if self.standardization not in ("analytic", "empirical"):
            raise ValueError("standardization must be analytic or empirical")
        check_seed(self.master_seed)
        check_streams(self.replicate_offset, self.replicates)  # replicate r reads offset + r


def analytic_mean_sd(cfg: MCConfig):
    """Per-component mean and standard deviation from the closed forms."""
    stat = statistic(cfg.kind)
    mean = stat.means(cfg.n, cfg.d, cfg.p, len(cfg.t))
    sd = moments.sigma(stat.variances(cfg.n, cfg.d, cfg.p, len(cfg.t)))
    return np.array(mean), np.array(sd)


def standardize(raw: np.ndarray, cfg: MCConfig) -> np.ndarray:
    """Raw count rows centred and scaled per component by the closed-form or
    the sample mean and standard deviation, as cfg.standardization says."""
    if cfg.standardization == "analytic":
        mean, sd = analytic_mean_sd(cfg)
    else:
        mean = raw.mean(axis=0)
        sd = np.array(moments.sigma(raw.var(axis=0, ddof=1)))
    return (raw - mean) / sd


def pool_workers(threads: int, items: int) -> int:
    """The parts parallel_map cuts this many items into, each a worker: at most
    ``threads``, and no more than there are items or CPUs this process may use."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(threads, items, cpus or 1)


def parallel_map(fn, items, threads: int) -> list:
    """[fn(part) for part in parts], the parts being the sequence items cut into
    pool_workers(threads, len(items)) contiguous slices, in order: mapped
    in-process if one, else on a pool with a worker each; fn and parts must pickle."""
    workers = pool_workers(threads, len(items))
    parts = [items[len(items) * i // workers:len(items) * (i + 1) // workers]
             for i in range(workers)]
    if workers <= 1:
        return [fn(part) for part in parts]
    # imported on first use: a serial caller loads no multiprocessing or socket
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, parts))


def _raw_chunk(cfg: MCConfig, streams: range) -> np.ndarray:
    """Rows for these streams of cfg's seed: from count tables for a block of
    replicates drawn at once, where they give every count; else per stream."""
    stat = statistic(cfg.kind)
    rows = np.empty((len(streams), cfg.d))
    words = stat.table_words(cfg)
    if words is None:
        for r, rng in enumerate(gnp_streams(cfg.master_seed, streams.start, len(streams))):
            rows[r] = stat.replicate(cfg, rng)
        return rows
    for lo in range(0, len(streams), TABLE_BLOCK):
        u = gnp_uniforms(cfg.master_seed, streams[lo],
                         min(TABLE_BLOCK, len(streams) - lo), words)
        rows[lo:lo + len(u)] = stat.table_rows(cfg, u)
    return rows


def simulate_raw(cfg: MCConfig, threads: int = 1) -> np.ndarray:
    """Raw count vectors, one row per replicate: replicate r reads stream
    offset + r, so the parts parallel_map cuts the stream range into, stacked
    in order, are the serial rows bit for bit."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    streams = range(cfg.replicate_offset, cfg.replicate_offset + cfg.replicates)
    return np.vstack(parallel_map(functools.partial(_raw_chunk, cfg), streams, threads))


def simulate_vectors(cfg: MCConfig) -> np.ndarray:
    """Standardized count vectors (replicates x d)."""
    return standardize(simulate_raw(cfg), cfg)


def empirical_cov(samples: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance, exactly symmetric."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    c = np.atleast_2d(np.cov(samples, rowvar=False, ddof=1))
    return (c + c.T) / 2.0


def psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root by eigendecomposition.

    Eigenvalues in [-PSD_TOL*trace, 0) clamp to 0, so rank-deficient
    covariances are supported; anything more negative is an error.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    if not np.allclose(cov, cov.T, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
        raise ValueError("covariance must be symmetric")
    w, v = np.linalg.eigh((cov + cov.T) / 2.0)
    tol = PSD_TOL * max(float(np.trace(cov)), 0.0)
    if np.any(w < -tol):
        raise ValueError("covariance is not PSD within tolerance "
                         "(min eigenvalue %g, tol %g)" % (float(w.min()), -tol))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def mvn_samples(cov: np.ndarray, replicates: int, seed: int) -> np.ndarray:
    """Rows are S @ Z with S the PSD square root of cov; degenerate cov allowed."""
    root = psd_sqrt(cov)
    rng = gnp_generator(seed, 0)
    z = rng.standard_normal((replicates, root.shape[0]))
    return z @ root.T


# ---------------------------------------------------------------------------
# discrepancy estimation


@dataclass
class DiscrepancyReport:
    estimate: float
    stderr: float
    family: str
    bound_used: BoundReport | None = None

    def as_dict(self) -> dict:
        out = {"estimate": self.estimate, "stderr": self.stderr, "family": self.family}
        if self.bound_used is not None:
            out["bound_used"] = self.bound_used.as_dict()
        return out


def smooth_family(d: int) -> list:
    """Logistic ridge functions h(x) = g(<a,x> + c).

    Coefficient grids keep the infinity norm of a at 1, so all third partials
    are bounded by max|g'''| = 1/8 <= 1.
    """
    a_list = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        a_list += [e, -e]
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros(d)
            e[i] = e[j] = 0.5
            a_list += [e, -e]
    return [(a, c) for a in a_list for c in (-1.0, 0.0, 1.0)]


def _logistic(u: np.ndarray) -> np.ndarray:
    # exp(min(u, 0)) / (1 + exp(-|u|)) is 1/(1+exp(-u)) where u >= 0 and
    # exp(u)/(1+exp(u)) where u < 0, the masked form's operations per element;
    # neither exp overflows, and no select follows the data's sign
    return np.exp(np.minimum(u, 0.0)) / (1.0 + np.exp(-np.abs(u)))


def _runs(pairs):
    """(direction, offsets) per run of consecutive (direction, offset) pairs
    that share one direction object, so each direction is projected once."""
    for _, run in itertools.groupby(pairs, key=lambda pair: id(pair[0])):
        run = list(run)
        yield run[0][0], [c for _, c in run]


def _columns(w_samples, z_samples):
    """Both sample sets as finite float arrays of shape (rows, d), d >= 1 and
    equal, rows >= 2 (a standard error needs two); 1-D input is one column.
    Non-finite rows are refused: a NaN fails every comparison with the
    running maximum, and an estimate left at its -1 start reads as a pass."""
    w, z = (np.asarray(s, dtype=float) for s in (w_samples, z_samples))
    w, z = (s[:, None] if s.ndim == 1 else s for s in (w, z))
    if w.ndim != 2 or z.ndim != 2 or w.shape[1] != z.shape[1]:
        raise ValueError("sample sets have different dimensions")
    if w.shape[1] == 0:
        raise ValueError("sample sets have no columns")
    if min(len(w), len(z)) < 2:
        raise ValueError("each sample set needs at least 2 rows")
    if not (np.isfinite(w).all() and np.isfinite(z).all()):
        raise ValueError("sample sets must be finite")
    return w, z


def smooth_discrepancy(w_samples, z_samples,
                       bound: BoundReport | None = None) -> DiscrepancyReport:
    """Max over the test-function family of |mean h(W) - mean h(Z)| with the
    pooled standard error of the argmax function."""
    w, z = _columns(w_samples, z_samples)
    family = smooth_family(w.shape[1])
    best = (-1.0, 0.0)
    for a, offsets in _runs(family):
        pw, pz = w @ a, z @ a
        for c in offsets:
            hw = _logistic(pw + c)
            hz = _logistic(pz + c)
            est = abs(float(hw.mean() - hz.mean()))
            if est > best[0]:
                se = math.sqrt(float(hw.var(ddof=1)) / len(hw)
                               + float(hz.var(ddof=1)) / len(hz))
                best = (est, se)
    return DiscrepancyReport(best[0], best[1],
                             "logistic ridges, %d functions" % len(family), bound)


@dataclass
class ConvexFamily:
    """Axis-aligned rectangles on a quantile grid plus seeded halfspaces."""

    grid: list  # per-dimension sorted cut points
    halfspaces: list  # (direction, threshold) pairs, one run per direction object

    @property
    def description(self) -> str:
        rects = 1
        for g in self.grid:
            m = len(g) + 2
            rects *= m * (m - 1) // 2
        return "%d rectangles + %d halfspaces" % (rects, len(self.halfspaces))


def _sorted_quantiles(s: np.ndarray) -> np.ndarray:
    """np.quantile(s, qs) at the QUANTILE_CUTS inner deciles qs, for a sorted
    1-D array s, without np.quantile's copy and partition: numpy's linear
    rule reads s at the floor of the virtual index (N - 1) q and the next
    one, and interpolates as its _lerp does, a + (b - a) g, or b - (b - a)(1 - g)
    where the fraction g is at least 1/2, so the cuts are bit for bit its own."""
    virtual = (len(s) - 1) * np.linspace(0.0, 1.0, QUANTILE_CUTS + 2)[1:-1]
    below = np.floor(virtual)
    gamma = virtual - below
    below = below.astype(np.intp)
    a, b = s[below], s[below + 1]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def _project(s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """s @ u.  At d = 1 it is the one rounded product per row that the
    (N, 1) matmul returns too (up to the sign of a zero, which no <= sees),
    without the matmul's slow path for one column."""
    return s[:, 0] * u[0] if len(u) == 1 else s @ u


def _directions(pooled: np.ndarray, seed: int):
    """Each of HALFSPACE_DIRECTIONS unit directions u drawn from stream 2^32
    of the seed, with the pooled rows' projection on u, its QUANTILE_CUTS
    cuts and the pooled count <= each cut.  The projection is sorted once,
    as a copy, and both the cuts and the counts are read off the copy."""
    rng = gnp_generator(seed, 2 ** 32)
    for _ in range(HALFSPACE_DIRECTIONS):
        u = rng.standard_normal(pooled.shape[1])
        u /= np.linalg.norm(u)
        projection = _project(pooled, u)
        ordered = np.sort(projection)
        cuts = _sorted_quantiles(ordered)
        below = np.searchsorted(ordered, cuts, side="right")
        del ordered  # not held while the caller reads the projection
        yield u, projection, cuts, below


def _grid(pooled: np.ndarray) -> list:
    """QUANTILE_CUTS pooled quantiles per axis, each column sorted once."""
    return [_sorted_quantiles(np.sort(col)) for col in pooled.T]


def convex_family(w: np.ndarray, z: np.ndarray, seed: int = 0) -> ConvexFamily:
    """Rectangles between QUANTILE_CUTS pooled quantiles per axis, and
    halfspaces {x : <u,x> <= c} at as many quantiles of the projection on
    each direction u of _directions, as _halfspace_probs builds them."""
    return _halfspace_probs(w, z, seed)[0]


def _halfspace_probs(w: np.ndarray, z: np.ndarray, seed: int):
    """The convex family of w and z (see convex_family), and the probability
    of each of its halfspaces under W and under Z, in family order.  W's
    count <= a cut is read off the pooled projection's first rows, and Z's
    is the pooled count less W's; a count over the row count is np.mean of
    the bool array, bit for bit."""
    pooled = np.vstack([w, z])
    halfspaces, w_below, pooled_below = [], [], []
    for u, projection, cuts, below in _directions(pooled, seed):
        part = projection[:len(w)]
        halfspaces += [(u, float(c)) for c in cuts]
        w_below += [np.count_nonzero(part <= c) for c in cuts]
        pooled_below.append(below)
    w_below = np.array(w_below)
    z_below = np.concatenate(pooled_below) - w_below
    return ConvexFamily(_grid(pooled), halfspaces), (w_below / len(w), z_below / len(z))


def check_rect_gathers(d: int) -> None:
    """Refuse a d whose rectangle corner gathers, 2^(d-1) arrays of L C(L, 2)^(d-1)
    floats per sample set at L grid levels, exceed RECT_GATHER_BYTES: d <= 4."""
    size = 2 ** d * (QUANTILE_CUTS + 2) * math.comb(QUANTILE_CUTS + 2, 2) ** (d - 1) * 8
    if size > RECT_GATHER_BYTES:
        raise ValueError("convex discrepancy at d=%d: its rectangle corners need %.1f GB, "
                         "over the %.1f GB budget" % (d, size / 1e9, RECT_GATHER_BYTES / 1e9))


def _rect_probs(samples: np.ndarray, grid) -> np.ndarray:
    """The cumulative cell histogram of the samples on the grid, padded with
    a zero layer in front of each axis: entry (l_1, ..., l_d) is
    P(X_i <= level l_i for all i) over grid levels 0..len(grid_i)+1 meaning
    (-inf, cuts..., +inf).  Cells are counted as integers, then divided by
    the row count."""
    shape = tuple(len(g) + 1 for g in grid)
    # a value's cell index on an axis is its count of cuts <= it, which is
    # searchsorted(g, col, side="right") for the sorted cuts, without the
    # binary search's mispredicted branches; at most QUANTILE_CUTS, a uint8
    index = []
    for g, col in zip(grid, samples.T):
        cell = np.zeros(len(col), np.uint8)
        for c in g:
            cell += col >= c
        index.append(cell)
    cells = np.ravel_multi_index(tuple(index), shape)
    cum = np.bincount(cells, minlength=math.prod(shape)).reshape(shape) / len(samples)
    for axis in range(len(shape)):
        cum = np.cumsum(cum, axis=axis)
    pad = np.zeros(tuple(s + 1 for s in shape))
    pad[tuple(slice(1, None) for _ in shape)] = cum
    return pad


def _rect_blocks(cum: np.ndarray):
    """Probabilities of the rectangles (lo_1, hi_1) x ... x (lo_d, hi_d),
    lo_i < hi_i, from the padded cumulative array, in itertools.product order
    of the intervals; one flat block per run of consecutive first-axis
    intervals, as many as keep a block within the C(L, 2)^2 rectangles of
    L grid levels on two axes: the whole family at d <= 2, one first-axis
    interval a block at d >= 3.

    Each probability is the inclusion-exclusion sum over the 2^d corners,
    added to 0.0 in itertools.product order, subtracted at an odd number of
    lo ends, so it is bit-identical to summing corner by corner.  The corners
    on axes 2..d are gathered once, for all first-axis levels."""
    ends = [np.triu_indices(s, 1) for s in cum.shape]
    trailing = {corner: cum[(slice(None),) + np.ix_(*(e[b] for e, b in zip(ends[1:], corner)))]
                for corner in itertools.product((0, 1), repeat=cum.ndim - 1)}
    terms = [(np.subtract if corner.count(0) % 2 else np.add, corner[0], trailing[corner[1:]])
             for corner in itertools.product((0, 1), repeat=cum.ndim)]
    shape = tuple(len(lo) for lo, _ in ends[1:])
    step = math.comb(QUANTILE_CUTS + 2, 2) ** 2 // math.prod(shape)
    lo, hi = ends[0]
    # a block of one interval indexes its corners as views of the gathers
    groups = zip(lo, hi) if step <= 1 else ((lo[k:k + step], hi[k:k + step])
                                            for k in range(0, len(lo), step))
    for first in groups:
        block = np.zeros(np.shape(first[0]) + shape)
        for op, b, gathered in terms:
            op(block, gathered[first[b]], out=block)
        yield block.ravel()


def convex_discrepancy(w_samples, z_samples, bound: BoundReport | None = None,
                       seed: int = 0) -> DiscrepancyReport:
    """Max over the convex family of |P(W in A) - P(Z in A)| with the binomial
    standard error of the argmax set (the first one, in family order)."""
    w, z = _columns(w_samples, z_samples)
    check_rect_gathers(w.shape[1])
    family, halfspaces = _halfspace_probs(w, z, seed)
    rects = zip(_rect_blocks(_rect_probs(w, family.grid)),
                _rect_blocks(_rect_probs(z, family.grid)))
    best = (-1.0, 0.0)
    for pw, pz in itertools.chain(rects, [halfspaces]):
        est = np.abs(pw - pz)
        i = int(np.argmax(est))
        if est[i] > best[0]:
            # inclusion-exclusion can round a probability to -1e-16, whose
            # p(1 - p) would be a negative variance
            best = (float(est[i]), math.sqrt(max(pw[i] * (1.0 - pw[i]), 0.0) / len(w)
                                             + max(pz[i] * (1.0 - pz[i]), 0.0) / len(z)))
    # and it can round a rectangle's gap to just past 1, which no two
    # probabilities are apart
    return DiscrepancyReport(min(best[0], 1.0), best[1], family.description, bound)


def bound_check(report: DiscrepancyReport, bound: BoundReport) -> str:
    """PASS / VACUOUS-PASS / FAIL verdict for an estimate against a bound."""
    if bound.vacuous:
        return "VACUOUS-PASS"
    return "PASS" if report.estimate <= bound.value + 3.0 * report.stderr else "FAIL"
