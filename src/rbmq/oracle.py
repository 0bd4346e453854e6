"""Independent verification routes: reflected-diffusion simulation,
numerical Laplace inversion, and the diagonal-covariance closed forms.

Simulation
----------
Exact reflection of each coordinate over every step.  The free walk
moves by Y = mu h + sqrt(h) A xi with A the Cholesky factor of sigma.
With orthogonal reflection each coordinate is a one-dimensional
Skorokhod problem: with T the running sum of increments since a chunk
began at z0 and M the running minimum of -z0 and of the free path,
the path is Z = T - M and the local time is the regulator L = -z0 - M.
The free path's minimum within a step is not its value at either end:
given the step's increment y, the minimum of a Brownian bridge from 0
to y over time h with variance s per unit time has
P(min <= a) = exp(-2 a (a - y) / (s h)) for a <= min(0, y)
(Asmussen, Glynn & Pitman 1995; Lepingle 1995), and is drawn from a
standard exponential E by inversion, m = (y - sqrt(y^2 + 2 s h E)) / 2.
M is the running minimum of -z0 and of T_(n-1) + m_n, the free path's
lowest point in step n, so the reflection, the local time and the
boundary hits carry no O(sqrt h) bias.  The two
coordinates' minima are drawn independently given both endpoints, which
is exact when s12 = 0 and an approximation otherwise.  L grows only at
real boundary hits, so the boundary histograms see no rounding noise,
and a chunk's local time telescopes to L at its end minus L before its
measured segment.

Each chunk's normals and exponentials are drawn in one call per
coordinate, then the recursion walks them in cache-sized blocks,
carrying the last T and M from block to block; the cumulative sum and
minimum, and so the path, are bit for bit those of the whole chunk.
Observables are gathered per chunk in step order, so no result depends
on the block size.  Batches are independent replicas, each with its own
burn-in and its own RNG stream spawned from one seed, merged by batch
index, so output is deterministic for a fixed seed regardless of how
many worker threads run.  The Laplace transform is estimated on the
fixed 3x3 grid of theta in {-1, -0.5, -0.1}^2, and each marginal and
boundary histogram has 60 bins.

Inversion
---------
Fixed-contour Talbot quadrature with 32 nodes (Abate & Whitt 2006),
applied after shifting the transform by its dominant singularity so
that the slowly varying factor of the density is inverted at full
relative accuracy.  Order-14 Gaver-Stehfest (Salzer weights, real nodes
only) cross-checks every table at three abscissae and must agree to 1%;
a non-finite value of either method is refused the same way.
"""
from __future__ import annotations

import logging
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import asymptotics
from .errors import (
    ContourCollisionError,
    MethodDisagreementError,
    NotDiagonalError,
    StepSizeWarning,
    ValidationError,
)
from .model import ModelParams
from .transform import TransformBundle, phi1_eval

__all__ = [
    "SimConfig",
    "SimResult",
    "DensityTable",
    "DiagonalClosedForms",
    "simulate",
    "invert_transform",
    "diagonal_closed_forms",
    "density_table_to_csv",
    "sim_result_to_csv",
]

log = logging.getLogger(__name__)

# the (theta1, theta2) pairs where simulate estimates the Laplace transform
_THETA_AXIS = (-1.0, -0.5, -0.1)
_THETA_GRID = tuple((a, c) for a in _THETA_AXIS for c in _THETA_AXIS)
_BINS = 60  # bins of each marginal and boundary histogram

# steps per RNG draw: two normal and two exponential buffers, 4 x 16 MB
# per worker at full size; the split of draws between them fixes the stream
_CHUNK = 1 << 21
_BLOCK = 1 << 15  # steps per cache-resident block of the reflection recursion
# observables are accumulated every _THIN_TIME units of simulated time,
# rounded to a whole number of steps (at least one); statistically free
# because the integrands decorrelate on O(1) timescales
_THIN_TIME = 0.01


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    step is the time step h of the exactly reflected walk: the path,
    the local time and the boundary hits are exact at the grid times
    for each coordinate, so h only has to resolve the drift (see
    StepSizeWarning) and, with s12 != 0, the coupling of the two
    coordinates' in-step minima.  horizon is the total time budget, of
    which (horizon - burn_in) is split evenly across `batches`
    independent replicas (each replica additionally burns in for
    burn_in time units).  seed is a non-negative integer.  The thinning
    interval (_THIN_TIME), the theta grid and the histogram bins are
    fixed (see SimResult).
    """

    step: float = 2e-3
    horizon: float = 1e4
    burn_in: float = 100.0
    seed: int = 0
    batches: int = 50

    def __post_init__(self):
        if not (0 < self.step < math.inf and 0 < self.horizon < math.inf and self.burn_in >= 0):
            raise ValidationError(
                "step and horizon must be positive and finite, burn_in non-negative"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if self.burn_in >= self.horizon:
            raise ValidationError("burn_in must be smaller than horizon")
        if self.batches < 2:
            raise ValidationError("batch-means errors need at least 2 batches")
        if (self.horizon - self.burn_in) / self.batches < self.step:
            raise ValidationError(
                "each batch's measured segment (horizon - burn_in) / batches "
                "must be at least one step"
            )


@dataclass(frozen=True)
class SimResult:
    """Empirical summaries of one simulation run.

    laplace_estimates maps each (theta1, theta2) of the 3x3 grid
    {-1, -0.5, -0.1}^2 to (mean, stderr); local_time_rates holds
    ((rate1, se1), (rate2, se2)); histograms map name -> (bin_edges,
    density) on 60 bins from 0 to four times the axis' exponential scale
    s_ii / |mu_i|.  Stderr are batch-means estimates over the independent
    replicas.
    """

    laplace_estimates: dict
    local_time_rates: tuple
    marginal_histograms: dict
    boundary_histograms: dict
    measured_time: float
    config: SimConfig


@dataclass(frozen=True)
class DensityTable:
    """Density values on a positive grid, tagged with how they were made."""

    grid: np.ndarray
    values: np.ndarray
    method: str

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.values.setflags(write=False)


def _bridge_minimum(y: np.ndarray, expo: np.ndarray, var_h: float, out: np.ndarray) -> np.ndarray:
    """Minimum over one step of a Brownian bridge from 0 to y, per element.

    var_h is the variance of the step, s h; expo holds standard
    exponential draws E and is overwritten.  Inverting
    P(min <= a) = exp(-2 a (a - y) / (s h)) at exp(-E) gives
    m = (y - sqrt(y^2 + 2 s h E)) / 2.  In floating point too m <= min(0, y):
    the square root of the rounded y^2 is |y| exactly, and every
    operation rounds monotonically.
    """
    np.multiply(y, y, out=out)
    expo *= 2.0 * var_h
    out += expo
    np.sqrt(out, out=out)
    np.subtract(y, out, out=out)
    out *= 0.5
    return out


class _Skorokhod:
    """One coordinate's reflected walk over a chunk, advanced block by block.

    With T the chunk's running sum of increments y, m_n the free walk's
    minimum within step n relative to T_(n-1) (a Brownian-bridge draw),
    and M_n = min(-z0, T_0 + m_1, ..., T_(n-1) + m_n), the path is
    z_n = T_n - M_n, i.e. z_n = max(z_(n-1) + y_n, y_n - m_n), and the
    local time is the Skorokhod regulator L_n = -z0 - M_n.  The carry
    between blocks is the last T and the last M, so every block
    reproduces the whole-chunk cumulative sum and minimum exactly.
    """

    def __init__(self, block: int, var_h: float):
        # slot 0 holds the carried T (in _t) and the carried M (in _b);
        # slots 1.. the block's values
        self._var_h = var_h
        self._t = np.empty(block + 1)
        self._b = np.empty(block + 1)
        self._m = np.empty(block + 1)
        self._down = np.empty(block, dtype=bool)

    def start(self, z0: float) -> None:
        """Begin a chunk at z0; nothing carried yet."""
        self.z0 = z0
        self.t_end = 0.0
        self.m_end = -z0

    def advance(self, incr: np.ndarray, expo: np.ndarray) -> None:
        """Advance over one block of increments and standard exponentials,
        keeping its T and M; incr and expo are overwritten."""
        k = incr.size
        t, b, m = self._t[: k + 1], self._b[: k + 1], self._m[: k + 1]
        _bridge_minimum(incr, expo, self._var_h, out=b[1:])
        incr[0] += self.t_end
        t[0] = self.t_end
        np.cumsum(incr, out=t[1:])
        b[1:] += t[:-1]  # B_n = T_(n-1) + m_n
        b[0] = self.m_end
        np.fmin.accumulate(b, out=m)
        self.t_end = float(t[k])
        self.m_end = float(m[k])
        self._k = k

    @property
    def z_end(self) -> float:
        """z after the last step walked."""
        return self.t_end - self.m_end

    @property
    def l_end(self) -> float:
        """L after the last step walked."""
        return -self.z0 - self.m_end

    def path(self, idx: np.ndarray) -> np.ndarray:
        """z at block-local step indices idx (last block advanced)."""
        return self._t[idx + 1] - self._m[idx + 1]

    def regulator(self, j: int) -> float:
        """L after block-local step j of the last block advanced
        (j = -1: before it)."""
        return -self.z0 - float(self._m[j + 1])

    def hits(self, first: int):
        """Block-local steps >= first where L grows, and its increments.

        dl = L_n - L_(n-1) is exactly 0 off boundary hits, so only real
        hits are returned."""
        k = self._k
        m = self._m[: k + 1]
        down = np.less(m[1:], m[:-1], out=self._down[:k])
        h = np.flatnonzero(down[first:]) + first
        dl = (-self.z0 - m[h + 1]) - (-self.z0 - m[h])
        keep = dl > 0
        return h[keep], dl[keep]


def _uniform_hist(vals, inv_width: float, weights=None):
    """Histogram on _BINS uniform bins of [0, _BINS/inv_width) via bincount."""
    idx = (vals * inv_width).astype(np.int64)
    ok = (idx >= 0) & (idx < _BINS)
    if weights is None:
        return np.bincount(idx[ok], minlength=_BINS)[:_BINS].astype(float)
    return np.bincount(idx[ok], weights=weights[ok], minlength=_BINS)[:_BINS]


def _run_batch(p, cfg, edges1, edges2, n_burn, n_meas, thin, seed_seq):
    """One replica: burn-in, then accumulate thinned observables.

    Each chunk draws its normals, then its exponentials, in one call
    per coordinate (the RNG stream), then walks them in cache-sized
    blocks.  Observables are gathered per chunk in step order and
    reduced once per chunk, so no result depends on the block size."""
    rng = np.random.default_rng(seed_seq)
    chol = np.linalg.cholesky(p.sigma)
    drift = p.mu * cfg.step
    rt = math.sqrt(cfg.step)
    a11, a21, a22 = chol[0, 0] * rt, chol[1, 0] * rt, chol[1, 1] * rt

    # exp(th1 s1 + th2 s2) = exp(th1 s1) exp(th2 s2): one exponential per
    # axis value and coordinate, then one product per cell
    axis = np.array(_THETA_AXIS)[:, None]
    acc = np.zeros(len(_THETA_GRID))
    n_acc = 0
    l1 = l2 = 0.0
    inv_w1 = _BINS / edges1[-1]
    inv_w2 = _BINS / edges2[-1]
    mhist1 = np.zeros(_BINS)
    mhist2 = np.zeros(_BINS)
    bhist1 = np.zeros(_BINS)
    bhist2 = np.zeros(_BINS)

    total = n_burn + n_meas
    xi1 = np.empty(min(_CHUNK, total))
    xi2 = np.empty_like(xi1)
    e1 = np.empty_like(xi1)
    e2 = np.empty_like(xi1)
    block = min(_BLOCK, xi1.size)
    incr2 = np.empty(block)
    w1 = _Skorokhod(block, p.s11 * cfg.step)
    w2 = _Skorokhod(block, p.s22 * cfg.step)

    z1 = z2 = 0.0
    done = 0
    while done < total:
        n = min(_CHUNK, total - done)
        rng.standard_normal(out=xi1[:n])
        rng.standard_normal(out=xi2[:n])
        rng.standard_exponential(out=e1[:n])
        rng.standard_exponential(out=e2[:n])
        w1.start(z1)
        w2.start(z2)

        lo = max(n_burn - done, 0)  # first measured index within this chunk
        # thinned sampling times, phase-locked to the measured segment
        first = (-(done + lo - n_burn)) % thin
        idx = np.arange(lo + first, n, thin)
        s1 = np.empty(idx.size)
        s2 = np.empty(idx.size)
        hits1, hits2 = [], []
        l_lo1 = l_lo2 = 0.0  # L just before the measured segment
        for b0 in range(0, n, block):
            b1 = min(b0 + block, n)
            x1 = xi1[b0:b1]
            x2 = xi2[b0:b1]
            # increments in place, summed in the order that fixes their
            # bits: a21 xi1 + a22 xi2 + drift2 (before xi1 is
            # overwritten), then a11 xi1 + drift1
            i2 = np.multiply(x1, a21, out=incr2[: b1 - b0])
            x2 *= a22
            i2 += x2
            i2 += drift[1]
            x1 *= a11
            x1 += drift[0]
            w1.advance(x1, e1[b0:b1])
            w2.advance(i2, e2[b0:b1])
            if b1 <= lo:
                continue  # burn-in: only the carry matters
            start = max(lo - b0, 0)
            if b0 <= lo:  # first measured block
                l_lo1, l_lo2 = w1.regulator(start - 1), w2.regulator(start - 1)
            ka, kb = np.searchsorted(idx, (b0, b1))
            s1[ka:kb] = w1.path(idx[ka:kb] - b0)
            s2[ka:kb] = w2.path(idx[ka:kb] - b0)
            h, dl = w1.hits(start)
            hits1.append((w2.path(h), dl))
            h, dl = w2.hits(start)
            hits2.append((w1.path(h), dl))
        z1, z2 = w1.z_end, w2.z_end

        if lo < n:
            l1 += w1.l_end - l_lo1
            l2 += w2.l_end - l_lo2
            if idx.size:
                ex1 = np.exp(axis * s1)
                ex2 = np.exp(axis * s2)
                # the cells in _THETA_GRID's order, each a pairwise sum:
                # a BLAS product's order could depend on its thread count
                acc += (ex1[:, None] * ex2).sum(axis=-1).ravel()
                n_acc += idx.size
                mhist1 += _uniform_hist(s1, inv_w1)
                mhist2 += _uniform_hist(s2, inv_w2)
            at, dl = map(np.concatenate, zip(*hits1))
            bhist1 += _uniform_hist(at, inv_w2, weights=dl)
            at, dl = map(np.concatenate, zip(*hits2))
            bhist2 += _uniform_hist(at, inv_w1, weights=dl)
        done += n

    t_meas = n_meas * cfg.step
    return (
        acc / max(n_acc, 1),
        l1 / t_meas,
        l2 / t_meas,
        mhist1,
        mhist2,
        bhist1,
        bhist2,
        n_acc,
    )


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(batches: int) -> int:
    """Worker threads for `batches` replicas: the available CPUs, capped
    by the batch count and lowered (never raised) by RBMQ_THREADS."""
    cap = min(_cpu_count(), batches)
    raw = os.environ.get("RBMQ_THREADS", "")
    if not raw:
        return cap
    try:
        asked = int(raw)
    except ValueError:
        asked = 0
    if asked < 1:
        raise ValidationError(f"RBMQ_THREADS must be an integer >= 1, got {raw!r}")
    return min(asked, cap)


def simulate(p: ModelParams, cfg: Optional[SimConfig] = None) -> SimResult:
    """Simulate the reflected diffusion and summarise its stationary law.

    Because the reflection is orthogonal, each coordinate is reflected
    exactly over every step, with its in-step minimum drawn from the
    Brownian-bridge law; the one approximation left is that the two
    coordinates' minima are drawn independently (exact when s12 = 0).
    Batches run on one worker thread per available CPU (at most one per
    batch), fewer if the RBMQ_THREADS environment variable asks for
    fewer; results do not depend on it.
    """
    cfg = cfg or SimConfig()
    mu_max = float(np.abs(p.mu).max())
    if cfg.step * mu_max > 0.01:
        warnings.warn(
            f"step {cfg.step} is large relative to 1/|mu| = {1 / mu_max:.3g}; "
            "discretisation bias may dominate",
            StepSizeWarning,
            stacklevel=2,
        )

    # deterministic histogram ranges: ~8 means of the per-axis exponential scale
    cap1 = 4.0 * p.s11 / abs(p.m1)
    cap2 = 4.0 * p.s22 / abs(p.m2)
    edges1 = np.linspace(0.0, cap1, _BINS + 1)
    edges2 = np.linspace(0.0, cap2, _BINS + 1)

    n_burn = int(round(cfg.burn_in / cfg.step))
    t_batch = (cfg.horizon - cfg.burn_in) / cfg.batches
    n_meas = int(round(t_batch / cfg.step))
    thin = max(1, int(round(_THIN_TIME / cfg.step)))
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.batches)

    threads = _worker_count(cfg.batches)
    log.debug("simulate: %d worker thread(s) for %d batches", threads, cfg.batches)

    def run(batch_index):
        return _run_batch(p, cfg, edges1, edges2, n_burn, n_meas, thin, seeds[batch_index])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, range(cfg.batches)))
    else:
        results = [run(b) for b in range(cfg.batches)]

    lap = np.stack([r[0] for r in results])
    r1 = np.array([r[1] for r in results])
    r2 = np.array([r[2] for r in results])
    nb = cfg.batches
    lap_mean = lap.mean(axis=0)
    lap_se = lap.std(axis=0, ddof=1) / math.sqrt(nb)
    laplace = {
        th: (float(lap_mean[i]), float(lap_se[i])) for i, th in enumerate(_THETA_GRID)
    }
    rates = (
        (float(r1.mean()), float(r1.std(ddof=1) / math.sqrt(nb))),
        (float(r2.mean()), float(r2.std(ddof=1) / math.sqrt(nb))),
    )
    n_acc_total = sum(r[7] for r in results)
    t_meas_total = nb * n_meas * cfg.step
    mh1 = sum(r[3] for r in results) / (n_acc_total * (edges1[1] - edges1[0]))
    mh2 = sum(r[4] for r in results) / (n_acc_total * (edges2[1] - edges2[0]))
    bh1 = sum(r[5] for r in results) / (t_meas_total * (edges2[1] - edges2[0]))
    bh2 = sum(r[6] for r in results) / (t_meas_total * (edges1[1] - edges1[0]))

    return SimResult(
        laplace_estimates=laplace,
        local_time_rates=rates,
        marginal_histograms={"z1": (edges1, mh1), "z2": (edges2, mh2)},
        boundary_histograms={"nu1": (edges2, bh1), "nu2": (edges1, bh2)},
        measured_time=t_meas_total,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Laplace inversion
# ---------------------------------------------------------------------------


# Talbot nodes, Gaver-Stehfest order, and the largest relative
# difference between the two that the cross-check accepts
_TALBOT_NODES = 32
_STEHFEST_ORDER = 14
_CROSS_CHECK_RTOL = 0.01


def _talbot_invert(transform: Callable, x) -> np.ndarray:
    """Fixed-contour Talbot inversion of a standard Laplace transform.

    The contour winds around the negative real axis, so singularities
    must satisfy Re <= 0; a node count beyond ~35 buys nothing in double
    precision because the e^{2M/5} weight growth amplifies roundoff.
    The transform is called once, on the len(x) x _TALBOT_NODES array of
    all nodes (Abate & Whitt 2006), so it must broadcast over 2-d input.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("inversion abscissae must be positive")
    mm = _TALBOT_NODES
    theta = np.arange(mm) * np.pi / mm
    cot = np.zeros(mm)
    cot[1:] = 1.0 / np.tan(theta[1:])
    r = 2.0 * mm / 5.0
    t = xs[:, None]
    s = r / t * theta * (cot + 1j)
    s[:, 0] = r / xs
    fp = np.asarray(transform(s), dtype=complex)
    gam = np.empty((xs.size, mm), dtype=complex)
    gam[:, 0] = 0.5 * np.exp(r)
    gam[:, 1:] = np.exp(t * s[:, 1:]) * (
        1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:]
    )
    return (2.0 / (5.0 * xs)) * _row_dots(gam, fp).real


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair.  One np.dot per row keeps the
    summation order of a per-abscissa loop; a pairwise reduction
    (einsum, sum over axis 1) moved nu1 tables by up to 7e-8 relative for
    rho = 0.999, mu = (-0.05, -3)."""
    return np.array([np.dot(ra, rb) for ra, rb in zip(a, b)])


def _stehfest_weights() -> np.ndarray:
    """Salzer summation weights of order _STEHFEST_ORDER, accumulated
    exactly before rounding."""
    order = _STEHFEST_ORDER
    half = order // 2
    v = np.empty(order)
    for k in range(1, order + 1):
        total = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            total += Fraction(
                j**half * math.factorial(2 * j),
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k),
            )
        v[k - 1] = float((-1) ** (k + half) * total)
    v.setflags(write=False)
    return v


_STEHFEST_WEIGHTS = _stehfest_weights()


def _gaver_stehfest_invert(transform: Callable, x) -> np.ndarray:
    """Gaver-Stehfest inversion (real nodes, Salzer summation weights).

    Alternating weights grow like 10^(0.8 order); order 14 is about the
    double-precision limit and is used here as a cross-check only.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("inversion abscissae must be positive")
    k = np.arange(1, _STEHFEST_ORDER + 1)
    ln2 = math.log(2.0)
    fp = np.asarray(transform(k * ln2 / xs[:, None]), dtype=float)
    return ln2 / xs * _row_dots(np.broadcast_to(_STEHFEST_WEIGHTS, fp.shape), fp)


def invert_transform(b: TransformBundle, side: str, grid) -> DensityTable:
    """Numerically invert one boundary transform to its density.

    The transform in standard Laplace orientation is F(s) = phi(-s);
    its singularities all sit on [s*, -inf) with s* = -(dominant
    singularity), so the integrand is shifted by the dominant
    singularity (known from the asymptotics module) before Talbot
    quadrature: the inverted factor then varies slowly and keeps full
    relative accuracy even deep in the tail.  Gaver-Stehfest inverts
    the same factor at the first, middle and last abscissae, and a
    relative difference above 1%, or a non-finite value of either
    method, raises MethodDisagreementError.
    """
    if side not in ("nu1", "nu2"):
        raise ValueError("side must be 'nu1' or 'nu2'")
    xs = np.atleast_1d(np.asarray(grid, dtype=float))
    if not (xs.size and 0 < xs.min() <= xs.max() < math.inf):  # NaN fails too
        raise ValidationError("density grid must be non-empty, finite and strictly positive")
    side_bundle = b if side == "nu1" else b.swapped
    report = asymptotics.classify_regime(side_bundle)
    shift = report.decay_rate  # abscissa of the dominant singularity
    if not shift > 0:
        raise ContourCollisionError(
            f"dominant singularity at {shift} is not separated from the contour"
        )

    def shifted(s):
        return phi1_eval(side_bundle, shift - np.asarray(s, dtype=complex))

    probe = np.unique([0, xs.size // 2, xs.size - 1])
    # an overflow inside the closed form shows as a non-finite value,
    # which is refused below; numpy's warnings about it would add nothing
    with np.errstate(all="ignore"):
        slow = _talbot_invert(shifted, xs)
        gs = _gaver_stehfest_invert(lambda s: np.real(shifted(s)), xs[probe])
    bad_tal = int(np.count_nonzero(~np.isfinite(slow)))
    bad_gs = int(np.count_nonzero(~np.isfinite(gs)))
    if bad_tal or bad_gs:
        raise MethodDisagreementError(
            f"non-finite inversion: {bad_tal} of {slow.size} Talbot values and "
            f"{bad_gs} of {gs.size} Gaver-Stehfest probes"
        )
    values = np.exp(-shift * xs) * slow
    tal = slow[probe]
    rel = np.abs(gs - tal) / np.maximum(np.abs(tal), 1e-300)
    if np.any(rel > _CROSS_CHECK_RTOL):
        raise MethodDisagreementError(
            f"Talbot and Gaver-Stehfest disagree by {rel.max():.2%} "
            f"(tolerance {_CROSS_CHECK_RTOL:.0%})"
        )
    return DensityTable(grid=xs.copy(), values=values, method="talbot")


# ---------------------------------------------------------------------------
# Diagonal-covariance closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalClosedForms:
    """Exact stationary densities for diagonal covariance.

    Both marginals are exponentials and the interior density is their
    normalised product; the skew-symmetry of the diagonal case is what
    makes the product form exact.
    """

    params: ModelParams

    def nu1(self, x2):
        p = self.params
        return (2.0 * p.m1 * p.m2 / p.s22) * np.exp(2.0 * p.m2 / p.s22 * np.asarray(x2))

    def nu2(self, x1):
        p = self.params
        return (2.0 * p.m1 * p.m2 / p.s11) * np.exp(2.0 * p.m1 / p.s11 * np.asarray(x1))

    def pi(self, x1, x2):
        p = self.params
        return (4.0 * p.m1 * p.m2 / (p.s11 * p.s22)) * np.exp(
            2.0 * p.m1 / p.s11 * np.asarray(x1) + 2.0 * p.m2 / p.s22 * np.asarray(x2)
        )

    @staticmethod
    def one_dim_phi(theta, mu: float, sigma: float):
        """Transform of one-dimensional reflected Brownian motion."""
        rate = 2.0 * mu / sigma
        return rate / (np.asarray(theta) + rate)


def diagonal_closed_forms(p: ModelParams) -> DiagonalClosedForms:
    """Exact density evaluators; requires s12 = 0."""
    if p.s12 != 0.0:
        raise NotDiagonalError(f"s12 = {p.s12} != 0")
    return DiagonalClosedForms(p)


# ---------------------------------------------------------------------------
# CSV output (locale-independent decimal points throughout)
# ---------------------------------------------------------------------------


def _num(x) -> str:
    return repr(float(x))


def density_table_to_csv(table: DensityTable, fh) -> None:
    fh.write("x,density,method\n")
    for x, v in zip(table.grid, table.values):
        fh.write(f"{_num(x)},{_num(v)},{table.method}\n")


def sim_result_to_csv(result: SimResult, fh) -> None:
    """Long-format CSV: kind,coord1,coord2,value,stderr."""
    fh.write("kind,coord1,coord2,value,stderr\n")
    for (a, c), (mean, se) in result.laplace_estimates.items():
        fh.write(f"laplace,{_num(a)},{_num(c)},{_num(mean)},{_num(se)}\n")
    (rate1, se1), (rate2, se2) = result.local_time_rates
    fh.write(f"local_time_rate,1,,{_num(rate1)},{_num(se1)}\n")
    fh.write(f"local_time_rate,2,,{_num(rate2)},{_num(se2)}\n")
    for name, (edges, dens) in result.marginal_histograms.items():
        centers = 0.5 * (edges[:-1] + edges[1:])
        for x, v in zip(centers, dens):
            fh.write(f"marginal_{name},{_num(x)},,{_num(v)},\n")
    for name, (edges, dens) in result.boundary_histograms.items():
        centers = 0.5 * (edges[:-1] + edges[1:])
        for x, v in zip(centers, dens):
            fh.write(f"boundary_{name},{_num(x)},,{_num(v)},\n")
