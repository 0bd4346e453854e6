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
coordinate, then one recursion walks both coordinates, as the two rows
of (2, n) arrays, in cache-sized blocks, carrying the last T and M from
block to block; the cumulative sum and minimum, and so the path, are
bit for bit those of the whole chunk.  Observables are gathered per
chunk in step order, so no result depends on the block size.  Batches
are independent replicas, each with its own burn-in and its own RNG
stream spawned from one seed, merged by batch index, so output is
deterministic for a fixed seed regardless of how many worker threads
run.  The batches run on `_points._on_threads`, the package's one
worker-thread runner: one thread per CPU the process may use, at most
one per batch, each in the caller's context.  The Laplace transform is
estimated on the fixed 3x3 grid of theta in {-1, -0.5, -0.1}^2, and
each marginal and boundary histogram has 60 bins.

Inversion
---------
Fixed-contour Talbot quadrature with 32 nodes (Abate & Whitt 2006),
applied after shifting the transform by its dominant singularity so
that the slowly varying factor of the density is inverted at full
relative accuracy.  The same quadrature on a second contour, with 24
nodes, cross-checks every table at three abscissae and must agree to
1%; a non-finite value on either contour is refused the same way.
"""
from __future__ import annotations

import functools
import logging
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _points, asymptotics
from .errors import (
    ContourCollisionError,
    MethodDisagreementError,
    NotDiagonalError,
    StepSizeWarning,
    ValidationError,
)
from .model import ModelParams, _frozen_array, _real_array
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
        _check_seed(self.seed)
        for name in ("step", "horizon", "burn_in", "batches"):
            value = getattr(self, name)
            kind = numbers.Integral if name == "batches" else numbers.Real
            # a bool is an Integral, but True is no time or count
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an integer" if kind is numbers.Integral else "a real number"
                raise ValidationError(f"{name} must be {what}, got {value!r}")
        if not (0 < self.step < math.inf and 0 < self.horizon < math.inf and self.burn_in >= 0):
            raise ValidationError(
                "step and horizon must be positive and finite, burn_in non-negative"
            )
        if self.burn_in >= self.horizon:
            raise ValidationError("burn_in must be smaller than horizon")
        if self.batches < 2:
            raise ValidationError("batch-means errors need at least 2 batches")
        if (self.horizon - self.burn_in) / self.batches < self.step:
            raise ValidationError(
                "each batch's measured segment (horizon - burn_in) / batches "
                "must be at least one step"
            )


def _check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative integer (SimConfig's and
    checks.run_checks' rule)."""
    # a bool is an Integral, but True is no seed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")


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
    """Density values on a positive grid.

    grid and values are held as read-only float copies of the input; the
    grid is 1-d and the values have its shape.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("grid", "values"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), name))
        if self.grid.ndim != 1 or self.values.shape != self.grid.shape:
            raise ValidationError(
                "a density table needs a 1-d grid and values of its shape; "
                f"got shapes {self.grid.shape} and {self.values.shape}"
            )


def _bridge_minimum(y: np.ndarray, expo: np.ndarray, var_h, out: np.ndarray) -> np.ndarray:
    """Minimum over one step of a Brownian bridge from 0 to y, per element.

    var_h is the variance of the step, s h (a float, or a column of one
    per row); expo holds standard exponential draws E and is overwritten.
    Inverting P(min <= a) = exp(-2 a (a - y) / (s h)) at exp(-E) gives
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


# the coordinate of each row of a (2, n) array, as a column
_ROWS = np.arange(2)[:, None]


class _Skorokhod:
    """Both coordinates' reflected walks over a chunk, row i coordinate i,
    advanced block by block.

    With T the chunk's running sum of increments y, m_n the free walk's
    minimum within step n relative to T_(n-1) (a Brownian-bridge draw),
    and M_n = min(-z0, T_0 + m_1, ..., T_(n-1) + m_n), the path is
    z_n = T_n - M_n, i.e. z_n = max(z_(n-1) + y_n, y_n - m_n), and the
    local time is the Skorokhod regulator L_n = -z0 - M_n.  The carry
    between blocks is the last T and the last M, so every block
    reproduces the whole-chunk cumulative sum and minimum exactly.  Both
    run one row at a time: along an axis of a 2-d array numpy holds the
    GIL in them, and the worker threads would take turns.
    """

    def __init__(self, block: int, var_h: np.ndarray):
        # column 0 holds the carried T (in _t) and the carried M (in _b);
        # columns 1.. the block's values
        self._var_h = var_h
        self._t = np.empty((2, block + 1))
        self._b = np.empty((2, block + 1))
        self._m = np.empty((2, block + 1))
        self._down = np.empty((2, block), dtype=bool)

    def start(self, z0: np.ndarray) -> None:
        """Begin a chunk at z0, one value per row; nothing carried yet."""
        self.z0 = z0
        self.t_end = np.zeros(2)
        self.m_end = -z0

    def advance(self, incr: np.ndarray, expo: np.ndarray) -> None:
        """Advance over one (2, k) block of increments and standard
        exponentials, keeping its T and M; incr and expo are overwritten."""
        k = incr.shape[1]
        t, b, m = self._t[:, : k + 1], self._b[:, : k + 1], self._m[:, : k + 1]
        _bridge_minimum(incr, expo, self._var_h, out=b[:, 1:])
        incr[:, 0] += self.t_end
        t[:, 0] = self.t_end
        for i in range(2):
            np.cumsum(incr[i], out=t[i, 1:])
        b[:, 1:] += t[:, :-1]  # B_n = T_(n-1) + m_n
        b[:, 0] = self.m_end
        for i in range(2):
            np.fmin.accumulate(b[i], out=m[i])
        self.t_end = t[:, k].copy()
        self.m_end = m[:, k].copy()
        self._k = k

    @property
    def z_end(self) -> np.ndarray:
        """z after the last step walked."""
        return self.t_end - self.m_end

    @property
    def l_end(self) -> np.ndarray:
        """L after the last step walked."""
        return -self.z0 - self.m_end

    def path(self, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """z of coordinates rows at block-local step indices idx (last block
        advanced), broadcast together; rows=_ROWS gives one row each."""
        at = rows * self._t.shape[1] + idx + 1
        return np.take(self._t, at) - np.take(self._m, at)

    def regulator(self, j: int) -> np.ndarray:
        """L after block-local step j of the last block advanced
        (j = -1: before it)."""
        return -self.z0 - self._m[:, j + 1]

    def hits(self, first: int):
        """Block-local steps >= first where L grows: the coordinate, the
        step and the increment of each, row by row in step order.

        dl = L_n - L_(n-1) is exactly 0 off boundary hits, so only real
        hits are returned."""
        k = self._k
        m = self._m[:, : k + 1]
        down = np.less(m[:, 1:], m[:, :-1], out=self._down[:, :k])
        rows, h = np.divmod(np.flatnonzero(down[:, first:]), k - first)
        h += first
        at = rows * self._m.shape[1] + h
        nz0 = -self.z0[rows]
        dl = (nz0 - np.take(self._m, at + 1)) - (nz0 - np.take(self._m, at))
        keep = dl > 0
        return rows[keep], h[keep], dl[keep]


def _uniform_hist(vals, inv_width, rows, weights=None):
    """Counts (or weights) on _BINS uniform bins of [0, _BINS/inv_width),
    one row per coordinate: vals[j] falls in row rows[j] (all broadcast)."""
    idx = (vals * inv_width).astype(np.int64)
    ok = (idx >= 0) & (idx < _BINS)
    idx += rows * _BINS
    w = None if weights is None else weights[ok]
    return np.bincount(idx[ok], weights=w, minlength=2 * _BINS).reshape(2, _BINS)


def _workspace(p, cfg, total: int) -> tuple:
    """A worker's chunk buffers for the normals and the exponentials, its
    increment scratch and its walker, reused by each of its batches."""
    xi = np.empty((2, min(_CHUNK, total)))
    block = min(_BLOCK, xi.shape[1])
    walk = _Skorokhod(block, np.diag(p.sigma)[:, None] * cfg.step)
    return xi, np.empty_like(xi), np.empty(block), walk


def _run_batch(p, cfg, edges, n_burn, n_meas, thin, seed_seq, workspace):
    """One replica: burn-in, then accumulate thinned observables.

    Each chunk draws its normals, then its exponentials, in one call
    per coordinate (the RNG stream), then walks them in cache-sized
    blocks.  Observables are gathered per chunk in step order and
    reduced once per chunk, so no result depends on the block size."""
    xi, expo, cross, walk = workspace
    block = cross.size
    rng = np.random.default_rng(seed_seq)
    chol = np.linalg.cholesky(p.sigma) * math.sqrt(cfg.step)
    a21 = chol[1, 0]
    scale = np.diag(chol)[:, None]
    drift = (p.mu * cfg.step)[:, None]

    # exp(th1 s1 + th2 s2) = exp(th1 s1) exp(th2 s2): one exponential per
    # axis value and coordinate, then one product per cell
    axis = np.array(_THETA_AXIS)[:, None]
    acc = np.zeros(len(_THETA_GRID))
    n_acc = 0
    ell = np.zeros(2)
    inv_w = _BINS / edges[:, -1]
    mhist = np.zeros((2, _BINS))
    bhist = np.zeros((2, _BINS))

    z = np.zeros(2)
    done = 0
    total = n_burn + n_meas
    while done < total:
        n = min(_CHUNK, total - done)
        for row in xi:
            rng.standard_normal(out=row[:n])
        for row in expo:
            rng.standard_exponential(out=row[:n])
        walk.start(z)

        lo = max(n_burn - done, 0)  # first measured index within this chunk
        # thinned sampling times, phase-locked to the measured segment
        first = (-(done + lo - n_burn)) % thin
        idx = np.arange(lo + first, n, thin)
        s = np.empty((2, idx.size))
        hits = []
        l_lo = None  # L just before the measured segment
        for b0 in range(0, n, block):
            b1 = min(b0 + block, n)
            x = xi[:, b0:b1]
            # increments in place: a11 xi1 + drift1 over
            # a22 xi2 + a21 xi1 + drift2, each sum in its bits' order
            np.multiply(x[0], a21, out=cross[: b1 - b0])
            x *= scale
            x[1] += cross[: b1 - b0]
            x += drift
            walk.advance(x, expo[:, b0:b1])
            if b1 <= lo:
                continue  # burn-in: only the carry matters
            start = max(lo - b0, 0)
            if b0 <= lo:  # first measured block
                l_lo = walk.regulator(start - 1)
            ka, kb = np.searchsorted(idx, (b0, b1))
            s[:, ka:kb] = walk.path(_ROWS, idx[ka:kb] - b0)
            # where each coordinate hits its boundary, the other one's place
            rows, h, dl = walk.hits(start)
            hits.append((rows, walk.path(1 - rows, h), dl))
        z = walk.z_end

        if lo < n:
            ell += walk.l_end - l_lo
            if idx.size:
                ex = np.exp(axis * s[:, None])
                # the cells in _THETA_GRID's order, each a pairwise sum:
                # a BLAS product's order could depend on its thread count
                acc += (ex[0][:, None] * ex[1]).sum(axis=-1).ravel()
                n_acc += idx.size
                mhist += _uniform_hist(s, inv_w[:, None], _ROWS)
            rows, at, dl = map(np.concatenate, zip(*hits))
            bhist += _uniform_hist(at, inv_w[1 - rows], rows, dl)
        done += n

    return acc / max(n_acc, 1), ell / (n_meas * cfg.step), mhist, bhist, n_acc


def simulate(p: ModelParams, cfg: Optional[SimConfig] = None) -> SimResult:
    """Simulate the reflected diffusion and summarise its stationary law.

    Because the reflection is orthogonal, each coordinate is reflected
    exactly over every step, with its in-step minimum drawn from the
    Brownian-bridge law; the one approximation left is that the two
    coordinates' minima are drawn independently (exact when s12 = 0).
    Batches run on one worker thread per CPU the process may use (at
    most one per batch), each in the caller's context, so an
    np.errstate holds there; results do not depend on the count.
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

    # deterministic histogram ranges, one row per coordinate: ~8 means of
    # the per-axis exponential scale
    edges = np.linspace(0.0, 4.0 * np.diag(p.sigma) / np.abs(p.mu), _BINS + 1, axis=1)

    n_burn = int(round(cfg.burn_in / cfg.step))
    n_meas = int(round((cfg.horizon - cfg.burn_in) / cfg.batches / cfg.step))
    thin = max(1, int(round(_THIN_TIME / cfg.step)))
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.batches)

    log.debug(
        "simulate: %d worker thread(s) for %d batches", _points._threads(cfg.batches), cfg.batches
    )

    def run(space, b):
        return _run_batch(p, cfg, edges, n_burn, n_meas, thin, seeds[b], space)

    # one workspace serves all of a thread's batches, so its pages are
    # faulted in once
    results = _points._on_threads(run, cfg.batches, lambda: _workspace(p, cfg, n_burn + n_meas))

    lap = np.stack([r[0] for r in results])
    nb = cfg.batches
    lap_mean = lap.mean(axis=0)
    lap_se = lap.std(axis=0, ddof=1) / math.sqrt(nb)
    laplace = {
        th: (float(lap_mean[i]), float(lap_se[i])) for i, th in enumerate(_THETA_GRID)
    }
    rates = tuple(
        (float(rate.mean()), float(rate.std(ddof=1) / math.sqrt(nb)))
        for rate in np.stack([r[1] for r in results], axis=1)
    )
    n_acc_total = sum(r[4] for r in results)
    t_meas_total = nb * n_meas * cfg.step
    width = (edges[:, 1] - edges[:, 0])[:, None]
    mh = sum(r[2] for r in results) / (n_acc_total * width)
    # nu1 is a law of z2 and nu2 of z1: each is binned on the other's edges
    bh = sum(r[3] for r in results) / (t_meas_total * width[::-1])

    return SimResult(
        laplace_estimates=laplace,
        local_time_rates=rates,
        marginal_histograms={"z1": (edges[0], mh[0]), "z2": (edges[1], mh[1])},
        boundary_histograms={"nu1": (edges[1], bh[0]), "nu2": (edges[0], bh[1])},
        measured_time=t_meas_total,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Laplace inversion
# ---------------------------------------------------------------------------


# Talbot nodes of the table and of the cross-check's second contour,
# and the largest relative difference between the two that it accepts
_TALBOT_NODES = 32
_CHECK_NODES = 24
_CROSS_CHECK_RTOL = 0.01
# the boundary densities invert_transform inverts, and the method that
# density_table_to_csv names in each row
_SIDES = ("nu1", "nu2")
_METHOD = "talbot"


@functools.lru_cache(maxsize=4)
def _talbot_contour(xs_bytes: bytes, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The Talbot nodes s and weights gam, each len(xs) x nodes, of the
    abscissae whose float64 bytes are xs_bytes.  They depend on the grid
    alone, so they are built once per (grid, node count) and handed out
    read-only; four entries hold a table's grid and its probes for two
    grids."""
    xs = np.frombuffer(xs_bytes, dtype=float)
    theta = np.arange(nodes) * np.pi / nodes
    cot = np.zeros(nodes)
    cot[1:] = 1.0 / np.tan(theta[1:])
    r = 2.0 * nodes / 5.0
    t = xs[:, None]
    s = r / t * theta * (cot + 1j)
    s[:, 0] = r / xs
    gam = np.empty((xs.size, nodes), dtype=complex)
    gam[:, 0] = 0.5 * np.exp(r)
    gam[:, 1:] = np.exp(t * s[:, 1:]) * (
        1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:]
    )
    s.flags.writeable = False
    gam.flags.writeable = False
    return s, gam


def _talbot_invert(transform: Callable, x, nodes: int = _TALBOT_NODES) -> np.ndarray:
    """Fixed-contour Talbot inversion of a standard Laplace transform.

    The contour winds around the negative real axis, so singularities
    must satisfy Re <= 0; a node count beyond ~35 buys nothing in double
    precision because the e^{2M/5} weight growth amplifies roundoff.
    The transform is called once, on the len(x) x nodes array of all
    nodes (Abate & Whitt 2006), so it must broadcast over 2-d input; the
    nodes and weights come from `_talbot_contour`, built once per grid,
    and the node array is read-only.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("inversion abscissae must be positive")
    s, gam = _talbot_contour(xs.tobytes(), nodes)
    fp = np.asarray(transform(s), dtype=complex)
    # one (1 x n)(n x 1) product per abscissa keeps the summation order of a
    # per-row np.dot; a pairwise reduction (einsum, sum over axis 1) moved nu1
    # tables by up to 7e-8 relative for rho = 0.999, mu = (-0.05, -3)
    dots = np.matmul(gam[:, None, :], fp[:, :, None])[:, 0, 0]
    return (2.0 / (5.0 * xs)) * dots.real


def invert_transform(b: TransformBundle, side: str, grid) -> DensityTable:
    """Numerically invert one boundary transform to its density.

    The transform in standard Laplace orientation is F(s) = phi(-s);
    its singularities all sit on [s*, -inf) with s* = -(dominant
    singularity), so the integrand is shifted by the dominant
    singularity (known from the asymptotics module) before Talbot
    quadrature: the inverted factor then varies slowly and keeps full
    relative accuracy even deep in the tail.  Talbot on a second
    contour, with _CHECK_NODES nodes, inverts the same factor at the
    first, middle and last abscissae, and a relative difference above
    1%, or a non-finite value on either contour, raises
    MethodDisagreementError.
    """
    if side not in _SIDES:
        raise ValidationError(f"side must be 'nu1' or 'nu2', got {side!r}")
    xs = np.atleast_1d(_real_array(grid, "density grid"))
    if not (xs.ndim == 1 and xs.size and 0 < xs.min() <= xs.max() < math.inf):  # NaN fails too
        raise ValidationError(
            "density grid must be 1-d, non-empty, finite and strictly positive; "
            f"got shape {xs.shape}"
        )
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
        check = _talbot_invert(shifted, xs[probe], nodes=_CHECK_NODES)
    bad_tal = int(np.count_nonzero(~np.isfinite(slow)))
    bad_check = int(np.count_nonzero(~np.isfinite(check)))
    if bad_tal or bad_check:
        raise MethodDisagreementError(
            f"non-finite inversion: {bad_tal} of {slow.size} values on the "
            f"{_TALBOT_NODES}-node Talbot contour and {bad_check} of {check.size} "
            f"probes on the {_CHECK_NODES}-node contour"
        )
    values = np.exp(-shift * xs) * slow
    tal = slow[probe]
    rel = np.abs(check - tal) / np.maximum(np.abs(tal), 1e-300)
    if np.any(rel > _CROSS_CHECK_RTOL):
        raise MethodDisagreementError(
            f"the {_TALBOT_NODES}- and {_CHECK_NODES}-node Talbot contours disagree "
            f"by {rel.max():.2%} (tolerance {_CROSS_CHECK_RTOL:.0%})"
        )
    return DensityTable(grid=xs, values=values)


# ---------------------------------------------------------------------------
# Diagonal-covariance closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalClosedForms:
    """Exact boundary densities for diagonal covariance; building one
    refuses s12 != 0 (NotDiagonalError), and `diagonal_closed_forms` is
    this constructor.

    Both are exponentials, and the stationary law is the product of two
    one-dimensional reflected motions (`one_dim_phi`); the skew-symmetry
    of the diagonal case is what makes the product form exact.
    """

    params: ModelParams

    def __post_init__(self):
        if self.params.s12 != 0.0:
            raise NotDiagonalError(f"s12 = {self.params.s12} != 0")

    def nu1(self, x2):
        p = self.params
        return (2.0 * p.m1 * p.m2 / p.s22) * np.exp(2.0 * p.m2 / p.s22 * np.asarray(x2))

    def nu2(self, x1):
        p = self.params
        return (2.0 * p.m1 * p.m2 / p.s11) * np.exp(2.0 * p.m1 / p.s11 * np.asarray(x1))

    @staticmethod
    def one_dim_phi(theta, mu: float, sigma: float):
        """Transform of one-dimensional reflected Brownian motion."""
        rate = 2.0 * mu / sigma
        return rate / (np.asarray(theta) + rate)


diagonal_closed_forms = DiagonalClosedForms


# ---------------------------------------------------------------------------
# CSV output (locale-independent decimal points throughout)
# ---------------------------------------------------------------------------


def _num(x) -> str:
    return repr(float(x))


def density_table_to_csv(table: DensityTable, fh) -> None:
    fh.write("x,density,method\n")
    for x, v in zip(table.grid, table.values):
        fh.write(f"{_num(x)},{_num(v)},{_METHOD}\n")


def sim_result_to_csv(result: SimResult, fh) -> None:
    """Long-format CSV: kind,coord1,coord2,value,stderr."""
    fh.write("kind,coord1,coord2,value,stderr\n")
    for (a, c), (mean, se) in result.laplace_estimates.items():
        fh.write(f"laplace,{_num(a)},{_num(c)},{_num(mean)},{_num(se)}\n")
    (rate1, se1), (rate2, se2) = result.local_time_rates
    fh.write(f"local_time_rate,1,,{_num(rate1)},{_num(se1)}\n")
    fh.write(f"local_time_rate,2,,{_num(rate2)},{_num(se2)}\n")
    for kind, hists in (
        ("marginal", result.marginal_histograms),
        ("boundary", result.boundary_histograms),
    ):
        for name, (edges, dens) in hists.items():
            centers = 0.5 * (edges[:-1] + edges[1:])
            for x, v in zip(centers, dens):
                fh.write(f"{kind}_{name},{_num(x)},,{_num(v)},\n")
