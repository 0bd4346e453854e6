"""Cross-module invariant suite behind the `check` CLI verb.

Each check exercises an identity that ties at least two independently
implemented code paths together; residuals are relative and the
tolerances are fixed here, not configurable, so a green run means the
same thing everywhere.  Every identity is one residual function of the
model (or bundle) and the points, shared by `run_checks` and the test
suite, which pass their own samples and tolerances.

`run_checks` draws, from one generator seeded by its `seed` and in this
order: 10k plane points in [-4, 4]^2 (the kernel roots in both
variables), 200 kernel zeros in the native domain (for the cross
identity), 10k sphere points (the zero set and the two involutions),
200 cone points (the lifted gluing map) and 2 x 1000 cone points (the
injectivity of w).  The draws are whole, but each 10k-point identity is
evaluated over consecutive slices of `_points._BLOCK` (8,192) points of
its sample (`_block_max`), the evaluators' own block size, and reports
the largest slice residual: every step is elementwise, so that is the
residual of the whole sample, bit for bit, at any slice size.  Whole
samples cost the bench's `model_sweep` 22-47% more time and 3-4x the
minor page faults per run (2 cores); 8,192-point slices cost what
4,096-point ones did (`pass_ms` medians 569.3 and 571.9 ms over 10
alternating 35 s runs each).  The ~10k faults per pass that remain
come from glibc trimming the heap top, not from its mmap threshold: with
trimming off (MALLOC_TRIM_THRESHOLD_) a pass took 7-12% less time.  The
branch roots share |point|, and each side of the two-sheet identity
evaluates only the coordinate its involution fixes.

A value at a point is the trapezoid mean over 64 nodes on a circle about
it (`_circle_mean`); a kernel zero is measured on the scale by which
`phi_eval` refuses one (`kernel._zero_scale`).  No function here writes
into an array it is passed.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import asymptotics, kernel, transform, uniformization
from ._points import _BLOCK, _as_array
from .errors import ComputationRefused, WrongRegimeError
from .model import ModelParams
from .oracle import _check_seed, diagonal_closed_forms
from .transform import TransformBundle

__all__ = [
    "CheckResult",
    "run_checks",
    "curve_points",
    "real_kernel_zeros",
    "native_kernel_zeros",
    "cone_points",
    "kernel_zero_residual",
    "branch_root_residual",
    "conjugacy_residual",
    "vieta_residual",
    "gluing_residual",
    "boundary_condition_residual",
    "cross_transform_residual",
    "two_sheet_residual",
    "reflection_residual",
    "lift_residual",
    "boundary_mass_residual",
    "pole_residue_residual",
    "injectivity_collisions",
    "diagonal_product_residual",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: residual {self.residual:.3e} vs tol {self.tol:.1e}{extra}"


def _result(name, residual, tol, detail="") -> CheckResult:
    return CheckResult(name, bool(residual <= tol), float(residual), tol, detail)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


# run_checks' fixed grids, built once: offsets from theta1_minus, radii
_CURVE_OFFSETS = np.concatenate([np.linspace(1e-4, 3.0, 100), np.geomspace(3.0, 100.0, 100)])
_LEFT_OFFSETS = np.concatenate([np.linspace(1e-3, 5.0, 100), np.geomspace(5.0, 100.0, 100)])
_REAL_ZERO_OFFSETS = np.geomspace(1e-3, 50.0, 100)
_REFLECTION_RADII = np.geomspace(1e-2, 100.0, 100)
# 64 unit-circle nodes offset by half a step, so that none is real
_MEAN_NODES = np.exp(1j * np.pi * (2.0 * np.arange(64) + 1.0) / 64.0)


def curve_points(p: ModelParams) -> np.ndarray:
    """200 points on the boundary curve over theta1 = theta1_minus - t."""
    return kernel.theta2_branches(p, p.scalars.theta1_minus - _CURVE_OFFSETS)[0]


def real_kernel_zeros(p: ModelParams, theta1: np.ndarray):
    """Kernel zeros over real theta1 on both theta2-branches, as
    (theta1, theta2) with theta1 repeated once per branch."""
    return np.concatenate([theta1, theta1]), np.concatenate(kernel.theta2_branches(p, theta1))


def _sphere_points(rng, n: int) -> np.ndarray:
    """n sphere points, the modulus uniform on [0.05, 20], the argument uniform."""
    radius = rng.uniform(0.05, 20.0, n)
    angle = rng.uniform(-np.pi, np.pi, n)
    s = np.empty(n, dtype=complex)
    s.real = np.cos(angle) * radius
    s.imag = np.sin(angle) * radius
    return s


def native_kernel_zeros(b: TransformBundle, n: int, rng):
    """Kernel zeros with both coordinates in the left half-plane."""
    t1_out, t2_out, count = [], [], 0
    for _ in range(200):
        if count >= n:
            break
        th1, th2 = uniformization.theta_of_s(b, _sphere_points(rng, 4 * n))
        keep = (th1.real < -1e-3) & (th2.real < -1e-3) & (np.abs(th1) > 1e-6) & (
            np.abs(th2) > 1e-6
        )
        t1_out.append(th1[keep])
        t2_out.append(th2[keep])
        count += t1_out[-1].size
    if count < n:
        raise ComputationRefused(
            f"200 sphere batches gave {count} of {n} kernel zeros in the left half-plane"
        )
    return np.concatenate(t1_out)[:n], np.concatenate(t2_out)[:n]


def _theta2(b: TransformBundle, s) -> np.ndarray:
    """theta2 alone at sphere points known to be finite and non-zero."""
    arr, _ = _as_array(s)
    return uniformization._theta2_of_s(b, arr, 1.0 / arr)


def cone_points(b: TransformBundle, n: int, rng, max_log_radius: float = 2.0) -> np.ndarray:
    """Sphere points in the open cone between the rays through -1 and
    -e^{i beta}: the lift of the interior domain."""
    rho = np.exp(rng.uniform(-2.0, max_log_radius, n))
    ang = np.pi + rng.uniform(1e-3, b.scalars.beta - 1e-3, n)
    return rho * np.exp(1j * ang)


# ---------------------------------------------------------------------------
# Identities: each returns the largest relative residual over the points
# ---------------------------------------------------------------------------


def _block_max(residual, points: np.ndarray):
    """The largest of residual(slice) over consecutive `_BLOCK`-point
    slices of `points`, entry by entry when residual returns several
    values; a NaN in any slice is the result, as in a whole-array max."""
    slices = range(0, len(points), _BLOCK)
    return np.max([residual(points[i : i + _BLOCK]) for i in slices], axis=0)


def _rel_gap(z: np.ndarray, ref) -> float:
    """max |z - ref| / (1 + |ref|)."""
    return float((np.abs(z - ref) / (np.abs(ref) + 1.0)).max())


def _zero_residual(p: ModelParams, t1, t2, r1, r2) -> float:
    """max |gamma(t1, t2)| / `kernel._zero_scale`, from the moduli r1, r2."""
    return float((np.abs(kernel._gamma(p, t1, t2)) / kernel._zero_scale(p, r1, r2)).max())


def kernel_zero_residual(p: ModelParams, theta1, theta2) -> float:
    """|gamma| at points that should be kernel zeros, over the scale by
    which `phi_eval` refuses a kernel zero."""
    t1, t2 = np.broadcast_arrays(_as_array(theta1)[0], _as_array(theta2)[0])
    return _zero_residual(p, t1, t2, np.abs(t1), np.abs(t2))


def branch_root_residual(p: ModelParams, points) -> float:
    """Both branches in both variables are kernel zeros at `points`;
    |points| is computed once for the four roots, and passed first."""
    pts, _ = _as_array(points)
    r = np.abs(pts)
    return max(
        *(_zero_residual(p, pts, t2, r, np.abs(t2)) for t2 in kernel.theta2_branches(p, pts)),
        *(_zero_residual(p, t1, pts, r, np.abs(t1)) for t1 in kernel.theta1_branches(p, pts)),
    )


def conjugacy_residual(p: ModelParams, plus, minus) -> float:
    """Left of theta1_minus the two theta2-branches `plus` and `minus`
    are conjugate and lie on the boundary curve."""
    conj = _rel_gap(np.conj(minus), plus)
    return max(conj, float(np.max(kernel.hyperbola(p).residual(plus))))


def vieta_residual(p: ModelParams, theta1, plus, minus) -> float:
    """Sum and product of the theta2-branches `plus` and `minus` at
    theta1 against the coefficient ratios -b/a and c/a of the kernel as
    a quadratic in theta2."""
    b_coef = p.s12 * theta1 + p.m2
    c_coef = 0.5 * p.s11 * theta1 * theta1 + p.m1 * theta1
    vsum = np.abs(plus + minus + b_coef / 0.5 / p.s22) / (1.0 + np.abs(plus))
    vprod = np.abs(plus * minus - c_coef / (0.5 * p.s22)) / (1.0 + np.abs(plus) ** 2)
    return float(max(vsum.max(), vprod.max()))


def gluing_residual(b: TransformBundle, curve) -> float:
    """w takes conjugate curve points to the same value."""
    w_up = transform.w_eval(b, curve)
    w_dn = transform.w_eval(b, np.conj(curve))
    return _rel_gap(w_dn, w_up)


def boundary_condition_residual(b: TransformBundle, curve) -> float:
    """psi1 takes conjugate curve points to the same value."""
    ps_up = transform.psi1_eval(b, curve)
    ps_dn = transform.psi1_eval(b, np.conj(curve))
    return float(np.max(np.abs(ps_up - ps_dn) / np.maximum(np.abs(ps_up), 1e-300)))


def cross_transform_residual(b: TransformBundle, theta1, theta2) -> float:
    """psi1(theta2) + psi2(theta1) = 0 at kernel zeros."""
    s1 = transform.psi1_eval(b, theta2)
    s2 = transform.psi2_eval(b, theta1)
    return float(np.max(np.abs(s1 + s2) / np.maximum(np.abs(s1), np.abs(s2))))


def two_sheet_residual(b: TransformBundle, s, th1, th2) -> float:
    """zeta fixes theta1(s) and eta fixes theta2(s), given
    (th1, th2) = theta_of_s(b, s)."""
    zeta, eta = uniformization._involutions(b, _as_array(s)[0])
    z1 = uniformization._theta1_of_s(b, zeta, 1.0 / zeta)
    z2 = uniformization._theta2_of_s(b, eta, 1.0 / eta)
    return max(_rel_gap(z1, th1), _rel_gap(z2, th2))


def _sphere_residuals(b: TransformBundle, s) -> tuple[float, float]:
    """The zero-set and two-sheet residuals at the sphere points s."""
    th1, th2 = uniformization.theta_of_s(b, s)
    return kernel_zero_residual(b.params, th1, th2), two_sheet_residual(b, s, th1, th2)


def reflection_residual(b: TransformBundle, radii) -> float:
    """Each boundary reflection identity of W on its own ray: W(s) =
    W(1/s) on the negative axis and W(s) = W(e^{2i beta}/s) on the ray
    through -e^{i beta} (principal logs wrap off the rays)."""
    neg = -radii
    ray = -cmath.exp(1j * b.scalars.beta) * radii
    w_neg = uniformization.W_of_s(b, neg)
    w_inv = uniformization.W_of_s(b, uniformization.group_elements(b, neg)[0])
    w_ray = uniformization.W_of_s(b, ray)
    w_eta = uniformization.W_of_s(b, uniformization.group_elements(b, ray)[1])
    return max(_rel_gap(w_inv, w_neg), _rel_gap(w_eta, w_ray))


def lift_residual(b: TransformBundle, cone) -> float:
    """W agrees with w(theta2(s)) on the cone lifting the interior domain."""
    w_cone = uniformization.W_of_s(b, cone)
    w_down = transform.w_eval(b, _theta2(b, cone))
    return _rel_gap(w_down, w_cone)


def _circle_mean(f, centre, radius):
    """Trapezoid mean of f on the 64 `_MEAN_NODES` of |theta - centre| = radius:
    f(centre) for f analytic on the closed disk, up to a geometrically small term."""
    return np.mean(f(centre + radius * _MEAN_NODES))


def boundary_mass_residual(b: TransformBundle) -> float:
    """Mean of phi1 and of phi2 over |theta| = rate / 2 against -mu1 and
    -mu2, rate being each side's decay rate
    (`asymptotics._dominant_singularity`), which exists in every regime
    and at every order.

    Each is the Laplace transform of a positive measure, so it is
    analytic for Re theta < rate, and its trapezoid mean over the 64
    nodes equals its value at 0 up to a term of order 2^-64 (the
    mean-value property); no node lies on the real axis.
    """
    worst = 0.0
    for side in (b, b.swapped):
        rate = asymptotics._dominant_singularity(side.params)[2]
        mean = _circle_mean(lambda t: transform.phi1_eval(side, t), 0.0, 0.5 * rate)
        worst = max(worst, abs(mean + side.params.m1) / abs(side.params.m1))
    return float(worst)


def pole_residue_residual(b: TransformBundle) -> float:
    """In the pole regime, the tail constant of `classify_regime`
    against the limit of (p - theta) phi1(theta) at the pole p: its mean
    on a circle about p.  The radius starts at 0.01 min(theta2_plus - p,
    p) and shrinks by 4 until the argument principle finds p alone, a
    simple zero of w - w(0), inside twice the radius; the margin keeps a
    pole just outside the circle from slowing the mean's convergence.

    Not part of `run_checks`: the residual reads the evaluator's own error
    near the pole, 2.4e-10 on the rho = 0.999, mu (-0.05, -3) nu2 side
    (ROADMAP item 2), and would fail `model_sweep` operations.
    """
    rep = asymptotics.classify_regime(b)
    if rep.regime != asymptotics.REGIME_POLE:
        raise WrongRegimeError("the tail has no pole in this regime")
    pole = rep.pole_location

    def enclosed(t):
        # its circle mean counts the zeros of w - w(0) inside the circle
        return (t - pole) * transform._w_deriv(b, t) / (transform._w(b, t) - b.w1_at_0)

    radius = 0.01 * min(b.scalars.theta2_plus - pole, pole)
    while round(_circle_mean(enclosed, pole, 2.0 * radius).real) != 1:
        radius /= 4.0
        if radius < 1e-8 * pole:
            raise ComputationRefused("no circle about the pole encloses it alone")
    mean = _circle_mean(lambda t: (pole - t) * transform.phi1_eval(b, t), pole, radius)
    return float(abs(mean - rep.constant) / abs(rep.constant))


def injectivity_collisions(b: TransformBundle, za, zb) -> int:
    """Pairs of distinct domain points that share a w-value."""
    distinct = np.abs(za - zb) > 1e-8
    wa = transform.w_eval(b, za)
    wb = transform.w_eval(b, zb)
    return int(np.sum((np.abs(wa - wb) == 0.0) & distinct))


def diagonal_product_residual(b: TransformBundle, theta1, theta2) -> float:
    """phi against the product of the one-dimensional transforms
    (diagonal covariance only)."""
    p = b.params
    forms = diagonal_closed_forms(p)
    lhs = transform.phi_eval(b, theta1, theta2)
    rhs = forms.one_dim_phi(theta1, p.m1, p.s11) * forms.one_dim_phi(theta2, p.m2, p.s22)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def run_checks(p: ModelParams, seed: int = 0) -> list[CheckResult]:
    """Run the full invariant suite for one model; seed (a non-negative
    integer) fixes the random sample points."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    sc = p.scalars
    pts = rng.uniform(-4, 4, 10_000) + 1j * rng.uniform(-4, 4, 10_000)
    left = sc.theta1_minus - _LEFT_OFFSETS
    plus, minus = kernel.theta2_branches(p, left)
    roots = _block_max(lambda x: branch_root_residual(p, x), pts)
    out = [
        _result("kernel_branch_roots", roots, 1e-10),
        _result("branch_conjugacy_on_curve", conjugacy_residual(p, plus, minus), 1e-10),
        _result("vieta", vieta_residual(p, left, plus, minus), 1e-10),
    ]
    b = transform.make_bundle(p)
    curve = curve_points(p)
    out.append(_result("gluing_symmetry", gluing_residual(b, curve), 1e-10))
    out.append(_result("boundary_condition", boundary_condition_residual(b, curve), 1e-9))
    # on the real locus and at sphere-sampled zeros in the native domain
    real_zeros = real_kernel_zeros(p, sc.theta1_minus - _REAL_ZERO_OFFSETS)
    cross = cross_transform_residual(b, *real_zeros)
    cross = max(cross, cross_transform_residual(b, *native_kernel_zeros(b, 200, rng)))
    out.append(_result("cross_transform_identity", cross, 1e-9))
    sphere = _sphere_points(rng, 10_000)
    zero_set, two_sheet = _block_max(lambda s: _sphere_residuals(b, s), sphere)
    out.append(_result("uniformization_zero_set", zero_set, 1e-10))
    out.append(_result("two_sheet_identities", two_sheet, 1e-10))
    lifted = reflection_residual(b, _REFLECTION_RADII)
    lifted = max(lifted, lift_residual(b, cone_points(b, 200, rng)))
    out.append(_result("lifted_gluing", lifted, 1e-9))
    out.append(_result("boundary_masses", boundary_mass_residual(b), 1e-10))
    za = _theta2(b, cone_points(b, 1000, rng, 1.5))
    zb = _theta2(b, cone_points(b, 1000, rng, 1.5))
    collisions = injectivity_collisions(b, za, zb)
    out.append(
        CheckResult(
            "gluing_injectivity",
            collisions == 0,
            float(collisions),
            0.5,
            "no w-collisions over 1000 random domain pairs",
        )
    )
    # total mass of the bivariate transform at the origin
    phi00 = transform.phi_eval(b, 0.0, 0.0)
    out.append(_result("total_mass", abs(phi00 - 1.0), 1e-12))
    if p.s12 == 0.0:
        grid = -np.linspace(0.1, 3.0, 10)
        t1, t2 = np.meshgrid(grid, grid, indexing="ij")
        out.append(_result("diagonal_product_form", diagonal_product_residual(b, t1, t2), 1e-12))
    return out
