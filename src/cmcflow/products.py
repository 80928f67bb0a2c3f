"""Warped-product scale-factor dynamics for doubled Einstein factors.

The spacetime ansatz is -dt^2 + a(t)^2 gM(s) + b(t)^2 gN(s) on a product of
two m-dimensional Einstein manifolds, both with Einstein constant +/-(n-1)
where n = 2m, and with the coupling s > 1/2 entering through the rescaled
factor metrics gM(s) = s*gM, gN(s) = s/(2s-1)*gN.  In log scale factors
x = log a, y = log b the vacuum equations with cosmological constant
n(n-1)/2 reduce to

    x'' = n -+ kx * e^(-2x) - (n/2)(x'^2 + x'y')
    y'' = n -+ ky * e^(-2y) - (n/2)(y'^2 + x'y')

with kx = (n-1)/s and ky = 2(n-1) - kx, the upper sign for positive
curvature (initial data x = y = x' = y' = 0) and the lower for negative
curvature (x = y = 0, x' = y' = sqrt 2).  Both families conserve the first
integral x'' + y'' + x'^2 + y'^2 = 2.

Geometric observables (mean curvature, tracefree second fundamental form,
spatial scalar curvature) are polynomial in the state:

    tau       = -m (x' + y')
    |Sigma|^2 = (m/2) (x' - y')^2
    R         = +/- m (kx e^(-2x) + ky e^(-2y))

These expressions follow from the warped-product second fundamental form;
they are not taken on trust but certified by the Hamiltonian constraint
R - |Sigma|^2 + tau^2 (n-1)/n = n(n-1), whose residual is reported with
every sample and must vanish along constrained trajectories.  The pointwise
identity  first_integral_residual == -(2/n) * ham_residual, with the
accelerations of :func:`derivatives`, ties the observable formulas to the
evolution equations for arbitrary states, not just solutions.

All functions here are pure and operate on immutable inputs; they are safe
to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .background import BackgroundModel, CurvatureSign, gauge_gap

# e^(-2y) overflows double precision long before y reaches this; beyond the
# floor the state is numerically past recollapse and integration must stop.
OVERFLOW_FLOOR = -300.0

# Doubles hold every integer up to 2**53 but not all past it.  There n - 1
# can round to n, and the curvature coefficients lose the term that balances
# n in the equations.
MAX_N = 2**53


def require_exact_n(n: int) -> None:
    """Raise ValueError unless n - 1 is exact in a double (n <= 2**53)."""
    if n > MAX_N:
        raise ValueError(f"n must be at most 2**53 = {MAX_N}, past which "
                         f"doubles skip integers")


class BlowUpOverflow(ArithmeticError):
    """Scale factor too small to exponentiate; treat as recollapse evidence."""

    def __init__(self, t: float):
        super().__init__(f"log scale factor below {OVERFLOW_FLOOR} at t={t}")


@dataclass(frozen=True)
class FlowConfig:
    """One product-flow problem instance.

    ``m`` is the dimension of each factor (n = 2m), ``s`` the coupling of
    the factor metrics, and ``vol_m``/``vol_n`` the volumes of the unscaled
    unit-Einstein factor metrics (they only enter volume-weighted
    observables).
    """

    m: int
    sign: CurvatureSign
    s: float
    vol_m: float = 1.0
    vol_n: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"factor dimension must be >= 1, got m={self.m}")
        BackgroundModel(self.n, self.sign)  # raises ValueError for n past a double
        require_exact_n(self.n)
        if not self.s > 0.5:
            raise ValueError(f"coupling must satisfy s > 1/2, got s={self.s}")
        if not (self.vol_m > 0.0 and self.vol_n > 0.0):
            raise ValueError("base volumes must be positive")

    # n, kx and ky are computed at their first read and kept in the instance
    # dict; fields are frozen, so they cannot go stale, and equality and
    # hashing read the fields alone.
    @cached_property
    def n(self) -> int:
        return 2 * self.m

    @cached_property
    def kx(self) -> float:
        """Curvature source coefficient of the x equation, (n-1)/s."""
        return (self.n - 1) / self.s

    @cached_property
    def ky(self) -> float:
        """Curvature source coefficient of the y equation, 2(n-1) - kx.

        Written as a difference so that at the boundary coupling
        s = (n-1)/(n-2) with s exactly representable (n = 4, 6) the
        coefficient evaluates to exactly n and y = 0 stays an invariant
        subspace in floating point.
        """
        return 2.0 * (self.n - 1) - self.kx


@dataclass(frozen=True)
class FlowState:
    """One trajectory point: proper time, log scale factors, velocities."""

    t: float
    x: float
    y: float
    xp: float
    yp: float

    # The steppers build one per sample.  A frozen dataclass's generated
    # __init__ sets each field with its own object.__setattr__ call, which
    # more than doubles the cost; this one stores the fields in the instance
    # dict, where those calls put them, by item assignment, which is cheaper
    # than a keyword update (that builds a dict first).  The fields stay
    # read-only, and equality, hashing, repr and replace() are the generated
    # ones.
    def __init__(self, t: float, x: float, y: float, xp: float, yp: float):
        fields = self.__dict__
        fields["t"] = t
        fields["x"] = x
        fields["y"] = y
        fields["xp"] = xp
        fields["yp"] = yp


@dataclass(frozen=True)
class Observables:
    """Gauge and constraint quantities derived from a state.

    ``h_red`` is the reduced Hamiltonian on whichever branch the state
    occupies: (tau^2/n - n)^(n/2) * vol for tau^2 > n^2, and
    (n - tau^2/n)^(n/2) * vol for tau^2 < n^2.  Exactly on the gauge
    boundary tau^2 = n^2 neither branch applies and the value is None.
    No field needs the accelerations; they, and so the first-integral
    residual, come from :func:`derivatives` alone.
    """

    tau: float
    sigma_sq: float
    scalar_curv: float
    ham_residual: float
    h_red: float | None


def initial_state(config: FlowConfig) -> FlowState:
    """Constraint-compatible initial data for the configured sign."""
    if config.sign is CurvatureSign.POSITIVE:
        return FlowState(t=0.0, x=0.0, y=0.0, xp=0.0, yp=0.0)
    v0 = math.sqrt(2.0)
    return FlowState(t=0.0, x=0.0, y=0.0, xp=v0, yp=v0)


def derivatives(config: FlowConfig):
    """Compiled right-hand side f(t, u) -> (x', y', x'', y'') for u = (x, y, x', y').

    Fast path of the DP5 stepper and of every other reader of the
    accelerations; raises :class:`BlowUpOverflow` once a log scale factor
    falls below the overflow floor, and nothing else: above it
    e^(-2x) <= e^600, and float arithmetic saturates without raising.  The
    steppers catch BlowUpOverflow alone; keep this contract.
    ``integrate.integrate_oracle`` keeps its own copy of this arithmetic, in
    the same operand order and with the same floor, so that the RK4
    cross-check does not share it; the pinned bits of both steppers' runs
    (``tests/test_integrate.py``) tie the two copies together.  Change one
    only with the other.

    The curvature sign is folded into the coefficients once, so each call
    computes (-kx) * e where the equations read -(kx * e).  The two are
    the same double: negation is exact, and round-to-nearest is symmetric
    about 0, so rounding the negated product negates the rounded one.  That
    holds for e = 0 (both give -0.0, and n + -0.0 = n) and for inf and NaN.
    """
    n = float(config.n)
    half_n = 0.5 * n
    if config.sign is CurvatureSign.POSITIVE:
        kx, ky = -config.kx, -config.ky
    else:
        kx, ky = config.kx, config.ky
    exp = math.exp
    floor = OVERFLOW_FLOOR

    def f(t, u):
        x, y, xp, yp = u
        if x < floor or y < floor:
            raise BlowUpOverflow(t)
        cross = xp * yp
        xpp = n + kx * exp(-2.0 * x) - half_n * (xp * xp + cross)
        ypp = n + ky * exp(-2.0 * y) - half_n * (yp * yp + cross)
        return xp, yp, xpp, ypp

    return f


def first_integral_residual(xp: float, yp: float, xpp: float, ypp: float) -> float:
    """Defect of the conserved combination x'' + y'' + x'^2 + y'^2 - 2."""
    return xpp + ypp + xp * xp + yp * yp - 2.0


def _exp_or_inf(arg: float) -> float:
    # Volumes past the double range are reported as inf rather than
    # aborting observable output; every finite exp is returned as it is.
    try:
        return math.exp(arg)
    except OverflowError:
        return math.inf


def constraint_terms_along(
    config: FlowConfig, states
) -> list[tuple[float, float, float, float]]:
    """:func:`constraint_terms` of each state, in order, in one pass.

    The config is read once, however many states follow; this is the one
    home of the constraint arithmetic.  An exponential too large for a double
    saturates to inf, as in :func:`_exp_or_inf`.
    """
    # Each constant below is a subexpression that the formulas evaluate
    # first, left to right, so computing it once rounds nothing differently.
    m = config.m
    n = float(config.n)
    neg_m = -m
    half_m = 0.5 * m
    curv_m = (1.0 if config.sign is CurvatureSign.POSITIVE else -1.0) * m
    kx = config.kx
    ky = config.ky
    tau_sq_weight = (n - 1.0) / n
    n_n1 = n * (n - 1.0)
    exp = math.exp
    terms = []
    for state in states:
        try:
            ex = exp(-2.0 * state.x)
        except OverflowError:
            ex = math.inf
        try:
            ey = exp(-2.0 * state.y)
        except OverflowError:
            ey = math.inf
        xp = state.xp
        yp = state.yp
        tau = neg_m * (xp + yp)
        diff = xp - yp
        sigma_sq = half_m * diff * diff
        scalar_curv = curv_m * (kx * ex + ky * ey)
        ham_residual = scalar_curv - sigma_sq + tau * tau * tau_sq_weight - n_n1
        terms.append((tau, sigma_sq, scalar_curv, ham_residual))
    return terms


def constraint_terms(config: FlowConfig,
                     state: FlowState) -> tuple[float, float, float, float]:
    """tau, |Sigma|^2, R and the Hamiltonian-constraint residual at one state.

    The residual R - |Sigma|^2 + tau^2 (n-1)/n - n(n-1) certifies the other
    three jointly.  Never raises: an exponential too large for a double
    saturates to inf, and the residual comes back non-finite instead.
    """
    return constraint_terms_along(config, (state,))[0]


def observables(config: FlowConfig, state: FlowState) -> Observables:
    """:func:`constraint_terms` of one state, with its reduced Hamiltonian.

    Like :func:`constraint_terms` it never raises; ``h_red`` saturates to inf.
    """
    ((tau, sigma_sq, scalar_curv, ham_residual),) = constraint_terms_along(
        config, (state,))
    m = config.m
    n = float(config.n)
    gap = gauge_gap(n, tau)
    if gap != 0.0:
        try:
            volume = (
                _exp_or_inf(m * (state.x + state.y))
                * (config.s * config.s / (2.0 * config.s - 1.0)) ** (0.5 * m)
                * config.vol_m
                * config.vol_n
            )
            h_red = abs(gap) ** (0.5 * n) * volume
        except OverflowError:  # a power past the double range saturates
            h_red = math.inf
    else:
        h_red = None

    return Observables(
        tau=tau,
        sigma_sq=sigma_sq,
        scalar_curv=scalar_curv,
        ham_residual=ham_residual,
        h_red=h_red,
    )


def limit_volume_ratio(config: FlowConfig, x_minus_y_limit: float) -> float:
    """Late-time volume ratio of the two factors from the limit of x - y.

    vol(M, a^2 gM(s)) / vol(N, b^2 gN(s))
        = (a/b)^m * (2s-1)^(m/2) * vol_m / vol_n,

    so the gauge-free limit L = lim (x - y) maps to
    e^(mL) * (2s-1)^(m/2) * vol_m / vol_n.  A ratio past the double range
    saturates to inf.
    """
    if not math.isfinite(x_minus_y_limit):
        raise ValueError("x - y limit must be finite")
    m = config.m
    try:
        return (
            _exp_or_inf(m * x_minus_y_limit)
            * (2.0 * config.s - 1.0) ** (0.5 * m)
            * config.vol_m
            / config.vol_n
        )
    except OverflowError:
        # (2s-1)^(m/2) is past the double range; e^(mL) may still bring the
        # product back inside it, so the two are joined in the exponent.
        return (
            _exp_or_inf(
                m * x_minus_y_limit + 0.5 * m * math.log(2.0 * config.s - 1.0)
            )
            * config.vol_m
            / config.vol_n
        )
