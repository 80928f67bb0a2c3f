"""Closed-form homogeneous background solutions and gauge maps.

With the cosmological constant fixed to n(n-1)/2, the vacuum equations on a
product of a time axis with a compact Einstein n-manifold (Ric = +/-(n-1)
times the metric) are solved by a single warping factor:

    negative spatial curvature:  -dt^2 + sinh(t)^2 gamma   on (0, inf)
    positive spatial curvature:  -dt^2 + cosh(t)^2 gamma   on (-inf, inf)

Everything in this module is a pure double-precision function of (n, sign,
time); these closed forms are the analytic oracles against which the ODE
integration of the product systems is tested.  Gauge-boundary inputs raise
:class:`GaugeDomainError` instead of returning infinities, so callers must
handle gauge breakdown explicitly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

_DOUBLE_MAX = sys.float_info.max
# cosh(t) and sinh(t) overflow for |t| past log(2 * _DOUBLE_MAX), about 710.48.
_T_MAX = math.log(2.0) + math.log(_DOUBLE_MAX)


class CurvatureSign(Enum):
    """Sign of the Einstein constant of the spatial metric, Ric = +/-(n-1)g.

    The Ricci-flat case is excluded: its slices have constant mean curvature
    -n for every t, so no CMC time function exists for it.
    """

    NEGATIVE = "negative"
    POSITIVE = "positive"


class GaugeDomainError(ValueError):
    """Raised when a time or mean-curvature input leaves the gauge domain."""


@dataclass(frozen=True)
class BackgroundModel:
    """One closed-form background: spatial dimension and curvature sign."""

    n: int
    sign: CurvatureSign

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.n > _DOUBLE_MAX:
            raise ValueError(f"n must be at most {_DOUBLE_MAX!r}, the largest double")


@dataclass(frozen=True)
class GaugeQuantities:
    """Mean curvature, lapse and conformal factor at one CMC slice.

    ``scale_sq`` is the square of the warping factor relative to the fixed
    Einstein metric, i.e. the conformal factor of the evolving spatial
    metric.  For both signs lapse = 1/|gauge_gap| = a^2/n and scale_sq = a^2.
    """

    tau: float
    lapse: float
    scale_sq: float


def _require_in_domain(model: BackgroundModel, t: float) -> None:
    if model.sign is CurvatureSign.NEGATIVE and not t > 0.0:
        raise GaugeDomainError(
            f"negative-curvature model lives on t > 0, got t={t}"
        )
    if not abs(t) <= _T_MAX:
        raise GaugeDomainError(f"proper time must satisfy |t| <= {_T_MAX!r}, "
                               f"the double range of cosh(t); got t={t}")


def scale_factor(model: BackgroundModel, t: float) -> float:
    """Warping factor of the background metric at proper time t.

    Returns sinh(t) for the negative-curvature model and cosh(t) for the
    positive-curvature one.
    """
    _require_in_domain(model, t)
    if model.sign is CurvatureSign.NEGATIVE:
        return math.sinh(t)
    return math.cosh(t)


def mean_curvature(model: BackgroundModel, t: float) -> float:
    """Mean curvature tau(t) of the constant-t slice.

    Negative sign: -n/tanh(t), strictly increasing from -inf (t->0) to -n
    (t->inf); unlike n*cosh(t)/sinh(t) it stays finite up to the domain
    bound.  Positive sign: -n*tanh(t), strictly decreasing onto (-n, n).
    Expanding slices carry tau < 0 in this convention.
    """
    _require_in_domain(model, t)
    n = model.n
    if model.sign is CurvatureSign.NEGATIVE:
        return -n / math.tanh(t)
    return -n * math.tanh(t)


def gauge_gap(n: int, tau: float) -> float:
    """tau^2/n - n: positive in the standard gauge, negative in the reversed one.

    1/|gap| is the homogeneous lapse, a^2/n on the background.  Its sign
    picks the reduced Hamiltonian's branch; d/dt log h_red =
    tau |Sigma|^2 / gap on the constraint surface.  Factored to keep
    relative accuracy near the gauge boundary |tau| = n.
    """
    ratio = tau / n
    return n * (ratio - 1.0) * (ratio + 1.0)


def homogeneous_lapse(n: int, tau: float, sign: CurvatureSign) -> float:
    """Spatially constant lapse solving the homogeneous lapse equation.

    Standard gauge (negative curvature) requires tau^2 > n^2, the reversed
    gauge (positive curvature) tau^2 < n^2; either way N = 1/|gauge_gap|,
    a^2/n on the background.  The returned value satisfies

        0 = -1 + N*(tau^2/n - n)      (standard)
        0 =  1 + N*(tau^2/n - n)      (reversed)

    which is the lapse equation with vanishing tracefree part.
    """
    BackgroundModel(n, sign)  # raises ValueError unless 2 <= n <= _DOUBLE_MAX
    gap = gauge_gap(n, tau)
    if sign is CurvatureSign.NEGATIVE:
        if not gap > 0.0:
            raise GaugeDomainError(
                f"standard gauge needs tau^2 > n^2; tau={tau}, n={n}"
            )
        return 1.0 / gap
    if not gap < 0.0:
        raise GaugeDomainError(
            f"reversed gauge needs tau^2 < n^2; tau={tau}, n={n}"
        )
    return -1.0 / gap


def gauge_quantities(n: int, tau: float, sign: CurvatureSign) -> GaugeQuantities:
    """Bundle (tau, lapse, scale_sq) for an admissible mean curvature."""
    lapse = homogeneous_lapse(n, tau, sign)
    return GaugeQuantities(tau=tau, lapse=lapse, scale_sq=n * lapse)


def cmc_time_maps(n: int, sign: CurvatureSign, T: float) -> tuple[float, float]:
    """Mean curvature and rescaling factor as functions of background time.

    :func:`mean_curvature` and s = |tau^2/n^2 - 1| = 1/a^2, from a =
    :func:`scale_factor`, so s * a^2 = 1 to a few ulps.  T outside the
    model's domain raises GaugeDomainError.
    """
    model = BackgroundModel(n, sign)
    a = scale_factor(model, T)
    # Divided twice: at T below 1e-154, a * a underflows to 0, and s is inf.
    return mean_curvature(model, T), 1.0 / a / a


def rescaled_background_residual(
    n: int, sign: CurvatureSign, T: float
) -> tuple[float, float]:
    """Right-hand sides of the rescaled evolution system at the background.

    In scale-invariant variables the background is the fixed point
    g = gamma, Sigma = 0, N = 1/n, X = 0.  Since gamma is Einstein with
    Ric = +/-(n-1) gamma, every tensor in the homogeneous equations is a
    multiple of gamma and the system reduces to two scalars.  This evaluates
    both right-hand sides literally, term by term:

        dg/dT     = -2*r(T)*(1 - n*N)*g - (n/w(T)) * 2*N*Sigma
        dSigma/dT = -n^2*r(T)*(1/n^2 + N - 2N/n)*Sigma
                    + (n/w(T)) * ( N*(ric + c*g - 2*Sigma^2) + e*(1/n)*g )

    with (r, w, ric, c, e) = (coth, sinh, -(n-1), +n, -1) for negative
    curvature and (tanh, cosh, +(n-1), -n, +1) for the reversed gauge: r is
    -tau/n and w is a.  The sign pattern (c, e) follows from rescaling the
    physical tracefree evolution: the coefficient tau^2/n - n equals +n*s in
    the standard gauge but -n*s in the reversed one, flipping the metric
    term along with the inhomogeneity.  Both residuals vanish identically;
    any sign or factor error in the reduction shows up as a nonzero return.

    T outside the model's domain raises GaugeDomainError.
    """
    model = BackgroundModel(n, sign)
    rate = -mean_curvature(model, T) / n
    stretch = n / scale_factor(model, T)
    lapse = 1.0 / n
    g = 1.0
    sigma = 0.0
    e = -1.0 if sign is CurvatureSign.NEGATIVE else 1.0
    ric = e * (n - 1.0)
    metric_coeff = -e * n * g
    inhom = e * (1.0 / n) * g
    res_g = -2.0 * rate * (1.0 - n * lapse) * g - stretch * (2.0 * lapse * sigma)
    res_sigma = (
        -(n * n) * rate * (1.0 / (n * n) + lapse - 2.0 * lapse / n) * sigma
        + stretch * (lapse * (ric + metric_coeff - 2.0 * sigma * sigma) + inhom)
    )
    return res_g, res_sigma
