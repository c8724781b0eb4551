"""Constitutive laws for the 1-D wall-bounded flow and everything derived
from them.

A :class:`FluidModel` carries the barotropic pressure law ``P(rho)`` and the
density-dependent dynamic viscosity ``mu(rho)`` together with the total mass
``m`` and the domain length ``L``.  From those it evaluates the derived
functions the particle scheme needs:

* ``viscous_potential``  -- cumulative mu(tau)/tau from the reference density,
* ``compression_energy`` -- potential-energy density of compression, zero at
  the reference density and positive elsewhere,
* ``spacing_potential``  -- per-particle potential as a function of the scaled
  cell width, with slope -P(m/s)/m,
* ``damping_potential`` / ``damping_gain`` -- the viscous-coupling
  antiderivative and its positive derivative mu(m/s)/(m*s),
* ``energy_envelope``    -- the increasing function that converts an energy
  budget into guaranteed density (and hence spacing) bounds.

Presets evaluate closed forms; a quadrature route (``*_quad``) is kept as an
independent cross-check and is the only route for custom laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ModelError, QuadratureError


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported at the first call: closed-form
    presets never integrate numerically, so a run that uses only them never
    loads scipy."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


# (required, optional) parameters of each model kind, as make_preset reads them
PRESET_PARAMS = {
    "isentropic_gas": ({"c", "gamma"}, {"mu"}),
    "ideal_gas_entropy": ({"c", "gamma", "visc_amp"}, set()),
    "saint_venant": ({"g", "nu"}, set()),
    "custom": ({"pressure", "viscosity"}, set()),
}
PRESET_KINDS = tuple(PRESET_PARAMS)

QUAD_REL_TOL = 1e-10     # default relative tolerance of every quadrature
QUAD_ABS_TOL = 1e-14
# the probe grid is rho* * 10^k for |k| <= PROBE_DECADES: it estimates the
# envelope limits, brackets envelope inversions and checks the laws
PROBE_DECADES = 6
ENVELOPE_INVERSE_REL_TOL = 1e-10   # relative width of an inversion's last bracket


@dataclass(frozen=True)
class GrowthReport:
    """Numeric verdict on the pressure-integral growth condition.

    ``holds`` requires the cumulative integral of P(s)/s^2 to grow without
    plateau towards high density and to stay bounded below towards vacuum.
    """

    holds: bool
    grows_high: bool
    bounded_low: bool


class FluidModel:
    """Barotropic fluid between walls: pressure/viscosity laws plus the
    functions derived from them.

    Use the classmethod constructors (:meth:`saint_venant`,
    :meth:`isentropic_gas`, :meth:`ideal_gas_entropy`, :meth:`custom`) or
    :func:`make_preset`; the bare ``__init__`` is shared plumbing.  Every
    law maps a float array elementwise (and so a single float too); the
    construction evaluates each on the probe grid and rejects any that
    raises there or returns another shape, and requires ``pressure`` to be
    positive and strictly increasing and ``viscosity`` positive on it.
    ``quad_rel_tol`` is the relative tolerance of every quadrature.
    """

    def __init__(self, kind, pressure, viscosity, m, length,
                 params=None, closed=None, quad_rel_tol=QUAD_REL_TOL):
        if not (m > 0.0 and math.isfinite(m)):
            raise ModelError(f"total mass must be positive and finite, got {m}")
        if not (length > 0.0 and math.isfinite(length)):
            raise ModelError(f"domain length must be positive and finite, got {length}")
        if kind not in PRESET_KINDS:
            raise ModelError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.m = float(m)
        self.length = float(length)
        self.rho_star = self.m / self.length
        self.params = dict(params or {})
        self.quad_rel_tol = quad_rel_tol
        self._closed = dict(closed or {})
        # envelope limits (key ()) and inversions (key target), each
        # computed once per model
        self._envelope_memo = {}

        self.pressure = pressure
        self.viscosity = viscosity

        self._check_laws()

    # -- construction -----------------------------------------------------

    def _check_laws(self):
        grid = self.probe_grid()
        p = _on_probe_grid(self.pressure, "pressure", grid)
        mu = _on_probe_grid(self.viscosity, "viscosity", grid)
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
            raise ModelError("pressure law must be positive and finite on the probe grid")
        if not np.all(np.diff(p) > 0.0):
            raise ModelError("pressure law must be strictly increasing (P' > 0) on the probe grid")
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
            raise ModelError("viscosity law must be positive and finite on the probe grid")

    @classmethod
    def saint_venant(cls, g, nu, m, length, quad_rel_tol=QUAD_REL_TOL):
        """Shallow-water closure: P(rho) = g*rho^2/2, mu(rho) = nu*rho."""
        _require_positive(g=g, nu=nu, m=m, L=length)
        rho_star = m / length
        half_g = 0.5 * g
        sqrt_half_g = math.sqrt(half_g)

        def part_energy(rho):
            # integral of s^(-1/2) * |s - rho*| from rho* to rho, signed
            rho = np.asarray(rho, dtype=float)
            sq = np.sqrt(rho)
            upper = (2.0 / 3.0) * (rho * sq - rho_star * math.sqrt(rho_star)) \
                - 2.0 * rho_star * (sq - math.sqrt(rho_star))
            return nu * sqrt_half_g * np.where(rho >= rho_star, upper, -upper)

        closed = {
            "viscous_potential": lambda rho: nu * (np.asarray(rho, float) - rho_star),
            "compression_energy": lambda rho: half_g * (np.asarray(rho, float) - rho_star) ** 2,
            "spacing_potential": lambda s: half_g * (m / np.asarray(s, float) - rho_star),
            "part_energy": part_energy,
            "part_visc": lambda rho: 2.0 * nu * (np.sqrt(np.asarray(rho, float)) - math.sqrt(rho_star)),
        }
        return cls(
            "saint_venant",
            pressure=lambda rho: half_g * np.asarray(rho, float) ** 2,
            viscosity=lambda rho: nu * np.asarray(rho, float),
            m=m, length=length, params={"g": g, "nu": nu},
            closed=closed, quad_rel_tol=quad_rel_tol,
        )

    @classmethod
    def isentropic_gas(cls, c, gamma, m, length, mu=1.0, quad_rel_tol=QUAD_REL_TOL):
        """Power-law pressure P(rho) = c*rho^gamma (gamma > 1) with constant
        dynamic viscosity ``mu``."""
        _require_positive(c=c, m=m, L=length, mu=mu)
        if not gamma > 1.0:
            raise ModelError(f"isentropic exponent must satisfy gamma > 1, got {gamma}")
        closed = _power_pressure_closed(c, gamma, m, length)
        rho_star = m / length
        closed["viscous_potential"] = lambda rho: mu * np.log(np.asarray(rho, float) / rho_star)
        closed["part_visc"] = lambda rho: 2.0 * mu * (
            1.0 / math.sqrt(rho_star) - 1.0 / np.sqrt(np.asarray(rho, float)))
        return cls(
            "isentropic_gas",
            pressure=lambda rho: c * np.asarray(rho, float) ** gamma,
            viscosity=lambda rho: mu + 0.0 * np.asarray(rho, float),
            m=m, length=length, params={"c": c, "gamma": gamma, "mu": mu},
            closed=closed, quad_rel_tol=quad_rel_tol,
        )

    @classmethod
    def ideal_gas_entropy(cls, c, gamma, visc_amp, m, length,
                          quad_rel_tol=QUAD_REL_TOL):
        """Constant-entropy ideal gas: P = c*rho^gamma with gamma in (1, 2)
        and mu(rho) = visc_amp * rho^((gamma-1)/2)."""
        _require_positive(c=c, A=visc_amp, m=m, L=length)
        if not (1.0 < gamma < 2.0):
            raise ModelError(f"entropy-consistent exponent requires gamma in (1, 2), got {gamma}")
        a = visc_amp
        eta = 0.5 * (gamma - 1.0)
        closed = _power_pressure_closed(c, gamma, m, length)
        rho_star = m / length
        closed["viscous_potential"] = lambda rho: (2.0 * a / (gamma - 1.0)) * (
            np.asarray(rho, float) ** eta - rho_star ** eta)
        # exponent eta - 1/2 = (gamma - 2)/2 < 0, so this stays finite at infinity
        closed["part_visc"] = lambda rho: (2.0 * a / (gamma - 2.0)) * (
            np.asarray(rho, float) ** (eta - 0.5) - rho_star ** (eta - 0.5))
        return cls(
            "ideal_gas_entropy",
            pressure=lambda rho: c * np.asarray(rho, float) ** gamma,
            viscosity=lambda rho: a * np.asarray(rho, float) ** eta,
            m=m, length=length, params={"c": c, "gamma": gamma, "visc_amp": a},
            closed=closed, quad_rel_tol=quad_rel_tol,
        )

    @classmethod
    def custom(cls, pressure, viscosity, m, length, quad_rel_tol=QUAD_REL_TOL):
        """User-supplied laws; derived functions go through adaptive
        quadrature."""
        return cls("custom", pressure, viscosity, m=m, length=length,
                   quad_rel_tol=quad_rel_tol)

    # -- quadrature plumbing ----------------------------------------------

    def probe_grid(self):
        k = np.arange(-PROBE_DECADES, PROBE_DECADES + 1)
        return self.rho_star * 10.0 ** k

    def _quad(self, f, lo, hi):
        """Adaptive quadrature of ``f`` from ``lo`` to ``hi`` (either order).

        Integrates in a log-transformed variable when the limits span many
        orders of magnitude, which stabilises the integrable end-point
        behaviour towards vacuum.
        """
        lo = float(lo)
        hi = float(hi)
        if lo == hi:
            return 0.0
        sign = 1.0
        if hi < lo:
            lo, hi = hi, lo
            sign = -1.0
        if lo <= 0.0:
            raise ModelError("integration limits must be positive")
        if not math.isfinite(hi):
            raise QuadratureError(
                "integration limit overflowed: the pressure integral diverges "
                "towards vacuum widths")
        if hi / lo > 1.0e3:
            g = lambda u: f(math.exp(u)) * math.exp(u)
            a, b = math.log(lo), math.log(hi)
        else:
            g, a, b = f, lo, hi
        out = quad(g, a, b, epsabs=QUAD_ABS_TOL, epsrel=self.quad_rel_tol,
                   limit=200, full_output=1)
        value, err = out[0], out[1]
        # scipy warns whenever it cannot certify its own tolerance, which
        # includes near-empty intervals integrated to full precision; only
        # an achieved error above the requested tolerance is a failure
        tol = max(QUAD_ABS_TOL, self.quad_rel_tol * abs(value))
        if not math.isfinite(value) or (len(out) > 3 and not err <= tol):
            raise QuadratureError(
                f"quadrature did not converge on [{lo:g}, {hi:g}]"
                f" (achieved error {err:.3g})", achieved_error=err)
        return sign * value

    def _eval(self, name, quad_fn, arg):
        """Evaluate a derived function: closed form when available, else
        elementwise quadrature.  Overflow to inf is left to the callers'
        finiteness guards."""
        closed = self._closed.get(name)
        if closed is not None:
            with np.errstate(over="ignore", divide="ignore"):
                out = closed(arg)
            return out if np.ndim(arg) else float(out)
        if np.ndim(arg):
            flat = np.asarray(arg, dtype=float).reshape(-1)
            out = np.array([quad_fn(float(v)) for v in flat])
            return out.reshape(np.shape(arg))
        return quad_fn(float(arg))

    # -- derived scalar functions ------------------------------------------

    def viscous_potential(self, rho):
        """Cumulative mu(tau)/tau from the reference density; strictly
        increasing, zero at rho*."""
        _require_positive_density(rho)
        return self._eval("viscous_potential", self.viscous_potential_quad, rho)

    def viscous_potential_quad(self, rho):
        return self._quad(lambda t: float(self.viscosity(t)) / t, self.rho_star, rho)

    def compression_energy(self, rho):
        """Potential-energy density of compression; nonnegative, zero only
        at the reference density."""
        _require_positive_density(rho)
        return self._eval("compression_energy", self.compression_energy_quad, rho)

    def compression_energy_quad(self, rho):
        rho = float(rho)
        integral = self._quad(lambda t: float(self.pressure(t)) / t ** 2, self.rho_star, rho)
        p_star = float(self.pressure(self.rho_star))
        return rho * integral - (p_star / self.rho_star) * rho + p_star

    def spacing_potential(self, s):
        """Per-particle potential of a scaled cell width; zero at s = L and
        strictly decreasing.

        Near vanishing widths the growth condition makes the value diverge;
        an overflowing evaluation is reported rather than returned.
        """
        _require_positive_density(s, what="cell width")
        out = self._eval("spacing_potential", self.spacing_potential_quad, s)
        if not np.all(np.isfinite(out)):
            raise QuadratureError(
                "spacing potential overflowed: the pressure integral diverges "
                "towards vacuum widths")
        return out

    def spacing_potential_quad(self, s):
        return self._quad(lambda t: float(self.pressure(t)) / t ** 2,
                          self.rho_star, self.m / float(s))

    def damping_potential(self, s):
        """Antiderivative of the viscous coupling gain, -k(m/s)/m; strictly
        increasing and zero at s = L."""
        _require_positive_density(s, what="cell width")
        if np.ndim(s):
            return -np.asarray(self.viscous_potential(self.m / np.asarray(s, float))) / self.m
        return -self.viscous_potential(self.m / float(s)) / self.m

    def damping_gain(self, s):
        """Viscous coupling gain mu(m/s)/(m*s) > 0."""
        _require_positive_density(s, what="cell width")
        out = self.force_and_gain(np.asarray(s, dtype=float))[1]
        return out if np.ndim(s) else float(out)

    def force_and_gain(self, s):
        """Pressure force -P(m/s)/m, the slope of :meth:`spacing_potential`,
        and viscous coupling gain mu(m/s)/(m*s) of a float array of scaled
        cell widths, from one density m/s.

        Performs no validation: every width must already be known positive
        and finite.  :meth:`damping_gain` is the checked entry point of the
        gain; the equations of motion check the widths they pass here.
        """
        rho = self.m / s
        return -self.pressure(rho) / self.m, self.viscosity(rho) / (self.m * s)

    # -- admissibility envelope ---------------------------------------------

    def envelope_parts(self, rho):
        """The three increasing ingredients of the energy envelope:
        (weighted-energy integral, weighted-viscosity integral,
        viscous potential)."""
        _require_positive_density(rho)
        f1 = self._eval("part_energy", self._part_energy_quad, rho)
        f2 = self._eval("part_visc", self._part_visc_quad, rho)
        kk = self.viscous_potential(rho)
        return f1, f2, kk

    def envelope_parts_quad(self, rho):
        return (self._part_energy_quad(rho), self._part_visc_quad(rho),
                self.viscous_potential_quad(rho))

    def _part_energy_quad(self, rho):
        def f(t):
            q = self.compression_energy(t)
            return t ** -1.5 * float(self.viscosity(t)) * math.sqrt(max(float(q), 0.0))
        return self._quad(f, self.rho_star, rho)

    def _part_visc_quad(self, rho):
        return self._quad(lambda t: t ** -1.5 * float(self.viscosity(t)), self.rho_star, rho)

    def energy_envelope(self, rho):
        """Increasing function mapping density to the minimal energy budget
        sqrt(W) + sqrt(E) able to reach it; zero at the reference density."""
        f1, f2, kk = self.envelope_parts(rho)
        f1 = np.asarray(f1, dtype=float)
        f2 = np.asarray(f2, dtype=float)
        kk = np.asarray(kk, dtype=float)
        two_sqrt2 = 2.0 * math.sqrt(2.0)
        f2n = f2 / (2.0 * math.sqrt(2.0 * self.length))
        kkn = kk / math.sqrt(2.0 * self.m)
        hi = np.maximum(np.maximum(np.sqrt(np.maximum(f1, 0.0) / two_sqrt2), f2n), kkn)
        lo = np.minimum(np.minimum(-np.sqrt(np.maximum(-f1, 0.0) / two_sqrt2), f2n), kkn)
        out = np.where(np.asarray(rho, dtype=float) >= self.rho_star, hi, lo)
        return out if np.ndim(rho) else float(out)

    def energy_envelope_limits(self):
        """Estimate the envelope's limits at infinite and vanishing density.

        Returns positive thresholds ``(limit_high, limit_low)`` where
        ``limit_low`` is the magnitude of the vacuum-side limit.  A side is
        reported infinite when the outermost probe exceeds 1.5x the previous
        decade's value, or when the decade increments stop shrinking (which
        catches logarithmic divergence, e.g. viscosity growing like
        sqrt(density)).
        """
        memo = self._envelope_memo
        if () in memo:
            return memo[()]
        grid = self.probe_grid()
        f_hi = [self.energy_envelope(grid[i]) for i in (-3, -2, -1)]
        f_lo = [self.energy_envelope(grid[i]) for i in (2, 1, 0)]
        hi_unbounded = (abs(f_hi[2]) > 1.5 * abs(f_hi[1])
                        or f_hi[2] - f_hi[1] >= 0.9 * (f_hi[1] - f_hi[0]))
        lo_unbounded = (abs(f_lo[2]) > 1.5 * abs(f_lo[1])
                        or f_lo[1] - f_lo[2] >= 0.9 * (f_lo[0] - f_lo[1]))
        limit_high = math.inf if hi_unbounded else abs(f_hi[2])
        limit_low = math.inf if lo_unbounded else abs(f_lo[2])
        memo[()] = limit_high, limit_low
        return limit_high, limit_low

    def energy_envelope_inverse(self, target):
        """Invert the energy envelope by bisection in log-density, to a
        relative density bracket of ``ENVELOPE_INVERSE_REL_TOL``.

        The default bracket spans rho* * 10^(+-6) and is widened (up to
        10^(+-12)) when the target lies beyond it; an inadmissible target
        raises ``AdmissibilityError`` naming the failing side.
        """
        target = float(target)
        if target == 0.0:
            return self.rho_star
        if target in self._envelope_memo:
            return self._envelope_memo[target]
        lo = self.rho_star * 10.0 ** -PROBE_DECADES
        hi = self.rho_star * 10.0 ** PROBE_DECADES
        if target > 0.0:
            while self.energy_envelope(hi) < target:
                hi *= 10.0
                if hi > self.rho_star * 1.0e12:
                    raise AdmissibilityError(
                        f"energy budget {target:g} exceeds the envelope's reach"
                        " towards high density", side="high")
            lo = self.rho_star
        else:
            while self.energy_envelope(lo) > target:
                lo /= 10.0
                if lo < self.rho_star * 1.0e-12:
                    raise AdmissibilityError(
                        f"energy budget {-target:g} exceeds the envelope's reach"
                        " towards vacuum", side="low")
            hi = self.rho_star
        a, b = math.log(lo), math.log(hi)
        while b - a > math.log1p(ENVELOPE_INVERSE_REL_TOL):
            mid = 0.5 * (a + b)
            if self.energy_envelope(math.exp(mid)) < target:
                a = mid
            else:
                b = mid
        rho = self._envelope_memo[target] = math.exp(0.5 * (a + b))
        return rho

    # -- growth condition ----------------------------------------------------

    def pressure_growth_report(self):
        """Probe the cumulative P(s)/s^2 integral for divergence at high
        density and boundedness towards vacuum.

        Uses decade-increment ratios so that logarithmic divergence towards
        vacuum is detected; a genuinely log-divergent high side paired with a
        bounded low side would be conservatively rejected.
        """
        grid = self.probe_grid()
        values = np.array([self.spacing_potential(self.m / r) for r in grid])
        d_hi, d_hi_prev = values[-1] - values[-2], values[-2] - values[-3]
        d_lo, d_lo_prev = values[1] - values[0], values[2] - values[1]
        grows_high = d_hi >= 0.9 * d_hi_prev and d_hi > 0.0
        bounded_low = d_lo < 0.9 * d_lo_prev
        return GrowthReport(holds=bool(grows_high and bounded_low),
                            grows_high=bool(grows_high), bounded_low=bool(bounded_low))

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"FluidModel({self.kind}, {ps}, m={self.m:g}, L={self.length:g})"


def make_preset(kind, params, m, length, quad_rel_tol=QUAD_REL_TOL):
    """Build a model from a plain parameter record (CLI entry point): the
    constructor named ``kind`` called with ``params`` (the keys of
    ``PRESET_PARAMS[kind]``).

    Custom models are specified through power laws ``pressure`` and
    ``viscosity``, each ``{"coeff": c, "exponent": e}``.
    """
    if kind not in PRESET_KINDS:
        raise ModelError(f"unknown model kind {kind!r}")
    if kind == "custom":
        params = {side: _power_law(side, **params[side]) for side in ("pressure", "viscosity")}
    return getattr(FluidModel, kind)(**params, m=m, length=length, quad_rel_tol=quad_rel_tol)


# -- helpers -----------------------------------------------------------------

def _power_pressure_closed(c, gamma, m, length):
    """Closed forms shared by the two power-law pressure presets."""
    rho_star = m / length

    def compression_energy(rho):
        rho = np.asarray(rho, dtype=float)
        return (c / (gamma - 1.0)) * (
            rho ** gamma - gamma * rho_star ** (gamma - 1.0) * rho
            + (gamma - 1.0) * rho_star ** gamma)

    def spacing_potential(s):
        r = m / np.asarray(s, dtype=float)
        return (c / (gamma - 1.0)) * (r ** (gamma - 1.0) - rho_star ** (gamma - 1.0))

    return {"compression_energy": compression_energy,
            "spacing_potential": spacing_potential}


def _power_law(side, coeff, exponent):
    """The law ``coeff * rho**exponent`` of a custom model's ``side``."""
    coeff, exponent = float(coeff), float(exponent)
    _require_positive(**{f"{side}_coeff": coeff})
    return lambda rho: coeff * np.asarray(rho, float) ** exponent


def _on_probe_grid(law, name, grid):
    """``law`` evaluated on the probe grid, which it must map elementwise."""
    try:
        out = np.asarray(law(grid), dtype=float)
    except Exception as exc:
        raise ModelError(f"{name} law must map a float array elementwise; on the "
                         f"probe grid it raised {type(exc).__name__}: {exc}") from exc
    if out.shape != grid.shape:
        raise ModelError(f"{name} law must map a float array elementwise; on the "
                         f"probe grid of shape {grid.shape} it returned shape {out.shape}")
    return out


def _require_positive(**named):
    for name, value in named.items():
        if not (value > 0.0 and math.isfinite(value)):
            raise ModelError(f"parameter {name} must be positive and finite, got {value}")


def _require_positive_density(rho, what="density"):
    arr = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ModelError(f"{what} must be positive and finite")
