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

Every model kind is a power-law pair P = c*rho^gamma, mu = a*rho^beta, so
these functions are closed forms of the one integral
J(k, rho) = int_{rho*}^{rho} t^k dt.  Where no elementary form exists (the
energy-envelope part at gamma != 2, and :meth:`FluidModel.custom` with
arbitrary callables) a function is read off a self-checking Gauss-Legendre
table of its integrand (:func:`_gauss_table`), so those laws must be smooth.
"""

import math

import numpy as np

from .errors import AdmissibilityError, ModelError, QuadratureError


QUAD_REL_TOL = 1e-10      # certificate of every Gauss-table panel (relative)
QUAD_ABS_TOL = 1e-14
GAUSS_ORDER = 12          # Gauss-Legendre nodes per panel
PANEL_WIDTH = 0.05        # panel width in u = ln(rho/rho*)
# Gauss tables and envelope inversions reach rho* * 10^(+-REACH_DECADES)
REACH_DECADES = 12
# the probe grid is rho* * 10^k for |k| <= PROBE_DECADES: it estimates the
# envelope limits, brackets envelope inversions and checks the laws
PROBE_DECADES = 6
ENVELOPE_INVERSE_REL_TOL = 1e-10   # relative width of an inversion's last bracket
# bisection levels an inversion decides per energy_envelope call: the
# 2^6 - 1 midpoints of the next six levels go in one array
ENVELOPE_BATCH_LEVELS = 6

# Gauss-Legendre rules on [-1, 1] as (nodes, weights) by order: 3 for the
# weak residuals, 5 for the continuous energies, GAUSS_ORDER for the
# tables.  The literals are the reprs of np.polynomial.legendre.leggauss,
# so every bit is leggauss's, without importing numpy.polynomial.
GAUSS_RULES = {order: (np.array(nodes), np.array(weights)) for order, nodes, weights in (
    (3, (-0.7745966692414834, 0.0, 0.7745966692414834),
     (0.5555555555555557, 0.8888888888888888, 0.5555555555555557)),
    (5, (-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831,
         0.906179845938664),
     (0.23692688505618928, 0.4786286704993663, 0.5688888888888887, 0.4786286704993663,
      0.23692688505618928)),
    (GAUSS_ORDER,
     (-0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
      -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
      0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192),
     (0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
      0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
      0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141)),
)}


class FluidModel:
    """Barotropic fluid between walls: pressure/viscosity laws plus the
    functions derived from them.

    Use the classmethod constructors (:meth:`saint_venant`,
    :meth:`isentropic_gas`, :meth:`ideal_gas_entropy`, :meth:`power_law`,
    :meth:`custom`); the bare ``__init__`` is shared plumbing.  Every
    law maps a float array elementwise (and so a single float too); the
    construction first requires the reach m/L * 10^(+-REACH_DECADES) around
    the reference density m/L to lie in the normal floats, then evaluates
    each law on the probe grid, rejects any that raises there or returns
    another shape, and requires ``pressure`` to be positive and strictly
    increasing on it and to meet the growth condition, which the
    admissibility analysis and the equations of motion both assume: the
    spacing potential's decade increments keep growing towards high density
    and shrink towards vacuum.  Last it requires ``viscosity`` to be
    positive on the probe grid.
    """

    def __init__(self, kind, pressure, viscosity, m, length, params=None, closed=None):
        if not (m > 0.0 and math.isfinite(m)):
            raise ModelError(f"total mass must be positive and finite, got {m}")
        if not (length > 0.0 and math.isfinite(length)):
            raise ModelError(f"domain length must be positive and finite, got {length}")
        if kind not in ("isentropic_gas", "ideal_gas_entropy", "saint_venant", "custom"):
            raise ModelError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.m = float(m)
        self.length = float(length)
        self.rho_star = self.m / self.length
        self.params = dict(params or {})
        # derived functions by name: closed forms, and Gauss tables once built
        self._functions = dict(closed or {})

        self.pressure = pressure
        self.viscosity = viscosity

        self._check_laws()

    # -- construction -----------------------------------------------------

    def _check_laws(self):
        with np.errstate(over="ignore", under="ignore"):
            reach = self.rho_star * 10.0 ** np.array([-REACH_DECADES, REACH_DECADES])
        if not (reach[0] >= np.finfo(float).tiny and reach[1] < math.inf):
            raise ModelError(
                f"reference density m/L = {self.rho_star:g} is out of range: the densities "
                f"m/L * 10^(+-{REACH_DECADES}) its laws are evaluated at leave the normal floats")
        grid = self.probe_grid()
        p = _on_probe_grid(self.pressure, "pressure", grid)
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
            raise ModelError("pressure law must be positive and finite on the probe grid")
        if not np.all(np.diff(p) > 0.0):
            raise ModelError("pressure law must be strictly increasing (P' > 0) on the probe grid")
        # the growth condition; towards vacuum the spacing potential falls
        # outward, so its outward triple there is negated
        values = self.spacing_potential(self.m / grid)
        grows_high = _keeps_growing(*values[-3:])
        bounded_low = not _keeps_growing(*-values[2::-1])
        if not (grows_high and bounded_low):
            sides = " and ".join(side for side, holds in (("towards high density", grows_high),
                                                          ("towards vacuum", bounded_low))
                                 if not holds)
            raise ModelError(f"pressure law fails the growth condition {sides}: int P(rho)/rho^2 "
                             "must diverge at high density and stay bounded towards vacuum")
        mu = _on_probe_grid(self.viscosity, "viscosity", grid)
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
            raise ModelError("viscosity law must be positive and finite on the probe grid")

    @classmethod
    def saint_venant(cls, g, nu, m, length):
        """Shallow-water closure: P(rho) = g*rho^2/2, mu(rho) = nu*rho."""
        _require_positive(g=g, nu=nu, m=m, L=length)
        return cls._power_law("saint_venant", 0.5 * g, 2.0, nu, 1.0, m, length,
                              {"g": g, "nu": nu})

    @classmethod
    def isentropic_gas(cls, c, gamma, m, length, mu=1.0):
        """Power-law pressure P(rho) = c*rho^gamma (gamma > 1) with constant
        dynamic viscosity ``mu``."""
        _require_positive(c=c, m=m, L=length, mu=mu)
        if not gamma > 1.0:
            raise ModelError(f"isentropic exponent must satisfy gamma > 1, got {gamma}")
        return cls._power_law("isentropic_gas", c, gamma, mu, 0.0, m, length,
                              {"c": c, "gamma": gamma, "mu": mu})

    @classmethod
    def ideal_gas_entropy(cls, c, gamma, visc_amp, m, length):
        """Constant-entropy ideal gas: P = c*rho^gamma with gamma in (1, 2)
        and mu(rho) = visc_amp * rho^((gamma-1)/2)."""
        _require_positive(c=c, A=visc_amp, m=m, L=length)
        if not (1.0 < gamma < 2.0):
            raise ModelError(f"entropy-consistent exponent requires gamma in (1, 2), got {gamma}")
        return cls._power_law("ideal_gas_entropy", c, gamma, visc_amp, 0.5 * (gamma - 1.0),
                              m, length, {"c": c, "gamma": gamma, "visc_amp": visc_amp})

    @classmethod
    def custom(cls, pressure, viscosity, m, length):
        """User-supplied callable laws; every derived function is read off a
        Gauss table of its integrand, so both laws must be smooth over the
        table's reach.  :meth:`power_law` builds a custom power law with
        closed forms instead."""
        return cls("custom", pressure, viscosity, m=m, length=length)

    @classmethod
    def power_law(cls, c, gamma, a, beta, m, length):
        """Custom power law P(rho) = c*rho^gamma, mu(rho) = a*rho^beta, with
        closed forms like those of the presets."""
        _require_positive(c=c, a=a, m=m, L=length)
        return cls._power_law("custom", c, gamma, a, beta, m, length, {})

    @classmethod
    def _power_law(cls, kind, c, gamma, a, beta, m, length, params):
        """The pair P = c*rho^gamma, mu = a*rho^beta with the closed form of
        every derived function; ``part_energy`` is closed only at gamma = 2,
        where sqrt(compression_energy) = sqrt(c)*|rho - rho*|."""
        rho_star = m / length

        def integral(p, rho):
            # J(p - 1, rho): the integral of t^(p-1) from rho* to rho
            u = np.log(np.asarray(rho, dtype=float) / rho_star)
            if p == 0.0:
                return u
            return rho_star ** p * np.expm1(p * u) / p

        def compression_energy(rho):
            rho = np.asarray(rho, dtype=float)
            return rho * c * (integral(gamma - 1.0, rho) - rho_star ** gamma * integral(-1.0, rho))

        closed = {
            "viscous_potential": lambda rho: a * integral(beta, rho),
            "compression_energy": compression_energy,
            "spacing_potential": lambda s: c * integral(gamma - 1.0, m / np.asarray(s, float)),
            "part_visc": lambda rho: a * integral(beta - 0.5, rho),
        }
        if gamma == 2.0:
            closed["part_energy"] = lambda rho: a * math.sqrt(c) * np.sign(
                np.asarray(rho, float) - rho_star) * (
                integral(beta + 0.5, rho) - rho_star * integral(beta - 0.5, rho))
        return cls(kind, pressure=_monomial(c, gamma), viscosity=_monomial(a, beta),
                   m=m, length=length, params=params, closed=closed)

    # -- derived-function plumbing -----------------------------------------

    def probe_grid(self):
        k = np.arange(-PROBE_DECADES, PROBE_DECADES + 1)
        with np.errstate(over="ignore"):    # an infinite probe fails _check_laws
            return self.rho_star * 10.0 ** k

    def _eval(self, name, arg):
        """Evaluate the derived function ``name`` on ``arg``: its closed form,
        else a Gauss table of its integrand, built at the first evaluation.
        A closed form's overflow to inf is left to the callers' finiteness
        guards; a table raises ``QuadratureError`` on it."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            fn = self._functions.get(name)
            if fn is None:
                fn = self._functions[name] = self._table(name)
            out = fn(arg)
        return out if np.ndim(arg) else float(out)

    def _table(self, name):
        """The derived function ``name`` as a Gauss table of its integrand."""
        pressure, viscosity, rho_star = self.pressure, self.viscosity, self.rho_star
        if name == "viscous_potential":
            return _gauss_table(lambda t: viscosity(t) / t, rho_star)
        if name == "compression_energy":
            # rho * int (P(t) - P(rho*))/t^2 dt, which does not cancel next to rho*
            p_star = float(pressure(rho_star))
            table = _gauss_table(lambda t: (pressure(t) - p_star) / t ** 2, rho_star)
            return lambda rho: np.asarray(rho, float) * table(rho)
        if name == "spacing_potential":
            table = _gauss_table(lambda t: pressure(t) / t ** 2, rho_star)
            return lambda s: table(self.m / np.asarray(s, float))
        if name == "part_visc":
            return _gauss_table(lambda t: t ** -1.5 * viscosity(t), rho_star)
        # part_energy, whose integrand reads the compression energy
        return _gauss_table(lambda t: t ** -1.5 * viscosity(t) * np.sqrt(
            np.maximum(self._eval("compression_energy", t), 0.0)), rho_star)

    # -- derived scalar functions ------------------------------------------

    def viscous_potential(self, rho):
        """Cumulative mu(tau)/tau from the reference density; strictly
        increasing, zero at rho*."""
        _require_positive_density(rho)
        return self._eval("viscous_potential", rho)

    def compression_energy(self, rho):
        """Potential-energy density of compression; nonnegative, zero only
        at the reference density."""
        _require_positive_density(rho)
        return self._eval("compression_energy", rho)

    def spacing_potential(self, s):
        """Per-particle potential of a scaled cell width; zero at s = L and
        strictly decreasing.

        Near vanishing widths the growth condition makes the value diverge;
        an overflowing evaluation is reported rather than returned.
        """
        _require_positive_density(s, what="cell width")
        out = self._eval("spacing_potential", s)
        if not np.all(np.isfinite(out)):
            raise QuadratureError(
                "spacing potential overflowed: the pressure integral diverges "
                "towards vacuum widths")
        return out

    def damping_potential(self, s):
        """Antiderivative of the viscous coupling gain, -k(m/s)/m; strictly
        increasing and zero at s = L."""
        _require_positive_density(s, what="cell width")
        return -self.viscous_potential(self.m / np.asarray(s, float)) / self.m

    def damping_gain(self, s):
        """Viscous coupling gain mu(m/s)/(m*s) > 0."""
        _require_positive_density(s, what="cell width")
        s = np.asarray(s, dtype=float)
        out = self.viscosity(self.m / s) / (self.m * s)
        return out if np.ndim(s) else float(out)

    # -- admissibility envelope ---------------------------------------------

    def envelope_parts(self, rho):
        """The three increasing ingredients of the energy envelope:
        (weighted-energy integral, weighted-viscosity integral,
        viscous potential)."""
        _require_positive_density(rho)
        f1 = self._eval("part_energy", rho)
        f2 = self._eval("part_visc", rho)
        kk = self.viscous_potential(rho)
        return f1, f2, kk

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
        decade's value, or when the decade increments keep growing by
        ``_keeps_growing`` (which catches logarithmic divergence, e.g.
        viscosity growing like sqrt(density)).
        """
        grid = self.probe_grid()
        values = self.energy_envelope(grid[[-3, -2, -1, 2, 1, 0]]).tolist()
        f_hi, f_lo = values[:3], values[3:]
        hi_unbounded = abs(f_hi[2]) > 1.5 * abs(f_hi[1]) or _keeps_growing(*f_hi)
        lo_unbounded = abs(f_lo[2]) > 1.5 * abs(f_lo[1]) or _keeps_growing(*(-f for f in f_lo))
        limit_high = math.inf if hi_unbounded else abs(f_hi[2])
        limit_low = math.inf if lo_unbounded else abs(f_lo[2])
        return limit_high, limit_low

    def energy_envelope_inverse(self, target):
        """Invert the energy envelope by bisection in log-density, to a
        relative density bracket of ``ENVELOPE_INVERSE_REL_TOL``.

        The default bracket spans rho* * 10^(+-6) and is widened (up to
        10^(+-REACH_DECADES)) when the target lies beyond it; an inadmissible
        target raises ``AdmissibilityError`` naming the failing side, and a
        NaN target raises ``ModelError``.  The bisection is level-batched:
        one envelope call on the midpoints of the next
        ``ENVELOPE_BATCH_LEVELS`` levels decides all of them, and the walk
        through those midpoints takes the brackets, and so returns the
        density, of one-midpoint-per-call bisection.
        """
        target = float(target)
        if math.isnan(target):
            raise ModelError("energy budget to invert must be a number, got nan")
        if target == 0.0:
            return self.rho_star
        lo = self.rho_star * 10.0 ** -PROBE_DECADES
        hi = self.rho_star * 10.0 ** PROBE_DECADES
        if target > 0.0:
            while self.energy_envelope(hi) < target:
                hi *= 10.0
                if hi > self.rho_star * 10.0 ** REACH_DECADES:
                    raise AdmissibilityError(
                        f"energy budget {target:g} exceeds the envelope's reach"
                        " towards high density", side="high")
            lo = self.rho_star
        else:
            while self.energy_envelope(lo) > target:
                lo /= 10.0
                if lo < self.rho_star * 10.0 ** -REACH_DECADES:
                    raise AdmissibilityError(
                        f"energy budget {-target:g} exceeds the envelope's reach"
                        " towards vacuum", side="low")
            hi = self.rho_star
        a, b = math.log(lo), math.log(hi)
        width = math.log1p(ENVELOPE_INVERSE_REL_TOL)
        while b - a > width:
            # the midpoint tree below [a, b] in heap order: node i splits its
            # bracket at mids[i] into those of nodes 2i+1 (low) and 2i+2 (high)
            brackets, mids = [(a, b)], []
            for lo_i, hi_i in brackets:
                mid = 0.5 * (lo_i + hi_i)
                mids.append(mid)
                if len(brackets) < 2 ** ENVELOPE_BATCH_LEVELS - 1:
                    brackets += [(lo_i, mid), (mid, hi_i)]
            values = self.energy_envelope(np.array([math.exp(mid) for mid in mids]))
            node = 0
            while node < len(mids) and b - a > width:
                if values[node] < target:
                    a, node = mids[node], 2 * node + 2
                else:
                    b, node = mids[node], 2 * node + 1
        return math.exp(0.5 * (a + b))

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"FluidModel({self.kind}, {ps}, m={self.m:g}, L={self.length:g})"


# -- helpers -----------------------------------------------------------------

def _gauss_table(integrand, rho_star):
    """``rho -> int_{rho*}^{rho} integrand(t) dt`` (``integrand`` maps
    arrays) from one composite Gauss-Legendre table in ``u = ln(t/rho*)``.

    Panels of width ``PANEL_WIDTH`` run outward from rho* on each side to
    the reach rho* * 10^(+-REACH_DECADES), each side keeping the running sum
    of its panels; an evaluation adds the same rule from its panel's inner
    edge.  Each panel must match the sum of its halves to ``QUAD_REL_TOL *
    |panel| + QUAD_ABS_TOL``, so a singular or kinked integrand raises
    ``QuadratureError``, as does an evaluation beyond the reach or overflowing.
    """
    nodes, weights = GAUSS_RULES[GAUSS_ORDER]

    def rule(a, b):
        # the Gauss rule over each [a_i, b_i] in u, where dt = t du
        half = 0.5 * (b - a)
        t = rho_star * np.exp((a + half)[:, None] + half[:, None] * nodes)
        return half * ((integrand(t) * t) @ weights)

    panels = math.ceil(REACH_DECADES * math.log(10.0) / PANEL_WIDTH)
    edges = PANEL_WIDTH * np.arange(panels + 1.0)
    running = {}
    for side in (1.0, -1.0):
        inner, outer = side * edges[:-1], side * edges[1:]
        mid = 0.5 * (inner + outer)
        whole = rule(inner, outer)
        gap = np.abs(whole - (rule(inner, mid) + rule(mid, outer)))
        # an overflowing panel is not judged here: evaluations past it raise
        failed = np.isfinite(whole) & ~(gap <= QUAD_REL_TOL * np.abs(whole) + QUAD_ABS_TOL)
        if np.any(failed):
            rho = rho_star * math.exp(inner[np.argmax(failed)])
            raise QuadratureError(f"quadrature table fails its half-panel check on the "
                                  f"panel at density {rho:g}: the law is not smooth there")
        running[side] = np.concatenate(([0.0], np.cumsum(whole)))

    def evaluate(rho):
        u = np.log(np.asarray(rho, dtype=float) / rho_star).reshape(-1)
        if not np.all(np.abs(u) <= edges[-1]):
            raise QuadratureError(
                f"density beyond the quadrature table's reach rho* * 10^(+-{REACH_DECADES})")
        k = (np.abs(u) / PANEL_WIDTH).astype(int)
        out = (np.where(u < 0.0, running[-1.0][k], running[1.0][k])
               + rule(np.copysign(edges[k], u), u))
        if not np.all(np.isfinite(out)):
            raise QuadratureError("quadrature table overflowed: the integral diverges "
                                  "towards the reach of its density")
        return out.reshape(np.shape(rho))

    return evaluate


def _keeps_growing(inner, middle, outer):
    """Whether values at three outward decades keep growing: the outer
    decade's increment is at least 0.9 times the inner one's, and larger
    than the triple's rounding, 4 ulps of its largest magnitude.  A sequence
    that converges fails it at a decade ratio below 0.9 or once it has
    converged to rounding; a logarithmic divergence passes it."""
    step = outer - middle
    rounding = 4.0 * math.ulp(max(abs(inner), abs(middle), abs(outer)))
    return step > rounding and step >= 0.9 * (middle - inner)


def _monomial(coeff, exponent):
    """The law ``coeff * rho**exponent`` of a float array; at exponent 1 it
    skips the power, which would add about 1 us to each call of the
    equations of motion."""
    if exponent == 1.0:
        return lambda rho: coeff * np.asarray(rho, float)
    return lambda rho: coeff * np.asarray(rho, float) ** exponent


def _on_probe_grid(law, name, grid):
    """``law`` evaluated on the probe grid, which it must map elementwise."""
    try:
        # non-finite samples are rejected by the caller, without a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
