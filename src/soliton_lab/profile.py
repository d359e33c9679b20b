"""Profile construction in three regimes: the origin series, explicit
integration, then the far-field series.

Two choices here carry all the accuracy downstream, so they are worth
spelling out.

State variables.  The integrated pair is (r, z) with

    z(t) = (n - 1) g(y)/t - 1,      y = r',

the normalized slope defect, and the slope tied to it by the constraint
(n - 1) g(y) = (1 + z) t through the monotone map g.  Every diagnostic
that matters (phase residuals, bound margins, endpoint limits) consumes z
at absolute accuracy.  Reconstructing it from an integrated slope through
(n-1) g(y)/t - 1 cancels eight or more digits once g(y) t is large, while
integrating z directly keeps it clean at every scale.

    dz/dt = -(1 + n z + alpha (n - 1) z y^2) / t.

The explicit stretch carries y as a third state, y' = -z (1 + y^2)^((3 -
alpha)/2) (the constraint differentiated along the flow), so its stages
need no inversion of g.  The step-size control looks at (r, z) alone, and
at every grid node y is projected back onto the constraint by one
warm-started inversion, y = g^{-1}((1 + z) t/(n - 1)); the stored slope
is always that projection.

Regimes.  The profile is analytic at the axis, and its even Taylor
series (:mod:`soliton_lab.series`) converges out to |t| of about n, where
r'^2 = -1.  Every node up to a radius t_s is one evaluation of that
series, where t_s is the last node at which its last term is negligible;
on the n 2..6 x alpha {0.5, 1, 2, 3} grid t_s lies between 1 and 4.
Beyond it the system is still mild (linearization about -n per unit log
t) and an explicit embedded Runge-Kutta method (DOP853, stepped here on
Python scalars with the standard error norm and step-size controller) is
the cheapest accurate choice.  In the far field the relaxation rate
toward the slow manifold grows like alpha (n - 1) y^2 per unit log t with
y ~ t^(1/alpha), which is unbounded: around 1e4 already for n = 2,
alpha = 1 at t = 200, and 1e9 for alpha = 1/2.  No explicit
method can cross that at tolerable cost, and nothing needs to: once the
trajectory has relaxed, it is the slow manifold, which is a power series
in x = ((n - 1)/t)^(2/alpha) with coefficients fixed order by order (the
reduced system of a singularly perturbed problem, Hairer and Wanner,
Solving ODEs II, VI.2-3).  The explicit stretch ends at the first node
where the far-field series' last term is negligible and the integrated
defect already agrees with the series' z to the stepper's relative
tolerance.  That agreement holds from then on: the z equation is scalar
and first order, and it pulls every neighbouring trajectory toward the
manifold, so the gap only shrinks.  If the relaxation rate first passes
the stability budget per grid step, the stretch hands off there only with
z within the stepper's error scale (atol + rtol |z|) of the series, and
raises :class:`SolverError` otherwise (on the surveyed range, n = 2 at
alpha 0.15 and 0.2).  Every later node is one evaluation of that series,
and so is its radius: each term of the slope series is a power of t and
integrates exactly from the handoff node, where the radius is matched
(the matched integration constant of Bender and Orszag, Advanced
Mathematical Methods, ch. 9).

Grid nodes are exact integrator step endpoints in the explicit stretch:
the stepper is advanced node to node on a grid uniform in s = log t,
from the last origin-series node.
Dense-output interpolants carry enough wiggle to ruin finite-difference
residual diagnostics downstream, step endpoints do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    _LOG_SLOPE_MAX,
    ModelParams,
    g_eval,
    _invert_slope,
    _slope_map_deriv,
)
from .series import OriginSeries, _polyval, series_coefficients, series_eval

__all__ = ["RadialProfile", "SolverError", "solve_profile"]

_TOL_MIN, _TOL_MAX = 1e-13, 1e-6

# The accuracy contract: a profile solved at tol keeps its phase residual,
# PDE residual and gap to a finer solve within _CONTRACT * tol.  That
# leaves room for the error the stepper accumulates over the whole lattice
# and for the stencils and interpolants the checks measure through.
_CONTRACT = 100.0

# Largest accepted outer radius: a cap against overflow, since the slope
# grows like t^(1/alpha).
_T_MAX_CAP = 1e4

# Points up to this factor past t_max count as t_max: a norm or a product
# that should give t_max exactly can round an ulp or two above it.
_T_MAX_SLACK = 1.0 + 4e-16

# Accepted log-t spacing of the node lattice.  The ceiling is the widest
# gap the sixth-order difference stencil of the phase check tolerates
# before its truncation error pollutes the residual contract.
_SPACING_MIN, _SPACING_MAX = 1e-4, 2e-2

# Relaxation rate (per unit log t) times grid spacing at which the explicit
# stretch hands off, or raises if z is off the far-field series by more
# than the stepper's error scale: any component off the slow manifold then
# decays by e^-3 per grid step, and DOP853's real-axis stability boundary
# sits near 6, so the stretch is still error-limited there.
_STIFFNESS_BUDGET = 3.0

# Order of the far-field series past the explicit stretch.  Its
# coefficients grow factorially (see _far_series), so the order is fixed
# and the handoff waits until the last term is negligible.  With 48 terms,
# on n in {2, 3, 5, 7, 10} and 15 alphas from 0.15 to 10 at tol 1e-10, at
# t_max 200 and at 2000, that wait binds in 66 of the 73 cells that return
# a profile: z already agrees with the 48-term sum 2 to 154 nodes earlier.
_FAR_ORDER = 48


class SolverError(RuntimeError):
    """No trustworthy profile.

    Integration failed, left the representable range or met no handoff,
    or (raised by :func:`~soliton_lab.phase.phase_trajectory`) a solved
    profile broke the phase residual contract.
    """


# Step-size controller: error estimator order 7, so the error scales like
# h^8; safety factor and growth bounds as in the reference code.
_EXPONENT = -1.0 / 8.0
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


class _CarriedSlopeStepper:
    """Explicit DOP853 on (r, z, y), the slope y carried as a state.

    Along the flow (n - 1) g(y) = (1 + z) t, and differentiating that
    constraint with the z equation gives

        y' = -z (1 + y^2)^((3 - alpha)/2),

    which is r'' in defect form.  Carrying y costs one pow per stage where
    recovering it from z costs a bracketed Newton inversion.  The error
    norm, the controller and the initial step are those of the standard
    DOP853 code applied to (r, z) alone: y takes no part in step-size
    control, and :meth:`project` puts it back on the constraint at every
    grid node (the projection of Hairer, Lubich and Wanner, Geometric
    Numerical Integration, IV.4).  One instance serves one solve.

    The state is three Python floats, where array arithmetic costs more
    than it saves, and :meth:`_rk_step` is straight-line code with the
    DOP853 tableau (Hairer, Norsett and Wanner, Solving ODEs I, II.10) in
    it as float literals.  The values are scipy's (scipy.integrate._ivp.
    dop853_coefficients), written out so that the package does not import
    scipy; a test checks the step against a loop over scipy's tables bit
    for bit.
    """

    def __init__(self, n, alpha, t, r, z, y, t_end, rtol, atol):
        self.n = float(n)  # float times float skips the int conversion
        self.an = alpha * (n - 1.0)
        self.wp_exp = (3.0 - alpha) / 2.0
        self.rtol, self.atol = rtol, atol
        self.t, self.r, self.z, self.y = t, r, z, y
        self.f = self._rhs(t, r, z, y)
        self.h_abs = self._initial_step(t_end - t)

    def _rhs(self, t, r, z, y):
        return (
            y,
            -(1.0 + self.n * z + self.an * z * y * y) / t,
            -z * (1.0 + y * y) ** self.wp_exp,
        )

    def _norm(self, er, ez, scale_r, scale_z):
        return math.sqrt(((er / scale_r) ** 2 + (ez / scale_z) ** 2) / 2.0)

    def _initial_step(self, interval):
        """Starting step of Hairer, Norsett and Wanner, Solving ODEs I, II.4."""
        t, r, z, y = self.t, self.r, self.z, self.y
        fr, fz, fy = self.f
        scale_r = self.atol + abs(r) * self.rtol
        scale_z = self.atol + abs(z) * self.rtol
        d0 = self._norm(r, z, scale_r, scale_z)
        d1 = self._norm(fr, fz, scale_r, scale_z)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        gr, gz, _ = self._rhs(t + h0, r + h0 * fr, z + h0 * fz, y + h0 * fy)
        d2 = self._norm(gr - fr, gz - fz, scale_r, scale_z) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
        return min(100.0 * h0, h1, interval)

    def _rk_step(self, t, r, z, y, f, h):
        """One DOP853 step of size h from (t, r, z, y) with rhs f.

        Returns the new (r, z, y), its rhs and the error norm.  The code
        is straight-line: each stage writes out its nonzero tableau entries
        and its right-hand side.  Stage s has slope kr_s (the carried y at
        the stage), z rate kz_s and y rate ky_s; the r stage values are
        never formed, since no rate reads r.  Every sum, the error
        estimators' too, runs over the nonzero weights in index order, so
        each result is the one a loop over the full tableau gives, bit for
        bit.
        """
        n, an, wp_exp = self.n, self.an, self.wp_exp
        kr0, kz0, ky0 = f
        zs = z + (0.05260015195876773 * kz0) * h
        kr1 = y + (0.05260015195876773 * ky0) * h
        kz1 = -(1.0 + n * zs + an * zs * kr1 * kr1) / (t + 0.05260015195876773 * h)
        ky1 = -zs * (1.0 + kr1 * kr1) ** wp_exp
        zs = z + (0.0197250569845379 * kz0 + 0.0591751709536137 * kz1) * h
        kr2 = y + (0.0197250569845379 * ky0 + 0.0591751709536137 * ky1) * h
        kz2 = -(1.0 + n * zs + an * zs * kr2 * kr2) / (t + 0.0789002279381516 * h)
        ky2 = -zs * (1.0 + kr2 * kr2) ** wp_exp
        zs = z + (0.02958758547680685 * kz0 + 0.08876275643042054 * kz2) * h
        kr3 = y + (0.02958758547680685 * ky0 + 0.08876275643042054 * ky2) * h
        kz3 = -(1.0 + n * zs + an * zs * kr3 * kr3) / (t + 0.1183503419072274 * h)
        ky3 = -zs * (1.0 + kr3 * kr3) ** wp_exp
        zs = z + (
            0.2413651341592667 * kz0 - 0.8845494793282861 * kz2 + 0.924834003261792 * kz3
        ) * h
        kr4 = y + (
            0.2413651341592667 * ky0 - 0.8845494793282861 * ky2 + 0.924834003261792 * ky3
        ) * h
        kz4 = -(1.0 + n * zs + an * zs * kr4 * kr4) / (t + 0.2816496580927726 * h)
        ky4 = -zs * (1.0 + kr4 * kr4) ** wp_exp
        zs = z + (
            0.037037037037037035 * kz0 + 0.17082860872947386 * kz3
            + 0.12546768756682242 * kz4
        ) * h
        kr5 = y + (
            0.037037037037037035 * ky0 + 0.17082860872947386 * ky3
            + 0.12546768756682242 * ky4
        ) * h
        kz5 = -(1.0 + n * zs + an * zs * kr5 * kr5) / (t + 0.3333333333333333 * h)
        ky5 = -zs * (1.0 + kr5 * kr5) ** wp_exp
        zs = z + (
            0.037109375 * kz0 + 0.17025221101954405 * kz3 + 0.06021653898045596 * kz4
            - 0.017578125 * kz5
        ) * h
        kr6 = y + (
            0.037109375 * ky0 + 0.17025221101954405 * ky3 + 0.06021653898045596 * ky4
            - 0.017578125 * ky5
        ) * h
        kz6 = -(1.0 + n * zs + an * zs * kr6 * kr6) / (t + 0.25 * h)
        ky6 = -zs * (1.0 + kr6 * kr6) ** wp_exp
        zs = z + (
            0.03709200011850479 * kz0 + 0.17038392571223998 * kz3
            + 0.10726203044637328 * kz4 - 0.015319437748624402 * kz5
            + 0.008273789163814023 * kz6
        ) * h
        kr7 = y + (
            0.03709200011850479 * ky0 + 0.17038392571223998 * ky3
            + 0.10726203044637328 * ky4 - 0.015319437748624402 * ky5
            + 0.008273789163814023 * ky6
        ) * h
        kz7 = -(1.0 + n * zs + an * zs * kr7 * kr7) / (t + 0.3076923076923077 * h)
        ky7 = -zs * (1.0 + kr7 * kr7) ** wp_exp
        zs = z + (
            0.6241109587160757 * kz0 - 3.3608926294469414 * kz3 - 0.868219346841726 * kz4
            + 27.59209969944671 * kz5 + 20.154067550477894 * kz6 - 43.48988418106996 * kz7
        ) * h
        kr8 = y + (
            0.6241109587160757 * ky0 - 3.3608926294469414 * ky3 - 0.868219346841726 * ky4
            + 27.59209969944671 * ky5 + 20.154067550477894 * ky6 - 43.48988418106996 * ky7
        ) * h
        kz8 = -(1.0 + n * zs + an * zs * kr8 * kr8) / (t + 0.6512820512820513 * h)
        ky8 = -zs * (1.0 + kr8 * kr8) ** wp_exp
        zs = z + (
            0.47766253643826434 * kz0 - 2.4881146199716677 * kz3 - 0.590290826836843 * kz4
            + 21.230051448181193 * kz5 + 15.279233632882423 * kz6 - 33.28821096898486 * kz7
            - 0.020331201708508627 * kz8
        ) * h
        kr9 = y + (
            0.47766253643826434 * ky0 - 2.4881146199716677 * ky3 - 0.590290826836843 * ky4
            + 21.230051448181193 * ky5 + 15.279233632882423 * ky6 - 33.28821096898486 * ky7
            - 0.020331201708508627 * ky8
        ) * h
        kz9 = -(1.0 + n * zs + an * zs * kr9 * kr9) / (t + 0.6 * h)
        ky9 = -zs * (1.0 + kr9 * kr9) ** wp_exp
        zs = z + (
            -0.9371424300859873 * kz0 + 5.186372428844064 * kz3 + 1.0914373489967295 * kz4
            - 8.149787010746927 * kz5 - 18.52006565999696 * kz6 + 22.739487099350505 * kz7
            + 2.4936055526796523 * kz8 - 3.0467644718982196 * kz9
        ) * h
        kr10 = y + (
            -0.9371424300859873 * ky0 + 5.186372428844064 * ky3 + 1.0914373489967295 * ky4
            - 8.149787010746927 * ky5 - 18.52006565999696 * ky6 + 22.739487099350505 * ky7
            + 2.4936055526796523 * ky8 - 3.0467644718982196 * ky9
        ) * h
        kz10 = -(1.0 + n * zs + an * zs * kr10 * kr10) / (t + 0.8571428571428571 * h)
        ky10 = -zs * (1.0 + kr10 * kr10) ** wp_exp
        zs = z + (
            2.273310147516538 * kz0 - 10.53449546673725 * kz3 - 2.0008720582248625 * kz4
            - 17.9589318631188 * kz5 + 27.94888452941996 * kz6 - 2.8589982771350235 * kz7
            - 8.87285693353063 * kz8 + 12.360567175794303 * kz9 + 0.6433927460157636 * kz10
        ) * h
        kr11 = y + (
            2.273310147516538 * ky0 - 10.53449546673725 * ky3 - 2.0008720582248625 * ky4
            - 17.9589318631188 * ky5 + 27.94888452941996 * ky6 - 2.8589982771350235 * ky7
            - 8.87285693353063 * ky8 + 12.360567175794303 * ky9 + 0.6433927460157636 * ky10
        ) * h
        kz11 = -(1.0 + n * zs + an * zs * kr11 * kr11) / (t + h)
        ky11 = -zs * (1.0 + kr11 * kr11) ** wp_exp
        dr = (
            0.054293734116568765 * kr0 + 4.450312892752409 * kr5 + 1.8915178993145003 * kr6
            - 5.801203960010585 * kr7 + 0.3111643669578199 * kr8 - 0.1521609496625161 * kr9
            + 0.20136540080403034 * kr10 + 0.04471061572777259 * kr11
        )
        dz = (
            0.054293734116568765 * kz0 + 4.450312892752409 * kz5 + 1.8915178993145003 * kz6
            - 5.801203960010585 * kz7 + 0.3111643669578199 * kz8 - 0.1521609496625161 * kz9
            + 0.20136540080403034 * kz10 + 0.04471061572777259 * kz11
        )
        dy = (
            0.054293734116568765 * ky0 + 4.450312892752409 * ky5 + 1.8915178993145003 * ky6
            - 5.801203960010585 * ky7 + 0.3111643669578199 * ky8 - 0.1521609496625161 * ky9
            + 0.20136540080403034 * ky10 + 0.04471061572777259 * ky11
        )
        r_new, z_new, y_new = r + h * dr, z + h * dz, y + h * dy
        t_new = t + h
        f_new = (
            y_new,
            -(1.0 + n * z_new + an * z_new * y_new * y_new) / t_new,
            -z_new * (1.0 + y_new * y_new) ** wp_exp,
        )

        scale_r = self.atol + max(abs(r), abs(r_new)) * self.rtol
        scale_z = self.atol + max(abs(z), abs(z_new)) * self.rtol
        e5r = (
            0.01312004499419488 * kr0 - 1.2251564463762044 * kr5 - 0.4957589496572502 * kr6
            + 1.6643771824549864 * kr7 - 0.35032884874997366 * kr8
            + 0.3341791187130175 * kr9 + 0.08192320648511571 * kr10
            - 0.022355307863886294 * kr11
        )
        e5z = (
            0.01312004499419488 * kz0 - 1.2251564463762044 * kz5 - 0.4957589496572502 * kz6
            + 1.6643771824549864 * kz7 - 0.35032884874997366 * kz8
            + 0.3341791187130175 * kz9 + 0.08192320648511571 * kz10
            - 0.022355307863886294 * kz11
        )
        e3r = (
            -0.18980075407240762 * kr0 + 4.450312892752409 * kr5 + 1.8915178993145003 * kr6
            - 5.801203960010585 * kr7 - 0.4226823213237919 * kr8 - 0.1521609496625161 * kr9
            + 0.20136540080403034 * kr10 + 0.02265179219836082 * kr11
        )
        e3z = (
            -0.18980075407240762 * kz0 + 4.450312892752409 * kz5 + 1.8915178993145003 * kz6
            - 5.801203960010585 * kz7 - 0.4226823213237919 * kz8 - 0.1521609496625161 * kz9
            + 0.20136540080403034 * kz10 + 0.02265179219836082 * kz11
        )
        e5r /= scale_r
        e5z /= scale_z
        e3r /= scale_r
        e3z /= scale_z
        err5 = e5r * e5r + e5z * e5z
        err3 = e3r * e3r + e3z * e3z
        if err5 == 0.0 and err3 == 0.0:
            error_norm = 0.0
        else:
            error_norm = abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
        return (r_new, z_new, y_new), f_new, error_norm

    def advance_to(self, t_target):
        """Take accepted steps until t_target is reached exactly."""
        t, r, z, y, f, h_abs = self.t, self.r, self.z, self.y, self.f, self.h_abs
        while t < t_target:
            min_step = 10.0 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise SolverError(
                        f"integration failed near t = {t:.6g}: required step "
                        "size is less than spacing between numbers"
                    )
                t_new = min(t + h_abs, t_target)
                h_abs = t_new - t
                try:
                    state, f_new, error_norm = self._rk_step(t, r, z, y, f, h_abs)
                except OverflowError:
                    # A trial stage left float range; shrink like any
                    # rejected step and let the minimum step decide.
                    error_norm = math.inf
                if error_norm < 1.0:
                    if error_norm == 0.0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT)
                    if rejected:
                        factor = min(1.0, factor)
                    h_abs *= factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
                rejected = True
            t, (r, z, y), f = t_new, state, f_new
        self.t, self.r, self.z, self.y, self.f, self.h_abs = t, r, z, y, f, h_abs

    def project(self, y):
        """Replace the carried slope by its value on the constraint."""
        self.y = y
        self.f = self._rhs(self.t, self.r, self.z, y)


def _far_series(n: int, alpha: float, order: int = _FAR_ORDER):
    """Coefficients of the slow manifold as power series in x = ((n-1)/t)^(2/alpha).

    Written as y = (t/(n-1))^(1/alpha) U(x) and z = -(x/c) W(x) with
    c = alpha (n - 1), the constraint and the z equation become

        U (U^2 + x)^beta = 1 - x W/c,                   beta = (alpha-1)/2,
        (2/(alpha c)) (x W + x^2 W') = n x W/c + W U^2 - 1,

    so U(0) = W(0) = 1.  Matching powers of x is triangular: the constraint
    at order k fixes u_k (it enters with weight alpha) from w_{k-1}, then
    the z equation fixes w_k.  The power P = (U^2 + x)^beta is carried by
    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).  In the
    variables t^(1/alpha) sum u'_k eps^k, eps sum w'_k eps^k of eps =
    t^(-2/alpha) the coefficients are u'_k = u_k (n-1)^((2k-1)/alpha) and
    w'_k = -w_k (n-1)^((2k+2)/alpha)/c; the scaling keeps them in float
    range for small alpha and large n.  They grow like k! (2/(alpha c))^k,
    so the series is asymptotic, and a fixed order serves every cell once
    the caller waits for its last term to be negligible.  Below alpha of
    about 0.005 the last coefficients leave float range and become inf or
    nan, and :func:`_series_sum` then never reports them resolved.
    """
    c = alpha * (n - 1.0)
    beta = (alpha - 1.0) / 2.0
    u, w, s, q, p = (np.zeros(order + 1) for _ in range(5))  # s = U^2, q = U^2 + x
    u[0] = w[0] = s[0] = q[0] = p[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, order + 1):
            # Everything at order k with u_k = 0, then u_k from the constraint.
            s[k] = u[1:k] @ u[k - 1:0:-1]
            q[k] = s[k] + (k == 1)
            p[k] = ((beta + 1.0) * np.arange(1, k + 1) - k) @ (q[1:k + 1] * p[k - 1::-1]) / k
            u[k] = (-w[k - 1] / c - u[1:k] @ p[k - 1:0:-1] - p[k]) / alpha
            s[k] += 2.0 * u[k]
            q[k] += 2.0 * u[k]
            p[k] += 2.0 * beta * u[k]
            w[k] = (2.0 * k / alpha - n) * w[k - 1] / c - w[:k] @ s[k:0:-1]
    return u, w


def _series_sum(c, x):
    """The power series c, lowest order first, summed at x, and where it is resolved.

    Element-wise in x: ``resolved`` is where the last term is below 1e-16
    of the sum.  It is False where the sum is not finite, and everywhere
    when the last coefficient is not, so a series that overflows at x or
    whose coefficients left float range is never used.  The sum is
    returned everywhere, so a caller fills its nodes from it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = _polyval(x, c)
        if not math.isfinite(c[-1]):
            return total, np.zeros(np.shape(x), dtype=bool)
        return total, np.isfinite(total) & (
            np.abs(c[-1]) * x ** (len(c) - 1) <= 1e-16 * np.abs(total)
        )


def _second_and_third(alpha: float, t, y, z, big_f):
    """r'' and r''' at the nodes, in the defect form of the slope ODE.

    With wp = (1+y^2)^((3-alpha)/2), the slope equation reads exactly
    r'' = -z wp, and differentiating along the solution (dz/dt = -F/t)

        r''' = wp (F/t + (3-alpha) y z^2 wp / (1+y^2)).

    The naive form wp - (n-1) y (1+y^2)/t cancels catastrophically in the
    far field: for alpha < 1 both terms reach 1e16 while their difference
    stays of order t, so r'' would keep only a handful of digits and r'''
    none at all.  The defect form has no such subtraction, given F: the
    caller forms F = 1 + (n + alpha (n-1) y^2) z only up to the handoff,
    and past it, where alpha (n-1) y^2 z -> -1 and that sum cancels, takes
    F from the far series.
    """
    w = 1.0 + y * y
    wp = w ** ((3.0 - alpha) / 2.0)
    f2 = -z * wp
    f3 = wp * (big_f / t + (3.0 - alpha) * y * z * z * wp / w)
    return f2, f3


# quintic Hermite basis on [0, 1]: value, first and second derivative
# matched at both ends; cubic basis for the second-derivative channel.

def _quintic(tau, h, f0, d0, c0, f1, d1, c1):
    t2 = tau * tau
    t3 = t2 * tau
    t4 = t3 * tau
    t5 = t4 * tau
    h00 = 1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5
    h10 = tau - 6.0 * t3 + 8.0 * t4 - 3.0 * t5
    h20 = 0.5 * (t2 - 3.0 * t3 + 3.0 * t4 - t5)
    h01 = 10.0 * t3 - 15.0 * t4 + 6.0 * t5
    h11 = -4.0 * t3 + 7.0 * t4 - 3.0 * t5
    h21 = 0.5 * (t3 - 2.0 * t4 + t5)
    return (
        f0 * h00 + h * d0 * h10 + h * h * c0 * h20
        + f1 * h01 + h * d1 * h11 + h * h * c1 * h21
    )


def _cubic(tau, h, f0, d0, f1, d1):
    t2 = tau * tau
    t3 = t2 * tau
    return (
        f0 * (2.0 * t3 - 3.0 * t2 + 1.0)
        + h * d0 * (t3 - 2.0 * t2 + tau)
        + f1 * (-2.0 * t3 + 3.0 * t2)
        + h * d1 * (t3 - t2)
    )


@dataclass(eq=False)
class RadialProfile:
    """Sampled radial profile r(t) with first and second derivatives.

    ``grid`` starts at t = 0 (where r = dr = 0 and ddr = 1/n) and is
    uniform in log t from its first lattice node ``grid[1]`` outward.
    Arrays are owned by the profile and must not be mutated.
    """

    params: ModelParams
    grid: np.ndarray
    r: np.ndarray
    dr: np.ndarray
    ddr: np.ndarray
    tol: float
    series: OriginSeries
    phase_z: np.ndarray = field(repr=False)
    dddr: np.ndarray = field(repr=False)

    @property
    def t_max(self) -> float:
        return float(self.grid[-1])

    def evaluate(self, t):
        """Interpolate (r, dr, ddr) anywhere in [0, t_max].

        Below ``grid[1]`` the origin series is evaluated directly;
        elsewhere piecewise quintic Hermite interpolation (cubic for ddr)
        built from the stored derivative data is used.  Accepts scalars or
        arrays.
        """
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_flat = np.atleast_1d(t_arr).astype(float)
        if not np.all(np.isfinite(t_flat)):
            raise ValueError("evaluation points must be finite")
        upper = self.t_max * _T_MAX_SLACK
        if np.any(t_flat < 0.0) or np.any(t_flat > upper):
            raise ValueError(
                f"evaluation points must lie in [0, {self.t_max:g}]"
            )
        t_flat = np.minimum(t_flat, self.t_max)

        r_out = np.empty_like(t_flat)
        dr_out = np.empty_like(t_flat)
        ddr_out = np.empty_like(t_flat)

        near = t_flat < self.grid[1]
        if near.any():
            rs, ds, cs = series_eval(self.series, t_flat[near])
            r_out[near] = rs
            dr_out[near] = ds
            ddr_out[near] = cs

        far = ~near
        if far.any():
            tq = t_flat[far]
            k = np.searchsorted(self.grid, tq, side="right") - 1
            k = np.clip(k, 1, len(self.grid) - 2)
            t0 = self.grid[k]
            t1 = self.grid[k + 1]
            h = t1 - t0
            tau = (tq - t0) / h
            j = k - 1  # index into the node-only arrays (dddr, phase_z)
            r_out[far] = _quintic(
                tau, h,
                self.r[k], self.dr[k], self.ddr[k],
                self.r[k + 1], self.dr[k + 1], self.ddr[k + 1],
            )
            dr_out[far] = _quintic(
                tau, h,
                self.dr[k], self.ddr[k], self.dddr[j],
                self.dr[k + 1], self.ddr[k + 1], self.dddr[j + 1],
            )
            ddr_out[far] = _cubic(
                tau, h,
                self.ddr[k], self.dddr[j],
                self.ddr[k + 1], self.dddr[j + 1],
            )

        if scalar:
            return float(r_out[0]), float(dr_out[0]), float(ddr_out[0])
        shape = t_arr.shape
        return r_out.reshape(shape), dr_out.reshape(shape), ddr_out.reshape(shape)


def solve_profile(
    params: ModelParams,
    t_max: float,
    tol: float = 1e-10,
    *,
    switch_radius: float = 1e-2,
    grid_spacing: float | None = None,
) -> RadialProfile:
    """Construct the radial profile on [0, t_max].

    Nodes form a grid uniform in log t with spacing ``grid_spacing``,
    from ``switch_radius`` to ``t_max``, and each node is filled by one of
    three regimes in turn.  The origin series (of fixed degree, see
    :func:`~soliton_lab.series.series_coefficients`) fills every node up
    to the first one where its last term exceeds 1e-16 of the sum, for r
    or r'.  From the last such node an explicit embedded Runge-Kutta
    method (DOP853, stepped in this module) integrates the (r, z) system,
    landing exactly on every node; it carries the slope y as a third state
    and projects it back onto (n - 1) g(y) = (1 + z) t at every node.  The
    far-field series in ((n - 1)/t)^(2/alpha), its convergence to float
    precision and its z are evaluated once at every node past the last
    origin-series node.  At the first node where that series has converged
    and the integrated z agrees with the series' z to the stepper's
    relative tolerance (with no absolute floor), the integration stops:
    every remaining node is evaluated from the series: the slope and z,
    the radius as its value at the handoff plus the term-by-term integral
    of the slope series, and r''' through the series' dz/dt.  If the
    relaxation rate passes the explicit stability budget per grid step
    before that, the handoff comes at that node provided
    |z - z_series| <= atol + rtol |z|, the stepper's error scale; a wider
    gap raises :class:`SolverError`.

    ``grid_spacing`` defaults to 0.01 for alpha >= 1 and 0.00325 below:
    the transition region steepens like 2/alpha in log t.  The default
    does not keep the phase residual of
    :func:`~soliton_lab.phase.phase_trajectory` within its 100 tol
    contract at every tol: the residual includes the h^6 truncation of
    the sixth-order stencil, which at tol 1e-12 is 3.1e-9 on (2, 0.5) and
    5.0e-10 on (2, 1).

    Parameters
    ----------
    params : ModelParams
    t_max : float
        Outer radius, switch_radius < t_max <= 1e4.
    tol : float
        Accuracy target in [1e-13, 1e-6].  The stepper's relative
        tolerance is tol/100 floored at 3e-14, with a fixed absolute floor
        on the defect channel.  Below tol 3e-12 that floor binds: the
        nodes no longer depend on tol, and only the contract (100 tol) and
        the margin of the bounds check tighten.
    switch_radius, grid_spacing
        The first node of the lattice and its spacing in log t; see
        above for the default spacing and the residual it leaves.

    Raises
    ------
    ValueError
        Invalid tolerance or geometry.
    SolverError
        Failed integration step or non-finite state (reported with the t
        at which it occurred), predicted slope overflow for tiny alpha, or
        z off the far-field series by more than atol + rtol |z| where the
        relaxation rate passes the stability budget.
    """
    if not isinstance(params, ModelParams):
        raise ValueError("params must be a ModelParams instance")
    t_max = float(t_max)
    tol = float(tol)
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise ValueError(f"tol must lie in [{_TOL_MIN:g}, {_TOL_MAX:g}], got {tol:g}")
    if not (0.0 < switch_radius <= 0.1):
        raise ValueError(f"switch radius must lie in (0, 0.1], got {switch_radius:g}")
    if not (t_max > switch_radius):
        raise ValueError(f"t_max must exceed the switch radius {switch_radius:g}")
    if t_max > _T_MAX_CAP:
        raise ValueError(f"t_max = {t_max:g} exceeds the supported limit {_T_MAX_CAP:g}")
    n, alpha = params.n, params.alpha
    if grid_spacing is None:
        grid_spacing = 1e-2 if alpha >= 1.0 else 3.25e-3
    if not (_SPACING_MIN <= grid_spacing <= _SPACING_MAX):
        raise ValueError(f"grid spacing must lie in [{_SPACING_MIN:g}, {_SPACING_MAX:g}] (log t)")
    # Slope grows like (t/(n-1))^(1/alpha); refuse up front if that cannot
    # be represented, rather than dying mid-integration.
    if t_max > 1.0 and math.log(t_max) / alpha > _LOG_SLOPE_MAX:
        raise SolverError(
            f"predicted slope t^(1/alpha) overflows float64 at t_max = {t_max:g} "
            f"for alpha = {alpha:g}; lower t_max"
        )

    series = series_coefficients(params)
    t0 = float(switch_radius)
    n_seg = max(int(math.ceil((math.log(t_max) - math.log(t0)) / grid_spacing)), 32)
    s_nodes = np.linspace(math.log(t0), math.log(t_max), n_seg + 1)
    t_nodes = np.exp(s_nodes)
    t_nodes[0] = t0
    t_nodes[-1] = t_max

    # The origin series fills every node it resolves to float precision,
    # up to the first node where the last term of r or of r' exceeds 1e-16
    # of the sum.  r = u A(u) and r' = 2 t B(u) with u = t^2, where A and
    # B have coefficients a_k and k a_k (as in series_eval, bit for bit).
    # The test runs chunk by chunk, over t up to 4, then up to 16, 64 and
    # so on, and stops at its first failure, which lies at t of 1 to 4 on
    # the n 2..6 grid; each chunk's sums fill its nodes.  The stepper
    # launches from the last node the series fills, node 0 at the least.
    a = np.array(series.coeffs)
    da = a * np.arange(1.0, len(a) + 1.0)
    r_nodes = np.empty(n_seg + 1)
    z_nodes = np.empty(n_seg + 1)
    y_nodes = np.empty(n_seg + 1)
    first_miss, start, t_bound = n_seg + 1, 0, 4.0
    while start <= n_seg:
        stop = int(np.searchsorted(t_nodes, t_bound, side="right"))
        t_chunk = t_nodes[start:stop]
        u = t_chunk * t_chunk
        r_sum, r_resolved = _series_sum(a, u)
        y_sum, y_resolved = _series_sum(da, u)
        r_nodes[start:stop] = u * r_sum
        y_nodes[start:stop] = 2.0 * t_chunk * y_sum
        resolved = r_resolved & y_resolved
        if not resolved.all():
            first_miss = start + int(np.argmin(resolved))
            break
        start, t_bound = stop, 4.0 * t_bound
    launch = max(first_miss - 1, 0)
    near = slice(0, launch + 1)
    z_nodes[near] = (n - 1.0) * g_eval(y_nodes[near], params) / t_nodes[near] - 1.0

    rtol = max(tol * 1e-2, 3e-14)
    # Absolute floor for the defect channel z.  Downstream consumers need
    # z to about 1e-12 at worst; demanding 1e-16 absolute instead leaves
    # the explicit method error-strangled far below its stability limit.
    atol = 1e-13
    if launch < n_seg:
        stepper = _CarriedSlopeStepper(
            n, alpha, float(t_nodes[launch]), float(r_nodes[launch]),
            float(z_nodes[launch]), float(y_nodes[launch]), t_max, rtol=rtol, atol=atol,
        )

    m = float(n - 1)
    c = alpha * m
    rate_cap = _STIFFNESS_BUDGET / grid_spacing
    # The far-field series at every node past the launch, summed once: x,
    # the sums of U and W, where both have converged, and the series z.
    # Node k is at index k - launch - 1.
    u_far, w_far = _far_series(n, alpha)
    x_far = (m / t_nodes[launch + 1:]) ** (2.0 / alpha)
    u_sum, u_resolved = _series_sum(u_far, x_far)
    w_sum, w_resolved = _series_sum(w_far, x_far)
    with np.errstate(over="ignore"):  # where the sums diverge; never read there
        z_far = -x_far * w_sum / c
    converged, z_series = (u_resolved & w_resolved).tolist(), z_far.tolist()
    tail = n_seg + 1  # first far-series node; past the end until the handoff
    for k in range(launch + 1, n_seg + 1):
        tk = float(t_nodes[k])
        stepper.advance_to(tk)
        rk, zk = stepper.r, stepper.z
        if not (math.isfinite(rk) and math.isfinite(zk) and math.isfinite(stepper.y)):
            raise SolverError(f"non-finite state at t = {tk:.6g}")
        r_nodes[k] = rk
        z_nodes[k] = zk
        yk = _invert_slope(alpha, (1.0 + zk) * tk / m, stepper.y)
        y_nodes[k] = yk
        if k == n_seg:
            break
        stepper.project(yk)
        j = k - launch - 1
        if not converged[j]:
            continue
        gap = abs(zk - z_series[j])
        if gap > rtol * abs(zk):
            dydz = tk / (m * _slope_map_deriv(alpha, yk))
            if not n + c * (yk * yk + 2.0 * zk * yk * dydz) > rate_cap:
                continue
            limit = atol + rtol * abs(zk)
            if gap > limit:
                raise SolverError(
                    f"(n, alpha) = ({n}, {alpha:g}) is outside the supported range: at "
                    f"t = {tk:.6g} the explicit stretch reached its stability cap with z "
                    f"{gap:.3g} off the far-field series, above the limit "
                    f"atol + rtol |z| = {limit:.3g}"
                )
        tail = k + 1
        break

    big_f = np.empty(n_seg + 1)
    if tail <= n_seg:
        # Every node past the handoff node h is the far series.  Term k of
        # its slope, y_k = u_k (t/m)^(1/alpha) x^k, is the power t^(e_k - 1)
        # with e_k = 1 + (1 - 2k)/alpha, so r = r(t_h) + sum_k [t y_k]/e_k
        # taken from t_h to t: one sum over u_k/e_k, at h and past it.  The
        # term nearest e_k = 0 (exactly 0 at odd integer alpha, where it
        # integrates to a log) is left out of that sum and integrated as
        # t_h y_k(t_h) expm1(e_k L)/e_k with L = log(t/t_h).  F = -t dz/dt is
        # summed from the W series too: formed from the defect it cancels
        # there, since c y^2 z -> -1.
        h = tail - 1
        x_h = x_far[h - launch - 1:]  # nodes h onward
        powers = np.arange(len(u_far))
        e = 1.0 + (1.0 - 2.0 * powers) / alpha
        kr = int(np.argmin(np.abs(e)))
        lead = (t_nodes[h:] / m) ** (1.0 / alpha)
        y_nodes[tail:] = lead[1:] * u_sum[h - launch:]
        z_nodes[tail:] = z_far[h - launch:]
        t_lead = t_nodes[h:] * lead  # t y_k = t_lead u_k x^k
        integral = t_lead * _polyval(x_h, u_far / np.where(powers == kr, np.inf, e))
        log_t = np.log(t_nodes[tail:] / t_nodes[h])
        factor = log_t if e[kr] == 0.0 else np.expm1(e[kr] * log_t) / e[kr]
        resonant = t_lead[0] * u_far[kr] * x_h[0] ** kr * factor
        r_nodes[tail:] = r_nodes[h] + (integral[1:] - integral[0]) + resonant
        big_f[tail:] = -2.0 * x_h[1:] / (alpha * c) * _polyval(x_h[1:], w_far * (powers + 1.0))
    y, z = y_nodes[:tail], z_nodes[:tail]
    big_f[:tail] = 1.0 + (n + c * y * y) * z
    ddr_nodes, dddr_nodes = _second_and_third(alpha, t_nodes, y_nodes, z_nodes, big_f)

    grid = np.concatenate(([0.0], t_nodes))
    r = np.concatenate(([0.0], r_nodes))
    dr = np.concatenate(([0.0], y_nodes))
    ddr = np.concatenate(([2.0 * series.coeffs[0]], ddr_nodes))

    return RadialProfile(
        params=params,
        grid=grid,
        r=r,
        dr=dr,
        ddr=ddr,
        tol=tol,
        series=series,
        phase_z=z_nodes,
        dddr=dddr_nodes,
    )

