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
alpha)/2) (the constraint differentiated along the flow), so neither its
stages nor its nodes invert g.  The step-size control looks at (r, z)
alone, and the stored slope is the carried one: it meets the constraint
to the stepper's error, within 1.7e-14 relative on the surveyed range
(n 2..10, alpha 0.15..10, t_max up to 2000, tol down to 1e-12).

Regimes.  The profile is analytic at the axis, and its even Taylor
series (:mod:`soliton_lab.series`) converges out to |t| of about n, where
r'^2 = -1.  Every node up to a radius t_s is one evaluation of that
series, where t_s is the last node at which its last term is negligible;
on the n 2..6 x alpha {0.5, 1, 2, 3} grid t_s lies between 1.6 and 5.9.
Beyond it the system is still mild (linearization about -n per unit log
t), and explicit methods are the cheapest accurate choice.  The stretch
starts with an order-10 Adams-Bashforth predictor and Adams-Moulton
corrector in PECE form, stepped in s = log t at the lattice spacing h_s
with its history read from the last ten origin-series nodes: two
right-hand sides per node.  A node is taken by Adams only while two gates
hold: the relaxation rate times h_s is at most 0.106, half the pair's
real-axis stability bound of 0.212, and the corrector moves z by at most
0.1 of the stepper's error scale (atol + rtol |z|) and y by at most 0.1
rtol |y|.  The first node that fails a gate or overflows ends the Adams
part, and from the last Adams node (or from the launch, with fewer than
ten origin-series nodes) an explicit embedded Runge-Kutta method (DOP853,
stepped here on Python scalars with the standard error norm and
step-size controller) takes over, if any node remains.  On the 20-cell
grid at t_max 200 Adams takes 1,685 of the 4,041 explicit nodes, and
DOP853 takes 2,879 steps; every node stays within 3.0e-14 relative of
the DOP853-only solve.  In the far field the relaxation rate
toward the slow manifold grows like alpha (n - 1) y^2 per unit log t with
y ~ t^(1/alpha), which is unbounded: around 1e4 already for n = 2,
alpha = 1 at t = 200, and 1e9 for alpha = 1/2.  No explicit
method can cross that at tolerable cost, and nothing needs to: once the
trajectory has relaxed, it is the slow manifold, which is a power series
in x = ((n - 1)/t)^(2/alpha) with coefficients fixed order by order (the
reduced system of a singularly perturbed problem, Hairer and Wanner,
Solving ODEs II, VI.2-3).  The explicit stretch ends at the first node
where the far-field series' last term is negligible at the stepper's error
scale (at most 1e-2 rtol of the sum, rtol the stepper's relative
tolerance) and the integrated defect already agrees with the series' z to
rtol.  That agreement holds from then on: the z equation is scalar
and first order, and it pulls every neighbouring trajectory toward the
manifold, so the gap only shrinks.  If the relaxation rate first passes
the stability budget per grid step, the stretch hands off there only with
z within the stepper's error scale (atol + rtol |z|) of the series, and
raises :class:`SolverError` otherwise (on the surveyed range, n = 2 at
alpha 0.15 and 0.2).  Only DOP853's nodes run that handoff test.  At an
Adams node its stability branch cannot fire: the Adams gate keeps the
rate at most 0.106/h_s, at most 0.212 over the grid spacing, a fourteenth
of the budget.  Its agreement branch held at no Adams node of a
2,080-solve survey (n 2..15, alpha 0.15..10, tol 1e-13..1e-6, t_max
100..1e4); were it to hold at one, DOP853 would hand off at its first
node.  Every later node is one evaluation of that series,
and so is its radius: each term of the slope series is a power of t and
integrates exactly from the handoff node, where the radius is matched
(the matched integration constant of Bender and Orszag, Advanced
Mathematical Methods, ch. 9).

Both series, their recursions and their sums live in
:mod:`soliton_lab.series`; this module holds the solver.

Grid nodes are exact integrator step endpoints in the explicit stretch:
every Adams node is one step of the method, and past them
:func:`solve_profile` runs DOP853's accept/reject loop on Python floats
up to each node of a grid uniform in s = log t and clips the last step to
land on it.  Dense-output interpolants carry enough wiggle to ruin
finite-difference residual diagnostics downstream, step endpoints do not:
with the Adams part the largest phase residual on the grid is the
DOP853-only one to 2e-6 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    _LOG_SLOPE_MAX,
    ModelParams,
    g_eval,
    _slope_map_deriv,
)
from .series import (
    OriginSeries,
    _far_series,
    _series_sum,
    series_coefficients,
    series_eval,
)

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


def _default_spacing(alpha: float) -> float:
    """The log-t spacing of a solve given none; see :func:`solve_profile`."""
    return 1e-2 if alpha >= 1.0 else 3.25e-3


# Relaxation rate (per unit log t) times grid spacing at which the explicit
# stretch hands off, or raises if z is off the far-field series by more
# than the stepper's error scale: any component off the slow manifold then
# decays by e^-3 per grid step, and DOP853's real-axis stability boundary
# sits near 6, so the stretch is still error-limited there.
_STIFFNESS_BUDGET = 3.0

# The explicit stretch begins with an order-10 Adams PECE pair in s = log t
# (Hairer, Norsett and Wanner, Solving ODEs I, III.1): the Adams-Bashforth
# predictor's weights on f_k, f_k-1, ..., f_k-9 and the Adams-Moulton
# corrector's on f_k+1, f_k, ..., f_k-8, newest first.  Its history is the
# last _ADAMS_HISTORY origin-series nodes, so with fewer of them the stretch
# is DOP853 alone.
_ADAMS_BASHFORTH = (
    4.1717988040123455, -14.46692970127866, 36.64195877425044, -62.646298500881834,
    74.17932071208112, -61.28364225088183, 34.80740520282187, -12.994284611992946,
    2.87764701829806, -0.2869754464285714,
)
_ADAMS_MOULTON = (
    0.2869754464285714, 1.3020443397266315, -1.5530346119929452, 2.2049052028218696,
    -2.3814547508818342, 1.8615082120811288, -1.0187985008818343, 0.3703516313932981,
    -0.08038952270723104, 0.00789255401234568,
)
_ADAMS_HISTORY = 10
# The Adams gates of the module docstring: the bound on the relaxation rate
# times the lattice spacing (the stability bound of Solving ODEs I, III.4,
# halved), and the corrector's largest move as a fraction of the error scale.
_ADAMS_STABILITY = 0.106
_ADAMS_GAP = 0.1


def _stepper_rtol(tol: float) -> float:
    """The explicit stepper's relative tolerance: tol/100, floored at 3e-14."""
    return max(tol * 1e-2, 3e-14)


# The far-field series counts as resolved at a node where its last term is
# at most _FAR_CUT * rtol of its sum, rtol the stepper's own.  The handoff
# asks z to agree with the series to rtol, so a truncation a hundred times
# below that cannot decide it, and a tighter cut only keeps the stretch
# stepping where z already agrees.  Below tol 3e-12 the cut is the floor,
# 3e-16, so the nodes there still do not depend on tol.
_FAR_CUT = 1e-2

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
    norm and the initial step are those of the standard DOP853 code
    applied to (r, z) alone: y takes no part in step-size control.  One
    instance serves one solve: it holds the tableau's parameters, the
    starting state, its rhs ``f`` and the initial step ``h_abs``, and
    :func:`solve_profile` takes steps with :meth:`_rk_step` and runs the
    standard controller (Solving ODEs I, II.4) on them in its node loop,
    so the state lives in that loop's locals.  The controller bounds its
    factors with comparisons that pick what ``min`` and ``max`` would,
    NaN included, and works out the floor of ten ulps of t only once the
    step is below 2.3e-15 t, which ten ulps never exceed.  Each node's y
    is the one the last step returned, and the next step starts from that
    state and its rhs, so the constraint holds to the stepper's error (at
    most 1.7e-14 relative on the surveyed range).  Projecting y back onto
    it by an inversion at every node (Hairer, Lubich and Wanner, Geometric
    Numerical Integration, IV.4) moved r by at most 7.4e-14 relative and
    changed no check's verdict, so the stepper does not.

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
        bit.  Five weight products of the r and z rates are formed once
        and added into both the solution and the third-order estimator.
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
        # The products the solution and the third-order estimator share:
        # a - c * x rounds like a - (c * x), so each sum is unchanged.
        pr5, pr6 = 4.450312892752409 * kr5, 1.8915178993145003 * kr6
        pr7, pr9 = 5.801203960010585 * kr7, 0.1521609496625161 * kr9
        pr10 = 0.20136540080403034 * kr10
        pz5, pz6 = 4.450312892752409 * kz5, 1.8915178993145003 * kz6
        pz7, pz9 = 5.801203960010585 * kz7, 0.1521609496625161 * kz9
        pz10 = 0.20136540080403034 * kz10
        dr = (
            0.054293734116568765 * kr0 + pr5 + pr6 - pr7 + 0.3111643669578199 * kr8 - pr9
            + pr10 + 0.04471061572777259 * kr11
        )
        dz = (
            0.054293734116568765 * kz0 + pz5 + pz6 - pz7 + 0.3111643669578199 * kz8 - pz9
            + pz10 + 0.04471061572777259 * kz11
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

        # max(a, b) by comparison, as the builtin picks: b only if b > a.
        ar, br = abs(r), abs(r_new)
        scale_r = self.atol + (br if br > ar else ar) * self.rtol
        az, bz = abs(z), abs(z_new)
        scale_z = self.atol + (bz if bz > az else az) * self.rtol
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
            -0.18980075407240762 * kr0 + pr5 + pr6 - pr7 - 0.4226823213237919 * kr8 - pr9
            + pr10 + 0.02265179219836082 * kr11
        )
        e3z = (
            -0.18980075407240762 * kz0 + pz5 + pz6 - pz7 - 0.4226823213237919 * kz8 - pz9
            + pz10 + 0.02265179219836082 * kz11
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


def _second_and_third(alpha: float, t, y, z, big_f):
    """r'' and r''' at the nodes, in the defect form of the slope ODE.

    With wp = (1+y^2)^((3-alpha)/2), the slope equation reads exactly
    r'' = -z wp, and differentiating along the solution (dz/dt = -F/t)

        r''' = wp (F/t + (3-alpha) y z^2 wp / (1+y^2)).

    The naive form wp - (n-1) y (1+y^2)/t cancels catastrophically in the
    far field: for alpha < 1 both terms reach 1e16 while their difference
    stays of order t, so r'' would keep only a handful of digits and r'''
    none at all.  The defect form has no such subtraction, given F:
    :meth:`RadialProfile._form_derived` forms F = 1 + (n + alpha (n-1) y^2) z
    only up to the handoff, and past it, where alpha (n-1) y^2 z -> -1 and
    that sum cancels, the solve takes F from the far series.
    """
    w = 1.0 + y * y
    wp = w ** ((3.0 - alpha) / 2.0)
    f2 = -z * wp
    f3 = wp * (big_f / t + (3.0 - alpha) * y * z * z * wp / w)
    return f2, f3


# The arrays that a solved profile forms on first read.
_DERIVED = ("phase_z", "ddr", "dddr")


@dataclass(eq=False)
class RadialProfile:
    """Sampled radial profile r(t) with first and second derivatives.

    ``grid`` starts at t = 0 (where r = dr = 0 and ddr = 1/n) and is
    uniform in log t from its first lattice node ``grid[1]`` outward.
    Arrays are owned by the profile and must not be mutated.

    A profile from :func:`solve_profile` forms ``ddr``, ``dddr`` and
    ``phase_z`` together, once, on the first read of any of them, so a
    caller of ``grid``, ``r`` and ``dr`` alone, such as
    :func:`~soliton_lab.asymptotics.fit_far_field`, never pays for them;
    the formulas are the solve's, and so are the bits.  An array written
    before that read is kept.  A profile built by hand or by
    ``dataclasses.replace`` holds the arrays it is given.

    ``launch`` and ``handoff`` record where the solver's regimes meet, as
    indices into ``grid``.  The origin series fills ``grid[:launch + 1]``
    and the explicit stretch starts from ``grid[launch]``; it fills
    ``grid[launch + 1:handoff + 1]``, first with Adams nodes while their
    gates hold and then with DOP853 steps from the last Adams node (see the
    module docstring), and the far-field series fills ``grid[handoff +
    1:]``.  ``handoff`` is ``len(grid) - 1`` when the stretch runs to t_max,
    and equals ``launch`` when the origin series fills every node.
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
    launch: int
    handoff: int
    # The far-field series (u, w) of _far_series, kept so that a second
    # solve of the same params can take it over with ``series``.
    _far: tuple = field(default=None, repr=False)

    def __getattr__(self, name):
        # Called only for a name the instance lacks.  State is read through
        # vars(self) alone: copy and pickle call this on an empty instance.
        if name in _DERIVED and "_unformed" in vars(self):
            self._form_derived()
            return vars(self)[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}", name=name, obj=self
        )

    def _form_derived(self):
        """Form ``phase_z``, ``ddr`` and ``dddr`` from the node arrays
        (z, F) that :func:`solve_profile` left in ``_unformed``, z filled
        past the launch node and F past the handoff: z at the origin-series
        nodes from g(dr) there, F up to the handoff from the defect, then
        r'' and r''' (see :func:`_second_and_third`).  Each is stored only
        where the instance holds none, so an array written earlier is
        kept."""
        slots = vars(self)
        z, big_f = slots.pop("_unformed")
        params, near, tail = self.params, self.launch, self.handoff
        n, alpha = params.n, params.alpha
        t, y = self.grid[1:], self.dr[1:]
        z[:near] = (n - 1.0) * g_eval(y[:near], params) / t[:near] - 1.0
        c = alpha * float(n - 1)
        y_in = y[:tail]
        big_f[:tail] = 1.0 + (n + c * y_in * y_in) * z[:tail]
        ddr, dddr = _second_and_third(alpha, t, y, z, big_f)
        slots.setdefault("phase_z", z)
        slots.setdefault("ddr", np.concatenate(([2.0 * self.series.coeffs[0]], ddr)))
        slots.setdefault("dddr", dddr)

    @property
    def t_max(self) -> float:
        return float(self.grid[-1])

    def evaluate(self, t):
        """Interpolate (r, dr, ddr) anywhere in [0, t_max].

        Every point goes through piecewise quintic Hermite interpolation
        built from the stored derivative data: one quintic for r, and one
        for dr whose t-derivative is ddr.  At the nodes ddr is the stored
        ``ddr`` bit for bit.  Below ``grid[1]`` those values are then
        overwritten: by node 0 at t = 0, which is the origin series there
        bit for bit, and by the origin series elsewhere.  Accepts scalars
        or arrays.  :meth:`_radius` gives r alone.
        """
        return self._interpolate(t, radius_only=False)

    def _radius(self, t):
        """r alone, exactly ``evaluate(t)[0]``: the same point checks, the
        same quintic at every point and the same overwrite below
        ``grid[1]``, without forming dr and ddr.
        """
        return self._interpolate(t, radius_only=True)[0]

    def _interpolate(self, t, radius_only):
        """:meth:`evaluate`, or its r alone as a one-element tuple.  Below
        ``grid[1]``, where :meth:`_hermite` extrapolates the first cell, the
        origin series overwrites its values, and node 0 those at t = 0."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_flat = np.atleast_1d(t_arr)
        if not np.all(np.isfinite(t_flat)):
            raise ValueError("evaluation points must be finite")
        upper = self.t_max * _T_MAX_SLACK
        if np.any(t_flat < 0.0) or np.any(t_flat > upper):
            raise ValueError(
                f"evaluation points must lie in [0, {self.t_max:g}]"
            )
        t_flat = np.minimum(t_flat, self.t_max)

        out = self._hermite(t_flat, radius_only)
        origin = t_flat == 0.0
        # series_eval costs about 100 us however few its points, so the
        # axis points, which node 0 gives, skip it.
        near = (t_flat < self.grid[1]) & ~origin
        if near.any():
            for o, values in zip(out, series_eval(self.series, t_flat[near])):
                o[near] = values
        for o, nodes in zip(out, (self.r, self.dr, self.ddr)):
            o[origin] = nodes[0]

        if scalar:
            return tuple(float(o[0]) for o in out)
        return tuple(o.reshape(t_arr.shape) for o in out)

    def _hermite(self, tq, radius_only):
        """(r, dr, ddr), or (r,) alone, at points tq, from the nodes around
        each; below ``grid[1]`` it extrapolates the first lattice cell.

        r and dr are quintic Hermite interpolants, matching the value and
        first two derivatives at both nodes, and ddr is the t-derivative
        of the dr quintic.  The bracket, the six quintic basis values on
        [0, 1] and, for ddr, their six tau-derivatives are formed once.
        At tau = 0 and 1 the derivative basis values are exact integers,
        which keeps ddr at a node the stored value bit for bit.
        """
        k = np.searchsorted(self.grid, tq, side="right") - 1
        k = np.clip(k, 1, len(self.grid) - 2)
        t0 = self.grid[k]
        h = self.grid[k + 1] - t0
        tau = (tq - t0) / h
        hh = h * h
        t2 = tau * tau
        t3 = t2 * tau
        t4 = t3 * tau
        t5 = t4 * tau
        basis = (
            1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5,
            tau - 6.0 * t3 + 8.0 * t4 - 3.0 * t5,
            0.5 * (t2 - 3.0 * t3 + 3.0 * t4 - t5),
            10.0 * t3 - 15.0 * t4 + 6.0 * t5,
            -4.0 * t3 + 7.0 * t4 - 3.0 * t5,
            0.5 * (t3 - 2.0 * t4 + t5),
        )
        d0, d1 = self.dr[k], self.dr[k + 1]
        c0, c1 = self.ddr[k], self.ddr[k + 1]
        r = _quintic(basis, h, hh, self.r[k], d0, c0, self.r[k + 1], d1, c1)
        if radius_only:
            return (r,)
        e0, e1 = self.dddr[k - 1], self.dddr[k]  # dddr has no axis entry
        dr = _quintic(basis, h, hh, d0, c0, e0, d1, c1, e1)
        # d/dt = (1/h) d/dtau of the dr quintic, written out term by term
        # rather than as _quintic(...) / h, which would round (h c0) / h.
        g00 = -30.0 * t2 + 60.0 * t3 - 30.0 * t4
        g10 = 1.0 - 18.0 * t2 + 32.0 * t3 - 15.0 * t4
        g20 = 0.5 * (2.0 * tau - 9.0 * t2 + 12.0 * t3 - 5.0 * t4)
        g01 = 30.0 * t2 - 60.0 * t3 + 30.0 * t4
        g11 = -12.0 * t2 + 28.0 * t3 - 15.0 * t4
        g21 = 0.5 * (3.0 * t2 - 8.0 * t3 + 5.0 * t4)
        ddr = (d0 * g00 + d1 * g01) / h + c0 * g10 + c1 * g11 + h * (e0 * g20 + e1 * g21)
        return r, dr, ddr


def _quintic(basis, h, hh, f0, d0, c0, f1, d1, c1):
    """The quintic Hermite interpolant on a cell of width h (hh = h^2) with
    value f, derivative d and second derivative c at its two ends, summed
    over the basis values of :meth:`RadialProfile._hermite`."""
    h00, h10, h20, h01, h11, h21 = basis
    return f0 * h00 + h * d0 * h10 + hh * c0 * h20 + f1 * h01 + h * d1 * h11 + hh * c1 * h21


def solve_profile(
    params: ModelParams,
    t_max: float,
    tol: float = 1e-10,
    *,
    switch_radius: float = 1e-2,
    grid_spacing: float | None = None,
    _series_from: tuple[OriginSeries, tuple] | None = None,
) -> RadialProfile:
    """Construct the radial profile on [0, t_max].

    Nodes form a grid uniform in log t with spacing ``grid_spacing``,
    from ``switch_radius`` to ``t_max``, and each node is filled by one of
    three regimes in turn.  The origin series (of fixed degree, see
    :func:`~soliton_lab.series.series_coefficients`) fills every node up
    to the first one where its last term exceeds 1e-16 of the sum, for r
    or r'.  From the last such node the explicit stretch integrates the
    (r, z) system, landing exactly on every node.  Given ten or more
    origin-series nodes it starts with an order-10 Adams PECE pair in
    s = log t, its history those ten nodes, which takes nodes while its
    gates hold (see the module docstring).  The first node that fails a
    gate or overflows is discarded, and if any node remains an explicit
    embedded Runge-Kutta method (DOP853, stepped in this module) starts
    from the last Adams node, or from the launch.  Its controller is the
    standard one: an accepted step grows by at most 10, and not at all
    right after a rejection; a rejected one shrinks by at most 5, and by
    exactly 5 where a stage overflows or the error norm is NaN; a step
    below ten ulps of t raises :class:`SolverError`.  The stepper carries
    the slope y as a third state, and the stored slope is the carried one,
    which meets (n - 1) g(y) = (1 + z) t to the stepper's error (within
    1.7e-14 relative).  The far-field series in ((n - 1)/t)^(2/alpha), where it
    has converged (its last term at most 1e-2 rtol of the sum, rtol the
    stepper's relative tolerance) and its z are evaluated once at every
    node past the last origin-series node.  At the first node where that
    series has converged and the integrated z agrees with the series' z to
    rtol (with no absolute floor), the integration stops: every remaining
    node is evaluated from the series: the slope and z,
    the radius as its value at the handoff plus the term-by-term integral
    of the slope series, and r''' through the series' dz/dt.  If the
    relaxation rate passes the explicit stability budget per grid step
    before that, the handoff comes at that node provided
    |z - z_series| <= atol + rtol |z|, the stepper's error scale; a wider
    gap raises :class:`SolverError`.  Only DOP853's nodes run the handoff
    test, so where the Adams part reaches t_max, ``handoff`` is the last
    node.

    The solve itself forms r, r', the stepped z and, past the handoff, the
    far series' z and F = -t dz/dt; it evaluates g in one call at the ten
    history nodes of the Adams part (at the launch node alone without it),
    for the starting z and the history's right-hand sides.  The profile
    it returns holds no ``ddr``, ``dddr`` or ``phase_z`` yet: z at the
    other origin-series nodes, r'' and r''' are formed on the first read
    of any of the three (see :class:`RadialProfile`), so a caller that
    reads only ``grid``, ``r`` and ``dr`` never pays for them.

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
        tolerance rtol is tol/100 floored at 3e-14, with a fixed absolute
        floor on the defect channel, and the far-field series' convergence
        cut is 1e-2 rtol.  Below tol 3e-12 the floor binds: the nodes no
        longer depend on tol, and only the contract (100 tol) and the
        margin of the bounds check tighten.
    switch_radius, grid_spacing
        The first node of the lattice and its spacing in log t; see
        above for the default spacing and the residual it leaves.
    _series_from
        A pair (OriginSeries, (u, w)) of origin and far-field series
        coefficients, as a profile keeps them in ``series`` and ``_far``
        or as :func:`~soliton_lab.series._batch_coefficients` gives them
        for many cells at once, which this solve takes over instead of
        running both recursions of :mod:`soliton_lab.series`, if they
        were computed for the same params: they depend on (n, alpha)
        alone.

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
    if not (switch_radius < t_max <= _T_MAX_CAP):  # NaN fails here too
        raise ValueError(f"t_max must lie in ({switch_radius:g}, {_T_MAX_CAP:g}], got {t_max:g}")
    n, alpha = params.n, params.alpha
    if grid_spacing is None:
        grid_spacing = _default_spacing(alpha)
    if not (_SPACING_MIN <= grid_spacing <= _SPACING_MAX):
        raise ValueError(f"grid spacing must lie in [{_SPACING_MIN:g}, {_SPACING_MAX:g}] (log t)")
    # Slope grows like (t/(n-1))^(1/alpha); refuse up front if that cannot
    # be represented, rather than dying mid-integration.
    if t_max > 1.0 and math.log(t_max) / alpha > _LOG_SLOPE_MAX:
        raise SolverError(
            f"predicted slope t^(1/alpha) overflows float64 at t_max = {t_max:g} "
            f"for alpha = {alpha:g}; lower t_max"
        )
    # r'' and r''' carry (1 + y^2)^((3 - alpha)/2), which for small alpha
    # leaves float range before y does; y from its leading term.
    if (3.0 - alpha) * math.log(t_max / (n - 1.0)) / alpha > _LOG_SLOPE_MAX:
        raise SolverError(
            f"predicted (1 + r'^2)^((3 - alpha)/2) in r'' overflows float64 at "
            f"t_max = {t_max:g} for (n, alpha) = ({n}, {alpha:g}); lower t_max"
        )

    given_series, given_far = _series_from or (None, None)
    if given_far is not None and given_series.params == params:
        series, (u_far, w_far) = given_series, given_far
    else:
        series, (u_far, w_far) = series_coefficients(params), _far_series(n, alpha)
    t0 = float(switch_radius)
    n_seg = max(int(math.ceil((math.log(t_max) - math.log(t0)) / grid_spacing)), 32)
    s_nodes = np.linspace(math.log(t0), math.log(t_max), n_seg + 1)
    grid = np.empty(n_seg + 2)
    grid[0] = 0.0
    # exp writes a fresh array, as its SIMD loop's bits may depend on the
    # alignment of its output, and the copy moves none.
    grid[1:] = np.exp(s_nodes)
    grid[1] = t0
    grid[-1] = t_max
    t_arr = grid[1:]
    t_nodes = t_arr.tolist()

    # The origin series fills every node it resolves to float precision,
    # up to the first node where the last term of r or of r' exceeds 1e-16
    # of the sum.  r = u A(u) and r' = 2 t B(u) with u = t^2, where A and
    # B have coefficients a_k and k a_k (as in series_eval, bit for bit),
    # summed together as one stack.
    # The test runs chunk by chunk, over t up to 4, then up to 16, 64 and
    # so on, and stops at its first failure, which lies at t of 1.6 to 5.9
    # on the n 2..6 grid, so a quarter of its cells sum a second chunk; each
    # chunk's sums fill its nodes.  The stepper launches from the last node
    # the series fills, node 0 at the least.
    a = np.array(series.coeffs)
    origin_stack = np.stack((a, a * np.arange(1.0, len(a) + 1.0)), axis=1)[:, :, None]
    r_nodes = np.empty(n_seg + 1)
    z_nodes = np.empty(n_seg + 1)
    y_nodes = np.empty(n_seg + 1)
    first_miss, start, t_bound = n_seg + 1, 0, 4.0
    while start <= n_seg:
        stop = int(np.searchsorted(t_arr, t_bound, side="right"))
        t_chunk = t_arr[start:stop]
        u = t_chunk * t_chunk
        (r_sum, y_sum), resolved = _series_sum(origin_stack, u, 1e-16)
        r_nodes[start:stop] = u * r_sum
        y_nodes[start:stop] = 2.0 * t_chunk * y_sum
        resolved = resolved[0] & resolved[1]
        if not resolved.all():
            first_miss = start + int(np.argmin(resolved))
            break
        start, t_bound = stop, 4.0 * t_bound
    launch = max(first_miss - 1, 0)

    rtol = _stepper_rtol(tol)
    # Absolute floor for the defect channel z.  Downstream consumers need
    # z to about 1e-12 at worst; demanding 1e-16 absolute instead leaves
    # the explicit method error-strangled far below its stability limit.
    atol = 1e-13
    m = float(n - 1)
    c = alpha * m
    rate_cap = _STIFFNESS_BUDGET / grid_spacing
    # The far-field series at every node past the launch, summed once in
    # one stack: U and W, the integral of the slope and F (see the tail
    # below).  Node k is at index k - launch - 1.  Where U and W have both
    # converged the series z is used.
    powers = np.arange(len(u_far))
    e = 1.0 + (1.0 - 2.0 * powers) / alpha
    kr = int(np.argmin(np.abs(e)))
    far_stack = np.stack(
        (u_far, w_far, u_far / np.where(powers == kr, np.inf, e), w_far * (powers + 1.0)),
        axis=1,
    )[:, :, None]
    x_far = (m / t_arr[launch + 1:]) ** (2.0 / alpha)
    (u_sum, w_sum, integral_sum, f_sum), far_resolved = _series_sum(
        far_stack, x_far, _FAR_CUT * rtol
    )
    with np.errstate(over="ignore"):  # where the sums diverge; never read there
        z_far = -x_far * w_sum / c
    converged = (far_resolved[0] & far_resolved[1]).tolist()
    z_series = z_far.tolist()

    # The explicit stretch, its nodes collected as Python floats: Adams PECE
    # from the launch while its gates hold, then DOP853 from the last node
    # Adams took up to t_max or the handoff.
    r_ex, z_ex, y_ex = [], [], []
    if launch < n_seg:
        adams = launch + 1 >= _ADAMS_HISTORY
        # z at the history nodes, or at the launch node alone without the
        # Adams part; at the other origin-series nodes it is formed with r''
        # and r''' (see RadialProfile).
        first = launch + 1 - _ADAMS_HISTORY if adams else launch
        hist = slice(first, launch + 1)
        z_hist = ((n - 1.0) * g_eval(y_nodes[hist], params) / t_arr[hist] - 1.0).tolist()
        r, z, y = float(r_nodes[launch]), z_hist[-1], float(y_nodes[launch])
        if adams:
            # The Adams part steps (r, z, y) in s = log t at the lattice
            # spacing h_s, with (r, z, y)' = (t y, -(1 + n z + c z y^2),
            # -t z wp), wp = (1 + y^2)^((3 - alpha)/2).  fr, fz and fy hold
            # the rhs at every node from the first history node on, the
            # newest last.
            nf, wp_exp = float(n), (3.0 - alpha) / 2.0
            h_s = (math.log(t_max) - math.log(t0)) / n_seg  # the step of s_nodes
            adams_cap = _ADAMS_STABILITY / h_s
            gap_atol, gap_rtol = _ADAMS_GAP * atol, _ADAMS_GAP * rtol
            b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = _ADAMS_BASHFORTH
            a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = _ADAMS_MOULTON
            fr, fz, fy = [], [], []
            for tk, zk, yk in zip(t_nodes[hist], z_hist, y_nodes[hist].tolist()):
                fr.append(tk * yk)
                fz.append(-(1.0 + nf * zk + c * zk * yk * yk))
                fy.append(-tk * zk * (1.0 + yk * yk) ** wp_exp)
            for k in range(launch + 1, n_seg + 1):
                tk = t_nodes[k]
                try:
                    # Predict, evaluate, correct, evaluate.
                    pr = r + h_s * (
                        b0 * fr[-1] + b1 * fr[-2] + b2 * fr[-3] + b3 * fr[-4] + b4 * fr[-5]
                        + b5 * fr[-6] + b6 * fr[-7] + b7 * fr[-8] + b8 * fr[-9] + b9 * fr[-10]
                    )
                    pz = z + h_s * (
                        b0 * fz[-1] + b1 * fz[-2] + b2 * fz[-3] + b3 * fz[-4] + b4 * fz[-5]
                        + b5 * fz[-6] + b6 * fz[-7] + b7 * fz[-8] + b8 * fz[-9] + b9 * fz[-10]
                    )
                    py = y + h_s * (
                        b0 * fy[-1] + b1 * fy[-2] + b2 * fy[-3] + b3 * fy[-4] + b4 * fy[-5]
                        + b5 * fy[-6] + b6 * fy[-7] + b7 * fy[-8] + b8 * fy[-9] + b9 * fy[-10]
                    )
                    qr = tk * py
                    qz = -(1.0 + nf * pz + c * pz * py * py)
                    qy = -tk * pz * (1.0 + py * py) ** wp_exp
                    cr = r + h_s * (
                        a0 * qr + a1 * fr[-1] + a2 * fr[-2] + a3 * fr[-3] + a4 * fr[-4]
                        + a5 * fr[-5] + a6 * fr[-6] + a7 * fr[-7] + a8 * fr[-8] + a9 * fr[-9]
                    )
                    cz = z + h_s * (
                        a0 * qz + a1 * fz[-1] + a2 * fz[-2] + a3 * fz[-3] + a4 * fz[-4]
                        + a5 * fz[-5] + a6 * fz[-6] + a7 * fz[-7] + a8 * fz[-8] + a9 * fz[-9]
                    )
                    cy = y + h_s * (
                        a0 * qy + a1 * fy[-1] + a2 * fy[-2] + a3 * fy[-3] + a4 * fy[-4]
                        + a5 * fy[-5] + a6 * fy[-6] + a7 * fy[-7] + a8 * fy[-8] + a9 * fy[-9]
                    )
                    wp = (1.0 + cy * cy) ** wp_exp
                except OverflowError:
                    break
                # The gates, written so that NaN fails them.  With g'(y) =
                # (1 + alpha y^2)/wp, the rate is the handoff test's.
                if not (
                    abs(cz - pz) <= gap_atol + gap_rtol * abs(cz)
                    and abs(cy - py) <= gap_rtol * abs(cy)
                    and nf + c * cy * (cy + 2.0 * cz * tk * wp / (m * (1.0 + alpha * cy * cy)))
                    <= adams_cap
                ):
                    break
                r, z, y = cr, cz, cy
                if not (math.isfinite(r) and math.isfinite(z) and math.isfinite(y)):
                    raise SolverError(f"non-finite state at t = {tk:.6g}")
                r_ex.append(r)
                z_ex.append(z)
                y_ex.append(y)
                fr.append(tk * y)
                fz.append(-(1.0 + nf * z + c * z * y * y))
                fy.append(-tk * z * wp)
    tail = n_seg + 1  # first far-series node; past the end until the handoff
    k = launch + 1 + len(r_ex)  # the first node DOP853 fills
    if k <= n_seg:
        # DOP853 starts from the last node: the launch or the last Adams
        # node.  It runs the accept/reject loop up to each node, the last
        # step clipped to land on it, and the handoff test there.
        stepper = _CarriedSlopeStepper(n, alpha, t_nodes[k - 1], r, z, y, t_max, rtol, atol)
        step = stepper._rk_step
        t, f, h_abs = stepper.t, stepper.f, stepper.h_abs
        for k in range(k, n_seg + 1):
            tk = t_nodes[k]
            while t < tk:
                rejected = False
                while True:
                    # The step is at least ten ulps of t, which are at most
                    # 2.22e-15 t, so the floor is only worked out below 2.3e-15 t:
                    # the first attempt rises to it, a retry below it raises.
                    if h_abs <= 2.3e-15 * t:
                        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
                        if h_abs < min_step:
                            if rejected:
                                raise SolverError(
                                    f"integration failed near t = {t:.6g}: required step "
                                    "size is less than spacing between numbers"
                                )
                            h_abs = min_step
                    t_new = t + h_abs
                    if tk < t_new:
                        t_new = tk
                    h_abs = t_new - t
                    try:
                        state, f_new, error_norm = step(t, r, z, y, f, h_abs)
                    except OverflowError:
                        # A trial stage left float range; shrink like any
                        # rejected step and let the minimum step decide.
                        error_norm = math.inf
                    # The factors are bounded by comparisons that pick what min
                    # and max would, NaN included: a NaN norm is rejected, and
                    # its NaN factor loses to _MIN_FACTOR.
                    if error_norm < 1.0:
                        if error_norm == 0.0:
                            factor = _MAX_FACTOR
                        else:
                            factor = _SAFETY * error_norm ** _EXPONENT
                            if factor > _MAX_FACTOR:
                                factor = _MAX_FACTOR
                        if rejected and factor > 1.0:
                            factor = 1.0
                        h_abs *= factor
                        break
                    factor = _SAFETY * error_norm ** _EXPONENT
                    h_abs *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
                    rejected = True
                t, (r, z, y), f = t_new, state, f_new
            if not (math.isfinite(r) and math.isfinite(z) and math.isfinite(y)):
                raise SolverError(f"non-finite state at t = {tk:.6g}")
            r_ex.append(r)
            z_ex.append(z)
            y_ex.append(y)
            if k == n_seg:
                break
            j = k - launch - 1
            if not converged[j]:
                continue
            gap = abs(z - z_series[j])
            if gap > rtol * abs(z):
                dydz = tk / (m * _slope_map_deriv(alpha, y))
                if not n + c * (y * y + 2.0 * z * y * dydz) > rate_cap:
                    continue
                limit = atol + rtol * abs(z)
                if gap > limit:
                    raise SolverError(
                        f"(n, alpha) = ({n}, {alpha:g}) is outside the supported range: at "
                        f"t = {tk:.6g} the explicit stretch reached its stability cap with z "
                        f"{gap:.3g} off the far-field series, above the limit "
                        f"atol + rtol |z| = {limit:.3g}"
                    )
            tail = k + 1
            break
    explicit = slice(launch + 1, tail)
    r_nodes[explicit] = r_ex
    z_nodes[explicit] = z_ex
    y_nodes[explicit] = y_ex

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
        lead = (t_arr[h:] / m) ** (1.0 / alpha)
        y_nodes[tail:] = lead[1:] * u_sum[h - launch:]
        z_nodes[tail:] = z_far[h - launch:]
        t_lead = t_arr[h:] * lead  # t y_k = t_lead u_k x^k
        integral = t_lead * integral_sum[h - launch - 1:]
        log_t = np.log(t_arr[tail:] / t_nodes[h])
        factor = log_t if e[kr] == 0.0 else np.expm1(e[kr] * log_t) / e[kr]
        resonant = t_lead[0] * u_far[kr] * x_h[0] ** kr * factor
        r_nodes[tail:] = r_nodes[h] + (integral[1:] - integral[0]) + resonant
        big_f[tail:] = -2.0 * x_h[1:] / (alpha * c) * f_sum[h - launch:]

    profile = RadialProfile(
        params=params,
        grid=grid,
        r=np.concatenate(([0.0], r_nodes)),
        dr=np.concatenate(([0.0], y_nodes)),
        ddr=None,
        tol=tol,
        series=series,
        phase_z=None,
        dddr=None,
        launch=launch + 1,  # grid has the axis in front of t_nodes
        handoff=tail,
        _far=(u_far, w_far),
    )
    slots = vars(profile)
    for name in _DERIVED:
        del slots[name]
    slots["_unformed"] = (z_nodes, big_f)
    return profile

