"""Unconstrained limited-memory BFGS for the witness solver's tau stages.

One `minimize` call is one smoothed stage of `solver._run_start`: at most
k(d+1) parameters, an objective that returns its value and gradient
together, and a few dozen iterations.  The method follows L-BFGS-B (Byrd,
Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16(5), 1995) with no bounds and its
default settings, so a call without `pairs` takes the steps and about the
number of evaluations that code takes:

  * m = 10 correction pairs, applied by the two-loop recursion with
    H0 = (s'y / y'y) I from the newest pair, which is the inverse of
    L-BFGS-B's compact B0 = theta I;
  * the first step from no pairs is min(1/|g|, 1e10) along -g; every other
    step, the first one from carried pairs included, starts at the unit
    step along -H g;
  * the step is chosen by the Moré–Thuente line search (Moré & Thuente,
    ACM TOMS 20(3), 1994; MINPACK-2 `dcsrch` and `dcstep`) with ftol 1e-3,
    gtol 0.9, xtol 0.1, stpmin 0, stpmax 1e10 and at most 20 evaluations;
  * a pair with s'y <= eps * (-g's) is not stored (L-BFGS-B's rule);
  * a failed line search restores the last iterate, drops the pairs (the
    carried ones too) and retries from steepest descent; a failed search
    with no pairs to drop ends the run;
  * the run stops when max|g| <= 1e-5, when the relative decrease
    (f - f+) / max(|f|, |f+|, 1) is at most 1e7 * eps, or after `maxiter`
    iterations.

The caller may own the correction pairs: `minimize(..., pairs=q)` with q a
`deque(maxlen=MEMORY)` starts from the pairs in q and appends to q in
place, so a sequence of calls on related objectives (the solver's tau
stages) carries one memory from call to call.  L-BFGS-B always starts
from none.

A trial point whose value or gradient is not finite fails the line
search (the solver's objective scores a degenerate assembly inf).
`minimize` never raises on its own account.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

MEMORY = 10
PGTOL = 1e-5
EPS = np.finfo(float).eps
REL_DECREASE_TOL = 1e7 * EPS
FTOL, GTOL, XTOL = 1e-3, 0.9, 0.1
STPMAX = 1e10
MAXLS = 20

# reasons a run stops
GRADIENT = "gradient: max|g| <= 1e-5"
REL_DECREASE = "relative decrease of f <= 1e7 * eps"
MAXITER = "iteration limit reached"
LINE_SEARCH = "line search failed from steepest descent"


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    reason: str


def minimize(
    fun, x0, args=(), maxiter: int = 15000, pairs: deque | None = None
) -> MinimizeResult:
    """Minimize fun(x, *args) -> (value, gradient) from x0.  `nfev` counts
    calls to `fun`; a trial point equal to the one evaluated last reuses
    that evaluation.  `pairs`, a `deque(maxlen=MEMORY)` of (s, y, s'y)
    correction pairs, is read and updated in place; None starts from an
    empty memory."""
    x = np.array(x0, dtype=float)
    f, g = fun(x, *args)
    f, g = float(f), np.asarray(g, dtype=float)
    nfev, nit = 1, 0
    if np.max(np.abs(g)) <= PGTOL:
        return MinimizeResult(x, f, nfev, nit, GRADIENT)
    if pairs is None:
        pairs = deque(maxlen=MEMORY)
    last = (x, f, g)  # the point evaluated last, and its value and gradient

    def phi(stp: float) -> tuple[float, float] | None:
        """Value and slope along d at x + stp d (kept in `last`), or None
        for a trial that fails the search."""
        nonlocal nfev, last
        xt = x + stp * d
        if not np.array_equal(xt, last[0]):
            ft, gt = fun(xt, *args)
            nfev += 1
            last = (xt, float(ft), np.asarray(gt, dtype=float))
        ft, gt = last[1], last[2]
        if not math.isfinite(ft) or not np.isfinite(gt).all():
            return None
        return ft, float(gt @ d)

    while True:
        d = -_two_loop(g, pairs) if pairs else -g
        gd = float(g @ d)
        stp = min(1.0 / math.sqrt(d @ d), STPMAX) if nit == 0 and not pairs else 1.0
        stp = _line_search(phi, f, gd, stp) if gd < 0 else None
        if stp is None:
            if not pairs:
                return MinimizeResult(x, f, nfev, nit, LINE_SEARCH)
            pairs.clear()
            continue
        f_old, g_old = f, g
        x, f, g = last
        nit += 1
        if nit >= maxiter:
            return MinimizeResult(x, f, nfev, nit, MAXITER)
        if np.max(np.abs(g)) <= PGTOL:
            return MinimizeResult(x, f, nfev, nit, GRADIENT)
        if f_old - f <= REL_DECREASE_TOL * max(abs(f_old), abs(f), 1.0):
            return MinimizeResult(x, f, nfev, nit, REL_DECREASE)
        # s'y as L-BFGS-B forms it, from the directional derivatives
        y = g - g_old
        sy = (float(g @ d) - gd) * stp
        if sy > EPS * (-gd * stp):
            pairs.append((stp * d, y, sy))


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """H g for the L-BFGS inverse Hessian H of `pairs` over H0 = (s'y / y'y) I
    from the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        a = float(s @ q) / sy
        q -= a * y
        alphas.append(a)
    _, y, sy = pairs[-1]
    q *= sy / (y @ y)
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        q += (a - float(y @ q) / sy) * s
    return q


def _line_search(phi, finit: float, ginit: float, stp: float) -> float | None:
    """MINPACK-2 `dcsrch`: a step from `stp` along the search line that
    meets the sufficient-decrease and curvature conditions
    f(stp) <= finit + FTOL stp ginit and |f'(stp)| <= GTOL |ginit|, with
    finit and ginit < 0 the value and slope at 0.  phi(stp) evaluates the
    trial and returns its value and slope, or None to fail the search.
    Returns the accepted step, the last one evaluated, or None after a
    failed trial or MAXLS evaluations without one.  As in `dcsrch`, a
    search that cannot progress (the interval is below XTOL or rounding
    stalls it) accepts its last trial."""
    brackt, stage = False, 1
    gtest = FTOL * ginit
    width = STPMAX
    width1 = 2 * width
    stx = sty = 0.0
    fx = fy = finit
    gx = gy = ginit
    stmin, stmax = 0.0, stp + 4.0 * stp
    for _ in range(MAXLS):
        trial = phi(stp)
        if trial is None:
            return None
        f, g = trial
        ftest = finit + stp * gtest
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2
        if (
            (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax))
            or (stp == STPMAX and f <= ftest and g <= gtest)
            or (stp == 0.0 and (f > ftest or g >= gtest))
            or (f <= ftest and abs(g) <= GTOL * -ginit)
        ):
            return stp
        if stage == 1 and ftest < f <= fx:
            # step on psi(stp) = f(stp) - finit - stp gtest, which stage 1
            # must drive below 0 before f itself is used
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, g - gtest, brackt, stmin, stmax,
            )
            fx, fy = fxm + stx * gtest, fym + sty * gtest
            gx, gy = gxm + gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
            )
        if brackt:
            # bisect when the interval did not shrink enough over two steps
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), STPMAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax):
            stp = stx  # no further progress: take the best step so far
    return None


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 `dcstep`: the next trial step from the interval end stx
    (least value so far, slope dx pointing down towards stp), the other
    end sty and the trial stp, by safeguarded cubic and quadratic (secant)
    interpolation.  Returns the updated (stx, fx, dx, sty, fy, dy), the new
    step and whether a minimizer is bracketed.  IEEE arithmetic throughout,
    as in the Fortran: a degenerate interval gives inf or NaN, not an
    exception."""
    with np.errstate(all="ignore"):
        stx, fx, dx, sty, fy, dy, stp, fp, dp = map(
            np.float64, (stx, fx, dx, sty, fy, dy, stp, fp, dp)
        )
        opposite = (dp < 0 < dx) or (dx < 0 < dp)
        if fp > fx:
            # higher value: the minimizer is bracketed; take the cubic step
            # if it is nearer stx than the quadratic one, else their mean
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
            if stp < stx:
                gamma = -gamma
            p = (gamma - dx) + theta
            q = ((gamma - dx) + gamma) + dp
            stpc = stx + p / q * (stp - stx)
            stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
            if abs(stpc - stx) <= abs(stpq - stx):
                stpf = stpc
            else:
                stpf = stpc + (stpq - stpc) / 2.0
            brackt = True
        elif opposite:
            # the slope changed sign: bracketed; the step farther from stp
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
            if stp > stx:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dx
            stpc = stp + p / q * (stx - stp)
            stpq = stp + dp / (dp - dx) * (stx - stp)
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            brackt = True
        elif abs(dp) < abs(dx):
            # lower value, same slope sign, slope shrinking: the cubic step
            # only if it heads the right way, within the safeguards
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
            if stp > stx:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = (gamma + (dx - dp)) + gamma
            r = p / q
            if r < 0 and gamma != 0:
                stpc = stp + r * (stx - stp)
            elif stp > stx:
                stpc = stpmax
            else:
                stpc = stpmin
            stpq = stp + dp / (dp - dx) * (stx - stp)
            if brackt:
                stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
                if stp > stx:
                    stpf = min(stp + 0.66 * (sty - stp), stpf)
                else:
                    stpf = max(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
                stpf = min(max(stpf, stpmin), stpmax)
        elif brackt:
            # lower value, slope not shrinking, bracketed: cubic on stp, sty
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            stpf = stp + p / q * (sty - stp)
        else:
            stpf = stpmax if stp > stx else stpmin
        if fp > fx:
            sty, fy, dy = stp, fp, dp
        else:
            if opposite:
                sty, fy, dy = stx, fx, dx
            stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt
