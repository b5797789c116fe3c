"""Oscillation-aware quadrature and the stationary-phase evaluation of the
resonance-kernel integrals

    I_n = int_{K_T} e^{i f(t) - i pi/4} dt,   f(t) = d t log(t / (e alpha n^{1/d})),

over K_T = [2 alpha T, 3 alpha T] for any finite T > 0 (each reader of T
calls model.require_scale).  The quadrature (integrate_oscillatory) uses
10-point Gauss-Legendre panels at most one local oscillation period wide
and doubles the panel count until two levels agree.  A level is streamed
through blocks of _BLOCK_PANELS panels: each block's terms are summed
pairwise (np.sum) and the block sums are added in ascending order, so a
level holds its panel edges and one block of nodes, O(_BLOCK_PANELS), not
its O(panels) nodes, and a level of one block is a single pairwise sum.
The panel budget is checked before the first level is built.

Conventions fixed by cross-validation against the quadrature itself (see the
transform module's convention notes):

  * the stationary point c = alpha n^{1/d} lies inside K_T exactly when
    (2T)^d < n < (3T)^d; the stationary-phase formula is served only there;
  * the main term carries the full stationary-phase constant sqrt(2 pi):
        I_n ~ sqrt(2 pi alpha / d) n^{1/(2d)} e^{-i d alpha n^{1/d}},
    the e^{+i pi/4} from f''(c) = d/c > 0 cancelling the kernel's e^{-i pi/4};
  * the first-derivative bound applies for n <= T^d (|f'| >= d log 2) and
    n >= (4T)^d (|f'| >= d log(4/3)); between those and the stationary window
    neither closed form is valid and only quadrature is offered.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import QuadratureError
from .model import require_alpha, require_scale

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)

MIN_PANELS = 8
PANEL_BUDGET = 2 ** 22
# Panels per block of a level: 10,240 nodes, so a block's nodes, weights,
# phase and values take under 1 MB and stay in a 2 MB L2 cache.  A level of
# any size then holds one block of nodes at a time, and the amplitude is
# called once per block.
_BLOCK_PANELS = 1024


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    panels: int
    est_error: float


@dataclass(frozen=True)
class PhaseFamily:
    """Phase f(t) = d t log(t / (e alpha x_n)) with x_n = n^{1/d}, plus its
    first derivative in closed form."""

    alpha: float
    n: int
    d: float

    def __post_init__(self):
        require_alpha(self.alpha)
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def x_n(self) -> float:
        return float(self.n) ** (1.0 / self.d)

    def f(self, t):
        return self.d * t * (np.log(t / (self.alpha * self.x_n)) - 1.0)

    def fprime(self, t):
        return self.d * np.log(t / (self.alpha * self.x_n))

    def interval(self, T: float) -> Tuple[float, float]:
        return 2.0 * self.alpha * T, 3.0 * self.alpha * T


def _panel_nodes(edges: np.ndarray):
    """Gauss-Legendre nodes and weights of the panels between edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    weights = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


def integrate_oscillatory(phase: Callable, K: Tuple[float, float], tol: float,
                          dphase: Callable,
                          amplitude: Optional[Callable] = None) -> QuadratureResult:
    """Adaptive panel quadrature of amplitude(t) e^{i phase(t)} over K.

    phase, dphase (its derivative) and amplitude take and return arrays.
    The target mesh keeps each panel under the shortest local oscillation
    period (from max |dphase| on 513 sample points), where the 10-point
    Gauss-Legendre remainder on e^{i rate t} is about 5e-15 times the panel
    width (Davis & Rabinowitz, Methods of Numerical Integration, 1984), and
    never uses fewer than MIN_PANELS panels.  Refinement starts one level
    below that density and doubles the panel count until two successive
    levels differ by less than tol, never returning a result from a mesh
    coarser than the one-period rule; est_error reports the last delta.
    The comparison, not the rule, is the check: an amplitude may oscillate
    faster than the phase.  Exact for the zero phase.

    Each level takes its edges from one linspace and is streamed through
    blocks of _BLOCK_PANELS panels: phase and amplitude see one block of
    nodes per call, in ascending order, each block is summed pairwise and
    the block sums are added in ascending block order.  Beside the level's
    panels + 1 edges, memory is therefore O(_BLOCK_PANELS) nodes, not
    O(panels) nodes, weights and values.  A one-period rule above
    PANEL_BUDGET can never be met, so it raises QuadratureError before the
    first level is built.
    """
    a, b = float(K[0]), float(K[1])
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if b < a:
        raise ValueError("interval must be ordered")
    if b == a:
        return QuadratureResult(0.0 + 0.0j, 0, 0.0)

    rate = float(np.max(np.abs(dphase(np.linspace(a, b, 513)))))
    rate *= 1.25  # sampling headroom

    # GL10 remainder at width h: h^21 (10!)^4 rate^20 / (21 (20!)^3), ~5e-15 h at one period
    width_cap = 2.0 * math.pi / rate if rate > 0 else math.inf
    n_rule = max(MIN_PANELS, int(math.ceil((b - a) / min(width_cap, (b - a)))))
    if n_rule > PANEL_BUDGET:
        raise QuadratureError(
            f"the one-period rule needs {n_rule} panels, above the budget "
            f"of {PANEL_BUDGET}")
    n_panels = max(MIN_PANELS, (n_rule + 1) // 2)

    def block(edges: np.ndarray) -> complex:
        nodes, weights = _panel_nodes(edges)
        theta = phase(nodes)
        vals = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=vals.real)
        np.sin(theta, out=vals.imag)
        if amplitude is not None:
            vals *= amplitude(nodes)
        vals *= weights
        return complex(np.sum(vals))

    def level(n: int) -> complex:
        edges = np.linspace(a, b, n + 1)
        total = block(edges[:_BLOCK_PANELS + 1])
        for lo in range(_BLOCK_PANELS, n, _BLOCK_PANELS):
            total += block(edges[lo:lo + _BLOCK_PANELS + 1])
        return total

    prev = level(n_panels)
    while True:
        n_next = n_panels * 2
        if n_next > PANEL_BUDGET:
            raise QuadratureError(
                f"no convergence to {tol} within {PANEL_BUDGET} panels")
        cur = level(n_next)
        delta = abs(cur - prev)
        if delta < tol and n_next >= n_rule:
            return QuadratureResult(cur, n_next, delta)
        prev, n_panels = cur, n_next


def in_stationary_range(pf: PhaseFamily, T: float) -> bool:
    require_scale(T)
    return 2.0 * T < pf.x_n < 3.0 * T


def I_n_quadrature(pf: PhaseFamily, T: float, tol: float) -> complex:
    """int_{K_T} e^{i f(t) - i pi/4} dt by adaptive panels."""
    require_scale(T)
    res = integrate_oscillatory(pf.f, pf.interval(T), tol, dphase=pf.fprime)
    return res.value * complex(math.cos(-math.pi / 4), math.sin(-math.pi / 4))


def I_n_stationary_phase(pf: PhaseFamily, T: float) -> complex:
    """Stationary-phase main term, valid for (2T)^d < n < (3T)^d:

        sqrt(2 pi alpha / d) n^{1/(2d)} e^{-i d alpha n^{1/d}}."""
    if not in_stationary_range(pf, T):
        raise ValueError(
            f"n = {pf.n} has no interior stationary point for T = {T}: "
            f"need (2T)^d < n < (3T)^d")
    amp = math.sqrt(2.0 * math.pi * pf.alpha / pf.d) * pf.n ** (1.0 / (2.0 * pf.d))
    return amp * np.exp(-1j * pf.d * pf.alpha * pf.x_n)


def first_derivative_bound(pf: PhaseFamily, T: float) -> float:
    """First-derivative-test bound (unit amplitude, monotone f'): 1/m_1 with
    m_1 = d log 2 for n <= T^d and m_1 = d log(4/3) for n >= (4T)^d.
    Validated only as an order bound (constant taken as 1)."""
    require_scale(T)
    if pf.x_n <= T:
        return 1.0 / (pf.d * math.log(2.0))
    if pf.x_n >= 4.0 * T:
        return 1.0 / (pf.d * math.log(4.0 / 3.0))
    raise ValueError(
        f"n = {pf.n} sits in or near the stationary window for T = {T}; "
        "the first-derivative bound needs n <= T^d or n >= (4T)^d")
