"""Adaptive two-dimensional quadrature over the impact-parameter plane.

Cells are rectangles evaluated with nested tensor Gauss-Legendre rules (4x4
against 8x8); the difference serves as the local error estimate and cells are
split until every component of the vector-valued integrand meets
the requested relative tolerance.

Each sweep splits only the cells the tolerance needs (excess cover): with the
cells ranked by their worst per-component error-to-tolerance ratio, it splits
the shortest leading run whose summed errors cover the excess
``total_error - tolerance`` of every component still above its tolerance.
The run never exceeds the cells with a positive ratio, the ``max_cells``
budget (each split adds three cells) or ``_BATCH`` cells.  Evaluation is
batched, so the integrand receives whole point arrays, and cell creation
order is fixed, which makes the final reduction deterministic regardless of
scheduling.

A quadrant fast path integrates [0, W]^2 and multiplies by 4 for integrands
with mirror symmetry in both axes (homonuclear diatomic with the bond
projection on the x axis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["integrate_b_plane", "QuadratureError"]

_LOW_ORDER = 4
_HIGH_ORDER = 8
_BATCH = 256          # ceiling on the cells one sweep splits (80 evals each)
_INITIAL_DIVISIONS = 8
_MIN_CELL_SIZE = 1e-6  # cells narrower than this are never split
_ABS_TOL = 1e-30       # floor on the per-component tolerance


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge; carries the best estimate."""

    def __init__(self, message, values, errors, n_cells):
        super().__init__(message)
        self.values = values
        self.errors = errors
        self.n_cells = n_cells


def _tensor_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)          # map to [0, 1]
    w = 0.5 * w
    px, py = np.meshgrid(x, x, indexing="ij")
    wts = np.outer(w, w).ravel()
    pts = np.column_stack([px.ravel(), py.ravel()])
    return pts, wts


_PTS_LO, _WTS_LO = _tensor_rule(_LOW_ORDER)
_PTS_HI, _WTS_HI = _tensor_rule(_HIGH_ORDER)
_PTS_ALL = np.vstack([_PTS_LO, _PTS_HI])
_N_LO = len(_WTS_LO)
_CHILD_OFFSETS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _eval_cells(integrand, rects: np.ndarray):
    """Evaluate low and high rules on a (k, 4) array of [x0, y0, dx, dy] cells.

    Returns (high, err), both (k, m).
    """
    k = len(rects)
    origin = rects[:, None, 0:2]
    size = rects[:, None, 2:4]
    pts = (origin + size * _PTS_ALL[None, :, :]).reshape(-1, 2)
    vals = np.asarray(integrand(pts), dtype=float).reshape(k, len(_PTS_ALL), -1)
    area = (rects[:, 2] * rects[:, 3])[:, None]
    low = np.einsum("kpm,p->km", vals[:, :_N_LO], _WTS_LO) * area
    high = np.einsum("kpm,p->km", vals[:, _N_LO:], _WTS_HI) * area
    return high, np.abs(high - low)


def _excess_cover(sorted_err: np.ndarray, excess: np.ndarray) -> int:
    """Length of the shortest prefix of ``sorted_err`` rows whose summed error
    covers ``excess`` in every component that is above its tolerance
    (``excess > 0``); all rows if no prefix does."""
    over = excess > 0
    covered = np.all(np.cumsum(sorted_err[:, over], axis=0) >= excess[over], axis=1)
    hits = np.flatnonzero(covered)
    return int(hits[0]) + 1 if hits.size else len(sorted_err)


def _initial_edges(lo: float, hi: float, splits) -> np.ndarray:
    edges = np.linspace(lo, hi, _INITIAL_DIVISIONS + 1)
    interior = [s for s in splits if lo < s < hi]
    edges = np.unique(np.concatenate([edges, np.asarray(interior, dtype=float)]))
    return edges


def integrate_b_plane(
    integrand,
    *,
    half_width: float,
    rel_tol: float = 1e-3,
    quadrant: bool = False,
    x_splits=(),
    y_splits=(),
    max_cells: int = 400_000,
):
    """Integrate an (n, 2) -> (n, m) integrand over the b-plane square.

    The domain is [-W, W]^2, or [0, W]^2 times 4 when ``quadrant`` is set.
    ``x_splits``/``y_splits`` seed initial cell edges (atom projections land
    on cell corners, keeping singular points off quadrature nodes).  Returns
    (values, errors), each of length m.
    """
    if half_width <= 0:
        raise ValueError(f"half_width must be positive, got {half_width}")

    lo, multiplier = (0.0, 4.0) if quadrant else (-half_width, 1.0)
    xe = _initial_edges(lo, half_width, x_splits)
    ye = _initial_edges(lo, half_width, y_splits)

    rects = np.array([
        (x0, y0, x1 - x0, y1 - y0)
        for x0, x1 in zip(xe[:-1], xe[1:])
        for y0, y1 in zip(ye[:-1], ye[1:])
    ])
    high, err = _eval_cells(integrand, rects)
    n_cells = len(rects)

    while True:
        totals = high.sum(axis=0)
        tot_err = err.sum(axis=0)
        scale = np.maximum(np.abs(totals) * rel_tol, _ABS_TOL)
        if np.all(tot_err <= scale):
            break

        refinable = np.minimum(rects[:, 2], rects[:, 3]) > _MIN_CELL_SIZE
        score = (err / scale[None, :]).max(axis=1)
        score[~refinable] = -1.0
        order = np.argsort(-score, kind="stable")
        n_refine = min(
            _excess_cover(err[order[:_BATCH]], tot_err - scale),
            int(np.count_nonzero(score > 0)),
            (max_cells - n_cells) // 3,
        )
        if n_refine <= 0:
            achieved = float(np.max(tot_err / np.maximum(np.abs(totals), _ABS_TOL)))
            raise QuadratureError(
                f"b-plane quadrature did not reach rel_tol={rel_tol:g} "
                f"(achieved {achieved:.3g} with {n_cells} cells)",
                multiplier * totals, multiplier * tot_err, n_cells,
            )

        worst = order[:n_refine]
        keep = np.ones(len(rects), dtype=bool)
        keep[worst] = False

        # Four children per parent, parent-major, in _CHILD_OFFSETS order.
        half = 0.5 * rects[worst, None, 2:4]
        children = np.concatenate(
            [rects[worst, None, 0:2] + _CHILD_OFFSETS * half,
             np.broadcast_to(half, (n_refine, 4, 2))], axis=2,
        ).reshape(-1, 4)
        child_high, child_err = _eval_cells(integrand, children)

        rects = np.concatenate([rects[keep], children])
        high = np.concatenate([high[keep], child_high])
        err = np.concatenate([err[keep], child_err])
        n_cells += 3 * n_refine

    return multiplier * totals, multiplier * tot_err
