"""Adaptive two-dimensional quadrature over the impact-parameter plane.

Cells are rectangles evaluated with the 17-node degree-7 Genz-Malik rule and
its embedded degree-5 rule, which reuses 13 of the nodes.  Three times the gap
between the two serves as the local error estimate (the bare gap fell short of
the true error at tolerance 1e-2), and cells are split into 4x4 children until
every component of the vector-valued integrand meets the requested relative
tolerance.

Each sweep splits only the cells the tolerance needs (excess cover): with the
cells ranked by their worst per-component error-to-tolerance ratio, it splits
the shortest leading run whose summed errors cover the excess
``total_error - tolerance`` of every component still above its tolerance.
The run never exceeds the cells with a positive ratio or the ``_MAX_CELLS``
budget (each split adds fifteen cells).  Evaluation is batched, so the
integrand receives whole point arrays of at most ``_CALL_CELLS`` cells (2176
points), which bounds its temporaries, and cell creation order is fixed,
which makes the final reduction deterministic regardless of scheduling.

A quadrant fast path integrates [0, W]^2 and multiplies by 4 for integrands
with mirror symmetry in both axes (homonuclear diatomic with the bond
projection on the x axis).
"""

from __future__ import annotations

import numpy as np

__all__ = ["integrate_b_plane", "QuadratureError"]

_SPLIT = 4             # a refined cell becomes _SPLIT x _SPLIT children
_CALL_CELLS = 128     # cells per integrand call: bounds the integrand's temporaries
_INITIAL_DIVISIONS = 8
_MIN_CELL_SIZE = 1e-6  # cells narrower than this are never split
_MAX_CELLS = 400_000   # cell budget of one integral
_ABS_TOL = 1e-30       # floor on the per-component tolerance
_ERR_FACTOR = 3.0      # safety factor on the degree-7 minus degree-5 gap


class QuadratureError(RuntimeError):
    """The b-plane integral cannot meet its tolerance; the message says why
    (for a failed refinement, the achieved error and the cell count)."""


def _genz_malik() -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, 1]^2 and a (17, 2) weight matrix for the degree-7 Genz-Malik
    rule (column 0) and its gap to the embedded degree-5 rule (column 1), which
    uses the first 13 nodes (Genz & Malik 1980, J. Comput. Appl. Math. 6:295)."""
    l2, l3, l5 = np.sqrt(9 / 70), np.sqrt(9 / 10), np.sqrt(9 / 19)
    axes = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
    diagonals = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    nodes = np.vstack([[[0, 0]], l2 * axes, l3 * axes, l3 * diagonals, l5 * diagonals])
    w7 = np.repeat([-3816, 2940, 1020, 200, 6859 / 4], [1, 4, 4, 4, 4]) / 19683
    w5 = np.repeat([-1942, 735, 65, 50, 0], [1, 4, 4, 4, 4]) / 1458
    return 0.5 * (nodes + 1.0), np.column_stack([w7, w7 - w5])


_NODES, _WEIGHTS = _genz_malik()
_CHILD_OFFSETS = np.array([(i, j) for i in range(_SPLIT) for j in range(_SPLIT)]) / _SPLIT


def _eval_cells(integrand, rects: np.ndarray):
    """Evaluate the rule pair on a (k, 4) array of [x0, y0, dx, dy] cells,
    at most _CALL_CELLS cells per integrand call.

    Returns (value, err), both (k, m): the degree-7 estimate and _ERR_FACTOR
    times its gap to the degree-5 estimate.
    """
    est = []
    for start in range(0, len(rects), _CALL_CELLS):
        part = rects[start:start + _CALL_CELLS]
        # x0 + dx * node, one coordinate at a time.
        pts = np.empty((len(part), len(_NODES), 2))
        for c in range(2):
            np.multiply(part[:, c + 2, None], _NODES[:, c], out=pts[:, :, c])
            pts[:, :, c] += part[:, c, None]
        vals = np.asarray(integrand(pts.reshape(-1, 2)), dtype=float).reshape(
            len(part), len(_NODES), -1)
        est.append((_WEIGHTS.T @ vals) * (part[:, 2] * part[:, 3])[:, None, None])
    est = est[0] if len(est) == 1 else np.concatenate(est)
    return est[:, 0], _ERR_FACTOR * np.abs(est[:, 1])


def _excess_cover(sorted_err: np.ndarray, excess: np.ndarray) -> int:
    """Length of the shortest prefix of ``sorted_err`` rows whose summed error
    covers ``excess`` in every component that is above its tolerance
    (``excess > 0``); all rows if no prefix does."""
    over = excess > 0
    covered = (sorted_err[:, over].cumsum(axis=0) >= excess[over]).all(axis=1)
    hits = covered.nonzero()[0]
    return int(hits[0]) + 1 if hits.size else len(sorted_err)


def _initial_edges(lo: float, hi: float, splits) -> np.ndarray:
    edges = np.linspace(lo, hi, _INITIAL_DIVISIONS + 1)
    interior = [s for s in splits if lo < s < hi]
    # Sorted and deduplicated; np.unique would import numpy.ma.
    edges = np.sort(np.concatenate([edges, np.asarray(interior, dtype=float)]))
    return edges[np.concatenate([[True], edges[1:] != edges[:-1]])]


def integrate_b_plane(
    integrand,
    *,
    half_width: float,
    rel_tol: float = 1e-3,
    quadrant: bool = False,
    x_splits=(),
    y_splits=(),
):
    """Integrate an (n, 2) -> (n, m) integrand over the b-plane square.

    The domain is [-W, W]^2, or [0, W]^2 times 4 when ``quadrant`` is set.
    ``x_splits``/``y_splits`` seed initial cell edges (atom projections land
    on cell corners, keeping singular points off quadrature nodes).  Returns
    (values, errors), each of length m.
    """
    if not 0.0 < half_width < np.inf:   # nan fails too
        raise ValueError(f"half_width must be positive and finite, got {half_width}")
    if not 0.0 < rel_tol < 1.0:         # nan fails too
        raise ValueError(f"rel_tol must be finite and in (0, 1), got {rel_tol}")

    lo, multiplier = (0.0, 4.0) if quadrant else (-half_width, 1.0)
    xe = _initial_edges(lo, half_width, x_splits)
    ye = _initial_edges(lo, half_width, y_splits)

    # [x0, y0, dx, dy] per cell, x-major.
    rects = np.empty((len(xe) - 1, len(ye) - 1, 4))
    rects[..., 0] = xe[:-1, None]
    rects[..., 1] = ye[:-1]
    rects[..., 2] = (xe[1:] - xe[:-1])[:, None]
    rects[..., 3] = ye[1:] - ye[:-1]
    rects = rects.reshape(-1, 4)
    high, err = _eval_cells(integrand, rects)

    while True:
        totals = high.sum(axis=0)
        tot_err = err.sum(axis=0)
        scale = np.maximum(np.abs(totals) * rel_tol, _ABS_TOL)
        if (tot_err <= scale).all():
            break

        refinable = np.minimum(rects[:, 2], rects[:, 3]) > _MIN_CELL_SIZE
        score = (err / scale[None, :]).max(axis=1)
        score[~refinable] = -1.0
        order = (-score).argsort(kind="stable")
        n_refine = min(
            _excess_cover(err[order], tot_err - scale),
            int(np.count_nonzero(score > 0)),
            (_MAX_CELLS - len(rects)) // (_SPLIT**2 - 1),
        )
        if n_refine <= 0:
            achieved = float(np.max(tot_err / np.maximum(np.abs(totals), _ABS_TOL)))
            raise QuadratureError(
                f"b-plane quadrature did not reach rel_tol={rel_tol:g} "
                f"(achieved {achieved:.3g} with {len(rects)} cells)")

        worst = order[:n_refine]
        keep = np.ones(len(rects), dtype=bool)
        keep[worst] = False

        # _SPLIT**2 children per parent, parent-major, in _CHILD_OFFSETS order.
        parents = rects[worst, None, :]
        children = np.empty((n_refine, _SPLIT**2, 4))
        np.multiply(_CHILD_OFFSETS, parents[..., 2:4], out=children[..., 0:2])
        children[..., 0:2] += parents[..., 0:2]
        children[..., 2:4] = parents[..., 2:4] / _SPLIT
        children = children.reshape(-1, 4)
        child_high, child_err = _eval_cells(integrand, children)

        rects = np.concatenate([rects[keep], children])
        high = np.concatenate([high[keep], child_high])
        err = np.concatenate([err[keep], child_err])

    return multiplier * totals, multiplier * tot_err
