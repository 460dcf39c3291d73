"""Radial finite-volume discretization.

Cells are centered at r_i = (i + 1/2) dr with faces at j dr, so the origin
is a face and the symmetry condition (zero gradient there) is exact.  The
diffusion term is the conservative flux difference

    div_i = (F_{i+1} - F_i) / (r_i^(N-1) dr),
    F_j   = rf_j^(N-1) * a_eps(g_j^2) * g_j,

with face gradients g_j = (u_j - u_{j-1})/dr, mobility a_eps(z) =
(z + eps^2)^((p-2)/2), and a Dirichlet-zero ghost beyond the outer face.
The symmetry face j = 0 carries no flux, so its weight rf_0^(N-1) is
taken as zero at every N (at N = 1 too, where r^0 would be 1): it adds
nothing to cell 0's diffusion row, and at N = 1 that row is 1/dr^2, half
of every other row.
The gradient source uses cell-averaged face gradients and b_eps(z) =
(z + eps^2)^(q/2); with the counterterm enabled the constant b_eps(0) =
eps^q is subtracted, computed by the same array power as the absorption,
so flat states have exactly zero absorption and the regularized flow
stays above the unregularized one.

A grid computes its geometry (dr, cell and face radii, metric weights)
once, at construction, and hands out the same read-only arrays on every
access.  At p = 2 the operator skips the unit mobility, and the step
bound reads the state only at the symmetry cell, as Python floats (see
stable_dt); such a step makes no one-cell numpy call, the outer ghost
face being a float division too.

The gradient terms of one state, shape (M,) -- face gradients g, cell
averages gbar, z = gbar^2 + eps^2, Z = z^(q/2) and, at p != 2, the face
weights rf^(N-1) a_eps(g^2) -- live in a StepTerms workspace: its
buffers, and the views of them that its fill and readers use, are made
once, and fill refills them from each new state by face_gradient's
formula on those views.  discrete_rhs, stable_dt and source_rate take a
filled workspace as their only input, grid, problem and regularization
included: a solver run fills one per step and hands it to each, a caller
with many states fills one workspace from each in turn, and a one-shot
caller passes StepTerms.of(grid, problem, reg, u).  face_gradient alone
also takes a stack of states, shape (..., M), as the series' record
blocks do.

A workspace holds each per-run constant in the form its use takes: a 0-d
float64 array where it is an operand of a numpy call, a Python float
where it enters float math.  At the sizes of short runs a step is a
dozen numpy calls on a few hundred cells, so the per-call cost sets its
time: with numpy 2.4 on 512 cells a call with a Python-float operand
costs about 0.2 us more than with a 0-d array (which takes the same IEEE
operation), while a 0-d operand in float math yields a numpy scalar at
about 1 us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponents import ExponentOutOfRange, ProblemParams


# fraction of the explicit step bound a step takes; the monotonicity of
# the explicit step needs a fraction of at most 1
SAFETY = 0.5


class GridMismatch(ValueError):
    """Field or problem incompatible with the grid it is used on."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform cell-centered grid on [0, r_max] with N-dimensional metric."""

    N: int
    r_max: float
    M: int

    def __post_init__(self):
        if (isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer))
                or self.N < 1):
            raise GridMismatch(f"dimension must be a positive integer, got {self.N!r}")
        if not 0 < self.r_max < math.inf:
            raise GridMismatch(f"r_max must be positive and finite, got {self.r_max}")
        if isinstance(self.M, bool) or not isinstance(self.M, (int, np.integer)):
            raise GridMismatch(f"cell count must be an integer, got {self.M!r}")
        if self.M < 4:
            raise GridMismatch(f"need at least 4 cells, got {self.M}")
        # geometry is computed once and read-only; equality, hash and
        # pickling stay over the three fields above
        dr = self.r_max / self.M
        r_cells = (np.arange(self.M) + 0.5) * dr
        r_faces = np.arange(self.M + 1) * dr
        metric_cells = r_cells ** (self.N - 1) * dr
        metric_faces = r_faces ** (self.N - 1)
        metric_faces[0] = 0.0       # no flux crosses the symmetry face
        geometry = {"_r_cells": r_cells, "_r_faces": r_faces,
                    "_metric_cells": metric_cells, "_metric_faces": metric_faces}
        object.__setattr__(self, "_dr", dr)
        for name, arr in geometry.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        return (type(self), (self.N, self.r_max, self.M))

    @property
    def dr(self) -> float:
        return self._dr

    @property
    def r_cells(self) -> np.ndarray:
        return self._r_cells

    @property
    def r_faces(self) -> np.ndarray:
        return self._r_faces

    @property
    def metric_cells(self) -> np.ndarray:
        """Cell measures r_i^(N-1) dr (the radial volume element)."""
        return self._metric_cells

    @property
    def metric_faces(self) -> np.ndarray:
        """Face weights rf_j^(N-1), zero at the symmetry face (no flux)."""
        return self._metric_faces


@dataclass
class Regularization:
    """Gradient regularization strength and the knob tied to it.

    eps enters both coefficient laws through z + eps^2.  counterterm=True
    subtracts b_eps(0) = (eps^2)^(q/2) from the absorption, taken by the
    same array power that evaluates the absorption, so constants are
    steady states of the regularized flow to the last bit (a scalar
    eps ** q differs from it by an ulp for some q).
    """

    eps: float
    counterterm: bool = True

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise ExponentOutOfRange(f"eps must be positive and finite, got {self.eps}")


def default_eps(grid: RadialGrid) -> float:
    """Default regularization tied to the mesh: eps = dr^(2/3).

    This tie keeps the explicit step monotone: the gradient source's
    off-diagonal derivative is bounded by q*eps^(q-1)/(2 dr) while the
    diffusion coupling is at least eps^(p-2)/dr^2, and their ratio
    (q/2) eps^(q+1-p) dr vanishes under dr^(2/3) for every admissible
    (p, q).  Finer resolution of thin structures needs an explicit
    override, which trades that guarantee away.
    """
    return grid.dr ** (2.0 / 3.0)


def face_gradient(grid: RadialGrid, u: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradients on the M+1 faces; zero at the origin by symmetry.

    The outer face differences against a zero ghost cell: the state is
    held at zero beyond r_max.  out, if given, receives the result; a
    state cut to its first n columns, with out of n + 1 faces, gets the
    faces of those columns, the ghost following the last.
    """
    u = np.asarray(u, dtype=float)
    g = np.empty(u.shape[:-1] + (grid.M + 1,)) if out is None else out
    g[..., 0] = 0.0
    _face_differences(u, g[..., 1:-1], g[..., -1:], grid.dr, -grid.dr)
    return g


def _face_differences(u: np.ndarray, inner: np.ndarray, outer: np.ndarray,
                      dr, neg_dr: float):
    """face_gradient's formula off the symmetry face: (u_j - u_(j-1))/dr
    into inner, the faces between cells, and -u_(M-1)/dr, the difference
    against the zero ghost, into outer (for one state, by the same IEEE
    division on a Python float).  dr, a float or a 0-d array, divides the
    inner faces; neg_dr is the float -dr."""
    np.subtract(u[..., 1:], u[..., :-1], out=inner)
    inner /= dr
    if u.ndim == 1:
        outer[0] = u.item(-1) / neg_dr
    else:
        np.divide(u[..., -1:], neg_dr, out=outer)


class StepTerms:
    """Workspace holding the gradient terms of one state, shape (M,).

    fill(u) computes the face gradients g by face_gradient's formula, the
    cell averages gbar = (g_i + g_(i+1))/2, z = gbar^2 + eps^2, Z =
    z^(q/2) and, at p != 2, the face weights rf^(N-1) a_eps(g^2); at p = 2
    the weights are the grid's read-only metric_faces.  The buffers are
    allocated once, together with the views fill and the readers use (the
    faces left and right of each cell, the faces off the symmetry face), so
    a fill or a read slices nothing; the symmetry face of g is zeroed once,
    and fill writes only the rest.

    The per-run constants (dr, eps^2, q, q/2, (p-2)/2, 0.5, the
    counterterm) are made once, as 0-d float64 arrays for the numpy calls
    and as floats for stable_dt's cell-0 term and the ghost face: a
    Python-float operand costs a numpy call about 0.2 us more (see the
    module docstring).  zero, the steps' clamp, and dt, a buffer each step
    writes its dt into, are 0-d arrays for the same reason.

    absorption returns Z less the counterterm in its own buffer, and
    source_rate(terms) another, of power Z / z, whose first cell stable_dt
    takes from floats by the same expression; discrete_rhs writes its
    fluxes into face_scratch (at N = 1 and p = 2, where every weight off
    the symmetry face is 1.0, it differences g itself) and returns
    cell_scratch, both free for a caller's own use otherwise.  The
    semi-implicit matrix writes its two bands, shape (2, M), into bands
    (bands[0, 0] stays zero) from the weights and metric_cells, the grid's
    cell measures.  A result stays valid until the buffer is written
    again.  A problem whose dimension is not the grid's is a GridMismatch.
    """

    def __init__(self, grid: RadialGrid, problem: ProblemParams, reg: Regularization):
        if problem.N != grid.N:
            raise GridMismatch(f"problem dimension {problem.N} vs grid dimension {grid.N}")
        self.grid, self.problem, self.reg = grid, problem, reg
        faces, cells = grid.M + 1, grid.M
        # per-run constants, each with the expression of its use, in the
        # form of its use (see the class docstring)
        q, dr, eps2 = problem.q, grid.dr, reg.eps * reg.eps
        self._q, self._dr, self._neg_dr = q, dr, -dr
        self._q_0d, self._dr_0d = np.array(q), np.array(dr)
        self._half, self._eps2 = np.array(0.5), np.array(eps2)
        self._half_q = np.array(q / 2.0)
        if problem.p != 2.0:
            self._mobility_power = np.array((problem.p - 2.0) / 2.0)
        # the counterterm is b_eps at zero gradient, (eps^2)^(q/2), taken by
        # the same array power as Z: a flat state's absorption is then
        # exactly zero; without it, Z - 0.0 is Z to the bit
        self._eps_q = np.array(np.power(np.full(1, eps2), q / 2.0).item()
                               if reg.counterterm else 0.0)
        # for the steps: the clamp's zero, and a buffer for each step's dt
        self.zero, self.dt = np.array(0.0), np.array(0.0)
        self.g = np.zeros(faces)
        self.gbar = np.empty(cells)
        self.z = np.empty(cells)
        self.Z = np.empty(cells)
        # at N = 1 and p = 2 every face weight off the symmetry face is
        # exactly 1.0 (r^0, unit mobility), and g is 0 on it, so the flux is
        # g itself: x * 1.0 == x and 0.0 * 0.0 == 0.0 to the bit
        self.unit_weights = problem.p == 2.0 and grid.N == 1
        self.metric_cells = grid.metric_cells
        self._cell_dr = grid.metric_cells * grid.dr
        if problem.p == 2.0:        # the mobility is exactly 1
            self.weights = grid.metric_faces
            # the step bound's diffusion rows at unit mobility: the symmetry
            # face has no weight, so at N = 1 row 0 is 1/dr^2 and every other
            # row 2/dr^2
            rows = (self.weights[1:] + self.weights[:-1]) / self._cell_dr
            self._unit_rows = (float(rows[0]), float(rows.max()))
        else:
            self.weights = np.empty(faces)
        self.face_scratch = np.empty(faces)
        self.cell_scratch = np.empty(cells)
        self.bands = np.zeros((2, grid.M))
        self._source = np.empty(cells)
        self._rate = np.empty(cells)
        self._power = np.empty(cells)
        # the faces off the symmetry face, and the left and right faces of
        # every cell, as views
        self._g_inner, self._g_outer = self.g[1:-1], self.g[-1:]
        self._g_left, self._g_right = self.g[:-1], self.g[1:]
        self._flux_left = self.face_scratch[:-1]
        self._flux_right = self.face_scratch[1:]

    @classmethod
    def of(cls, grid: RadialGrid, problem: ProblemParams, reg: Regularization,
           u: np.ndarray) -> "StepTerms":
        """A one-shot workspace filled from u, one state of shape (M,)."""
        u = np.asarray(u, dtype=float)
        if u.shape != (grid.M,):
            raise ValueError(f"a StepTerms workspace holds one state of shape "
                             f"{(grid.M,)}, not {u.shape}")
        return cls(grid, problem, reg).fill(u)

    def fill(self, u: np.ndarray) -> "StepTerms":
        # g[0], the symmetry face, stays at the zero it was made with
        _face_differences(u, self._g_inner, self._g_outer, self._dr_0d, self._neg_dr)
        gbar = np.add(self._g_left, self._g_right, out=self.gbar)
        gbar *= self._half
        z = np.multiply(gbar, gbar, out=self.z)
        z += self._eps2
        if self.problem.p != 2.0:
            w = np.multiply(self.g, self.g, out=self.weights)
            w += self._eps2
            np.power(w, self._mobility_power, out=w)
            w *= self.grid.metric_faces
        np.power(z, self._half_q, out=self.Z)
        return self

    def absorption(self) -> np.ndarray:
        """b_eps(gbar^2) = Z per cell, less b_eps(0) with the counterterm."""
        return np.subtract(self.Z, self._eps_q, out=self._source)


def _source_rate(rate, power, q, dr):
    """The source rate's expression, from rate = |gbar| (or max(-gbar_0,
    0)), power = Z / z and the constants q and dr; in place on arrays,
    with 0-d q and dr, and the same operations in the same order on
    floats."""
    rate *= q
    rate *= power
    rate /= dr
    return rate


def discrete_rhs(terms: StepTerms) -> np.ndarray:
    """du/dt of the semi-discrete scheme, flux divergence minus gradient
    source, at the state terms is filled from, in terms.cell_scratch."""
    if terms.unit_weights:
        div = np.subtract(terms._g_right, terms._g_left, out=terms.cell_scratch)
    else:
        np.multiply(terms.weights, terms.g, out=terms.face_scratch)
        div = np.subtract(terms._flux_right, terms._flux_left, out=terms.cell_scratch)
    div /= terms.metric_cells
    div -= terms.absorption()
    return div


def source_rate(terms: StepTerms) -> np.ndarray:
    """Per-cell Lipschitz bound of the explicit gradient source.

    d b_eps(gbar^2)/d u_(i+-1) = q gbar (gbar^2+eps^2)^(q/2-1) * (+-1/(2 dr));
    the two neighbor couplings sum to q |gbar| (gbar^2+eps^2)^(q/2-1) / dr.
    This vanishes on flat faces, so small eps only penalizes cells whose
    gradient actually sits near eps.  The power is the fill's Z over z.
    """
    return _source_rate(np.abs(terms.gbar, out=terms._rate),
                        np.divide(terms.Z, terms.z, out=terms._power),
                        terms._q_0d, terms._dr_0d)


def stable_dt(terms: StepTerms) -> float:
    """Explicit-Euler step bound: each cell's own coefficient stays
    nonnegative.

    The forward Euler update u_i + dt (div_i - b_eps(gbar_i^2)) is
    monotone when its derivative in every input cell is nonnegative.  Its
    derivative in the cell's own value u_i is 1 - dt row_i, with row_i
    the cell's own-cell rate:

    - diffusion: (rf_{i+1}^(N-1) a_{i+1} + rf_i^(N-1) a_i) / (r_i^(N-1)
      dr^2), the mobilities frozen at the current gradients.  At p < 2
      the true flux derivative is a + 2 a' g^2 = a (1 + (p-2) g^2 /
      (g^2 + eps^2)), between (p-1) a and a, so the frozen row bounds it;
      at p = 2 the rows are fixed by the grid, and the workspace keeps
      row_0 and the largest row.  The symmetry face carries no flux and
      has no weight (metric_faces), so cell 0's row holds its outer face
      alone: at N = 1 it is half of the others.
    - gradient source: gbar_i = (u_(i+1) - u_(i-1)) / (2 dr) does not
      hold u_i, except at the symmetry cell, where g_0 = 0 makes gbar_0 =
      (u_1 - u_0) / (2 dr).  Where the state falls there (gbar_0 < 0),
      the source adds q |gbar_0| (gbar_0^2+eps^2)^(q/2-1) / (2 dr), half
      of cell 0's source_rate; a rising origin raises cell 0's own
      coefficient and adds nothing.

    That term counts max(-gbar_0, 0), of power Z_0 / z_0, and comes from
    Python floats by source_rate's operations in the same order, at every
    p.  At p = 2 the largest own-cell rate is max(row_max, row_0 + term /
    2), and a NaN term leaves row_max in charge; at p < 2 half the term
    joins row_0, and a NaN term makes dt NaN.

    The derivatives in the neighbors, dt (rf^(N-1) a / (r_i^(N-1) dr^2)
    -+ q gbar (gbar^2+eps^2)^(q/2-1) / (2 dr)), carry dt only as a
    factor: their sign does not depend on dt, and the eps = dr^(2/3) tie
    of default_eps keeps them nonnegative.  So dt = SAFETY / max_i row_i
    keeps every own-cell coefficient at least 1 - SAFETY.  The workspace
    holds one state: a dt shared by many states is the least of theirs,
    SAFETY over their largest row, as division rounds monotonically.
    """
    # cell 0's source rate: half of it is the source's own-cell derivative
    g = terms.gbar.item(0)
    term = _source_rate(0.0 if g >= 0.0 else -g, terms.Z.item(0) / terms.z.item(0),
                        terms._q, terms._dr)
    if terms.problem.p == 2.0:      # at p = 2 the mobility is exactly 1
        row_0, row_max = terms._unit_rows
        # max(row_max, own) without the builtin's call, a third of the bound's
        # time: a NaN term leaves row_max, as max would
        own = row_0 + 0.5 * term
        own = own if own > row_max else row_max
    else:
        w = terms.weights
        rows = np.add(w[1:], w[:-1], out=terms._power)
        rows /= terms._cell_dr
        rows[0] += 0.5 * term
        own = float(rows.max())
    return SAFETY / own
