"""Discrete TRiSK operators on the C-grid, in regularity-aware gather form.

Every stencil operator here is written the way Section III-D of the paper
prescribes for shared-memory parallelism: as a *gather* over the output point
type (Algorithm 3), with signs and padding folded into precomputed label
matrices (Algorithm 4).  In NumPy this is also the fast form — a fancy-index
gather plus a row reduction — whereas the original edge-order *scatter* form
(Algorithm 2) needs ``np.add.at``.  Both forms exist in the code base: the
scatter/loop references live in :mod:`repro.swm.reference` and
:mod:`repro.reduction`, and the equivalence is covered by tests.

An :class:`OperatorPlan` caches, per mesh, the padded index and label-matrix
arrays all operators share.

The one non-linear stencil, the Coriolis/PV term (Table I pattern ``B1``),
runs as a :class:`CoriolisGather`: the same gather in a transposed
``(K, nEdges)`` layout with persistent scratch, bitwise equal to the
readable three-line expression kept in
:func:`repro.swm.reference.coriolis_edge_term_vectorized`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..mesh.mesh import Mesh

__all__ = [
    "OperatorPlan",
    "plan_for",
    "cell_divergence",
    "flux_divergence",
    "edge_gradient_of_cell",
    "edge_gradient_of_vertex",
    "vertex_curl",
    "cell_kinetic_energy",
    "cell_to_edge_mean",
    "vertex_from_cells_kite",
    "cell_from_vertices_kite",
    "vertex_to_edge_mean",
    "tangential_velocity",
    "coriolis_edge_term",
    "CoriolisGather",
    "coriolis_gather",
]


@dataclass(frozen=True)
class OperatorPlan:
    """Precomputed gather indices and label matrices for one mesh.

    The ``*_safe`` index arrays have fill entries clamped to 0; the matching
    label matrices carry 0 there, so padded lanes contribute nothing (the
    branch-free trick of Algorithm 4).
    """

    # cells <- edges
    eoc_safe: np.ndarray  # (nCells, maxEdges)
    sign_dv: np.ndarray  # edgeSignOnCell * dvEdge, 0-padded
    ke_weight: np.ndarray  # 0.25 * dcEdge * dvEdge, 0-padded
    inv_area_cell: np.ndarray  # (nCells,)

    # vertices <- edges
    eov: np.ndarray  # (nVertices, 3)
    sign_dc: np.ndarray  # edgeSignOnVertex * dcEdge

    # vertices <- cells
    cov: np.ndarray  # (nVertices, 3)
    kite: np.ndarray  # kiteAreasOnVertex
    inv_area_tri: np.ndarray  # (nVertices,)

    # cells <- vertices
    voc_safe: np.ndarray  # (nCells, maxEdges)
    kite_on_cell: np.ndarray  # kite area of (vertex, this cell), 0-padded

    # edges <- cells / vertices
    c0: np.ndarray
    c1: np.ndarray
    v0: np.ndarray
    v1: np.ndarray
    inv_dc: np.ndarray
    inv_dv: np.ndarray

    # edges <- edges (TRiSK), lanes-major: (2*maxEdges-2, nEdges)
    eoe_T: np.ndarray  # edgesOnEdge transposed, fill clamped to 0
    woe_T: np.ndarray  # weightsOnEdge transposed, 0-padded


_PLAN_KEEPALIVE: "weakref.WeakKeyDictionary[Mesh, OperatorPlan]" = (
    weakref.WeakKeyDictionary()
)


def plan_for(mesh: Mesh) -> OperatorPlan:
    """Return (building once) the operator plan of ``mesh``."""
    plan = _PLAN_KEEPALIVE.get(mesh)
    if plan is not None:
        return plan

    conn, met, tri = mesh.connectivity, mesh.metrics, mesh.trisk

    eoc = conn.edgesOnCell
    mask = (eoc >= 0).astype(np.float64)
    eoc_safe = np.where(eoc >= 0, eoc, 0)
    sign_dv = conn.edgeSignOnCell * met.dvEdge[eoc_safe] * mask
    ke_weight = 0.25 * met.dcEdge[eoc_safe] * met.dvEdge[eoc_safe] * mask

    eov = conn.edgesOnVertex
    sign_dc = conn.edgeSignOnVertex * met.dcEdge[eov]

    # kite area of (vertex v, cell c) looked up from the cell side:
    # kiteOnCell[c, j] pairs with verticesOnCell[c, j].
    voc = conn.verticesOnCell
    voc_safe = np.where(voc >= 0, voc, 0)
    vmask = (voc >= 0).astype(np.float64)
    # Build a sparse (vertex, cell) -> kite-area lookup:
    kite_lookup: dict[tuple[int, int], float] = {}
    for v in range(conn.n_vertices):
        for k in range(3):
            kite_lookup[(v, int(conn.cellsOnVertex[v, k]))] = float(
                met.kiteAreasOnVertex[v, k]
            )
    kite_on_cell = np.zeros_like(sign_dv)
    for c in range(conn.n_cells):
        for j in range(int(conn.nEdgesOnCell[c])):
            kite_on_cell[c, j] = kite_lookup[(int(voc[c, j]), c)]

    eoe = tri.edgesOnEdge
    eoe_safe = np.where(eoe >= 0, eoe, 0)
    # The TRiSK gathers take with mode="wrap", which would silently read
    # the wrong edge for an out-of-range index: check the table once.
    if eoe_safe.size and int(eoe_safe.max()) >= conn.n_edges:
        raise ValueError(
            f"edgesOnEdge holds an edge index >= nEdges ({conn.n_edges}): "
            "corrupt TRiSK connectivity"
        )

    plan = OperatorPlan(
        eoc_safe=eoc_safe,
        sign_dv=sign_dv,
        ke_weight=ke_weight,
        inv_area_cell=1.0 / met.areaCell,
        eov=eov,
        sign_dc=sign_dc,
        cov=conn.cellsOnVertex,
        kite=met.kiteAreasOnVertex,
        inv_area_tri=1.0 / met.areaTriangle,
        voc_safe=voc_safe,
        kite_on_cell=kite_on_cell * vmask,
        c0=conn.cellsOnEdge[:, 0],
        c1=conn.cellsOnEdge[:, 1],
        v0=conn.verticesOnEdge[:, 0],
        v1=conn.verticesOnEdge[:, 1],
        inv_dc=1.0 / met.dcEdge,
        inv_dv=1.0 / met.dvEdge,
        eoe_T=np.ascontiguousarray(eoe_safe.T),
        woe_T=np.ascontiguousarray(tri.weightsOnEdge.T),
    )
    _PLAN_KEEPALIVE[mesh] = plan
    return plan


# --------------------------------------------------------------------------
# cells <- edges (pattern family "A": mass point from velocity points)
# --------------------------------------------------------------------------


def cell_divergence(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Divergence at cells of a normal edge field: (1/A) * sum(sign*u*dv)."""
    p = plan_for(mesh)
    return np.sum(p.sign_dv * u_edge[p.eoc_safe], axis=1) * p.inv_area_cell


def flux_divergence(mesh: Mesh, u_edge: np.ndarray, h_edge: np.ndarray) -> np.ndarray:
    """Divergence of the thickness flux ``h_edge * u`` (drives ``tend_h``)."""
    p = plan_for(mesh)
    flux = u_edge * h_edge
    return np.sum(p.sign_dv * flux[p.eoc_safe], axis=1) * p.inv_area_cell


def cell_kinetic_energy(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Kinetic energy at cells: (1/A) * sum(0.25 * dc * dv * u^2)."""
    p = plan_for(mesh)
    u2 = u_edge * u_edge
    return np.sum(p.ke_weight * u2[p.eoc_safe], axis=1) * p.inv_area_cell


# --------------------------------------------------------------------------
# edges <- cells (pattern family "C": velocity point from mass points)
# --------------------------------------------------------------------------


def edge_gradient_of_cell(mesh: Mesh, phi_cell: np.ndarray) -> np.ndarray:
    """Normal gradient at edges of a cell field: (phi(c1) - phi(c0)) / dc."""
    p = plan_for(mesh)
    return (phi_cell[p.c1] - phi_cell[p.c0]) * p.inv_dc


def cell_to_edge_mean(mesh: Mesh, phi_cell: np.ndarray) -> np.ndarray:
    """Second-order ``h_edge``: plain average of the two adjacent cells."""
    p = plan_for(mesh)
    return 0.5 * (phi_cell[p.c0] + phi_cell[p.c1])


# --------------------------------------------------------------------------
# vertices <- edges (pattern family "D": vorticity point from velocity points)
# --------------------------------------------------------------------------


def vertex_curl(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """Relative vorticity at vertices: circulation / triangle area."""
    p = plan_for(mesh)
    return np.sum(p.sign_dc * u_edge[p.eov], axis=1) * p.inv_area_tri


# --------------------------------------------------------------------------
# vertices <- cells (pattern family "E")
# --------------------------------------------------------------------------


def vertex_from_cells_kite(mesh: Mesh, phi_cell: np.ndarray) -> np.ndarray:
    """Kite-area-weighted cell->vertex interpolation (e.g. ``h_vertex``)."""
    p = plan_for(mesh)
    return np.sum(p.kite * phi_cell[p.cov], axis=1) * p.inv_area_tri


# --------------------------------------------------------------------------
# cells <- vertices (pattern family "F")
# --------------------------------------------------------------------------


def cell_from_vertices_kite(mesh: Mesh, phi_vertex: np.ndarray) -> np.ndarray:
    """Kite-area-weighted vertex->cell interpolation (e.g. ``pv_cell``)."""
    p = plan_for(mesh)
    return np.sum(p.kite_on_cell * phi_vertex[p.voc_safe], axis=1) * p.inv_area_cell


# --------------------------------------------------------------------------
# edges <- vertices (pattern family "G")
# --------------------------------------------------------------------------


def vertex_to_edge_mean(mesh: Mesh, phi_vertex: np.ndarray) -> np.ndarray:
    """Average of the two edge endpoints (e.g. second-order ``pv_edge``)."""
    p = plan_for(mesh)
    return 0.5 * (phi_vertex[p.v0] + phi_vertex[p.v1])


def edge_gradient_of_vertex(mesh: Mesh, phi_vertex: np.ndarray) -> np.ndarray:
    """Tangential gradient at edges of a vertex field: (phi(v1)-phi(v0))/dv."""
    p = plan_for(mesh)
    return (phi_vertex[p.v1] - phi_vertex[p.v0]) * p.inv_dv


# --------------------------------------------------------------------------
# edges <- edges (pattern family "B"/"H": the wide TRiSK stencil)
# --------------------------------------------------------------------------

# Both ops gather over the lanes-major TRiSK table and sum its K rows per
# edge.  Summing whole (nEdges,) rows in numpy's own reduce order gives the
# bits of ``np.sum(·, axis=1)`` over the (nEdges, K) layout without its
# strided per-row reduce.

#: Widest stencil the explicit row sum is verified for (``K = 2*maxEdges-2``
#: up to maxEdges 21); wider stencils take the ``np.sum`` path.
_ROW_SUM_MAX_K = 40


def _row_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = np.sum(a.T, axis=1)`` bit for bit, by explicit row adds.

    ``a`` is a ``(K, n)`` scratch block (clobbered).  numpy reduces each
    contiguous row of an ``(n, K)`` array as ``+0.0 + pairwise(row)``,
    where ``pairwise`` keeps 8 lanes for ``K >= 8`` (lane j sums elements
    j, j+8, ... of the whole 8-blocks, then
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` plus the tail in order) and
    is sequential below 8.  The same adds over whole ``(n,)`` rows of the
    transposed block give the same bits without the strided reduce.
    """
    k = a.shape[0]
    if k >= 8:
        whole = k - k % 8
        for i in range(8, whole, 8):
            np.add(a[:8], a[i:i + 8], out=a[:8])
        np.add(a[0:8:2], a[1:8:2], out=a[0:8:2])
        np.add(a[0:8:4], a[2:8:4], out=a[0:8:4])
        np.add(a[0], a[4], out=a[0])
    else:
        whole = 1
    np.add(0.0, a[0], out=out)
    for i in range(whole, k):
        np.add(out, a[i], out=out)
    return out


def _probe_row_sum() -> bool:
    """Whether :func:`_row_sum` reproduces this numpy's ``np.sum(axis=1)``.

    Older numpy started the reduce from the first element instead of
    ``+0.0``; rows of signed zeros tell the two apart.  Checked for every
    ``K`` up to :data:`_ROW_SUM_MAX_K`; on any mismatch :func:`_sum_lanes`
    falls back to ``np.sum`` on the ``(nEdges, K)`` layout.
    """
    rng = np.random.default_rng(2015)
    for k in range(1, _ROW_SUM_MAX_K + 1):
        rows = rng.standard_normal((8, k)) * 10.0 ** rng.integers(-6, 7, (8, k))
        rows[0] = -0.0
        rows[1] = 0.0
        rows[2, ::2] = -0.0
        rows[3] = np.where(np.arange(k) % 2, 0.0, -0.0)
        want = np.sum(rows, axis=1)
        got = _row_sum(np.ascontiguousarray(rows.T), np.empty(rows.shape[0]))
        if not np.array_equal(want.view(np.uint64), got.view(np.uint64)):
            return False
    return True


_ROW_SUM_EXACT = _probe_row_sum()


def _sum_lanes(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = np.sum(g.T, axis=1)`` bit for bit for a ``(K, n)`` scratch ``g``.

    The explicit adds where the probe verified them, else ``np.sum`` on a
    contiguous ``(n, K)`` copy (the layout the reference expression sums).
    """
    if _ROW_SUM_EXACT and g.shape[0] <= _ROW_SUM_MAX_K:
        return _row_sum(g, out)
    out[...] = np.sum(np.ascontiguousarray(g.T), axis=1)
    return out


def tangential_velocity(mesh: Mesh, u_edge: np.ndarray) -> np.ndarray:
    """TRiSK tangential velocity: v_e = sum_j w_{e,j} u_{eoe(e,j)}."""
    p = plan_for(mesh)
    g = np.take(u_edge, p.eoe_T, mode="wrap")
    np.multiply(p.woe_T, g, out=g)
    return _sum_lanes(g, np.empty(mesh.nEdges))


def coriolis_edge_term(
    mesh: Mesh, u_edge: np.ndarray, h_edge: np.ndarray, pv_edge: np.ndarray
) -> np.ndarray:
    """Nonlinear Coriolis/PV momentum term.

    ``sum_j w_{e,j} * u_{e'} * h_edge_{e'} * 0.5 * (pv_edge_e + pv_edge_{e'})``
    with ``e' = edgesOnEdge(e, j)`` — the energy-neutral TRiSK form used by
    the MPAS shallow-water core.  Runs the mesh's :class:`CoriolisGather`
    into a fresh output array.
    """
    return coriolis_gather(mesh)(u_edge, h_edge, pv_edge, np.empty(mesh.nEdges))


class CoriolisGather:
    """The ``B1`` Coriolis/PV term over one mesh's TRiSK stencil.

    The paper's Algorithms 3/4 form — a branch-free gather with padding
    folded into zero weights — laid out transposed, ``(K, nEdges)`` with
    ``K = 2*maxEdges-2``, so every step streams whole contiguous rows:

    * two ``np.take(..., mode="wrap")`` gathers into persistent buffers
      (``plan_for`` guarantees every index is in range, so ``wrap`` never
      changes a value, and unlike ``mode="raise"`` it writes ``out``
      without an intermediate buffer);
    * the products in place, in the reference order:
      ``avg = 0.5*(pv_e + pv_e')`` then ``(w*flux_e')*avg``;
    * the row sum as explicit adds in numpy's exact reduce order
      (:func:`_sum_lanes`).

    The result is bitwise equal to the reference expression
    (:func:`repro.swm.reference.coriolis_edge_term_vectorized`).  One
    instance per mesh (:func:`coriolis_gather`) serves the numpy op and
    every plan on that mesh; its scratch makes a call not re-entrant
    across threads.
    """

    def __init__(self, eoe_T: np.ndarray, woe_T: np.ndarray) -> None:
        self.eoe = eoe_T
        self.woe = woe_T
        k, n = self.eoe.shape
        self._flux = np.empty(n)
        self._pv = np.empty(n)
        self._g = np.empty((k, n))
        self._p = np.empty((k, n))

    def __call__(
        self, u: np.ndarray, h: np.ndarray, pv: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Write the term into ``out``; the fields may be strided columns."""
        g, p = self._g, self._p
        flux = np.multiply(u, h, out=self._flux)
        if not pv.flags.c_contiguous:
            np.copyto(self._pv, pv)
            pv = self._pv
        np.take(flux, self.eoe, out=g, mode="wrap")
        np.take(pv, self.eoe, out=p, mode="wrap")
        np.add(pv, p, out=p)
        np.multiply(0.5, p, out=p)
        np.multiply(self.woe, g, out=g)
        np.multiply(g, p, out=g)
        return _sum_lanes(g, out)


_GATHER_KEEPALIVE: "weakref.WeakKeyDictionary[Mesh, CoriolisGather]" = (
    weakref.WeakKeyDictionary()
)


def coriolis_gather(mesh: Mesh) -> CoriolisGather:
    """Return (building once) the :class:`CoriolisGather` of ``mesh``."""
    gather = _GATHER_KEEPALIVE.get(mesh)
    if gather is None:
        p = plan_for(mesh)
        gather = _GATHER_KEEPALIVE[mesh] = CoriolisGather(p.eoe_T, p.woe_T)
    return gather
