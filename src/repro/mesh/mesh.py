"""The assembled C-grid SCVT mesh: the substrate every other subsystem uses.

:class:`Mesh` bundles connectivity, metrics and TRiSK weights into a single
immutable object with MPAS field names, plus save/load and self-validation.
Meshes are built from icosahedral seeds (optionally Lloyd-relaxed into an
SCVT) or from arbitrary generator point sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..constants import EARTH_RADIUS, GEOM_RTOL
from ..geometry.cvt import lloyd_relax
from ..geometry.icosahedron import icosahedral_points, resolution_km
from .connectivity import Connectivity, build_connectivity
from .metrics import Metrics, build_metrics
from .trisk import TriskWeights, build_trisk_weights
from .voronoi import extract_voronoi

__all__ = [
    "Mesh",
    "MESH_FAMILY",
    "mesh_family_counts",
    "CACHE_FORMAT_VERSION",
    "MeshFormatError",
]

#: Format version of the ``.npz`` archives written by :meth:`Mesh.save`.
#: Bump whenever the saved field set or layout changes; :meth:`Mesh.load`
#: refuses archives with a different (or missing) stamp, and
#: :func:`repro.mesh.cache.cached_mesh` rebuilds instead of loading them.
#: Version 1 is the retroactive name for the unstamped seed layout.
CACHE_FORMAT_VERSION = 2


class MeshFormatError(RuntimeError):
    """A saved mesh archive has a missing or incompatible format version."""

#: The paper's quasi-uniform mesh family (Table III): nominal resolution name
#: -> icosahedral subdivision level.  ``10 * 4**level + 2`` cells each.
MESH_FAMILY: dict[str, int] = {
    "480km": 4,
    "240km": 5,
    "120km": 6,
    "60km": 7,
    "30km": 8,
    "15km": 9,
}


def mesh_family_counts() -> dict[str, int]:
    """Cell counts of the Table III mesh family (plus coarser test sizes)."""
    return {name: 10 * 4**lvl + 2 for name, lvl in MESH_FAMILY.items()}


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable C-staggered SCVT mesh on a sphere.

    All MPAS-style arrays from :class:`~repro.mesh.connectivity.Connectivity`,
    :class:`~repro.mesh.metrics.Metrics` and
    :class:`~repro.mesh.trisk.TriskWeights` are exposed as attributes.
    """

    connectivity: Connectivity
    metrics: Metrics
    trisk: TriskWeights
    name: str = "unnamed"
    #: Extra provenance (subdivision level, Lloyd sweeps) for reporting.
    info: dict = field(default_factory=dict)

    # ------------------------------------------------------------ delegation
    def __getattr__(self, item: str):
        # Only called for attributes not found normally; forward to parts.
        for part_name in ("connectivity", "metrics", "trisk"):
            part = object.__getattribute__(self, part_name)
            if hasattr(part, item):
                return getattr(part, item)
        raise AttributeError(item)

    @property
    def nCells(self) -> int:
        return self.connectivity.n_cells

    @property
    def nEdges(self) -> int:
        return self.connectivity.n_edges

    @property
    def nVertices(self) -> int:
        return self.connectivity.n_vertices

    @property
    def maxEdges(self) -> int:
        return self.connectivity.max_edges

    @property
    def radius(self) -> float:
        return self.metrics.radius

    @property
    def sphere_area(self) -> float:
        return 4.0 * np.pi * self.radius**2

    @property
    def nominal_resolution_km(self) -> float:
        """sqrt(mean cell area) in km — the Table III naming convention."""
        return float(np.sqrt(self.sphere_area / self.nCells) / 1000.0)

    # -------------------------------------------------------------- builders
    @classmethod
    def build(
        cls,
        level: int,
        lloyd_iterations: int = 4,
        radius: float = EARTH_RADIUS,
        name: str | None = None,
    ) -> "Mesh":
        """Build the quasi-uniform SCVT mesh at an icosahedral level.

        ``lloyd_iterations`` Lloyd sweeps relax the geodesic seeds toward the
        true SCVT (Table III meshes); 0 keeps the raw geodesic generators.
        """
        points = icosahedral_points(level)
        lloyd_iters_done = 0
        if lloyd_iterations > 0:
            result = lloyd_relax(points, iterations=lloyd_iterations)
            points = result.points
            lloyd_iters_done = result.iterations
        mesh = cls.from_points(
            points,
            radius=radius,
            name=name or f"icos{level}",
        )
        mesh.info.update(
            level=level,
            lloyd_iterations=lloyd_iters_done,
            nominal_resolution_km=resolution_km(level, radius),
        )
        return mesh

    @classmethod
    def from_points(
        cls, points: np.ndarray, radius: float = EARTH_RADIUS, name: str = "custom"
    ) -> "Mesh":
        """Build a mesh from arbitrary generator points on the sphere."""
        raw = extract_voronoi(points)
        conn = build_connectivity(raw)
        metrics = build_metrics(raw, conn, radius)
        trisk = build_trisk_weights(conn, metrics)
        return cls(connectivity=conn, metrics=metrics, trisk=trisk, name=name)

    # ------------------------------------------------------------ validation
    def validate(self, rtol: float = GEOM_RTOL) -> None:
        """Check the geometric identities of the C-grid; raise on violation."""
        self.connectivity.validate_euler()
        area = self.sphere_area
        exact_checks = {
            "sum(areaCell)": float(np.sum(self.metrics.areaCell)),
            "sum(areaTriangle)": float(np.sum(self.metrics.areaTriangle)),
        }
        for label, value in exact_checks.items():
            if not np.isclose(value, area, rtol=rtol):
                raise ValueError(f"{label} = {value:.6e} != sphere area {area:.6e}")
        # The edge-diamond tiling identity sum(dc * dv) / 2 == 4*pi*R^2 is
        # exact on the plane; on the sphere it holds to O(h^2) of the cell
        # diameter, so it is tested loosely (it still catches sign/pairing
        # bugs, which produce O(1) violations).
        diamond = float(np.sum(self.metrics.dcEdge * self.metrics.dvEdge) / 2.0)
        if not np.isclose(diamond, area, rtol=2e-2):
            raise ValueError(
                f"sum(dcEdge*dvEdge)/2 = {diamond:.6e} != sphere area {area:.6e}"
            )
        kite_sum = np.sum(self.metrics.kiteAreasOnVertex, axis=1)
        if not np.allclose(kite_sum, self.metrics.areaTriangle, rtol=1e-8):
            raise ValueError("kite areas do not partition the dual triangles")
        if np.any(self.metrics.dcEdge <= 0) or np.any(self.metrics.dvEdge <= 0):
            raise ValueError("non-positive edge lengths")

    # ----------------------------------------------------------------- I/O
    def save(self, path) -> None:
        """Serialize to a compressed ``.npz`` archive (a path or binary handle)."""
        conn, met, tri = self.connectivity, self.metrics, self.trisk
        np.savez_compressed(
            path,
            format_version=np.array(CACHE_FORMAT_VERSION),
            name=np.array(self.name),
            radius=np.array(met.radius),
            nEdgesOnCell=conn.nEdgesOnCell,
            verticesOnCell=conn.verticesOnCell,
            edgesOnCell=conn.edgesOnCell,
            cellsOnCell=conn.cellsOnCell,
            cellsOnEdge=conn.cellsOnEdge,
            verticesOnEdge=conn.verticesOnEdge,
            cellsOnVertex=conn.cellsOnVertex,
            edgesOnVertex=conn.edgesOnVertex,
            edgeSignOnCell=conn.edgeSignOnCell,
            edgeSignOnVertex=conn.edgeSignOnVertex,
            xCell=met.xCell,
            xEdge=met.xEdge,
            xVertex=met.xVertex,
            areaCell=met.areaCell,
            areaTriangle=met.areaTriangle,
            kiteAreasOnVertex=met.kiteAreasOnVertex,
            dcEdge=met.dcEdge,
            dvEdge=met.dvEdge,
            edgeNormal=met.edgeNormal,
            edgeTangent=met.edgeTangent,
            angleEdge=met.angleEdge,
            nEdgesOnEdge=tri.nEdgesOnEdge,
            edgesOnEdge=tri.edgesOnEdge,
            weightsOnEdge=tri.weightsOnEdge,
        )

    @classmethod
    def load(cls, path: str | Path) -> "Mesh":
        """Load a mesh previously written by :meth:`save`.

        Raises :class:`MeshFormatError` when the archive carries no
        ``format_version`` stamp (written by a pre-versioning layout) or a
        stamp other than :data:`CACHE_FORMAT_VERSION` — loading such a file
        blindly would crash on a missing field at best and silently corrupt
        downstream numerics at worst.  Callers holding a cache (see
        :func:`repro.mesh.cache.cached_mesh`) should catch it and rebuild.
        """
        from ..geometry.sphere import xyz_to_lonlat

        with np.load(Path(path)) as d:
            if "format_version" not in d.files:
                raise MeshFormatError(
                    f"{path} carries no mesh format-version stamp (written "
                    f"by a pre-version Mesh layout); rebuild it with "
                    f"Mesh.save"
                )
            found = int(d["format_version"])
            if found != CACHE_FORMAT_VERSION:
                raise MeshFormatError(
                    f"{path} has mesh format version {found}, this build "
                    f"reads version {CACHE_FORMAT_VERSION}; rebuild it with "
                    f"Mesh.save"
                )
            conn = Connectivity(
                n_cells=int(d["nEdgesOnCell"].shape[0]),
                n_edges=int(d["cellsOnEdge"].shape[0]),
                n_vertices=int(d["cellsOnVertex"].shape[0]),
                max_edges=int(d["edgesOnCell"].shape[1]),
                nEdgesOnCell=d["nEdgesOnCell"],
                verticesOnCell=d["verticesOnCell"],
                edgesOnCell=d["edgesOnCell"],
                cellsOnCell=d["cellsOnCell"],
                cellsOnEdge=d["cellsOnEdge"],
                verticesOnEdge=d["verticesOnEdge"],
                cellsOnVertex=d["cellsOnVertex"],
                edgesOnVertex=d["edgesOnVertex"],
                edgeSignOnCell=d["edgeSignOnCell"],
                edgeSignOnVertex=d["edgeSignOnVertex"],
            )
            lon_c, lat_c = xyz_to_lonlat(d["xCell"])
            lon_e, lat_e = xyz_to_lonlat(d["xEdge"])
            lon_v, lat_v = xyz_to_lonlat(d["xVertex"])
            metrics = Metrics(
                radius=float(d["radius"]),
                xCell=d["xCell"],
                xEdge=d["xEdge"],
                xVertex=d["xVertex"],
                lonCell=lon_c,
                latCell=lat_c,
                lonEdge=lon_e,
                latEdge=lat_e,
                lonVertex=lon_v,
                latVertex=lat_v,
                areaCell=d["areaCell"],
                areaTriangle=d["areaTriangle"],
                kiteAreasOnVertex=d["kiteAreasOnVertex"],
                dcEdge=d["dcEdge"],
                dvEdge=d["dvEdge"],
                edgeNormal=d["edgeNormal"],
                edgeTangent=d["edgeTangent"],
                angleEdge=d["angleEdge"],
            )
            trisk = TriskWeights(
                nEdgesOnEdge=d["nEdgesOnEdge"],
                edgesOnEdge=d["edgesOnEdge"],
                weightsOnEdge=d["weightsOnEdge"],
            )
            name = str(d["name"])
        return cls(connectivity=conn, metrics=metrics, trisk=trisk, name=name)
