"""Disk + memory cache of built meshes.

SCVT construction is deterministic, so meshes are cached by
``(level, lloyd_iterations, radius)``.  The cache directory defaults to
``~/.cache/repro-mpas`` and can be redirected with the ``REPRO_CACHE_DIR``
environment variable (useful on shared file systems).

Cache contract
--------------
* Disk filenames key the radius on its full ``repr`` (shortest exact
  round-trip), so two radii that differ by less than any rounding threshold
  get distinct files — ``r{radius:.0f}`` style truncation used to collide
  radii differing by < 0.5 m onto one archive.
* Every archive carries the :data:`CACHE_FORMAT_VERSION` stamp written by
  :meth:`~repro.mesh.mesh.Mesh.save`; a stale or unstamped file (older
  ``Mesh`` layout) is rebuilt and overwritten, never loaded blindly.
* The in-memory cache is keyed on ``use_disk`` too: a ``use_disk=False``
  call always gets a mesh built (or memoized) entirely without touching the
  disk cache, never a disk-loaded mesh memoized by an earlier
  ``use_disk=True`` call — and vice versa.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..constants import EARTH_RADIUS
from ..resilience.integrity import load_or_build
from .mesh import CACHE_FORMAT_VERSION, Mesh, MeshFormatError

__all__ = [
    "cached_mesh",
    "cache_dir",
    "clear_memory_cache",
    "CACHE_FORMAT_VERSION",
    "MeshFormatError",
]

_MEMORY: dict[tuple[int, int, float, bool], Mesh] = {}


def cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        path = Path(root)
    else:
        path = Path.home() / ".cache" / "repro-mpas"
    path.mkdir(parents=True, exist_ok=True)
    return path


def clear_memory_cache() -> None:
    """Drop in-process cached meshes (mainly for tests of the cache itself)."""
    _MEMORY.clear()


def mesh_cache_path(
    level: int, lloyd_iterations: int = 4, radius: float = EARTH_RADIUS
) -> Path:
    """The disk-cache archive path for one ``(level, lloyd, radius)`` triple.

    The radius is keyed on ``repr`` — the shortest string that round-trips
    the exact float — so distinct radii can never share a file.
    """
    return cache_dir() / f"icos{level}_lloyd{lloyd_iterations}_r{radius!r}.npz"


def cached_mesh(
    level: int,
    lloyd_iterations: int = 4,
    radius: float = EARTH_RADIUS,
    use_disk: bool = True,
) -> Mesh:
    """Return the SCVT mesh at ``level``, building it at most once.

    The in-memory cache makes repeated calls within one process free; the disk
    cache makes them cheap across processes (test runs, benchmarks).  See the
    module docstring for the cache contract — in particular,
    ``use_disk=False`` guarantees the returned mesh was never loaded from
    (nor saved to) the disk cache, even when a ``use_disk=True`` call in the
    same process already populated it.
    """
    key = (level, lloyd_iterations, radius, use_disk)
    mesh = _MEMORY.get(key)
    if mesh is not None:
        return mesh

    def build() -> Mesh:
        return Mesh.build(level, lloyd_iterations=lloyd_iterations, radius=radius)

    if use_disk:
        # Stale (older Mesh layout) rebuilds in place; a corrupt archive
        # (truncated/bit-flipped npz) is quarantined and rebuilt — either
        # way a bad cache entry is never fatal.  Concurrent processes on a
        # cold entry build it once.
        mesh = load_or_build(
            mesh_cache_path(level, lloyd_iterations, radius), Mesh.load, build,
            Mesh.save, kind="mesh", stale=(MeshFormatError,),
        )
        # Mark the mesh as having a persistent disk identity so dependent
        # caches (e.g. the sparse-operator cache) may persist alongside it.
        mesh.info.setdefault("disk_cached", True)
    else:
        mesh = build()
    _MEMORY[key] = mesh
    return mesh
