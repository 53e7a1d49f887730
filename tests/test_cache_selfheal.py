"""Corrupted on-disk cache entries are quarantined and rebuilt, never fatal.

The self-healing contract of :mod:`repro.resilience.integrity`: truncating
or bit-flipping any cached ``.npz`` (mesh archive, compiled sparse
operator) must never crash a future run — the entry
is moved to ``quarantine/``, counted as ``resilience.cache.quarantined``
(tagged by cache kind), and rebuilt with correct results.  Before this
layer a truncated archive raised ``zipfile.BadZipFile`` out of ``np.load``
on every run that touched it.

Concurrent writers are covered too: real processes racing on a cold cache
entry must all succeed, do one build between them, and leave an entry that
verifies and loads bitwise equal to a serial build.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience.integrity import (
    QUARANTINE_DIRNAME,
    checked_load,
    quarantine,
    seal,
    verify,
)


@pytest.fixture()
def cache_sandbox(tmp_path, monkeypatch):
    """Redirect every disk cache into tmp and clear the memory layers."""
    from repro.engine.plan import clear_plan_memory_cache
    from repro.engine.sparse import clear_operator_memory_cache
    from repro.mesh.cache import clear_memory_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    clear_plan_memory_cache()
    clear_operator_memory_cache()
    yield tmp_path
    clear_memory_cache()
    clear_plan_memory_cache()
    clear_operator_memory_cache()


def _quarantined(registry: MetricsRegistry, kind: str) -> float:
    total = 0.0
    for s in registry.series("resilience.cache.quarantined"):
        if s.tags.get("kind") == kind:
            total += s.value
    return total


def _bitflip(path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _truncate(path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 3])


# ------------------------------------------------------------- unit layer
class TestIntegrityPrimitives:
    def test_seal_verify_roundtrip(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"payload bytes")
        assert verify(path) is None  # legacy: no sidecar yet
        sidecar = seal(path)
        assert sidecar.name == "entry.npz.crc"
        assert verify(path) is True

    def test_verify_detects_damage(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"payload bytes")
        seal(path)
        _bitflip(path)
        assert verify(path) is False

    def test_verify_detects_truncation_same_crc_impossible(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"x" * 100)
        seal(path)
        path.write_bytes(b"x" * 50)  # length check catches it
        assert verify(path) is False

    def test_unparseable_sidecar_is_suspect(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"payload")
        seal(path)
        path.with_name("entry.npz.crc").write_text("not a sidecar")
        assert verify(path) is False

    def test_quarantine_moves_file_sidecar_and_counts(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"payload")
        seal(path)
        registry = MetricsRegistry()
        with use_registry(registry):
            dest = quarantine(path, kind="operator")
        qdir = tmp_path / QUARANTINE_DIRNAME
        assert dest == qdir / "entry.npz"
        assert not path.exists()
        assert dest.exists()
        assert (qdir / "entry.npz.crc").exists()
        assert _quarantined(registry, "operator") == 1.0

    def test_quarantine_collision_gets_numeric_suffix(self, tmp_path):
        for expect in ("entry.npz", "entry.npz.1"):
            path = tmp_path / "entry.npz"
            path.write_bytes(b"payload")
            with use_registry(MetricsRegistry()):
                dest = quarantine(path, kind="mesh")
            assert dest.name == expect

    def test_checked_load_policies(self, tmp_path):
        class Stale(Exception):
            pass

        path = tmp_path / "entry.npz"
        path.write_bytes(b"payload")
        seal(path)
        # Missing file: None, nothing counted.
        registry = MetricsRegistry()
        with use_registry(registry):
            assert checked_load(tmp_path / "nope.npz", lambda p: 1, "k") is None
            # Healthy file: loader result passes through.
            assert checked_load(path, lambda p: "ok", "k") == "ok"
            # Stale (loader None or a declared stale error): rebuild in
            # place, no quarantine.
            assert checked_load(path, lambda p: None, "k") is None
            assert path.exists()

            def raise_stale(p):
                raise Stale()

            assert checked_load(path, raise_stale, "k", stale=(Stale,)) is None
            assert path.exists()
        assert _quarantined(registry, "k") == 0.0
        # Unreadable despite a good sidecar: quarantined.
        with use_registry(registry):

            def boom(p):
                raise ValueError("unreadable")

            assert checked_load(path, boom, "k") is None
        assert not path.exists()
        assert _quarantined(registry, "k") == 1.0


# ------------------------------------------------------ operator archives
class TestOperatorSelfHeal:
    @pytest.mark.parametrize("damage", [_bitflip, _truncate])
    def test_corrupt_operator_rebuilds(self, cache_sandbox, damage):
        from repro.engine.sparse import (
            clear_operator_memory_cache,
            operator_cache_path,
            sparse_operator,
        )
        from repro.mesh.cache import cached_mesh

        mesh = cached_mesh(2, lloyd_iterations=0)
        good = sparse_operator(mesh, "cell_divergence", use_disk=True)
        path = operator_cache_path(mesh, "cell_divergence")
        assert path.with_name(path.name + ".crc").exists()
        damage(path)
        clear_operator_memory_cache()
        registry = MetricsRegistry()
        with use_registry(registry):
            rebuilt = sparse_operator(mesh, "cell_divergence", use_disk=True)
        assert (good != rebuilt).nnz == 0
        assert _quarantined(registry, "operator") == 1.0
        assert list((path.parent / QUARANTINE_DIRNAME).glob("*.npz"))
        # The rebuilt archive is sealed and loads cleanly again.
        clear_operator_memory_cache()
        with use_registry(MetricsRegistry()) as reg2:
            sparse_operator(mesh, "cell_divergence", use_disk=True)
        assert _quarantined(reg2, "operator") == 0.0

    def test_legacy_unsealed_archive_still_loads(self, cache_sandbox):
        from repro.engine.sparse import (
            clear_operator_memory_cache,
            operator_cache_path,
            sparse_operator,
        )
        from repro.mesh.cache import cached_mesh

        mesh = cached_mesh(2, lloyd_iterations=0)
        good = sparse_operator(mesh, "vertex_curl", use_disk=True)
        path = operator_cache_path(mesh, "vertex_curl")
        path.with_name(path.name + ".crc").unlink()  # pre-integrity entry
        clear_operator_memory_cache()
        loaded = sparse_operator(mesh, "vertex_curl", use_disk=True)
        assert (good != loaded).nnz == 0


# ---------------------------------------------------------- mesh archives
class TestMeshSelfHeal:
    @pytest.mark.parametrize("damage", [_truncate, _bitflip])
    def test_corrupt_mesh_archive_rebuilds(self, cache_sandbox, damage):
        """Regression: a truncated mesh npz used to raise BadZipFile."""
        from repro.mesh.cache import (
            cached_mesh,
            clear_memory_cache,
            mesh_cache_path,
        )

        mesh = cached_mesh(2, lloyd_iterations=0)
        path = mesh_cache_path(2, lloyd_iterations=0)
        assert path.with_name(path.name + ".crc").exists()
        damage(path)
        clear_memory_cache()
        registry = MetricsRegistry()
        with use_registry(registry):
            rebuilt = cached_mesh(2, lloyd_iterations=0)
        assert rebuilt.nCells == mesh.nCells
        assert np.array_equal(rebuilt.xCell, mesh.xCell)
        assert _quarantined(registry, "mesh") == 1.0
        assert list((path.parent / QUARANTINE_DIRNAME).glob("*.npz"))


# ------------------------------------------------------- concurrent writers
ROOT = Path(__file__).parent.parent

#: One racer: wait for the start signal, then take the level-3 mesh and
#: every compiled operator through the disk cache, reporting how many mesh
#: builds it ran and a digest of what it got.
_RACER = """
import sys, time
from pathlib import Path
from repro.mesh import cache
from repro.mesh.mesh import Mesh
from tests.test_cache_selfheal import cache_digest

builds = []
real_build = Mesh.build.__func__


def counting_build(cls, *args, **kwargs):
    builds.append(1)
    return real_build(cls, *args, **kwargs)


Mesh.build = classmethod(counting_build)
ready, go = Path(sys.argv[1]), Path(sys.argv[2])
ready.touch()
while not go.exists():
    time.sleep(0.001)
print(cache_digest(cache.cached_mesh(3)), len(builds))
"""


def cache_digest(mesh, use_disk=None) -> str:
    """SHA-256 over a mesh's arrays and every compiled operator."""
    from repro.engine.sparse import _COMPILERS, sparse_operator

    h = hashlib.sha256()
    for part in (mesh.connectivity, mesh.metrics, mesh.trisk):
        for key, arr in sorted(vars(part).items()):
            h.update(key.encode())
            h.update(np.asarray(arr).tobytes())
    for op in sorted(_COMPILERS):
        m = sparse_operator(mesh, op, use_disk=use_disk)
        for arr in (m.data, m.indices, m.indptr):
            h.update(arr.tobytes())
    return h.hexdigest()


class TestConcurrentWriters:
    RACERS = 6

    def test_racing_processes_share_one_build(self, tmp_path, monkeypatch):
        """Regression: every writer used one fixed temp name, so racers on a
        cold cache died with FileNotFoundError in ``os.replace`` and the
        surviving archive could carry another writer's seal."""
        from repro.engine.sparse import clear_operator_memory_cache
        from repro.mesh.cache import clear_memory_cache, mesh_cache_path
        from repro.mesh.mesh import Mesh

        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        env = {
            "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}",
            "PATH": "/usr/bin:/bin",
            "HOME": os.environ["HOME"],
            "REPRO_CACHE_DIR": str(cache),
        }
        go = tmp_path / "go"
        ready = [tmp_path / f"ready{k}" for k in range(self.RACERS)]
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RACER, str(r), str(go)], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for r in ready
        ]
        try:
            deadline = time.monotonic() + 120.0
            while not all(r.exists() for r in ready):
                assert time.monotonic() < deadline, "racers never got ready"
                assert all(p.poll() is None for p in procs), "a racer died early"
                time.sleep(0.01)
            go.touch()
            outputs = [p.communicate(timeout=600) for p in procs]
        finally:
            for p in procs:
                p.kill()
        for p, (out, err) in zip(procs, outputs):
            assert p.returncode == 0, err

        reports = [out.split() for out, _ in outputs]
        assert sum(int(r[1]) for r in reports) == 1  # one build among all
        clear_memory_cache()
        clear_operator_memory_cache()
        serial = cache_digest(Mesh.build(3), use_disk=False)
        assert {r[0] for r in reports} == {serial}

        archives = [mesh_cache_path(3)]
        archives += sorted((cache / "operators").glob("*.npz"))
        assert len(archives) > 1
        for path in archives:
            assert verify(path) is True, path.name
        assert not list(cache.rglob("*.tmp"))
        assert not (cache / QUARANTINE_DIRNAME).exists()
        assert cache_digest(Mesh.load(archives[0]), use_disk=False) == serial
