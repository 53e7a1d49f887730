"""Per-pattern backend timing: numpy vs sparse.

The engine registry makes the backends interchangeable; this bench measures
what that choice costs.  Every registered stencil operator is timed under
each backend on a ladder of really-built SCVT meshes (the buildable analogue
of the paper's Table III ladder — icosahedral levels, cells quadrupling per
step), and the measurements are emitted both as a rendered table and as
machine-readable JSON (``results/kernel_backends.json``) for downstream
comparison — the start of the recorded backend-vs-backend perf trajectory.

The sparse backend replaces the per-call gather + reduce with one
precompiled CSR matvec, so in aggregate over its native ops it must beat
the numpy gathers (asserted on the top ladder level); the margin grows with
mesh size as the gather temporaries stop fitting in cache.  The Algorithm 2
loop/scatter forms the gather refactor replaced are timed by the Fig. 6
optimization-ladder bench, which calls :mod:`repro.swm.reference` directly.
"""

from __future__ import annotations

import json
import time

import numpy as np

from conftest import RESULTS_DIR, bench_level
from repro.bench import render_table
from repro.engine import BACKENDS, default_registry
from repro.mesh import cached_mesh

# (op, input point types) — every registered stencil operator.
_OPS = [
    ("flux_divergence", ("edge", "edge")),
    ("kinetic_energy", ("edge",)),
    ("cell_divergence", ("edge",)),
    ("velocity_reconstruction", ("edge",)),
    ("coriolis_edge_term", ("edge", "edge", "edge")),
    ("tangential_velocity", ("edge",)),
    ("d2fdx2", ("cell",)),
    ("cell_to_edge_mean", ("cell",)),
    ("vertex_from_cells_kite", ("cell",)),
    ("cell_from_vertices_kite", ("vertex",)),
    ("vertex_to_edge_mean", ("vertex",)),
    ("vertex_curl", ("edge",)),
    ("edge_gradient_of_cell", ("cell",)),
    ("edge_gradient_of_vertex", ("vertex",)),
]


def _fields(mesh, kinds, rng):
    n = {"cell": mesh.nCells, "edge": mesh.nEdges, "vertex": mesh.nVertices}
    return tuple(rng.standard_normal(n[kind]) for kind in kinds)


def _time_op(reg, op, mesh, fields, backend, repeats):
    fn, resolved = reg.op(op).resolve(backend)
    fn(mesh, *fields)  # warm-up (per-mesh caches, first-touch costs)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(mesh, *fields)
        best = min(best, time.perf_counter() - t0)
    return best, resolved


def test_kernel_backend_ladder(benchmark, report):
    levels = sorted({max(bench_level() - 1, 2), bench_level()})
    reg = default_registry()
    rng = np.random.default_rng(20150815)
    records = []

    def sweep():
        records.clear()
        for level in levels:
            mesh = cached_mesh(level)
            for op, kinds in _OPS:
                fields = _fields(mesh, kinds, rng)
                for backend in BACKENDS:
                    seconds, resolved = _time_op(
                        reg, op, mesh, fields, backend, repeats=5
                    )
                    records.append(
                        {
                            "op": op,
                            "pattern": reg.op(op).pattern,
                            "level": level,
                            "nCells": mesh.nCells,
                            "backend": backend,
                            "resolved_backend": resolved,
                            "seconds": seconds,
                        }
                    )
        return records

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "kernel_backends.json").write_text(
        json.dumps(records, indent=2) + "\n"
    )

    # Rendered table: one row per (op, level), columns per backend.
    by_key = {(r["op"], r["level"], r["backend"]): r for r in records}
    rows = []
    for op, _ in _OPS:
        for level in levels:
            cells = by_key[(op, level, "numpy")]["nCells"]
            row = [op, by_key[(op, level, "numpy")]["pattern"] or "-", cells]
            for backend in BACKENDS:
                r = by_key[(op, level, backend)]
                cell = f"{r['seconds'] * 1e6:.0f} us"
                if r["resolved_backend"] != backend:
                    cell += "*"
                row.append(cell)
            numpy_s = by_key[(op, level, "numpy")]["seconds"]
            sparse_s = by_key[(op, level, "sparse")]["seconds"]
            row.append(f"{numpy_s / sparse_s:.1f}x")
            rows.append(row)
    report(
        "kernel_backends",
        render_table(
            f"Per-pattern backend timing (levels {levels}; * = numpy fallback)",
            ["op", "pattern", "cells", *BACKENDS, "numpy/sparse"],
            rows,
        ),
    )

    # Sanity on the measurements themselves.
    assert all(r["seconds"] > 0 for r in records)
    # The optimization-ladder story: on the largest mesh, the precompiled
    # matvecs beat the numpy gathers in aggregate over the sparse-native
    # ops (per-op margins vary — the 2-lane means are already one fancy
    # index away from a matvec — so the claim is the aggregate one).
    top = max(levels)
    reg_entries = {op: reg.op(op) for op, _ in _OPS}
    sparse_native = [
        op for op, _ in _OPS if "sparse" in reg_entries[op].impls
    ]
    numpy_total = sum(by_key[(op, top, "numpy")]["seconds"] for op in sparse_native)
    sparse_total = sum(by_key[(op, top, "sparse")]["seconds"] for op in sparse_native)
    assert sparse_total < numpy_total
