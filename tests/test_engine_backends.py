"""Backend equivalence: numpy and sparse agree on every operator.

The refactor's correctness contract: selecting a backend changes *how* a
pattern executes, never *what* it computes.  The Algorithm-2 loop/scatter
forms of :mod:`repro.swm.reference` are the oracle behind the ``numpy``
gather operators; gather vs scatter reassociates the reductions, so they
agree to round-off.  The full-model check integrates the Galewsky jet
under each backend and requires <= 1e-12 relative agreement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.engine import BACKENDS, dispatch
from repro.geometry import lloyd_relax, normalize
from repro.mesh import Mesh
from repro.swm import reference as ref

# Reassociation tolerance for gather-vs-scatter reductions (matches the
# operator seed tests comparing repro.swm.reference to repro.swm.operators).
RTOL = 1e-11

# (op, input point types) for every registered stencil operator.
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

# Algorithm-2 loop/scatter oracle for every op except the fused C1,C2
# sweep, which has no loop-order transcription.
_LOOP_ORACLE = {
    "flux_divergence": ref.flux_divergence_scatter,
    "kinetic_energy": ref.cell_kinetic_energy_loop,
    "cell_divergence": ref.cell_divergence_scatter,
    "velocity_reconstruction": ref.velocity_reconstruction_loop,
    "coriolis_edge_term": ref.coriolis_edge_term_loop,
    "tangential_velocity": ref.tangential_velocity_loop,
    "cell_to_edge_mean": ref.cell_to_edge_mean_loop,
    "vertex_from_cells_kite": ref.vertex_from_cells_kite_loop,
    "cell_from_vertices_kite": ref.cell_from_vertices_kite_loop,
    "vertex_to_edge_mean": ref.vertex_to_edge_mean_loop,
    "vertex_curl": ref.vertex_curl_loop,
    "edge_gradient_of_cell": ref.edge_gradient_of_cell_loop,
    "edge_gradient_of_vertex": ref.edge_gradient_of_vertex_loop,
}
_LOOP_OPS = [(o, k) for o, k in _OPS if o in _LOOP_ORACLE]


def _fields(mesh, kinds, rng):
    n = {"cell": mesh.nCells, "edge": mesh.nEdges, "vertex": mesh.nVertices}
    return tuple(rng.standard_normal(n[kind]) for kind in kinds)


def _as_arrays(result):
    """Normalize tuple-valued ops (d2fdx2) to a tuple of arrays."""
    return result if isinstance(result, tuple) else (result,)


@pytest.fixture(scope="module", params=[3, 41])
def scvt_mesh(request):
    """Random (non-icosahedral) SCVT — backend agreement must not rely on
    icosahedral symmetry."""
    rng = np.random.default_rng(request.param)
    pts = lloyd_relax(normalize(rng.standard_normal((150, 3))), iterations=60).points
    return Mesh.from_points(pts, name=f"random150-{request.param}")


def _assert_backends_agree(mesh, rng, op, kinds):
    fields = _fields(mesh, kinds, rng)
    want = _as_arrays(dispatch(op, mesh, *fields, backend="numpy"))
    got = _as_arrays(dispatch(op, mesh, *fields, backend="sparse"))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=RTOL, atol=1e-14, err_msg=f"{op} under sparse")


def _assert_loop_oracle_agrees(mesh, rng, op, kinds):
    fields = _fields(mesh, kinds, rng)
    want = dispatch(op, mesh, *fields, backend="numpy")
    got = _LOOP_ORACLE[op](mesh, *fields)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-14, err_msg=f"{op} vs loop oracle")


class TestOperatorEquivalence:
    @pytest.mark.parametrize("op,kinds", _OPS, ids=[o for o, _ in _OPS])
    def test_backends_agree_on_mesh3(self, mesh3, rng, op, kinds):
        _assert_backends_agree(mesh3, rng, op, kinds)

    @pytest.mark.parametrize("op,kinds", _OPS, ids=[o for o, _ in _OPS])
    def test_backends_agree_on_random_scvt(self, scvt_mesh, rng, op, kinds):
        _assert_backends_agree(scvt_mesh, rng, op, kinds)

    @pytest.mark.parametrize("op,kinds", _LOOP_OPS, ids=[o for o, _ in _LOOP_OPS])
    def test_loop_oracle_agrees_on_mesh3(self, mesh3, rng, op, kinds):
        _assert_loop_oracle_agrees(mesh3, rng, op, kinds)

    @pytest.mark.parametrize("op,kinds", _LOOP_OPS, ids=[o for o, _ in _LOOP_OPS])
    def test_loop_oracle_agrees_on_random_scvt(self, scvt_mesh, rng, op, kinds):
        _assert_loop_oracle_agrees(scvt_mesh, rng, op, kinds)


class TestFullModelEquivalence:
    """The acceptance run: a Galewsky RK-4 integration under each backend
    selected purely through ``SWConfig.backend`` agrees to <= 1e-12."""

    @pytest.fixture(scope="class")
    def run_states(self):
        from repro.mesh import cached_mesh
        from repro.swm.config import SWConfig
        from repro.swm.galewsky import galewsky_jet
        from repro.swm.model import ShallowWaterModel, suggested_dt

        mesh = cached_mesh(2)
        case = galewsky_jet()
        states = {}
        for backend in BACKENDS:
            config = SWConfig(
                dt=suggested_dt(mesh, case, GRAVITY),
                thickness_adv_order=3,
                backend=backend,
            )
            model = ShallowWaterModel(mesh, config)
            model.initialize(case)
            result = model.run(steps=5)
            states[backend] = (result.state.h, result.state.u)
        return states

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "numpy"])
    def test_galewsky_run_agrees(self, run_states, backend):
        h_ref, u_ref = run_states["numpy"]
        h, u = run_states[backend]
        rel_h = np.max(np.abs(h - h_ref)) / np.max(np.abs(h_ref))
        rel_u = np.max(np.abs(u - u_ref)) / np.max(np.abs(u_ref))
        assert rel_h <= 1e-12
        assert rel_u <= 1e-12

    def test_invalid_backend_rejected(self):
        from repro.swm.config import SWConfig

        with pytest.raises(ValueError, match="backend"):
            SWConfig(dt=60.0, backend="fortran")


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_spans_carry_backend_tag(backend):
    """Every Algorithm-1 kernel span is tagged with the executing backend,
    so a trace buckets per backend without any wrapper integrator."""
    from repro.mesh import cached_mesh
    from repro.obs import Tracer, use_tracer
    from repro.swm.config import SWConfig
    from repro.swm.galewsky import galewsky_jet
    from repro.swm.model import suggested_dt
    from repro.swm.testcases import initialize
    from repro.swm.timestep import RK4Integrator

    mesh = cached_mesh(2)
    case = galewsky_jet()
    config = SWConfig(dt=suggested_dt(mesh, case, GRAVITY), backend=backend)
    state, b_cell = initialize(mesh, case)
    integ = RK4Integrator(mesh, config, b_cell, config.coriolis(mesh.metrics.latVertex))
    tracer = Tracer()
    with use_tracer(tracer):
        integ.step(state, integ.diagnostics_for(state))
    kernels = [s for s in tracer.finished() if s.category == "kernel"]
    from repro.patterns.catalog import KERNELS

    assert {s.name for s in kernels} <= set(KERNELS)
    assert {s.tags.get("backend") for s in kernels} == {backend}
