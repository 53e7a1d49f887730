"""Fused execution plans: scheduling, bitwise equivalence, caching, lint.

Contracts pinned here:

* the substep scheduler — program order is a verified topological order
  and halo exchanges segment the fused program;
* plan-vs-unfused **bitwise** equivalence — every fused kernel (tend,
  diagnostics, reconstruct) reproduces the unfused sparse backend bit for
  bit, per kernel on icosahedral and random SCVT meshes across the
  physics options, and end-to-end over 10 Galewsky RK steps in serial,
  split and 4-rank pool execution;
* the plan cache — per-mesh memoization keyed by the structure-affecting
  config fields (a dt change recompiles);
* the registry lint — every Algorithm-1 operator is either plannable or an
  intentional planned fallback, and every scheduled Table I label has an
  emitter or a whitelist entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataflow.schedule import schedule_substep, topological_order
from repro.engine import default_registry, use_placements
from repro.engine.plan import (
    PLAN_FALLBACK_OPS,
    PLAN_LOCAL_LABELS,
    PLANNED_OPS,
    clear_plan_memory_cache,
    compile_plan,
    compiled_plan,
    plan_key,
    unplanned_labels,
)
from repro.engine.sparse import clear_operator_memory_cache
from repro.hybrid.executor import Placement
from repro.swm.config import SWConfig
from repro.swm.diagnostics import compute_solve_diagnostics
from repro.swm.model import initialize
from repro.swm.reconstruct import mpas_reconstruct
from repro.swm.state import State
from repro.swm.tendencies import compute_tend

DIAG_FIELDS = (
    "h_edge", "ke", "vorticity", "divergence", "v",
    "h_vertex", "pv_vertex", "pv_cell", "pv_edge",
)
RECON_FIELDS = (
    "uReconstructX", "uReconstructY", "uReconstructZ",
    "uReconstructZonal", "uReconstructMeridional",
)

# The physics options a plan bakes in, exercised per kernel.
CONFIGS = {
    "default": dict(),
    "order3_apvm": dict(thickness_adv_order=3, apvm_upwinding=0.5),
    "order4": dict(thickness_adv_order=4),
    "viscous": dict(viscosity=1.0e4),
    "hyperviscous": dict(thickness_adv_order=4, hyperviscosity=1.0e13),
}


def _cfg(plan=False, **kw):
    kw.setdefault("dt", 60.0)
    return SWConfig(backend="sparse", plan=plan, **kw)


def _galewsky_inputs(mesh):
    from repro.swm.galewsky import galewsky_jet

    cfg = _cfg()
    state, b_cell = initialize(mesh, galewsky_jet())
    return state, b_cell, cfg.coriolis(mesh.metrics.latVertex)


@pytest.fixture()
def plan_cache(tmp_path, monkeypatch):
    """Redirect the disk cache and clear plan/operator memory around a test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_plan_memory_cache()
    clear_operator_memory_cache()
    yield tmp_path
    clear_plan_memory_cache()
    clear_operator_memory_cache()


# -------------------------------------------------------------- scheduling
class TestSchedule:
    def test_program_order_is_topological(self):
        sched = schedule_substep(_cfg(thickness_adv_order=4), stage=1)
        assert topological_order(sched.graph) == list(sched.graph.order)

    def test_halo_exchanges_segment_the_substep(self):
        sched = schedule_substep(_cfg(thickness_adv_order=4), stage=1)
        assert len(sched.segments) == 2
        pre, post = sched.segments
        # Tendencies + local updates depend only on the pre-exchange...
        assert len(pre.barriers) == 1
        assert set(sched.graph.instance(n).label for n in pre.nodes) >= {"A1", "B1"}
        # ... and the diagnostics wait for both exchanges.
        assert len(post.barriers) == 2
        assert "D1" in [sched.graph.instance(n).label for n in post.nodes]

    def test_stage4_schedules_reconstruction(self):
        sched = schedule_substep(_cfg(), stage=4)
        assert sched.nodes_for_kernel("mpas_reconstruct")


# -------------------------------------------------------------------- lint
class TestRegistryLint:
    def test_every_op_planned_or_whitelisted(self):
        assert PLANNED_OPS | PLAN_FALLBACK_OPS == set(default_registry().ops())
        assert not PLANNED_OPS & PLAN_FALLBACK_OPS

    def test_every_scheduled_label_plannable(self):
        for name, kw in CONFIGS.items():
            assert unplanned_labels(_cfg(**kw)) == set(), name

    def test_local_labels_are_really_local(self):
        sched = schedule_substep(_cfg(), stage=4)
        for node in sched.nodes():
            inst = sched.graph.instance(node)
            if inst.label in PLAN_LOCAL_LABELS:
                assert inst.is_local, inst.label


# ------------------------------------------------------------- validation
class TestConfigValidation:
    def test_plan_requires_sparse_backend(self):
        with pytest.raises(ValueError, match="backend='sparse'"):
            SWConfig(dt=60.0, backend="numpy", plan=True)

    def test_compile_rejects_non_sparse(self, mesh3):
        with pytest.raises(ValueError, match="sparse"):
            compile_plan(mesh3, SWConfig(dt=60.0, backend="numpy"))


# ------------------------------------------------- per-kernel bitwise laws
def _assert_kernels_bitwise(mesh, kw):
    state, b_cell, f_vertex = _galewsky_inputs(mesh)
    ref_cfg = _cfg(**kw)
    plan_cfg = _cfg(plan=True, **kw)
    diag = compute_solve_diagnostics(mesh, state, f_vertex, ref_cfg)
    pd = compute_solve_diagnostics(mesh, state, f_vertex, plan_cfg)
    for f in DIAG_FIELDS:
        assert np.array_equal(getattr(diag, f), getattr(pd, f)), f
    th, tu = compute_tend(mesh, state, diag, b_cell, ref_cfg)
    pth, ptu = compute_tend(mesh, state, pd, b_cell, plan_cfg)
    assert np.array_equal(th, pth)
    assert np.array_equal(tu, ptu)
    r = mpas_reconstruct(mesh, state.u, backend="sparse")
    pr = compiled_plan(mesh, plan_cfg).reconstruct(state.u)
    for f in RECON_FIELDS:
        assert np.array_equal(getattr(r, f), getattr(pr, f)), f


class TestKernelBitwise:
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_icosahedral(self, mesh3, name):
        _assert_kernels_bitwise(mesh3, CONFIGS[name])

    @pytest.mark.parametrize("seed", [11, 23])
    def test_random_scvt(self, seed):
        from repro.geometry import lloyd_relax, normalize
        from repro.mesh import Mesh

        rng = np.random.default_rng(seed)
        pts = lloyd_relax(
            normalize(rng.standard_normal((120, 3))), iterations=60
        ).points
        mesh = Mesh.from_points(pts, name=f"plan-random120-{seed}")
        _assert_kernels_bitwise(mesh, CONFIGS["order3_apvm"])

    def test_advection_only_freezes_velocity(self, mesh3):
        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        cfg = _cfg(plan=True, advection_only=True)
        diag = compute_solve_diagnostics(mesh3, state, f_vertex, cfg)
        th, tu = compute_tend(mesh3, state, diag, b_cell, cfg)
        ref = compute_tend(
            mesh3, state, diag, b_cell, _cfg(advection_only=True)
        )
        assert np.array_equal(th, ref[0])
        assert not tu.any()

    def test_instability_raises_like_unfused(self, mesh3):
        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        bad = State(h=np.full_like(state.h, -1.0), u=state.u)
        with pytest.raises(FloatingPointError, match="unstable"):
            compute_solve_diagnostics(mesh3, bad, f_vertex, _cfg(plan=True))


# ---------------------------------------------------- end-to-end 10 steps
class TestAcceptanceRun:
    """10 Galewsky RK steps: plan bitwise == unfused sparse in all modes."""

    @pytest.fixture(scope="class")
    def galewsky_states(self, mesh3):
        from repro import api

        case = api.resolve_case("galewsky")
        dt = api.suggested_dt(mesh3, case, 9.80616, cfl=0.5)
        ref = api.run(
            case, mesh=mesh3, config=api.SWConfig(dt=dt, backend="sparse"),
            steps=10,
        )
        return {"dt": dt, "h": ref.state.h, "u": ref.state.u}

    def _run(self, mesh3, dt, **kw):
        from repro import api

        case = api.resolve_case("galewsky")
        return api.run(
            case, mesh=mesh3,
            config=api.SWConfig(dt=dt, backend="sparse", plan=True, **kw),
            steps=10,
        )

    def test_serial_bitwise(self, mesh3, galewsky_states):
        result = self._run(mesh3, galewsky_states["dt"])
        assert np.array_equal(result.state.h, galewsky_states["h"])
        assert np.array_equal(result.state.u, galewsky_states["u"])

    def test_split_bitwise(self, mesh3, galewsky_states):
        from repro.obs.metrics import MetricsRegistry, use_registry

        labels = ("A1", "A2", "A3", "A4", "B2", "D1", "E1", "F1", "G1", "H1")
        placements = {
            lab: Placement(device="split", cpu_fraction=0.43) for lab in labels
        }
        with use_registry(MetricsRegistry()) as metrics:
            with use_placements(placements):
                result = self._run(mesh3, galewsky_states["dt"])
        assert np.array_equal(result.state.h, galewsky_states["h"])
        assert np.array_equal(result.state.u, galewsky_states["u"])
        # Split placements skip the plan: every split label ran through the
        # registry's split dispatch, and no fused segment ran at all.
        split_ops = {
            s.tags["op"]
            for s in metrics.series("engine.split.band_points")
            if s.value > 0
        }
        reg = default_registry()
        for lab in labels:
            assert any(reg.op(op).pattern == lab for op in split_ops), lab
        assert not metrics.series("engine.plan")

    def test_pool_bitwise(self, mesh3, galewsky_states):
        result = self._run(
            mesh3, galewsky_states["dt"], parallel="pool", ranks=4
        )
        assert np.array_equal(result.state.h, galewsky_states["h"])
        assert np.array_equal(result.state.u, galewsky_states["u"])


# ------------------------------------------------------------- plan cache
class TestPlanCache:
    def test_memoized_per_config_key(self, mesh3, plan_cache):
        a = compiled_plan(mesh3, _cfg(plan=True))
        b = compiled_plan(mesh3, _cfg(plan=True))
        assert a is b
        # The rollback handler halves dt in place: a different key, plan.
        c = compiled_plan(mesh3, _cfg(plan=True, dt=30.0))
        assert c is not a
        assert plan_key(_cfg(dt=30.0)) != plan_key(_cfg())


# ----------------------------------------------------------- observability
class TestObservability:
    def test_plan_stage_spans(self, mesh3):
        from repro.obs.trace import Tracer, use_tracer

        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        cfg = _cfg(plan=True)
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            compute_solve_diagnostics(mesh3, state, f_vertex, cfg)
        spans = [s for s in tracer.spans if s.category == "plan"]
        assert {s.name for s in spans} >= {
            "cell_to_edge_mean", "kinetic_energy", "pv_vertex", "pv_edge"
        }

    def test_plan_timer_per_segment(self, mesh3):
        from repro.obs.metrics import MetricsRegistry, use_registry

        state, b_cell, f_vertex = _galewsky_inputs(mesh3)
        cfg = _cfg(plan=True)
        compiled_plan(mesh3, cfg)  # compile outside the measured window
        with use_registry(MetricsRegistry()) as metrics:
            diag = compute_solve_diagnostics(mesh3, state, f_vertex, cfg)
            compute_tend(mesh3, state, diag, b_cell, cfg)
        segments = {
            s.tags["segment"] for s in metrics.series("engine.plan")
        }
        assert segments == {"diagnostics", "tend"}


# ------------------------------------------------------ interior/boundary
class TestOverlapSplit:
    """The interior/boundary diagnostics split (compute/comm overlap).

    Contract: ``interior`` on a stale-halo state, then an in-place halo
    refresh, then ``boundary``, is bitwise identical — every Diagnostics
    field, every local point — to the full fused plan on the fresh state.
    """

    def _split_inputs(self, mesh, cfg):
        from repro.parallel import (
            build_local_mesh,
            halo_layers_required,
            partition_cells,
        )
        from repro.parallel.halo import ring_halo_indices
        from repro.swm.galewsky import galewsky_jet
        from repro.swm.model import ShallowWaterModel

        model = ShallowWaterModel(mesh, cfg)
        model.initialize(galewsky_jet())
        s0 = State(h=model.state.h.copy(), u=model.state.u.copy())
        model.run(steps=1)
        s1 = model.state

        rings = halo_layers_required(
            cfg.thickness_adv_order, cfg.apvm_upwinding != 0.0
        )
        owner = partition_cells(mesh, 2)
        lm = build_local_mesh(mesh, owner, 0, halo_layers=rings)
        cell_idx, edge_idx = ring_halo_indices(lm, rings)

        fresh = State(h=s1.h[lm.cells_global].copy(), u=s1.u[lm.edges_global].copy())
        stale = State(h=fresh.h.copy(), u=fresh.u.copy())
        # the halo still holds the *previous* step's values, exactly the
        # state a rank sees between publishing and acquiring an exchange
        stale.h[cell_idx] = s0.h[lm.cells_global[cell_idx]]
        stale.u[edge_idx] = s0.u[lm.edges_global[edge_idx]]
        f_vertex = cfg.coriolis(lm.metrics.latVertex)
        return lm, rings, (cell_idx, edge_idx), fresh, stale, f_vertex

    @pytest.mark.parametrize(
        "kw",
        [
            dict(),
            dict(thickness_adv_order=4, viscosity=1.0e4),
            dict(thickness_adv_order=3),
            dict(apvm_upwinding=0.0),
        ],
        ids=["default", "order4_viscous", "order3_upwind", "no_apvm"],
    )
    def test_split_bitwise_equals_full_plan(self, mesh3, plan_cache, kw):
        from repro.engine.plan import compiled_overlap

        cfg = _cfg(plan=True, **kw)
        lm, rings, (cell_idx, edge_idx), fresh, stale, f_vertex = (
            self._split_inputs(mesh3, cfg)
        )
        reference = compute_solve_diagnostics(lm, fresh, f_vertex, cfg)

        overlap = compiled_overlap(lm, cfg, rings)
        diag, ctx = overlap.interior(stale, f_vertex)
        stale.h[cell_idx] = fresh.h[cell_idx]  # the acquire, in place
        stale.u[edge_idx] = fresh.u[edge_idx]
        overlap.boundary(ctx)

        for field in DIAG_FIELDS:
            assert np.array_equal(
                getattr(diag, field), getattr(reference, field)
            ), f"overlap split diverged on {field}"

    def test_interior_alone_is_wrong_on_the_halo_cone(self, mesh3, plan_cache):
        """Sanity: the split is load-bearing — skipping ``boundary`` must
        leave stale-tainted rows behind (otherwise the overlap tests prove
        nothing)."""
        from repro.engine.plan import compiled_overlap

        cfg = _cfg(plan=True)
        lm, rings, (cell_idx, edge_idx), fresh, stale, f_vertex = (
            self._split_inputs(mesh3, cfg)
        )
        reference = compute_solve_diagnostics(lm, fresh, f_vertex, cfg)
        overlap = compiled_overlap(lm, cfg, rings)
        diag, _ctx = overlap.interior(stale, f_vertex)
        assert not all(
            np.array_equal(getattr(diag, f), getattr(reference, f))
            for f in DIAG_FIELDS
        )

    def test_overlap_is_memoized_per_mesh_and_rings(self, mesh3, plan_cache):
        from repro.engine.plan import compiled_overlap

        cfg = _cfg(plan=True)
        lm, rings, _, _, _, _ = self._split_inputs(mesh3, cfg)
        assert compiled_overlap(lm, cfg, rings) is compiled_overlap(lm, cfg, rings)
        assert compiled_overlap(lm, cfg, rings) is not compiled_overlap(
            lm, cfg, rings - 1
        )

    def test_rejects_non_sparse_backend(self, mesh3):
        from repro.engine.plan import compile_overlap
        from repro.parallel import build_local_mesh, partition_cells

        owner = partition_cells(mesh3, 2)
        lm = build_local_mesh(mesh3, owner, 0)
        cfg = SWConfig(dt=60.0, backend="numpy")
        with pytest.raises(ValueError, match="sparse"):
            compile_overlap(lm, cfg, 3)
