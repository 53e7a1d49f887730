"""RK-4 time stepping, structured exactly as Algorithm 1 of the paper.

Every line of Algorithm 1 is a named kernel here so that the pattern catalog
(:mod:`repro.patterns`), the data-flow graph (:mod:`repro.dataflow`) and the
hybrid schedulers (:mod:`repro.hybrid`) can refer to the same units the paper
uses:

====  =============================  ====================================
line  kernel                         role
====  =============================  ====================================
3     ``compute_tend``               RHS evaluation
4     ``enforce_boundary_edge``      zero tendencies on boundary edges
6     ``compute_next_substep_state`` provisional state for the next stage
7/11  ``compute_solve_diagnostics``  diagnostics of the new (sub)state
8/10  ``accumulative_update``        accumulate the RK-weighted tendency
12    ``mpas_reconstruct``           cell-centre velocity vectors
====  =============================  ====================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.plan import compiled_plan, plan_active
from ..mesh.mesh import Mesh
from ..obs.instrument import kernel_span, pattern_span
from .config import SWConfig
from .state import Diagnostics, Reconstruction, State

__all__ = ["RK4Integrator", "StepResult", "RK_SUBSTEP_WEIGHTS", "RK_ACCUMULATE_WEIGHTS"]

#: Provisional-state weights (fraction of dt) for stages 1..3 (Alg. 1 line 6).
RK_SUBSTEP_WEIGHTS: tuple[float, float, float] = (0.5, 0.5, 1.0)

#: Accumulation weights (fraction of dt) for stages 1..4 (Alg. 1 lines 8/10).
RK_ACCUMULATE_WEIGHTS: tuple[float, float, float, float] = (
    1.0 / 6.0,
    1.0 / 3.0,
    1.0 / 3.0,
    1.0 / 6.0,
)


@dataclass
class StepResult:
    """State and diagnostics after one full RK-4 step."""

    state: State
    diagnostics: Diagnostics
    reconstruction: Reconstruction


def compute_next_substep_state(
    state: State, tend_h: np.ndarray, tend_u: np.ndarray, weight_dt: float
) -> State:
    """Provisional state for the next RK stage (local X-type computation)."""
    with pattern_span("X2", n_points=state.h.size):
        h = state.h + weight_dt * tend_h
    with pattern_span("X3", n_points=state.u.size):
        u = state.u + weight_dt * tend_u
    return State(h=h, u=u)


def accumulative_update(
    acc: State, tend_h: np.ndarray, tend_u: np.ndarray, weight_dt: float
) -> None:
    """Accumulate the RK-weighted tendency into ``acc`` in place."""
    with pattern_span("X4", n_points=acc.h.size):
        acc.h += weight_dt * tend_h
    with pattern_span("X5", n_points=acc.u.size):
        acc.u += weight_dt * tend_u


class RK4Integrator:
    """Drives the shallow-water core through RK-4 steps.

    The six Algorithm-1 kernels are resolved by *name* from the engine's
    :func:`~repro.engine.default_registry` (or an explicit ``registry``), so
    an instrumented or substituted kernel table drives the exact same loop.

    Parameters
    ----------
    mesh : Mesh
    config : SWConfig
    b_cell : (nCells,) array
        Bottom topography.
    f_vertex : (nVertices,) array
        Coriolis parameter at vorticity points.
    boundary_mask : (nEdges,) bool array, optional
        Edges on which ``enforce_boundary_edge`` zeroes the tendency.
    registry : KernelRegistry, optional
        Kernel table to resolve the Algorithm-1 names from; defaults to the
        process-wide engine registry.
    """

    def __init__(
        self,
        mesh: Mesh,
        config: SWConfig,
        b_cell: np.ndarray,
        f_vertex: np.ndarray,
        boundary_mask: np.ndarray | None = None,
        registry=None,
    ) -> None:
        from ..engine import default_registry

        reg = registry if registry is not None else default_registry()
        self._compute_tend = reg.kernel("compute_tend")
        self._enforce_boundary_edge = reg.kernel("enforce_boundary_edge")
        self._compute_next_substep_state = reg.kernel("compute_next_substep_state")
        self._compute_solve_diagnostics = reg.kernel("compute_solve_diagnostics")
        self._accumulative_update = reg.kernel("accumulative_update")
        self._mpas_reconstruct = reg.kernel("mpas_reconstruct")
        self.mesh = mesh
        self.config = config
        self.b_cell = np.asarray(b_cell, dtype=np.float64)
        self.f_vertex = np.asarray(f_vertex, dtype=np.float64)
        if self.b_cell.shape != (mesh.nCells,):
            raise ValueError("b_cell must have shape (nCells,)")
        if self.f_vertex.shape != (mesh.nVertices,):
            raise ValueError("f_vertex must have shape (nVertices,)")
        self.boundary_mask = (
            np.zeros(mesh.nEdges, dtype=bool)
            if boundary_mask is None
            else np.asarray(boundary_mask, dtype=bool)
        )
        if config.plan:
            # Compile (and warm the cache for) the fused plan up front so
            # the first step does not pay compilation inside the timed loop.
            compiled_plan(mesh, config, registry=registry)

    # The halo-exchange hook lets the distributed driver reuse this exact
    # integrator; serial runs leave it as a no-op.  ``sync`` names the
    # Algorithm-1 synchronization point (``"pre@s1"`` .. ``"post@s4"``) so
    # a schedule-aware runner can elide or thin the exchange per point.
    def exchange_halo(self, state: State, sync: str = "") -> None:  # pragma: no cover - hook
        """Overridden by the distributed runner; no-op in serial."""

    def diagnostics_for(self, state: State) -> Diagnostics:
        """Diagnostics consistent with an arbitrary state (e.g. the IC)."""
        return self._compute_solve_diagnostics(
            self.mesh, state, self.f_vertex, self.config
        )

    def step(self, state: State, diag: Diagnostics) -> StepResult:
        """Advance one full time step (Algorithm 1, inner loop).

        ``diag`` must be consistent with ``state`` (as produced by the
        previous step, or by :meth:`diagnostics_for` for the first one).
        """
        dt = self.config.dt
        provis = state.copy()
        provis_diag = diag
        acc = state.copy()

        backend = self.config.backend
        new_diag: Diagnostics | None = None
        for stage in range(4):
            self.exchange_halo(provis, sync=f"pre@s{stage + 1}")
            with kernel_span("compute_tend", stage=stage, backend=backend):
                tend_h, tend_u = self._compute_tend(
                    self.mesh, provis, provis_diag, self.b_cell, self.config
                )
            with kernel_span("enforce_boundary_edge", stage=stage, backend=backend):
                self._enforce_boundary_edge(tend_u, self.boundary_mask)
            with kernel_span("accumulative_update", stage=stage, backend=backend):
                self._accumulative_update(
                    acc, tend_h, tend_u, RK_ACCUMULATE_WEIGHTS[stage] * dt
                )
            if stage < 3:
                with kernel_span(
                    "compute_next_substep_state", stage=stage, backend=backend
                ):
                    provis = self._compute_next_substep_state(
                        state, tend_h, tend_u, RK_SUBSTEP_WEIGHTS[stage] * dt
                    )
                self.exchange_halo(provis, sync=f"post@s{stage + 1}")
                with kernel_span(
                    "compute_solve_diagnostics", stage=stage, backend=backend
                ):
                    provis_diag = self._compute_solve_diagnostics(
                        self.mesh, provis, self.f_vertex, self.config
                    )
            else:
                self.exchange_halo(acc, sync="post@s4")
                with kernel_span(
                    "compute_solve_diagnostics", stage=stage, backend=backend
                ):
                    new_diag = self._compute_solve_diagnostics(
                        self.mesh, acc, self.f_vertex, self.config
                    )
        with kernel_span("mpas_reconstruct", backend=backend):
            if plan_active(self.config):
                # Looked up per step (not cached on self): a config
                # mutation such as the rollback handler halving dt maps to
                # a different plan key and must recompile transparently.
                recon = compiled_plan(self.mesh, self.config).reconstruct(acc.u)
            else:
                recon = self._mpas_reconstruct(self.mesh, acc.u, backend=backend)
        assert new_diag is not None
        return StepResult(state=acc, diagnostics=new_diag, reconstruction=recon)
