"""The batched RK-4 integrator: N members per step through one fused plan.

:class:`BatchedIntegrator` mirrors :class:`repro.swm.timestep.RK4Integrator`
line for line — same stage order, same weight products, same in-place
accumulation — but every field is an ``(n, N)`` member block and every
kernel is a stage of a *batched* :class:`~repro.engine.plan.ExecutionPlan`
(``compiled_plan(..., batch=N)``).  Each CSR operator is applied to the
whole block in one multi-vector matvec, which amortizes the operator walk
across the ensemble; the batched stages are per-column bitwise identical
to the serial ones (see *Batched plans* in :mod:`repro.engine.plan`), so
column ``k`` of every step equals a serial step of member ``k`` bit for
bit.

The integrator always executes through the batched plan, even for configs
with ``plan=False``: the plan program replays the unfused sparse
backend's arithmetic bitwise (the PR 6 contract, asserted
by the golden suite), so members of a ``backend="sparse"`` run match their
serial unfused reference exactly as well.

Divergence isolation: the ``unstable`` mask handed to each diagnostics
call receives per-member flags from the ``E1`` stability guard instead of
an exception; all batched stages are column-independent, so a member gone
non-finite cannot leak into its neighbours' columns.
"""

from __future__ import annotations

import numpy as np

from ..engine.plan import compiled_plan
from ..mesh.mesh import Mesh
from ..swm.boundary import enforce_boundary_edge
from ..swm.config import SWConfig
from ..swm.state import Diagnostics, State
from ..swm.timestep import RK_ACCUMULATE_WEIGHTS, RK_SUBSTEP_WEIGHTS, StepResult

__all__ = ["BatchedIntegrator"]


class BatchedIntegrator:
    """RK-4 over an ``(n, N)`` batched state, one fused plan per step.

    Parameters mirror :class:`~repro.swm.timestep.RK4Integrator`;
    ``n_members`` is the batch width N and the ``state``/``diag`` passed to
    :meth:`step` must carry the member axis (``State.stack``).
    """

    def __init__(
        self,
        mesh: Mesh,
        config: SWConfig,
        b_cell: np.ndarray,
        f_vertex: np.ndarray,
        n_members: int,
    ) -> None:
        if config.backend != "sparse":
            raise ValueError(
                "batched integration requires backend='sparse' "
                f"(got backend={config.backend!r})"
            )
        if int(n_members) < 1:
            raise ValueError(f"n_members must be >= 1, got {n_members!r}")
        self.mesh = mesh
        self.config = config
        self.n_members = int(n_members)
        self.b_cell = np.asarray(b_cell, dtype=np.float64)
        self.f_vertex = np.asarray(f_vertex, dtype=np.float64)
        if self.b_cell.shape != (mesh.nCells,):
            raise ValueError("b_cell must have shape (nCells,)")
        if self.f_vertex.shape != (mesh.nVertices,):
            raise ValueError("f_vertex must have shape (nVertices,)")
        self.boundary_mask = np.zeros(mesh.nEdges, dtype=bool)
        # Warm the batched plan up front, like RK4Integrator does for
        # plan=True runs, so step one is not a compile.
        self._plan()

    def _plan(self):
        # Looked up per use (not cached on self): a config mutation such as
        # a rollback halving dt maps to a different plan key and must
        # recompile transparently, mirroring RK4Integrator.
        return compiled_plan(self.mesh, self.config, batch=self.n_members)

    def diagnostics_for(
        self, state: State, unstable: np.ndarray | None = None
    ) -> Diagnostics:
        """Batched diagnostics consistent with an arbitrary batched state."""
        state.validate_shapes(self.mesh.nCells, self.mesh.nEdges, self.n_members)
        return self._plan().diagnostics(state, self.f_vertex, unstable=unstable)

    def step(
        self,
        state: State,
        diag: Diagnostics,
        unstable: np.ndarray | None = None,
    ) -> StepResult:
        """Advance all N members one step (Algorithm 1, batched).

        ``unstable`` — an ``(N,)`` bool array — collects per-member
        stability flags from the diagnostics stages; without it a
        non-positive ``h_vertex`` in *any* member raises, exactly like the
        serial integrator.
        """
        plan = self._plan()
        dt = self.config.dt
        provis = state.copy()
        provis_diag = diag
        acc = state.copy()

        new_diag: Diagnostics | None = None
        for stage in range(4):
            tend_h, tend_u = plan.tend(provis, provis_diag, self.b_cell)
            enforce_boundary_edge(tend_u, self.boundary_mask)
            w_acc = RK_ACCUMULATE_WEIGHTS[stage] * dt
            acc.h += w_acc * tend_h
            acc.u += w_acc * tend_u
            if stage < 3:
                w_sub = RK_SUBSTEP_WEIGHTS[stage] * dt
                provis = State(
                    h=state.h + w_sub * tend_h,
                    u=state.u + w_sub * tend_u,
                )
                provis_diag = plan.diagnostics(
                    provis, self.f_vertex, unstable=unstable
                )
            else:
                new_diag = plan.diagnostics(acc, self.f_vertex, unstable=unstable)
        recon = plan.reconstruct(acc.u)
        assert new_diag is not None
        return StepResult(state=acc, diagnostics=new_diag, reconstruction=recon)
