"""Fused per-mesh execution plans compiled from the Fig. 4 dataflow graph.

PR 5 made every linear stencil a precompiled CSR matvec, but the RK loop
still walks the 14 operators one dispatch at a time: each call pays the
registry lookup, the placement probe, a metrics timer, a fault site and a
fresh output allocation.  This module removes all of that for
``backend="sparse"``: :func:`compile_plan` topologically schedules an RK
substep from the data-flow diagram (:mod:`repro.dataflow.schedule`) and
emits one :class:`ExecutionPlan` per ``(mesh, config)`` — a flat list of
closures over the cached CSR operators and preallocated scratch buffers,
with the one genuinely non-linear stencil (``coriolis_edge_term``) spliced
in as a planned stage instead of a per-dispatch fallback branch.

Exact fusion
------------
A plan executes *exactly* the floating-point expressions of the unfused
sparse backend — same matvecs against the same lane-ordered CSR matrices,
same elementwise ufunc sequence — only without the per-dispatch overhead,
and writing into reused scratch buffers (``out=``, which does not change a
ufunc's arithmetic).  The result is **bitwise identical** to the unfused
sparse backend in serial, lockstep, pool and ensemble execution.  Plans
never compose operator chains into product matrices: that reassociates
the row sums and would break the bitwise contract.

One emitter per Table-I label
-----------------------------
Each label (``A1`` … ``X6``) has a single emitter, and an emitter writes
its output variable over a *row set* (:class:`_Rows`): every row for the
full and batched programs, or the rows a halo refresh taints
(:func:`~repro.engine.split.propagate_taint`) for the overlap boundary
program of :class:`OverlapDiagnostics`.  The same stage code serves all
three, because ``M[rows] @ x`` is bitwise ``(M @ x)[rows]`` and an
elementwise ufunc does not care which rows it sees.

Split placements
----------------
Plans never route.  While a split placement is active
(:func:`repro.engine.split.use_placements`) :func:`plan_active` is False
and the kernels take the registry dispatch path, whose band
reconciliation and ``engine.split`` metrics live there — bitwise the
plan's result, by exact fusion.

Caching
-------
Plans are memoized per mesh in a ``WeakKeyDictionary`` keyed by the
structure-affecting config fields (:func:`plan_key`).  The CSR operators a
plan closes over come from the two-level operator cache
(:func:`repro.engine.sparse.sparse_operator`: memory + versioned ``.npz``
on disk); a plan itself is never written to disk.

Execution semantics
-------------------
The plan exposes one entry point per Algorithm-1 kernel it fuses
(:meth:`ExecutionPlan.tend`, :meth:`~ExecutionPlan.diagnostics`,
:meth:`~ExecutionPlan.reconstruct`) rather than one whole-substep program:
the halo exchanges of Fig. 4 are barriers between those segments
(:class:`repro.dataflow.schedule.Segment`), and the decomposed executors
must run them.  When the tracer is enabled, every stage runs under a
``category="plan"`` span.

Buffer discipline: the two tendency outputs live in plan-owned buffers
reused across calls (safe: every consumer reads them before the next
``tend`` call, and ``enforce_boundary_edge`` mutating them in place is the
contract); Diagnostics and Reconstruction outputs are freshly allocated
per call because callers retain them (run results, watchdogs, rollback
checkpoints).  The ``B1`` stage shares its gather scratch with the
mesh's numpy op (:func:`repro.swm.operators.coriolis_gather`).  A plan is
not re-entrant across threads.

Batched plans
-------------
``compile_plan(..., batch=N)`` emits the same stage program over
``(n, N)`` field blocks: every buffer gains a trailing *member* axis and
every CSR matvec becomes one matrix–matrix product against the whole
block (scipy's ``csr_matvecs`` kernel).  That kernel accumulates each
output row over the stored entries in exactly the order ``csr_matvec``
does, per column — so **column k of a batched stage is bitwise identical
to the serial stage applied to column k**, which is the foundation the
ensemble engine (:mod:`repro.ensemble`) builds its per-member
reproducibility contract on.  The one non-linear stage
(``coriolis_edge_term``) runs the serial kernel
(:class:`repro.swm.operators.CoriolisGather`) once per member on that
member's columns (the PV column copied contiguous for the gathers), so it
is per-column bitwise too; the block never goes through a 2-D take.  The
``E1`` stability check flags diverging members into a caller-provided
mask instead of raising, so one poisoned member cannot stall the batch.
Batched plans are memoized next to the serial ones, keyed by
``plan_key(config) + (batch,)``.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .sparse import SPARSE_FALLBACK_OPS, sparse_operator
from .split import active_placements, propagate_taint

__all__ = [
    "PLAN_FALLBACK_OPS",
    "PLANNED_OPS",
    "PLAN_LOCAL_LABELS",
    "ExecutionPlan",
    "PlanStage",
    "plan_active",
    "plan_key",
    "compile_plan",
    "compiled_plan",
    "OverlapDiagnostics",
    "compile_overlap",
    "compiled_overlap",
    "clear_plan_memory_cache",
    "unplanned_labels",
]

#: Ops the plan splices in as planned non-linear stages (same set the
#: sparse backend leaves on the counted numpy fallback).
PLAN_FALLBACK_OPS = SPARSE_FALLBACK_OPS

#: Registry ops the plan compiler consumes into fused stages.  Together
#: with :data:`PLAN_FALLBACK_OPS` this must cover the whole registry — the
#: lint test asserts it, so a newly registered operator must either gain a
#: plan emitter or be whitelisted as a planned fallback.
PLANNED_OPS = frozenset(
    {
        "flux_divergence",
        "kinetic_energy",
        "cell_divergence",
        "velocity_reconstruction",
        "tangential_velocity",
        "d2fdx2",
        "cell_to_edge_mean",
        "vertex_from_cells_kite",
        "cell_from_vertices_kite",
        "vertex_to_edge_mean",
        "vertex_curl",
        "edge_gradient_of_cell",
        "edge_gradient_of_vertex",
    }
)

#: Table I labels that are integrator-local state updates (X patterns):
#: they live in :mod:`repro.swm.timestep` / ``boundary`` and are not part
#: of a fused kernel program.
PLAN_LOCAL_LABELS = frozenset({"X1", "X2", "X3", "X4", "X5"})

#: Diagnostics outputs, each with the point space it lives on
#: (0 cells, 1 edges, 2 vertices).
_DIAG_OUTPUTS = (
    ("h_edge", 1), ("ke", 0), ("vorticity", 2), ("divergence", 0), ("v", 1),
    ("h_vertex", 2), ("pv_vertex", 2), ("pv_cell", 0), ("pv_edge", 1),
)

_UNSTABLE_MSG = (
    "non-positive h_vertex: the simulation has gone unstable "
    "(reduce dt or check the initial condition)"
)


def plan_active(config) -> bool:
    """Whether the kernels run ``config``'s fused plan right now.

    The one switch :func:`~repro.swm.tendencies.compute_tend`,
    :func:`~repro.swm.diagnostics.compute_solve_diagnostics`, the RK
    integrator and the pool worker consult: ``config.plan``, unless a split
    placement is active — split labels take the registry dispatch path,
    which is bitwise the plan's result (exact fusion).
    """
    return bool(config.plan) and not any(
        getattr(p, "device", None) == "split" for p in active_placements().values()
    )


# ------------------------------------------------------------ fast matvec
def _probe_csr_matvec():
    """scipy's raw ``csr_matvec`` kernel, verified bitwise against ``M @ x``.

    ``M @ x`` allocates a zero vector and accumulates into it with exactly
    this kernel, so zeroing a reused buffer and calling it directly is
    bitwise identical while skipping the per-call allocation.  Any scipy
    that does not expose (or changes) the kernel falls back to ``M @ x``.
    """
    try:
        from scipy.sparse import _sparsetools

        fn = _sparsetools.csr_matvec
    except (ImportError, AttributeError):  # pragma: no cover - scipy variant
        return None
    m = sp.csr_matrix(np.arange(12.0).reshape(3, 4) / 7.0)
    x = np.linspace(-1.0, 1.0, 4)
    out = np.zeros(3)
    try:
        fn(3, 4, m.indptr, m.indices, m.data, x, out)
    except Exception:  # pragma: no cover - scipy variant
        return None
    if not np.array_equal(out, m @ x):  # pragma: no cover - scipy variant
        return None
    return fn


_CSR_MATVEC = _probe_csr_matvec()


def _probe_csr_matvecs():
    """scipy's raw multi-vector ``csr_matvecs`` kernel, verified against ``M @ X``.

    ``M @ X`` for a 2-D ``X`` zero-fills the output and runs this kernel,
    which walks each output row's stored entries in the same order as
    ``csr_matvec`` — so every column of the batched product is bitwise
    identical to the serial matvec of that column.  The batched plan
    relies on that for its per-member reproducibility contract.
    """
    try:
        from scipy.sparse import _sparsetools

        fn = _sparsetools.csr_matvecs
    except (ImportError, AttributeError):  # pragma: no cover - scipy variant
        return None
    m = sp.csr_matrix(np.arange(12.0).reshape(3, 4) / 7.0)
    x = np.ascontiguousarray(np.linspace(-1.0, 1.0, 8).reshape(4, 2))
    out = np.zeros((3, 2))
    try:
        fn(3, 4, 2, m.indptr, m.indices, m.data, x.ravel(), out.ravel())
    except Exception:  # pragma: no cover - scipy variant
        return None
    if not np.array_equal(out, m @ x):  # pragma: no cover - scipy variant
        return None
    return fn


_CSR_MATVECS = _probe_csr_matvecs()


def _matvec(m: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = m @ x`` into a preallocated buffer, bitwise-identical.

    Accepts a 1-D vector or a 2-D ``(n, N)`` member block; either way each
    column matches the serial ``m @ column`` bit for bit.
    """
    if x.ndim == 2:
        if (
            _CSR_MATVECS is None
            or not x.flags.c_contiguous
            or not out.flags.c_contiguous
        ):
            out[:] = m @ x
            return out
        out.fill(0.0)
        _CSR_MATVECS(
            m.shape[0], m.shape[1], x.shape[1],
            m.indptr, m.indices, m.data, x.ravel(), out.ravel(),
        )
        return out
    if _CSR_MATVEC is None or not x.flags.c_contiguous:
        out[:] = m @ x
        return out
    out.fill(0.0)
    _CSR_MATVEC(m.shape[0], m.shape[1], m.indptr, m.indices, m.data, x, out)
    return out




# ------------------------------------------------------------- plan stages
class PlanStage:
    """One step of a fused program: ``run(ctx)``, a zero-dispatch closure."""

    __slots__ = ("name", "kind", "op", "pattern", "run")

    def __init__(
        self,
        name: str,
        run: Callable,
        kind: str = "elementwise",
        op: str | None = None,
        pattern: str | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.op = op
        self.pattern = pattern
        self.run = run


class _Rows:
    """The rows of one output variable (``key``) that an emitted stage writes.

    ``index=None`` is every row: the full and batched programs, whose
    stages work on whole arrays and write through the ``out=`` buffers.
    An index array is an overlap-boundary row set: matrices are presliced
    to those rows at compile time, elementwise operands are gathered and
    the result is scattered back into ``ctx[key]``.  Between the stages of
    one emitter the subset's working copy lives in a private buffer.
    """

    __slots__ = ("key", "index", "batch", "_buf")

    def __init__(self, key: str, index: np.ndarray | None = None, batch: int = 0):
        self.key = key
        self.index = index
        self.batch = batch
        self._buf = None if index is None else np.empty(index.size)

    @property
    def empty(self) -> bool:
        return self.index is not None and self.index.size == 0

    # -------------------------------------------------------- compile time
    def mat(self, m: sp.csr_matrix) -> sp.csr_matrix:
        return m if self.index is None else sp.csr_matrix(m[self.index])

    def const(self, v: np.ndarray) -> np.ndarray:
        """A per-mesh constant vector over these rows.

        Batched, it goes in as a ``(n, 1)`` column: ``(n,) op (n, N)`` is
        an invalid broadcast, and broadcasting is per-column bitwise
        identical to the serial elementwise op.
        """
        if self.index is not None:
            return v[self.index]
        return v[:, None] if self.batch else v

    def scratch(self, full: np.ndarray) -> np.ndarray:
        return full if self.index is None else np.empty(self.index.size)

    # ------------------------------------------------------------ run time
    def take(self, x: np.ndarray) -> np.ndarray:
        return x if self.index is None else x[self.index]

    def out(self, ctx: dict) -> np.ndarray:
        return ctx[self.key] if self.index is None else self._buf

    def put(self, ctx: dict, value: np.ndarray) -> None:
        if self.index is not None:
            ctx[self.key][self.index] = value


def _check_h_vertex(ctx: dict, h_vertex: np.ndarray) -> None:
    """The ``E1`` stability guard: non-positive ``h_vertex`` is unstable.

    With ``ctx["unstable"] is None`` it raises like the unfused kernel;
    with a bool mask it OR-s per-member flags in (a batched member, or the
    overlap interior pass, whose stale halo may read non-positive).
    """
    bad = np.any(h_vertex <= 0.0, axis=0)
    if bad.any():
        flags = ctx["unstable"]
        if flags is None:
            raise FloatingPointError(_UNSTABLE_MSG)
        np.logical_or(flags, bad, out=flags)


# ------------------------------------------------------------ the compiler
def plan_key(config) -> tuple:
    """The config fields that change a compiled plan's structure or algebra."""
    return (
        config.backend,
        bool(config.advection_only),
        int(config.thickness_adv_order),
        float(config.coef_3rd_order),
        float(config.apvm_upwinding),
        float(config.dt),
        float(config.gravity),
        float(config.viscosity),
        float(config.hyperviscosity),
    )


def unplanned_labels(config=None) -> set[str]:
    """Scheduled Table I labels with neither a plan emitter nor a whitelist.

    Empty for the shipped model; a new catalog instance must either gain an
    emitter in :class:`_Compiler` or join :data:`PLAN_LOCAL_LABELS`.
    """
    from ..dataflow.schedule import schedule_substep

    handled = set(_Compiler.EMITTED_LABELS) | set(PLAN_LOCAL_LABELS)
    labels: set[str] = set()
    for stage in (1, 4):
        sched = schedule_substep(config, stage=stage)
        for node in sched.nodes():
            labels.add(sched.graph.instance(node).label)
    return {lab for lab in labels if lab not in handled}


class _Program:
    """Stage runner and ctx builder shared by every compiled program."""

    def __init__(self, mesh, key: tuple, buffers: dict, batch: int = 0) -> None:
        self._mesh = weakref.ref(mesh)
        self.key = key
        #: 0 for a serial plan; N > 0 when the stages run over (n, N) blocks.
        self.batch = int(batch)
        self._buffers = buffers
        self._n = (mesh.nCells, mesh.nEdges, mesh.nVertices)

    def _run(self, stages: list[PlanStage], ctx: dict) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            for st in stages:
                with tracer.span(
                    st.name,
                    category="plan",
                    stage_kind=st.kind,
                    op=st.op or "-",
                    pattern=st.pattern or "-",
                ):
                    st.run(ctx)
        else:
            for st in stages:
                st.run(ctx)

    def _ctx(self, **runtime) -> dict:
        ctx = dict(self._buffers)
        ctx["mesh"] = self._mesh()
        ctx.update(runtime)
        return ctx

    def _diag_ctx(self, state, f_vertex, unstable) -> dict:
        """The diagnostics ctx, with fresh output arrays (callers keep them)."""
        if self.batch:
            if f_vertex.ndim == 1:
                f_vertex = f_vertex[:, None]
            outputs = {k: np.empty((self._n[s], self.batch)) for k, s in _DIAG_OUTPUTS}
        else:
            outputs = {k: np.empty(self._n[s]) for k, s in _DIAG_OUTPUTS}
        return self._ctx(
            h=state.h, u=state.u, f=f_vertex, unstable=unstable, **outputs
        )

    @staticmethod
    def _diagnostics(ctx: dict):
        from ..swm.state import Diagnostics

        return Diagnostics(**{k: ctx[k] for k, _ in _DIAG_OUTPUTS})


class ExecutionPlan(_Program):
    """A compiled, fused RK-substep program for one ``(mesh, config)``."""

    def __init__(
        self,
        mesh,
        key: tuple,
        tend_stages: list[PlanStage],
        diag_stages: list[PlanStage],
        recon_stages: list[PlanStage],
        buffers: dict[str, np.ndarray],
        batch: int = 0,
    ) -> None:
        super().__init__(mesh, key, buffers, batch)
        self._tend = tend_stages
        self._diag = diag_stages
        self._recon = recon_stages

    # ------------------------------------------------------- kernel bodies
    def tend(self, state, diag, b_cell) -> tuple[np.ndarray, np.ndarray]:
        """Fused ``compute_tend``: the (A1, B1) segment of the schedule."""
        with get_registry().timer("engine.plan", segment="tend").time():
            b = b_cell[:, None] if (self.batch and b_cell.ndim == 1) else b_cell
            ctx = self._ctx(
                h=state.h,
                u=state.u,
                b=b,
                h_edge=diag.h_edge,
                ke=diag.ke,
                pv_edge=diag.pv_edge,
                divergence=diag.divergence,
                vorticity=diag.vorticity,
            )
            self._run(self._tend, ctx)
            return ctx["tend_h"], ctx["tend_u"]

    def diagnostics(self, state, f_vertex, unstable=None):
        """Fused ``compute_solve_diagnostics``: the post-exchange segment.

        For a batched plan ``unstable`` may be an ``(N,)`` bool array: the
        ``E1`` stability guard OR-s per-member non-positive ``h_vertex``
        flags into it instead of raising, so one diverging member cannot
        stall the batch.  ``None`` keeps the serial raise semantics.
        """
        with get_registry().timer("engine.plan", segment="diagnostics").time():
            ctx = self._diag_ctx(state, f_vertex, unstable)
            self._run(self._diag, ctx)
            return self._diagnostics(ctx)

    def reconstruct(self, u_edge):
        """Fused ``mpas_reconstruct``: the (A4, X6) segment of stage 4."""
        from ..swm.state import Reconstruction

        with get_registry().timer("engine.plan", segment="reconstruct").time():
            ctx = self._ctx(u=u_edge)
            self._run(self._recon, ctx)
            U = ctx["U"]
            return Reconstruction(
                uReconstructX=U[:, 0],
                uReconstructY=U[:, 1],
                uReconstructZ=U[:, 2],
                uReconstructZonal=ctx["zonal"],
                uReconstructMeridional=ctx["meridional"],
            )

    # ------------------------------------------------------- introspection
    def stages(self) -> dict[str, list[PlanStage]]:
        return {
            "tend": list(self._tend),
            "diagnostics": list(self._diag),
            "reconstruct": list(self._recon),
        }


class _Compiler:
    """Builds the stage lists for one ``(mesh, config)`` pair.

    Emitters are keyed by Table I label and walk the scheduler's node
    order, so the fused program is exactly the dataflow diagram's
    topological schedule.  Every closure captures matrices, buffers and
    scalars — never the mesh or the compiler — so a cached plan does not
    keep its (weakly referenced) mesh alive.

    With :attr:`taint` unset the emitters write every row (the full and
    batched programs).  :meth:`compile_boundary` sets it to the rows a
    halo refresh invalidates and re-runs the same emitters, which then
    write only the rows each output's dependency cone reaches.
    """

    #: Labels this compiler can emit stages for (the lint's other half is
    #: :data:`PLAN_LOCAL_LABELS`).
    EMITTED_LABELS = (
        "A1", "B1", "C1", "C2", "D1", "A2", "A3", "H1", "B2",
        "E1", "F1", "G1", "A4", "X6",
    )

    def __init__(self, mesh, config, batch: int = 0) -> None:
        self.mesh = mesh
        self.config = config
        #: 0 compiles the serial plan; N > 0 compiles over (n, N) blocks.
        self.batch = int(batch)
        #: Variable -> bool mask of rows a halo refresh invalidates, or
        #: ``None`` while compiling the full program.
        self.taint: dict[str, np.ndarray] | None = None
        #: Tainted output rows the boundary program recomputes.
        self.boundary_points = 0
        n_cells, n_edges, n_vertices = mesh.nCells, mesh.nEdges, mesh.nVertices
        shape = self._shape
        self.buffers: dict[str, np.ndarray] = {
            "tend_h": np.zeros(shape(n_cells)),
            "tend_u": np.zeros(shape(n_edges)),
        }
        # Scratch arena, reused across steps (sized by the widest stage).
        self._e1 = np.zeros(shape(n_edges))
        self._e2 = np.zeros(shape(n_edges))
        self._e3 = np.zeros(shape(n_edges))
        self._c1 = np.zeros(shape(n_cells))
        self._v1 = np.zeros(shape(n_vertices))
        if config.thickness_adv_order > 2:
            self._d2 = self.buffers["d2"] = np.zeros(shape(2 * n_edges))
        self._q = np.zeros(shape(n_edges))

    def _shape(self, n: int):
        return (n, self.batch) if self.batch else (n,)

    def matrix(self, name: str) -> sp.csr_matrix:
        return sparse_operator(self.mesh, name)

    def rows(self, key: str, *deps, block: int = 1) -> _Rows:
        """The rows of output ``key`` this compile pass writes.

        ``deps`` name what the output reads: ``(matrix, var)`` for a
        stencil read of ``var``, a bare ``var`` for a same-row read.  In a
        boundary pass the output's taint is the union of its dependencies'
        taint cones; ``block`` collapses a block-row operator's rows to
        one flag per output point (the fused ``d2fdx2`` pair).
        """
        if self.taint is None:
            return _Rows(key, batch=self.batch)
        mask = None
        for dep in deps:
            if isinstance(dep, tuple):
                m = propagate_taint(dep[0], self.taint[dep[1]], block=block)
            else:
                m = self.taint[dep]
            mask = m if mask is None else mask | m
        self.taint[key] = mask
        index = np.flatnonzero(mask)
        self.boundary_points += int(index.size)
        if block > 1:
            index = (block * index[:, None] + np.arange(block)).ravel()
        return _Rows(key, index)

    # ----------------------------------------------------------- emitters
    def compile_kernel(self, sched, kernel: str) -> list[PlanStage]:
        stages: list[PlanStage] = []
        for node in sched.nodes_for_kernel(kernel):
            label = sched.graph.instance(node).label
            emit = getattr(self, f"_emit_{label}".replace(",", "_"), None)
            if emit is None:
                raise KeyError(
                    f"no plan emitter for Table I label {label!r} "
                    f"(node {node!r}); add one or whitelist it"
                )
            stages.extend(emit())
        return stages

    def compile_boundary(self, sched, cell_mask, edge_mask) -> list[PlanStage]:
        """The diagnostics emitters again, over the rows a refresh taints."""
        self.taint = {"h": cell_mask, "u": edge_mask}
        stages = self.compile_kernel(sched, "compute_solve_diagnostics")
        for st in stages:
            st.name += "@boundary"
        return stages

    def _matvec_stage(self, name, op, pattern, key, in_key, block=1) -> list[PlanStage]:
        """``key = M @ in_key`` over this pass's rows of ``key``."""
        M = self.matrix(op)
        rows = self.rows(key, (M, in_key), block=block)
        if rows.empty:
            return []
        Mr = rows.mat(M)

        def run(ctx):
            out = rows.out(ctx)
            _matvec(Mr, ctx[in_key], out)
            rows.put(ctx, out)

        return [PlanStage(name, run, kind="matvec", op=op, pattern=pattern)]

    def _emit_A1(self) -> list[PlanStage]:
        M = self.matrix("cell_divergence")
        e1, c1 = self._e1, self._c1

        def run(ctx):
            np.multiply(ctx["u"], ctx["h_edge"], out=e1)
            _matvec(M, e1, c1)
            np.negative(c1, out=ctx["tend_h"])

        return [
            PlanStage(
                "flux_divergence", run, kind="matvec",
                op="flux_divergence", pattern="A1",
            )
        ]

    def _emit_B1(self) -> list[PlanStage]:
        if self.config.advection_only:
            def freeze(ctx):
                ctx["tend_u"].fill(0.0)

            return [PlanStage("freeze_u", freeze, kind="elementwise")]

        from ..swm.operators import coriolis_gather

        gather, q = coriolis_gather(self.mesh), self._q
        if self.batch:
            # The one non-linear stage: the serial kernel once per member,
            # on that member's columns, so each column stays bitwise
            # identical to the serial stage.
            n_members = self.batch

            def cor(ctx):
                u, h_edge, pv_edge = ctx["u"], ctx["h_edge"], ctx["pv_edge"]
                for k in range(n_members):
                    gather(u[:, k], h_edge[:, k], pv_edge[:, k], q[:, k])
                ctx["q"] = q
        else:
            def cor(ctx):
                ctx["q"] = gather(ctx["u"], ctx["h_edge"], ctx["pv_edge"], q)

        stages = [
            PlanStage(
                "coriolis_edge_term", cor, kind="fallback",
                op="coriolis_edge_term", pattern="B1",
            )
        ]

        Mgc = self.matrix("edge_gradient_of_cell")
        g = self.config.gravity
        e1, c1 = self._e1, self._c1

        def bernoulli(ctx):
            np.add(ctx["h"], ctx["b"], out=c1)
            np.multiply(c1, g, out=c1)
            np.add(ctx["ke"], c1, out=c1)
            _matvec(Mgc, c1, e1)
            np.subtract(ctx["q"], e1, out=ctx["tend_u"])

        stages.append(
            PlanStage(
                "bernoulli_gradient", bernoulli, kind="matvec",
                op="edge_gradient_of_cell",
            )
        )

        if self.config.viscosity != 0.0:
            Mgv = self.matrix("edge_gradient_of_vertex")
            visc = self.config.viscosity
            e2 = self._e2

            def del2(ctx):
                _matvec(Mgc, ctx["divergence"], e1)
                _matvec(Mgv, ctx["vorticity"], e2)
                np.subtract(e1, e2, out=e1)
                np.multiply(e1, visc, out=e1)
                np.add(ctx["tend_u"], e1, out=ctx["tend_u"])

            stages.append(PlanStage("del2_dissipation", del2, kind="matvec"))

        if self.config.hyperviscosity != 0.0:
            stages.append(self._hyperviscosity_stage())
        return stages

    def _hyperviscosity_stage(self) -> PlanStage:
        Mgc = self.matrix("edge_gradient_of_cell")
        Mgv = self.matrix("edge_gradient_of_vertex")
        Mdiv = self.matrix("cell_divergence")
        Mcurl = self.matrix("vertex_curl")
        hv = self.config.hyperviscosity
        e1, e2, e3, c1, v1 = self._e1, self._e2, self._e3, self._c1, self._v1

        def del4(ctx):
            _matvec(Mgc, ctx["divergence"], e1)
            _matvec(Mgv, ctx["vorticity"], e2)
            np.subtract(e1, e2, out=e1)  # del2_u
            _matvec(Mdiv, e1, c1)  # div2
            _matvec(Mcurl, e1, v1)  # vort2
            _matvec(Mgc, c1, e2)
            _matvec(Mgv, v1, e3)
            np.subtract(e2, e3, out=e2)  # del4_u
            np.multiply(e2, hv, out=e2)
            np.subtract(ctx["tend_u"], e2, out=ctx["tend_u"])

        return PlanStage("del4_dissipation", del4, kind="matvec", pattern="A3,H1")

    def _emit_C1(self) -> list[PlanStage]:
        if self.config.thickness_adv_order == 2:
            return []
        # One two-row matvec per edge computes both C1 and C2.
        return self._matvec_stage("d2fdx2", "d2fdx2", None, "d2", "h", block=2)

    def _emit_C2(self) -> list[PlanStage]:
        return []  # computed by the fused C1 sweep (one two-row matvec)

    def _emit_D1(self) -> list[PlanStage]:
        order = self.config.thickness_adv_order
        Mmean = self.matrix("cell_to_edge_mean")
        deps = [(Mmean, "h")]
        if order > 2:
            deps.append("d2")
        if order == 3:
            deps.append("u")
        rows = self.rows("h_edge", *deps)
        if rows.empty:
            return []
        Mr = rows.mat(Mmean)

        def mean(ctx):
            he = rows.out(ctx)
            _matvec(Mr, ctx["h"], he)
            rows.put(ctx, he)

        stages = [
            PlanStage(
                "cell_to_edge_mean", mean, kind="matvec",
                op="cell_to_edge_mean", pattern="D1",
            )
        ]
        if order == 2:
            return stages

        d2_1, d2_2 = self._d2[0::2], self._d2[1::2]
        e1, e2 = rows.scratch(self._e1), rows.scratch(self._e2)
        dc2_12 = rows.const(self.mesh.metrics.dcEdge**2 / 12.0)
        dc2_half = dc2_12 * 0.5

        def correction(ctx):
            he = rows.out(ctx)
            np.add(rows.take(d2_1), rows.take(d2_2), out=e1)
            np.multiply(e1, dc2_half, out=e1)
            np.subtract(he, e1, out=he)
            rows.put(ctx, he)

        stages.append(PlanStage("h_edge_correction", correction))
        if order == 3:
            coef = self.config.coef_3rd_order

            def upwind(ctx):
                he = rows.out(ctx)
                np.sign(rows.take(ctx["u"]), out=e2)
                np.multiply(e2, coef, out=e2)
                np.multiply(e2, dc2_12, out=e2)
                np.multiply(e2, 0.5, out=e2)
                np.subtract(rows.take(d2_2), rows.take(d2_1), out=e1)
                np.multiply(e2, e1, out=e2)
                np.add(he, e2, out=he)
                rows.put(ctx, he)

            stages.append(PlanStage("h_edge_upwind3", upwind))
        return stages

    def _emit_A2(self) -> list[PlanStage]:
        M = self.matrix("kinetic_energy")
        rows = self.rows("ke", (M, "u"))
        if rows.empty:
            return []
        Mr, usq = rows.mat(M), self._e1

        def run(ctx):
            ke = rows.out(ctx)
            np.multiply(ctx["u"], ctx["u"], out=usq)
            _matvec(Mr, usq, ke)
            rows.put(ctx, ke)

        return [
            PlanStage(
                "kinetic_energy", run, kind="matvec",
                op="kinetic_energy", pattern="A2",
            )
        ]

    def _emit_A3(self) -> list[PlanStage]:
        return self._matvec_stage(
            "divergence", "cell_divergence", "A3", "divergence", "u"
        )

    def _emit_H1(self) -> list[PlanStage]:
        return self._matvec_stage("vorticity", "vertex_curl", "H1", "vorticity", "u")

    def _emit_B2(self) -> list[PlanStage]:
        return self._matvec_stage(
            "tangential_velocity", "tangential_velocity", "B2", "v", "u"
        )

    def _emit_E1(self) -> list[PlanStage]:
        # Never empty, even in a boundary pass: the stage also owns the
        # stability check over the whole (now fresh) h_vertex.
        M = self.matrix("vertex_from_cells_kite")
        hv_rows = self.rows("h_vertex", (M, "h"))
        pv_rows = self.rows("pv_vertex", "h_vertex", "vorticity")
        Mr = hv_rows.mat(M)

        def run(ctx):
            hv = hv_rows.out(ctx)
            _matvec(Mr, ctx["h"], hv)
            hv_rows.put(ctx, hv)
            _check_h_vertex(ctx, ctx["h_vertex"])
            pv = pv_rows.out(ctx)
            np.add(pv_rows.take(ctx["f"]), pv_rows.take(ctx["vorticity"]), out=pv)
            # Flagged members (and a stale overlap halo) divide by a
            # non-positive h_vertex: their columns go inf/nan silently,
            # and columns are independent.
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(pv, pv_rows.take(ctx["h_vertex"]), out=pv)
            pv_rows.put(ctx, pv)

        return [
            PlanStage(
                "pv_vertex", run, kind="matvec",
                op="vertex_from_cells_kite", pattern="E1",
            )
        ]

    def _emit_F1(self) -> list[PlanStage]:
        return self._matvec_stage(
            "pv_cell", "cell_from_vertices_kite", "F1", "pv_cell", "pv_vertex"
        )

    def _emit_G1(self) -> list[PlanStage]:
        Mvte = self.matrix("vertex_to_edge_mean")
        apvm = self.config.apvm_upwinding != 0.0
        deps = [(Mvte, "pv_vertex")]
        if apvm:
            Mgv = self.matrix("edge_gradient_of_vertex")
            Mgc = self.matrix("edge_gradient_of_cell")
            deps += [(Mgv, "pv_vertex"), (Mgc, "pv_cell"), "v", "u"]
        rows = self.rows("pv_edge", *deps)
        if rows.empty:
            return []
        Mr = rows.mat(Mvte)

        def mean(ctx):
            pe = rows.out(ctx)
            _matvec(Mr, ctx["pv_vertex"], pe)
            rows.put(ctx, pe)

        stages = [
            PlanStage(
                "pv_edge", mean, kind="matvec",
                op="vertex_to_edge_mean", pattern="G1",
            )
        ]
        if not apvm:
            return stages

        Mgv_r, Mgc_r = rows.mat(Mgv), rows.mat(Mgc)
        factor = self.config.apvm_upwinding * self.config.dt
        e1, e2 = rows.scratch(self._e1), rows.scratch(self._e2)

        def upwinding(ctx):
            pe = rows.out(ctx)
            _matvec(Mgv_r, ctx["pv_vertex"], e1)
            _matvec(Mgc_r, ctx["pv_cell"], e2)
            np.multiply(rows.take(ctx["v"]), e1, out=e1)
            np.multiply(rows.take(ctx["u"]), e2, out=e2)
            np.add(e1, e2, out=e1)
            np.multiply(e1, factor, out=e1)
            np.subtract(pe, e1, out=pe)
            rows.put(ctx, pe)

        stages.append(PlanStage("apvm_upwinding", upwinding, kind="matvec"))
        return stages

    def _emit_A4(self) -> list[PlanStage]:
        M = self.matrix("velocity_reconstruction")
        # (3n, N) row-major reshaped to (n, 3, N): column k is the serial
        # (n, 3) reconstruction of member k, bit for bit.
        shape = (-1, 3, self.batch) if self.batch else (-1, 3)

        def run(ctx):
            ctx["U"] = (M @ ctx["u"]).reshape(shape)

        return [
            PlanStage(
                "velocity_reconstruction", run, kind="matvec",
                op="velocity_reconstruction", pattern="A4",
            )
        ]

    def _emit_X6(self) -> list[PlanStage]:
        from ..geometry.sphere import tangent_basis

        east, north = tangent_basis(self.mesh.metrics.xCell)
        if self.batch:
            east, north = east[:, :, None], north[:, :, None]

        def run(ctx):
            U = ctx["U"]
            ctx["zonal"] = np.sum(U * east, axis=1)
            ctx["meridional"] = np.sum(U * north, axis=1)

        return [PlanStage("tangent_rotation", run)]


# ----------------------------------------- interior/boundary overlap split
class OverlapDiagnostics(_Program):
    """The fused diagnostics program split for compute/communication overlap.

    A decomposed rank that has just *published* its owned boundary slices
    does not need its peers' values to compute most of its diagnostics —
    only the rows whose dependency cone reaches the halo points the next
    acquire will refresh.  This object holds the fused diagnostics program
    twice, from the same emitters:

    1. ``diag, ctx = overlap.interior(state, f_vertex)`` — runs the *full*
       program against the pre-acquire (stale-halo) state.  Rows with no
       halo ancestry are already bitwise-final; tainted rows hold garbage.
       The ``E1`` stability check only flags (a stale halo could falsely
       trip it) and the pass runs under ``np.errstate``.
    2. the caller acquires the exchange, refreshing the state halo *in
       place* (``ctx`` aliases the state arrays, so the refresh is visible)
    3. ``overlap.boundary(ctx)`` — recomputes exactly the tainted rows of
       every output and runs the stability check over the now-fresh
       ``h_vertex``, raising like the full plan.

    The result is **bitwise identical**, for every Diagnostics field at
    every local point, to running :meth:`ExecutionPlan.diagnostics` after
    the refresh — the overlap moves the peer wait off the critical path
    without changing a single bit.  Taint sets are static per
    ``(local mesh, config, ring depth)``: they derive from the refreshed
    index sets via :func:`repro.engine.split.propagate_taint`.
    """

    def __init__(
        self,
        mesh,
        key: tuple,
        interior_stages: list[PlanStage],
        boundary_stages: list[PlanStage],
        buffers: dict[str, np.ndarray],
        boundary_points: int,
    ) -> None:
        super().__init__(mesh, key, buffers)
        self._interior = interior_stages
        self._boundary = boundary_stages
        #: Total tainted output rows the boundary pass recomputes (the
        #: redundant-work price of the overlap; owned + halo rows).
        self.boundary_points = boundary_points

    def interior(self, state, f_vertex):
        """Full-array diagnostics on the pre-acquire state.

        Returns ``(diag, ctx)``; ``diag`` is final except at tainted rows,
        ``ctx`` must be handed to :meth:`boundary` after the halo refresh.
        """
        with get_registry().timer("engine.plan", segment="diag_interior").time():
            ctx = self._diag_ctx(state, f_vertex, unstable=np.zeros((), dtype=bool))
            with np.errstate(divide="ignore", invalid="ignore"):
                self._run(self._interior, ctx)
            return self._diagnostics(ctx), ctx

    def boundary(self, ctx: dict) -> None:
        """Recompute the tainted rows after the halo refresh (in place)."""
        with get_registry().timer("engine.plan", segment="diag_boundary").time():
            ctx["unstable"] = None
            self._run(self._boundary, ctx)


def compile_overlap(local_mesh, config, rings: int) -> OverlapDiagnostics:
    """Compile the interior/boundary diagnostics pair for one local mesh.

    ``rings`` is the halo-ring depth the surrounding exchange refreshes
    (the :class:`~repro.dataflow.schedule.SyncPoint` depth): the taint
    seeds are exactly the refreshed cell/edge index sets of
    :func:`repro.parallel.halo.ring_halo_indices`.
    """
    from ..dataflow.schedule import schedule_substep
    from ..parallel.halo import ring_halo_indices

    if config.backend != "sparse":
        raise ValueError(
            "overlap programs require backend='sparse' "
            f"(got backend={config.backend!r})"
        )
    cell_idx, edge_idx = ring_halo_indices(local_mesh, rings)
    cell_mask = np.zeros(local_mesh.nCells, dtype=bool)
    cell_mask[cell_idx] = True
    edge_mask = np.zeros(local_mesh.nEdges, dtype=bool)
    edge_mask[edge_idx] = True
    comp = _Compiler(local_mesh, config)
    sched1 = schedule_substep(config, stage=1)
    interior = comp.compile_kernel(sched1, "compute_solve_diagnostics")
    boundary = comp.compile_boundary(sched1, cell_mask, edge_mask)
    return OverlapDiagnostics(
        local_mesh,
        key=plan_key(config) + (int(rings),),
        interior_stages=interior,
        boundary_stages=boundary,
        buffers=comp.buffers,
        boundary_points=comp.boundary_points,
    )


_OVERLAPS: "weakref.WeakKeyDictionary[object, dict[tuple, OverlapDiagnostics]]" = (
    weakref.WeakKeyDictionary()
)


def compiled_overlap(local_mesh, config, rings: int) -> OverlapDiagnostics:
    """The memoized overlap program for ``(local_mesh, config, rings)``."""
    per_mesh = _OVERLAPS.get(local_mesh)
    if per_mesh is None:
        per_mesh = {}
        _OVERLAPS[local_mesh] = per_mesh
    key = plan_key(config) + (int(rings),)
    ov = per_mesh.get(key)
    if ov is None:
        ov = compile_overlap(local_mesh, config, rings)
        per_mesh[key] = ov
        get_registry().counter("engine.plan.compile_overlap").inc()
    return ov


def compile_plan(mesh, config, batch: int = 0) -> ExecutionPlan:
    """Compile the fused :class:`ExecutionPlan` for ``(mesh, config)``.

    Requires ``config.backend == "sparse"`` (the plan closes over the CSR
    operators).  ``batch=N`` compiles the batched variant whose stages run
    over ``(n, N)`` member blocks (see *Batched plans* in the module
    docs).  Use :func:`compiled_plan` for the memoizing entry point the
    kernels call.
    """
    from ..dataflow.schedule import schedule_substep

    if config.backend != "sparse":
        raise ValueError(
            "execution plans require backend='sparse' "
            f"(got backend={config.backend!r})"
        )
    if int(batch) < 0:
        raise ValueError(f"batch must be >= 0 (0 compiles serial), got {batch!r}")
    bad = unplanned_labels(config)
    if bad:
        raise KeyError(f"unplannable Table I labels: {sorted(bad)}")
    comp = _Compiler(mesh, config, batch=batch)
    sched1 = schedule_substep(config, stage=1)
    sched4 = schedule_substep(config, stage=4)
    tend = comp.compile_kernel(sched1, "compute_tend")
    diag = comp.compile_kernel(sched1, "compute_solve_diagnostics")
    recon = comp.compile_kernel(sched4, "mpas_reconstruct")
    return ExecutionPlan(
        mesh,
        key=plan_key(config),
        tend_stages=tend,
        diag_stages=diag,
        recon_stages=recon,
        buffers=comp.buffers,
        batch=batch,
    )


# ----------------------------------------------------------- plan memoizer
_PLANS: "weakref.WeakKeyDictionary[object, dict[tuple, ExecutionPlan]]" = (
    weakref.WeakKeyDictionary()
)


def compiled_plan(mesh, config, batch: int = 0) -> ExecutionPlan:
    """The memoized plan for ``(mesh, config)``, compiled at most once.

    Keyed by :func:`plan_key` (plus the batch width), so a config mutation
    that changes the compiled structure (e.g. the rollback handler halving
    ``dt``, which is baked into the APVM factor) transparently compiles a
    fresh plan; the underlying CSR operators are shared through the PR 5
    operator cache either way.
    """
    plans = _PLANS.get(mesh)
    if plans is None:
        plans = {}
        _PLANS[mesh] = plans
    key = plan_key(config) + (int(batch),)
    plan = plans.get(key)
    if plan is None:
        plan = compile_plan(mesh, config, batch=batch)
        plans[key] = plan
        get_registry().counter("engine.plan.compile").inc()
    return plan


def clear_plan_memory_cache() -> None:
    """Drop in-process compiled plans and overlap programs (cache tests)."""
    _PLANS.clear()
    _OVERLAPS.clear()
