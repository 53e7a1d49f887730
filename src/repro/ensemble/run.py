"""The lockstep ensemble driver: N members, one plan per step, per-member
verdicts.

:class:`EnsembleRun` packs N perturbed-IC members into one batched state
and advances them together through a batched execution plan
(:class:`~repro.ensemble.batch.BatchedIntegrator`), keeping per-member
invariant trajectories and watchdog verdicts.  Divergence handling reuses
the resilience stack's policy knobs:

``guard_policy="halt"`` (default)
    A member whose column goes non-finite or trips the ``E1`` stability
    guard is *quarantined*: its verdict becomes ``"diverged"``, its result
    slot ``None``, and the batch keeps stepping — columns are independent
    under every batched stage, so the poison cannot spread.
``guard_policy="rollback"``
    The diverged member is *detached*: its column is restored from the
    newest in-memory snapshot (taken every ``checkpoint_interval`` steps,
    or the IC), ``dt`` is halved for that member alone, and it finishes as
    a serial :class:`~repro.swm.model.ShallowWaterModel` continuation —
    the PR 3 rollback semantics, applied per member, while the healthy
    members never stall.

Healthy members are returned as ordinary per-member
:class:`~repro.swm.model.RunResult`\\ s whose state/diagnostics/invariants
are **bitwise identical** to a serial run of the same member (the batched
plan's per-column contract plus the shared IC builders of
:mod:`~repro.ensemble.members`).  ``ensemble_mode="serial"`` runs the same
members one by one through the serial model — the reference path the tests
compare against.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..mesh.mesh import Mesh
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..resilience.guards import NumericalBlowup, member_finite_mask
from ..swm.config import SWConfig
from ..swm.error import Invariants, invariants
from ..swm.model import RunResult, ShallowWaterModel
from ..swm.state import State
from ..swm.testcases import TestCase
from .batch import BatchedIntegrator
from .members import ensemble_initial_states

__all__ = ["MemberVerdict", "EnsembleResult", "EnsembleRun", "run_ensemble"]


@dataclass(frozen=True)
class MemberVerdict:
    """Outcome of one ensemble member."""

    member: int
    status: str  # "ok", "diverged" or "recovered"
    failed_step: int | None = None
    detail: str = ""


@dataclass
class EnsembleResult:
    """Outcome of an ensemble run: one result and one verdict per member.

    ``members[k]`` is ``None`` exactly when ``verdicts[k].status ==
    "diverged"`` (the member was quarantined and produced no trajectory).
    """

    members: list[RunResult | None]
    verdicts: list[MemberVerdict]
    steps: int
    invariant_history: list[Invariants] = field(default_factory=list)

    @property
    def n_members(self) -> int:
        """Ensemble width (including diverged members)."""
        return len(self.members)

    def survivors(self) -> list[int]:
        """Indices of members that produced a result."""
        return [k for k, r in enumerate(self.members) if r is not None]

    def mean_invariants(self) -> list[Invariants]:
        """Ensemble-mean invariant trajectory over the lockstep survivors.

        Averages record-by-record across the ``"ok"`` members (detached
        continuations record on their own clock and are excluded).
        Deterministic for a fixed member order, so the golden suite can
        pin it bitwise.
        """
        full = [
            r.invariant_history
            for r, v in zip(self.members, self.verdicts)
            if r is not None and v.status == "ok"
        ]
        if not full:
            return []
        length = len(full[0])
        return [
            Invariants(
                mass=float(np.mean([h[i].mass for h in full])),
                total_energy=float(np.mean([h[i].total_energy for h in full])),
                potential_enstrophy=float(
                    np.mean([h[i].potential_enstrophy for h in full])
                ),
            )
            for i in range(length)
        ]

    def summary_rows(self) -> list[tuple]:
        """``(member, status, steps, mass_drift, failed_step)`` per member."""
        rows = []
        for k, (res, verdict) in enumerate(zip(self.members, self.verdicts)):
            if res is None:
                rows.append((k, verdict.status, 0, float("nan"), verdict.failed_step))
            else:
                rows.append(
                    (k, verdict.status, res.steps, res.mass_drift(),
                     verdict.failed_step)
                )
        return rows

    def summary_table(self) -> str:
        """A fixed-width member table (the CLI / report rendering)."""
        lines = [
            "member  status     steps  mass_drift    failed_at",
            "------  ---------  -----  ------------  ---------",
        ]
        for member, status, steps, drift, failed in self.summary_rows():
            failed_s = "-" if failed is None else str(failed)
            drift_s = "-" if drift != drift else f"{drift:.3e}"
            lines.append(
                f"{member:6d}  {status:9s}  {steps:5d}  {drift_s:>12s}  {failed_s:>9s}"
            )
        return "\n".join(lines)


class EnsembleRun:
    """Driver for one ensemble: build members, advance lockstep, judge them.

    Parameters
    ----------
    mesh, case, config
        The shared scenario.  ``config.ensemble`` must be >= 1 and is the
        member count; ``config.ensemble_seed`` / ``config.
        ensemble_amplitude`` control the per-member IC perturbation;
        ``config.ensemble_mode`` selects lockstep batching or the serial
        reference path.
    initial_states
        Optional explicit member ICs (parameter sweeps, tests).  Length
        must equal ``config.ensemble``; topography still comes from the
        case.
    """

    def __init__(
        self,
        mesh: Mesh,
        case: TestCase,
        config: SWConfig,
        initial_states: list[State] | None = None,
    ) -> None:
        if config.ensemble < 1:
            raise ValueError(
                "EnsembleRun requires config.ensemble >= 1 "
                f"(got {config.ensemble!r}); plain runs go through repro.api.run"
            )
        if initial_states is not None and len(initial_states) != config.ensemble:
            raise ValueError(
                f"initial_states has {len(initial_states)} members, "
                f"config.ensemble is {config.ensemble}"
            )
        self.mesh = mesh
        self.case = case
        self.config = config
        self._explicit_states = initial_states

    # ------------------------------------------------------------- plumbing
    def _f_vertex(self) -> np.ndarray:
        if self.case.coriolis is not None:
            return self.case.coriolis(self.mesh.metrics.xVertex)
        return self.config.coriolis(self.mesh.metrics.latVertex)

    def _member_states(self) -> tuple[list[State], np.ndarray]:
        from ..swm.testcases import initialize

        if self._explicit_states is not None:
            _, b = initialize(self.mesh, self.case)
            return [s.copy() for s in self._explicit_states], b
        return ensemble_initial_states(
            self.mesh,
            self.case,
            self.config.ensemble,
            self.config.ensemble_seed,
            self.config.ensemble_amplitude,
        )

    def _member_config(self, **overrides) -> SWConfig:
        """A private config copy for one detached member (never shared: the
        serial model mutates ``dt`` on rollback)."""
        return dataclasses.replace(
            self.config, ensemble=0, parallel="serial", ranks=1, **overrides
        )

    # ------------------------------------------------------------ execution
    def execute(self, steps: int, invariant_interval: int = 0) -> EnsembleResult:
        """Advance all members ``steps`` steps; one verdict per member."""
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps!r}")
        get_registry().gauge("ensemble.members").set(self.config.ensemble)
        if self.config.ensemble_mode == "serial":
            return self._execute_serial(steps, invariant_interval)
        return self._execute_lockstep(steps, invariant_interval)

    def _execute_serial(self, steps: int, invariant_interval: int) -> EnsembleResult:
        """The reference path: each member as its own serial model run."""
        states, b = self._member_states()
        f_vertex = self._f_vertex()
        results: list[RunResult | None] = []
        verdicts: list[MemberVerdict] = []
        tracer = get_tracer()
        for k, state in enumerate(states):
            model = ShallowWaterModel.from_state(
                self.mesh, self._member_config(), self.case, state, b, f_vertex
            )
            with tracer.span("ensemble.member", category="ensemble", member=k):
                try:
                    res = model.run(
                        steps=steps, invariant_interval=invariant_interval
                    )
                except (NumericalBlowup, FloatingPointError) as exc:
                    get_registry().counter(
                        "ensemble.member.diverged", member=str(k)
                    ).inc()
                    results.append(None)
                    verdicts.append(
                        MemberVerdict(k, "diverged", None, str(exc))
                    )
                    continue
            get_registry().counter(
                "ensemble.member.steps", member=str(k)
            ).inc(res.steps)
            results.append(res)
            verdicts.append(MemberVerdict(k, "ok"))
        return self._finish(results, verdicts, steps)

    def _execute_lockstep(self, steps: int, invariant_interval: int) -> EnsembleResult:
        config = self.config
        n = config.ensemble
        states, b = self._member_states()
        f_vertex = self._f_vertex()
        integ = BatchedIntegrator(self.mesh, config, b, f_vertex, n)
        packed = State.stack(states)
        unstable = np.zeros(n, dtype=bool)
        diag = integ.diagnostics_for(packed, unstable=unstable)

        alive = np.ones(n, dtype=bool)
        failed_step = [None] * n
        verdict_detail = [""] * n
        histories: list[list[Invariants]] = [[] for _ in range(n)]
        history_steps: list[int] = []
        detached: dict[int, RunResult | None] = {}

        def record(step: int) -> None:
            history_steps.append(step)
            for k in np.flatnonzero(alive):
                histories[k].append(
                    invariants(
                        self.mesh, packed.member(k), diag.member(k), b,
                        config.gravity,
                    )
                )

        def judge(step: int) -> None:
            bad = (unstable | member_finite_mask(packed)) & alive
            for k in np.flatnonzero(bad):
                alive[k] = False
                failed_step[k] = step
                get_registry().counter(
                    "ensemble.member.diverged", member=str(int(k))
                ).inc()
                if config.guard_policy == "rollback":
                    detached[int(k)] = self._detach(
                        int(k), snapshot_step, snapshot, b, f_vertex,
                        steps, invariant_interval, verdict_detail,
                    )
                else:
                    verdict_detail[k] = (
                        "member went non-finite or non-positive "
                        f"at step {step} (guard_policy='halt')"
                    )

        # In-memory rollback anchors (per-member columns of the whole
        # batch); refreshed on the serial checkpoint cadence.
        snapshot_step = 0
        snapshot = packed.copy()
        judge(0)
        record(0)
        step_timer = get_registry().timer("ensemble.step")
        for step in range(1, steps + 1):
            with step_timer.time():
                result = integ.step(packed, diag, unstable=unstable)
            packed, diag = result.state, result.diagnostics
            recon = result.reconstruction
            judge(step)
            if (
                config.checkpoint_interval
                and step % config.checkpoint_interval == 0
            ):
                snapshot_step, snapshot = step, packed.copy()
            if invariant_interval and step % invariant_interval == 0:
                record(step)
        if history_steps[-1] != steps:
            record(steps)

        results: list[RunResult | None] = []
        verdicts: list[MemberVerdict] = []
        elapsed = steps * config.dt
        for k in range(n):
            if alive[k]:
                get_registry().counter(
                    "ensemble.member.steps", member=str(k)
                ).inc(steps)
                results.append(
                    RunResult(
                        state=packed.member(k),
                        diagnostics=diag.member(k),
                        reconstruction=recon.member(k),
                        steps=steps,
                        elapsed_seconds=elapsed,
                        invariant_history=histories[k],
                    )
                )
                verdicts.append(MemberVerdict(k, "ok"))
            elif k in detached and detached[k] is not None:
                results.append(detached[k])
                verdicts.append(
                    MemberVerdict(k, "recovered", failed_step[k], verdict_detail[k])
                )
            else:
                results.append(None)
                verdicts.append(
                    MemberVerdict(k, "diverged", failed_step[k], verdict_detail[k])
                )
        return self._finish(results, verdicts, steps)

    def _detach(
        self,
        member: int,
        snapshot_step: int,
        snapshot: State,
        b: np.ndarray,
        f_vertex: np.ndarray,
        steps: int,
        invariant_interval: int,
        verdict_detail: list[str],
    ) -> RunResult | None:
        """Finish one diverged member serially from its last snapshot.

        The PR 3 rollback semantics applied per member: restore the
        member's column, halve its (private) ``dt`` and integrate the
        remaining steps through the serial model — the batch never waits.
        Returns ``None`` when the continuation blows up too.
        """
        remaining = steps - snapshot_step
        config = self._member_config(dt=self.config.dt / 2.0, ensemble_mode="serial")
        detail = (
            f"rolled back to step {snapshot_step}, continuing serially "
            f"with dt={config.dt:.6g} for {remaining} steps"
        )
        verdict_detail[member] = detail
        if remaining < 1:
            return None
        tracer = get_tracer()
        with tracer.span("ensemble.detach", category="ensemble", member=member):
            # from_state primes the diagnostics, which raises right here if
            # the snapshot itself is already poisoned (divergence before the
            # first refresh) — the member is then unrecoverable.
            try:
                model = ShallowWaterModel.from_state(
                    self.mesh, config, self.case, snapshot.member(member), b,
                    f_vertex,
                )
                res = model.run(
                    steps=remaining, invariant_interval=invariant_interval
                )
            except (NumericalBlowup, FloatingPointError) as exc:
                verdict_detail[member] = f"{detail}; continuation failed: {exc}"
                return None
        get_registry().counter(
            "ensemble.member.steps", member=str(member)
        ).inc(res.steps)
        return res

    def _finish(
        self,
        results: list[RunResult | None],
        verdicts: list[MemberVerdict],
        steps: int,
    ) -> EnsembleResult:
        out = EnsembleResult(members=results, verdicts=verdicts, steps=steps)
        ok = [r for r, v in zip(results, verdicts) if r is not None and v.status == "ok"]
        if ok:
            out.invariant_history = ok[0].invariant_history
        get_registry().gauge("ensemble.survivors").set(len(out.survivors()))
        return out


def run_ensemble(
    mesh: Mesh,
    case: TestCase,
    config: SWConfig,
    steps: int,
    invariant_interval: int = 0,
    initial_states: list[State] | None = None,
) -> EnsembleResult:
    """Build and execute one :class:`EnsembleRun` (the package-level entry).

    The public, token-friendly wrapper (case names, ``days``, mesh levels)
    is :func:`repro.api.run_ensemble`.
    """
    return EnsembleRun(
        mesh, case, config, initial_states=initial_states
    ).execute(steps, invariant_interval=invariant_interval)
