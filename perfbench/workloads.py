"""The workloads: one user-facing call each, plus a step sampler.

Every workload is a closed loop of one client issuing one request at a
time.  ``call`` is the user-facing request (``api.run_ensemble`` or
``api.submit`` -> ``api.result``) of one simulated hour
(``Inputs.request_days``); its wall time, per-call costs included, gives
``cell_steps_per_s``, and a one-step call in a fresh process gives
``setup_s``.  The ensemble call also gives the per-step times of
``step_ms_p50``/``step_ms_p90``, through the ``ensemble.step`` timer it
records around ``BatchedIntegrator.step()``.  The durable call cannot, so
its workload also has a ``sampler``: the same durable run through
``api.run(run_dir=..., callback=)``.  The serial call (``api.run``, each
step marked through its ``callback``) serves the traced suite.
"""

from __future__ import annotations

import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np
from repro.obs.metrics import MetricsRegistry, Timer, use_registry

from harness import Inputs, Tally, scratch_dir, state_failure


# --------------------------------------------------------------- configs
def serial_config(inp: Inputs):
    """The serial sparse configuration: the traced suite's kernel breakdown
    and the bitwise reference of every other configuration.

    It is not an end-to-end workload: on a shared 2-core host its step time
    moves by up to 1.7x between minutes (host phases of ~30 ms and ~50 ms
    per step), so the spread of ten runs can exceed the 0.25 maximum bound.
    """
    from repro.api import SWConfig

    return SWConfig(dt=inp.dt, backend="sparse")


def pool_config(inp: Inputs):
    """The two-rank pool configuration the traced suite measures.

    It is not an end-to-end workload: on a 2-core host its single-step
    times swing with host contention by more than the benchmark's bounds.
    """
    from repro.api import SWConfig

    return SWConfig(dt=inp.dt, backend="sparse", plan=True, parallel="pool",
                    ranks=2, halo_schedule="dataflow")


def ensemble_config(inp: Inputs):
    from repro.api import SWConfig

    return SWConfig(dt=inp.dt, backend="sparse", ensemble=4,
                    ensemble_seed=inp.seed)


def durable_config(inp: Inputs):
    from repro.api import SWConfig

    return SWConfig(dt=inp.dt, backend="sparse", checkpoint_interval=1,
                    guard_interval=1, guard_mass_drift=inp.mass_tol,
                    guard_cfl_max=1.0)


#: The durable workload evaluates the conservation invariants every step.
DURABLE_INVARIANT_INTERVAL = 1


# ------------------------------------------------------------ user calls
# Calls take (inputs, config, tally, steps): ``steps=None`` is the standard
# one-hour request.  They return (wall seconds, member-steps, failures) and
# add their per-step times to ``tally.samples`` when a tally is given.
def serial_call(inp: Inputs, cfg, tally: Tally | None = None, steps=None):
    """``api.run`` of the perturbed jet; the callback marks each step end."""
    from repro import api

    marks: list[float] = []
    t0 = time.perf_counter()
    res = api.run(inp.token, level=inp.level, config=cfg, **inp.length(steps),
                  callback=lambda step, result: marks.append(time.perf_counter()))
    wall = time.perf_counter() - t0
    if tally is not None:
        tally.samples.extend(np.diff(marks))
    return wall, res.steps, [state_failure(res.state, res, inp.mass_tol)]


class _SampledTimer(Timer):
    """A timer that also keeps every observation."""

    __slots__ = ("samples",)

    def __init__(self, name: str, tags: dict) -> None:
        super().__init__(name, tags)
        self.samples: list[float] = []

    def observe(self, seconds: float) -> None:
        super().observe(seconds)
        self.samples.append(seconds)


class StepTimes(MetricsRegistry):
    """A metrics registry that keeps each ``ensemble.step`` observation.

    ``api.run_ensemble`` times every ``BatchedIntegrator.step()`` with that
    timer; the registry's own timers keep only aggregates.
    """

    def __init__(self) -> None:
        super().__init__()
        self.steps = _SampledTimer("ensemble.step", {})

    def timer(self, name: str, **tags):
        if name == "ensemble.step" and not tags:
            return self.steps
        return super().timer(name, **tags)


def ensemble_call(inp: Inputs, cfg, tally: Tally | None = None, steps=None):
    """``api.run_ensemble``: members perturbed with ``perturb_seed=seed``."""
    from repro import api

    # Without a tally the call records into whichever registry is installed.
    registry = StepTimes() if tally is not None else None
    t0 = time.perf_counter()
    with use_registry(registry) if registry is not None else nullcontext():
        ens = api.run_ensemble("galewsky_jet", level=inp.level, config=cfg,
                               **inp.length(steps))
    wall = time.perf_counter() - t0
    if registry is not None:
        tally.samples.extend(registry.steps.samples)
    failures, member_steps = [], 0
    for k in range(cfg.ensemble):
        res, verdict = ens.members[k], ens.verdicts[k]
        if res is None or verdict.status != "ok":
            failures.append(f"member {k} {verdict.status}: {verdict.detail}")
        else:
            failures.append(state_failure(res.state, res, inp.mass_tol))
            member_steps += res.steps
    return wall, member_steps, failures


def durable_call(inp: Inputs, cfg, tally: Tally | None = None, steps=None):
    """``api.submit`` + ``api.result`` of a durable job in a fresh run dir.

    Untimed afterwards: the job must report ``completed`` and resubmitting
    the same request must return the same handle (dedup).
    """
    from repro import api

    home = scratch_dir("job-")
    try:
        req = api.RunRequest(case=inp.token, level=inp.level, config=cfg,
                             **inp.length(steps), run_dir=str(home / "run"),
                             invariant_interval=DURABLE_INVARIANT_INTERVAL)
        t0 = time.perf_counter()
        handle = api.submit(req)
        res = api.result(handle)
        wall = time.perf_counter() - t0
        failure = state_failure(res.state, res, inp.mass_tol)
        status = api.status(handle)
        if status != "completed":
            failure = f"durable job status {status!r} after result()"
        elif api.submit(req) is not handle:
            failure = "resubmitting the same request was not deduplicated"
    finally:
        shutil.rmtree(home, ignore_errors=True)
    return wall, res.steps, [failure]


def durable_sampler(inp: Inputs, cfg, deadline, min_samples, tally: Tally):
    """Step marks of the durable run, through ``api.run(run_dir=..., callback=)``,
    until both ``deadline`` and ``min_samples`` are reached."""
    from repro import api

    samples: list[float] = []
    while len(samples) < min_samples or time.perf_counter() < deadline:
        home = scratch_dir("run-")
        marks: list[float] = []
        try:
            res = api.run(inp.token, level=inp.level, config=cfg,
                          days=inp.request_days, run_dir=str(home / "run"),
                          invariant_interval=DURABLE_INVARIANT_INTERVAL,
                          callback=lambda s, r: marks.append(time.perf_counter()))
            tally.attempt(state_failure(res.state, res, inp.mass_tol))
        finally:
            shutil.rmtree(home, ignore_errors=True)
        samples.extend(np.diff(marks))
    tally.samples.extend(samples)


@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` records why it is in the benchmark."""

    name: str
    config: Callable
    call: Callable
    #: ``None``: the calls give the step samples and fill the window.
    #: Otherwise a fixed number of calls (``Scale.durable_calls``) and then
    #: this sampler for the rest of the window.
    sampler: Callable | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("jet-l5-ens4", ensemble_config, ensemble_call),
        Workload("jet-l5-durable", durable_config, durable_call, durable_sampler),
    )
}


def sample_steps(wl: Workload, inp: Inputs, cfg, deadline, min_samples,
                 tally: Tally) -> None:
    """Per-step times of a workload until ``deadline`` and ``min_samples``."""
    if wl.sampler is not None:
        wl.sampler(inp, cfg, deadline, min_samples, tally)
        return
    while len(tally.samples) < min_samples or time.perf_counter() < deadline:
        _attempt_call(wl, inp, cfg, tally)


def measure(wl: Workload, inp: Inputs, cfg, seconds: float, scale) -> Tally:
    """The warm measurement of one run: user calls, then step samples."""
    tally = Tally()
    warm = Tally()  # caches, plans, allocator; its timings are dropped
    _attempt_call(wl, inp, cfg, warm)
    tally.merge(warm)
    start = time.perf_counter()
    if wl.sampler is None:
        while (len(tally.rates) < 2 or time.perf_counter() < start + seconds
               or len(tally.samples) < scale.min_samples):
            _attempt_call(wl, inp, cfg, tally, timed=True)
        return tally
    for _ in range(scale.durable_calls):
        _attempt_call(wl, inp, cfg, tally, timed=True)
    try:
        wl.sampler(inp, cfg, start + seconds, scale.min_samples, tally)
    except Exception as exc:  # a failed run counts; the benchmark goes on
        tally.attempt(f"{type(exc).__name__}: {exc}")
    return tally


def _attempt_call(wl, inp, cfg, tally: Tally, timed: bool = False) -> None:
    """One call; its attempts and step samples go to ``tally``, and its
    throughput too if ``timed``."""
    try:
        wall, member_steps, failures = wl.call(inp, cfg, tally)
    except Exception as exc:  # a failed run counts; the benchmark goes on
        tally.attempt(f"{type(exc).__name__}: {exc}")
        return
    for failure in failures:
        tally.attempt(failure)
    if timed:
        tally.rates.append(member_steps * inp.n_cells / wall)
        tally.call_steps = member_steps
