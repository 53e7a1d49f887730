"""Whole-substep fusion: the compiled plan vs per-op dispatch.

PR 5's ``kernel_backends`` bench times operators one dispatch at a time;
this one times what the paper's Fig. 4 analysis is actually for — the
*whole RK step*.  A full Galewsky step is driven through the real
integrator under three executions of the same arithmetic:

* ``numpy`` — gather ufuncs, one registry dispatch per op;
* ``sparse`` — precompiled CSR matvecs, still one dispatch per op;
* ``plan`` — the fused :class:`~repro.engine.plan.ExecutionPlan`: the same
  CSR matvecs as ``sparse`` (bitwise-identical states, asserted here on
  the benchmark mesh too) executed as one compiled stage program with
  preallocated buffers and zero per-op dispatch.

Results land in ``results/plan_fusion.json`` (+ a rendered table), and the
bench asserts the fused plan does not lose to unfused sparse on whole-step
wall-clock — the PR 6 acceptance criterion.
"""

from __future__ import annotations

import json
import time

import numpy as np

from conftest import RESULTS_DIR, bench_level
from repro.bench import render_table
from repro.mesh import cached_mesh
from repro.swm.config import SWConfig
from repro.swm.galewsky import galewsky_jet
from repro.swm.model import ShallowWaterModel, suggested_dt

#: mode name -> SWConfig keywords (all share dt/order set per run).
MODES = {
    "numpy": dict(backend="numpy"),
    "sparse": dict(backend="sparse"),
    "plan": dict(backend="sparse", plan=True),
}

WARMUP_STEPS = 2
TIMED_STEPS = 8


def _time_steps(mesh, case, dt, order, kw):
    """Best observed single-step wall-clock, plus the 10-step end state."""
    config = SWConfig(dt=dt, thickness_adv_order=order, **kw)
    model = ShallowWaterModel(mesh, config)
    model.initialize(case)
    state, diag = model.state, model.diagnostics
    for _ in range(WARMUP_STEPS):
        res = model.integrator.step(state, diag)
        state, diag = res.state, res.diagnostics
    best = float("inf")
    for _ in range(TIMED_STEPS):
        t0 = time.perf_counter()
        res = model.integrator.step(state, diag)
        best = min(best, time.perf_counter() - t0)
        state, diag = res.state, res.diagnostics
    return best, state


def test_plan_fusion(benchmark, report):
    level = bench_level()
    mesh = cached_mesh(level)
    case = galewsky_jet()
    dt = suggested_dt(mesh, case, 9.80616, cfl=0.5)
    order = 4  # exercises the fused C1,C2 sweep
    records = []
    states = {}

    def sweep():
        records.clear()
        for mode, kw in MODES.items():
            seconds, state = _time_steps(mesh, case, dt, order, kw)
            states[mode] = state
            records.append(
                {
                    "mode": mode,
                    "level": level,
                    "nCells": mesh.nCells,
                    "dt": dt,
                    "thickness_adv_order": order,
                    "steps_timed": TIMED_STEPS,
                    "seconds_per_step": seconds,
                }
            )
        return records

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    by_mode = {r["mode"]: r for r in records}
    for r in records:
        r["speedup_vs_numpy"] = (
            by_mode["numpy"]["seconds_per_step"] / r["seconds_per_step"]
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "plan_fusion.json").write_text(
        json.dumps(records, indent=2) + "\n"
    )

    rows = [
        [
            r["mode"],
            r["nCells"],
            f"{r['seconds_per_step'] * 1e3:.2f} ms",
            f"{r['speedup_vs_numpy']:.2f}x",
        ]
        for r in records
    ]
    report(
        "plan_fusion",
        render_table(
            f"Whole RK-4 step, Galewsky order-{order} (level {level}, "
            f"best of {TIMED_STEPS})",
            ["mode", "cells", "s/step", "vs numpy"],
            rows,
        ),
    )

    # Correctness alongside the timing: the fused plan's trajectory is the
    # unfused sparse one, bit for bit, on the benchmark mesh as well.
    assert np.array_equal(states["plan"].h, states["sparse"].h)
    assert np.array_equal(states["plan"].u, states["sparse"].u)
    assert all(r["seconds_per_step"] > 0 for r in records)
    # The acceptance criterion: fusing away the per-op dispatch must not
    # lose to per-op dispatch of the *same* matvecs.
    assert (
        by_mode["plan"]["seconds_per_step"]
        <= by_mode["sparse"]["seconds_per_step"]
    )
