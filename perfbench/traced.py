"""The traced suite (``--trace 1``): where the time goes, layer by layer.

One run covers every layer, whichever workload is named, because the
per-layer metrics and the bitwise cross-checks span four configurations:
the two workloads, the serial sparse run (``serial_config``) and the
two-rank pool (``pool_config``: fused plans, dataflow halos); only
``obs.trace_overhead_pct`` is the named workload's.

Layers are timed from outside, around calls into public functions
(``repro.api``, ``repro.jobs``, ``PoolShallowWater``, ``repro.ensemble``,
``sparse_operator``, ``compiled_plan``, the durable run and watchdog
classes).  Inside a step the existing ``repro.obs`` tracer and metrics
registry give the kernel, pattern, engine-op and halo breakdown.

Checks (each a counted attempt): every run's state is finite with mass
drift inside the scenario tolerance; the pool2 and durable endpoints and
ensemble member 0 equal the serial sparse run of the same seed bit for
bit; kernel spans cover at least 90% of the traced serial step; the
ensemble keeps every member; the durable job completes and a resubmission
deduplicates exactly once.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time
from contextlib import contextmanager, nullcontext

import harness
from harness import Inputs, Tally, bitwise_equal, median, result, state_failure

SERIAL, POOL, ENS, DURABLE = (
    "jet-l5-serial", "jet-l5-pool2", "jet-l5-ens4", "jet-l5-durable")

#: Table-I labels reported on their own; the rest sum into ``other``.
PATTERNS = ("B1", "G1", "B2", "X6", "E1")
#: The three small Algorithm-1 kernels summed into ``swm.kernel.update``.
UPDATE_KERNELS = ("enforce_boundary_edge", "accumulative_update",
                  "compute_next_substep_state")
MIN_KERNEL_COVERAGE = 0.90


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@contextmanager
def observing():
    """A fresh enabled tracer and metrics registry, installed process-wide."""
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.obs.trace import Tracer, use_tracer

    tracer, registry = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        yield tracer, registry


def run(args, scale, archive) -> dict:
    from repro import api

    from workloads import WORKLOADS, pool_config, serial_config

    inp = Inputs(args.seed, scale.level)
    cfgs = {name: wl.config(inp) for name, wl in WORKLOADS.items()}
    cfgs[SERIAL] = serial_config(inp)
    cfgs[POOL] = pool_config(inp)
    harness.check_cores(cfgs[POOL])
    n = scale.trace_steps
    checks = Tally()
    m: dict[str, tuple[float, str]] = {}

    ref = api.run(inp.token, level=inp.level, config=cfgs[SERIAL], steps=n)
    checks.attempt(state_failure(ref.state, ref, inp.mass_tol))

    main_cache = os.environ["REPRO_CACHE_DIR"]
    cold_cache = None
    try:
        cold_cache = mesh_and_compile(inp, cfgs, archive, m)
        serial_layers(inp, cfgs[SERIAL], n, m, checks)
        pool_layers(inp, cfgs[POOL], n, m, checks, ref)
        ensemble_layers(inp, cfgs[ENS], n, m, checks, ref)
        durable_layers(inp, cfgs[DURABLE], n, m, checks, ref)
        m["obs.trace_overhead_pct"] = (
            trace_overhead(args.workload, inp, cfgs[args.workload],
                           scale.overhead_steps, checks), "%")
    finally:
        os.environ["REPRO_CACHE_DIR"] = main_cache
        if cold_cache is not None:
            shutil.rmtree(cold_cache, ignore_errors=True)

    print(f"traced suite: {len(m)} per-layer metrics, attempts "
          f"{checks.attempted}, failures {len(checks.failures)}")
    for failure in checks.failures[:8]:
        print(f"  FAILED: {failure}")
    return result(checks.attempted, len(checks.failures), m)


# ----------------------------------------------------------- mesh, engine
def mesh_and_compile(inp: Inputs, cfgs, archive, m):
    """Cold costs, each timed alone: mesh build, load, normalize, compiles.

    Returns the fresh cache directory the rest of the suite runs against
    (its operators compiled cold here).
    """
    from repro import api
    from repro.engine.sparse import build_sparse_impls, sparse_operator
    from repro.mesh.cache import clear_memory_cache
    from repro.obs.metrics import MetricsRegistry, use_registry

    cold, build_s = _timed(api.build_mesh, inp.level, use_disk=False)
    m["mesh.build_s"] = (build_s, "s")
    # The matrices the serial step uses: one step on the in-memory mesh,
    # whose operators never reach a disk cache.
    probe = MetricsRegistry()
    with use_registry(probe):
        api.run(inp.token, mesh=cold, config=cfgs[SERIAL], steps=1)
    impls = build_sparse_impls()
    matrices = sorted({impls[s.tags["op"]].matrix_op
                       for s in probe.series("engine.op")
                       if s.tags["backend"] == "sparse"})
    del cold
    clear_memory_cache()

    cache = harness.fresh_cache(archive)
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    mesh, load_s = _timed(api.build_mesh, inp.level)
    m["mesh.load_s"] = (load_s, "s")
    req = api.RunRequest(case=inp.token, level=inp.level, config=cfgs[SERIAL],
                         steps=1)
    m["api.normalize_s"] = (median(_timed(req.normalize)[1] for _ in range(5)), "s")
    t0 = time.perf_counter()
    ops = [sparse_operator(mesh, name) for name in matrices]
    m["engine.operator_compile_s"] = (time.perf_counter() - t0, "s")
    cfg = cfgs[ENS]
    _, plan_s = _timed(api.compiled_plan, mesh, cfg, batch=cfg.ensemble)
    m["engine.plan_compile_s"] = (plan_s, "s")

    op_mb = sum(a.nbytes for op in ops for a in (op.data, op.indices, op.indptr)) / 2**20
    print(f"working set: {len(matrices)} CSR operators of the serial step "
          f"{op_mb:.1f} MB + state and diagnostics {state_mb(mesh):.1f} MB, "
          f"last-level cache {harness.last_level_cache()}; pattern bytes are "
          f"computed from array sizes, no bandwidth is claimed")
    return cache


def state_mb(mesh) -> float:
    """Prognostic state (h, u) plus the nine diagnostic fields, in MB."""
    c, e, v = mesh.nCells, mesh.nEdges, mesh.nVertices
    return 8.0 * ((c + e) + (3 * c + 3 * e + 3 * v)) / 2**20


# ---------------------------------------------------------- swm + engine
def _engine_totals(registry) -> tuple[float, float, float]:
    """(coriolis seconds, sparse matvec seconds, fallback count) so far."""
    coriolis = matvec = 0.0
    for s in registry.series("engine.op"):
        if s.tags["op"] == "coriolis_edge_term":
            coriolis += s.total
        if s.tags["backend"] == "sparse":
            matvec += s.total
    fallback = sum(s.value for s in registry.series("engine.fallback"))
    return coriolis, matvec, fallback


def serial_layers(inp: Inputs, cfg, n, m, checks):
    """One traced serial run: kernels, patterns, engine ops, coverage."""
    from repro import api
    from repro.obs.instrument import pattern_info
    from repro.obs.report import measured_vs_modeled, pattern_self_times
    from repro.obs.trace import Tracer

    from workloads import serial_call

    api.run(inp.token, level=inp.level, config=cfg, steps=2)  # warm
    marks = []
    with observing() as (tracer, registry):
        res = api.run(inp.token, level=inp.level, config=cfg, steps=n + 1,
                      callback=lambda s, r: marks.append(
                          (tracer.now(), _engine_totals(registry))))
    checks.attempt(state_failure(res.state, res, inp.mass_tol))
    (t0, e0), (t1, e1) = marks[0], marks[-1]
    steps = len(marks) - 1
    per_step = lambda seconds: 1e3 * seconds / steps  # noqa: E731
    window = [s for s in tracer.finished() if s.start >= t0 and s.end <= t1]

    kernels: dict[str, float] = {}
    for s in window:
        if s.category == "kernel":
            kernels[s.name] = kernels.get(s.name, 0.0) + s.duration
    coverage = sum(kernels.values()) / (t1 - t0)
    checks.attempt(None if coverage >= MIN_KERNEL_COVERAGE else
                   f"kernel spans cover {coverage:.1%} of the traced serial "
                   f"step (< {MIN_KERNEL_COVERAGE:.0%})")
    for name in ("compute_tend", "compute_solve_diagnostics", "mpas_reconstruct"):
        m[f"swm.kernel.{name}_ms_per_step"] = (per_step(kernels.get(name, 0.0)), "ms")
    m["swm.kernel.update_ms_per_step"] = (
        per_step(sum(kernels.get(k, 0.0) for k in UPDATE_KERNELS)), "ms")
    m["swm.kernel_coverage_pct"] = (100.0 * coverage, "%")

    self_times = pattern_self_times(window)
    info = pattern_info()
    nbytes: dict[str, float] = {}
    for s in window:
        if s.category == "pattern" and "n_points" in s.tags:
            for part in str(s.tags["pattern"]).split(","):
                nbytes[part] = nbytes.get(part, 0.0) + (
                    info[part]["bytes_per_point"] * s.tags["n_points"])
    for label in (*PATTERNS, "other"):
        if label == "other":
            secs = sum(v for k, v in self_times.items() if k not in PATTERNS)
            moved = sum(v for k, v in nbytes.items() if k not in PATTERNS)
        else:
            secs, moved = self_times.get(label, 0.0), nbytes.get(label, 0.0)
        m[f"swm.pattern.{label}_ms_per_step"] = (per_step(secs), "ms")
        m[f"swm.pattern.{label}_bytes_per_step"] = (moved / steps, "B")

    m["engine.op.coriolis_ms_per_step"] = (per_step(e1[0] - e0[0]), "ms")
    m["engine.matvec_ms_per_step"] = (per_step(e1[1] - e0[1]), "ms")
    m["engine.fallback_per_step"] = ((e1[2] - e0[2]) / steps, "count")

    window_tracer = Tracer(enabled=False)
    window_tracer.spans = window
    rows = measured_vs_modeled(window_tracer, api.build_mesh(inp.level), cfg)
    print(step_table(rows, kernels, per_step, 1e3 * (t1 - t0) / steps, coverage))

    numpy_cfg = dataclasses.replace(cfg, backend="numpy")
    serial_call(inp, numpy_cfg, steps=2)  # warm the numpy oracle's per-mesh setup
    oracle = Tally()
    _, _, failures = serial_call(inp, numpy_cfg, oracle, steps=n + 1)
    checks.attempt(failures[0])
    m["baseline.numpy_step_ms"] = (1e3 * median(oracle.samples), "ms")


def step_table(rows, kernels, per_step, step_ms, coverage) -> str:
    from repro.bench.tables import render_table

    table = []
    for kernel, secs in sorted(kernels.items(), key=lambda kv: -kv[1]):
        table.append([kernel, f"{per_step(secs):.2f}",
                      f"{per_step(secs) / step_ms:.1%}", "", ""])
        for r in rows:
            if r.kernel == kernel and r.measured_s > 0.0:
                table.append([f"  {r.label} ({r.kind})", f"{per_step(r.measured_s):.2f}",
                              "", f"{r.measured_share:.1%}", f"{r.modeled_share:.1%}"])
    return render_table(
        f"Traced serial step {step_ms:.2f} ms -> Algorithm-1 kernel -> Table-I "
        f"pattern (kernel spans cover {coverage:.1%})",
        ["kernel / pattern", "ms/step", "of step", "pattern share", "model share"],
        table,
    )


# ------------------------------------------------------------- parallel
def pool_layers(inp: Inputs, cfg, n, m, checks, ref):
    """Bitwise pool endpoint; spawn, gather and per-rank halo figures."""
    from repro import api
    from repro.bench.tables import render_table
    from repro.parallel.pool import PoolShallowWater

    res = api.run(inp.token, level=inp.level, config=cfg, steps=n)
    checks.attempt(state_failure(res.state, res, inp.mass_tol))
    checks.attempt(None if bitwise_equal(res.state, ref.state) else
                   "pool2 endpoint differs from the serial sparse run")

    with observing() as (tracer, _):
        pool, spawn_s = _timed(PoolShallowWater, api.build_mesh(inp.level),
                               cfg.ranks, inp.case, cfg)
        try:
            pool.run(2)  # warm; its merged spans are dropped
            tracer.clear()
            pool.run(n)
            gathers = [_timed(pool.gather_state)[1] for _ in range(5)]
        finally:
            pool.close()
    m["pool.spawn_s"] = (spawn_s, "s")
    m["pool.gather_ms"] = (1e3 * median(gathers), "ms")

    # Per-rank halo figures come from the merged halo.sync spans: the
    # workers' halo.* counters are not re-registered after a pool's first
    # observability merge, so only the warm-up run would show in them.
    wait, overlap, exchanges, nbytes, stepping = ({} for _ in range(5))
    for s in tracer.finished():
        r = int(s.tags.get("rank", -1))
        if s.name == "pool_step":
            stepping[r] = stepping.get(r, 0.0) + s.duration
        elif s.category == "halo":
            wait[r] = wait.get(r, 0.0) + s.tags["wait_s"]
            overlap[r] = overlap.get(r, 0.0) + s.tags["overlap_s"]
            exchanges[r] = exchanges.get(r, 0) + 1
            nbytes[r] = nbytes.get(r, 0.0) + s.tags["bytes_est"]
    busy = {r: stepping[r] - wait.get(r, 0.0) for r in stepping}
    table = []
    for r in range(cfg.ranks):
        m[f"pool.halo_wait_ms_per_step.rank{r}"] = (1e3 * wait.get(r, 0.0) / n, "ms")
        m[f"pool.halo_overlap_ms_per_step.rank{r}"] = (
            1e3 * overlap.get(r, 0.0) / n, "ms")
        table.append([r, f"{1e3 * stepping.get(r, 0.0) / n:.2f}",
                      f"{1e3 * wait.get(r, 0.0) / n:.2f}",
                      f"{1e3 * overlap.get(r, 0.0) / n:.2f}",
                      f"{1e3 * busy.get(r, 0.0) / n:.2f}",
                      f"{exchanges.get(r, 0.0) / n:g}",
                      f"{nbytes.get(r, 0.0) / n:.0f}"])
    m["pool.rank_imbalance"] = (
        max(busy.values()) / (sum(busy.values()) / len(busy)), "ratio")
    m["pool.exchanges_per_step"] = (exchanges.get(0, 0.0) / n, "count")
    m["pool.halo_bytes_per_step"] = (sum(nbytes.values()) / n, "B")
    print(render_table(
        f"Pool ranks ({cfg.ranks} ranks, {cfg.halo_schedule} halos, {n} steps)",
        ["rank", "step ms", "halo wait ms", "overlap ms", "busy ms",
         "exchanges", "halo B"],
        table,
    ))


# ------------------------------------------------------------- ensemble
def ensemble_layers(inp: Inputs, cfg, n, m, checks, ref):
    """Bitwise member 0, survivors; batched step and B1 time per step."""
    from repro import api

    from workloads import ensemble_call

    ens = api.run_ensemble("galewsky_jet", level=inp.level, config=cfg, steps=n)
    checks.attempt(None if len(ens.survivors()) == cfg.ensemble else
                   f"{len(ens.survivors())} of {cfg.ensemble} members survived")
    member0 = ens.members[0]
    checks.attempt(None if member0 is not None and bitwise_equal(member0.state, ref.state)
                   else "ensemble member 0 differs from the serial sparse run")

    with observing() as (tracer, registry):
        _, _, failures = ensemble_call(inp, cfg, steps=n)
    for failure in failures:
        checks.attempt(failure)
    timer = registry.series("ensemble.step")[0]
    m["ensemble.step_ms"] = (1e3 * timer.mean, "ms")
    b1 = sum(s.duration for s in tracer.finished()
             if s.category == "plan" and "B1" in str(s.tags.get("pattern")).split(","))
    m["ensemble.coriolis_ms_per_step"] = (1e3 * b1 / timer.count, "ms")
    survivors = registry.series("ensemble.survivors")[0].value
    members = registry.series("ensemble.members")[0].value
    m["ensemble.survivor_ratio"] = (survivors / members, "ratio")


# --------------------------------------------------- jobs + resilience
def durable_layers(inp: Inputs, cfg, n, m, checks, ref):
    """Submit/result, dedup and bitwise endpoint; checkpoint and guard costs."""
    from repro import api
    from repro.resilience.durable import DurableRun
    from repro.resilience.guards import Watchdog

    from workloads import DURABLE_INVARIANT_INTERVAL

    home = harness.scratch_dir("job-")
    try:
        with observing() as (_, registry):
            req = api.RunRequest(case=inp.token, level=inp.level, config=cfg,
                                 steps=n, run_dir=str(home / "run"),
                                 invariant_interval=DURABLE_INVARIANT_INTERVAL)
            handle, submit_s = _timed(api.submit, req)
            res, result_s = _timed(api.result, handle)
            status = api.status(handle)
            api.submit(req)  # the same request again: must deduplicate
        m["jobs.submit_s"] = (submit_s, "s")
        m["jobs.result_s"] = (result_s, "s")
        checks.attempt(state_failure(res.state, res, inp.mass_tol))
        checks.attempt(None if status == "completed" else
                       f"durable job status {status!r} after result()")
        checks.attempt(None if bitwise_equal(res.state, ref.state) else
                       "durable endpoint differs from the serial sparse run")
        dedup = sum(s.value for s in registry.series("jobs.deduplicated"))
        m["jobs.dedup_hits"] = (dedup, "count")
        checks.attempt(None if dedup == 1 else
                       f"one resubmission gave {dedup:g} dedup hits, not 1")

        entries = DurableRun.open(home / "run").manifest["checkpoints"]
        m["resilience.checkpoint_bytes"] = (median(e["bytes"] for e in entries), "B")
        # Step 0 anchors the run; the rest are one per committed step.
        m["resilience.checkpoints_per_step"] = ((len(entries) - 1) / n, "count")

        model = api.ShallowWaterModel.from_checkpoint(
            api.build_mesh(inp.level),
            home / "run" / "checkpoints" / entries[-1]["file"])
        probe = DurableRun.create(home / "probe", inp.token, model.mesh, cfg, n)
        writes = []
        for k in range(1, 6):
            path = probe.checkpoint_path / f"auto-{k:08d}.npz"
            t0 = time.perf_counter()
            model.save_checkpoint(path)
            probe.commit_checkpoint(k, path)
            writes.append(time.perf_counter() - t0)
        m["resilience.checkpoint_ms"] = (1e3 * median(writes), "ms")
        watchdog = Watchdog.from_config(model.mesh, model.b_cell, cfg)
        guards = [_timed(watchdog.check, k, model.state, model.diagnostics, cfg.dt)
                  for k in range(6)]
        for report, _ in guards:
            checks.attempt(None if report is None else report.message())
        m["resilience.guard_ms_per_step"] = (
            1e3 * median(seconds for _, seconds in guards[1:]), "ms")
    finally:
        shutil.rmtree(home, ignore_errors=True)


# ------------------------------------------------------------------ obs
def trace_overhead(workload, inp: Inputs, cfg, steps, checks) -> float:
    """Traced against untraced warm step of one workload, in percent.

    Two alternating rounds per side; each side's median step time.
    """
    from repro.obs.trace import Tracer, use_tracer

    from workloads import WORKLOADS, sample_steps

    sides = {False: [], True: []}
    for _ in range(2):
        for traced in (False, True):
            tally = Tally()
            with use_tracer(Tracer()) if traced else nullcontext():
                sample_steps(WORKLOADS[workload], inp, cfg, 0.0, steps, tally)
            checks.merge(tally)
            sides[traced].extend(tally.samples)
    on, off = median(sides[True]), median(sides[False])
    print(f"tracing overhead ({workload}): traced step {1e3 * on:.2f} ms, "
          f"untraced {1e3 * off:.2f} ms ({len(sides[True])} + "
          f"{len(sides[False])} samples)")
    return 100.0 * (on / off - 1.0)

