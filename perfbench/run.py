"""Benchmark of the MPAS shallow-water reproduction at level 5 (10,242 cells).

Run from the root of a checkout::

    python3 perfbench/run.py --workload jet-l5-ens4 --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each is there): ``jet-l5-ens4``,
``jet-l5-durable``.  Every input is the Galewsky jet at mesh
level 5 perturbed by ``--seed`` (``perturbed:galewsky_jet:0:<seed>``;
``perturb_seed=<seed>`` for the ensemble).

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
as the median of fresh processes whose cache holds only the mesh archive,
then warm throughput and per-step times of the workload for ``--seconds``.
``--trace 1`` runs the traced suite instead (``traced.py``): per-layer
numbers for every layer, the serial run and the two-rank pool included,
bitwise cross-checks against the serial run, and the cost of tracing for
the chosen workload.  ``--smoke`` runs the same code at level 3 with a few
steps (the benchmark's own tests use it).

The human-readable report goes to stdout; its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The first run
in a checkout builds the level-5 mesh archive (about 20 s) into
``.perfbench-work/``, which holds everything the benchmark writes.
"""

import os

# Load discipline: one BLAS/OpenMP thread per process, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fcntl  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
from harness import FULL, ROOT, SMOKE, WORK, Inputs  # noqa: E402

SETUP_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="level 3 and a few steps: the benchmark's own tests")
    # Internal: one timed set-up in this (fresh) process.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--dt", type=float, help=argparse.SUPPRESS)
    # Internal: build the mesh archive into REPRO_CACHE_DIR, then exit.
    p.add_argument("--build-archive", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def ensure_archive(args, level: int) -> Path:
    """The private mesh cache: built on a checkout's first run, then loaded.

    The build runs in a child process, so this process's ``peak_rss_mb``
    is the same on the first run of a checkout as on later ones.  Every
    measurement then runs against a fresh copy of the archive alone, so
    ``~/.cache`` is never used.
    """
    os.environ["REPRO_CACHE_DIR"] = str(WORK / f"mesh-l{level}")
    from repro.mesh.cache import mesh_cache_path

    archive = mesh_cache_path(level)
    if not (archive.exists() and Path(f"{archive}.crc").exists()):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--build-archive",
               "--workload", args.workload, "--seed", str(args.seed)]
        subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT,
                       check=True, timeout=SETUP_TIMEOUT_S)
    return archive


def setup_probe(args) -> int:
    """Child side: time the first one-step user call of a fresh process."""
    from workloads import WORKLOADS

    scale = SMOKE if args.smoke else FULL
    wl = WORKLOADS[args.workload]
    inp = Inputs(args.seed, scale.level, dt=args.dt)
    cfg = wl.config(inp)
    wall, _, failures = wl.call(inp, cfg, steps=1)
    print(json.dumps({"setup_s": wall, "failures": [f for f in failures if f]}))
    return 0


def time_setup(args, archive: Path, dt: float, tally) -> float | None:
    """Parent side: one set-up process over a fresh archive-only cache."""
    cache = harness.fresh_cache(archive)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--dt", repr(dt)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=dict(os.environ, REPRO_CACHE_DIR=str(cache)),
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tally.attempt(f"set-up process failed: {proc.stderr.strip()[-300:]}")
            return None
        out = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        tally.attempt(f"set-up process exceeded {SETUP_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    tally.attempt("; ".join(out["failures"]) or None)
    return out["setup_s"]


def end_to_end(args, scale, archive: Path) -> dict:
    from workloads import WORKLOADS, measure

    wl = WORKLOADS[args.workload]
    # This process, too, starts from the archive alone: it compiles its
    # operators in the untimed warm-up on every run, so ``peak_rss_mb`` does
    # not depend on what earlier runs left in a cache.
    cache = harness.fresh_cache(archive)
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    try:
        inp = Inputs(args.seed, scale.level)
        cfg = wl.config(inp)
        probes = harness.Tally()
        setups = [time_setup(args, archive, inp.dt, probes)
                  for _ in range(scale.setup_repeats)]
        setups = [s for s in setups if s is not None]
        tally = measure(wl, inp, cfg, args.seconds, scale)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    attempted = tally.attempted + probes.attempted
    failures = probes.failures + tally.failures
    p50, p90 = harness.p50_p90_ms(tally.samples)
    print(f"workload {wl.name}: {inp.n_cells} cells, seed {inp.seed}, "
          f"dt {inp.dt:.6g} s; each user call integrates "
          f"{24 * inp.request_days:g} simulated hour(s) = {tally.call_steps} "
          f"member-steps")
    print(f"  set-up runs (s): {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"  user calls: {len(tally.rates)}, cell-steps/s median "
          f"{harness.median(tally.rates):.0f} (min {min(tally.rates):.0f}, "
          f"max {max(tally.rates):.0f})")
    print(f"  step samples: {len(tally.samples)} (p50 {p50:.2f} ms, p90 {p90:.2f} ms)")
    print(f"  attempts {attempted}, failures {len(failures)}")
    for failure in failures[:5]:
        print(f"  FAILED: {failure}")
    metrics = {
        "setup_s": (harness.median(setups), "s"),
        "cell_steps_per_s": (harness.median(tally.rates), "cell-steps/s"),
        "step_ms_p50": (p50, "ms"),
        "step_ms_p90": (p90, "ms"),
        "peak_rss_mb": (harness.vm_hwm_mb(), "MB"),
        "success_rate": (1.0 - len(failures) / attempted, "ratio"),
    }
    return harness.result(attempted, len(failures), metrics)


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for the
    pool's shared memory, so no process of this run outlives it."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.import_repro()  # outside a full checkout this raises: no result
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    scale = SMOKE if args.smoke else FULL
    if args.setup_probe:
        return setup_probe(args)
    if args.build_archive:
        from repro.api import build_mesh

        build_mesh(scale.level)
        return 0
    WORK.mkdir(exist_ok=True)
    with open(WORK / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # never two benchmark runs at once
        for line in harness.host_lines():
            print(line)
        archive = ensure_archive(args, scale.level)
        cpu_before = harness.cpu_times()
        if args.trace:
            import traced

            out = traced.run(args, scale, archive)
        else:
            out = end_to_end(args, scale, archive)
        print(f"host CPU steal during the run: "
              f"{harness.steal_share(cpu_before):.1%} of CPU time")
    stop_resource_tracker()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
