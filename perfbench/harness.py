"""Shared pieces of the benchmark: scale, seeded inputs, checks, statistics.

Nothing here times anything; ``workloads.py`` and ``traced.py`` do, by
timing calls into the public ``repro`` surface from outside.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: The checkout root (this file lives in ``<root>/perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes at run time (mesh archive, scratch
#: caches, durable run directories) lives here and is git-ignored.
WORK = ROOT / ".perfbench-work"


#: Every user call asks for the same simulated-time slice: the scenario's
#: suggested run (6 days for the Galewsky jet) split into this many
#: requests, one simulated hour each, as a client taking hourly output
#: would.  At level 5 that is 13 RK-4 steps of the CFL-safe ``dt``.
REQUESTS_PER_SCENARIO_RUN = 144


@dataclass(frozen=True)
class Scale:
    """How big one run is: mesh level, call counts, sample floors."""

    level: int
    #: Durable submit/result calls per run.  A fixed count, because the job
    #: queue keeps every completed job, so ``peak_rss_mb`` grows per call.
    durable_calls: int
    #: Step-time samples a run collects at least (p90 then has >= 10
    #: samples beyond it).
    min_samples: int
    #: Fresh set-up processes per run; ``setup_s`` is their median.
    setup_repeats: int
    #: Steps of the traced runs and of the bitwise cross-checks.
    trace_steps: int
    #: Step samples per side of the tracing-overhead comparison.
    overhead_steps: int


FULL = Scale(
    level=5,
    durable_calls=6,
    min_samples=100,
    setup_repeats=3,
    trace_steps=10,
    overhead_steps=30,
)

#: The fast mode of the benchmark's own tests: level 3 (642 cells).
SMOKE = Scale(
    level=3,
    durable_calls=1,
    min_samples=4,
    setup_repeats=1,
    trace_steps=3,
    overhead_steps=3,
)


def import_repro():
    """Put the checkout's ``src`` first on the path and import the package.

    The layers the workloads call are imported here, up front, so a timed
    set-up measures work rather than module imports.
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.api  # noqa: F401  (fails loudly outside a full checkout)
    import repro.ensemble  # noqa: F401
    import repro.parallel.pool  # noqa: F401
    import repro.resilience.durable  # noqa: F401


class Inputs:
    """The seeded inputs of one run: the perturbed Galewsky jet at a level.

    ``dt`` is the CFL-safe step of the perturbed case; every workload uses
    it, so the serial run of the same seed is the bitwise reference for the
    pool, durable and ensemble-member-0 endpoints.  ``request_days`` is the
    simulated time of every timed user call.
    """

    def __init__(self, seed: int, level: int, dt: float | None = None) -> None:
        from repro import api
        from repro.constants import GRAVITY
        from repro.swm import scenarios

        self.seed = int(seed)
        self.level = int(level)
        self.token = f"perturbed:galewsky_jet:0:{self.seed}"
        self.case = api.resolve_case(self.token)
        scenario = scenarios.scenario_for(self.case)
        self.mass_tol = scenario.mass_drift_tol
        self.request_days = scenario.suggested_days / REQUESTS_PER_SCENARIO_RUN
        if dt is None:
            dt = api.suggested_dt(api.build_mesh(self.level), self.case, GRAVITY)
        self.dt = float(dt)

    def length(self, steps: int | None) -> dict:
        """Integration-length keywords of a call: ``steps`` if given, else
        the standard request of ``request_days``."""
        return {"steps": steps} if steps else {"days": self.request_days}

    @property
    def n_cells(self) -> int:
        from repro import api

        return api.build_mesh(self.level).nCells


@dataclass
class Tally:
    """Attempts, failures and timings gathered by one measurement."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # seconds per RK-4 step
    #: nCells x members x steps / wall seconds of each user-facing call.
    rates: list = field(default_factory=list)
    #: Member-steps of one timed user call (one simulated hour).
    call_steps: int = 0

    def attempt(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)

    def merge(self, other: "Tally") -> None:
        """Take over another tally's attempts and failures."""
        self.attempted += other.attempted
        self.failures.extend(other.failures)


def result(attempted: int, failed: int, metrics: dict) -> dict:
    """The benchmark's last output line: ``metrics`` maps name -> (value, unit)."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def state_failure(state, result=None, tol: float | None = None) -> str | None:
    """Why a run's output is wrong, or ``None``: finite state, mass drift."""
    if not (np.isfinite(state.h).all() and np.isfinite(state.u).all()):
        return "non-finite prognostic state"
    if result is not None:
        drift = result.mass_drift()
        if not drift <= tol:
            return f"mass drift {drift:.3g} exceeds the scenario tolerance {tol:.3g}"
    return None


def bitwise_equal(a, b) -> bool:
    """Same prognostic state bit for bit (``h`` and ``u``)."""
    return all(
        x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))
        for x, y in ((a.h, b.h), (a.u, b.u))
    )


def p50_p90_ms(samples: list) -> tuple[float, float]:
    """Median and 90th percentile of step times (seconds in, ms out)."""
    ms = np.asarray(samples) * 1e3
    return float(np.median(ms)), float(np.percentile(ms, 90))


def median(values) -> float:
    return float(statistics.median(values))


def check_cores(cfg) -> None:
    """Load discipline: never more worker processes than usable cores."""
    nproc = len(os.sched_getaffinity(0))
    if cfg.ranks > nproc:
        sys.exit(f"{cfg.ranks} pool ranks need {cfg.ranks} cores; this host "
                 f"gives {nproc}")


# ------------------------------------------------------------- caches, dirs
def fresh_cache(archive: Path) -> Path:
    """A new cache directory holding only the mesh archive and its seal."""
    d = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK))
    shutil.copy2(archive, d)
    shutil.copy2(str(archive) + ".crc", d)
    return d


def scratch_dir(prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


# -------------------------------------------------------------- host facts
def vm_hwm_mb() -> float:
    """Peak resident set (``VmHWM``) of this process, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cpu_times() -> list[int]:
    """Aggregate CPU jiffies from ``/proc/stat`` (user .. steal)."""
    return [int(v) for v in Path("/proc/stat").read_text().split("\n")[0].split()[1:9]]


def steal_share(before: list[int]) -> float:
    """Share of CPU time the hypervisor took from this VM since ``before``;
    a shared host's steal is what makes run-to-run timings wander."""
    delta = [b - a for a, b in zip(before, cpu_times())]
    return delta[7] / max(sum(delta), 1)


def last_level_cache() -> str:
    """Size of the highest-level CPU cache, as the kernel reports it."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, "unknown")
    for index in base.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def host_lines() -> list[str]:
    import numpy
    import scipy

    return [
        f"host: nproc={len(os.sched_getaffinity(0))} "
        f"llc={last_level_cache()} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} "
        f"threads: OMP/OPENBLAS/MKL pinned to "
        f"{os.environ.get('OMP_NUM_THREADS')}",
    ]
