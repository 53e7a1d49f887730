"""Golden-run regression matrix: pinned invariant trajectories.

``tests/golden/<case>-l3-<backend>.json`` pins the mass / total-energy /
potential-enstrophy trajectory of a 10-step run of every golden-flagged
scenario (``repro.swm.scenarios``) on the level-3 mesh, stored as
``float.hex()`` strings so the comparison is *bitwise*, not approximate.
The matrix covers three axes:

* **case** — every scenario with ``golden=True`` in the registry
  (mountain, Rossby–Haurwitz, Galewsky, dam break, ridge);
* **backend** — numpy / sparse / plan (the fused executor);
* **mode** — serial, lockstep and pool executors.  Decomposed runs only
  record endpoint invariants, so mode cells assert the start/end entries
  of the *same* golden file the serial cell pinned — the
  bitwise-identical execution contract, enforced per case.

Any change to the numerics — intended or not — trips these tests; an
intended change regenerates the registry with::

    REPRO_GOLDEN_REGEN=1 python -m pytest tests/test_golden.py

(or ``python -m repro golden regen``).  The resumed-run check closes the
durability loop: a run interrupted mid-trajectory and resumed must
reproduce the golden invariants exactly from its restart point onward.

One cell pins the contract at the size the performance work targets:
``galewsky_jet-l5-sparse.json`` is a 3-step Galewsky run on the level-5
mesh (10,242 cells), checked serially (sparse and fused plan) and on a
two-rank dataflow pool, so a kernel rewrite cannot hide drift that only
shows at scale.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import resolve_case, run, suggested_dt
from repro.constants import GRAVITY
from repro.resilience.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    use_fault_plan,
)
from repro.swm.config import SWConfig
from repro.swm.scenarios import SCENARIOS, scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
STEPS = 10
LEVEL = 3
REGEN = bool(os.environ.get("REPRO_GOLDEN_REGEN"))

CASES = tuple(sc.name for sc in SCENARIOS if sc.golden)

BACKENDS = {
    "numpy": {"backend": "numpy"},
    "sparse": {"backend": "sparse"},
    "plan": {"backend": "sparse", "plan": True},
}

MODES = {
    "serial": {},
    "lockstep": {"parallel": "lockstep", "ranks": 2},
    "pool": {"parallel": "pool", "ranks": 2},
}

KEYS = ("mass", "total_energy", "potential_enstrophy")

#: The at-scale cell: one case, one level-5 trajectory file.
SCALE_CASE = "galewsky_jet"
SCALE_LEVEL = 5
SCALE_STEPS = 3


def skip_reason(case: str, backend: str, mode: str) -> str | None:
    """Why a matrix cell does not run, or ``None`` if it does.

    Pool cells spawn worker processes (the expensive executor), so they
    run one backend per case — sparse, the production numerics — rather
    than all three; lockstep and serial cover the full backend axis.
    """
    if mode == "pool" and backend != "sparse":
        return "pool cells run the sparse backend only (process spawn cost)"
    return None


def expected_golden_files() -> set[str]:
    """Every file the matrix (plus the ensemble pin) reads or writes.

    ``test_repo_hygiene`` asserts ``tests/golden/`` holds exactly these,
    so a renamed case cannot leave an orphaned, never-checked golden
    behind.
    """
    files = {
        f"{case}-l{LEVEL}-{backend}.json"
        for case in CASES
        for backend in BACKENDS
    }
    files.add(f"galewsky_jet-l{LEVEL}-ensemble.json")
    files.add(f"{SCALE_CASE}-l{SCALE_LEVEL}-sparse.json")
    return files


def _config(case: str, mesh, backend: str, **extra) -> SWConfig:
    sc = scenario(case)
    dt = suggested_dt(mesh, resolve_case(case), GRAVITY, cfl=sc.suggested_cfl)
    return SWConfig(dt=dt, thickness_adv_order=4, **BACKENDS[backend], **extra)


def _trajectory(result) -> dict[str, list[str]]:
    hist = result.invariant_history
    return {
        "mass": [float.hex(i.mass) for i in hist],
        "total_energy": [float.hex(i.total_energy) for i in hist],
        "potential_enstrophy": [
            float.hex(i.potential_enstrophy) for i in hist
        ],
    }


def _golden_path(case: str, backend: str, level: int = LEVEL) -> Path:
    return GOLDEN_DIR / f"{case}-l{level}-{backend}.json"


def _load_golden(case: str, backend: str, level: int = LEVEL) -> dict:
    path = _golden_path(case, backend, level)
    if not path.exists():
        pytest.fail(
            f"missing golden file {path}; regenerate the registry with "
            f"REPRO_GOLDEN_REGEN=1 python -m pytest tests/test_golden.py"
        )
    return json.loads(path.read_text())


def _mismatches(payload: dict, golden: dict) -> list[str]:
    """Keys on which ``payload`` deviates from ``golden`` (hex-exact)."""
    bad = [] if payload["dt"] == golden["dt"] else ["dt"]
    bad.extend(k for k in KEYS if payload[k] != golden[k])
    return bad


def _serial_payload(case: str, level: int, steps: int, config, result) -> dict:
    return {
        "case": case,
        "level": level,
        "steps": steps,
        "cfl": scenario(case).suggested_cfl,
        "dt": float.hex(config.dt),
        **_trajectory(result),
    }


def _pin_or_check(case: str, backend: str, payload: dict, level: int = LEVEL) -> None:
    """Write ``payload`` as the golden file when regenerating, else compare."""
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        _golden_path(case, backend, level).write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        return
    bad = _mismatches(payload, _load_golden(case, backend, level))
    assert not bad, (
        f"{bad} deviate from tests/golden for case {case!r} backend "
        f"{backend!r} level {level}; if the numerics change is intended, "
        f"regenerate with REPRO_GOLDEN_REGEN=1"
    )


def _assert_endpoints(got: dict, golden: dict, label: str) -> None:
    """A decomposed run's ``[start, end]`` invariants equal the serial ends."""
    for key in KEYS:
        assert len(got[key]) == 2
        assert got[key][0] == golden[key][0], f"{label} initial {key} deviates"
        assert got[key][-1] == golden[key][-1], f"{label} final {key} deviates"


class TestGoldenMatrix:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_serial_matches_golden(self, mesh3, case, backend):
        config = _config(case, mesh3, backend)
        result = run(
            case, mesh=mesh3, config=config, steps=STEPS,
            invariant_interval=1,
        )
        _pin_or_check(
            case, backend, _serial_payload(case, LEVEL, STEPS, config, result)
        )

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("mode", [m for m in MODES if m != "serial"])
    def test_decomposed_matches_golden_endpoints(
        self, mesh3, case, backend, mode
    ):
        """Lockstep/pool rejoin the serial golden at both endpoints.

        Decomposed executors record ``[start, end]`` invariants only, and
        the execution contract says owned state is bitwise-identical to
        serial — so both entries must equal the serial golden's first and
        last entries to the bit.
        """
        reason = skip_reason(case, backend, mode)
        if reason:
            pytest.skip(reason)
        if REGEN:
            pytest.skip("regenerating (serial cells write the files)")
        golden = _load_golden(case, backend)
        config = _config(case, mesh3, backend, **MODES[mode])
        result = run(case, mesh=mesh3, config=config, steps=STEPS)
        assert float.hex(config.dt) == golden["dt"], "time step drifted"
        _assert_endpoints(_trajectory(result), golden, f"{mode} {case!r}")

    @pytest.mark.parametrize("case", CASES)
    def test_backends_share_one_trajectory(self, case):
        """The pinned files agree: plan == sparse bitwise, numpy to ~1e-13.

        The plan executor fuses the *same* CSR operators the sparse
        backend applies, so their trajectories must be identical to the
        bit; the numpy backend sums fluxes in a different association
        order and is allowed round-off-level divergence only.
        """
        if REGEN:
            pytest.skip("regenerating")
        goldens = {b: _load_golden(case, b) for b in BACKENDS}
        assert goldens["numpy"]["dt"] == goldens["sparse"]["dt"]
        for key in ("dt", *KEYS):
            assert goldens["plan"][key] == goldens["sparse"][key], key
        for key in KEYS:
            ref = [float.fromhex(x) for x in goldens["numpy"][key]]
            got = [float.fromhex(x) for x in goldens["sparse"][key]]
            for a, b in zip(ref, got):
                assert abs(a - b) <= 1e-13 * abs(a), key

    def test_matrix_trips_on_one_ulp(self):
        """A single-ulp perturbation anywhere in a trajectory is caught.

        This is the property the whole registry rests on: ``float.hex``
        round-trips doubles exactly, so the weakest possible numerical
        drift — one unit in the last place of one invariant at one step —
        already shows up as a mismatch.
        """
        if REGEN:
            pytest.skip("regenerating")
        golden = _load_golden(CASES[0], "sparse")
        payload = json.loads(json.dumps(golden))  # deep copy
        assert _mismatches(payload, golden) == []
        val = float.fromhex(payload["total_energy"][-1])
        payload["total_energy"][-1] = float.hex(np.nextafter(val, np.inf))
        assert _mismatches(payload, golden) == ["total_energy"]


class TestGoldenEnsembleAndResume:
    def test_ensemble_mean_matches_golden(self, mesh3):
        """``galewsky_jet-l3-ensemble.json`` pins the 4-member ensemble-
        *mean* invariant trajectory (fixed seed, lockstep batch).  This
        guards the whole batched stack — member ICs, the ``(n, N)`` matvec
        path, the fused batch plan — with one file."""
        from repro.api import run_ensemble

        n_members = 4
        config = _config(
            "galewsky_jet", mesh3, "sparse", ensemble=n_members,
            ensemble_seed=2015, ensemble_amplitude=1e-6,
        )
        ens = run_ensemble(
            "galewsky_jet", mesh=mesh3, config=config, steps=STEPS,
            invariant_interval=1,
        )
        assert [v.status for v in ens.verdicts] == ["ok"] * n_members
        payload = {
            "case": "galewsky_jet",
            "level": LEVEL,
            "steps": STEPS,
            "ensemble": n_members,
            "seed": 2015,
            "dt": float.hex(config.dt),
            "mass": [float.hex(i.mass) for i in ens.mean_invariants()],
            "total_energy": [
                float.hex(i.total_energy) for i in ens.mean_invariants()
            ],
            "potential_enstrophy": [
                float.hex(i.potential_enstrophy)
                for i in ens.mean_invariants()
            ],
        }
        _pin_or_check("galewsky_jet", "ensemble", payload)

    def test_resumed_run_matches_golden(self, mesh3, tmp_path):
        """Interrupt at step 6, resume: invariants rejoin the golden tail."""
        if REGEN:
            pytest.skip("regenerating")
        config = _config(
            "galewsky_jet", mesh3, "numpy", checkpoint_interval=2
        )
        d = tmp_path / "run"
        with use_fault_plan(FaultPlan([
            FaultSpec("process.crash", at=(1,), match={"step": 6})
        ])):
            with pytest.raises(FaultInjected):
                run(
                    "galewsky_jet", mesh=mesh3, config=config, steps=STEPS,
                    run_dir=d, invariant_interval=1,
                )
        resumed = run(resume=d, mesh=mesh3, invariant_interval=1)
        tail = _trajectory(resumed)
        golden = _load_golden("galewsky_jet", "numpy")
        # The resumed history covers steps 4..10 (restart point onward).
        start = STEPS + 1 - len(tail["mass"])
        assert start == 4
        for key in KEYS:
            assert tail[key] == golden[key][start:], key


@pytest.fixture(scope="module")
def mesh5():
    """10,242-cell SCVT mesh (icosahedral level 5, Lloyd-relaxed)."""
    from repro.mesh import cached_mesh

    return cached_mesh(SCALE_LEVEL)


@pytest.mark.slow
class TestGoldenAtScale:
    """The level-5 cell: sparse and plan serial, pool-dataflow endpoints."""

    @pytest.mark.parametrize("backend", ["sparse", "plan"])
    def test_serial_matches_golden(self, mesh5, backend):
        if REGEN and backend != "sparse":
            pytest.skip("regenerating (the sparse cell writes the file)")
        config = _config(SCALE_CASE, mesh5, backend)
        result = run(
            SCALE_CASE, mesh=mesh5, config=config, steps=SCALE_STEPS,
            invariant_interval=1,
        )
        # The plan is bitwise the sparse backend: both check one file.
        payload = _serial_payload(
            SCALE_CASE, SCALE_LEVEL, SCALE_STEPS, config, result
        )
        _pin_or_check(SCALE_CASE, "sparse", payload, SCALE_LEVEL)

    @pytest.mark.parametrize("backend", ["sparse", "plan"])
    def test_pool_dataflow_matches_golden_endpoints(self, mesh5, backend):
        if REGEN:
            pytest.skip("regenerating (serial cells write the files)")
        golden = _load_golden(SCALE_CASE, "sparse", SCALE_LEVEL)
        config = _config(
            SCALE_CASE, mesh5, backend, parallel="pool", ranks=2,
            halo_schedule="dataflow",
        )
        result = run(SCALE_CASE, mesh=mesh5, config=config, steps=SCALE_STEPS)
        assert float.hex(config.dt) == golden["dt"], "time step drifted"
        _assert_endpoints(_trajectory(result), golden, f"pool-dataflow {backend}")
