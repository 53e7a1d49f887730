"""The B1 Coriolis/PV kernel against its readable oracle, bit for bit.

:class:`repro.swm.operators.CoriolisGather` computes the non-linear
Coriolis term in a transposed ``(K, nEdges)`` layout with explicit row
adds.  The contract pinned here is that it stays **bitwise** equal to the
three-line fancy-index form kept in
:func:`repro.swm.reference.coriolis_edge_term_vectorized`:

* on the icosahedral mesh, and on the same mesh with its TRiSK stencil
  truncated or zero-padded to other widths ``K`` (below 8 the row sum is
  sequential, from 8 on it is 8-lane pairwise, past
  ``_ROW_SUM_MAX_K`` it is ``np.sum``) — the random and variable-
  resolution meshes run the same check in their own test modules;
* with signed zeros, NaN and infinities in the fields;
* when the import-time row-sum probe fails and the kernel falls back to
  ``np.sum``;
* in the fused plan's ``B1`` stage, serial and batched (column k of a
  batched stage equals the serial stage on member k).

It also pins the ``mode="wrap"`` guard (``plan_for`` rejects a TRiSK
table holding an out-of-range edge index) and the other op on the same
lanes-major table, ``tangential_velocity``, which keeps the bits of its
``np.sum`` form.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine.plan import compile_plan
from repro.swm import operators
from repro.swm.config import SWConfig
from repro.swm.operators import coriolis_edge_term, plan_for, tangential_velocity
from repro.swm.reference import (
    coriolis_edge_term_loop,
    coriolis_edge_term_vectorized,
)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _fields(mesh, rng, special: bool = False):
    n = mesh.nEdges
    u = rng.standard_normal(n) * 10.0
    h = rng.uniform(500.0, 2000.0, n)
    pv = rng.standard_normal(n) * 1e-8
    if special:
        u[:7] = [0.0, -0.0, 0.0, -0.0, np.nan, np.inf, -np.inf]
        h[7:10] = [-0.0, np.inf, np.nan]
        pv[10:15] = [-0.0, 0.0, np.nan, -np.inf, np.inf]
        pv[20:40:2] = -0.0
        u[40:60] = -0.0
    return u, h, pv


def assert_matches_oracle(mesh, rng, special: bool = False) -> None:
    """``coriolis_edge_term`` equals the vectorized oracle bit for bit."""
    u, h, pv = _fields(mesh, rng, special)
    with np.errstate(invalid="ignore", over="ignore"):
        want = coriolis_edge_term_vectorized(mesh, u, h, pv)
        got = coriolis_edge_term(mesh, u, h, pv)
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _with_stencil_width(mesh, k: int):
    """``mesh`` with its TRiSK stencil cut or zero-padded to ``k`` lanes."""
    tri = mesh.trisk
    eoe, woe = tri.edgesOnEdge, tri.weightsOnEdge
    width = eoe.shape[1]
    if k <= width:
        eoe, woe = eoe[:, :k].copy(), woe[:, :k].copy()
    else:
        pad = (mesh.nEdges, k - width)
        eoe = np.hstack([eoe, np.full(pad, -1, dtype=eoe.dtype)])
        woe = np.hstack([woe, np.zeros(pad)])
    trisk = dataclasses.replace(
        tri,
        nEdgesOnEdge=np.minimum(tri.nEdgesOnEdge, k),
        edgesOnEdge=eoe,
        weightsOnEdge=woe,
    )
    return dataclasses.replace(mesh, trisk=trisk, name=f"{mesh.name}-K{k}")


class TestOracle:
    @pytest.mark.parametrize("special", [False, True], ids=["finite", "special"])
    def test_icosahedral(self, mesh3, rng, special):
        assert plan_for(mesh3).eoe_T.shape[0] == 10
        assert_matches_oracle(mesh3, rng, special)

    @pytest.mark.parametrize("k", [1, 2, 5, 7, 8, 9, 16, 17, 24, 40, 41])
    @pytest.mark.parametrize("special", [False, True], ids=["finite", "special"])
    def test_stencil_widths(self, mesh3, rng, k, special):
        mesh = _with_stencil_width(mesh3, k)
        assert plan_for(mesh).eoe_T.shape[0] == k
        assert_matches_oracle(mesh, rng, special)

    def test_agrees_with_loop_to_roundoff(self, mesh3, rng):
        u, h, pv = _fields(mesh3, rng)
        got = coriolis_edge_term(mesh3, u, h, pv)
        want = coriolis_edge_term_loop(mesh3, u, h, pv)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_strided_inputs_and_fresh_output(self, mesh3, rng):
        """Member columns of an ``(n, N)`` block go in without copies, and
        each call returns a new array (callers keep the result)."""
        u, h, pv = _fields(mesh3, rng)
        block = np.stack([u, h, pv], axis=1)
        got = coriolis_edge_term(mesh3, block[:, 0], block[:, 1], block[:, 2])
        again = coriolis_edge_term(mesh3, u, h, pv)
        np.testing.assert_array_equal(_bits(got), _bits(again))
        assert got is not again


class TestTangentialVelocity:
    @pytest.mark.parametrize("k", [5, 10, 17, 41])
    def test_keeps_the_np_sum_bits(self, mesh3, rng, k):
        mesh = _with_stencil_width(mesh3, k)
        u, _, _ = _fields(mesh, rng, special=True)
        eoe = mesh.trisk.edgesOnEdge
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.sum(mesh.trisk.weightsOnEdge * u[np.where(eoe >= 0, eoe, 0)], axis=1)
            got = tangential_velocity(mesh, u)
        np.testing.assert_array_equal(_bits(got), _bits(want))


class TestRowSumProbe:
    def test_probe_passes_on_installed_numpy(self):
        assert operators._probe_row_sum()
        assert operators._ROW_SUM_EXACT

    def test_probe_rejects_a_sum_started_from_the_first_element(self, monkeypatch):
        """Older numpy seeded the reduce with ``a0`` instead of ``+0.0``:
        a row of ``-0.0`` then sums to ``-0.0``, which the probe must see."""

        def seeded_from_a0(a, out):
            out[...] = a[0]
            for i in range(1, a.shape[0]):
                np.add(out, a[i], out=out)
            return out

        monkeypatch.setattr(operators, "_row_sum", seeded_from_a0)
        assert not operators._probe_row_sum()

    @pytest.mark.parametrize("k", [5, 10, 17])
    def test_fallback_is_bitwise(self, mesh3, rng, monkeypatch, k):
        monkeypatch.setattr(operators, "_ROW_SUM_EXACT", False)
        assert_matches_oracle(_with_stencil_width(mesh3, k), rng, special=True)


class TestWrapGuard:
    def test_out_of_range_index_is_rejected(self, mesh3):
        eoe = mesh3.trisk.edgesOnEdge.copy()
        eoe[17, 0] = mesh3.nEdges
        trisk = dataclasses.replace(mesh3.trisk, edgesOnEdge=eoe)
        corrupt = dataclasses.replace(mesh3, trisk=trisk, name="corrupt")
        u = np.ones(mesh3.nEdges)
        with pytest.raises(ValueError, match="edgesOnEdge"):
            plan_for(corrupt)
        with pytest.raises(ValueError, match="edgesOnEdge"):
            coriolis_edge_term(corrupt, u, u, u)


class TestPlanStage:
    @staticmethod
    def _b1(mesh, batch: int):
        plan = compile_plan(mesh, SWConfig(dt=60.0, backend="sparse"), batch=batch)
        (stage,) = [s for s in plan.stages()["tend"] if s.pattern == "B1"]
        assert (stage.name, stage.kind, stage.op) == (
            "coriolis_edge_term", "fallback", "coriolis_edge_term",
        )
        return stage

    def test_serial_stage_matches_oracle(self, mesh3, rng):
        u, h, pv = _fields(mesh3, rng, special=True)
        ctx = {"u": u, "h_edge": h, "pv_edge": pv}
        with np.errstate(invalid="ignore", over="ignore"):
            self._b1(mesh3, 0).run(ctx)
            want = coriolis_edge_term_vectorized(mesh3, u, h, pv)
        np.testing.assert_array_equal(_bits(ctx["q"]), _bits(want))

    @pytest.mark.parametrize("n_members", [1, 3, 4])
    def test_batched_column_equals_serial_stage(self, mesh3, rng, n_members):
        members = [_fields(mesh3, rng, special=(k == 1)) for k in range(n_members)]
        u, h, pv = (np.stack(f, axis=1) for f in zip(*members))
        batched = {"u": u, "h_edge": h, "pv_edge": pv}
        serial = self._b1(mesh3, 0)
        with np.errstate(invalid="ignore", over="ignore"):
            self._b1(mesh3, n_members).run(batched)
            for k, (uk, hk, pvk) in enumerate(members):
                ctx = {"u": uk, "h_edge": hk, "pv_edge": pvk}
                serial.run(ctx)
                np.testing.assert_array_equal(
                    _bits(batched["q"][:, k]), _bits(ctx["q"]), err_msg=f"member {k}"
                )
