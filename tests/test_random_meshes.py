"""Generality battery: the full stack on random (non-icosahedral) SCVTs.

Everything in the repository is built and tested on icosahedral meshes;
these tests guard against accidental reliance on their symmetry by running
the invariants and the model on SCVTs generated from *random* seed points.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.geometry import lloyd_relax, normalize
from repro.mesh import Mesh


@pytest.fixture(scope="module", params=[11, 23, 57])
def random_mesh(request):
    rng = np.random.default_rng(request.param)
    pts = lloyd_relax(
        normalize(rng.standard_normal((120, 3))), iterations=60
    ).points
    return Mesh.from_points(pts, name=f"random120-{request.param}")


class TestStructure:
    def test_validates(self, random_mesh):
        random_mesh.validate()

    def test_euler(self, random_mesh):
        m = random_mesh
        assert m.nVertices - m.nEdges + m.nCells == 2

    def test_polygon_census(self, random_mesh):
        """Euler again, by degrees: average cell degree < 6, and the
        pentagon-equivalent deficit sums to 12."""
        degrees = random_mesh.nEdgesOnCell
        assert np.sum(6 - degrees) == 12


class TestOperators:
    def test_trisk_antisymmetry(self, random_mesh):
        m = random_mesh
        table = {}
        for e in range(m.nEdges):
            for j in range(int(m.nEdgesOnEdge[e])):
                ep = int(m.edgesOnEdge[e, j])
                w = m.weightsOnEdge[e, j] * m.dcEdge[e] / m.dvEdge[ep]
                table[(e, ep)] = table.get((e, ep), 0.0) + w
        worst = max(abs(w + table.get((ep, e), 0.0)) for (e, ep), w in table.items())
        assert worst < 1e-12

    @pytest.mark.parametrize("special", [False, True], ids=["finite", "special"])
    def test_coriolis_matches_oracle_bitwise(self, random_mesh, rng, special):
        """K = 12 here (heptagons): the B1 kernel still equals its oracle."""
        from tests.test_coriolis_gather import assert_matches_oracle

        assert_matches_oracle(random_mesh, rng, special)

    def test_divergence_theorem(self, random_mesh, rng):
        from repro.swm.operators import cell_divergence

        u = rng.standard_normal(random_mesh.nEdges)
        total = np.sum(cell_divergence(random_mesh, u) * random_mesh.areaCell)
        assert abs(total) < 1e-11 * np.sum(np.abs(u) * random_mesh.dvEdge)

    def test_curl_of_gradient(self, random_mesh, rng):
        from repro.swm.operators import edge_gradient_of_cell, vertex_curl

        phi = rng.standard_normal(random_mesh.nCells)
        curl = vertex_curl(random_mesh, edge_gradient_of_cell(random_mesh, phi))
        scale = np.abs(phi).max() / random_mesh.dcEdge.min()
        assert np.abs(curl).max() < 1e-10 * scale


class TestModel:
    def test_tc2_runs_and_conserves(self, random_mesh):
        from repro.swm import (
            ShallowWaterModel,
            SWConfig,
            steady_zonal_flow,
            suggested_dt,
        )

        case = steady_zonal_flow()
        dt = suggested_dt(random_mesh, case, GRAVITY, cfl=0.4)
        model = ShallowWaterModel(random_mesh, SWConfig(dt=dt))
        model.initialize(case)
        res = model.run(steps=20, invariant_interval=10)
        assert res.mass_drift() < 1e-13
        assert np.all(np.isfinite(res.state.u))
        # Coarse random meshes are rougher than icosahedral ones; the
        # steady state still holds to ~percent level.
        assert model.exact_error().l2 < 0.05

    def test_decomposition_bitwise(self, random_mesh):
        from repro.parallel import DecomposedShallowWater
        from repro.swm import (
            ShallowWaterModel,
            SWConfig,
            steady_zonal_flow,
            suggested_dt,
        )

        case = steady_zonal_flow()
        cfg = SWConfig(dt=suggested_dt(random_mesh, case, GRAVITY, cfl=0.4))
        serial = ShallowWaterModel(random_mesh, cfg)
        serial.initialize(case)
        res = serial.run(steps=3)
        dec = DecomposedShallowWater(random_mesh, 2, case, cfg)
        dec.run(3)
        gathered = dec.gather_state()
        assert np.array_equal(gathered.h, res.state.h)
        assert np.array_equal(gathered.u, res.state.u)
