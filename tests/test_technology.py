"""Synthetic technologies: variable counts, variation effects, Pelgrom law."""

import numpy as np
import pytest

from repro.circuit.tech import C035Technology, N90Technology


@pytest.fixture(scope="module")
def c035():
    return C035Technology()


@pytest.fixture(scope="module")
def n90():
    return N90Technology()


class TestInventory:
    def test_c035_has_the_papers_20_names(self, c035):
        expected = {
            "TOXRn", "VTH0Rn", "DELUON", "DELL", "DELW", "DELRDIFFN",
            "VTH0Rp", "DELUOP", "DELRDIFFP", "CJSWRn", "CJSWRp", "CJRn",
            "CJRp", "NPEAKn", "NPEAKp", "TOXRp", "LDn", "WDn", "LDp", "WDp",
        }
        assert set(c035.inter.names) == expected
        assert len(c035.inter) == 20

    def test_n90_has_47_inter_variables(self, n90):
        assert len(n90.inter) == 47

    def test_supplies(self, c035, n90):
        assert c035.vdd == pytest.approx(3.3)
        assert n90.vdd == pytest.approx(1.2)

    def test_cards_polarity(self, c035):
        assert c035.nmos.polarity == "n"
        assert c035.pmos.polarity == "p"
        with pytest.raises(ValueError):
            c035.card("z")

    def test_variation_model_dimensions(self, c035, n90):
        assert c035.variation_model([f"M{i}" for i in range(15)]).dimension == 80
        assert n90.variation_model([f"M{i}" for i in range(19)]).dimension == 123


@pytest.mark.parametrize("tech_fixture", ["c035", "n90"])
class TestRealize:
    def test_nominal_matches_card(self, tech_fixture, request):
        tech = request.getfixturevalue(tech_fixture)
        dev = tech.realize_nominal("n", 20e-6, 1e-6)
        assert dev.vth.item() == pytest.approx(tech.nmos.vth0, abs=0.02)
        assert dev.leff.item() == pytest.approx(1e-6 - 2 * tech.nmos.ld, rel=0.01)
        assert dev.weff.item() == pytest.approx(20e-6 - 2 * tech.nmos.wd, rel=0.01)

    def test_vectorised_over_samples(self, tech_fixture, request):
        tech = request.getfixturevalue(tech_fixture)
        model = tech.variation_model(["M1"])
        samples = model.sample(64, np.random.default_rng(0))
        dev = tech.realize(
            "n", 20e-6, 1e-6,
            model.inter_values(samples),
            model.mismatch_scores(samples, "M1"),
        )
        assert dev.vth.shape == (64,)
        assert np.std(dev.vth) > 0  # variations actually move vth

    def test_every_inter_variable_has_an_effect(self, tech_fixture, request):
        """Perturbing any single inter-die variable must change some
        effective device quantity (no inert statistical variables)."""
        tech = request.getfixturevalue(tech_fixture)
        quantities = ("vth", "kp", "lam", "theta", "weff", "leff",
                      "cj_scale", "cg_scale", "gamma")
        base = {}
        for pol in ("n", "p"):
            nominal = {p.name: np.array([p.mu]) for p in tech.inter}
            dev = tech.realize(pol, 20e-6, 0.5e-6, nominal, np.zeros((1, 4)))
            base[pol] = {q: np.asarray(getattr(dev, q)).reshape(-1)[0] for q in quantities}

        inert = []
        for name in tech.inter.names:
            moved = False
            for pol in ("n", "p"):
                perturbed = {p.name: np.array([p.mu]) for p in tech.inter}
                sigma = max(tech.inter[name].sigma, 1e-12)
                perturbed[name] = perturbed[name] + 3.0 * sigma
                dev = tech.realize(pol, 20e-6, 0.5e-6, perturbed, np.zeros((1, 4)))
                for q in quantities:
                    if not np.isclose(np.asarray(getattr(dev, q)).reshape(-1)[0], base[pol][q],
                                      rtol=1e-12, atol=0.0):
                        moved = True
            # RSHPOLY acts through poly resistors, not through devices.
            if not moved and name != "RSHPOLY":
                inert.append(name)
        assert inert == []

    def test_mismatch_scores_shift_vth(self, tech_fixture, request):
        tech = request.getfixturevalue(tech_fixture)
        nominal = {p.name: np.array([p.mu]) for p in tech.inter}
        plus = tech.realize("n", 20e-6, 1e-6, nominal,
                            np.array([[0.0, 3.0, 0.0, 0.0]]))
        ref = tech.realize("n", 20e-6, 1e-6, nominal, np.zeros((1, 4)))
        expected = 3.0 * tech.pelgrom["n"].sigmas(20e-6, 1e-6)[1]
        assert (plus.vth - ref.vth).item() == pytest.approx(expected, rel=1e-6)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


#: Every array a realization carries.
_FIELDS = ("w", "l", "vth", "kp", "lam", "theta", "weff", "leff", "cox",
           "cj_scale", "cg_scale", "gamma", "phi", "beta")


@pytest.mark.parametrize("tech_fixture", ["c035", "n90"])
@pytest.mark.parametrize("polarity", ["n", "p"])
@pytest.mark.parametrize("per_row", [False, True], ids=["geometry_k1", "geometry_kN"])
class TestStackedRealize:
    """A stack of ``k`` devices, realized and solved in one call each, is
    int64-equal to ``k`` one-device calls."""

    def _stack(self, tech, polarity, per_row, n=64, k=5):
        rng = np.random.default_rng(21)
        inter = {p.name: rng.normal(p.mu, p.sigma, size=n) for p in tech.inter}
        columns = n if per_row else 1
        w = rng.uniform(tech.wmin, 100e-6, size=(k, columns))
        l = rng.uniform(tech.lmin, 4e-6, size=(k, columns))
        scores = rng.standard_normal((k, n, 4))
        scores[2] = 0.0  # a mismatch-free replica
        ids = rng.uniform(1e-7, 1e-3, size=(k, columns))
        return tech.realize(polarity, w, l, inter, scores), (w, l, inter, scores), ids

    def test_views_match_one_device_calls(
        self, tech_fixture, request, polarity, per_row
    ):
        tech = request.getfixturevalue(tech_fixture)
        stack, (w, l, inter, scores), ids = self._stack(tech, polarity, per_row)
        vov = stack.vov_for_current(ids)
        for i, view in enumerate(stack):
            one = tech.realize(polarity, w[i], l[i], inter, scores[i])
            for field in _FIELDS:
                assert np.array_equal(_bits(getattr(view, field)),
                                      _bits(getattr(one, field))), field
            solved = one.vov_for_current(ids[i])
            assert np.array_equal(_bits(vov[i]), _bits(solved))
            assert np.array_equal(_bits(view.gm(vov[i])), _bits(one.gm(solved)))
            assert np.array_equal(_bits(view.cdb()), _bits(one.cdb()))

    def test_sub_stack_solves_its_rows(
        self, tech_fixture, request, polarity, per_row
    ):
        tech = request.getfixturevalue(tech_fixture)
        stack, _, ids = self._stack(tech, polarity, per_row)
        assert np.array_equal(_bits(stack[1:4].vov_for_current(ids[1:4])),
                              _bits(stack.vov_for_current(ids)[1:4]))


def test_one_device_realization_has_no_views(c035):
    with pytest.raises(TypeError):
        c035.realize_nominal("n", 20e-6, 1e-6)[0]


class TestPelgrom:
    def test_area_law(self, c035):
        pel = c035.pelgrom["n"]
        s_small = pel.sigmas(10e-6, 1e-6)
        s_large = pel.sigmas(40e-6, 1e-6)
        assert s_small == pytest.approx(tuple(2.0 * s for s in s_large), rel=1e-9)

    def test_n90_better_avt_than_c035(self, c035, n90):
        # Thinner oxide gives better matching per unit area.
        assert n90.pelgrom["n"].avt < c035.pelgrom["n"].avt

    def test_all_coefficients_positive(self, c035, n90):
        for tech in (c035, n90):
            for pol in ("n", "p"):
                pel = tech.pelgrom[pol]
                assert pel.avt > 0 and pel.atox > 0 and pel.ald > 0 and pel.awd > 0


class TestGeometry:
    def test_clip_geometry(self, c035):
        w, l = c035.clip_geometry(0.0, 0.0)
        assert w == c035.wmin and l == c035.lmin

    def test_poly_sheet_scale_n90(self, n90):
        inter = {"RSHPOLY": np.array([1.1])}
        assert n90.poly_sheet_scale(inter)[0] == pytest.approx(1.1)
