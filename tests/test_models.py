import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relqosc import (
    Family,
    ModelSpec,
    PhysicalParams,
    analytic_e2,
    analytic_nonrel_eps,
    analytic_wavefunction,
    build_spectrum_table,
    effective_problem,
    pair_recover_psi2,
    pair_superpotential,
)
from relqosc.models import _facts, superpotential
from relqosc.solver import Grid

ALL_FAMILY_SPECS = [
    ModelSpec(Family.HARMONIC_1D),
    ModelSpec(Family.ISOTONIC_1D),
    ModelSpec(Family.HARMONIC_2D, ml=1),
    ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.25), ml=1),
    ModelSpec(Family.HARMONIC_1D, PhysicalParams(m=2.0, c=1.5, omega=0.7)),
    ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=2.0, b=0.5, c=2.0)),
    ModelSpec(Family.HARMONIC_2D, PhysicalParams(m=1.5, omega=0.8), ml=-2),
    ModelSpec(Family.ISOTONIC_2D, PhysicalParams(a=1.3, b=-0.5), ml=2),
]


class TestFamily:
    def test_labels_round_trip(self):
        for fam in Family:
            assert Family.from_label(fam.value) is fam

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown family"):
            Family.from_label("3d-ho")

    def test_classification(self):
        assert Family.HARMONIC_2D.is_two_dimensional
        assert not Family.HARMONIC_1D.is_two_dimensional
        assert Family.ISOTONIC_1D.is_isotonic
        assert not Family.HARMONIC_2D.is_isotonic


class TestValidation:
    def test_positive_mass_and_c(self):
        with pytest.raises(ValueError, match="mass"):
            PhysicalParams(m=0.0)
        with pytest.raises(ValueError, match="light speed"):
            PhysicalParams(c=-1.0)

    def test_ml_required_in_2d(self):
        with pytest.raises(ValueError, match="requires an angular index"):
            ModelSpec(Family.HARMONIC_2D)

    def test_ml_forbidden_in_1d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ModelSpec(Family.HARMONIC_1D, ml=1)

    def test_ml_must_be_integer(self):
        with pytest.raises(ValueError, match="integer"):
            ModelSpec(Family.HARMONIC_2D, ml=1.5)
        spec = ModelSpec(Family.HARMONIC_2D, ml=2.0)  # integral float is fine
        assert spec.ml == 2 and isinstance(spec.ml, int)

    def test_isotonic_needs_positive_a(self):
        with pytest.raises(ValueError, match="a must be positive"):
            ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=0.0))

    def test_harmonic_needs_positive_omega(self):
        with pytest.raises(ValueError, match="frequency"):
            ModelSpec(Family.HARMONIC_1D, PhysicalParams(omega=-2.0))

    def test_1d_isotonic_needs_positive_b(self):
        with pytest.raises(ValueError, match="inverse strength"):
            ModelSpec(Family.ISOTONIC_1D, PhysicalParams(b=0.0))

    def test_2d_harmonic_rejects_ml_zero(self):
        with pytest.raises(ValueError, match="sub-critical"):
            ModelSpec(Family.HARMONIC_2D, ml=0)

    def test_2d_isotonic_rejects_subcritical_sector(self):
        with pytest.raises(ValueError, match="sub-critical"):
            ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.25), ml=0)
        # boundary |ml - b| = 1/2 is allowed
        ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.5), ml=1)

    def test_derived_scalars(self):
        spec = ModelSpec(Family.HARMONIC_1D, PhysicalParams(m=2.0, c=3.0, omega=0.5))
        assert spec.mc2 == 18.0
        assert effective_problem(spec).well_strength == 1.0  # m * omega
        iso = ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=0.7))
        assert effective_problem(iso).well_strength == 0.7

    @pytest.mark.parametrize(
        "family, params, match",
        [
            (Family.HARMONIC_1D, PhysicalParams(m=1e-300, c=1e-300), "underflows"),  # mc^2
            (Family.HARMONIC_1D, PhysicalParams(m=1e-200, omega=1e200), "underflows"),  # (mc^2)^2
            (Family.HARMONIC_1D, PhysicalParams(m=1e200), "overflow"),  # (mc^2)^2
            (Family.HARMONIC_1D, PhysicalParams(m=1e10, omega=1e300), "overflow"),  # m omega
            (Family.ISOTONIC_1D, PhysicalParams(b=1e200), "overflow"),  # b (b + 1)
            (Family.ISOTONIC_2D, PhysicalParams(b=1e200), "overflow"),  # (ml - b)^2
            (Family.ISOTONIC_2D, PhysicalParams(m=1e-160, b=0.25), "underflows"),  # subnormal (mc^2)^2
        ],
    )
    def test_unrepresentable_scales_rejected(self, family, params, match):
        with pytest.raises(ValueError, match=match):
            ModelSpec(family, params, ml=1 if family.is_two_dimensional else None)

    def test_overflowing_level_raises(self):
        spec = ModelSpec(Family.HARMONIC_1D, PhysicalParams(omega=1e300))
        assert math.isfinite(analytic_e2(spec, 1))
        with pytest.raises(ValueError, match="E\\^2 of level 1000000000 overflows"):
            analytic_e2(spec, 10 ** 9)
        # eps_0 = 3 a / m overflows while its intercept a / (2m) and E_0^2 do not
        iso = ModelSpec(Family.ISOTONIC_1D, PhysicalParams(m=1e-8, a=1e300))
        assert math.isfinite(analytic_e2(iso, 0))
        with pytest.raises(ValueError, match="eps of level 0 overflows"):
            analytic_nonrel_eps(iso, 0)


def _decades(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda p: 10.0 ** p)


SCALES = _decades(1e-300, 1e300)
INVERSE_STRENGTHS = st.one_of(
    st.floats(-1e200, 1e200),
    _decades(1e-300, 1e200),
    _decades(1e-300, 1e200).map(lambda b: -b),
    st.floats(-1e-6, 1e-6),
)


class TestParameterDecades:
    """Any model ModelSpec accepts has finite scales and finite (or refused) closed-form levels."""

    @given(
        family=st.sampled_from(list(Family)),
        m=SCALES, c=SCALES, omega=SCALES, a=SCALES, b=INVERSE_STRENGTHS,
        ml=st.integers(-3, 3),
    )
    @settings(max_examples=400, deadline=None)
    def test_accepted_models_are_finite(self, family, m, c, omega, a, b, ml):
        try:
            spec = ModelSpec(family, PhysicalParams(m=m, c=c, omega=omega, a=a, b=b),
                             ml=ml if family.is_two_dimensional else None)
        except ValueError:
            return
        problem = effective_problem(spec)
        scales = (
            problem.well_strength, problem.lambda_gap, problem.lambda_offset, problem.delta,
            problem.lambda_to_e2.slope, problem.lambda_to_e2.intercept,
            problem.lambda_to_eps.slope, problem.lambda_to_eps.intercept,
        )
        assert all(map(math.isfinite, scales)), scales
        try:
            table = build_spectrum_table(spec, 5)
        except ValueError:
            return
        values = [v for lev in table.levels for v in (lev.e2, lev.e, lev.eps)]
        assert all(map(math.isfinite, values)), values


def written_out_facts(spec):
    """_facts as each family once wrote out its own q, ladder and sector: the reference for the bits of the
    shared form, kept as it was."""
    p = spec.params
    mc2 = spec.mc2
    c2 = p.c ** 2
    fam = spec.family
    if fam is Family.HARMONIC_1D:
        mw = p.m * p.omega
        cent = 0.0
        domain, q, gap, offset, e2_intercept = "full-line", mw, 2.0 * mw, mw, mc2 ** 2 - mw * c2
        delta = 4.0 * mw
    elif fam is Family.ISOTONIC_1D:
        a, b = p.a, p.b
        cent = b * (b + 1.0)
        domain, q, gap, offset, e2_intercept = "half-line", a, 4.0 * a, a * (2.0 * b + 3.0), mc2 ** 2 - a * c2 * (1.0 - 2.0 * b)
        delta = gap
    elif fam is Family.HARMONIC_2D:
        mw = p.m * p.omega
        ml = spec.ml
        cent = ml ** 2 - 0.25
        domain, q, gap, offset, e2_intercept = "half-line", mw, 4.0 * mw, mw * (2.0 * abs(ml) + 2.0), mc2 ** 2 - 2.0 * mc2 * p.omega * (1.0 + ml)
        delta = gap
    else:
        a, b, ml = p.a, p.b, spec.ml
        s = abs(ml - b)
        cent = (ml - b) ** 2 - 0.25
        domain, q, gap, offset, e2_intercept = "half-line", a, 4.0 * a, a * (2.0 * s + 2.0), mc2 ** 2 - 2.0 * a * c2 * (ml - b + 1.0)
        delta = gap
    eps_slope = c2 / (2.0 * mc2)
    eps_intercept = (e2_intercept - mc2 ** 2) / (2.0 * mc2)
    return domain, q, cent, gap, offset, c2, e2_intercept, eps_slope, eps_intercept, delta


def written_out_superpotential(spec, x):
    p = spec.params
    return p.a * x + p.b / x if spec.family.is_isotonic else p.m * p.omega * x


def unvalidated_spec(family, params, ml):
    """A ModelSpec that skips its validation, so _facts also meets the models ModelSpec refuses."""
    spec = object.__new__(ModelSpec)
    for name, value in (("family", family), ("params", params), ("ml", ml)):
        object.__setattr__(spec, name, value)
    return spec


def outcome(function, *args):
    """What function(*args) gives, each float as its bits and each array as its bytes, or the type it raises."""
    try:
        with np.errstate(all="ignore"):
            values = function(*args)
    except Exception as exc:
        return type(exc)
    return [(type(v), v.hex() if isinstance(v, float) else v.tobytes() if isinstance(v, np.ndarray) else v)
            for v in values]


SIGNED_SCALES = st.one_of(SCALES, SCALES.map(lambda v: -v))


class TestSharedFacts:
    """Each family's facts, read from one well strength q and one sector exponent s, are the bits of the
    per-family expressions, across decades and both signs of omega and a."""

    @given(
        family=st.sampled_from(list(Family)),
        m=SCALES, c=SCALES, omega=SIGNED_SCALES, a=SIGNED_SCALES, b=INVERSE_STRENGTHS,
        ml=st.integers(-6, 6),
    )
    @settings(max_examples=1000, deadline=None)
    def test_facts_are_the_written_out_bits(self, family, m, c, omega, a, b, ml):
        spec = unvalidated_spec(family, PhysicalParams(m=m, c=c, omega=omega, a=a, b=b),
                                ml if family.is_two_dimensional else None)
        assert outcome(_facts, spec) == outcome(written_out_facts, spec)
        x = np.array([0.25, 1.0, 3.0, 1e3])
        assert outcome(lambda: [superpotential(spec, x)]) == outcome(lambda: [written_out_superpotential(spec, x)])

    @given(
        family=st.sampled_from([Family.HARMONIC_2D, Family.ISOTONIC_2D]),
        b=st.one_of(INVERSE_STRENGTHS, st.integers(-28, 28).map(lambda j: j / 4)), ml=st.integers(-6, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_sub_critical_sectors_are_the_written_out_ones(self, family, b, ml):
        """s < 1/2 refuses exactly the sectors that ml^2 < 1/4 (2d-ho) and (ml - b)^2 < 1/4 (2d-iso) refused."""
        written_out = ml ** 2 < 0.25 if family is Family.HARMONIC_2D else abs(ml - b) < 0.5
        try:
            ModelSpec(family, PhysicalParams(b=b), ml=ml)
        except ValueError as exc:
            refused = "sub-critical" in str(exc)
        else:
            refused = False
        assert refused == written_out


class TestSuperpotentials:
    def test_1d_harmonic_profile(self):
        spec = ModelSpec(Family.HARMONIC_1D, PhysicalParams(m=2.0, omega=0.5))
        x = np.array([-1.0, 0.0, 2.0])
        assert_allclose(superpotential(spec, x), x)  # m omega = 1

    def test_1d_isotonic_profile_and_domain(self):
        spec = ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=2.0, b=0.5))
        assert superpotential(spec, 1.0) == pytest.approx(2.5)
        with pytest.raises(ValueError, match="x > 0"):
            superpotential(spec, np.array([0.5, -0.5]))

    def test_2d_profiles(self):
        ho = ModelSpec(Family.HARMONIC_2D, PhysicalParams(m=3.0, omega=2.0), ml=1)
        assert superpotential(ho, 0.5) == pytest.approx(3.0)
        iso = ModelSpec(Family.ISOTONIC_2D, PhysicalParams(a=1.0, b=2.0), ml=1)
        assert superpotential(iso, 2.0) == pytest.approx(3.0)
        with pytest.raises(ValueError, match="x > 0"):
            superpotential(iso, 0.0)

    def test_pair_superpotential_sector_shift(self):
        spec = ModelSpec(Family.HARMONIC_2D, ml=2, params=PhysicalParams(omega=1.5))
        r = np.array([0.5, 1.0, 3.0])
        assert_allclose(pair_superpotential(spec, r), 1.5 * r - 2.5 / r)
        one_d = ModelSpec(Family.HARMONIC_1D)
        assert_allclose(pair_superpotential(one_d, r), r)


class TestEffectiveProblem:
    @pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
    def test_susy_form_of_potential(self, spec):
        """V - (W_eff^2 - W_eff') must be the constant absorbed by the E^2 map.

        W_eff' is taken by central differences, so this ties together the
        potential closure, the pair superpotential, and the affine map with
        no shared code path.
        """
        problem = effective_problem(spec)
        rng = np.random.default_rng(42)
        x = rng.uniform(0.4, 3.0, 100)
        if problem.domain == "full-line":
            x[::2] *= -1.0
        step = 1e-6
        w_prime = (pair_superpotential(spec, x + step) - pair_superpotential(spec, x - step)) / (2 * step)
        w = pair_superpotential(spec, x)
        kappa = problem.potential(x) - (w ** 2 - w_prime)
        expected = (spec.mc2 ** 2 - problem.lambda_to_e2.intercept) / spec.params.c ** 2
        assert np.max(np.abs(kappa - expected)) < 1e-6 * max(1.0, abs(expected))

    @pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
    def test_e2_map_slope_is_exactly_c_squared(self, spec):
        assert effective_problem(spec).lambda_to_e2.slope == spec.params.c ** 2

    @pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
    def test_ladder_reproduces_analytic_e2(self, spec):
        problem = effective_problem(spec)
        for n in range(6):
            lam = problem.lambda_estimate(n)
            assert problem.lambda_to_e2(lam) == pytest.approx(analytic_e2(spec, n), rel=1e-12)
            assert problem.lambda_to_eps(lam) == pytest.approx(analytic_nonrel_eps(spec, n), rel=1e-12, abs=1e-12)

    def test_closed_form_potentials(self):
        r = np.random.default_rng(0).uniform(0.3, 4.0, 50)
        iso = ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=1.4, b=0.8))
        assert_allclose(effective_problem(iso).potential(r), (1.4 * r) ** 2 + 0.8 * 1.8 / r ** 2, rtol=1e-12)
        ho2 = ModelSpec(Family.HARMONIC_2D, PhysicalParams(m=2.0, omega=0.5), ml=-3)
        assert_allclose(effective_problem(ho2).potential(r), r ** 2 + (9.0 - 0.25) / r ** 2, rtol=1e-12)
        iso2 = ModelSpec(Family.ISOTONIC_2D, PhysicalParams(a=1.0, b=0.25), ml=1)
        assert_allclose(effective_problem(iso2).potential(r), r ** 2 + (0.75 ** 2 - 0.25) / r ** 2, rtol=1e-12)

    def test_domain_flags(self):
        assert effective_problem(ModelSpec(Family.HARMONIC_1D)).domain == "full-line"
        for spec in (ModelSpec(Family.ISOTONIC_1D), ModelSpec(Family.HARMONIC_2D, ml=1)):
            assert effective_problem(spec).domain == "half-line"


class TestPairRecovery:
    def test_ground_state_annihilation_1d(self):
        """The 1D harmonic ground state is annihilated: psi2 vanishes."""
        spec = ModelSpec(Family.HARMONIC_1D)
        grid = Grid(-6.0, 6.0, 6000)
        x = grid.nodes
        psi = analytic_wavefunction(spec, 0, x)
        psi = psi / math.sqrt(grid.h * float(psi @ psi))
        psi2 = pair_recover_psi2(spec, spec.mc2, x, psi)
        assert np.linalg.norm(psi2) <= 1e-6 * np.linalg.norm(psi)

    def test_ground_state_annihilation_2d(self):
        spec = ModelSpec(Family.HARMONIC_2D, ml=1)
        grid = Grid(0.0, 7.0, 4000)
        r = grid.nodes
        chi = analytic_wavefunction(spec, 0, r)
        chi = chi / math.sqrt(grid.h * float(chi @ chi))
        psi2 = pair_recover_psi2(spec, spec.mc2, r, chi)
        assert np.linalg.norm(psi2) <= 1e-3 * np.linalg.norm(chi)

    def test_zero_input_gives_zero(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        x = np.linspace(-3, 3, 101)
        assert_allclose(pair_recover_psi2(spec, 1.0, x, np.zeros_like(x)), 0.0)

    def test_excited_state_norm_ratio(self):
        """||psi2||^2 / ||psi1||^2 = (E - mc^2) / (E + mc^2) for an exact level."""
        spec = ModelSpec(Family.HARMONIC_1D)
        grid = Grid(-7.0, 7.0, 6000)
        x = grid.nodes
        psi = analytic_wavefunction(spec, 2, x)
        psi = psi / math.sqrt(grid.h * float(psi @ psi))
        e = math.sqrt(analytic_e2(spec, 2))
        psi2 = pair_recover_psi2(spec, e, x, psi)
        ratio = grid.h * float(psi2 @ psi2)
        assert ratio == pytest.approx((e - 1.0) / (e + 1.0), rel=1e-4)

    def test_degenerate_energy_rejected(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        x = np.linspace(-3, 3, 11)
        with pytest.raises(ValueError, match="degenerates"):
            pair_recover_psi2(spec, -spec.mc2, x, np.ones_like(x))

    def test_shape_mismatch_rejected(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        with pytest.raises(ValueError):
            pair_recover_psi2(spec, 1.0, np.linspace(-1, 1, 10), np.zeros(9))
        with pytest.raises(ValueError):
            pair_recover_psi2(spec, 1.0, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
