import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relqosc import (
    Family,
    ModelSpec,
    PhysicalParams,
    analytic_e2,
    analytic_nonrel_eps,
    analytic_wavefunction,
    build_spectrum_table,
)
from relqosc.analytic import Level, SpectrumTable, isotonic_nu


class TestEnergyLadders:
    def test_1d_harmonic_defaults(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        assert [analytic_e2(spec, n) for n in range(4)] == [1.0, 3.0, 5.0, 7.0]

    def test_1d_isotonic_b_one(self):
        spec = ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=1.0, b=1.0))
        assert [analytic_e2(spec, n) for n in range(3)] == [7.0, 11.0, 15.0]

    def test_2d_harmonic_both_signs(self):
        up = ModelSpec(Family.HARMONIC_2D, ml=1)
        down = ModelSpec(Family.HARMONIC_2D, ml=-2)
        assert [analytic_e2(up, n) for n in range(3)] == [1.0, 5.0, 9.0]
        assert [analytic_e2(down, n) for n in range(3)] == [9.0, 13.0, 17.0]

    def test_2d_isotonic_quarter_b(self):
        spec = ModelSpec(Family.ISOTONIC_2D, PhysicalParams(a=1.0, b=0.25), ml=1)
        assert [analytic_e2(spec, n) for n in range(3)] == [1.0, 5.0, 9.0]

    @pytest.mark.parametrize(
        "spec, gap",
        [
            (ModelSpec(Family.HARMONIC_1D, PhysicalParams(m=2.0, c=1.5, omega=0.7)), 2 * 2.0 * 1.5 ** 2 * 0.7),
            (ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=1.3, b=0.4, c=2.0)), 4 * 1.3 * 4.0),
            (ModelSpec(Family.HARMONIC_2D, PhysicalParams(m=1.5, omega=0.8), ml=3), 4 * 1.5 * 0.8),
            (ModelSpec(Family.ISOTONIC_2D, PhysicalParams(a=0.9, b=-0.5, c=1.2), ml=1), 4 * 0.9 * 1.44),
        ],
    )
    def test_squared_energy_gaps_are_exact(self, spec, gap):
        values = [analytic_e2(spec, n) for n in range(8)]
        diffs = np.diff(values)
        assert_allclose(diffs, gap, rtol=1e-14)

    def test_level_index_validation(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        with pytest.raises(ValueError, match="nonnegative integer"):
            analytic_e2(spec, -1)
        with pytest.raises(ValueError, match="nonnegative integer"):
            analytic_e2(spec, 1.5)


class TestIsotonicExponent:
    def test_reference_value(self):
        assert isotonic_nu(1.0) == pytest.approx(2.0)

    def test_positive_b_simplifies(self):
        # for b > 0, sqrt(1 + 4b(b+1)) = 2b + 1, so nu = b + 1
        for b in (0.1, 0.5, 2.3, 7.0):
            assert isotonic_nu(b) == pytest.approx(b + 1.0, rel=1e-14)


class TestLimits:
    def test_isotonic_embeds_in_odd_harmonic_levels(self):
        """As b -> 0+ the 1D isotonic ladder lands on the odd oscillator levels."""
        a = 1.0
        iso = ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=a, b=1e-12))
        # with a = m*omega the isotonic well (a x)^2 matches (m omega x)^2
        ho = ModelSpec(Family.HARMONIC_1D, PhysicalParams(m=1.0, omega=a))
        for n in range(5):
            want = analytic_e2(ho, 2 * n + 1)
            got = analytic_e2(iso, n)
            assert abs(got - want) <= 1e-8 * want

    def test_2d_isotonic_reduces_to_harmonic_at_b_zero(self):
        for ml in (1, -1, 2):
            iso = ModelSpec(Family.ISOTONIC_2D, PhysicalParams(a=1.0, b=0.0), ml=ml)
            ho = ModelSpec(Family.HARMONIC_2D, PhysicalParams(m=1.0, omega=1.0), ml=ml)
            for n in range(5):
                assert analytic_e2(iso, n) == analytic_e2(ho, n)

    def test_2d_degeneracy_in_ml(self):
        """Levels with ml >= 1 (harmonic) collapse onto a single ladder."""
        tables = [
            [analytic_e2(ModelSpec(Family.HARMONIC_2D, ml=ml), n) for n in range(5)]
            for ml in (1, 2, 3)
        ]
        assert tables[0] == tables[1] == tables[2]

    def test_2d_isotonic_degeneracy_in_ml(self):
        b = 0.25
        tables = [
            [analytic_e2(ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=b), ml=ml), n) for n in range(5)]
            for ml in (1, 2, 3)
        ]
        assert tables[0] == tables[1] == tables[2]


class TestNonRelativisticEnergies:
    def test_1d_harmonic_is_n_omega(self):
        spec = ModelSpec(Family.HARMONIC_1D, PhysicalParams(omega=0.7, c=10.0))
        for n in range(5):
            assert analytic_nonrel_eps(spec, n) == pytest.approx(0.7 * n, abs=1e-14)

    def test_1d_isotonic_b_one(self):
        spec = ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=0.5, b=1.0, m=2.0))
        for n in range(4):
            assert analytic_nonrel_eps(spec, n) == pytest.approx((2 * n + 3) * 0.5 / 2.0)

    def test_2d_harmonic_negative_ml(self):
        spec = ModelSpec(Family.HARMONIC_2D, PhysicalParams(omega=1.0), ml=-2)
        assert analytic_nonrel_eps(spec, 1) == pytest.approx(6.0)

    def test_independent_of_c(self):
        """The subtracted energy is purely non-relativistic: no c anywhere."""
        for c in (1.0, 10.0, 137.0):
            spec = ModelSpec(Family.ISOTONIC_2D, PhysicalParams(a=1.0, b=0.25, c=c), ml=1)
            assert analytic_nonrel_eps(spec, 2) == pytest.approx(
                analytic_nonrel_eps(ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.25), ml=1), 2),
                rel=1e-14,
            )

    def test_consistency_with_e2(self):
        spec = ModelSpec(Family.HARMONIC_2D, PhysicalParams(m=1.5, c=3.0, omega=0.8), ml=2)
        for n in range(4):
            eps = (analytic_e2(spec, n) - spec.mc2 ** 2) / (2 * spec.mc2)
            assert analytic_nonrel_eps(spec, n) == pytest.approx(eps, rel=1e-13)


class TestWavefunctions:
    def test_1d_harmonic_ground_is_gaussian(self):
        spec = ModelSpec(Family.HARMONIC_1D, PhysicalParams(m=2.0, omega=0.5))
        x = np.linspace(-3, 3, 41)
        psi = analytic_wavefunction(spec, 0, x)
        expected = np.exp(-0.5 * x ** 2)  # m omega = 1
        assert_allclose(psi / psi[20], expected, rtol=1e-12)

    def test_node_counts(self):
        cases = [
            (ModelSpec(Family.HARMONIC_1D), np.linspace(-6, 6, 2001)),
            (ModelSpec(Family.ISOTONIC_1D), np.linspace(1e-3, 7, 2001)),
            (ModelSpec(Family.HARMONIC_2D, ml=1), np.linspace(1e-3, 7, 2001)),
            (ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.25), ml=1), np.linspace(1e-3, 7, 2001)),
        ]
        for spec, x in cases:
            for n in range(4):
                psi = analytic_wavefunction(spec, n, x)
                signs = np.sign(psi)
                signs = signs[signs != 0]  # a node may land exactly on a grid point
                crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
                assert crossings == n, f"{spec.family.value} n={n}"

    def test_half_line_domain_enforced(self):
        spec = ModelSpec(Family.ISOTONIC_1D)
        with pytest.raises(ValueError, match="x > 0"):
            analytic_wavefunction(spec, 0, np.array([-0.5, 0.5]))

    def test_small_r_power_law(self):
        """Near zero the radial profile scales like r^(s + 1/2)."""
        spec = ModelSpec(Family.ISOTONIC_2D, PhysicalParams(a=1.0, b=0.25), ml=1)
        s = abs(1 - 0.25)
        r = np.array([1e-4, 2e-4])
        psi = analytic_wavefunction(spec, 0, r)
        assert psi[1] / psi[0] == pytest.approx(2.0 ** (s + 0.5), rel=1e-6)

    def test_index_validation(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        with pytest.raises(ValueError, match="nonnegative integer"):
            analytic_wavefunction(spec, -1, np.array([0.0]))

    @pytest.mark.parametrize("spec, n, x", [
        (ModelSpec(Family.HARMONIC_2D, ml=6), 0, 1e150),  # x^(s + 1/2) overflows
        (ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=661623.0, b=0.223064)), 2, 1e90),  # 0 * inf inside 1F1
        (ModelSpec(Family.HARMONIC_1D), 12, 1e30),  # H_n overflows where exp underflows
    ], ids=["power", "kummer", "hermite"])
    def test_non_finite_sample_is_named(self, recwarn, spec, n, x):
        with pytest.raises(ValueError) as exc:
            analytic_wavefunction(spec, n, np.array([1.0, x]))
        assert str(exc.value) == f"closed-form wavefunction of level {n} is not finite at node 1 (x={x!r})"
        assert not recwarn.list


class TestSpectrumTable:
    def test_build_and_query(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        table = build_spectrum_table(spec, 4)
        assert [lev.n for lev in table.levels] == [0, 1, 2, 3]
        assert_allclose(table.e2_values(), [1.0, 3.0, 5.0, 7.0])
        for lev in table.levels:
            assert lev.e == pytest.approx(math.sqrt(lev.e2))

    def test_needs_at_least_one_level(self):
        with pytest.raises(ValueError):
            build_spectrum_table(ModelSpec(Family.HARMONIC_1D), 0)

    def test_rejects_non_contiguous_levels(self):
        levels = (Level(0, 1.0, 1.0, 0.0), Level(2, 5.0, math.sqrt(5), 2.0))
        with pytest.raises(ValueError, match="contiguous"):
            SpectrumTable(levels)

    def test_rejects_unsorted_e2(self):
        levels = (Level(0, 5.0, math.sqrt(5), 2.0), Level(1, 1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="sorted"):
            SpectrumTable(levels)
