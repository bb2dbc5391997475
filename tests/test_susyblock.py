import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relqosc import (
    Family,
    ModelSpec,
    PhysicalParams,
    analytic_e2,
    block_spectrum,
    build_block_hamiltonian,
    choose_domain,
    commutator_rayleigh,
    discretize_supercharge,
    effective_problem,
    eigen_lowest,
    numeric_spectrum,
    pair_superpotential,
    susy_isospectrality_check,
)
from relqosc.solver import Grid
from relqosc.susyblock import SupersymmetricPair
from relqosc.verify import COMMUTATOR_ABS

ALL_SPECS = [
    ModelSpec(Family.HARMONIC_1D),
    ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=1.0, b=1.0)),
    ModelSpec(Family.HARMONIC_2D, ml=1),
    ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.25), ml=1),
]


def toy_pair() -> SupersymmetricPair:
    return SupersymmetricPair(
        d_diag=np.array([1.0, 2.0, 3.0]),
        d_super=np.array([4.0, 5.0]),
        h=1.0,
        delta=2.0,
        c=1.0,
    )


def d_matvec(pair: SupersymmetricPair, v: np.ndarray) -> np.ndarray:
    out = pair.d_diag * v
    out[:-1] += pair.d_super * v[1:]
    return out


def dt_matvec(pair: SupersymmetricPair, v: np.ndarray) -> np.ndarray:
    out = pair.d_diag * v
    out[1:] += pair.d_super * v[:-1]
    return out


def d_dense(pair: SupersymmetricPair) -> np.ndarray:
    return np.diag(pair.d_diag) + np.diag(pair.d_super, 1)


def dt_dense(pair: SupersymmetricPair) -> np.ndarray:
    # built from the backward-difference formula, not by transposing d_dense
    return np.diag(pair.d_diag) + np.diag(pair.d_super, -1)


def operator_dense(op) -> np.ndarray:
    return np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)


class TestSupercharge:
    def test_bidiagonal_structure(self):
        pair = toy_pair()
        want = np.array([[1.0, 4.0, 0.0], [0.0, 2.0, 5.0], [0.0, 0.0, 3.0]])
        assert np.array_equal(d_dense(pair), want)
        # the adjoint is assembled independently yet equals the exact transpose
        assert np.array_equal(dt_dense(pair), want.T)

    def test_matvecs_match_dense(self):
        pair = toy_pair()
        v = np.array([0.3, -1.1, 0.7])
        assert_allclose(d_matvec(pair, v.copy()), d_dense(pair) @ v, atol=1e-15)
        assert_allclose(dt_matvec(pair, v.copy()), dt_dense(pair) @ v, atol=1e-15)

    def test_partner_products_match_dense(self):
        rng = np.random.default_rng(3)
        pair = SupersymmetricPair(
            d_diag=rng.normal(size=7),
            d_super=rng.normal(size=6),
            h=0.5,
            delta=1.0,
            c=1.0,
        )
        d = d_dense(pair)
        assert_allclose(operator_dense(pair.dtd_operator()), d.T @ d, atol=1e-14)
        assert_allclose(operator_dense(pair.ddt_operator()), d @ d.T, atol=1e-14)

    def test_shape_and_delta_validation(self):
        with pytest.raises(ValueError, match="superdiag"):
            SupersymmetricPair(np.zeros(3), np.zeros(3), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            SupersymmetricPair(np.zeros(3), np.zeros(2), 1.0, 0.0, 1.0)

    def test_discretization_entries(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        grid = Grid(-2.0, 2.0, 7)
        pair = discretize_supercharge(spec, grid)
        assert_allclose(pair.d_diag, pair_superpotential(spec, grid.nodes) - 1.0 / grid.h)
        assert_allclose(pair.d_super, 1.0 / grid.h)
        assert pair.delta == pytest.approx(4.0)  # 4 m omega

    def test_discretization_rejects_bad_delta(self):
        """An infinite delta would count every D^T D mode as a kernel mode."""
        spec = ModelSpec(Family.HARMONIC_1D)
        for delta in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                discretize_supercharge(spec, Grid(-2.0, 2.0, 7), delta=delta)

    def test_default_delta_by_family(self):
        harmonic = ModelSpec(Family.HARMONIC_2D, PhysicalParams(m=2.0, omega=0.5), ml=1)
        assert effective_problem(harmonic).delta == 4.0
        isotonic = ModelSpec(Family.ISOTONIC_1D, PhysicalParams(m=1.0, a=0.7))
        assert effective_problem(isotonic).delta == pytest.approx(2.8)


class TestBlockHamiltonian:
    def test_interleaved_layout(self):
        pair = toy_pair()
        dense = build_block_hamiltonian(pair, mc2=1.5).to_dense()
        assert_allclose(np.diag(dense), [1.5, -1.5, 1.5, -1.5, 1.5, -1.5])
        assert_allclose(np.diag(dense, 1), [1.0, 4.0, 2.0, 5.0, 3.0])

    def test_permutation_to_two_by_two_blocks(self):
        """Reordering components recovers [[mc2, c D^T], [c D, -mc2]] exactly."""
        rng = np.random.default_rng(11)
        pair = SupersymmetricPair(
            d_diag=rng.normal(size=5),
            d_super=rng.normal(size=4),
            h=1.0,
            delta=1.0,
            c=1.3,
        )
        mc2 = 2.0
        n = pair.size
        dense = build_block_hamiltonian(pair, mc2).to_dense()
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        blocked = dense[np.ix_(perm, perm)]
        assert np.array_equal(blocked[:n, :n], mc2 * np.eye(n))
        assert np.array_equal(blocked[n:, n:], -mc2 * np.eye(n))
        assert np.array_equal(blocked[n:, :n], 1.3 * d_dense(pair))
        assert np.array_equal(blocked[:n, n:], 1.3 * dt_dense(pair))

    def test_rejects_nonpositive_rest_energy(self):
        with pytest.raises(ValueError, match="positive"):
            build_block_hamiltonian(toy_pair(), 0.0)

    def test_vanishing_coupling_gives_rest_energies(self):
        pair = SupersymmetricPair(
            d_diag=np.zeros(4), d_super=np.zeros(3), h=1.0, delta=1.0, c=1.0
        )
        ham = build_block_hamiltonian(pair, mc2=2.0)
        assert_allclose(np.linalg.eigvalsh(ham.to_dense()), [-2.0] * 4 + [2.0] * 4)
        assert_allclose(block_spectrum(ham, 4), [-2.0] * 4 + [2.0] * 4)


class TestSpectralRelations:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_partner_isospectrality(self, spec):
        grid = choose_domain(effective_problem(spec), 6, n_points=2000)
        pair = discretize_supercharge(spec, grid)
        report = susy_isospectrality_check(pair, 6)
        assert report["max_rel_mismatch"] <= 1e-10

    def test_kernel_dimensions_1d(self):
        for family in (Family.HARMONIC_1D, Family.ISOTONIC_1D):
            spec = ModelSpec(family)
            grid = choose_domain(effective_problem(spec), 5, n_points=2000)
            report = susy_isospectrality_check(discretize_supercharge(spec, grid), 5)
            assert report["kernel_dim_dtd"] == 1, family.value
            # D is square, so D D^T is similar to D^T D and shares the mode
            assert report["kernel_dim_ddt"] == report["kernel_dim_dtd"], family.value

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec(Family.HARMONIC_1D), ModelSpec(Family.HARMONIC_2D, ml=1)],
        ids=lambda s: s.family.value,
    )
    def test_block_route_matches_closed_form(self, spec):
        grid = choose_domain(effective_problem(spec), 4, n_points=4000)
        ham = build_block_hamiltonian(discretize_supercharge(spec, grid), spec.mc2)
        branches = block_spectrum(ham, 4)
        pos = branches[branches > 0]
        exact = np.array([math.sqrt(analytic_e2(spec, n)) for n in range(4)])
        assert np.max(np.abs(pos - exact) / exact) <= 1e-2
        # the two branches mirror each other exactly, by construction
        assert np.array_equal(np.sort(-branches), branches)

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec(Family.HARMONIC_1D), ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.25), ml=1)],
        ids=lambda s: s.family.value,
    )
    def test_factorized_route_against_dense_oracle(self, spec):
        grid = choose_domain(effective_problem(spec), 4, n_points=160)
        ham = build_block_hamiltonian(discretize_supercharge(spec, grid), spec.mc2)
        dense = np.linalg.eigvalsh(ham.to_dense())
        fact = block_spectrum(ham, ham.pair.size)
        dev = np.max(np.abs(dense - fact) / np.maximum(1.0, np.abs(dense)))
        assert dev <= 1e-8
        mirror = -dense[::-1]
        assert np.max(np.abs(dense - mirror)) <= 1e-8 * np.max(np.abs(dense))

    def test_route_equivalence_with_direct_solver(self):
        """sqrt factorization and direct second-order solve give the same E^2."""
        spec = ModelSpec(Family.HARMONIC_1D)
        grid = choose_domain(effective_problem(spec), 4, n_points=4000)
        pair = discretize_supercharge(spec, grid)
        lam = np.array([r.eigenvalue for r in eigen_lowest(pair.dtd_operator(), 4)])
        e2_susy = spec.mc2 ** 2 + spec.params.c ** 2 * lam
        e2_num = numeric_spectrum(spec, 4, grid=grid).e2_values()
        assert np.max(np.abs(e2_susy - e2_num) / e2_num) <= 5e-2


class TestLadderStructure:
    def test_number_operator_integers_2d_harmonic(self):
        spec = ModelSpec(Family.HARMONIC_2D, ml=1)
        grid = choose_domain(effective_problem(spec), 4, n_points=4000)
        pair = discretize_supercharge(spec, grid)
        lam = np.array([r.eigenvalue for r in eigen_lowest(pair.dtd_operator(), 4)])
        ladder = lam / pair.delta
        assert_allclose(ladder, np.round(ladder), atol=1e-2)
        assert_allclose(np.round(ladder), [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("ml", [1, 2])
    def test_commutator_quotients_near_unity(self, ml):
        spec = ModelSpec(Family.HARMONIC_2D, ml=ml)
        grid = choose_domain(effective_problem(spec), 5, n_points=2000)
        quotients = commutator_rayleigh(spec, grid)
        assert max(abs(q - 1.0) for q in quotients) <= 5e-2

    def test_commutator_quotients_near_unity_2d_isotonic_heavy(self):
        """The default delta is the lambda gap 4a, whatever the mass."""
        spec = ModelSpec(Family.ISOTONIC_2D, PhysicalParams(m=2.0, b=0.25), ml=1)
        grid = choose_domain(effective_problem(spec), 5, n_points=2000)
        quotients = commutator_rayleigh(spec, grid)
        assert max(abs(q - 1.0) for q in quotients) <= COMMUTATOR_ABS

    def test_commutator_rejects_1d(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        with pytest.raises(ValueError, match="2D"):
            commutator_rayleigh(spec, Grid(0.0, 5.0, 100))
