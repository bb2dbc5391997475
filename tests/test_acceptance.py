"""End-to-end acceptance checks.

One test per criterion; each prints a single [PASS]/[FAIL] line with the
measured numbers (visible with -s, or in the captured output on failure).
Tolerances here are the contract and must not be loosened to make a grid
or a build pass; see the verification suites for the finer-grained checks.
"""

import math
import subprocess
import sys
import time

import numpy as np

from relqosc import (
    KERNEL_LADDER_TOL,
    Family,
    ModelSpec,
    PhysicalParams,
    analytic_e2,
    analytic_nonrel_eps,
    block_spectrum,
    build_block_hamiltonian,
    choose_domain,
    convergence_order,
    discretize_supercharge,
    effective_problem,
    eigen_lowest,
    numeric_levels,
    numeric_spectrum,
    residual_pair_check,
    susy_isospectrality_check,
)

DEFAULTS = {
    Family.HARMONIC_1D: ModelSpec(Family.HARMONIC_1D),
    Family.ISOTONIC_1D: ModelSpec(Family.ISOTONIC_1D),
    Family.HARMONIC_2D: ModelSpec(Family.HARMONIC_2D, ml=1),
    Family.ISOTONIC_2D: ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.25), ml=1),
}

PARAM_SETS = {
    Family.HARMONIC_1D: [
        PhysicalParams(),
        PhysicalParams(m=2.0, omega=0.5),
        PhysicalParams(m=1.5, c=2.0, omega=2.5),
    ],
    Family.ISOTONIC_1D: [
        PhysicalParams(a=1.0, b=1.0),
        PhysicalParams(a=2.0, b=0.5),
        PhysicalParams(m=2.0, c=1.5, a=0.7, b=2.3),
    ],
    Family.HARMONIC_2D: [
        PhysicalParams(),
        PhysicalParams(omega=2.0),
        PhysicalParams(m=2.0, c=1.5, omega=0.8),
    ],
    Family.ISOTONIC_2D: [
        PhysicalParams(a=1.0, b=0.25),
        PhysicalParams(a=1.5, b=-0.5),
        PhysicalParams(c=2.0, a=1.0, b=0.5),
    ],
}


def expected_gap(spec: ModelSpec) -> float:
    p = spec.params
    if spec.family is Family.HARMONIC_1D:
        return 2.0 * p.m * p.c ** 2 * p.omega
    if spec.family is Family.HARMONIC_2D:
        return 4.0 * p.m * p.c ** 2 * p.omega
    return 4.0 * p.a * p.c ** 2


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_closed_form_equispacing():
    t0 = time.perf_counter()
    worst = 0.0
    for family, sets in PARAM_SETS.items():
        assert len(sets) >= 3
        for params in sets:
            ml = 1 if family.is_two_dimensional else None
            spec = ModelSpec(family, params, ml=ml)
            gaps = np.diff([analytic_e2(spec, n) for n in range(8)])
            gap = expected_gap(spec)
            worst = max(worst, float(np.max(np.abs(gaps - gap)) / gap))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"E^2 equispacing across 4 families x 3 parameter sets: worst rel dev "
        f"{worst:.2e} (machine precision), {elapsed:.2f} s (< 1 s)",
    )


def test_criterion_2_numeric_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in DEFAULTS.values():
        table = numeric_spectrum(spec, 5, n_points=4000)
        for lev in table.levels:
            want = analytic_e2(spec, lev.n)
            worst = max(worst, abs(lev.e2 - want) / abs(want))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-4 and elapsed < 30.0,
        f"numeric vs analytic E^2, 5 levels x 4 families at N=4000: worst rel "
        f"{worst:.2e} (tol 1e-4), {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_3_convergence_order():
    regular = [
        DEFAULTS[Family.HARMONIC_1D],
        DEFAULTS[Family.ISOTONIC_1D],
        DEFAULTS[Family.HARMONIC_2D],
        ModelSpec(Family.ISOTONIC_2D, PhysicalParams(a=1.5, b=-0.5), ml=1),
    ]
    singular = [
        DEFAULTS[Family.ISOTONIC_2D],  # |ml - b| = 3/4, fractional cusp
        ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.5), ml=1),  # |ml - b| = 1/2
    ]
    orders = {spec.family.value + f"/b={spec.params.b}": convergence_order(spec, 0) for spec in regular}
    ok = all(abs(p - 2.0) <= 0.3 for p in orders.values())
    sing_orders = {f"b={spec.params.b}": convergence_order(spec, 0) for spec in singular}
    ok = ok and all(p >= 1.5 for p in sing_orders.values())
    summary = ", ".join(f"{k}: {v:.2f}" for k, v in {**orders, **sing_orders}.items())
    report(3, ok, f"orders 2.0 +/- 0.3 (singular 2D sectors >= 1.5): {summary}")


def test_criterion_4_limits():
    # (a) 1D isotonic collapses onto the odd oscillator levels as b -> 0
    iso = ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=1.0, b=1e-12))
    ho = ModelSpec(Family.HARMONIC_1D)
    embed = max(
        abs(analytic_e2(iso, n) - analytic_e2(ho, 2 * n + 1)) / analytic_e2(ho, 2 * n + 1)
        for n in range(5)
    )
    ok_a = embed <= 1e-8

    # (b) 2D isotonic at a = m omega, b = 0 IS the 2D harmonic ladder
    ok_b = all(
        analytic_e2(ModelSpec(Family.ISOTONIC_2D, PhysicalParams(a=1.0, b=0.0), ml=ml), n)
        == analytic_e2(ModelSpec(Family.HARMONIC_2D, ml=ml), n)
        for ml in (1, -1, 2)
        for n in range(5)
    )

    # (c) relativistic residue shrinks 4x per c doubling
    worst_lo, worst_hi = math.inf, 0.0
    for family, spec in DEFAULTS.items():
        for n in range(4):
            diffs = []
            for c in (10.0, 20.0, 40.0):
                at_c = ModelSpec(family, PhysicalParams(
                    m=spec.params.m, c=c, omega=spec.params.omega,
                    a=spec.params.a, b=spec.params.b), ml=spec.ml)
                e = math.sqrt(analytic_e2(at_c, n))
                eps = analytic_nonrel_eps(at_c, n)
                diffs.append(abs((e - at_c.mc2) - eps))
            if max(diffs) < 1e-14:
                continue  # level is exactly non-relativistic; nothing to shrink
            for d1, d2 in zip(diffs, diffs[1:]):
                ratio = d1 / d2
                worst_lo = min(worst_lo, ratio)
                worst_hi = max(worst_hi, ratio)
    ok_c = 3.5 <= worst_lo and worst_hi <= 4.5
    report(
        4,
        ok_a and ok_b and ok_c,
        f"(a) b->0 embedding rel dev {embed:.2e} (tol 1e-8); (b) 2D iso == 2D ho "
        f"at a=m*omega, b=0: {'exact' if ok_b else 'BROKEN'}; (c) shrink ratios in "
        f"[{worst_lo:.2f}, {worst_hi:.2f}] (accept 4.0 +/- 0.5)",
    )


def test_criterion_5_spinor_pair_closure():
    worst = 0.0
    ok_halving = True
    for family in (Family.HARMONIC_1D, Family.ISOTONIC_1D):
        spec = DEFAULTS[family]
        res = {}
        for n_points in (4000, 8000):
            grid, results = numeric_levels(spec, 4, n_points=n_points)
            table = numeric_spectrum(spec, 4, grid=grid)
            res[n_points] = [
                residual_pair_check(spec, table.levels[n].e, grid, results[n].vector)
                for n in range(4)
            ]
        worst = max(worst, max(res[4000]))
        ok_halving = ok_halving and all(
            r2 <= 0.5 * r1 + 1e-12 for r1, r2 in zip(res[4000], res[8000])
        )
    report(
        5,
        worst <= 5e-3 and ok_halving,
        f"first-order closure residual n<=3, 1D families, N=4000: worst "
        f"{worst:.2e} (tol 5e-3); halves under doubling: {'yes' if ok_halving else 'no'}",
    )


def test_criterion_6_susy_block():
    worst_iso = 0.0
    worst_block = 0.0
    pairing_exact = True
    for spec in DEFAULTS.values():
        grid = choose_domain(effective_problem(spec), 6, n_points=2000)
        pair = discretize_supercharge(spec, grid)
        worst_iso = max(worst_iso, susy_isospectrality_check(pair, 6)["max_rel_mismatch"])

        grid = choose_domain(effective_problem(spec), 5, n_points=4000)
        pair = discretize_supercharge(spec, grid)
        ham = build_block_hamiltonian(pair, spec.mc2)
        branches = block_spectrum(ham, 5)
        pairing_exact = pairing_exact and np.array_equal(np.sort(-branches), branches)
        lam = np.array([r.eigenvalue for r in eigen_lowest(pair.dtd_operator(), 5)])
        genuine = (
            analytic_e2(spec, 0) - spec.mc2 ** 2
            <= spec.params.c ** 2 * pair.delta * KERNEL_LADDER_TOL
        )
        rungs = lam if genuine else lam[lam / pair.delta >= KERNEL_LADDER_TOL]
        e_block = np.sqrt(spec.mc2 ** 2 + spec.params.c ** 2 * np.maximum(rungs[:4], 0.0))
        e_exact = np.array([math.sqrt(analytic_e2(spec, n)) for n in range(4)])
        worst_block = max(worst_block, float(np.max(np.abs(e_block - e_exact) / e_exact)))

    worst_dense = 0.0
    for family in (Family.HARMONIC_1D, Family.ISOTONIC_2D):
        spec = DEFAULTS[family]
        grid = choose_domain(effective_problem(spec), 4, n_points=160)
        ham = build_block_hamiltonian(discretize_supercharge(spec, grid), spec.mc2)
        dense = np.linalg.eigvalsh(ham.to_dense())
        fact = block_spectrum(ham, ham.pair.size)
        worst_dense = max(
            worst_dense, float(np.max(np.abs(dense - fact) / np.maximum(1.0, np.abs(dense))))
        )
    report(
        6,
        worst_iso <= 1e-10 and pairing_exact and worst_block <= 1e-2 and worst_dense <= 1e-8,
        f"partner isospectrality {worst_iso:.1e} (tol 1e-10); +/- pairing exact: "
        f"{'yes' if pairing_exact else 'no'}; block route vs E_n {worst_block:.2e} "
        f"(tol 1e-2); dense 2Nx2N oracle at N=160 {worst_dense:.2e} (tol 1e-8)",
    )


def test_criterion_7_ajc_number_operator():
    spec = DEFAULTS[Family.HARMONIC_2D]
    grid = choose_domain(effective_problem(spec), 4, n_points=4000)
    pair = discretize_supercharge(spec, grid)  # delta defaults to 4 m omega
    lam = np.array([r.eigenvalue for r in eigen_lowest(pair.dtd_operator(), 4)])
    ladder = lam / pair.delta
    dev = float(np.max(np.abs(ladder - np.arange(4))))
    report(
        7,
        dev <= 1e-2,
        f"A+A eigenvalues at delta=4*m*omega sit on 0,1,2,3 within {dev:.2e} (tol 1e-2)",
    )


def test_criterion_8_angular_degeneracy():
    exact = True
    for ml in (2, 3):
        for n in range(5):
            exact = exact and (
                analytic_e2(ModelSpec(Family.HARMONIC_2D, ml=ml), n)
                == analytic_e2(DEFAULTS[Family.HARMONIC_2D], n)
            )
            exact = exact and (
                analytic_e2(ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.25), ml=ml), n)
                == analytic_e2(DEFAULTS[Family.ISOTONIC_2D], n)
            )
    worst = 0.0
    for family in (Family.HARMONIC_2D, Family.ISOTONIC_2D):
        params = DEFAULTS[family].params
        ref = None
        for ml in (1, 2, 3):
            spec = ModelSpec(family, params, ml=ml)
            e2 = numeric_spectrum(spec, 5, n_points=4000).e2_values()
            if ref is None:
                ref = e2
            else:
                worst = max(worst, float(np.max(np.abs(e2 - ref) / ref)))
    report(
        8,
        exact and worst <= 1e-4,
        f"2D ladders independent of ml: analytic exact {'yes' if exact else 'no'}; "
        f"numeric spread across ml in {{1,2,3}}: {worst:.2e} (tol 1e-4)",
    )


def test_criterion_9_cli_verify_deterministic():
    cmd = [sys.executable, "-m", "relqosc.cli", "verify", "--suite", "all"]
    first = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    identical = first.stdout == second.stdout and first.stderr == second.stderr
    report(
        9,
        first.returncode == 0 and second.returncode == 0 and identical,
        f"verify --suite all exits {first.returncode}/{second.returncode} (want 0/0); "
        f"two runs byte-identical: {'yes' if identical else 'no'}",
    )
