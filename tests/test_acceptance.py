"""Acceptance gate: every contract the package promises, one test each.

Each test prints one PASS line with the measured numbers so a transcript
shows the whole gate at a glance.
"""

import time

import numpy as np
import pytest

from gqsbnet import (
    Bipartition,
    OutcomeKind,
    ScenarioConfig,
    SignedGraph,
    Verdict,
    assess,
    bipartition_from_dominant,
    certify,
    closed_form_state,
    enumerate_gqsb_bipartitions,
    generalized_laplacian,
    integrate,
    opposing_laplacian,
    positive_components,
    psd_simple_zero,
    repelling_laplacian,
    run_pipeline,
    sym_eigen,
    sym_eigvals,
)
from support import (
    partner_forest_gram,
    random_bloc_graph,
    random_gqsb_instance,
    random_sb_instance,
    random_signed_graph,
    scan_gqsb_count_fast,
)


def _spectrum(matrix):
    return sym_eigen(matrix).eigenvalues


def test_split_triangle_classic_spectra(sb_triangle):
    lr = repelling_laplacian(sb_triangle)
    lo = opposing_laplacian(sb_triangle)
    _spectrum(lr), _spectrum(lo)  # warm the solver before timing
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        wr = _spectrum(lr)
        wo = _spectrum(lo)
        best = min(best, time.perf_counter() - t0)
    assert np.allclose(wr, [-9.0, -1.0, 0.0], atol=1e-9)
    assert np.allclose(wo, [0.0, 5.0, 9.0], atol=1e-9)
    assert best < 1e-3
    print(f"PASS split-triangle spectra within 1e-9, both solved in {best * 1e6:.0f} us")


def test_allneg_triangle_classic_spectra(allneg_triangle):
    wr = _spectrum(repelling_laplacian(allneg_triangle))
    wo = _spectrum(opposing_laplacian(allneg_triangle))
    root = np.sqrt(73.0)
    assert np.allclose(wr, [-9.0, -5.0, 0.0], atol=1e-9)
    assert np.allclose(wo, [(11 - root) / 2, 3.0, (11 + root) / 2], atol=1e-9)
    # one-decimal display truncates toward zero (snap solver noise first)
    shown = np.floor(np.round(wo * 10.0, 6)) / 10.0
    assert np.array_equal(shown, [1.2, 3.0, 9.7])
    print("PASS all-antagonistic triangle spectra within 1e-9, one-decimal view {1.2, 3, 9.7}")


def test_scaled_laplacian_worked_matrix(allneg_triangle, allneg_split):
    bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
    expect = np.array([[2.0, 1.0, 6.0], [1.0, 2.0, 6.0], [1.5, 1.5, 6.0]])
    assert np.array_equal(bundle.laplacian, expect)
    vals = _spectrum(bundle.z_laplacian)
    assert np.allclose(vals, [0.0, 1.0, 9.0], atol=1e-9)
    print("PASS dominance-scaled operator matches the worked matrix exactly, spectrum {0, 1, 9}")


def test_bipartition_count_closed_form(three_bloc_eight):
    rng = np.random.default_rng(404)
    checked = 0
    while checked < 200:
        if checked % 5 < 3:
            n = int(rng.integers(4, 13))
            g, _ = random_bloc_graph(rng, n, int(rng.integers(2, min(6, n + 1))))
        else:
            g = random_signed_graph(rng, int(rng.integers(3, 13)),
                                    density=float(rng.uniform(0.2, 0.6)))
        p = len(positive_components(g))
        if p < 2:
            continue
        count = len(enumerate_gqsb_bipartitions(g))
        assert count == (1 << (p - 1)) - 1
        assert count == scan_gqsb_count_fast(g)
        checked += 1
    assert len(enumerate_gqsb_bipartitions(three_bloc_eight)) == 3
    print("PASS bipartition count equals 2^(p-1)-1 and the brute-force scan on 200 graphs; three-bloc fixture gives 3")


def test_spectrum_invariant_in_coefficient():
    rng = np.random.default_rng(505)
    gammas = (0.5, 1.0, 2.0, 10.0)
    worst = 0.0
    for _ in range(100):
        g, b = random_gqsb_instance(rng)
        spectra = []
        for gamma in gammas:
            bundle = generalized_laplacian(g, b, gamma)
            raw = np.linalg.eigvals(bundle.laplacian)
            assert float(np.max(np.abs(raw.imag))) <= 1e-8
            spectra.append(np.sort(raw.real))
        for a in range(len(gammas)):
            for c in range(a + 1, len(gammas)):
                diff = float(np.max(np.abs(spectra[a] - spectra[c])))
                worst = max(worst, diff)
                assert diff <= 1e-8
    print(f"PASS scaled-operator spectrum is coefficient-free on 100 instances, worst pairwise gap {worst:.2e}")


def test_certificate_agrees_with_simulation():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    sides = {True: 0, False: 0}
    worst_ok = 0.0
    for _ in range(500):
        g, b = random_gqsb_instance(rng)
        cert = certify(g, b, 2.0)
        bundle = generalized_laplacian(g, b, 2.0)
        dec = sym_eigen(bundle.z_laplacian)
        psd = psd_simple_zero(bundle.z_laplacian)
        forest, gram = partner_forest_gram(g, b)
        resistance_pd = not forest or float(sym_eigvals(gram)[0]) > dec.zero_tol
        assert psd == resistance_pd == (cert.antagonism_headroom > 1.0)
        sides[psd] += 1

        w = dec.eigenvalues
        nz = np.abs(w)[np.abs(w) > dec.zero_tol]
        lam = float(nz.min()) if nz.size else 1.0
        radius = float(np.max(np.abs(w))) if w.size else 1.0
        traj = integrate(
            bundle,
            rng.uniform(-1.0, 1.0, bundle.n),
            dt=1.0 / radius,
            t_max=min(max(60.0, 40.0 / lam), 5000.0),
            stop_tol=1e-9,
        )
        rep = assess(traj, b, 2.0)
        reaches_split = (
            rep.kind is OutcomeKind.ASYMMETRIC_POLARIZATION and rep.defect <= 1e-6
        )
        assert psd == reaches_split
        if psd:
            worst_ok = max(worst_ok, rep.defect)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert sides[True] >= 50 and sides[False] >= 50
    print(
        f"PASS headroom, resistance test, and simulation agree on 500 instances "
        f"({sides[True]} polarizing / {sides[False]} not) in {elapsed:.1f} s, "
        f"worst defect {worst_ok:.2e}"
    )


def test_closed_form_matches_integrator(sb_triangle, allneg_triangle, qsb_quad,
                                        allneg_split):
    fixtures = [
        (allneg_triangle, allneg_split, 2.0),
        (sb_triangle, Bipartition(3, frozenset({0, 1})), 1.0),
        (sb_triangle, Bipartition(3, frozenset({0, 1})), 2.0),
        (qsb_quad, Bipartition(4, frozenset({0, 1, 2})), 2.0),
    ]
    rng = np.random.default_rng(606)
    worst_gap = 0.0
    worst_drift = 0.0
    for g, b, gamma in fixtures:
        cert = certify(g, b, gamma)
        assert cert.verdict in (Verdict.ASYMMETRIC_POLARIZATION, Verdict.CONSENSUS)
        bundle = generalized_laplacian(g, b, gamma)
        x0 = rng.uniform(-1.0, 1.0, bundle.n)
        traj = integrate(bundle, x0, dt=0.01, t_max=10.0, stop_tol=0.0,
                         record_every=1)
        picks = np.linspace(0, len(traj.times) - 1, 10).astype(int)
        for k in picks:
            exact = closed_form_state(bundle, x0, float(traj.times[k]))
            worst_gap = max(worst_gap, float(np.max(np.abs(traj.states[k] - exact))))
        totals = traj.states @ bundle.coord_gauge
        worst_drift = max(worst_drift, float(np.max(np.abs(totals - totals[0]))))
    assert worst_gap <= 1e-6
    assert worst_drift <= 1e-8
    print(
        f"PASS integrator matches the closed form at 10 sampled times per polarizing "
        f"fixture (worst gap {worst_gap:.2e}) with conserved-total drift {worst_drift:.2e}"
    )


def test_asymmetric_limit_worked_triangle(allneg_triangle, allneg_split):
    bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
    traj = integrate(bundle, [1.0, 0.0, 0.0], dt=0.01)
    final = traj.states[-1]
    assert np.allclose(final, [1 / 3, 1 / 3, -1 / 6], atol=1e-6)
    rep = assess(traj, allneg_split, 2.0)
    assert rep.ratio == pytest.approx(-2.0, abs=1e-6)
    print("PASS worked triangle converges to (1/3, 1/3, -1/6) with side ratio -2")


def test_highland_scenario_polarizes():
    config = ScenarioConfig("highland", (0,), gamma=2.0,
                            weights=(10.0, -1.0, -10.0), dt=0.002, seed=0)
    report = run_pipeline(config)
    assert report.certificate.verdict is Verdict.ASYMMETRIC_POLARIZATION
    assert report.outcome.kind is OutcomeKind.ASYMMETRIC_POLARIZATION
    assert report.outcome.ratio == pytest.approx(-2.0, abs=1e-6)
    print(
        f"PASS alliance dataset certifies AsymmetricPolarization with simulated "
        f"ratio {report.outcome.ratio:.9f}"
    )


def test_unit_coefficient_balanced_reduction():
    rng = np.random.default_rng(707)
    worst = 0.0
    for k in range(50):
        g, b = random_sb_instance(rng)
        bundle = generalized_laplacian(g, b, 1.0)
        assert np.array_equal(bundle.laplacian, opposing_laplacian(g))
        dec = sym_eigen(bundle.z_laplacian)
        w = dec.eigenvalues
        nz = np.abs(w)[np.abs(w) > dec.zero_tol]
        lam = float(nz.min()) if nz.size else 1.0
        x0 = rng.uniform(-1.0, 1.0, bundle.n)
        far = closed_form_state(bundle, x0, 40.0 / lam)
        mask = b.mask()
        gap = max(
            float(np.ptp(far[mask])) if mask.any() else 0.0,
            float(np.ptp(far[~mask])) if (~mask).any() else 0.0,
            abs(float(far[mask].mean()) + float(far[~mask].mean())),
        )
        worst = max(worst, gap)
        assert gap <= 1e-8
        if k < 10:
            traj = integrate(bundle, x0, dt=0.2 / float(np.max(np.abs(w))),
                             t_max=80.0 / lam, stop_tol=1e-11)
            assert np.allclose(traj.states[-1], far, atol=1e-6)
    print(
        f"PASS coefficient-1 balanced operator equals the opposing operator entrywise "
        f"on 50 graphs; final split is symmetric (worst asymmetry {worst:.2e})"
    )
