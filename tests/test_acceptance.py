"""Acceptance criteria, one test per criterion, at the stated sizes and
tolerances.  Each test prints a PASS/FAIL line with the measured extremes.

The analysis' worst-case subspace-size constants are proof-scale and not
reproducible at desk scale; acceptance is property-based plus small-instance
oracle equivalence, with every certificate re-verified independently.
"""

import math

from entropic_doubling import verification as V


def report(criterion: str, suite) -> None:
    status = "PASS" if suite.passed else "FAIL"
    print(
        f"[{status}] {criterion}: {suite.checks} checks, "
        f"{suite.violations} violations, max gap {suite.max_gap:.3e}, "
        f"{suite.elapsed:.2f}s"
    )
    for note in suite.notes[:30]:
        print(f"    {note}")


def test_criterion_1_identity_suite():
    """Chain rule, quotient-entropy identity, fibring identity: 1000 seeded
    (P, Q, V) triples per n in {2..8}, 1e-9, under two minutes."""
    suite = V.identity_suite(trials=1000, ns=(2, 3, 4, 5, 6, 7, 8), seed=101)
    report("criterion 1 (identity suite)", suite)
    assert suite.passed
    assert suite.elapsed < 120.0


def test_criterion_2_fast_transform_oracle():
    """xor_convolve equals the naive double sum within 1e-12 max-abs on 200
    random pairs per n in {2..10}."""
    suite = V.convolution_oracle_suite(
        pairs=200, ns=(2, 3, 4, 5, 6, 7, 8, 9, 10), seed=102
    )
    report("criterion 2 (fast-transform oracle)", suite)
    assert suite.passed


def test_criterion_3_subspace_algebra():
    """Dimension formula and subspace submodularity over ALL subspace pairs
    of F_2^4 with 50 random distributions each, 1e-9 slack."""
    suite = V.subspace_algebra_suite(n=4, dists=50, seed=103)
    report("criterion 3 (subspace algebra)", suite)
    assert suite.passed


def test_criterion_4_base_case():
    """H[X+Y] >= max(H[X], H[Y]) - 1e-9 on 1000 random independent pairs."""
    suite = V.base_case_suite(trials=1000, seed=104)
    report("criterion 4 (base case)", suite)
    assert suite.passed


def test_criterion_5_endgame_bookkeeping():
    """50 constructed instances meeting the endgame hypotheses at measured
    kappa: MI sum <= 4k, Z-entropy gaps <= 4k, expectation <= 480k."""
    suite = V.endgame_suite(instances=50, seed=105)
    report("criterion 5 (endgame bookkeeping)", suite)
    assert suite.passed


def test_criterion_6_y_size_lower_bound():
    """The nested-subspace fiber bound on 100 random (W <= V) pairs at n=4."""
    suite = V.y_size_suite(instances=100, n=4, seed=106)
    report("criterion 6 (nested-subspace fiber bound)", suite)
    assert suite.passed


def test_criterion_7_pipeline_soundness():
    """solve_B on 25 random inputs at n in {3,4,5} (eta=0.3, eps=0.1): every
    certificate re-verifies independently; achieved dim logged against the
    exhaustive minimum (ratio only, no hard bound)."""
    suite = V.pipeline_suite(instances=25, ns=(3, 4, 5), eta=0.3, epsilon=0.1, seed=107)
    report("criterion 7 (pipeline soundness)", suite)
    assert suite.passed


def test_criterion_8_theorem_11_end_to_end():
    """Hamming ball r=1 in F_2^4: |A| = 5, |A+A| = 11, eta ~ 0.5101; the
    emitted subspace satisfies the intersection bound at eps = 0.2 and the
    exact coset-size identity to 1e-9."""
    suite = V.theorem11_suite(epsilon=0.2, seed=108)
    report("criterion 8 (combinatorial end-to-end)", suite)
    assert suite.passed
    exact = 2.0 - math.log2(11) / math.log2(5)
    assert any(f"eta={exact:.6f}" in note for note in suite.notes)


def test_criterion_9_family_trend():
    """Hamming balls at n=12, r in {1,2,3}: the doubling exponent
    log|A+A|/log|A| falls as r grows, i.e. measured eta rises (consistent
    with the Bernoulli-family monotonicity eps ~ 2/log2(1/p)); exact counts
    against binomial sums, values logged as fixtures.

    Note: exact measured etas are 0.296478, 0.471870, 0.626767 (strictly
    increasing); see the decisions ledger for the direction reading.
    """
    suite = V.family_trend_suite(n=12, radii=(1, 2, 3))
    report("criterion 9 (family trend)", suite)
    assert suite.passed
    etas = [float(note.split("eta=")[1].split()[0]) for note in suite.notes]
    assert etas == sorted(etas) and len(set(etas)) == 3
    assert abs(etas[0] - 0.296478) < 1e-6
    assert abs(etas[1] - 0.471870) < 1e-6
    assert abs(etas[2] - 0.626767) < 1e-6
