import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import endef
from endef.metrics import (
    EvalReport,
    MetricsError,
    PredictionSet,
    aggregate_reports,
    confusion,
    evaluate,
    f1_scores,
    format_aggregate_table,
    paired_ttest,
    roc_auc,
    roc_points,
    sp_auc,
    t_two_sided_p,
)


def pset(scores, labels, threshold=0.5):
    return PredictionSet(np.array(scores, dtype=float), np.array(labels), threshold)


def pairwise_auc_oracle(scores, labels):
    """Exhaustive positive/negative pair comparison; ties credit 0.5."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def roc_vertices_by_threshold_recount(scores, labels):
    """Brute-force ROC vertices: re-count FP/TP at every distinct threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    points = [(0.0, 0.0)]
    for theta in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= theta
        fp = int(np.sum(pred & (labels == 0)))
        tp = int(np.sum(pred & (labels == 1)))
        points.append((fp / n_neg, tp / n_pos))
    return points


def spauc_fine_grid_oracle(scores, labels, maxfpr, subdivisions=64):
    """Dense numerical integration of the brute-force ROC path, then the standardization.

    Every polyline segment inside [0, maxfpr] is sampled on a fine grid and
    integrated with the trapezoid rule; the segment crossing maxfpr is
    clipped by linear interpolation first.
    """
    points = roc_vertices_by_threshold_recount(scores, labels)
    pauc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 >= maxfpr:
            break
        if x1 > maxfpr:
            y1 = y0 + (maxfpr - x0) / (x1 - x0) * (y1 - y0)
            x1 = maxfpr
        if x1 == x0:
            continue
        grid = np.linspace(x0, x1, subdivisions + 1)
        vals = np.interp(grid, [x0, x1], [y0, y1])
        integrate = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        pauc += integrate(vals, grid)
    minarea = 0.5 * maxfpr * maxfpr
    return 0.5 * (1.0 + (pauc - minarea) / (maxfpr - minarea))


def random_prediction_sets(n_sets, seed, max_size=60):
    rng = np.random.default_rng(seed)
    out = []
    made = 0
    while made < n_sets:
        n = int(rng.integers(4, max_size))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        scores = rng.random(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force ties
        out.append(pset(scores, labels))
        made += 1
    return out


def test_roc_auc_perfect_separation():
    assert roc_auc(pset([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0


def test_roc_auc_textbook_example():
    assert roc_auc(pset([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])) == 0.75


def test_roc_auc_all_ties_is_half():
    assert roc_auc(pset([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1])) == 0.5


def test_roc_auc_single_class_rejected():
    with pytest.raises(MetricsError):
        roc_auc(pset([0.1, 0.2], [1, 1]))


def test_roc_auc_matches_pairwise_oracle():
    for ps in random_prediction_sets(300, seed=5):
        assert abs(roc_auc(ps) - pairwise_auc_oracle(ps.scores, ps.labels)) <= 1e-12


def test_label_inversion_flips_auc():
    for ps in random_prediction_sets(50, seed=9):
        flipped = pset(ps.scores, 1 - ps.labels)
        assert roc_auc(ps) + roc_auc(flipped) == pytest.approx(1.0, abs=1e-12)


def test_sp_auc_perfect_is_exactly_one():
    assert sp_auc(pset([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]), maxfpr=0.1) == 1.0


def test_sp_auc_diagonal_is_exactly_half():
    assert sp_auc(pset([0.5] * 10, [0, 1] * 5), maxfpr=0.1) == 0.5


def test_sp_auc_matches_fine_grid_oracle():
    for ps in random_prediction_sets(150, seed=6):
        for maxfpr in (0.1, 0.3, 1.0):
            got = sp_auc(ps, maxfpr=maxfpr)
            want = spauc_fine_grid_oracle(ps.scores, ps.labels, maxfpr)
            assert abs(got - want) <= 1e-9


def test_sp_auc_range_and_validation():
    for ps in random_prediction_sets(50, seed=8):
        value = sp_auc(ps)
        assert 0.0 <= value <= 1.0
    with pytest.raises(MetricsError):
        sp_auc(pset([0.2, 0.8], [0, 1]), maxfpr=0.0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_auc_family_invariant_under_strictly_increasing_transform(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 30))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = np.round(rng.uniform(0.1, 0.9, size=n), 3)
    transformed = scores**3  # strictly increasing on [0, 1]
    a, b = pset(scores, labels), pset(transformed, labels)
    assert roc_auc(a) == pytest.approx(roc_auc(b), abs=1e-12)
    assert sp_auc(a) == pytest.approx(sp_auc(b), abs=1e-12)


def test_roc_points_shape():
    fpr, tpr = roc_points(pset([0.9, 0.5, 0.5, 0.1], [1, 1, 0, 0]))
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)


def test_f1_scores_hand_counted():
    ps = pset([0.9, 0.2, 0.7, 0.4], [1, 0, 0, 1])
    c = confusion(ps)
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
    f1 = f1_scores(ps)
    assert f1.f1_fake == 0.5 and f1.f1_real == 0.5
    assert f1.macf1 == 0.5 and f1.acc == 0.5


def test_f1_all_correct():
    f1 = f1_scores(pset([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]))
    assert f1.f1_fake == f1.f1_real == f1.macf1 == f1.acc == 1.0


def test_f1_zero_division_convention():
    f1 = f1_scores(pset([0.1, 0.2, 0.3], [1, 1, 0]))  # no predicted positives
    assert f1.f1_fake == 0.0


def test_evaluate_assembles_consistent_report():
    ps = pset([0.9, 0.8, 0.3, 0.1, 0.6], [1, 1, 0, 0, 1])
    report = evaluate(ps)
    assert report.auc == roc_auc(ps)
    assert report.spauc == sp_auc(ps, 0.1)
    assert report.acc == (report.tp + report.tn) / len(ps)
    assert report.macf1 == pytest.approx(0.5 * (report.f1_real + report.f1_fake), abs=1e-15)
    assert report.maxfpr == 0.1


def test_evaluate_perfect_set_all_ones():
    report = evaluate(pset([0.99, 0.98, 0.01, 0.02], [1, 1, 0, 0]))
    assert report.column_values() == (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_report_table_format():
    report = evaluate(pset([0.99, 0.98, 0.01, 0.02], [1, 1, 0, 0]))
    table = report.format_table()
    lines = table.splitlines()
    assert lines[0].split() == ["macF1", "Acc", "AUC", "spAUC", "F1_real", "F1_fake"]
    assert lines[1].split() == ["1.0000"] * 6


def test_report_json_round_trip():
    report = evaluate(pset([0.9, 0.1, 0.7, 0.3], [1, 0, 1, 0]))
    clone = EvalReport(**json.loads(json.dumps(report.to_dict())))
    assert clone == report


def test_aggregate_reports_mean_std():
    r1 = evaluate(pset([0.9, 0.1], [1, 0]))
    r2 = evaluate(pset([0.6, 0.4, 0.3, 0.7], [1, 0, 0, 1]))
    agg = aggregate_reports([r1, r2])
    assert agg["acc"]["mean"] == pytest.approx((r1.acc + r2.acc) / 2)
    expect_std = np.std([r1.acc, r2.acc], ddof=1)
    assert agg["acc"]["std"] == pytest.approx(expect_std)
    table = format_aggregate_table(agg)
    assert "macF1" in table and "+/-" in table


def test_paired_ttest_known_case():
    x = [0.8, 0.82, 0.85, 0.81]
    y = [0.78, 0.8, 0.8, 0.79]
    t, p = paired_ttest(x, y)
    d = np.array(x) - np.array(y)
    expect_t = d.mean() / (d.std(ddof=1) / math.sqrt(d.size))
    assert t == pytest.approx(expect_t)
    # d = (0.02, 0.02, 0.05, 0.02) gives t = 11/3 on 3 degrees of freedom, where
    # A(t|3) = (2/pi)(theta + sin(theta)cos(theta)) with tan(theta) = 11/(3 sqrt 3): sin*cos = 99/(148 sqrt 3)
    theta = math.atan(11.0 / (3.0 * math.sqrt(3.0)))
    assert p == pytest.approx(1.0 - 2.0 / math.pi * (theta + 99.0 / (148.0 * math.sqrt(3.0))), rel=0, abs=1e-15)


def t_tail_by_quadrature(ts, nu):
    """1 - 2 * integral of the t density over [0, t], by 30-node Gauss-Legendre on each gap of the sorted grid `ts`."""
    nodes, weights = np.polynomial.legendre.leggauss(30)
    lo, hi = ts[:-1, None], ts[1:, None]
    x = (hi + lo) / 2 + (hi - lo) / 2 * nodes
    norm = math.gamma((nu + 1) / 2) / math.gamma(nu / 2) / math.sqrt(nu * math.pi)
    density = norm * (1.0 + x * x / nu) ** (-(nu + 1) / 2)
    pieces = (hi[:, 0] - lo[:, 0]) / 2 * (density @ weights)
    return 1.0 - 2.0 * np.concatenate([[0.0], np.cumsum(pieces)])


def test_t_two_sided_p_exact_oracles():
    ts = np.linspace(0.0, 12.0, 97)
    for t in ts:
        # nu = 1 is the Cauchy tail and nu = 2 has its own closed form
        assert t_two_sided_p(t, 1) == pytest.approx(1.0 - 2.0 / math.pi * math.atan(t), rel=0, abs=1e-15)
        assert t_two_sided_p(t, 2) == pytest.approx(1.0 - t / math.sqrt(t * t + 2.0), rel=0, abs=1e-15)
        assert t_two_sided_p(-t, 7) == t_two_sided_p(t, 7)
    for nu in range(1, 60):
        got = np.array([t_two_sided_p(t, nu) for t in ts])
        assert np.abs(got - t_tail_by_quadrature(ts, nu)).max() <= 1e-14, nu
        assert got[0] == 1.0 and got.min() >= 0.0
    # far in the tail 1 - A cancels to 0, never below it
    assert t_two_sided_p(1e300, 4) == 0.0 and t_two_sided_p(math.inf, 3) == 0.0


def test_import_loads_no_scipy():
    # NumPy is the only runtime dependency: the t-test's tail is closed-form, not scipy.stats
    code = "import sys, endef; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(endef.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_paired_ttest_identical_sequences():
    t, p = paired_ttest([0.5, 0.6], [0.5, 0.6])
    assert t == 0.0 and p == 1.0


def test_prediction_set_validation():
    with pytest.raises(MetricsError):
        pset([], [])
    with pytest.raises(MetricsError):
        pset([0.5], [2])
    with pytest.raises(MetricsError):
        pset([1.5], [1])
    with pytest.raises(MetricsError):
        pset([0.5, 0.5], [1])
