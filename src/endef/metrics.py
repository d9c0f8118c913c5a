"""Binary-classification metrics: accuracy, F1 family, ROC AUC, standardized partial AUC.

The fake class (label 1) is the positive class throughout. ROC construction
uses the trapezoidal convention with tie groups collapsed into single
vertices, which gives ties the Mann-Whitney 0.5 credit; AUC and spAUC both
come from that one sweep.
"""

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

DEFAULT_MAXFPR = 0.1


class MetricsError(ValueError):
    """Invalid prediction set or undefined metric request."""


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Parallel scores/labels; fake is predicted at score >= threshold."""

    scores: np.ndarray
    labels: np.ndarray
    threshold: float = 0.5

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels)
        object.__setattr__(self, "scores", scores)
        if scores.ndim != 1 or labels.ndim != 1 or scores.size != labels.size:
            raise MetricsError("scores and labels must be equal-length 1-D sequences")
        if scores.size < 1:
            raise MetricsError("prediction set is empty")
        if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
            raise MetricsError("scores must be finite and within [0, 1]")
        if not np.all((labels == 0) | (labels == 1)):
            raise MetricsError("labels must be 0 or 1")
        object.__setattr__(self, "labels", labels.astype(np.int64))

    def __len__(self):
        return self.scores.size

    def require_both_classes(self):
        if self.labels.min() == self.labels.max():
            raise MetricsError("metric undefined: only one class present")


def _roc_counts(pred):
    # cumulative (false, true) positive counts at each distinct score, highest first
    pred.require_both_classes()
    order = np.argsort(-pred.scores, kind="mergesort")
    s_desc = pred.scores[order]
    y_desc = pred.labels[order]
    last = np.nonzero(np.r_[s_desc[1:] != s_desc[:-1], True])[0]
    return np.cumsum(1 - y_desc)[last], np.cumsum(y_desc)[last]


def roc_auc(pred):
    """P(random positive outranks random negative); ties score 0.5 credit.

    The trapezoid area under the ROC vertices, summed in integers as
    sum(dfp * (tp_prev + tp_cur)) / (2 * P * N): one exact numerator and a
    single division, so it equals the Mann-Whitney rank formula bit for bit.
    """
    fp, tp = _roc_counts(pred)
    twice_area = int(np.sum(np.diff(fp, prepend=0) * (tp + np.r_[0, tp[:-1]])))
    return twice_area / (2 * int(tp[-1]) * int(fp[-1]))


def roc_points(pred):
    """ROC vertices (fpr, tpr) from (0, 0) to (1, 1), one per distinct score."""
    fp, tp = _roc_counts(pred)
    return np.concatenate([[0.0], fp / fp[-1]]), np.concatenate([[0.0], tp / tp[-1]])


def sp_auc(pred, maxfpr=DEFAULT_MAXFPR):
    """Standardized partial AUC over the low-false-positive region FPR <= maxfpr.

    The partial area is rescaled so a perfect classifier scores 1.0 and a
    chance-level (diagonal ROC) classifier scores 0.5:

        0.5 * (1 + (pAUC - minarea) / (maxarea - minarea))
        maxarea = maxfpr,  minarea = 0.5 * maxfpr**2

    The area interpolates linearly within the ROC and at the FPR cut.
    """
    if not 0.0 < maxfpr <= 1.0:
        raise MetricsError("maxfpr must lie in (0, 1]")
    fpr, tpr = roc_points(pred)
    pauc = 0.0
    for k in range(1, fpr.size):
        x0, x1 = float(fpr[k - 1]), float(fpr[k])
        y0, y1 = float(tpr[k - 1]), float(tpr[k])
        if x0 >= maxfpr:
            break
        if x1 > maxfpr:
            t = (maxfpr - x0) / (x1 - x0)
            x1 = maxfpr
            y1 = y0 + t * (y1 - y0)
        pauc += 0.5 * (y0 + y1) * (x1 - x0)
    minarea = 0.5 * maxfpr * maxfpr
    maxarea = maxfpr
    return 0.5 * (1.0 + (pauc - minarea) / (maxarea - minarea))


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


def confusion(pred):
    """Confusion counts at the set's threshold (fake predicted at score >= threshold)."""
    predicted = pred.scores >= pred.threshold
    actual = pred.labels == 1
    return ConfusionCounts(
        tp=int(np.sum(predicted & actual)),
        fp=int(np.sum(predicted & ~actual)),
        tn=int(np.sum(~predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
    )


@dataclass(frozen=True)
class F1Scores:
    f1_fake: float
    f1_real: float
    macf1: float
    acc: float


def f1_scores(pred):
    """Per-class F1 (fake = positive), macro F1, accuracy; 0/0 counts as 0."""
    c = confusion(pred)
    denom_fake = 2 * c.tp + c.fp + c.fn
    denom_real = 2 * c.tn + c.fn + c.fp
    f1_fake = 2 * c.tp / denom_fake if denom_fake else 0.0
    f1_real = 2 * c.tn / denom_real if denom_real else 0.0
    acc = (c.tp + c.tn) / len(pred)
    return F1Scores(f1_fake, f1_real, 0.5 * (f1_fake + f1_real), acc)


_REPORT_FIELDS = ("macf1", "acc", "auc", "spauc", "f1_real", "f1_fake")


@dataclass(frozen=True)
class EvalReport:
    """All reported metrics plus confusion counts for one prediction set."""

    macf1: float
    acc: float
    auc: float
    spauc: float
    f1_real: float
    f1_fake: float
    tp: int
    fp: int
    tn: int
    fn: int
    maxfpr: float = DEFAULT_MAXFPR

    COLUMNS: ClassVar[tuple[str, ...]] = ("macF1", "Acc", "AUC", "spAUC", "F1_real", "F1_fake")

    def column_values(self):
        return tuple(getattr(self, f) for f in _REPORT_FIELDS)

    def to_dict(self):
        return asdict(self)

    def format_table(self):
        header = "".join(f"{c:<9}" for c in self.COLUMNS).rstrip()
        row = "".join(f"{v:<9.4f}" for v in self.column_values()).rstrip()
        return f"{header}\n{row}"


def evaluate(pred, maxfpr=DEFAULT_MAXFPR):
    """Assemble the full metric report; AUC metrics require both classes present."""
    f1 = f1_scores(pred)
    c = confusion(pred)
    return EvalReport(
        macf1=f1.macf1,
        acc=f1.acc,
        auc=roc_auc(pred),
        spauc=sp_auc(pred, maxfpr),
        f1_real=f1.f1_real,
        f1_fake=f1.f1_fake,
        tp=c.tp,
        fp=c.fp,
        tn=c.tn,
        fn=c.fn,
        maxfpr=maxfpr,
    )


def aggregate_reports(reports):
    """Across-run mean and sample standard deviation for each metric column."""
    if not reports:
        raise MetricsError("nothing to aggregate")
    out = {}
    for key in _REPORT_FIELDS:
        vals = np.array([getattr(r, key) for r in reports], dtype=np.float64)
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out[key] = {"mean": float(vals.mean()), "std": std}
    return out


def format_aggregate_table(agg):
    """Aligned mean +/- std table in report column order."""
    header = "".join(f"{c:<19}" for c in EvalReport.COLUMNS).rstrip()
    row = "".join(f"{agg[k]['mean']:.4f} +/- {agg[k]['std']:.4f}  " for k in _REPORT_FIELDS).rstrip()
    return f"{header}\n{row}"


def paired_ttest(xs, ys):
    """Two-sided paired t-test over matched runs; returns (t_statistic, p_value)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise MetricsError("paired t-test needs two equal-length sequences of >= 2 values")
    d = x - y
    sd = float(d.std(ddof=1))
    mean = float(d.mean())
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(d.size))
    return float(t), t_two_sided_p(t, d.size - 1)


def t_two_sided_p(t, nu):
    """P(|T| >= |t|) for Student's t with a positive integer number `nu` of degrees of freedom.

    The closed form of Abramowitz & Stegun 26.7.3-26.7.4: with
    theta = atan(|t| / sqrt(nu)), A(t|nu) is a finite series in cos(theta)
    and the tail is 1 - A. That difference cancels once the tail falls below
    about 1e-15, so there its error is absolute (a few 1e-16), not relative.
    """
    theta = math.atan(abs(t) / math.sqrt(nu))
    sin, cos = math.sin(theta), math.cos(theta)
    odd = nu % 2
    series, term = 0.0, 1.0
    for k in range(1, nu // 2 + 1):
        series += term
        term *= (2 * k - 1 + odd) / (2 * k + odd) * cos * cos
    a = 2.0 / math.pi * (theta + sin * cos * series) if odd else sin * series
    return max(0.0, 1.0 - a)
