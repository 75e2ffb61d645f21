"""Confusion-matrix accounting, classification metrics and k-fold evaluation.

Per one-vs-rest class view the six metrics are

    ACC = (TP + TN) / (TP + FN + TN + FP)
    SEN = TP / (TP + FN)
    SPE = TN / (TN + FP)
    PRE = TP / (TP + FP)
    F1  = 2 TP / (2 TP + FN + FP)
    MCC = (TP TN - FP FN) / sqrt((TP+FP)(TP+FN)(TN+FP)(TN+FN))

with any zero denominator yielding 0 (flagged, so degenerate folds are
visible in reports).  Multiclass results are macro-averaged over the
one-vs-rest views; cross-validation reports mean and sample standard
deviation across folds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from . import svm
from .errors import DataError, DimensionMismatchError
from .seeding import FOLD_STREAM, stream_rng

METRIC_NAMES = ("SEN", "SPE", "ACC", "PRE", "F1", "MCC")


def confusion(y_true, y_pred, n_classes: int) -> np.ndarray:
    """K x K counts; entry (i, j) counts true-i samples predicted j."""
    y_true = np.asarray(y_true, dtype=int).ravel()
    y_pred = np.asarray(y_pred, dtype=int).ravel()
    if y_true.size != y_pred.size:
        raise DimensionMismatchError("label vectors differ in length")
    if y_true.size == 0:
        raise DataError("no samples to score")
    for name, arr in (("true", y_true), ("predicted", y_pred)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise DataError(f"{name} label outside 0..{n_classes - 1}")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


@dataclass(frozen=True)
class ConfusionCounts:
    """One-vs-rest view of a single class."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def one_vs_rest_counts(cm: np.ndarray, c: int) -> ConfusionCounts:
    cm = np.asarray(cm)
    if not (0 <= c < cm.shape[0]):
        raise DataError(f"class {c} outside confusion matrix of size {cm.shape[0]}")
    tp = int(cm[c, c])
    fn = int(cm[c, :].sum() - tp)
    fp = int(cm[:, c].sum() - tp)
    tn = int(cm.sum() - tp - fn - fp)
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


@dataclass(frozen=True)
class Metrics:
    """The six metrics in table order; ``zeroed`` lists 0-by-convention entries."""

    sen: float
    spe: float
    acc: float
    pre: float
    f1: float
    mcc: float
    zeroed: Tuple[str, ...] = ()

    def as_array(self) -> np.ndarray:
        return np.array([self.sen, self.spe, self.acc, self.pre, self.f1, self.mcc])


def _ratio(num: float, den: float, name: str, zeroed: List[str]) -> float:
    if den == 0:
        zeroed.append(name)
        return 0.0
    return num / den


def metrics(c: ConfusionCounts) -> Metrics:
    if c.total == 0:
        raise DataError("cannot score all-zero counts")
    zeroed: List[str] = []
    sen = _ratio(c.tp, c.tp + c.fn, "SEN", zeroed)
    spe = _ratio(c.tn, c.tn + c.fp, "SPE", zeroed)
    acc = _ratio(c.tp + c.tn, c.total, "ACC", zeroed)
    pre = _ratio(c.tp, c.tp + c.fp, "PRE", zeroed)
    f1 = _ratio(2 * c.tp, 2 * c.tp + c.fn + c.fp, "F1", zeroed)
    mcc_den = math.sqrt(
        float(c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    )
    mcc = _ratio(c.tp * c.tn - c.fp * c.fn, mcc_den, "MCC", zeroed)
    return Metrics(sen, spe, acc, pre, f1, mcc, tuple(zeroed))


def per_class_metrics(cm: np.ndarray) -> List[Metrics]:
    return [metrics(one_vs_rest_counts(cm, c)) for c in range(cm.shape[0])]


def macro_metrics(cm: np.ndarray) -> Metrics:
    """Unweighted mean of the one-vs-rest metrics over classes."""
    cm = np.asarray(cm)
    if cm.shape[0] < 2:
        raise DataError("macro averaging needs at least 2 classes")
    per_class = per_class_metrics(cm)
    stacked = np.vstack([m.as_array() for m in per_class])
    zeroed = tuple(sorted({name for m in per_class for name in m.zeroed}))
    mean = stacked.mean(axis=0)
    return Metrics(*[float(v) for v in mean], zeroed=zeroed)


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment: sample index -> fold id."""

    k: int
    assignments: np.ndarray
    seed: int


def kfold_split(labels, k: int, seed: int) -> FoldPlan:
    """Per-class seeded shuffle, then round-robin assignment to folds."""
    labels = np.asarray(labels, dtype=int).ravel()
    if k < 2:
        raise DataError("need at least 2 folds")
    rng = stream_rng(seed, FOLD_STREAM)
    assignments = np.full(labels.size, -1, dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise DataError(
                f"class {cls} has {idx.size} samples, fewer than k={k} folds"
            )
        rng.shuffle(idx)
        assignments[idx] = np.arange(idx.size) % k
    return FoldPlan(k=k, assignments=assignments, seed=int(seed))


@dataclass(frozen=True)
class MetricsReport:
    """Per-fold, per-class and aggregate metrics for one method chain."""

    method_tag: str
    k: int
    fold_macro: np.ndarray  # (k, 6)
    fold_per_class: np.ndarray  # (k, n_classes, 6)
    mean: np.ndarray  # (6,)
    std: np.ndarray  # (6,) sample std over folds
    zeroed_folds: Tuple[Tuple[str, ...], ...] = ()

    def metric(self, name: str) -> Tuple[float, float]:
        i = METRIC_NAMES.index(name)
        return float(self.mean[i]), float(self.std[i])


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    method_tag: str,
    kernel: svm.KernelSpec,
    k: int = 10,
    seed: int = 0,
    n_classes: int = 3,
    tol: float = 1e-3,
    max_passes: int = 10,
    classifier: str = "svm",
    return_models: bool = False,
):
    """Stratified k-fold evaluation of one method chain's feature matrix.

    X holds one feature row per scan and y its class id.  Per fold the
    scaler and SVM see the training split only.  classifier "echo"
    replaces predictions with the true labels (reporting-path oracle).
    With return_models=True the per-fold fitted models come back alongside
    the report (echo mode yields None entries).
    """
    if k < 2:
        raise DataError("cross-validation needs k >= 2")
    plan = kfold_split(y, k, seed)

    fold_macro = np.zeros((k, len(METRIC_NAMES)))
    fold_per_class = np.zeros((k, n_classes, len(METRIC_NAMES)))
    zeroed_folds: List[Tuple[str, ...]] = []
    models = []
    for fold in range(k):
        test = plan.assignments == fold
        train = ~test
        try:
            if classifier == "echo":
                predictions = y[test]
                models.append(None)
            else:
                model = svm.train_multiclass(
                    X[train], y[train], kernel,
                    n_classes=n_classes, tol=tol, max_passes=max_passes,
                )
                predictions = np.asarray(svm.predict(model, X[test]))
                models.append(model)
        except Exception as exc:
            exc.args = (f"fold {fold}: {exc}",) + exc.args[1:]
            raise
        cm = confusion(y[test], predictions, n_classes)
        macro = macro_metrics(cm)
        fold_macro[fold] = macro.as_array()
        zeroed_folds.append(macro.zeroed)
        for cls, m in enumerate(per_class_metrics(cm)):
            fold_per_class[fold, cls] = m.as_array()

    report = MetricsReport(
        method_tag=method_tag,
        k=k,
        fold_macro=fold_macro,
        fold_per_class=fold_per_class,
        mean=fold_macro.mean(axis=0),
        std=fold_macro.std(axis=0, ddof=1),
        zeroed_folds=tuple(zeroed_folds),
    )
    if return_models:
        return report, models
    return report


def report_payload(report: MetricsReport) -> dict:
    """The JSON-ready summary of one chain that every report is rendered from."""

    def per_metric(values: np.ndarray) -> dict:
        return {n: values[..., i].tolist() for i, n in enumerate(METRIC_NAMES)}

    return {
        "method_tag": report.method_tag,
        "k": report.k,
        "mean": per_metric(report.mean),
        "std": per_metric(report.std),
        "folds": per_metric(report.fold_macro),
        "per_class_mean": per_metric(report.fold_per_class.mean(axis=0)),
        "zeroed_folds": [list(z) for z in report.zeroed_folds],
    }


def report_rows(payload: dict) -> List[List[str]]:
    """CSV rows: method, metric, mean, std, then per-fold values."""
    return [
        [payload["method_tag"], name, repr(payload["mean"][name]),
         repr(payload["std"][name])]
        + [repr(v) for v in payload["folds"][name]]
        for name in METRIC_NAMES
    ]


def format_table(block: Mapping[str, dict], methods: Sequence[str]) -> str:
    """Text table: one row per method chain, mean +/- std in percent.

    ``block`` maps method tags to :func:`report_payload` dicts.  Rows follow
    ``methods`` (entries missing from the block are skipped), then any other
    chain of the block in its own order.
    """
    order = [m for m in methods if m in block]
    order += [m for m in block if m not in order]
    header = ["Method"] + list(METRIC_NAMES)
    try:
        body = [
            [m + "+SVM"] + [
                f"{100 * float(block[m]['mean'][n]):.2f}±{100 * float(block[m]['std'][n]):.2f}"
                for n in METRIC_NAMES
            ]
            for m in order
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"summary payload lacks a usable mean or std: {exc!r}") from None
    widths = [
        max(len(row[i]) for row in [header] + body) for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for cells in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)
