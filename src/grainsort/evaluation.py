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
one-vs-rest views.  Cross-validation keeps each fold's confusion matrix;
every reported number (per-fold macro means, their mean and sample standard
deviation across folds) is derived from those matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from . import parallel, svm
from .errors import ConvergenceError, DataError, DimensionMismatchError
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


def class_metrics(cm) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """One-vs-rest metrics of every class of a K x K confusion matrix.

    Returns the (K, 6) array in METRIC_NAMES order and the sorted names of
    the metrics that some class set to 0 for a zero denominator.
    """
    cm = np.asarray(cm, dtype=np.int64)
    if cm.shape[0] < 2:
        raise DataError("scoring needs at least 2 classes")
    total = cm.sum()
    if total == 0:
        raise DataError("cannot score all-zero counts")
    tp = np.diag(cm)
    fn = cm.sum(axis=1) - tp
    fp = cm.sum(axis=0) - tp
    tn = total - tp - fn - fp
    num = np.stack([tp, tn, tp + tn, tp, 2 * tp, tp * tn - fp * fn], axis=1)
    mcc_den = np.sqrt((tp + fp).astype(float) * (tp + fn) * (tn + fp) * (tn + fn))
    den = np.stack(
        [tp + fn, tn + fp, np.full_like(tp, total), tp + fp, 2 * tp + fn + fp, mcc_den],
        axis=1,
    )
    values = np.divide(num, den, out=np.zeros(den.shape), where=den != 0)
    zeroed = tuple(sorted(n for n, z in zip(METRIC_NAMES, (den == 0).any(axis=0)) if z))
    return values, zeroed


def kfold_split(labels, k: int, seed: int) -> np.ndarray:
    """Fold id of every sample: per-class seeded shuffle, then round-robin
    into k >= 2 folds (radar.DatasetSpec checks a config's k)."""
    labels = np.asarray(labels, dtype=int).ravel()
    rng = stream_rng(seed, FOLD_STREAM)
    folds = np.full(labels.size, -1, dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise DataError(
                f"class {cls} has {idx.size} samples, fewer than k={k} folds"
            )
        rng.shuffle(idx)
        folds[idx] = np.arange(idx.size) % k
    return folds


@dataclass(frozen=True)
class MetricsReport:
    """One method chain's cross-validation: the confusion matrix of every fold.

    Every reported number is derived from ``confusions`` by :func:`report_payload`.
    """

    method_tag: str
    confusions: np.ndarray  # (k, n_classes, n_classes) int64

    @property
    def k(self) -> int:
        return len(self.confusions)


def cross_validate(X: np.ndarray, y: np.ndarray, method_tag: str, kernel: svm.KernelSpec,
                   **options) -> MetricsReport:
    """Stratified k-fold evaluation of one method chain's feature matrix at
    one kernel: :func:`cross_validate_chains` of one chain and one kernel,
    with its keyword options, whose ConvergenceError it raises."""
    (outcome,) = cross_validate_chains({method_tag: X}, y, [kernel], **options)[method_tag]
    if isinstance(outcome, ConvergenceError):
        raise outcome
    return outcome


def cross_validate_chains(
    chains: Mapping[str, np.ndarray], y: np.ndarray, kernels: Sequence[svm.KernelSpec],
    k: int, seed: int, solver: svm.SolverSpec = svm.SolverSpec(),
) -> Dict[str, List[Union[MetricsReport, ConvergenceError]]]:
    """Stratified k-fold evaluation of every chain's feature matrix at every kernel.

    chains maps method tags to feature matrices, one row per scan, and y
    holds each scan's class id, one of svm.CLASS_IDS.  Per fold the scaler
    and SVM see the training split only, and the fold's test split is scored
    into a confusion matrix.  Each (chain, fold) is one job of
    parallel.pmap, which trains that fold at every kernel.

    Returns, per chain, one entry per kernel: its MetricsReport, or the
    ConvergenceError of its first fold that ran out of updates.  Any other
    error is raised, from the first failing job in (chain, fold) order.
    """
    folds = kfold_split(y, k, seed)
    jobs = [(X, fold) for X in chains.values() for fold in range(k)]
    outcomes = parallel.pmap(functools.partial(_fold_confusions, y, folds, kernels, solver), jobs)
    results = {method_tag: [] for method_tag in chains}
    for c, method_tag in enumerate(chains):
        per_fold = outcomes[c * k:(c + 1) * k]
        for i in range(len(kernels)):
            stack = [outcome[i] for outcome in per_fold]
            errors = [e for e in stack if isinstance(e, ConvergenceError)]
            results[method_tag].append(
                errors[0] if errors else MetricsReport(method_tag, np.stack(stack)))
    return results


def _fold_confusions(y, folds, kernels, solver, job) -> list:
    """One (chain, fold) job: train on the other folds at every kernel and
    score this one, giving a confusion matrix or a ConvergenceError per kernel."""
    X, fold = job
    test, n_classes = folds == fold, len(svm.CLASS_IDS)
    try:
        models = svm.train_multiclass(X[~test], y[~test], kernels, solver=solver)
        return [_in_fold(model, fold) if isinstance(model, ConvergenceError)
                else confusion(y[test], svm.predict(model, X[test]), n_classes)
                for model in models]
    except Exception as exc:
        raise _in_fold(exc, fold)


def _in_fold(exc: Exception, fold: int) -> Exception:
    """exc, its message prefixed with the fold it came from."""
    exc.args = (f"fold {fold}: {exc}",) + exc.args[1:]
    return exc


def report_payload(report: MetricsReport) -> dict:
    """The JSON-ready summary of one chain that every report is rendered from.

    Per fold: the one-vs-rest metrics of every class and their macro mean;
    across folds: the mean and sample std (ddof=1) of the macro means, and
    the per-class means.
    """
    scored = [class_metrics(cm) for cm in report.confusions]
    per_class = np.stack([values for values, _ in scored])  # (k, n_classes, 6)
    macro = per_class.mean(axis=1)  # (k, 6)

    def per_metric(values: np.ndarray) -> dict:
        return {n: values[..., i].tolist() for i, n in enumerate(METRIC_NAMES)}

    return {
        "method_tag": report.method_tag,
        "k": report.k,
        "mean": per_metric(macro.mean(axis=0)),
        "std": per_metric(macro.std(axis=0, ddof=1)),
        "folds": per_metric(macro),
        "per_class_mean": per_metric(per_class.mean(axis=0)),
        "zeroed_folds": [list(zeroed) for _, zeroed in scored],
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
