import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grainsort import evaluation as ev
from grainsort import features as ft
from grainsort import svm
from grainsort.errors import ConvergenceError, DataError, DimensionMismatchError
from grainsort.radar import SurfaceClass
from oracles import scan_array

SOLVER = svm.SolverSpec(max_passes=50)


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        y = np.array([0, 1, 2, 1, 0, 2, 2])
        cm = ev.confusion(y, y, 3)
        assert np.array_equal(np.diag(cm), [2, 2, 3])
        assert cm.sum() == 7 and np.trace(cm) == 7

    def test_single_off_diagonal_entry(self):
        cm = ev.confusion([0], [2], 3)
        expected = np.zeros((3, 3), dtype=int)
        expected[0, 2] = 1
        assert np.array_equal(cm, expected)

    def test_total_matches_direct_count(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            y_true = rng.integers(0, 4, n)
            y_pred = rng.integers(0, 4, n)
            cm = ev.confusion(y_true, y_pred, 4)
            assert cm.sum() == n
            # spot-check one random cell against a direct scan
            i, j = rng.integers(0, 4, 2)
            direct = int(np.sum((y_true == i) & (y_pred == j)))
            assert cm[i, j] == direct

    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            ev.confusion([0, 1], [0], 3)
        with pytest.raises(DataError):
            ev.confusion([0, 3], [0, 1], 3)


def _scalar_metrics(tp, tn, fp, fn):
    """The six formulas of one one-vs-rest view, 0 for a zero denominator,
    and the names of the metrics so zeroed."""
    mcc_den = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    ratios = {
        "SEN": (tp, tp + fn),
        "SPE": (tn, tn + fp),
        "ACC": (tp + tn, tp + tn + fp + fn),
        "PRE": (tp, tp + fp),
        "F1": (2 * tp, 2 * tp + fn + fp),
        "MCC": (tp * tn - fp * fn, mcc_den),
    }
    values = [num / den if den else 0.0 for num, den in map(ratios.get, ev.METRIC_NAMES)]
    return values, {n for n in ev.METRIC_NAMES if not ratios[n][1]}


def _binarised_counts(y_true, y_pred, c):
    """(tp, tn, fp, fn) of class c, recounted sample by sample."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    return (
        int(np.sum((y_true == c) & (y_pred == c))),
        int(np.sum((y_true != c) & (y_pred != c))),
        int(np.sum((y_true != c) & (y_pred == c))),
        int(np.sum((y_true == c) & (y_pred != c))),
    )


def _binary(tp, tn, fp, fn):
    """Metrics of a (tp, tn, fp, fn) tuple by name: row 0 of its 2 x 2 matrix."""
    values, zeroed = ev.class_metrics([[tp, fn], [fp, tn]])
    return dict(zip(ev.METRIC_NAMES, values[0])), zeroed


class TestOneVsRest:
    def test_perfect_three_class(self):
        values, _ = ev.class_metrics(np.diag([10, 10, 10]))
        assert values[0].tolist() == _scalar_metrics(tp=10, tn=20, fp=0, fn=0)[0]

    def test_row_identity(self):
        rng = np.random.default_rng(1)
        cm = rng.integers(0, 20, (3, 3))
        values, _ = ev.class_metrics(cm)
        for c in range(3):
            # SEN divides by the row sum, ACC by the whole matrix
            assert values[c, 0] == cm[c, c] / cm[c].sum()
            tn = cm.sum() - cm[c].sum() - cm[:, c].sum() + cm[c, c]
            assert values[c, 2] == (cm[c, c] + tn) / cm.sum()

    def test_matches_per_sample_binarised_recount(self):
        rng = np.random.default_rng(2)
        y_true = rng.integers(0, 3, 500)
        y_pred = rng.integers(0, 3, 500)
        values, _ = ev.class_metrics(ev.confusion(y_true, y_pred, 3))
        for c in range(3):
            expected, _ = _scalar_metrics(*_binarised_counts(y_true, y_pred, c))
            assert values[c].tolist() == expected

    def test_trace_and_support_sums(self):
        rng = np.random.default_rng(3)
        cm = rng.integers(0, 30, (4, 4))
        values, _ = ev.class_metrics(cm)
        # SEN times the row sum recovers TP; each off-diagonal count is one
        # FN and one FP, so 1 - ACC sums to twice the error share
        assert np.rint(values[:, 0] * cm.sum(axis=1)).sum() == np.trace(cm)
        assert np.rint((1 - values[:, 2]).sum() * cm.sum()) == 2 * (cm.sum() - np.trace(cm))


class TestClassMetrics:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_equals_scalar_formulas_on_binarised_recounts(self, data):
        k = data.draw(st.integers(2, 4))
        labels = st.lists(st.integers(0, k - 1), min_size=1, max_size=60)
        y_true = data.draw(labels)
        y_pred = data.draw(
            st.lists(st.integers(0, k - 1), min_size=len(y_true), max_size=len(y_true))
        )
        values, zeroed = ev.class_metrics(ev.confusion(y_true, y_pred, k))
        assert values.shape == (k, len(ev.METRIC_NAMES))
        expected_zeroed = set()
        for c in range(k):
            expected, names = _scalar_metrics(*_binarised_counts(y_true, y_pred, c))
            assert values[c].tolist() == expected
            expected_zeroed |= names
        assert zeroed == tuple(sorted(expected_zeroed))


class TestMetrics:
    def test_perfect_classifier(self):
        m, zeroed = _binary(tp=10, tn=20, fp=0, fn=0)
        assert list(m.values()) == [1.0] * 6
        assert zeroed == ()

    def test_worked_tuple(self):
        m, _ = _binary(tp=40, tn=45, fp=5, fn=10)
        assert m["ACC"] == pytest.approx(0.85, abs=5e-5)
        assert m["SEN"] == pytest.approx(0.8, abs=5e-5)
        assert m["SPE"] == pytest.approx(0.9, abs=5e-5)
        assert m["PRE"] == pytest.approx(0.8889, abs=5e-5)
        assert m["F1"] == pytest.approx(0.8421, abs=5e-5)
        assert m["MCC"] == pytest.approx(0.7035, abs=5e-5)

    def test_all_wrong_tuple_hits_minus_one(self):
        m, _ = _binary(tp=0, tn=0, fp=5, fn=5)
        assert m["ACC"] == 0.0
        assert m["MCC"] == -1.0

    def test_zero_denominator_convention(self):
        m, zeroed = _binary(tp=0, tn=5, fp=0, fn=0)
        assert m["SEN"] == 0.0 and m["PRE"] == 0.0 and m["F1"] == 0.0 and m["MCC"] == 0.0
        assert "SEN" in zeroed and "PRE" in zeroed and "MCC" in zeroed

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            ev.class_metrics([[0, 0], [0, 0]])

    def test_f1_harmonic_identity_and_mcc_range(self):
        rng = np.random.default_rng(4)
        tuples = [tuple(int(v) for v in rng.integers(0, 40, 4)) for _ in range(1000)]
        tuples += [(5, 7, 0, 0), (1, 1, 0, 0), (0, 0, 3, 4)]  # exact-MCC corners
        for tp, tn, fp, fn in tuples:
            if tp + tn + fp + fn == 0:
                continue
            m, _ = _binary(tp, tn, fp, fn)
            if m["PRE"] > 0 and m["SEN"] > 0:
                harmonic = 2 * m["PRE"] * m["SEN"] / (m["PRE"] + m["SEN"])
                assert m["F1"] == pytest.approx(harmonic, rel=1e-12)
            assert -1.0 - 1e-12 <= m["MCC"] <= 1.0 + 1e-12
            if fp == 0 and fn == 0 and tp > 0 and tn > 0:
                assert m["MCC"] == pytest.approx(1.0, abs=1e-12)
            elif m["MCC"] >= 1.0 - 1e-12:
                raise AssertionError(f"MCC hit 1 off the FP=FN=0 corner: {(tp, tn, fp, fn)}")


class TestMacro:
    def test_perfect(self):
        values, _ = ev.class_metrics(np.diag([5, 6, 7]))
        assert np.allclose(values.mean(axis=0), 1.0)

    def test_symmetric_balanced_macro_equals_micro(self):
        cm = np.array([[8, 1, 1], [1, 8, 1], [1, 1, 8]])
        values, _ = ev.class_metrics(cm)
        # pooled one-vs-rest counts: each off-diagonal count is one FN and one FP
        tp = int(np.trace(cm))
        fn = fp = int(cm.sum()) - tp
        tn = 3 * int(cm.sum()) - tp - fn - fp
        micro, _ = _binary(tp, tn, fp, fn)
        assert np.allclose(values.mean(axis=0), list(micro.values()), atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            ev.class_metrics(np.array([[5]]))


class TestKFold:
    def test_three_by_three_enumeration(self):
        labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        folds = ev.kfold_split(labels, 3, seed=5)
        labels = np.asarray(labels)
        for fold in range(3):
            fold_labels = sorted(labels[folds == fold].tolist())
            assert fold_labels == [0, 1, 2]

    def test_partition_property(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, 57)
        folds = ev.kfold_split(labels, 4, seed=1)
        assert folds.min() >= 0 and folds.max() < 4
        assert folds.size == 57
        for cls in range(3):
            sizes = [int(np.sum((folds == f) & (labels == cls))) for f in range(4)]
            assert max(sizes) - min(sizes) <= 1

    def test_class_smaller_than_k(self):
        with pytest.raises(DataError):
            ev.kfold_split([0, 0, 0, 1], 3, seed=0)

    def test_single_class_of_k_gives_singleton_folds(self):
        folds = ev.kfold_split([0] * 10, 10, seed=0)
        sizes = [int(np.sum(folds == f)) for f in range(10)]
        assert sizes == [1] * 10

    def test_deterministic(self):
        labels = np.random.default_rng(7).integers(0, 3, 40)
        a = ev.kfold_split(labels, 5, seed=3)
        b = ev.kfold_split(labels, 5, seed=3)
        c = ev.kfold_split(labels, 5, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def _noise_scans(n_per_class=8, n_freq=301, seed=0):
    rng = np.random.default_rng(seed)
    samples = [rng.standard_normal(n_freq) + 1j * rng.standard_normal(n_freq)
               for _ in range(n_per_class * len(SurfaceClass))]
    return scan_array(samples, np.repeat(list(SurfaceClass), n_per_class))


class TestCrossValidate:
    def test_deterministic_reports(self, tiny_scans, tiny_config):
        kernel = svm.KernelSpec(kind="rbf", c=10.0)
        X, y = ft.extract_matrix(tiny_scans, "FOS")
        a = ev.cross_validate(X, y, "FOS", kernel, k=3, seed=11, solver=SOLVER)
        b = ev.cross_validate(X, y, "FOS", kernel, k=3, seed=11, solver=SOLVER)
        assert np.array_equal(a.confusions, b.confusions)
        assert ev.report_payload(a) == ev.report_payload(b)

    def test_no_leakage_from_test_fold(self, tiny_scans):
        kernel = svm.KernelSpec(kind="rbf", c=10.0)
        X, y = ft.extract_matrix(tiny_scans, "FOS")
        folds = ev.kfold_split(y, 3, 2)

        def fold_model(features, fold):
            train = folds != fold
            (model,) = svm.train_multiclass(features[train], y[train], [kernel], solver=SOLVER)
            return model

        # cross_validate scores each fold with the model of its training split
        report = ev.cross_validate(X, y, "FOS", kernel, k=3, seed=2, solver=SOLVER)
        for fold in range(3):
            test = folds == fold
            predictions = svm.predict(fold_model(X, fold), X[test])
            assert np.array_equal(report.confusions[fold], ev.confusion(y[test], predictions, 3))

        # perturb one feature row heavily; only the fold holding it as a test
        # sample must keep an identical model
        victim = 4
        fold_of_victim = int(folds[victim])
        mutated = X.copy()
        mutated[victim] = X[victim] * 25.0 + 3.0

        def model_doc(features, fold):
            return json.dumps(svm.model_to_dict(fold_model(features, fold)), sort_keys=True)

        assert model_doc(X, fold_of_victim) == model_doc(mutated, fold_of_victim)
        other = (fold_of_victim + 1) % 3
        assert model_doc(X, other) != model_doc(mutated, other)

    def test_training_errors_name_the_fold(self):
        # noise features, wide kernel, huge C: needs far more than n updates
        X, y = ft.extract_matrix(_noise_scans(n_per_class=30), "FOS")
        with pytest.raises(ConvergenceError, match=r"fold \d"):
            ev.cross_validate(
                X, y, "FOS",
                svm.KernelSpec(kind="rbf", c=1000.0, gamma=0.01),
                k=2, seed=0, solver=svm.SolverSpec(max_passes=1),
            )

    def test_report_rows_shape(self, tiny_scans):
        X, y = ft.extract_matrix(tiny_scans, "FOS")
        report = ev.cross_validate(
            X, y, "FOS", svm.KernelSpec(kind="rbf", c=10.0), k=3, seed=0, solver=SOLVER)
        payload = ev.report_payload(report)
        rows = ev.report_rows(payload)
        assert len(rows) == 6
        assert all(len(row) == 4 + 3 for row in rows)
        assert "FOS+SVM" in ev.format_table({"FOS": payload}, ["FOS"])


class TestReportPayload:
    def test_diagonal_stack_scores_ones(self):
        # every test scan of every fold classified right, class counts unequal
        confusions = np.stack([np.diag(n) for n in ([3, 4, 2], [1, 5, 3], [2, 2, 2], [4, 1, 1])])
        payload = ev.report_payload(ev.MetricsReport("FOS", confusions))
        assert payload["zeroed_folds"] == [[]] * 4
        for name in ev.METRIC_NAMES:
            assert payload["folds"][name] == [1.0] * 4
            assert payload["mean"][name] == 1.0
            assert payload["std"][name] == 0.0
            assert payload["per_class_mean"][name] == [1.0] * 3
        row = ev.format_table({"FOS": payload}, ["FOS"]).splitlines()[2]
        assert row.split() == ["FOS+SVM"] + ["100.00±0.00"] * 6

    def test_hand_built_stack_with_a_fold_that_never_predicts_class_2(self):
        confusions = np.array([
            [[2, 0, 0], [0, 2, 0], [0, 0, 2]],  # perfect
            [[2, 0, 0], [0, 1, 1], [0, 1, 1]],  # classes 1 and 2 swap once
            [[2, 0, 0], [0, 2, 0], [1, 1, 0]],  # column 2 empty: nothing predicted 2
        ])
        # one-vs-rest SEN, SPE, ACC, PRE, F1, MCC of each class, worked by hand
        ones = [1.0] * 6
        swapped = [1 / 2, 3 / 4, 2 / 3, 1 / 2, 1 / 2, 1 / 4]  # TP 1, FN 1, FP 1, TN 3
        over = [1.0, 3 / 4, 5 / 6, 2 / 3, 4 / 5, 1 / math.sqrt(2)]  # TP 2, FN 0, FP 1, TN 3
        never = [0.0, 1.0, 2 / 3, 0.0, 0.0, 0.0]  # TP 0, FN 2, FP 0, TN 4
        per_class = [[ones, ones, ones], [ones, swapped, swapped], [over, over, never]]

        payload = ev.report_payload(ev.MetricsReport("FOS", confusions))

        assert payload["method_tag"] == "FOS" and payload["k"] == 3
        assert payload["zeroed_folds"] == [[], [], ["MCC", "PRE"]]
        for i, name in enumerate(ev.METRIC_NAMES):
            folds = [statistics.fmean(cls[i] for cls in fold) for fold in per_class]
            assert payload["folds"][name] == pytest.approx(folds, rel=1e-12)
            assert payload["mean"][name] == pytest.approx(statistics.fmean(folds), rel=1e-12)
            assert payload["std"][name] == pytest.approx(statistics.stdev(folds), rel=1e-12)
            assert payload["per_class_mean"][name] == pytest.approx(
                [statistics.fmean(fold[c][i] for fold in per_class) for c in range(3)],
                rel=1e-12,
            )
        # the worked macro values of the two imperfect folds
        assert payload["folds"]["ACC"] == pytest.approx([1.0, 7 / 9, 7 / 9], rel=1e-12)
        assert payload["folds"]["PRE"] == pytest.approx([1.0, 2 / 3, 4 / 9], rel=1e-12)
        assert payload["folds"]["MCC"] == pytest.approx(
            [1.0, 1 / 2, math.sqrt(2) / 3], rel=1e-12
        )
