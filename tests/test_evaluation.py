import json

import numpy as np
import pytest

from grainsort import ConvergenceError, DataError, DimensionMismatchError
from grainsort import evaluation as ev
from grainsort import features as ft
from grainsort import svm
from grainsort.radar import AScan, SurfaceClass


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


class TestOneVsRest:
    def test_perfect_three_class(self):
        cm = np.diag([10, 10, 10])
        counts = ev.one_vs_rest_counts(cm, 0)
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (10, 0, 0, 20)

    def test_row_identity(self):
        rng = np.random.default_rng(1)
        cm = rng.integers(0, 20, (3, 3))
        for c in range(3):
            counts = ev.one_vs_rest_counts(cm, c)
            assert counts.tp + counts.fn == cm[c].sum()
            assert counts.total == cm.sum()

    def test_matches_per_sample_binarised_recount(self):
        rng = np.random.default_rng(2)
        y_true = rng.integers(0, 3, 500)
        y_pred = rng.integers(0, 3, 500)
        cm = ev.confusion(y_true, y_pred, 3)
        for c in range(3):
            counts = ev.one_vs_rest_counts(cm, c)
            tp = int(np.sum((y_true == c) & (y_pred == c)))
            fn = int(np.sum((y_true == c) & (y_pred != c)))
            fp = int(np.sum((y_true != c) & (y_pred == c)))
            tn = int(np.sum((y_true != c) & (y_pred != c)))
            assert (counts.tp, counts.fn, counts.fp, counts.tn) == (tp, fn, fp, tn)

    def test_trace_and_support_sums(self):
        rng = np.random.default_rng(3)
        cm = rng.integers(0, 30, (4, 4))
        per = [ev.one_vs_rest_counts(cm, c) for c in range(4)]
        assert sum(c.tp for c in per) == np.trace(cm)
        assert sum(c.tp + c.fn for c in per) == cm.sum()


class TestMetrics:
    def test_perfect_classifier(self):
        m = ev.metrics(ev.ConfusionCounts(tp=10, tn=20, fp=0, fn=0))
        assert m.as_array().tolist() == [1.0] * 6
        assert m.zeroed == ()

    def test_worked_tuple(self):
        m = ev.metrics(ev.ConfusionCounts(tp=40, tn=45, fp=5, fn=10))
        assert m.acc == pytest.approx(0.85, abs=5e-5)
        assert m.sen == pytest.approx(0.8, abs=5e-5)
        assert m.spe == pytest.approx(0.9, abs=5e-5)
        assert m.pre == pytest.approx(0.8889, abs=5e-5)
        assert m.f1 == pytest.approx(0.8421, abs=5e-5)
        assert m.mcc == pytest.approx(0.7035, abs=5e-5)

    def test_all_wrong_tuple_hits_minus_one(self):
        m = ev.metrics(ev.ConfusionCounts(tp=0, tn=0, fp=5, fn=5))
        assert m.acc == 0.0
        assert m.mcc == -1.0

    def test_zero_denominator_convention(self):
        m = ev.metrics(ev.ConfusionCounts(tp=0, tn=5, fp=0, fn=0))
        assert m.sen == 0.0 and m.pre == 0.0 and m.f1 == 0.0 and m.mcc == 0.0
        assert "SEN" in m.zeroed and "PRE" in m.zeroed and "MCC" in m.zeroed

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            ev.metrics(ev.ConfusionCounts(0, 0, 0, 0))

    def test_f1_harmonic_identity_and_mcc_range(self):
        rng = np.random.default_rng(4)
        tuples = [tuple(int(v) for v in rng.integers(0, 40, 4)) for _ in range(1000)]
        tuples += [(5, 7, 0, 0), (1, 1, 0, 0), (0, 0, 3, 4)]  # exact-MCC corners
        for tp, tn, fp, fn in tuples:
            if tp + tn + fp + fn == 0:
                continue
            m = ev.metrics(ev.ConfusionCounts(tp, tn, fp, fn))
            if m.pre > 0 and m.sen > 0:
                harmonic = 2 * m.pre * m.sen / (m.pre + m.sen)
                assert m.f1 == pytest.approx(harmonic, rel=1e-12)
            assert -1.0 - 1e-12 <= m.mcc <= 1.0 + 1e-12
            if fp == 0 and fn == 0 and tp > 0 and tn > 0:
                assert m.mcc == pytest.approx(1.0, abs=1e-12)
            elif m.mcc >= 1.0 - 1e-12:
                raise AssertionError(f"MCC hit 1 off the FP=FN=0 corner: {(tp, tn, fp, fn)}")


class TestMacro:
    def test_perfect(self):
        m = ev.macro_metrics(np.diag([5, 6, 7]))
        assert np.allclose(m.as_array(), 1.0)

    def test_symmetric_balanced_macro_equals_micro(self):
        cm = np.array([[8, 1, 1], [1, 8, 1], [1, 1, 8]])
        macro = ev.macro_metrics(cm)
        pooled = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
        for c in range(3):
            counts = ev.one_vs_rest_counts(cm, c)
            pooled["tp"] += counts.tp
            pooled["tn"] += counts.tn
            pooled["fp"] += counts.fp
            pooled["fn"] += counts.fn
        micro = ev.metrics(ev.ConfusionCounts(**pooled))
        assert np.allclose(macro.as_array(), micro.as_array(), atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            ev.macro_metrics(np.array([[5]]))


class TestKFold:
    def test_three_by_three_enumeration(self):
        labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        plan = ev.kfold_split(labels, 3, seed=5)
        labels = np.asarray(labels)
        for fold in range(3):
            fold_labels = sorted(labels[plan.assignments == fold].tolist())
            assert fold_labels == [0, 1, 2]

    def test_partition_property(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, 57)
        plan = ev.kfold_split(labels, 4, seed=1)
        assert plan.assignments.min() >= 0 and plan.assignments.max() < 4
        assert plan.assignments.size == 57
        for cls in range(3):
            sizes = [
                int(np.sum((plan.assignments == f) & (labels == cls)))
                for f in range(4)
            ]
            assert max(sizes) - min(sizes) <= 1

    def test_class_smaller_than_k(self):
        with pytest.raises(DataError):
            ev.kfold_split([0, 0, 0, 1], 3, seed=0)

    def test_single_class_of_k_gives_singleton_folds(self):
        plan = ev.kfold_split([0] * 10, 10, seed=0)
        sizes = [int(np.sum(plan.assignments == f)) for f in range(10)]
        assert sizes == [1] * 10

    def test_deterministic(self):
        labels = np.random.default_rng(7).integers(0, 3, 40)
        a = ev.kfold_split(labels, 5, seed=3)
        b = ev.kfold_split(labels, 5, seed=3)
        c = ev.kfold_split(labels, 5, seed=4)
        assert np.array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)


def _noise_ascans(n_per_class=8, n_freq=301, seed=0):
    rng = np.random.default_rng(seed)
    ascans = []
    for cls in SurfaceClass:
        for _ in range(n_per_class):
            samples = rng.standard_normal(n_freq) + 1j * rng.standard_normal(n_freq)
            ascans.append(AScan(samples, cls))
    return ascans


class TestCrossValidate:
    def test_echo_classifier_scores_ones(self):
        X, y = ft.extract_matrix(_noise_ascans(), "FOS")
        report = ev.cross_validate(
            X, y, "FOS", svm.KernelSpec(kind="rbf", c=10.0),
            k=4, seed=0, classifier="echo",
        )
        assert np.allclose(report.fold_macro, 1.0)
        assert np.allclose(report.mean, 1.0)
        assert np.allclose(report.std, 0.0)

    def test_deterministic_reports(self, tiny_ascans, tiny_config):
        kernel = svm.KernelSpec(kind="rbf", c=10.0)
        X, y = ft.extract_matrix(tiny_ascans, "FOS")
        a = ev.cross_validate(X, y, "FOS", kernel, k=3, seed=11, max_passes=50)
        b = ev.cross_validate(X, y, "FOS", kernel, k=3, seed=11, max_passes=50)
        assert np.array_equal(a.fold_macro, b.fold_macro)
        assert np.array_equal(a.mean, b.mean)

    def test_no_leakage_from_test_fold(self, tiny_ascans):
        kernel = svm.KernelSpec(kind="rbf", c=10.0)
        X, y = ft.extract_matrix(tiny_ascans, "FOS")
        report_a, models_a = ev.cross_validate(
            X, y, "FOS", kernel, k=3, seed=2, max_passes=50, return_models=True
        )
        # perturb one feature row heavily; only the fold holding it as a test
        # sample must keep an identical model
        plan = ev.kfold_split(y, 3, 2)
        victim = 4
        fold_of_victim = int(plan.assignments[victim])
        mutated = X.copy()
        mutated[victim] = X[victim] * 25.0 + 3.0
        report_b, models_b = ev.cross_validate(
            mutated, y, "FOS", kernel, k=3, seed=2, max_passes=50, return_models=True
        )
        doc_a = json.dumps(svm.model_to_dict(models_a[fold_of_victim]), sort_keys=True)
        doc_b = json.dumps(svm.model_to_dict(models_b[fold_of_victim]), sort_keys=True)
        assert doc_a == doc_b
        other = (fold_of_victim + 1) % 3
        doc_a2 = json.dumps(svm.model_to_dict(models_a[other]), sort_keys=True)
        doc_b2 = json.dumps(svm.model_to_dict(models_b[other]), sort_keys=True)
        assert doc_a2 != doc_b2

    def test_training_errors_name_the_fold(self):
        # noise features, wide kernel, huge C: needs far more than n updates
        X, y = ft.extract_matrix(_noise_ascans(n_per_class=30), "FOS")
        with pytest.raises(ConvergenceError, match=r"fold \d"):
            ev.cross_validate(
                X, y, "FOS",
                svm.KernelSpec(kind="rbf", c=1000.0, gamma=0.01),
                k=2, seed=0, max_passes=1,
            )

    def test_report_rows_shape(self, tiny_ascans):
        X, y = ft.extract_matrix(tiny_ascans, "FOS")
        report = ev.cross_validate(
            X, y, "FOS", svm.KernelSpec(kind="rbf", c=10.0),
            k=3, seed=0, classifier="echo",
        )
        payload = ev.report_payload(report)
        rows = ev.report_rows(payload)
        assert len(rows) == 6
        assert all(len(row) == 4 + 3 for row in rows)
        table = ev.format_table({"FOS": payload}, ["FOS"])
        assert "FOS+SVM" in table and "100.00±0.00" in table
