import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grainsort import svm
from grainsort.errors import (
    ConvergenceError,
    DegenerateTrainingError,
    DimensionMismatchError,
    InvalidParameterError,
)
from oracles import (
    qp_decision_values, qp_dual_oracle, seed_kernel_matrix, seed_smo, wss2_smo,
)


def _blobs(seed=0, n_per=30, centres=((0, 0), (5, 0), (0, 5)), sigma=0.5):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(c, sigma, (n_per, 2)) for c in centres])
    y = np.repeat(np.arange(len(centres)), n_per)
    return X, y


def _fit(X, labels, kernel, **kwargs):
    """train_multiclass at one kernel: its model, or its ConvergenceError raised."""
    (model,) = svm.train_multiclass(X, labels, [kernel], **kwargs)
    if isinstance(model, ConvergenceError):
        raise model
    return model


def _kkt_violation(model, X, y, kernel):
    """Independent KKT residual: rebuild the full dual vector from the model."""
    n = y.size
    alpha = np.zeros(n)
    alpha[model.sv_indices] = np.abs(model.dual_coef)
    gram = svm.kernel_matrix(kernel, X)
    f_vals = gram @ (alpha * y)
    errors = f_vals - y
    eps = 1e-9
    up = ((y > 0) & (alpha < kernel.c - eps)) | ((y < 0) & (alpha > eps))
    low = ((y < 0) & (alpha < kernel.c - eps)) | ((y > 0) & (alpha > eps))
    if not up.any() or not low.any():
        return 0.0
    return float(errors[low].max() - errors[up].min())


class TestStandardize:
    def test_two_row_hand_case(self):
        scaler = svm.standardize_fit(np.array([[0.0], [2.0]]))
        assert scaler.mean[0] == 1.0
        assert scaler.std[0] == 1.0  # population std

    def test_constant_column_floored(self):
        X = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
        scaler = svm.standardize_fit(X)
        assert scaler.std[0] == 1e-12
        transformed = scaler.transform(X)
        assert np.all(transformed[:, 0] == 0.0)

    def test_transformed_training_matrix_centred(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, (40, 6))
        transformed = svm.standardize_fit(X).transform(X)
        assert np.max(np.abs(transformed.mean(axis=0))) < 1e-9

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            svm.standardize_fit(np.ones((1, 3)))


class TestSolverSpec:
    def test_defaults(self):
        assert svm.SolverSpec() == svm.SolverSpec(tol=1e-3, max_passes=10)

    @pytest.mark.parametrize("change, field", [
        (dict(tol=0.0), ("tol",)),
        (dict(tol=-1e-3), ("tol",)),
        (dict(tol=float("nan")), ("tol",)),
        (dict(max_passes=0), ("max_passes",)),
    ])
    def test_bad_field_raises_naming_it(self, change, field):
        with pytest.raises(InvalidParameterError) as raised:
            svm.SolverSpec(**change)
        assert raised.value.field == field


class TestBinaryTraining:
    def test_symmetric_pair(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = svm.train_binary(X, y, svm.KernelSpec(kind="linear", c=1.0), debug=True)
        assert svm.decision(model, np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-9)
        assert np.sign(svm.decision(model, np.array([[0.5]]))[0]) == 1.0

    def test_xor_with_rbf(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        model = svm.train_binary(
            X, y, svm.KernelSpec(kind="rbf", c=100.0, gamma=1.0), debug=True
        )
        scores = svm.decision(model, X)
        assert np.all(np.sign(scores) == y)

    def test_matches_qp_oracle_on_random_problems(self):
        rng = np.random.default_rng(42)
        for trial in range(15):
            n = int(rng.integers(4, 21))
            X = rng.standard_normal((n, 3))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            if np.unique(y).size < 2:
                y[0] = -y[0]
            kind = "rbf" if trial % 2 == 0 else "linear"
            gamma = 0.7 if kind == "rbf" else None
            kernel = svm.KernelSpec(kind=kind, c=5.0, gamma=gamma)
            model = svm.train_binary(X, y, kernel, solver=svm.SolverSpec(1e-4, 400), debug=True)
            gram = svm.kernel_matrix(kernel, X)
            alpha_ref, best = qp_dual_oracle(gram, y, 5.0, iters=30000)
            assert abs(model.diagnostics.dual_objective - best) <= 1e-3, trial
            scores = svm.decision(model, X)
            ref_scores = qp_decision_values(alpha_ref, gram, y, 5.0)
            confident = (np.abs(scores) > 1e-3) & (np.abs(ref_scores) > 1e-3)
            assert np.all(np.sign(scores[confident]) == np.sign(ref_scores[confident])), trial

    def test_kkt_residual_and_dual_feasibility(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(10, 40))
            X = rng.standard_normal((n, 4))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            if np.unique(y).size < 2:
                y[0] = -y[0]
            kernel = svm.KernelSpec(kind="rbf", c=3.0, gamma=0.5)
            model = svm.train_binary(X, y, kernel, solver=svm.SolverSpec(1e-3, 400))
            assert model.diagnostics.final_violation <= 1e-3
            assert _kkt_violation(model, X, y, kernel) <= 1e-3 + 1e-9
            alphas = np.abs(model.dual_coef)
            assert np.all(alphas >= 0) and np.all(alphas <= 3.0 + 1e-12)
            assert abs(model.dual_coef.sum()) <= 1e-6

    def test_dual_objective_monotone_in_debug_mode(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 3))
        y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
        y[0] = -y[1]
        model = svm.train_binary(
            X, y, svm.KernelSpec(kind="rbf", c=2.0, gamma=0.3), debug=True
        )
        trace = model.diagnostics.objective_trace
        assert len(trace) == model.diagnostics.n_updates
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        # the trace reads the current iterate: its last entry is the final objective
        assert trace[-1] == model.diagnostics.dual_objective > 0.0

    @pytest.mark.parametrize("given", ["gram", "curvature"])
    def test_prebuilt_matrix_of_wrong_shape_rejected(self, given):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, -1.0, 1.0])
        kernel = svm.KernelSpec(kind="rbf", c=1.0, gamma=0.5)
        wrong = np.ones((2, 2)) if given == "gram" else svm.CurvatureRows(np.ones((2, 2)))
        with pytest.raises(DimensionMismatchError, match=f"(?i){given} matrix of shape"):
            svm.train_binary(X, y, kernel, **{given: wrong})

    def test_second_order_selection_takes_fewer_updates_than_first_order(self):
        """On a fixed 540-row RBF problem the trainer makes fewer updates
        than the first-order loop, so a fall back to first-order selection
        fails here."""
        rng = np.random.default_rng(29)
        X = rng.standard_normal((540, 8))
        y = np.where(X[:, 0] + X[:, 1] ** 2 - 1.0 + 0.5 * rng.standard_normal(540) > 0,
                     1.0, -1.0)
        kernel = svm.resolve_gamma(svm.KernelSpec(kind="rbf", c=10.0), X)
        first_order = seed_smo(seed_kernel_matrix(kernel, X), y, kernel.c, 1e-3, 10)
        model = svm.train_binary(X, y, kernel)
        assert first_order["converged"]
        assert model.diagnostics.n_updates < first_order["n_updates"]

    def test_single_class_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(DegenerateTrainingError):
            svm.train_binary(X, np.ones(4), svm.KernelSpec(kind="linear", c=1.0))

    def test_convergence_error_carries_best_iterate(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((60, 2))
        y = np.where(rng.random(60) < 0.5, -1.0, 1.0)  # unlearnable labels
        y[0] = -y[1]
        with pytest.raises(ConvergenceError) as excinfo:
            svm.train_binary(
                X, y, svm.KernelSpec(kind="rbf", c=100.0, gamma=5.0),
                solver=svm.SolverSpec(max_passes=1),
            )
        partial = excinfo.value.model
        assert partial is not None
        scores = svm.decision(partial, X)
        assert np.all(np.isfinite(scores))
        # a fold's error reaches the caller from a worker process as a pickle
        copy = pickle.loads(pickle.dumps(excinfo.value))
        assert str(copy) == str(excinfo.value)
        assert copy.model.diagnostics == partial.diagnostics
        assert np.array_equal(svm.decision(copy.model, X), scores)


@pytest.mark.parametrize("kind", ["linear", "rbf"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "n", [1, 2, 17, 540] + [svm._BLOCK_ROWS + k for k in (-1, 0, 1, svm._BLOCK_ROWS + 1)])
def test_gram_matrix_exactly_symmetric(kind, order, n):
    """train_binary reads rows K[i] in place of columns K[:, i]."""
    rng = np.random.default_rng(n)
    for d in (1, 3, 8, 30):
        X = np.asarray(rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0), order=order)
        kernel = svm.resolve_gamma(svm.KernelSpec(kind=kind), X)
        K = svm.kernel_matrix(kernel, X)
        assert np.array_equal(K, K.T)


@pytest.mark.parametrize("kind", ["linear", "rbf"])
@pytest.mark.parametrize("in_buffer", [False, True])
@pytest.mark.parametrize(
    "n, m",
    [
        (1, None),  # n = 1
        (1, 5),
        (100, None),  # one block, shorter than _BLOCK_ROWS
        (37, 250),
        (540, None),  # five blocks, the last one short
        (3, 16389),  # wide B
    ],
)
def test_gram_matrix_matches_seed_expression(kind, in_buffer, n, m):
    """kernel_matrix, into a fresh array or a view of a larger NaN-filled
    buffer, equals the original whole-array expression: the linear kernel
    bit for bit, the RBF kernel within the rounding of the two ways of
    summing each squared distance.

    Both sum |a|^2 + |b|^2 - 2 a.b over d + 2 terms whose magnitudes add up
    to at most 2 (|a|^2 + |b|^2) (2 |a_k b_k| <= a_k^2 + b_k^2), so each is
    within (d + 2) eps (|a|^2 + |b|^2) of the exact value, and within
    2 (d + 2) eps (|a|^2 + |b|^2) with the rounding of the norms; the two
    are within 4 (d + 2) eps (|a|^2 + |b|^2) of each other.  exp(-gamma s)
    moves by at most gamma times that (exp(-x) is 1-Lipschitz on x >= 0, as
    is the clamp at 0), and scaling by gamma and exp itself each add at most
    an eps or two on either side.
    """
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, 6)) * 2.0
    B = None if m is None else rng.standard_normal((m, 6))
    kernel = svm.KernelSpec(kind=kind, gamma=0.3)
    expected = seed_kernel_matrix(kernel, A, B)
    out = None
    if in_buffer:
        out = np.full(expected.size + 11, np.nan)[: expected.size].reshape(expected.shape)
    K = svm.kernel_matrix(kernel, A, B, out=out)
    if kind == "linear":
        assert np.array_equal(K, expected)
    else:
        eps = np.finfo(float).eps
        norms = np.sum(A**2, axis=1)[:, None] + np.sum((A if B is None else B) ** 2, axis=1)
        bound = 4 * (A.shape[1] + 2) * eps * kernel.gamma * norms + 4 * eps
        assert np.all(np.abs(K - expected) <= bound)
    if in_buffer:
        assert K is out


@pytest.mark.parametrize("wide_b", [False, True])
def test_rbf_gram_at_a_huge_gamma_is_finite_in_0_1(wide_b):
    """gamma is applied after the clamp at 0, so every entry is a limit in
    [0, 1], never the NaN of inf - inf."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 3))
    B = rng.standard_normal((7, 3)) if wide_b else None
    with np.errstate(over="ignore"):
        K = svm.kernel_matrix(svm.KernelSpec(kind="rbf", gamma=1e308), A, B)
    assert np.all(np.isfinite(K)) and np.all((K >= 0.0) & (K <= 1.0))
    assert K[0, 1] == 0.0


@pytest.mark.parametrize("wide_b", [False, True])
def test_rbf_gram_into_a_buffer_makes_no_large_temporary(wide_b):
    """At n = 540 no allocation during kernel_matrix(..., out=buf) reaches
    n^2 / 4 floats: tracemalloc's peak over the call stays below that."""
    n = 540
    rng = np.random.default_rng(6)
    A = rng.standard_normal((n, 6))
    B = rng.standard_normal((n, 6)) if wide_b else None
    kernel = svm.KernelSpec(kind="rbf", gamma=0.3)
    buf = np.empty((n, n))
    limit = n * n // 4 * buf.itemsize

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: svm.kernel_matrix(kernel, A, B, out=buf)) < limit
    # without out, the traced peak does hold K: numpy's arrays are traced
    assert peak(lambda: svm.kernel_matrix(kernel, A, B)) >= buf.nbytes


def _seed_loop_problem(data):
    """A small binary problem: Gaussian rows, some rows repeated or drawn from
    a handful of distinct points (so eta can be 0), both labels present."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(2, 60), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    layout = data.draw(st.sampled_from(["distinct", "repeats", "few_points"]), label="layout")
    if layout == "few_points":
        X = rng.standard_normal((3, d))[rng.integers(0, 3, n)]
    else:
        X = rng.standard_normal((n, d))
        if layout == "repeats":
            X[n // 2:] = X[: n - n // 2]
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    y[0], y[1] = 1.0, -1.0
    return X, y


class TestSeedLoopBitIdentity:
    """train_binary matches the whole-vector second-order SMO loop
    (oracles.wss2_smo) bit for bit."""

    @staticmethod
    def _compare(X, y, kernel, max_passes):
        kernel = svm.resolve_gamma(kernel, X)
        ref = wss2_smo(svm.kernel_matrix(kernel, X), y, kernel.c, 1e-3, max_passes)
        try:
            model = svm.train_binary(X, y, kernel, solver=svm.SolverSpec(max_passes=max_passes))
        except ConvergenceError as exc:
            model = exc.model
            assert not ref["converged"]
        else:
            assert ref["converged"]
        keep = ref["alpha"] > 1e-12
        assert model.diagnostics.n_updates == ref["n_updates"]
        assert np.array_equal(model.sv_indices, np.flatnonzero(keep))
        assert np.array_equal(model.dual_coef, (ref["alpha"] * y)[keep])
        assert model.bias == ref["bias"]
        assert model.diagnostics.final_violation == ref["final_violation"]
        return ref

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_random_problems(self, data):
        X, y = _seed_loop_problem(data)
        kernel = svm.KernelSpec(
            kind=data.draw(st.sampled_from(["linear", "rbf"]), label="kind"),
            c=data.draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0, 10.0, 100.0]), label="C"),
        )
        self._compare(X, y, kernel, data.draw(st.sampled_from([1, 10]), label="max_passes"))

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_named_paths_are_exercised(self, kind):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((80, 3))
        y = np.where(X[:, 0] + 0.8 * rng.standard_normal(80) > 0, 1.0, -1.0)
        # tiny C: many multipliers end on the upper bound
        ref = self._compare(X, y, svm.KernelSpec(kind=kind, c=1e-3), 10)
        assert ref["converged"] and np.sum(ref["alpha"] >= 1e-3 - 1e-12) > 10
        # five distinct rows, each repeated with both labels: steps with eta <= 1e-12
        X_rep = np.vstack([X[:5]] * 8)
        y_rep = np.tile(y[:5], 8) * np.repeat([1.0, -1.0], 20)
        ref = self._compare(X_rep, y_rep, svm.KernelSpec(kind=kind, c=1.0), 10)
        assert ref["flat_steps"] > 0
        # one pass only: the ConvergenceError path
        ref = self._compare(X, y, svm.KernelSpec(kind=kind, c=100.0, gamma=5.0), 1)
        assert not ref["converged"]

    def test_box_clip_after_rounding(self):
        """alpha + (C - alpha) can round above C = 0.3; both loops clip it back."""
        rng = np.random.default_rng(2510)
        X = rng.standard_normal((40, 2))
        y = np.where(X[:, 0] + rng.standard_normal(40) > 0, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        ref = self._compare(X, y, svm.KernelSpec(kind="linear", c=0.3), 10)
        assert ref["converged"] and ref["clipped_steps"] > 0


def _recording_curvature_rows(monkeypatch):
    """Every CurvatureRows that svm makes from now on, in order; each holds
    ``builds``, the row indices it built, one entry per build, and
    ``copies``, a copy of each row as built (a later pair's cache reuses the
    buffer)."""
    caches = []

    class Recording(svm.CurvatureRows):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.builds, self.copies = [], []
            caches.append(self)

        def __missing__(self, i):
            row = super().__missing__(i)
            self.builds.append(i)
            self.copies.append(row.copy())
            return row

    monkeypatch.setattr(svm, "CurvatureRows", Recording)
    return caches


def _full_inverse_curvature(K):
    """r[i, t] = 1 / sqrt(max(((-2 K_it) + K_tt) + K_ii, 1e-12)) over all of K."""
    d = K.diagonal()
    return 1.0 / np.sqrt(np.maximum(((-2.0 * K) + d) + d[:, None], 1e-12))


class TestCurvatureRows:
    """WSS2's inverse curvature, built row by row as the solver reads it."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_rows_built_at_the_chosen_i_in_first_use_order(self, data):
        """The cache builds row i exactly when the solver first picks i, each
        row once, into the next free row of its buffer, and every row equals
        row i of the full formula bit for bit."""
        X, y = _seed_loop_problem(data)
        kernel = svm.resolve_gamma(svm.KernelSpec(
            kind=data.draw(st.sampled_from(["linear", "rbf"]), label="kind"),
            c=data.draw(st.sampled_from([1e-3, 0.3, 10.0, 100.0]), label="C"),
        ), X)
        max_passes = data.draw(st.sampled_from([1, 10]), label="max_passes")
        K = svm.kernel_matrix(kernel, X)
        buffer = np.full(K.shape, np.nan)
        rows = svm.CurvatureRows(K, out=buffer)
        try:
            svm.train_binary(X, y, kernel, solver=svm.SolverSpec(max_passes=max_passes),
                             gram=K, curvature=rows)
        except ConvergenceError:
            pass
        ref = wss2_smo(K, y, kernel.c, 1e-3, max_passes)
        assert list(rows) == list(dict.fromkeys(ref["chosen_i"]))
        full = _full_inverse_curvature(K)
        assert np.array_equal(buffer[:len(rows)], full[list(rows)])
        assert np.isnan(buffer[len(rows):]).all()
        assert all(np.array_equal(row, full[i]) for i, row in rows.items())

    def test_every_row_in_any_order_equals_the_full_formula(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((60, 4)) * np.exp(rng.uniform(-6.0, 6.0, 4))
        X[30:40] = X[:10]  # repeated rows: curvature 0, floored at 1e-12
        for kernel in (svm.KernelSpec(kind="linear"), svm.KernelSpec(kind="rbf", gamma=0.7)):
            K = svm.kernel_matrix(kernel, X)
            full = _full_inverse_curvature(K)
            rows = svm.CurvatureRows(K)
            order = rng.permutation(len(K)).tolist()
            for i in order + order:
                assert np.array_equal(rows[i], full[i])
            assert list(rows) == order
            assert rows[0] is rows[0]

    def test_one_cache_per_pair_shared_by_every_c(self, monkeypatch):
        """Kernels that differ only in C read one cache per class pair: each
        row is built once, and only at an i that some C's solver picked."""
        rng = np.random.default_rng(31)
        X = np.vstack([rng.normal(c, 1.2, (30, 3)) for c in ((0, 0, 0), (1, 0, 0), (0, 1, 0))])
        labels = np.repeat([0, 1, 2], 30)
        kernels = [svm.KernelSpec(c=c, gamma=0.4) for c in (0.1, 1.0, 10.0)]
        caches = _recording_curvature_rows(monkeypatch)
        models = svm.train_multiclass(X, labels, kernels, solver=svm.SolverSpec(max_passes=50))
        assert not any(isinstance(m, ConvergenceError) for m in models)
        assert len(caches) == 3
        Xs = svm.standardize_fit(X).transform(X)
        for (a, b), cache in zip([(0, 1), (0, 2), (1, 2)], caches):
            mask = (labels == a) | (labels == b)
            y = np.where(labels[mask] == a, 1.0, -1.0)
            K = svm.kernel_matrix(kernels[0], Xs[mask])
            chosen = [i for kernel in kernels
                      for i in wss2_smo(K, y, kernel.c, 1e-3, 50)["chosen_i"]]
            assert cache.builds == list(cache) == list(dict.fromkeys(chosen))
            assert len(cache) < len(y)
            full = _full_inverse_curvature(K)
            assert np.array_equal(np.array(cache.copies), full[cache.builds])


class TestDecision:
    def test_dimension_mismatch(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = svm.train_binary(X, y, svm.KernelSpec(kind="linear", c=1.0))
        with pytest.raises(DimensionMismatchError):
            svm.decision(model, np.zeros((1, 3)))

    def test_smoothness_under_perturbation(self):
        X, y = _blobs(3, n_per=20, centres=((0, 0), (3, 3)))
        y = np.where(y == 0, -1.0, 1.0)
        kernel = svm.KernelSpec(kind="rbf", c=10.0, gamma=0.5)
        model = svm.train_binary(X, y, kernel, solver=svm.SolverSpec(max_passes=200))
        # rbf gradient bound: sum|coef| * sqrt(2 gamma / e)
        lipschitz = np.sum(np.abs(model.dual_coef)) * np.sqrt(2 * 0.5 / np.e)
        x0 = np.array([[1.5, 1.5]])
        base = svm.decision(model, x0)[0]
        rng = np.random.default_rng(4)
        for _ in range(20):
            delta = rng.standard_normal(2) * 1e-4
            moved = svm.decision(model, x0 + delta)[0]
            assert abs(moved - base) <= lipschitz * np.linalg.norm(delta) + 1e-12

    def test_correct_signs_on_separable_training_set(self):
        X, y = _blobs(5, n_per=25, centres=((0, 0), (4, 4)))
        y = np.where(y == 0, -1.0, 1.0)
        model = svm.train_binary(X, y, svm.KernelSpec(kind="rbf", c=10.0, gamma=0.5))
        assert np.all(np.sign(svm.decision(model, X)) == y)


class TestMulticlass:
    def test_three_blob_sanity(self):
        X, y = _blobs(0)
        model = _fit(X, y, svm.KernelSpec(kind="rbf", c=10.0))
        assert np.array_equal(svm.predict(model, X), y)
        assert len(model.pairwise) == 3

    def test_blob_centres_classified(self):
        X, y = _blobs(1)
        model = _fit(X, y, svm.KernelSpec(kind="rbf", c=10.0))
        centres = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        assert svm.predict(model, centres).tolist() == [0, 1, 2]

    def test_row_permutation_invariant_predictions(self):
        X, y = _blobs(2)
        model_a = _fit(X, y, svm.KernelSpec(kind="rbf", c=10.0))
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(y))
        model_b = _fit(X[perm], y[perm], svm.KernelSpec(kind="rbf", c=10.0))
        assert np.array_equal(svm.predict(model_a, X), svm.predict(model_b, X))

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_shared_gram_buffer_leaks_nothing(self, kind):
        """Pairs of 32, 27 and 19 rows train in turn in one Gram buffer, each
        smaller pair over a larger one's entries; each machine equals the
        pair trained alone in a fresh Gram matrix."""
        rng = np.random.default_rng(5)
        labels = np.repeat([0, 1, 2], [20, 12, 7])
        X = rng.standard_normal((labels.size, 3)) + labels[:, None]
        kernel = svm.KernelSpec(kind=kind, c=1.0)
        model = _fit(X, labels, kernel)
        Xs = svm.standardize_fit(X).transform(X)
        for (a, b), machine in model.pairwise.items():
            mask = (labels == a) | (labels == b)
            alone = svm.train_binary(
                Xs[mask], np.where(labels[mask] == a, 1.0, -1.0), model.kernel
            )
            assert np.array_equal(machine.dual_coef, alone.dual_coef)
            assert machine.bias == alone.bias
            assert np.array_equal(machine.sv_indices, alone.sv_indices)
            assert machine.diagnostics.n_updates == alone.diagnostics.n_updates

    def test_kernels_train_as_alone_on_one_gram_per_input(self, monkeypatch):
        """Kernels that differ only in C share each pair's Gram matrix, and each
        kernel gets the machines, or the ConvergenceError, it gets alone."""
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(c, 1.5, (25, 2)) for c in ((0, 0), (1, 0), (0, 1))])
        labels = np.repeat([0, 1, 2], 25)
        kernels = [svm.KernelSpec(c=c, gamma=g) for c in (0.1, 100.0) for g in (0.5, 5.0)]
        kernels.append(svm.KernelSpec(kind="linear", c=1.0))
        solver = svm.SolverSpec(max_passes=3)
        alone = [svm.train_multiclass(X, labels, [k], solver=solver)[0] for k in kernels]
        built = []
        kernel_matrix = svm.kernel_matrix

        def counting(spec, *args, **kwargs):
            built.append(kernel_matrix(spec, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(svm, "kernel_matrix", counting)
        caches = _recording_curvature_rows(monkeypatch)
        together = svm.train_multiclass(X, labels, kernels, solver=solver)
        # one Gram per pair at gamma 0.5 and at 5.0; the linear kernel runs out
        # of updates on the first pair, so its Gram is built for that pair only;
        # each Gram gets one curvature row cache, on that Gram
        assert len(built) == 3 * 2 + 1
        assert len(caches) == len(built)
        assert all(cache.gram is gram for cache, gram in zip(caches, built))
        assert [isinstance(m, ConvergenceError) for m in together] == [False] * 2 + [True] * 3
        for a, b in zip(alone, together):
            if isinstance(a, ConvergenceError):
                assert str(a) == str(b)
                assert a.model.diagnostics.final_violation == b.model.diagnostics.final_violation
                assert np.array_equal(a.model.dual_coef, b.model.dual_coef)
                continue
            assert a.kernel == b.kernel and a.pairwise.keys() == b.pairwise.keys()
            for pair, machine in a.pairwise.items():
                assert np.array_equal(machine.dual_coef, b.pairwise[pair].dual_coef)
                assert machine.bias == b.pairwise[pair].bias
                assert machine.diagnostics.n_updates == b.pairwise[pair].diagnostics.n_updates

    def test_missing_class_rejected(self):
        X, y = _blobs(3)
        mask = y != 2
        with pytest.raises(DegenerateTrainingError):
            _fit(X[mask], y[mask], svm.KernelSpec(kind="rbf", c=10.0))

    def test_vote_tally_matches_reference_count(self):
        X, y = _blobs(4)
        model = _fit(X, y, svm.KernelSpec(kind="rbf", c=10.0))
        rows = model.scaler.transform(X)
        predictions = svm.predict(model, X)
        for r in range(0, len(y), 7):
            votes = np.zeros(3, dtype=int)
            for (a, b), machine in model.pairwise.items():
                score = svm.decision(machine, rows[r : r + 1])[0]
                votes[a if score >= 0 else b] += 1
            assert votes.sum() == 3
            if votes.max() > 1:  # unambiguous majority
                assert predictions[r] == np.argmax(votes)

    def test_pure_function_on_duplicates(self):
        X, y = _blobs(5)
        model = _fit(X, y, svm.KernelSpec(kind="rbf", c=10.0))
        point = X[3:4]
        assert np.array_equal(svm.predict(model, point), svm.predict(model, point.copy()))

    def test_three_way_vote_tie_goes_to_largest_margin_then_lowest_id(self):
        # linear machines scoring x[0], -x[1] and x[2]: on positive rows the
        # pairs (0,1), (0,2), (1,2) vote 0, 2, 1, with margins x[0], x[1], x[2]
        linear = svm.KernelSpec(kind="linear")

        def machine(axis, sign):
            return svm.BinarySVM(np.eye(3)[[axis]], np.array([sign]), 0.0, linear)

        model = svm.MulticlassSVM(
            (0, 1, 2),
            {(0, 1): machine(0, 1.0), (0, 2): machine(1, -1.0), (1, 2): machine(2, 1.0)},
            svm.Scaler(np.zeros(3), np.ones(3)),
            linear,
        )
        rows = np.array([
            [3.0, 1.0, 2.0],  # margin 3 for class 0
            [1.0, 3.0, 2.0],  # margin 3 for class 2
            [1.0, 2.0, 3.0],  # margin 3 for class 1
            [2.0, 2.0, 2.0],  # equal margins: lowest id
            [1.0, 2.0, 2.0],  # classes 1 and 2 tie on margin: class 1
            [0.1, -5.0, 9.0],  # two votes for class 0 beat a larger margin
        ])
        assert svm.predict(model, rows).tolist() == [0, 2, 1, 0, 1, 0]
        assert [svm.predict(model, row[None]).item() for row in rows] == [0, 2, 1, 0, 1, 0]

    def test_unit_rescaling_with_refit_scaler_is_neutral(self):
        X, y = _blobs(6)
        scale = np.array([100.0, 0.01])
        model_a = _fit(X, y, svm.KernelSpec(kind="rbf", c=10.0))
        model_b = _fit(X * scale, y, svm.KernelSpec(kind="rbf", c=10.0))
        grid = X[::5]
        assert np.array_equal(
            svm.predict(model_a, grid), svm.predict(model_b, grid * scale)
        )


class TestPersistence:
    def test_round_trip_predictions_bit_identical(self, tmp_path):
        X, y = _blobs(7)
        model = _fit(X, y, svm.KernelSpec(kind="rbf", c=10.0))
        probe = np.vstack([X[::3], X[::3] + 0.25])
        before = svm.predict(model, probe)
        path = tmp_path / "model.json"
        svm.save_model(path, model, extra={"method_tag": "FOS"})
        restored, doc = svm.load_model(path)
        after = svm.predict(restored, probe)
        assert np.array_equal(before, after)
        assert doc["method_tag"] == "FOS"
        scores_before = svm.decision(model.pairwise[(0, 1)], model.scaler.transform(probe))
        scores_after = svm.decision(restored.pairwise[(0, 1)], restored.scaler.transform(probe))
        assert np.array_equal(scores_before, scores_after)
