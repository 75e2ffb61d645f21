"""Soft-margin SVMs trained by sequential minimal optimization.

The binary trainer solves the standard dual

    min_a  0.5 * sum_ij a_i a_j y_i y_j K(x_i, x_j) - sum_i a_i
    s.t.   0 <= a_i <= C,  sum_i y_i a_i = 0

by repeatedly picking a KKT-violating pair and moving it along the feasible
equality-preserving direction with an exact line search.  The pair is chosen
by second-order working-set selection (Fan, Chen & Lin, JMLR 6, 2005): i is
the maximal violator of the up set, and j the low-set row that most lowers
the objective in a step along i and j.  Selection breaks ties by lowest
index, so training is order-deterministic.  One pairwise binary machine
per pair of CLASS_IDS, the radar.SurfaceClass ids, votes to classify a row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConvergenceError,
    DataError,
    DegenerateTrainingError,
    DimensionMismatchError,
    InvalidParameterError,
)
from .radar import SurfaceClass

_BOUND_EPS = 1e-12
# rows of the symmetric Gram that kernel_matrix builds per step; of 32 to 192
# rows, 96 and 128 were fastest at n = 180, 540 and 3,407 (one BLAS thread,
# Xeon with 2 MB L2 per core): smaller blocks spend more numpy calls, larger
# ones more work on the halves of their diagonal squares that are overwritten
_BLOCK_ROWS = 128
# the class ids every multiclass machine and model file holds
CLASS_IDS = tuple(range(len(SurfaceClass)))


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and soft-margin parameters.

    gamma None requests the variance heuristic 1 / (d * var(X)) resolved on
    the (standardized) training matrix at fit time; it is ignored by the
    linear kernel.
    """

    kind: str = "rbf"
    c: float = 10.0
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise InvalidParameterError(f"unknown kernel kind {self.kind!r}")
        if self.c <= 0:
            raise InvalidParameterError("C must be positive")
        if self.gamma is not None and self.gamma <= 0:
            raise InvalidParameterError("gamma must be positive")


@dataclass(frozen=True)
class SolverSpec:
    """When SMO stops: at a KKT violation of at most tol, or after max_passes
    * n pair updates on n rows, with a ConvergenceError.  A bad value raises
    InvalidParameterError whose field names it."""

    tol: float = 1e-3
    max_passes: int = 30

    def __post_init__(self):
        if not self.tol > 0:
            raise InvalidParameterError(f"{self.tol} is not positive", ("tol",))
        if self.max_passes < 1:
            raise InvalidParameterError(
                f"{self.max_passes} is less than the minimum of 1", ("max_passes",))


def resolve_gamma(spec: KernelSpec, X: np.ndarray) -> KernelSpec:
    """Fill in the variance-heuristic gamma against a concrete training matrix."""
    if spec.kind != "rbf" or spec.gamma is not None:
        return spec
    var = float(np.var(X))
    if var < 1e-12:
        var = 1.0
    gamma = 1.0 / (X.shape[1] * var)
    return KernelSpec(kind=spec.kind, c=spec.c, gamma=gamma)


def kernel_matrix(
    spec: KernelSpec,
    A: np.ndarray,
    B: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gram matrix K[i, j] = k(A_i, B_j); B defaults to A.

    With out given, K is written into it (shape (len(A), len(B)), float64) and
    out is returned.  The RBF kernel's squared distances are one matrix
    product of L = [-2a, |a|^2, 1] and R = [b, 1, |b|^2]; each is clamped at
    0 before it is scaled by -gamma, so a huge gamma gives entries in [0, 1],
    not NaN.  With B None, K is built in blocks of _BLOCK_ROWS rows on and
    right of the diagonal, each diagonal entry is exactly 1 and each entry
    below the diagonal is a copy of its mirror, so K equals K.T exactly.  No
    temporary is as large as K.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    if spec.kind == "linear":
        return np.matmul(A, B.T, out=out)
    if spec.gamma is None:
        raise InvalidParameterError("rbf kernel needs a resolved gamma")
    L, R = _distance_factors(A, B)
    if B is not A:
        return _rbf_in_place(np.matmul(L, R.T, out=out), spec.gamma)
    n = len(A)
    K = np.empty((n, n)) if out is None else out
    below = np.tri(_BLOCK_ROWS, k=-1, dtype=bool)
    for r0 in range(0, n, _BLOCK_ROWS):
        b = min(_BLOCK_ROWS, n - r0)
        block = K[r0:r0 + b, r0:]
        np.matmul(L[r0:r0 + b], R[r0:].T, out=block)
        np.fill_diagonal(block, 0.0)  # a row's distance to itself, not its rounding residue
        _rbf_in_place(block, spec.gamma)
        square = block[:, :b]
        np.copyto(square, square.T, where=below[:b, :b])
        K[r0 + b:, r0:r0 + b] = block[:, b:].T
    return K


def _distance_factors(A: np.ndarray, B: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """L = [-2A, |a|^2, 1] and R = [B, 1, |b|^2], so that (L @ R.T)[i, j] is
    |a_i - b_j|^2 = |a_i|^2 + |b_j|^2 - 2 a_i.b_j."""
    d = A.shape[1]
    L, R = np.empty((len(A), d + 2)), np.empty((len(B), d + 2))
    np.multiply(A, -2.0, out=L[:, :d])
    L[:, d] = np.einsum("ij,ij->i", A, A)
    L[:, d + 1] = 1.0
    R[:, :d] = B
    R[:, d] = 1.0
    R[:, d + 1] = L[:, d] if B is A else np.einsum("ij,ij->i", B, B)
    return L, R


def _rbf_in_place(sq: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * max(sq, 0)), written over sq; a product overflowing to -inf gives 0."""
    np.maximum(sq, 0.0, out=sq)
    with np.errstate(over="ignore"):
        sq *= -gamma
    return np.exp(sq, out=sq)


@dataclass(frozen=True)
class Scaler:
    """Per-dimension standardization statistics from a training matrix."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.mean.size:
            raise DimensionMismatchError(
                f"got {X.shape[1]} features, scaler was fit on {self.mean.size}"
            )
        return (X - self.mean) / self.std


def standardize_fit(X: np.ndarray) -> Scaler:
    """Population mean/std per dimension; std floored at 1e-12."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit a scaler")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.maximum(std, 1e-12)
    return Scaler(mean, std)


@dataclass
class SMODiagnostics:
    n_updates: int = 0
    final_violation: float = float("inf")
    dual_objective: float = 0.0
    objective_trace: Optional[List[float]] = None


@dataclass(frozen=True)
class BinarySVM:
    """Trained two-class machine: kept support vectors and signed dual weights."""

    support_vectors: np.ndarray  # (n_sv, d)
    dual_coef: np.ndarray  # (n_sv,), alpha_i * y_i
    bias: float
    kernel: KernelSpec
    diagnostics: Optional[SMODiagnostics] = None
    sv_indices: Optional[np.ndarray] = None  # rows of the training matrix kept


class CurvatureRows(dict):
    """Rows of the inverse curvature r of a Gram matrix K, each built when it
    is first read and kept for later reads: row index -> row, in the order
    the rows were built.

    r[i, t] = 1 / sqrt(max(K_ii + K_tt - 2 K_it, 1e-12)), where K_ii + K_tt -
    2 K_it is the curvature of the dual along the pair (i, t); row i is
    summed as ((-2 K_i) + diag(K)) + K_ii.  Rows are stored in the order they
    are built, from the start of out (shape of K, float64, fresh when not
    given), so only the rows built take up memory.
    """

    def __init__(self, K: np.ndarray, out: Optional[np.ndarray] = None):
        super().__init__()
        self.gram = K
        self.shape = K.shape
        self._diag = K.diagonal()
        self._rows = np.empty(K.shape) if out is None else out

    def __missing__(self, i: int) -> np.ndarray:
        row = np.multiply(self.gram[i], -2.0, out=self._rows[len(self)])
        row += self._diag
        row += self._diag[i]
        np.maximum(row, _BOUND_EPS, out=row)
        np.sqrt(row, out=row)
        self[i] = np.reciprocal(row, out=row)
        return row


def _dual_objective(alpha: np.ndarray, y: np.ndarray, K: np.ndarray) -> float:
    ay = alpha * y
    return float(np.sum(alpha) - 0.5 * ay @ K @ ay)


def train_binary(
    X: np.ndarray,
    y: np.ndarray,
    kernel: KernelSpec,
    curvature: CurvatureRows,
    solver: SolverSpec = SolverSpec(),
    debug: bool = False,
) -> BinarySVM:
    """Fit one soft-margin machine on labels in {-1, +1}.

    kernel's gamma is resolved (see resolve_gamma), and curvature is the
    CurvatureRows of the caller's (n, n) Gram ``kernel_matrix(kernel, X)``,
    which is read from curvature.gram.  The rows curvature builds are kept
    for the caller's next call, and nothing in the returned machine refers
    to it.  solver.max_passes * n bounds the number of pair updates; running
    out raises ConvergenceError with the best iterate attached.  With
    debug=True the dual objective is recomputed after every accepted update
    and asserted non-decreasing (slow; for small problems and tests).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise DimensionMismatchError("X and y row counts differ")
    if not np.all(np.isfinite(X)):
        raise InvalidParameterError("training matrix must be finite")
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise InvalidParameterError("labels must be -1 or +1")
    if np.unique(y).size < 2:
        raise DegenerateTrainingError("training set holds a single class")

    if kernel.kind == "rbf" and kernel.gamma is None:
        raise InvalidParameterError("rbf kernel needs a resolved gamma")
    n = y.size
    c_box = float(kernel.c)
    if curvature.shape != (n, n):
        raise DimensionMismatchError(f"curvature matrix of shape {curvature.shape} for {n} rows")
    r, K = curvature, curvature.gram
    alpha = np.zeros(n)  # refreshed from alpha_list before it is read
    f_cache = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij
    tol, budget = solver.tol, solver.max_passes * n
    diag = SMODiagnostics(objective_trace=[] if debug else None)
    prev_objective = 0.0

    def _finalize(violation: float, up_min: float, low_max: float) -> BinarySVM:
        # up_min and low_max are the extreme f_k - y_k over the up and low sets,
        # infinite when the set is empty
        alpha[:] = alpha_list
        diag.n_updates = updates
        if np.isfinite(up_min) and np.isfinite(low_max):
            bias = -0.5 * (up_min + low_max)
        else:
            bias = float(np.mean(y - f_cache))
        keep = alpha > _BOUND_EPS
        diag.final_violation = violation
        diag.dual_objective = _dual_objective(alpha, y, K)
        return BinarySVM(
            support_vectors=X[keep].copy(),
            dual_coef=(alpha * y)[keep].copy(),
            bias=bias,
            kernel=kernel,
            diagnostics=diag,
            sv_indices=np.flatnonzero(keep),
        )

    # Only alpha_i and alpha_j move per update, so only their entries of alpha
    # and of the up/low sets are refreshed.  A set is held as offsets: -y_k for
    # a member, so f_cache + offset is f_k - y_k exactly, and +inf (up) or -inf
    # (low) otherwise, which argmin/argmax pass over.  argmin/argmax return
    # the first of equal values, so ties still go to the lowest index.  K is
    # exactly symmetric, each entry below its diagonal a copy of its mirror
    # (kernel_matrix's blocks for rbf, numpy's syrk for A @ A.T for linear),
    # so the contiguous row K[i] equals the column K[:, i].
    # At alpha = 0 the up set holds the y = +1 rows and the low set the y = -1
    # rows, both empty when C leaves no room above 0.
    # j maximises gap_t * r[i, t] over the low set, with gap_t = (f_t - y_t) -
    # up_min: for gap_t > 0 that ranks rows as gap_t**2 / curvature does, and
    # rows with gap_t <= 0 (non-violating, or outside the set at -inf) score
    # <= 0, below any violating row; r's row i is built the first time i is
    # picked.  The maximal violation max_t gap_t is read only by the stopping
    # test.  It bounds j's gap from above, so it is computed only once j's gap
    # is <= tol or the budget is spent: the test stops exactly where a check
    # at every update would.
    # The scalar work runs on Python floats (alpha, y and the diagonal of K
    # are held as lists); each min and max is spelled as the comparison that
    # picks the operand min/max would, ties and NaN included.  alpha is copied
    # back to its array wherever the array is read.
    hi = c_box - _BOUND_EPS
    up_off = np.where((y > 0) & (0.0 < hi), -y, np.inf)
    low_off = np.where((y < 0) & (0.0 < hi), -y, -np.inf)
    e_up, gaps, score, delta = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    alpha_list, y_list, k_diag = alpha.tolist(), y.tolist(), K.diagonal().tolist()
    updates = 0
    while True:
        i = int(np.add(f_cache, up_off, out=e_up).argmin())
        up_min = float(e_up[i])
        np.add(f_cache, low_off, out=gaps)
        gaps -= up_min
        j = int(np.multiply(gaps, r[i], out=score).argmax())
        gap = float(gaps[j])
        if gap <= tol or updates >= budget:
            low_max = float(np.add(f_cache, low_off, out=gaps).max())
            violation = low_max - up_min
            if violation == -np.inf:  # the up or the low set is empty
                return _finalize(0.0, up_min, low_max)
            if violation <= tol:
                return _finalize(violation, up_min, low_max)
            if updates >= budget:
                model = _finalize(violation, up_min, low_max)
                raise ConvergenceError(
                    f"SMO exhausted {budget} updates with KKT violation "
                    f"{violation:.3g} > tol {tol:.3g}",
                    model=model,
                )

        # move alpha_i by +y_i * t and alpha_j by -y_j * t (keeps sum y.a fixed);
        # exact minimiser along the direction is gap / eta, capped by the box
        a_i, a_j, y_i, y_j = alpha_list[i], alpha_list[j], y_list[i], y_list[j]
        K_i, K_j = K[i], K[j]
        cap_i = (c_box - a_i) if y_i > 0 else a_i
        cap_j = a_j if y_j > 0 else (c_box - a_j)
        eta = k_diag[i] + k_diag[j] - 2.0 * float(K_i[j])
        step = cap_j if cap_j < cap_i else cap_i
        if eta > _BOUND_EPS and gap / eta < step:
            step = gap / eta
        # clip to [0, C] (the other entries are already in the box), then
        # refresh the moved entries' set offsets
        a = a_i + y_i * step
        a = 0.0 if a < 0.0 else (c_box if a > c_box else a)
        alpha_list[i] = a
        up_off[i] = -y_i if (a < hi if y_i > 0 else a > _BOUND_EPS) else np.inf
        low_off[i] = -y_i if (a > _BOUND_EPS if y_i > 0 else a < hi) else -np.inf
        a = a_j - y_j * step
        a = 0.0 if a < 0.0 else (c_box if a > c_box else a)
        alpha_list[j] = a
        up_off[j] = -y_j if (a < hi if y_j > 0 else a > _BOUND_EPS) else np.inf
        low_off[j] = -y_j if (a > _BOUND_EPS if y_j > 0 else a < hi) else -np.inf
        np.subtract(K_i, K_j, out=delta)
        delta *= step
        f_cache += delta
        updates += 1
        if debug:
            alpha[:] = alpha_list
            objective = _dual_objective(alpha, y, K)
            if objective < prev_objective - 1e-9:
                raise AssertionError(
                    f"dual objective decreased: {prev_objective} -> {objective}"
                )
            prev_objective = objective
            diag.objective_trace.append(objective)


def decision(model: BinarySVM, rows: np.ndarray) -> np.ndarray:
    """Signed margin sum_i coef_i * k(sv_i, x) + bias of every row x."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != model.support_vectors.shape[1]:
        raise DimensionMismatchError(
            f"input has {rows.shape[1]} features, model expects "
            f"{model.support_vectors.shape[1]}"
        )
    scores = kernel_matrix(model.kernel, rows, model.support_vectors) @ model.dual_coef
    return scores + model.bias


@dataclass(frozen=True)
class MulticlassSVM:
    """One-vs-one ensemble with the standardization folded in."""

    pairwise: Dict[Tuple[int, int], BinarySVM]
    scaler: Scaler
    kernel: KernelSpec


def train_multiclass(
    X: np.ndarray, labels: np.ndarray, kernels: Sequence[KernelSpec],
    solver: SolverSpec = SolverSpec(),
) -> List[Union[MulticlassSVM, ConvergenceError]]:
    """Standardize on the full training fold, then fit every class pair at
    every kernel: one model per kernel, in order.

    A kernel whose machine runs out of updates on some pair gets that pair's
    ConvergenceError in place of a model and trains no later pair.  In each
    pairwise machine the lower class id takes label +1.  For each pair the
    Gram matrix is built once per distinct Gram input (the kind, and gamma
    for rbf), and so is a CurvatureRows cache of it; each lives in one
    buffer sized for the largest pair, and every kernel that shares them
    trains on them: the kernels differ only in C.  A curvature row is built
    when some C's solver first reads it, and at most once.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels = np.asarray(labels, dtype=int).ravel()
    present = set(np.unique(labels))
    missing = [c for c in CLASS_IDS if c not in present]
    if missing:
        raise DegenerateTrainingError(f"training fold is missing class(es) {missing}")
    scaler = standardize_fit(X)
    Xs = scaler.transform(X)
    kernels = [resolve_gamma(kernel, Xs) for kernel in kernels]
    shared = {}  # Gram input -> the kernels that train on it
    for i, kernel in enumerate(kernels):
        shared.setdefault((kernel.kind, kernel.gamma if kernel.kind == "rbf" else None),
                          []).append(i)
    masks = {(a, b): (labels == a) | (labels == b) for a, b in combinations(CLASS_IDS, 2)}
    n_max = max((int(mask.sum()) for mask in masks.values()), default=0)
    gram_buffer, curvature_buffer = np.empty(n_max * n_max), np.empty(n_max * n_max)
    pairwise = [{} for _ in kernels]
    failed = [None] * len(kernels)
    for (a, b), mask in masks.items():
        Xp = Xs[mask]
        y = np.where(labels[mask] == a, 1.0, -1.0)
        n = y.size
        for members in shared.values():
            live = [i for i in members if failed[i] is None]
            if not live:
                continue
            K = kernel_matrix(kernels[live[0]], Xp, out=gram_buffer[: n * n].reshape(n, n))
            r = CurvatureRows(K, out=curvature_buffer[: n * n].reshape(n, n))
            for i in live:
                try:
                    pairwise[i][(a, b)] = train_binary(Xp, y, kernels[i], r, solver=solver)
                except ConvergenceError as exc:
                    failed[i] = exc
    return [MulticlassSVM(pairwise[i], scaler, kernel) if failed[i] is None
            else failed[i] for i, kernel in enumerate(kernels)]


def predict(model: MulticlassSVM, rows: np.ndarray) -> np.ndarray:
    """Class id of every row by majority vote over the pairwise machines.

    Vote ties go to the class with the largest summed |margin| among its
    winning votes, then to the lowest class id.  A row with a non-finite
    margin (a model holding huge values, say) raises DataError naming the
    first such row.
    """
    rows = model.scaler.transform(rows)
    shape = (rows.shape[0], len(CLASS_IDS))
    votes, margins = np.zeros(shape, dtype=int), np.zeros(shape)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        pair_scores = [(pair, decision(machine, rows))
                       for pair, machine in model.pairwise.items()]
    bad = np.flatnonzero(~np.isfinite([scores for _, scores in pair_scores]).all(axis=0))
    if bad.size:
        raise DataError(f"row {bad[0]}: decision value is not finite")
    for (a, b), scores in pair_scores:
        pick_a = scores >= 0.0
        votes[pick_a, a] += 1
        votes[~pick_a, b] += 1
        margins[pick_a, a] += np.abs(scores[pick_a])
        margins[~pick_a, b] += np.abs(scores[~pick_a])
    # margins of the most-voted classes; argmax gives equal margins to the lowest id
    tied = votes == votes.max(axis=1, keepdims=True)
    return np.where(tied, margins, -np.inf).argmax(axis=1)


def model_to_dict(model: MulticlassSVM) -> dict:
    return {
        "class_ids": list(CLASS_IDS),
        "kernel": {
            "kind": model.kernel.kind,
            "C": model.kernel.c,
            "gamma": model.kernel.gamma,
        },
        "scaler": {
            "mean": model.scaler.mean.tolist(),
            "std": model.scaler.std.tolist(),
        },
        "pairwise": [
            {
                "classes": [a, b],
                "support_vectors": machine.support_vectors.tolist(),
                "dual_coef": machine.dual_coef.tolist(),
                "bias": machine.bias,
            }
            for (a, b), machine in sorted(model.pairwise.items())
        ],
    }


def _finite_array(value, ndim: int, what: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != ndim or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise DataError(f"model {what} must be a non-empty finite {ndim}-D array")
    return arr


def model_from_dict(doc: dict) -> MulticlassSVM:
    """Inverse of :func:`model_to_dict`; a malformed document raises DataError."""
    try:
        kernel = KernelSpec(
            kind=doc["kernel"]["kind"], c=doc["kernel"]["C"], gamma=doc["kernel"]["gamma"]
        )
        mean, std = (_finite_array(doc["scaler"][k], 1, f"scaler {k}") for k in ("mean", "std"))
        class_ids = tuple(doc["class_ids"])
        pairs, machines = [], []
        for entry in doc["pairwise"]:
            a, b = (int(v) for v in entry["classes"])
            pairs.append((a, b))
            machines.append(BinarySVM(
                support_vectors=_finite_array(entry["support_vectors"], 2, "support vectors"),
                dual_coef=_finite_array(entry["dual_coef"], 1, "dual coefficients"),
                bias=float(_finite_array(entry["bias"], 0, "bias")),
                kernel=kernel,
            ))
    except (KeyError, TypeError, ValueError, InvalidParameterError) as exc:
        raise DataError(f"malformed model document: {exc!r}") from None
    if class_ids != CLASS_IDS:
        raise DataError(f"model class ids must be {list(CLASS_IDS)}, got {list(class_ids)}")
    if (std.shape != mean.shape
            or (kernel.kind == "rbf" and kernel.gamma is None)
            or any(m.dual_coef.size != len(m.support_vectors) for m in machines)):
        raise DataError("model kernel, scaler and machines do not fit together")
    if not np.all(std > 0):
        raise DataError("model scaler std must be positive")
    if sorted(pairs) != list(combinations(CLASS_IDS, 2)):
        raise DataError(f"model machines must be one per class pair of {list(CLASS_IDS)}, "
                        f"got pairs {pairs}")
    return MulticlassSVM(dict(zip(pairs, machines)), Scaler(mean, std), kernel)


def save_model(path: Union[str, Path], model: MulticlassSVM, extra: Optional[dict] = None) -> None:
    """Persist as JSON; float round-trip is exact, so reloaded predictions match bit for bit."""
    doc = model_to_dict(model)
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")


def load_model(path: Union[str, Path]) -> Tuple[MulticlassSVM, dict]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: unreadable text or JSON
        raise DataError(f"cannot read model {path}: {exc}") from None
    return model_from_dict(doc), doc
