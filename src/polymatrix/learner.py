"""Group-sparse multinomial logistic estimation of per-player payoffs.

Each player's parameters minimize the empirical softmax loss of its own
strategy given everyone else's, plus a penalty summing the 2-norms of the
parameter groups. The penalty's proximal operator zeroes whole groups, so
the fitted sparsity pattern directly proposes the player's in-neighbors.

The solver is an accelerated proximal gradient method with backtracking
line search and an objective-based adaptive restart that keeps accepted
iterates non-increasing. Everything here is deterministic given its
inputs; fitting different players is independent and safe to parallelize.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, ScheduleInfeasibleError
from .games import GroupLayout, GroupedVector, PolymatrixGame, validate_profile
from .games import _strategy_payoffs, _vector_terms
from .observation import Dataset

DEFAULT_HESSIAN_DIM_CAP = 4096


@dataclass(frozen=True)
class LearnerConfig:
    """Knobs for a single fit.

    ``lam`` is the penalty weight and must be resolved (not None) before
    fitting; ``nu`` and ``delta`` feed the schedule formulas. The group
    penalty covers the individual-payoff group too unless
    ``exempt_intercept`` is set.
    """

    lam: float = None
    nu: float = 0.0
    delta: float = 0.01
    max_iterations: int = 2000
    tolerance: float = 1e-6
    edge_threshold: float = 1e-6
    step_rule: str = "backtracking"
    exempt_intercept: bool = False

    def __post_init__(self):
        if self.lam is not None and self.lam < 0:
            raise InvalidInputError(f"lambda must be nonnegative, got {self.lam}")
        if self.nu < 0:
            raise InvalidInputError(f"nu must be nonnegative, got {self.nu}")
        if not 0 < self.delta < 1:
            raise InvalidInputError(f"delta must lie in (0, 1), got {self.delta}")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        if self.tolerance <= 0:
            raise InvalidInputError(f"tolerance must be positive, got {self.tolerance}")
        if self.edge_threshold < 0:
            raise InvalidInputError("edge_threshold must be nonnegative")
        if self.step_rule not in ("backtracking", "fixed"):
            raise InvalidInputError(f"unknown step rule {self.step_rule!r}")

    def resolved(self, lam: float) -> "LearnerConfig":
        return replace(self, lam=float(lam))


@dataclass(frozen=True)
class FitDiagnostics:
    objective: float
    iterations: int
    grad_map_norm: float
    converged: bool
    group_norms: tuple


@dataclass
class LearnedModel:
    """Result of fitting every player: parameters, edge proposal, rebuilt game."""

    strategy_counts: tuple
    params: tuple
    edges: frozenset
    game: PolymatrixGame
    diagnostics: tuple
    config: LearnerConfig


# ---------------------------------------------------------------------------
# Loss, gradient, Hessian.
# ---------------------------------------------------------------------------


class _PlayerData:
    """Dataset encoded for one player: unique rows, weights, per-group gathers."""

    def __init__(self, data: Dataset, layout: GroupLayout):
        if data.strategy_counts != layout.counts:
            raise InvalidInputError("dataset and layout disagree on strategy counts")
        rows, inverse = np.unique(data.profiles, axis=0, return_inverse=True)
        w = np.bincount(inverse.ravel(), weights=data.weights.astype(np.float64))
        self.layout = layout
        self.rows = rows
        self.weights = w
        self.total = float(w.sum())
        self.xi = rows[:, layout.player]
        self.k = rows.shape[0]
        self.onehots = []
        for j in layout.others:
            mj = layout.counts[j]
            oh = np.zeros((self.k, mj))
            oh[np.arange(self.k), rows[:, j]] = 1.0
            self.onehots.append(oh)

    def logits(self, theta: np.ndarray) -> np.ndarray:
        lay = self.layout
        mi = lay.counts[lay.player]
        out = np.repeat(theta[:mi, None], self.k, axis=1)
        for g, j in enumerate(lay.others, start=1):
            mat = theta[lay.group_slice(g)].reshape(mi, lay.counts[j])
            out += mat[:, self.rows[:, j]]
        return out

    def loss(self, theta: np.ndarray) -> float:
        logits = self.logits(theta)
        mx = logits.max(axis=0)
        lse = mx + np.log(np.exp(logits - mx).sum(axis=0))
        own = logits[self.xi, np.arange(self.k)]
        return float(np.dot(self.weights, lse - own) / self.total)

    def loss_grad(self, theta: np.ndarray):
        lay = self.layout
        logits = self.logits(theta)
        mx = logits.max(axis=0)
        ex = np.exp(logits - mx)
        denom = ex.sum(axis=0)
        lse = mx + np.log(denom)
        own = logits[self.xi, np.arange(self.k)]
        loss = float(np.dot(self.weights, lse - own) / self.total)

        delta = ex / denom
        delta[self.xi, np.arange(self.k)] -= 1.0
        delta *= self.weights / self.total
        grad = np.empty(lay.dim)
        grad[lay.group_slice(0)] = delta.sum(axis=1)
        for g in range(1, lay.num_groups):
            grad[lay.group_slice(g)] = (delta @ self.onehots[g - 1]).ravel()
        return loss, grad


def _sigma_vector(theta: GroupedVector, x) -> np.ndarray:
    logits = _strategy_payoffs(*_vector_terms(theta), np.array([x]))[0]
    logits -= logits.max()
    ex = np.exp(logits)
    return ex / ex.sum()


def softmax_sigma(theta: GroupedVector, x, a: int) -> float:
    """Model probability that the owner plays ``a`` given the context in ``x``."""
    x = validate_profile(theta.layout.counts, x)
    mi = theta.layout.counts[theta.layout.player]
    if not 0 <= a < mi:
        raise InvalidInputError(f"strategy {a} out of range")
    return float(_sigma_vector(theta, x)[a])


def sample_loss(theta: GroupedVector, x) -> float:
    """Negative log model probability of the owner's observed strategy."""
    x = validate_profile(theta.layout.counts, x)
    logits = _strategy_payoffs(*_vector_terms(theta), np.array([x]))[0]
    mx = logits.max()
    lse = mx + math.log(np.exp(logits - mx).sum())
    return float(lse - logits[x[theta.owner]])


def empirical_loss(theta: GroupedVector, data: Dataset) -> float:
    """Weighted mean of :func:`sample_loss` over the dataset."""
    return _PlayerData(data, theta.layout).loss(theta.values)


def gradient(theta: GroupedVector, data: Dataset) -> GroupedVector:
    """Gradient of :func:`empirical_loss`, in the same group layout."""
    _, g = _PlayerData(data, theta.layout).loss_grad(theta.values)
    return GroupedVector(theta.layout, g)


def _feature_rows(layout: GroupLayout, x) -> np.ndarray:
    """Stack the feature vectors of every own strategy in the context ``x``."""
    mi = layout.counts[layout.player]
    return np.stack([layout.feature(a, x) for a in range(mi)])


def _hessian_at(layout: GroupLayout, theta: GroupedVector, x) -> np.ndarray:
    f = _feature_rows(layout, x)
    sig = _sigma_vector(theta, x)
    centered = f - sig @ f
    return (centered * sig[:, None]).T @ centered


def hessian(
    theta: GroupedVector, data: Dataset, dim_cap: int = DEFAULT_HESSIAN_DIM_CAP
) -> np.ndarray:
    """Weighted mean of per-sample loss Hessians (dense, for diagnostics)."""
    lay = theta.layout
    if lay.dim > dim_cap:
        raise InvalidInputError(
            f"Hessian dimension {lay.dim} exceeds the cap of {dim_cap}"
        )
    enc = _PlayerData(data, lay)
    out = np.zeros((lay.dim, lay.dim))
    for row, w in zip(enc.rows, enc.weights):
        out += w * _hessian_at(lay, theta, row)
    return out / enc.total


def population_hessian(
    theta: GroupedVector, pmf: dict, dim_cap: int = DEFAULT_HESSIAN_DIM_CAP
) -> np.ndarray:
    """Exact expectation of the loss Hessian under a profile distribution."""
    lay = theta.layout
    if lay.dim > dim_cap:
        raise InvalidInputError(
            f"Hessian dimension {lay.dim} exceeds the cap of {dim_cap}"
        )
    out = np.zeros((lay.dim, lay.dim))
    for x, prob in pmf.items():
        if prob:
            out += prob * _hessian_at(lay, theta, x)
    return out


def _invariance_basis(layout: GroupLayout, groups) -> np.ndarray:
    """Directions along which every feature inner product is context-constant.

    The softmax is invariant to adding a constant to all of one context's
    logits, so the loss Hessian is singular along these directions at every
    parameter. Spanning set, restricted to the given groups: the all-ones
    vector on group 0; per pair group, each row's indicator minus the
    matching group-0 coordinate; and each column's indicator.
    """
    sizes = [layout.sizes[g] for g in groups]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    dim = int(offsets[-1])
    pos = {g: offsets[k] for k, g in enumerate(groups)}
    mi = layout.counts[layout.player]

    cols = []
    if 0 in pos:
        v = np.zeros(dim)
        v[pos[0]: pos[0] + mi] = 1.0
        cols.append(v)
    for g in groups:
        if g == 0:
            continue
        mj = layout.counts[layout.group_player(g)]
        base = pos[g]
        for a in range(mi):
            v = np.zeros(dim)
            v[base + a * mj: base + (a + 1) * mj] = 1.0
            if 0 in pos:
                v[pos[0] + a] = -1.0
            cols.append(v)
        for b in range(mj):
            v = np.zeros(dim)
            v[base + b: base + mi * mj: mj] = 1.0
            cols.append(v)
    return np.column_stack(cols) if cols else np.zeros((dim, 0))


def _restrict(matrix: np.ndarray, layout: GroupLayout, groups) -> np.ndarray:
    idx = np.concatenate([np.arange(layout.dim)[layout.group_slice(g)] for g in groups])
    return matrix[np.ix_(idx, idx)]


def support_groups(theta: GroupedVector) -> tuple:
    """Group 0 plus every pair group with a nonzero norm."""
    norms = theta.group_norms()
    return tuple([0] + [g for g in range(1, theta.layout.num_groups) if norms[g] > 0])


def diagnostics_min_eigen(
    theta: GroupedVector,
    data: Dataset = None,
    pmf: dict = None,
    support_only: bool = True,
    dim_cap: int = DEFAULT_HESSIAN_DIM_CAP,
) -> float:
    """Smallest informative eigenvalue of the (empirical or exact) loss Hessian.

    The Hessian is always singular along the softmax shift-invariance
    directions (see :func:`_invariance_basis`), which carry no information
    about payoff differences. This diagnostic therefore reports the minimum
    eigenvalue on the orthogonal complement of that subspace, optionally
    after restricting to the support groups of ``theta``.
    """
    if (data is None) == (pmf is None):
        raise InvalidInputError("provide exactly one of data or pmf")
    h = hessian(theta, data, dim_cap) if data is not None else population_hessian(
        theta, pmf, dim_cap
    )
    lay = theta.layout
    groups = support_groups(theta) if support_only else tuple(range(lay.num_groups))
    h = _restrict(h, lay, groups)
    basis = _invariance_basis(lay, groups)
    if basis.shape[1] == 0:
        return float(np.linalg.eigvalsh(h).min())
    u, s, _ = np.linalg.svd(basis, full_matrices=True)
    rank = int((s > s[0] * max(basis.shape) * np.finfo(float).eps).sum())
    q = u[:, rank:]
    if q.shape[1] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(q.T @ h @ q).min())


# ---------------------------------------------------------------------------
# Proximal solver.
# ---------------------------------------------------------------------------


def _prox_flat(values: np.ndarray, layout: GroupLayout, tlam: float, skip0: bool) -> np.ndarray:
    out = values.copy()
    start = 1 if skip0 else 0
    for g in range(start, layout.num_groups):
        sl = layout.group_slice(g)
        norm = np.linalg.norm(out[sl])
        if norm <= tlam:
            out[sl] = 0.0
        else:
            out[sl] *= 1.0 - tlam / norm
    return out


def group_prox(v: GroupedVector, tlam: float, exempt_intercept: bool = False) -> GroupedVector:
    """Groupwise shrinkage: each group scales toward zero and snaps to exact zero."""
    if tlam < 0:
        raise InvalidInputError(f"prox threshold must be nonnegative, got {tlam}")
    return GroupedVector(
        v.layout, _prox_flat(np.array(v.values), v.layout, tlam, exempt_intercept)
    )


def _penalty(values: np.ndarray, layout: GroupLayout, skip0: bool) -> float:
    start = 1 if skip0 else 0
    return float(
        sum(
            np.linalg.norm(values[layout.group_slice(g)])
            for g in range(start, layout.num_groups)
        )
    )


def gradient_lipschitz_bound(num_groups: int) -> float:
    """Analytic step bound: the loss Hessian's largest eigenvalue never exceeds this."""
    return float(num_groups)


@dataclass(frozen=True)
class FitResult:
    params: GroupedVector
    objective: float
    iterations: int
    grad_map_norm: float
    converged: bool
    objectives: tuple = None


def fit_player(
    data: Dataset, i: int, config: LearnerConfig, record_objectives: bool = False
) -> FitResult:
    """Minimize the penalized loss for one player.

    Runs accelerated proximal gradient from zero with backtracking (or the
    fixed analytic step) and an adaptive restart: whenever the accelerated
    candidate would increase the objective, momentum resets and a plain
    proximal step from the incumbent is taken instead, so accepted iterates
    never increase the objective. Stops when the proximal-gradient mapping
    norm falls below the tolerance; otherwise returns with ``converged``
    False after ``max_iterations``.
    """
    if config.lam is None:
        raise InvalidInputError("config.lam must be resolved before fitting")
    lay = GroupLayout(i, data.strategy_counts)
    enc = _PlayerData(data, lay)
    lam = config.lam
    skip0 = config.exempt_intercept

    x = np.zeros(lay.dim)
    y = x
    t = 1.0
    fx = enc.loss(x) + lam * _penalty(x, lay, skip0)
    step = 1.0 if config.step_rule == "backtracking" else 1.0 / gradient_lipschitz_bound(
        lay.num_groups
    )
    iterations = 0
    map_norm = np.inf
    converged = False
    trace = [fx] if record_objectives else None

    def prox_step(point, f_point, g, s):
        """Backtrack from ``point``; return (next, its smooth loss, step, mapping norm)."""
        while True:
            z = _prox_flat(point - s * g, lay, s * lam, skip0)
            diff = z - point
            fz_smooth = enc.loss(z)
            if config.step_rule == "fixed":
                break
            bound = f_point + g @ diff + diff @ diff / (2.0 * s) + 1e-12
            if fz_smooth <= bound or s < 1e-18:
                break
            s *= 0.5
        return z, fz_smooth, s, float(np.linalg.norm(diff) / s)

    for iterations in range(1, config.max_iterations + 1):
        fy, g = enc.loss_grad(y)
        z, fz_smooth, step, map_norm = prox_step(y, fy, g, step)
        fz = fz_smooth + lam * _penalty(z, lay, skip0)
        if fz > fx + 1e-12:
            # Momentum overshot: restart from the incumbent.
            t = 1.0
            fx_smooth, g = enc.loss_grad(x)
            z, fz_smooth, step, map_norm = prox_step(x, fx_smooth, g, step)
            fz = fz_smooth + lam * _penalty(z, lay, skip0)
        x_prev, x, fx = x, z, fz
        if trace is not None:
            trace.append(fx)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        t = t_next
        if map_norm <= config.tolerance:
            converged = True
            break

    return FitResult(
        params=GroupedVector(lay, x),
        objective=fx,
        iterations=iterations,
        grad_map_norm=map_norm,
        converged=converged,
        objectives=tuple(trace) if trace is not None else None,
    )


def fit_game(data: Dataset, config: LearnerConfig, threads: int = 1) -> LearnedModel:
    """Fit every player independently and assemble the learned game.

    A pair group proposes an edge when its norm exceeds
    ``config.edge_threshold`` times the player's largest group norm; the
    rebuilt game keeps exactly those matrices.
    """
    p = data.num_players
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda i: fit_player(data, i, config), range(p)))
    else:
        results = [fit_player(data, i, config) for i in range(p)]

    params = []
    edges = set()
    individual = []
    pairs = {}
    diags = []
    for i, res in enumerate(results):
        theta = res.params
        lay = theta.layout
        norms = theta.group_norms()
        maxn = float(norms.max())
        tau = config.edge_threshold * maxn if maxn > 0 else 0.0
        individual.append(theta.group(0).copy())
        for g in range(1, lay.num_groups):
            if norms[g] > tau:
                j = lay.group_player(g)
                edges.add((i, j))
                pairs[(i, j)] = lay.matrix_view(theta.values, g).copy()
        params.append(theta)
        diags.append(
            FitDiagnostics(
                objective=res.objective,
                iterations=res.iterations,
                grad_map_norm=res.grad_map_norm,
                converged=res.converged,
                group_norms=tuple(float(v) for v in norms),
            )
        )
    game = PolymatrixGame(data.strategy_counts, individual, pairs)
    return LearnedModel(
        strategy_counts=data.strategy_counts,
        params=tuple(params),
        edges=frozenset(edges),
        game=game,
        diagnostics=tuple(diags),
        config=config,
    )


# ---------------------------------------------------------------------------
# Theory schedules.
# ---------------------------------------------------------------------------


def lambda_schedule(n: int, p: int, d: int, config: LearnerConfig) -> float:
    """Penalty weight matching the sample size and assumed mismatch level."""
    if n < 1 or p < 1 or d < 0:
        raise InvalidInputError("n, p must be positive and d nonnegative")
    return 2.0 * (config.nu + math.sqrt((2.0 / n) * math.log(2.0 * p * (d + 1) / config.delta)))


def sample_schedule(p: int, d: int, m: int, c_min: float, config: LearnerConfig) -> int:
    """Sample count sufficient for the recovery guarantee, given a curvature estimate."""
    if p < 1 or d < 0 or m < 1:
        raise InvalidInputError("p, m must be positive and d nonnegative")
    if c_min <= 0:
        raise InvalidInputError(f"curvature estimate must be positive, got {c_min}")
    margin = c_min / (36.0 * m * m * (d + 1) ** 2) - config.nu
    if margin <= 0:
        raise ScheduleInfeasibleError(
            f"assumed mismatch nu={config.nu} is at least the curvature margin "
            f"{c_min / (36.0 * m * m * (d + 1) ** 2)}; the schedule has no solution"
        )
    n1 = (2.0 / margin**2) * math.log(2.0 * p * (d + 1) / config.delta)
    n2 = (8.0 * (d + 1) / c_min) * math.log(m * (1 + d * m) / config.delta)
    return max(1, math.ceil(max(n1, n2)))


def theorem_epsilon(lam: float, d_i: int, c_min: float) -> float:
    """Equilibrium slack implied by the recovery analysis for one player."""
    return 48.0 * (d_i + 1) * lam / c_min
