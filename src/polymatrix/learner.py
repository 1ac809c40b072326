"""Group-sparse multinomial logistic estimation of per-player payoffs.

Each player's parameters minimize the empirical softmax loss of its own
strategy given everyone else's, plus a penalty summing the 2-norms of the
parameter groups. The penalty's proximal operator zeroes whole groups, so
the fitted sparsity pattern directly proposes the player's in-neighbors.

The solver is an accelerated proximal gradient method with backtracking
line search and an objective-based adaptive restart that keeps accepted
iterates non-increasing. It runs on a working set ``S`` of groups: with
every other group at zero, the loss reads only the columns of the player
and of ``S``'s players, so each round fits the design projected onto those
columns (its rows merged, at most ``m^(|S|+1)`` of them), then certifies
the result with one loss and gradient on the full design and adds the
groups that violate optimality. Everything here is deterministic given
its inputs. Players are fitted one after another: each fit is short numpy
work that holds the GIL, so a thread pool made ``fit_game`` slower, not
faster.

A dataset is encoded once for all players (distinct rows, weights, one-hot
design matrix ``X``): each loss is one product ``W X^T``, each gradient one more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, ScheduleInfeasibleError
from .games import GroupLayout, GroupedVector, PolymatrixGame, unpack_parameters, validate_profile
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
        # Written so that NaN fails every test; an infinite edge threshold drops all edges.
        if self.lam is not None and not 0 <= self.lam < math.inf:
            raise InvalidInputError(f"lambda must be finite and nonnegative, got {self.lam}")
        if not 0 <= self.nu < math.inf:
            raise InvalidInputError(f"nu must be finite and nonnegative, got {self.nu}")
        if not 0 < self.delta < 1:
            raise InvalidInputError(f"delta must lie in (0, 1), got {self.delta}")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        if not 0 < self.tolerance < math.inf:
            raise InvalidInputError(f"tolerance must be finite and positive, got {self.tolerance}")
        if not self.edge_threshold >= 0:
            raise InvalidInputError(f"edge_threshold must be nonnegative, got {self.edge_threshold}")
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


class _Design:
    """A dataset encoded once, for every player.

    ``rows`` are the distinct profiles and ``weights / total`` their shares
    of the data; ``x`` is the read-only design matrix
    ``[1 | onehot(x_0) | ... | onehot(x_{p-1})]``, one row per distinct
    profile, with player ``j``'s block starting at column ``starts[j]``.
    """

    def __init__(self, strategy_counts, rows: np.ndarray, weights: np.ndarray, total: float):
        self.strategy_counts = strategy_counts
        self.rows = rows
        self.weights = weights
        self.total = total
        counts = np.asarray(strategy_counts)
        self.starts = 1 + np.concatenate([[0], np.cumsum(counts)[:-1]])
        # Column-major: both products then run several times faster.
        x = np.zeros((len(rows), 1 + int(counts.sum())), order="F")
        x[:, 0] = 1.0
        x[np.arange(len(rows))[:, None], self.starts + rows] = 1.0
        x.setflags(write=False)
        self.x = x


def _encode(counts, profiles: np.ndarray, weights: np.ndarray, total: float = None) -> _Design:
    """Design of the distinct rows of ``profiles`` in lexicographic order, weights summed.

    ``total`` defaults to the weight sum; :func:`fit_game` encodes a dataset
    once over all columns, and :func:`_project` re-encodes a column subset.
    """
    order = np.lexsort(profiles.T[::-1])
    ordered = profiles[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    w = np.bincount(np.cumsum(first) - 1, weights=weights[order].astype(np.float64))
    return _Design(tuple(counts), ordered[first], w, float(w.sum()) if total is None else total)


def _project(design: _Design, players: list) -> _Design:
    """The design seen through the columns of ``players`` (ascending) alone.

    Rows that agree on those columns merge and their weights add up; the
    total stays the full one, so a loss that reads only these columns takes
    the same value on either design.
    """
    if len(players) == len(design.strategy_counts):
        return design
    counts = [design.strategy_counts[j] for j in players]
    return _encode(counts, design.rows[:, players], design.weights, design.total)


class _PlayerData:
    """One player's view of a shared :class:`_Design`.

    The parameters act as an ``m_i x D`` matrix ``W`` over the design
    columns, with the own block held at 0, so the logits are ``W X^T`` and
    the loss gradient is ``Delta X``. ``index`` maps the layout order into
    ``W.ravel()``.
    """

    def __init__(self, data, layout: GroupLayout):
        design = data if isinstance(data, _Design) else _encode(
            data.strategy_counts, data.profiles, data.weights
        )
        if design.strategy_counts != layout.counts:
            raise InvalidInputError("dataset and layout disagree on strategy counts")
        self.design = design
        mi, width = self.shape = (layout.counts[layout.player], design.x.shape[1])
        cols = [[0]] + [design.starts[j] + np.arange(layout.counts[j]) for j in layout.others]
        self.index = np.concatenate([(np.arange(mi)[:, None] * width + c).ravel() for c in cols])
        k = design.rows.shape[0]
        # Flat position of each row's own-strategy entry in an m_i x k array.
        self.own = design.rows[:, layout.player] * k + np.arange(k)

    def _softmax(self, theta: np.ndarray):
        """The loss, and the shifted exponentials with their column sums."""
        w = np.zeros(self.shape[0] * self.shape[1])
        w[self.index] = theta
        logits = w.reshape(self.shape) @ self.design.x.T
        mx = logits.max(axis=0)
        ex = np.exp(logits - mx)
        denom = ex.sum(axis=0)
        lse = mx + np.log(denom)
        loss = float(np.dot(self.design.weights, lse - logits.take(self.own)) / self.design.total)
        return loss, ex, denom

    def loss(self, theta: np.ndarray) -> float:
        return self._softmax(theta)[0]

    def loss_grad(self, theta: np.ndarray):
        loss, ex, denom = self._softmax(theta)
        delta = ex / denom
        delta.reshape(-1)[self.own] -= 1.0
        delta *= self.design.weights / self.design.total
        return loss, (delta @ self.design.x).ravel()[self.index]

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """Weighted mean of the per-row loss Hessians, in layout order.

        Block ``(a, b)`` of the ``W``-space Hessian is ``X^T diag(s) X`` with
        ``s = w * sigma_a * ([a == b] - sigma_b)``.
        """
        _, ex, denom = self._softmax(theta)
        sigma = ex / denom
        x = self.design.x
        w = self.design.weights / self.design.total
        mi, width = self.shape
        out = np.empty((mi, width, mi, width))
        for a in range(mi):
            for b in range(mi):
                s = sigma[a] * (float(a == b) - sigma[b]) * w
                out[a, :, b, :] = (x.T * s) @ x
        return out.reshape(mi * width, mi * width)[np.ix_(self.index, self.index)]


def softmax_sigma(theta: GroupedVector, x, a: int) -> float:
    """Model probability that the owner plays ``a`` given the context in ``x``."""
    x = validate_profile(theta.layout.counts, x)
    mi = theta.layout.counts[theta.layout.player]
    if not 0 <= a < mi:
        raise InvalidInputError(f"strategy {a} out of range")
    logits = _strategy_payoffs(*_vector_terms(theta), np.array([x]))[0]
    logits -= logits.max()
    ex = np.exp(logits)
    return float(ex[a] / ex.sum())


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


def hessian(
    theta: GroupedVector, data: Dataset, dim_cap: int = DEFAULT_HESSIAN_DIM_CAP
) -> np.ndarray:
    """Weighted mean of per-sample loss Hessians (dense, for diagnostics)."""
    if theta.layout.dim > dim_cap:
        raise InvalidInputError(f"Hessian dimension {theta.layout.dim} exceeds the cap of {dim_cap}")
    return _PlayerData(data, theta.layout).hessian(theta.values)


def population_hessian(
    theta: GroupedVector, pmf: dict, dim_cap: int = DEFAULT_HESSIAN_DIM_CAP
) -> np.ndarray:
    """Exact expectation of the loss Hessian under a profile distribution."""
    if theta.layout.dim > dim_cap:
        raise InvalidInputError(f"Hessian dimension {theta.layout.dim} exceeds the cap of {dim_cap}")
    counts = theta.layout.counts
    rows = np.array([validate_profile(counts, x) for x in pmf], dtype=np.int64)
    probs = np.fromiter(pmf.values(), dtype=np.float64, count=len(pmf))
    design = _Design(counts, rows.reshape(-1, len(counts)), probs, 1.0)
    return _PlayerData(design, theta.layout).hessian(theta.values)


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


def _group_index(layout: GroupLayout, groups) -> np.ndarray:
    """Positions of the given groups' entries, in layout order."""
    return np.concatenate([np.arange(layout.dim)[layout.group_slice(g)] for g in groups])


def _restrict(matrix: np.ndarray, layout: GroupLayout, groups) -> np.ndarray:
    idx = _group_index(layout, groups)
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


def _group_norms(values: np.ndarray, layout: GroupLayout) -> np.ndarray:
    """2-norm of every group of ``values``: one reduceat over the group offsets."""
    return np.sqrt(np.add.reduceat(values * values, layout.offsets[:-1]))


def _prox_flat(values: np.ndarray, layout: GroupLayout, tlam: float, skip0: bool) -> np.ndarray:
    norms = _group_norms(values, layout)
    keep = norms > tlam
    shrink = np.zeros_like(norms)
    shrink[keep] = 1.0 - tlam / norms[keep]
    if skip0:
        keep[0], shrink[0] = True, 1.0
    sizes = layout.sizes
    # Dropped groups become +0.0; multiplying by a zero factor could leave -0.0.
    return np.where(np.repeat(keep, sizes), values * np.repeat(shrink, sizes), 0.0)


def group_prox(v: GroupedVector, tlam: float, exempt_intercept: bool = False) -> GroupedVector:
    """Groupwise shrinkage: each group scales toward zero and snaps to exact zero."""
    if not tlam >= 0:
        raise InvalidInputError(f"prox threshold must be nonnegative, got {tlam}")
    return GroupedVector(v.layout, _prox_flat(v.values, v.layout, tlam, exempt_intercept))


def _penalty(values: np.ndarray, layout: GroupLayout, skip0: bool) -> float:
    return float(_group_norms(values, layout)[1 if skip0 else 0:].sum())


def gradient_lipschitz_bound(num_groups: int) -> float:
    """Analytic step bound: the loss Hessian's largest eigenvalue never exceeds this."""
    return float(num_groups)


@dataclass(frozen=True)
class FitResult:
    """One player's fit. ``grad_map_norm`` is the full problem's proximal-gradient
    mapping norm at ``params``, taken at the solver's final ``step``."""

    params: GroupedVector
    objective: float
    iterations: int
    grad_map_norm: float
    converged: bool
    objectives: tuple = None
    step: float = None


def _apg(enc, lay, x, fx, step, budget, config, trace):
    """Accelerated proximal gradient on one problem, warm-started at ``x`` (objective ``fx``).

    Stops when the mapping norm at the momentum point falls to the tolerance
    or after ``budget`` iterations; returns the last accepted iterate, its
    objective, the step reached and the iterations taken.
    """
    lam, skip0 = config.lam, config.exempt_intercept
    y = x
    t = 1.0

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

    for iterations in range(1, budget + 1):
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
            break
    return x, fx, step, iterations


def _working_problem(full: _PlayerData, lay: GroupLayout, work: list) -> tuple:
    """The player's problem on the groups ``work`` (ascending), all others held at zero.

    Returns its data (the design projected onto the player's and the groups'
    players), its layout, and where its parameters sit in ``lay``.
    """
    players = sorted({lay.player, *(lay.group_player(g) for g in work)})
    sub_lay = GroupLayout(players.index(lay.player), [lay.counts[j] for j in players])
    enc = _PlayerData(_project(full.design, players), sub_lay)
    return enc, sub_lay, _group_index(lay, work)


def fit_player(
    data: Dataset, i: int, config: LearnerConfig, record_objectives: bool = False
) -> FitResult:
    """Minimize the penalized loss for one player on a growing working set of groups.

    The working set starts as group 0. Each round projects the design onto
    the columns of player ``i`` and of the set's players, merges the rows
    that agree there (at most ``m^(|S|+1)`` of them) and runs accelerated
    proximal gradient on that small problem, warm-started: backtracking (or
    the fixed analytic step) with an adaptive restart, so accepted iterates
    never increase the objective. One loss and gradient on the full design
    then certify the result: the round adds every group outside the set
    whose proximal step is nonzero (``||grad_g|| > lam``). The fit converges
    when the full mapping norm is at most the tolerance and no group is
    added; ``max_iterations`` bounds the iterations of all rounds together,
    after which ``converged`` is False. ``objective`` and ``grad_map_norm``
    are the full problem's at the returned parameters. ``data`` may be
    :func:`fit_game`'s shared encoding.
    """
    if config.lam is None:
        raise InvalidInputError("config.lam must be resolved before fitting")
    lay = GroupLayout(i, data.strategy_counts)
    full = _PlayerData(data, lay)
    lam = config.lam
    skip0 = config.exempt_intercept

    x = np.zeros(lay.dim)
    step = 1.0 if config.step_rule == "backtracking" else 1.0 / gradient_lipschitz_bound(
        lay.num_groups
    )
    work = [0]
    enc, sub_lay, cols = _working_problem(full, lay, work)
    fx = enc.loss(x[cols]) + lam * _penalty(x[cols], sub_lay, skip0)
    trace = [fx] if record_objectives else None
    used = 0
    while True:
        xs, fx, step, k = _apg(
            enc, sub_lay, x[cols], fx, step, config.max_iterations - used, config, trace
        )
        used += k
        x = np.zeros(lay.dim)
        x[cols] = xs

        # Certify on the full problem; a group outside the set is a violator
        # exactly when its proximal step leaves zero.
        loss, g = full.loss_grad(x)
        z = _prox_flat(x - step * g, lay, step * lam, skip0)
        map_norm = float(np.linalg.norm(z - x) / step)
        grow = _group_norms(z, lay) > 0
        grow[work] = False
        converged = map_norm <= config.tolerance and not grow.any()
        if converged or used >= config.max_iterations:
            break
        if grow.any():
            work = sorted(set(work).union(np.flatnonzero(grow).tolist()))
            enc, sub_lay, cols = _working_problem(full, lay, work)

    return FitResult(
        params=GroupedVector(lay, x),
        objective=loss + lam * _penalty(x, lay, skip0),
        iterations=used,
        grad_map_norm=map_norm,
        converged=converged,
        objectives=tuple(trace) if trace is not None else None,
        step=step,
    )


def fit_game(data: Dataset, config: LearnerConfig, threads: int = 1) -> LearnedModel:
    """Fit every player independently, in order, and assemble the learned game.

    A pair group proposes an edge when its norm exceeds
    ``config.edge_threshold`` times the player's largest group norm; the
    rebuilt game keeps exactly those matrices. ``threads`` is accepted and
    ignored.
    """
    design = _encode(data.strategy_counts, data.profiles, data.weights)
    results = [fit_player(design, i, config) for i in range(data.num_players)]

    individual = []
    pairs = {}
    diags = []
    for res in results:
        norms = res.params.group_norms()
        maxn = float(norms.max())
        tau = config.edge_threshold * maxn if maxn > 0 else 0.0
        ind, kept = unpack_parameters(res.params, tau)
        individual.append(ind)
        pairs.update(kept)
        diags.append(
            FitDiagnostics(
                objective=res.objective,
                iterations=res.iterations,
                grad_map_norm=res.grad_map_norm,
                converged=res.converged,
                group_norms=tuple(float(v) for v in norms),
            )
        )
    return LearnedModel(
        strategy_counts=data.strategy_counts,
        params=tuple(res.params for res in results),
        edges=frozenset(pairs),
        game=PolymatrixGame(data.strategy_counts, individual, pairs),
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
