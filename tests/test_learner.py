import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from polymatrix import (
    Dataset,
    GlobalNoise,
    GroupLayout,
    GroupedVector,
    InvalidInputError,
    LearnerConfig,
    LocalNoise,
    ScheduleInfeasibleError,
    diagnostics_min_eigen,
    empirical_loss,
    enumerate_psne,
    fit_game,
    fit_player,
    gradient,
    group_prox,
    hessian,
    lambda_schedule,
    pack_parameters,
    pmf_table,
    sample_dataset,
    sample_loss,
    sample_schedule,
    softmax_sigma,
    theorem_epsilon,
    unpack_parameters,
)
from polymatrix import learner
from polymatrix.ensembles import RandomGameSpec, random_game
from polymatrix.learner import _PlayerData, _prox_flat, gradient_lipschitz_bound, support_groups
from polymatrix.fileio import write_learned_model

from helpers import finite_diff_gradient, oracle_empirical_loss, oracle_gradient


def random_theta(rng, i, counts, scale=1.0):
    lay = GroupLayout(i, counts)
    return GroupedVector(lay, rng.normal(0, scale, size=lay.dim))


def random_data(rng, counts, n):
    rows = np.column_stack([rng.integers(0, m, size=n) for m in counts])
    return Dataset(counts, rows)


def nonempty_random_game(seed, p=3, d=1, m=3):
    for offset in range(50):
        game = random_game(RandomGameSpec(p=p, d=d, m=m, seed=seed + offset))
        if len(enumerate_psne(game)) > 0:
            return game
    raise AssertionError("no game with equilibria found")


# ---------------------------------------------------------------------------
# Softmax and per-sample loss.
# ---------------------------------------------------------------------------


def test_softmax_uniform_at_zero():
    lay = GroupLayout(0, (3, 2))
    theta = GroupedVector(lay, np.zeros(lay.dim))
    for a in range(3):
        assert softmax_sigma(theta, (0, 1), a) == pytest.approx(1.0 / 3.0)


def test_softmax_normalizes():
    rng = np.random.default_rng(40)
    for _ in range(10):
        counts = (3, 2, 4)
        theta = random_theta(rng, 1, counts, scale=3.0)
        x = tuple(int(rng.integers(0, m)) for m in counts)
        total = sum(softmax_sigma(theta, x, a) for a in range(counts[1]))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_softmax_matches_naive_ratio():
    rng = np.random.default_rng(41)
    counts = (2, 3)
    for _ in range(10):
        theta = random_theta(rng, 0, counts, scale=0.3)
        x = (0, int(rng.integers(0, 3)))
        lay = theta.layout
        logits = [float(theta.values @ lay.feature(a, x)) for a in range(2)]
        naive = [math.exp(v) / sum(math.exp(u) for u in logits) for v in logits]
        for a in range(2):
            assert softmax_sigma(theta, x, a) == pytest.approx(naive[a], abs=1e-12)


def test_sample_loss_uniform_and_identity():
    lay = GroupLayout(0, (4, 2))
    theta = GroupedVector(lay, np.zeros(lay.dim))
    assert sample_loss(theta, (2, 1)) == pytest.approx(math.log(4))
    rng = np.random.default_rng(42)
    for _ in range(10):
        th = random_theta(rng, 0, (4, 2), scale=2.0)
        x = (int(rng.integers(0, 4)), int(rng.integers(0, 2)))
        assert sample_loss(th, x) == pytest.approx(
            -math.log(softmax_sigma(th, x, x[0])), abs=1e-12
        )


def test_sample_loss_vanishes_at_large_margin():
    lay = GroupLayout(0, (3,))
    values = np.array([40.0, 0.0, 0.0])
    theta = GroupedVector(lay, values)
    assert sample_loss(theta, (0,)) < 1e-6
    assert sample_loss(theta, (0,)) >= 0.0


# ---------------------------------------------------------------------------
# Empirical loss, gradient, Hessian.
# ---------------------------------------------------------------------------


def test_empirical_loss_at_zero_is_log_m():
    rng = np.random.default_rng(43)
    counts = (3, 2, 2)
    data = random_data(rng, counts, 50)
    lay = GroupLayout(0, counts)
    theta = GroupedVector(lay, np.zeros(lay.dim))
    assert empirical_loss(theta, data) == math.log(3)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(20):
        counts = tuple(int(rng.integers(2, 4)) for _ in range(3))
        i = int(rng.integers(0, 3))
        data = random_data(rng, counts, 30)
        theta = random_theta(rng, i, counts)
        lay = theta.layout

        def loss_at(values):
            return empirical_loss(GroupedVector(lay, values), data)

        fd = finite_diff_gradient(loss_at, np.array(theta.values), h=1e-5)
        an = gradient(theta, data).values
        rel = np.abs(fd - an) / np.maximum(1.0, np.abs(an))
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-5


def test_gradient_near_zero_at_interpolating_parameters():
    # Every context makes the observed strategy the runaway argmax.
    counts = (2, 2)
    lay = GroupLayout(0, counts)
    values = np.zeros(lay.dim)
    values[0] = 50.0  # strategy 0 dominates regardless of context
    theta = GroupedVector(lay, values)
    rows = np.array([[0, b] for b in (0, 1) for _ in range(5)])
    data = Dataset(counts, rows)
    g = gradient(theta, data)
    assert np.linalg.norm(g.values) < 1e-6


def test_single_sample_gradient_group_norm_bound():
    rng = np.random.default_rng(45)
    for _ in range(50):
        counts = tuple(int(rng.integers(2, 4)) for _ in range(3))
        i = int(rng.integers(0, 3))
        theta = random_theta(rng, i, counts, scale=2.0)
        row = np.array([[rng.integers(0, m) for m in counts]])
        g = gradient(theta, Dataset(counts, row))
        assert g.norm_inf2() <= math.sqrt(2.0) + 1e-12


def test_loss_and_gradient_match_per_sample_oracle_on_weighted_data():
    rng = np.random.default_rng(58)
    for trial in range(12):
        counts = tuple(int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 5))))
        distinct = random_data(rng, counts, 6).profiles
        rows = distinct[rng.integers(0, len(distinct), size=25)]
        weights = rng.integers(1, 6, size=len(rows)) if trial % 2 else None
        data = Dataset(counts, rows, weights)
        theta = random_theta(rng, trial % len(counts), counts, scale=1.5)
        want = oracle_empirical_loss(theta, data)
        assert abs(empirical_loss(theta, data) - want) <= 1e-12 * abs(want)
        want = oracle_gradient(theta, data)
        assert np.abs(gradient(theta, data).values - want).max() <= 1e-12 * np.abs(want).max()


def test_hessian_hand_value_single_player():
    lay = GroupLayout(0, (2,))
    theta = GroupedVector(lay, np.zeros(2))
    data = Dataset((2,), np.array([[0]]))
    h = hessian(theta, data)
    assert np.allclose(h, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_hessian_psd_and_symmetric():
    rng = np.random.default_rng(46)
    for _ in range(10):
        counts = (2, 3, 2)
        i = int(rng.integers(0, 3))
        theta = random_theta(rng, i, counts)
        data = random_data(rng, counts, 20)
        h = hessian(theta, data)
        assert np.allclose(h, h.T, atol=1e-12)
        assert np.linalg.eigvalsh(h).min() >= -1e-9


def test_hessian_matches_finite_difference_of_gradient():
    rng = np.random.default_rng(47)
    counts = (2, 2, 2)
    i = 1
    theta = random_theta(rng, i, counts)
    data = random_data(rng, counts, 15)
    lay = theta.layout
    h = hessian(theta, data)
    step = 1e-5
    for k in range(lay.dim):
        e = np.zeros(lay.dim)
        e[k] = step
        gp = gradient(GroupedVector(lay, theta.values + e), data).values
        gm = gradient(GroupedVector(lay, theta.values - e), data).values
        fd = (gp - gm) / (2 * step)
        assert np.abs(fd - h[:, k]).max() <= 1e-4


def test_hessian_support_max_eigenvalue_bound():
    rng = np.random.default_rng(48)
    for trial in range(20):
        game = nonempty_random_game(800 + trial)
        i = int(rng.integers(0, 3))
        theta = pack_parameters(game, i)
        data = sample_dataset(game, LocalNoise.uniform(3, 0.7), 40, seed=trial)
        h = hessian(theta, data)
        groups = support_groups(theta)
        lay = theta.layout
        idx = np.concatenate(
            [np.arange(lay.dim)[lay.group_slice(g)] for g in groups]
        )
        restricted = h[np.ix_(idx, idx)]
        bound = game.degree(i) + 1 + 1e-9
        assert np.linalg.eigvalsh(restricted).max() <= bound


def test_convexity_along_random_lines():
    rng = np.random.default_rng(49)
    counts = (3, 2)
    data = random_data(rng, counts, 25)
    lay = GroupLayout(0, counts)
    for _ in range(10):
        base = rng.normal(size=lay.dim)
        direction = rng.normal(size=lay.dim)
        ts = np.linspace(-2, 2, 9)
        vals = [
            empirical_loss(GroupedVector(lay, base + t * direction), data)
            for t in ts
        ]
        second = np.diff(vals, 2)
        assert second.min() >= -1e-8


# ---------------------------------------------------------------------------
# Proximal operator.
# ---------------------------------------------------------------------------


def test_prox_fixed_point_and_shrinkage():
    lay = GroupLayout(0, (2, 2))
    zero = GroupedVector(lay, np.zeros(lay.dim))
    assert not group_prox(zero, 1.0).values.any()
    vals = np.array([0.3, 0.4, 0.0, 0.0, 0.0, 0.0])
    out = group_prox(GroupedVector(lay, vals), 0.5)
    assert not out.values.any()  # group norm 0.5 <= threshold


def test_prox_drops_to_positive_zero_and_rejects_bad_thresholds():
    lay = GroupLayout(0, (2, 2))
    vals = np.array([-0.3, -0.4, -0.1, 0.0, -0.2, 0.0])
    out = group_prox(GroupedVector(lay, vals), 0.6)
    assert not out.values.any() and not np.signbit(out.values).any()
    kept = group_prox(GroupedVector(lay, vals), 0.6, exempt_intercept=True)
    assert np.array_equal(kept.values, [-0.3, -0.4, 0.0, 0.0, 0.0, 0.0])
    for bad in (-1.0, math.nan):
        with pytest.raises(InvalidInputError, match=str(bad)):
            group_prox(GroupedVector(lay, vals), bad)


def test_prox_hand_value():
    lay = GroupLayout(0, (2,))
    out = group_prox(GroupedVector(lay, np.array([3.0, 4.0])), 1.0)
    assert np.allclose(out.values, [2.4, 3.2], atol=1e-15)


def test_prox_matches_numeric_minimization():
    rng = np.random.default_rng(50)
    for _ in range(100):
        size = int(rng.integers(1, 6))
        v = rng.normal(0, 2, size=size)
        tlam = float(rng.uniform(0, 3))

        def objective(u):
            return 0.5 * np.sum((u - v) ** 2) + tlam * np.linalg.norm(u)

        res = minimize(objective, v, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        norm = np.linalg.norm(v)
        want = np.zeros(size) if norm <= tlam else (1 - tlam / norm) * v
        assert objective(want) <= res.fun + 1e-6
        assert np.abs(want - res.x).max() <= 1e-3 or objective(want) < res.fun


def test_prox_subgradient_optimality():
    rng = np.random.default_rng(51)
    lay = GroupLayout(0, (3, 3))
    for _ in range(50):
        v = rng.normal(0, 1, size=lay.dim)
        tlam = float(rng.uniform(0, 2))
        u = _prox_flat(v, lay, tlam, skip0=False)
        for g in range(lay.num_groups):
            sl = lay.group_slice(g)
            ug, vg = u[sl], v[sl]
            norm = np.linalg.norm(ug)
            if norm > 0:
                resid = ug - vg + tlam * ug / norm
                assert np.abs(resid).max() <= 1e-8
            else:
                assert np.linalg.norm(vg) <= tlam + 1e-8


def test_payoff_transfer_bound():
    rng = np.random.default_rng(52)
    violations = 0
    for _ in range(1000):
        p = int(rng.integers(2, 4))
        counts = tuple(int(rng.integers(2, 4)) for _ in range(p))
        i = int(rng.integers(0, p))
        lay = GroupLayout(i, counts)
        delta = rng.normal(0, 2, size=lay.dim)
        a = int(rng.integers(0, counts[i]))
        x = tuple(int(rng.integers(0, m)) for m in counts)
        gap = abs(float(delta @ lay.feature(a, x)))
        norm_12 = sum(
            np.linalg.norm(delta[lay.group_slice(g)]) for g in range(lay.num_groups)
        )
        if gap > norm_12:
            violations += 1
    assert violations == 0


def test_block_psd_max_eigenvalue_lemma():
    rng = np.random.default_rng(53)
    for _ in range(100):
        dim = int(rng.integers(2, 12))
        g = rng.normal(size=(dim, dim))
        x = g.T @ g
        splits = sorted(rng.choice(np.arange(1, dim), size=min(3, dim - 1), replace=False)) if dim > 1 else []
        bounds = [0] + list(splits) + [dim]
        total = sum(
            np.linalg.eigvalsh(x[a:b, a:b]).max()
            for a, b in zip(bounds[:-1], bounds[1:])
        )
        assert np.linalg.eigvalsh(x).max() <= total + 1e-9


# ---------------------------------------------------------------------------
# Fitting.
# ---------------------------------------------------------------------------


def test_fit_player_total_shrinkage_at_large_lambda():
    rng = np.random.default_rng(54)
    counts = (3, 3)
    data = random_data(rng, counts, 60)
    config = LearnerConfig().resolved(2.0)
    res = fit_player(data, 0, config)
    assert not res.params.values.any()
    assert res.converged
    # Zero beats any coordinate perturbation of the regularized objective.
    lay = res.params.layout
    base = res.objective
    for k in range(lay.dim):
        e = np.zeros(lay.dim)
        e[k] = 0.25
        perturbed = GroupedVector(lay, e)
        obj = empirical_loss(perturbed, data) + 2.0 * perturbed.norm_12()
        assert base <= obj + 1e-12


def test_fit_player_exempt_intercept_solves_marginal():
    rng = np.random.default_rng(55)
    counts = (3, 2)
    rows = np.column_stack([rng.choice([0, 1, 2], size=200, p=[0.5, 0.3, 0.2]),
                            rng.integers(0, 2, size=200)])
    data = Dataset(counts, rows)
    config = LearnerConfig(exempt_intercept=True, tolerance=1e-10).resolved(2.0)
    res = fit_player(data, 0, config)
    lay = res.params.layout
    assert not res.params.values[lay.group_slice(1)].any()
    freq = np.bincount(rows[:, 0], minlength=3) / 200
    probs = [softmax_sigma(res.params, (0, 0), a) for a in range(3)]
    assert np.abs(np.asarray(probs) - freq).max() <= 1e-6


def test_fit_player_beats_generating_parameters():
    game = nonempty_random_game(900)
    data = sample_dataset(game, LocalNoise.uniform(3, 0.8), 400, seed=5)
    config = LearnerConfig(tolerance=1e-9).resolved(0.05)
    for i in range(3):
        res = fit_player(data, i, config)
        theta_true = pack_parameters(game, i)
        true_obj = empirical_loss(theta_true, data) + 0.05 * theta_true.norm_12()
        assert res.objective <= true_obj + 1e-6


def test_fit_player_matches_high_accuracy_oracle():
    rng = np.random.default_rng(56)
    counts = (2, 2)
    data = random_data(rng, counts, 40)
    lam = 0.1
    config = LearnerConfig(tolerance=1e-10, max_iterations=20000).resolved(lam)
    res = fit_player(data, 0, config)

    # Plain proximal descent with a conservative fixed step, run to high accuracy.
    lay = GroupLayout(0, counts)
    enc = _PlayerData(data, lay)
    step = 0.25
    x = np.zeros(lay.dim)
    for _ in range(200_000):
        _, g = enc.loss_grad(x)
        nxt = _prox_flat(x - step * g, lay, step * lam, skip0=False)
        if np.abs(nxt - x).max() < 1e-13:
            x = nxt
            break
        x = nxt
    oracle_obj = enc.loss(x) + lam * sum(
        np.linalg.norm(x[lay.group_slice(g)]) for g in range(lay.num_groups)
    )
    assert abs(res.objective - oracle_obj) <= 1e-6


def test_fit_player_objective_monotone():
    game = nonempty_random_game(901)
    data = sample_dataset(game, LocalNoise.uniform(3, 0.7), 300, seed=8)
    config = LearnerConfig().resolved(0.02)
    res = fit_player(data, 1, config, record_objectives=True)
    objs = np.asarray(res.objectives)
    assert (np.diff(objs) <= 1e-10).all()


def test_fit_player_fixed_step_rule():
    rng = np.random.default_rng(57)
    counts = (2, 2)
    data = random_data(rng, counts, 30)
    config = LearnerConfig(step_rule="fixed", max_iterations=5000).resolved(0.1)
    res = fit_player(data, 0, config)
    other = fit_player(data, 0, LearnerConfig(max_iterations=5000).resolved(0.1))
    assert res.objective == pytest.approx(other.objective, abs=1e-8)


def test_fit_game_recovers_equilibria_high_fidelity():
    game = nonempty_random_game(902)
    data = sample_dataset(game, LocalNoise.uniform(3, 0.99), 3000, seed=12)
    lam = lambda_schedule(data.n, 3, 1, LearnerConfig())
    model = fit_game(data, LearnerConfig().resolved(lam))
    assert enumerate_psne(model.game).profiles == enumerate_psne(game).profiles


def test_fit_game_infinite_threshold_drops_all_edges():
    game = nonempty_random_game(903)
    data = sample_dataset(game, LocalNoise.uniform(3, 0.8), 200, seed=3)
    model = fit_game(data, LearnerConfig(edge_threshold=np.inf).resolved(0.01))
    assert model.edges == frozenset()
    assert model.game.edges == frozenset()


def test_fit_game_deterministic_bytes():
    game = nonempty_random_game(904)
    data = sample_dataset(game, LocalNoise.uniform(3, 0.8), 250, seed=4)
    config = LearnerConfig().resolved(0.05)
    a = write_learned_model(fit_game(data, config))
    b = write_learned_model(fit_game(data, config))
    c = write_learned_model(fit_game(data, config, threads=3))
    assert a == b == c


def test_weighted_dataset_fits_like_its_expansion():
    game = nonempty_random_game(905)
    plain = sample_dataset(game, LocalNoise.uniform(3, 0.8), 300, seed=5)
    rows, counts = np.unique(plain.profiles, axis=0, return_counts=True)
    weighted = Dataset(plain.strategy_counts, rows, counts)
    expanded = np.repeat(rows, counts, axis=0)
    order = np.random.default_rng(6).permutation(len(expanded))
    shuffled = Dataset(plain.strategy_counts, expanded[order])
    config = LearnerConfig().resolved(0.05)
    want = write_learned_model(fit_game(weighted, config))
    assert write_learned_model(fit_game(shuffled, config)) == want


def test_fit_player_matches_fit_game_bit_for_bit():
    game = nonempty_random_game(906)
    rng = np.random.default_rng(7)
    data = sample_dataset(game, LocalNoise.uniform(3, 0.7), 200, seed=6)
    data = Dataset(data.strategy_counts, data.profiles, rng.integers(1, 4, size=len(data.profiles)))
    config = LearnerConfig().resolved(0.03)
    model = fit_game(data, config)
    for i in range(3):
        assert np.array_equal(fit_player(data, i, config).params.values, model.params[i].values)


def full_certificate(res, data, config):
    """The full problem's mapping norm at ``res.params`` and the full gradient.

    Rebuilt from the public :func:`gradient` and :func:`group_prox` on the
    whole dataset, at the step the fit reports.
    """
    theta = res.params
    g = gradient(theta, data)
    s = res.step
    moved = GroupedVector(theta.layout, theta.values - s * g.values)
    z = group_prox(moved, s * config.lam, config.exempt_intercept)
    return float(np.linalg.norm(z.values - theta.values) / s), g


@pytest.mark.parametrize("step_rule", ["backtracking", "fixed"])
@pytest.mark.parametrize("exempt", [False, True])
def test_fit_player_certificate_holds_on_the_full_problem(step_rule, exempt):
    # At a mapping norm of at most tol, a zero group's part of the mapping is
    # max(0, ||grad_g|| - lam), so its gradient norm may exceed lam by tol at most.
    rng = np.random.default_rng(59)
    for trial in range(6):
        game = nonempty_random_game(1300 + 7 * trial, p=4, d=2, m=3)
        data = sample_dataset(game, LocalNoise.uniform(4, 0.7), 300, seed=trial)
        if trial % 2:
            data = Dataset(data.strategy_counts, data.profiles,
                           rng.integers(1, 4, size=len(data.profiles)))
        lam = (0.01, 0.03, 0.1)[trial % 3]
        config = LearnerConfig(step_rule=step_rule, exempt_intercept=exempt).resolved(lam)
        for i in range(4):
            res = fit_player(data, i, config)
            norm, g = full_certificate(res, data, config)
            assert res.converged
            assert norm == pytest.approx(res.grad_map_norm, rel=1e-9, abs=1e-15)
            assert norm <= config.tolerance
            if step_rule == "fixed":
                assert res.step == 1.0 / gradient_lipschitz_bound(res.params.layout.num_groups)
            theta_norms = res.params.group_norms()
            grad_norms = g.group_norms()
            for grp in range(1 if exempt else 0, res.params.layout.num_groups):
                if theta_norms[grp] == 0:
                    assert grad_norms[grp] <= lam + config.tolerance
            if exempt:
                assert grad_norms[0] <= config.tolerance
            penalty = theta_norms[1 if exempt else 0:].sum()
            want = empirical_loss(res.params, data) + lam * penalty
            assert res.objective == pytest.approx(want, rel=1e-12)


def rounds_of(monkeypatch):
    """Record (budget, iterations taken) for every working-set round of a fit."""
    seen = []
    inner = learner._apg

    def recorded(enc, lay, x, fx, step, budget, config, trace):
        out = inner(enc, lay, x, fx, step, budget, config, trace)
        seen.append((lay.num_groups, budget, out[3]))
        return out

    monkeypatch.setattr(learner, "_apg", recorded)
    return seen


def growing_fit_data():
    # Player 2 at this lambda: the working set grows from {0} to 4 groups, then to all 5.
    game = random_game(RandomGameSpec(p=5, d=3, m=2, seed=27))
    return sample_dataset(game, GlobalNoise(0.5), 300, seed=27), 2, LearnerConfig().resolved(0.02)


def test_fit_player_working_set_grows_over_rounds_monotonically(monkeypatch):
    data, i, config = growing_fit_data()
    seen = rounds_of(monkeypatch)
    res = fit_player(data, i, config, record_objectives=True)
    sizes = [size for size, _, _ in seen]
    assert len(set(sizes)) >= 3 and sizes == sorted(sizes)
    assert res.converged
    assert res.iterations == sum(taken for _, _, taken in seen)
    objs = np.asarray(res.objectives)
    assert len(objs) == res.iterations + 1
    assert (np.diff(objs) <= 1e-10).all()
    assert res.objective <= objs[-1] + 1e-12


def test_fit_player_budget_spent_mid_round(monkeypatch):
    data, i, config = growing_fit_data()
    seen = rounds_of(monkeypatch)
    fit_player(data, i, config)
    first = seen[0][2]
    assert seen[1][2] > 1
    seen.clear()
    capped = replace(config, max_iterations=first + 1)
    res = fit_player(data, i, capped)
    # Round 2 gets the one iteration left and stops there, before it converges.
    assert [budget for _, budget, _ in seen] == [first + 1, 1]
    assert not res.converged
    assert res.iterations == first + 1 <= capped.max_iterations
    norm, _ = full_certificate(res, data, capped)
    assert norm == pytest.approx(res.grad_map_norm, rel=1e-9, abs=1e-15)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    p=st.integers(2, 5),
    m=st.integers(2, 3),
    n=st.integers(20, 400),
    lam=st.floats(0.005, 0.1),
    order=st.randoms(use_true_random=False),
)
def test_fit_game_commutes_with_player_permutation(seed, p, m, n, lam, order):
    # Renaming the players renames the fitted model. Measured over these 25
    # examples: equal supports, objectives within 2.3e-16 and parameters within
    # 2.3e-15 (only the summation order changes); asserted at 1e-12 and 1e-9.
    game = nonempty_random_game(seed, p=p, d=1, m=m)
    data = sample_dataset(game, GlobalNoise(0.6), n, seed=seed)
    perm = list(range(p))
    order.shuffle(perm)
    rows = np.empty_like(data.profiles)
    rows[:, perm] = data.profiles
    counts = [None] * p
    for j in range(p):
        counts[perm[j]] = data.strategy_counts[j]
    renamed = Dataset(counts, rows)
    config = LearnerConfig().resolved(lam)
    a, b = fit_game(data, config), fit_game(renamed, config)
    for i in range(p):
        fa, fb = a.diagnostics[i], b.diagnostics[perm[i]]
        assert fa.converged and fb.converged
        assert fa.objective == pytest.approx(fb.objective, rel=0, abs=1e-12)
        ind_a, pairs_a = unpack_parameters(a.params[i])
        ind_b, pairs_b = unpack_parameters(b.params[perm[i]])
        assert {(perm[x], perm[y]) for x, y in pairs_a} == set(pairs_b)
        assert np.abs(ind_a - ind_b).max() <= 1e-9
        for (x, y), mat in pairs_a.items():
            assert np.abs(mat - pairs_b[(perm[x], perm[y])]).max() <= 1e-9


@pytest.mark.parametrize(
    "field, value",
    [
        ("lam", math.nan), ("lam", math.inf), ("lam", -1.0),
        ("nu", math.nan), ("nu", math.inf),
        ("tolerance", math.nan), ("tolerance", math.inf), ("tolerance", 0.0),
        ("edge_threshold", math.nan), ("edge_threshold", -1.0),
    ],
)
def test_learner_config_rejects_non_finite_and_negative_values(field, value):
    with pytest.raises(InvalidInputError, match=str(value)):
        LearnerConfig(**{field: value})


def test_learner_config_rejects_nan_resolved_lambda_and_allows_infinite_threshold():
    with pytest.raises(InvalidInputError, match="nan"):
        LearnerConfig().resolved(float("nan"))
    assert LearnerConfig(edge_threshold=math.inf).edge_threshold == math.inf


# ---------------------------------------------------------------------------
# Schedules and curvature diagnostics.
# ---------------------------------------------------------------------------


def test_lambda_schedule_examples():
    config = LearnerConfig(nu=0.0, delta=0.01)
    n = 2 * math.log(2 * 5 * 3 / 0.01)
    assert lambda_schedule(round(n), 5, 2, config) == pytest.approx(2.0, rel=5e-3)
    big = lambda_schedule(10**9, 5, 2, config)
    assert big < 1e-3


def test_schedules_match_reimplementation_grid():
    nu = 1e-5
    for p in (3, 7):
        for d in (1, 2):
            for m in (2, 3):
                for delta in (0.01, 0.1):
                    config = LearnerConfig(nu=nu, delta=delta)
                    for n in (100, 10000):
                        want = 2 * (nu + math.sqrt(2.0 / n * math.log(2 * p * (d + 1) / delta)))
                        assert lambda_schedule(n, p, d, config) == pytest.approx(want, abs=1e-15)
                    c_min = 0.2
                    margin = c_min / (36 * m * m * (d + 1) ** 2) - nu
                    n1 = 2.0 / margin**2 * math.log(2 * p * (d + 1) / delta)
                    n2 = 8.0 * (d + 1) / c_min * math.log(m * (1 + d * m) / delta)
                    want_n = math.ceil(max(n1, n2))
                    assert sample_schedule(p, d, m, c_min, config) == want_n


def test_sample_schedule_infeasible_nu():
    config = LearnerConfig(nu=0.5)
    with pytest.raises(ScheduleInfeasibleError):
        sample_schedule(5, 2, 3, 0.1, config)


def test_theorem_epsilon_formula():
    assert theorem_epsilon(0.5, 2, 0.1) == pytest.approx(48 * 3 * 0.5 / 0.1)
    assert theorem_epsilon(0.0, 5, 1.0) == 0.0


def test_population_min_eigen_positive_at_truth():
    for seed in range(10):
        game = nonempty_random_game(1000 + 13 * seed)
        ne = enumerate_psne(game)
        table = pmf_table(game, GlobalNoise(0.8), psne=ne)
        for i in range(game.num_players):
            theta = pack_parameters(game, i)
            val = diagnostics_min_eigen(theta, pmf=table, support_only=True)
            assert val > 1e-8


def test_min_eigen_psd_lower_bound():
    rng = np.random.default_rng(58)
    game = nonempty_random_game(1100)
    data = sample_dataset(game, LocalNoise.uniform(3, 0.7), 50, seed=2)
    theta = pack_parameters(game, 0)
    val = diagnostics_min_eigen(theta, data=data, support_only=False)
    assert val >= -1e-9


def test_empirical_min_eigen_concentrates():
    # Sample curvature should reach half the population value at the
    # prescribed sample size, for most seeds.
    game = nonempty_random_game(1200)
    ne = enumerate_psne(game)
    noise = GlobalNoise(0.8)
    table = pmf_table(game, noise, psne=ne)
    i = 0
    theta = pack_parameters(game, i)
    pop = diagnostics_min_eigen(theta, pmf=table, support_only=True)
    assert pop > 0
    d_i = game.degree(i)
    m_i = game.strategy_counts[i]
    m = max(game.strategy_counts)
    n = math.ceil(8 * (d_i + 1) / pop * math.log(m_i * (1 + d_i * m) / 0.01))
    passes = 0
    for seed in range(20):
        data = sample_dataset(game, noise, n, seed=seed, psne=ne)
        emp = diagnostics_min_eigen(theta, data=data, support_only=True)
        if emp >= pop / 2:
            passes += 1
    assert passes >= 18
