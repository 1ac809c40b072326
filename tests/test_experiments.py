import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymatrix import (
    InvalidInputError,
    LearnedModel,
    LearnerConfig,
    LocalNoise,
    PolymatrixGame,
    enumerate_psne,
    evaluate_theorem1,
    fit_game,
    lambda_schedule,
    pack_parameters,
    sample_count,
    sample_dataset,
)
from polymatrix import experiments
from polymatrix.ensembles import HardEnsembleSpec, hard_game, random_game
from polymatrix.experiments import (
    ExperimentSpec,
    derive_seed,
    phase_transition_sweep,
    recovery_trial,
)
from polymatrix.games import GroupedVector, PsneSet, check_separability, game_from_parameters
from polymatrix.fileio import write_sweep_csv, write_trials_csv

from helpers import oracle_enumerate, oracle_payoff, random_game_dense


def test_sample_count_reference_value():
    assert sample_count(0.0, 7, 1, 0.01) == 32
    raw = 4 * math.log(2 * 7 * 2 / 0.01)
    assert sample_count(1.0, 7, 1, 0.01) == round(10 * raw)


def test_sample_count_monotonicity():
    base = sample_count(0.5, 7, 1, 0.01)
    assert sample_count(0.6, 7, 1, 0.01) >= base
    assert sample_count(0.5, 9, 1, 0.01) >= base
    assert sample_count(0.5, 7, 2, 0.01) >= base
    with pytest.raises(InvalidInputError):
        sample_count(0.5, 7, 1, 1.5)


def default_spec(**kw):
    base = dict(
        p_values=(5,),
        d_values=(1,),
        c_grid=(0.0, 0.5),
        m=3,
        trials=3,
        seed=99,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def _strip_timing(record):
    return replace(record, fit_seconds=0.0, trial_seconds=0.0)


def _strip_report_timing(report):
    rows = tuple(replace(r, mean_fit_seconds=0.0) for r in report.rows)
    records = tuple(_strip_timing(r) for r in report.trial_records)
    return replace(report, rows=rows, trial_records=records)


def test_recovery_trial_deterministic():
    # Everything but wall-clock timing must be reproducible from the seed.
    spec = default_spec()
    a = recovery_trial(5, 1, 0.5, spec, seed=1234)
    b = recovery_trial(5, 1, 0.5, spec, seed=1234)
    assert _strip_timing(a) == _strip_timing(b)


def test_recovery_trial_fails_at_one_sample():
    spec = default_spec(c_grid=(0.0,))
    falses = 0
    for t in range(20):
        # c chosen so the sample budget collapses to a single observation.
        rec = recovery_trial(5, 1, -10.0, spec, seed=derive_seed(7, t))
        assert rec.n == 1
        falses += int(not rec.ne_equal)
    assert falses >= 1


def test_recovery_trial_high_fidelity_hard_game():
    spec = HardEnsembleSpec(p=4, d=2, m=3, influential=(0, 1), target=(0, 1))
    game = hard_game(spec)
    data = sample_dataset(game, LocalNoise.uniform(4, 0.99), 5000, seed=17)
    lam = lambda_schedule(data.n, 4, 2, LearnerConfig())
    model = fit_game(data, LearnerConfig().resolved(lam))
    ev = evaluate_theorem1(game, model)
    assert ev.ne_equal


def test_sweep_row_count_and_determinism():
    spec = default_spec()
    report = phase_transition_sweep(spec)
    assert len(report.rows) == 1 * 1 * 2
    again = phase_transition_sweep(spec)
    threaded = phase_transition_sweep(spec, threads=2)
    want = write_trials_csv(_strip_report_timing(report))
    assert write_sweep_csv(_strip_report_timing(report)) == write_sweep_csv(
        _strip_report_timing(again)
    )
    assert want == write_trials_csv(_strip_report_timing(again))
    assert want == write_trials_csv(_strip_report_timing(threaded))


def test_sweep_rows_count_each_key_once_when_c_repeats():
    report = phase_transition_sweep(default_spec(c_grid=(0.0, 0.0), trials=2))
    assert [(r.c, r.trials) for r in report.rows] == [(0.0, 2), (0.0, 2)]
    assert len(report.trial_records) == 4


def test_sweep_draws_each_game_once_and_times_it_in_every_record(monkeypatch):
    spec = default_spec(p_values=(4, 5), d_values=(1, 2), c_grid=(0.0, 0.5, 1.0), trials=2)
    want = [
        _strip_timing(recovery_trial(p, d, c, spec, seed=derive_seed(spec.seed, t)))
        for p in spec.p_values
        for d in spec.d_values
        for c in spec.c_grid
        for t in range(spec.trials)
    ]
    draws = []

    def slow_draw(game_spec):
        draws.append(game_spec)
        time.sleep(0.01)
        return random_game(game_spec)

    monkeypatch.setattr(experiments, "random_game", slow_draw)
    report = phase_transition_sweep(spec)
    assert [_strip_timing(r) for r in report.trial_records] == want
    first_c = [r for r in report.trial_records if r.c == spec.c_grid[0]]
    assert len(draws) == sum(r.game_retries + 1 for r in first_c)
    for r in report.trial_records:
        assert r.trial_seconds >= 0.01 * (r.game_retries + 1)


def test_sweep_rejects_infeasible_degree():
    with pytest.raises(InvalidInputError):
        default_spec(p_values=(3,), d_values=(3,))


@pytest.mark.parametrize(
    "field, value",
    [
        ("q", math.nan), ("q", math.inf), ("q", 0.0),
        ("c_grid", (0.0, math.nan)), ("c_grid", (math.inf,)),
        ("trial_timeout", math.nan), ("trial_timeout", math.inf), ("trial_timeout", -1.0),
        ("lambda_mode", math.nan), ("lambda_mode", math.inf), ("lambda_mode", -0.5),
    ],
)
def test_spec_rejects_non_finite_values(field, value):
    with pytest.raises(InvalidInputError, match=field):
        default_spec(**{field: value})


def test_evaluate_identity_game():
    rng = np.random.default_rng(60)
    game = random_game_dense(rng, 3)
    ev = evaluate_theorem1(game, game)
    assert ev.max_param_error == 0.0
    assert ev.payoff_discrepancy == 0.0
    assert ev.epsilon == 0.0
    assert ev.ne_equal and ev.containment_ok and ev.discrepancy_bounded


def test_evaluate_random_perturbations_bounded():
    rng = np.random.default_rng(61)
    game = random_game_dense(rng, 3, edge_prob=0.8)
    true_params = [pack_parameters(game, i) for i in range(3)]
    for _ in range(1000):
        perturbed = []
        b = 0.0
        for theta in true_params:
            delta = rng.normal(0, 0.3, size=theta.layout.dim)
            perturbed.append(GroupedVector(theta.layout, theta.values + delta))
            b = max(
                b,
                sum(
                    np.linalg.norm(delta[theta.layout.group_slice(g)])
                    for g in range(theta.layout.num_groups)
                ),
            )
        other = game_from_parameters(perturbed, game.strategy_counts)
        gap = evaluate_theorem1(game, other).payoff_discrepancy
        assert gap <= b + 1e-12


def oracle_payoff_gap(game, params):
    """Worst |learned - true| payoff over every profile and player, by direct loops."""
    gap = 0.0
    for x in itertools.product(*(range(m) for m in game.strategy_counts)):
        for i, theta in enumerate(params):
            est = float(theta.values @ theta.layout.feature(x[i], x))
            gap = max(gap, abs(est - oracle_payoff(game, i, x)))
    return gap


def reference_theorem1(game, params, learned_game):
    """Theorem 1 report rebuilt from loops, the oracle enumeration and check_separability."""
    errors = []
    for i, theta in enumerate(params):
        diff = theta.values - pack_parameters(game, i).values
        lay = theta.layout
        errors.append(sum(np.linalg.norm(diff[lay.group_slice(g)]) for g in range(lay.num_groups)))
    eps = 2.0 * max(errors)
    gap = oracle_payoff_gap(game, params)
    ne_true = oracle_enumerate(game, 0.0)
    ne_learned = oracle_enumerate(learned_game, 0.0)
    learned_in = set(ne_learned) <= set(oracle_enumerate(game, eps))
    true_in = set(ne_true) <= set(oracle_enumerate(learned_game, eps))
    return {
        "param_errors": tuple(errors),
        "max_param_error": max(errors),
        "payoff_discrepancy": gap,
        "epsilon": eps,
        "discrepancy_bounded": gap <= max(errors) + 1e-9,
        "ne_true_size": len(ne_true),
        "ne_learned_size": len(ne_learned),
        "learned_in_eps_true": learned_in,
        "true_in_eps_learned": true_in,
        "containment_ok": learned_in and true_in,
        "separable_at_epsilon": check_separability(game, eps),
        "ne_equal": ne_true == ne_learned,
    }


def test_evaluate_matches_reference_for_models_and_games():
    rng = np.random.default_rng(63)
    seen = set()
    for trial in range(12):
        game = random_game_dense(rng, 3, m_choices=(2, 3))
        if len(oracle_enumerate(game, 0.0)) == 0:
            continue
        if trial % 2:
            noise = LocalNoise.uniform(3, 0.8)
            data = sample_dataset(game, noise, 400, seed=trial)
            learned = fit_game(data, LearnerConfig(lam=0.05, max_iterations=400))
            params, learned_game = learned.params, learned.game
        else:
            params = [
                GroupedVector(t.layout, t.values + rng.normal(0, 0.02 + trial / 20, t.layout.dim))
                for t in (pack_parameters(game, i) for i in range(3))
            ]
            learned = learned_game = game_from_parameters(params, game.strategy_counts)
        want = reference_theorem1(game, params, learned_game)
        ne = PsneSet(oracle_enumerate(game, 0.0))
        for ev in (evaluate_theorem1(game, learned), evaluate_theorem1(game, learned, ne_true=ne)):
            got = {k: getattr(ev, k) for k in want}
            # The reference sums each payoff in another order.
            gap = got.pop("payoff_discrepancy")
            assert gap == pytest.approx(want["payoff_discrepancy"], rel=1e-12, abs=1e-12)
            assert got == {k: v for k, v in want.items() if k != "payoff_discrepancy"}
        seen.add((type(learned).__name__, ev.ne_equal))
    # Both input kinds, and both outcomes of the equilibrium comparison, were covered.
    assert {kind for kind, _ in seen} == {"LearnedModel", "PolymatrixGame"}
    assert {eq for _, eq in seen} == {True, False}


def _game_with_counts(rng, counts, edge_prob):
    p = len(counts)
    pairs = {
        (i, j): rng.normal(size=(counts[i], counts[j]))
        for i in range(p) for j in range(p) if i != j and rng.random() < edge_prob
    }
    return PolymatrixGame(counts, [rng.normal(size=m) for m in counts], pairs)


def _sparse_estimate(rng, game, drop):
    """Noisy parameters: each pair group is zeroed with probability ``drop``, else perturbed.

    Zeroing drops true edges; perturbing a group the game lacks adds a spurious one.
    """
    params = []
    for i in range(game.num_players):
        theta = pack_parameters(game, i)
        lay = theta.layout
        values = theta.values + rng.normal(0, 0.3, lay.dim)
        for g in range(1, lay.num_groups):
            if rng.random() < drop:
                values[lay.group_slice(g)] = 0.0
        params.append(GroupedVector(lay, values))
    return params


def _learned_input(game, params, as_model):
    """``params`` as a LearnedModel (its game thresholds weak groups away) or as a game."""
    counts = game.strategy_counts
    if not as_model:
        return game_from_parameters(params, counts)
    learned_game = game_from_parameters(params, counts, threshold=0.4)
    return LearnedModel(
        strategy_counts=counts, params=tuple(params), edges=learned_game.edges,
        game=learned_game, diagnostics=(), config=LearnerConfig(),
    )


def _assert_gap_matches_oracle(game, params, learned):
    """The closed-form gap equals the brute-force one, with and without ``ne_true``."""
    if isinstance(learned, PolymatrixGame):
        params = [pack_parameters(learned, i) for i in range(game.num_players)]
    want = oracle_payoff_gap(game, params)
    reports = [evaluate_theorem1(game, learned, ne_true=ne) for ne in (None, enumerate_psne(game))]
    for ev in reports:
        assert ev.payoff_discrepancy == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert reports[0] == reports[1]


def test_payoff_gap_closed_form_matches_brute_force():
    rng = np.random.default_rng(64)
    seen = set()
    for trial in range(30):
        p = 1 + trial % 5
        game = random_game_dense(rng, p, m_choices=(1, 2, 3))
        params = _sparse_estimate(rng, game, drop=0.4)
        learned = _learned_input(game, params, as_model=trial % 2 == 1)
        _assert_gap_matches_oracle(game, params, learned)
        learned_edges = {
            (i, j)
            for i, theta in enumerate(params)
            for g, j in enumerate(theta.layout.others, start=1) if theta.group(g).any()
        }
        seen.add(type(learned).__name__)
        seen.update(
            name for name, hit in (
                ("one-strategy player", 1 in game.strategy_counts),
                ("p=5", p == 5),
                ("spurious group", bool(learned_edges - game.edges)),
                ("dropped edge", bool(game.edges - learned_edges)),
            ) if hit
        )
    assert seen == {
        "LearnedModel", "PolymatrixGame", "one-strategy player", "p=5",
        "spurious group", "dropped edge",
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    counts=st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple),
    seed=st.integers(0, 2**32 - 1),
    edge_prob=st.sampled_from((0.0, 0.5, 1.0)),
    drop=st.sampled_from((0.0, 0.5, 1.0)),
    as_model=st.booleans(),
)
def test_payoff_gap_closed_form_property(counts, seed, edge_prob, drop, as_model):
    rng = np.random.default_rng(seed)
    game = _game_with_counts(rng, counts, edge_prob)
    params = _sparse_estimate(rng, game, drop)
    _assert_gap_matches_oracle(game, params, _learned_input(game, params, as_model))


def test_evaluate_containment_implication():
    rng = np.random.default_rng(62)
    checked = 0
    while checked < 20:
        game = random_game_dense(rng, 3)
        if len(enumerate_psne(game)) == 0:
            continue
        true_params = [pack_parameters(game, i) for i in range(3)]
        perturbed = [
            GroupedVector(t.layout, t.values + rng.normal(0, 0.2, size=t.layout.dim))
            for t in true_params
        ]
        other = game_from_parameters(perturbed, game.strategy_counts)
        ev = evaluate_theorem1(game, other)
        assert ev.discrepancy_bounded
        assert ev.containment_ok
        if ev.separable_at_epsilon:
            assert ev.ne_equal
        checked += 1


def test_evaluate_high_n_separable_recovery():
    spec = HardEnsembleSpec(p=5, d=3, m=3, influential=(0, 2, 4), target=(1, 1, 2))
    game = hard_game(spec)
    data = sample_dataset(game, LocalNoise.uniform(5, 0.95), 8000, seed=23)
    lam = lambda_schedule(data.n, 5, 3, LearnerConfig())
    model = fit_game(data, LearnerConfig().resolved(lam))
    ev = evaluate_theorem1(game, model)
    assert ev.ne_equal
    assert ev.containment_ok
