import itertools

import numpy as np
import pytest

from polymatrix import (
    Dataset,
    GlobalNoise,
    InvalidDistributionError,
    InvalidInputError,
    LocalNoise,
    ModelUndefinedError,
    PolymatrixGame,
    check_observation_condition,
    enumerate_psne,
    global_noise_pmf,
    local_noise_pmf,
    pmf_table,
    sample_dataset,
    sample_from_pmf,
    sample_profile_counts,
)
from polymatrix.ensembles import HardEnsembleSpec, RandomGameSpec, hard_game, random_game

from helpers import oracle_enumerate, oracle_global_pmf, oracle_local_pmf, random_game_dense


def single_ne_game():
    # Unique equilibrium (0, 0); |A| = 4.
    return PolymatrixGame(
        (2, 2), [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    )


def test_global_pmf_direct_values():
    game = single_ne_game()
    noise = GlobalNoise(0.5)
    assert global_noise_pmf(game, noise, (0, 0)) == pytest.approx(0.5)
    for x in ((0, 1), (1, 0), (1, 1)):
        assert global_noise_pmf(game, noise, x) == pytest.approx(1.0 / 6.0)


def test_global_pmf_boundary_q_one():
    game = single_ne_game()
    noise = GlobalNoise(1.0)
    assert global_noise_pmf(game, noise, (0, 0)) == 1.0
    assert global_noise_pmf(game, noise, (1, 1)) == 0.0


def test_global_pmf_sums_to_one_on_random_games():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 20:
        game = random_game_dense(rng, 3)
        ne = enumerate_psne(game)
        if len(ne) == 0:
            continue
        table = pmf_table(game, GlobalNoise(0.9), psne=ne)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)
        checked += 1


def test_global_pmf_rejects_bad_parameters():
    game = single_ne_game()
    with pytest.raises(InvalidInputError):
        global_noise_pmf(game, GlobalNoise(0.2), (0, 0))  # below |NE|/|A| = 1/4
    no_ne = PolymatrixGame(
        (2, 2),
        [np.zeros(2), np.zeros(2)],
        {(0, 1): np.array([[1.0, -1.0], [-1.0, 1.0]]),
         (1, 0): np.array([[-1.0, 1.0], [1.0, -1.0]])},
    )
    assert len(enumerate_psne(no_ne)) == 0
    with pytest.raises(ModelUndefinedError):
        global_noise_pmf(no_ne, GlobalNoise(0.9), (0, 0))
    with pytest.raises(InvalidInputError):
        GlobalNoise(1.5)


def test_local_pmf_no_corruption_limit():
    game = PolymatrixGame((2,), [np.zeros(2)])  # both strategies equilibria
    noise = LocalNoise((1.0,))
    assert local_noise_pmf(game, noise, (0,)) == pytest.approx(0.5)
    assert local_noise_pmf(game, noise, (1,)) == pytest.approx(0.5)


def test_local_pmf_one_player_direct():
    game = PolymatrixGame((2,), [np.array([1.0, 0.0])])
    noise = LocalNoise((0.6,))
    assert local_noise_pmf(game, noise, (0,)) == pytest.approx(0.6)
    assert local_noise_pmf(game, noise, (1,)) == pytest.approx(0.4)


def test_local_pmf_sums_to_one_on_random_games():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 20:
        game = random_game_dense(rng, 3)
        ne = enumerate_psne(game)
        if len(ne) == 0:
            continue
        noise = LocalNoise.uniform(3, 0.7)
        table = pmf_table(game, noise, psne=ne)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)
        checked += 1


def test_pmf_tables_equal_loop_oracles_exactly():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 12:
        game = random_game_dense(rng, int(rng.integers(2, 5)), m_choices=(2, 3, 4))
        ne = oracle_enumerate(game, 0.0)
        if len(ne) < 2:
            continue
        p = game.num_players
        profiles = list(itertools.product(*(range(m) for m in game.strategy_counts)))
        local_q = tuple(float(v) for v in rng.uniform(0.55, 1.0, size=p))
        global_q = float(rng.uniform(0.5, 1.0))
        for noise, oracle in (
            (LocalNoise(local_q), lambda x: oracle_local_pmf(game, local_q, ne, x)),
            (GlobalNoise(global_q), lambda x: oracle_global_pmf(game, global_q, ne, x)),
        ):
            table = pmf_table(game, noise)
            assert list(table) == profiles
            assert list(table.values()) == [oracle(x) for x in profiles]
        for x in profiles[:: max(1, len(profiles) // 5)]:
            assert local_noise_pmf(game, LocalNoise(local_q), x) == oracle_local_pmf(
                game, local_q, ne, x
            )
            assert global_noise_pmf(game, GlobalNoise(global_q), x) == oracle_global_pmf(
                game, global_q, ne, x
            )
        checked += 1


def test_local_pmf_rejects_bad_parameters():
    with pytest.raises(InvalidInputError):
        LocalNoise((0.5, 0.9))
    game = PolymatrixGame((1, 2), [np.zeros(1), np.zeros(2)])
    with pytest.raises(ModelUndefinedError):
        local_noise_pmf(game, LocalNoise((0.9, 0.9)), (0, 0))


def test_local_pmf_relabeling_invariance():
    # Equilibria {0, 1} of a 1-player game; swapping them maps NE to itself.
    game = PolymatrixGame((3,), [np.array([1.0, 1.0, 0.0])])
    noise = LocalNoise((0.8,))
    table = pmf_table(game, noise)
    swapped = {(1,): table[(0,)], (0,): table[(1,)], (2,): table[(2,)]}
    for x, prob in table.items():
        assert swapped[x] == pytest.approx(prob, abs=1e-15)


def test_sample_dataset_degenerate_global():
    game = single_ne_game()
    data = sample_dataset(game, GlobalNoise(1.0), 50, seed=3)
    assert (data.profiles == 0).all()
    assert data.n == 50


def test_sample_dataset_deterministic():
    game = random_game(RandomGameSpec(p=3, d=1, m=3, seed=7))
    noise = LocalNoise.uniform(3, 0.8)
    a = sample_dataset(game, noise, 200, seed=77)
    b = sample_dataset(game, noise, 200, seed=77)
    assert a == b
    c = sample_dataset(game, noise, 200, seed=78)
    assert not np.array_equal(a.profiles, c.profiles)


def _empirical_tv(game, noise, n, seed):
    table = pmf_table(game, noise)
    data = sample_dataset(game, noise, n, seed=seed)
    freq = {}
    for row in map(tuple, data.profiles.tolist()):
        freq[row] = freq.get(row, 0) + 1
    return 0.5 * sum(
        abs(freq.get(x, 0) / n - prob) for x, prob in table.items()
    )


def test_sampler_total_variation_global():
    game = PolymatrixGame(
        (2, 2),
        [np.array([0.4, 0.0]), np.array([0.0, 0.0])],
        {(1, 0): np.array([[1.0, 0.0], [0.0, 1.0]])},
    )
    assert _empirical_tv(game, GlobalNoise(0.6), 100_000, seed=5) <= 0.01


def test_sampler_total_variation_local():
    game = PolymatrixGame(
        (2, 2),
        [np.array([0.4, 0.0]), np.array([0.0, 0.0])],
        {(1, 0): np.array([[1.0, 0.0], [0.0, 1.0]])},
    )
    assert _empirical_tv(game, LocalNoise((0.75, 0.9)), 100_000, seed=6) <= 0.01


def test_sample_profile_counts_matches_pmf():
    game = single_ne_game()
    noise = LocalNoise((0.8, 0.7))
    data = sample_profile_counts(game, noise, 200_000, seed=9)
    assert data.n == 200_000
    assert not data.is_expanded()
    table = pmf_table(game, noise)
    tv = 0.5 * sum(
        abs(w / data.n - table[tuple(row)])
        for row, w in zip(data.profiles.tolist(), data.weights)
    )
    assert tv <= 0.01


def test_observation_condition_global_true_uniform_false():
    game = single_ne_game()
    ne = enumerate_psne(game)
    assert check_observation_condition(pmf_table(game, GlobalNoise(0.5)), ne)
    uniform = {x: 0.25 for x in itertools.product(range(2), range(2))}
    assert not check_observation_condition(uniform, ne)


def test_observation_condition_local_hard_ensemble():
    spec = HardEnsembleSpec(p=3, d=2, m=2, influential=(0, 1), target=(0, 1))
    game = hard_game(spec)
    ne = enumerate_psne(game)
    table = pmf_table(game, LocalNoise.uniform(3, 0.9), psne=ne)
    assert check_observation_condition(table, ne)
    # Exhaustive restatement of the condition.
    members = ne.as_set()
    assert min(table[x] for x in members) > max(
        v for x, v in table.items() if x not in members
    )


def test_observation_condition_rejects_bad_distribution():
    ne = enumerate_psne(single_ne_game())
    bad = {x: 0.3 for x in itertools.product(range(2), range(2))}
    with pytest.raises(InvalidDistributionError):
        check_observation_condition(bad, ne)


def test_dataset_validation():
    with pytest.raises(InvalidInputError):
        Dataset((2, 2), np.array([[0, 2]]))
    with pytest.raises(InvalidInputError):
        Dataset((2, 2), np.empty((0, 2), dtype=int))
    data = Dataset((2, 2), np.array([[0, 1], [1, 1]]), np.array([3, 2]))
    assert data.n == 5
    assert not data.is_expanded()


def test_sample_dataset_rejects_bad_n():
    with pytest.raises(InvalidInputError):
        sample_dataset(single_ne_game(), GlobalNoise(0.9), 0, seed=0)


def test_sample_from_user_pmf_table():
    # Arbitrary distribution satisfying the signal condition.
    table = {(0, 0): 0.5, (0, 1): 0.3, (1, 0): 0.15, (1, 1): 0.05}
    data = sample_from_pmf(table, (2, 2), 50_000, seed=13)
    assert data.n == 50_000
    freq = {}
    for row in map(tuple, data.profiles.tolist()):
        freq[row] = freq.get(row, 0) + 1
    tv = 0.5 * sum(abs(freq.get(x, 0) / data.n - p) for x, p in table.items())
    assert tv <= 0.01
    bad = {(0, 0): 0.7, (0, 1): 0.7}
    with pytest.raises(InvalidDistributionError):
        sample_from_pmf(bad, (2, 2), 10, seed=0)
