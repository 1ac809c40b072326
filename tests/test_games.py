import itertools

import numpy as np
import pytest

from polymatrix import (
    CapacityError,
    DegeneratePoaError,
    GroupLayout,
    GroupedVector,
    InvalidInputError,
    PolymatrixGame,
    best_responses,
    check_separability,
    enumerate_eps_ne,
    enumerate_psne,
    featurize,
    game_from_parameters,
    is_eps_ne,
    is_psne,
    linear_payoff,
    pack_parameters,
    payoff,
    payoff_shift,
    price_of_anarchy,
    unpack_parameters,
    welfare,
    welfare_extremes,
)
from polymatrix.games import _CHUNK, _profile_blocks
from polymatrix.ensembles import HardEnsembleSpec, RandomGameSpec, hard_game, random_game

from helpers import (
    oracle_best_responses,
    oracle_enumerate,
    oracle_is_eps_ne,
    oracle_payoff,
    oracle_welfare,
    permute_players,
    random_game_dense,
    relabel_strategies,
)


def zero_game(counts):
    return PolymatrixGame(counts, [np.zeros(m) for m in counts])


def test_payoff_no_edges():
    game = PolymatrixGame((2,), [np.array([0.5, -1.0])])
    assert payoff(game, 0, (0,)) == 0.5
    assert payoff(game, 0, (1,)) == -1.0


def test_payoff_all_zero():
    game = zero_game((2, 3, 2))
    for x in itertools.product(range(2), range(3), range(2)):
        assert payoff(game, 1, x) == 0.0


def test_payoff_matches_resummation_oracle():
    game = random_game(RandomGameSpec(p=3, d=1, m=3, seed=5))
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = tuple(int(rng.integers(0, m)) for m in game.strategy_counts)
        assert payoff(game, 0, x) == pytest.approx(oracle_payoff(game, 0, x), abs=1e-12)


def test_payoff_rejects_bad_indices():
    game = zero_game((2, 2))
    with pytest.raises(InvalidInputError):
        payoff(game, 2, (0, 0))
    with pytest.raises(InvalidInputError):
        payoff(game, 0, (0, 2))
    with pytest.raises(InvalidInputError):
        payoff(game, 0, (0,))


def test_game_rejects_all_zero_edge_matrix():
    with pytest.raises(InvalidInputError):
        PolymatrixGame((2, 2), [np.zeros(2), np.zeros(2)], {(0, 1): np.zeros((2, 2))})


def test_featurize_indicator_blocks():
    v = featurize((2, 2), 0, 0, (0, 0))
    assert v.tolist() == [1, 0, 1, 0, 0, 0]
    v = featurize((2, 2), 0, 1, (0, 1))
    assert v.tolist() == [0, 1, 0, 0, 0, 1]


def test_feature_blocks_have_unit_norm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = int(rng.integers(2, 5))
        counts = tuple(int(rng.integers(2, 4)) for _ in range(p))
        i = int(rng.integers(0, p))
        lay = GroupLayout(i, counts)
        a = int(rng.integers(0, counts[i]))
        x = tuple(int(rng.integers(0, m)) for m in counts)
        v = lay.feature(a, x)
        for g in range(lay.num_groups):
            assert np.linalg.norm(v[lay.group_slice(g)]) == 1.0


def test_featurize_pack_reproduces_payoffs_exhaustively():
    game = random_game(RandomGameSpec(p=3, d=2, m=3, seed=9))
    for i in range(3):
        theta = pack_parameters(game, i)
        lay = theta.layout
        for x in itertools.product(range(3), range(3), range(3)):
            want = payoff(game, i, x)
            got = float(theta.values @ lay.feature(x[i], x))
            assert got == pytest.approx(want, abs=1e-12)
            assert linear_payoff(theta, x[i], x) == pytest.approx(want, abs=1e-12)


def test_linear_payoff_rejects_out_of_range_context():
    theta = GroupedVector(GroupLayout(0, (3, 3, 3)), np.arange(21.0))
    assert linear_payoff(theta, 0, (0, 2, 0)) == 0.0 + 5.0 + 12.0
    for x in [(0, 5, 0), (0, -1, 0), (0, 0, 3), (0, 0)]:
        with pytest.raises(InvalidInputError):
            linear_payoff(theta, 0, x)


def test_pack_zero_groups_without_edges():
    game = PolymatrixGame((2, 3), [np.array([1.0, 2.0]), np.zeros(3)])
    theta = pack_parameters(game, 0)
    assert np.array_equal(theta.group(0), [1.0, 2.0])
    assert not theta.group(1).any()


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(3)
    game = random_game_dense(rng, 4)
    for i in range(4):
        theta = pack_parameters(game, i)
        individual, pairs = unpack_parameters(theta)
        assert np.array_equal(individual, game.individual[i])
        want = {e: m for e, m in game.pairs.items() if e[0] == i}
        assert set(pairs) == set(want)
        for e in want:
            assert np.array_equal(pairs[e], want[e])


def test_game_from_parameters_round_trip():
    rng = np.random.default_rng(4)
    game = random_game_dense(rng, 3)
    params = [pack_parameters(game, i) for i in range(3)]
    rebuilt = game_from_parameters(params, game.strategy_counts)
    assert rebuilt == game


def test_dual_path_payoff_on_random_games():
    rng = np.random.default_rng(5)
    for _ in range(10):
        game = random_game_dense(rng, 4)
        params = [pack_parameters(game, i) for i in range(4)]
        for _ in range(20):
            x = tuple(int(rng.integers(0, m)) for m in game.strategy_counts)
            for i in range(4):
                assert linear_payoff(params[i], x[i], x) == pytest.approx(
                    payoff(game, i, x), abs=1e-12
                )


def test_best_responses_total_tie():
    game = zero_game((3, 2))
    assert best_responses(game, 0, (0, 0)) == (0, 1, 2)


def test_best_responses_hard_ensemble_influential():
    spec = HardEnsembleSpec(p=4, d=2, m=3, influential=(0, 2), target=(1, 2))
    game = hard_game(spec)
    for x in itertools.product(range(3), repeat=4):
        assert best_responses(game, 0, x) == (1,)
        assert best_responses(game, 2, x) == (2,)


def test_best_responses_matches_argmax_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        game = random_game_dense(rng, 3)
        x = tuple(int(rng.integers(0, m)) for m in game.strategy_counts)
        for i in range(3):
            assert best_responses(game, i, x) == oracle_best_responses(game, i, x)


def test_is_psne_zero_game():
    game = zero_game((2, 2))
    for x in itertools.product(range(2), range(2)):
        assert is_psne(game, x)


def test_is_psne_hard_ensemble_unique():
    spec = HardEnsembleSpec(p=3, d=2, m=2, influential=(0, 1), target=(0, 1))
    game = hard_game(spec)
    for x in itertools.product(range(2), repeat=3):
        assert is_psne(game, x) == (x == (0, 1, 0))


def test_is_eps_ne_matches_deviation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        game = random_game_dense(rng, 3)
        x = tuple(int(rng.integers(0, m)) for m in game.strategy_counts)
        eps = float(rng.uniform(0, 2))
        assert is_eps_ne(game, x, eps) == oracle_is_eps_ne(game, x, eps)


def test_is_eps_ne_rejects_negative_epsilon():
    game = zero_game((2, 2))
    with pytest.raises(InvalidInputError):
        is_eps_ne(game, (0, 0), -0.1)


def test_every_epsilon_check_rejects_negative_and_nan():
    game = zero_game((2, 2))
    for eps in (-0.1, float("nan")):
        with pytest.raises(InvalidInputError):
            is_eps_ne(game, (0, 0), eps)
        with pytest.raises(InvalidInputError):
            enumerate_eps_ne(game, eps)
        with pytest.raises(InvalidInputError):
            check_separability(game, eps)


def test_enumerate_zero_game_total_tie():
    result = enumerate_psne(zero_game((2, 2)))
    assert result.profiles == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_enumerate_hard_ensemble_exact():
    spec = HardEnsembleSpec(p=3, d=2, m=2, influential=(0, 1), target=(0, 1))
    assert enumerate_psne(hard_game(spec)).profiles == ((0, 1, 0),)


def test_enumerate_matches_oracle_and_eps_zero():
    rng = np.random.default_rng(8)
    for _ in range(10):
        game = random_game_dense(rng, 3)
        assert enumerate_psne(game).profiles == oracle_enumerate(game, 0.0)
        assert enumerate_eps_ne(game, 0.0).profiles == enumerate_psne(game).profiles


def test_enumerate_eps_monotone_over_random_games():
    rng = np.random.default_rng(9)
    for _ in range(50):
        game = random_game_dense(rng, 3)
        grid = sorted(rng.uniform(0, 3, size=3))
        sets = [enumerate_eps_ne(game, e).as_set() for e in grid]
        assert sets[0] <= sets[1] <= sets[2]


def test_enumerate_cap_exceeded():
    game = zero_game((4, 4, 4))
    with pytest.raises(CapacityError) as exc:
        enumerate_psne(game, cap=63)
    assert exc.value.profile_count == 64
    assert "64" in str(exc.value)


@pytest.mark.parametrize(
    "counts,chunk",
    [
        ((1,), 7),
        ((1, 1, 1), 2),
        ((2, 1, 3, 1), 1),
        ((2, 1, 3, 1), 2),
        ((5, 4, 1, 7, 2), 7),
        ((3, 9), 5),  # chunk below the last player's m
        ((4, 2, 3), 24),  # exactly the whole space
        ((4, 2, 3), 1000),
        ((3,) * 10, _CHUNK),
        ((3,) * 11, _CHUNK),
        ((2, 1, 4, 3, 1, 2, 3, 2, 4), _CHUNK),
    ],
)
def test_profile_blocks_match_itertools_product(counts, chunk):
    blocks = list(_profile_blocks(counts, chunk))
    assert all(b.shape[0] <= chunk and b.dtype == np.int64 for b in blocks)
    want = np.array(list(itertools.product(*(range(m) for m in counts)))).reshape(-1, len(counts))
    assert np.array_equal(np.concatenate(blocks), want)
    if np.prod(counts) > chunk:
        assert len(blocks) > 1


def test_welfare_constant_game_poa_is_one():
    counts = (2, 2, 2)
    pairs = {
        (i, j): np.ones((2, 2)) for i in range(3) for j in range(3) if i != j
    }
    game = PolymatrixGame(counts, [np.ones(2)] * 3, pairs)
    ne = enumerate_psne(game)
    assert len(ne) == 8
    assert price_of_anarchy(game, ne) == pytest.approx(1.0)


def test_poa_matches_exhaustive_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        game = random_game_dense(rng, 3)
        ne = enumerate_psne(game)
        if len(ne) == 0:
            continue
        shift = payoff_shift(game)
        welfares = {
            x: oracle_welfare(game, x, shift)
            for x in itertools.product(*(range(m) for m in game.strategy_counts))
        }
        want = max(welfares.values()) / min(welfares[x] for x in ne)
        assert price_of_anarchy(game, ne) == pytest.approx(want, abs=1e-9)


def test_poa_exactly_one_when_best_profile_is_worst_equilibrium():
    # Max welfare and equilibrium welfare once came from two summation orders,
    # which put this game's price of anarchy one ulp below 1.
    game = random_game(RandomGameSpec(p=4, d=1, m=3, seed=38))
    ne = enumerate_psne(game)
    assert price_of_anarchy(game, ne) == 1.0
    best, worst_eq = welfare_extremes(game, ne)
    assert best == worst_eq == welfare(game, ne.profiles[0])


def test_poa_degenerate_division():
    game = PolymatrixGame((2,), [np.array([0.0, -1.0])])
    ne = enumerate_psne(game)
    # After the shift the equilibrium payoff is 1; drop it to zero artificially.
    zero = PolymatrixGame((2,), [np.array([0.0, 0.0])])
    assert price_of_anarchy(game, ne) == pytest.approx(1.0)
    with pytest.raises(DegeneratePoaError) as exc:
        # All-zero game with a forced nonzero... min equilibrium welfare is 0.
        price_of_anarchy(zero, enumerate_psne(zero))
    assert exc.value.min_equilibrium_welfare == 0.0


def test_welfare_uses_global_shift():
    game = PolymatrixGame(
        (2, 2),
        [np.array([-3.0, 0.0]), np.array([0.0, 1.0])],
        {(0, 1): np.array([[1.0, 2.0], [0.5, -1.0]])},
    )
    assert payoff_shift(game) == 3.0
    x = (1, 1)
    want = (payoff(game, 0, x) + 3.0 * 2) + (payoff(game, 1, x) + 3.0 * 1)
    assert welfare(game, x) == pytest.approx(want)


def test_separability_zero_game_vacuous():
    assert check_separability(zero_game((2, 2)), 0.0)


def test_separability_hard_ensemble_strict_majority():
    spec = HardEnsembleSpec(p=5, d=3, m=3, influential=(0, 1, 2), target=(0, 0, 1))
    assert check_separability(hard_game(spec), 0.5)


def test_separability_matches_exhaustive_scan():
    rng = np.random.default_rng(11)

    def oracle(game, eps):
        members = set(oracle_enumerate(game, 0.0))
        for x in members:
            for i in range(game.num_players):
                for a in range(game.strategy_counts[i]):
                    y = x[:i] + (a,) + x[i + 1:]
                    if y in members or y == x:
                        continue
                    if not oracle_payoff(game, i, x) > oracle_payoff(game, i, y) + eps:
                        return False
        return True

    for _ in range(20):
        game = random_game_dense(rng, 3)
        eps = float(rng.uniform(0, 1))
        assert check_separability(game, eps) == oracle(game, eps)


def test_player_permutation_equivariance():
    rng = np.random.default_rng(12)
    for _ in range(5):
        game = random_game_dense(rng, 3)
        perm = tuple(rng.permutation(3))
        permuted = permute_players(game, perm)
        want = {
            tuple(x[perm.index(k)] for k in range(3))
            for x in enumerate_psne(game)
        }
        # x'_perm[i] = x_i, so position k of the image profile holds x at perm^-1(k).
        got = enumerate_psne(permuted).as_set()
        assert got == want


def test_strategy_relabeling_equivariance():
    rng = np.random.default_rng(13)
    for _ in range(5):
        game = random_game_dense(rng, 3)
        k = int(rng.integers(0, 3))
        sigma = tuple(rng.permutation(game.strategy_counts[k]))
        relabeled = relabel_strategies(game, k, sigma)
        want = {
            x[:k] + (sigma[x[k]],) + x[k + 1:] for x in enumerate_psne(game)
        }
        assert enumerate_psne(relabeled).as_set() == want


def test_individual_shift_leaves_psne_unchanged():
    rng = np.random.default_rng(14)
    for _ in range(5):
        game = random_game_dense(rng, 3)
        k = int(rng.integers(0, 3))
        individual = [v.copy() for v in game.individual]
        individual[k] = individual[k] + 7.25
        shifted = PolymatrixGame(game.strategy_counts, individual, game.pairs)
        assert enumerate_psne(shifted).profiles == enumerate_psne(game).profiles
