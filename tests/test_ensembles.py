from collections import Counter

import numpy as np
import pytest

from polymatrix import InvalidInputError, enumerate_psne, payoff
from polymatrix.ensembles import (
    HardEnsembleSpec,
    RandomGameSpec,
    hard_game,
    hard_game_equilibrium,
    maj,
    random_game,
)


def test_random_game_normalization_pattern():
    for seed in range(5):
        game = random_game(RandomGameSpec(p=5, d=2, m=3, seed=seed))
        for v in game.individual:
            assert not v.any()
        for mat in game.pairs.values():
            assert not mat[-1, :].any()
            assert mat[:-1, :].any()


def test_random_game_in_degree_exactly_d():
    for seed in range(100):
        game = random_game(RandomGameSpec(p=6, d=2, m=2, seed=seed))
        for i in range(6):
            assert game.degree(i) == 2


def test_random_game_entry_moments():
    draws = []
    for seed in range(45):
        game = random_game(RandomGameSpec(p=20, d=10, m=4, seed=seed))
        for mat in game.pairs.values():
            draws.extend(mat[:-1, :].ravel().tolist())
    draws = np.asarray(draws)
    assert draws.size >= 100_000
    n = draws.size
    se_mean = np.sqrt(2.0 / n)
    assert abs(draws.mean()) <= 3 * se_mean
    var = draws.var()
    se_var = np.sqrt(2.0 * 4.0 / (n - 1))  # Var of sample variance for N(0, 2)
    assert abs(var - 2.0) <= 3 * se_var


def test_random_game_deterministic_and_validated():
    a = random_game(RandomGameSpec(p=4, d=1, m=3, seed=9))
    b = random_game(RandomGameSpec(p=4, d=1, m=3, seed=9))
    assert a == b
    with pytest.raises(InvalidInputError):
        RandomGameSpec(p=3, d=3, m=3)


@pytest.mark.parametrize("std", [float("nan"), float("inf"), 0.0, -1.0])
def test_random_game_spec_rejects_bad_payoff_std(std):
    with pytest.raises(InvalidInputError, match=rf"payoff_std .*got {std}$"):
        RandomGameSpec(p=3, d=1, payoff_std=std)


def test_maj_examples():
    assert maj((0, 1, 1)) == 1
    assert maj((0, 1)) == 0
    assert maj((2, 2, 0, 0, 1)) == 0


def test_maj_matches_counting_oracle():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        a = tuple(int(v) for v in rng.integers(0, 4, size=rng.integers(1, 8)))
        counts = Counter(a)
        best = max(counts.values())
        want = min(s for s, c in counts.items() if c == best)
        assert maj(a) == want


def test_hard_game_unique_equilibrium_random_specs():
    rng = np.random.default_rng(32)
    for _ in range(15):
        p = int(rng.integers(3, 6))
        d = int(rng.integers(2, p))
        m = int(rng.integers(2, 4))
        spec = HardEnsembleSpec(p=p, d=d, m=m, seed=int(rng.integers(1 << 31)))
        game = hard_game(spec)
        ne = enumerate_psne(game)
        assert len(ne) == 1


def test_hard_game_equilibrium_prediction():
    spec = HardEnsembleSpec(p=5, d=3, m=3, influential=(1, 2, 4), target=(2, 0, 2))
    game = hard_game(spec)
    want = hard_game_equilibrium(spec)
    assert want == (2, 2, 0, 2, 2)
    assert enumerate_psne(game).profiles == (want,)


def test_hard_game_noninfluential_payoff_formula():
    spec = HardEnsembleSpec(p=4, d=2, m=3, influential=(0, 1), target=(0, 2))
    game = hard_game(spec)
    rng = np.random.default_rng(33)
    for _ in range(50):
        x = tuple(int(v) for v in rng.integers(0, 3, size=4))
        for j in (2, 3):
            matches = sum(1 for i in (0, 1) if x[i] == x[j])
            want = matches + 1.0 / (2.0 * (x[j] + 1))
            assert payoff(game, j, x) == pytest.approx(want, abs=1e-12)


def test_hard_game_graph_shape():
    spec = HardEnsembleSpec(p=4, d=2, m=2, influential=(1, 3), target=(0, 1))
    game = hard_game(spec)
    assert game.neighbors[1] == () and game.neighbors[3] == ()
    assert game.neighbors[0] == (1, 3) and game.neighbors[2] == (1, 3)


def test_hard_game_rejects_constant_target():
    with pytest.raises(InvalidInputError):
        HardEnsembleSpec(p=4, d=2, m=3, influential=(0, 1), target=(1, 1))
    with pytest.raises(InvalidInputError):
        HardEnsembleSpec(p=4, d=1, m=3)


def test_hard_game_deterministic():
    spec = HardEnsembleSpec(p=5, d=2, m=3, seed=123)
    assert hard_game(spec) == hard_game(spec)
