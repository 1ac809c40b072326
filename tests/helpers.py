"""Independent oracle implementations used to cross-check the library.

These deliberately re-derive results with straightforward loops over the
raw payoff dictionaries, so they share no code path with the functions
under test.
"""

import itertools

import numpy as np

from polymatrix import PolymatrixGame, sample_loss, softmax_sigma


def oracle_payoff(game, i, x):
    """Direct summation over the stored payoff matrices."""
    total = game.individual[i][x[i]]
    for (a, b), mat in game.pairs.items():
        if a == i:
            total += mat[x[i], x[b]]
    return float(total)


def oracle_payoff_vector(game, i, x):
    return [
        oracle_payoff(game, i, x[:i] + (a,) + x[i + 1:])
        for a in range(game.strategy_counts[i])
    ]


def oracle_best_responses(game, i, x):
    vals = oracle_payoff_vector(game, i, x)
    best = max(vals)
    return tuple(a for a, v in enumerate(vals) if v == best)


def oracle_is_eps_ne(game, x, eps):
    for i in range(game.num_players):
        vals = oracle_payoff_vector(game, i, x)
        if vals[x[i]] < max(vals) - eps:
            return False
    return True


def oracle_enumerate(game, eps):
    counts = game.strategy_counts
    return tuple(
        x
        for x in itertools.product(*(range(m) for m in counts))
        if oracle_is_eps_ne(game, x, eps)
    )


def oracle_welfare(game, x, shift):
    return sum(
        oracle_payoff(game, i, x) + shift * (1 + game.degree(i))
        for i in range(game.num_players)
    )


def oracle_local_pmf(game, q, equilibria, x):
    """Local noise: average over equilibria of the per-player survive/corrupt product."""
    total = 0.0
    for y in equilibria:
        prob = 1.0
        for i, m in enumerate(game.strategy_counts):
            prob *= q[i] if x[i] == y[i] else (1.0 - q[i]) / (m - 1)
        total += prob
    return total / len(equilibria)


def oracle_global_pmf(game, q, equilibria, x):
    """Global noise: mass q spread on the equilibria, the rest on the other profiles."""
    n_all = 1
    for m in game.strategy_counts:
        n_all *= m
    if x in equilibria:
        return q / len(equilibria)
    if q == 1.0:
        return 0.0
    return (1.0 - q) / (n_all - len(equilibria))


def random_game_dense(rng, p, m_choices=(2, 3), edge_prob=0.5, scale=1.0):
    """Random game with mixed strategy counts and Bernoulli edges."""
    counts = tuple(int(rng.choice(m_choices)) for _ in range(p))
    individual = [rng.normal(0, scale, size=m) for m in counts]
    pairs = {}
    for i in range(p):
        for j in range(p):
            if i != j and rng.random() < edge_prob:
                mat = rng.normal(0, scale, size=(counts[i], counts[j]))
                pairs[(i, j)] = mat
    return PolymatrixGame(counts, individual, pairs)


def finite_diff_gradient(func, values, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.zeros_like(values)
    for k in range(values.size):
        e = np.zeros_like(values)
        e[k] = h
        grad[k] = (func(values + e) - func(values - e)) / (2 * h)
    return grad


def permute_players(game, perm):
    """Game with player i renamed perm[i]."""
    p = game.num_players
    counts = [None] * p
    individual = [None] * p
    for i in range(p):
        counts[perm[i]] = game.strategy_counts[i]
        individual[perm[i]] = game.individual[i]
    pairs = {
        (perm[i], perm[j]): mat for (i, j), mat in game.pairs.items()
    }
    return PolymatrixGame(counts, individual, pairs)


def relabel_strategies(game, k, sigma):
    """Game with player k's strategy s renamed sigma[s]."""
    counts = game.strategy_counts
    inv = [0] * counts[k]
    for s, t in enumerate(sigma):
        inv[t] = s
    individual = [v.copy() for v in game.individual]
    individual[k] = individual[k][inv]
    pairs = {}
    for (i, j), mat in game.pairs.items():
        mat = mat.copy()
        if i == k:
            mat = mat[inv, :]
        if j == k:
            mat = mat[:, inv]
        pairs[(i, j)] = mat
    return PolymatrixGame(counts, individual, pairs)


def oracle_empirical_loss(theta, data):
    """Weighted mean of ``sample_loss``, one dataset row at a time.

    The per-sample functions share no code with the encoded-dataset path
    that ``empirical_loss`` and ``gradient`` take.
    """
    total = 0.0
    for x, w in zip(data.profiles, data.weights):
        total += int(w) * sample_loss(theta, tuple(int(v) for v in x))
    return total / data.n


def oracle_gradient(theta, data):
    """Weighted mean of the per-row gradients sum_a (sigma_a - [a == x_i]) feature(a, x)."""
    lay = theta.layout
    grad = np.zeros(lay.dim)
    for x, w in zip(data.profiles, data.weights):
        x = tuple(int(v) for v in x)
        for a in range(lay.counts[lay.player]):
            coef = softmax_sigma(theta, x, a) - (a == x[lay.player])
            grad += int(w) * coef * lay.feature(a, x)
    return grad / data.n
