"""Digests of every profile-space output, pinned in ``golden/scan_outputs.json``.

Each case draws a game and a perturbed copy of it, then hashes the exact
bytes of what the profile-space scans produce: the PSNE and epsilon-NE
sets, the welfare extremes and price of anarchy, both pmf tables, an
aggregated sample, and every ``evaluate_theorem1`` field except the payoff
discrepancy, which is checked against a brute-force scan instead. The
sizes include profile spaces of several blocks (p = 10 and 11 with three
strategies each). Regenerate the digests, after a deliberate change of
results, with ``PYTHONPATH=src python tests/test_scan_outputs.py``.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from polymatrix import (
    GlobalNoise,
    LocalNoise,
    PolymatrixError,
    PolymatrixGame,
    enumerate_eps_ne,
    enumerate_psne,
    evaluate_theorem1,
    pmf_table,
    price_of_anarchy,
    sample_profile_counts,
    welfare_extremes,
)
from polymatrix.ensembles import RandomGameSpec, random_game

GOLDEN = Path(__file__).parent / "golden" / "scan_outputs.json"

# (name, p, d, m or None for mixed counts, seed)
CASES = (
    [(f"random-p{p}-d{d}-s{s}", p, d, 3, s) for p, d in ((3, 1), (5, 2), (7, 2), (8, 3)) for s in range(3)]
    + [(f"random-p{p}-d2-s{s}", p, 2, 3, s) for p, s in ((10, 0), (10, 1), (11, 0))]
    + [(f"mixed-p{p}-s{s}", p, None, None, s) for p, s in ((4, 0), (6, 1), (8, 2), (10, 3))]
)


def _game(p, d, m, seed):
    if m is not None:
        return random_game(RandomGameSpec(p=p, d=d, m=m, seed=seed))
    rng = np.random.default_rng(seed)
    counts = tuple(int(v) for v in rng.choice((1, 2, 3, 4), size=p))
    while np.prod(counts) < 2 ** (p - 1):
        counts = tuple(int(v) for v in rng.choice((1, 2, 3, 4), size=p))
    pairs = {
        (i, j): rng.normal(size=(counts[i], counts[j]))
        for i in range(p) for j in range(p) if i != j and rng.random() < 0.3
    }
    return PolymatrixGame(counts, [rng.normal(size=m) for m in counts], pairs)


def _perturbed(game, seed):
    """A learned-looking copy: noisy payoffs, a dropped true edge, a spurious edge."""
    rng = np.random.default_rng(seed + 1000)
    counts = game.strategy_counts
    pairs = {e: mat + rng.normal(0, 0.1, mat.shape) for e, mat in game.pairs.items()}
    if pairs:
        pairs.pop(sorted(pairs)[0])
    missing = [(i, j) for i in range(len(counts)) for j in range(len(counts))
               if i != j and (i, j) not in game.edges]
    if missing:
        i, j = missing[len(missing) // 2]
        pairs[(i, j)] = rng.normal(0, 0.2, (counts[i], counts[j]))
    individual = [v + rng.normal(0, 0.1, v.shape) for v in game.individual]
    return PolymatrixGame(counts, individual, pairs)


def _payoff_rows(game, i, profiles):
    """Player i's payoff at every row of ``profiles``, summed from the stored matrices."""
    own = profiles[:, i]
    total = game.individual[i][own].copy()
    for (a, b), mat in game.pairs.items():
        if a == i:
            total += mat[own, profiles[:, b]]
    return total


def brute_force_gap(true_game, learned_game):
    """Worst payoff difference over the full profile space, player by player."""
    counts = true_game.strategy_counts
    profiles = np.array(list(itertools.product(*(range(m) for m in counts)))).reshape(-1, len(counts))
    return max(
        float(np.abs(_payoff_rows(learned_game, i, profiles) - _payoff_rows(true_game, i, profiles)).max())
        for i in range(len(counts))
    )


def _exact(value):
    """A JSON-able form that keeps every bit of floats and arrays."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return [str(value.dtype), list(value.shape), hashlib.sha256(value.tobytes()).hexdigest()]
    if isinstance(value, (tuple, list)):
        return [_exact(v) for v in value]
    if isinstance(value, dict):
        return [[_exact(k), _exact(v)] for k, v in value.items()]
    return value


def scan_outputs(p, d, m, seed):
    """Everything the profile-space scans produce for one case (minus the payoff gap)."""
    game = _game(p, d, m, seed)
    learned = _perturbed(game, seed)
    ne = enumerate_psne(game)
    out = {
        "counts": game.strategy_counts,
        "ne": ne.profiles,
        "eps_ne": enumerate_eps_ne(game, 0.5).profiles,
        "ne_learned": enumerate_psne(learned).profiles,
    }
    for name, ne_true in (("eval_given", ne), ("eval_scanned", None)):
        ev = evaluate_theorem1(game, learned, ne_true=ne_true)
        out[name] = {k: v for k, v in vars(ev).items() if k != "payoff_discrepancy"}
    if len(ne):
        local, glob = LocalNoise.uniform(p, 0.7), GlobalNoise(0.6)
        out["welfare"] = welfare_extremes(game, ne)
        out["poa"] = _or_error(lambda: price_of_anarchy(game, ne))
        out["pmf_local"] = _or_error(lambda: _table(pmf_table(game, local, psne=ne)))
        out["pmf_global"] = _table(pmf_table(game, glob, psne=ne))
        for name, noise in (("sample_local", local), ("sample_global", glob)):
            data = _or_error(lambda: sample_profile_counts(game, noise, 5000, seed, psne=ne))
            out[name] = data if isinstance(data, str) else (data.profiles, data.weights)
    return out


def _table(pmf):
    return np.array(list(pmf)), np.array(list(pmf.values()))


def _or_error(make):
    """The result, or the name of the error: a degenerate PoA or undefined noise is an output too."""
    try:
        return make()
    except PolymatrixError as exc:
        return type(exc).__name__


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(_exact(outputs)).encode()).hexdigest()


@pytest.mark.parametrize("name,p,d,m,seed", CASES, ids=[c[0] for c in CASES])
def test_scan_outputs_match_digest(name, p, d, m, seed):
    assert digest(scan_outputs(p, d, m, seed)) == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("name,p,d,m,seed", CASES, ids=[c[0] for c in CASES])
def test_payoff_discrepancy_matches_brute_force(name, p, d, m, seed):
    game = _game(p, d, m, seed)
    learned = _perturbed(game, seed)
    want = brute_force_gap(game, learned)
    for ne_true in (enumerate_psne(game), None):
        got = evaluate_theorem1(game, learned, ne_true=ne_true).payoff_discrepancy
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_cases_cover_empty_and_multi_block_spaces():
    sizes = [int(np.prod(_game(p, d, m, s).strategy_counts)) for _, p, d, m, s in CASES]
    assert max(sizes) > 3 * (1 << 15)
    assert any(len(enumerate_psne(_game(p, d, m, s))) == 0 for _, p, d, m, s in CASES[:12])


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: digest(scan_outputs(*args)) for name, *args in CASES}, indent=1) + "\n"
    )
