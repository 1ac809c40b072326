"""Synthetic game generators used throughout the experiments.

``random_game`` draws a game whose graph gives every player exactly ``d``
in-neighbors and whose pair payoffs are Gaussian with the last row zeroed
as an identifiability normalization. ``hard_game`` builds the bipartite
construction with a single equilibrium: a set of influential players pins
its own strategies, and everyone else matches the majority of those.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .errors import InvalidInputError
from .games import PolymatrixGame
from .observation import _rng


@dataclass(frozen=True)
class RandomGameSpec:
    p: int
    d: int
    m: int = 3
    payoff_std: float = sqrt(2.0)
    seed: int = 0

    def __post_init__(self):
        if self.p < 2:
            raise InvalidInputError(f"need at least 2 players, got {self.p}")
        if not 1 <= self.d <= self.p - 1:
            raise InvalidInputError(
                f"degree {self.d} infeasible for {self.p} players"
            )
        if self.m < 2:
            raise InvalidInputError(f"need at least 2 strategies, got {self.m}")
        if not 0 < self.payoff_std < inf:
            raise InvalidInputError(
                f"payoff_std must be finite and positive, got {self.payoff_std}"
            )


@dataclass(frozen=True)
class HardEnsembleSpec:
    p: int
    d: int
    m: int = 3
    influential: tuple = None
    target: tuple = None
    seed: int = 0

    def __post_init__(self):
        if self.p < 2:
            raise InvalidInputError(f"need at least 2 players, got {self.p}")
        if not 2 <= self.d <= self.p - 1:
            raise InvalidInputError(
                f"influential set size {self.d} infeasible for {self.p} players "
                "(at least 2 needed for a target with distinct entries)"
            )
        if self.m < 2:
            raise InvalidInputError(f"need at least 2 strategies, got {self.m}")
        if self.influential is not None:
            inf = tuple(sorted(int(i) for i in self.influential))
            if len(set(inf)) != self.d or any(not 0 <= i < self.p for i in inf):
                raise InvalidInputError(
                    f"influential set must be {self.d} distinct players in range"
                )
            object.__setattr__(self, "influential", inf)
        if self.target is not None:
            tgt = tuple(int(a) for a in self.target)
            if len(tgt) != self.d:
                raise InvalidInputError(
                    f"target profile must have one strategy per influential player"
                )
            if any(not 0 <= a < self.m for a in tgt):
                raise InvalidInputError("target strategy out of range")
            if len(set(tgt)) < 2:
                raise InvalidInputError(
                    "target profile must contain at least two distinct strategies"
                )
            object.__setattr__(self, "target", tgt)


def random_game(spec: RandomGameSpec) -> PolymatrixGame:
    """Random game: in-degree exactly ``d``, Gaussian payoffs, zero individual payoffs.

    For each edge the first ``m - 1`` rows of the pair matrix are i.i.d.
    normal with standard deviation ``payoff_std`` and the last row is zero.
    Deterministic given the spec.
    """
    rng = _rng(spec.seed)
    p, d, m = spec.p, spec.d, spec.m
    neighbors = []
    for i in range(p):
        others = np.array([j for j in range(p) if j != i])
        chosen = rng.choice(others, size=d, replace=False)
        neighbors.append(tuple(sorted(int(j) for j in chosen)))
    pairs = {}
    for i in range(p):
        for j in neighbors[i]:
            mat = np.zeros((m, m))
            mat[: m - 1, :] = rng.normal(0.0, spec.payoff_std, size=(m - 1, m))
            pairs[(i, j)] = mat
    individual = [np.zeros(m) for _ in range(p)]
    return PolymatrixGame((m,) * p, individual, pairs)


def maj(a) -> int:
    """Most frequent strategy in ``a``; ties go to the numerically lowest."""
    a = tuple(int(v) for v in a)
    if not a:
        raise InvalidInputError("majority of an empty profile is undefined")
    counts = Counter(a)
    best = max(counts.values())
    return min(s for s, c in counts.items() if c == best)


def hard_game(spec: HardEnsembleSpec) -> PolymatrixGame:
    """Bipartite game with exactly one equilibrium.

    Influential players get an indicator individual payoff pinning their
    target strategy and have no incoming edges. Every other player sees all
    influential players, earns 1 per match with them, and carries a strictly
    decreasing individual payoff ``1 / (2 (s + 1))`` that breaks majority
    ties toward the lowest strategy.
    """
    rng = _rng(spec.seed)
    p, d, m = spec.p, spec.d, spec.m
    influential = spec.influential
    if influential is None:
        chosen = rng.choice(np.arange(p), size=d, replace=False)
        influential = tuple(sorted(int(i) for i in chosen))
    target = spec.target
    if target is None:
        while True:
            cand = tuple(int(a) for a in rng.integers(0, m, size=d))
            if len(set(cand)) >= 2:
                target = cand
                break

    by_player = dict(zip(influential, target))
    individual = []
    pairs = {}
    for i in range(p):
        if i in by_player:
            vec = np.zeros(m)
            vec[by_player[i]] = 1.0
            individual.append(vec)
        else:
            individual.append(np.array([1.0 / (2.0 * (s + 1)) for s in range(m)]))
            for j in influential:
                pairs[(i, j)] = np.eye(m)
    return PolymatrixGame((m,) * p, individual, pairs)


def hard_game_equilibrium(spec: HardEnsembleSpec) -> tuple:
    """The unique equilibrium of :func:`hard_game` for a fully specified spec."""
    if spec.influential is None or spec.target is None:
        raise InvalidInputError(
            "equilibrium prediction needs explicit influential players and target"
        )
    by_player = dict(zip(spec.influential, spec.target))
    fill = maj(spec.target)
    return tuple(by_player.get(i, fill) for i in range(spec.p))
