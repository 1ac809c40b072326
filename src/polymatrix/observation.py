"""Noisy observation models over a game's profile space.

Two concrete models are provided. Global noise mixes a uniform
distribution on the equilibrium set with a uniform distribution on its
complement. Local noise draws an equilibrium uniformly and corrupts each
coordinate independently, resampling a wrong strategy uniformly. Both
concentrate more mass on each equilibrium profile than on any other
profile, which is the condition the learner relies on.

Each model's probability formula is written once, in ``_pmf_block``, for
every row of a profile block. The scalar pmfs pass one row; only
``pmf_table`` turns the whole-space array into a dict.

Sampling uses a counter-based generator (Philox) keyed by an explicit
64-bit seed, so independent calls with distinct seeds are reproducible
and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDistributionError,
    InvalidInputError,
    ModelUndefinedError,
)
from .games import (
    DEFAULT_ENUMERATION_CAP,
    PolymatrixGame,
    PsneSet,
    _profile_blocks,
    _psne_rows,
    _radix,
    all_profiles,
    ensure_enumerable,
    enumerate_psne,
    profile_count,
    validate_profile,
)


@dataclass(frozen=True)
class GlobalNoise:
    """Mixture weight ``q`` on the uniform-over-equilibria component."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise InvalidInputError(f"global noise needs 0 < q <= 1, got {self.q}")


@dataclass(frozen=True)
class LocalNoise:
    """Per-player fidelity ``q_i``: the chance a coordinate survives uncorrupted."""

    q: tuple

    def __init__(self, q):
        object.__setattr__(self, "q", tuple(float(v) for v in q))
        if any(not 0.5 < v <= 1.0 for v in self.q):
            raise InvalidInputError(
                f"local noise needs 0.5 < q_i <= 1 for every player, got {self.q}"
            )

    @classmethod
    def uniform(cls, p: int, q: float) -> "LocalNoise":
        return cls((q,) * p)


@dataclass
class Dataset:
    """Observed strategy profiles with multiplicities.

    ``profiles`` is a ``(k, p)`` int array and ``weights`` a length-``k``
    positive int array; a plain i.i.d. sample has all weights equal to 1.
    ``n`` is the total number of draws, i.e. the weight sum.
    """

    strategy_counts: tuple
    profiles: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        self.strategy_counts = tuple(int(m) for m in self.strategy_counts)
        arr = np.asarray(self.profiles, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != len(self.strategy_counts):
            raise InvalidInputError(
                f"profiles must be (k, {len(self.strategy_counts)}), got {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise InvalidInputError("a dataset needs at least one profile")
        lo_ok = (arr >= 0).all()
        hi_ok = (arr < np.asarray(self.strategy_counts)[None, :]).all()
        if not (lo_ok and hi_ok):
            raise InvalidInputError("dataset contains out-of-range strategies")
        arr = arr.copy()
        arr.setflags(write=False)
        self.profiles = arr
        if self.weights is None:
            w = np.ones(arr.shape[0], dtype=np.int64)
        else:
            w = np.asarray(self.weights, dtype=np.int64)
            if w.shape != (arr.shape[0],) or (w < 1).any():
                raise InvalidInputError("weights must be positive ints, one per row")
            w = w.copy()
        w.setflags(write=False)
        self.weights = w

    @property
    def n(self) -> int:
        return int(self.weights.sum())

    @property
    def num_players(self) -> int:
        return len(self.strategy_counts)

    def is_expanded(self) -> bool:
        """True when every row counts once (plain i.i.d. sample form)."""
        return bool((self.weights == 1).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.strategy_counts == other.strategy_counts
            and np.array_equal(self.profiles, other.profiles)
            and np.array_equal(self.weights, other.weights)
        )


def _psne_or_enumerate(game, psne, cap):
    if psne is None:
        psne = enumerate_psne(game, cap=cap)
    return psne


def _validate_global(game, noise, psne):
    n_ne = len(psne)
    n_all = profile_count(game.strategy_counts)
    if n_ne == 0:
        raise ModelUndefinedError("global noise is undefined for a game with no equilibria")
    if noise.q <= n_ne / n_all:
        raise InvalidInputError(
            f"global noise weight q={noise.q} must exceed |NE|/|A| = {n_ne}/{n_all}"
        )
    if noise.q < 1.0 and n_ne == n_all:
        raise ModelUndefinedError(
            "global noise with q < 1 is undefined when every profile is an equilibrium"
        )


def _validate_local(game, noise, psne):
    if len(noise.q) != game.num_players:
        raise InvalidInputError(
            f"local noise has {len(noise.q)} fidelities for {game.num_players} players"
        )
    if len(psne) == 0:
        raise ModelUndefinedError("local noise is undefined for a game with no equilibria")
    if any(m < 2 for m in game.strategy_counts):
        raise ModelUndefinedError(
            "local noise needs at least two strategies per player"
        )


def _validate(game, noise, psne):
    if isinstance(noise, GlobalNoise):
        _validate_global(game, noise, psne)
    elif isinstance(noise, LocalNoise):
        _validate_local(game, noise, psne)
    else:
        raise InvalidInputError(f"unknown noise model {noise!r}")


def _pmf_block(game: PolymatrixGame, noise, psne: PsneSet, block: np.ndarray) -> np.ndarray:
    """Probability of every profile row of ``block``; ``noise`` is already validated.

    Local noise multiplies the per-player factors in player order and adds
    the equilibria in set order, exactly as a scalar loop would.
    """
    ne_rows = _psne_rows(psne, game.num_players)
    if isinstance(noise, GlobalNoise):
        n_ne = len(psne)
        n_all = profile_count(game.strategy_counts)
        in_ne = noise.q / n_ne
        out_ne = 0.0 if noise.q == 1.0 else (1.0 - noise.q) / (n_all - n_ne)
        radix = _radix(game.strategy_counts)
        return np.where(np.isin(block @ radix, ne_rows @ radix), in_ne, out_ne)
    total = np.zeros(block.shape[0])
    for y in ne_rows:
        prob = np.ones(block.shape[0])
        for i, (q, m) in enumerate(zip(noise.q, game.strategy_counts)):
            prob *= np.where(block[:, i] == y[i], q, (1.0 - q) / (m - 1))
        total += prob
    return total / len(psne)


def global_noise_pmf(
    game: PolymatrixGame,
    noise: GlobalNoise,
    x,
    psne: PsneSet = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Probability of observing profile ``x`` under the global noise model."""
    psne = _psne_or_enumerate(game, psne, cap)
    _validate_global(game, noise, psne)
    x = validate_profile(game.strategy_counts, x)
    return float(_pmf_block(game, noise, psne, np.array([x]))[0])


def local_noise_pmf(
    game: PolymatrixGame,
    noise: LocalNoise,
    x,
    psne: PsneSet = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Probability of observing profile ``x`` under the local noise model."""
    psne = _psne_or_enumerate(game, psne, cap)
    _validate_local(game, noise, psne)
    x = validate_profile(game.strategy_counts, x)
    return float(_pmf_block(game, noise, psne, np.array([x]))[0])


def _pmf_array(game: PolymatrixGame, noise, psne: PsneSet, cap: int) -> np.ndarray:
    """Probability of every profile, indexed by lexicographic profile code."""
    ensure_enumerable(game.strategy_counts, cap)
    psne = _psne_or_enumerate(game, psne, cap)
    _validate(game, noise, psne)
    return np.concatenate(
        [_pmf_block(game, noise, psne, block) for block in _profile_blocks(game.strategy_counts)]
    )


def pmf_table(
    game: PolymatrixGame,
    noise,
    psne: PsneSet = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> dict:
    """Exact probability of every profile, as a dict keyed by profile tuple."""
    probs = _pmf_array(game, noise, psne, cap)
    return dict(zip(all_profiles(game.strategy_counts), probs.tolist()))


def check_observation_condition(pmf: dict, psne: PsneSet) -> bool:
    """True when every equilibrium profile is strictly more likely than every other profile.

    ``pmf`` must cover the whole profile space and sum to 1 within 1e-9.
    """
    total = float(sum(pmf.values()))
    if abs(total - 1.0) > 1e-9:
        raise InvalidDistributionError(f"pmf sums to {total}, expected 1")
    if any(v < 0 for v in pmf.values()):
        raise InvalidDistributionError("pmf contains negative probabilities")
    members = psne.as_set()
    missing = members - set(pmf)
    if missing:
        raise InvalidDistributionError(
            f"pmf does not cover {len(missing)} equilibrium profiles"
        )
    min_ne = min(pmf[x] for x in members) if members else np.inf
    off = [v for x, v in pmf.items() if x not in members]
    max_off = max(off) if off else -np.inf
    return min_ne > max_off


def _rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by the low 64 bits of ``seed``; every seeded draw uses it."""
    key = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


def sample_dataset(
    game: PolymatrixGame,
    noise,
    n: int,
    seed: int,
    psne: PsneSet = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Dataset:
    """Draw ``n`` i.i.d. profiles from the noise model, one row per draw.

    Identical arguments always produce an identical dataset.
    """
    if n < 1:
        raise InvalidInputError(f"sample size must be at least 1, got {n}")
    psne = _psne_or_enumerate(game, psne, cap)
    counts = np.asarray(game.strategy_counts, dtype=np.int64)
    p = game.num_players
    rng = _rng(seed)
    ne_rows = _psne_rows(psne, p)

    _validate(game, noise, psne)
    if isinstance(noise, GlobalNoise):
        take_ne = rng.random(n) < noise.q
        idx = rng.integers(0, len(psne), size=n)
        out = ne_rows[idx]
        pending = np.flatnonzero(~take_ne)
        # Uniform over the complement by rejection against the equilibrium set.
        radix = _radix(counts)
        ne_codes = ne_rows @ radix
        while pending.size:
            cand = rng.integers(0, counts[None, :], size=(pending.size, p))
            good = ~np.isin(cand @ radix, ne_codes)
            out[pending[good]] = cand[good]
            pending = pending[~good]
        return Dataset(game.strategy_counts, out)

    idx = rng.integers(0, len(psne), size=n)
    out = ne_rows[idx].copy()
    for i in range(p):
        keep = rng.random(n) < noise.q[i]
        offset = rng.integers(1, counts[i], size=n)
        corrupted = (out[:, i] + offset) % counts[i]
        out[:, i] = np.where(keep, out[:, i], corrupted)
    return Dataset(game.strategy_counts, out)


def sample_from_pmf(pmf: dict, strategy_counts, n: int, seed: int) -> Dataset:
    """Draw ``n`` i.i.d. profiles from a user-supplied probability table.

    Supports arbitrary observation models on enumerable games: any table
    whose probabilities are nonnegative and sum to 1 within 1e-9.
    """
    if n < 1:
        raise InvalidInputError(f"sample size must be at least 1, got {n}")
    total = float(sum(pmf.values()))
    if abs(total - 1.0) > 1e-9 or any(v < 0 for v in pmf.values()):
        raise InvalidDistributionError(f"pmf sums to {total}, expected 1")
    profiles = [validate_profile(strategy_counts, x) for x in pmf]
    pvals = np.asarray(list(pmf.values()))
    rng = _rng(seed)
    idx = rng.choice(len(profiles), size=n, p=pvals / pvals.sum())
    rows = np.asarray(profiles, dtype=np.int64)[idx]
    return Dataset(strategy_counts, rows)


def sample_profile_counts(
    game: PolymatrixGame,
    noise,
    n: int,
    seed: int,
    psne: PsneSet = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Dataset:
    """Draw ``n`` i.i.d. profiles aggregated into (profile, multiplicity) rows.

    Distribution-equal to :func:`sample_dataset` after forgetting order, but
    runs in time and memory proportional to the profile space instead of
    ``n``, which matters when schedules call for enormous sample sizes.
    """
    if n < 1:
        raise InvalidInputError(f"sample size must be at least 1, got {n}")
    pvals = _pmf_array(game, noise, psne, cap)
    rng = _rng(seed)
    draws = rng.multinomial(n, pvals / pvals.sum())
    codes = np.flatnonzero(draws)
    counts = np.asarray(game.strategy_counts, dtype=np.int64)
    profiles = codes[:, None] // _radix(counts) % counts
    return Dataset(game.strategy_counts, profiles, draws[codes])
