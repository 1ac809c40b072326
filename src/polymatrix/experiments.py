"""Recovery experiments: sample-size sweeps and learned-game evaluation.

``phase_transition_sweep`` estimates, over many seeded trials, how often
the learner recovers the exact equilibrium set of a random game as the
sample budget grows through a control exponent ``c``. Trials derive their
seeds from the base seed and trial index and run one after another.

``evaluate_theorem1`` compares a learned model against the game the data
came from: parameter error per player, worst payoff discrepancy, and the
equilibrium containments those errors imply. The worst discrepancy needs no
scan: it is maximised per in-neighbour in closed form, so the one pass over
the profile space only finds the PSNE sets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .games import (
    DEFAULT_ENUMERATION_CAP,
    GroupedVector,
    PolymatrixGame,
    PsneSet,
    _eps_ne_mask,
    _profile_blocks,
    _psne_rows,
    _separable,
    _strategy_payoffs,
    _vector_terms,
    ensure_enumerable,
    enumerate_psne,
    pack_parameters,
    profile_count,
)
from .learner import LearnedModel, LearnerConfig, fit_game, lambda_schedule
from .observation import LocalNoise, GlobalNoise, sample_dataset, sample_profile_counts
from .ensembles import RandomGameSpec, random_game

_SEED_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def derive_seed(base: int, *parts: int) -> int:
    """Deterministic 64-bit seed derived from a base seed and index parts."""
    h = base & _MASK
    for part in parts:
        h ^= (part & _MASK) * _SEED_MIX & _MASK
        h = (h ^ (h >> 29)) * 0xBF58476D1CE4E5B9 & _MASK
        h ^= h >> 32
    return h


def sample_count(c: float, p: int, d: int, delta: float) -> int:
    """Sample budget ``round(10^c (d+1)^2 log(2 p (d+1) / delta))``, at least 1."""
    if not 0 < delta < 1:
        raise InvalidInputError(f"delta must lie in (0, 1), got {delta}")
    if p < 1 or d < 0:
        raise InvalidInputError("p must be positive and d nonnegative")
    value = (10.0**c) * (d + 1) ** 2 * math.log(2.0 * p * (d + 1) / delta)
    return max(1, round(value))


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration for a recovery-probability sweep."""

    p_values: tuple
    d_values: tuple
    c_grid: tuple
    m: int = 3
    noise_kind: str = "local"
    q: float = 0.6
    trials: int = 40
    delta: float = 0.01
    seed: int = 0
    lambda_mode: object = "theory"
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    trial_timeout: float = None
    max_game_retries: int = 1000
    aggregate_threshold: int = 10

    def __post_init__(self):
        object.__setattr__(self, "p_values", tuple(int(v) for v in self.p_values))
        object.__setattr__(self, "d_values", tuple(int(v) for v in self.d_values))
        object.__setattr__(self, "c_grid", tuple(float(v) for v in self.c_grid))
        if not self.p_values or not self.d_values or not self.c_grid:
            raise InvalidInputError("p_values, d_values and c_grid must be nonempty")
        if self.trials < 1:
            raise InvalidInputError("trials must be at least 1")
        if not 0 < self.delta < 1:
            raise InvalidInputError(f"delta must lie in (0, 1), got {self.delta}")
        if self.noise_kind not in ("local", "global"):
            raise InvalidInputError(f"unknown noise kind {self.noise_kind!r}")
        for d in self.d_values:
            for p in self.p_values:
                if d >= p:
                    raise InvalidInputError(f"degree {d} infeasible for p={p}")
        if not 0.0 < self.q <= 1.0:
            raise InvalidInputError(f"q must lie in (0, 1], got {self.q}")
        if not all(math.isfinite(c) for c in self.c_grid):
            raise InvalidInputError(f"c_grid values must be finite, got {self.c_grid}")
        if self.trial_timeout is not None and not 0 < self.trial_timeout < math.inf:
            raise InvalidInputError(
                f"trial_timeout must be finite and positive, got {self.trial_timeout}"
            )
        if self.lambda_mode != "theory":
            if not isinstance(self.lambda_mode, (int, float)):
                raise InvalidInputError("lambda_mode is 'theory' or a number")
            if not 0 <= self.lambda_mode < math.inf:
                raise InvalidInputError(
                    f"lambda_mode must be finite and nonnegative, got {self.lambda_mode}"
                )


@dataclass(frozen=True)
class TrialRecord:
    p: int
    d: int
    c: float
    n: int
    seed: int
    lam: float
    game_retries: int
    ne_true_size: int
    ne_learned_size: int
    ne_equal: bool
    containment_ok: bool
    max_payoff_error: float
    epsilon: float
    fit_seconds: float
    trial_seconds: float
    converged: bool
    timed_out: bool

    @property
    def recovered(self) -> bool:
        """Equilibria matched and nothing flagged the trial as failed."""
        return self.ne_equal and self.converged and not self.timed_out


@dataclass(frozen=True)
class SweepRow:
    p: int
    d: int
    c: float
    n: int
    trials: int
    recovered: int
    probability: float
    mean_fit_seconds: float


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    rows: tuple
    trial_records: tuple


def _noise_for(spec_kind: str, q: float, p: int):
    if spec_kind == "local":
        return LocalNoise.uniform(p, q)
    return GlobalNoise(q)


def _draw_trial_game(p, d, spec, seed, cap):
    """A trial's random game with at least one equilibrium (the noise models need one).

    Returns the game, its equilibria, the draws rejected before it and the
    seconds spent. The game seed depends on the trial seed alone, not on
    ``c``, so a sweep draws each trial's game once and runs every ``c`` on it.
    """
    start = time.perf_counter()
    base = derive_seed(seed, 1)
    for attempt in range(spec.max_game_retries):
        game = random_game(RandomGameSpec(p=p, d=d, m=spec.m, seed=derive_seed(base, attempt)))
        ne = enumerate_psne(game, cap=cap)
        if len(ne) > 0:
            return game, ne, attempt, time.perf_counter() - start
    raise InvalidInputError(
        f"no game with a nonempty equilibrium set in {spec.max_game_retries} draws"
    )


def recovery_trial(
    p: int,
    d: int,
    c: float,
    spec: ExperimentSpec,
    seed: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> TrialRecord:
    """One seeded end-to-end trial: generate, sample, fit, compare equilibria."""
    return _run_trial(p, d, c, spec, seed, cap, _draw_trial_game(p, d, spec, seed, cap))


def _run_trial(p, d, c, spec, seed, cap, drawn) -> TrialRecord:
    """:func:`recovery_trial` on an already drawn game; its seconds count toward the trial."""
    game, ne_true, retries, draw_seconds = drawn
    start = time.perf_counter()
    n = sample_count(c, p, d, spec.delta)
    noise = _noise_for(spec.noise_kind, spec.q, p)
    data_seed = derive_seed(seed, 2)
    if n >= spec.aggregate_threshold * profile_count(game.strategy_counts):
        data = sample_profile_counts(game, noise, n, data_seed, psne=ne_true, cap=cap)
    else:
        data = sample_dataset(game, noise, n, data_seed, psne=ne_true, cap=cap)

    if spec.lambda_mode == "theory":
        lam = lambda_schedule(n, p, d, spec.learner)
    else:
        lam = float(spec.lambda_mode)
    fit_start = time.perf_counter()
    model = fit_game(data, spec.learner.resolved(lam))
    fit_seconds = time.perf_counter() - fit_start

    evaluation = evaluate_theorem1(game, model, cap=cap, ne_true=ne_true)
    trial_seconds = draw_seconds + time.perf_counter() - start
    timed_out = spec.trial_timeout is not None and trial_seconds > spec.trial_timeout
    return TrialRecord(
        p=p,
        d=d,
        c=c,
        n=n,
        seed=seed,
        lam=lam,
        game_retries=retries,
        ne_true_size=len(ne_true),
        ne_learned_size=evaluation.ne_learned_size,
        ne_equal=evaluation.ne_equal,
        containment_ok=evaluation.containment_ok,
        max_payoff_error=evaluation.payoff_discrepancy,
        epsilon=evaluation.epsilon,
        fit_seconds=fit_seconds,
        trial_seconds=trial_seconds,
        converged=all(dg.converged for dg in model.diagnostics),
        timed_out=timed_out,
    )


def phase_transition_sweep(
    spec: ExperimentSpec, threads: int = 1, cap: int = DEFAULT_ENUMERATION_CAP
) -> ExperimentReport:
    """Run every (p, d, c) configuration for the configured number of trials.

    Trials run serially in key order, so each key's records are one
    consecutive run of ``spec.trials``. Each trial's game is drawn once per
    (p, d) and shared by every ``c``; every record's ``trial_seconds``
    includes the time that draw took. ``threads`` is accepted and ignored.
    """
    keys = []
    records = []
    for p in spec.p_values:
        for d in spec.d_values:
            seeds = [derive_seed(spec.seed, t) for t in range(spec.trials)]
            drawn = [_draw_trial_game(p, d, spec, seed, cap) for seed in seeds]
            for c in spec.c_grid:
                keys.append((p, d, c))
                records.extend(
                    _run_trial(p, d, c, spec, seed, cap, draw)
                    for seed, draw in zip(seeds, drawn)
                )

    rows = []
    for k, (p, d, c) in enumerate(keys):
        group = records[k * spec.trials:(k + 1) * spec.trials]
        recovered = sum(r.recovered for r in group)
        rows.append(
            SweepRow(
                p=p,
                d=d,
                c=c,
                n=group[0].n,
                trials=len(group),
                recovered=recovered,
                probability=recovered / len(group),
                mean_fit_seconds=sum(r.fit_seconds for r in group) / len(group),
            )
        )
    return ExperimentReport(spec=spec, rows=tuple(rows), trial_records=tuple(records))


# ---------------------------------------------------------------------------
# Learned-model evaluation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem1Evaluation:
    """How a learned game relates to the true game it was fitted from."""

    param_errors: tuple
    max_param_error: float
    payoff_discrepancy: float
    epsilon: float
    discrepancy_bounded: bool
    ne_true_size: int
    ne_learned_size: int
    learned_in_eps_true: bool
    true_in_eps_learned: bool
    containment_ok: bool
    separable_at_epsilon: bool
    ne_equal: bool


def _as_params(true_game: PolymatrixGame, learned) -> tuple:
    if isinstance(learned, LearnedModel):
        if learned.strategy_counts != true_game.strategy_counts:
            raise InvalidInputError("learned model and game disagree on strategy counts")
        return learned.params, learned.game
    if isinstance(learned, PolymatrixGame):
        if learned.strategy_counts != true_game.strategy_counts:
            raise InvalidInputError("games disagree on strategy counts")
        params = tuple(
            pack_parameters(learned, i) for i in range(learned.num_players)
        )
        return params, learned
    raise InvalidInputError("learned must be a LearnedModel or a PolymatrixGame")


def _max_abs_payoff(diff: GroupedVector) -> float:
    """Largest ``|payoff|`` of the grouped vector ``diff`` over the whole profile space.

    Each other player's strategy enters one term of the sum independently, so
    for own strategy ``a`` the extremes take, in every pair group, the column
    with the largest (or smallest) entry of row ``a``. Evaluating those
    ``2 m_i`` profiles with the payoff kernel gives the exact maximum.
    """
    base, terms = _vector_terms(diff)
    m = len(base)
    own = np.tile(np.arange(m), 2)
    rows = np.empty((2 * m, len(diff.layout.counts)), dtype=np.int64)
    rows[:, diff.owner] = own
    for j, mat in terms:
        rows[:m, j] = mat.argmax(axis=1)
        rows[m:, j] = mat.argmin(axis=1)
    vals = _strategy_payoffs(base, terms, rows)
    return float(np.abs(vals[np.arange(2 * m), own]).max())


def evaluate_theorem1(
    true_game: PolymatrixGame,
    learned,
    cap: int = DEFAULT_ENUMERATION_CAP,
    ne_true: PsneSet = None,
) -> Theorem1Evaluation:
    """Compare a learned model (or game) against the true game.

    Computes per-player parameter errors in the sum-of-group-norms sense,
    the worst payoff discrepancy over the whole profile space, and checks
    that each game's equilibria sit inside the other's epsilon-equilibria
    at twice the worst parameter error. When the true game separates
    equilibria from deviations by more than that slack, the equilibrium
    sets must coincide.

    The discrepancy of player ``i`` is a sum of one term per other player,
    each depending on that player's strategy alone, so its extremes are
    found per in-neighbour from ``2 m_i`` profiles (``_max_abs_payoff``).
    The pass over the profile space only finds the PSNE sets: the learned
    one, and the true one unless ``ne_true`` is given.
    """
    params, learned_game = _as_params(true_game, learned)
    diffs = [
        GroupedVector(est.layout, est.values - pack_parameters(true_game, i).values)
        for i, est in enumerate(params)
    ]
    errors = tuple(float(sum(d.group_norms().tolist())) for d in diffs)
    max_err = max(errors)
    epsilon = 2.0 * max_err
    discrepancy = max(_max_abs_payoff(diff) for diff in diffs)

    # The only pass over the profile space finds the exact PSNE sets.
    counts = true_game.strategy_counts
    ensure_enumerable(counts, cap)
    found_true, found_learned = [], []
    for block in _profile_blocks(counts):
        if ne_true is None:
            found_true.append(block[_eps_ne_mask(true_game, block, 0.0)])
        found_learned.append(block[_eps_ne_mask(learned_game, block, 0.0)])
    true_rows = np.concatenate(found_true) if ne_true is None else _psne_rows(ne_true, len(counts))
    learned_rows = np.concatenate(found_learned)

    # A PSNE set lies in the other game's epsilon-NE set iff each of its rows passes the test.
    learned_in_eps_true = bool(_eps_ne_mask(true_game, learned_rows, epsilon).all())
    true_in_eps_learned = bool(_eps_ne_mask(learned_game, true_rows, epsilon).all())
    return Theorem1Evaluation(
        param_errors=errors,
        max_param_error=max_err,
        payoff_discrepancy=discrepancy,
        epsilon=epsilon,
        discrepancy_bounded=discrepancy <= max_err + 1e-9,
        ne_true_size=len(true_rows),
        ne_learned_size=len(learned_rows),
        learned_in_eps_true=learned_in_eps_true,
        true_in_eps_learned=true_in_eps_learned,
        containment_ok=learned_in_eps_true and true_in_eps_learned,
        separable_at_epsilon=_separable(true_game, true_rows, epsilon),
        ne_equal=np.array_equal(true_rows, learned_rows),
    )
