"""Benchmark workloads: seeded inputs, one operation, and its output check.

Every workload makes all of its inputs from the run seed in ``setup``,
numbers its operations ``0, 1, 2, ...`` and cycles through a pool of
inputs, so the same seed always gives the same sequence of operations.
``check(k, out)`` returns ``None`` for a correct output of operation ``k``
or a one-line reason; ``final_check(ops)`` runs checks that need the whole
run and returns ``{op: reason}`` for the operations they fail. No check
depends on the order of a float summation.

The library is called through attributes of the ``polymatrix`` package at
call time, so the traced run's rebound wrappers see these calls.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import polymatrix as pm
import polymatrix.cli  # the package does not import its CLI module itself
from polymatrix import fileio
from polymatrix.experiments import derive_seed

NOISE_Q = 0.6


def draw_games(p, d, m, base_seed, ne_ranges, min_draws=0):
    """One random game per ``(lo, hi)`` of ``ne_ranges``, with lo to hi equilibria.

    Games come from one seeded stream of draws; each goes to the first open
    slot it fits. At least ``min_draws`` are drawn, so where that is enough
    the set-up work does not depend on the seed. Returns (spec seed, game,
    PSNE) per slot.
    """
    slots = [None] * len(ne_ranges)
    attempt = 0
    while attempt < min_draws or not all(slots):
        if attempt >= min_draws + 100 * len(slots):
            raise RuntimeError(f"not enough games with {ne_ranges} equilibria")
        seed = derive_seed(base_seed, attempt)
        game = pm.random_game(pm.RandomGameSpec(p=p, d=d, m=m, seed=seed))
        ne = pm.enumerate_psne(game)
        for i, (lo, hi) in enumerate(ne_ranges):
            if slots[i] is None and lo <= len(ne) <= hi:
                slots[i] = (seed, game, ne)
                break
        attempt += 1
    return slots


class Workload:
    """Defaults: operations may stop anywhere, no whole-run checks, nothing to clean up."""

    batch = 1

    def __init__(self, seed, root):
        self.seed = seed
        self.root = Path(root)

    def final_check(self, ops):
        return {}

    def close(self):
        pass


class Sweep(Workload):
    """``phase_transition_sweep`` on the golden configuration.

    One op is one call over the whole golden c grid with one trial per c,
    so every op has the same mix of sample sizes (n from 32 to about 10k);
    op ``k`` uses sweep seed ``derive_seed(seed, k)``.
    """

    name = "sweep"
    trace_ops = 10

    def setup(self):
        g = self.golden = json.loads(
            (self.root / "tests" / "golden" / "phase_transition.json").read_text()
        )
        self.spec = pm.ExperimentSpec(
            p_values=(g["p"],), d_values=(g["d"],), c_grid=g["c_grid"], m=g["m"],
            noise_kind=g["noise_kind"], q=g["q"], trials=1, delta=g["delta"],
        )
        self.recovered = {}

    def op(self, k):
        spec = replace(self.spec, seed=derive_seed(self.seed, k))
        return pm.phase_transition_sweep(spec, threads=1)

    def check(self, k, report):
        g = self.golden
        grid = self.spec.c_grid
        if len(report.trial_records) != len(grid) or len(report.rows) != len(grid):
            return "a trial was not recorded"
        for c, rec, row in zip(grid, report.trial_records, report.rows):
            if rec.c != c or rec.n != pm.sample_count(c, g["p"], g["d"], g["delta"]):
                return f"trial at c={c} ran the wrong configuration"
            if rec.ne_true_size < 1:
                return f"true game at c={c} has no equilibrium"
            if row.c != c or row.trials != 1 or row.recovered != int(rec.recovered):
                return f"row at c={c} disagrees with its trial"
        self.recovered[k] = [rec.recovered for rec in report.trial_records]
        return None

    def final_check(self, ops):
        """Recovery probability over the run within the golden bounds at both ends of the grid."""
        g = self.golden
        runs = [self.recovered[k] for k in range(ops) if k in self.recovered]
        if not runs:
            return {}
        low = sum(r[0] for r in runs) / len(runs)
        high = sum(r[-1] for r in runs) / len(runs)
        if low > g["low_c_max_probability"] or high < g["high_c_min_probability"]:
            why = f"recovery probability {low} at the smallest c, {high} at the largest"
            return {k: why for k in range(ops)}
        return {}


class Learn(Workload):
    """``fit_game`` with the theory lambda on one thread; one op is one fit."""

    name = "learn"
    trace_ops = 4
    p, d, m, n, pool_size = 8, 2, 3, 20000, 20

    def setup(self):
        self.pool = None  # a repeated set-up must not hold two pools at once
        games = draw_games(
            self.p, self.d, self.m, derive_seed(self.seed, 1), [(2, math.inf)] * self.pool_size
        )
        noise = pm.LocalNoise.uniform(self.p, NOISE_Q)
        self.pool = [
            pm.sample_dataset(game, noise, self.n, derive_seed(self.seed, 2, g), psne=ne)
            for g, (_, game, ne) in enumerate(games)
        ]
        lam = pm.lambda_schedule(self.n, self.p, self.d, pm.LearnerConfig())
        self.config = pm.LearnerConfig().resolved(lam)

    def op(self, k):
        return pm.fit_game(self.pool[k % self.pool_size], self.config, threads=1)

    def check(self, k, model):
        counts = self.pool[k % self.pool_size].strategy_counts
        if len(model.diagnostics) != len(counts):
            return "one diagnostics record per player expected"
        for i, diag in enumerate(model.diagnostics):
            if not diag.converged or not diag.grad_map_norm <= self.config.tolerance:
                return f"player {i} did not converge"
            # At theta = 0 the softmax is uniform, so the objective is log m_i.
            if not diag.objective <= math.log(counts[i]):
                return f"player {i} objective above its value at zero"
        return None


def _perturbed(game, error, seed):
    """Same graph, pair matrices moved so every player's group-norm error is ``error``."""
    rng = np.random.default_rng(seed)
    pairs = {}
    for i in range(game.num_players):
        deltas = {
            j: rng.normal(size=game.pair_matrix(i, j).shape) for j in game.neighbors[i]
        }
        scale = error / sum(np.linalg.norm(v) for v in deltas.values())
        for j, v in deltas.items():
            pairs[(i, j)] = game.pair_matrix(i, j) + scale * v
    return pm.PolymatrixGame(game.strategy_counts, game.individual, pairs)


class Scan(Workload):
    """Full analysis of one game: equilibria, welfare, pmf, sampling, comparisons.

    The local-noise pmf costs time in proportion to the number of
    equilibria, so the pool alternates games with exactly 1 and 2 of them
    and runs stop after whole pairs: every run analyses the same mix. Games
    with 2 are rare (about one draw in six at p=9), so set-up always draws
    enough candidates for the pool and its time hardly depends on the seed.
    """

    name = "scan"
    trace_ops = 6
    batch = 2
    p, d, m, n, pool_size = 9, 2, 3, 20000, 12
    min_draws = 80
    scan_epsilon = 0.5
    # evaluate_theorem1 uses twice the parameter error as its slack: the near
    # model gives small epsilon-NE sets, the far model large ones.
    near_error, far_error = 0.05, 2.5

    def setup(self):
        games = draw_games(
            self.p, self.d, self.m, derive_seed(self.seed, 3),
            [(1, 1), (2, 2)] * (self.pool_size // 2), self.min_draws,
        )
        self.pool = [
            (
                game,
                _perturbed(game, self.near_error, derive_seed(self.seed, 4, g)),
                _perturbed(game, self.far_error, derive_seed(self.seed, 5, g)),
            )
            for g, (_, game, _) in enumerate(games)
        ]

    def op(self, k):
        game, near, far = self.pool[k % self.pool_size]
        noise = pm.LocalNoise.uniform(self.p, NOISE_Q)
        ne = pm.enumerate_psne(game)
        return {
            "ne": ne,
            "eps": pm.enumerate_eps_ne(game, self.scan_epsilon),
            "poa": pm.price_of_anarchy(game, ne),
            "pmf": pm.pmf_table(game, noise, psne=ne),
            "data": pm.sample_profile_counts(
                game, noise, self.n, derive_seed(self.seed, 6, k % self.pool_size), psne=ne
            ),
            "near": pm.evaluate_theorem1(game, near, ne_true=ne),
            "far": pm.evaluate_theorem1(game, far, ne_true=ne),
        }

    def check(self, k, out):
        game = self.pool[k % self.pool_size][0]
        ne = out["ne"]
        if len(ne) == 0 or not ne.issubset(out["eps"]):
            return "PSNE set empty or not inside the epsilon-NE set"
        if not all(pm.is_psne(game, x) for x in ne):
            return "a reported PSNE is not an equilibrium"
        if abs(math.fsum(out["pmf"].values()) - 1.0) > 1e-9:
            return "pmf does not sum to 1"
        # Max welfare and equilibrium welfare are summed in different orders,
        # so a game whose best profile is an equilibrium may read just below 1.
        if not out["poa"] >= 1.0 - 1e-9:
            return "price of anarchy below 1"
        if out["data"].n != self.n:
            return "aggregated sample has the wrong size"
        for ev in (out["near"], out["far"]):
            if ev.ne_true_size != len(ne) or ev.epsilon != 2.0 * ev.max_param_error:
                return "comparison report is inconsistent"
        return None

    def final_check(self, ops):
        # The self-comparison checks evaluate_theorem1 itself, so a few games
        # are enough; a failure fails every operation on those games.
        failures = {}
        for g, (game, _, _) in enumerate(self.pool[:min(ops, 3)]):
            ev = pm.evaluate_theorem1(game, game)
            if not ev.ne_equal or ev.payoff_discrepancy != 0.0:
                why = "game compared with itself differs"
                failures.update({k: why for k in range(g, ops, self.pool_size)})
        return failures


CLI_STEPS = ("generate", "sample", "learn", "psne", "compare", "poa")


class Cli(Workload):
    """The CLI chain generate -> sample -> learn -> psne -> compare -> poa; one op is one chain.

    Runs as ``python -m polymatrix`` subprocesses, one chain at a time
    (closed loop, one client). ``learn`` keeps its default ``--threads``.
    """

    name = "cli"
    trace_ops = 2
    p, d, m, n, pool_size = 8, 2, 3, 10000, 12

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.work = self.root / ".bench_tmp" / f"cli-{os.getpid()}"

    def setup(self):
        games = draw_games(
            self.p, self.d, self.m, derive_seed(self.seed, 7), [(1, math.inf)] * self.pool_size
        )
        self.chains = [
            (game_seed, derive_seed(self.seed, 8, g), len(ne))
            for g, (game_seed, _, ne) in enumerate(games)
        ]
        self.work.mkdir(parents=True, exist_ok=True)

    def path(self, name):
        return str(self.work / name)

    def argvs(self, k):
        game_seed, sample_seed, _ = self.chains[k % self.pool_size]
        f = self.path
        return [
            ["generate", "--p", str(self.p), "--d", str(self.d), "--m", str(self.m),
             "--seed", str(game_seed), "--out", f("game.txt")],
            ["sample", "--game", f("game.txt"), "--noise", "local", "--qi", str(NOISE_Q),
             "--n", str(self.n), "--seed", str(sample_seed), "--out", f("data.csv")],
            ["learn", "--data", f("data.csv"), "--lambda", "theory", "--d", str(self.d),
             "--out", f("model.txt")],
            ["psne", "--game", f("model.txt"), "--out", f("ne.csv")],
            ["compare", "--true", f("game.txt"), "--learned", f("model.txt"),
             "--out", f("eval.txt")],
            ["poa", "--game", f("game.txt"), "--out", f("poa.txt")],
        ]

    def env(self):
        return {**os.environ, "PYTHONPATH": str(self.root / "src")}

    def op(self, k):
        codes, seconds = [], []
        for argv in self.argvs(k):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "polymatrix", *argv],
                env=self.env(), capture_output=True, timeout=150,
            )
            seconds.append(time.perf_counter() - start)
            codes.append(proc.returncode)
        return {"codes": codes, "seconds": seconds}

    def op_in_process(self, k):
        """The same chain through ``cli.main`` in this process (traced runs)."""
        return {"codes": [pm.cli.main(argv) for argv in self.argvs(k)], "seconds": None}

    def check(self, k, out):
        if any(code != 0 for code in out["codes"]):
            return f"exit codes {out['codes']}"
        text = {name: Path(self.path(name)).read_text() for name in
                ("game.txt", "data.csv", "model.txt", "ne.csv", "eval.txt", "poa.txt")}
        game = fileio.read_game(text["game.txt"])
        if fileio.read_dataset(text["data.csv"]).n != self.n:
            return "dataset has the wrong size"
        model, diags = fileio.read_learned_model(text["model.txt"])
        if len(diags) != self.p or model.strategy_counts != game.strategy_counts:
            return "learned model does not match the game"
        rows = [ln for ln in text["ne.csv"].splitlines() if ln and not ln.startswith("#")]
        profiles = [tuple(int(v) - 1 for v in ln.split(",")) for ln in rows[1:]]
        if f"# count: {len(profiles)}" not in text["ne.csv"]:
            return "ne.csv row count disagrees with its header"
        if not all(pm.is_psne(model, x) for x in profiles):
            return "a row of ne.csv is not an equilibrium of the learned model"
        report = _key_values(text["eval.txt"])
        if int(report["ne_true"]) != self.chains[k % self.pool_size][2]:
            return "compare counts a different number of true equilibria"
        if not float(_key_values(text["poa.txt"])["price_of_anarchy"]) >= 1.0 - 1e-9:
            return "price of anarchy below 1"
        return None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def _key_values(text):
    pairs = (ln.split(None, 1) for ln in text.splitlines() if ln and not ln.startswith("#"))
    return {key: value for key, value in pairs}


WORKLOADS = {w.name: w for w in (Sweep, Learn, Scan, Cli)}
