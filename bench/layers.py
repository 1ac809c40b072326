"""Per-layer metrics of a traced pass: which functions are wrapped, what is counted.

A metric ``<module>.<function>.calls|s|self_s`` comes from the spans of that
function; ``.s`` and ``.self_s`` are totals over the pass. The remaining
metrics are counts taken at the same boundaries:

- ``games.profiles_scanned``: profiles visited by the ``games`` scans, the
  profile-space size of each ``enumerate_eps_ne`` (``enumerate_psne``
  delegates to it) and ``welfare_extremes`` call.
- ``experiments.evaluate_theorem1.scan_calls``: those scans made inside
  ``evaluate_theorem1``. Its private payoff-gap pass is not a public
  function, so it shows in ``evaluate_theorem1``'s self time instead.
- ``learner.iterations``: sum of ``FitResult.iterations`` over ``fit_player``.
- ``learner.unique_row_share``: distinct profiles over rows of the datasets
  passed to ``fit_game``. It is computed in a span of the benchmark's own,
  so the caller's self time does not include it.
- ``fileio.bytes_read`` / ``bytes_written``: characters through
  ``load_text`` / ``save_text`` (the files are ASCII).

Every metric is reported on every workload; a layer a workload does not
reach reads 0.
"""

from __future__ import annotations

import numpy as np

import polymatrix as pm

from tracer import median, nested_count, span_stats
from workloads import CLI_STEPS

SCANS = ("games.enumerate_eps_ne", "games.welfare_extremes")

# Counters that must repeat exactly between passes over the same inputs.
EXACT = (
    "learner.iterations",
    "ensembles.random_game.calls",
    "games.profiles_scanned",
    "experiments.evaluate_theorem1.scan_calls",
    "games.enumerate_eps_ne.profiles_out",
)


def _profiles_scanned(tracer, game, *args, **kwargs):
    tracer.add("games.profiles_scanned", pm.profile_count(game.strategy_counts))


def _profiles_out(tracer, result):
    tracer.add("games.enumerate_eps_ne.profiles_out", len(result))


def _fit_result(tracer, result):
    tracer.add("learner.iterations", result.iterations)
    tracer.add("learner.converged", int(result.converged))


def _unique_rows(tracer, data, *args, **kwargs):
    span = tracer.open("bench.unique_rows")
    try:
        unique = len(np.unique(data.profiles, axis=0))
    finally:
        tracer.close(span)
    tracer.add("learner.rows", data.profiles.shape[0])
    tracer.add("learner.unique_rows", unique)


def _bytes_read(tracer, text):
    tracer.add("fileio.bytes_read", len(text))


def _bytes_written(tracer, path, text):
    tracer.add("fileio.bytes_written", len(text))


NONE = (None, None)
HOOKS = {
    "ensembles.random_game": NONE,
    "experiments.recovery_trial": NONE,
    "experiments.evaluate_theorem1": NONE,
    "games.enumerate_psne": NONE,
    "games.enumerate_eps_ne": (_profiles_scanned, _profiles_out),
    "games.check_separability": NONE,
    "games.price_of_anarchy": NONE,
    "games.welfare_extremes": (_profiles_scanned, None),
    "observation.sample_dataset": NONE,
    "observation.sample_profile_counts": NONE,
    "observation.pmf_table": NONE,
    "learner.fit_game": (_unique_rows, None),
    "learner.fit_player": (None, _fit_result),
    "fileio.read_dataset": NONE,
    "fileio.write_dataset": NONE,
    "fileio.read_game": NONE,
    "fileio.write_game": NONE,
    "fileio.write_learned_model": NONE,
    "fileio.write_psne": NONE,
    "fileio.load_text": (None, _bytes_read),
    "fileio.save_text": (_bytes_written, None),
    "cli.main": NONE,
}

# (metric, unit, better); the order BENCHMARK.json lists them in.
PER_LAYER = [
    ("ensembles.random_game.calls", "count", "lower"),
    ("ensembles.random_game.s", "s", "lower"),
    ("experiments.game_accept_ratio", "share", "higher"),
    ("experiments.recovery_trial.s", "s", "lower"),
    ("experiments.recovery_trial.self_s", "s", "lower"),
    ("experiments.evaluate_theorem1.calls", "count", "lower"),
    ("experiments.evaluate_theorem1.s", "s", "lower"),
    ("experiments.evaluate_theorem1.self_s", "s", "lower"),
    ("experiments.evaluate_theorem1.scan_calls", "count", "lower"),
    ("games.enumerate_psne.calls", "count", "lower"),
    ("games.enumerate_psne.s", "s", "lower"),
    ("games.enumerate_eps_ne.calls", "count", "lower"),
    ("games.enumerate_eps_ne.s", "s", "lower"),
    ("games.enumerate_eps_ne.profiles_out", "count", "lower"),
    ("games.check_separability.self_s", "s", "lower"),
    ("games.price_of_anarchy.s", "s", "lower"),
    ("games.welfare_extremes.s", "s", "lower"),
    ("games.profiles_scanned", "count", "lower"),
    ("observation.sample_dataset.s", "s", "lower"),
    ("observation.sample_profile_counts.s", "s", "lower"),
    ("observation.pmf_table.calls", "count", "lower"),
    ("observation.pmf_table.s", "s", "lower"),
    ("learner.fit_game.calls", "count", "lower"),
    ("learner.fit_game.s", "s", "lower"),
    ("learner.fit_game.self_s", "s", "lower"),
    ("learner.fit_player.calls", "count", "lower"),
    ("learner.fit_player.s", "s", "lower"),
    ("learner.fit_player.s_p50", "s", "lower"),
    ("learner.iterations", "count", "lower"),
    ("learner.s_per_iteration", "s", "lower"),
    ("learner.converged_share", "share", "higher"),
    ("learner.unique_row_share", "share", "lower"),
    ("fileio.read_dataset.s", "s", "lower"),
    ("fileio.write_dataset.s", "s", "lower"),
    ("fileio.read_game.calls", "count", "lower"),
    ("fileio.read_game.s", "s", "lower"),
    ("fileio.write_game.s", "s", "lower"),
    ("fileio.write_learned_model.s", "s", "lower"),
    ("fileio.write_psne.s", "s", "lower"),
    ("fileio.bytes_read", "bytes", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
    *[(f"cli.{step}.s", "s", "lower") for step in CLI_STEPS],
    ("cli.startup_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_share", "share", "lower"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def counters(tracer):
    """Counts of one traced pass, including the exact-repeat ones."""
    stats = span_stats(tracer.spans)
    out = {f"{name}.calls": row["calls"] for name, row in stats.items()}
    out.update(tracer.counts)
    out["experiments.evaluate_theorem1.scan_calls"] = nested_count(
        tracer.spans, SCANS, "experiments.evaluate_theorem1"
    )
    for name in EXACT:
        out.setdefault(name, 0)
    return out


def per_layer(tracer, step_seconds, startup_s):
    """Every PER_LAYER metric except the ``trace.*`` ones, from one traced pass."""
    stats = span_stats(tracer.spans)
    count = counters(tracer)
    values = {}
    for name, _, _ in PER_LAYER:
        fn, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and fn in HOOKS:
            values[name] = stats[fn][field] if fn in stats else 0
    fit = stats.get("learner.fit_player")
    values.update({
        "experiments.game_accept_ratio": _ratio(
            count.get("experiments.recovery_trial.calls", 0), count["ensembles.random_game.calls"]
        ),
        **{name: count[name] for name in EXACT},
        "learner.fit_player.s_p50": median(fit["durations"]) if fit else 0.0,
        "learner.s_per_iteration": _ratio(fit["s"] if fit else 0.0, count["learner.iterations"]),
        "learner.converged_share": _ratio(
            count.get("learner.converged", 0), count.get("learner.fit_player.calls", 0)
        ),
        "learner.unique_row_share": _ratio(
            count.get("learner.unique_rows", 0), count.get("learner.rows", 0)
        ),
        "fileio.bytes_read": count.get("fileio.bytes_read", 0),
        "fileio.bytes_written": count.get("fileio.bytes_written", 0),
        "cli.startup_s": startup_s,
    })
    for step, s in zip(CLI_STEPS, step_seconds or [0.0] * len(CLI_STEPS)):
        values[f"cli.{step}.s"] = s
    return values
