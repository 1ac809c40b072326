"""Command-line interface.

Every subcommand is non-interactive, honors ``--seed``, ``--out`` and
``--config``, and echoes its fully resolved configuration into the output
artifact so runs can be reproduced from the file alone. A ``--config``
file holds ``key = value`` lines (keys match the long flag names), each
converted and checked as its flag would be; explicit flags override file
values. ``--threads`` is accepted and ignored: every command runs serially.

Exit codes: 0 success, 2 usage, 3 parse or missing file, 4 enumeration
capacity exceeded, 5 numeric or model error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import CapacityError, ParseError, PolymatrixError
from .games import (
    _poa_ratio,
    enumerate_eps_ne,
    enumerate_psne,
    payoff_shift,
    welfare_extremes,
)
from .learner import LearnerConfig, fit_game, lambda_schedule
from .observation import GlobalNoise, LocalNoise, sample_dataset
from .ensembles import HardEnsembleSpec, RandomGameSpec, hard_game, random_game
from .experiments import ExperimentSpec, evaluate_theorem1, phase_transition_sweep
from . import fileio

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAPACITY = 4
EXIT_NUMERIC = 5

_EPILOG = (
    "exit codes: 0 ok, 2 usage, 3 parse error or missing file, "
    "4 enumeration capacity exceeded, 5 numeric/model error"
)


def _int_list(text: str):
    return tuple(int(v) for v in text.split(",") if v.strip() != "")

def _float_list(text: str):
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _lambda_text(text: str) -> str:
    """Check a ``--lambda`` value; the user's spelling is kept for the header."""
    if text != "theory":
        try:
            float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number or 'theory', got {text!r}"
            ) from None
    return text


def _build_parser():
    """The top-level parser and its subcommand parsers, keyed by name."""
    parser = argparse.ArgumentParser(
        prog="polymatrix",
        description="Learn and analyze sparse polymatrix games.",
        epilog=_EPILOG,
    )
    parser.add_argument("--version", action="version", version=f"polymatrix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--out", help="output path (stdout when omitted)")
        sp.add_argument("--config", help="key = value config file; flags override")
        if seed:
            sp.add_argument("--seed", type=int)

    sp = sub.add_parser("generate", help="write a random game file", epilog=_EPILOG)
    sp.add_argument("--p", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--payoff-std", type=float, dest="payoff_std")
    common(sp)

    sp = sub.add_parser(
        "hard-ensemble", help="write a single-equilibrium hard game file", epilog=_EPILOG
    )
    sp.add_argument("--p", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--influential", type=_int_list, help="1-indexed players, comma separated")
    sp.add_argument("--target", type=_int_list, help="1-indexed strategies, comma separated")
    common(sp)

    sp = sub.add_parser("sample", help="draw a dataset from a game file", epilog=_EPILOG)
    sp.add_argument("--game", required=True)
    sp.add_argument("--noise", choices=("global", "local"))
    sp.add_argument("--q", type=float, help="global mixture weight")
    sp.add_argument("--qi", type=float, help="local per-player fidelity")
    sp.add_argument("--n", type=int)
    common(sp)

    sp = sub.add_parser("learn", help="fit a game from a dataset CSV", epilog=_EPILOG)
    sp.add_argument("--data", required=True)
    sp.add_argument("--lambda", dest="lam", type=_lambda_text, help="penalty weight, or 'theory'")
    sp.add_argument("--d", type=int, help="assumed degree for the theory schedule")
    sp.add_argument("--nu", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--max-iter", type=int, dest="max_iter")
    sp.add_argument("--tol", type=float)
    sp.add_argument("--edge-threshold", type=float, dest="edge_threshold")
    sp.add_argument("--threads", type=int, help="accepted and ignored; runs are serial")
    common(sp, seed=False)

    sp = sub.add_parser("psne", help="enumerate (epsilon-)equilibria of a game file", epilog=_EPILOG)
    sp.add_argument("--game", required=True)
    sp.add_argument("--epsilon", type=float)
    common(sp, seed=False)

    sp = sub.add_parser("compare", help="evaluate a learned game against the true game", epilog=_EPILOG)
    sp.add_argument("--true", dest="true_path", required=True)
    sp.add_argument("--learned", dest="learned_path", required=True)
    common(sp, seed=False)

    sp = sub.add_parser("poa", help="welfare extremes and price of anarchy", epilog=_EPILOG)
    sp.add_argument("--game", required=True)
    common(sp, seed=False)

    sp = sub.add_parser("experiment", help="recovery-probability sweep CSV", epilog=_EPILOG)
    sp.add_argument("--p", type=_int_list)
    sp.add_argument("--d", type=_int_list)
    sp.add_argument("--m", type=int)
    sp.add_argument("--c-grid", type=_float_list, dest="c_grid")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--noise", choices=("global", "local"))
    sp.add_argument("--q", type=float)
    sp.add_argument("--lambda", dest="lam", type=_lambda_text, help="penalty weight, or 'theory'")
    sp.add_argument("--timeout", type=float, help="per-trial timeout in seconds")
    sp.add_argument("--threads", type=int, help="accepted and ignored; runs are serial")
    sp.add_argument("--details", help="optional per-trial CSV path")
    common(sp)

    sp = sub.add_parser("ingest", help="map a vote CSV to a dataset", epilog=_EPILOG)
    sp.add_argument("--votes", required=True)
    sp.add_argument("--rule", choices=sorted(fileio.VOTE_RULES))
    sp.add_argument("--fill-abstain", action="store_true", dest="fill_abstain", default=None)
    common(sp, seed=False)

    return parser, sub.choices


_DEFAULTS = {
    "generate": {"p": 7, "d": 1, "m": 3, "payoff_std": 2.0**0.5, "seed": 0},
    "hard-ensemble": {"p": 5, "d": 2, "m": 3, "influential": None, "target": None, "seed": 0},
    "sample": {"noise": "local", "q": 0.7, "qi": 0.6, "n": 100, "seed": 0},
    "learn": {
        "lam": "theory",
        "d": None,
        "nu": 0.0,
        "delta": 0.01,
        "max_iter": 2000,
        "tol": 1e-6,
        "edge_threshold": 1e-6,
        "threads": 0,
    },
    "psne": {"epsilon": 0.0},
    "compare": {},
    "poa": {},
    "experiment": {
        "p": (7,),
        "d": (1,),
        "m": 3,
        "c_grid": (0.0, 0.5, 1.0),
        "trials": 40,
        "delta": 0.01,
        "noise": "local",
        "q": 0.6,
        "lam": "theory",
        "timeout": None,
        "threads": 0,
        "seed": 0,
        "details": None,
    },
    "ingest": {"rule": "identity", "fill_abstain": False},
}

def _load_config_file(path: str) -> dict:
    """Map each key to its value and line number."""
    out = {}
    for lineno, raw in enumerate(fileio.load_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = (value, lineno)
    return out


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _config_value(action: argparse.Action, value: str, lineno: int):
    """Convert one config-file value as its flag would be, or raise ParseError."""
    where = f"config line {lineno}: {action.dest} = {value!r}"
    if action.nargs == 0:  # a store_true flag such as --fill-abstain
        if value.lower() not in _BOOL_WORDS:
            raise ParseError(f"{where}: expected one of {', '.join(_BOOL_WORDS)}")
        return _BOOL_WORDS[value.lower()]
    try:
        out = action.type(value) if action.type else value
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ParseError(f"{where}: {exc}") from None
    if action.choices is not None and out not in action.choices:
        raise ParseError(f"{where}: expected one of {', '.join(action.choices)}")
    return out


def _resolve(args: argparse.Namespace, subparser: argparse.ArgumentParser) -> dict:
    """Merge CLI flags over config-file values over built-in defaults."""
    command = args.command
    merged = dict(_DEFAULTS.get(command, {}))
    if getattr(args, "config", None):
        known = set(vars(args)) - {"command", "config"}
        actions = {a.dest: a for a in subparser._actions if a.dest in known}
        for key, (value, lineno) in _load_config_file(args.config).items():
            if key not in known:
                raise ParseError(
                    f"config line {lineno}: unknown key {key!r} for {command} "
                    f"(known keys: {', '.join(sorted(known))})"
                )
            merged[key] = _config_value(actions[key], value, lineno)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[key] = value
    return merged


def _emit(text: str, out_path) -> None:
    if out_path:
        fileio.save_text(out_path, text)
    else:
        sys.stdout.write(text)


def _config_echo(conf: dict) -> dict:
    skip = {"out", "config"}
    echo = {}
    for k, v in conf.items():
        if k in skip or v is None:
            continue
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        echo[k] = v
    return echo


def _lambda(conf):
    """The checked ``lam`` text as ``"theory"`` or a float."""
    text = conf["lam"]
    return text if text == "theory" else float(text)


def _learner_config(conf: dict) -> LearnerConfig:
    return LearnerConfig(
        lam=None,
        nu=conf.get("nu", 0.0),
        delta=conf.get("delta", 0.01),
        max_iterations=conf.get("max_iter", 2000),
        tolerance=conf.get("tol", 1e-6),
        edge_threshold=conf.get("edge_threshold", 1e-6),
    )


def _cmd_generate(conf) -> int:
    spec = RandomGameSpec(
        p=conf["p"], d=conf["d"], m=conf["m"], payoff_std=conf["payoff_std"], seed=conf["seed"]
    )
    game = random_game(spec)
    header = fileio.artifact_header("generate", _config_echo(conf), seed=conf["seed"])
    _emit(fileio.write_game(game, header), conf.get("out"))
    return EXIT_OK


def _cmd_hard_ensemble(conf) -> int:
    influential = conf.get("influential")
    target = conf.get("target")
    spec = HardEnsembleSpec(
        p=conf["p"],
        d=conf["d"],
        m=conf["m"],
        influential=tuple(i - 1 for i in influential) if influential else None,
        target=tuple(a - 1 for a in target) if target else None,
        seed=conf["seed"],
    )
    game = hard_game(spec)
    header = fileio.artifact_header("hard-ensemble", _config_echo(conf), seed=conf["seed"])
    _emit(fileio.write_game(game, header), conf.get("out"))
    return EXIT_OK


def _make_noise(conf, p: int):
    if conf["noise"] == "global":
        return GlobalNoise(conf["q"])
    return LocalNoise.uniform(p, conf["qi"] if "qi" in conf else conf["q"])


def _cmd_sample(conf) -> int:
    game = fileio.read_game(fileio.load_text(conf["game"]))
    noise = _make_noise(conf, game.num_players)
    data = sample_dataset(game, noise, conf["n"], conf["seed"])
    header = fileio.artifact_header("sample", _config_echo(conf), seed=conf["seed"])
    _emit(fileio.write_dataset(data, header), conf.get("out"))
    return EXIT_OK


def _cmd_learn(conf) -> int:
    data = fileio.read_dataset(fileio.load_text(conf["data"]))
    base = _learner_config(conf)
    lam = _lambda(conf)
    if lam == "theory":
        d = conf.get("d")
        if d is None:
            raise ParseError("--lambda theory needs --d (assumed graph degree)")
        lam = lambda_schedule(data.n, data.num_players, d, base)
    model = fit_game(data, base.resolved(lam))
    echo = _config_echo(conf)
    echo["resolved_lambda"] = fileio.format_float(lam)
    header = fileio.artifact_header("learn", echo)
    _emit(fileio.write_learned_model(model, header), conf.get("out"))
    return EXIT_OK


def _cmd_psne(conf) -> int:
    game = fileio.read_game(fileio.load_text(conf["game"]))
    result = enumerate_eps_ne(game, conf.get("epsilon", 0.0))
    header = fileio.artifact_header("psne", _config_echo(conf))
    _emit(fileio.write_psne(result, header), conf.get("out"))
    return EXIT_OK


def _cmd_compare(conf) -> int:
    true_game = fileio.read_game(fileio.load_text(conf["true_path"]))
    learned_game = fileio.read_game(fileio.load_text(conf["learned_path"]))
    ev = evaluate_theorem1(true_game, learned_game)
    header = fileio.artifact_header("compare", _config_echo(conf))
    lines = [header]
    lines.append(f"epsilon {fileio.format_float(ev.epsilon)}\n")
    lines.append(f"max_param_error {fileio.format_float(ev.max_param_error)}\n")
    lines.append(f"payoff_discrepancy {fileio.format_float(ev.payoff_discrepancy)}\n")
    lines.append(f"ne_true {ev.ne_true_size}\n")
    lines.append(f"ne_learned {ev.ne_learned_size}\n")
    lines.append(f"ne_equal {int(ev.ne_equal)}\n")
    lines.append(f"containment_ok {int(ev.containment_ok)}\n")
    lines.append(f"separable_at_epsilon {int(ev.separable_at_epsilon)}\n")
    _emit("".join(lines), conf.get("out"))
    return EXIT_OK


def _cmd_poa(conf) -> int:
    game = fileio.read_game(fileio.load_text(conf["game"]))
    ne = enumerate_psne(game)
    best, worst_eq = welfare_extremes(game, ne)
    ratio = _poa_ratio(best, worst_eq)
    header = fileio.artifact_header("poa", _config_echo(conf))
    text = (
        header
        + f"equilibria {len(ne)}\n"
        + f"payoff_shift {fileio.format_float(payoff_shift(game))}\n"
        + f"max_welfare {fileio.format_float(best)}\n"
        + f"min_equilibrium_welfare {fileio.format_float(worst_eq)}\n"
        + f"price_of_anarchy {fileio.format_float(ratio)}\n"
    )
    _emit(text, conf.get("out"))
    return EXIT_OK


def _cmd_experiment(conf) -> int:
    spec = ExperimentSpec(
        p_values=conf["p"],
        d_values=conf["d"],
        c_grid=conf["c_grid"],
        m=conf["m"],
        noise_kind=conf["noise"],
        q=conf["q"],
        trials=conf["trials"],
        delta=conf["delta"],
        seed=conf["seed"],
        lambda_mode=_lambda(conf),
        learner=_learner_config(conf),
        trial_timeout=conf.get("timeout"),
    )
    report = phase_transition_sweep(spec)
    header = fileio.artifact_header("experiment", _config_echo(conf), seed=conf["seed"])
    _emit(fileio.write_sweep_csv(report, header), conf.get("out"))
    if conf.get("details"):
        fileio.save_text(conf["details"], fileio.write_trials_csv(report, header))
    return EXIT_OK


def _cmd_ingest(conf) -> int:
    rule = fileio.VOTE_RULES[conf["rule"]]
    data = fileio.ingest_votes(
        fileio.load_text(conf["votes"]), rule, fill_abstain=bool(conf["fill_abstain"])
    )
    header = fileio.artifact_header("ingest", _config_echo(conf))
    _emit(fileio.write_dataset(data, header), conf.get("out"))
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "hard-ensemble": _cmd_hard_ensemble,
    "sample": _cmd_sample,
    "learn": _cmd_learn,
    "psne": _cmd_psne,
    "compare": _cmd_compare,
    "poa": _cmd_poa,
    "experiment": _cmd_experiment,
    "ingest": _cmd_ingest,
}


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        conf = _resolve(args, subparsers[args.command])
        return _COMMANDS[args.command](conf)
    except ParseError as exc:
        sys.stderr.write(f"error: parse: {exc}\n")
        return EXIT_PARSE
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: parse: {exc}\n")
        return EXIT_PARSE
    except CapacityError as exc:
        sys.stderr.write(f"error: capacity: {exc}\n")
        return EXIT_CAPACITY
    except PolymatrixError as exc:
        sys.stderr.write(f"error: numeric: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
