import numpy as np
import pytest

from polymatrix import (
    Dataset,
    LearnerConfig,
    LocalNoise,
    PolymatrixGame,
    ParseError,
    enumerate_psne,
    fit_game,
    profile_count,
    sample_dataset,
    welfare_extremes,
)
from polymatrix import games
from polymatrix.cli import main
from polymatrix.experiments import ExperimentSpec, phase_transition_sweep
from polymatrix.ensembles import HardEnsembleSpec, RandomGameSpec, hard_game, random_game
from polymatrix.fileio import (
    SUPREME_COURT_RULE,
    IDENTITY_RULE,
    artifact_header,
    format_float,
    ingest_votes,
    read_dataset,
    read_game,
    read_learned_model,
    write_dataset,
    write_game,
    write_learned_model,
    write_psne,
)

from helpers import random_game_dense


# ---------------------------------------------------------------------------
# Round trips.
# ---------------------------------------------------------------------------


def test_game_round_trip_value_exact():
    rng = np.random.default_rng(70)
    for _ in range(5):
        game = random_game_dense(rng, 3)
        again = read_game(write_game(game))
        assert again == game


def test_game_round_trip_awkward_floats():
    game = PolymatrixGame(
        (2, 2),
        [np.array([0.1, 1.0 / 3.0]), np.array([1e-17, -2.5e300])],
        {(0, 1): np.array([[np.pi, 1e-300], [7.0, 0.1 + 0.2]])},
    )
    assert read_game(write_game(game)) == game


def test_game_parse_errors():
    with pytest.raises(ParseError):
        read_game("players x\n")
    with pytest.raises(ParseError):
        read_game("players 2\nstrategies 2\n")
    text = "players 2\nstrategies 2 2\nindividual 1 0 0\nindividual 2 0 0\nedge 1 1\n0 0\n0 0\n"
    with pytest.raises(ParseError):
        read_game(text)


def test_dataset_round_trip():
    game = random_game(RandomGameSpec(p=3, d=1, m=3, seed=7))
    data = sample_dataset(game, LocalNoise.uniform(3, 0.8), 50, seed=1)
    again = read_dataset(write_dataset(data))
    assert again == data


def test_dataset_csv_shape():
    data = Dataset((2, 3), np.array([[0, 2], [1, 0]]))
    text = write_dataset(data)
    lines = text.splitlines()
    assert lines[0] == "# strategies 2 3"
    assert lines[1] == "player_1,player_2"
    assert lines[2] == "1,3" and lines[3] == "2,1"


def test_learned_model_file_is_a_game_file():
    game = random_game(RandomGameSpec(p=3, d=1, m=3, seed=7))
    data = sample_dataset(game, LocalNoise.uniform(3, 0.9), 300, seed=2)
    model = fit_game(data, LearnerConfig().resolved(0.02))
    text = write_learned_model(model)
    parsed_game = read_game(text)
    assert parsed_game == model.game
    parsed_game2, diags = read_learned_model(text)
    assert parsed_game2 == model.game
    for i, diag in enumerate(model.diagnostics):
        assert diags[i]["objective"] == diag.objective
        assert diags[i]["iterations"] == diag.iterations
        assert diags[i]["converged"] == diag.converged
        assert diags[i]["group_norms"] == diag.group_norms


def test_psne_writer():
    spec = HardEnsembleSpec(p=3, d=2, m=2, influential=(0, 1), target=(0, 1))
    text = write_psne(enumerate_psne(hard_game(spec)))
    lines = text.splitlines()
    assert "# count: 1" in lines
    assert lines[-1] == "1,2,1"


# ---------------------------------------------------------------------------
# Vote ingestion.
# ---------------------------------------------------------------------------


def test_ingest_all_yes():
    data = ingest_votes("1,1,1\n1,1,1\n", IDENTITY_RULE)
    assert data.strategy_counts == (3, 3, 3)
    assert (data.profiles == 0).all()


def test_ingest_supreme_court_mapping():
    data = ingest_votes("1,6,2\n3,7,8\n", SUPREME_COURT_RULE)
    assert data.profiles.tolist() == [[0, 1, 2], [0, 1, 1]]


def test_ingest_round_trip():
    data = ingest_votes("1,2,3\n3,2,1\n2,2,2\n", IDENTITY_RULE)
    again = read_dataset(write_dataset(data))
    assert again == data


def test_ingest_errors_name_row_and_column():
    with pytest.raises(ParseError) as exc:
        ingest_votes("1,2\n1\n", IDENTITY_RULE)
    assert "row 2" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        ingest_votes("1,9\n", IDENTITY_RULE)
    assert "row 1" in str(exc.value) and "column 2" in str(exc.value)
    with pytest.raises(ParseError):
        ingest_votes("1,,3\n", IDENTITY_RULE)
    filled = ingest_votes("1,,3\n", IDENTITY_RULE, fill_abstain=True)
    assert filled.profiles.tolist() == [[0, 1, 2]]


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


def test_cli_generate_and_psne(tmp_path):
    game_path = tmp_path / "game.txt"
    assert main(["generate", "--p", "4", "--d", "1", "--m", "3",
                 "--seed", "11", "--out", str(game_path)]) == 0
    game = read_game(game_path.read_text())
    assert game.num_players == 4
    out = tmp_path / "ne.csv"
    assert main(["psne", "--game", str(game_path), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# polymatrix")


def test_cli_hard_ensemble_psne_unique(tmp_path):
    game_path = tmp_path / "hard.txt"
    assert main(["hard-ensemble", "--p", "4", "--d", "2", "--m", "3",
                 "--influential", "1,2", "--target", "1,3",
                 "--out", str(game_path)]) == 0
    out = tmp_path / "ne.csv"
    assert main(["psne", "--game", str(game_path), "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#") and not l.startswith("player")]
    assert len(rows) == 1


def test_cli_compare_identity(tmp_path):
    game_path = tmp_path / "game.txt"
    main(["generate", "--p", "3", "--d", "1", "--seed", "7", "--out", str(game_path)])
    out = tmp_path / "cmp.txt"
    assert main(["compare", "--true", str(game_path), "--learned", str(game_path),
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "epsilon 0.0" in text
    assert "ne_equal 1" in text


def test_cli_sample_learn_cycle(tmp_path):
    game_path = tmp_path / "game.txt"
    data_path = tmp_path / "data.csv"
    model_path = tmp_path / "model.txt"
    main(["generate", "--p", "3", "--d", "1", "--seed", "7", "--out", str(game_path)])
    assert main(["sample", "--game", str(game_path), "--noise", "local",
                 "--qi", "0.9", "--n", "400", "--seed", "3",
                 "--out", str(data_path)]) == 0
    assert main(["learn", "--data", str(data_path), "--lambda", "theory",
                 "--d", "1", "--out", str(model_path)]) == 0
    game, diags = read_learned_model(model_path.read_text())
    assert game.num_players == 3
    assert diags and all(d["converged"] for d in diags.values())


def test_cli_sample_byte_stable(tmp_path):
    game_path = tmp_path / "game.txt"
    main(["generate", "--p", "3", "--d", "1", "--seed", "7", "--out", str(game_path)])
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sample", "--game", str(game_path), "--noise", "local",
            "--qi", "0.8", "--n", "100", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_poa(tmp_path):
    game_path = tmp_path / "game.txt"
    main(["hard-ensemble", "--p", "4", "--d", "2", "--m", "2",
          "--influential", "1,2", "--target", "1,2", "--out", str(game_path)])
    out = tmp_path / "poa.txt"
    assert main(["poa", "--game", str(game_path), "--out", str(out)]) == 0
    body = {
        line.split()[0]: line.split()[1]
        for line in out.read_text().splitlines()
        if line and not line.startswith("#")
    }
    assert float(body["price_of_anarchy"]) >= 1.0
    assert int(body["equilibria"]) == 1


def test_cli_poa_makes_one_welfare_pass(tmp_path, monkeypatch):
    game_path = tmp_path / "game.txt"
    main(["generate", "--p", "5", "--d", "2", "--seed", "3", "--out", str(game_path)])
    game = read_game(game_path.read_text())
    ne = enumerate_psne(game)
    best, worst_eq = welfare_extremes(game, ne)
    rows = []
    real = games._welfare_rows

    def counted(game, block, shift):
        rows.append(len(block))
        return real(game, block, shift)

    monkeypatch.setattr(games, "_welfare_rows", counted)
    out = tmp_path / "poa.txt"
    assert main(["poa", "--game", str(game_path), "--out", str(out)]) == 0
    # The whole profile space once, plus the equilibria for the minimum.
    assert sum(rows) == profile_count(game.strategy_counts) + len(ne)
    body = dict(line.split() for line in out.read_text().splitlines() if not line.startswith("#"))
    assert body["max_welfare"] == format_float(best)
    assert body["min_equilibrium_welfare"] == format_float(worst_eq)
    assert body["price_of_anarchy"] == format_float(best / worst_eq)


@pytest.mark.parametrize("std", ["nan", "inf"])
def test_cli_generate_rejects_non_finite_payoff_std(tmp_path, capsys, std):
    out = tmp_path / "game.txt"
    args = ["generate", "--p", "3", "--d", "1", "--payoff-std", std, "--out", str(out)]
    assert main(args) == 5
    err = capsys.readouterr().err
    assert "payoff_std" in err and f"got {std}" in err
    assert not out.exists()


def test_cli_experiment_mini(tmp_path):
    out = tmp_path / "sweep.csv"
    details = tmp_path / "trials.csv"
    assert main(["experiment", "--p", "5", "--d", "1", "--m", "3",
                 "--c-grid", "0,0.5", "--trials", "3", "--seed", "4",
                 "--threads", "2", "--out", str(out),
                 "--details", str(details)]) == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert rows[0].startswith("p,d,c,n")
    assert len(rows) == 1 + 2  # header plus one row per c value
    detail_rows = [l for l in details.read_text().splitlines() if l and not l.startswith("#")]
    assert len(detail_rows) == 1 + 2 * 3


def test_cli_ingest(tmp_path):
    votes = tmp_path / "votes.csv"
    votes.write_text("1,6,2\n3,7,8\n")
    out = tmp_path / "data.csv"
    assert main(["ingest", "--votes", str(votes), "--rule", "supreme-court",
                 "--out", str(out)]) == 0
    data = read_dataset(out.read_text())
    assert data.profiles.tolist() == [[0, 1, 2], [0, 1, 1]]


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["learn", "--data", str(tmp_path / "missing.csv")]) == 3
    capsys.readouterr()

    # Capacity: 25 players with 2 strategies exceeds the default profile cap.
    big = tmp_path / "big.txt"
    lines = ["players 25", "strategies " + " ".join(["2"] * 25)]
    lines += [f"individual {i + 1} 0.0 1.0" for i in range(25)]
    big.write_text("\n".join(lines) + "\n")
    assert main(["psne", "--game", str(big)]) == 4
    capsys.readouterr()

    # Numeric: price of anarchy with zero equilibrium welfare.
    degenerate = tmp_path / "zero.txt"
    degenerate.write_text("players 1\nstrategies 2\nindividual 1 0.0 0.0\n")
    assert main(["poa", "--game", str(degenerate)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: numeric:")


def test_cli_psne_rejects_negative_and_nan_epsilon(tmp_path, capsys):
    game_path = tmp_path / "game.txt"
    main(["generate", "--p", "3", "--d", "1", "--seed", "7", "--out", str(game_path)])
    for eps in ("-1", "nan"):
        out = tmp_path / f"ne{eps}.csv"
        assert main(["psne", "--game", str(game_path), "--epsilon", eps, "--out", str(out)]) == 5
        assert "epsilon must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


def _sample_file(tmp_path):
    game_path = tmp_path / "game.txt"
    data_path = tmp_path / "data.csv"
    main(["generate", "--p", "3", "--d", "1", "--seed", "7", "--out", str(game_path)])
    main(["sample", "--game", str(game_path), "--n", "100", "--out", str(data_path)])
    return data_path


def test_cli_learn_rejects_nan_before_fitting(tmp_path, capsys, monkeypatch):
    import polymatrix.cli as cli

    data_path = _sample_file(tmp_path)
    monkeypatch.setattr(cli, "fit_game", lambda *a, **k: pytest.fail("fit_game was called"))
    for flag in ("--tol", "--lambda", "--nu", "--edge-threshold"):
        out = tmp_path / "model.txt"
        argv = ["learn", "--data", str(data_path), "--d", "1", flag, "nan", "--out", str(out)]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: numeric:") and "got nan" in err
        assert not out.exists()


def test_cli_experiment_rejects_nan(tmp_path, capsys):
    for flag in ("--q", "--timeout", "--lambda", "--c-grid"):
        out = tmp_path / "sweep.csv"
        argv = ["experiment", "--p", "5", "--d", "1", "--trials", "1", flag, "nan", "--out", str(out)]
        assert main(argv) == 5
        assert "nan" in capsys.readouterr().err
        assert not out.exists()


def test_cli_config_unknown_key_is_a_parse_error(tmp_path, capsys):
    data_path = _sample_file(tmp_path)
    conf = tmp_path / "run.conf"
    out = tmp_path / "model.txt"
    # A misspelling, and a key of another subcommand that learn would ignore.
    for text, key, line in (("# penalty\nd = 1\nlamda = 0.1\n", "lamda", 3),
                            ("epsilon = 0.5\n", "epsilon", 1)):
        conf.write_text(text)
        argv = ["learn", "--data", str(data_path), "--d", "1", "--config", str(conf)]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: parse:") and f"'{key}'" in err and f"line {line}" in err
        assert not out.exists()


def _votes_file(tmp_path):
    votes = tmp_path / "votes.csv"
    votes.write_text("1,6,2\n")
    return votes


_NO_GAME = ["--game", "missing.txt"]  # never read: the config fails first

# (subcommand arguments, config text, offending key, its line)
_BAD_CONFIG_VALUES = {
    "generate-int": (["generate"], "d = 1\np = abc\n", "p", 2),
    "experiment-list": (["experiment", "--p", "5", "--d", "1"], "c_grid = 0,x\n", "c_grid", 1),
    "sample-choice": (["sample"] + _NO_GAME, "noise = bogus\n", "noise", 1),
    "ingest-choice": (["ingest", "--votes", "VOTES"], "rule = bogus\n", "rule", 1),
    "ingest-flag": (["ingest", "--votes", "VOTES"], "# abstentions\nfill_abstain = maybe\n",
                    "fill_abstain", 2),
    "learn-lambda": (["learn", "--data", "DATA"], "d = 1\nlam = abc\n", "lam", 2),
    "experiment-lambda": (["experiment", "--p", "5", "--d", "1"], "lam = abc\n", "lam", 1),
}


@pytest.mark.parametrize(
    "argv, text, key, line", list(_BAD_CONFIG_VALUES.values()), ids=list(_BAD_CONFIG_VALUES)
)
def test_cli_config_rejects_malformed_value(tmp_path, capsys, argv, text, key, line):
    subs = {"VOTES": str(_votes_file(tmp_path)), "DATA": str(_sample_file(tmp_path))}
    capsys.readouterr()
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    out = tmp_path / "out.txt"
    argv = [subs.get(a, a) for a in argv] + ["--config", str(conf), "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: parse:") and f"line {line}: {key} = " in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["learn", "experiment"])
def test_cli_lambda_flag_rejects_non_number(tmp_path, capsys, command):
    out = tmp_path / "out.txt"
    extra = ["--data", str(_sample_file(tmp_path))] if command == "learn" else []
    capsys.readouterr()
    assert main([command, *extra, "--lambda", "abc", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--lambda" in err and "'abc'" in err
    assert not out.exists()


def test_cli_config_boolean_spellings(tmp_path, capsys):
    votes = tmp_path / "votes.csv"
    votes.write_text("1,,3\n")
    conf = tmp_path / "run.conf"
    out = tmp_path / "data.csv"
    for word, fill in (("Yes", True), ("on", True), ("1", True), ("false", False), ("OFF", False)):
        conf.write_text(f"fill_abstain = {word}\n")
        code = main(["ingest", "--votes", str(votes), "--config", str(conf), "--out", str(out)])
        if fill:
            assert code == 0
            assert read_dataset(out.read_text()).profiles.tolist() == [[0, 1, 2]]
        else:
            # Read as false, so the empty cell is rejected by the ingester, not the config.
            assert code == 3 and "config" not in capsys.readouterr().err


def test_no_thread_is_started(tmp_path, monkeypatch):
    import threading

    data_path = _sample_file(tmp_path)
    data = read_dataset(data_path.read_text())

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    fit_game(data, LearnerConfig().resolved(0.05), threads=4)
    spec = ExperimentSpec(p_values=(4,), d_values=(1,), c_grid=(0.0,), trials=2, seed=1)
    phase_transition_sweep(spec, threads=4)
    out = tmp_path / "model.txt"
    assert main(["learn", "--data", str(data_path), "--lambda", "0.05", "--out", str(out)]) == 0


def test_cli_config_file_and_flag_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("p = 5\nd = 1\nseed = 9\n")
    out_a = tmp_path / "a.txt"
    assert main(["generate", "--config", str(conf), "--out", str(out_a)]) == 0
    assert read_game(out_a.read_text()).num_players == 5
    out_b = tmp_path / "b.txt"
    assert main(["generate", "--config", str(conf), "--p", "4", "--out", str(out_b)]) == 0
    assert read_game(out_b.read_text()).num_players == 4


def test_cli_artifact_header_stable(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    main(["generate", "--p", "3", "--d", "1", "--seed", "2", "--out", str(a)])
    main(["generate", "--p", "3", "--d", "1", "--seed", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("# polymatrix")
    assert "# seed: 2" in text
    assert "# config:" in text


def test_artifact_header_contents():
    header = artifact_header("demo", {"b": 2, "a": 1}, seed=7)
    assert "a=1 b=2" in header
    assert header.splitlines()[0].startswith("# polymatrix ")
