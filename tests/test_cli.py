import csv
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from taucalc import (SEMIGROUP, build_grid, fractional_map, linear_map,
                     power_map)
from taucalc import io as tcio
from taucalc import cli, scenarios
from taucalc.cli import _preset_chain, main
from taucalc.io import grid_diagnostics, write_grid_csv

import csv_oracle


def run(*argv):
    return main(list(argv))


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# the two chain configs: an explicit gauge and the xi route
CHAIN_CONFIGS = {
    "explicit": {
        "map": {"kind": "linear", "q": 0.7},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 20},
        "level0": {
            "B0": "0.09",
            "eta0": "1/(5.444444444444445 - 5.337690631808282*x^2)",
            "h0": "1",
            "f0": "-1/x - 2.2875816993464053*x",
        },
        "chain": {"levels": 2, "step": {"source": "explicit",
                                        "g": "2.0408163265306123",
                                        "d": 1.0}},
    },
    "xi": {
        "map": {"kind": "linear", "q": 0.5},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 25},
        "level0": {"B0": "x^2", "eta0": "4*x^2", "h0": "1", "f0": "0"},
        "chain": {"levels": 2, "step": {"source": "xi", "d": 1.0,
                                        "xi0": 14.0}},
    },
}


def test_grid_linear_preset(tmp_path, capsys):
    assert run("grid", "--preset", "linear", "--depth", "12",
               "--out", str(tmp_path)) == 0
    rows = list(csv.DictReader(open(tmp_path / "grid.csv")))
    assert len(rows) == 13  # base plus depth iterates
    diag = json.loads((tmp_path / "grid.json").read_text())
    assert diag["branches"][0]["limit"] == pytest.approx(0.0, abs=1e-12)


def test_grid_fractional_preset_reports_limit(tmp_path):
    assert run("grid", "--preset", "fractional", "--out", str(tmp_path)) == 0
    diag = json.loads((tmp_path / "grid.json").read_text())
    assert diag["branches"][0]["limit"] == pytest.approx(1.0, abs=1e-10)


def test_grid_coincident_orbits_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.5},
        "grid": {"mode": "interval", "bases": [1.0, 0.125], "depth": 20},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert "CoincidentOrbits" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.5, "bogus": 1},
        "grid": {"mode": "semigroup", "bases": 1.0},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "bogus" in capsys.readouterr().err


def test_invalid_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("grid", "--config", str(bad), "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("preset", ["qhahn", "constant-gauge", "fractional"])
def test_chain_preset_emits_levels(tmp_path, preset):
    assert run("chain", "--preset", preset, "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["preset"] == preset
    assert len(manifest["levels"]) == 6
    assert all((tmp_path / f"level_{k}.csv").exists() for k in range(6))
    assert all(v < 1e-9 for v in manifest["residuals"].values())


@pytest.mark.parametrize("source", ["qhahn", "constant-gauge", "fractional",
                                    "explicit", "xi"])
def test_chain_files_match_the_per_cell_writer(tmp_path, monkeypatch, source):
    # every level and gauge CSV the command writes is re-written from the
    # same objects by the per-cell reference writer
    written = {}
    write_chain, write_function_csv = tcio.write_chain, tcio.write_function_csv

    def spy_chain(levels, out_dir, **kwargs):
        written.update((f"level_{lv.k}.csv", (csv_oracle.level_csv, lv))
                       for lv in levels)
        return write_chain(levels, out_dir, **kwargs)

    def spy_function(f, path):
        written[Path(path).name] = (csv_oracle.function_csv, f)
        return write_function_csv(f, path)

    monkeypatch.setattr(tcio, "write_chain", spy_chain)
    monkeypatch.setattr(tcio, "write_function_csv", spy_function)
    argv = (("--config", write_config(tmp_path, CHAIN_CONFIGS[source]))
            if source in CHAIN_CONFIGS else ("--preset", source))
    out = tmp_path / "out"
    assert run("chain", *argv, "--out", str(out)) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(written)
    for name, (reference, obj) in written.items():
        want = reference(obj, tmp_path / f"want_{name}")
        assert (out / name).read_bytes() == want.read_bytes(), name


# the cli benchmark's --depth range of each preset
GRID_PRESET_DEPTHS = {"qhahn": (112, 168), "constant-gauge": (16, 24)}


@pytest.mark.parametrize("end", [None, 0, 1], ids=["default", "low", "high"])
@pytest.mark.parametrize("preset", sorted(GRID_PRESET_DEPTHS))
def test_grid_preset_writes_the_chain_preset_grid(tmp_path, monkeypatch,
                                                  preset, end):
    depth = None if end is None else GRID_PRESET_DEPTHS[preset][end]
    grid = _preset_chain(preset, depth).grid
    want = write_grid_csv(grid, tmp_path / "want.csv")

    def no_level(*args, **kwargs):
        raise AssertionError("grid preset built a chain level")

    monkeypatch.setattr(scenarios, "make_level", no_level)
    monkeypatch.setattr(scenarios, "build_chain", no_level)
    argv = ["grid", "--preset", preset, "--out", str(tmp_path / "o")]
    assert run(*argv + ([] if depth is None else ["--depth", str(depth)])) == 0
    assert (tmp_path / "o" / "grid.csv").read_bytes() == want.read_bytes()
    assert (json.loads((tmp_path / "o" / "grid.json").read_text())
            == json.loads(json.dumps(grid_diagnostics(grid))))


@pytest.mark.parametrize("command, presets", [
    ("grid", "qhahn, constant-gauge, fractional or linear"),
    ("chain", "qhahn, constant-gauge or fractional"),
], ids=["grid", "chain"])
def test_unknown_preset_exit_2(tmp_path, capsys, command, presets):
    assert run(command, "--preset", "bogus", "--out", str(tmp_path / "o")) == 2
    assert (f"unknown preset 'bogus' (expected {presets})"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_chain_explicit_config(tmp_path):
    cfg = write_config(tmp_path, CHAIN_CONFIGS["explicit"])
    out = tmp_path / "chain"
    assert run("chain", "--config", cfg, "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["levels"][0]["c"] == pytest.approx(-0.5, abs=1e-9)
    assert manifest["levels"][1]["c"] == pytest.approx(-0.245, abs=1e-9)


def test_chain_xi_route_emits_gauges(tmp_path):
    cfg = write_config(tmp_path, CHAIN_CONFIGS["xi"])
    out = tmp_path / "xi"
    assert run("chain", "--config", cfg, "--out", str(out)) == 0
    assert (out / "gauge_0.csv").exists()
    assert (out / "gauge_1.csv").exists()


# each command's argv, without --out; CONFIG stands for the xi route's
# three-level config
QUIET_COMMANDS = {
    "xi-three-levels": ("chain", "--config", "CONFIG"),
    "qhahn": ("chain", "--preset", "qhahn"),
    "constant-gauge": ("chain", "--preset", "constant-gauge"),
    "fractional": ("chain", "--preset", "fractional"),
    "validate": ("validate",),
}


@pytest.mark.parametrize("argv", QUIET_COMMANDS.values(), ids=QUIET_COMMANDS)
def test_chain_xi_route_three_levels_warns_nothing(tmp_path, argv):
    # masked-out entries may hold inf/nan (the third xi level's gauge
    # divides by B_2 = g_1 B_1, which is 0 at the masked branch end); that
    # arithmetic is discarded and must not warn
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.5},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 25},
        "level0": {"B0": "x^2", "eta0": "4*x^2", "h0": "1", "f0": "0"},
        "chain": {"levels": 3, "step": {"source": "xi", "d": 1.0,
                                        "xi0": 14.0}},
    })
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*(cfg if a == "CONFIG" else a for a in argv),
                   "--out", str(out)) == 0
    if "CONFIG" in argv:
        assert (out / "gauge_2.csv").exists()


def test_chain_step_h_reaches_the_next_level(tmp_path, capsys):
    # the xi route needs h = 1; h = 2 enters at level 1 and is refused there
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.5},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 25},
        "level0": {"B0": "x^2", "eta0": "4*x^2", "h0": "1", "f0": "0"},
        "chain": {"levels": 2, "step": {"source": "xi", "h": "2",
                                        "xi0": 14.0}},
    })
    assert run("chain", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert "needs h = 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("residual", ["pearson_residual",
                                      "factorization_residual"])
def test_chain_nan_residual_exit_3(tmp_path, capsys, monkeypatch, residual):
    # a NaN residual fails its gate; it is not passed over
    monkeypatch.setattr(cli, residual, lambda *args, **kwargs: float("nan"))
    assert run("chain", "--preset", "qhahn", "--depth", "40",
               "--out", str(tmp_path / "o")) == 3
    assert "residual nan" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_chain_missing_seed_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.5},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 20},
        "level0": {"alpha": "1", "beta": "-2", "gamma": "1"},
        "chain": {"levels": 1, "step": {"source": "explicit", "g": "1"}},
    })
    assert run("chain", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["16", "24"])
def test_kernel_route_residual_at_rounding(tmp_path, depth):
    # the kernel pair's base row, where T* truncates, is not read
    assert run("chain", "--preset", "constant-gauge", "--depth", depth,
               "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["residuals"]["eigen_kernel_route"] < 1e-14


def test_chain_determinism(tmp_path):
    for sub in ("r1", "r2"):
        assert run("chain", "--preset", "constant-gauge",
                   "--out", str(tmp_path / sub)) == 0
    for name in ("manifest.json", "level_0.csv", "level_5.csv"):
        assert ((tmp_path / "r1" / name).read_bytes()
                == (tmp_path / "r2" / name).read_bytes())


def test_validate_single_criterion(tmp_path, capsys):
    assert run("validate", "--criterion", "pearson",
               "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "PASS pearson" in out
    report = json.loads((tmp_path / "validation.json").read_text())
    assert report["passed"] is True
    assert [c["name"] for c in report["criteria"]] == ["pearson"]


def test_validate_unknown_criterion_exit_2(tmp_path, capsys):
    assert run("validate", "--criterion", "bogus",
               "--out", str(tmp_path)) == 2
    assert "bogus" in capsys.readouterr().err


def test_validate_unattainable_tolerance_exit_1(tmp_path, capsys):
    assert run("validate", "--criterion", "pearson", "--tol", "1e-18",
               "--out", str(tmp_path)) == 1
    assert "FAIL pearson" in capsys.readouterr().out


def test_validate_full_suite_writes_json(tmp_path, capsys):
    out = tmp_path / "full"
    assert run("validate", "--out", str(out)) == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"] is True
    assert len(report["criteria"]) == 12


def test_main_builds_its_parser_once(tmp_path, capsys):
    # a repeated --criterion collects into a fresh list on every call
    cli._build_parser.cache_clear()
    for k, names in enumerate((["pearson", "calculus"], ["adjoints"])):
        argv = ["validate", "--out", str(tmp_path / f"r{k}")]
        for name in names:
            argv += ["--criterion", name]
        assert run(*argv) == 0
        report = json.loads((tmp_path / f"r{k}" / "validation.json").read_text())
        assert [c["name"] for c in report["criteria"]] == names
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("argv", [
    ("grid", "--preset", "linear", "--tol", "1e-6"),
    ("chain", "--preset", "constant-gauge", "--tol", "1e-6"),
    ("validate", "--criterion", "pearson", "--preset", "qhahn"),
    ("validate", "--criterion", "pearson", "--depth", "40"),
])
def test_unused_flags_rejected_exit_2(tmp_path, capsys, argv):
    # a flag the command would ignore is refused rather than accepted
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key, value", [("output", "elsewhere"),
                                        ("emit", ["csv"])])
def test_unused_config_keys_rejected_exit_2(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.5},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 20},
        key: value,
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec, key", [
    ({"kind": "fractional", "a": 0.5, "q": 0.3}, "q"),
    ({"kind": "fractional", "a": 0.5, "shift": 7}, "shift"),
    ({"kind": "fractional", "a": 0.5, "p": 2}, "p"),
    ({"kind": "linear", "q": 0.5, "a": 9}, "a"),
    ({"kind": "power", "p": 2, "q": 0.5}, "q"),
])
def test_map_key_of_another_kind_exit_2(tmp_path, capsys, spec, key):
    # each map kind takes its own parameters; another kind's is refused
    cfg = write_config(tmp_path, {
        "map": spec, "grid": {"mode": "semigroup", "bases": 0.5, "depth": 20},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert f"unknown key(s) in {spec['kind']} map spec: {key}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec, tau", [
    ({"kind": "linear", "q": 0.5, "shift": 0.1},
     lambda: linear_map(0.5, 0.1)),
    ({"kind": "linear", "q": 0.5, "domain": [-4.0, 4.0]},
     lambda: linear_map(0.5, domain=(-4.0, 4.0))),
    ({"kind": "fractional", "a": 0.5, "domain": [0.0, 2.0]},
     lambda: fractional_map(0.5, domain=(0.0, 2.0))),
    ({"kind": "power", "p": 2}, lambda: power_map(2.0)),
], ids=["linear-shift", "linear-domain", "fractional-domain", "power"])
def test_each_map_kind_takes_its_own_keys(tmp_path, spec, tau):
    cfg = write_config(tmp_path, {
        "map": spec, "grid": {"mode": "semigroup", "bases": 0.5, "depth": 20},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    want = tmp_path / "want.csv"
    write_grid_csv(build_grid(tau(), SEMIGROUP, 0.5, max_depth=20), want)
    assert (tmp_path / "o" / "grid.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("spec", [{"kind": "linear", "q": 0.5, "domain": 3},
                                  {"kind": "linear", "q": [0.5]},
                                  {"kind": "power", "p": "two"},
                                  {"kind": "affine", "q": 0.5},
                                  {"q": 0.5}])
def test_malformed_map_spec_exit_2(tmp_path, capsys, spec):
    cfg = write_config(tmp_path, {
        "map": spec, "grid": {"mode": "semigroup", "bases": 0.5, "depth": 20},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("step, key", [
    ({"source": "xi", "d": 1.0, "xi0": 14.0, "g": "2"}, "g"),
    ({"source": "explicit", "g": "2", "xi0": 14.0}, "xi0"),
])
def test_step_key_of_another_source_exit_2(tmp_path, capsys, step, key):
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.5},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 25},
        "level0": {"B0": "x^2", "eta0": "4*x^2", "h0": "1", "f0": "0"},
        "chain": {"levels": 2, "step": step},
    })
    assert run("chain", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert f"unknown key(s) in {step['source']} chain step spec: {key}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


# (section, key, value) set on the xi chain config; each value is of the
# wrong type or shape for its key, or an expression too long or too deeply
# nested for any parser's recursion
MISTYPED_VALUES = {
    "interval-scalar-bases": [("grid", "mode", "interval"),
                              ("grid", "bases", 1.0)],
    "domain-string": [("map", "domain", "x")],
    "domain-reversed": [("map", "domain", [1.0, -1.0])],
    "depth-string": [("grid", "depth", "25")],
    "bases-string": [("grid", "bases", "one")],
    "d-string": [("step", "d", "one")],
    "xi0-string": [("step", "xi0", "fourteen")],
    "seed-string": [("level0", None, {"alpha": "1", "beta": "-2",
                                      "gamma": "1", "seed": "half"})],
    "semigroup-three-bases": [("grid", "bases", [1.0, 2.0, 3.0])],
    "levels-0": [("chain", "levels", 0)],
    "levels-negative": [("chain", "levels", -1)],
    "levels-fraction": [("chain", "levels", 2.5)],
    "sum-1200-terms": [("level0", "B0", " + ".join(["x"] * 1200))],
    "unary-minus-1500-deep": [("level0", "B0", "-" * 1500 + "x")],
    "parentheses-300-deep": [("level0", "B0", "(" * 300 + "x" + ")" * 300)],
}


@pytest.mark.parametrize("edits", MISTYPED_VALUES.values(),
                         ids=MISTYPED_VALUES.keys())
def test_mistyped_config_value_exit_2(tmp_path, capsys, edits):
    config = json.loads(json.dumps(CHAIN_CONFIGS["xi"]))
    for section, key, value in edits:
        if key is None:
            config[section] = value
        else:
            spec = (config["chain"]["step"] if section == "step"
                    else config[section])
            spec[key] = value
    cfg = write_config(tmp_path, config)
    assert run("chain", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    # one short line, however long the value (a long expression is quoted
    # by its first characters and its length)
    assert len(err) < 200 and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


# d, lambda and seed are real numbers: the chain is computed and written
# in real arithmetic, so a complex string is a config error, not a value
# whose imaginary part is dropped
@pytest.mark.parametrize("key, context", [("d", "chain step d"),
                                          ("lambda", "level0 lambda"),
                                          ("seed", "level0 seed")])
def test_complex_config_value_exit_2(tmp_path, capsys, key, context):
    config = json.loads(json.dumps(CHAIN_CONFIGS["xi"]))
    if key == "d":
        config["chain"]["step"]["d"] = "1+0.5j"
    else:
        config["level0"] = {"alpha": "1", "beta": "-2", "gamma": "1",
                            "seed": 0.5, key: "1+0.5j"}
    cfg = write_config(tmp_path, config)
    assert run("chain", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"config error: {context} must be a number, got '1+0.5j'\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("depth", ["0", "-5"])
@pytest.mark.parametrize("command, preset", [("grid", "linear"),
                                             ("grid", "qhahn"),
                                             ("chain", "constant-gauge")])
def test_depth_below_one_exit_2(tmp_path, capsys, command, preset, depth):
    # --depth 0 used to fall back to the preset's default, and -5 cut the
    # orbit through a negative slice bound
    assert run(command, "--preset", preset, "--depth", depth,
               "--out", str(tmp_path / "o")) == 2
    assert "--depth must be an integer of at least 1" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["grid", "chain"])
def test_preset_and_config_together_exit_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.5},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 20},
    })
    with pytest.raises(SystemExit) as exc:
        run(command, "--preset", "constant-gauge", "--config", cfg,
            "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_grid_tol_key_rejected_exit_2(tmp_path, capsys):
    # the limit tolerance is fixed; a grid spec may not set one
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.5},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 20, "tol": 1e-9},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode, bases", [("semigroup", 1.0),
                                         ("interval", [-1.0, 1.0])])
def test_grid_unsettled_limit_exit_3(tmp_path, capsys, mode, bases):
    # x -> -x is walked step by step and its orbits are two-cycles that
    # never settle: each walk ends at the bound of 1,048,575 steps
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": -1.0},
        "grid": {"mode": mode, "bases": bases},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert "LimitNotConverged" in err and "1048575 steps" in err
    assert not (tmp_path / "o").exists()


def test_grid_slow_stepped_map_settles(tmp_path, capsys):
    # a stepped walk (shift != 0) toward the fixed point 2 takes 21,917
    # steps to detect it and 7,783 to polish it
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.999, "shift": 2e-3},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 40000},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    assert capsys.readouterr().err == ""
    (branch,) = json.loads(
        (tmp_path / "o" / "grid.json").read_text())["branches"]
    assert branch["converged"] and abs(branch["limit"] - 2.0) < 1e-10


@pytest.mark.parametrize("q, code", [(0.999, 0), (1 - 1e-12, 3)])
def test_grid_scale_map_near_one(tmp_path, capsys, q, code):
    # a scale walk's length comes from q: 73,324 steps settle at 0.999;
    # 1 - 1e-12 would take 7e13, past the memory bound of the walk
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": q},
        "grid": {"mode": "interval", "bases": [-1.0, 1.0]},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == code
    err = capsys.readouterr().err
    if code:
        assert "LimitNotConverged" in err and "1048575 steps" in err
        assert not (tmp_path / "o").exists()
    else:
        assert err == ""
        branches = json.loads(
            (tmp_path / "o" / "grid.json").read_text())["branches"]
        # cut unsettled at the default depth 512, from a settled limit
        assert [(b["points"], b["converged"]) for b in branches] == [
            (513, False)] * 2
        assert all(abs(b["limit"]) < 1e-31 for b in branches)


def test_grid_forward_orbit_leaving_the_domain_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "map": {"kind": "fractional", "a": 0.1},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 40},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert "DomainEscape" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_grid_map_step_arithmetic_error_exit_3(tmp_path, capsys):
    # fractional(a=2) has its pole at the base x = -1/(a - 1)
    cfg = write_config(tmp_path, {
        "map": {"kind": "fractional", "a": 2.0},
        "grid": {"mode": "semigroup", "bases": -1.0, "depth": 60},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert "DomainEscape" in err and "division by zero" in err
    assert not (tmp_path / "o").exists()


def test_grid_map_step_to_a_non_real_value_exit_3(tmp_path, capsys):
    # (-1.0) ** 0.5 is complex in Python
    cfg = write_config(tmp_path, {
        "map": {"kind": "power", "p": 0.5},
        "grid": {"mode": "interval", "bases": [-1.0, 1.0]},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert "DomainEscape" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_grid_json_records_truncation(tmp_path):
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.99},
        "grid": {"mode": "interval", "bases": [-1.0, 1.0]},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    diag = json.loads((tmp_path / "o" / "grid.json").read_text())
    for br in diag["branches"]:
        assert br["converged"] is False
        assert br["limit_gap"] == pytest.approx(5.824e-3, rel=1e-3)
    assert run("grid", "--preset", "linear", "--depth", "80",
               "--out", str(tmp_path / "p")) == 0
    diag = json.loads((tmp_path / "p" / "grid.json").read_text())
    assert diag["branches"][0]["converged"] is True


def test_grid_group_leg_stays_in_the_domain(tmp_path):
    # x/q overflows behind the base; the first row used to be 0,0,inf,inf
    cfg = write_config(tmp_path, {
        "map": {"kind": "linear", "q": 0.1},
        "grid": {"mode": "group", "bases": 1.0, "depth": 512},
    })
    assert run("grid", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    rows = list(csv.DictReader(open(tmp_path / "o" / "grid.csv")))
    points = [float(r["point"]) for r in rows]
    assert len(rows) == 37 and points[0] == pytest.approx(1e18)
    assert all(abs(x) <= 1e18 * (1 + 1e-9) for x in points)
    assert "inf" not in (tmp_path / "o" / "grid.csv").read_text()


@pytest.mark.parametrize("B0, code", [("exp(1000/x)", 2),
                                       ("x^2 + 1/exp(1000/x)", 0)])
def test_overflow_in_a_config_expression_prints_no_warning(src_env, tmp_path,
                                                           B0, code):
    # exp(1000/x) overflows on every point of the grid: alone it is refused
    # as not finite, and under 1/ it is exp(-1000/x), which never overflows
    config = json.loads(json.dumps(CHAIN_CONFIGS["xi"]))
    config["level0"]["B0"] = B0
    out = subprocess.run([sys.executable, "-m", "taucalc", "chain", "--config",
                          write_config(tmp_path, config), "--out",
                          str(tmp_path / "o")],
                         env=src_env, capture_output=True, text=True)
    assert out.returncode == code
    if code:
        assert out.stderr == ("config error: expression for 'B0' is not "
                              "finite on the grid\n")
        return
    assert out.stderr == ""
    config["level0"]["B0"] = "x^2 + exp(-1000/x)"
    assert run("chain", "--config", write_config(tmp_path, config, "neg.json"),
               "--out", str(tmp_path / "neg")) == 0
    for name in ("level_0.csv", "level_1.csv"):
        assert ((tmp_path / "o" / name).read_bytes()
                == (tmp_path / "neg" / name).read_bytes())


def test_python_dash_m_runs_the_cli(src_env, tmp_path):
    out = subprocess.run([sys.executable, "-m", "taucalc", "grid", "--preset",
                          "linear", "--depth", "6", "--out", str(tmp_path)],
                         env=src_env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "grid.csv").exists()
    bad = subprocess.run([sys.executable, "-m", "taucalc", "grid", "--tol",
                          "1"], env=src_env, capture_output=True, text=True)
    assert bad.returncode == 2


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_outputs_are_strict_json(tmp_path):
    # riccati's gauge-criterion-sum has an infinite threshold: it is
    # written as the string "inf", as a CSV cell spells it
    assert run("grid", "--preset", "qhahn", "--out", str(tmp_path)) == 0
    assert run("chain", "--preset", "constant-gauge",
               "--out", str(tmp_path)) == 0
    assert run("validate", "--criterion", "riccati",
               "--out", str(tmp_path)) == 0
    for name in ("grid.json", "manifest.json", "validation.json"):
        json.loads((tmp_path / name).read_text(),
                   parse_constant=refuse_constant)
    report = json.loads((tmp_path / "validation.json").read_text())
    thresholds = {c["name"]: c["threshold"]
                  for c in report["criteria"][0]["checks"]}
    assert thresholds["gauge-criterion-sum"] == "inf"


def test_write_json_spells_non_finite_floats(tmp_path):
    path = tcio.write_json({"a": [float("inf"), -float("inf"), 1.5],
                            "b": {"c": float("nan")}, "d": (2, "x")},
                           tmp_path / "o.json")
    assert json.loads(path.read_text(), parse_constant=refuse_constant) == {
        "a": ["inf", "-inf", 1.5], "b": {"c": "nan"}, "d": [2, "x"]}


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_validate_refuses_a_tolerance_out_of_domain(tmp_path, capsys, tol):
    # nan or a negative ceiling failed every check and inf passed every one
    assert run("validate", "--criterion", "pearson", "--tol", tol,
               "--out", str(tmp_path / "o")) == 2
    assert "--tol must be a finite positive number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, presets", [
    ("grid", "(qhahn, constant-gauge, fractional, linear)"),
    ("chain", "(qhahn, constant-gauge, fractional)"),
])
def test_preset_help_lists_the_commands_presets(capsys, command, presets):
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    assert f"named preset {presets}" in " ".join(capsys.readouterr().out.split())


# level 0 of the xi config given by its three-point coefficients
COEFFICIENT_CONFIG = dict(CHAIN_CONFIGS["xi"], level0={
    "alpha": "-16", "beta": "18", "gamma": "-2", "seed": 2.0})


def test_library_hands_its_arrays_over_without_a_copy(tmp_path, monkeypatch):
    # every function the package builds gets read-only arrays, which the
    # constructor keeps as they are: no package call of GridFunction copies
    from taucalc import GridFunction
    from taucalc.validation import run_criteria
    package = Path(cli.__file__).parent
    init, copies, calls = GridFunction.__init__, set(), []

    def spy(self, grid, values, valid=None, label=""):
        init(self, grid, values, valid, label)
        frame = sys._getframe(1)
        if Path(frame.f_code.co_filename).parent != package:
            return
        calls.append(frame.f_code.co_name)
        if frame.f_code.co_name == "fresh":
            frame = frame.f_back
        for arr, kept in ((values, self.flat), (valid, self.flat_valid)):
            if arr is not None and (arr is not kept or arr.flags.writeable):
                copies.add(f"{Path(frame.f_code.co_filename).name}:"
                           f"{frame.f_code.co_name}")

    monkeypatch.setattr(GridFunction, "__init__", spy)
    assert all(r.passed for r in run_criteria())
    for preset in ("qhahn", "constant-gauge", "fractional"):
        assert run("chain", "--preset", preset, "--out",
                   str(tmp_path / preset)) == 0
    for name, config in [*CHAIN_CONFIGS.items(),
                         ("coefficients", COEFFICIENT_CONFIG)]:
        assert run("chain", "--config", write_config(
            tmp_path, config, f"{name}.json"), "--out",
            str(tmp_path / name)) == 0
    assert copies == set()
    assert len(calls) > 1000
