"""Configuration-driven command-line front end.

Subcommands:

* ``taucalc grid``      build an orbit grid, emit CSV + limit diagnostics
* ``taucalc chain``     build a factorization chain, emit per-level CSVs
                        and a manifest with the residual table
* ``taucalc validate``  run the acceptance suite, emit a JSON report

Configuration is a JSON file (``--config``); unknown keys are rejected.
A named preset (``--preset``) stands in for a config; the two flags
exclude each other.  Exit codes:
0 success, 1 validation failures, 2 configuration errors, 3 numerical
failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import io as tcio
from .chain import (CoefficientTriple, build_chain, eigen_residual,
                    factorization_residual, from_coefficients, make_level,
                    particular_gauge_xi, solve_step_constant)
from .errors import CalculusError, ConfigError
from .expressions import parse_expression
from .grid import DEFAULT_MAX_DEPTH, GROUP, INTERVAL, SEMIGROUP, build_grid
from .gridfn import GridFunction
from .hilbert import pearson_residual
from .maps import fractional_map, linear_map, power_map
from .scenarios import (constant_gauge_chain, constant_gauge_grid,
                        fractional_chain, qhahn_chain, qhahn_grid)
from .validation import (CRITERIA, format_report, results_to_dict,
                         run_criteria)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# residual gates enforced by the chain command
PEARSON_GATE = 1e-10
FACTORIZATION_GATE = 1e-9


def _object(mapping, context: str) -> dict:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object, got "
                          f"{type(mapping).__name__}")
    return mapping


def _take(mapping, allowed: dict, context: str) -> dict:
    """Read a config dict, rejecting unknown keys; ``allowed`` maps key ->
    default (a ``_REQUIRED`` default makes the key mandatory)."""
    unknown = set(_object(mapping, context)) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")
    out = {}
    for key, default in allowed.items():
        if key in mapping:
            out[key] = mapping[key]
        elif default is _REQUIRED:
            raise ConfigError(f"{context} is missing required key {key!r}")
        else:
            out[key] = default
    return out


_REQUIRED = object()


def _take_variant(mapping, key: str, variants: dict, context: str,
                  default=_REQUIRED) -> dict:
    """``_take`` with the key set of the variant that ``mapping[key]``
    names; ``variants`` maps each name to its ``allowed`` dict."""
    name = _object(mapping, context).get(key, default)
    if not isinstance(name, str) or name not in variants:
        raise ConfigError(f"{context} needs {key!r} set to one of "
                          f"{', '.join(variants)}, got {mapping.get(key)!r}")
    return _take(mapping, {key: default, **variants[name]},
                 f"{name} {context}")


# typed config values: each reads one JSON value or raises ConfigError

def _real(value, context: str) -> float:
    """A JSON number (not a bool) as a float."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:   # an integer past the float range
            pass
    raise ConfigError(f"{context} must be a number, got {value!r}")


def _count(value, context: str) -> int:
    """A JSON integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{context} must be an integer of at least 1, "
                          f"got {value!r}")
    return value


def _reals(value, length: int, context: str) -> tuple[float, ...]:
    """A JSON list of ``length`` numbers as a tuple of floats."""
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"{context} must be a list of {length} numbers, "
                          f"got {value!r}")
    return tuple(_real(v, context) for v in value)


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    return data


# each map kind's parameters, in the order its constructor takes them
_MAP_KEYS = {"linear": {"q": _REQUIRED, "shift": 0.0, "domain": None},
             "fractional": {"a": _REQUIRED, "domain": None},
             "power": {"p": _REQUIRED, "domain": None}}
_MAP_MAKERS = {"linear": linear_map, "fractional": fractional_map,
               "power": power_map}


def _build_map(spec) -> object:
    spec = _take_variant(spec, "kind", _MAP_KEYS, "map spec")
    kind = spec.pop("kind")
    domain = spec.pop("domain")
    args = [_real(v, f"map {key}") for key, v in spec.items()]
    kwargs = {}
    if domain is not None:
        lo, hi = _reals(domain, 2, "map domain")
        if not lo < hi:
            raise ConfigError(f"map domain must have lo < hi, got {domain!r}")
        kwargs["domain"] = (lo, hi)
    try:
        return _MAP_MAKERS[kind](*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid map parameters: {exc}") from exc


_MODES = {"semigroup": SEMIGROUP, "group": GROUP, "interval": INTERVAL}


def _build_grid(config: dict, depth_override: int | None):
    gspec = _take(config.get("grid", {}),
                  {"mode": "semigroup", "bases": _REQUIRED,
                   "depth": DEFAULT_MAX_DEPTH}, "grid spec")
    mode = gspec["mode"]
    if not isinstance(mode, str) or mode not in _MODES:
        raise ConfigError(f"unknown grid mode {mode!r}")
    bases = gspec["bases"]
    if mode == "interval":
        bases = _reals(bases, 2, "interval grid bases")
    else:   # one number, or a list of one
        bases = _reals(bases if isinstance(bases, list) else [bases], 1,
                       f"{mode} grid bases")[0]
    depth = _count(gspec["depth"], "grid depth")
    if "map" not in config:
        raise ConfigError("config is missing the map spec")
    tau = _build_map(config["map"])
    return build_grid(tau, mode=_MODES[mode], bases=bases,
                      max_depth=depth if depth_override is None
                      else depth_override)


def _grid_fn(grid, expr: str, label: str) -> GridFunction:
    fn = parse_expression(expr)
    # an overflow or a division by zero that leaves the values finite is
    # harmless, and one that does not ends in the config error below
    with np.errstate(all="ignore"):
        out = GridFunction.from_callable(grid, fn, label=label)
    if not np.all(np.isfinite(out.flat)):
        raise ConfigError(
            f"expression for {label!r} is not finite on the grid")
    return out


# ---------------------------------------------------------------------------
# presets

# each command's presets by name: a builder that takes ``depth`` as a
# keyword, with its own default depth

_GRID_PRESETS = {
    "qhahn": qhahn_grid,
    "constant-gauge": constant_gauge_grid,
    "fractional": lambda depth=25: build_grid(
        fractional_map(2.0), mode=SEMIGROUP, bases=0.5, max_depth=depth),
    "linear": lambda depth=30: build_grid(
        linear_map(0.5), mode=SEMIGROUP, bases=1.0, max_depth=depth),
}
_CHAIN_PRESETS = {
    "qhahn": functools.partial(qhahn_chain, n_levels=6),
    "constant-gauge": functools.partial(constant_gauge_chain, n_levels=6),
    "fractional": functools.partial(fractional_chain, n_levels=6),
}


def _preset(presets: dict, name: str, depth: int | None):
    """Build the preset ``name`` of ``presets``; without ``--depth`` the
    builder's own default depth applies."""
    if name not in presets:
        *names, last = presets
        raise ConfigError(f"unknown preset {name!r} "
                          f"(expected {', '.join(names)} or {last})")
    return presets[name](**({} if depth is None else {"depth": depth}))


_preset_grid = functools.partial(_preset, _GRID_PRESETS)
_preset_chain = functools.partial(_preset, _CHAIN_PRESETS)


# ---------------------------------------------------------------------------
# commands

def cmd_grid(args) -> int:
    out_dir = Path(args.out)
    depth = None if args.depth is None else _count(args.depth, "--depth")
    if args.preset:
        grid = _preset_grid(args.preset, depth)
    elif args.config:
        grid = _build_grid(_check_top(_load_config(args.config)), depth)
    else:
        raise ConfigError("grid command needs --preset or --config")
    out_dir.mkdir(parents=True, exist_ok=True)
    tcio.write_grid_csv(grid, out_dir / "grid.csv")
    tcio.write_json(tcio.grid_diagnostics(grid), out_dir / "grid.json")
    print(f"wrote {out_dir / 'grid.csv'} and {out_dir / 'grid.json'} "
          f"(limit {grid.limit:.17g}, depth {grid.depth})")
    return EXIT_OK


def _check_top(config: dict) -> dict:
    return _take(config, {"map": _REQUIRED, "grid": _REQUIRED, "level0": None,
                          "chain": None}, "config")


def _level0_from_config(grid, spec):
    coeff_keys = {"alpha", "beta", "gamma", "lambda", "h0", "seed"}
    direct_keys = {"B0", "eta0", "h0", "f0"}
    if not isinstance(spec, dict):
        raise ConfigError("level0 spec must be a JSON object")
    if "alpha" in spec:
        spec = _take(spec, {"alpha": _REQUIRED, "beta": _REQUIRED,
                            "gamma": _REQUIRED, "lambda": 0.0,
                            "h0": "1", "seed": None}, "level0 coefficient spec")
        if spec["seed"] is None:
            raise ConfigError(
                "coefficient input needs the ratio seed 'seed' "
                "(value of phi0/h0 at each branch base)")
        seed = spec["seed"]
        if not isinstance(seed, list):
            seed = _real(seed, "level0 seed")
        elif len(seed) == len(grid.branches):
            seed = [_real(v, "level0 seed") for v in seed]
        else:
            raise ConfigError(f"level0 seed needs one value per grid branch "
                              f"({len(grid.branches)}), got {seed!r}")
        coef = CoefficientTriple(
            alpha=_grid_fn(grid, spec["alpha"], "alpha"),
            beta=_grid_fn(grid, spec["beta"], "beta"),
            gamma=_grid_fn(grid, spec["gamma"], "gamma"),
            value=_real(spec["lambda"], "level0 lambda"))
        h0 = _grid_fn(grid, spec["h0"], "h0")
        return from_coefficients(coef, h0, seed)
    if set(spec) <= direct_keys:
        spec = _take(spec, {"B0": _REQUIRED, "eta0": _REQUIRED,
                            "h0": "1", "f0": "0"}, "level0 direct spec")
        return make_level(B=_grid_fn(grid, spec["B0"], "B0"),
                          eta=_grid_fn(grid, spec["eta0"], "eta0"),
                          h=_grid_fn(grid, spec["h0"], "h0"),
                          f=_grid_fn(grid, spec["f0"], "f0"))
    raise ConfigError(
        "level0 spec must give either coefficients "
        f"({', '.join(sorted(coeff_keys))}) or direct data "
        f"({', '.join(sorted(direct_keys))})")


_STEP_KEYS = {"explicit": {"g": _REQUIRED, "h": "1", "d": 1.0},
              "xi": {"h": "1", "d": 1.0, "xi0": 1.0}}


def _chain_from_config(grid, config):
    level0 = _level0_from_config(grid, config.get("level0"))
    cspec = _take(config.get("chain") or {},
                  {"levels": 1, "step": None}, "chain spec")
    step = _take_variant(cspec["step"] or {}, "source", _STEP_KEYS,
                         "chain step spec", default="explicit")
    levels = _count(cspec["levels"], "chain levels")
    d = _real(step["d"], "chain step d")
    h = _grid_fn(grid, step["h"], "h")
    if step["source"] == "explicit":
        g = _grid_fn(grid, step["g"], "g")

        def stamp(level):
            return g, solve_step_constant(level, h, g, d), d
    else:
        xi0 = _real(step["xi0"], "chain step xi0")

        def stamp(level):
            return particular_gauge_xi(level, d, xi0=xi0)[1], 0.0, d
    return build_chain(level0, levels, h, stamp)


def _residual_table(levels, scenario=None) -> dict:
    residuals = {}
    for level in levels:
        res = float(pearson_residual(level.B, level.eta, level.w))
        residuals[f"pearson_shift_level_{level.k}"] = res
        if not res <= PEARSON_GATE:   # a nan residual fails too
            raise _ResidualFailure(
                f"pearson residual {res:.3e} at level {level.k} "
                f"exceeds {PEARSON_GATE:g}")
    for lo, hi in zip(levels, levels[1:]):
        worst = factorization_residual(lo, hi, rng=lo.k)
        residuals[f"factorization_level_{lo.k}_{hi.k}"] = float(worst)
        if not worst <= FACTORIZATION_GATE:
            raise _ResidualFailure(
                f"factorization residual {worst:.3e} between levels "
                f"{lo.k} and {hi.k} exceeds {FACTORIZATION_GATE:g}")
    if scenario is not None and hasattr(scenario, "kernel_pair"):
        pair = scenario.kernel_pair()
        residuals["eigen_kernel_route"] = float(
            eigen_residual(levels[pair.level], pair))
    return residuals


class _ResidualFailure(CalculusError):
    """A chain residual exceeded its gate (numerical-failure exit)."""


def cmd_chain(args) -> int:
    out_dir = Path(args.out)
    depth = None if args.depth is None else _count(args.depth, "--depth")
    scenario = None
    if args.preset:
        scenario = _preset_chain(args.preset, depth)
        levels = scenario.levels
        extra = {"preset": args.preset}
    elif args.config:
        config = _check_top(_load_config(args.config))
        if config.get("level0") is None:
            raise ConfigError("chain command needs a level0 spec or --preset")
        grid = _build_grid(config, depth)
        levels = _chain_from_config(grid, config)
        extra = {"config": str(args.config)}
    else:
        raise ConfigError("chain command needs --preset or --config")
    residuals = _residual_table(levels, scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = tcio.write_chain(levels, out_dir, manifest_extra=extra,
                                residuals=residuals)
    if args.config:
        for level in levels:
            tcio.write_function_csv(level.g, out_dir / f"gauge_{level.k}.csv")
    print(f"wrote {len(levels)} level file(s) and {manifest}")
    for name, value in residuals.items():
        print(f"  {name}: {value:.3e}")
    return EXIT_OK


def cmd_validate(args) -> int:
    names = args.criterion or None
    if args.tol is not None and not 0.0 < args.tol < np.inf:
        raise ConfigError(f"--tol must be a finite positive number, "
                          f"got {args.tol!r}")
    try:
        results = run_criteria(names=names, tol_override=args.tol)
    except KeyError as exc:
        raise ConfigError(
            f"{exc.args[0]}; valid names: "
            f"{', '.join(CRITERIA)}") from exc
    report = format_report(results)
    print(report)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        tcio.write_json(results_to_dict(results), out_dir / "validation.json")
        print(f"wrote {out_dir / 'validation.json'}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of a process and
    shared by every later :func:`main` call (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="taucalc",
        description="orbit-grid calculus, factorization chains and the "
                    "acceptance suite")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, presets):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="JSON configuration file")
        source.add_argument("--preset",
                            help=f"named preset ({', '.join(presets)})")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--depth", type=int, help="orbit depth override")

    p_grid = sub.add_parser("grid", help="build an orbit grid")
    common(p_grid, _GRID_PRESETS)
    p_grid.set_defaults(func=cmd_grid)

    p_chain = sub.add_parser("chain", help="build a factorization chain")
    common(p_chain, _CHAIN_PRESETS)
    p_chain.set_defaults(func=cmd_chain)

    p_val = sub.add_parser("validate", help="run the acceptance suite")
    p_val.add_argument("--out", default="out", help="output directory")
    p_val.add_argument("--tol", type=float,
                       help="tolerance override for every criterion "
                            "(finite, positive)")
    p_val.add_argument("--criterion", action="append",
                       help="run only this criterion (repeatable)")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CalculusError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
