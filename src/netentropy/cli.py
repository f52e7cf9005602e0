"""Command-line front end: parameter sweeps, simulation runs, the exact
block-entropy oracle and the self-check suites, all emitting deterministic
CSV (header first, 12 significant digits, no locale dependence).

Parameters may come from flags or from a plain ``key = value`` configuration
file (``--config``); flags override the file.  Keys use the long option
names with either dashes or underscores.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import entropy, simulator, validation
from .channel import ChannelParams, slow_fading_report
from .geometry import DOMAIN_NAMES, domain_from_name
from .quadrature import QuadratureError

DEFAULT_SYMBOL_RATE = 12e6
DEFAULT_GRID_POINTS = 40

SWEEP_COLUMNS = ("domain", "eta", "r0", "nu", "B", "n",
                 "per_edge_lower", "per_edge_upper",
                 "network_lower", "network_upper", "admissible", "status")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _write_csv(path: Optional[str], header: Sequence[str], rows) -> None:
    text = ",".join(header) + "\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in rows)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_floats(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = stripped.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve(args: argparse.Namespace, config: dict, name: str, cast, default,
             attr: Optional[str] = None):
    """Flag value if given, else config-file value, else default."""
    flag_val = getattr(args, attr or name, None)
    if flag_val is not None:
        return flag_val
    if name in config:
        return cast(config[name])
    return default


@dataclass(frozen=True)
class SweepSpec:
    """One bounds sweep: vary r0 or nu over a grid for several domains/etas."""

    variable: str
    grid: List[float]
    etas: List[float]
    domains: List[str]
    n: int
    r0: float
    nu: float
    B: float

    def __post_init__(self):
        if self.variable not in ("r0", "nu"):
            raise ValueError("sweep variable must be 'r0' or 'nu'")
        if len(self.grid) == 0 or any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be non-empty and strictly increasing")
        if any(g <= 0 for g in self.grid):
            raise ValueError("grid values must be positive")
        if self.n < 2:
            raise ValueError("node count must be >= 2")
        unknown = [d for d in self.domains if d not in DOMAIN_NAMES]
        if unknown:
            raise ValueError(f"unknown domains {unknown}")


def run_bounds_sweep(spec: SweepSpec, out: Optional[str]) -> int:
    rows = []
    failures = 0
    for name in spec.domains:
        domain = domain_from_name(name)
        for eta in spec.etas:
            for value in spec.grid:
                r0 = value if spec.variable == "r0" else spec.r0
                nu = value if spec.variable == "nu" else spec.nu
                params = ChannelParams(r0=r0, eta=eta, nu=nu, B=spec.B)
                admissible = int(slow_fading_report(params, domain).admissible)
                try:
                    b = entropy.entropy_rate_bounds(spec.n, domain, params)
                    rows.append((name, eta, r0, nu, spec.B, spec.n,
                                 b.per_edge_lower, b.per_edge_upper,
                                 b.network_lower, b.network_upper,
                                 admissible, "ok"))
                except QuadratureError:
                    failures += 1
                    rows.append((name, eta, r0, nu, spec.B, spec.n,
                                 "nan", "nan", "nan", "nan",
                                 admissible, "error:quadrature"))
                except ValueError:
                    # bound ordering violated: the transition approximation
                    # broke down entirely at this (inadmissible) point
                    failures += 1
                    rows.append((name, eta, r0, nu, spec.B, spec.n,
                                 "nan", "nan", "nan", "nan",
                                 admissible, "error:bounds"))
    _write_csv(out, SWEEP_COLUMNS, rows)
    return 1 if failures else 0


def _default_grid(variable: str, domains: List[str]) -> List[float]:
    if variable == "nu":
        return list(np.geomspace(1.0, 1000.0, DEFAULT_GRID_POINTS))
    d_max = max(domain_from_name(n).diameter for n in domains)
    return list(np.geomspace(0.05, d_max, DEFAULT_GRID_POINTS))


def cmd_bounds_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    variable = _resolve(args, config, "variable", str, "r0")
    domains_text = _resolve(args, config, "domain", str, ",".join(DOMAIN_NAMES))
    domains = [d.strip() for d in domains_text.split(",") if d.strip()]
    etas = _resolve(args, config, "eta", _parse_floats, [2.0, 3.0, 4.0])
    grid = _resolve(args, config, "grid", _parse_floats, None)
    if grid is None:
        grid = _default_grid(variable, domains)
    spec = SweepSpec(
        variable=variable,
        grid=grid,
        etas=etas,
        domains=domains,
        n=_resolve(args, config, "nodes", int, 50),
        r0=_resolve(args, config, "r0", float, 0.7),
        nu=_resolve(args, config, "nu", float, 500.0),
        B=_resolve(args, config, "symbol_rate", float, DEFAULT_SYMBOL_RATE),
    )
    return run_bounds_sweep(spec, args.out)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    domain = domain_from_name(_resolve(args, config, "domain", str, "square"))
    params = ChannelParams(
        r0=_resolve(args, config, "r0", float, 0.7),
        eta=_resolve(args, config, "eta", float, 2.0, attr="eta_single"),
        nu=_resolve(args, config, "nu", float, 500.0),
        B=_resolve(args, config, "symbol_rate", float, DEFAULT_SYMBOL_RATE),
    )
    sim_config = simulator.SimConfig(
        n=_resolve(args, config, "nodes", int, 50),
        t_steps=_resolve(args, config, "steps", int, 100),
        trials=_resolve(args, config, "trials", int, 100),
        seed=_resolve(args, config, "seed", int, 12345),
        domain=domain,
        params=params,
    )
    ensemble = simulator.simulate(sim_config)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        simulator.export_snapshots(ensemble, fh)

    rows = [("mean_edge_density", "", "", float(ensemble.states.mean()))]
    if sim_config.t_steps >= 2:
        freq = simulator.empirical_transition_frequencies(ensemble)
        for a in (0, 1):
            for b in (0, 1):
                rows.append(("transition_frequency", a, b, freq.matrix[a, b]))
        for a in (0, 1):
            rows.append(("transition_visits", a, "", int(freq.visits[a])))
    t_top = min(8, sim_config.t_steps)
    oracle_H, _ = entropy.block_entropy_profile(domain, params, t_top)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in range(1, t_top + 1):
            est = simulator.empirical_block_entropy(ensemble, t)
            rows.append(("block_entropy_empirical", t, "", est.plug_in))
            rows.append(("block_entropy_miller_madow", t, "", est.miller_madow))
            rows.append(("block_entropy_oracle", t, "", float(oracle_H[t - 1])))
            rows.append(("block_entropy_delta", t, "",
                         est.miller_madow - float(oracle_H[t - 1])))
    _write_csv(args.summary or args.out + ".summary.csv",
               ("metric", "arg1", "arg2", "value"), rows)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    results = validation.run_checks(level=args.level)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} checks passed ({args.level})")
    return 1 if failed else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    domain = domain_from_name(_resolve(args, config, "domain", str, "square"))
    params = ChannelParams(
        r0=_resolve(args, config, "r0", float, 0.7),
        eta=_resolve(args, config, "eta", float, 2.0, attr="eta_single"),
        nu=_resolve(args, config, "nu", float, 500.0),
        B=_resolve(args, config, "symbol_rate", float, DEFAULT_SYMBOL_RATE),
    )
    t_max = _resolve(args, config, "t_max", int, 8)
    bounds = entropy.entropy_rate_bounds(2, domain, params)
    H, h = entropy.block_entropy_profile(domain, params, t_max)
    rows = [(t, float(H[t - 1]), float(h[t - 1]),
             bounds.per_edge_lower, bounds.per_edge_upper)
            for t in range(1, t_max + 1)]
    _write_csv(args.out, ("t", "block_entropy", "conditional_increment",
                          "per_edge_lower", "per_edge_upper"), rows)
    return 0


def _add_channel_flags(parser: argparse.ArgumentParser, multi_eta: bool) -> None:
    parser.add_argument("--r0", type=float, default=None,
                        help="typical connection range (default 0.7)")
    if multi_eta:
        parser.add_argument("--eta", type=_parse_floats, default=None,
                            help="comma-separated path loss exponents (default 2,3,4)")
    else:
        parser.add_argument("--eta", dest="eta_single", type=float, default=None,
                            help="path loss exponent (default 2)")
    parser.add_argument("--nu", type=float, default=None,
                        help="maximum Doppler frequency in Hz (default 500)")
    parser.add_argument("--symbol-rate", dest="symbol_rate", type=float, default=None,
                        help="transmission rate B in symbols/s (default 1.2e7)")
    parser.add_argument("--config", default=None,
                        help="key=value parameter file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netentropy",
        description="Entropy-rate bounds of time-varying wireless networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("bounds-sweep", help="sweep r0 or nu and emit bound curves")
    sweep.add_argument("--variable", choices=("r0", "nu"), default=None,
                       help="which parameter the grid applies to (default r0)")
    sweep.add_argument("--grid", type=_parse_floats, default=None,
                       help="comma-separated strictly increasing grid values")
    sweep.add_argument("--domain", default=None,
                       help="comma-separated domains (default square,disk,triangle)")
    sweep.add_argument("--nodes", type=int, default=None, help="node count n (default 50)")
    sweep.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_channel_flags(sweep, multi_eta=True)
    sweep.set_defaults(func=cmd_bounds_sweep)

    sim = sub.add_parser("simulate", help="run the seeded Monte Carlo simulator")
    sim.add_argument("--domain", default=None, help="bounding domain (default square)")
    sim.add_argument("--nodes", type=int, default=None, help="node count n (default 50)")
    sim.add_argument("--steps", type=int, default=None, help="time steps per trial (default 100)")
    sim.add_argument("--trials", type=int, default=None, help="independent trials (default 100)")
    sim.add_argument("--seed", type=int, default=None, help="master seed (default 12345)")
    sim.add_argument("--out", required=True, help="snapshot export path")
    sim.add_argument("--summary", default=None,
                     help="summary CSV path (default <out>.summary.csv)")
    _add_channel_flags(sim, multi_eta=False)
    sim.set_defaults(func=cmd_simulate)

    val = sub.add_parser("validate", help="run the self-check suites")
    val.add_argument("--level", choices=("fast", "full"), default="fast")
    val.set_defaults(func=cmd_validate)

    orc = sub.add_parser("oracle", help="exact single-edge block entropies")
    orc.add_argument("--domain", default=None, help="bounding domain (default square)")
    orc.add_argument("--t-max", dest="t_max", type=int, default=None,
                     help="largest block length (default 8, max 12)")
    orc.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_channel_flags(orc, multi_eta=False)
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, simulator.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # unreadable --config, unwritable --out or --summary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
