"""Command-line front end: parameter sweeps, simulation runs, the exact
block-entropy oracle and the self-check suites, all emitting deterministic
CSV (header first, 12 significant digits, no locale dependence).

Parameters may come from flags or from a plain ``key = value`` configuration
file (``--config``); flags override the file.  Keys are the command's long
option names, with dashes or underscores, except ``out``, ``summary`` and
``config``; any other key is an error.  The file's pairs are parsed as flags
placed before the command line's own, so argparse casts and checks them as
it does flags, and a flag given on the command line wins.

The parser is built once per process; parsing never changes it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import warnings
from typing import List, Optional, Sequence

import numpy as np

from . import entropy, simulator, validation
from .channel import ChannelParams, slow_fading_report
from .geometry import DOMAIN_NAMES, domain_from_name
from .quadrature import QuadratureError

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


def _parse_names(text: str) -> List[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _parse_floats(text: str) -> List[float]:
    return [float(tok) for tok in _parse_names(text)]


def _load_config(path: str) -> dict:
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


def _channel_params(args: argparse.Namespace) -> ChannelParams:
    return ChannelParams(r0=args.r0, eta=args.eta, nu=args.nu, B=args.symbol_rate)


def cmd_bounds_sweep(args: argparse.Namespace) -> int:
    if not args.domain or not args.eta:
        raise ValueError("domain and eta lists must be non-empty")
    domains = [domain_from_name(name) for name in args.domain]
    grid = args.grid
    if grid is None:
        d_max = max(d.diameter for d in domains)
        lo, hi = (1.0, 1000.0) if args.variable == "nu" else (0.05, d_max)
        grid = list(np.geomspace(lo, hi, DEFAULT_GRID_POINTS))
    if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be non-empty and strictly increasing")
    if any(g <= 0 for g in grid):
        raise ValueError("grid values must be positive")
    if args.nodes < 2:
        raise ValueError("node count must be >= 2")

    rows = []
    failures = 0
    for domain in domains:
        for eta in args.eta:
            # one batch per (domain, eta): the grid's points share quadratures
            params = ChannelParams(r0=grid if args.variable == "r0" else args.r0,
                                   eta=eta, B=args.symbol_rate,
                                   nu=grid if args.variable == "nu" else args.nu)
            admissible = slow_fading_report(params, domain).admissible
            bounds = entropy.entropy_rate_bounds(args.nodes, domain, params)
            points = params.batch()
            for r0, nu, ok, b in zip(points.r0, points.nu, admissible, bounds):
                if isinstance(b, QuadratureError):
                    values, status = ("nan",) * 4, "error:quadrature"
                elif isinstance(b, ValueError):
                    # bound ordering violated: the transition approximation
                    # broke down entirely at this (inadmissible) point
                    values, status = ("nan",) * 4, "error:bounds"
                else:
                    values, status = (b.per_edge_lower, b.per_edge_upper,
                                      b.network_lower, b.network_upper), "ok"
                failures += status != "ok"
                rows.append((domain.name, eta, r0, nu, args.symbol_rate, args.nodes,
                             *values, int(ok), status))
    _write_csv(args.out, SWEEP_COLUMNS, rows)
    return 1 if failures else 0


def _open_binary(path: str):
    """Binary output handle of ``path``; '-' is standard output."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout.buffer)
    return open(path, "wb")


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.out == "-" and args.summary in (None, "-"):
        raise ValueError("--out - writes the snapshots to stdout; give the "
                         "summary CSV a path with --summary")
    sim_config = simulator.SimConfig(n=args.nodes, t_steps=args.steps, trials=args.trials,
                                     seed=args.seed, domain=domain_from_name(args.domain),
                                     params=_channel_params(args))
    tally = simulator.TrajectoryTally(sim_config)
    # each piece goes to the export and to the tally before the next is made
    # from it, so at most two pieces of states are held at a time, whatever
    # the trial or the step count
    with _open_binary(args.out) as fh:
        for piece in simulator.simulate_pieces(sim_config):
            simulator.export_snapshots(piece, fh)
            tally.add(piece)
        fh.flush()
        # written before the snapshots are closed: a file opened just after
        # a large rewritten one is closed can wait for its writeback (ext4)
        _write_csv(args.summary or args.out + ".summary.csv",
                   ("metric", "arg1", "arg2", "value"), _summary_rows(sim_config, tally))
    return 0


def _summary_rows(sim_config: simulator.SimConfig, tally: simulator.TrajectoryTally):
    """The summary CSV rows of a simulate run's tally."""
    rows = [("mean_edge_density", "", "", tally.mean_edge_density)]
    if sim_config.t_steps >= 2:
        freq = simulator.empirical_transition_frequencies(tally)
        for a in (0, 1):
            for b in (0, 1):
                rows.append(("transition_frequency", a, b, freq.matrix[a, b]))
        for a in (0, 1):
            rows.append(("transition_visits", a, "", int(freq.visits[a])))
    t_top = min(8, sim_config.t_steps)
    oracle_H, _ = entropy.block_entropy_profile(sim_config.domain, sim_config.params, t_top)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in range(1, t_top + 1):
            est = simulator.empirical_block_entropy(tally, t)
            rows.append(("block_entropy_empirical", t, "", est.plug_in))
            rows.append(("block_entropy_miller_madow", t, "", est.miller_madow))
            rows.append(("block_entropy_oracle", t, "", float(oracle_H[t - 1])))
            rows.append(("block_entropy_delta", t, "",
                         est.miller_madow - float(oracle_H[t - 1])))
    return rows


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
    domain = domain_from_name(args.domain)
    params = _channel_params(args)
    # the bounds and the profile integrate over the same breakpoints
    breakpoints = entropy.integration_breakpoints(domain, params)
    bounds = entropy.entropy_rate_bounds(2, domain, params, breakpoints=breakpoints)
    H, h = entropy.block_entropy_profile(domain, params, args.t_max,
                                         breakpoints=breakpoints)
    rows = [(t, float(H[t - 1]), float(h[t - 1]),
             bounds.per_edge_lower, bounds.per_edge_upper)
            for t in range(1, args.t_max + 1)]
    _write_csv(args.out, ("t", "block_entropy", "conditional_increment",
                          "per_edge_lower", "per_edge_upper"), rows)
    return 0


def _add_model_flags(parser: argparse.ArgumentParser, lists: bool, nodes: bool = True) -> None:
    """--domain, --nodes and the channel flags; ``lists`` takes several domains and etas."""
    if lists:
        parser.add_argument("--domain", type=_parse_names, default=",".join(DOMAIN_NAMES),
                            help="comma-separated domains (default %(default)s)")
        parser.add_argument("--eta", type=_parse_floats, default="2,3,4",
                            help="comma-separated path loss exponents (default %(default)s)")
    else:
        parser.add_argument("--domain", default="square",
                            help="bounding domain (default %(default)s)")
        parser.add_argument("--eta", type=float, default=2.0,
                            help="path loss exponent (default %(default)s)")
    if nodes:
        parser.add_argument("--nodes", type=int, default=50,
                            help="node count n (default %(default)s)")
    parser.add_argument("--r0", type=float, default=0.7,
                        help="typical connection range (default %(default)s)")
    parser.add_argument("--nu", type=float, default=500.0,
                        help="maximum Doppler frequency in Hz (default %(default)s)")
    parser.add_argument("--symbol-rate", type=float, default=12e6,
                        help="transmission rate B in symbols/s (default %(default)s)")
    parser.add_argument("--config", default=None,
                        help="key = value parameter file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="netentropy",
        description="Entropy-rate bounds of time-varying wireless networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("bounds-sweep", help="sweep r0 or nu and emit bound curves")
    sweep.add_argument("--variable", choices=("r0", "nu"), default="r0",
                       help="which parameter the grid applies to (default %(default)s)")
    sweep.add_argument("--grid", type=_parse_floats, default=None,
                       help="comma-separated strictly increasing grid values (default "
                            f"{DEFAULT_GRID_POINTS} geometric points over the domain "
                            "diameter for r0, over 1..1000 Hz for nu)")
    sweep.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_model_flags(sweep, lists=True)
    sweep.set_defaults(func=cmd_bounds_sweep)

    sim = sub.add_parser("simulate", help="run the seeded Monte Carlo simulator")
    sim.add_argument("--steps", type=int, default=100,
                     help="time steps per trial (default %(default)s)")
    sim.add_argument("--trials", type=int, default=100,
                     help="independent trials (default %(default)s)")
    sim.add_argument("--seed", type=int, default=12345, help="master seed (default %(default)s)")
    sim.add_argument("--out", required=True,
                     help="snapshot export path ('-' for stdout, with --summary)")
    sim.add_argument("--summary", default=None,
                     help="summary CSV path (default <out>.summary.csv)")
    _add_model_flags(sim, lists=False)
    sim.set_defaults(func=cmd_simulate)

    val = sub.add_parser("validate", help="run the self-check suites")
    val.add_argument("--level", choices=("fast", "full"), default="fast")
    val.set_defaults(func=cmd_validate)

    orc = sub.add_parser("oracle", help="exact single-edge block entropies")
    orc.add_argument("--t-max", type=int, default=8,
                     help="largest block length (default %(default)s, max 12)")
    orc.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_model_flags(orc, lists=False, nodes=False)
    orc.set_defaults(func=cmd_oracle)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs more than most parses."""
    return build_parser()


def _config_flags(args: argparse.Namespace) -> List[str]:
    """The --config file's pairs as ``--key=value`` flags.

    Valid keys are the command's options except --out, --summary and --config.
    """
    values = _load_config(args.config)
    options = set(vars(args)) - {"command", "func", "out", "summary", "config"}
    unknown = sorted(set(values) - options)
    if unknown:
        raise ValueError(f"{args.config}: unknown key(s) {', '.join(unknown)}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # argv[0] is the command: the top-level parser has no options
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        return args.func(args)
    except BrokenPipeError:
        # the reader of stdout closed the pipe early: stop without a message,
        # as Unix filters do; stdout then points at devnull, so that the
        # interpreter's last flush of it cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, simulator.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # unreadable --config, unwritable --out or --summary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
