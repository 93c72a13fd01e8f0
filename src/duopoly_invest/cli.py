"""Command-line front end.

Subcommands: derive | value | verify | simulate | sweep.  Inputs are JSON
files; outputs are JSON or CSV with 17-significant-digit floats so that runs
are byte-identical given the same configuration (including the seed).

Exit codes: 0 success, 2 domain error, 3 numeric non-convergence, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .boundaries import boundary_from_json
from .errors import (
    BelowFloorError,
    DuopolyError,
    IntegrabilityError,
    InvalidSplitError,
    KindMismatchError,
    ParamDomainError,
    QuadratureNotConvergedError,
    RootBracketError,
    UsageError,
    ZeroCapacityError,
)
from .mc import deviation_experiment, estimate_payoff, npv_at_boundary
from .model import ModelParams, params_from_json
from .outcomes import (
    build_abstain_outcome,
    build_aggregate_split,
    build_joint_outcome,
    build_symmetric_outcome,
)
from .values import AbstainValue, DynamicValue, SoleInvestorValue
from .verify import GridSpec, run_verification

_DOMAIN_ERRORS = (ParamDomainError, IntegrabilityError, ZeroCapacityError,
                  BelowFloorError, KindMismatchError, InvalidSplitError)
# A float operation out of range (a power of a capital near zero, say)
# raises OverflowError, and a quotient by an underflowed product raises
# ZeroDivisionError: numeric failures like the others.
_NUMERIC_ERRORS = (QuadratureNotConvergedError, RootBracketError, OverflowError,
                   ZeroDivisionError)

EXIT_DOMAIN = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"{path} must hold a JSON object, got {type(config).__name__}")
    return config


def _finite(raw):
    """raw as a finite float, or None for anything else (booleans included)."""
    if isinstance(raw, bool):
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        return None
    return value if math.isfinite(value) else None


def _number(raw, what: str, rule: str = "", valid=lambda v: True, integer: bool = False):
    """A numeric input field: finite, whole if integer, and passing valid,
    or UsageError naming the field and its rule."""
    value = _finite(raw)
    if value is None or not valid(value) or (integer and not value.is_integer()):
        kind = "a whole number" if integer else "a finite number"
        raise UsageError(f"{what} must be {kind}{rule}, got {raw!r}")
    return int(value) if integer else value


def _whole(minimum: int):
    """An argparse type: a whole number of at least `minimum`.  --paths needs
    two (one path has no standard error), --dump-count one (a dump of none
    writes nothing) and --seed zero (numpy seeds are non-negative)."""
    def whole(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return whole


def _params_block(config: dict) -> ModelParams:
    block = config if {"r", "mu", "sigma", "gamma"} <= set(config) \
        else config.get("params")
    if not isinstance(block, dict):
        raise UsageError('config needs a "params" block with r, mu, sigma, gamma')
    return params_from_json({k: _number(block[k], f"params.{k}")
                             for k in ("r", "mu", "sigma", "gamma") if k in block})


def _boundary(block, params: ModelParams):
    """A boundary from its JSON object, with its numeric fields checked."""
    if not isinstance(block, dict):
        raise UsageError(f"a boundary must be a JSON object, got {block!r}")
    return boundary_from_json({k: _number(v, f"boundary.{k}") if k in ("p", "c") else v
                               for k, v in block.items()}, params)


def _value_fn(config: dict, params: ModelParams):
    block = config.get("value")
    if not isinstance(block, dict) or "kind" not in block:
        raise UsageError('config needs a "value" block with a "kind"')
    kind = block["kind"]
    if kind == "abstain":
        return AbstainValue(params, _number(block.get("p", params.p_star), "value.p"))
    if kind == "sole_investor":
        return SoleInvestorValue(params, _number(block.get("p", params.p_star), "value.p"))
    if kind == "dynamic_c":
        if "c" not in block:
            raise UsageError('value kind dynamic_c needs field "c"')
        return DynamicValue(params, _number(block["c"], "value.c"))
    raise UsageError(f"unknown value kind: {kind!r}")


def _state(row) -> tuple:
    """(x, q1, q2) from a list of three numbers, or UsageError; a shock
    level x <= 0 or a negative capital is outside the state space."""
    if isinstance(row, (list, tuple)) and len(row) == 3:
        state = tuple(_finite(v) for v in row)
        if None not in state:
            x, q1, q2 = state
            if x <= 0.0 or q1 < 0.0 or q2 < 0.0:
                raise ParamDomainError(
                    f"a state needs x > 0 and capitals >= 0, got {row!r}")
            return state
    raise UsageError(f"a state must be three finite numbers x,q1,q2, got {row!r}")


def _states(config: dict) -> list:
    raw = config.get("states", config.get("state"))
    if not isinstance(raw, list):
        raise UsageError('config needs "states": [[x, q1, q2], ...]')
    if raw and isinstance(raw[0], (int, float)):
        raw = [raw]
    return [_state(s) for s in raw]


def _finite_row(values, state) -> None:
    """OverflowError unless every output value at state is finite: NaN is
    not JSON, and inf is no value."""
    if not all(math.isfinite(v) for v in values):
        raise OverflowError(f"non-finite output at state {state!r}")


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_derive(args) -> int:
    config = _load_json(args.config)
    params = _params_block(config)
    _write_out(json.dumps(params.to_json(), sort_keys=True, indent=2), args.out)
    return 0


def cmd_value(args) -> int:
    config = _load_json(args.config)
    params = _params_block(config)
    fn = _value_fn(config, params)
    rows = []
    for x, q1, q2 in _states(config):
        at = fn.evaluate(x, q1, q2, ("v", "x", "qi", "qmi"))
        partials = {"x": at["x"] / x, "qi": at["qi"], "qmi": at["qmi"]}
        _finite_row([at["v"], *partials.values()], (x, q1, q2))
        rows.append({"x": x, "q_i": q1, "q_mi": q2, "value": at["v"], "partials": partials})
    _write_out(json.dumps(rows, sort_keys=True, indent=2), args.out)
    return 0


def cmd_verify(args) -> int:
    config = _load_json(args.config)
    params = _params_block(config)
    fn = _value_fn(config, params)
    pair = None
    if "boundaries" in config:
        blocks = config["boundaries"]
        if isinstance(blocks, dict):
            blocks = [blocks, blocks]
        if not isinstance(blocks, list) or len(blocks) != 2:
            raise UsageError('"boundaries" must be one boundary object or a list of two')
        pair = tuple(_boundary(b, params) for b in blocks)
    grid_cfg = config.get("grid", {})
    if not isinstance(grid_cfg, dict):
        raise UsageError(f'"grid" must be a JSON object, got {grid_cfg!r}')
    # The bounds keep a report's memory small: nx levels per capital pair,
    # and nq**2 capital pairs.
    spec = GridSpec(
        nx=_number(grid_cfg.get("nx", 40), "grid.nx", " in [1, 1000]",
                   lambda v: 1 <= v <= 1000, integer=True),
        nq=_number(grid_cfg.get("nq", 20), "grid.nq", " in [1, 100]",
                   lambda v: 1 <= v <= 100, integer=True),
        x_lo_frac=_number(grid_cfg.get("x_lo_frac", 0.05), "grid.x_lo_frac", " in (0, 1]",
                          lambda v: 0.0 < v <= 1.0),
        q_span=_number(grid_cfg.get("q_span", 5.0), "grid.q_span", " >= 0",
                       lambda v: v >= 0.0))
    pair = pair or fn.strategy_pair()
    if not spec.capital_pairs(pair):
        raise UsageError("the grid has no capital pair with positive total capacity; "
                         "raise grid.nq or grid.q_span")
    # A failed condition is a finding, not a program error: the report still
    # gets written and the exit code stays zero.
    report = run_verification(fn, pair=pair, spec=spec)
    _write_out(report.dumps(), args.out)
    return 0


def _builder_for(strategy: dict, params: ModelParams, q1: float, q2: float):
    """Outcome builder from a strategy block.

    The block is a boundary JSON plus optional fields:
      construction: abstain | symmetric | split | joint   (default inferred)
      abstaining_firm: 1 | 2        (abstain; default 1)
      weights: [w1, w2]             (split)
      opponent: boundary block      (joint; defaults to the own block)
    """
    boundary = _boundary(strategy, params)
    construction = strategy.get("construction")
    if construction is None:
        construction = "symmetric" if strategy.get("kind") == "dynamic_c" else "abstain"
    if construction == "abstain":
        firm = _number(strategy.get("abstaining_firm", 1), "abstaining_firm", " (1 or 2)",
                       lambda v: v in (1, 2), integer=True)
        return lambda path: build_abstain_outcome((boundary, boundary), path, q1, q2, firm)
    if construction == "symmetric":
        return lambda path: build_symmetric_outcome((boundary, boundary), path, q1, q2)
    if construction == "split":
        weights = strategy.get("weights")
        if not isinstance(weights, list) or len(weights) != 2:
            raise UsageError(f'split construction needs "weights": [w1, w2], got {weights!r}')
        weights = [_number(w, "weights entry") for w in weights]
        return lambda path: build_aggregate_split((boundary, boundary), path, q1, q2, weights)
    if construction == "joint":
        opp_block = strategy.get("opponent", strategy)
        opp = _boundary(opp_block, params)
        return lambda path: build_joint_outcome(boundary, opp, path, q1, q2)
    raise UsageError(f"unknown construction: {construction!r}")


def cmd_simulate(args) -> int:
    params = _params_block(_load_json(args.params))
    strategy = _load_json(args.strategy)
    x0, q1, q2 = _state(args.state.split(","))
    builder = _builder_for(strategy, params, q1, q2)
    boundary = _boundary(strategy, params)
    firm = _number(strategy.get("firm", 1), "firm", " (1 or 2)", lambda v: v in (1, 2),
                   integer=True)
    if args.dump_outcomes:
        from .outcomes import dump_outcome_csv
        from .paths import generate_path

        for j in range(args.dump_count):
            path = generate_path(params, x0, args.dt, args.horizon, args.seed, j)
            with open(f"{args.dump_outcomes}{j}.csv", "w", newline="") as fh:
                dump_outcome_csv(builder(path), fh)
    est = estimate_payoff(params, builder, firm, x0, n_paths=args.paths,
                          dt=args.dt, horizon=args.horizon, seed=args.seed,
                          tail_boundary=boundary)
    _write_out(est.dumps(), args.out)
    return 0


def cmd_sweep(args) -> int:
    config = _load_json(args.config)
    params = _params_block(config)
    sweep = config.get("sweep")
    if not isinstance(sweep, dict) or "kind" not in sweep:
        raise UsageError('config needs a "sweep" block with a "kind"')
    states = _states(config)
    kind = sweep["kind"]

    def levels(key: str) -> list:
        raw = sweep.get(key, [])
        if not isinstance(raw, list):
            raise UsageError(f"sweep.{key} must be a JSON list of numbers, got {raw!r}")
        return [_number(v, f"sweep.{key} entry") for v in raw]

    if kind == "dynamic_c":
        fns = [(lvl, DynamicValue(params, lvl)) for lvl in levels("c_values")]
        level_col = "c"
    elif kind in ("abstain", "sole_investor", "constant_price"):
        make = SoleInvestorValue if kind == "sole_investor" else AbstainValue
        fns = [(lvl, make(params, lvl)) for lvl in levels("p_values")]
        level_col = "p"
    else:
        raise UsageError(f"unknown sweep kind: {kind!r}")
    if not fns:
        raise UsageError("sweep needs a nonempty list of levels")

    header = ["r", "mu", "sigma", "gamma", "beta", "p_star", "mu_gamma",
              "kind", level_col, "x", "q_i", "q_mi", "value"]
    derived = [params.r, params.mu, params.sigma, params.gamma,
               params.beta, params.p_star, params.mu_gamma]
    lines = []
    for lvl, fn in fns:
        for x, q1, q2 in states:
            value = fn.value(x, q1, q2)
            _finite_row([value], (x, q1, q2))
            lines.append([*(_g17(v) for v in derived), kind, _g17(lvl),
                          _g17(x), _g17(q1), _g17(q2), _g17(value)])
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(lines)
    _write_out(buf.getvalue(), args.out)
    return 0


def cmd_npv(args) -> int:
    params = _params_block(_load_json(args.config))
    p = _number(args.p, "--p", " > 0", lambda v: v > 0.0)
    _write_out(json.dumps({"p": p, "npv_per_unit": npv_at_boundary(params, p)},
                          sort_keys=True), args.out)
    return 0


def cmd_deviation(args) -> int:
    params = _params_block(_load_json(args.params))
    eq = _boundary(_load_json(args.equilibrium), params)
    dev = _boundary(_load_json(args.deviant), params)
    x0, q1, q2 = _state(args.state.split(","))
    res = deviation_experiment(params, eq, dev, x0, q1, q2, n_paths=args.paths,
                               dt=args.dt, horizon=args.horizon, seed=args.seed)
    _write_out(json.dumps(res.to_json(), sort_keys=True), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="duopoly-invest",
                     description="Closed-loop capacity-investment duopoly laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("derive", help="derive beta, p_star, mu_gamma from primitives")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("value", help="evaluate a value function at states")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(fn=cmd_value)

    p = sub.add_parser("verify", help="run the verification-condition report")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo payoff of an outcome construction")
    p.add_argument("--params", required=True, help="params JSON file")
    p.add_argument("--strategy", required=True, help="strategy JSON file")
    p.add_argument("--state", required=True, help="x,q1,q2")
    p.add_argument("--paths", type=_whole(2), default=10000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--seed", type=_whole(0), default=0)
    p.add_argument("--dump-outcomes", default=None, metavar="PREFIX",
                   help="write t,x,q1,q2 CSVs for the first --dump-count paths")
    p.add_argument("--dump-count", type=_whole(1), default=1)
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="value sweep over thresholds; CSV output")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("npv", help="marginal NPV of investing at threshold p")
    p.add_argument("--config", required=True)
    p.add_argument("--p", type=float, required=True)
    common(p)
    p.set_defaults(fn=cmd_npv)

    p = sub.add_parser("deviation", help="payoff gap of a deviant strategy")
    p.add_argument("--params", required=True)
    p.add_argument("--equilibrium", required=True)
    p.add_argument("--deviant", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--paths", type=_whole(2), default=10000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--seed", type=_whole(0), default=0)
    common(p)
    p.set_defaults(fn=cmd_deviation)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DuopolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
