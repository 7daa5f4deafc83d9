"""Command-line front end.

Exit codes: 0 = success, 1 = input/usage error, 2 = a mathematically
meaningful denial (arbitrage detected, no dominating measure, refuted bound,
not a supermartingale) so scripts can branch on market properties. Every
certificate is re-verified once, exactly, by the library function that
returns it; this module only renders it. Exact-mode `--json` output is
byte-identical across runs except for the wall-time field.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import lp
from .arbitrage import find_dominating_mm, lift_first_failure, scan_nodes, semistatic_na
from .decompose import AdaptedProcess, NotSupermartingale, optional_decomposition
from .model import Model, load_model
from .polar import compute_support, reference_measure
from .rational import RationalParseError, format_with_decimal, to_rational
from .superhedge import (
    POINT,
    ArbitrageDetected,
    Proved,
    Refuted,
    Replicable,
    check_complete,
    check_replicable,
    price_interval,
    prove_inequality,
    superhedge_dynamic,
    superhedge_semistatic,
)

# flags read by each subcommand besides --model, --json and --dump-lp;
# --float and --tol reach only the global LPs of the two subcommands that
# print a number and no certificate
_FLOAT = ("--float", "--tol")
_FLAGS = {
    "validate": (),
    "na": (),
    "mm": ("--dominate",),
    "price": ("--claim", *_FLOAT),
    "hedge": ("--claim",),
    "interval": ("--claim", *_FLOAT),
    "replicate": ("--claim",),
    "complete": (),
    "decompose": ("--process",),
    "prove": ("--claim", "--bound"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.tol is not None and not args.float_mode:
        parser.error("--tol sets the float tolerance; it needs --float")
    if args.dump_lp:
        lp.set_dump_file(args.dump_lp)
    started = time.perf_counter()
    try:
        code, report, text = _dispatch(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except lp.NumericalBreakdown as exc:
        print(f"error: {exc}; retry without --float", file=sys.stderr)
        return 1
    finally:
        if args.dump_lp:
            lp.set_dump_file(None)
    report["wall_time_s"] = round(time.perf_counter() - started, 6)
    print(json.dumps(report, indent=2) if args.json else text)
    return code


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like other input errors; 2 is kept for denials."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    try:
        return lp.float_mode(float(text)).tolerance
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        ) from None


_FLAG_SPECS = {
    "--float": {"dest": "float_mode", "action": "store_true"},
    "--tol": {
        "type": _tolerance,
        "help": f"float tolerance (default {lp.float_mode().tolerance:g})",
    },
    "--claim": {"required": True, "help": "claim name from the document"},
    "--process": {"required": True, "help": "adapted process name (decompose)"},
    "--bound": {"required": True, "help": "bound to prove (rational)"},
    "--dominate": {"default": "uniform", "help": "measure name from the document, or 'uniform'"},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robusthedge",
        description="Robust pricing and hedging on finite scenario trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name)
        p.set_defaults(float_mode=False, tol=None)  # exact unless --float is taken
        p.add_argument("--model", required=True, help="model document (JSON)")
        p.add_argument("--json", action="store_true")
        p.add_argument("--dump-lp", dest="dump_lp", metavar="FILE")
        for flag in flags:
            p.add_argument(flag, **_FLAG_SPECS[flag])
    return parser


def _mode_of(args, report) -> lp.Mode:
    """The mode of the global LPs about to run, recorded in the report."""
    if not args.float_mode:
        return lp.EXACT
    mode = lp.float_mode() if args.tol is None else lp.float_mode(args.tol)
    report["mode"] = {"kind": "float", "tolerance": mode.tolerance}
    return mode


def _load(args) -> tuple[Model, str]:
    with open(args.model, "rb") as handle:
        blob = handle.read()
    digest = hashlib.sha256(blob).hexdigest()
    return load_model(blob.decode("utf-8")), digest


def _rat(x) -> str:
    if not isinstance(x, Fraction):
        return repr(x)
    try:
        return str(x)
    except ValueError:  # an int past Python's int-to-str digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"the exact answer has more than {limit} digits") from None


def _strategy_json(model: Model, strategy) -> dict:
    return {
        "initial": _rat(strategy.initial),
        "static": {
            opt.name: _rat(strategy.static[k]) if k < len(strategy.static) else "0"
            for k, opt in enumerate(model.options)
        },
        "dynamic": {
            node: [_rat(v) for v in vec] for node, vec in sorted(strategy.dynamic.items())
        },
    }


def _measure_json(measure) -> dict:
    return {leaf: _rat(w) for leaf, w in sorted(measure.weights.items())}


def _claim_of(args, model: Model):
    claim = model.claims.get(args.claim)
    if claim is None:
        raise ValueError(f"claim {args.claim!r} is not in the document")
    return claim


def _dispatch(args) -> tuple[int, dict, str]:
    """Run the subcommand: its exit code, its JSON report and its text."""
    model, digest = _load(args)
    mask = compute_support(model.tree)
    report: dict = {
        "command": args.command,
        "model_digest": digest,
        "mode": {"kind": "exact"},
    }
    handler = globals()[f"_cmd_{args.command}"]
    try:
        code, text = handler(args, model, mask, report)
    except ArbitrageDetected as exc:
        report["denied"] = str(exc)
        code, text = 2, f"denied: {exc}"
    return code, report, text


def _cmd_validate(args, model, mask, report) -> tuple[int, str]:
    tree = model.tree
    report.update(
        {
            "horizon": tree.horizon,
            "dimension": tree.dimension,
            "nodes": sum(len(level) for level in tree.levels),
            "leaves": len(tree.leaves),
            "relevant_leaves": len(mask.relevant_leaves),
            "options": [opt.name for opt in model.options],
            "claims": sorted(model.claims),
            "valid": True,
        }
    )
    return 0, (
        f"valid model: T={tree.horizon} d={tree.dimension} "
        f"nodes={report['nodes']} leaves={report['leaves']} "
        f"(relevant {report['relevant_leaves']}) "
        f"options={len(model.options)} claims={len(model.claims)}"
    )


def _cmd_na(args, model, mask, report) -> tuple[int, str]:
    tree = model.tree
    reports = scan_nodes(tree, mask)
    rows = []
    for node_report in reports:
        rows.append(
            {
                "node": node_report.node,
                "status": "Pass" if node_report.passed else "Fail",
                "certificate": None
                if node_report.certificate is None
                else [_rat(v) for v in node_report.certificate],
            }
        )
    stocks = lift_first_failure(tree, mask, reports)
    verdict = {"stocks": "Pass" if stocks is None else "Fail"}
    if stocks is not None:
        verdict["strategy"] = _strategy_json(model, stocks.strategy)
        verdict["witness_leaves"] = list(stocks.witness_leaves)
    code = 0 if stocks is None else 2
    if model.options:
        semi = semistatic_na(tree, mask, model.options)
        verdict["semistatic"] = "Pass" if semi is None else "Fail"
        if semi is not None:
            verdict["semistatic_strategy"] = _strategy_json(model, semi.strategy)
            verdict["semistatic_witness_leaves"] = list(semi.witness_leaves)
            code = 2
    report["nodes"] = rows
    report["verdict"] = verdict
    width = max(len(r["node"]) for r in rows) if rows else 4
    lines = [f"{'node':<{width}}  status  certificate"]
    for r in rows:
        cert = " ".join(r["certificate"]) if r["certificate"] else "-"
        lines.append(f"{r['node']:<{width}}  {r['status']:<6}  {cert}")
    lines.append(f"stocks-only NA: {verdict['stocks']}")
    if stocks is not None:
        lines.append(f"  arbitrage at {next(iter(stocks.strategy.dynamic))!r}, "
                     f"witness leaves {', '.join(stocks.witness_leaves)}")
    if model.options:
        lines.append(f"semistatic NA (with options): {verdict['semistatic']}")
    return code, "\n".join(lines)


def _cmd_mm(args, model, mask, report) -> tuple[int, str]:
    tree = model.tree
    name = args.dominate
    p = model.measures.get(name)
    if p is None:
        if name != "uniform":
            raise ValueError(f"measure {name!r} is not in the document")
        p = reference_measure(tree)
    witness = find_dominating_mm(tree, mask, model.options, p)
    report["dominate"] = name
    if witness is None:
        report["witness"] = None
        return 2, "none exists"
    report["witness"] = _measure_json(witness.q)
    return 0, "\n".join(
        f"{leaf}: {format_with_decimal(w)}"
        for leaf, w in sorted(witness.q.weights.items())
    )


def _superhedge(args, model, mask, report):
    """The route and the superhedging price and strategy of the claim: the
    global LP when the document quotes options, else the backward
    recursion, which is exact in every mode."""
    claim = _claim_of(args, model)
    if model.options:
        price, strategy, _ = superhedge_semistatic(
            model.tree, mask, claim, model.options, _mode_of(args, report)
        )
        return "lp", price, strategy
    price, _, strategy = superhedge_dynamic(model.tree, mask, claim)
    return "dp", price, strategy


def _cmd_price(args, model, mask, report) -> tuple[int, str]:
    method, price, _ = _superhedge(args, model, mask, report)
    report.update({"claim": args.claim, "method": method, "price": _rat(price)})
    return 0, format_with_decimal(price)


def _cmd_hedge(args, model, mask, report) -> tuple[int, str]:
    method, price, strategy = _superhedge(args, model, mask, report)
    report.update(
        {
            "claim": args.claim,
            "method": method,
            "price": _rat(price),
            "strategy": _strategy_json(model, strategy),
        }
    )
    return 0, json.dumps(report["strategy"], indent=2)


def _cmd_interval(args, model, mask, report) -> tuple[int, str]:
    claim = _claim_of(args, model)
    interval = price_interval(
        model.tree, mask, claim, model.options, _mode_of(args, report)
    )
    report.update(
        {
            "claim": args.claim,
            "lower": _rat(interval.lower),
            "upper": _rat(interval.upper),
            "kind": interval.kind,
        }
    )
    if interval.kind == POINT:
        return 0, f"point {format_with_decimal(interval.lower)}"
    return 0, (
        f"open interval ({format_with_decimal(interval.lower)}, "
        f"{format_with_decimal(interval.upper)})"
    )


def _cmd_replicate(args, model, mask, report) -> tuple[int, str]:
    claim = _claim_of(args, model)
    result = check_replicable(model.tree, mask, claim, model.options)
    if isinstance(result, Replicable):
        report.update(
            {
                "claim": args.claim,
                "replicable": True,
                "price": _rat(result.price),
                "strategy": _strategy_json(model, result.strategy),
            }
        )
        return 0, f"replicable at {format_with_decimal(result.price)}"
    report.update(
        {
            "claim": args.claim,
            "replicable": False,
            "lower": _rat(result.interval.lower),
            "upper": _rat(result.interval.upper),
            "q_low": _measure_json(result.q_low),
            "q_high": _measure_json(result.q_high),
        }
    )
    return 0, (
        "not replicable: prices fill "
        f"({format_with_decimal(result.interval.lower)}, "
        f"{format_with_decimal(result.interval.upper)})"
    )


def _cmd_complete(args, model, mask, report) -> tuple[int, str]:
    complete = check_complete(model.tree, mask, model.options)
    report["complete"] = complete
    return 0, "complete" if complete else "incomplete"


def _cmd_decompose(args, model, mask, report) -> tuple[int, str]:
    values = model.processes.get(args.process)
    if values is None:
        raise ValueError(f"process {args.process!r} is not in the document")
    process = AdaptedProcess(values)
    try:
        decomposition = optional_decomposition(model.tree, mask, process)
    except NotSupermartingale as exc:
        report.update(
            {"process": args.process, "supermartingale": False,
             "node": exc.node, "gap": _rat(exc.gap)}
        )
        return 2, (f"not a supermartingale: node {exc.node!r} "
                   f"gap {format_with_decimal(exc.gap)}")
    report.update(
        {
            "process": args.process,
            "supermartingale": True,
            "H": _strategy_json(model, decomposition.strategy)["dynamic"],
            "K": {n: _rat(v) for n, v in sorted(decomposition.consumption.items())},
            "initial": _rat(decomposition.strategy.initial),
        }
    )
    return 0, json.dumps({"H": report["H"], "K": report["K"]}, indent=2)


def _cmd_prove(args, model, mask, report) -> tuple[int, str]:
    claim = _claim_of(args, model)
    try:
        bound = to_rational(args.bound)
    except RationalParseError as exc:
        raise ValueError(f"--bound: {exc}") from exc
    result = prove_inequality(model.tree, mask, claim, bound)
    report["claim"] = args.claim
    report["bound"] = _rat(bound)
    if isinstance(result, Proved):
        report["proved"] = True
        report["strategy"] = _strategy_json(model, result.strategy)
        return 0, f"proved: claim <= {format_with_decimal(bound)} pathwise"
    assert isinstance(result, Refuted)
    report["proved"] = False
    report["counterexample"] = _measure_json(result.q)
    report["expectation"] = _rat(result.expectation)
    return 2, (
        f"refuted: expectation {format_with_decimal(result.expectation)} "
        f"exceeds {format_with_decimal(bound)} under a martingale measure"
    )


if __name__ == "__main__":
    sys.exit(main())
