"""Command-line front end.

Subcommands: construct, verify, optimal, lp, simulate, export.  Probabilities
are decimal or p/q strings parsed exactly; floats never enter the pipeline.
A --config file (key=value lines, # comments, each key at most once)
supplies defaults that explicit flags override; its term value is a
comma-separated list of MASS:BITS items.  Exit codes: 0 success, 1 property
or optimality failure, 2 usage error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from .core import ReducedKeySet, TokenDistribution, WatermarkScheme, check_instance
from .construct_a import construct_a
from .construct_b import construct_b
from .errors import (
    CapacityError,
    KeymarkError,
    ParameterError,
    SolverError,
    ValidationError,
)
from .lp import bijective_keyset, build_primal, export_lp_text, solve
from .metrics import PropertyReport, check_scheme, error_report, optimal_value
from .rationals import mass_to_string, parse_mass
from .serialize import export_csv, load_scheme, save_scheme, serialize_scheme
from .sim import check_draw, monte_carlo
from .thot import THotDecomposition, THotTerm

__all__ = ["main", "RunConfig"]


class RunConfig:
    """Merged view over CLI flags and the optional config file.

    Flags parse with default None; a None falls back to the config file and
    then to the built-in default, so explicit flags always win.
    """

    def __init__(self, args: argparse.Namespace, file_values: dict[str, str]):
        self._args = args
        self._file = file_values
        # Checked up front so a bad setting fails before any work is done.
        settings = set(vars(args)) - {"command", "func", "config"}
        unknown = sorted(set(file_values) - settings)
        if unknown:
            raise ParameterError(
                f"config file sets {', '.join(unknown)}, which {args.command} does not take"
            )
        self.as_json = bool(self.get("json", False, parse=_parse_bool))

    def get(self, name: str, default: Any = None, parse: Callable | None = None) -> Any:
        value = getattr(self._args, name, None)
        if value is None or value is False:
            raw = self._file.get(name)
            if raw is not None:
                value = parse(raw) if parse else raw
            elif value is None:
                value = default
        return value


def _parse_int(value: Any, name: str) -> int:
    """An integer setting from a flag or the config file."""
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from exc


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ParameterError(f"not a boolean: {text!r}")


def _load_config_file(path: str | None) -> dict[str, str]:
    """key=value settings of a config file.  A key may appear only once: a
    repeated key is refused with both line numbers, not silently replaced."""
    if not path:
        return {}
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key in lines:
            raise ParameterError(
                f"{path}:{lineno}: {key} is already set on line {lines[key]}"
            )
        lines[key] = lineno
        values[key] = value.strip()
    return values


def _parse_px(text: str) -> TokenDistribution:
    return TokenDistribution.from_strings([p.strip() for p in text.split(",")])


def _split_terms(text: str) -> list[str]:
    """A config-file term value: comma-separated MASS:BITS items."""
    return [item.strip() for item in text.split(",")]


def _parse_terms(items: Sequence[str]) -> THotDecomposition:
    terms, widths = [], set()
    for item in items:
        mass_text, sep, bits = item.partition(":")
        if not sep or not bits or set(bits) - {"0", "1"}:
            raise ParameterError(f"--term expects MASS:BITS with binary bits, got {item!r}")
        widths.add(len(bits))
        support = tuple(i for i, bit in enumerate(bits) if bit == "1")
        terms.append(THotTerm(support, parse_mass(mass_text)))
    if len(widths) != 1:
        raise ParameterError(f"--term BITS have mixed widths {sorted(widths)}")
    return THotDecomposition(tuple(terms), widths.pop())


def _emit(payload: dict, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _instance(config: RunConfig) -> tuple[TokenDistribution, Fraction, int]:
    px_raw = config.get("px")
    alpha_raw = config.get("alpha")
    t_raw = config.get("t")
    if px_raw is None or alpha_raw is None or t_raw is None:
        raise ParameterError("--px, --alpha, and --t are required")
    px = px_raw if isinstance(px_raw, TokenDistribution) else _parse_px(px_raw)
    alpha = alpha_raw if isinstance(alpha_raw, Fraction) else parse_mass(alpha_raw)
    # Checked here so that every subcommand refuses a bad instance in the
    # same words, before it builds a key set from T.
    return (px, *check_instance(px, alpha, _parse_int(t_raw, "t")))


def _scheme_summary(scheme: WatermarkScheme) -> tuple[dict, list[str]]:
    report = error_report(scheme)
    payload = {
        "n": scheme.n,
        "t": scheme.t,
        "alpha": mass_to_string(scheme.alpha),
        "beta": [mass_to_string(b) for b in report.beta],
        "optimal": mass_to_string(report.optimal_value),
        "gap": mass_to_string(report.gap),
        "worst_false_alarm": mass_to_string(report.worst_false_alarm),
        "key_support": len(scheme.key_support()),
    }
    lines = [
        f"n={scheme.n} t={scheme.t} alpha={payload['alpha']}",
        "beta: " + " ".join(payload["beta"]),
        f"optimal: {payload['optimal']}  gap: {payload['gap']}",
        f"worst false alarm: {payload['worst_false_alarm']}",
        f"keys in support: {payload['key_support']}",
    ]
    return payload, lines


def cmd_construct(config: RunConfig) -> int:
    px, alpha, t = _instance(config)
    method = config.get("method", "a")
    terms = config.get("term", parse=_split_terms)
    force = bool(config.get("force_pseudo", False, parse=_parse_bool))
    if method == "a":
        if terms:
            raise ParameterError("--term applies only to --method b")
        if force:
            raise ParameterError("--force-pseudo applies only to --method b")
        scheme = construct_a(px, alpha, t)
    elif method == "b":
        decomposition = _parse_terms(terms) if terms else None
        scheme = construct_b(px, alpha, t, force_pseudo=force, decomposition=decomposition)
    else:
        raise ParameterError(f"unknown method {method!r} (expected a or b)")
    out = config.get("out")
    if out:
        save_scheme(scheme, out)
    payload, lines = _scheme_summary(scheme)
    if out:
        payload["written"] = str(out)
        lines.append(f"scheme written to {out}")
    elif config.as_json:
        payload["scheme"] = serialize_scheme(scheme)
    _emit(payload, config.as_json, lines)
    return 0


def _property_payload(report: PropertyReport) -> dict:
    return {
        "properties": [
            {
                "name": c.name,
                "passed": c.passed,
                "location": c.location,
                "expected": None if c.expected is None else mass_to_string(c.expected),
                "actual": None if c.actual is None else mass_to_string(c.actual),
            }
            for c in report.checks
        ],
        "ok": report.ok,
    }


def cmd_verify(config: RunConfig) -> int:
    scheme = load_scheme(config.get("scheme"))
    report = check_scheme(scheme)
    try:
        summary, lines = _scheme_summary(scheme)
    except ValidationError as exc:
        # A scheme that fails its checks can carry error rates outside
        # [0, 1]; the failing properties are the result, not the report.
        if report.ok:
            raise
        summary, lines = {"report_error": str(exc)}, [f"error report unavailable: {exc}"]
    _emit({**_property_payload(report), **summary}, config.as_json, [report.describe(), *lines])
    return 0 if report.ok else 1


def cmd_optimal(config: RunConfig) -> int:
    px, alpha, t = _instance(config)
    value = optimal_value(px, alpha, t)
    _emit(
        {"optimal": mass_to_string(value)},
        config.as_json,
        [mass_to_string(value)],
    )
    return 0


def cmd_lp(config: RunConfig) -> int:
    px, alpha, t = _instance(config)
    kind = config.get("keyset", "reduced")
    if kind == "reduced":
        keyset = ReducedKeySet(px.n, t)
    elif kind == "bijective":
        keyset = bijective_keyset(px.n, t)
    else:
        raise ParameterError(f"unknown keyset kind {kind!r}")
    problem = build_primal(px, alpha, t, keyset)
    export_path = config.get("export_lp")
    if export_path:
        Path(export_path).write_text(export_lp_text(problem))
    solution = solve(problem)
    formula = optimal_value(px, alpha, t)
    payload = {
        "status": solution.status,
        "keyset": kind,
        "keys": keyset.size,
        "variables": problem.nvars,
        "formula": mass_to_string(formula),
        "solved_variables": solution.solved_variables,
        "solved_rows": solution.solved_rows,
        "phase1_pivots": solution.phase1_pivots,
        "phase2_pivots": solution.phase2_pivots,
        "degenerate_pivots": solution.degenerate_pivots,
    }
    lines = [
        f"status: {solution.status}",
        f"keyset: {kind} ({keyset.size} keys), {problem.nvars} variables",
        f"formula optimum: {mass_to_string(formula)}",
    ]
    if solution.status == "optimal":
        # solve() has already checked the optimum's dual exactly.
        gap = solution.objective - formula
        payload["lp_optimal"] = mass_to_string(solution.objective)
        payload["lp_minus_formula"] = mass_to_string(gap)
        lines.append(
            f"lp optimum: {mass_to_string(solution.objective)} "
            f"({solution.objective})"
        )
        lines.append(f"lp minus formula: {mass_to_string(gap)}")
    if export_path:
        payload["exported"] = str(export_path)
        lines.append(f"lp text written to {export_path}")
    _emit(payload, config.as_json, lines)
    return 0 if solution.status == "optimal" else 1


def cmd_simulate(config: RunConfig) -> int:
    scheme = load_scheme(config.get("scheme"))
    m = _parse_int(config.get("m", 1), "m")
    trials = _parse_int(config.get("trials", 100_000), "trials")
    seed = _parse_int(config.get("seed", 0), "seed")
    # A draw the scheme cannot serve is a usage error (exit 2) first.  A
    # scheme that fails its checks then gets verify's property lines and
    # exit 1: its estimate would sample masses renormalised to 1, while its
    # exact value reads the raw ones.
    check_draw(scheme, m, seed, trials=trials)
    properties = check_scheme(scheme)
    if not properties.ok:
        _emit(_property_payload(properties), config.as_json, [properties.describe()])
        return 1
    report = monte_carlo(scheme, m, trials, seed)
    payload = {
        "m": report.m,
        "trials": report.trials,
        "hits": report.hits,
        "estimate": report.estimate,
        "stderr": report.stderr,
        "exact": mass_to_string(report.exact),
        "z_score": report.z_score,
    }
    lines = [
        f"m={report.m} trials={report.trials}",
        f"estimate: {report.estimate:.6f} (exact {mass_to_string(report.exact)})",
        f"stderr: {report.stderr:.6f}  z: {report.z_score:+.3f}",
    ]
    _emit(payload, config.as_json, lines)
    return 0


def cmd_export(config: RunConfig) -> int:
    text = export_csv(load_scheme(config.get("scheme")))
    out = config.get("out")
    if out:
        Path(out).write_text(text)
        print(f"csv written to {out}")
    else:
        sys.stdout.write(text)
    return 0


def _add_instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--px", help="comma-separated exact probabilities, e.g. 0.05,0.1,0.25,0.6")
    sub.add_argument("--alpha", help="false-alarm budget in [0,1), exact string")
    sub.add_argument("--t", help="number of messages")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", default=False, help="machine-readable output")
    sub.add_argument("--config", help="key=value defaults file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keymark",
        description="Construct, verify, and certify optimal key-pattern watermarking schemes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("construct", help="build a scheme and report its error metrics")
    _add_instance_flags(sub)
    sub.add_argument("--method", choices=["a", "b"], help="a: direct; b: pseudo-token extension")
    sub.add_argument("--force-pseudo", action="store_true", default=False, dest="force_pseudo")
    sub.add_argument("--term", action="append", help="MASS:BITS decomposition term (method b)")
    sub.add_argument("--out", help="write the scheme document here")
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_construct)

    sub = subs.add_parser("verify", help="check the structural properties of a scheme document")
    sub.add_argument("scheme", help="scheme JSON path")
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("optimal", help="print the closed-form optimal miss rate")
    _add_instance_flags(sub)
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_optimal)

    sub = subs.add_parser("lp", help="solve the exact LP over a key set")
    _add_instance_flags(sub)
    sub.add_argument("--keyset", choices=["reduced", "bijective"], help="key family")
    sub.add_argument("--export-lp", dest="export_lp", help="write LP text here")
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_lp)

    sub = subs.add_parser("simulate", help="Monte Carlo estimate of an error rate")
    sub.add_argument("scheme", help="scheme JSON path")
    sub.add_argument("--m", type=int, help="message (0 = false alarm)")
    sub.add_argument("--trials", type=int, help="number of draws (default 100000)")
    sub.add_argument("--seed", type=int, help="RNG seed (default 0)")
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("export", help="export a scheme document as CSV")
    sub.add_argument("scheme", help="scheme JSON path")
    sub.add_argument("--out", help="write here instead of stdout")
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(args, _load_config_file(getattr(args, "config", None)))
        return args.func(config)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, KeymarkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
