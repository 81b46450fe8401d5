"""Command-line surface: parameter parsing, sweeps, CSV/JSON emission.

Commands: bands, impurity, weak, distant, oracle.  All numeric output is
deterministic for a fixed configuration (including --seed): floats are
printed with 17 significant digits, CSV uses LF endings and carries a
header row plus a leading comment line recording the configuration.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import asymptotics, band, crosscheck, impurity
from .core import ChainParams, f_single
from .errors import InsideBand, FlatBandPole, RingChainError

# figure preset -> (cos(A*pi), alpha, pattern); fig4 presets take the pattern from --gamma
IMPURITY_PRESETS = {
    "fig4i": (0.6, 1.0, None),
    "fig4ii": (0.6, -1.0, None),
    "fig4iii": (0.6, -3.0, None),
    "fig5i": (-0.6, 1.0, (3.0, 1.0)),
    "fig5ii": (-0.6, -1.0, (3.0, 1.0)),
    "fig5iii": (-0.6, -3.0, (3.0, 1.0)),
}
CURVE_POINTS = 200   # coupling-function samples per gap piece


class ConfigError(Exception):
    """Bad command configuration (exit code 2)."""


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _csv_text(config_line: str, header: list[str], rows) -> str:
    lines = [f"# config: {config_line}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _params_from(args) -> ChainParams:
    alpha = 0.0 if args.alpha is None else args.alpha
    if args.A is not None:
        return ChainParams(args.A, alpha)
    return ChainParams.from_cos_flux(args.cosA, alpha)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t != ""]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list: {text!r}") from exc


def _parse_sweep(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(t) for t in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad sweep spec (want lo:hi:step): {text!r}") from exc
    if step <= 0 or hi < lo:
        raise ConfigError("sweep needs step > 0 and hi >= lo")
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def cmd_bands(args) -> int:
    if args.figure is not None:  # fig3, the only bands preset
        args.cosA = 0.7
        if args.alpha_sweep is None:
            args.alpha_sweep = "-4:2:0.01"

    if args.alpha_sweep is not None:
        if args.alpha is not None:
            raise ConfigError("--alpha-sweep and --figure set alpha; drop --alpha")
        params0 = _params_from(args)
        alphas = _parse_sweep(args.alpha_sweep)
        edges = [band.first_band(params0.with_alpha(float(a))) for a in alphas]
        config = (
            f"bands alpha-sweep cosA={_fmt(params0.cos_flux)} sweep={args.alpha_sweep} "
            f"tol_root={_fmt(band.TOL_ROOT)}"
        )
        rows = [(a, lo, hi) for a, (lo, hi) in zip(alphas, edges)]
        _emit(_csv_text(config, ["alpha", "band0_lo", "band0_hi"], rows), args.out)
        return 0

    params = _params_from(args)
    if params.is_half_integer_flux:
        layout = band.half_integer_layout(params, args.cutoff)
    else:
        layout = band.band_edges(params, args.cutoff)
    _emit(_json_text(layout.to_json_dict()), args.out)
    return 0


def _pattern_from(args) -> impurity.PerturbationPattern:
    if args.gamma is not None:
        return impurity.PerturbationPattern(tuple(_parse_floats(args.gamma)))
    if args.identical is not None:
        try:
            g, m = args.identical.split(":")
            return impurity.PerturbationPattern.identical(float(g), int(m))
        except ValueError as exc:
            raise ConfigError(f"bad identical spec (want gamma:m): {args.identical!r}") from exc
    raise ConfigError("a pattern is required (--gamma or --identical)")


def cmd_impurity(args) -> int:
    preset_pattern = None
    if args.figure is not None:
        if args.alpha is not None:
            raise ConfigError("--figure sets alpha; drop --alpha")
        args.cosA, args.alpha, preset_pattern = IMPURITY_PRESETS[args.figure]
        if preset_pattern is not None and (args.gamma is not None or args.identical is not None):
            raise ConfigError(f"--figure {args.figure} sets the pattern; drop --gamma/--identical")
    params = _params_from(args)
    layout = band.band_edges(params, args.cutoff)

    if args.curve:
        if preset_pattern is not None:
            g1, g2 = preset_pattern
            two = True
        elif args.gamma is not None:
            gs = _parse_floats(args.gamma)
            if len(gs) == 1:
                two = False
            elif len(gs) == 2:
                (g1, g2), two = gs, True
            else:
                raise ConfigError("--curve supports one or two gammas")
        else:
            two = False
        rows = []
        for gi, (lo, hi) in enumerate(layout.gaps):
            if math.isinf(lo):
                lo = hi - 3.0
            grid = np.linspace(lo + 1e-6, hi - 1e-6, CURVE_POINTS)
            for E in grid:
                try:
                    if two:
                        fm, fp = impurity.f_pm(float(E), g1, g2, params)
                        rows.append((gi, float(E), fm, fp))
                    else:
                        rows.append((gi, float(E), f_single(float(E), params)))
                except (InsideBand, FlatBandPole):
                    continue
        header = ["gap_index", "E", "f_minus", "f_plus"] if two else ["gap_index", "E", "f"]
        config = f"impurity curve cosA={_fmt(params.cos_flux)} alpha={_fmt(params.alpha)} cutoff={_fmt(args.cutoff)}"
        _emit(_csv_text(config, header, rows), args.out)
        return 0

    pattern = impurity.PerturbationPattern(preset_pattern) if preset_pattern is not None else _pattern_from(args)
    states = impurity.all_states(pattern, layout, params)
    doc = impurity.results_json_dict(pattern, layout, states)
    if args.format == "csv":
        rows = [(s.gap_index, s.E, s.residual) for s in states]
        config = f"impurity states cosA={_fmt(params.cos_flux)} alpha={_fmt(params.alpha)} pattern={list(pattern.gammas)}"
        _emit(_csv_text(config, ["gap_index", "E", "residual"], rows), args.out)
    else:
        _emit(_json_text(doc), args.out)
    return 0


def cmd_weak(args) -> int:
    params = _params_from(args)
    gammas = tuple(_parse_floats(args.gamma))
    eps_list = _parse_floats(args.eps)
    layout = band.band_edges(params, args.cutoff)
    gap = layout.gaps[args.gap]

    per_eps = []
    for eps in eps_list:
        problem = asymptotics.WeakCouplingProblem(gammas, eps)
        pred = asymptotics.weak_predictor(gap, problem, params)
        exact = asymptotics.weak_exact(gap, problem, params)
        per_eps.append(
            {
                "eps": eps,
                "predictor": pred,
                "exact": [s.E for s in exact],
                "abs_error": None if pred is None or not exact else abs(pred - exact[0].E),
            }
        )
    doc = {
        "gamma": list(gammas),
        "gamma_sum": float(sum(gammas)),
        "gap_index": args.gap,
        "per_eps": per_eps,
    }
    if len(eps_list) >= 4:
        problem = asymptotics.WeakCouplingProblem(gammas, max(eps_list))
        fit = asymptotics.weak_gap_distance_scaling(gap, problem, params, eps_list)
        doc["edge_distance_fit"] = fit.to_json_dict()
    _emit(_json_text(doc), args.out)
    return 0


def cmd_distant(args) -> int:
    params = _params_from(args)
    n_list = [int(n) for n in _parse_floats(args.n)]
    layout = band.band_edges(params, args.cutoff)
    gap = layout.gaps[args.gap]

    per_n = []
    for n in n_list:
        pair = asymptotics.DistantPair(args.g1, args.g2, n)
        states = asymptotics.distant_solve(pair, gap, params, gap_index=args.gap)
        per_n.append({"n": n, "roots": [s.E for s in states]})
    doc = {
        "g1": args.g1,
        "g2": args.g2,
        "gap_index": args.gap,
        "per_n": per_n,
    }
    if args.g1 == args.g2 and len(n_list) >= 4:
        fit, ref = asymptotics.splitting_rate(
            asymptotics.DistantPair(args.g1, args.g2, n_list[0]), gap, params, n_list
        )
        doc["splitting_fit"] = fit.to_json_dict()
        doc["log_lambda_reference"] = ref
    _emit(_json_text(doc), args.out)
    return 0


def cmd_oracle(args) -> int:
    results = crosscheck.run_cases(seed=args.seed, n_cases=args.cases)
    rows = [
        (
            r.index,
            r.cos_flux,
            r.alpha,
            ";".join(_fmt(g) for g in r.gammas),
            r.gap_index,
            r.n_rings,
            r.E_char,
            r.E_raw,
            r.E_rich,
            r.err_raw,
            r.err_rich,
            int(r.matched),
        )
        for r in results
    ]
    config = f"oracle seed={args.seed} cases={args.cases} M={','.join(map(str, crosscheck.M_LEVELS))}"
    header = [
        "case", "cos_flux", "alpha", "gammas", "gap_index", "n_rings",
        "E_char", "E_raw", "E_richardson", "err_raw", "err_richardson", "matched",
    ]
    _emit(_csv_text(config, header, rows), args.out)
    line = crosscheck.summary_line(results)
    print(line, file=sys.stderr)
    if not all(r.matched for r in results):
        return 3
    return 0


def _add_flux(p: argparse.ArgumentParser, figures=()) -> None:
    """The chain options; a figure preset, where offered, excludes the flux."""
    flux = p.add_mutually_exclusive_group(required=True)
    flux.add_argument("--A", type=float, default=None, help="flux parameter A")
    flux.add_argument("--cosA", type=float, default=None, help="cos(A*pi) directly")
    if figures:
        flux.add_argument("--figure", choices=figures, default=None, help="parameter preset")
    p.add_argument("--alpha", type=float, default=None, help="background coupling (default 0)")
    p.add_argument("--cutoff", type=float, default=25.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ringchain", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="band/gap layout and first-band sweeps")
    _add_flux(p, figures=("fig3",))
    p.add_argument("--alpha-sweep", default=None, help="lo:hi:step sweep of alpha")
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("impurity", help="gap bound states of a finite pattern")
    _add_flux(p, figures=tuple(IMPURITY_PRESETS))
    pattern = p.add_mutually_exclusive_group()
    pattern.add_argument("--gamma", default=None, help="comma list gamma_1,...,gamma_m")
    pattern.add_argument("--identical", default=None, help="identical array gamma:m")
    p.add_argument("--curve", action="store_true", help="emit coupling-function curves")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.set_defaults(func=cmd_impurity)

    p = sub.add_parser("weak", help="weak-coupling predictor vs exact")
    _add_flux(p)
    p.add_argument("--gamma", required=True, help="base pattern gamma list")
    p.add_argument("--eps", required=True, help="comma list of epsilon values")
    p.add_argument("--gap", type=int, default=0)
    p.set_defaults(func=cmd_weak)

    p = sub.add_parser("distant", help="two distant impurities")
    _add_flux(p)
    p.add_argument("--g1", type=float, required=True)
    p.add_argument("--g2", type=float, required=True)
    p.add_argument("--n", required=True, help="comma list of separations")
    p.add_argument("--gap", type=int, default=0)
    p.set_defaults(func=cmd_distant)

    p = sub.add_parser("oracle", help="randomized discretization cross-check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=20)
    p.set_defaults(func=cmd_oracle)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return ap


# options whose values are strings that may begin with a minus sign
# (sweeps, comma lists); argparse only recognizes bare negative numbers,
# so such pairs are joined into --opt=value form before parsing
_STRING_OPTS = {"--alpha-sweep", "--identical", "--gamma", "--eps", "--n"}


def _normalize_argv(argv: list[str]) -> list[str]:
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _STRING_OPTS and len(nxt) > 1 and nxt[0] == "-" and (nxt[1].isdigit() or nxt[1] == "."):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = ap.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RingChainError, ValueError, IndexError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
