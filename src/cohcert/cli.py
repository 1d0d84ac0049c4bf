"""Command-line interface: certification, table reproduction, sweeps.

Every output document embeds a schema version, the master seed and a full
parameter echo; no timestamps are written, so re-running a seeded command
reproduces its output byte for byte.  Exit codes: 0 success, 1 finished
with warnings (e.g. optimizer nonconvergence), 2 input error.
"""

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import bounds, optimize, robustness
from .approx import reproducibility_verdict
from .patterns import fit_pattern_from_samples, moments, pattern_from_states, ratio_from_moments
from .reference import PUBLISHED_TABLE1, PUBLISHED_TABLE2, PUBLISHED_TABLE3, PUBLISHED_VERTEX
from .states import PureState, WernerParams, psi_star, w_state, werner_state

SCHEMA_VERSION = 1

class CliInputError(Exception):
    """Bad user input; reported with exit code 2."""


def parse_state_spec(spec: str):
    """Grammar: W:k | PSI:k | werner:k:lambda | vec:a0,a1,...

    Returns (DensityMatrix, default projection PureState): pure specs
    project onto themselves, the Werner spec onto the equal superposition
    of its k levels.
    """
    parts = spec.split(":")
    kind = parts[0].lower()
    try:
        if kind in ("w", "psi") and len(parts) == 2:
            psi = (w_state if kind == "w" else psi_star)(int(parts[1]))
            return psi.density(), psi
        if kind == "werner" and len(parts) == 3:
            k = int(parts[1])
            rho = werner_state(WernerParams(k, float(parts[2])))
            return rho, w_state(k)
        if kind == "vec" and len(parts) == 2:
            amps = np.array([float(x) for x in parts[1].split(",")], dtype=float)
            psi = PureState.normalized(amps)
            return psi.density(), psi
    except (ValueError, TypeError) as exc:
        raise CliInputError(f"bad state spec {spec!r}: {exc}") from exc
    raise CliInputError(
        f"bad state spec {spec!r}; expected W:k, PSI:k, werner:k:lambda or vec:a0,a1,..."
    )


def read_pattern_csv(path: str) -> np.ndarray:
    """Read (t, p) sample rows from a CSV with header ``t,p`` (t in radians)."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(row for row in fh if not row.startswith("#"))
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["t", "p"]:
                raise CliInputError(f"{path}: expected CSV header 't,p'")
            rows = [(float(r[0]), float(r[1])) for r in reader if r]
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise CliInputError(f"{path}: malformed sample row: {exc}") from exc
    if not rows:
        raise CliInputError(f"{path}: no sample rows")
    arr = np.array(rows)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise CliInputError(f"{path}: sample row {i + 1} is not finite: "
                            f"t={arr[i, 0]!r}, p={arr[i, 1]!r}")
    return arr


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def build_document(command: str, params: dict, data, warnings, seed) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "params": _jsonable(params),
        "data": _jsonable(data),
        "warnings": list(warnings),
    }


def emit(doc: dict, args, csv_rows=None, csv_header=None) -> None:
    """Write the document as JSON, or as CSV when rows are provided.

    CSV output keeps the provenance as leading comment lines so the data
    section stays machine-readable and byte-reproducible.
    """
    if args.format == "csv":
        if csv_rows is None:
            raise CliInputError(f"command {doc['command']!r} has no CSV series; use --format json")
        buf = io.StringIO()
        buf.write(f"# schema_version: {SCHEMA_VERSION}\n")
        buf.write(f"# command: {doc['command']}\n")
        buf.write(f"# seed: {doc['seed']}\n")
        buf.write(f"# params: {json.dumps(doc['params'], sort_keys=True)}\n")
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _state_and_projection(spec: str, projection: str | None):
    """(DensityMatrix, projection PureState) from a state spec and --projection."""
    rho, proj = parse_state_spec(spec)
    if projection:
        _, proj = parse_state_spec(projection)
        if proj.dim != rho.dim:
            raise CliInputError("projection dimension does not match the state")
    return rho, proj


def _pattern_from_args(args, warnings):
    """Build the pattern requested by --state/--input, plus context info."""
    if bool(args.state) == bool(args.input):
        raise CliInputError("provide exactly one of --state or --input")
    if args.state:
        rho, proj = _state_and_projection(args.state, args.projection)
        pat = pattern_from_states(rho, proj.density())
        info = {"source": "state", "state": args.state,
                "projection_dim": proj.dim}
        return pat, info
    samples = read_pattern_csv(args.input)
    dim = min(args.dim, (samples.shape[0] + 1) // 2)
    if dim < args.dim:
        warnings.append(f"only {samples.shape[0]} samples: fit dimension reduced to {dim}")
    try:
        fit = fit_pattern_from_samples(samples, dim)
    except ValueError as exc:
        raise CliInputError(f"pattern fit failed: {exc}") from exc
    info = {"source": "csv", "input": args.input, "fit_dim": dim,
            "fit_residual_rms": fit.residual, "fit_condition": fit.cond}
    return fit.pattern, info


def _moment_block(pat):
    ms = moments(pat, 5).values
    if ms[0] <= 0.0:
        raise CliInputError("dark pattern: M_1 = 0, ratios undefined")
    return {
        "coefficients": {"c0": pat.c0, "c": [{"re": z.real, "im": z.imag} for z in pat.c]},
        "moments": {f"M_{n}": float(ms[n - 1]) for n in range(1, 6)},
        "ratios": {f"R_{n}": float(ratio_from_moments(ms, n)) for n in (3, 4, 5)},
    }


def cmd_certify(args, warnings):
    pat, info = _pattern_from_args(args, warnings)
    block = _moment_block(pat)
    verdict = bounds.certify_r3(block["ratios"]["R_3"])
    best_known = {f"C_{k} best known R_3": PUBLISHED_TABLE2[(3, k)][0] for k in (2, 3, 4, 5)}
    data = {
        "pattern": info,
        **block,
        "verdict": {
            "n": verdict.n,
            "value": verdict.value,
            "certified_level": verdict.certified_level,
            "threshold_used": verdict.threshold_used,
            "statement": f"state is at least {verdict.certified_level}-coherent",
        },
        "reference_maxima": best_known,
    }
    return data, None, None


def cmd_moments(args, warnings):
    pat, info = _pattern_from_args(args, warnings)
    return {"pattern": info, **_moment_block(pat)}, None, None


def cmd_tables(args, warnings):
    cfg = optimize.OptimizationConfig(restarts=args.restarts, tol=args.tol, seed=args.seed)
    table1 = []
    best_known = {}
    for k in (1, 2, 3):
        thr = bounds.R3_CERTIFICATION_THRESHOLDS[k - 1]
        if k == 1:
            best = 1.0
        else:
            res = optimize.maximize_rn_over_ck(3, k, cfg)
            if not res.converged:
                warnings.append(f"optimizer did not converge for (n=3, k={k})")
            best = res.value
        best_known[k] = best
        pub_thr, pub_best = PUBLISHED_TABLE1[k]
        table1.append({
            "k": k,
            "threshold_exact": str(thr),
            "threshold": float(thr),
            "best_known_computed": best,
            "published_threshold": pub_thr,
            "published_best_known": pub_best,
            "abs_diff_best": abs(best - pub_best),
        })
    table2 = []
    fig1 = []
    for n in (3, 4, 5):
        for k in (2, 3, 4, 5):
            res = optimize.maximize_rn_over_ck(n, k, cfg)
            if not res.converged:
                warnings.append(f"optimizer did not converge for (n={n}, k={k})")
            w_val = optimize.rn_of_alpha(np.full(k, 1.0 / k), n)
            pub_max, pub_w, pub_prof = PUBLISHED_TABLE2[(n, k)]
            table2.append({
                "n": n, "k": k,
                "max_computed": res.value, "published_max": pub_max,
                "abs_diff_max": abs(res.value - pub_max),
                "w_value_computed": w_val, "published_w_value": pub_w,
                "abs_diff_w": abs(w_val - pub_w),
                "profile_computed": list(res.alpha),
                "published_profile": list(pub_prof),
                "profile_max_entry_diff": float(np.max(np.abs(res.alpha - np.array(pub_prof)))),
            })
    table3 = []
    for rec in optimize.decoherence_threshold_table():
        published = PUBLISHED_TABLE3[rec.n][rec.k - 3]
        if not rec.reachable:
            warnings.append(f"threshold unreachable for (n={rec.n}, k={rec.k})")
        table3.append({
            "n": rec.n, "k": rec.k,
            "lambda_thr_computed": rec.lambda_thr, "published_lambda_thr": published,
            "abs_diff": abs(rec.lambda_thr - published),
            "threshold_used": rec.threshold, "projection": rec.projection,
            "lambda_dec": bounds.lambda_dec(rec.k, rec.k - 1),
        })
    scan = optimize.growth_scan(8, n=3, cfg=cfg)
    if not scan.converged:
        warnings.append("optimizer did not converge for some k in the growth scan")
    fig1 = [
        {"k": int(k), "max_computed": float(v), "w_closed_form": bounds.r3_w_closed_form(int(k))}
        for k, v in zip(scan.ks, scan.values)
    ]
    data = {
        "table1": table1,
        "table2": table2,
        "table3": table3,
        "fig1": {
            "rows": fig1,
            "linear_fit": {"slope": scan.slope, "intercept": scan.intercept},
            "certification_thresholds": [float(t) for t in bounds.R3_CERTIFICATION_THRESHOLDS],
        },
    }
    return data, None, None


def cmd_optimize(args, warnings):
    cfg = optimize.OptimizationConfig(restarts=args.restarts, tol=args.tol, seed=args.seed)
    if args.scan:
        scan = optimize.growth_scan(args.scan, n=args.n, cfg=cfg)
        if not scan.converged:
            warnings.append("optimizer did not converge for some k in the scan")
        data = {
            "n": scan.n,
            "rows": [{"k": int(k), "max_value": float(v)}
                     for k, v in zip(scan.ks, scan.values)],
            "linear_fit": {"slope": scan.slope, "intercept": scan.intercept,
                           "max_abs_residual": float(np.abs(scan.residuals).max())},
        }
        rows = ((int(k), repr(float(v))) for k, v in zip(scan.ks, scan.values))
        return data, rows, ("k", "max_value")
    res = optimize.maximize_rn_over_ck(args.n, args.k, cfg)
    if not res.converged:
        warnings.append(f"optimizer did not converge for (n={args.n}, k={args.k})")
    data = {"n": args.n, "k": args.k, "max_value": res.value,
            "alpha": list(res.alpha), "converged": res.converged}
    return data, None, None


def cmd_vertex_check(args, warnings):
    data = {}
    for case in bounds.VERTEX_CASES:
        records = bounds.vertex_table(case)
        rows = []
        for rec in records:
            grid = np.linspace(rec.d0_range[0], rec.d0_range[1], 50)
            rows.append({
                "d0_range": list(rec.d0_range),
                "r3_max": rec.r3_max,
                "d0_argmax": rec.d0_argmax,
                "coords_at_argmax": {str(f): expr(rec.d0_argmax)
                                     for f, expr in rec.coords.items()},
                "constraints_ok": bool(all(rec.constraints_satisfied(x) for x in grid)),
            })
        overall = max(r["r3_max"] for r in rows)
        ref = PUBLISHED_VERTEX[case]
        entry = {"vertices": rows, "overall_max": overall}
        if isinstance(ref, tuple):
            entry["published_maxima"] = list(ref)
            entry["abs_diffs"] = [abs(r["r3_max"] - p) for r, p in zip(rows, ref)]
        else:
            entry["published_overall_max"] = ref
            entry["abs_diff_overall"] = abs(overall - ref)
        data[case] = entry
    return data, None, None


def cmd_werner_sweep(args, warnings):
    lams = np.linspace(0.0, 1.0, args.points)
    series = {n: [optimize.werner_rn(args.k, float(l), n) for l in lams] for n in (3, 4, 5)}
    thresholds = []
    if args.k >= 3:
        for n in (3, 4, 5):
            thr = optimize.rn_of_alpha(np.full(args.k - 1, 1.0 / (args.k - 1)), n)
            rec = optimize.lambda_threshold(n, args.k, thr)
            if not rec.reachable:
                warnings.append(f"threshold unreachable for (n={n}, k={args.k})")
            thresholds.append({"n": n, "lambda_thr": rec.lambda_thr,
                               "threshold": rec.threshold, "projection": rec.projection,
                               "reachable": rec.reachable})
    data = {
        "k": args.k,
        "projection": "w",
        "lambda_grid": list(lams),
        "r3": series[3], "r4": series[4], "r5": series[5],
        "thresholds": thresholds,
        "lambda_dec": {str(q): bounds.lambda_dec(args.k, q)
                       for q in range(1, args.k + 1)} if args.k >= 2 else {},
    }
    rows = ((repr(float(l)), repr(series[3][i]), repr(series[4][i]), repr(series[5][i]))
            for i, l in enumerate(lams))
    return data, rows, ("lambda", "r3", "r4", "r5")


def cmd_gue_sweep(args, warnings):
    sweep = robustness.tolerance_sweep(args.k, args.samples, seed=args.seed)
    summary = robustness.sweep_summary(sweep)
    if summary["crossings_found"] < args.samples:
        warnings.append(
            f"{args.samples - summary['crossings_found']} samples never crossed the threshold"
        )
    data = {
        "summary": summary,
        "records": [
            {"seed": r.seed, "tau": r.tau, "D": r.deviation, "r3": r.r3}
            for r in sweep.records
        ],
    }
    rows = ((r.seed, repr(r.tau), repr(r.deviation), repr(r.r3)) for r in sweep.records)
    return data, rows, ("seed", "tau", "D", "r3")


def cmd_approx(args, warnings):
    rho, proj = _state_and_projection(args.target, args.projection)
    target = pattern_from_states(rho, proj.density())
    cfg = optimize.OptimizationConfig(restarts=args.restarts, tol=args.tol, seed=args.seed)
    verdict = reproducibility_verdict(target, proj.density(), args.q, cfg=cfg)
    approx = verdict.approx
    if not approx.converged:
        warnings.append("mixture fit did not converge; residual is an upper bound")
    grid = np.linspace(0.0, 2 * np.pi, args.plot_points, endpoint=False)
    target_vals = target.evaluate(grid)
    comp_patterns = [
        pattern_from_states(state.density(), proj.density())
        for _, state in approx.components
    ]
    mix_vals = sum(w * cp.evaluate(grid)
                   for (w, _), cp in zip(approx.components, comp_patterns))
    data = {
        "target": args.target,
        "q": args.q,
        "residual": approx.residual,
        "residual_lower_bound": approx.lower_bound,
        "exceeds_q_coherence": verdict.exceeds_coherence,
        "peak_bound_exceeded": verdict.peak_exceeded,
        "components": [
            {"weight": w,
             "amplitudes": [{"re": z.real, "im": z.imag} for z in s.amplitudes]}
            for w, s in approx.components
        ],
    }
    rows = (
        [repr(float(t)), repr(float(target_vals[i])), repr(float(mix_vals[i]))]
        + [repr(float(cp.evaluate(t)[0])) for cp in comp_patterns]
        for i, t in enumerate(grid)
    )
    header = ["t", "target_p", "approx_p"] + [
        f"component{i}_p" for i in range(len(comp_patterns))
    ]
    return data, rows, header


def _add_common(parser, needs_restarts=False):
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed (u64)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    if needs_restarts:
        parser.add_argument("--restarts", type=int, default=32,
                            help="multi-start restarts for numeric searches")
        parser.add_argument("--tol", type=float, default=1e-10,
                            help="convergence tolerance for numeric searches")


def _add_pattern_source(parser):
    parser.add_argument("--state",
                        help="state spec: W:k | PSI:k | werner:k:lambda | vec:a0,a1,...")
    parser.add_argument("--input", help="CSV of pattern samples with header t,p (radians)")
    parser.add_argument("--projection", help="override the projection (pure state spec)")
    parser.add_argument("--dim", type=int, default=8, help="fit dimension for CSV input")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohcert",
        description="Certify multi-level coherence from interference-pattern moment ratios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
            ("certify", cmd_certify, "compute moments/ratios and the coherence verdict"),
            ("moments", cmd_moments, "moments and ratios only, no verdict")):
        p = sub.add_parser(name, help=text)
        _add_pattern_source(p)
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("tables", help="reproduce the threshold tables and growth series")
    _add_common(p, needs_restarts=True)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("optimize", help="maximize R_n over k-coherent states")
    p.add_argument("--n", type=int, default=3, choices=(3, 4, 5))
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--scan", type=int, default=0,
                   help="scan k = 2..SCAN and fit the linear growth")
    _add_common(p, needs_restarts=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("vertex-check", help="polytope vertex bounds for R_3")
    _add_common(p)
    p.set_defaults(func=cmd_vertex_check)

    p = sub.add_parser("werner-sweep", help="certifier values on the Werner family")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--points", type=int, default=101)
    _add_common(p)
    p.set_defaults(func=cmd_werner_sweep)

    p = sub.add_parser("gue-sweep", help="faulty-measurement Monte Carlo sweep")
    p.add_argument("--k", type=int, default=4, choices=(3, 4))
    p.add_argument("--samples", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_gue_sweep)

    p = sub.add_parser("approx", help="best q-coherent mixture approximation of a pattern")
    p.add_argument("--target", required=True, help="state spec for the target pattern")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--projection", help="projection state spec (default: W on target levels)")
    p.add_argument("--plot-points", type=int, default=256)
    _add_common(p, needs_restarts=True)
    p.set_defaults(func=cmd_approx)
    return parser


# Parsing leaves the parser unchanged, so one tree serves every call.
_shared_parser = functools.lru_cache(maxsize=1)(make_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    warnings: list = []
    try:
        data, csv_rows, csv_header = args.func(args, warnings)
        params = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "format") and v is not None
        }
        doc = build_document(args.command, params, data, warnings, args.seed)
        emit(doc, args, csv_rows, csv_header)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if warnings else 0


if __name__ == "__main__":
    sys.exit(main())
