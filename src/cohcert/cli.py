"""Command-line interface: certification, table reproduction, sweeps.

Every output document embeds a schema version, the seed (null for a command
without --seed) and a full parameter echo, and no timestamps, so re-running a
seeded command reproduces its output byte for byte.  Exit codes: 0 success,
1 finished with warnings (e.g. optimizer nonconvergence), 2 input error.
"""

import argparse
import csv
import functools
import io
import json
import os
import re
import stat
import sys
import time
from fractions import Fraction
from warnings import catch_warnings, simplefilter

import numpy as np

# only the modules certify, moments and vertex-check run; each other command
# imports its own, so a fresh process loads what its command needs
from . import bounds
from .patterns import (batch_moments, fit_pattern_from_samples, moments, pattern_from_states,
                       ratio_from_moments)
from .reference import PUBLISHED_TABLE1, PUBLISHED_TABLE2, PUBLISHED_TABLE3, PUBLISHED_VERTEX
from .states import PureState, WernerParams, psi_star, w_state, werner_state

SCHEMA_VERSION = 1
# np.loadtxt decompresses a path with one of these suffixes; such files keep the open handle
COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


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
    """Read (t, p) sample rows from a CSV with header ``t,p`` (t in radians);
    ``np.loadtxt`` parses the rows after the header (format in the README).
    A regular file is passed to it by path, to be read in blocks; anything
    else, such as a pipe, through the handle that read the header.

    Errors name the offending row by its 1-based count among the sample rows.
    numpy's own count starts at 0 in conversion errors and at 1 in column
    errors, so it is shifted by one for the former.
    """
    try:
        # utf-8-sig also reads the byte-order mark that spreadsheet exports start with
        fh = open(path, newline="", encoding="utf-8-sig")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CliInputError(f"cannot read {path!r}: {exc}") from exc
    try:
        with fh, catch_warnings():
            # an empty body is reported below, not as numpy's warning
            simplefilter("ignore", UserWarning)
            skip, line = next(((i, row) for i, row in enumerate(fh, 1)
                               if not row.startswith("#")), (0, ""))
            if [h.strip().lower() for h in next(csv.reader([line]), [])[:2]] != ["t", "p"]:
                raise CliInputError(f"{path}: expected CSV header 't,p'")
            # numpy reads a file it opens itself in blocks but a handle line by line;
            # a pipe keeps the handle, as reopening it would lose the read-ahead or block
            by_path = (stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
                       and not path.endswith(COMPRESSED_SUFFIXES))
            arr = np.loadtxt(path if by_path else fh, delimiter=",", comments="#",
                             quotechar='"', usecols=(0, 1), ndmin=2,
                             skiprows=skip if by_path else 0, encoding="utf-8-sig")
    except OSError as exc:
        raise CliInputError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(f"cannot decode {path!r} as UTF-8: {exc}") from exc
    except ValueError as exc:
        text = f": {exc}"
        if row := re.search(r" at row (\d+)", text):
            number = int(row[1]) + text.startswith(": could not convert")
            text = f" {number}{text[:row.start()]}{text[row.end():]}"
        raise CliInputError(f"{path}: malformed sample row{text}") from exc
    if not arr.size:
        raise CliInputError(f"{path}: no sample rows")
    # a flat test first: the row-wise one costs about 27 times as much, so it runs only on failure
    if not np.isfinite(arr).all():
        i = int(np.argmin(np.isfinite(arr).all(axis=1)))
        t, p = arr[i].tolist()
        raise CliInputError(f"{path}: sample row {i + 1} is not finite: t={t!r}, p={p!r}")
    return arr


# a table's place in the json.dumps text until its own text fills it; no argv,
# path or number holds a NUL, so no other value of a document encodes as this
_TABLE = "\0table\0"
_TABLE_JSON = json.dumps(_TABLE)


def _default(obj):
    """JSON form of a value the encoder has no rule for."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _is_table(obj) -> bool:
    """Whether ``obj`` is a non-empty 1-d structured array of bool, int, uint and
    float fields no wider than 8 bytes, each of which views as unsigned ints."""
    names = obj.dtype.names if isinstance(obj, np.ndarray) else None
    return bool(names) and obj.ndim == 1 and obj.size > 0 and all(
        obj.dtype[name].kind in "biuf" and obj.dtype[name].itemsize in (1, 2, 4, 8)
        for name in names)


def _scalar_texts(values: list) -> list:
    """The JSON text of each of ``values``, numbers and booleans, from one encoder call."""
    return json.dumps(values)[1:-1].split(", ")


def _table_text(arr: np.ndarray) -> str:
    """The compact JSON text of a table, as a list of records.

    Each field's distinct bit patterns (so -0.0 stays apart from 0.0, and NaN
    payloads apart from each other) go through one ``_scalar_texts`` call, and
    the inverse index spreads their texts over the rows.  One record template
    (names sorted, "%" doubled), repeated, takes the texts of all rows in one
    % fill.
    """
    names = sorted(arr.dtype.names)
    cells = np.empty((arr.size, len(names)), dtype=object)
    for j, name in enumerate(names):
        field = arr[name]
        _, first, inverse = np.unique(field.view(f"u{field.itemsize}"),
                                      return_index=True, return_inverse=True)
        cells[:, j] = np.array(_scalar_texts(field[first].tolist()), dtype=object)[inverse]
    record = "{" + ",".join(json.encoder.encode_basestring_ascii(name).replace("%", "%%") + ":%s"
                            for name in names) + "}"
    return "[" + ",".join([record] * arr.size) % tuple(cells.ravel().tolist()) + "]"


def to_json(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``.

    numpy scalars and arrays become Python numbers and lists, and complex
    numbers ``{"re": ..., "im": ...}``.  A table, a non-empty 1-d structured
    array of bool, int, uint and float fields (such as a sweep's record
    array), is written as the list of its records, one dict per row: each
    field goes through one encoder call that sees each of its distinct bit
    patterns once, and the texts fill one repeated record template.  So a
    table costs about one encoding of its distinct values, which pays off
    where a column repeats, like the tau grid of a drift sweep; ``default``
    writes the string ``_TABLE`` in its place, which the table's text then
    replaces, and a text with more such places than tables raises ValueError.
    Any other structured array is written as ``tolist()`` writes it, a list of
    lists.
    """
    tables = []

    def default(value):
        if _is_table(value):
            tables.append(value)
            return _TABLE
        return _default(value)

    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default)
    parts = text.split(_TABLE_JSON)
    if len(parts) != len(tables) + 1:
        raise ValueError(f"{len(parts) - 1} table places in the text of {len(tables)} tables")
    out = [parts[0]]
    for table, part in zip(tables, parts[1:]):
        out += _table_text(table), part
    return "".join(out)


def build_document(command: str, params: dict, data, warnings, seed) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "params": params,
        "data": data,
        "warnings": list(warnings),
    }


def to_csv(doc: dict, rows, header) -> str:
    """The text of a command's CSV series under comment lines of the document's
    provenance, so the data section stays machine-readable and byte-reproducible."""
    buf = io.StringIO()
    buf.write(f"# schema_version: {SCHEMA_VERSION}\n")
    buf.write(f"# command: {doc['command']}\n")
    buf.write(f"# seed: {json.dumps(doc['seed'])}\n")
    buf.write(f"# params: {json.dumps(doc['params'], sort_keys=True)}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when it is empty or None."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def _state_and_projection(spec: str, projection: str | None):
    """(DensityMatrix, projection PureState) from a state spec and --projection,
    which must name a pure state: a mixed one is rejected, not replaced."""
    rho, proj = parse_state_spec(spec)
    if projection:
        sigma, proj = parse_state_spec(projection)
        if np.vdot(sigma.matrix, sigma.matrix).real < 1.0 - 1e-9:  # purity Tr sigma^2
            raise CliInputError(f"--projection must be a pure state spec (W:k, PSI:k or "
                                f"vec:a0,a1,...), got the mixed state {projection!r}")
        if proj.dim != rho.dim:
            raise CliInputError("projection dimension does not match the state")
    return rho, proj


def _pattern_from_args(args, warnings):
    """Build the pattern requested by --state/--input, plus context info."""
    if bool(args.state) == bool(args.input) or (args.input and args.projection):
        raise CliInputError("provide exactly one of --state or --input; --projection needs --state")
    if args.state:
        rho, proj = _state_and_projection(args.state, args.projection)
        pat = pattern_from_states(rho, proj)
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


def _moment_block(pat, ms):
    """The document form of a pattern and its moments M_1..M_5."""
    return {
        "coefficients": {"c0": pat.c0,
                         "c": [{"re": z.real, "im": z.imag} for z in pat.c.tolist()]},
        "moments": {f"M_{n}": float(ms[n - 1]) for n in range(1, 6)},
        "ratios": {f"R_{n}": float(ratio_from_moments(ms, n)) for n in (3, 4, 5)},
    }


def _verdict(verdict) -> dict:
    """The document form of a ``bounds.Verdict``: its fields, each exact threshold
    as its string (e.g. "5/4"), and the statement of the certified level."""
    return {**{name: str(x) if isinstance(x, Fraction) else x for name, x in vars(verdict).items()},
            "statement": f"state is at least {verdict.certified_level}-coherent"}


def cmd_certify(args, warnings):
    pat, info = _pattern_from_args(args, warnings)
    try:
        ms, verdict = bounds.certify_pattern(pat)
    except ValueError as exc:
        raise CliInputError(f"{args.input}: {exc}" if args.input else str(exc)) from exc
    best_known = {f"C_{k} best known R_3": PUBLISHED_TABLE2[(3, k)][0] for k in (2, 3, 4, 5)}
    data = {
        "pattern": info,
        **_moment_block(pat, ms),
        "verdict": {"n": 3, **_verdict(verdict)},
        "reference_maxima": best_known,
    }
    return data


def cmd_moments(args, warnings):
    pat, info = _pattern_from_args(args, warnings)
    ms = moments(pat, 5)
    if ms[0] <= 0.0:
        raise CliInputError("dark pattern: M_1 = 0, ratios undefined")
    return {"pattern": info, **_moment_block(pat, ms)}


def _search(res) -> dict:
    """Restart diagnostics of one maximization, as embedded in documents."""
    return {"nit": res.nit, "n_agree": res.n_agree, "spread": res.spread,
            "kkt_gradient": res.kkt_gradient, "kkt_curvature": res.kkt_curvature}


def cmd_tables(args, warnings):
    from . import optimize

    cfg = optimize.OptimizationConfig(restarts=args.restarts, seed=args.seed)
    scans = optimize.table_scans(cfg)
    scan = scans[3]  # Fig. 1's scan; Tables 1 and 2 read their n = 3 maxima from it
    thresholds = optimize.decoherence_threshold_table()
    # R_n of the uniform k-profile is Table 3's comparison threshold at k + 1
    w_values = {(rec.n, rec.k - 1): rec.threshold for rec in thresholds}
    table2 = []
    for n in (3, 4, 5):
        for k in (2, 3, 4, 5):
            res = scans[n].results[k - 2]
            if not res.converged:
                warnings.append(f"optimizer did not converge for (n={n}, k={k})")
            w_val = w_values[(n, k)]
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
                "search": _search(res),
            })
    table1 = []
    for k, res in zip((1, 2, 3), (None, *scan.results)):
        thr = bounds.R3_CERTIFICATION_THRESHOLDS[k - 1]
        best, search = (1.0, None) if res is None else (res.value, _search(res))
        pub_thr, pub_best = PUBLISHED_TABLE1[k]
        table1.append({
            "k": k,
            "threshold_exact": str(thr),
            "threshold": float(thr),
            "best_known_computed": best,
            "published_threshold": pub_thr,
            "published_best_known": pub_best,
            "abs_diff_best": abs(best - pub_best),
            "search": search,
        })
    table3 = []
    for rec in thresholds:
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
    if not scan.converged:
        warnings.append("optimizer did not converge for some k in the growth scan")
    fig1 = [
        {"k": int(k), "max_computed": res.value, "w_closed_form": bounds.r3_w_closed_form(int(k)),
         "search": _search(res)}
        for k, res in zip(scan.ks, scan.results)
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
    return data


def cmd_optimize(args, warnings):
    from . import optimize

    cfg = optimize.OptimizationConfig(restarts=args.restarts, seed=args.seed)
    if args.scan:
        scan = optimize.growth_scan(args.scan, n=args.n, cfg=cfg)
        if not scan.converged:
            warnings.append("optimizer did not converge for some k in the scan")
        data = {
            "n": scan.n,
            "rows": [{"k": int(k), "max_value": res.value, "search": _search(res)}
                     for k, res in zip(scan.ks, scan.results)],
            "linear_fit": {"slope": scan.slope, "intercept": scan.intercept,
                           "max_abs_residual": float(np.abs(scan.residuals).max())},
        }
        rows = ((int(k), repr(float(v))) for k, v in zip(scan.ks, scan.values))
        return data, rows, ("k", "max_value")
    res = optimize.maximize_rn_over_ck(args.n, args.k, cfg)
    if not res.converged:
        warnings.append(f"optimizer did not converge for (n={args.n}, k={args.k})")
    data = {"n": args.n, "k": args.k, "max_value": res.value,
            "alpha": list(res.alpha), "converged": res.converged, "search": _search(res)}
    return data, [(args.k, repr(float(res.value)))], ("k", "max_value")


def cmd_vertex_check(args, warnings):
    data = {}
    for case in bounds.VERTEX_CASES:
        records = bounds.vertex_table(case)
        rows = []
        for rec in records:
            grid = np.linspace(rec.d0_range[0], rec.d0_range[1], 50)
            rows.append({
                "d0_range": [float(x) for x in rec.d0_range],
                "r3_max": float(rec.r3_max),
                "r3_max_exact": str(rec.r3_max),
                "d0_argmax": float(rec.d0_argmax),
                "coords_at_argmax": {str(f): float(expr(rec.d0_argmax))
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
    return data


def cmd_werner_sweep(args, warnings):
    from . import optimize

    lams = np.linspace(0.0, 1.0, args.points)
    ms = batch_moments(optimize.werner_coefficients(args.k, lams), 5)
    series = {n: ratio_from_moments(ms, n).tolist() for n in (3, 4, 5)}
    thresholds = []
    if args.k >= 3:
        for rec in optimize.decoherence_threshold_table(k_values=(args.k,)):
            if not rec.reachable:
                warnings.append(f"threshold unreachable for (n={rec.n}, k={args.k})")
            thresholds.append({"n": rec.n, "lambda_thr": rec.lambda_thr,
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


def _gue_rows(records):
    """CSV rows of a sweep's records, computed only when ``--format csv`` consumes them."""
    for seed, tau, dev, r3 in records.tolist():
        yield seed, repr(tau), repr(dev), repr(r3)


def cmd_gue_sweep(args, warnings):
    from . import robustness

    sweep = robustness.tolerance_sweep(args.k, args.samples, seed=args.seed)
    summary = robustness.sweep_summary(sweep)
    if summary["crossings_found"] < args.samples:
        warnings.append(
            f"{args.samples - summary['crossings_found']} samples never crossed the threshold"
        )
    records = sweep.records
    return {"summary": summary, "records": records}, _gue_rows(records), records.dtype.names


def _approx_rows(target, components, chi, points):
    """CSV rows of t, the target's p, the mixture's p and each component's p,
    computed only when ``--format csv`` consumes them."""
    grid = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    comp_vals = [pattern_from_states(state, chi).evaluate(grid) for _, state in components]
    mix_vals = sum(w * vals for (w, _), vals in zip(components, comp_vals))
    for t, target_p, approx_p, *comp_p in zip(grid, target.evaluate(grid), mix_vals, *comp_vals):
        yield [repr(float(v)) for v in (t, target_p, approx_p, *comp_p)]


def cmd_approx(args, warnings):
    from .approx import reproducibility_verdict

    rho, proj = _state_and_projection(args.target, args.projection)
    chi = proj.density()
    target = pattern_from_states(rho, chi)
    verdict = reproducibility_verdict(target, chi, args.q)
    approx = verdict.approx
    if not approx.converged:
        warnings.append("mixture fit did not converge; residual is an upper bound")
    data = {
        "target": args.target,
        "q": args.q,
        "residual": approx.residual,
        "residual_lower_bound": approx.lower_bound,
        "exceeds_q_coherence": verdict.exceeds_coherence,
        "peak_bound_exceeded": verdict.peak_exceeded,
        "components": [
            {"weight": w,
             "amplitudes": [{"re": z.real, "im": z.imag} for z in s.amplitudes.tolist()]}
            for w, s in approx.components
        ],
    }
    header = ["t", "target_p", "approx_p"] + [
        f"component{i}_p" for i in range(len(approx.components))
    ]
    return data, _approx_rows(target, approx.components, chi, args.plot_points), header


def _above(lo):
    """argparse type: an integer > ``lo``; anything else exits 2."""
    def parse(text):
        value = int(text)
        if value <= lo:
            raise argparse.ArgumentTypeError(f"must be > {lo}, got {text}")
        return value
    parse.__name__ = "int"
    return parse


def _add_pattern_source(parser):
    parser.add_argument("--state",
                        help="state spec: W:k | PSI:k | werner:k:lambda | vec:a0,a1,...")
    parser.add_argument("--input", help="CSV of pattern samples with header t,p (radians)")
    parser.add_argument("--projection", help="override the projection (pure state spec)")
    parser.add_argument("--dim", type=_above(0), default=8,
                        help="fit dimension for CSV input")


# --restarts and --seed go to the commands that search, --seed alone to those
# that draw random numbers, --format to those with a CSV series.  approx, one
# convex solve, reads neither --restarts nor --seed, but keeps them while the
# cohbench approx workload passes them.
SEARCHING = ("tables", "optimize", "approx")
SEEDED = (*SEARCHING, "gue-sweep")
CSV_SERIES = ("optimize", "werner-sweep", "gue-sweep", "approx")
# what main reads of every command; the commands that declare an option override these
COMMON_DEFAULTS = {"seed": None, "format": "json", "scan": None}


def _build_parser():
    """The whole parser tree and the map from each command's name to its
    subparser, the one its ``add_subparsers`` action holds."""
    parser = argparse.ArgumentParser(
        prog="cohcert",
        description="Certify multi-level coherence from interference-pattern moment ratios.",
    )
    parser.set_defaults(**COMMON_DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
            ("certify", cmd_certify, "compute moments/ratios and the coherence verdict"),
            ("moments", cmd_moments, "moments and ratios only, no verdict")):
        p = sub.add_parser(name, help=text)
        _add_pattern_source(p)
        p.set_defaults(func=func)

    p = sub.add_parser("tables", help="reproduce the threshold tables and growth series")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("optimize", help="maximize R_n over k-coherent states")
    p.add_argument("--n", type=int, default=3, choices=(3, 4, 5))
    cells = p.add_mutually_exclusive_group()
    cells.add_argument("--k", type=_above(1), default=3)
    cells.add_argument("--scan", type=_above(2), default=0,
                       help="scan k = 2..SCAN and fit the linear growth")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("vertex-check", help="polytope vertex bounds for R_3")
    p.set_defaults(func=cmd_vertex_check)

    p = sub.add_parser("werner-sweep", help="certifier values on the Werner family")
    p.add_argument("--k", type=_above(0), default=3)
    p.add_argument("--points", type=_above(0), default=101)
    p.set_defaults(func=cmd_werner_sweep)

    p = sub.add_parser("gue-sweep", help="faulty-measurement Monte Carlo sweep")
    p.add_argument("--k", type=int, default=4, choices=(3, 4))
    p.add_argument("--samples", type=_above(0), default=100)
    p.set_defaults(func=cmd_gue_sweep)

    p = sub.add_parser("approx", help="best q-coherent mixture approximation of a pattern")
    p.add_argument("--target", required=True, help="state spec for the target pattern")
    p.add_argument("--q", type=_above(0), required=True)
    p.add_argument("--projection", help="projection state spec (default: W on target levels)")
    p.add_argument("--plot-points", type=_above(0), default=256)
    p.set_defaults(func=cmd_approx)

    for name, p in sub.choices.items():
        if name in SEEDED:
            p.add_argument("--seed", type=_above(-1), default=0, help="master RNG seed (u64)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if name in CSV_SERIES:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--timings", metavar="PATH", default=None,
                       help="write the wall seconds of the compute, encode and write stages "
                            "as JSON to PATH")
        if name in SEARCHING:
            p.add_argument("--restarts", type=_above(0), default=32,
                           help="multi-start restarts for numeric searches")
    return parser, sub.choices


def make_parser() -> argparse.ArgumentParser:
    """The whole parser tree: ``cohcert`` with one subparser per command."""
    return _build_parser()[0]


# Parsing leaves the parsers unchanged, so one tree serves every call.
_shared_parser = functools.lru_cache(maxsize=1)(_build_parser)


def parse_args(argv=None) -> argparse.Namespace:
    """The namespace of ``make_parser().parse_args(argv)``, in one pass where it can.

    The top-level parser hands every token after the command's name to that
    command's subparser, so when ``argv[0]`` names a command its subparser
    alone parses the rest, and the top-level defaults (``COMMON_DEFAULTS``)
    that it does not set and ``command`` are added, as the whole tree adds
    them.  When the subparser leaves a token unrecognized, or ``argv[0]``
    names no command (no arguments, ``--help``, an unknown name), the whole
    tree parses ``argv`` again, so every usage line, error message, exit code
    and help text is argparse's own.  ``argv`` None reads ``sys.argv[1:]``.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _shared_parser()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            return argparse.Namespace(**{"command": argv[0], **COMMON_DEFAULTS, **vars(args)})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command and return its exit code.

    ``parse_args`` reads the command line, so help and usage errors exit
    through argparse's ``SystemExit`` (0 for help, 2 for an error).
    The document's ``params`` echo every option that has a value, given or
    defaulted, except ``--out``, ``--format`` and ``--timings``, and except
    ``--dim`` without ``--input`` and ``optimize --k`` with ``--scan``, which
    shape nothing there.  A command without ``--seed`` has seed null.  Wall
    times vary from run to run, so they go only to the ``--timings`` file,
    whose ``encode`` stage includes the CSV series a command computes as it
    is written.
    """
    args = parse_args(argv)
    warnings: list = []
    try:
        start = time.perf_counter()
        result = args.func(args, warnings)
        data, *series = result if args.command in CSV_SERIES else (result,)
        params = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "format", "timings") and v is not None
            and (k != "dim" or args.input) and (k != "k" or not args.scan)
        }
        doc = build_document(args.command, params, data, warnings, args.seed)
        computed = time.perf_counter()
        text = to_csv(doc, *series) if args.format == "csv" else to_json(doc) + "\n"
        encoded = time.perf_counter()
        write(text, args.out)
        if args.timings:
            stages = {"compute": computed - start, "encode": encoded - computed,
                      "write": time.perf_counter() - encoded}
            write(to_json({"command": args.command, "stages": stages}) + "\n", args.timings)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if warnings else 0


if __name__ == "__main__":
    sys.exit(main())
