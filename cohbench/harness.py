"""Timed and traced runs of one workload; see run.py for the command line."""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import reference
import workloads
from run import HERE, ROOT, SRC, WORKLOADS

OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_ROUNDS = 4
# After each operation, reference slices run for about this share of its time.
REF_SHARE = 0.1
SELFCHECK_SEED = 12345


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Outcome:
    """Exit code and document of one operation, or the exception it raised."""

    __slots__ = ("code", "text", "error")

    def __init__(self, code=None, text="", error=None):
        self.code, self.text, self.error = code, text, error

    @property
    def failed(self) -> bool:
        return self.error is not None or self.code not in (0, 1)


def call(cli_main, argv) -> Outcome:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return Outcome(error=f"SystemExit({exc.code})")
    except Exception as exc:  # any other raise is a failed operation
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    return Outcome(code, buf.getvalue())


def run_rounds(cli_main, plan, seconds: float, with_reference: bool):
    """Repeat whole rounds of the plan's operations until ``seconds`` passed.

    Returns, per operation call, its wall and CPU time and (when
    ``with_reference``) the mean time of the reference slices run right
    after it; the first round's outcomes; and, per operation, the number of
    rounds in which it failed or printed a different document than in the
    first round.
    """
    perf, cpu = time.perf_counter, time.process_time
    n_ops = len(plan.ops)
    lat, lat_cpu, ref = [], [], []
    first, bad = [None] * n_ops, [0] * n_ops
    t_begin = perf()
    rounds = 0
    while rounds < MIN_ROUNDS or perf() - t_begin < seconds:
        for j, op in enumerate(plan.ops):
            c0 = cpu()
            t0 = perf()
            out = call(cli_main, op.argv)
            t1 = perf()
            c1 = cpu()
            lat.append(t1 - t0)
            lat_cpu.append(c1 - c0)
            if rounds == 0:
                first[j] = out
            elif out.failed or out.text != first[j].text or out.code != first[j].code:
                bad[j] += 1
            if with_reference:
                ref.append(statistics.fmean(reference.timed_slices(REF_SHARE * (t1 - t0))))
        rounds += 1
    return dict(rounds=rounds, n_ops=n_ops, lat=np.array(lat), lat_cpu=np.array(lat_cpu),
                ref=np.array(ref), first=first, bad=bad)


def check_outputs(plan, res):
    """Check the first round's documents.

    Returns (failed, crashed, wrong, warnings): the number of failed
    operation calls over all rounds; descriptions of the operations that
    raised or exited with code 2; descriptions of the documents that failed
    their check or differed between rounds; and the warnings printed.
    """
    rounds, failed, crashed, wrong, warnings = res["rounds"], 0, [], [], set()
    for op, out, bad in zip(plan.ops, res["first"], res["bad"]):
        label = " ".join(op.argv)
        if out.failed:
            crashed.append(f"{label}: {out.error or f'exit {out.code}'}")
            failed += rounds
            continue
        try:
            doc = workloads.parse_document(out.text)
            warnings.update(doc.get("warnings", []))
            op.check(doc)
        except (ValueError, KeyError, TypeError, workloads.CheckError) as exc:
            wrong.append(f"{label}: {type(exc).__name__}: {exc}")
            failed += rounds
            continue
        if bad:
            wrong.append(f"{label}: {bad} later rounds differ from the first")
            failed += bad
    return failed, crashed, wrong, sorted(warnings)


# ---------------------------------------------------------------------------
# Set-up and provenance
# ---------------------------------------------------------------------------

def measure_setup(argv) -> list:
    """Set-up of fresh interpreters: `import cohcert` plus one warm-up call.

    Returns (seconds, reference-slice seconds) per interpreter.
    """
    probes = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if rec["exit"] not in (0, 1) or not Path(rec["origin"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe: exit {rec['exit']}, cohcert from {rec['origin']}")
        probes.append((rec["setup_s"], rec["slice_s"]))
    return probes


def import_cli():
    sys.path.insert(0, str(SRC))
    import cohcert
    import cohcert.cli

    if not Path(cohcert.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cohcert imported from {cohcert.__file__}, not from {SRC}")
    return cohcert, cohcert.cli


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cohcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False).stdout.strip() or None
    except OSError:
        rev = None
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def per_round(values, n_ops):
    return values.reshape(-1, n_ops).sum(axis=1)


def tail(values) -> float:
    """The highest percentile, up to the 99th, with at least ten values
    beyond it; the median when there are fewer than forty values."""
    v = np.sort(values)
    if v.size < 40:
        return float(np.median(v))
    return float(v[min(math.ceil(0.99 * v.size) - 1, v.size - 11)])


def end_to_end(res, probes) -> dict:
    """The bounded metrics, in units of the reference speed at the time.

    Each operation's time is divided by the mean reference slice time of
    the slices that ran right before and right after it.
    """
    after = res["ref"]
    local = 0.5 * (np.concatenate([after[:1], after[:-1]]) + after)
    lat_ref, cpu_ref = res["lat"] / local, res["lat_cpu"] / local
    return {
        "setup_s": (statistics.median(s / r for s, r in probes) * reference.NOMINAL_SLICE_S, "s"),
        "wall_ref": (float(np.median(per_round(lat_ref, res["n_ops"]))), "ref"),
        "cpu_ref": (float(np.median(per_round(cpu_ref, res["n_ops"]))), "ref"),
        "op_p50_ref": (float(np.median(lat_ref)), "ref"),
        "op_tail_ref": (tail(lat_ref), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def seconds_metrics(res, probes) -> dict:
    """The same figures in plain seconds, for the run record only."""
    lat = res["lat"]
    return {
        "setup_s": statistics.median(s for s, _ in probes) if probes else None,
        "wall_s": float(np.median(per_round(lat, res["n_ops"]))),
        "cpu_s": float(np.median(per_round(res["lat_cpu"], res["n_ops"]))),
        "op_p50_ms": float(np.median(lat)) * 1e3,
        "op_tail_ms": tail(lat) * 1e3,
        "reference_slice_ms": float(np.median(res["ref"])) * 1e3 if res["ref"].size else None,
    }


def doc_bytes(res) -> float:
    """Mean size of the documents the operations printed."""
    return sum(len(o.text) for o in res["first"]) / len(res["first"])


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        plan = workloads.build(workload, seed, workdir)
        probes = [] if trace else measure_setup(plan.warmup)
        cohcert, cli = import_cli()
        warm = call(cli.main, plan.warmup)
        if warm.failed:
            raise RuntimeError(f"warm-up {' '.join(plan.warmup)} failed: {warm.error or warm.code}")
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install(cohcert)
        try:
            res = run_rounds(cli.main, plan, seconds, with_reference=not trace)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failed, crashed, wrong, warnings = check_outputs(plan, res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_ops = res["rounds"] * len(plan.ops)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "rounds": res["rounds"], "ops_per_round": len(plan.ops), "inputs": plan.notes,
              "round_wall_s": per_round(res["lat"], len(plan.ops)).tolist(),
              "reference_slice_s": res["ref"].tolist(),
              "seconds_metrics": seconds_metrics(res, probes), "setup_probes_s": probes,
              "failures": crashed, "wrong_outputs": wrong, "warnings": warnings,
              **provenance()}
    if trace:
        import tracing

        metrics = tracing.layer_metrics(tracer, res["rounds"], n_ops, doc_bytes(res))
        metrics = {k: (metrics[k], u) for k, u in tracing.UNITS.items()}
        tracer.save(OUT / f"trace-{workload}.npz")
    else:
        metrics = end_to_end(res, probes)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"result-{workload}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    for p in crashed + wrong:
        print(f"failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": n_ops,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def selfcheck() -> int:
    """Every workload at a small size: one plain and one traced round each."""
    cohcert, cli = import_cli()
    import tracing

    OUT.mkdir(exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        workdir = OUT / f"selfcheck-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        try:
            plan = workloads.build(workload, SELFCHECK_SEED, workdir, small=True)
            t0 = time.perf_counter()
            res = run_rounds(cli.main, plan, 0.0, with_reference=True)
            tracer = tracing.Tracer()
            tracer.install(cohcert)
            try:
                traced = run_rounds(cli.main, plan, 0.0, with_reference=False)
            finally:
                tracer.uninstall()
            problems = []
            for r in (res, traced):
                _, crashed, wrong, _ = check_outputs(plan, r)
                problems += crashed + wrong
            layers = tracing.layer_metrics(tracer, traced["rounds"], traced["rounds"] * len(plan.ops),
                                           doc_bytes(traced))
            if set(layers) != set(tracing.UNITS):
                problems.append(f"layer metrics {sorted(set(layers) ^ set(tracing.UNITS))} mismatch")
            problems += [f"layer metric {k} = {v}" for k, v in layers.items()
                         if not math.isfinite(v) or v < 0]
            problems += [f"end-to-end metric {k} = {v}" for k, (v, _) in end_to_end(res, [(1.0, 1.0)]).items()
                         if not math.isfinite(v) or v <= 0]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        passed = not problems
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {workload}: {len(plan.ops)} ops x {res['rounds']} rounds "
              f"in {time.perf_counter() - t0:.1f} s")
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1
