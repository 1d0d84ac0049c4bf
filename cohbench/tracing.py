"""Spans around the calls into each cohcert module, recorded from outside.

:func:`install` replaces every public function of the package's modules by
a wrapper, in every namespace the calling modules look it up in (the module
itself, the package, and the modules that imported the name).  It also wraps
``DensityMatrix.__init__`` and the ``minimize`` and ``nnls`` names that
``cohcert.optimize`` and ``cohcert.approx`` import from scipy.  A span is
(name, parent, start, end); spans stay in flat arrays in memory and are
written out once, at the end of the run.
"""

import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "states", "patterns", "bounds", "optimize", "robustness", "approx")
# A restart "reaches" the best value of its maximize call within this
# relative tolerance.
YIELD_RTOL = 1e-6
# cohcert.approx.DECISION_TOL: residuals above it are "not reproducible".
APPROX_DECISION_TOL = 1e-6

# Every per-layer metric with its unit.  Counts are per round, times are
# means per call, self times are per operation.
UNITS = {
    "cli.main.self_ms": "ms",
    "cli.read_pattern_csv.ms": "ms",
    "cli.read_pattern_csv.rows_per_s": "1/s",
    "cli.doc_bytes": "bytes",
    "states.density_builds": "count",
    "states.density_build_us": "us",
    "patterns.fit_pattern_from_samples.ms": "ms",
    "patterns.fit_pattern_from_samples.calls": "count",
    "patterns.pattern_from_states.us": "us",
    "patterns.pattern_from_states.calls": "count",
    "patterns.moments.us": "us",
    "patterns.moments.calls": "count",
    "patterns.ratio.us": "us",
    "patterns.ratio.calls": "count",
    "bounds.certify_r3.calls": "count",
    "optimize.maximize_rn_over_ck.ms": "ms",
    "optimize.nm_runs": "count",
    "optimize.nfev": "count",
    "optimize.us_per_eval": "us",
    "optimize.restart_yield": "ratio",
    "optimize.werner_rn.calls": "count",
    "optimize.lambda_threshold.ms": "ms",
    "optimize.growth_scan.ms": "ms",
    "robustness.tolerance_sweep.ms": "ms",
    "robustness.records_per_s": "1/s",
    "robustness.sweep_summary.ms": "ms",
    "approx.best_q_approximation.exceeding_ms": "ms",
    "approx.best_q_approximation.reproducible_ms": "ms",
    "approx.nm_runs": "count",
    "approx.nfev": "count",
    "approx.us_per_eval": "us",
    "approx.nnls_calls": "count",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS[1:]},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        # span index -> small payload (rows read, nfev, residual, ...)
        self.info: dict[int, object] = {}
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func, note=None):
        nid = self._id(name)
        name_id, parent, start, end, stack, info = (
            self.name_id, self.parent, self.start, self.end, self.stack, self.info)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if note is not None:
                info[idx] = note(result)
            return result

        traced.__wrapped__ = func
        return traced

    def _patch(self, obj, attr, new):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self, package) -> None:
        import importlib

        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
        notes = {
            "cli.read_pattern_csv": lambda arr: int(arr.shape[0]),
            "robustness.tolerance_sweep": lambda sweep: len(sweep.records),
            "approx.best_q_approximation": lambda res: float(res.residual),
        }
        wrapped = {}
        for layer, mod in modules.items():
            public = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for n in public:
                f = getattr(mod, n)
                if inspect.isfunction(f) and f.__module__ == mod.__name__:
                    name = f"{layer}.{n}"
                    wrapped[f] = self.wrap(name, f, notes.get(name))
        for mod in (package, *modules.values()):
            for n, v in list(vars(mod).items()):
                if inspect.isfunction(v) and v in wrapped:
                    self._patch(mod, n, wrapped[v])
        opt_result = lambda res: (int(res.nfev), float(res.fun))
        self._patch(modules["optimize"], "minimize",
                    self.wrap("optimize.minimize", modules["optimize"].minimize, opt_result))
        self._patch(modules["approx"], "minimize",
                    self.wrap("approx.minimize", modules["approx"].minimize, opt_result))
        self._patch(modules["approx"], "nnls", self.wrap("approx.nnls", modules["approx"].nnls))
        dm = modules["states"].DensityMatrix
        self._patch(dm, "__init__", self.wrap("states.DensityMatrix", dm.__init__))

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._restore):
            setattr(obj, attr, old)
        self._restore.clear()

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))


def layer_metrics(tr: Tracer, rounds: int, ops: int, doc_bytes: float) -> dict:
    """Per-layer metrics from the spans of ``rounds`` identical rounds of
    ``ops`` operations in total, plus the mean document size ``doc_bytes``.

    Counts are per round, so they repeat exactly; times are means per call
    (or per operation for self times); rates divide work by busy time.
    """
    name_id = np.asarray(tr.name_id)
    parent = np.asarray(tr.parent)
    dur = np.asarray(tr.end) - np.asarray(tr.start)
    layer_of_name = np.array([n.split(".")[0] for n in tr.names] or [""])
    layer = layer_of_name[name_id] if name_id.size else np.array([], dtype=str)
    # Self time of a span: its duration minus that of its direct children.
    child_sum = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    self_t = dur - child_sum

    def sel(name):
        if name not in tr._ids:
            return np.zeros(0, dtype=int)
        return np.flatnonzero(name_id == tr._ids[name])

    def calls(name):
        return sel(name).size / rounds

    def mean_ms(name, scale=1e3):
        idx = sel(name)
        return float(dur[idx].mean() * scale) if idx.size else 0.0

    def done(name):
        """Spans of ``name`` whose call returned (raised calls carry no info)."""
        return np.array([i for i in sel(name) if i in tr.info], dtype=int)

    def infos(name):
        return [tr.info[i] for i in done(name)]

    def rate(name):
        """Work noted by ``name``'s spans per second of their time."""
        busy = dur[done(name)].sum()
        return sum(infos(name)) / busy if busy > 0 else 0.0

    # A layer's busy time: the self time of all of its spans.
    layer_self = {lay: float(self_t[layer == lay].sum()) for lay in LAYERS}

    m = {}
    m["cli.main.self_ms"] = layer_self["cli"] / ops * 1e3
    m["cli.read_pattern_csv.ms"] = mean_ms("cli.read_pattern_csv")
    m["cli.doc_bytes"] = doc_bytes
    m["cli.read_pattern_csv.rows_per_s"] = rate("cli.read_pattern_csv")
    m["states.density_builds"] = calls("states.DensityMatrix")
    m["states.density_build_us"] = mean_ms("states.DensityMatrix", 1e6)
    for fn, unit in (("fit_pattern_from_samples", "ms"), ("pattern_from_states", "us"),
                     ("moments", "us"), ("ratio", "us")):
        name = f"patterns.{fn}"
        m[f"{name}.{unit}"] = mean_ms(name, 1e3 if unit == "ms" else 1e6)
        m[f"{name}.calls"] = calls(name)
    m["bounds.certify_r3.calls"] = calls("bounds.certify_r3")

    m["optimize.maximize_rn_over_ck.ms"] = mean_ms("optimize.maximize_rn_over_ck")
    nm = sel("optimize.minimize")
    nfev = sum(i[0] for i in infos("optimize.minimize"))
    m["optimize.nm_runs"] = nm.size / rounds
    m["optimize.nfev"] = nfev / rounds
    m["optimize.us_per_eval"] = float(dur[nm].sum() / nfev * 1e6) if nfev else 0.0
    m["optimize.restart_yield"] = _restart_yield(
        tr, parent, sel("optimize.maximize_rn_over_ck"), done("optimize.minimize"))
    m["optimize.werner_rn.calls"] = calls("optimize.werner_rn")
    m["optimize.lambda_threshold.ms"] = mean_ms("optimize.lambda_threshold")
    m["optimize.growth_scan.ms"] = mean_ms("optimize.growth_scan")

    m["robustness.tolerance_sweep.ms"] = mean_ms("robustness.tolerance_sweep")
    m["robustness.records_per_s"] = rate("robustness.tolerance_sweep")
    m["robustness.sweep_summary.ms"] = mean_ms("robustness.sweep_summary")

    fits = done("approx.best_q_approximation")
    exceeding = np.array([tr.info[i] > APPROX_DECISION_TOL for i in fits], dtype=bool)
    for label, mask in (("exceeding", exceeding), ("reproducible", ~exceeding)):
        m[f"approx.best_q_approximation.{label}_ms"] = (
            float(dur[fits[mask]].mean() * 1e3) if mask.any() else 0.0)
    am = sel("approx.minimize")
    anfev = sum(i[0] for i in infos("approx.minimize"))
    m["approx.nm_runs"] = am.size / rounds
    m["approx.nfev"] = anfev / rounds
    m["approx.us_per_eval"] = float(dur[am].sum() / anfev * 1e6) if anfev else 0.0
    m["approx.nnls_calls"] = calls("approx.nnls")
    for lay in LAYERS[1:]:
        m[f"{lay}.self_ms"] = layer_self[lay] / ops * 1e3
    return m


def _restart_yield(tr, parent, calls, runs) -> float:
    """Share of Nelder-Mead runs that end within YIELD_RTOL of the best value
    of the maximize call that started them."""
    if not runs.size:
        return 0.0
    by_call: dict[int, list] = {}
    for i in runs:
        by_call.setdefault(int(parent[i]), []).append(tr.info[i][1])
    call_set = set(int(c) for c in calls)
    hits = total = 0
    for call, funs in by_call.items():
        if call not in call_set:
            continue
        best = min(funs)
        hits += sum(1 for f in funs if f <= best + YIELD_RTOL * abs(best))
        total += len(funs)
    return hits / total if total else 0.0
