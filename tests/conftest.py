import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from cohcert import DensityMatrix, PureState


def rand_pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def rand_density(rng, d, rank=None):
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def rand_simplex(rng, d):
    x = rng.random(d) + 1e-3
    return x / x.sum()


def run_python(args, cwd, timeout=120):
    """Run a fresh interpreter on ``args``, importing cohcert from this checkout."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def write_w3_fringe(path):
    """A sampled W_3 fringe, p(t) = (3 + 4 cos t + 2 cos 2t) / 9, at 64 equally
    spaced times, as a CSV file under a comment line."""
    t = [2 * math.pi * i / 64 for i in range(64)]
    path.write_text("# W_3 fringe\nt,p\n" + "".join(
        f"{ti!r},{(3 + 4 * math.cos(ti) + 2 * math.cos(2 * ti)) / 9!r}\n" for ti in t))
