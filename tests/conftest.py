import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from cohcert import DensityMatrix, PatternCoefficients, PureState
from cohcert.patterns import overlap_coefficients


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


def pattern_from_overlaps(alpha, phi=0.0):
    """Pattern of the overlaps z_p = alpha_p e^{i phi_p} = psi_p conj(chi_p), through
    the kernel's pure-state fast path: c_m = sum_p alpha_{p+m} alpha_p e^{i(phi_{p+m} - phi_p)}.
    Overlaps alpha_p >= 0 summing to at most 1 keep p(t) <= (sum_p alpha_p)^2 <= 1."""
    cs = overlap_coefficients(np.asarray(alpha) * np.exp(1j * np.asarray(phi)))
    return PatternCoefficients(cs[0].real, cs[1:])


def w_resonance_counts(k):
    """Counts (A, B) of resonant cosine pairs and triples in the W_k pattern: A matched
    pairs, B triples whose largest frequency is the sum of the other two (with their
    ordering multiplicities), so that R_3(W_k) = 1/k + 6 A / k^3 + 2 B / k^4."""
    a = Fraction(k * (k - 1) * (2 * k - 1), 6)
    b = Fraction(k * (k - 1) * (k - 2) * (2 - 7 * k + 11 * k * k), 40)
    assert a.denominator == 1 and b.denominator == 1
    return int(a), int(b)


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
