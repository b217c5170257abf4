"""Bimodality: each ER network's n_p sits at the outer root its giant names.

For ER networks with mean out-degree c = k/2, the fraction ``n_p`` of
possible inputs follows the cavity equation t = exp(-c exp(-c t)) of core
percolation (Liu, Csóka, Zhou & Pósfai, PRL 109:205703, 2012). Above
k = 2e it has three roots in [0, 1]; a network lands near the smallest when
its largest component is a UMC and near the largest when it is an IC, the
bimodality of Jia et al. (Nat. Commun. 4:2002, 2013). ``n_p`` and IC-ness
do not depend on the matching.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from netcontrol.cli import main

# Twice the largest |n_p - root| over generator seeds 100-123 at the same
# N and k (0.0070, k=10, seed 114), fixed before the seeds below were run.
TOLERANCE = 0.014


def outer_roots(c: float) -> tuple[float, float]:
    """Smallest and largest root in [0, 1] of t = exp(-c exp(-c t))."""
    def f(t):
        return np.exp(-c * np.exp(-c * t)) - t

    grid = np.linspace(0.0, 1.0, 1001)
    sign = np.sign(f(grid))
    roots = []
    for i in np.flatnonzero(sign[:-1] != sign[1:]).tolist():
        lo, hi = grid[i], grid[i + 1]
        for _ in range(50):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if np.sign(f(mid)) == sign[i] else (lo, mid)
        roots.append(lo)
    return roots[0], roots[-1]


def test_outer_roots():
    assert outer_roots(4.0) == pytest.approx((0.0280, 0.8941), abs=1e-4)
    assert outer_roots(5.0) == pytest.approx((0.0082, 0.9596), abs=1e-4)


def test_er_n_p_sits_at_the_root_its_giant_names():
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(["sweep", "--model", "er", "-n", "10000", "--k-list",
                     "8,10", "--replicates", "12"]) == 0
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    assert len(rows) == 24
    for _, _, k, seed, _, _, n_p, kind in rows:
        low, high = outer_roots(float(k) / 2)
        root = {"U": low, "I": high}[kind]
        assert abs(float(n_p) - root) <= TOLERANCE, (k, seed, n_p, kind)
