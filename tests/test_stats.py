"""The exact binomial interval: agreement with scipy's beta quantiles, input
checks, and an import of choicelab that loads no scipy."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import beta

import choicelab
from choicelab.stats import clopper_pearson

SRC = os.path.dirname(os.path.dirname(choicelab.__file__))

ALPHAS = (0.01, 0.05, 0.2)


def reference_interval(successes, trials, alpha):
    lo = 0.0 if successes == 0 else beta.ppf(alpha / 2, successes, trials - successes + 1)
    hi = 1.0 if successes == trials else beta.ppf(1 - alpha / 2, successes + 1, trials - successes)
    return float(lo), float(hi)


# n = 10**6 needs about 1,500 continued-fraction terms near the mean, the
# size coverage_report reaches at its exhaustive limit. At n = 10**7 a
# prefactor taken from lgamma directly would be off by more than 1e-12.
@pytest.mark.parametrize("n", [1, 2, 3, 10, 37, 100, 1000, 12345, 10**5, 10**6, 10**7])
def test_matches_scipy_beta_quantiles(n):
    counts = sorted({s for s in (0, 1, 2, n // 3, n // 2, n - 2, n - 1, n) if 0 <= s <= n})
    for s in counts:
        for alpha in ALPHAS:
            lo, hi = clopper_pearson(s, n, alpha)
            want_lo, want_hi = reference_interval(s, n, alpha)
            assert abs(lo - want_lo) <= 1e-12, (s, n, alpha, lo, want_lo)
            assert abs(hi - want_hi) <= 1e-12, (s, n, alpha, hi, want_hi)
            assert 0.0 <= lo < hi <= 1.0


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
def test_alpha_outside_unit_interval_rejected(alpha):
    with pytest.raises(ValueError, match="alpha"):
        clopper_pearson(3, 10, alpha=alpha)


@pytest.mark.parametrize("successes, trials",
                         [(2.5, 10), (2, 10.0), (1, True)])
def test_non_integer_counts_rejected(successes, trials):
    with pytest.raises(ValueError, match="integers"):
        clopper_pearson(successes, trials)


def test_numpy_integer_counts_accepted():
    assert clopper_pearson(np.int64(3), np.int64(10)) == clopper_pearson(3, 10)


@pytest.mark.parametrize("successes, trials", [(0, 0), (-1, 10), (11, 10)])
def test_counts_out_of_range_rejected(successes, trials):
    with pytest.raises(ValueError):
        clopper_pearson(successes, trials)


def test_import_loads_no_scipy():
    code = (
        "import sys, choicelab\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
