"""The mpmath 3-majority recursions against plain mpf arithmetic, bit for bit.

`boolvol.analysis` steps a, pi and b on raw libmp tuples.  The references
here write each recursion as the mpf expression it replaces, at the same
working precision, and every value must carry the same mantissa and
exponent.  The depth n = 200 carries the a and b series from 1/2 - epsilon
down to doubly exponentially small values.
"""

import math

import mpmath as mp
import pytest

from boolvol import analysis as ana
from boolvol.errors import PrecisionExhausted

DIGITS = (15, 30, 100, 300)
DEPTH = 200


def _a_ref(a0, n):
    a = [a0]
    for _ in range(n):
        x = a[-1]
        a.append(3 * x * x - 2 * x * x * x)
    return a


def a_reference(p0, n, digits):
    with mp.workdps(digits):
        return _a_ref(mp.mpf(p0), n)


def pi_reference(epsilon, n, digits):
    with mp.workdps(digits):
        q = [2 * mp.mpf(epsilon)]
        for _ in range(n):
            x = q[-1]
            q.append(1.5 * x - 0.5 * x * x * x)
    return q


def b_reference(params, digits):
    with mp.workdps(digits):
        eps = params.epsilon_mpf()
        a = _a_ref(mp.mpf(1) / 2 - eps, params.n)
        emt = mp.e ** (-mp.mpf(params.t))
        b = [(1 + emt) / 4 - eps + eps * eps * (1 - emt)]
        for k in range(params.n):
            x = b[-1]
            d = a[k] - x
            b.append(3 * x * x - 2 * x * x * x + 6 * x * d * d)
    return b


def cutoff_reference(alpha, n, digits):
    with mp.workdps(digits):
        eps = mp.mpf(n) ** alpha * (mp.mpf(2) / 3) ** n
        q = 2 * eps
        k = 0
        while k < n and q < mp.mpf("0.01"):
            q = 1.5 * q - 0.5 * q * q * q
            k += 1
        a = _a_ref((1 - q) / 2, n - k)[-1]
        return a, float(n * mp.log(3) + mp.log(a))


def tuples(values):
    return [v._mpf_ for v in values]


@pytest.fixture(autouse=True)
def _precision_restored():
    prec = mp.mp.prec
    yield
    assert mp.mp.prec == prec


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("p0", [0.0, 1e-300, 0.3, 0.5, 1.0])
def test_a_matches_mpf(p0, digits):
    got = ana.maj3_a_seq(p0, DEPTH, digits=digits).values
    assert all(type(v) is mp.mpf for v in got)
    assert tuples(got) == tuples(a_reference(p0, DEPTH, digits))


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("epsilon", [0.0, 1e-20, 0.01, 0.49])
def test_pi_matches_mpf(epsilon, digits):
    got = ana.maj3_pi_seq(epsilon, DEPTH, digits=digits).values
    assert tuples(got) == tuples(pi_reference(epsilon, DEPTH, digits))


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("t", [0.0, 0.5, math.inf])
@pytest.mark.parametrize("epsilon", [0.0, 1e-20, 0.01, 0.49])
def test_b_matches_mpf(epsilon, t, digits):
    params = ana.Maj3Params(n=DEPTH, epsilon=epsilon, t=t)
    with mp.workdps(digits):
        lost = epsilon > 0 and mp.mpf(1) / 2 - mp.mpf(epsilon) == mp.mpf(1) / 2
    if lost:  # 1e-20 at 15 digits: p = 1/2 - epsilon rounds to 1/2
        with pytest.raises(PrecisionExhausted):
            ana.maj3_b_seq(params, digits=digits)
        return
    got = ana.maj3_b_seq(params, digits=digits).values
    want = b_reference(params, digits)
    assert tuples(got) == tuples(want)
    if epsilon > 0:  # the series did reach the doubly exponentially small values
        assert want[-1] < mp.mpf(10) ** -10**6


@pytest.mark.parametrize("digits", DIGITS[1:])  # the diagnostic needs >= 30 digits
@pytest.mark.parametrize("alpha, n", [(0.4, 300), (1.0, 300)])
def test_cutoff_matches_mpf(alpha, n, digits, monkeypatch):
    series = []
    run = ana._mp_series

    def record(*args):
        series.append(run(*args))
        return series[-1]

    monkeypatch.setattr(ana, "_mp_series", record)
    got = ana.maj3_cutoff_diagnostic(alpha, n, digits=digits).log_diag
    a, want = cutoff_reference(alpha, n, digits)
    assert [s[-1] for s in series] == [a._mpf_]  # a_n, not only its float log
    assert got == want
