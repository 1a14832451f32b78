"""One test per pinned acceptance criterion.

Each test runs its criterion at the pinned configuration, prints the
criterion's PASS/FAIL line, and asserts the verdict.  These are the slow
end-to-end checks; the unit suites cover the same machinery at small scale.
"""

from gammaw import acceptance


def _run(cid: int) -> acceptance.CriterionResult:
    res = acceptance.run_criterion(cid)
    print()
    print(res.summary_text())
    return res


def test_ac1_curvature_constants():
    res = _run(1)
    assert not res.inconclusive
    assert res.passed


def test_ac2_pq_boundary():
    res = _run(2)
    assert not res.inconclusive
    assert res.passed


def test_ac3_algebra_identity():
    res = _run(3)
    assert not res.inconclusive
    assert res.passed


def test_ac4_pointwise_cd():
    res = _run(4)
    assert not res.inconclusive
    assert res.passed


def test_ac5_optimality_limit():
    res = _run(5)
    assert not res.inconclusive
    assert res.passed


def test_ac6_commutation():
    res = _run(6)
    assert not res.inconclusive
    assert res.passed


def test_ac7_variance():
    res = _run(7)
    assert not res.inconclusive
    assert res.passed


def test_ac8_sqrt_commutation():
    res = _run(8)
    assert not res.inconclusive
    assert res.passed


def test_ac9_oracle_stack():
    res = _run(9)
    assert not res.inconclusive
    assert res.passed


def test_ac10_taylor_consistency():
    res = _run(10)
    assert not res.inconclusive
    assert res.passed
