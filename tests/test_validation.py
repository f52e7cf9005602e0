"""The validate registry: every self-check runs here at full level."""

import numpy as np
import pytest

from netentropy import validation


@pytest.mark.parametrize("check", validation.CHECKS, ids=lambda check: check.__name__)
def test_check(check):
    result = check("full")
    assert result.passed, result.detail


def test_fast_level_all_pass():
    results = validation.run_checks(level="fast")
    assert len(results) == len(validation.CHECKS)
    failing = [r.name for r in results if not r.passed]
    assert failing == []
    assert all(r.detail for r in results)


def test_argument_validation():
    with pytest.raises(ValueError):
        validation.run_checks(level="medium")


def test_fault_injection_breaks_only_detailed_balance(broken_detailed_balance):
    results = validation.run_checks(level="fast")
    failing = [r.name for r in results if not r.passed]
    assert failing == ["channel/detailed-balance"]


@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 48, 49, 198, 199, 250, 251])
def test_chi2_tail_matches_scipy(df):
    # the histogram check's df is its kept bins minus one, so both parities
    # occur; scipy stays a test-only reference
    from scipy.stats import chi2
    for x in [0.0, 1e-3, 0.5, 10.0, *(df * np.array([0.1, 0.9, 1.0, 1.2, 2.0, 4.0]))]:
        want = chi2.sf(x, df)
        assert want > 1e-300
        assert validation._chi2_sf(float(x), df) == pytest.approx(want, rel=1e-11, abs=0.0)
