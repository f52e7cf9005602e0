"""The validate registry: every self-check runs here at full level."""

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
