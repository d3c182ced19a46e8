"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one pass/fail line; `confweyl verify` runs the same
functions from the command line.
"""

import pytest

from confweyl import verify


def _report(result):
    status = "PASS" if result["passed"] else "FAIL"
    print(f"criterion {result['id']:>2}: {status} ({result['seconds']:.2f}s) "
          f"- {result['description']}")
    if not result["passed"]:
        print(f"  detail: {result['detail']}")
    assert result["passed"], result


@pytest.mark.parametrize("cid", range(1, 11), ids=lambda c: f"criterion-{c}")
def test_criterion(cid):
    fn = getattr(verify, f"criterion_{cid}")
    result = fn()
    _report(result)
