"""Acceptance gate: one test per ``swlp.checks`` criterion, each printing its PASS/FAIL line."""

import operator

from swlp import checks

_SIDES = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


def _gate_test(entry):
    def test(request):
        run = [request.getfixturevalue("acceptance_run")] if entry.needs_run else []
        records, detail = entry.evaluate(*run)
        line = entry.line(records, detail)
        print(line)
        for r in records:  # value is the measured number, bound the threshold
            assert r["passed"] == _SIDES[r["side"]](r["value"], r["bound"]), r
        # a negative control passes when its measured residual exceeds the threshold
        controls = [r["side"] for r in records if "negative_control" in r["name"]]
        assert controls == {4: [">", ">"], 11: [">"]}.get(entry.number, [])
        assert all(r["passed"] for r in records), (line, records)

    test.__name__ = f"test_criterion_{entry.number:02d}_{entry.evaluate.__name__}"
    return test


for _entry in checks.REGISTRY:
    _test = _gate_test(_entry)
    globals()[_test.__name__] = _test
