"""The powers suite: normal forms past a system's initial degree, and the
normal-form comparison of the level-m product with the rank induction."""

import pytest

from qshapo import freealg, suites
from qshapo.freealg import complete, serre_relations
from qshapo.scalars import _digit
from qshapo.suites import suite_powers

F_P = "theta F^p on the reflected weight is a highest weight vector"
MATCH = "normalized induction equals the level-2 product"


def test_suite_powers_level_three():
    report = suite_powers(3, 3)
    assert report and all(entry["status"] == "pass" for entry in report)


def test_suite_powers_runs_the_f_power_check_past_the_initial_degree(monkeypatch):
    # at this weight p = 4, so theta F^p has degree 12, past the initial
    # degree 10 of N = 4: the induction has already extended that far, and
    # the check runs and passes
    monkeypatch.setitem(freealg._SYSTEMS, 4, complete(serre_relations(4), 10, n=4))
    report = suite_powers(4, 2, lam=(2, 1, 0, -5))
    assert report[-1] == {"check": F_P, "status": "pass", "witness": "0"}
    assert all(entry["status"] == "pass" for entry in report)
    assert freealg._SYSTEMS[4].cap == 12


def test_suite_powers_reports_the_same_after_an_extension(monkeypatch):
    # the report depends on the arguments alone, not on how far earlier
    # work extended the shared system
    monkeypatch.setattr(freealg, "_SYSTEMS", {})
    before = suite_powers(3, 3)
    freealg.get_rewrite_system(3, 14)
    assert suite_powers(3, 3) == before
    assert before[-1] == {"check": F_P, "status": "pass", "witness": "0"}


def _perturb(ints):
    w = min(ints)
    key = min(ints[w])
    return {**ints, w: {**ints[w], key: ints[w][key] + 1}}


def _drop(ints):
    w = min(ints)
    return {u: c for u, c in ints.items() if u != w}


def _scale(ints):  # by 2 q**3, which the proportionality test absorbs
    return {w: {k + _digit(3): 2 * a for k, a in c.items()} for w, c in ints.items()}


@pytest.mark.parametrize("change, status", [(_perturb, "fail"), (_drop, "fail"), (_scale, "pass")])
def test_the_power_comparison_is_proportionality(monkeypatch, change, status):
    # the level-m product and the induction are compared in normal form, up
    # to one scalar: a changed or missing word fails, a rescaled product not
    real = suites._power

    def power(*args):
        D, ints = real(*args)
        return D, change(ints)

    monkeypatch.setattr(suites, "_power", power)
    (entry,) = [e for e in suite_powers(3, 2) if e["check"].startswith(MATCH)]
    assert entry["status"] == status
    if status == "fail":
        assert entry["witness"].startswith("lambda=")
