"""Verification suites that need normal forms past a system's initial degree."""

from qshapo import freealg
from qshapo.freealg import complete, serre_relations
from qshapo.suites import suite_powers

F_P = "theta F^p on the reflected weight is a highest weight vector"


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
