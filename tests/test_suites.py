"""Verification suites that need normal forms past a system's initial degree."""

from qshapo import freealg
from qshapo.freealg import complete, serre_relations
from qshapo.suites import suite_powers

F_P = "theta F^p on the reflected weight is a highest weight vector"


def test_suite_powers_level_three():
    report = suite_powers(3, 3)
    assert report and all(entry["status"] == "pass" for entry in report)


def test_suite_powers_names_the_f_power_checks_it_does_not_run(monkeypatch):
    # at this weight p = 4, so theta F^p has degree 12, past the default
    # degree 10 of N = 4: the check does not run and must not pass vacuously
    monkeypatch.setitem(freealg._SYSTEMS, 4, complete(serre_relations(4), 10, n=4))
    report = suite_powers(4, 2, lam=(2, 1, 0, -5))
    names = [entry["check"] for entry in report]
    assert F_P not in names
    assert names[-1] == (
        "theta F^p check not run at lambda=(2, 1, 0, -5) (degree 12 > default degree 10)"
    )
    assert all(entry["status"] == "pass" for entry in report)


def test_suite_powers_reports_the_same_after_an_extension(monkeypatch):
    # the F^p check is bounded by the rank's default degree, not by how far
    # earlier work extended the shared system
    monkeypatch.setattr(freealg, "_SYSTEMS", {})
    before = suite_powers(3, 3)
    freealg.get_rewrite_system(3, 14)
    assert suite_powers(3, 3) == before
    assert before[-1]["check"].startswith("theta F^p check not run at ")
