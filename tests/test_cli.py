"""Command-line behaviour: rendering, exit codes, determinism, and the
rewrite-system file that the benchmark still reads and writes."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import qshapo

from qshapo import cli, freealg
from qshapo.cli import main
from qshapo.freealg import RewriteSystem, serre_relations
from qshapo.shapovalov import InconsistentResult, theta_power
from qshapo.uqsl import NilpotencyCapExceeded, NotRightDivisible, SingularSystem


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_theta_sum_text(capsys):
    code, out, _ = run_cli(capsys, "theta", "--n", "2", "--method", "sum", "--format", "text")
    assert code == 0
    assert out.strip() == "f[1,2]f[2,3] + f[1,3]·h1"
    code, out, _ = run_cli(capsys, "theta", "--n", "1", "--method", "sum")
    assert code == 0
    assert out.strip() == "f[1,2]"


def test_theta_det_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "theta",
        "--n",
        "3",
        "--method",
        "det",
        "--lambda",
        "1,0,-3",
        "--format",
        "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3 and obj["method"] == "det"
    assert len(obj["terms"]) == 4
    assert obj["terms"][0]["pbw"] == [[1, 2], [2, 3], [3, 4]]


def test_theta_latex_smoke(capsys):
    code, out, _ = run_cli(capsys, "theta", "--n", "2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\documentclass")
    assert "\\end{document}" in out


def test_theta_invalid_lambda_exit_2(capsys):
    code, _, err = run_cli(capsys, "theta", "--n", "3", "--method", "det", "--lambda", "1,2")
    assert code == 2
    assert "lambda" in err


def test_theta_power_off_hyperplane_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "theta",
        "--n",
        "2",
        "--m",
        "2",
        "--method",
        "power",
        "--lambda",
        "5,5",
    )
    assert code == 2
    assert "error" in err


def test_theta_inductive_matches_sum_via_cli(capsys):
    # a chain-admissible weight on the level-1 hyperplane for N=2
    code, out_ind, _ = run_cli(
        capsys,
        "theta", "--n", "2", "--method", "inductive", "--lambda", "1,-2",
        "--format", "json",
    )
    assert code == 0
    code, out_det, _ = run_cli(
        capsys,
        "theta", "--n", "2", "--method", "det", "--lambda", "1,-2",
        "--format", "json",
    )
    assert code == 0
    a = json.loads(out_ind)["terms"]
    b = json.loads(out_det)["terms"]
    assert a == b


def test_theta_power_of_degree_18_exits_0(capsys):
    # the level-9 element at N = 2 has degree 18; the system completes
    # itself that far from its initial degree 10, and no degree is refused
    code, out, err = run_cli(
        capsys, "theta", "--n", "2", "--m", "9", "--method", "power", "--lambda", "5,2"
    )
    assert (code, err) == (0, "")
    assert out.startswith("(q^72)·" + "f[1,2]" * 9 + "f[2,3]" * 9 + " + ")


def test_verify_hwv_cli(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "hwv", "--n", "3", "--m", "1", "--mode", "symbolic"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert len(obj["checks"]) == 3


def test_verify_hwv_n7_completes_past_the_cached_degree(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "hwv", "--n", "7")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert len(obj["checks"]) == 7


def test_verify_powers_with_explicit_weight(capsys):
    # a hyperplane weight whose reflection chain is inadmissible still
    # verifies the product construction; the induction note is explicit
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "powers", "--n", "2", "--m", "2",
        "--lambda", "1,-1",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    names = [c["check"] for c in obj["checks"]]
    assert any("produces highest weight vectors" in s for s in names)
    assert any("not applicable" in s for s in names)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["hwv", "--mode", "sampled", "--lambda", "1,2"], 2),
        (["powers", "--lambda", "1,-1"], 2),
        (["hwv", "--mode", "sampled", "--lambda", "0,-1"], 0),
        (["powers", "--lambda", "0,-1"], 0),
    ],
)
def test_verify_weight_off_hyperplane_exit_2(capsys, argv, code):
    # at level one, as at higher levels, the element needs (lam + rho, eta) = m
    got, out, err = run_cli(capsys, "verify", "--suite", *argv, "--n", "2")
    assert got == code
    if code == 2:
        assert out == ""
        assert err == "error: weight must satisfy (lam + rho, eta) = 1\n"
    else:
        assert json.loads(out)["all_pass"] is True


@pytest.mark.parametrize(
    "argv, n, err",
    [
        (["section44", "--lambda", "1,2"], "3", "error: the section44 suite takes no weight\n"),
        (["section2", "--lambda", "0,-1"], "2", "error: the section2 suite takes no weight\n"),
        (["pbw", "--lambda", "0,-1"], "2", "error: the pbw suite takes no weight\n"),
        (
            ["hwv", "--lambda", "0,-1"],
            "2",
            "error: symbolic verification takes no weight; use sampled mode\n",
        ),
    ],
    ids=["section44", "section2", "pbw", "hwv-symbolic"],
)
def test_verify_weight_the_run_would_drop_exit_2(capsys, argv, n, err):
    got = run_cli(capsys, "verify", "--suite", *argv, "--n", n)
    assert got == (2, "", err)


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["verify", "--suite", "section2", "--n", "3", "--lambda", "0,0,0"],
            "error: the section2 suite takes no weight\n",
        ),
        (
            ["theta", "--n", "3", "--m", "2", "--method", "power", "--lambda", "0,0,0"],
            "error: weight must satisfy (lam + rho, eta) = 2\n",
        ),
        (
            ["verify", "--suite", "hwv", "--n", "3", "--lambda", "0,0,-2"],
            "error: symbolic verification takes no weight; use sampled mode\n",
        ),
        (
            ["verify", "--suite", "hwv", "--n", "3", "--m", "2", "--mode", "symbolic"],
            "error: symbolic verification is level-one only\n",
        ),
        (
            ["verify", "--suite", "hwv", "--n", "3", "--mode", "sampled", "--lambda", "0,0,0"],
            "error: weight must satisfy (lam + rho, eta) = 1\n",
        ),
        (
            ["verify", "--suite", "powers", "--n", "3", "--m", "2", "--lambda", "0,0,0"],
            "error: weight must satisfy (lam + rho, eta) = 2\n",
        ),
        (
            ["verify", "--suite", "negative", "--n", "3", "--lambda", "0,0,-2"],
            "error: negative control needs a weight off the hyperplane\n",
        ),
        (
            ["theta", "--n", "3", "--m", "2", "--method", "inductive", "--lambda", "1,0,-2"],
            "error: step 2 needs a positive exponent, got 0\n",
        ),
        # only the hwv and powers suites read the level
        (
            ["verify", "--suite", "negative", "--n", "2", "--m", "3", "--lambda", "0,-1"],
            "error: the negative suite is level-one only\n",
        ),
        *(
            (
                ["verify", "--suite", suite, "--n", "2", "--m", "4"],
                f"error: the {suite} suite is level-one only\n",
            )
            for suite in ("section2", "section3", "calculus", "section44", "pbw")
        ),
        (["verify", "--suite", "section44", "--n", "1"], "error: requires rank >= 2\n"),
        (
            ["theta", "--n", "2", "--lambda", "5,7"],
            "error: the sum form takes no weight; use --method det to evaluate it\n",
        ),
    ],
    ids=[
        "verify-section2", "theta-power", "hwv-symbolic-weight", "hwv-symbolic-level-two",
        "hwv-sampled-off-hyperplane", "powers-off-hyperplane", "negative-on-hyperplane",
        "theta-inductive-chain", "negative-level-three", "section2-level-four",
        "section3-level-four", "calculus-level-four", "section44-level-four",
        "pbw-level-four", "section44-rank-one", "theta-sum-weight",
    ],
)
def test_refused_arguments_build_no_cache(capsys, monkeypatch, argv, err):
    # the arguments are refused before a rewriting system is built
    monkeypatch.setattr(freealg, "_SYSTEMS", {})
    assert run_cli(capsys, *argv) == (2, "", err)
    assert freealg._SYSTEMS == {}


def test_commands_write_nothing_to_disk(capsys, tmp_path, monkeypatch):
    # each command builds its rewriting system in process; none is read
    # from or written to a cache directory
    home, xdg = tmp_path / "home", tmp_path / "xdg"
    home.mkdir()
    xdg.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
    assert run_cli(capsys, "verify", "--suite", "hwv", "--n", "3")[0] == 0
    argv = ["theta", "--n", "3", "--m", "2", "--method", "power", "--lambda", "0,0,-1"]
    assert run_cli(capsys, *argv)[0] == 0
    assert list(home.iterdir()) == list(xdg.iterdir()) == []


def test_removed_cache_command_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cache", "--n", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'cache'" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["1", "2"])
def test_verify_powers_n1_reports_no_shift_check(capsys, m):
    # at N = 1 every root vector contains f_1, so the formal shift identity
    # has no arguments, and no weight can run the F^p check (it needs
    # N >= 2): both are left out of the report, not passed vacuously
    code, out, err = run_cli(capsys, "verify", "--suite", "powers", "--n", "1", "--m", m)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert [c["check"] for c in obj["checks"]] == [
        f"level-{m} element produces highest weight vectors",
        f"level-{m} element lowers the weight by m*eta",
        "induction leading coefficient is the predicted v power",
        "normalized induction equals the "
        + ("closed sum" if m == "1" else "level-2 product")
        + " (1 weights)",
    ]


def test_verify_negative_control_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "negative", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    final = obj["checks"][-1]
    assert "nonzero witness" in final["check"]
    assert final["witness"] != "0"


@pytest.mark.parametrize("argv", [
    "theta --n 2 --m 2 --method power --lambda 1000000000,-1000000000",
    "verify --suite negative --n 2 --lambda 1000000000,5",
    "theta --n 3 --method det --lambda 268435456,0,0",
    "verify --suite hwv --n 2 --mode sampled --lambda 100000000,-100000001",
])
def test_a_numerator_too_long_to_build_exits_2(argv):
    # each h_i at these weights has a numerator spanning billions of powers
    # of q; the child runs under a 1 GB address-space limit, so a
    # regression fails fast with MemoryError instead of filling the machine
    child = textwrap.dedent(f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from qshapo.cli import main
        raise SystemExit(main({argv.split()!r}))
    """)
    src = str(Path(qshapo.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: a numerator spans"), out.stderr
    assert out.stderr.rstrip().endswith("powers of q, past 1048576") and not out.stdout


def test_verify_exit_1_on_failure(capsys, monkeypatch):
    import qshapo.suites as suites

    def broken(*a, **k):
        return [{"check": "forced failure", "status": "fail", "witness": "x"}]

    monkeypatch.setitem(
        suites.run_suite.__globals__, "suite_calculus", broken
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "calculus", "--n", "2")
    assert code == 1


# load_or_build and cache_path: the rewrite-system file that only the
# benchmark reads and writes

def test_cache_build_then_load(tmp_path):
    rs, status = cli.load_or_build(3, 10, tmp_path)
    assert status == "built"
    again, status = cli.load_or_build(3, 10, tmp_path)
    assert status == "loaded" and again.rules == rs.rules


def test_cache_corrupt_rebuilds(capsys, tmp_path):
    cli.load_or_build(2, 10, tmp_path)
    cli.cache_path(tmp_path, 2, 10).write_text("garbage\n")
    assert cli.load_or_build(2, 10, tmp_path)[1] == "rebuilt"
    assert "warning" in capsys.readouterr().err


def test_cache_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    # another run finishes writing the cache while this run is still
    # completing; this run's write then fails half way through
    rs, status = cli.load_or_build(2, 6, tmp_path)
    assert status == "built"
    path = cli.cache_path(tmp_path, 2, 6)
    good = path.read_text()
    path.unlink()
    real_complete = cli.complete

    def complete_while_other_run_writes(*args, **kwargs):
        out = real_complete(*args, **kwargs)
        path.write_text(good)
        return out

    real_tempfile = cli.tempfile.NamedTemporaryFile

    def half_writing_tempfile(*args, **kwargs):
        fh = real_tempfile(*args, **kwargs)
        real_write = fh.write

        def write(text):
            real_write(text[: len(text) // 2])
            fh.flush()
            raise OSError(28, "No space left on device")

        fh.write = write
        return fh

    monkeypatch.setattr(cli, "complete", complete_while_other_run_writes)
    monkeypatch.setattr(cli.tempfile, "NamedTemporaryFile", half_writing_tempfile)
    with pytest.raises(OSError):
        cli.load_or_build(2, 6, tmp_path)
    monkeypatch.undo()
    assert path.read_text() == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    again, status = cli.load_or_build(2, 6, tmp_path)
    assert status == "loaded" and again.rules == rs.rules


# a well-formed n = 2 cache that lacks the rule with lead f2 f2 f1, so its
# normal forms leave the PBW span
DAMAGED_N2_CACHE = (
    "qshapo-rws-v1\n"
    "n=2 cap=10 rules=1\n"
    "LEAD 2,1,1\n"
    "  1,1,2 : -1\n"
    "  1,2,1 : (q^4+1)/q^2\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--n", "2", "--m", "2", "--method", "power", "--lambda", "1,-1"],
        ["verify", "--suite", "section44", "--n", "2"],
        ["verify", "--suite", "powers", "--n", "2"],
    ],
)
def test_damaged_cache_rebuilds(capsys, tmp_path, monkeypatch, argv):
    # a damaged file where the command line once kept its cache is neither
    # read nor rewritten by a command, which prints what a run without the
    # file prints; load_or_build, which the benchmark calls, still finds
    # the damage by the Serre check, warns, and rebuilds it
    cap = freealg.default_cap(2)
    monkeypatch.setenv("HOME", str(tmp_path))
    cache_dir = tmp_path / ".cache" / "qshapo"
    cache_dir.mkdir(parents=True)
    monkeypatch.setattr(freealg, "_SYSTEMS", {})
    code, fresh, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    path = cli.cache_path(cache_dir, 2, cap)
    path.write_text(DAMAGED_N2_CACHE)
    monkeypatch.setattr(freealg, "_SYSTEMS", {})
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == fresh
    assert path.read_text() == DAMAGED_N2_CACHE
    rs, status = cli.load_or_build(2, cap, cache_dir)
    err = capsys.readouterr().err
    assert status == "rebuilt"
    assert err.startswith("warning: cache ")
    assert "Serre relation" in err and err.endswith("; rebuilding\n")
    assert err.count("\n") == 1
    assert path.read_text() == freealg.complete(serre_relations(2), cap, n=2).to_text()
    assert cli.load_or_build(2, cap, cache_dir)[1] == "loaded"


# a valid n = 2 cache plus a well-formed rule whose lead f2 f2 f1 f1
# contains the lead f2 f2 f1; every Serre relation still reduces to 0
NESTED_N2_CACHE = (
    "qshapo-rws-v1\n"
    "n=2 cap=10 rules=3\n"
    "LEAD 2,1,1\n"
    "  1,1,2 : -1\n"
    "  1,2,1 : (q^4+1)/q^2\n"
    "LEAD 2,2,1\n"
    "  1,2,2 : -1\n"
    "  2,1,2 : (q^4+1)/q^2\n"
    "LEAD 2,2,1,1\n"
    "  1,2,1,2 : 1\n"
)


def test_nested_leads_cache_rebuilds(capsys, tmp_path):
    cap = freealg.default_cap(2)
    path = cli.cache_path(tmp_path, 2, cap)
    path.write_text(NESTED_N2_CACHE)
    rs, status = cli.load_or_build(2, cap, tmp_path)
    err = capsys.readouterr().err
    assert status == "rebuilt" and len(rs.rules) == 2
    reason = "one lead is a factor of another"
    assert err == f"warning: cache {path} is corrupt ({reason}); rebuilding\n"
    assert path.read_text() == freealg.complete(serre_relations(2), cap, n=2).to_text()
    assert cli.load_or_build(2, cap, tmp_path)[1] == "loaded"


# the n = 3 cache without its rule of degree 5, LEAD 3,2,3,2,1: every Serre
# relation still reduces to 0, but degree 5 has a normal word too many
SHORT_N3_CACHE = (
    "qshapo-rws-v1\n"
    "n=3 cap=10 rules=6\n"
    "LEAD 3,1\n"
    "  1,3 : 1\n"
    "LEAD 2,1,1\n"
    "  1,1,2 : -1\n"
    "  1,2,1 : (q^4+1)/q^2\n"
    "LEAD 2,2,1\n"
    "  1,2,2 : -1\n"
    "  2,1,2 : (q^4+1)/q^2\n"
    "LEAD 3,2,2\n"
    "  2,2,3 : -1\n"
    "  2,3,2 : (q^4+1)/q^2\n"
    "LEAD 3,3,2\n"
    "  2,3,3 : -1\n"
    "  3,2,3 : (q^4+1)/q^2\n"
    "LEAD 3,2,1,2\n"
    "  1,2,3,2 : 1\n"
    "  2,1,2,3 : -1\n"
    "  2,3,2,1 : 1\n"
)


def test_count_check_rebuilds_a_cache_short_of_a_rule(capsys, tmp_path):
    short = RewriteSystem.from_text(SHORT_N3_CACHE)
    assert not any(short.normal_form(rel) for rel in serre_relations(3))
    cap = freealg.default_cap(3)
    path = cli.cache_path(tmp_path, 3, cap)
    path.write_text(SHORT_N3_CACHE)
    rs, status = cli.load_or_build(3, cap, tmp_path)
    err = capsys.readouterr().err
    assert status == "rebuilt" and len(rs.rules) == 7
    reason = "59 normal words in degree 5, not 58"
    assert err == f"warning: cache {path} is corrupt ({reason}); rebuilding\n"
    assert path.read_text() == freealg.complete(serre_relations(3), cap, n=3).to_text()
    rs, status = cli.load_or_build(3, cap, tmp_path)
    assert status == "loaded" and rs.dimensions is None


def test_serre_check_flags_only_the_damaged_system():
    damaged = RewriteSystem.from_text(DAMAGED_N2_CACHE)
    assert sum(1 for rel in serre_relations(2) if damaged.normal_form(rel)) == 1
    for n in range(2, 6):
        rs = freealg.get_rewrite_system(n)
        assert not any(rs.normal_form(rel) for rel in serre_relations(n))


def test_damaged_system_is_singular_for_theta_power():
    with pytest.raises(SingularSystem):
        theta_power(2, 2, (1, -1), RewriteSystem.from_text(DAMAGED_N2_CACHE))


@pytest.mark.parametrize(
    "exc", [NotRightDivisible, InconsistentResult, SingularSystem, NilpotencyCapExceeded]
)
def test_inconsistency_errors_exit_4(capsys, monkeypatch, exc):
    def broken(n):
        raise exc("forced")

    monkeypatch.setattr(cli, "theta_sum", broken)
    code, _, err = run_cli(capsys, "theta", "--n", "2")
    assert code == 4
    assert err == f"error: internal inconsistency ({exc.__name__}): forced\n"


def test_deterministic_output(capsys):
    args = [
        "verify", "--suite", "hwv", "--n", "2", "--mode", "sampled",
        "--samples", "3", "--seed", "11",
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_bad_args_exit_2(capsys):
    code, _, _ = run_cli(capsys, "theta", "--n", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "theta", "--n", "2", "--method", "inductive")
    assert code == 2
