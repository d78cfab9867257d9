"""CLI surface: subcommands, exit codes, JSON output."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import paritykit
from paritykit import local
from paritykit.arith import factor
from paritykit.cli import run
from paritykit.errors import ComputationLimitError

DATA = pathlib.Path(__file__).parent / "data"

E69 = "[1,0,1,-1,-1]"
E897 = "[1,0,1,130884,-59725523]"
E32 = "[0,0,0,-1,0]"
E207 = "[0,0,0,49572222344,41046438723984]"


def test_analyze_text(capsys):
    code = run(["analyze", "--e1", E69, "--e2", E897, "-p", "5", "--rank1", "0", "--rank2", "1"])
    out = capsys.readouterr()
    assert code == 0
    assert "sigma0 = {13}" in out.out
    assert "S1 = {13}, S2 = {}" in out.out
    assert "-> holds" in out.out
    assert "Verified" in out.out
    assert "hypothesis [mu_plus_minus_zero]" in out.out


def test_analyze_json(capsys):
    code = run(
        ["analyze", "--e1", E69, "--e2", E897, "-p", "5", "--rank1", "0", "--rank2", "1", "--json"]
    )
    out = capsys.readouterr()
    assert code == 0
    obj = json.loads(out.out)
    assert obj["congruence"]["status"] == "Verified"
    assert obj["congruence"]["bound"] == 6720
    assert obj["s1"] == [13]
    assert obj["relation"]["holds"] is True


def test_analyze_deduces_missing_rank(capsys):
    code = run(
        ["analyze", "--e1", E32, "--e2", E207, "-p", "3", "--rank1", "0", "--rank2-bound", "1", "--json"]
    )
    out = capsys.readouterr()
    assert code == 0
    obj = json.loads(out.out)
    assert obj["s1"] == [83] and obj["s2"] == []
    assert obj["ranks"]["deduced"] == {
        "curve": "e2",
        "parity": "odd",
        "exact": 1,
        "candidates": [1],
    }


def test_analyze_detects_violation(capsys):
    code = run(["analyze", "--e1", E69, "--e2", E897, "-p", "5", "--rank1", "0", "--rank2", "0"])
    out = capsys.readouterr()
    assert code == 1
    assert "VIOLATED" in out.out


def test_analyze_noncongruent_pair_fails(capsys):
    # 14a is supersingular at 5, like 69a, but not congruent to it
    code = run(["analyze", "--e1", E69, "--e2", "[1,0,1,4,-6]", "-p", "5"])
    out = capsys.readouterr()
    assert code == 1
    assert "congruence Failed" in out.err


@pytest.mark.parametrize("extra", [[], ["--assume-congruent"]])
def test_analyze_gates_supersingularity_before_the_scan(extra, capsys, monkeypatch):
    # a_5(11a) = 1: the pair is refused before any congruence scan
    def refuse(*args):
        raise AssertionError("check_congruence called")

    monkeypatch.setattr(paritykit.cli, "check_congruence", refuse)
    e11, e37 = "[0,-1,1,-10,-20]", "[0,0,1,-1,0]"
    assert run(["analyze", "--e1", e11, "--e2", e37, "-p", "5", *extra]) == 2
    assert capsys.readouterr() == ("", "error: E1 is not supersingular at 5 (a_p must be 0)\n")
    assert run(["analyze", "--e1", E69, "--e2", E32, "-p", "5", *extra]) == 2
    assert capsys.readouterr() == ("", "error: E2 is not supersingular at 5 (a_p must be 0)\n")


def test_analyze_usage_errors(capsys):
    assert run(["analyze", "--e1", E69, "--e2", E897, "-p", "4"]) == 2
    assert run(["analyze", "--e1", "[1,2]", "--e2", E897, "-p", "5"]) == 2
    assert (
        run(["analyze", "--e1", E69, "--e2", E897, "-p", "5", "--rank2", "1", "--rank2-bound", "1"])
        == 2
    )
    capsys.readouterr()


def test_rank2_bound_needs_the_rank_of_e1(tmp_path, capsys):
    message = "error: --rank2-bound needs the rank of E1: pass --rank1 or a --ranks-file entry\n"
    argv = ["analyze", "--e1", E69, "--e2", E897, "-p", "5", "--rank2-bound", "3"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", message)
    ranks = tmp_path / "ranks.curves"
    ranks.write_text("69a 69 [1,0,1,-1,-1] ?\n897d 897 [1,0,1,130884,-59725523] ?\n")
    assert run([*argv, "--ranks-file", str(ranks)]) == 2
    assert capsys.readouterr() == ("", message)
    # with the rank of E1 from the file the bound is used
    ranks.write_text("69a 69 [1,0,1,-1,-1] 0\n897d 897 [1,0,1,130884,-59725523] ?\n")
    assert run([*argv, "--ranks-file", str(ranks)]) == 0
    assert "deduced rank of e2: parity odd, candidates {1, 3}\n" in capsys.readouterr().out


def test_ranks_file_matches_a_curve_by_its_minimal_model(capsys):
    # 69a scaled by u = 7 is not in the file, but its minimal model is
    e69_scaled = "[7,0,343,-2401,-117649]"
    argv = ["analyze", "--e1", e69_scaled, "--e2", E897, "-p", "5", "--json"]
    assert run([*argv, "--ranks-file", str(DATA / "congruent_pair.curves")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [c["label"] for c in obj["curves"]] == ["69a", "897d"]
    assert obj["ranks"]["known"] == {"e1": 0, "e2": 1}


def test_ranks_file_match_factors_no_number_twice(monkeypatch, capsys):
    # minimal_model takes its candidate primes from gcd(c4, c6), not from the
    # discriminant that the curve's local data factors.
    argv = ["analyze", "--e1", "[7,0,343,-2401,-117649]", "--e2", E897, "-p", "5",
            "--ranks-file", str(DATA / "congruent_pair.curves")]
    assert run(argv) == 0
    expected = capsys.readouterr()
    seen = []

    def recording_factor(n, *args, **kwargs):
        seen.append(abs(n))
        return factor(n, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("paritykit") and getattr(module, "factor", None) is factor:
            monkeypatch.setattr(module, "factor", recording_factor)
    assert run(argv) == 0
    assert capsys.readouterr() == expected
    assert seen and len(seen) == len(set(seen)), seen


def test_ranks_file_without_a_match_keeps_the_default_labels(tmp_path, capsys):
    # No record matches either curve, so the labels stay E1 and E2 and the
    # ranks come from the flags alone.
    ranks = tmp_path / "ranks.curves"
    ranks.write_text("11a 11 [0,-1,1,-10,-20] 0\n")
    argv = ["analyze", "--e1", E69, "--e2", E897, "-p", "5", "--rank1", "0", "--ranks-file", str(ranks)]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert "E1 = [1,0,1,-1,-1]  (E1, N = 69)\n" in out
    assert "E2 = [1,0,1,130884,-59725523]  (E2, N = 897)\n" in out
    assert "ranks: E1 0, E2 unknown\n" in out
    assert run([*argv, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [c["label"] for c in obj["curves"]] == ["E1", "E2"]
    assert obj["ranks"]["known"] == {"e1": 0, "e2": None}


def test_text_report_prints_the_warning_of_a_sigma0_prime(capsys):
    # 27a is good at 2 and the curve y^2 = x^3 + 1 (36a) additive there, so
    # the drop at 2 rests on a congruence that cannot hold.
    argv = ["analyze", "--e1", "[0,0,1,0,-7]", "--e2", "[0,0,0,0,1]", "-p", "5", "--assume-congruent"]
    assert run(argv) == 0
    assert (
        "  warning at 2: additive for E2 yet good for E1: no mod-5 isomorphism can "
        "exist, so this drop rests on a vacuous hypothesis\n"
    ) in capsys.readouterr().out


def test_analyze_assume_congruent_on_a_failed_pair(capsys):
    # 14a is supersingular at 5 but not congruent to 69a: the report goes on
    # under the caller's assertion and names the witness.
    code = run(["analyze", "--e1", E69, "--e2", "[1,0,1,4,-6]", "-p", "5", "--assume-congruent"])
    out = capsys.readouterr()
    assert code == 0
    assert "congruence: Failed (level 24150, Sturm bound 11520, 1 primes compared)\n" in out.out
    assert "  witness: ell = 2, traces 1 vs -3\n" in out.out
    assert "Proceeding anyway because the caller asserted the congruence." in out.out


def test_analyze_verdict_line_names_the_status_first(capsys):
    # Every caveat opens with what Verified certifies, so the status goes first.
    argv = ["analyze", "--e1", "[0,0,1,0,-7]", "--e2", "[0,0,0,0,1]", "-p", "5", "--assume-congruent"]
    assert run(argv) == 0
    (line,) = [x for x in capsys.readouterr().err.splitlines() if x.startswith("congruence verdict: ")]
    assert line.startswith("congruence verdict: Failed. Verified certifies congruence of ")
    assert line.endswith(" First mismatch at ell = 7.")
    assert run(["analyze", "--e1", E69, "--e2", E897, "-p", "5"]) == 0
    assert capsys.readouterr().err.startswith("congruence verdict: Verified. Verified certifies ")


@pytest.mark.parametrize(
    "ranks",
    [["--rank1", "-1", "--rank2", "1"], ["--rank1", "-1"], ["--rank1", "0", "--rank2-bound", "-1"]],
)
def test_analyze_negative_ranks_are_usage_errors(ranks, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--e1", E69, "--e2", E897, "-p", "5", *ranks])
    assert exc.value.code == 2
    assert "must be a non-negative integer" in capsys.readouterr().err


def test_analyze_deduction_contradiction(capsys):
    code = run(
        ["analyze", "--e1", E69, "--e2", E897, "-p", "5", "--rank1", "0", "--rank2-bound", "0"]
    )
    out = capsys.readouterr()
    assert code == 1
    assert "parity contradicts bound" in out.err


def test_analyze_ranks_file(capsys):
    code = run(
        [
            "analyze",
            "--e1", E69,
            "--e2", E897,
            "-p", "5",
            "--ranks-file", str(DATA / "congruent_pair.curves"),
            "--json",
        ]
    )
    out = capsys.readouterr()
    assert code == 0
    obj = json.loads(out.out)
    assert obj["curves"][0]["label"] == "69a"
    assert obj["curves"][1]["label"] == "897d"
    assert obj["ranks"]["known"] == {"e1": 0, "e2": 1}
    assert obj["relation"]["holds"] is True


def test_congruent_verified(capsys):
    assert run(["congruent", "--e1", E69, "--e2", E897, "-p", "5"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("Verified")


def test_congruent_failed(capsys):
    assert run(["congruent", "--e1", E69, "--e2", E32, "-p", "5"]) == 1
    out = capsys.readouterr()
    assert "witness: ell = 2" in out.out


def test_congruent_json(capsys):
    assert run(["congruent", "--e1", E32, "--e2", E207, "-p", "3", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "Verified"
    assert obj["level"] == 288
    assert obj["bound"] == 96
    assert obj["witness"] is None


def test_local_info_all_bad_primes(capsys):
    assert run(["local-info", "--curve", E897]) == 0
    out = capsys.readouterr().out
    assert "conductor 897" in out
    assert "ell 3" in out and "ell 13" in out and "ell 23" in out
    assert "I10" in out


def test_local_info_single_prime_json(capsys):
    assert run(["local-info", "--curve", E32, "--ell", "2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["conductor"] is None
    assert obj["local"] == [
        {"ell": 2, "type": "Additive", "cond_exp": 5, "v_disc": 6, "trace": 0, "kodaira": "III"}
    ]


def test_local_info_good_prime(capsys):
    assert run(["local-info", "--curve", E69, "--ell", "13", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["local"][0]["type"] == "Good"
    assert obj["local"][0]["trace"] == -6


def test_local_info_rejects_non_prime(capsys):
    for ell in ("-5", "1", "4"):
        assert run(["local-info", "--curve", E69, "--ell", ell]) == 2
        assert capsys.readouterr().err == "error: %s is not a prime\n" % ell


def test_family_command(capsys):
    assert run(["family", "--D", "1", "--t", "207"]) == 0
    assert capsys.readouterr().out.strip() == E207
    assert run(["family", "--D", "1", "--t", "207", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"D": 1, "t": 207, "coefficients": ["0", "0", "0", "49572222344", "41046438723984"]}


def test_family_rejects_bad_D(capsys):
    assert run(["family", "--D", "0", "--t", "1"]) == 2
    capsys.readouterr()


def test_scan(capsys):
    assert run(["scan", "--file", str(DATA / "congruent_pair.curves"), "-p", "5", "--json"]) == 0
    out = capsys.readouterr()
    reports = json.loads(out.out)
    assert len(reports) == 1
    assert reports[0]["curves"][0]["label"] == "69a"
    assert reports[0]["relation"]["holds"] is True


def test_scan_skips_ineligible(capsys):
    extra = DATA / "mixed.curves"
    extra.write_text(
        "69a 69 [1,0,1,-1,-1] 0\n"
        "897d 897 [1,0,1,130884,-59725523] 1\n"
        "11a1 11 [0,-1,1,-10,-20] 0\n"
    )
    try:
        assert run(["scan", "--file", str(extra), "-p", "5", "--json"]) == 0
        out = capsys.readouterr()
        assert "skipping 11a1: not supersingular at 5" in out.err
        assert len(json.loads(out.out)) == 1
    finally:
        extra.unlink()


def test_scan_skips_bad_records_and_unverified_pairs_and_flags_violations(tmp_path, capsys):
    # 15a is bad at 5; 14a is supersingular at 5 but congruent to neither
    # other curve; 69a and 897d with ranks 0 and 0 violate the relation.
    path = tmp_path / "scan.curves"
    path.write_text(
        "69a 69 [1,0,1,-1,-1] 0\n"
        "14a 14 [1,0,1,4,-6] 0\n"
        "15a 15 [1,1,1,-10,-10] 0\n"
        "897d 897 [1,0,1,130884,-59725523] 0\n"
    )
    assert run(["scan", "--file", str(path), "-p", "5"]) == 1
    out = capsys.readouterr()
    assert out.err == (
        "skipping 15a: p must be a good prime\n"
        "69a / 14a: congruence Failed\n"
        "14a / 897d: congruence Failed\n"
    )
    assert out.out.count("congruence: Verified") == 1
    assert "relation: r1 + |S1| = 1, r2 + |S2| = 0 (mod 2) -> VIOLATED\n" in out.out


def test_scan_factors_each_record_once(tmp_path, monkeypatch, capsys):
    # A discriminant that runs out of factoring budget (64, that of b1) costs
    # one attempt and one line, and the other pairs report as if b1 were absent.
    without_b1 = tmp_path / "without_b1.curves"
    lines = (DATA / "family_d1.curves").read_text().splitlines(keepends=True)
    without_b1.write_text("".join(line for line in lines if not line.startswith("b1 ")))
    assert run(["scan", "--file", str(without_b1), "-p", "3"]) == 0
    expected = capsys.readouterr()
    assert expected.out.count("congruence: Verified") == 6
    attempts = []

    def out_of_budget_on_64(n, *args, **kwargs):
        if abs(n) == 64:
            attempts.append(n)
            raise ComputationLimitError("factorization incomplete: time budget exhausted on 64")
        return factor(n, *args, **kwargs)

    monkeypatch.setattr(local, "factor", out_of_budget_on_64)
    assert run(["scan", "--file", str(DATA / "family_d1.curves"), "-p", "3"]) == 0
    out = capsys.readouterr()
    assert len(attempts) == 1
    assert out.err == expected.err + "skipping b1: factorization incomplete: time budget exhausted on 64\n"
    assert out.out == expected.out


def test_scan_reports_a_pair_whose_sigma0_needs_a_count_above_the_ceiling(monkeypatch, capsys):
    # Every pair is Verified at the reduced level (bound 96), which drops the
    # multiplicative primes 44651 of m9 and 51133 of m12.  sigma0 then needs
    # the other curve's trace there, above the ceiling: the pair is reported
    # and the scan goes on.
    monkeypatch.setenv("PARITYKIT_MAX_ELL", "1000")
    assert run(["scan", "--file", str(DATA / "family_d1.curves"), "-p", "3"]) == 0
    out = capsys.readouterr()
    message = "prime too large for point counting: %d exceeds the ceiling 1000; raise PARITYKIT_MAX_ELL"
    assert out.err.splitlines() == [
        "%s / %s: %s" % (a, b, message % ell)
        for a, b, ell in (("b1", "m9", 44651), ("b1", "m12", 51133), ("m3", "m9", 44651),
                          ("m3", "m12", 51133), ("m6", "m9", 44651), ("m6", "m12", 51133),
                          ("m9", "m12", 44651))
    ]
    assert out.out.count("congruence: Verified") == 3


def test_singular_input_is_a_usage_error(tmp_path, capsys):
    for text in ("cusp ? [0,0,0,0,0] ?\n", "cusp 11 [0,0,0,0,0] 0\n", "node ? [0,1,0,0,0] ?\n"):
        path = tmp_path / "singular.curves"
        path.write_text("69a 69 [1,0,1,-1,-1] 0\n" + text)
        message = "error: line 2 (%s): curve is singular\n" % text.split()[0]
        assert run(["scan", "--file", str(path), "-p", "5"]) == 2
        assert capsys.readouterr() == ("", message)
        assert run(["analyze", "--e1", E69, "--e2", E897, "-p", "5", "--ranks-file", str(path)]) == 2
        assert capsys.readouterr() == ("", message)
    for e1, e2 in (("[0,0,0,0,0]", E69), (E69, "[0,1,0,0,0]")):
        assert run(["analyze", "--e1", e1, "--e2", e2, "-p", "5"]) == 2
        assert capsys.readouterr() == ("", "error: singular model: discriminant is zero\n")


def test_duplicate_labels_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "dup.curves"
    path.write_text("a 69 [1,0,1,-1,-1] 0\na 897 [1,0,1,130884,-59725523] 1\n")
    message = "error: line 2 (a): duplicate label, first on line 1\n"
    assert run(["scan", "--file", str(path), "-p", "5"]) == 2
    assert capsys.readouterr() == ("", message)
    argv = ["analyze", "--e1", E69, "--e2", E897, "-p", "5", "--ranks-file", str(path)]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", message)


def test_scan_missing_file(capsys):
    assert run(["scan", "--file", "/nonexistent/path.curves", "-p", "5"]) == 2
    capsys.readouterr()


def test_limit_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("PARITYKIT_MAX_ELL", "5")
    code = run(["analyze", "--e1", E69, "--e2", E897, "-p", "5"])
    out = capsys.readouterr()
    assert code == 3
    assert "Inconclusive" in out.err


def test_limit_error_outside_the_scan_exits_3(capsys, monkeypatch):
    # local-info counts at 101 directly; the limit error reaches cli.run.
    monkeypatch.setenv("PARITYKIT_MAX_ELL", "100")
    assert run(["local-info", "--curve", "[0,-1,1,-10,-20]", "--ell", "101"]) == 3
    assert capsys.readouterr() == (
        "",
        "computational limit: prime too large for point counting: 101 exceeds the "
        "ceiling 100; raise PARITYKIT_MAX_ELL\n",
    )


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def _declared_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the flat table by hand
        table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        pairs = (line.split("=", 1) for line in table.splitlines() if "=" in line)
        return {k.strip(): v.strip().strip('"') for k, v in pairs}
    return tomllib.loads(text)["project"]["scripts"]


def _child_env():
    """Environment that imports paritykit from the same directory as this process."""
    src = str(pathlib.Path(paritykit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_installed_entry_point():
    """Run the declared console-script target in a child process.

    The target is taken from pyproject.toml and imported from the same
    package directory as this test process, so the test needs no installed
    ``paritykit`` executable and works from any working directory.
    """
    target = _declared_scripts().get("paritykit")
    assert target == "paritykit.cli:main"
    module, attr = target.split(":")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from %s import %s; sys.exit(%s())" % (module, attr, attr),
            "family", "--D", "2", "--t", "3",
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0,0,0,16846,419952]"


def test_module_entry_point():
    """``python -m paritykit.cli`` runs main like the console script does."""
    proc = subprocess.run(
        [sys.executable, "-m", "paritykit.cli", "family", "--D", "1", "--t", "3"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0,0,0,2024,26256]"


GOLDEN = DATA / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["stdout"] for c in GOLDEN_CASES])
def test_output_matches_golden(case, capsys, monkeypatch):
    """Stdout and exit code of fixed commands, byte for byte.

    cases.json gives each command's argv (paths relative to the repository
    root), its exit code and the file holding its stdout.  The files are
    regenerated only when an output change is intended.
    """
    monkeypatch.chdir(DATA.parents[1])
    code = run(case["argv"])
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / case["stdout"]).read_bytes()
    assert code == case["exit"]
