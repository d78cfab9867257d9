"""CLI surface: subcommands, exit codes, JSON output."""

import itertools
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import paritykit
from paritykit import local
from paritykit.arith import factor
from paritykit.cli import _build_parser, _parse_exact, run
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


def test_gate_names_a_supersingular_trace_outside_the_hypothesis(tmp_path, capsys):
    # member(1, 1) has a_3 = -3: supersingular at 3, yet not a_3 = 0
    message = "supersingular at 3, but a_3 = -3 is outside the a_p = 0 hypothesis"
    assert run(["analyze", "--e1", E32, "--e2", "[0,0,0,8,112]", "-p", "3"]) == 2
    assert capsys.readouterr() == ("", "error: E2 is %s\n" % message)
    curves = tmp_path / "m1.curves"
    curves.write_text("32a 32 [0,0,0,-1,0] 0\nm1 ? [0,0,0,8,112] ?\n")
    assert run(["scan", "--file", str(curves), "-p", "3"]) == 0
    assert capsys.readouterr() == ("", "skipping m1: %s\n" % message)


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
        "  warning at 2: E1[5] has conductor exponent 0 here and E2[5] has 2: no "
        "mod-5 isomorphism can exist, so a drop here rests on a vacuous hypothesis\n"
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


def test_j1728_count_above_the_ceiling_completes(capsys):
    # member(5, 20) is Verified against its base y^2 = x^3 - 5x, and sigma0
    # needs the base's trace at 108035999, above 10^8, where counting was once
    # capped.  The base has j = 1728, so that trace is the O(log ell) closed form.
    argv = ["analyze", "--e1", "[0,0,0,-5,0]", "--e2", "[0,0,0,539819995,216000002000]", "-p", "3", "--json"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["s1"] == [108035999]


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


def test_limit_exit_code(capsys):
    # The D = 35 family pair (t = 3) has Sturm bound 322560 even at the
    # reduced level, so the scan stops clean at the cap, Inconclusive.
    code = run(["analyze", "--e1", "[0,0,0,-35,0]", "--e2", "[0,0,0,93569140,39382417200]", "-p", "3"])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert "Inconclusive" in out.err
    assert "exceeds the scan cap 20000" in out.err


def test_limit_error_outside_the_scan_exits_3(capsys):
    # 2^64 + 13, the first prime from 2^64 up, is past the range of is_prime,
    # the one bound on the prime that local-info counts at.
    assert run(["local-info", "--curve", "[0,-1,1,-10,-20]", "--ell", "18446744073709551629"]) == 3
    assert capsys.readouterr() == (
        "",
        "computational limit: is_prime: 18446744073709551629 is out of supported range (< 2**64)\n",
    )


def test_a_leftover_counting_ceiling_setting_changes_nothing():
    # PARITYKIT_MAX_ELL once capped the prime counted at; a value left in a
    # caller's environment must not change any output.
    (case,) = [c for c in GOLDEN_CASES if c["stdout"] == "analyze_69_897.json"]
    runs = []
    for value in (None, "5"):
        env = _child_env()
        env.pop("PARITYKIT_MAX_ELL", None)
        if value is not None:
            env["PARITYKIT_MAX_ELL"] = value
        proc = subprocess.run([sys.executable, "-m", "paritykit.cli", *case["argv"]], capture_output=True,
                              env=env, cwd=DATA.parents[1], timeout=60)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[1] == runs[0]
    assert runs[0][:2] == (case["exit"], (GOLDEN / case["stdout"]).read_bytes())


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


def test_golden_files_and_cases_match_one_to_one():
    # A regeneration that renames or drops a case must not leave a stale file
    # behind, nor a case whose file is missing.
    named = {case[key] for case in GOLDEN_CASES for key in ("stdout", "stderr") if key in case}
    files = sorted(f.name for f in GOLDEN.iterdir() if f.name != "cases.json")
    assert sorted(named) == files


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["stdout"] for c in GOLDEN_CASES])
def test_output_matches_golden(case, capsys, monkeypatch):
    """Stdout, exit code and, where named, stderr of fixed commands, byte for byte.

    cases.json gives each command's argv (paths relative to the repository
    root), its exit code, the file holding its stdout and, for a case that
    names one, the file holding its stderr.  The files are regenerated only
    when an output change is intended.
    """
    monkeypatch.chdir(DATA.parents[1])
    code = run(case["argv"])
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / case["stdout"]).read_bytes()
    if "stderr" in case:
        assert captured.err.encode() == (GOLDEN / case["stderr"]).read_bytes()
    assert code == case["exit"]


# numpy is a test-only oracle; dataclasses (which loads inspect) and fractions
# (which loads decimal) cost milliseconds of start-up that every CLI call pays,
# and the Sturm scan's helper process is a bare os.fork, not a pool.
AVOIDED_MODULES = ["numpy", "dataclasses", "inspect", "fractions", "decimal", "multiprocessing", "concurrent"]

AVOIDING_RUN = """
import contextlib, io, json, sys
avoided = json.loads(sys.argv[3])
if sys.argv[1] == "blocked":
    for name in avoided:
        sys.modules[name] = None  # makes every import of it raise ImportError
import paritykit.cli
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = paritykit.cli.run(argv)
    results.append([code, out.getvalue()])
loaded = sorted(name for name, mod in sys.modules.items() if name.split(".")[0] in avoided and mod)
keys = [name for name in avoided if name in sys.modules]
print(json.dumps({"results": results, "loaded": loaded, "keys": keys}))
"""


@pytest.mark.parametrize("mode", ["blocked", "open"])
def test_runtime_never_imports_avoided_modules(mode):
    # With every avoided module blocked, the README pair and the family scan
    # still print their golden reports; left open, nothing imports any of
    # them (sys.modules has none of their keys afterwards).
    cases = [c for c in GOLDEN_CASES if c["stdout"] in ("analyze_69_897.json", "scan_family_d1.json")]
    assert len(cases) == 2
    argvs = json.dumps([c["argv"] for c in cases])
    proc = subprocess.run(
        [sys.executable, "-c", AVOIDING_RUN, mode, argvs, json.dumps(AVOIDED_MODULES)],
        capture_output=True, text=True, env=_child_env(), cwd=DATA.parents[1], timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    for case, (code, out) in zip(cases, child["results"]):
        assert code == case["exit"]
        assert out.encode() == (GOLDEN / case["stdout"]).read_bytes()
    assert child["loaded"] == []
    assert child["keys"] == (AVOIDED_MODULES if mode == "blocked" else [])


def test_cli_import_loads_no_json_package():
    # The JSON writer needs only the C string encoder from _json; the json
    # package would also load its decoder and scanner.  The check above cannot
    # cover json, because its own harness imports it.
    code = "import sys, paritykit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'json'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# run() reads an argv of the exact form from the option table and leaves any
# other argv to argparse; the namespaces must agree wherever the table reads.


def _readme_argvs():
    """Every ``$ paritykit ...`` command of the README, continuation lines joined."""
    lines = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    argvs = []
    for i, line in enumerate(lines):
        if line.startswith("$ paritykit "):
            command = line[2:]
            while command.endswith("\\"):
                i += 1
                command = command[:-1] + lines[i]
            argvs.append(shlex.split(command)[1:])
    return argvs


def _permuted(command, groups):
    """The argv of command with its option groups in every order."""
    return [[command, *itertools.chain(*order)] for order in itertools.permutations(groups)]


def _exact_form_corpus():
    corpus = [case["argv"] for case in GOLDEN_CASES] + _readme_argvs()
    # the request shapes of the pair-cold and scan benchmarks, options permuted
    corpus += _permuted("congruent", [["--e1", E32], ["--e2", E207], ["-p", "3"], ["--json"]])
    corpus += _permuted("analyze", [["--e1", E69], ["--e2", E897], ["-p", "5"], ["--rank1", "0"],
                                    ["--rank2", "1"], ["--json"]])
    corpus += _permuted("analyze", [["--e1", E32], ["--e2", E207], ["-p", "3"], ["--rank1", "0"],
                                    ["--rank2-bound", "1"], ["--json"]])
    corpus += _permuted("scan", [["--file", "scan-triage-0.curves"], ["-p", "5"], ["--json"]])
    return corpus


def test_exact_form_parses_as_argparse_does():
    assert len(_readme_argvs()) == 6
    parser = _build_parser()
    for argv in _exact_form_corpus():
        fast = _parse_exact(argv)
        assert fast is not None, argv
        assert vars(fast) == vars(parser.parse_args(argv)), argv


# argv left to argparse, each with the exact-form argv argparse reads it as
NONCONGRUENT = ["--e1", E69, "--e2", E32]
DEFERRED_ACCEPTED = [
    (["congruent", *NONCONGRUENT, "-p", "5", "--js"], ["congruent", *NONCONGRUENT, "-p", "5", "--json"]),
    (["congruent", "--e1=" + E69, "--e2", E32, "-p", "5"], ["congruent", *NONCONGRUENT, "-p", "5"]),
    (["congruent", *NONCONGRUENT, "-p3"], ["congruent", *NONCONGRUENT, "-p", "3"]),
    (["congruent", "--e1", E897, *NONCONGRUENT, "-p", "5"], ["congruent", *NONCONGRUENT, "-p", "5"]),
]
# argv that argparse answers with help or refuses
DEFERRED_EXITS = [
    ["congruent", "-h"],
    ["congruent", "--e1", E69],
    ["congruent", *NONCONGRUENT, "-p", "5", "--bogus"],
    ["analyze", "--e1", E69, "--e2", E897, "-p", "5", "--rank1", "-1"],
    ["analyze", "--e1", E69, "--e2", E897, "-p", "5", "--rank1", "one"],
    ["family", "--D", "1", "--t", "x"],
    [],
]


@pytest.mark.parametrize("argv, exact", DEFERRED_ACCEPTED)
def test_other_spellings_go_to_argparse(argv, exact, capsys):
    assert _parse_exact(argv) is None
    assert vars(_build_parser().parse_args(argv)) == vars(_parse_exact(exact))
    code = run(argv)
    assert (code, *capsys.readouterr()) == (run(exact), *capsys.readouterr())


@pytest.mark.parametrize("argv", DEFERRED_EXITS)
def test_help_and_usage_errors_go_to_argparse(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse_exact(argv) is None
    with pytest.raises(SystemExit) as expected:
        _build_parser().parse_args(argv)
    printed = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == expected.value.code
    assert capsys.readouterr() == printed


def test_a_negative_value_goes_to_argparse(capsys):
    # argparse reads -3 as a value, since no option looks like a negative
    # number, and the command then refuses it
    argv = ["congruent", *NONCONGRUENT, "-p", "-3"]
    assert _parse_exact(argv) is None
    assert _build_parser().parse_args(argv).p == -3
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: p must be an odd prime, got -3\n")


USAGE = DATA / "usage"
USAGE_CASES = json.loads((USAGE / "cases.json").read_text())


@pytest.mark.parametrize("case", USAGE_CASES, ids=[c.get("stdout") or c["stderr"] for c in USAGE_CASES])
def test_help_and_usage_errors_match_their_pinned_bytes(case, capsys, monkeypatch):
    """Help texts and usage errors as argparse printed them before the table.

    The files hold what the hand-built parser printed with COLUMNS=80 on
    Python 3.11; the parser built from the option table must print the same.
    """
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run(case["argv"])
    assert exc.value.code == case["exit"]
    out, err = capsys.readouterr()
    expected = {"stdout": "", "stderr": ""}
    for stream in expected:
        if stream in case:
            expected[stream] = (USAGE / case[stream]).read_text()
    assert (out, err) == (expected["stdout"], expected["stderr"])


# The modules that only help texts and usage errors need: argparse, the
# gettext it translates its messages with, and the locale that gettext loads.
PARSER_MODULES = ["argparse", "gettext", "locale"]

CANONICAL_RUN = """
import contextlib, io, json, sys
before = set(sys.modules)
import paritykit.cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = paritykit.cli.run(argv)
    results.append([code, out.getvalue()])
added = sorted(set(sys.modules) - before)
print(json.dumps({"results": results, "added": added}))
"""


def test_canonical_requests_load_no_argument_parser():
    # Compared with the modules loaded before the import, so that a site hook
    # that preloads one of them does not count against the CLI.
    cases = [c for c in GOLDEN_CASES if c["stdout"] in ("congruent_32_207.json", "scan_congruent_pair.text")]
    assert len(cases) == 2
    proc = subprocess.run(
        [sys.executable, "-c", CANONICAL_RUN, json.dumps([c["argv"] for c in cases])],
        capture_output=True, text=True, env=_child_env(), cwd=DATA.parents[1], timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    for case, (code, out) in zip(cases, child["results"]):
        assert code == case["exit"]
        assert out.encode() == (GOLDEN / case["stdout"]).read_bytes()
    assert "paritykit.cli" in child["added"]
    assert [m for m in PARSER_MODULES if m in child["added"]] == []
