import dataclasses
import json
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from keymark.cli import main
from keymark.construct_b import construct_b
from keymark.core import TokenDistribution
from keymark.metrics import check_scheme, error_report
from keymark.serialize import save_scheme

INSTANCE_A = ["--px", "0.05,0.1,0.25,0.6", "--alpha", "0.9", "--t", "3"]
INSTANCE_B = ["--px", "0.1,0.3,0.6", "--alpha", "0.8", "--t", "2"]
SKEWED = ["--px", "0.01,0.04,0.95", "--alpha", "0.99", "--t", "2"]
README = Path(__file__).resolve().parents[1] / "README.md"
TERMS_B = ["--term", "0.1:1100", "--term", "0.2:0110", "--term", "0.2:0011"]


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def write_scheme(capsys, tmp_path, name="scheme.json"):
    path = tmp_path / name
    code, _ = run(capsys, "construct", *INSTANCE_A, "--out", str(path))
    assert code == 0
    return path


def test_construct_text_summary(capsys) -> None:
    code, out = run(capsys, "construct", *INSTANCE_A)
    assert code == 0
    assert "n=4 t=3 alpha=0.9" in out
    assert "beta: 0.3 0.3 0.3" in out
    assert "optimal: 0.3  gap: 0" in out
    assert "worst false alarm: 0.9" in out
    assert "keys in support: 13" in out


def test_construct_json_embeds_document(capsys) -> None:
    code, payload = run_json(capsys, "construct", *INSTANCE_A)
    assert code == 0
    assert payload["beta"] == ["0.3", "0.3", "0.3"]
    assert payload["gap"] == "0"
    assert payload["scheme"]["version"] == 1
    assert set(payload["scheme"]["tables"]) == {"1", "2", "3"}


def test_construct_method_b_with_terms(capsys) -> None:
    code, payload = run_json(
        capsys, "construct", *INSTANCE_B, "--method", "b", "--force-pseudo", *TERMS_B
    )
    assert code == 0
    assert payload["beta"] == ["0.2", "0.2"]
    assert payload["worst_false_alarm"] == "0.8"
    assert payload["key_support"] == 6


def test_construct_writes_and_verify_round_trip(capsys, tmp_path) -> None:
    path = write_scheme(capsys, tmp_path)
    code, out = run(capsys, "verify", str(path))
    assert code == 0
    assert "column-sum: ok" in out
    assert "mass: ok" in out


def test_verify_reports_failures(capsys, tmp_path) -> None:
    # Inflating one cell of table 2 keeps the document loadable (the key
    # marginal derives from table 1) but breaks column sums and total mass.
    path = write_scheme(capsys, tmp_path)
    doc = json.loads(path.read_text())
    doc["tables"]["2"][0][2] = "0.5"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "verify", str(bad))
    assert code == 1
    assert not payload["ok"]
    failed = {p["name"] for p in payload["properties"] if not p["passed"]}
    assert "column-sum" in failed and "mass" in failed


def test_verify_reports_failures_past_an_invalid_error_report(capsys, tmp_path) -> None:
    # Tripling table 2 puts its miss rate above 1, so no error report can be
    # built; verify still lists the failing properties and exits 1.
    path = tmp_path / "scheme.json"
    code, _ = run(capsys, "construct", "--px", "0.1,0.3,0.6", "--alpha", "0.5", "--t", "2",
                  "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    for cell in doc["tables"]["2"]:
        cell[2] = str(Fraction(cell[2]) * 3)
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "verify", str(path))
    assert code == 1
    assert not payload["ok"]
    failed = [p["name"] for p in payload["properties"] if not p["passed"]]
    assert failed == ["column-sum", "row-sum", "mass"]
    assert "outside [0,1]" in payload["report_error"]
    code, out = run(capsys, "verify", str(path))
    assert code == 1
    assert "mass: FAIL at m=2 total (expected 1, got 3)" in out
    assert "error report unavailable" in out


def test_verify_reports_a_tampered_key_marginal(capsys, tmp_path) -> None:
    # The key marginal is table 1's row sums, so a tampered table-1 cell is
    # reported like one in any other table: the full property report, exit 1.
    path = write_scheme(capsys, tmp_path)
    doc = json.loads(path.read_text())
    doc["tables"]["1"][0][2] = "0.5"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(path))
    assert code == 1
    assert "column-sum: FAIL at m=1" in out
    assert "row-sum: FAIL" in out
    assert "mass: FAIL at m=1 total" in out


@pytest.mark.parametrize("m", ["0", "1"])
def test_simulate_refuses_a_scheme_that_fails_its_checks(capsys, tmp_path, m) -> None:
    # Without the check, --m 0 estimated the masses renormalised to 1 next to
    # an "exact" value of the raw ones, z far outside any bound, and exited 0.
    path = write_scheme(capsys, tmp_path)
    doc = json.loads(path.read_text())
    doc["tables"]["1"][0][2] = "0.5"
    path.write_text(json.dumps(doc))
    _, verified = run(capsys, "verify", str(path))
    code, out = run(capsys, "simulate", str(path), "--m", m, "--trials", "100")
    assert code == 1
    # verify's five property lines, and nothing after them.
    assert out.splitlines() == verified.splitlines()[:5]
    assert "mass: FAIL at m=1 total" in out
    code, payload = run_json(capsys, "simulate", str(path), "--m", m)
    assert code == 1
    assert not payload["ok"] and "estimate" not in payload
    assert [p["name"] for p in payload["properties"] if not p["passed"]] == [
        "column-sum", "row-sum", "mass"
    ]


def test_simulate_false_alarm_on_an_empty_table_one_exits_2(capsys, tmp_path) -> None:
    # An empty table 1 loads (verify reports it), but leaves no key to draw.
    path = write_scheme(capsys, tmp_path)
    doc = json.loads(path.read_text())
    doc["tables"]["1"] = []
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    capsys.readouterr()
    assert main(["simulate", str(path), "--m", "0", "--trials", "10"]) == 2
    assert "table m=1 is empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(tables=list(d["tables"].values())),
        lambda d: d["tables"]["1"].__setitem__(0, 7),
        lambda d: d.update(n="4"),
        lambda d: d["tables"]["1"][0].__setitem__(0, True),
        lambda d: d["tables"].update({"4": d["tables"]["1"]}),
        lambda d: d["tables"]["2"][0].__setitem__(2, "abc"),
        lambda d: d["tables"]["2"][0].__setitem__(2, []),
        lambda d: d["px"].__setitem__(0, "1/0"),
    ],
)
def test_verify_malformed_document_exits_2(capsys, tmp_path, mutate) -> None:
    path = write_scheme(capsys, tmp_path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_loads_scheme_built_above_the_cap(capsys, tmp_path) -> None:
    # perm(200, 3) = 7,880,400 placements exceed the enumeration cap, but
    # neither construct_b nor loading lists them.
    px = TokenDistribution.from_fractions([Fraction(1, 200)] * 200)
    path = tmp_path / "uniform.json"
    save_scheme(construct_b(px, Fraction(1, 2), 3), path)
    code, payload = run_json(capsys, "verify", str(path))
    assert code == 0
    assert payload["ok"]


def test_verify_document_with_a_huge_key_length(capsys, tmp_path) -> None:
    # The reduced key set is lazy: ranking and unranking the support keys
    # of a 10^9-long key set touch only their T nonzero positions, so verify
    # answers.  The same key indices now name other keys, which no longer
    # cover every real token.
    path = write_scheme(capsys, tmp_path)
    doc = json.loads(path.read_text())
    doc["keyset"]["length"] = 10**9
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "verify", str(path))
    assert code == 1
    assert [p["name"] for p in payload["properties"] if not p["passed"]] == ["capped-column-sum"]
    assert payload["key_support"] == 13


def test_optimal_value_command(capsys) -> None:
    code, out = run(capsys, "optimal", *INSTANCE_A)
    assert code == 0
    assert out.strip() == "0.3"
    code, payload = run_json(capsys, "optimal", *SKEWED)
    assert code == 0
    assert payload == {"optimal": "0.455"}


def test_lp_reduced_matches_formula(capsys) -> None:
    code, payload = run_json(capsys, "lp", *SKEWED)
    assert code == 0
    assert payload["status"] == "optimal"
    assert payload["keys"] == 7 and payload["variables"] == 50
    # Construction A and the closed-form dual certify the 50-column LP, so
    # no simplex runs.
    assert (payload["solved_variables"], payload["solved_rows"]) == (0, 0)
    assert payload["phase1_pivots"] == payload["phase2_pivots"] == payload["degenerate_pivots"] == 0
    assert payload["lp_optimal"] == "0.455"
    assert payload["lp_minus_formula"] == "0"


def test_lp_bijective_shows_gap(capsys, tmp_path) -> None:
    lp_path = tmp_path / "problem.lp"
    code, payload = run_json(
        capsys, "lp", *SKEWED, "--keyset", "bijective", "--export-lp", str(lp_path)
    )
    assert code == 0
    assert payload["keys"] == 4 and payload["variables"] == 29
    # The bijective set is not closed under relabelling, so the full LP ran.
    assert (payload["solved_variables"], payload["solved_rows"]) == (29, 19)
    assert payload["formula"] == "0.455"
    assert payload["lp_optimal"] == "0.47"
    assert payload["lp_minus_formula"] == "0.015"
    assert lp_path.read_text().startswith("Minimize")


@pytest.mark.parametrize("keyset", ["reduced", "bijective"])
def test_lp_refuses_t_outside_the_token_range_like_construct(capsys, keyset) -> None:
    argv = ["--px", "0.5,0.5", "--alpha", "0.5", "--t", "3"]
    assert main(["lp", *argv, "--keyset", keyset]) == 2
    assert capsys.readouterr().err.strip() == "error: t=3 outside [1:2]"
    assert main(["construct", *argv]) == 2
    assert capsys.readouterr().err.strip() == "error: t=3 outside [1:2]"


def test_simulate_command(capsys, tmp_path) -> None:
    path = write_scheme(capsys, tmp_path)
    code, payload = run_json(
        capsys, "simulate", str(path), "--m", "1", "--trials", "2000", "--seed", "7"
    )
    assert code == 0
    assert payload["m"] == 1 and payload["trials"] == 2000
    assert payload["exact"] == "0.3"
    assert payload["hits"] + 0 == round(payload["estimate"] * 2000)
    assert abs(payload["z_score"]) <= 5


def test_simulate_rejects_a_negative_seed(capsys, tmp_path) -> None:
    # Run as a script: a numpy error would print a traceback and exit 1,
    # the code for a failed property.
    path = write_scheme(capsys, tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "keymark.cli", "simulate", str(path), "--seed", "-1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: seed=-1 must be non-negative\n"


def test_export_command(capsys, tmp_path) -> None:
    path = write_scheme(capsys, tmp_path)
    code, out = run(capsys, "export", str(path))
    assert code == 0
    assert out.startswith("# n,4")
    assert "m,key_index,key,token,mass" in out
    csv_path = tmp_path / "scheme.csv"
    code, out = run(capsys, "export", str(path), "--out", str(csv_path))
    assert code == 0
    assert "csv written to" in out
    assert csv_path.read_text().startswith("# n,4")


def test_export_refuses_keys_too_long_to_spell_out(capsys, tmp_path) -> None:
    # A reduced document may declare any key length >= n; each CSV row
    # would spell out 10^20 entries.
    path = write_scheme(capsys, tmp_path)
    doc = json.loads(path.read_text())
    doc["keyset"]["length"] = 10**20
    path.write_text(json.dumps(doc))
    csv_path = tmp_path / "scheme.csv"
    assert main(["export", str(path), "--out", str(csv_path)]) == 3
    assert "key entries per CSV row" in capsys.readouterr().err
    assert not csv_path.exists()


def test_config_file_supplies_defaults(capsys, tmp_path) -> None:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# instance defaults\n"
        "px = 0.1,0.3,0.6\n"
        "alpha = 0.8\n"
        "t = 2\n"
        "method = b\n"
        "force_pseudo = true\n"
    )
    code, payload = run_json(capsys, "construct", "--config", str(cfg))
    assert code == 0
    assert payload["n"] == 3 and payload["t"] == 2
    assert payload["alpha"] == "0.8"
    assert payload["key_support"] == 6


def test_explicit_flags_override_config(capsys, tmp_path) -> None:
    cfg = tmp_path / "run.cfg"
    cfg.write_text("px=0.1,0.3,0.6\nalpha=0.8\nt=2\n")
    code, payload = run_json(capsys, "optimal", "--config", str(cfg), "--alpha", "0.5")
    assert code == 0
    assert payload == {"optimal": "0.4"}


def test_usage_errors_exit_2(capsys, tmp_path) -> None:
    assert main(["construct", "--alpha", "0.9", "--t", "3"]) == 2
    assert main(["construct", *INSTANCE_A, "--term", "0.1:110"]) == 2
    assert main(["construct", *INSTANCE_B, "--method", "b", "--term", "0.1:bad"]) == 2
    # BITS of mixed widths, and BITS wider than N + pseudo tokens (3 + 0 here).
    mixed = ["--term", "0.1:1100", "--term", "0.2:011", "--term", "0.2:0011"]
    assert main(["construct", *INSTANCE_B, "--method", "b", "--force-pseudo", *mixed]) == 2
    assert main(["construct", *INSTANCE_B, "--method", "b", *TERMS_B]) == 2
    assert main(["construct", *INSTANCE_A, "--force-pseudo"]) == 2
    assert main(["export", "nonexistent.json"]) == 2
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("no equals sign\n")
    assert main(["optimal", "--config", str(bad_cfg)]) == 2
    bool_cfg = tmp_path / "bool.cfg"
    bool_cfg.write_text("px=0.1,0.3,0.6\nalpha=0.8\nt=2\nmethod=b\nforce_pseudo=maybe\n")
    assert main(["construct", "--config", str(bool_cfg)]) == 2
    capsys.readouterr()
    assert main(["optimal", "--px", "0.2,0.3,0.5", "--alpha", "0.5", "--t", "abc"]) == 2
    assert "t must be an integer, got 'abc'" in capsys.readouterr().err
    path = write_scheme(capsys, tmp_path)
    for setting in ("m=x", "trials=1e5", "seed=0.5"):
        int_cfg = tmp_path / "sim.cfg"
        int_cfg.write_text(setting + "\n")
        assert main(["simulate", str(path), "--config", str(int_cfg)]) == 2
        assert "must be an integer" in capsys.readouterr().err


def test_config_file_json_setting(capsys, tmp_path) -> None:
    cfg = tmp_path / "run.cfg"
    cfg.write_text("px=0.1,0.3,0.6\nalpha=0.8\nt=2\njson=false\n")
    code, out = run(capsys, "optimal", "--config", str(cfg))
    assert (code, out) == (0, "0.2\n")
    cfg.write_text("px=0.1,0.3,0.6\nalpha=0.8\nt=2\njson=true\n")
    code, out = run(capsys, "optimal", "--config", str(cfg))
    assert (code, json.loads(out)) == (0, {"optimal": "0.2"})
    cfg.write_text("px=0.1,0.3,0.6\nalpha=0.8\nt=2\njson=sometimes\n")
    assert main(["optimal", "--config", str(cfg)]) == 2
    capsys.readouterr()
    # A bad setting is refused before a scheme is built or written.
    out = tmp_path / "scheme.json"
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 2
    assert "not a boolean" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_rejects_unknown_keys(capsys, tmp_path) -> None:
    # A mistyped key is refused before a scheme is built or written.
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "scheme.json"
    cfg.write_text("px=0.1,0.3,0.6\nalpha=0.8\nt=2\nmethd=b\n")
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config file sets methd, which construct does not take" in capsys.readouterr().err
    assert not out.exists()
    # So is a setting that only another subcommand takes.
    cfg.write_text("px=0.1,0.3,0.6\nalpha=0.8\nt=2\nkeyset=bijective\n")
    assert main(["optimal", "--config", str(cfg)]) == 2
    assert "keyset" in capsys.readouterr().err
    code, payload = run_json(capsys, "lp", "--config", str(cfg))
    assert (code, payload["keyset"]) == (0, "bijective")


def test_config_file_terms_match_flags(capsys, tmp_path) -> None:
    # A config term value lists MASS:BITS items separated by commas.
    flags = ["--term", "0.1:101", "--term", "0.3:011"]
    code, from_flags = run_json(capsys, "construct", *INSTANCE_B, "--method", "b", *flags)
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("px=0.1,0.3,0.6\nalpha=0.8\nt=2\nmethod=b\nterm=0.1:101, 0.3:011\n")
    code, from_config = run_json(capsys, "construct", "--config", str(cfg))
    assert code == 0
    assert from_config == from_flags


def test_config_file_rejects_repeated_keys(capsys, tmp_path) -> None:
    # A repeated key is refused, naming both lines, before anything is written.
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "scheme.json"
    cfg.write_text(
        "px=0.1,0.3,0.6\nalpha=0.8\nt=2\nmethod=b\nterm=0.1:101\n# second\nterm=0.3:011\n"
    )
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}:7: term is already set on line 5" in capsys.readouterr().err
    assert not out.exists()
    # Spellings that name the same setting count as one key.
    cfg.write_text("px=0.1,0.3,0.6\nalpha=0.8\nt=2\nmethod=b\nforce-pseudo=true\nforce_pseudo=false\n")
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 2
    assert "force_pseudo is already set on line 5" in capsys.readouterr().err
    assert not out.exists()


def test_construct_rejects_cancelling_terms(capsys, tmp_path) -> None:
    # The greedy terms plus four that cancel still reconstruct px', but two
    # of them carry negative mass; nothing may be written.
    greedy = ["1/5:0011", "1/10:1100", "1/20:0110", "1/20:0101"]
    cancelling = ["1/100:1100", "1/100:0011", "-1/100:1010", "-1/100:0101"]
    terms = [f"--term={term}" for term in greedy + cancelling]
    path = tmp_path / "scheme.json"
    argv = ["construct", "--px", "0.1,0.2,0.3,0.4", "--alpha", "1/2", "--t", "2", "--method", "b"]
    assert main([*argv, *terms[:4], "--out", str(path)]) == 0
    path.unlink()
    assert main([*argv, *terms, "--out", str(path)]) == 2
    assert "non-positive weight" in capsys.readouterr().err
    assert not path.exists()


def test_argparse_level_errors(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["construct", *INSTANCE_A, "--method", "c"])
    assert exc.value.code == 2
    for command in (["construct", *INSTANCE_A], ["lp", *SKEWED]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--cap", "1"])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["export", "scheme.json", "--format", "csv"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


def test_one_heavy_t5_builds_and_verifies(capsys, tmp_path) -> None:
    # One 0.95 token among 25 at T=5: construction A lists 5 * 24 windowed
    # anchored keys, where every key nonzero at the anchor, 5 * perm(24, 4)
    # = 1,275,120 of them, exceeded the cap.
    heavy = ",".join(["1/480"] * 24 + ["0.95"])
    path = tmp_path / "heavy.json"
    code, payload = run_json(
        capsys, "construct", "--px", heavy, "--alpha", "1/2", "--t", "5", "--out", str(path)
    )
    assert code == 0
    assert payload["gap"] == "0"
    assert payload["key_support"] == 811
    code, payload = run_json(capsys, "verify", str(path))
    assert code == 0
    assert payload["ok"]


def test_capacity_errors_exit_3(capsys) -> None:
    # n=20, T=3: 410,460 LP table variables.
    uniform = ",".join(["0.05"] * 20)
    assert main(["lp", "--px", uniform, "--alpha", "1/2", "--t", "3"]) == 3
    assert "table variables" in capsys.readouterr().err
    # T=10: construction A lists 10! structural keys for every term.
    twelve = ",".join(["1/12"] * 12)
    argv = ["construct", "--px", twelve, "--alpha", "1/2", "--t", "10", "--method", "a"]
    assert main(argv) == 3
    assert "structural keys" in capsys.readouterr().err


def test_method_b_builds_at_t_10(capsys, tmp_path) -> None:
    # Construction B lists T cyclic keys per term, not T!, so T=10 builds
    # and verifies optimal where construction A exits 3.
    twelve = ["1/12"] * 12
    scheme = construct_b(TokenDistribution.from_strings(twelve), Fraction(1, 2), 10)
    assert check_scheme(scheme).ok and error_report(scheme).gap == 0
    path = tmp_path / "t10.json"
    argv = ["--px", ",".join(twelve), "--alpha", "1/2", "--t", "10", "--method", "b"]
    code, payload = run_json(capsys, "construct", *argv, "--out", str(path))
    assert code == 0 and payload["gap"] == "0"
    assert payload["key_support"] == len(scheme.key_support())
    code, payload = run_json(capsys, "verify", str(path))
    assert code == 0 and payload["ok"] and payload["gap"] == "0"


def readme_transcripts() -> list[tuple[str, list[str]]]:
    """Each `$ keymark ...` command under README "## Command line" with the
    output lines after it, up to the next blank line."""
    section = README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    transcripts: list[tuple[str, list[str]]] = []
    output = None
    for line in section.split("```")[1].splitlines():
        if line.startswith("$ keymark "):
            output = []
            transcripts.append((line.removeprefix("$ keymark "), output))
        elif not line:
            output = None
        elif output is not None:
            output.append(line)
    return transcripts


def test_readme_transcripts(capsys) -> None:
    transcripts = readme_transcripts()
    assert len(transcripts) >= 2
    for command, lines in transcripts:
        code, out = run(capsys, *shlex.split(command))
        assert code == 0, command
        assert out == "".join(f"{line}\n" for line in lines), command


def test_readme_quick_start_runs() -> None:
    section = README.read_text().split("## Quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    report = namespace["report"]
    # The values that the block's comments state.
    assert "report.beta              # (3/10, 3/10, 3/10)" in code
    assert report.beta == (Fraction(3, 10),) * 3
    assert "report.worst_false_alarm # 9/10" in code
    assert report.worst_false_alarm == Fraction(9, 10)


def test_installed_entry_point() -> None:
    result = subprocess.run(
        [sys.executable, "-m", "keymark.cli", "optimal", *INSTANCE_A],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "0.3"


def test_lp_reports_solver_telemetry(capsys) -> None:
    code, payload = run_json(capsys, "lp", *SKEWED, "--keyset", "bijective")
    assert code == 0
    phases = payload["phase1_pivots"], payload["phase2_pivots"]
    assert all(isinstance(count, int) and count >= 0 for count in phases)
    assert 0 <= payload["degenerate_pivots"] <= sum(phases)
    code, out = run(capsys, "lp", *SKEWED, "--keyset", "bijective")
    assert "pivot" not in out


def test_lp_rejects_a_tampered_dual_certificate(capsys, monkeypatch) -> None:
    import keymark.lp as lp

    def tampered(*problem):
        result = real_simplex(*problem)
        y = (result.dual_ineq[0] + 1, *result.dual_ineq[1:])
        return dataclasses.replace(result, dual_ineq=y)

    def tampered_closed_form(problem):
        dual = real_closed_form(problem)
        return dataclasses.replace(dual, y=(dual.y[0] + 1, *dual.y[1:]))

    real_simplex, real_closed_form = lp.simplex_solve, lp._closed_form_dual
    monkeypatch.setattr(lp, "simplex_solve", tampered)
    monkeypatch.setattr(lp, "_closed_form_dual", tampered_closed_form)
    # The bijective key set runs the simplex; the reduced one falls back to
    # it once the closed-form dual fails its check.
    for keyset in ("bijective", "reduced"):
        for argv in (["lp", *SKEWED], ["lp", *SKEWED, "--json"]):
            assert main([*argv, "--keyset", keyset]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "dual certificate rejected" in captured.err
            assert "Traceback" not in captured.err
