"""Exit codes and output shape of the command line interface.

Each command runs in-process through cli.main so coverage tooling and
monkeypatching work; the console script is the same entry point.
"""

import json

import pytest

from glap import cli
from glap.gla import deserialize


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "--family", "nope"])
    assert exc.value.code == 2


def test_build_check_prolong_analyze_pipeline(tmp_path, capsys):
    prefix = str(tmp_path / "hc11")
    code, out = run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1",
                    "--out", prefix)
    assert code == 0
    doc = json.loads(out)
    assert doc["m_dims"] == {"-2": 1, "-1": 2}
    assert sorted(doc["written"]) == [
        prefix + ".ambient.json", prefix + ".g.json", prefix + ".m.json"
    ]

    code, out = run(capsys, "check", prefix + ".m.json")
    assert code == 0
    assert json.loads(out)["pass"]

    code, out = run(capsys, "derivations", prefix + ".m.json", prefix + ".g.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2 and doc["ker_eta_dim"] == 1

    prol_path = str(tmp_path / "hc11.prol.json")
    code, out = run(capsys, "prolong", prefix + ".m.json", prefix + ".g.json",
                    "--out", prol_path)
    assert code == 0
    assert json.loads(out)["total_dim"] == 8

    code, out = run(capsys, "analyze", prol_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["module_class"] == "SII"
    assert doc["simple"] is True


def test_build_without_out_prints_the_algebra(capsys):
    code, out = run(capsys, "build", "--family", "bi", "--l", "2")
    assert code == 0
    doc = json.loads(out)
    m = deserialize(json.dumps(doc["m"]))
    assert m.dims_by_degree() == {-3: 1, -2: 1, -1: 2}
    assert doc["ambient"]["name"].startswith("bi")


def test_build_rejects_bad_parameters(capsys):
    code, out = run(capsys, "build", "--family", "bi", "--l", "1")
    assert code == 2
    assert "l >= 2" in json.loads(out)["error"]


def test_check_missing_file(capsys):
    code, out = run(capsys, "check", "/nonexistent/file.json")
    assert code == 2
    assert "error" in json.loads(out)


def test_check_corrupted_bracket_file(tmp_path, capsys):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    doc = json.loads(open(prefix + ".m.json").read())
    doc["brackets"][0][2] = [[1, "2"]]  # retarget into degree -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(bad))
    assert code == 1
    rep = json.loads(out)
    assert not rep["grading_ok"]
    assert rep["violations"]


def test_check_garbage_json(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text("{ not json")
    code, out = run(capsys, "check", str(p))
    assert code == 2


def test_summary_flag_gives_one_line(capsys):
    code, out = run(capsys, "oracle", "--family", "G", "--summary")
    assert code == 0
    assert len(out.strip().splitlines()) == 1
    assert "G2" in out


def test_oracle_by_series(capsys):
    code, out = run(capsys, "oracle", "--series", "F", "--rank", "4",
                    "--crossed", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"]["0"] == 22
    assert doc["total_dim"] == 52


def test_oracle_requires_arguments(capsys):
    code, out = run(capsys, "oracle")
    assert code == 2
    code, out = run(capsys, "oracle", "--series", "A", "--rank", "2",
                    "--crossed", "x")
    assert code == 2


def test_oracle_family_param_validation(capsys):
    code, out = run(capsys, "oracle", "--family", "HC")
    assert code == 2


def test_prolong_honors_step_limit_env(tmp_path, capsys, monkeypatch):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    monkeypatch.setenv("GLAP_STEP_LIMIT", "1")
    code, out = run(capsys, "prolong", prefix + ".m.json", prefix + ".g.json")
    assert code == 1
    assert "error" in json.loads(out)


def test_prolong_with_explicit_cut_reports_incomplete(tmp_path, capsys):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    code, out = run(capsys, "prolong", prefix + ".m.json", prefix + ".g.json",
                    "--max-degree", "1")
    assert code == 0
    assert json.loads(out)["complete"] is False


def test_prolong_rejects_negative_max_degree(tmp_path, capsys):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    code, out = run(capsys, "prolong", prefix + ".m.json", prefix + ".g.json",
                    "--max-degree", "-3")
    assert code == 2
    assert "--max-degree" in json.loads(out)["error"]


def test_prolong_max_degree_help_names_the_real_default(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["prolong", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "default 64, or" not in text
    assert "default: no cap" in text
    assert "GLAP_STEP_LIMIT" in text


def test_mismatched_form_is_an_input_error(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", a)
    run(capsys, "build", "--family", "bi", "--l", "2", "--out", b)
    code, out = run(capsys, "derivations", a + ".m.json", b + ".g.json")
    assert code == 2
