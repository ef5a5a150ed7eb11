"""Exit codes and output shape of the command line interface.

Each command runs in-process through cli.main so coverage tooling and
monkeypatching work; the console script is the same entry point.
"""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glap import analysis, cli, families, prolongation
from glap.errors import NotIsotropic
from glap.gla import check_gla, deserialize
from test_prolongation import SpuriousPivot


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


@pytest.mark.parametrize(
    "case,digest",
    [
        ("hc11", "d05881d37d422ddc7fa1207208617804271a94f7fc77d6a176a2e9429bd9d54b"),
        ("hh11-rebased", "60f5fad4e6666b731485265344265e29cb0e25e944b70c1dbc9409127110a713"),
    ],
    ids=["hc11", "hh11-rebased"],
)
def test_derivations_output_is_unchanged(tmp_path, capsys, get_rebased, case, digest):
    # sha256 of the JSON recorded while degree 0 was still solved into
    # dense blocks, before it became the step engine's shift-0 layer
    prefix = str(tmp_path / "f")
    if case == "hc11":
        run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    else:
        m, g = get_rebased("hh", p=1, q=1)
        (tmp_path / "f.m.json").write_text(m.serialize())
        (tmp_path / "f.g.json").write_text(g.serialize())
    code, out = run(capsys, "derivations", prefix + ".m.json", prefix + ".g.json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the outputs, recorded while verify-table checked each row in two
# hand-written functions and oracle and build listed their keys by hand
_VERIFY_TABLE_DIGEST = "313cdbcad302dafd95d0857cf50ad163fff42def387b8a415c21760cb5a51e69"
_ORACLE_DIGESTS = {
    "HC(p=1,q=1)": "a462eedc9a169440945c07396e79cab41a10e8a5d4450f6c50895e85595ec60e",
    "HC(p=2,q=1)": "5f68b59e44a48e13b4d2f50637e89e22f77749ff628c63bc7ed36ed4e891db87",
    "HC'(p=1,q=1)": "7f74f4c9964d3b04cce44c2c8f0b46103179389b285cac5aa86793cae100edc3",
    "HC'(p=2,q=1)": "b76d57f68660fa112a73d4d90f088dd148fc6d85a9240e19cf796420e1302dbe",
    "HH(p=1,q=1)": "f27ba087444579a248545ae21bc426404e76fd4597dd53b325b7f71d05b98679",
    "HH(p=1,q=2)": "d5a3fd89a7dc837f31be23b0b46540ce9b66caa9b76584636578eb3cfc222499",
    "HH'(p=1,q=1)": "15c3557443c69e6e39ec78e8575c473bf91611964f071eb2256fba8654511213",
    "HH'(p=1,q=2)": "094d02e3bb3d3d8ced24be3aa41df81a767734cb61e9cdb0919c77be708b5b38",
    "BI(l=2)": "b61acd256a5f5ec249a6a5993771a978d20e84421c729102df938b1ccda80800",
    "BI(l=3)": "0ced3ee2e389f4263a5bf9efc4089d557ef9dda65e0e5f675c123933f305eb84",
    "HO": "d03a24d949bcae34b83ffee41887851f28b457adec75e450e72b73005e04f07c",
    "HO'": "f92f4afa8de79ebe734a41553e95895597827b50cf5f3c93120367a8d193c5bd",
    "G": "4a9cfe848241216744e11368c742f8f2b40d1bdec3d6d468b46251eaf38e4caf",
}
# (inline, --out) per family: the --out digest hashes the JSON, its path
# prefix written as PREFIX, then the files it wrote in name order
_BUILD_DIGESTS = {
    "hc-split(p=1,q=1)": (
        "e346da446dcc9fdfe0ca18e26c4f2dfd91e7cde8a138efa75f5b1f84fdfb3731",
        "531ebecff85a795a531864131ddb58100b90acfdfa2cde09c99da9b5131993a0",
    ),
    "counterexample": (
        "776ab808d9b12c50a22dbc887fbe40e00b1c896355359eefceb31ccd148af767",
        "d9b614df3e21391c5689e5dac06202da32ccf75ed263c77d87a542427b61e62d",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _options(params: dict) -> list[str]:
    return [arg for k, v in params.items() for arg in (f"--{k}", str(v))]


def test_verify_table_output_is_unchanged(capsys):
    code, out = run(capsys, "verify-table")
    assert code == 0 and _sha256(out) == _VERIFY_TABLE_DIGEST


def test_oracle_output_is_unchanged_at_every_verify_table_row(capsys):
    seen = {}
    for tag, params in cli.DEFAULT_ROWS:
        key, kp = families.build(tag, **params).oracle_key()
        if key is not None:
            code, out = run(capsys, "oracle", "--family", key, *_options(kp))
            assert code == 0
            seen[families.label(key, kp)] = _sha256(out)
    assert seen == _ORACLE_DIGESTS


@pytest.mark.parametrize("row", sorted(_BUILD_DIGESTS))
def test_build_output_is_unchanged(tmp_path, capsys, row):
    tag, params = next((t, p) for t, p in cli.DEFAULT_ROWS if families.label(t, p) == row)
    code, inline = run(capsys, "build", "--family", tag, *_options(params))
    assert code == 0
    prefix = str(tmp_path / "f")
    code, out = run(capsys, "build", "--family", tag, *_options(params), "--out", prefix)
    assert code == 0
    files = "".join(path.read_text() for path in sorted(tmp_path.iterdir()))
    assert (_sha256(inline), _sha256(out.replace(prefix, "PREFIX") + files)) == _BUILD_DIGESTS[row]


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


@pytest.mark.parametrize("command", ["prolong", "derivations"])
def test_misgraded_algebra_is_an_input_error(tmp_path, capsys, command):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    doc = json.loads(open(prefix + ".m.json").read())
    doc["brackets"][0][2] = [[1, "2"]]  # retarget into degree -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, command, str(bad), prefix + ".g.json")
    assert code == 2
    assert "degree -1, expected -2" in json.loads(out)["error"]


def test_check_garbage_json(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text("{ not json")
    code, out = run(capsys, "check", str(p))
    assert code == 2


@pytest.mark.parametrize(
    "rows,fragment",
    [
        ([[0, 1, [[2, 1]]], [0, 1, [[2, 5]]]], "brackets[1]: a second row for the pair (0, 1)"),
        ([[0, 1, [[2, 1], [2, "-1"]]]], "brackets[0] term 1: a second term for index 2"),
    ],
    ids=["repeated-pair", "repeated-index"],
)
def test_check_refuses_an_ambiguous_bracket(tmp_path, capsys, rows, fragment):
    # keeping either of the two entries would silently change the algebra
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"name": "a", "labels": ["x", "y", "z"],
                             "degrees": [0, 0, 0], "brackets": rows}))
    code, out = run(capsys, "check", str(p))
    assert code == 2
    assert fragment in json.loads(out)["error"]


def test_an_exponent_string_is_refused_at_once(tmp_path, capsys):
    # Fraction("1e10000000") alone would take seconds to expand
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"name": "a", "labels": ["x", "y", "z"], "degrees": [-1, -1, -2],
                             "brackets": [[0, 1, [[2, "1e10000000"]]]]}))
    start = time.perf_counter()
    code, out = run(capsys, "check", str(p))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "1e10000000" in json.loads(out)["error"]


def test_summary_flag_gives_one_line(capsys):
    code, out = run(capsys, "oracle", "--family", "G", "--summary")
    assert code == 0
    assert len(out.strip().splitlines()) == 1
    assert "G2" in out


def test_verify_table_summary_reports_seconds_per_row(capsys, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_ROWS", (("hc", {"p": 1, "q": 1}), ("counterexample", {})))
    code, out = run(capsys, "verify-table", "--summary")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS hc(p=1,q=1): total=8 ")
    assert lines[1].startswith("PASS counterexample: ")
    for line in lines[:2]:
        assert re.fullmatch(r"PASS .* \(\d+\.\d\d s\)", line), line
    assert lines[2] == "verify-table: 2/2 rows pass"


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


def test_oracle_rank_zero_reports_the_rank(capsys):
    code, out = run(capsys, "oracle", "--series", "A", "--rank", "0", "--crossed", "1")
    assert code == 2
    assert "rank must be positive" in json.loads(out)["error"]


def test_oracle_family_param_validation(capsys):
    code, out = run(capsys, "oracle", "--family", "HC")
    assert code == 2


def test_oracle_refuses_a_rank_above_the_table(capsys):
    """The oracle stops where the builders do, at rank 24 (C24 at
    2p+q = 24), past the table's rank 8."""
    code, out = run(capsys, "oracle", "--series", "A", "--rank", "25", "--crossed", "1")
    assert code == 2
    assert "rank <= 24" in json.loads(out)["error"]
    code, out = run(capsys, "oracle", "--series", "A", "--rank", "9", "--crossed", "1")
    assert code == 0 and json.loads(out)["dims"] == {"-1": 9, "0": 81, "1": 9}


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_oracle_refuses_a_huge_rank_before_generating_roots():
    # in a child capped at 1 GiB and 60 s, so an unbounded root closure
    # fails this test instead of exhausting the machine
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "glap.cli", "oracle", "--series", "A",
         "--rank", "99999", "--crossed", "1"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2, proc.stderr
    assert "rank <= 24" in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize("argv,code", [
    (["oracle", "--family", "HC", "--p", "1", "--q", "1", "--summary"], 0),
    (["oracle", "--series", "A", "--rank", "99", "--crossed", "1"], 2),
], ids=["ok", "bad-input"])
def test_python_dash_m_glap_runs_the_command_line(argv, code):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "glap", *argv], env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout.startswith("HC{'p': 1, 'q': 1}: A2")
    else:
        assert "rank <= 24" in json.loads(proc.stdout)["error"]


def test_prolong_stops_a_runaway_input_at_the_step_cap(tmp_path, capsys):
    """R^2 with g = I prolongs without end; the fixed cap of 64 steps
    turns that into exit 1."""
    m = tmp_path / "r2.m.json"
    g = tmp_path / "r2.g.json"
    m.write_text(json.dumps({"name": "R2", "labels": ["x", "y"], "degrees": [-1, -1],
                             "brackets": []}))
    g.write_text(json.dumps({"algebra": "R2", "degree_minus1_indices": [0, 1],
                             "matrix": [["1", "0"], ["0", "1"]]}))
    code, out = run(capsys, "prolong", str(m), str(g))
    assert code == 1
    assert json.loads(out)["error"] == "no termination within 64 prolongation steps"


def test_prolong_with_explicit_cut_reports_incomplete(tmp_path, capsys):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    code, out = run(capsys, "prolong", prefix + ".m.json", prefix + ".g.json",
                    "--max-degree", "1")
    assert code == 0
    assert json.loads(out)["complete"] is False


def _hh12_files(tmp_path, capsys, *cut) -> tuple[str, str]:
    """(m file, prolongation file) of hh(1,2), the latter cut by ``cut``."""
    prefix = str(tmp_path / "hh12")
    run(capsys, "build", "--family", "hh", "--p", "1", "--q", "2", "--out", prefix)
    prol = prefix + ".prol.json"
    code, _ = run(capsys, "prolong", prefix + ".m.json", prefix + ".g.json", "--out", prol, *cut)
    assert code == 0
    return prefix + ".m.json", prol


def test_check_certifies_a_truncated_prolongation_below_its_cut(tmp_path, capsys):
    _, path = _hh12_files(tmp_path, capsys, "--max-degree", "1")
    code, out = run(capsys, "check", path)
    report = json.loads(out)
    assert code == 0 and report["pass"] and report["violation_count"] == 0
    assert report["kind"] == 2 and report["fundamental"]
    # one coefficient of [g_0, g_{-1}], below the cut, changed
    doc = json.loads(open(path).read())
    degs = doc["degrees"]
    row = next(r for r in doc["brackets"] if sorted((degs[r[0]], degs[r[1]])) == [-1, 0])
    row[2][0][1] = str(Fraction(row[2][0][1]) + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(bad))
    report = json.loads(out)
    assert code == 1 and report["grading_ok"] and not report["jacobi_ok"]
    assert report["violation_count"] > 0 and report["violations"][0]["type"] == "jacobi"


def test_check_refuses_an_intransitive_truncated_file(tmp_path, capsys):
    """g_0 = <h, x, y> with [h, x] = x, [x, y] = h kills g_{-1} = <z>, so no
    triple that holds z has a residual, yet J(h, x, y) = h: without
    transitivity the triples below the cut decide nothing."""
    doc = {
        "name": "intransitive",
        "labels": ["z", "h", "x", "y"],
        "degrees": [-1, 0, 0, 0],
        "brackets": [[1, 2, [[2, "1"]]], [2, 3, [[1, "1"]]]],
        "step_dims": {},
        "form": {"algebra": "intransitive", "degree_minus1_indices": [0], "matrix": [["1"]]},
        "complete": False,
    }
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(path))
    assert code == 2 and "transitive" in json.loads(out)["error"]
    # read as a plain algebra, the full sweep finds the residual
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({k: doc[k] for k in ("name", "labels", "degrees", "brackets")}))
    code, out = run(capsys, "check", str(plain))
    report = json.loads(out)
    assert code == 1 and not report["pass"]
    assert report["violations"] == [
        {"type": "jacobi", "triple": [1, 2, 3], "residual": {"1": "1"}}
    ]


def test_check_reads_complete_files_and_plain_algebras_as_before(tmp_path, capsys):
    m_path, path = _hh12_files(tmp_path, capsys)
    for p in (m_path, path):
        code, out = run(capsys, "check", p)
        rep = check_gla(deserialize(open(p).read()))
        report = json.loads(out)
        assert code == 0 and report["pass"]
        assert {k: report[k] for k in rep} == json.loads(json.dumps(rep))
    # a truncated file that claims to be complete gets the full sweep
    _, cut = _hh12_files(tmp_path, capsys, "--max-degree", "1")
    doc = json.loads(open(cut).read())
    doc["complete"] = True
    # with the step_dims of that claim: the layer past the top is empty
    assert doc["step_dims"] == {"1": 8}
    doc["step_dims"]["2"] = 0
    claimed = tmp_path / "claimed.json"
    claimed.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(claimed))
    report = json.loads(out)
    assert code == 1 and report["violation_count"] == 132
    # the first 20 of them, as the full report lists them
    rep = check_gla(deserialize(claimed.read_text()))
    assert report["violations"] == json.loads(json.dumps(rep["violations"][:20]))


def test_check_refuses_a_complete_file_with_a_layer_past_its_top(tmp_path, capsys):
    _, path = _hh12_files(tmp_path, capsys)
    code, out = run(capsys, "check", path)
    assert code == 0 and json.loads(out)["next_layer_dim"] == 0
    # cut to degrees <= 0, yet marked complete: m + g_0 passes the full
    # sweep, but the degree 1 layer is not empty
    _, cut = _hh12_files(tmp_path, capsys, "--max-degree", "0")
    doc = json.loads(open(cut).read())
    assert max(doc["degrees"]) == 0 and doc["step_dims"] == {}
    doc["complete"] = True
    doc["step_dims"] = {"1": 0}
    claimed = tmp_path / "claimed.json"
    claimed.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(claimed))
    report = json.loads(out)
    assert code == 1 and not report["pass"]
    assert report["jacobi_ok"] and report["next_layer_dim"] > 0
    code, out = run(capsys, "check", str(claimed), "--summary")
    assert code == 1 and "next_layer_dim=" in out and out.rstrip().endswith("FAIL")


def test_check_certifies_the_empty_layer_past_the_top(tmp_path, capsys, monkeypatch):
    """``next_layer_dim: 0`` is a rank certificate: an Echelon that
    installs one spurious pivot at the solve past the top still finds the
    layer empty, but its witness is one row short, so ``check`` exits 2
    with the certificate's message, not 0, and not 3."""
    _, path = _hh12_files(tmp_path, capsys)
    monkeypatch.setattr(prolongation, "Echelon", SpuriousPivot)
    code, out = run(capsys, "check", path)
    assert code == 2
    assert "the degree 3 layer is not certified maximal" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(step_dims={"1": 99, "7": 0}),
        # False == 0 in Python, but not in JSON
        lambda doc: doc["step_dims"].update({"3": False}),
        lambda doc: doc.update(step_dims={"01": 4, "2": 3, "3": 0}),
        # re-marked complete without the empty layer that claim implies
        lambda doc: doc.update(step_dims={"1": 4, "2": 3}),
    ],
    ids=["contradicts-the-layers", "a-boolean", "padded-degree", "re-marked-complete"],
)
def test_check_and_analyze_refuse_step_dims_that_the_layers_contradict(tmp_path, capsys,
                                                                        mutate):
    prefix = str(tmp_path / "hh11")
    run(capsys, "build", "--family", "hh", "--p", "1", "--q", "1", "--out", prefix)
    path = prefix + ".prol.json"
    run(capsys, "prolong", prefix + ".m.json", prefix + ".g.json", "--out", path)
    doc = json.loads(open(path).read())
    assert doc["step_dims"] == {"1": 4, "2": 3, "3": 0} and doc["complete"] is True
    for command in ("check", "analyze"):
        assert run(capsys, command, path)[0] == 0, command
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in ("check", "analyze"):
        code, out = run(capsys, command, str(bad))
        assert code == 2, command
        assert json.loads(out)["error"].startswith('step_dims must be {"1": 4, "2": 3, "3": 0}')


def test_a_cut_file_re_marked_complete_must_carry_the_step_dims_of_that_claim(
    tmp_path, capsys
):
    _, cut = _hh12_files(tmp_path, capsys, "--max-degree", "1")
    doc = json.loads(open(cut).read())
    doc["complete"] = True
    claimed = tmp_path / "claimed.json"
    claimed.write_text(json.dumps(doc))
    for command in ("check", "analyze"):
        code, out = run(capsys, command, str(claimed))
        assert code == 2, command
        assert json.loads(out)["error"].startswith('step_dims must be {"1": 8, "2": 0}')


@pytest.mark.parametrize("complete", ["true", "no", 1, None],
                         ids=["string-true", "string-no", "one", "null"])
def test_check_refuses_a_complete_flag_that_is_not_a_boolean(tmp_path, capsys, complete):
    """Any file with a 'complete' key is read as a prolongation, so check
    and analyze both exit 2 on a flag that is not a JSON boolean, rather
    than check certifying the file as a plain algebra."""
    _, cut = _hh12_files(tmp_path, capsys, "--max-degree", "0")
    doc = json.loads(open(cut).read())
    doc["complete"] = complete
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in ("check", "analyze"):
        code, out = run(capsys, command, str(bad))
        assert code == 2, command
        assert json.loads(out) == {"error": "'complete' must be true or false"}


def _bi3_plants(tmp_path, capsys):
    """(m file, g file) of bi(3) with each of the 7 bracket terms of m
    tripled in turn, written to the same m file."""
    prefix = str(tmp_path / "bi3")
    run(capsys, "build", "--family", "bi", "--l", "3", "--out", prefix)
    doc = json.loads(open(prefix + ".m.json").read())
    terms = [(r, t) for r, row in enumerate(doc["brackets"]) for t in range(len(row[2]))]
    assert len(terms) == 7
    bad = str(tmp_path / "bad.m.json")
    for r, t in terms:
        planted = json.loads(json.dumps(doc))
        term = planted["brackets"][r][2][t]
        term[1] = str(3 * Fraction(term[1]))
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(planted, fh)
        yield bad, prefix + ".g.json"


def test_prolong_of_an_m_that_is_not_lie_fails_certification(tmp_path, capsys):
    """The step solve reads only the pairs that hold g_-1, which decide the
    rest when m is Lie; the final certificate sweeps the triples of m that
    hold g_-1, so a planted violation in m is still caught."""
    for m_path, g_path in _bi3_plants(tmp_path, capsys):
        assert run(capsys, "check", m_path)[0] == 1
        code, out = run(capsys, "prolong", m_path, g_path)
        assert code == 2
        assert "assembled prolongation failed certification" in json.loads(out)["error"]
        code, out = run(capsys, "derivations", m_path, g_path)
        assert code == 2 and "not a Lie algebra" in json.loads(out)["error"]


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
    assert "after 64 steps exits 1" in text


def test_mismatched_form_is_an_input_error(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", a)
    run(capsys, "build", "--family", "bi", "--l", "2", "--out", b)
    code, out = run(capsys, "derivations", a + ".m.json", b + ".g.json")
    assert code == 2


@pytest.mark.parametrize(
    "matrix",
    [
        [["1", "0"], ["0"]],  # ragged rows
        [[1.5, 0], [0, 1]],  # a JSON float is not a rational
    ],
)
def test_malformed_gram_matrix_is_an_input_error(tmp_path, capsys, matrix):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    doc = json.loads(open(prefix + ".g.json").read())
    doc["matrix"] = matrix
    bad = tmp_path / "bad.g.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "prolong", prefix + ".m.json", str(bad))
    assert code == 2
    assert "matrix" in json.loads(out)["error"]


def test_float_bracket_coefficient_is_an_input_error(tmp_path, capsys):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    doc = json.loads(open(prefix + ".m.json").read())
    doc["brackets"][0][2] = [[0, 2.0]]
    bad = tmp_path / "bad.m.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(bad))
    assert code == 2
    assert "2.0" in json.loads(out)["error"]


def test_analyze_without_asserts_gives_the_same_report(tmp_path, capsys):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    prol_path = str(tmp_path / "f.prol.json")
    run(capsys, "prolong", prefix + ".m.json", prefix + ".g.json", "--out", prol_path)
    code, out = run(capsys, "analyze", prol_path)
    assert code == 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "glap.cli", "analyze", prol_path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(out)


@pytest.mark.parametrize("command", ["prolong", "check"])
@pytest.mark.parametrize(
    "brackets",
    [5, [[1, 2, 7]], [[1, 2, [[True, "2"]]]], [[False, 2, [[0, "2"]]]]],
    ids=["brackets-not-a-list", "terms-not-a-list", "boolean-basis-index", "boolean-i"],
)
def test_malformed_algebra_file_is_an_input_error(tmp_path, capsys, command, brackets):
    # hc(1,1).m has the one bracket row [1, 2, [[0, "2"]]]
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    doc = json.loads(open(prefix + ".m.json").read())
    assert doc["brackets"] == [[1, 2, [[0, "2"]]]]
    doc["brackets"] = brackets
    bad = tmp_path / "bad.m.json"
    bad.write_text(json.dumps(doc))
    argv = [command, str(bad)] + ([prefix + ".g.json"] if command == "prolong" else [])
    code, out = run(capsys, *argv)
    assert code == 2
    assert "brackets" in json.loads(out)["error"]


def test_check_without_asserts_gives_the_same_report(tmp_path, capsys):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    doc = json.loads(open(prefix + ".ambient.json").read())
    terms = doc["brackets"][0][2]
    terms[0][1] = str(Fraction(terms[0][1]) + Fraction(1, 3))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(bad))
    assert code == 1
    rep = json.loads(out)
    assert rep["grading_ok"] and not rep["jacobi_ok"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "glap.cli", "check", str(bad)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == rep


def test_internal_error_exits_3_with_a_json_body(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_oracle", broken)
    code, out = run(capsys, "oracle", "--family", "G")
    assert code == 3
    assert json.loads(out) == {"error": "internal error: RuntimeError: boom"}
    assert "Traceback" not in out


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    run(capsys, "oracle", "--family", "G", "--summary")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(3):
        assert run(capsys, "oracle", "--family", "G", "--summary")[0] == 0
    with pytest.raises(SystemExit):
        cli.main(["build", "--family", "nope"])
    assert built == []


def test_the_shared_parser_carries_nothing_between_calls(tmp_path, capsys):
    prefix = str(tmp_path / "hc11")
    code, out = run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1",
                    "--out", prefix)
    assert code == 0 and json.loads(out)["params"] == {"p": 1, "q": 1}
    code, out = run(capsys, "build", "--family", "bi", "--l", "2")
    doc = json.loads(out)
    assert code == 0 and doc["params"] == {"l": 2} and "written" not in doc
    m, g = prefix + ".m.json", prefix + ".g.json"
    code, out = run(capsys, "prolong", m, g, "--max-degree", "0", "--summary")
    assert code == 0 and out.rstrip().endswith("complete=False")
    code, out = run(capsys, "prolong", m, g)
    assert code == 0 and json.loads(out)["complete"] is True


def test_a_handler_patched_after_the_parser_is_built_is_the_one_run(capsys, monkeypatch):
    """The handlers are looked up when a subcommand runs, so the shared
    parser cannot keep calling a handler that was replaced after it was
    built."""
    assert run(capsys, "oracle", "--family", "G", "--summary")[0] == 0

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_oracle", broken)
    code, out = run(capsys, "oracle", "--family", "G")
    assert code == 3
    assert json.loads(out) == {"error": "internal error: RuntimeError: boom"}


def test_verify_table_fails_an_uncertified_siii_split(capsys, monkeypatch):
    """A row whose SIII split fails ``isotropic_split_check`` fails its
    module_class check, and verify-table exits 1."""
    monkeypatch.setattr(cli, "DEFAULT_ROWS", (
        ("hc", {"p": 1, "q": 1}), ("hc-split", {"p": 1, "q": 1}), ("bi", {"l": 2})))
    check = analysis.isotropic_split_check
    calls = []

    def fails_once(G, V1, V2):
        calls.append(1)
        if len(calls) == 1:
            raise NotIsotropic("a planted failure")
        return check(G, V1, V2)

    monkeypatch.setattr(analysis, "isotropic_split_check", fails_once)
    code, out = run(capsys, "verify-table")
    doc = json.loads(out)
    assert code == 1 and doc["failing"] == ["hc-split(p=1,q=1)"]
    rows = {row["family"]: row for row in doc["rows"]}
    assert rows["hc-split(p=1,q=1)"]["checks"]["module_class"] is False
    assert rows["hc-split(p=1,q=1)"]["computed"]["module_class"] == "SIII"
    assert rows["bi(l=2)"]["checks"]["module_class"] is True
    assert len(calls) == 2


def test_verify_table_without_asserts_gives_the_same_report(capsys):
    code, out = run(capsys, "verify-table")
    assert code == 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "glap.cli", "verify-table"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(out)


def _hc11_prolongation(tmp_path, capsys) -> dict:
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    prol_path = str(tmp_path / "f.prol.json")
    run(capsys, "prolong", prefix + ".m.json", prefix + ".g.json", "--out", prol_path)
    return json.loads(open(prol_path).read())


@pytest.mark.parametrize("command", ["check", "analyze"])
def test_a_long_integer_literal_is_an_input_error(tmp_path, capsys, command):
    # json.loads refuses an integer literal of more than 4300 digits with a
    # plain ValueError rather than a JSONDecodeError
    if command == "check":
        prefix = str(tmp_path / "f")
        run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
        doc = json.loads(open(prefix + ".m.json").read())
    else:
        doc = _hc11_prolongation(tmp_path, capsys)
    doc["brackets"][0][2][0][1] = "COEFFICIENT"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"COEFFICIENT"', "7" * 5001))
    code, out = run(capsys, command, str(bad))
    assert code == 2
    assert "internal error" not in json.loads(out)["error"]


@pytest.mark.parametrize("command", ["check", "analyze"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, command):
    p = tmp_path / "deep.json"
    p.write_text("[" * 200000 + "]" * 200000)
    code, out = run(capsys, command, str(p))
    assert code == 2
    assert "recursion depth" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "mutate",
    [
        # indices [0, 1] are degree -2 and -1: the form sits on the wrong basis
        lambda doc: doc["form"].update(degree_minus1_indices=[0, 1]),
        # no degree -1 piece at all
        lambda doc: doc.update(degrees=[d if d != -1 else -3 for d in doc["degrees"]]),
        lambda doc: doc.update(form=5),
        lambda doc: doc["form"].update(degree_minus1_indices=5),
        lambda doc: doc.update(name=5),
        # e_5 moves to degree 0, so [e_1, e_5] = 2/3 e_4 no longer lands in degree -1
        lambda doc: doc["degrees"].__setitem__(5, 0),
        lambda doc: doc.update(step_dims={"1": [2]}),
        lambda doc: doc.update(
            labels=[], degrees=[], brackets=[],
            form={"algebra": "empty", "degree_minus1_indices": [], "matrix": []},
        ),
        lambda doc: doc.update(complete="no"),
        lambda doc: doc.update(complete=0),
        lambda doc: doc.update(step_dims={"1": 2.7}),
        lambda doc: doc.update(step_dims={"1": True}),
        lambda doc: doc.update(step_dims={" 1": 2}),
        # a degree -2 element and a degree 0 one: no g_{-1} to generate m
        lambda doc: doc.update(
            labels=["z", "u"], degrees=[-2, 0], brackets=[], step_dims={},
            form={"algebra": "z+u", "degree_minus1_indices": [], "matrix": []},
        ),
        # [x, y] = 0, so the degree -2 element is not generated
        lambda doc: doc.update(
            labels=["x", "y", "z"], degrees=[-1, -1, -2], brackets=[], step_dims={},
            form={"algebra": "x+y+z", "degree_minus1_indices": [0, 1],
                  "matrix": [[1, 0], [0, 1]]},
        ),
    ],
    ids=[
        "wrong-basis", "no-degree-minus-1", "form-not-an-object", "indices-not-a-list",
        "name-not-a-string", "misgraded-bracket", "step-dim-not-an-integer", "empty-basis",
        "complete-a-string", "complete-zero", "step-dim-a-float", "step-dim-a-boolean",
        "step-degree-padded", "empty-degree-minus-1", "not-generated",
    ],
)
def test_analyze_rejects_a_malformed_prolongation(tmp_path, capsys, mutate):
    doc = _hc11_prolongation(tmp_path, capsys)
    assert doc["degrees"] == [-2, -1, -1, 0, 0, 1, 1, 2]
    assert doc["form"]["degree_minus1_indices"] == [1, 2]
    mutate(doc)
    bad = tmp_path / "bad.prol.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "internal error" not in json.loads(out)["error"]


def test_analyze_warns_on_a_truncated_prolongation(tmp_path, capsys):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    cut = str(tmp_path / "cut.prol.json")
    run(capsys, "prolong", prefix + ".m.json", prefix + ".g.json", "--max-degree", "0",
        "--out", cut)
    code, out = run(capsys, "analyze", cut)
    assert code == 0
    doc = json.loads(out)
    assert doc["semisimple"] is False
    assert len(doc["warnings"]) == 1 and "truncated at degree 0" in doc["warnings"][0]


def test_analyze_refuses_a_large_centroid_fallback(tmp_path, capsys, get_prolongation):
    # ho + sl2, sl2 (e, h, f) in degree 0: semisimple, but sl2 kills g_{-1},
    # so the centroid is the commutant of all 55 adjoint maps, refused
    # a copy: the lists of the dict are those of the shared prolongation
    doc = copy.deepcopy(get_prolongation("ho").to_json_dict())
    n = len(doc["labels"])
    assert n == 52
    doc["labels"] += ["e", "h", "f"]
    doc["degrees"] += [0, 0, 0]
    doc["brackets"] += [
        [n, n + 1, [[n, "-2"]]], [n, n + 2, [[n + 1, "1"]]], [n + 1, n + 2, [[n + 2, "-2"]]],
    ]
    path = tmp_path / "ho+sl2.prol.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "dim > 40" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.out + captured.err


_ODD_VALUES = (5, -1, "x", "1/0", None, [], {}, True, 1.5, [[0, 1]], {"a": 1})


def _json_paths(doc, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _json_paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _json_paths(v, prefix + (i,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _is_number(x) -> bool:
    """An integer or a rational written as a string, as the files hold."""
    if isinstance(x, str):
        try:
            Fraction(x)
        except (ValueError, ZeroDivisionError):
            return False
        return True
    return isinstance(x, int) and not isinstance(x, bool)


@st.composite
def _mutations(draw, doc):
    """A deep copy of doc with one to three mutations: a key or list entry
    dropped, a value swapped for one of another type, a list truncated, the
    degrees renumbered, or a number changed."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "swap", "truncate", "degrees", "number"]))
        paths = [p for p in _json_paths(doc) if p]
        if kind == "degrees":
            degs = doc.get("degrees") if isinstance(doc, dict) else None
            if isinstance(degs, list) and degs:
                i = draw(st.integers(0, len(degs) - 1))
                if draw(st.booleans()):
                    degs[i] = draw(st.integers(-4, 4))
                else:
                    shift = draw(st.integers(-2, 2))
                    doc["degrees"] = [d + shift if isinstance(d, int) else d for d in degs]
            continue
        if kind == "truncate":
            paths = [p for p in paths if isinstance(_at(doc, p), list) and _at(doc, p)]
        elif kind == "number":
            paths = [p for p in paths if _is_number(_at(doc, p))]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent, key = _at(doc, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "swap":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        elif kind == "number":
            new = draw(st.integers(-3, 3))
            parent[key] = str(new) if isinstance(parent[key], str) else new
        else:
            parent[key] = parent[key][: draw(st.integers(0, len(parent[key]) - 1))]
    return doc


def test_analyze_on_mutated_prolongations_keeps_the_exit_contract(tmp_path, capsys):
    doc = _hc11_prolongation(tmp_path, capsys)
    path = str(tmp_path / "mutant.prol.json")

    @settings(max_examples=100, deadline=None)
    @given(_mutations(doc))
    def check(mutant):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(mutant, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["analyze", path])
        assert code in (0, 1, 2), out.getvalue()
        json.loads(out.getvalue())

    check()


@pytest.mark.parametrize("command", ["prolong", "derivations", "check"])
def test_mutated_hc11_inputs_keep_the_exit_contract(tmp_path, capsys, command):
    prefix = str(tmp_path / "f")
    run(capsys, "build", "--family", "hc", "--p", "1", "--q", "1", "--out", prefix)
    m_doc = json.loads(open(prefix + ".m.json").read())
    g_doc = json.loads(open(prefix + ".g.json").read())
    m_path, g_path = str(tmp_path / "mutant.m.json"), str(tmp_path / "mutant.g.json")
    argv = [command, m_path] if command == "check" else [command, m_path, g_path]
    pairs = st.one_of(
        _mutations(m_doc).map(lambda m: (m, g_doc)),
        _mutations(g_doc).map(lambda g: (m_doc, g)),
        st.tuples(_mutations(m_doc), _mutations(g_doc)),
    )
    if command == "check":
        pairs = _mutations(m_doc).map(lambda m: (m, g_doc))

    @settings(max_examples=100, deadline=None)
    @given(pairs)
    def check(pair):
        for path, doc in zip((m_path, g_path), pair):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code in (0, 1, 2), out.getvalue()
        json.loads(out.getvalue())

    check()
