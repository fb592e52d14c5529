"""End-to-end checks of the command line layer.

Most tests call cli.main() in process to keep the suite fast; one
subprocess test exercises the installed module entry point.  Frozen
numbers follow the same policy as test_fem.py: computed once, pinned
with tight relative tolerances.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from orlicz import cli, young
from orlicz.spaces import SampledField, field_to_csv, luxemburg_norm

INFSUP_H8 = 1.0153046023291719


def run_cli(*argv):
    return cli.main(list(argv))


def read_report(out, rid):
    return json.loads((out / (rid + ".json")).read_text())


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_young_doc_emission(tmp_path):
    rc = run_cli("young", "--young", "zygmund:1:1",
                 "--out", str(tmp_path))
    assert rc == 0
    rep = read_report(tmp_path, "young_doc")
    assert rep["schema"] == 1
    assert rep["passed"] is True
    assert rep["data"]["young"]["kind"] == "zygmund"
    assert rep["data"]["involution_max_rel"] <= 1e-6
    header, rows = read_csv(tmp_path / "young_doc_samples.csv")
    assert header == ["s", "value", "conjugate_value"]
    assert len(rows) == 61


def test_young_accepts_json_file(tmp_path):
    doc = tmp_path / "fn.json"
    doc.write_text(young.young_to_json(young.power(3.0)))
    rc = run_cli("young", "--young", str(doc), "--grid", "0.01:100:20",
                 "--out", str(tmp_path), "--id", "fromfile")
    assert rc == 0
    rep = read_report(tmp_path, "fromfile")
    assert rep["data"]["young"]["params"][0] == 3.0
    assert rep["data"]["grid"]["points"] == 20


def test_norm_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    u = SampledField.from_grid(rng.normal(size=(6, 6)), 1.0 / 6.0)
    src = tmp_path / "u.csv"
    field_to_csv(u, src)
    rc = run_cli("norm", "--field", str(src), "--young", "power:2",
                 "--rearrange", "--out", str(tmp_path), "--id", "nrm")
    assert rc == 0
    rep = read_report(tmp_path, "nrm")
    want = luxemburg_norm(u, young.power(2.0))
    assert rep["data"]["norm"] == pytest.approx(want, rel=1e-12)
    header, rows = read_csv(tmp_path / "nrm_rearrangement.csv")
    assert header == ["upper_edge", "value"]
    vals = [float(r[1]) for r in rows]
    assert vals == sorted(vals, reverse=True)


def test_negnorm_report_keys(tmp_path):
    rc = run_cli("negnorm", "--u", "step_x", "--pair", "power:2:power:2",
                 "--out", str(tmp_path), "--id", "nn")
    assert rc == 0
    data = read_report(tmp_path, "nn")["data"]
    for key in ("lower", "upper", "r_low", "r_high", "witness_id"):
        assert key in data
    assert data["lower"] > 0
    assert data["lower"] <= data["upper"]


def test_fem_infsup_matches_frozen_value(tmp_path):
    rc = run_cli("fem", "infsup", "--mesh", "square:1/8",
                 "--pair", "power:2:power:2",
                 "--out", str(tmp_path), "--id", "is8")
    assert rc == 0
    header, rows = read_csv(tmp_path / "is8_infsup.csv")
    assert header[:3] == ["h", "value", "method"]
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(INFSUP_H8, rel=1e-8)
    assert rows[0][2] == "eigen"


def test_bogovskii_writes_field(tmp_path):
    rc = run_cli("bogovskii", "--grid", "16", "--out", str(tmp_path),
                 "--id", "bg")
    assert rc == 0
    header, rows = read_csv(tmp_path / "bg_field.csv")
    assert len(rows) == 16 * 16
    assert read_report(tmp_path, "bg")["data"]["div_residual"] < 0.1


def test_removed_quad_param_rejected(tmp_path, capsys):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "bogovskii_run",
                               "params": {"grid": 16, "quad": 16}}))
    rc = run_cli("run", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert "params.quad" in capsys.readouterr().err


def test_negative_norm_bands_follow_depth(tmp_path, capsys):
    assert run_cli("run", "negnorm", "--depth", "1", "--grid", "16",
                   "--out", str(tmp_path)) == 2
    assert "params.depth" in capsys.readouterr().err
    # k=4 is too coarse for the 2% approximant assertion, so only the
    # bands table is checked, not the exit code
    run_cli("run", "negnorm", "--depth", "2", "--grid", "16",
            "--set", "k=4", "--out", str(tmp_path))
    header, rows = read_csv(tmp_path / "negative_norm_bands.csv")
    assert header == ["pair", "depth", "band"]
    assert sorted({int(r[1]) for r in rows}) == [1, 2]


def test_malformed_pair_names_flag(tmp_path, capsys):
    rc = run_cli("negnorm", "--u", "step_x", "--pair", "power:nope",
                 "--out", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "--pair" in err


def test_run_balance_single_pair(tmp_path):
    rc = run_cli("run", "balance", "--pair", "zygmund:1:1:zygmund:1:0",
                 "--out", str(tmp_path))
    assert rc == 0
    rep = read_report(tmp_path, "balance_matrix")
    probe = rep["data"]["report"]
    assert probe["admissible"] is True
    assert np.isfinite(probe["c_11"])
    assert np.isfinite(probe["c_12"])


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "domain_split",
                               "extra": 1}))
    rc = run_cli("run", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert "extra" in capsys.readouterr().err


def test_unknown_param_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "domain_split",
                               "params": {"bogus": 3}}))
    rc = run_cli("run", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "domain_split" in err


def test_parse_error_gives_line_and_column(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"schema": 1,\n  "experiment": }\n')
    rc = run_cli("run", str(cfg))
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_wrong_schema_rejected(tmp_path, capsys):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"schema": 2,
                               "experiment": "domain_split"}))
    rc = run_cli("run", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert "schema" in capsys.readouterr().err


def test_flags_override_config_values(tmp_path):
    cfg = tmp_path / "is.json"
    cfg.write_text(json.dumps({
        "schema": 1, "experiment": "fem_infsup", "id": "ov",
        "params": {"mesh": "square:1/4", "pair": "power:2:power:2"}}))
    rc = run_cli("run", str(cfg), "--mesh", "square:1/8",
                 "--out", str(tmp_path))
    assert rc == 0
    header, rows = read_csv(tmp_path / "ov_infsup.csv")
    assert [float(r[0]) for r in rows] == [0.125]


def test_seed_gives_byte_identical_outputs(tmp_path):
    cfg = tmp_path / "nm.json"
    cfg.write_text(json.dumps({
        "schema": 1, "experiment": "norm_machinery", "id": "nm",
        "seed": 11,
        "params": {"n_fields": 5, "n_chi": 3, "n_hardy": 10}}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", str(cfg), "--out", str(a)) == 0
    assert run_cli("run", str(cfg), "--out", str(b)) == 0
    names = sorted(f.name for f in a.iterdir())
    assert names == sorted(f.name for f in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ORLICZ_OUT", str(tmp_path / "envout"))
    rc = run_cli("young", "--young", "power:2")
    assert rc == 0
    assert (tmp_path / "envout" / "young_doc.json").exists()


def test_failing_assertion_exits_1(tmp_path, capsys):
    rc = run_cli("run", "balance",
                 "--set", 'pairs=[["power:1:power:1", true]]',
                 "--out", str(tmp_path))
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    rep = read_report(tmp_path, "balance_matrix")
    assert rep["passed"] is False


def test_run_fem_requires_verb(capsys):
    assert run_cli("run", "fem") == 2
    assert "verb" in capsys.readouterr().err


def test_run_unknown_target(capsys):
    assert run_cli("run", "frobnicate") == 2
    assert "frobnicate" in capsys.readouterr().err


def test_suite_runner(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a_one.json").write_text(json.dumps(
        {"schema": 1, "experiment": "young_doc", "id": "one",
         "params": {"young": "power:2"}}))
    (suite / "b_two.json").write_text(json.dumps(
        {"schema": 1, "experiment": "domain_split", "id": "two",
         "params": {"n": 16}}))
    rc = run_cli("run", "--suite", str(suite), "--out", str(tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS a_one.json" in out
    assert "PASS b_two.json" in out
    assert (tmp_path / "one.json").exists()
    assert (tmp_path / "two.json").exists()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "orlicz", "young", "--young", "eyring",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "PASS conjugate involution" in proc.stdout
