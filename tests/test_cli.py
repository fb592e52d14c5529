"""End-to-end checks of the command line layer.

Most tests call cli.main() in process to keep the suite fast; one
subprocess test exercises the installed module entry point.  Frozen
numbers follow the same policy as test_fem.py: computed once, pinned
with tight relative tolerances.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import corpus_fields

from orlicz import bogovskii, cli, fem, young
from orlicz.spaces import SampledField, field_to_csv, luxemburg_norm

INFSUP_H8 = 1.0153046023291719

CONFIGS = str(Path(__file__).resolve().parent.parent / "configs")


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


def test_bogovskii_rejects_shuffled_grid_csv(tmp_path, capsys):
    # the kink density on the disk, written in grid order and shuffled;
    # only the ordered file describes the field its rows are reshaped to
    ordered = tmp_path / "ordered.csv"
    field_to_csv(bogovskii.grid_field(bogovskii.StarDomain.disk(),
                                      cli._expressions()["kink"], 16),
                 ordered)
    rows = ordered.read_text().splitlines()
    perm = np.random.default_rng(0).permutation(len(rows) - 1)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([rows[0]] + [rows[1 + i] for i in perm])
                        + "\n")
    assert run_cli("bogovskii", "--f", str(ordered), "--grid", "16",
                   "--out", str(tmp_path), "--id", "from_csv") == 0
    assert run_cli("bogovskii", "--f", str(shuffled), "--grid", "16",
                   "--out", str(tmp_path), "--id", "shuffled") == 1
    rep = read_report(tmp_path, "shuffled")
    assert rep["passed"] is False
    assert "bogovskii_field" in rep["error"]
    assert "row-major" in rep["error"]
    assert "bogovskii_field" in capsys.readouterr().err


def test_polygon_domain_file(tmp_path, capsys):
    # the L-shape is star-shaped for the first ball, not for the second
    ell = [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]]
    for center, radius, rc in [([0.25, 0.25], 0.2, 0), ([0.9, 0.4], 0.08, 2)]:
        doc = tmp_path / "ell.json"
        doc.write_text(json.dumps({"vertices": ell, "ball_center": center,
                                   "ball_radius": radius}))
        assert run_cli("bogovskii", "--domain", str(doc), "--grid", "8",
                       "--out", str(tmp_path)) == rc
    assert "--domain" in capsys.readouterr().err


def test_removed_quad_param_rejected(tmp_path, capsys):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "bogovskii_run",
                               "params": {"grid": 16, "quad": 16}}))
    rc = run_cli("run", str(cfg), "--out", str(tmp_path))
    assert rc == 2
    assert "params.quad" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("fem", "infsup", "--m", "1"),
    ("run", "fem_infsup", "--m", "1"),
    ("bogovskii", "--gr", "8"),
])
def test_flags_are_not_abbreviated(tmp_path, capsys, argv):
    # the removed --m and a prefix of --grid are named as typed, not
    # read as --mesh, --method or --grid
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: %s %s" % argv[-2:] in err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("argv, flag", [
    (("bogovskii", "--grid", "0"), "--grid"),
    (("bogovskii", "--grid", "-4"), "--grid"),
    (("bogovskii", "--grid", "1"), "--grid"),
    (("negnorm", "--u", "step_x", "--pair", "power:2:power:2",
      "--family-depth", "0"), "--family-depth"),
    (("fem", "infsup", "--k", "3"), "--k"),
    (("fem", "infsup", "--m", "1"), "--m"),
    (("fem", "infsup", "--method", "eigen", "--pair", "zygmund:1:1:power:1"),
     "--method"),
    (("run", "fem_infsup", "--pair", "zygmund:1:1:power:1",
      "--set", "method=eigen"), "params.method"),
    (("young", "--young", "power:2", "--grid", "1:10:abc"), "--grid"),
    (("young", "--young", "power:2", "--grid", "1:10:0"), "--grid"),
    (("run", "bogovskii_run", "--grid", "8", "--set", "rearr_c=abc"),
     "params.rearr_c"),
    (("run", "--suite", CONFIGS, "--set", "n=abc"), "--set"),
    (("run", "--suite", CONFIGS, "--pair", "nope"), "--pair"),
    (("run", "--suite", CONFIGS, "--mesh", "square:1/4"), "--mesh"),
    (("run", "--suite", CONFIGS, "--grid", "8"), "--grid"),
    (("run", "--suite", CONFIGS, "--depth", "2"), "--depth"),
    (("run", "--suite", CONFIGS, "--seed", "1"), "--seed"),
    (("run", "--suite", CONFIGS, "--id", "x"), "--id"),
    (("run", "--suite", CONFIGS, "--jobs", "-3"), "--jobs"),
    (("run", "--suite", CONFIGS, "--jobs", "0"), "--jobs"),
    (("young", "--young", "cap:nan"), "--young"),
    (("young", "--young", "cap:inf"), "--young"),
    (("young", "--young", "power:inf"), "--young"),
    (("young", "--young", "zygmund:1:nan"), "--young"),
    (("young", "--young", "exp:inf"), "--young"),
    (("young", "--young", "exp:0.001"), "--young"),
    (("fem", "pressure", "--mesh", "square:1/4", "--law", "power:nan:0:3"),
     "--law"),
    (("fem", "pressure", "--mesh", "square:1/4", "--law", "eyring:1:inf"),
     "--law"),
    (("young", "--young", "exp:0.008"), "--young"),
])
def test_out_of_range_count_flags_exit_2(tmp_path, capsys, argv, flag):
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("fem", "projection", "--mesh", "square:1/4", "--law", "power:1:1:3",
      "--seed", "5", "--method", "eigen"), "--law"),
    (("fem", "projection", "--mesh", "square:1/4", "--seed", "5"),
     "--seed"),
    (("fem", "pressure", "--mesh", "square:1/4", "--method", "eigen"),
     "--method"),
    (("run", "young", "--seed", "3"), "--seed"),
    (("run", "split", "--seed", "3"), "--seed"),
])
def test_flags_the_experiment_does_not_take_exit_2(tmp_path, capsys, argv,
                                                   flag):
    # named before any work, instead of being dropped without a word
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert flag in err and "is not a setting of experiment" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("direct, run", [
    (("negnorm", "--u", "step_x", "--pair", "power:2:power:2",
      "--grid", "16", "--family-depth", "2"),
     ("run", "negnorm_field", "--set", "u=step_x",
      "--set", "pair=power:2:power:2", "--set", "n=16", "--set", "depth=2")),
    (("bogovskii", "--grid", "16"), ("run", "bogovskii_run", "--grid", "16")),
])
def test_subcommand_and_run_write_the_same_files(tmp_path, direct, run):
    # both forms go through one flag route to the same settings
    a, b = tmp_path / "direct", tmp_path / "run"
    assert run_cli(*direct, "--id", "same", "--out", str(a)) == 0
    assert run_cli(*run, "--id", "same", "--out", str(b)) == 0
    names = sorted(f.name for f in a.iterdir())
    assert names == sorted(f.name for f in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_fem_projection_interpolates_each_mesh_once(tmp_path, monkeypatch):
    calls = []
    apply = fem.projection_apply

    def counted(u, V):
        calls.append(V.tri.h)
        return apply(u, V)

    monkeypatch.setattr(fem, "projection_apply", counted)
    assert run_cli("fem", "projection", "--mesh", "square:1/4,1/8",
                   "--out", str(tmp_path)) == 0
    assert len(calls) == 2


def test_run_seed_flag_beats_config_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "fem_infsup",
                               "id": "sd", "seed": 1,
                               "params": {"mesh": "square:1/4",
                                          "seed": 2}}))
    assert run_cli("run", str(cfg), "--seed", "4",
                   "--out", str(tmp_path)) == 0
    assert read_report(tmp_path, "sd")["params"]["seed"] == 4


@pytest.mark.parametrize("grid", [0, 1, -2, 2.5])
def test_bad_config_grid_names_field(tmp_path, capsys, grid):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"schema": 1, "experiment": "bogovskii_run",
                               "params": {"grid": grid}}))
    assert run_cli("run", str(cfg), "--out", str(tmp_path)) == 2
    assert "params.grid" in capsys.readouterr().err


@pytest.mark.parametrize("setting, field", [
    ("stability_grid=0", "params.stability_grid"),
    ("stability_grid=1", "params.stability_grid"),
    ("n_random=0", "params.n_random"),
    ("grids=[64,0]", "params.grids"),
])
def test_bad_disk_counts_name_field(tmp_path, capsys, setting, field):
    # checked before any solve, so the default 64^2 and 128^2 residual
    # grids cost nothing here
    assert run_cli("run", "bogovskii", "--set", setting,
                   "--out", str(tmp_path)) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("target, setting, field", [
    ("negnorm", "k=0", "params.k"),
    ("negnorm", "k=abc", "params.k"),
    ("negnorm", "n=1", "params.n"),
    ("norm", "n_fields=abc", "params.n_fields"),
    ("norm", "n_chi=0", "params.n_chi"),
    ("norm", "n_hardy=2.5", "params.n_hardy"),
    ("fem_suite", "n_fields=abc", "params.n_fields"),
    ("fem_infsup", "k=abc", "params.k"),
    ("fem_infsup", "m=1", "params.m"),
    ("fem_infsup", "seed=abc", "params.seed"),
    ("fem_infsup", "method=foo", "params.method"),
    ("young", "n_points=abc", "params.n_points"),
    ("young", "n_sandwich=0", "params.n_sandwich"),
    ("split", "n=0", "params.n"),
    ("split", "n=1", "params.n"),
    ("determinism", "runs=0", "params.runs"),
    ("determinism", "runs=1", "params.runs"),
    ("bogovskii_run", "n_s=abc", "params.n_s"),
    ("young", "rtol=abc", "params.rtol"),
    ("norm", "seed=abc", "params.seed"),
    ("fem_suite", "seed=abc", "params.seed"),
    ("negnorm", "pairs=[]", "params.pairs"),
    ("young_doc", "grid=[1,10]", "params.grid"),
    ("balance", "pairs=power:2:power:2", "--set (params.pairs)"),
    ("bogovskii", "grids=[8,16,24]", "params.residual_bounds"),
    ("bogovskii", "residual_bounds=[]", "params.residual_bounds"),
])
def test_bad_counts_name_field(tmp_path, capsys, target, setting, field):
    # checked before any norm or mesh is computed
    assert run_cli("run", target, "--set", setting,
                   "--out", str(tmp_path)) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (("fem", "infsup", "--mesh", "square:0"), "--mesh"),
    (("fem", "projection", "--mesh", "square:-0.25"), "--mesh"),
    (("fem", "pressure", "--mesh", "square:1/4,nan"), "--mesh"),
    (("run", "fem_infsup", "--mesh", "square:1/0"), "--mesh"),
    (("run", "fem_suite", "--set", "hs=[0.25,-0.1]"), "params.hs"),
    (("run", "fem_suite", "--set", "hs=[]"), "params.hs"),
])
def test_nonpositive_mesh_pitch_exit_2(tmp_path, capsys, argv, field):
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (("fem", "infsup", "--mesh", "square:1"), "--mesh (params.mesh)"),
    (("fem", "pressure", "--mesh", "square:2"), "--mesh (params.mesh)"),
    (("run", "fem_suite", "--set", "hs=[1]"), "params.hs"),
    (("young", "--young", "exp:1", "--grid", "1:0.5:3"),
     "--grid (params.grid)"),
])
def test_degenerate_meshes_and_grids_exit_2(tmp_path, capsys, argv, field):
    # two triangles leave the pressure no mode past the constant one; a
    # reversed sample grid would write its table backwards
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert field in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_two_triangle_projection_runs(tmp_path):
    # the interpolation needs no pressure modes
    assert run_cli("fem", "projection", "--mesh", "square:1",
                   "--out", str(tmp_path)) == 0


def test_bands_of_zero_or_infinite_ratios_are_infinite(tmp_path, capsys):
    # on a 2 x 2 grid some corpus field scores 0, and a step pressure has
    # an infinite error ratio: the bands read inf, not a crash or NaN
    assert run_cli("run", "negative_norm", "--set", "n=2", "--set", "k=1",
                   "--out", str(tmp_path)) == 1
    rep = read_report(tmp_path, "negative_norm")
    assert "error" not in rep
    assert "FAIL ratio band within factor 4 for power:2:power:2 " \
        "(value=inf, bound=4.0)" in capsys.readouterr().out
    assert run_cli("run", "fem_pressure", "--set", "pi=step_x",
                   "--mesh", "square:1/4,1/8", "--out", str(tmp_path)) == 0
    text = (tmp_path / "fem_pressure.json").read_text()
    assert "NaN" not in text
    assert json.loads(text)["data"]["ratio_band"] == math.inf


def test_defaults_and_shipped_configs_pass_their_schema():
    # norm_file.field and negnorm_field.pair have no default: the direct
    # commands always set them
    required = {"norm_file": {"field": "sine"},
                "negnorm_field": {"pair": "power:2:power:2"}}
    for name in cli.EXPERIMENTS:
        cli._checked_params({"experiment": name,
                             "params": required.get(name, {})})
    for path in sorted(Path(CONFIGS).glob("*.json")):
        cli._checked_params(cli._load_config(path))


def test_corpus_fields_match_their_formulas():
    # the corpus and the fem_suite pressure come from the CLI's expression
    # table; they are bit-identical to the formulas written out here
    n = 64
    h = 1.0 / n
    xs = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    want = [
        ("step_x", np.sign(X - 0.5)),
        ("step_y", np.sign(Y - 1.0 / 3.0)),
        ("sine", np.sin(math.pi * (X - 0.15)) * np.sin(math.pi * (Y - 0.35))),
        ("ramp", X + 2.0 * Y),
        ("poly", X ** 2 - Y ** 3),
        ("trig", np.cos(2 * math.pi * (X - 0.13))
         * np.cos(math.pi * (Y - 0.29))),
        ("gauss", np.exp(-20.0 * ((X - 0.4) ** 2 + (Y - 0.6) ** 2))),
        ("crease", np.abs(X - 0.3 * Y - 0.55)),
        ("bulge", 16.0 * X ** 2 * Y * (1 - X) * (1 - Y)),
        ("checker", np.sign((X - 0.3) * (Y - 0.65))),
    ]
    got = corpus_fields(n)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (_, u), (_, arr) in zip(got, want):
        assert np.array_equal(u.values, SampledField.from_grid(arr, h).values)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    assert np.array_equal(cli._pi_expr("sinsin")(pts),
                          np.sin(2 * math.pi * pts[:, 0])
                          * np.sin(2 * math.pi * pts[:, 1]))


def test_nonpositive_mesh_file_pitch_names_field(tmp_path, capsys):
    mesh = tmp_path / "mesh.json"
    mesh.write_text(json.dumps({"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
                                "h": [0.5, 0]}))
    assert run_cli("fem", "infsup", "--mesh", str(mesh),
                   "--out", str(tmp_path)) == 2
    assert "params.mesh" in capsys.readouterr().err


@pytest.mark.parametrize("law", [None, "power:1:1:3"])
def test_pressure_k1_names_the_unstable_pair(tmp_path, capsys, law):
    # the study and the stress mode build the space the params ask for
    extra = () if law is None else ("--law", law)
    assert run_cli("fem", "pressure", "--mesh", "square:1/4", "--k", "1",
                   *extra, "--out", str(tmp_path)) == 1
    assert "(k=1, m=0)" in read_report(tmp_path, "fem_pressure")["error"]
    assert "(k=1, m=0)" in capsys.readouterr().err


def test_pressure_study_reads_a_mesh_file(tmp_path):
    mesh = tmp_path / "mesh.json"
    mesh.write_text(json.dumps({"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
                                "h": [0.25, 0.125]}))
    assert run_cli("fem", "pressure", "--mesh", str(mesh),
                   "--out", str(tmp_path), "--id", "file") == 0
    assert run_cli("fem", "pressure", "--mesh", "square:1/4,1/8",
                   "--out", str(tmp_path), "--id", "square") == 0
    study = (tmp_path / "file_study.csv").read_bytes()
    assert study == (tmp_path / "square_study.csv").read_bytes()
    assert len(study.splitlines()) == 3


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


def test_failed_driver_leaves_report(tmp_path, capsys, monkeypatch):
    def boom(p, out):
        raise RuntimeError("solver diverged")

    monkeypatch.setitem(cli.EXPERIMENTS["young_doc"], "driver", boom)
    rc = run_cli("young", "--young", "power:2", "--out", str(tmp_path))
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: experiment 'young_doc' failed: solver diverged\n")
    rep = read_report(tmp_path, "young_doc")
    assert rep["passed"] is False
    assert rep["error"] == "RuntimeError: solver diverged"
    assert rep["assertions"] == []
    assert rep["data"] == {}
    assert rep["experiment"] == "young_doc"
    assert rep["params"]["young"] == "power:2"


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
