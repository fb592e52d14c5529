"""Command line interface and config-driven experiment runner.

Two entry styles share the same drivers: direct subcommands (young,
norm, bogovskii, negnorm, fem) for one-off computations, and ``run``
for JSON config files, named experiments, and the shipped suite under
configs/.  Every run writes a JSON report plus plot-ready CSV tables
into the output directory and prints one PASS/FAIL line per assertion.

Determinism contract: with a fixed seed two runs write byte-identical
files.  Keys are sorted, floats go through repr, reports carry no
timestamps and no absolute paths.

Exit codes: 0 when every assertion passes, 1 when one fails or a
driver errors, 2 for usage and config errors.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from orlicz import bogovskii, fem, negnorm, spaces, young
from orlicz.spaces import (SampledField, StepFunction, field_from_csv,
                           field_to_csv, hardy_average, luxemburg_norm,
                           modular, rearrange)

SCHEMA = 1
_OUT_ENV = "ORLICZ_OUT"
_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


class UsageError(Exception):
    """Bad flags or config contents; maps to exit code 2."""


class ExperimentError(Exception):
    """Driver failure wrapped with the experiment id; exit code 1."""


# -- literals and input loading -------------------------------------------

def _parse_young_flag(text, flag):
    try:
        return young.parse_young(text)
    except (ValueError, IndexError) as exc:
        raise UsageError("%s: %s" % (flag, exc))


def _parse_pair_flag(text, flag):
    try:
        return young.parse_pair(text)
    except (ValueError, IndexError) as exc:
        raise UsageError("%s: %s" % (flag, exc))


def _count(value, flag, least=1):
    """An integer setting (grid size, family depth) >= least, or exit 2."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not float(value).is_integer() or value < least:
        raise UsageError("%s must be an integer >= %d, got %r"
                         % (flag, least, value))
    return int(value)


def _parse_h(token, flag):
    """A pitch or radius written N or N/D; finite and > 0, or exit 2."""
    token = token.strip()
    num, _, den = token.partition("/")
    try:
        h = float(num) / float(den) if den else float(num)
    except (ValueError, ZeroDivisionError):
        h = math.nan
    if not (math.isfinite(h) and h > 0):
        raise UsageError("%s: %r is not a positive number" % (flag, token))
    return h


def _square_pitches(spec, flag):
    """The pitches of a square:H[,H...] mesh spec."""
    hs = [_parse_h(tok, flag)
          for tok in spec[len("square:"):].split(",") if tok.strip()]
    if not hs:
        raise UsageError("%s: no pitch given in %r" % (flag, spec))
    return hs


def _expressions():
    """Named scalar expressions accepted by --f and --u."""
    return {
        "step_x": lambda X, Y: np.sign(X - 0.5),
        "step_y": lambda X, Y: np.sign(Y - 1.0 / 3.0),
        "sine": lambda X, Y: np.sin(math.pi * (X - 0.15))
        * np.sin(math.pi * (Y - 0.35)),
        "ramp": lambda X, Y: X + 2.0 * Y,
        "poly": lambda X, Y: X ** 2 - Y ** 3,
        "trig": lambda X, Y: np.cos(2 * math.pi * (X - 0.13))
        * np.cos(math.pi * (Y - 0.29)),
        "gauss": lambda X, Y: np.exp(-20.0 * ((X - 0.4) ** 2
                                              + (Y - 0.6) ** 2)),
        "crease": lambda X, Y: np.abs(X - 0.3 * Y - 0.55),
        "bulge": lambda X, Y: 16.0 * X ** 2 * Y * (1 - X) * (1 - Y),
        "checker": lambda X, Y: np.sign((X - 0.3) * (Y - 0.65)),
        "kink": lambda X, Y: np.sqrt(X ** 2 + Y ** 2) - 2.0 / 3.0,
        "cospi": lambda X, Y: np.cos(math.pi * X) * np.sin(math.pi * Y),
    }


def _square_field(name, n):
    fn = _expressions()[name]
    h = 1.0 / n
    xs = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return SampledField.from_grid(fn(X, Y), h)


def _load_scalar_field(spec, n, flag):
    if spec in _expressions():
        return _square_field(spec, n)
    path = Path(spec)
    if path.suffix == ".csv" and path.exists():
        return field_from_csv(path)
    if path.suffix == ".json" and path.exists():
        return SampledField.from_dict(json.loads(path.read_text()))
    raise UsageError(
        "%s: %r is neither a known expression (%s) nor a readable "
        ".csv/.json file" % (flag, spec, ", ".join(sorted(_expressions()))))


def _load_domain(spec, flag):
    if spec == "disk":
        return bogovskii.StarDomain.disk()
    if isinstance(spec, str) and spec.startswith("disk:"):
        return bogovskii.StarDomain.disk(
            radius=_parse_h(spec[5:], flag))
    path = Path(str(spec))
    if path.suffix == ".json" and path.exists():
        doc = json.loads(path.read_text())
        try:
            return bogovskii.StarDomain(doc["vertices"],
                                        doc["ball_center"],
                                        doc["ball_radius"])
        except (KeyError, ValueError) as exc:
            raise UsageError("%s: %s: %s" % (flag, spec, exc))
    raise UsageError("%s: expected 'disk', 'disk:R' or a polygon .json "
                     "file, got %r" % (flag, spec))


def _meshes_from_spec(spec, flag):
    """List of (pitch, Triangulation) from square:H[,H...] or a file."""
    if isinstance(spec, str) and spec.startswith("square:"):
        return [(h, fem.triangulate(_SQUARE, h))
                for h in _square_pitches(spec, flag)]
    path = Path(str(spec))
    if path.suffix == ".json" and path.exists():
        doc = json.loads(path.read_text())
        try:
            polygon = doc["polygon"]
            hs = doc["h"]
            coarse = doc.get("coarse")
        except KeyError as exc:
            raise UsageError("%s: %s: missing key %s" % (flag, spec, exc))
        if not isinstance(hs, list):
            hs = [hs]
        hs = [_parse_h(str(h), flag) for h in hs]
        coarse_arg = None
        if coarse is not None:
            coarse_arg = (coarse["vertices"], coarse["simplices"])
        return [(h, fem.triangulate(polygon, h, coarse=coarse_arg))
                for h in hs]
    raise UsageError("%s: expected square:H[,H...] or a mesh .json file, "
                     "got %r" % (flag, spec))


def _check_fem_settings(p, prefix):
    """Range-check the FE settings of a fem_* experiment before any mesh
    is built, or exit 2 naming prefix + setting ('--k', 'params.k')."""
    if _count(p["k"], prefix + "k") > 2:
        raise UsageError("%sk: velocity degree must be 1 or 2, got %r"
                         % (prefix, p["k"]))
    if _count(p["m"], prefix + "m", least=0) != 0:
        raise UsageError("%sm: only piecewise-constant pressure (0) is "
                         "shipped, got %r" % (prefix, p["m"]))
    if "method" not in p:
        return
    _count(p["seed"], prefix + "seed", least=0)
    if p["method"] not in ("auto", "eigen", "ascent"):
        raise UsageError("%smethod must be auto, eigen or ascent, got %r"
                         % (prefix, p["method"]))
    if p["method"] == "eigen" and not all(
            map(fem._is_plain_quadratic,
                _parse_pair_flag(p["pair"], prefix + "pair"))):
        raise UsageError("%smethod: eigen needs the quadratic pair "
                         "power:2:power:2, got %r" % (prefix, p["pair"]))


def _parse_law(spec, flag):
    parts = str(spec).split(":")
    try:
        if parts[0] == "power" and len(parts) == 4:
            return fem.StressLaw.power(float(parts[1]), float(parts[2]),
                                       float(parts[3]))
        if parts[0] == "eyring" and len(parts) == 3:
            return fem.StressLaw.eyring(float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise UsageError("%s: %s" % (flag, exc))
    raise UsageError("%s: expected power:NU:KAPPA:P or eyring:NU:LAM, "
                     "got %r" % (flag, spec))


# -- report plumbing --------------------------------------------------------

def _resolve_out(flag_value, cfg_value=None):
    out = flag_value or cfg_value or os.environ.get(_OUT_ENV) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _write_json(path, obj):
    path.write_text(json.dumps(_sanitize(obj), sort_keys=True, indent=2)
                    + "\n")


def _csv_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _check(name, passed, value=None, bound=None):
    return {"name": name, "passed": bool(passed),
            "value": _sanitize(value), "bound": _sanitize(bound)}


def _run_one(cfg, out_flag=None, quiet=False):
    """Validate params, run the driver, emit files, return exit code."""
    name = cfg["experiment"]
    entry = EXPERIMENTS[name]
    given = cfg.get("params") or {}
    for key in sorted(given):
        if key not in entry["params"]:
            raise UsageError(
                "params.%s is not a setting of experiment %r (allowed: %s)"
                % (key, name, ", ".join(sorted(entry["params"]))))
    p = dict(entry["params"])
    p.update(given)
    if "seed" in cfg and "seed" in p:
        p["seed"] = cfg["seed"]
    rid = cfg.get("id") or name
    out = _resolve_out(out_flag, cfg.get("out"))
    try:
        result = entry["driver"](p, out)
    except UsageError:
        raise
    except Exception as exc:
        raise ExperimentError("experiment %r failed: %s" % (rid, exc)) \
            from exc
    assertions = result.get("assertions", [])
    passed = all(a["passed"] for a in assertions)
    report = {"schema": SCHEMA, "experiment": name, "id": rid,
              "params": p, "assertions": assertions, "passed": passed,
              "data": result.get("data", {})}
    _write_json(out / (rid + ".json"), report)
    for tname in sorted(result.get("tables", {})):
        header, rows = result["tables"][tname]
        _write_csv(out / ("%s_%s.csv" % (rid, tname)), header, rows)
    for fname in sorted(result.get("fields", {})):
        field_to_csv(result["fields"][fname],
                     out / ("%s_%s.csv" % (rid, fname)))
    if not quiet:
        for a in assertions:
            tail = ""
            if a["value"] is not None:
                tail = " (value=%s" % _csv_cell(a["value"])
                if a["bound"] is not None:
                    tail += ", bound=%s" % _csv_cell(a["bound"])
                tail += ")"
            print("%s %s%s" % ("PASS" if a["passed"] else "FAIL",
                               a["name"], tail))
        print("report: %s" % (out / (rid + ".json")))
    return 0 if passed else 1


# -- shared checks -----------------------------------------------------------

def _involution_rel(A, s):
    """Max relative gap of the second conjugate, infinite on any
    mismatch of the +inf sets.  Uses the bisection-backed evaluation so
    the comparison does not inherit interpolation-table error."""
    A2 = A.conjugate().conjugate()
    va, v2 = A(s), A2.eval_exact(s)
    if np.any(np.isposinf(va) ^ np.isposinf(v2)):
        return math.inf
    m = ~np.isposinf(va) & (va > 0)
    if not np.any(m):
        return 0.0 if np.array_equal(v2, va) else math.inf
    return float(np.max(np.abs(v2[m] - va[m]) / va[m]))


def _sandwich_ratios(A, r):
    prod = A.inverse(r) * A.conjugate().inverse(r)
    ratio = prod / r
    return float(np.min(ratio)), float(np.max(ratio))


def _vortex(pts):
    """Divergence-free velocity vanishing on the unit-square boundary."""
    x, y = pts[:, 0], pts[:, 1]
    u1 = np.sin(math.pi * x) ** 2 * np.sin(2 * math.pi * y)
    u2 = -np.sin(2 * math.pi * x) * np.sin(math.pi * y) ** 2
    return np.stack([u1, u2], axis=-1)


def _vortex_grad(pts):
    x, y = pts[:, 0], pts[:, 1]
    pi = math.pi
    g = np.empty((len(pts), 2, 2))
    g[:, 0, 0] = pi * np.sin(2 * pi * x) * np.sin(2 * pi * y)
    g[:, 0, 1] = 2 * pi * np.sin(pi * x) ** 2 * np.cos(2 * pi * y)
    g[:, 1, 0] = -2 * pi * np.cos(2 * pi * x) * np.sin(pi * y) ** 2
    g[:, 1, 1] = -pi * np.sin(2 * pi * x) * np.sin(2 * pi * y)
    return g


def _pi_expr(name, flag):
    if name == "sinsin":
        return lambda pts: (np.sin(2 * math.pi * pts[:, 0])
                            * np.sin(2 * math.pi * pts[:, 1]))
    if name in _expressions():
        fn = _expressions()[name]
        return lambda pts: fn(pts[:, 0], pts[:, 1])
    raise UsageError("%s: unknown pressure expression %r" % (flag, name))


def _random_square_field(rng, n, scale):
    return SampledField.from_grid(rng.normal(size=(n, n)) * scale, 1.0 / n)


# -- direct-command drivers ---------------------------------------------------

def _drive_young_doc(p, out):
    A = _parse_young_flag(p["young"], "params.young") \
        if not Path(str(p["young"])).exists() \
        else young.young_from_dict(json.loads(Path(p["young"]).read_text()))
    lo, hi, n = p["grid"]
    s = np.geomspace(float(lo), float(hi), int(n))
    vals = A(s)
    conj = A.conjugate()(s)
    rel = _involution_rel(A, s)
    data = {"young": A.to_dict(), "grid": {"min": float(lo),
                                           "max": float(hi),
                                           "points": int(n)},
            "involution_max_rel": rel}
    table = ("samples", (["s", "value", "conjugate_value"],
                         [(float(si), float(v), float(c))
                          for si, v, c in zip(s, vals, conj)]))
    return {"data": data,
            "assertions": [_check("conjugate involution", rel <= 1e-6,
                                  rel, 1e-6)],
            "tables": dict([table])}


def _drive_norm_file(p, out):
    u = _load_scalar_field(p["field"], _count(p["n"], "params.n"),
                           "params.field")
    A = _parse_young_flag(p["young"], "params.young")
    norm = luxemburg_norm(u, A)
    data = {"norm": norm, "modular": modular(u, A),
            "n_cells": u.n_cells, "domain_measure": u.domain_measure}
    tables = {}
    if p["rearrange"]:
        star = rearrange(u.magnitude_field() if u.rank else u)
        tables["rearrangement"] = (
            ["upper_edge", "value"],
            list(zip(star.edges[1:].tolist(), star.values.tolist())))
    return {"data": data, "assertions": [], "tables": tables}


def _drive_bogovskii_run(p, out):
    D = _load_domain(p["domain"], "params.domain")
    # the finite-difference gradient needs two cells per axis
    n = _count(p["grid"], "params.grid", least=2)
    n_s = _count(p["n_s"], "params.n_s")
    if str(p["f"]) in _expressions():
        f = bogovskii.grid_field(D, _expressions()[p["f"]], n)
    else:
        f = _load_scalar_field(p["f"], n, "params.f")
    A, B = _parse_pair_flag(p["pair"], "params.pair")
    rep = bogovskii.bogovskii_field(f, D)
    gmag = rep["gradient"].magnitude_field()
    nf = luxemburg_norm(rep["f"], A)
    grad_c = luxemburg_norm(gmag, B) / nf if nf > 0 else 0.0
    rearr = bogovskii.check_rearrangement_estimate(
        rep["f"], rep["gradient"], float(p["rearr_c"]), n_s=n_s)
    data = {"div_residual": rep["div_residual"],
            "grad_norm_C": grad_c,
            "modular_C": bogovskii.check_modular_bound(rep, A, B),
            "rearrestim_ok": rearr["ok"],
            "rearrestim_least_C": rearr["least_C"],
            "boundary_mean_u": rep["boundary_mean_u"],
            "h": rep["h"]}
    return {"data": data, "assertions": [],
            "fields": {"field": rep["u"]}}


def _drive_negnorm_field(p, out):
    if not p["pair"]:
        raise UsageError("params.pair is required (--pair on the "
                         "command line)")
    u = _load_scalar_field(p["u"], _count(p["n"], "params.n"), "params.u")
    depth = _count(p["depth"], "params.depth")
    A, B = _parse_pair_flag(p["pair"], "params.pair")
    cent = u.centroids
    active = u.measures > 0
    half = 0.5 * math.sqrt(float(np.median(u.measures[active])))
    lo = cent[active].min(axis=0) - half
    hi = cent[active].max(axis=0) + half
    fam = negnorm.TestFamily.bubbles(tuple(lo), tuple(hi), depth=depth)
    rep = negnorm.two_sided_check(u, A, B, fam)
    data = {"lower": rep["lower"], "upper": rep["upper"],
            "r_low": rep["r_low"], "r_high": rep["r_high"],
            "witness_id": rep["witness"], "admissible": rep["admissible"],
            "degenerate": rep["degenerate"]}
    ok = rep["lower"] <= rep["upper"] * (1 + 1e-9)
    return {"data": data,
            "assertions": [_check("lower bound within certified upper",
                                  ok, rep["lower"], rep["upper"])]}


def _drive_fem_infsup(p, out):
    _check_fem_settings(p, "params.")
    meshes = _meshes_from_spec(p["mesh"], "params.mesh")
    A, B = _parse_pair_flag(p["pair"], "params.pair")
    rows = []
    values = []
    any_def = False
    for h, tri in meshes:
        V = fem.FESpacePair(tri, k=int(p["k"]), m=int(p["m"]))
        rep = fem.compute_infsup(V, A, B, method=p["method"],
                                 seed=int(p["seed"]))
        rows.append((h, rep["value"], rep["method"], rep["converged"],
                     rep["rank_deficient"], rep["n_velocity"],
                     rep["n_pressure"]))
        values.append(rep["value"])
        any_def = any_def or rep["rank_deficient"]
    band = max(values) / min(values) if min(values) > 0 else math.inf
    data = {"h": [r[0] for r in rows], "values": values, "band": band,
            "rank_deficient": any_def}
    return {"data": data, "assertions": [],
            "tables": {"infsup": (["h", "value", "method", "converged",
                                   "rank_deficient", "n_velocity",
                                   "n_pressure"], rows)}}


def _drive_fem_pressure(p, out):
    _check_fem_settings(p, "params.")
    A, B = _parse_pair_flag(p["pair"], "params.pair")
    if p["law"] is None:
        spec = str(p["mesh"])
        if not spec.startswith("square:"):
            raise UsageError("params.mesh: the pressure study needs "
                             "square:H[,H...]")
        hs = _square_pitches(spec, "params.mesh")
        pi = _pi_expr(p["pi"], "params.pi")
        rows = fem.pressure_error_study(pi, hs, A, B)
        table = [(r["h"], r["error"], r["best"], r["ratio"],
                  r["stability"], r["residual"]) for r in rows]
        ratios = [r["ratio"] for r in rows]
        data = {"mode": "pressure", "ratios": ratios,
                "errors": [r["error"] for r in rows],
                "ratio_band": max(ratios) / min(ratios)}
        return {"data": data, "assertions": [],
                "tables": {"study": (["h", "error", "best", "ratio",
                                      "stability", "residual"], table)}}
    law = _parse_law(p["law"], "params.law")

    def H(pts):
        g = _vortex_grad(pts)
        eps = 0.5 * (g + np.swapaxes(g, -1, -2))
        return fem.stress_eval(law, eps)

    rows = []
    for h, tri in _meshes_from_spec(p["mesh"], "params.mesh"):
        V = fem.FESpacePair(tri, k=int(p["k"]), m=int(p["m"]))
        system = fem.assemble_pressure_system(H, V)
        rec = fem.reconstruct_pressure(system, mode="least_squares")
        pnorm = luxemburg_norm(V.pressure_field(rec["values"]), B)
        rows.append((h, rec["residual"], pnorm))
    data = {"mode": "stress", "law": str(p["law"]),
            "residuals": [r[1] for r in rows]}
    return {"data": data, "assertions": [],
            "tables": {"stress": (["h", "residual", "pressure_norm"],
                                  rows)}}


def _drive_fem_projection(p, out):
    _check_fem_settings(p, "params.")
    A, _ = _parse_pair_flag(p["pair"], "params.pair")
    rows = []
    assertions = []
    for h, tri in _meshes_from_spec(p["mesh"], "params.mesh"):
        V = fem.FESpacePair(tri, k=int(p["k"]), m=int(p["m"]))
        rep = fem.projection_apply(_vortex, V)
        local = fem.check_local_stability(_vortex, _vortex_grad, V,
                                          rep["coeffs"])
        ratio = fem.check_orlicz_projection_stability(
            _vortex, _vortex_grad, V, A)
        rows.append((h, rep["defect_before"], rep["defect_after"],
                     local, ratio))
        assertions.append(_check(
            "element divergence preserved at h=%s" % _csv_cell(h),
            rep["defect_after"] <= 1e-12, rep["defect_after"], 1e-12))
    data = {"defect_after": [r[2] for r in rows],
            "local_stability": [r[3] for r in rows],
            "orlicz_ratio": [r[4] for r in rows]}
    return {"data": data, "assertions": assertions,
            "tables": {"projection": (["h", "defect_before",
                                       "defect_after", "local_stability",
                                       "orlicz_ratio"], rows)}}


# -- suite drivers ------------------------------------------------------------

def _drive_young_calculus(p, out):
    n_inv, n_sand = (_count(p[f], "params." + f)
                     for f in ("n_points", "n_sandwich"))
    s_inv = np.geomspace(1e-6, 1e6, n_inv)
    s_sand = np.geomspace(1e-6, 1e6, n_sand)
    rows = []
    assertions = []
    for literal in p["families"]:
        A = _parse_young_flag(literal, "params.families")
        rel = _involution_rel(A, s_inv)
        lo, hi = _sandwich_ratios(A, s_sand)
        rows.append((literal, rel, lo, hi))
        assertions.append(_check("involution %s" % literal,
                                 rel <= float(p["rtol"]), rel, p["rtol"]))
        assertions.append(_check(
            "inverse sandwich %s" % literal,
            lo >= 1 - 1e-9 and hi <= 2 + 2e-9, [lo, hi], [1.0, 2.0]))
    return {"data": {"families": list(p["families"])},
            "assertions": assertions,
            "tables": {"families": (["family", "involution_max_rel",
                                     "sandwich_min", "sandwich_max"],
                                    rows)}}


def _drive_balance_matrix(p, out):
    rows = []
    assertions = []
    have_expectation = False
    for entry in p["pairs"]:
        literal, expected = (entry if isinstance(entry, (list, tuple))
                             else (entry, None))
        A, B = _parse_pair_flag(literal, "params.pairs")
        rep = young.check_balance(A, B)
        rows.append((literal, rep.admissible, expected, rep.c_11,
                     rep.c_12, rep.t0))
        if expected is not None:
            have_expectation = True
            ok = rep.admissible == bool(expected)
            if expected:
                ok = ok and math.isfinite(rep.c_11) \
                    and math.isfinite(rep.c_12) and math.isfinite(rep.t0)
            assertions.append(_check(
                "balance %s (expect %s)" % (literal, "admissible"
                                            if expected else "inadmissible"),
                ok, rep.admissible, expected))
    data = {"matrix": [{"pair": r[0], "admissible": r[1], "c_11": r[3],
                        "c_12": r[4], "t0": r[5]} for r in rows]}
    if not have_expectation and rows:
        # single-pair report mode: no classification expectations given
        data["report"] = data["matrix"][0]
    return {"data": data, "assertions": assertions,
            "tables": {"matrix": (["pair", "admissible", "expected",
                                   "c_11", "c_12", "t0"], rows)}}


def _drive_norm_machinery(p, out):
    n_fields, n_chi, n_hardy = (_count(p[f], "params." + f)
                                for f in ("n_fields", "n_chi", "n_hardy"))
    rng = np.random.default_rng(int(p["seed"]))
    fams = [young.power(1.5), young.power(4.0), young.zygmund(1, 1),
            young.exponential(1.0)]
    labels = ["power:1.5", "power:4", "zygmund:1:1", "exp:1"]

    worst_inv = 0.0
    for _ in range(n_fields):
        u = _random_square_field(rng, int(rng.integers(2, 9)),
                                 rng.uniform(0.05, 20))
        star = rearrange(u)
        for A in fams:
            nu = luxemburg_norm(u, A)
            ns = luxemburg_norm(star, A)
            worst_inv = max(worst_inv, abs(nu - ns) / max(nu, 1e-300))

    worst_chi = 0.0
    n = 8
    for A in fams:
        for _ in range(n_chi):
            c = rng.uniform(0.2, 8.0)
            k = int(rng.integers(1, n * n))
            vals = np.zeros(n * n)
            vals[:k] = c
            u = SampledField.from_grid(vals.reshape(n, n), 1.0 / n)
            want = c / A.inverse(1.0 / (k / n ** 2))
            got = luxemburg_norm(u, A)
            worst_chi = max(worst_chi, abs(got - want) / want)

    worst_hardy = 0.0
    for _ in range(n_hardy):
        m = int(rng.integers(1, 12))
        w = rng.uniform(0.01, 1.0, size=m)
        v = np.sort(rng.uniform(0, 5.0, size=m))[::-1]
        phi = StepFunction(np.cumsum(w), v, widths=w)
        num = math.sqrt(hardy_average(phi).integral_sq())
        den = math.sqrt(math.fsum(w * v ** 2))
        if den > 0:
            worst_hardy = max(worst_hardy, num / den)

    rows = [("rearrangement_invariance", worst_inv, 1e-10),
            ("indicator_closed_form", worst_chi, 1e-8),
            ("hardy_norm_p2", worst_hardy, 2.01)]
    assertions = [
        _check("rearrangement invariance", worst_inv <= 1e-10,
               worst_inv, 1e-10),
        _check("indicator norm closed form", worst_chi <= 1e-8,
               worst_chi, 1e-8),
        _check("Hardy averaging norm for the quadratic",
               worst_hardy <= 2.01, worst_hardy, 2.01),
    ]
    return {"data": {"families": labels},
            "assertions": assertions,
            "tables": {"checks": (["check", "worst", "bound"], rows)}}


def _random_disk_density(rng):
    a = rng.normal(size=6)

    def fn(X, Y):
        return (a[0] * np.cos(np.pi * X) + a[1] * np.sin(np.pi * Y)
                + a[2] * np.cos(2 * np.pi * X) * np.sin(np.pi * Y)
                + a[3] * X * Y + a[4] * np.sin(np.pi * X * Y) + a[5] * Y)

    return fn


def _drive_bogovskii_disk(p, out):
    grids = [_count(g, "params.grids", least=2) for g in p["grids"]]
    stability_grid = _count(p["stability_grid"], "params.stability_grid",
                            least=2)
    n_random = _count(p["n_random"], "params.n_random")
    D = bogovskii.StarDomain.disk()
    kink = _expressions()["kink"]
    assertions = []

    res_rows = []
    for grid, bound in zip(grids, p["residual_bounds"]):
        rep = bogovskii.bogovskii_field(
            bogovskii.grid_field(D, kink, grid), D)
        res_rows.append((grid, rep["div_residual"], float(bound)))
        assertions.append(_check(
            "divergence residual at %d^2" % grid,
            rep["div_residual"] < float(bound),
            rep["div_residual"], bound))

    rng = np.random.default_rng(int(p["seed"]))
    reports = []
    for _ in range(n_random):
        f = bogovskii.grid_field(D, _random_disk_density(rng),
                                 stability_grid)
        reports.append(bogovskii.bogovskii_field(f, D))
    stab_rows = []
    for literal in p["pairs"]:
        A, B = _parse_pair_flag(literal, "params.pairs")
        cs = [luxemburg_norm(r["gradient"].magnitude_field(), B)
              / luxemburg_norm(r["f"], A) for r in reports]
        mid = sum(cs) / len(cs)
        stab_rows.extend((literal, i, c) for i, c in enumerate(cs))
        assertions.append(_check(
            "gradient constant stable for %s" % literal,
            all(abs(c - mid) <= 0.25 * mid for c in cs),
            max(abs(c - mid) / mid for c in cs), 0.25))

    C = float(p["rearr_c"])
    for rep in reports:
        r = bogovskii.check_rearrangement_estimate(
            rep["f"], rep["gradient"], C, n_s=int(p["n_s"]))
        if not r["ok"]:
            assertions.append(_check("rearrangement calibration", False,
                                     r["least_C"], C))
            break
    held = [("kink", kink),
            ("disk_indicator",
             lambda X, Y: ((X - 0.2) ** 2 + Y ** 2 < 0.09).astype(float)),
            ("cubic", lambda X, Y: X ** 3 - Y ** 2 + 0.5 * X * Y)]
    held_rows = []
    for name, fn in held:
        rep = bogovskii.bogovskii_field(
            bogovskii.grid_field(D, fn, stability_grid), D)
        r = bogovskii.check_rearrangement_estimate(
            rep["f"], rep["gradient"], C, n_s=int(p["n_s"]))
        held_rows.append((name, r["least_C"], r["ok"]))
        assertions.append(_check(
            "rearrangement estimate on held-out %s" % name,
            r["ok"] and r["least_C"] < C, r["least_C"], C))

    return {"data": {"rearr_c": C},
            "assertions": assertions,
            "tables": {"residuals": (["grid", "residual", "bound"],
                                     res_rows),
                       "stability": (["pair", "density", "C"], stab_rows),
                       "rearrangement": (["input", "least_C", "ok"],
                                         held_rows)}}


def _drive_domain_split(p, out):
    R1 = bogovskii.StarDomain.rectangle((0.0, 0.0), (1.0, 0.5))
    R2 = bogovskii.StarDomain.rectangle((0.0, 0.25), (0.5, 1.0))
    dec = bogovskii.DomainDecomposition([R1, R2])
    # a single cell, centred on the boundary at (0.5, 0.5), samples the
    # domain with zero measure
    n = _count(p["n"], "params.n", least=2)
    f = bogovskii.grid_field(dec, lambda X, Y: X, n, bbox=((0, 0), (1, 1)))
    pieces = bogovskii.split_function(f, dec)
    active = f.measures > 0
    target = np.where(active, f.values - f.mean(), 0.0)
    total = pieces[0].values + pieces[1].values
    gap = float(np.max(np.abs(total - target)))
    mean_worst = max(abs(piece.mean()) for piece in pieces)

    bounds = bogovskii.decomposition_norm_bound(f, dec)
    f0 = f.with_values(target)
    margin = 0.0
    for A in (young.power(2.0), young.zygmund(1.0, 1.0)):
        nf = luxemburg_norm(f0, A)
        for piece, bound in zip(pieces, bounds):
            margin = max(margin, luxemburg_norm(piece, A) / (bound * nf))

    assertions = [
        _check("partition identity", gap <= 1e-12, gap, 1e-12),
        _check("pieces are mean-zero", mean_worst <= 1e-12,
               mean_worst, 1e-12),
        _check("norms below the measured-set product", margin <= 1.0,
               margin, 1.0),
    ]
    rows = [(i, float(b)) for i, b in enumerate(bounds)]
    return {"data": {"n": n, "bounds": [float(b) for b in bounds]},
            "assertions": assertions,
            "tables": {"bounds": (["piece", "bound"], rows)}}


def _drive_negative_norm(p, out):
    n = _count(p["n"], "params.n", least=2)  # pairings need two cells a side
    # the enrichment check compares two levels
    depth = _count(p["depth"], "params.depth", least=2)
    k = _count(p["k"], "params.k")
    fam = negnorm.TestFamily.bubbles((0.0, 0.0), (1.0, 1.0), depth=depth)
    depths = range(1, depth + 1)
    prefix = {d: sum(m.scale < d for m in fam.members) for d in depths}
    corpus = [(name, _square_field(name, n))
              for name in ("step_x", "step_y", "sine", "ramp", "poly",
                           "trig", "gauss", "crease", "bulge", "checker")]
    assertions = []

    ones = SampledField.from_grid(np.ones((n, n)), 1.0 / n)
    const_worst = 0.0
    for literal in p["pairs"]:
        A, _ = _parse_pair_flag(literal, "params.pairs")
        lower, _ = negnorm.neg_norm_lower(ones, A, fam)
        const_worst = max(const_worst, lower)
    assertions.append(_check("constants score zero", const_worst == 0.0,
                             const_worst, 0.0))

    A2, _ = _parse_pair_flag(p["pairs"][0], "params.pairs")
    ratios0 = negnorm.member_ratios(corpus[0][1], A2, fam)
    lows = [float(np.max(ratios0[:prefix[d]])) for d in depths]
    h = 1.0 / n
    xs = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    sym = SampledField.from_grid(np.sin(math.pi * X)
                                 * np.sin(math.pi * Y), h)
    ratios_sym = negnorm.member_ratios(sym, A2, fam)
    picked_up = (float(np.max(ratios_sym[:prefix[1]])) < 1e-12
                 and float(np.max(ratios_sym[:prefix[2]])) > 0.1)
    assertions.append(_check(
        "lower bound monotone under enrichment",
        lows == sorted(lows) and picked_up, lows, None))

    band_rows = []
    for literal in p["pairs"]:
        A, B = _parse_pair_flag(literal, "params.pairs")
        per_depth = {d: [] for d in depths}
        certified = True
        for name, u in corpus:
            w = u.mean_zero_project()
            nA = luxemburg_norm(w, A)
            nB = luxemburg_norm(w, B)
            ratios = negnorm.member_ratios(u, A, fam)
            for d in depths:
                lower = float(np.max(ratios[:prefix[d]]))
                certified = certified and lower / nA <= 2.0
                per_depth[d].append(lower / nB)
        bands = {d: max(r) / min(r) for d, r in per_depth.items()}
        band_rows.extend((literal, d, bands[d]) for d in depths)
        assertions.append(_check(
            "ratio band within factor 4 for %s" % literal,
            certified and max(bands.values()) <= 4.0,
            max(bands.values()), 4.0))

    bubble = (((X - 0.25) * (0.75 - X)).clip(min=0) ** 2
              * ((Y - 0.25) * (0.75 - Y)).clip(min=0) ** 2) * 256.0 ** 2
    v = SampledField.from_grid(bubble, h)
    sup_rows = []
    for literal, A in (("power:2", young.power(2.0)),
                       ("zygmund:1:1", young.zygmund(1.0, 1.0))):
        rep = negnorm.sup_approx_convergence(v, A, K=k)
        final = rep["steps"][-1]
        gap = abs(final["norm"] - rep["target"]) / rep["target"]
        sup_rows.extend((literal, row["k"], row["norm"], rep["target"])
                        for row in rep["steps"])
        assertions.append(_check(
            "approximants within 2%% at k=%d for %s"
            % (final["k"], literal), gap <= 0.02, gap, 0.02))

    return {"data": {"pairs": list(p["pairs"])},
            "assertions": assertions,
            "tables": {"bands": (["pair", "depth", "band"], band_rows),
                       "supapprox": (["family", "k", "norm", "target"],
                                     sup_rows)}}


def _drive_fem_suite(p, out):
    if not isinstance(p["hs"], list) or not p["hs"]:
        raise UsageError("params.hs: expected a non-empty list of mesh "
                         "pitches, got %r" % (p["hs"],))
    hs = [_parse_h(str(h), "params.hs") for h in p["hs"]]
    n_fields = _count(p["n_fields"], "params.n_fields")
    seed = int(p["seed"])
    spaces_by_h = {h: fem.FESpacePair(fem.triangulate(_SQUARE, h), k=2)
                   for h in hs}
    assertions = []

    V0 = spaces_by_h[hs[0]]
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(V0.tri.n_simplices)
    areas = V0.tri.areas()
    vals -= np.dot(vals, areas) / areas.sum()
    H = vals[:, None, None] * np.eye(2)[None, :, :]
    rec = fem.reconstruct_pressure(
        fem.assemble_pressure_system(H, V0), mode="exact")
    gap = float(np.abs(rec["values"] - vals).max())
    assertions.append(_check("exact piecewise-constant recovery",
                             gap <= 1e-10, gap, 1e-10))

    p2 = young.power(2.0)
    infsup_rows = []
    values = []
    for h in hs:
        rep = fem.compute_infsup(spaces_by_h[h], p2, p2, method="eigen")
        infsup_rows.append((h, rep["value"]))
        values.append(rep["value"])
    mid = sum(values) / len(values)
    in_band = all(abs(v - mid) <= 0.2 * mid for v in values)
    assertions.append(_check("inf-sup constant within 20% of its mean",
                             in_band and min(values) > 0.1,
                             values, None))

    from scipy.linalg import cholesky, solve_triangular, svdvals
    # whiten by the Cholesky factor of G = kron(K, I2), one component at
    # a time: rows 2i + c of the pairing belong to component c of node i
    Lk = cholesky(V0.scalar_stiffness(), lower=True)
    A = V0.A_matrix
    X = solve_triangular(Lk, A.reshape(V0.n_scalar, -1),
                         lower=True).reshape(A.shape)
    Lp = cholesky(V0.pressure_gram(), lower=True)
    W = solve_triangular(Lp, X.T, lower=True).T
    oracle = 2.0 * svdvals(W)[-1]
    rel = abs(values[0] - oracle) / oracle
    assertions.append(_check("eigen value matches the whitened-SVD "
                             "oracle", rel <= 1e-8, rel, 1e-8))

    V1 = fem.FESpacePair(V0.tri, k=1)
    rep1 = fem.compute_infsup(V1, p2, p2, method="eigen")
    assertions.append(_check("linear/constant pair flagged",
                             rep1["rank_deficient"]
                             and rep1["value"] <= 1e-6,
                             rep1["value"], None))

    rng = np.random.default_rng(7)
    worst_defect = 0.0
    for _ in range(n_fields):
        c = rng.standard_normal(12) * 0.8

        def u(pts, c=c):
            x, y = pts[:, 0], pts[:, 1]
            b = x * (1 - x) * y * (1 - y)
            f1 = c[0] + c[1] * x + c[2] * y + c[3] * x * y \
                + c[4] * x * x + c[5] * y * y
            f2 = c[6] + c[7] * x + c[8] * y + c[9] * x * y \
                + c[10] * x * x + c[11] * y * y
            return np.stack([b * f1, b * f2], axis=-1)

        worst_defect = max(worst_defect,
                           fem.projection_apply(u, V0)["defect_after"])
    assertions.append(_check("interpolation preserves element "
                             "divergence", worst_defect <= 1e-12,
                             worst_defect, 1e-12))

    stab_rows = []
    worst_ratio = 0.0
    for label, A in (("power:1.5", young.power(1.5)),
                     ("power:3", young.power(3.0)),
                     ("zygmund:1:1", young.zygmund(1, 1)),
                     ("exp:1", young.exponential(1.0))):
        for h in hs:
            ratio = fem.check_orlicz_projection_stability(
                _vortex, _vortex_grad, spaces_by_h[h], A)
            stab_rows.append((label, h, ratio))
            worst_ratio = max(worst_ratio, ratio)
    assertions.append(_check("gradient-norm stability of the "
                             "interpolant", worst_ratio <= 1.5,
                             worst_ratio, 1.5))

    def pi(pts):
        return (np.sin(2 * math.pi * pts[:, 0])
                * np.sin(2 * math.pi * pts[:, 1]))

    rows = fem.pressure_error_study(pi, hs, p2, p2)
    ratios = [r["ratio"] for r in rows]
    rmid = sum(ratios) / len(ratios)
    assertions.append(_check("pressure error ratio within 30% of its "
                             "mean", all(abs(r - rmid) <= 0.3 * rmid
                                         for r in ratios), ratios, None))
    study_rows = [(r["h"], r["error"], r["best"], r["ratio"],
                   r["stability"], r["residual"]) for r in rows]

    return {"data": {"infsup": values, "ratios": ratios},
            "assertions": assertions,
            "tables": {"infsup": (["h", "value"], infsup_rows),
                       "stability": (["family", "h", "ratio"], stab_rows),
                       "study": (["h", "error", "best", "ratio",
                                  "stability", "residual"], study_rows)}}


def _drive_determinism(p, out):
    inner = p["inner"]
    if not isinstance(inner, dict) or "experiment" not in inner:
        raise UsageError("params.inner must be a config object with an "
                         "'experiment' key")
    if inner["experiment"] not in EXPERIMENTS:
        raise UsageError("params.inner: unknown experiment %r"
                         % inner["experiment"])
    # a single run compares nothing
    runs = _count(p["runs"], "params.runs", least=2)
    listings = []
    for r in range(runs):
        sub = out / ("pass%d" % (r + 1))
        sub.mkdir(parents=True, exist_ok=True)
        cfg = dict(inner)
        cfg.pop("out", None)
        _run_one(cfg, out_flag=str(sub), quiet=True)
        listings.append({f.name: f.read_bytes()
                         for f in sorted(sub.iterdir()) if f.is_file()})
    same = all(listing == listings[0] for listing in listings[1:])
    names = sorted(listings[0])
    return {"data": {"files": names, "runs": runs},
            "assertions": [_check("outputs byte-identical across runs",
                                  same, names, None)]}


EXPERIMENTS = {
    "young_doc": {
        "driver": _drive_young_doc,
        "params": {"young": "power:2", "grid": [1e-3, 1e3, 61]},
    },
    "norm_file": {
        "driver": _drive_norm_file,
        "params": {"field": None, "young": "power:2", "n": 64,
                   "rearrange": False},
    },
    "bogovskii_run": {
        "driver": _drive_bogovskii_run,
        "params": {"domain": "disk", "f": "kink", "grid": 64,
                   "pair": "power:2:power:2",
                   "rearr_c": 2.5, "n_s": 100},
    },
    "negnorm_field": {
        "driver": _drive_negnorm_field,
        "params": {"u": "step_x", "pair": None, "depth": 3, "n": 64},
    },
    "fem_infsup": {
        "driver": _drive_fem_infsup,
        "params": {"mesh": "square:1/4,1/8,1/16",
                   "pair": "power:2:power:2", "k": 2, "m": 0,
                   "method": "auto", "seed": 0},
    },
    "fem_pressure": {
        "driver": _drive_fem_pressure,
        "params": {"mesh": "square:1/4,1/8,1/16",
                   "pair": "power:2:power:2", "k": 2, "m": 0,
                   "law": None, "pi": "sinsin"},
    },
    "fem_projection": {
        "driver": _drive_fem_projection,
        "params": {"mesh": "square:1/4,1/8,1/16",
                   "pair": "power:2:power:2", "k": 2, "m": 0},
    },
    "young_calculus": {
        "driver": _drive_young_calculus,
        "params": {"families": ["power:2", "power:1.5", "zygmund:1:1",
                                "exp:1", "eyring"],
                   "n_points": 100, "n_sandwich": 50, "rtol": 1e-6},
    },
    "balance_matrix": {
        "driver": _drive_balance_matrix,
        "params": {"pairs": [["power:1.5:power:1.5", True],
                             ["power:2:power:2", True],
                             ["power:4:power:4", True],
                             ["zygmund:1:1:zygmund:1:0", True],
                             ["zygmund:1:2:zygmund:1:1", True],
                             ["exp:0.5:exp:0.3333333333333333", True],
                             ["exp:1:exp:0.5", True],
                             ["power:1:power:1", False],
                             ["cap:1:cap:1", False]]},
    },
    "norm_machinery": {
        "driver": _drive_norm_machinery,
        "params": {"n_fields": 100, "n_chi": 20, "n_hardy": 200,
                   "seed": 2024},
    },
    "bogovskii_disk": {
        "driver": _drive_bogovskii_disk,
        "params": {"grids": [64, 128], "residual_bounds": [0.05, 0.025],
                   "stability_grid": 32, "n_random": 5,
                   "pairs": ["power:2:power:2", "zygmund:1:1:power:1"],
                   "rearr_c": 2.5, "n_s": 100, "seed": 7},
    },
    "domain_split": {
        "driver": _drive_domain_split,
        "params": {"n": 32},
    },
    "negative_norm": {
        "driver": _drive_negative_norm,
        "params": {"depth": 3, "n": 64, "k": 32,
                   "pairs": ["power:2:power:2", "zygmund:1:1:power:1",
                             "exp:1:exp:0.5"]},
    },
    "fem_suite": {
        "driver": _drive_fem_suite,
        "params": {"hs": [0.25, 0.125, 0.0625], "seed": 0,
                   "n_fields": 20},
    },
    "determinism": {
        "driver": _drive_determinism,
        "params": {"inner": {"schema": 1, "experiment": "fem_infsup",
                             "id": "probe",
                             "params": {"mesh": "square:1/4,1/8",
                                        "pair": "power:2:power:2",
                                        "seed": 0}},
                   "runs": 2},
    },
}

_ALIASES = {"young": "young_calculus", "balance": "balance_matrix",
            "norm": "norm_machinery", "bogovskii": "bogovskii_disk",
            "split": "domain_split", "negnorm": "negative_norm"}

_TOP_KEYS = {"schema", "experiment", "id", "seed", "out", "params"}


# -- config handling ---------------------------------------------------------

def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(str(exc))
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError("%s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(cfg, dict):
        raise UsageError("%s: config must be a JSON object" % path)
    for key in sorted(cfg):
        if key not in _TOP_KEYS:
            raise UsageError("%s: unknown key %r (allowed: %s)"
                             % (path, key, ", ".join(sorted(_TOP_KEYS))))
    if cfg.get("schema") != SCHEMA:
        raise UsageError("%s: schema must be %d" % (path, SCHEMA))
    if cfg.get("experiment") not in EXPERIMENTS:
        raise UsageError("%s: experiment must be one of %s"
                         % (path, ", ".join(sorted(EXPERIMENTS))))
    if "params" in cfg and not isinstance(cfg["params"], dict):
        raise UsageError("%s: params must be an object" % path)
    return cfg


def _apply_overrides(cfg, args):
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "id", None):
        cfg["id"] = args.id
    p = cfg.setdefault("params", {})
    exp = cfg["experiment"]
    if getattr(args, "pair", None):
        _parse_pair_flag(args.pair, "--pair")
        if exp == "balance_matrix":
            p["pairs"] = [[args.pair, None]]
        elif exp == "negative_norm":
            p["pairs"] = [args.pair]
        elif exp == "bogovskii_disk":
            p["pairs"] = [args.pair]
        else:
            p["pair"] = args.pair
    if getattr(args, "mesh", None):
        if not exp.startswith("fem_"):
            raise UsageError("--mesh does not apply to experiment %r"
                             % exp)
        if args.mesh.startswith("square:"):
            _square_pitches(args.mesh, "--mesh")
        p["mesh"] = args.mesh
    if getattr(args, "grid", None) is not None:
        _count(args.grid, "--grid")
        if exp == "bogovskii_disk":
            p["grids"] = [args.grid]
        elif exp in ("bogovskii_run",):
            p["grid"] = args.grid
        else:
            p["n"] = args.grid
    if getattr(args, "depth", None) is not None:
        p["depth"] = _count(args.depth, "--depth")
    for kv in getattr(args, "set", None) or []:
        if "=" not in kv:
            raise UsageError("--set: expected KEY=VALUE, got %r" % kv)
        key, _, raw = kv.partition("=")
        try:
            p[key] = json.loads(raw)
        except json.JSONDecodeError:
            p[key] = raw
    return cfg


def _suite_worker(path, out_flag=None):
    """Run one config; used both in-process and from a worker pool."""
    try:
        return _run_one(_load_config(path), out_flag=out_flag, quiet=True)
    except UsageError:
        return 2
    except ExperimentError:
        return 1


# -- subcommand entry points ---------------------------------------------------

def cmd_young(args):
    cfg = {"schema": SCHEMA, "experiment": "young_doc",
           "params": {"young": args.young}}
    if args.grid:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise UsageError("--grid: expected MIN:MAX:POINTS")
        cfg["params"]["grid"] = [float(parts[0]), float(parts[1]),
                                 int(parts[2])]
    if args.id:
        cfg["id"] = args.id
    if not Path(args.young).exists():
        _parse_young_flag(args.young, "--young")
    return _run_one(cfg, out_flag=args.out)


def cmd_norm(args):
    _count(args.grid, "--grid")
    cfg = {"schema": SCHEMA, "experiment": "norm_file",
           "params": {"field": args.field, "young": args.young,
                      "n": args.grid, "rearrange": args.rearrange}}
    _parse_young_flag(args.young, "--young")
    if args.id:
        cfg["id"] = args.id
    return _run_one(cfg, out_flag=args.out)


def cmd_bogovskii(args):
    _parse_pair_flag(args.pair, "--pair")
    _count(args.grid, "--grid", least=2)
    cfg = {"schema": SCHEMA, "experiment": "bogovskii_run",
           "params": {"domain": args.domain, "f": args.f,
                      "grid": args.grid, "pair": args.pair,
                      "rearr_c": args.rearr_c, "n_s": 100}}
    if args.id:
        cfg["id"] = args.id
    return _run_one(cfg, out_flag=args.out)


def cmd_negnorm(args):
    _parse_pair_flag(args.pair, "--pair")
    _count(args.family_depth, "--family-depth")
    _count(args.grid, "--grid")
    cfg = {"schema": SCHEMA, "experiment": "negnorm_field",
           "params": {"u": args.u, "pair": args.pair,
                      "depth": args.family_depth, "n": args.grid}}
    if args.id:
        cfg["id"] = args.id
    return _run_one(cfg, out_flag=args.out)


def cmd_fem(args):
    _parse_pair_flag(args.pair, "--pair")
    if args.mesh.startswith("square:"):
        _square_pitches(args.mesh, "--mesh")
    exp = "fem_" + args.verb
    params = {"mesh": args.mesh, "pair": args.pair, "k": args.k,
              "m": args.m}
    if args.verb == "infsup":
        params["method"] = args.method
        params["seed"] = args.seed
    if args.verb == "pressure":
        params["law"] = args.law
        params["pi"] = "sinsin"
    _check_fem_settings(params, "--")
    cfg = {"schema": SCHEMA, "experiment": exp, "params": params}
    if args.id:
        cfg["id"] = args.id
    return _run_one(cfg, out_flag=args.out)


def cmd_run(args):
    if args.suite:
        paths = sorted(Path(args.suite).glob("*.json"))
        if not paths:
            raise UsageError("--suite: no .json configs under %r"
                             % args.suite)
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            from functools import partial
            worker = partial(_suite_worker, out_flag=args.out)
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                codes = list(pool.map(worker, map(str, paths)))
        else:
            codes = [_suite_worker(str(path), args.out)
                     for path in paths]
        worst = 0
        for path, code in zip(paths, codes):
            print("%s %s" % ("PASS" if code == 0 else "FAIL", path.name))
            worst = max(worst, code)
        return worst
    if not args.target:
        raise UsageError("run needs a config file, an experiment name, "
                         "or --suite DIR")
    target = args.target
    if target.endswith(".json") or Path(target).exists():
        cfg = _load_config(target)
        if args.verb:
            raise UsageError("run: %r does not take a verb" % target)
    else:
        name = _ALIASES.get(target, target)
        if name == "fem" or target == "fem":
            if args.verb not in ("infsup", "pressure", "projection"):
                raise UsageError("run fem needs a verb: infsup, "
                                 "pressure or projection")
            name = "fem_" + args.verb
        elif args.verb:
            raise UsageError("run: %r does not take a verb" % target)
        if name not in EXPERIMENTS:
            raise UsageError(
                "unknown experiment or config file %r (experiments: %s)"
                % (target, ", ".join(sorted(_ALIASES)+["fem VERB"])))
        cfg = {"schema": SCHEMA, "experiment": name}
    _apply_overrides(cfg, args)
    return _run_one(cfg, out_flag=args.out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orlicz",
        description="Orlicz-norm, divergence-operator and pressure-"
                    "reconstruction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None,
                        help="output directory (default: $%s or ./out)"
                        % _OUT_ENV)
        sp.add_argument("--id", default=None,
                        help="report id used in output file names")

    sp = sub.add_parser("young", help="serialize and check one Young "
                                      "function")
    sp.add_argument("--young", required=True,
                    help="family literal (power:2, zygmund:1:1, exp:0.5, "
                         "eyring, cap:1) or a JSON file")
    sp.add_argument("--grid", default=None, help="MIN:MAX:POINTS")
    common(sp)
    sp.set_defaults(func=cmd_young)

    sp = sub.add_parser("norm", help="Luxemburg norm and rearrangement "
                                     "of a sampled field")
    sp.add_argument("--field", required=True,
                    help="expression name, .csv or .json field file")
    sp.add_argument("--young", required=True, help="family literal")
    sp.add_argument("--grid", type=int, default=64,
                    help="sampling resolution for expressions")
    sp.add_argument("--rearrange", action="store_true",
                    help="also write the decreasing rearrangement CSV")
    common(sp)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("bogovskii", help="solve the divergence equation "
                                          "and report the constants")
    sp.add_argument("--domain", default="disk",
                    help="disk, disk:R, or a polygon .json file")
    sp.add_argument("--f", default="kink",
                    help="expression name or .csv density")
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--pair", default="power:2:power:2")
    sp.add_argument("--rearr-c", type=float, default=2.5, dest="rearr_c")
    common(sp)
    sp.set_defaults(func=cmd_bogovskii)

    sp = sub.add_parser("negnorm", help="two-sided negative-norm check "
                                        "for one field")
    sp.add_argument("--u", required=True,
                    help="expression name or .csv field")
    sp.add_argument("--pair", required=True)
    sp.add_argument("--family-depth", type=int, default=3,
                    dest="family_depth")
    sp.add_argument("--grid", type=int, default=64)
    common(sp)
    sp.set_defaults(func=cmd_negnorm)

    sp = sub.add_parser("fem", help="inf-sup, pressure and interpolation "
                                    "experiments")
    sp.add_argument("verb", choices=["infsup", "pressure", "projection"])
    sp.add_argument("--mesh", default="square:1/4,1/8,1/16",
                    help="square:H[,H...] or a mesh .json file")
    sp.add_argument("--pair", default="power:2:power:2")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--law", default=None,
                    help="power:NU:KAPPA:P or eyring:NU:LAM")
    sp.add_argument("--method", default="auto",
                    choices=["auto", "eigen", "ascent"])
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_fem)

    sp = sub.add_parser("run", help="run a config file, a named "
                                    "experiment, or the whole suite")
    sp.add_argument("target", nargs="?",
                    help="config .json or experiment name")
    sp.add_argument("verb", nargs="?",
                    help="fem verb when the target is 'fem'")
    sp.add_argument("--suite", default=None,
                    help="run every .json config in this directory")
    sp.add_argument("--jobs", type=int, default=1,
                    help="parallel workers for --suite")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--pair", default=None)
    sp.add_argument("--mesh", default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--set", action="append", default=None,
                    metavar="KEY=VALUE",
                    help="override one experiment parameter")
    common(sp)
    sp.set_defaults(func=cmd_run)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ExperimentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
