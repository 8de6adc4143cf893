"""Command-line interface: generation, pipeline runs, suites, exit codes."""

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import tightspan.bounds as bounds
import tightspan.subdivision as subdivision
from helpers import (
    FOUR_POINTS,
    IDEAL_FOUR,
    assert_equality_witness,
    break_first_cell,
    break_ridge_pivot,
    faces_json,
    loaded_modules,
    long_upper,
    metric,
)
from tightspan.cli import main
from tightspan.common import Verdict, parse_rational
from tightspan.errors import DegenerateRidge, PreconditionViolated
from tightspan.graphs import EdgeGraph
from tightspan.faces import all_faces, faces_to_json
from tightspan.filtration import enumerate_cells
from tightspan.gen import gen_dmax, gen_dmin, gen_random, metric_to_json
from tightspan.metrics import load_metric, metric_from_upper, validate_metric
from tightspan.subdivision import compute_subdivision


@pytest.fixture()
def four_points_file(tmp_path):
    path = tmp_path / "4points.json"
    path.write_text(metric_to_json(validate_metric(FOUR_POINTS)))
    return str(path)


@pytest.fixture()
def ideal_file(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(metric_to_json(validate_metric(IDEAL_FOUR)))
    return str(path)


def test_gen_dmax(tmp_path):
    out = tmp_path / "dmax6.json"
    assert main(["gen", "--kind", "dmax", "--n", "6", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 6 and len(payload["upper"]) == 15
    assert payload["upper"][0] == "45/44"


def test_gen_dmin_weights(tmp_path):
    out = tmp_path / "dmin5.json"
    assert main(["gen", "--kind", "dmin", "--n", "5", "-o", str(out)]) == 0
    d = load_metric(str(out))
    assert d.d(1, 2) == d.d(1, 3) == d.d(2, 3) == 2
    assert d.d(4, 5) != 2


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--kind", "random", "--n", "5", "--seed", "7", "-o", str(a)])
    main(["gen", "--kind", "random", "--n", "5", "--seed", "7", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "d.json"
    assert main(["gen", "--kind", "dmax", "--n", "4", "-o", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_gen_dgamma_requires_graph(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen", "--kind", "dgamma", "--n", "5", "-o", str(out)]) == 2
    assert (
        main(["gen", "--kind", "dgamma", "--n", "5", "--graph", "1-2,4-5", "-o", str(out)])
        == 0
    )
    d = load_metric(str(out))
    assert d.d(1, 2) == 2 and d.d(4, 5) == 2 and d.d(1, 3) != 2


def test_gen_dgamma_bad_graph_names_the_chunk(tmp_path, capsys):
    out = tmp_path / "g.json"
    argv = ["gen", "--kind", "dgamma", "--n", "4", "--graph", "1-2,2-3-4", "-o", str(out)]
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err == "error: bad edge '2-3-4': expected i-j\n"


@pytest.mark.parametrize("digits", [4000, 5000])
def test_gen_dgamma_long_node_number_is_out_of_range(tmp_path, capsys, digits):
    # the number is refused by its length, never converted: no 4,300-digit
    # limit message and no echo of the whole number
    out = tmp_path / "g.json"
    argv = ["gen", "--kind", "dgamma", "--n", "4", "--graph", "1-" + "9" * digits, "-o", str(out)]
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: bad edge '1-999")
    assert "1..4" in err and len(err.encode()) < 300


def test_gen_random_negative_resolution_exits_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["gen", "--kind", "random", "--n", "5", "--resolution", "-3", "-o", str(out)]
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


INT_OPTIONS = [
    ["gen", "--kind", "random", "-o", "unused.json", "--n"],
    ["gen", "--kind", "random", "-o", "unused.json", "--n", "5", "--seed"],
    ["gen", "--kind", "random", "-o", "unused.json", "--n", "5", "--resolution"],
    ["verify", "--suite", "bounds", "--n-max"],
    ["verify", "--suite", "oracle-random", "--n"],
    ["verify", "--suite", "oracle-random", "--count"],
]


@pytest.mark.parametrize(
    "value, quoted",
    [("9" * 5000, ("'" + "9" * 5000)[:60] + "..."), ("x12", "'x12'")],
    ids=["5000-digits", "not-a-number"],
)
@pytest.mark.parametrize("argv", INT_OPTIONS, ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
def test_int_option_refusal_names_the_value_by_its_first_characters(argv, value, quoted, capsys):
    # int refuses 5,000 digits; the refusal names the value by its quoted
    # prefix, as a metric file's n is named, and never converts it; a short
    # value keeps argparse's own wording
    assert main(argv + [value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.encode()) < 400
    assert err.endswith(f"error: argument {argv[-1]}: invalid int value: {quoted}\n")


@pytest.mark.parametrize("kind", ["dmax", "dmin", "dgamma", "random"])
def test_gen_refuses_n_above_the_bound(tmp_path, capsys, kind):
    # the first n above the documented bound of 64: unbounded, it builds in
    # about a second, and n = 10^5 ends in a MemoryError; every kind refuses
    # n before it builds a pair table
    out = tmp_path / "m.json"
    argv = ["gen", "--kind", kind, "--n", "65", "--graph", "1-2", "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: need n <= 64, got 65\n")
    assert not out.exists()


def test_compute_four_points_with_oracle(four_points_file, capsys):
    rc = main(["compute", four_points_file, "--oracle", "--no-timestamp"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fT: [8, 8, 1]" in out
    assert "check oracle: pass" in out


def test_compute_json_format(four_points_file, capsys):
    rc = main(["compute", four_points_file, "--format", "json", "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["f"] == [6, 13, 12, 4]
    assert payload["hT"] == [1, 6, 1]
    assert payload["glued"] == [1, 2, 3, 4]


# text label -> JSON key of every vector line of a generic text report
TEXT_KEYS = {
    "f(subdivision)": "f",
    "f(boundary)": "f_boundary",
    "f(interior)": "f_interior",
    "h(subdivision)": "h",
    "h(boundary)": "h_boundary",
    "h(interior)": "h_interior",
    "g(boundary)": "g_boundary",
    "fT": "fT",
    "hT": "hT",
    "glued": "glued",
}


@pytest.mark.parametrize("name, flags", [("dmax-6", ["--oracle"]), ("dmin-7", [])])
def test_compute_text_and_json_agree(name, flags, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(metric_to_json(metric(name)))
    assert main(["compute", str(path), "--no-timestamp", *flags]) == 0
    text = capsys.readouterr().out.splitlines()
    assert main(["compute", str(path), "--no-timestamp", "--format", "json", *flags]) == 0
    payload = json.loads(capsys.readouterr().out)

    pairs = [line.split(": ", 1) for line in text]
    vectors = [(label, value) for label, value in pairs if label in TEXT_KEYS]
    assert [label for label, _ in vectors] == list(TEXT_KEYS)
    for label, value in vectors:
        assert json.loads(value) == payload[TEXT_KEYS[label]]
    checks = [re.fullmatch(r"check (\w+): (pass|FAIL)", line) for line in text if line.startswith("check ")]
    assert {m[1]: m[2] == "pass" for m in checks} == payload["checks"]
    assert list(payload["checks"]) == [m[1] for m in checks]
    assert ("oracle" in payload["checks"]) == bool(flags)


def _count_calls(monkeypatch, names):
    """Count the calls of each tightspan.<module>.<name> through every module that binds it."""
    calls = Counter()
    modules = [m for key, m in list(sys.modules.items()) if key.partition(".")[0] == "tightspan"]
    for qualname in names:
        module_name, _, attr = qualname.partition(".")
        original = getattr(importlib.import_module("tightspan." + module_name), attr)

        def counted(*args, _original=original, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.mark.parametrize("name", ["4points", "dmax-5"])
def test_compute_builds_one_pipeline(name, tmp_path, capsys, monkeypatch):
    # the --oracle crosscheck checks the report it prints instead of rebuilding it
    path = tmp_path / f"{name}.json"
    path.write_text(metric_to_json(metric(name)))
    calls = _count_calls(
        monkeypatch,
        (
            "subdivision.compute_subdivision",
            "faces.all_faces",
            "facevectors.split_interior_boundary",
            "facevectors.tightspan_vectors",
        ),
    )
    assert main(["compute", str(path), "--oracle", "--no-timestamp"]) == 0
    assert "check oracle: pass" in capsys.readouterr().out
    assert calls == {
        "compute_subdivision": 1,
        "all_faces": 1,
        "split_interior_boundary": 1,
        "tightspan_vectors": 1,
    }


@pytest.mark.parametrize("name", ["4points", "dmax-5"])
def test_compute_lists_faces_only_for_the_export(name, tmp_path, monkeypatch):
    # a plain report counts its faces from the down-degree histogram; the
    # export and the --oracle face bijection each list the faces themselves
    path = tmp_path / f"{name}.json"
    path.write_text(metric_to_json(metric(name)))
    calls = _count_calls(monkeypatch, ("faces.all_faces", "subdivision.down_degrees"))
    assert main(["compute", str(path), "--no-timestamp"]) == 0
    assert calls == {"down_degrees": 1}
    assert main(["compute", str(path), "--no-timestamp", "--export-faces", str(tmp_path / "f")]) == 0
    assert calls == {"down_degrees": 2, "all_faces": 1}
    argv = ["compute", str(path), "--no-timestamp", "--oracle", "--export-faces", str(tmp_path / "g")]
    assert main(argv) == 0
    assert calls == {"down_degrees": 3, "all_faces": 3}


@pytest.mark.parametrize("kind", ["dmax", "random"])
def test_compute_three_points(kind, tmp_path, capsys):
    # the n = 3 tripod has dimension 1 = ceil(3/3); the top-face lower bound
    # is stated for n >= 4 only and must not be applied
    path = tmp_path / "d3.json"
    assert main(["gen", "--kind", kind, "--n", "3", "-o", str(path)]) == 0
    assert main(["compute", str(path), "--no-timestamp"]) == 0
    assert "check bounds: pass" in capsys.readouterr().out.splitlines()
    assert main(["compute", str(path), "--no-timestamp", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fT"] == [4, 3] and payload["checks"]["bounds"] is True


def _non_simple(poset):
    raise PreconditionViolated("out-degree counts require a simple polyhedron")


@pytest.mark.parametrize(
    "attr, broken, check, witness",
    [
        (
            "facevectors.check_dehn_sommerville",
            lambda h: Verdict(False, [1, [1, 2]]),
            "dehn_sommerville_boundary",
            [1, [1, 2]],
        ),
        (
            "primal.h_by_outdegree",
            _non_simple,
            "oracle",
            "out-degree counts require a simple polyhedron",
        ),
    ],
    ids=["verdict", "raised"],
)
def test_compute_failed_check_exits_4_with_its_witness(
    attr, broken, check, witness, four_points_file, capsys, monkeypatch
):
    # a check that returns a failed Verdict and one that cannot run (the real
    # crosscheck, refusing a non-simple polyhedron) both fail only their own
    # row, and JSON carries the witness or the message
    monkeypatch.setattr("tightspan." + attr, broken)
    argv = ["compute", four_points_file, "--oracle", "--no-timestamp"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line for line in out.splitlines() if line.startswith("check ")]
    assert rows == [
        f"check {name}: {'FAIL' if name == check else 'pass'}"
        for name in ("dehn_sommerville_boundary", "ball_relations", "asff", "bounds", "oracle")
    ]
    assert main([*argv, "--format", "json"]) == 4
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == ""
    assert payload["checks"][check] is False
    assert [name for name, ok in payload["checks"].items() if not ok] == [check]
    assert payload["check_witnesses"] == {check: witness}


@pytest.mark.parametrize("name", ["4points", "dmax-5"])
def test_every_report_check_returns_a_verdict(name, monkeypatch):
    # each check hands the report the Verdict its library function returned,
    # with no adapter between them
    import tightspan.facevectors as facevectors
    import tightspan.primal as primal
    from tightspan.cli import _checks

    returned = {}
    for module, attr in (
        (facevectors, "check_dehn_sommerville"),
        (facevectors, "check_ball_relations"),
        (facevectors, "check_asff"),
        (bounds, "verify_metric_against_bounds"),
        (primal, "crosscheck"),
    ):
        def recorded(*args, _attr=attr, _original=getattr(module, attr)):
            returned[_attr] = _original(*args)
            return returned[_attr]

        monkeypatch.setattr(module, attr, recorded)
    rep = facevectors.face_report(compute_subdivision(metric(name)))
    verdicts = {check_name: check() for check_name, check in _checks(rep, True)}
    assert list(verdicts) == ["dehn_sommerville_boundary", "ball_relations", "asff", "bounds", "oracle"]
    assert all(isinstance(v, Verdict) and v.ok for v in verdicts.values())
    assert len(returned) == 5
    assert all(v is r for v, r in zip(verdicts.values(), returned.values()))


def test_compute_asff_failure_carries_its_witness(capsys, monkeypatch, tmp_path):
    # an interior vertex is below the interior-dimension floor, and the
    # boundary no longer determines the interior counts: only asff fails, and
    # its witness names each part in a fixed order
    import tightspan.facevectors as facevectors

    real = facevectors.face_report

    def doctored(S):
        rep = real(S)
        counts = (rep.f_interior.counts[0] + 1,) + rep.f_interior.counts[1:]
        return rep._replace(f_interior=facevectors.FVector(counts, 0))

    monkeypatch.setattr(facevectors, "face_report", doctored)
    path = tmp_path / "dmax5.json"
    path.write_text(metric_to_json(gen_dmax(5)))
    assert main(["compute", str(path), "--no-timestamp"]) == 4
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("check ")]
    assert [row for row in rows if not row.endswith(": pass")] == ["check asff: FAIL"]
    assert main(["compute", str(path), "--no-timestamp", "--format", "json"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert [name for name, ok in payload["checks"].items() if not ok] == ["asff"]
    assert list(payload["check_witnesses"]) == ["asff"]
    assert list(payload["check_witnesses"]["asff"].items()) == [
        ("ok", False),
        ("min_interior_dim", 0),
        ("very_small_bound", 2),
        ("h_vanishing_ok", True),
        ("h_boundary_match_ok", True),
        ("top_interior_count", 5),
        ("top_interior_cap", 5),
        ("top_count_ok", True),
        ("boundary_determines_f_ok", False),
    ]


def test_compute_byte_deterministic(four_points_file, capsys):
    main(["compute", four_points_file, "--no-timestamp"])
    first = capsys.readouterr().out
    main(["compute", four_points_file, "--no-timestamp"])
    assert capsys.readouterr().out == first


# sha256 of stdout and of the exported cells of `tspan compute --format json
# --no-timestamp --export-cells`, generated by a traversal that solved every
# new cell on its own, independently of the heights the ratio test carries
PINNED = [
    ("dmax-10", gen_dmax(10), 0,
     "8de5226c6c492a2777043d81deff9965b86f0a5223a4825b73fea54b19845aa4",
     "46336ae0577da4cb2d89a910a9e23d8393a235a6ee50ffbb28bba0452592be58"),
    ("dmin-10", gen_dmin(10), 0,
     "3055590102a1edd47056199380e99ea89e088aa5c3a49191fd17748ea6aae68e",
     "cdbe141d1660ebf42bbe2b410964c0cd9b9b767cd20b3279aee5e22a34a91390"),
    ("hires-10.1", gen_random(10, 1, 10**12), 0,
     "643ad9e6afc16f0b215ab09b1a0b9966e8cca64e205d5c920b881d19bec6adfb",
     "4057fe4db55fe38e0b47468b36f1af315b2a5dd45150a71112419dd2f85ba988"),
    ("hires-10.2", gen_random(10, 2, 10**12), 0,
     "5e1bd43e0ab8464f91e237744ff41190e282ae291cdffd3de61aafc734000edb",
     "d65bbe73bf2c1babaf40af3e93922c17ba47692bf692861fdb54e904cacf4185"),
    ("hires-10.3", gen_random(10, 3, 10**12), 0,
     "fff3c874f6d41f3b0378a4a136932b70fd508d638ad345c57a6d0f77ee054b4d",
     "ccea1186918b2333c2c1babd1005fa584d55c41a51261855810e9af6d5ef9660"),
    # the families of the benchmark's compute-traverse workload
    ("dmax-11", gen_dmax(11), 0,
     "b5024e3ff7d082c69eaf9d01870720bd20dc0c95c3b694ff2647048cf950092d",
     "41e5ec826b79f89ed6554f91a0b5c6dcde9354c9876283997968d9d9d68f6e29"),
    ("dmin-11", gen_dmin(11), 0,
     "ec8c5ba18347c6cc05fd490490def30cba01c4b42cea48a3bb06040240a8de7b",
     "1d4870e58acc9bc34829fa17885eed8d81e8512ec49b039a478f66ac31961ffe"),
    ("hires-11.1", gen_random(11, 1, 10**12), 0,
     "eab5b0e23e2e048e56e5c30ab9dd36259c9dfd7db36d5cdfc1b719e0ad6b39c1",
     "8f5af41f0f9e852c8a049f12bc0dc71f4ee70f8a34f8f865c8d49c0e524d8ae7"),
    # n = 12, between the report grid of scripts/compare_reports.py (n <= 9)
    # and CI's n = 14 pins: cell exports of 2.2, 1.3 and 2.1 MB, so the
    # streamed cell writer is pinned over many chunks
    ("dmax-12", gen_dmax(12), 0,
     "43e400f09b34fa7fd185ce29cf1d78543d50e7988aef84574993e737c2fbd3d7",
     "1976d3d9fe1e9b59016bffbee80679387b799428dd9974a8d227a6355ff90009"),
    ("dmin-12", gen_dmin(12), 0,
     "790ac1db70d9e21da0c60d8137704de6216c7dc9c145212fe10af5fe4f5792e0",
     "e02fd20f4411589a9ed59ec0368819944715f33c575ce24f7f9eaa2e827f9b4f"),
    ("hires-12.1", gen_random(12, 1, 10**12), 0,
     "fd4ba04ab884bff2cf021a9db7dd3fdbaa1816a44e3a184a418e552338e470b1",
     "89c3ca46167c3404528617a343dd5b2a8c3e00d48dfa1990f65daf2e24d6b170"),
    # a ratio-test tie
    ("random-6.5-res100", gen_random(6, 5, 100), 3,
     "833ec54f62d0447793f1d2c442dca5a4a948fcac42cca81edd5f88fbd30d8236",
     "f01b44f5ae4a9585c7c784e0c60d057fa5c8f1123123020eb56a47898d3caef8"),
    # a zero cell height
    ("ideal", validate_metric(IDEAL_FOUR), 3,
     "ff5a4d763404dc1269415d94b19ee145261ce92658b11c182df31f6b78362a0f",
     "c23ae7ba6dd4ad5e528013ad9cd368fa6579f27ed6eb3cc4f27c32bef141f085"),
]


@pytest.mark.parametrize("d, code, out_sha, cells_sha", [p[1:] for p in PINNED], ids=[p[0] for p in PINNED])
def test_compute_pins_traversal_output(d, code, out_sha, cells_sha, tmp_path, capsys):
    # above n = 8 no enumeration can check the traversal's heights
    path = tmp_path / "d.json"
    path.write_text(metric_to_json(d))
    cells = tmp_path / "cells.json"
    argv = ["compute", str(path), "--format", "json", "--no-timestamp", "--export-cells", str(cells)]
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(cells.read_bytes()).hexdigest() == cells_sha


# (metric, format, sha256 of the report, sha256 of the face export) of
# `compute --no-timestamp --oracle --export-faces`: the crosscheck and the
# export each list the faces
PINNED_ORACLE_FACES = [
    ("4points", "text",
     "16ca42f12091f8e1c9cf68bf9802eef90011498e419a5311b5a97728d9ad8f50",
     "023a20718f3cd31e0a397dbf5dfe8a1dc0581e482515709bad1c9a213a3423d4"),
    ("4points", "json",
     "bcf03f73ad7a3b55f74637f3ab3688551ab9acb2c7b4b224c250f0bb323a4f8e",
     "023a20718f3cd31e0a397dbf5dfe8a1dc0581e482515709bad1c9a213a3423d4"),
    ("dmax-6", "text",
     "e8fad0b2cbe430c0e9dab68f31d9861aaa99c87a3e8eae8a1c28da9396ea0033",
     "af8c00f941da0aed29ce2e8e8fc7400ae2c490ed6b413a715bb7ff1a714fa208"),
    ("dmax-6", "json",
     "06baa89328a4fdb7ae2fdabd7438b2813f678d0d9f74448c81b434a1f5243e67",
     "af8c00f941da0aed29ce2e8e8fc7400ae2c490ed6b413a715bb7ff1a714fa208"),
    ("dmin-6", "text",
     "cfc832201168c79335142299d6d3c8b74f59819dc811c62d4c186cfae080a0cc",
     "bb86516147b84058cb9883872639abf8ea2bf618f99a759636c18e3a5615523a"),
    ("dmin-6", "json",
     "4667b32e30d24422bd412b6a45559ee36155c881a5bf5ac774997f4291e25acb",
     "bb86516147b84058cb9883872639abf8ea2bf618f99a759636c18e3a5615523a"),
]


@pytest.mark.parametrize(
    "name, fmt, out_sha, faces_sha",
    PINNED_ORACLE_FACES,
    ids=[f"{p[0]}-{p[1]}" for p in PINNED_ORACLE_FACES],
)
def test_compute_pins_oracle_with_face_export(
    name, fmt, out_sha, faces_sha, tmp_path, capsys, monkeypatch
):
    # relative paths keep the text report's metric line the same in every run
    monkeypatch.chdir(tmp_path)
    Path("d.json").write_text(metric_to_json(metric(name)))
    argv = ["compute", "d.json", "--no-timestamp", "--format", fmt, "--oracle"]
    assert main([*argv, "--export-faces", "faces.json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(Path("faces.json").read_bytes()).hexdigest() == faces_sha


@pytest.mark.parametrize("name, code", [("dmin-7", 0), ("ideal", 3)], ids=["dmin-7", "ideal"])
def test_compute_report_equals_enumeration_oracle(name, code, tmp_path, capsys, monkeypatch):
    # the same reports and exported cells when the CLI builds the subdivision
    # by exhaustive filtration; dmin-7 is generic with a cell of volume 2, and
    # one cell height of the ideal metric is zero
    path = tmp_path / f"{name}.json"
    path.write_text(metric_to_json(metric(name)))

    def reports():
        out = []
        for fmt in ("text", "json"):
            cells = tmp_path / "cells.json"
            args = ["--no-timestamp", "--format", fmt, "--export-cells", str(cells)]
            assert main(["compute", str(path), *args]) == code
            out.append((capsys.readouterr().out, cells.read_bytes()))
        return out

    traversed = reports()
    monkeypatch.setattr(subdivision, "compute_subdivision", enumerate_cells)
    assert reports() == traversed


def test_compute_ideal_exits_3(ideal_file, capsys):
    rc = main(["compute", ideal_file, "--no-timestamp"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "generic: false" in out
    assert "witness-pair: {1,1}" in out


def test_compute_readme_non_metric_example(tmp_path, capsys):
    # README's table that is no metric, d(1,4) = 10 > d(1,2) + d(2,4), and the
    # exit and witness it promises, read from README itself
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    pattern = r'`(\{"n": 4, [^`]*\})`,\s.*?exits (\d) with `witness-pair: ([^`]*)`'
    table, code, pair = re.search(pattern, readme, re.S).groups()
    assert json.loads(table) == {"n": 4, "upper": [1, 1, 10, 1, 1, 1]}
    assert (code, pair) == ("3", "{2,2}")
    path = tmp_path / "not-a-metric.json"
    path.write_text(table)
    assert main(["compute", str(path), "--no-timestamp"]) == int(code)
    out = capsys.readouterr().out.splitlines()
    assert "generic: false" in out and f"witness-pair: {pair}" in out


@pytest.mark.parametrize(
    "d",
    [metric_from_upper(9, (Fraction(2),) * 36), gen_random(6, 1, 100)],
    ids=["flat-9", "random-6.1-res100"],
)
def test_compute_non_generic_exits_3_with_witness(d, tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(metric_to_json(d))
    assert main(["compute", str(path), "--no-timestamp"]) == 3
    text = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert main(["compute", str(path), "--no-timestamp", "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert text["generic"] == "false" and payload["generic"] is False
    assert text["witness-graph"] == payload["witness"]["graph"]
    i, j = payload["witness"]["pair"]
    assert text["witness-pair"] == f"{{{i},{j}}}"
    edges = [(int(a), int(b)) for a, b in re.findall(r"\{(\d+),(\d+)\}", text["witness-graph"])]
    assert_equality_witness(d, (EdgeGraph.from_edges(d.n, edges), (i, j)))


def test_non_generic_exports_cells_but_no_faces(tmp_path, capsys):
    # the cell export carries the witness; the face export is not written,
    # and a file already at its path keeps its content
    path, cells, fcs = tmp_path / "d.json", tmp_path / "c.json", tmp_path / "f.json"
    path.write_text(metric_to_json(gen_random(6, 5, 100)))
    argv = ["compute", str(path), "--no-timestamp", "--export-cells", str(cells)]
    assert main(argv + ["--export-faces", str(fcs)]) == 3
    assert not fcs.exists()
    exported = json.loads(cells.read_text())
    assert exported["generic"] is False and "witness" in exported
    fcs.write_text("stale")
    assert main(argv + ["--export-faces", str(fcs)]) == 3
    assert fcs.read_text() == "stale"
    capsys.readouterr()


def test_compute_ideal_allow_degenerate(ideal_file):
    assert main(["compute", ideal_file, "--no-timestamp", "--allow-degenerate"]) == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_compute_traversal_failure_exits_4(fmt, four_points_file, capsys, monkeypatch):
    # a DegenerateRidge without a witness is a broken invariant, not a verdict
    def broken(d):
        raise DegenerateRidge("covered volume 3, expected 4")

    monkeypatch.setattr(subdivision, "compute_subdivision", broken)
    assert main(["compute", four_points_file, "--format", fmt]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: DegenerateRidge: covered volume 3, expected 4"
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_compute_package_error_exits_4(fmt, capsys, monkeypatch, tmp_path):
    # a first cell one edge short fails the candidate guard: a package
    # error with its own exit code, not a traceback
    break_first_cell(monkeypatch)
    path = tmp_path / "hires-7.1.json"
    path.write_text(metric_to_json(metric("hires-7.1")))
    assert main(["compute", str(path), "--format", fmt]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: PreconditionViolated: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_compute_pivot_off_the_candidates_exits_4(fmt, capsys, monkeypatch, tmp_path):
    # a ridge completed to a mask that is no candidate is refused by the
    # traversal's guard: a broken invariant with its own exit code
    break_ridge_pivot(monkeypatch)
    path = tmp_path / "hires-7.1.json"
    path.write_text(metric_to_json(metric("hires-7.1")))
    assert main(["compute", str(path), "--format", fmt]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: DegenerateRidge: ridge pivot entered a non-candidate mask"
    ]


def test_compute_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "upper": [1.25, "1", "1"]}')
    assert main(["compute", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["compute", str(missing)]) == 2
    zero = tmp_path / "zero.json"
    zero.write_text('{"n": 3, "upper": ["1/0", "1", "1"]}')
    capsys.readouterr()
    assert main(["compute", str(zero)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot parse metric: ")


def test_compute_bad_entry_error_is_short(tmp_path, capsys):
    # the error quotes a fixed-length prefix of the entry, not its whole repr
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "upper": [[1] * 20_000, "1", "1"]}))
    assert main(["compute", str(bad), "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.encode()) < 300
    assert err.startswith("error: cannot parse metric: not a rational: [1, 1, 1")


def test_compute_exports_cells_of_long_entries(tmp_path, capsys):
    # 2,500-digit numerators and denominators parse, and the heights, with
    # more digits than CPython converts by default, export and read back
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 4, "upper": long_upper()}))
    cells = tmp_path / "cells.json"
    assert main(["compute", str(path), "--no-timestamp", "--export-cells", str(cells)]) == 0
    assert "generic: true" in capsys.readouterr().out
    d = load_metric(str(path))
    exported = json.loads(cells.read_text())["cells"]
    assert len(exported) == 4
    assert max(len(v) for cell in exported for v in cell["lambda"]) > 4300
    for cell in exported:
        lam = [parse_rational(v) for v in cell["lambda"]]
        assert all(lam[i - 1] + lam[j - 1] == d.d(i, j) for i, j in cell["edges"])


def test_compute_reads_long_integer_literals(tmp_path, capsys):
    # a bare integer literal past CPython's 4,300-digit limit reads as the
    # same number written as a string does
    path = tmp_path / "long.json"
    reports = []
    for entry in ("1" * 5000, '"' + "1" * 5000 + '"'):
        path.write_text('{"n": 3, "upper": [%s, "1", "1"]}' % entry)
        code = main(["compute", str(path), "--no-timestamp", "--format", "json"])
        reports.append((code, capsys.readouterr()))
    assert reports[0] == reports[1]
    code, (out, err) = reports[0]
    assert code != 2 and err == "" and json.loads(out)["n"] == 3


def test_compute_upper_not_a_list_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "upper": {"2": "a", "3": "b", "4": "c"}}')
    assert main(["compute", str(bad), "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot parse metric: upper must be a list\n"


def test_compute_deeply_nested_metric_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["compute", str(bad), "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot parse metric: metric JSON is nested too deeply\n"


def test_compute_negative_n_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": -5, "upper": ["1"] * 15}))
    assert main(["compute", str(bad), "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot parse metric: need at least 3 points, got -5\n"


def test_compute_refuses_n_above_64(tmp_path, capsys):
    # the cells of a subdivision about double per point: the reader refuses
    # any n above gen's cap before anything is built
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({"n": 65, "upper": ["1"] * (65 * 64 // 2)}))
    assert main(["compute", str(bad), "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot parse metric: need n <= 64, got 65\n"


@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
def test_compute_names_a_5000_digit_n_by_its_first_60_characters(tmp_path, capsys, sign):
    # an n past CPython's 4,300-digit int <-> str limit is named as a bad
    # entry is, not by the interpreter's message about its setting
    bad = tmp_path / "huge.json"
    bad.write_text('{"n": %s%s, "upper": []}' % (sign, "9" * 5000))
    assert main(["compute", str(bad), "--no-timestamp"]) == 2
    refusal = "need at least 3 points, got " if sign else "need n <= 64, got "
    quoted = (sign + "9" * 5000)[:60] + "..."
    assert capsys.readouterr() == ("", f"error: cannot parse metric: {refusal}{quoted}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("flag", ["--export-cells", "--export-faces"])
def test_compute_unwritable_export_exits_2(flag, fmt, four_points_file, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["compute", four_points_file, "--format", fmt, flag, str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "flag, builder",
    [
        ("--export-faces", "faces.all_faces"),
        ("--export-cells", "subdivision.subdivision_to_json"),
    ],
)
def test_compute_unwritable_export_builds_nothing(
    flag, builder, four_points_file, tmp_path, capsys, monkeypatch
):
    # the path is opened before the export's text is built, so a refused
    # path costs none of that work
    calls = _count_calls(monkeypatch, (builder,))
    target = tmp_path / "missing" / "x.json"
    assert main(["compute", four_points_file, "--no-timestamp", flag, str(target)]) == 2
    out, err = capsys.readouterr()
    assert calls == {} and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write output: ")


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize(
    "argv", [["compute", "{file}", "--format", "json"], ["verify", "--suite", "identities"]]
)
def test_closed_stdout_exits_2(argv, four_points_file):
    # the read end of stdout is closed before the program writes anything
    argv = [a.format(file=four_points_file) for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tightspan.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_fresh_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")


def test_cli_loads_no_process_pool(tmp_path):
    # no command runs a process pool, so no command may pay for its imports
    script = (
        "import sys\n"
        "from tightspan.cli import main\n"
        "assert main(['gen', '--kind', 'dmax', '--n', '4', '-o', sys.argv[1]]) == 0\n"
        "assert main(['compute', sys.argv[1], '--no-timestamp']) == 0\n"
        "pool = ('concurrent.futures.process', 'multiprocessing')\n"
        "print(sorted(m for m in pool if m in sys.modules), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "dmax4.json")],
        capture_output=True, text=True, env=_fresh_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


def _main_loads(argv: list[str], code: int) -> set[str]:
    """The tightspan modules, short names, that a fresh `main(argv)` loads; it must return code."""
    loaded = loaded_modules(f"from tightspan.cli import main\nassert main({argv!r}) == {code}")
    return {m.removeprefix("tightspan.") for m in loaded}


_REPORT = {"graphs", "subdivision", "facevectors", "bounds"}


@pytest.mark.parametrize(
    "argv, code, extra",
    [
        (["gen", "--kind", "dmax", "--n", "4", "-o", "{tmp}/d.json"], 0, {"gen"}),
        (["verify", "--suite", "identities", "--n-max", "6"], 0, {"suites", "gen", "bounds"}),
        (["compute", "{tmp}/dmax5.json"], 0, _REPORT),
        (["compute", "{tmp}/random7.json"], 3, {"graphs", "subdivision"}),
        (["compute", "{tmp}/dmax5.json", "--export-faces", "{tmp}/f.json"], 0, _REPORT | {"faces"}),
        (["compute", "{tmp}/dmax5.json", "--oracle"], 0, _REPORT | {"faces", "primal"}),
    ],
    ids=["gen-dmax", "identities", "generic", "non-generic", "export-faces", "oracle"],
)
def test_command_loads_only_the_modules_it_runs(argv, code, extra, tmp_path):
    # a dmax metric needs no graph code, the bound identities no subdivision,
    # a report neither the test oracles (filtration), the face listing
    # (faces), the suites nor the generators, and no command the dataclass
    # machinery (dataclasses, inspect)
    (tmp_path / "dmax5.json").write_text(metric_to_json(gen_dmax(5)))
    (tmp_path / "random7.json").write_text(metric_to_json(gen_random(7, 5, 100)))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert _main_loads(argv, code) == {"tightspan", "cli", "metrics", "common", "errors", *extra}


@pytest.mark.parametrize(
    "d, flags, code, absent",
    [
        (gen_random(7, 5, 100), [], 3, {"facevectors", "bounds", "primal"}),
        (gen_dmax(5), [], 0, {"primal"}),
        (gen_dmax(5), ["--oracle"], 0, set()),
    ],
    ids=["non-generic", "generic", "oracle"],
)
def test_compute_loads_only_the_layers_it_runs(d, flags, code, absent, tmp_path):
    # the report layers load after the genericity verdict, the primal oracle
    # only under --oracle, and the matching LP, a test oracle, never
    path = tmp_path / "d.json"
    path.write_text(metric_to_json(d))
    loaded = _main_loads(["compute", str(path), "--no-timestamp", *flags], code)
    layers = {"facevectors", "bounds", "primal"}
    assert "subdivision" in loaded and loaded & layers == layers - absent
    assert not loaded & {"matching", "dataclasses", "inspect"}


def test_compute_rejects_route_options(four_points_file):
    for flags in (["--threshold", "3"], ["--jobs", "2"], ["--force-enumerate"]):
        assert main(["compute", four_points_file, *flags]) == 2


def test_compute_oracle_size_checked_first(tmp_path, capsys, monkeypatch):
    # a non-generic n = 7 input must not exit 3 before the size check
    path = tmp_path / "d.json"
    path.write_text(metric_to_json(gen_random(7, 1, 100)))
    assert main(["compute", str(path), "--no-timestamp"]) == 3
    capsys.readouterr()
    assert main(["compute", str(path), "--oracle"]) == 2
    assert "--oracle requires n <= 6" in capsys.readouterr().err

    # a generic one must fail before any subdivision or face closure is built
    def refuse(d):
        raise AssertionError("subdivision built before the --oracle size check")

    monkeypatch.setattr(subdivision, "compute_subdivision", refuse)
    path.write_text(metric_to_json(gen_dmin(7)))
    assert main(["compute", str(path), "--oracle"]) == 2
    assert "--oracle requires n <= 6" in capsys.readouterr().err


def test_compute_exports(four_points_file, tmp_path, capsys):
    cells = tmp_path / "cells.json"
    fcs = tmp_path / "faces.json"
    rc = main(
        [
            "compute",
            four_points_file,
            "--no-timestamp",
            "--export-cells",
            str(cells),
            "--export-faces",
            str(fcs),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    cell_payload = json.loads(cells.read_text())
    assert len(cell_payload["cells"]) == 4
    face_payload = json.loads(fcs.read_text())
    assert len(face_payload["faces"]["0"]) == 6
    interior_edges = [f for f in face_payload["faces"]["1"] if f["interior"]]
    assert len(interior_edges) == 1


def test_compute_face_export_is_indented_json(four_points_file, tmp_path, capsys):
    fcs = tmp_path / "faces.json"
    rc = main(["compute", four_points_file, "--no-timestamp", "--export-faces", str(fcs)])
    capsys.readouterr()
    assert rc == 0
    text = fcs.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize(
    "name", ["4points"] + [f"{kind}-{n}" for kind in ("dmax", "dmin") for n in range(5, 8)]
)
def test_face_export_is_the_json_encoders_text(name):
    F = all_faces(compute_subdivision(metric(name)))
    assert "".join(faces_to_json(F)) == faces_json(F)


def test_verify_identities(capsys):
    rc = main(["verify", "--suite", "identities", "--n-max", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite identities: pass" in out


def test_verify_paper_examples(capsys):
    rc = main(["verify", "--suite", "paper-examples"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("pass") >= 8 and "FAIL" not in out


def test_verify_bounds(capsys, monkeypatch):
    built = []
    compute = subdivision.compute_subdivision

    def counting(d, *args, **kwargs):
        built.append(d.n)
        return compute(d, *args, **kwargs)

    monkeypatch.setattr(subdivision, "compute_subdivision", counting)
    rc = main(["verify", "--suite", "bounds", "--n-max", "6"])
    out = capsys.readouterr().out
    assert rc == 0 and "FAIL" not in out
    # one subdivision per family and n: dmax then dmin at n = 4, 5, 6
    assert built == [4, 4, 5, 5, 6, 6]
    assert out.splitlines() == [
        "pass  dmax4 attains every F_k: fT = [8, 8, 1]",
        "pass  dmin4 has 1 top faces at dim 2, bound 1 at dim 2",
        "pass  dmax5 attains every F_k: fT = [16, 20, 5]",
        "pass  dmin5 has 5 top faces at dim 2, bound 5 at dim 2",
        "pass  dmax6 attains every F_k: fT = [32, 48, 18, 1]",
        "pass  dmin6 has 15 top faces at dim 2, bound 15 at dim 2",
        "suite bounds: pass",
    ]


def test_verify_bounds_fails_exactly_the_missed_top_counts(capsys, monkeypatch):
    # a bound one below the true one: the theorem check still passes, but a
    # dmin row passes only when its top count attains the bound exactly
    low = bounds.lower_bound_top
    monkeypatch.setattr(bounds, "lower_bound_top", lambda n: low(n) - 1)
    assert main(["verify", "--suite", "bounds", "--n-max", "7"]) == 4
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[1] for row in rows if row.startswith("FAIL")] == [
        f"dmin{n}" for n in range(4, 8)
    ]
    assert sum(row.startswith("pass") for row in rows) == 4
    assert rows[-1] == "suite bounds: FAIL"


def test_verify_bounds_violation_is_a_fail_row(capsys, monkeypatch):
    verify = bounds.verify_metric_against_bounds

    def violated_at_dmax5(d, span):
        if d == gen_dmax(5):  # dmin5 has the same fT
            return Verdict(False, "f_1 = 20 exceeds bound 19 at n=5")
        return verify(d, span)

    monkeypatch.setattr(bounds, "verify_metric_against_bounds", violated_at_dmax5)
    assert main(["verify", "--suite", "bounds", "--n-max", "6"]) == 4
    out, err = capsys.readouterr()
    assert err == ""
    fails = [row for row in out.splitlines() if row.startswith("FAIL")]
    assert fails == ["FAIL  dmax5 violates a bound: f_1 = 20 exceeds bound 19 at n=5"]
    assert out.splitlines()[-1] == "suite bounds: FAIL"


def test_verify_bounds_is_deterministic():
    argv = [sys.executable, "-m", "tightspan.cli", "verify", "--suite", "bounds", "--n-max", "7"]
    runs = [
        subprocess.run(argv, capture_output=True, text=True, env=_fresh_env(), timeout=120)
        for _ in range(2)
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout.count("pass") == 9


def test_verify_oracle_random_small(capsys):
    rc = main(["verify", "--suite", "oracle-random", "--n", "4", "--count", "3"])
    out = capsys.readouterr().out
    assert rc == 0 and "FAIL" not in out


def test_verify_oracle_random_disagreement_is_a_fail_row(capsys, monkeypatch):
    # an out-degree count one off makes the real crosscheck's verdict fail:
    # every row fails, with no error line
    import tightspan.primal as primal

    count = primal.h_by_outdegree

    def one_off(poset):
        h = count(poset)
        return (h[0] + 1,) + h[1:]

    monkeypatch.setattr(primal, "h_by_outdegree", one_off)
    assert main(["verify", "--suite", "oracle-random", "--n", "4", "--count", "3"]) == 4
    out, err = capsys.readouterr()
    assert err == ""
    rows = out.splitlines()
    assert len(rows) == 4 and all(row.startswith("FAIL  random n=4 seed=") for row in rows[:3])
    assert rows[-1] == "suite oracle-random: FAIL"


_ORACLE_RANGE = "error: oracle-random requires 3 <= --n <= 6 and --count >= 1\n"
_N_MAX = "error: PreconditionViolated: need n_max >= 4\n"
# verify's arguments -> its whole stderr
_REFUSED = {
    ("--suite", "oracle-random", "--n", "4", "--count", "401"): (
        "error: PreconditionViolated: only 399 generic metrics found in 400 seeds\n"
    ),
    ("--suite", "oracle-random", "--n", "2"): _ORACLE_RANGE,  # the CLI's own pre-check
    ("--suite", "identities", "--n-max", "2"): _N_MAX,
    ("--suite", "bounds", "--n-max", "3"): _N_MAX,
    ("--suite", "oracle-random", "--n", "7"): _ORACLE_RANGE,  # above the crosscheck cap
    ("--suite", "oracle-random", "--count", "0"): _ORACLE_RANGE,  # nothing to check
}


@pytest.mark.parametrize("argv", list(_REFUSED))
def test_verify_bad_arguments_exit_2(argv, capsys):
    assert main(["verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == _REFUSED[argv]


def test_verify_bounds_refuses_n_max_past_64_before_any_row(capsys, monkeypatch):
    # gen_dmax(65) would refuse the last row, but only after every report
    # from n = 4 to 64; the suite refuses n_max itself first
    import tightspan.suites as suites

    reports = []
    monkeypatch.setattr(suites, "_report", lambda d: reports.append(d))
    assert main(["verify", "--suite", "bounds", "--n-max", "65"]) == 2
    out, err = capsys.readouterr()
    assert (out, err, reports) == ("", "error: PreconditionViolated: need n <= 64, got 65\n", [])


@pytest.mark.parametrize("n_max", ["65", "100000"])
def test_verify_identities_refuses_n_max_past_64_before_any_row(n_max, capsys, monkeypatch):
    # the identities take seconds at n_max = 128 and never end at 100000;
    # the suite refuses n_max past the bounds suite's cap before any row
    calls = []
    monkeypatch.setattr(bounds, "identity_checks", lambda n: calls.append(n))
    assert main(["verify", "--suite", "identities", "--n-max", n_max]) == 2
    out, err = capsys.readouterr()
    assert (out, err, calls) == ("", f"error: PreconditionViolated: need n <= 64, got {n_max}\n", [])
