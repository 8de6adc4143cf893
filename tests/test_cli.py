"""Command-line interface: generation, pipeline runs, suites, exit codes."""

import json

import pytest

from helpers import FOUR_POINTS, IDEAL_FOUR
from tightspan.cli import main
from tightspan.metrics import gen_dmin, load_metric, metric_to_json, validate_metric


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


def test_gen_dgamma_requires_graph(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen", "--kind", "dgamma", "--n", "5", "-o", str(out)]) == 2
    assert (
        main(["gen", "--kind", "dgamma", "--n", "5", "--graph", "1-2,4-5", "-o", str(out)])
        == 0
    )
    d = load_metric(str(out))
    assert d.d(1, 2) == 2 and d.d(4, 5) == 2 and d.d(1, 3) != 2


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


def test_compute_byte_deterministic(four_points_file, capsys):
    main(["compute", four_points_file, "--no-timestamp"])
    first = capsys.readouterr().out
    main(["compute", four_points_file, "--no-timestamp"])
    assert capsys.readouterr().out == first


def test_compute_same_report_on_both_routes(tmp_path, capsys):
    # threshold 6 sends n = 7 through seed search and ridge traversal; the
    # default threshold enumerates.  Report and exported cells must agree.
    # dmin-7 is generic and has a cell of volume 2.
    path = tmp_path / "dmin7.json"
    path.write_text(metric_to_json(gen_dmin(7)))
    outputs = []
    for k, flags in enumerate(([], ["--threshold", "6"])):
        cells = tmp_path / f"cells{k}.json"
        rc = main(["compute", str(path), "--no-timestamp", "--export-cells", str(cells), *flags])
        assert rc == 0
        outputs.append((capsys.readouterr().out, cells.read_bytes()))
    assert outputs[0] == outputs[1]


def test_compute_ideal_exits_3(ideal_file, capsys):
    rc = main(["compute", ideal_file, "--no-timestamp"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "generic: false" in out
    assert "witness-pair: {1,1}" in out


def test_compute_ideal_same_report_on_both_routes(ideal_file, tmp_path, capsys):
    # threshold 3 sends n = 4 through seed search and ridge traversal, which
    # must find the zero height that enumeration finds
    outputs = []
    for k, flags in enumerate(([], ["--threshold", "3"])):
        for fmt in ("text", "json"):
            cells = tmp_path / f"cells{k}{fmt}.json"
            args = ["--no-timestamp", "--format", fmt, "--export-cells", str(cells)]
            assert main(["compute", ideal_file, *args, *flags]) == 3
            outputs.append((capsys.readouterr().out, cells.read_bytes()))
    assert outputs[:2] == outputs[2:]


def test_compute_ideal_allow_degenerate(ideal_file):
    assert main(["compute", ideal_file, "--no-timestamp", "--allow-degenerate"]) == 0


def test_compute_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "upper": [1.25, "1", "1"]}')
    assert main(["compute", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["compute", str(missing)]) == 2


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


def test_compute_jobs_flag(four_points_file, capsys):
    rc1 = main(["compute", four_points_file, "--no-timestamp"])
    out1 = capsys.readouterr().out
    rc2 = main(["compute", four_points_file, "--no-timestamp", "--jobs", "2"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0 and out1 == out2


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
    import tightspan.cli as cli

    built = []
    compute = cli.compute_subdivision

    def counting(d, *args, **kwargs):
        built.append(d.n)
        return compute(d, *args, **kwargs)

    monkeypatch.setattr(cli, "compute_subdivision", counting)
    rc = main(["verify", "--suite", "bounds"])
    out = capsys.readouterr().out
    assert rc == 0 and "FAIL" not in out
    # one subdivision per (family, n): dmax 4, 5, 6 and dmin 5, 6
    assert built == [4, 5, 6, 5, 6]


def test_verify_oracle_random_small(capsys):
    rc = main(["verify", "--suite", "oracle-random", "--n", "4", "--count", "3"])
    out = capsys.readouterr().out
    assert rc == 0 and "FAIL" not in out
