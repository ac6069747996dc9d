import json
import os

import pytest

from horoshift.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


def read_json(tmp_path, name):
    with open(os.path.join(tmp_path, name), encoding="utf-8") as f:
        return json.load(f)


class TestND:
    def test_nd_artifacts(self, tmp_path):
        rc = run(tmp_path, "nd", "--system", "ledrappier", "--k", "2",
                 "--window", "4", "--grid", "farey:1")
        assert rc == 0
        d = read_json(tmp_path, "nd_report.json")
        assert len(d["entries"]) == 8
        wit = {(w["a"], w["b"]) for w in d["witness_directions"]}
        assert wit == {(0, -1), (-1, 0), (1, 1)}
        assert (tmp_path / "nd_report.csv").exists()
        assert (tmp_path / "direction_circle.svg").exists()
        assert (tmp_path / "run.log").exists()

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["nd", "--system", "ledrappier", "--k", "2",
                         "--window", "4", "--grid", "farey:2",
                         "--out", str(out)]) == 0
        for name in ("nd_report.json", "nd_report.csv", "direction_circle.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_system_exit_2(self, tmp_path):
        assert run(tmp_path, "nd", "--system", "nonsense", "--k", "2",
                   "--window", "4") == 2

    def test_bad_scales_exit_2(self, tmp_path):
        assert run(tmp_path, "nd", "--system", "ledrappier", "--k", "5",
                   "--window", "2") == 2


class TestDirectionHoroball:
    def test_direction_report(self, tmp_path):
        rc = run(tmp_path, "direction", "--system", "ledrappier",
                 "--dir", "0,-1", "--k", "2", "--window", "5")
        assert rc == 0
        d = read_json(tmp_path, "direction_report.json")
        assert d["certificate"]["kind"] == "witness"
        assert d["direction"] == {"a": 0, "b": -1, "label": "rational"}

    def test_horoball_report(self, tmp_path):
        rc = run(tmp_path, "horoball", "--system", "ledrappier",
                 "--horoball", '{"kind": "halfplane-antidiagonal", "side": 1}',
                 "--k", "2", "--window", "5")
        assert rc == 0
        d = read_json(tmp_path, "horoball_report.json")
        assert d["certificate"]["kind"] == "witness"

    def test_malformed_pair_exit_2(self, tmp_path):
        assert run(tmp_path, "direction", "--system", "ledrappier",
                   "--dir", "zero", "--k", "2", "--window", "4") == 2


class TestBusemann:
    def test_report_and_bound(self, tmp_path):
        rc = run(tmp_path, "busemann", "--group", "z2-l2",
                 "--center", "1000,0", "--radius", "10")
        assert rc == 0
        d = read_json(tmp_path, "busemann_report.json")
        assert d["points"] == 317
        assert d["max_deviation_from_linear"] \
            <= d["deviation_bound_radius_sq_over_norm"]

    def test_identity_center_exit_2(self, tmp_path):
        assert run(tmp_path, "busemann", "--group", "z2-l2",
                   "--center", "0,0") == 2

    def test_budget_exit_3_partial_report(self, tmp_path):
        rc = run(tmp_path, "busemann", "--group", "z2-l2",
                 "--center", "5,0", "--radius", "100000")
        assert rc == 3
        d = read_json(tmp_path, "partial_report.json")
        assert d["error"] == "budget-exhausted"


class TestVerify:
    def test_meeting_radius(self, tmp_path):
        rc = run(tmp_path, "verify", "lemma2.2", "--directions", "500")
        assert rc == 0
        assert read_json(tmp_path, "verify_report.json")["N"] == 2

    def test_tangency(self, tmp_path):
        rc = run(tmp_path, "verify", "lemma2.3", "--M", "5", "--eps", "0.5",
                 "--ray", "1,0", "--n-max", "40")
        assert rc == 0
        assert read_json(tmp_path, "verify_report.json")["n0"] == 25

    def test_cone_shift(self, tmp_path):
        rc = run(tmp_path, "verify", "lemma2.5", "--cone", "1,-1:1,1",
                 "--eta", "1", "--g=-2,0", "--r-max", "50")
        assert rc == 0
        d = read_json(tmp_path, "verify_report.json")
        assert d["n1"] == 2
        assert d["failing_radii"] == [1]

    def test_cone_shift_bad_precondition_exit_2(self, tmp_path):
        assert run(tmp_path, "verify", "lemma2.5", "--cone", "1,0:-1,0",
                   "--eta", "1", "--g=0,-1", "--r-max", "10") == 2

    def test_largeness(self, tmp_path):
        rc = run(tmp_path, "verify", "largeness", "--group", "z2-l2",
                 "--horoball", '{"kind": "linear", "v": [1, 0]}',
                 "--R", "2", "--bound", "15")
        assert rc == 0
        d = read_json(tmp_path, "verify_report.json")
        assert d["found"] is True


MALFORMED = {
    "grid-empty-pair": ["nd", "--system", "ledrappier", "--k", "2",
                        "--window", "4", "--grid", "1,0;"],
    "grid-farey-order": ["nd", "--system", "ledrappier", "--k", "2",
                         "--window", "4", "--grid", "farey:x"],
    "system-json": ["nd", "--system", "{bad", "--k", "2", "--window", "4"],
    "horoball-json": ["horoball", "--system", "ledrappier", "--horoball",
                      "{bad", "--k", "2", "--window", "4"],
    "horoball-missing-key": ["horoball", "--system", "ledrappier",
                             "--horoball", '{"kind":"linear"}', "--k", "2",
                             "--window", "4"],
    "horoball-not-object": ["horoball", "--system", "ledrappier",
                            "--horoball", "[1]", "--k", "2", "--window", "4"],
    "support-short-site": ["nd", "--system",
                           '{"kind":"linear-gf2","support":[[0]]}',
                           "--k", "2", "--window", "4"],
    "support-non-integer": ["nd", "--system",
                            '{"kind":"linear-gf2","support":[["a",0],[1,0]]}',
                            "--k", "2", "--window", "4"],
    "forbidden-short-site": ["nd", "--system",
                             '{"kind":"sft","alphabet":[0,1],'
                             '"forbidden":[[[[0],1]]]}',
                             "--k", "2", "--window", "4"],
    "report-missing": ["render", "nd", "--report",
                       os.path.join(HERE, "no-such-report.json")],
    "report-not-nd": ["render", "nd", "--report",
                      os.path.join(HERE, "readme_cli_digests.json")],
    "cone-one-ray": ["verify", "lemma2.5", "--cone", "1,0"],
    "vectors-json": ["convex", "origin-test", "--vectors", "[1,"],
    "report-entries-not-list": ["render", "nd", "--report",
                                {"k": 1, "N": 1, "entries": 5}],
    "report-direction-not-pair": [
        "render", "nd", "--report",
        {"k": 1, "N": 1, "entries": [{"direction": {"x": 1},
                                      "certificate": {"kind": "witness"}}]}],
    "vectors-entry-not-object": ["convex", "origin-test", "--vectors",
                                 '{"entries":[1]}'],
    "vectors-not-vector": ["convex", "origin-test", "--vectors", "[5]"],
    "vectors-not-number": ["convex", "origin-test", "--vectors",
                           '[["a",1]]'],
    "directions-zero": ["verify", "lemma2.2", "--directions", "0"],
    "probes-zero": ["convex", "coverage", "--probes", "0",
                    "--vectors", "[[1,0]]"],
    "margin-negative": ["direction", "--system", "ledrappier", "--dir", "0,-1",
                        "--k", "1", "--window", "5", "--margin", "-2"],
    "margin-negative-enumerate": ["direction", "--system", "ledrappier",
                                  "--dir", "0,-1", "--k", "1", "--window", "2",
                                  "--margin", "-1", "--method", "enumerate"],
    "busemann-wfa": ["busemann", "--group", "wfa-index", "--center", "1,0"],
    "busemann-dsz2": ["busemann", "--group", "dsz2-index", "--center", "1,2"],
    "report-direction-not-integer": [
        "render", "nd", "--report",
        {"k": 1, "N": 1, "entries": [{"direction": {"a": "x", "b": 1},
                                      "certificate": {"kind": "witness"}}]}],
}
# horoballs that ``horoball --system ledrappier --k 1 --window 1`` must reject
BAD_HOROBALLS = {
    "linear-not-number": '{"kind":"linear","v":["a",1]}',
    "apex-not-integer": '{"kind":"quarter-space","apex":["a",1],'
                        '"opening":"+x"}',
    "apex-short": '{"kind":"quarter-space","apex":[1],"opening":"+x"}',
    "n-star-not-integer": '{"kind":"sampled-l1-ray","ray":[1,0],'
                          '"n_star":"x"}',
}
MALFORMED.update({name: ["horoball", "--system", "ledrappier", "--horoball",
                         horoball, "--k", "1", "--window", "1"]
                  for name, horoball in BAD_HOROBALLS.items()})
# systems that ``direction --dir 1,0 --k 1 --window 1`` must reject
BAD_SYSTEMS = {
    "forbidden-not-pattern": '{"kind":"sft","alphabet":[0,1],"forbidden":[5]}',
    "forbidden-entry-not-pair": '{"kind":"sft","alphabet":[0,1],'
                                '"forbidden":[[5]]}',
    "forbidden-entry-no-symbol": '{"kind":"sft","alphabet":[0,1],'
                                 '"forbidden":[[[[0,0]]]]}',
    "sft-alphabet-not-list": '{"kind":"sft","alphabet":5,'
                             '"forbidden":[[[[0,0],1]]]}',
    "fullshift-alphabet-not-list": '{"kind":"full-shift","alphabet":5}',
    "support-not-list": '{"kind":"linear-gf2","support":5}',
    "sft-alphabet-empty": '{"kind":"sft","alphabet":[],'
                          '"forbidden":[[[[0,0],1]]]}',
    "sft-alphabet-unhashable": '{"kind":"sft","alphabet":[[0],[1]],'
                               '"forbidden":[[[[0,0],[1]]]]}',
    # the repeated sites cancel: a full shift in disguise
    "support-cancels": '{"kind":"linear-gf2",'
                       '"support":[[0,0],[0,0],[1,0],[1,0]]}',
}
MALFORMED.update({name: ["direction", "--system", system, "--dir", "1,0",
                         "--k", "1", "--window", "1"]
                  for name, system in BAD_SYSTEMS.items()})


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_descriptor_exit_2(tmp_path, capsys, argv):
    # a dict stands for a JSON file holding it
    report = tmp_path / "input.json"
    for arg in argv:
        if isinstance(arg, dict):
            report.write_text(json.dumps(arg), encoding="utf-8")
    argv = [str(report) if isinstance(arg, dict) else arg for arg in argv]
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


class TestSkewConvexRender:
    def test_skew_witness(self, tmp_path):
        rc = run(tmp_path, "skew", "--alpha", "1", "--beta=-2",
                 "--horoball",
                 '{"kind": "quarter-space", "apex": [0, 0], "opening": "-y"}',
                 "--k", "1", "--window", "4")
        assert rc == 0
        d = read_json(tmp_path, "skew_report.json")
        assert d["certificate"]["kind"] == "witness"

    def test_convex_pipeline_from_nd_report(self, tmp_path):
        assert run(tmp_path, "nd", "--system", "ledrappier", "--k", "2",
                   "--window", "5", "--grid", "farey:1") == 0
        report = os.path.join(tmp_path, "nd_report.json")
        rc = run(tmp_path, "convex", "origin-test", "--vectors", report)
        assert rc == 0
        d = read_json(tmp_path, "convex_report.json")
        assert d["certificate"]["variant"] == "in-hull"
        rc = run(tmp_path, "convex", "intersection", "--vectors", report)
        assert rc == 0
        assert read_json(tmp_path, "convex_report.json")["empty"] is True

    def test_convex_coverage_inline(self, tmp_path):
        rc = run(tmp_path, "convex", "coverage", "--probes", "100",
                 "--vectors",
                 '[[1, 0], [0, -1], ["sqrt-normalized", -1, 1]]')
        assert rc == 0
        d = read_json(tmp_path, "convex_report.json")
        assert d["report"]["covered"] is True
        assert abs(d["report"]["max_gap_degrees"] - 135.0) < 1e-9

    def test_render_horoball_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["render", "horoball", "--group", "z2-l1",
                         "--centers", "ray:1,0", "--t", "90",
                         "--window", "20", "--out", str(out)]) == 0
        raw = (a / "horoball.pgm").read_bytes()
        assert raw == (b / "horoball.pgm").read_bytes()
        assert raw.startswith(b"P5\n41 41\n255\n")

    def test_render_nd_from_report(self, tmp_path):
        assert run(tmp_path, "nd", "--system", "ledrappier", "--k", "2",
                   "--window", "4", "--grid", "farey:1") == 0
        direct_svg = (tmp_path / "direction_circle.svg").read_bytes()
        out2 = tmp_path / "replot"
        assert main(["render", "nd",
                     "--report", os.path.join(tmp_path, "nd_report.json"),
                     "--out", str(out2)]) == 0
        assert (out2 / "direction_circle.svg").read_bytes() == direct_svg

    def test_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["nd", "--system", "ledrappier"])  # missing required flags
        assert exc.value.code == 2
