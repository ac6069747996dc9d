import json
import os

import pytest

from horoshift.cli import build_parser, main
from test_golden import readme_commands

HERE = os.path.dirname(os.path.abspath(__file__))


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


def read_json(tmp_path, name):
    with open(os.path.join(tmp_path, name), encoding="utf-8") as f:
        return json.load(f)


def _logged(tmp_path):
    """The messages of ``run.log``, each line less its timestamp."""
    with open(os.path.join(tmp_path, "run.log"), encoding="utf-8") as f:
        return [line.split(" ", 1)[1] for line in f.read().splitlines()]


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

    def test_center_of_group_dimension(self, tmp_path):
        rc = run(tmp_path, "busemann", "--group", "z3-l1",
                 "--center", "5,0,0", "--radius", "2")
        assert rc == 0
        d = read_json(tmp_path, "busemann_report.json")
        assert d["center"] == [5, 0, 0]
        assert d["points"] == 25

    def test_budget_exit_3_partial_report(self, tmp_path):
        rc = run(tmp_path, "busemann", "--group", "z2-l2",
                 "--center", "5,0", "--radius", "100000")
        assert rc == 3
        d = read_json(tmp_path, "partial_report.json")
        assert d["error"] == "budget-exhausted"
        assert _logged(tmp_path) == ["wrote partial_report.json"]


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

    def test_cone_shift_budget_exit_3_partial_report(self, tmp_path):
        assert run(tmp_path, "verify", "lemma2.5", "--r-max", "1000000") == 3
        d = read_json(tmp_path, "partial_report.json")
        assert d["error"] == "budget-exhausted"
        assert _logged(tmp_path) == ["wrote partial_report.json"]

    def test_largeness(self, tmp_path):
        rc = run(tmp_path, "verify", "largeness", "--group", "z2-l2",
                 "--horoball", '{"kind": "linear", "v": [1, 0]}',
                 "--R", "2", "--bound", "15")
        assert rc == 0
        d = read_json(tmp_path, "verify_report.json")
        assert d["found"] is True


BOOL_DIRECTION = {"k": 1, "N": 1,
                  "entries": [{"direction": {"a": True, "b": 0},
                               "certificate": {"kind": "witness"}}]}
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
    "cone-degenerate": ["verify", "lemma2.5", "--cone", "1,1:2,2",
                        "--g", "1,-3", "--r-max", "10"],
    "cone-reflex": ["verify", "lemma2.5", "--cone", "1,1:1,0",
                    "--g=-3,1", "--r-max", "10"],
    "r-max-zero": ["verify", "lemma2.5", "--r-max", "0"],
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
    "busemann-center-short": ["busemann", "--group", "z3-l1",
                              "--center", "5,0"],
    "busemann-center-not-integer": ["busemann", "--group", "z2-l2",
                                    "--center", "5,x"],
    "eps-zero": ["verify", "lemma2.3", "--eps", "0"],
    "eps-negative": ["verify", "lemma2.3", "--M", "5", "--eps=-0.5",
                     "--ray", "1,0", "--n-max", "40"],
    "n-max-zero": ["verify", "lemma2.3", "--n-max", "0"],
    "skew-linear-3d": ["skew", "--horoball", '{"kind":"linear","v":[1,0,5]}',
                       "--k", "1", "--window", "2"],
    "largeness-linear-2d-in-z3": ["verify", "largeness", "--group", "z3-l1",
                                  "--horoball",
                                  '{"kind":"linear","v":[1,0]}'],
    "vectors-directory": ["convex", "origin-test", "--vectors", HERE],
    "vectors-not-utf8": ["convex", "origin-test", "--vectors",
                         b"[[1, 0], [\xff]]"],
    "report-directory": ["render", "nd", "--report", HERE],
    "report-not-utf8": ["render", "nd", "--report", b'{"k": \xff}'],
    "busemann-dsz2": ["busemann", "--group", "dsz2-index", "--center", "1,2"],
    # the centre t * ray is a pair of integers, an element of Z^2 only
    "render-wfa": ["render", "horoball", "--group", "wfa-index",
                   "--centers", "ray:1,0", "--t", "5", "--window", "3"],
    "render-dsz2": ["render", "horoball", "--group", "dsz2-index",
                    "--centers", "ray:1,2", "--t", "5", "--window", "3"],
    "render-z3": ["render", "horoball", "--group", "z3-l2",
                  "--centers", "ray:1,0", "--t", "5", "--window", "3"],
    "group-dim-not-integer": ["verify", "largeness", "--group",
                              '{"kind":"zd-lp","dim":"x","p":1}'],
    "group-dim-fractional": ["verify", "largeness", "--group",
                             '{"kind":"zd-lp","dim":2.5,"p":1}'],
    "wfa-weight-number": ["verify", "largeness", "--group",
                          '{"kind":"weighted-free-abelian","weight":5}'],
    "dsz2-weight-list": ["verify", "largeness", "--group",
                         '{"kind":"direct-sum-z2","weight":[1]}'],
    "report-direction-not-integer": [
        "render", "nd", "--report",
        {"k": 1, "N": 1, "entries": [{"direction": {"a": "x", "b": 1},
                                      "certificate": {"kind": "witness"}}]}],
    # JSON booleans are not integers, although bool is an int in Python
    "group-dim-bool": ["verify", "largeness", "--group",
                       '{"kind":"zd-lp","dim":true,"p":1}'],
    "group-p-bool": ["verify", "largeness", "--group",
                     '{"kind":"zd-lp","dim":2,"p":true}'],
    # a float p was kept and written back as "p": 1.0
    "group-p-float-1": ["busemann", "--group",
                        '{"kind":"zd-lp","dim":2,"p":1.0}',
                        "--center", "5,0", "--radius", "2"],
    "group-p-float-2": ["busemann", "--group",
                        '{"kind":"zd-lp","dim":2,"p":2.0}',
                        "--center", "5,0", "--radius", "2"],
    "report-direction-bool": ["render", "nd", "--report", BOOL_DIRECTION],
    "vectors-direction-bool": ["convex", "origin-test", "--vectors",
                               BOOL_DIRECTION],
    "budget-negative": ["direction", "--system", "ledrappier", "--dir", "1,0",
                        "--k", "1", "--window", "1", "--budget", "-1"],
    "ray-zero": ["verify", "lemma2.3", "--ray", "0,0"],
    "eta-nan": ["verify", "lemma2.5", "--eta", "nan"],
    "eta-inf": ["verify", "lemma2.5", "--eta", "inf"],
    "eps-nan": ["verify", "lemma2.3", "--eps", "nan"],
    "eps-inf": ["verify", "lemma2.3", "--eps", "inf"],
    "M-nan": ["verify", "lemma2.3", "--M", "nan"],
    "M-inf": ["verify", "lemma2.3", "--M", "inf"],
}
# Z^2 horoballs that ``verify largeness`` must refuse on the weighted groups
MALFORMED.update({
    f"largeness-{kind}-{group}": ["verify", "largeness", "--group", group,
                                  "--horoball", horoball]
    for group in ("wfa-index", "dsz2-index")
    for kind, horoball in (
        ("linear", '{"kind":"linear","v":[1,0]}'),
        ("quarter-space", '{"kind":"quarter-space","apex":[0,0],'
                          '"opening":"+x"}'),
        ("sampled-l1-ray", '{"kind":"sampled-l1-ray","ray":[1,0]}'))})
# horoballs that ``horoball --system ledrappier --k 1 --window 1`` must reject
BAD_HOROBALLS = {
    "linear-not-number": '{"kind":"linear","v":["a",1]}',
    "apex-not-integer": '{"kind":"quarter-space","apex":["a",1],'
                        '"opening":"+x"}',
    "apex-short": '{"kind":"quarter-space","apex":[1],"opening":"+x"}',
    # JSON true and false read as the apex (1, 0)
    "apex-bool": '{"kind":"quarter-space","apex":[true,false],'
                 '"opening":"+x"}',
    # JSON true and false read as the ray (1, 0)
    "ray-bool": '{"kind":"sampled-l1-ray","ray":[true,false]}',
    "n-star-not-integer": '{"kind":"sampled-l1-ray","ray":[1,0],'
                          '"n_star":"x"}',
    # JSON true was carried into the report as the truncation index 1
    "n-star-bool": '{"kind":"sampled-l1-ray","ray":[1,0],"n_star":true}',
    "linear-3d": '{"kind":"linear","v":[1,0,5]}',
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
    # each would run as another rule: the last symbol of the site listed
    # twice, the site (1, 0), a pattern that no configuration has
    "forbidden-site-twice": '{"kind":"sft","alphabet":[0,1],'
                            '"forbidden":[[[[0,0],1],[[0,0],0]]]}',
    "support-site-not-integer": '{"kind":"linear-gf2",'
                                '"support":[[0,0],[1.5,0],[0,1]]}',
    "forbidden-symbol-outside": '{"kind":"sft","alphabet":[0,1],'
                                '"forbidden":[[[[0,0],2]]]}',
    # JSON true and false read as the coordinates 1 and 0: Ledrappier's
    # support, a pattern at (0, 1)
    "support-site-bool": '{"kind":"linear-gf2",'
                         '"support":[[0,0],[true,0],[0,1]]}',
    "forbidden-site-bool": '{"kind":"sft","alphabet":[0,1],'
                           '"forbidden":[[[[false,1],1]]]}',
    # the repeated sites cancel: a full shift in disguise
    "support-cancels": '{"kind":"linear-gf2",'
                       '"support":[[0,0],[0,0],[1,0],[1,0]]}',
}
MALFORMED.update({name: ["direction", "--system", system, "--dir", "1,0",
                         "--k", "1", "--window", "1"]
                  for name, system in BAD_SYSTEMS.items()})


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_descriptor_exit_2(tmp_path, capsys, argv):
    # a dict stands for a JSON file holding it, bytes for a file of them
    report = tmp_path / "input.json"
    for arg in argv:
        if isinstance(arg, dict):
            report.write_text(json.dumps(arg), encoding="utf-8")
        elif isinstance(arg, bytes):
            report.write_bytes(arg)
    argv = [str(report) if isinstance(arg, (dict, bytes)) else arg
            for arg in argv]
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# the retired kernel method: its margin-window witnesses were false off the
# hull normals, and the parser refuses the value before anything is written
@pytest.mark.parametrize("argv", [
    ["direction", "--system", "ledrappier", "--dir", "1,0"],
    ["nd", "--system", "ledrappier", "--grid", "farey:1"],
    ["horoball", "--system", "ledrappier", "--horoball",
     '{"kind": "quarter-space", "apex": [0, 0], "opening": "+x"}']],
    ids=lambda argv: argv[0])
def test_kernel_method_refused(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv, "--k", "1", "--window", "1", "--method", "kernel")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--method" in err and "'kernel'" in err
    assert "auto" in err and "enumerate" in err
    assert not os.listdir(tmp_path)


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


class TestParser:
    COMMANDS = ["nd", "direction", "horoball", "busemann", "verify", "skew",
                "convex", "render"]

    @staticmethod
    def _subparsers(parser):
        return next(a for a in parser._actions
                    if a.dest == "command").choices

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_one_command_parser_reads_like_the_full_one(self, argv):
        assert build_parser(argv[0]).parse_args(argv) == \
            build_parser().parse_args(argv)

    def test_only_the_named_command_is_built(self):
        for name in self.COMMANDS:
            assert list(self._subparsers(build_parser(name))) == [name]
        for word in (None, "-h", "--help", "nonsense"):
            assert list(self._subparsers(build_parser(word))) == \
                self.COMMANDS

    def test_help_unchanged(self, capsys):
        full = self._subparsers(build_parser())
        for name in self.COMMANDS:
            assert self._subparsers(build_parser(name))[name].format_help() \
                == full[name].format_help()
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = capsys.readouterr().out
        assert all(name in listed for name in self.COMMANDS)
        assert "{" + ",".join(self.COMMANDS) + "}" in listed
