import enum
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horoshift import (DirectSumZ2, Direction, FullShift, InputError,
                       WeightedFreeAbelian, ZdLp, ball_sequence_check,
                       ledrappier, nd_set, serialize)
from horoshift.cli import main
from horoshift.horoballs import PolyhedralZ2, polyhedral_from_ray
from horoshift.render import ball_raster, direction_circle_svg, write_pgm
from horoshift.serialize import (coverage_report_to_dict,
                                 direction_from_dict, direction_to_dict,
                                 direction_to_vector_descriptor,
                                 group_from_dict, group_to_dict,
                                 horoball_from_dict, horoball_to_dict,
                                 json_dumps, nd_report_to_csv,
                                 nd_report_to_dict, parse_group, parse_spec,
                                 spec_hash, witness_vectors_from_report_dict)
from horoshift.separation import halfspace_coverage, uniform_probes
from test_golden import readme_commands


def _ball_raster_reference(p, center, N):
    """The raster of {x : d(center, x) < |center|} in the l^p norm of Z^2,
    one norm per cell."""
    norm = {1: lambda x, y: abs(x) + abs(y),
            2: lambda x, y: x * x + y * y,
            "inf": lambda x, y: max(abs(x), abs(y))}[p]
    (cx, cy), rows = center, []
    for y in range(N, -N - 1, -1):
        rows.append([0 if norm(x - cx, y - cy) < norm(cx, cy) else 255
                     for x in range(-N, N + 1)])
    return rows


class TestPGM:
    def test_header_and_payload(self, tmp_path):
        path = tmp_path / "img.pgm"
        n = write_pgm(path, [[0, 128], [255, 1]])
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[-4:] == bytes([0, 128, 255, 1])
        assert n == len(raw)

    def test_ragged_rejected(self, tmp_path):
        with pytest.raises(InputError):
            write_pgm(tmp_path / "bad.pgm", [[0, 1], [2]])
        with pytest.raises(InputError):
            write_pgm(tmp_path / "bad.pgm", [])

    @pytest.mark.parametrize("pixel", [256, -1, 1.7, True, "a", 255.0])
    def test_pixel_outside_0_to_255_refused(self, tmp_path, pixel):
        # 256, -1, 1.7 and True were written as 0, 255, 1 and 1 through
        # int(v) & 0xFF, and "a" raised a bare ValueError
        path = tmp_path / "bad.pgm"
        with pytest.raises(InputError):
            write_pgm(path, [[0, 255], [0, pixel]])
        assert not path.exists()

    def test_ball_raster_deterministic_and_exact(self, tmp_path):
        g = ZdLp(2, 1)
        rows = ball_raster(g, (5, 0), 2)
        again = ball_raster(g, (5, 0), 2)
        assert rows == again
        # membership d((5,0), p) < 5 checked independently
        for yi, y in enumerate(range(2, -3, -1)):
            for xi, x in enumerate(range(-2, 3)):
                inside = abs(x - 5) + abs(y) < 5
                assert (rows[yi][xi] == 0) == inside

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((1, 2, "inf")),
           st.tuples(*[st.one_of(st.integers(-10 ** 6, 10 ** 6),
                                 st.integers(-30, 30))] * 2),
           st.integers(0, 25))
    def test_ball_raster_matches_cell_reference(self, p, center, N):
        assert ball_raster(ZdLp(2, p), center, N) == \
            _ball_raster_reference(p, center, N)

    @pytest.mark.parametrize("p", [1, 2, "inf"])
    def test_ball_raster_reads_rows_not_cells(self, p, monkeypatch):
        calls = []
        for name in ("op", "inv", "norm_exact"):
            method = getattr(ZdLp, name)
            monkeypatch.setattr(ZdLp, name, lambda self, *a, m=method, n=name:
                                calls.append(n) or m(self, *a))
        ball_raster(ZdLp(2, p), (100, 0), 20)
        assert calls.count("op") == calls.count("inv") == 0
        assert calls.count("norm_exact") <= 1

    # the last is an l1 ball sequence of Z^2 checked to radius 1: a metric
    # on Z^2, but not a ZdLp
    @pytest.mark.parametrize("group", [
        WeightedFreeAbelian(), DirectSumZ2(), ZdLp(1, 2),
        ZdLp(3, 1),
        ball_sequence_check([[(0, 0)], [(0, 0), (1, 0), (-1, 0), (0, 1),
                                        (0, -1)]], 1).group],
        ids=["wfa", "dsz2", "z1", "z3", "ball-sequence"])
    def test_ball_raster_refuses_groups_other_than_z2(self, group):
        assert group is not None
        with pytest.raises(InputError, match="needs a Z\\^2 group"):
            ball_raster(group, (1, 0), 2)

    def test_pgm_bytes_stable(self, tmp_path):
        g = ZdLp(2, 1)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, ball_raster(g, (90, 0), 20))
        write_pgm(b, ball_raster(g, (90, 0), 20))
        assert a.read_bytes() == b.read_bytes()


class TestSVG:
    def test_direction_circle(self):
        report = nd_set(ledrappier(), 2, 4, grid="farey:1")
        d = nd_report_to_dict(report)
        svg = direction_circle_svg(d)
        assert svg.startswith("<svg")
        assert svg.count('fill="#c00"') == len(report.witness_directions())
        assert direction_circle_svg(d) == svg  # byte identical


class TestSerializers:
    def test_group_round_trip(self):
        for desc in ("z2-l1", "z3-l2", "z2-linf", "wfa-index", "dsz2-index"):
            g = parse_group(desc)
            d = group_to_dict(g)
            assert group_to_dict(group_from_dict(d)) == d

    def test_group_json_descriptor(self):
        g = parse_group('{"kind": "zd-lp", "dim": 3, "p": 1}')
        assert isinstance(g, ZdLp) and g.dim == 3 and g.p == 1

    def test_bad_group(self):
        with pytest.raises(InputError):
            parse_group("z2-l7")

    def test_horoball_round_trip(self):
        samples = [
            {"kind": "linear", "v": [1, 2]},
            {"kind": "halfplane-diagonal", "side": -1},
            {"kind": "quarter-space", "apex": [0, 0], "opening": "+x"},
            {"kind": "sampled-l1-ray", "ray": [1, 0], "n_star": 64},
        ]
        for d in samples:
            h = horoball_from_dict(d)
            assert horoball_to_dict(h) == d

    def test_sampled_horoball_descriptor(self):
        h = horoball_from_dict({"kind": "sampled-l1-ray", "ray": [1, 0],
                                "n_star": 64})
        assert h.j.value((3, 2)) == polyhedral_from_ray((1, 0)).value((3, 2))

    @pytest.mark.parametrize("ray", [[True, False], [1.5, 0]])
    def test_sampled_horoball_ray_must_be_integers(self, ray):
        # [true, false] was read as the ray (1, 0)
        with pytest.raises(InputError):
            horoball_from_dict({"kind": "sampled-l1-ray", "ray": ray})

    def test_spec_descriptors(self):
        assert parse_spec("ledrappier").to_dict() == ledrappier().to_dict()
        assert parse_spec("fullshift").alphabet == (0, 1)
        via_json = parse_spec(json.dumps(ledrappier().to_dict()))
        assert via_json.to_dict() == ledrappier().to_dict()
        assert spec_hash(via_json) == spec_hash(ledrappier())
        assert spec_hash(via_json) != spec_hash(FullShift((0, 1)))

    def test_direction_round_trip(self):
        d = Direction(1, 1, "sqrt-normalized")
        back = direction_from_dict(direction_to_dict(d))
        assert back == d and back.label == "sqrt-normalized"
        assert direction_to_vector_descriptor(back) == ["sqrt-normalized", 1, 1]
        assert direction_to_vector_descriptor(Direction(2, 1)) == [2, 1]

    def test_json_dumps_stable(self):
        s = json_dumps({"b": 1, "a": [1, 2]})
        assert s == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'


def _reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\t\n aé€\u2028\U0001f600')
                | st.characters())
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(-2 ** 200, 2 ** 200) | st.floats() | _TEXT
            | st.sampled_from([-0.0, 1e-320, math.nan, math.inf, -math.inf]))
_TREES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=40)


class _Level(enum.IntEnum):
    LOW = 1


class TestJsonDumps:
    """json_dumps writes the bytes of json.dumps(sort_keys=True, indent=2)."""

    @given(_TREES)
    @settings(max_examples=150, deadline=None)
    def test_matches_json_module(self, obj):
        assert json_dumps(obj) == _reference(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], {"a": {}}, [{}, [[], {}]], (), ("x", (1, 2.5)),
        np.float64(0.1), [np.float64(-1e300), np.float64("nan")],
        _Level.LOW, {"level": [_Level.LOW, True, False, 1, 1.0]},
        True, [True, False, None], "\u00e9\"\\\x01",
        # rows of plain ints, and rows holding a bool, an enum, a float,
        # a tuple or nothing
        [[1, 2], [3, True]], [[1], []], [[_Level.LOW, 2]], [(1, 2), [3]],
        [[2 ** 70, -1], [0]], [[1.0, 2]],
    ])
    def test_special_values(self, obj):
        assert json_dumps(obj) == _reference(obj)

    # _TREES' lists hold at most 5 items, so long runs of int rows are rare
    @given(st.lists(st.lists(st.integers() | st.booleans(), max_size=4),
                    max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_int_rows_match_json_module(self, rows):
        assert json_dumps(rows) == _reference(rows)

    def test_readme_artifacts(self, tmp_path, monkeypatch):
        """Every object the README's commands serialize, and so every JSON
        artifact they write, comes out as json.dumps writes it."""
        written = []

        def checked(obj):
            text = json_dumps(obj)
            assert text == _reference(obj)
            written.append(text)
            return text

        monkeypatch.setattr(serialize, "json_dumps", checked)
        monkeypatch.chdir(tmp_path)
        for argv in readme_commands():
            assert main(argv) == 0, argv
        artifacts = sorted((tmp_path / "out").glob("*.json"))
        assert artifacts
        for path in artifacts:
            assert path.read_text(encoding="utf-8") in written, path.name

    @pytest.mark.parametrize("obj", [
        Fraction(1, 3), {1, 2}, np.int64(3), [np.int64(3)], {1: "a"},
        {"a": [{(0, 1): 2}]}, [[1], [np.int64(3)]],
    ])
    def test_unserializable_raises(self, obj):
        with pytest.raises(TypeError):
            json_dumps(obj)


class TestReportSerialization:
    def make_report(self):
        return nd_set(ledrappier(), 2, 5, grid="farey:1")

    def test_report_dict_shape(self):
        d = nd_report_to_dict(self.make_report())
        assert d["epsilon"] == {"dyadic": "2^-2", "value": 0.25}
        assert len(d["entries"]) == 8
        assert d["metadata"]["grid"] == "farey:1"
        assert "spec_hash" in d["metadata"]
        wit = {(w["a"], w["b"]) for w in d["witness_directions"]}
        assert wit == {(0, -1), (-1, 0), (1, 1)}
        # everything must be json-serializable with stable output
        assert json_dumps(d) == json_dumps(json.loads(json_dumps(d)))

    def test_certificate_dicts(self):
        report = self.make_report()
        for direction, cert in report.entries:
            d = cert.to_dict()
            assert d["kind"] == cert.kind
            if cert.kind == "witness":
                assert d["extendable"] is True
                assert len(d["pair"]) == 2
                assert d["pair"][0]["N"] == cert.N

    def test_csv_format(self):
        csv = nd_report_to_csv(nd_report_to_dict(self.make_report()))
        lines = csv.strip().split("\n")
        assert lines[0] == "a,b,label,certificate,extendable"
        assert len(lines) == 9
        assert "0,-1,rational,witness,True" in lines

    def test_witness_vectors_from_dict(self):
        d = nd_report_to_dict(self.make_report())
        vecs = witness_vectors_from_report_dict(d)
        assert [1, 1] in vecs or ["sqrt-normalized", 1, 1] in vecs
        assert len(vecs) == 3

    def test_witness_vectors_require_witnesses(self):
        report = nd_set(FullShift((0, 1)), 2, 4, grid="1,0")
        d = nd_report_to_dict(report)
        assert witness_vectors_from_report_dict(d) == [[1, 0]]
        d["entries"] = []
        with pytest.raises(InputError):
            witness_vectors_from_report_dict(d)

    def test_coverage_report_dict(self):
        rep = halfspace_coverage([(1, 0), (0, 1)], uniform_probes(8))
        d = coverage_report_to_dict(rep)
        assert d["covered"] is False and d["probes"] == 8
        assert d["failing_probes"]
