import gc
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bnmatch import validate_convex_ccw, verify_matching
from bnmatch.cli import main
from bnmatch.errors import NonFiniteValueError
from bnmatch.formats import (
    fmt17,
    instance_to_csv,
    instance_to_json,
    matching_to_json,
    parse_instance,
    parse_matching,
)
from bnmatch.structure import Matching
from conftest import SKEW4_COORDS, SQ4_COORDS

# finite floats, with the signed zero, the smallest subnormal, the float
# range's ends and integer values (written as JSON integers) drawn often
EXACT_FLOATS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
    | st.integers(-(2**70), 2**70).map(float)
)


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def sq4_file(tmp_path):
    return write(tmp_path / "sq4.json", instance_to_json(SQ4_COORDS))


class TestFormats:
    def test_float_round_trip(self):
        vals = [1 / 3, math.pi, 1e-17, 123456.75, 2.0 ** -1074]
        for v in vals:
            assert float(fmt17(v)) == v

    def test_instance_json_round_trip(self):
        pts = [(1 / 3, -2 / 7), (0.1, 0.2), (-5.5, 1e-12)]
        assert parse_instance(instance_to_json(pts)).tolist() == [list(p) for p in pts]

    def test_instance_csv_round_trip(self):
        pts = [(1 / 3, -2 / 7), (0.1, 0.2)]
        assert parse_instance(instance_to_csv(pts)).tolist() == [list(p) for p in pts]

    @given(st.lists(st.tuples(EXACT_FLOATS, EXACT_FLOATS), min_size=1, max_size=40))
    def test_instance_round_trip_bits(self, pts):
        # both forms give an (n, 2) float64 array holding the input's bits
        want = np.array(pts, dtype=np.float64)
        for text in (instance_to_json(pts), instance_to_csv(pts)):
            got = parse_instance(text)
            assert got.dtype == np.float64 and got.shape == (len(pts), 2)
            assert got.tobytes() == want.tobytes()

    def test_negative_zero_round_trips(self):
        # a bare "-0" reads back from JSON as the integer 0
        assert fmt17(-0.0) == "-0.0" and fmt17(0.0) == "0"
        for text in (instance_to_json([(-0.0, 0.0)]), instance_to_csv([(-0.0, 0.0)])):
            assert np.signbit(parse_instance(text)).tolist() == [[True, False]]

    def test_integer_json_numbers_round_to_nearest(self):
        # JSON integers convert as float() converts them, also past 2**53
        ints = [0, -1, 2**53 + 1, 2**63 + 1, -(2**64) - 1, 10**308]
        text = '{"points": [' + ", ".join(f"[{v}, {-v}]" for v in ints) + "]}"
        want = np.array([[float(v), float(-v)] for v in ints])
        assert parse_instance(text).tobytes() == want.tobytes()

    def test_matching_json_keys_stable(self):
        text = matching_to_json(4, 1.0, [(0, 1), (2, 3)], "one-cascade", 0, 7)
        assert list(json.loads(text)) == [
            "n", "value", "pairs", "structure", "cascades", "candidates",
        ]
        md = parse_matching(text)
        assert md["pairs"] == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_matching_json_refuses_non_finite_value(self, value):
        with pytest.raises(NonFiniteValueError):
            matching_to_json(4, value, [(0, 1), (2, 3)], "one-cascade", 0, None)

    def test_matching_null_candidates(self):
        md = parse_matching(matching_to_json(4, 1.0, [(0, 1)], "one-cascade", 0, None))
        assert md["candidates"] is None

    def test_parse_errors(self):
        from bnmatch.formats import ParseError

        for bad in ("", "{", '{"pts": []}', "1,2,3\n", "x;y\n"):
            with pytest.raises(ParseError):
                parse_instance(bad)
        with pytest.raises(ParseError):
            parse_matching("[]")
        with pytest.raises(ParseError):
            parse_matching('{"n": 4}')


class TestSolveCommand:
    def test_sq4(self, sq4_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["solve", sq4_file, "--output", str(out)]) == 0
        md = parse_matching(out.read_text())
        assert md["n"] == 4 and md["value"] == 1.0
        assert md["structure"] == "one-cascade"

    def test_skew4_to_stdout(self, tmp_path, capsys):
        inst = write(tmp_path / "skew.json", instance_to_json(SKEW4_COORDS))
        assert main(["solve", inst]) == 0
        md = parse_matching(capsys.readouterr().out)
        assert md["value"] == pytest.approx(2 * math.cos(math.radians(10)), rel=1e-12)

    def test_odd_count_exits_3(self, tmp_path, capsys):
        inst = write(tmp_path / "odd.csv", "0,0\n1,0\n0,1\n")
        assert main(["solve", inst]) == 3
        assert "OddCount" in capsys.readouterr().err

    def test_nonconvex_exits_3(self, tmp_path, capsys):
        inst = write(tmp_path / "bad.csv", "0,0\n1,0\n2,0\n0,1\n")
        assert main(["solve", inst]) == 3
        assert "NotStrictlyConvex" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "baseline", "oracle"])
    def test_overflowing_value_exits_3(self, tmp_path, capsys, command):
        # every squared length of this valid square overflows float64
        s = 1e160
        inst = write(tmp_path / "big.json", instance_to_json([(0, 0), (s, 0), (s, s), (0, s)]))
        assert main([command, inst]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "NonFiniteValue: the bottleneck's squared length overflows float64\n"), err

    def test_overflowing_cross_products_exit_3(self, tmp_path, capsys):
        # validation decides this square's turns exactly although every
        # cross product overflows; its squared lengths overflow too
        pts = [(0, 0), (1e300, -1e300), (2e300, 0), (1e300, 1e300)]
        inst = write(tmp_path / "huge.json", instance_to_json(pts))
        assert main(["solve", inst]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("NonFiniteValue"), err

    @pytest.mark.parametrize("command", ["solve", "baseline", "oracle"])
    def test_underflowing_value_exits_3(self, tmp_path, capsys, command):
        # every squared length of this valid square underflows to 0
        s = 1e-170
        inst = write(tmp_path / "tiny.json", instance_to_json([(0, 0), (s, 0), (s, s), (0, s)]))
        assert main([command, inst]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("UnderflowValue"), err

    def test_garbage_exits_2(self, tmp_path, capsys):
        inst = write(tmp_path / "junk.json", "{nope")
        assert main(["solve", inst]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["solve", "/definitely/not/here.json"]) == 2

    def test_sort_ccw(self, tmp_path):
        shuffled = [SQ4_COORDS[2], SQ4_COORDS[0], SQ4_COORDS[3], SQ4_COORDS[1]]
        inst = write(tmp_path / "sh.json", instance_to_json(shuffled))
        assert main(["solve", inst, "--sort-ccw", "--output", str(tmp_path / "o.json")]) == 0

    @pytest.mark.parametrize("sort", [[], ["--sort-ccw"]])
    def test_empty_instance_exits_3(self, tmp_path, capsys, sort):
        inst = write(tmp_path / "e.json", '{"points": []}')
        assert main(["solve", inst] + sort) == 3
        assert "TooFew" in capsys.readouterr().err


class TestBaselineAndOracle:
    def test_baseline(self, sq4_file, capsys):
        assert main(["baseline", sq4_file]) == 0
        md = parse_matching(capsys.readouterr().out)
        assert md["value"] == 1.0 and md["candidates"] is None

    def test_oracle(self, sq4_file, capsys):
        assert main(["oracle", sq4_file]) == 0
        assert parse_matching(capsys.readouterr().out)["value"] == 1.0

    def test_oracle_size_guard_exits_4(self, tmp_path, capsys):
        pts = [
            (math.cos(2 * math.pi * k / 22), math.sin(2 * math.pi * k / 22))
            for k in range(22)
        ]
        inst = write(tmp_path / "big.json", instance_to_json(pts))
        assert main(["oracle", inst]) == 4
        assert "TooLarge" in capsys.readouterr().err


class TestVerifyCommand:
    def test_ok(self, sq4_file, tmp_path, capsys):
        m = write(
            tmp_path / "m.json",
            matching_to_json(4, 1.0, [(0, 1), (2, 3)], "one-cascade", 0, 0),
        )
        assert main(["verify", sq4_file, m]) == 0
        assert capsys.readouterr().out.startswith("OK")

    def test_crossing_fails(self, sq4_file, tmp_path, capsys):
        m = write(
            tmp_path / "m.json",
            matching_to_json(4, math.sqrt(2), [(0, 2), (1, 3)], "one-cascade", 0, 0),
        )
        assert main(["verify", sq4_file, m]) == 1
        assert "nonCrossing" in capsys.readouterr().out

    # a claim one ulp either side of the true 1.0 fails like any other
    @pytest.mark.parametrize("claim", [1.25, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)])
    def test_tampered_value_fails(self, sq4_file, tmp_path, capsys, claim):
        m = write(
            tmp_path / "m.json",
            matching_to_json(4, claim, [(0, 1), (2, 3)], "one-cascade", 0, 0),
        )
        assert main(["verify", sq4_file, m]) == 1
        assert capsys.readouterr().out == "FAIL value\n"

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value_fails(self, sq4_file, tmp_path, capsys, value):
        m = write(
            tmp_path / "m.json",
            '{"n": 4, "value": %s, "pairs": [[0, 1], [2, 3]]}' % value,
        )
        assert main(["verify", sq4_file, m]) == 1
        assert capsys.readouterr().out == "FAIL value\n"

    @pytest.mark.parametrize("claim", [5, 1e160])
    def test_overflowing_bottleneck_exits_3(self, tmp_path, capsys, claim):
        # every squared length of this valid square overflows float64, so
        # no claimed value can be checked: verify names it, as solve does
        s = 1e160
        inst = write(tmp_path / "big.json", instance_to_json([(0, 0), (s, 0), (s, s), (0, s)]))
        m = write(tmp_path / "m.json", '{"n": 4, "value": %r, "pairs": [[0, 1], [2, 3]]}' % claim)
        assert main(["verify", inst, m]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "NonFiniteValue" in err

    def test_underflowing_bottleneck_exits_3(self, tmp_path, capsys):
        # every squared length of this valid square underflows to 0, which
        # no claim may match: verify names it, as solve does
        s = 1e-170
        inst = write(tmp_path / "tiny.json", instance_to_json([(0, 0), (s, 0), (s, s), (0, s)]))
        m = write(tmp_path / "m.json", '{"n": 4, "value": 0.0, "pairs": [[0, 1], [2, 3]]}')
        assert main(["verify", inst, m]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("UnderflowValue"), err

    def test_imperfect_fails(self, sq4_file, tmp_path, capsys):
        m = write(
            tmp_path / "m.json",
            matching_to_json(4, 1.0, [(0, 1), (1, 2)], "one-cascade", 0, 0),
        )
        assert main(["verify", sq4_file, m]) == 1
        assert "perfect" in capsys.readouterr().out

    def test_repeat_call_leaves_no_cyclic_garbage(self, sq4_file, tmp_path, capsys):
        # the parser is built once per process, so a second verify creates
        # no reference cycles for the collector to find
        m = write(
            tmp_path / "m.json",
            matching_to_json(4, 1.0, [(0, 1), (2, 3)], "one-cascade", 0, 0),
        )
        assert main(["verify", sq4_file, m]) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(["verify", sq4_file, m]) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("index", [2**70, -1])
    def test_index_out_of_range_fails_perfect(self, sq4_file, tmp_path, capsys, index):
        # 2**70 does not fit an intp; -1 would wrap to point 3, and
        # (0, 3), (1, 2) is a perfect matching of value 1
        m = write(tmp_path / "m.json", '{"n": 4, "value": 1.0, "pairs": [[0, %d], [1, 2]]}' % index)
        assert main(["verify", sq4_file, m]) == 1
        assert capsys.readouterr().out == "FAIL perfect\n"

    def test_n_mismatch_fails(self, sq4_file, tmp_path, capsys):
        m = write(
            tmp_path / "m.json",
            matching_to_json(6, 1.0, [(0, 1), (2, 3), (4, 5)], "one-cascade", 0, 0),
        )
        assert main(["verify", sq4_file, m]) == 1
        assert "n" in capsys.readouterr().out


class TestGenCommand:
    def test_json_output_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main([
                "gen", "--n", "10", "--mode", "valtr", "--seed", "5",
                "--output", str(path),
            ]) == 0
        assert a.read_text() == b.read_text()

    def test_csv_output(self, tmp_path, capsys):
        assert main(["gen", "--n", "6", "--format", "csv", "--seed", "2"]) == 0
        pts = parse_instance(capsys.readouterr().out)
        assert len(pts) == 6

    @pytest.mark.parametrize("spread, message", [
        ("nan", "spread must be in (0, 0.2], got nan"),
        ("1e-16", "cluster3 points collapse at spread 1e-16 for n = 8"),
        ("5e-324", "cluster3 points collapse at spread 5e-324 for n = 8"),
    ])
    def test_bad_cluster3_spread_exits_3(self, capsys, spread, message):
        assert main(["gen", "--n", "8", "--mode", "cluster3", "--spread", spread]) == 3
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out

    def test_round_trip_exact(self, tmp_path, capsys):
        from bnmatch import gen_circle

        assert main(["gen", "--n", "8", "--seed", "3"]) == 0
        pts = parse_instance(capsys.readouterr().out)
        assert pts.tolist() == [list(p) for p in gen_circle(8, 3).coords()]


class TestRenderCommand:
    def test_svg_structure(self, sq4_file, tmp_path):
        m = write(
            tmp_path / "m.json",
            matching_to_json(4, 1.0, [(0, 1), (2, 3)], "one-cascade", 0, 0),
        )
        out = tmp_path / "out.svg"
        assert main(["render", sq4_file, m, "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}circle")) == 4
        assert len(root.findall(f"{ns}line")) == 2
        assert len(root.findall(f"{ns}polygon")) == 1
        texts = root.findall(f"{ns}text")
        assert len(texts) == 1 and texts[0].text == "1"

    def test_empty_matching_exits_2(self, sq4_file, tmp_path, capsys):
        m = write(tmp_path / "m.json", "")
        assert main(["render", sq4_file, m, "--out", str(tmp_path / "o.svg")]) == 2

    def test_no_pairs_exits_2(self, sq4_file, tmp_path):
        m = write(tmp_path / "m.json", '{"n": 4, "value": 0.0, "pairs": []}')
        assert main(["render", sq4_file, m, "--out", str(tmp_path / "o.svg")]) == 2

    @pytest.mark.parametrize("pair", [(2, 4), (-1, 2)])
    def test_index_out_of_range_exits_2(self, sq4_file, tmp_path, capsys, pair):
        # too large used to escape as IndexError; negative wrapped silently
        m = write(
            tmp_path / "m.json",
            matching_to_json(4, 1.0, [(0, 1), pair], "one-cascade", 0, 0),
        )
        out = tmp_path / "o.svg"
        assert main(["render", sq4_file, m, "--out", str(out)]) == 2
        assert "parse error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("coord", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_coordinate_exits_3(self, tmp_path, capsys, coord):
        # these used to be drawn, as viewBox="-inf -inf inf inf" or a nan
        # vertex, with exit 0; verify and solve reject them as NonFinite
        inst = write(tmp_path / "i.json", '{"points": [[0, 0], [' + coord + ", 0], [1, 1], [0, 1]]}")
        m = write(tmp_path / "m.json", matching_to_json(4, 1.0, [(0, 1), (2, 3)], "one-cascade", 0, 0))
        out = tmp_path / "o.svg"
        assert main(["render", inst, m, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "NonFinite" in captured.err and not captured.out
        assert not out.exists()

    @pytest.mark.parametrize("points, pairs", [
        ([(0, 0), (1e200, 0), (1e200, 1e200), (0, 1e200)], [(0, 1), (2, 3)]),
        ([(0, 0), (1e200, 0), (1e100, 1), (0, 1)], [(2, 3), (0, 1)]),
    ], ids=["square", "trapezoid"])
    def test_overflowing_lengths_render(self, tmp_path, points, pairs):
        # squared lengths past the float range are inf, as in verify_matching;
        # ** used to raise OverflowError out of main
        inst = write(tmp_path / "i.json", instance_to_json(points))
        m = write(tmp_path / "m.json", matching_to_json(4, 1e200, pairs, "one-cascade", 0, 0))
        out = tmp_path / "o.svg"
        assert main(["render", inst, m, "--out", str(out)]) == 0
        ns = "{http://www.w3.org/2000/svg}"
        hot = [ln for ln in ET.fromstring(out.read_text()).iter(f"{ns}line")
               if ln.get("stroke") == "#d62728"]
        a, b = verify_matching(validate_convex_ccw(points), Matching(4, tuple(pairs))).longest_pair
        (xa, ya), (xb, yb) = (map(float, points[t]) for t in (a, b))
        want = [f"{v:.8g}" for v in (xa, -ya, xb, -yb)]  # y is drawn flipped
        assert [[ln.get(k) for k in ("x1", "y1", "x2", "y2")] for ln in hot] == [want]


NON_INTEGER_INDICES = {
    "fractional": '{"n": 4.9, "value": 1.0, "pairs": [[0.9, 1.7], [2, 3.2]]}',
    "bool-pair": '{"n": 4, "value": 1.0, "pairs": [[true, 0], [2, 3]]}',
    "bool-n": '{"n": true, "value": 1.0, "pairs": [[0, 1], [2, 3]]}',
    "infinite-n": '{"n": Infinity, "value": 1.0, "pairs": [[0, 1], [2, 3]]}',
    "string-pair": '{"n": 4, "value": 1.0, "pairs": [["0", 1], [2, 3]]}',
}


@pytest.mark.parametrize("text", NON_INTEGER_INDICES.values(), ids=NON_INTEGER_INDICES)
@pytest.mark.parametrize("command", ["verify", "render"])
def test_non_integer_index_exits_2(sq4_file, tmp_path, capsys, command, text):
    # int() used to truncate these, so verify printed OK and render drew
    m = write(tmp_path / "m.json", text)
    out = tmp_path / "o.svg"
    extra = ["--out", str(out)] if command == "render" else []
    assert main([command, sq4_file, m] + extra) == 2
    assert "parse error" in capsys.readouterr().err
    assert not out.exists()


# "points" values that are no list of (x, y) number pairs
MALFORMED_POINTS = {
    "bool": "[[true, false], [1, 0], [1, 1], [0, 1]]",
    "string": '[["0", 0], [1, 0], [1, 1], [0, 1]]',
    "null": "[[0, null], [1, 0], [1, 1], [0, 1]]",
    "nested": "[[[0], 0], [1, 0], [1, 1], [0, 1]]",
    "object": '[{"x": 0, "y": 0}, [1, 0], [1, 1], [0, 1]]',
    "not-a-list": "4",
    "huge-integer": "[[1" + "0" * 400 + ", 0], [1, 0], [1, 1], [0, 1]]",
    "length-1": "[[0], [1, 0], [1, 1], [0, 1]]",
    "length-3": "[[0, 0], [1, 0, 0], [1, 1], [0, 1]]",
    "scalar-point": "[[0, 0], [1, 0], 7, [0, 1]]",
    "dict": '{"0": [0, 0]}',
    "string-points": '"0,0"',
}


@pytest.mark.parametrize("points", MALFORMED_POINTS.values(), ids=MALFORMED_POINTS)
def test_non_number_coordinates_exit_2(tmp_path, capsys, points):
    # float() used to read true as 1 and "0" as 0, so these were solved
    inst = write(tmp_path / "i.json", '{"points": ' + points + "}")
    assert main(["solve", inst]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: ") and not captured.out


@pytest.mark.parametrize("points", MALFORMED_POINTS.values(), ids=MALFORMED_POINTS)
def test_malformed_instance_verify_exits_2(tmp_path, capsys, points):
    # the matching would verify against the unit square
    inst = write(tmp_path / "i.json", '{"points": ' + points + "}")
    m = write(tmp_path / "m.json", matching_to_json(4, 1.0, [(0, 1), (2, 3)], "one-cascade", 0, 0))
    assert main(["verify", inst, m]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: ") and not captured.out


NON_NUMBER_VALUES = {
    "bool": "true", "string": '"1"', "null": "null", "list": "[1]",
    "huge-integer": "1" + "0" * 400,
}


@pytest.mark.parametrize("value", NON_NUMBER_VALUES.values(), ids=NON_NUMBER_VALUES)
def test_non_number_value_exits_2(sq4_file, tmp_path, capsys, value):
    # the sq4 matching's value is 1; true and "1" used to verify as OK
    m = write(tmp_path / "m.json", '{"n": 4, "value": ' + value + ', "pairs": [[0, 1], [2, 3]]}')
    assert main(["verify", sq4_file, m]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: ") and not captured.out


@pytest.mark.parametrize("command", ["solve", "verify", "render"])
def test_undecodable_file_exits_2(sq4_file, tmp_path, capsys, command):
    # a UnicodeDecodeError is a ValueError, which used to exit 3
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "o.svg"
    args = {"solve": [str(bad)], "verify": [sq4_file, str(bad)],
            "render": [sq4_file, str(bad), "--out", str(out)]}[command]
    assert main([command] + args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: ") and "not UTF-8" in captured.err
    assert not captured.out and not out.exists()


def test_csv_cells_are_read_by_float():
    assert parse_instance(" 1 ,2\n3e0,-4.5\n").tolist() == [[1.0, 2.0], [3.0, -4.5]]


def test_integral_float_index_accepted():
    md = parse_matching('{"n": 4.0, "value": 1, "pairs": [[0, 1.0], [2, 3]]}')
    assert md["n"] == 4 and md["pairs"] == [(0, 1), (2, 3)]
    assert all(type(v) is int for v in (md["n"], *md["pairs"][0]))


class TestBenchCommand:
    def test_rows_and_slope(self, capsys):
        assert main([
            "bench", "--sizes", "8,16", "--reps", "2", "--seed", "1",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,rep,seed,elapsed_ns,value,rep_cpu_ns"
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("# slope ")
        n, rep, seed, ns, value, cpu_ns = lines[1].split(",")
        assert (n, rep, seed) == ("8", "0", "1") and int(ns) > 0 and int(cpu_ns) > 0
        float(value)

    def test_single_size_no_slope(self, capsys):
        assert main(["bench", "--sizes", "8", "--reps", "1", "--algo", "cubic"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert not lines[-1].startswith("#")

    def test_json_schema(self, tmp_path, capsys):
        # each run appends one record; the schema is checked, no timing value is
        path = tmp_path / "bench.json"
        for mode in ("circle", "cluster3"):
            assert main([
                "bench", "--sizes", "8,16", "--reps", "2", "--seed", "1", "--mode", mode,
                "--json", str(path),
            ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[:2] == ["n,rep,seed,elapsed_ns,value,rep_cpu_ns", lines[1]]
        assert lines[1].startswith("8,0,1,")
        assert len(lines) == 2 * (1 + 4 + 1) and lines[5].startswith("# slope ")
        runs = json.loads(path.read_text())
        assert [r["mode"] for r in runs] == ["circle", "cluster3"]
        for r, run in enumerate(runs):
            assert set(run) == {
                "algo", "mode", "seed", "spread", "reps", "cells", "slope",
                "python", "numpy", "machine", "cpus",
            }
            assert (run["algo"], run["seed"], run["reps"]) == ("solve", 1, 2)
            assert isinstance(run["slope"], float)
            assert run["cpus"] == len(os.sched_getaffinity(0))  # the CPUs it may run on
            assert [c["n"] for c in run["cells"]] == [8, 16]
            for c, cell in enumerate(run["cells"]):
                assert set(cell) == {
                    "n", "elapsed_ns", "rep_cpu_ns", "cpu_ns", "median_ns", "iqr_ns",
                    "ns_per_entry", "peak_rss_bytes",
                }
                # each rep's wall and CPU time, as its CSV row gave them
                rows = [row.split(",") for row in lines[6 * r + 1 + 2 * c:][:2]]
                assert cell["elapsed_ns"] == [int(row[3]) for row in rows]
                assert cell["rep_cpu_ns"] == [int(row[5]) for row in rows]
                assert all(isinstance(v, int) and v > 0
                           for v in cell["elapsed_ns"] + cell["rep_cpu_ns"])
                # the child's CPU time, all threads and its set-up included
                assert isinstance(cell["cpu_ns"], int)
                assert cell["cpu_ns"] >= sum(cell["rep_cpu_ns"])
                assert cell["iqr_ns"] >= 0 and cell["peak_rss_bytes"] > 0
                assert cell["ns_per_entry"] == cell["median_ns"] / (cell["n"] ** 2 / 2)

    def test_json_rep_cpu_within_wall(self, tmp_path, capsys):
        # each child runs one BLAS thread, and the fill one thread up to
        # n = 1024, so no rep's CPU time can pass its wall time
        path = tmp_path / "bench.json"
        assert main(["bench", "--sizes", "16,64,256,1024", "--reps", "21", "--mode", "cluster3",
                     "--json", str(path)]) == 0
        capsys.readouterr()
        cells = json.loads(path.read_text())[0]["cells"]
        assert [c["n"] for c in cells] == [16, 64, 256, 1024]
        for c in cells:
            for cpu, wall in zip(c["rep_cpu_ns"], c["elapsed_ns"], strict=True):
                assert cpu <= wall + 1_000_000, (c["n"], cpu, wall)

    def test_json_file_not_a_list_exits_2(self, tmp_path, capsys):
        path = write(tmp_path / "bench.json", "{}")
        assert main(["bench", "--sizes", "8", "--json", path]) == 2
        captured = capsys.readouterr()
        assert "no JSON list" in captured.err and not captured.out
        assert (tmp_path / "bench.json").read_text() == "{}"

    def test_unwritable_json_path_exits_2_before_timing(self, tmp_path, capsys):
        path = tmp_path / "missing" / "bench.json"
        assert main(["bench", "--sizes", "8,16", "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert "io error" in captured.err and not captured.out
        assert not path.parent.exists()

    def test_odd_size_rejected(self, capsys):
        assert main(["bench", "--sizes", "7"]) == 3

    @pytest.mark.parametrize("args, message", [
        (["--sizes", "8", "--reps", "0"], "--reps >= 1, got 0"),
        (["--sizes", "8", "--reps", "-2"], "--reps >= 1, got -2"),
        (["--sizes", ","], "at least one size"),
        (["--sizes", ""], "at least one size"),
        (["--sizes", "7"], "OddCount: 7"),
        (["--sizes", "8,2"], "TooFew: generators need n >= 4, got 2"),
        (["--sizes", "0"], "TooFew: generators need n >= 4, got 0"),
        (["--sizes", "-4"], "TooFew: generators need n >= 4, got -4"),
        (["--sizes", "8,8"], "distinct"),
        (["--sizes", "8,16,8"], "distinct"),
        (["--sizes", "8", "--mode", "cluster3", "--spread", "0.5"],
         "spread must be in (0, 0.2], got 0.5"),
        (["--sizes", "8", "--seed", "-1"], "expected non-negative integer"),
        (["--sizes", "8", "--mode", "cluster3", "--spread", "nan"],
         "spread must be in (0, 0.2], got nan"),
        (["--sizes", "64", "--mode", "cluster3", "--spread", "1e-14"],
         "cluster3 points collapse at spread 1e-14 for n = 64"),
    ])
    def test_bad_arguments_rejected_before_timing(self, capsys, args, message):
        assert main(["bench"] + args) == 3
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ["circle", "valtr", "cluster3"])
    def test_gen_solve_verify(self, mode, tmp_path):
        inst = tmp_path / "i.json"
        m = tmp_path / "m.json"
        for n in (8, 12):
            for seed in (0, 1):
                assert main([
                    "gen", "--n", str(n), "--mode", mode, "--seed", str(seed),
                    "--output", str(inst),
                ]) == 0
                assert main(["solve", str(inst), "--output", str(m)]) == 0
                assert main(["verify", str(inst), str(m)]) == 0

    @pytest.mark.parametrize("command", ["baseline", "oracle"])
    def test_reference_output_verifies(self, tmp_path, command):
        inst = tmp_path / "i.json"
        m = tmp_path / "m.json"
        assert main(["gen", "--n", "10", "--seed", "4", "--output", str(inst)]) == 0
        assert main([command, str(inst), "--output", str(m)]) == 0
        assert main(["verify", str(inst), str(m)]) == 0

    # squared sides 1e-320 (subnormal) and 1e300: each writer's value
    # verifies bit for bit at both ends of the float range
    @pytest.mark.parametrize("s", [1e-160, 1e150])
    @pytest.mark.parametrize("command", ["solve", "baseline", "oracle"])
    def test_magnitude_square_verifies(self, tmp_path, capsys, command, s):
        inst = write(tmp_path / "sq.json", instance_to_json([(0, 0), (s, 0), (s, s), (0, s)]))
        m = tmp_path / "m.json"
        assert main([command, inst, "--output", str(m)]) == 0
        assert main(["verify", inst, str(m)]) == 0
        value = parse_matching(m.read_text())["value"]
        assert f" value={fmt17(value)} " in capsys.readouterr().out


def test_console_entry_point():
    import os
    import subprocess
    import sys

    import bnmatch

    # the child finds the same bnmatch, also when only pytest's pythonpath has it
    src = os.path.dirname(os.path.dirname(bnmatch.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "bnmatch.cli", "gen", "--n", "4", "--seed", "0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert '"points"' in proc.stdout
