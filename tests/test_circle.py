import operator
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lamlab.circle import (
    CirclePoint,
    DnaryString,
    angle,
    check_degree,
    parse_angle,
    parse_dnary,
    render_dnary,
    sigma,
)
from lamlab.leaves import Leaf

F = Fraction


def fr(p, q=1):
    return CirclePoint(F(p, q))


def preimages(d, t):
    """The d preimages (t + i)/d, i = 0..d-1, in increasing circular order.

    The reference inverse of `sigma` for the tests; the library pulls back
    on integer grids instead.
    """
    check_degree(d)
    return [CirclePoint((angle(t).value + i) / d) for i in range(d)]


def fixed_points(d):
    """Reference: the d-1 fixed points i/(d-1) of the d-tupling map, sorted."""
    check_degree(d)
    return [CirclePoint(F(i, d - 1)) for i in range(d - 1)]


def ccw_span(a, b):
    """Reference: the length of the counterclockwise arc from a to b, in [0, 1)."""
    return (b.value - a.value) % 1


def in_arc(t, a, b):
    """Reference: whether t lies strictly inside the open arc running counterclockwise from a to b.

    The library tests arcs on integer grids instead.
    """
    if a == b:
        raise ValueError("arc endpoints must be distinct")
    return a < t < b if a < b else a < t or t < b


angles = st.fractions(min_value=0, max_value=1, max_denominator=10**4).map(CirclePoint)
degrees = st.integers(min_value=2, max_value=9)


class TestCirclePoint:
    def test_normalizes_mod_one(self):
        assert fr(5, 4) == fr(1, 4)
        assert fr(-1, 4) == fr(3, 4)
        assert CirclePoint(F(7)) == fr(0)

    def test_arithmetic(self):
        assert fr(3, 4) + fr(1, 2) == fr(1, 4)
        assert fr(1, 4) - fr(1, 2) == fr(3, 4)
        assert 3 * fr(1, 7) == fr(3, 7)

    def test_distance_is_shortest_arc(self):
        assert fr(0).distance(fr(3, 4)) == F(1, 4)
        assert fr(1, 8).distance(fr(5, 8)) == F(1, 2)

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
        st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
    )
    def test_equal_points_hash_equal(self, x, y):
        a, b = CirclePoint(x), CirclePoint(y)
        assert (a == b) == ((x - y) % 1 == 0)
        if a == b:
            assert hash(a) == hash(b)
        # another representative mod 1, built through a different path
        c = CirclePoint(x + 5)
        assert a == c and hash(a) == hash(c)
        assert len({a, b, c}) == (1 if a == b else 2)
        table = {a: "a"}
        assert (b in table) == (a == b)
        assert table.get(c) == "a"

    def test_ordering_is_by_representative(self):
        assert fr(1, 8) < fr(7, 8)
        assert sorted([fr(3, 4), fr(0), fr(1, 2)]) == [fr(0), fr(1, 2), fr(3, 4)]


@dataclass(frozen=True, order=True)
class FractionPoint:
    """The comparisons CirclePoint had before it compared integer terms.

    They are the dataclass-generated ones over the `Fraction` value, kept
    here as the oracle for the hand-written ones.
    """

    value: Fraction


# a point spelled as an unreduced literal p*k/q*k shifted by m turns, so
# equal points arrive through different spellings and different denominators
spelled = st.builds(
    lambda p, q, k, m: f"{p * k + m * q * k}/{q * k}",
    st.integers(0, 40),
    st.integers(1, 40),
    st.integers(1, 4),
    st.integers(-2, 2),
)
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]


class TestComparisonOracle:
    @given(spelled, spelled)
    @example("1/2", "2/4")
    @example("-1/3", "2/3")
    @example("0", "7/7")
    def test_matches_fraction_comparisons(self, s, t):
        x, y = parse_angle(s), parse_angle(t)
        fx, fy = FractionPoint(Fraction(s) % 1), FractionPoint(Fraction(t) % 1)
        for op in COMPARISONS:
            assert op(x, y) == op(fx, fy), (op.__name__, s, t)
        if x == y:
            assert hash(x) == hash(y)

    @pytest.mark.parametrize("other", [Fraction(1, 2), 0, 1])
    def test_other_types_do_not_compare(self, other):
        p = fr(1, 2) if isinstance(other, Fraction) else fr(0)
        assert p != other and not p == other
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(p, other)
            with pytest.raises(TypeError):
                op(other, p)

    @given(st.lists(st.tuples(spelled, spelled), max_size=12))
    def test_leaf_order_is_endpoint_value_order(self, raw):
        leaves = []
        for s, t in raw:
            x, y = parse_angle(s), parse_angle(t)
            if x == y:
                with pytest.raises(ValueError, match="degenerate"):
                    Leaf(x, y)
                continue
            l = Leaf(x, y)
            assert (l.a.value, l.b.value) == tuple(sorted((x.value, y.value)))
            leaves.append(l)
        assert sorted(leaves) == sorted(leaves, key=lambda l: (l.a.value, l.b.value))


class TestSigma:
    def test_examples(self):
        assert sigma(2, fr(1, 7)) == fr(2, 7)
        assert sigma(3, fr(0)) == fr(0)
        assert sigma(5, fr(3, 4)) == fr(3, 4)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            sigma(1, fr(1, 2))

    @given(degrees, angles)
    def test_preimages_map_forward(self, d, t):
        pres = preimages(d, t)
        assert len(pres) == d
        assert len(set(pres)) == d
        assert pres == sorted(pres)
        for p in pres:
            assert sigma(d, p) == t


class TestPreimages:
    def test_examples(self):
        assert preimages(2, fr(0)) == [fr(0), fr(1, 2)]
        assert preimages(2, fr(2, 7)) == [fr(1, 7), fr(9, 14)]
        assert preimages(5, fr(1, 4)) == [
            fr(1, 20),
            fr(1, 4),
            fr(9, 20),
            fr(13, 20),
            fr(17, 20),
        ]


class TestFixedPoints:
    def test_examples(self):
        assert fixed_points(2) == [fr(0)]
        assert fixed_points(3) == [fr(0), fr(1, 2)]
        assert fixed_points(5) == [fr(0), fr(1, 4), fr(1, 2), fr(3, 4)]

    @given(degrees)
    def test_fixed_under_sigma(self, d):
        for p in fixed_points(d):
            assert sigma(d, p) == p


class TestInArc:
    def test_examples(self):
        assert in_arc(fr(1, 4), fr(0), fr(1, 2))
        assert not in_arc(fr(3, 4), fr(0), fr(1, 2))
        # wrapping arc
        assert in_arc(fr(0), fr(3, 4), fr(1, 4))

    def test_endpoints_excluded(self):
        assert not in_arc(fr(0), fr(0), fr(1, 2))
        assert not in_arc(fr(1, 2), fr(0), fr(1, 2))

    def test_degenerate_arc_rejected(self):
        with pytest.raises(ValueError):
            in_arc(fr(1, 4), fr(1, 3), fr(1, 3))

    @given(angles, angles, angles)
    def test_trichotomy(self, t, a, b):
        # t lies in exactly one of: the arc a->b, the arc b->a, {a, b}
        if a == b:
            return
        cases = [in_arc(t, a, b), in_arc(t, b, a), t in (a, b)]
        assert cases.count(True) == 1


def orbit(d: int, t: CirclePoint) -> tuple[int, list[CirclePoint]]:
    """Reference: the forward orbit of t, as (preperiod length, periodic cycle in orbit order).

    Rational angles are eventually periodic under the d-tupling map, so the
    iteration always terminates at the first repeated point.
    """
    check_degree(d)
    seen: dict[CirclePoint, int] = {}
    seq: list[CirclePoint] = []
    x = angle(t)
    while True:
        start = seen.setdefault(x, len(seq))
        if start < len(seq):
            return start, seq[start:]
        seq.append(x)
        x = sigma(d, x)


class TestOrbit:
    def test_periodic_orbit(self):
        assert orbit(2, fr(1, 7)) == (0, [fr(1, 7), fr(2, 7), fr(4, 7)])

    def test_preperiodic_orbit(self):
        assert orbit(2, fr(1, 2)) == (1, [fr(0)])

    def test_two_cycle(self):
        assert orbit(3, fr(1, 8)) == (0, [fr(1, 8), fr(3, 8)])

    @given(degrees, angles)
    def test_matches_brute_force(self, d, t):
        pre, cyc = orbit(d, t)
        x = angle(t)
        for _ in range(pre):
            x = sigma(d, x)
        # x now sits on the cycle and the cycle closes up
        assert x == cyc[0]
        for i, c in enumerate(cyc):
            assert sigma(d, c) == cyc[(i + 1) % len(cyc)]
        # minimality of the preperiod: entering one step earlier is off-cycle
        if pre > 0:
            y = angle(t)
            for _ in range(pre - 1):
                y = sigma(d, y)
            assert y not in cyc


class TestDnary:
    def test_parse_examples(self):
        assert parse_dnary("_001", 2) == fr(1, 7)
        assert parse_dnary("_0", 5) == fr(0)
        assert parse_dnary("1_3", 4) == fr(1, 2)

    def test_render_examples(self):
        assert str(render_dnary(fr(1, 7), 2)) == "_001"
        assert str(render_dnary(fr(0), 5)) == "_0"
        assert str(render_dnary(fr(1, 2), 2)) == "1_0"

    def test_parse_rejects_garbage(self):
        for bad in ["", "12", "_", "1_", "_2", "1_2_3", " _1", "_1 ", "-1_0"]:
            with pytest.raises(ValueError):
                parse_dnary(bad, 2)

    def test_parse_rejects_large_base(self):
        with pytest.raises(ValueError):
            parse_dnary("_1", 11)

    def test_render_rejects_large_base(self):
        with pytest.raises(ValueError, match="limited to d <= 10"):
            render_dnary(fr(1, 7), 11)

    def test_string_fields_checked(self):
        with pytest.raises(ValueError, match="bases 2..10 only"):
            DnaryString(11, (), (1,))
        with pytest.raises(ValueError, match="periodic part must be nonempty"):
            DnaryString(2, (1,), ())
        with pytest.raises(ValueError, match="digit 2 out of range for base 2"):
            DnaryString(2, (2,), (0,))

    @given(degrees, angles)
    def test_round_trip(self, d, t):
        s = render_dnary(t, d)
        assert s.base == d
        assert parse_dnary(str(s), d) == t

    @given(degrees, angles)
    def test_minimality(self, d, t):
        s = render_dnary(t, d)
        k = len(s.period)
        # no shorter period divides the tail
        for j in range(1, k):
            if k % j == 0:
                assert s.period != s.period[:j] * (k // j)
        # the preperiod cannot be shortened: its last digit differs from the
        # digit the cycle would supply in its place
        if s.preperiod:
            assert s.preperiod[-1] != s.period[-1]


class TestParseAngle:
    def test_rational(self):
        assert parse_angle("3/7") == fr(3, 7)
        assert parse_angle("0") == fr(0)
        assert parse_angle(" 5/4 ") == fr(1, 4)

    def test_digit_string(self):
        assert parse_angle("_001", 2) == fr(1, 7)

    def test_digit_string_needs_degree(self):
        with pytest.raises(ValueError):
            parse_angle("_001")

    def test_malformed(self):
        for bad in ["", "a/b", "1/0", "one", "1e400", "0.25", "1e999999999", "١/٣"]:
            with pytest.raises(ValueError):
                parse_angle(bad)

    @given(
        st.integers(-(10**30), 10**30),
        st.one_of(st.none(), st.integers(1, 10**30)),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 3),
    )
    @example(-7, 3, "", 0)  # negative
    @example(10, 4, "", 0)  # unreduced and out of range
    @example(9, 2, "+", 1)  # out of range, signed, zero-padded denominator
    @example(-6, 3, "", 0)  # a negative integer in disguise
    def test_gated_literal_equals_fraction(self, p, q, sign, zeros):
        # every literal the gate admits reads as Fraction(text) mod 1, and
        # `angle`, which read strings as CirclePoint(Fraction(text)), agrees
        text = sign + str(abs(p)) if sign else str(p)
        if q is not None:
            text += "/" + "0" * zeros + str(q)
        assert parse_angle(text).value == Fraction(text) % 1
        assert angle(text) == angle(f" {text}\n") == CirclePoint(Fraction(text))


class TestAngle:
    def test_floats_refused(self):
        for x in [0.1, 0.5, float("inf")]:
            with pytest.raises(TypeError):
                angle(x)
            with pytest.raises(TypeError):
                CirclePoint(x)
        with pytest.raises(TypeError):
            fr(1, 4) + 0.5
        with pytest.raises(TypeError):
            CirclePoint("1/2")

    def test_strings_pass_the_literal_gate(self):
        # "1e999999999" is refused before any integer is built
        for bad in ["1e3", "0.5", "1e999999999", "1_000/3", "abc", "1/0", "_001"]:
            with pytest.raises(ValueError):
                angle(bad)
        assert angle("-1/3") == fr(2, 3)


@given(angles, angles)
def test_ccw_span_antisymmetry(a, b):
    if a == b:
        assert ccw_span(a, b) == 0
    else:
        assert ccw_span(a, b) + ccw_span(b, a) == 1
