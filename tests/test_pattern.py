"""Unit tests for the pattern algebra (repro.core.pattern)."""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import PatternError
from repro.core.pattern import DONT_CARE, Pattern, letters_to_pattern
from tests.reference import parse_pattern_by_char


class TestConstruction:
    def test_single_features_and_dont_cares(self):
        pattern = Pattern(["a", None, "b", "*"])
        assert pattern.period == 4
        assert pattern.positions == (
            frozenset({"a"}),
            frozenset(),
            frozenset({"b"}),
            frozenset(),
        )

    def test_multi_feature_position(self):
        pattern = Pattern([["b1", "b2"], "*"])
        assert pattern.positions[0] == frozenset({"b1", "b2"})

    def test_empty_pattern_rejected(self):
        with pytest.raises(PatternError):
            Pattern([])

    def test_empty_feature_string_rejected(self):
        with pytest.raises(PatternError):
            Pattern([""])

    def test_star_inside_feature_set_rejected(self):
        with pytest.raises(PatternError):
            Pattern([{"a", "*"}])

    def test_non_string_feature_rejected(self):
        with pytest.raises(PatternError):
            Pattern([{1}])

    def test_from_letters(self):
        pattern = Pattern.from_letters(5, [(0, "a"), (1, "b1"), (1, "b2"), (3, "d")])
        assert str(pattern) == "a{b1,b2}*d*"

    def test_from_letters_offset_out_of_range(self):
        with pytest.raises(PatternError):
            Pattern.from_letters(3, [(3, "a")])
        with pytest.raises(PatternError):
            Pattern.from_letters(3, [(-1, "a")])

    def test_from_letters_bad_period(self):
        with pytest.raises(PatternError):
            Pattern.from_letters(0, [])

    def test_dont_care_pattern(self):
        pattern = Pattern.dont_care(4)
        assert pattern.is_trivial
        assert str(pattern) == "****"

    def test_dont_care_bad_period(self):
        with pytest.raises(PatternError):
            Pattern.dont_care(0)


class TestParsing:
    def test_simple_string(self):
        pattern = Pattern.from_string("ab*d")
        assert pattern.period == 4
        assert str(pattern) == "ab*d"

    def test_braced_group(self):
        pattern = Pattern.from_string("a{b1,b2}*d*")
        assert pattern.period == 5
        assert pattern.positions[1] == frozenset({"b1", "b2"})

    def test_roundtrip_matches_paper_notation(self):
        for text in ("a**", "*b*", "ab*", "a{b1,b2}*d*", "{x}{y,z}*"):
            parsed = Pattern.from_string(text)
            assert Pattern.from_string(str(parsed)) == parsed

    def test_multichar_feature_rendered_braced(self):
        pattern = Pattern([["coffee"], "*"])
        assert str(pattern) == "{coffee}*"
        assert Pattern.from_string(str(pattern)) == pattern

    def test_empty_string_rejected(self):
        with pytest.raises(PatternError):
            Pattern.from_string("")

    def test_unclosed_brace_rejected(self):
        with pytest.raises(PatternError):
            Pattern.from_string("a{b1")

    def test_unmatched_close_brace_rejected(self):
        with pytest.raises(PatternError):
            Pattern.from_string("ab}")

    def test_empty_group_rejected(self):
        with pytest.raises(PatternError):
            Pattern.from_string("a{}b")


class TestReservedCharacters:
    """``*``, ``{``, ``}`` and ``,`` are the notation's; no feature may hold
    one."""

    @pytest.mark.parametrize("feature", ["a,b", "}", "{", "x{y", ",", "a*"])
    def test_every_constructor_refuses_them(self, feature):
        message = re.escape(
            f"feature {feature!r} uses the reserved pattern character"
        )
        with pytest.raises(PatternError, match=message):
            Pattern([feature, "*"])
        with pytest.raises(PatternError, match=message):
            Pattern([["ok", feature]])
        with pytest.raises(PatternError, match=message):
            Pattern.from_letters(2, [(0, "ok"), (1, feature)])

    def test_parsed_text_refuses_them(self):
        with pytest.raises(PatternError, match="reserved pattern character ','"):
            Pattern.from_string("a,*")
        with pytest.raises(PatternError, match="reserved pattern character '{'"):
            Pattern.from_string("{{a}*")

    def test_parsed_text_refuses_a_wildcard_inside_a_name(self):
        # A '*' position is a don't-care; a '*' inside a grouped name is
        # refused, as the series loader and the stream feed refuse it.
        with pytest.raises(PatternError, match="'a\\*' uses the reserved"):
            Pattern.from_string("{a*}b")
        with pytest.raises(PatternError, match="'\\*b' uses the reserved"):
            Pattern.from_string("a{c,*b}")

    def test_group_errors_come_before_refused_features(self):
        with pytest.raises(PatternError, match="unmatched"):
            Pattern.from_string("{*}}")
        with pytest.raises(PatternError, match="'\\*' uses the reserved"):
            Pattern.from_string("{*}{{a}")


#: Feature names: one or more characters, unicode included, and the
#: notation's own characters inside and around them.
_NAMES = st.one_of(
    st.sampled_from(["a", "b1", "*", "{a", "é", "日本", "a*", ",", ""]),
    st.text(min_size=0, max_size=4),
)

#: Pieces of pattern text: bare characters, stray braces and commas, and
#: groups of (possibly malformed) names.
_PIECES = st.one_of(
    st.sampled_from(["*", "{", "}", ",", "{}", "{,}", "a", "é", "\n"]),
    st.lists(_NAMES, max_size=3).map(lambda names: "{" + ",".join(names) + "}"),
    st.text(max_size=3),
)


def _outcome(parse, text):
    try:
        pattern = parse(text)
    except PatternError as error:
        return ("error", str(error))
    return ("pattern", pattern.positions, str(pattern))


class TestParserDifferential:
    """The tokenizing parser against the per-character reference."""

    @settings(max_examples=600, deadline=None)
    @given(text=st.lists(_PIECES, max_size=8).map("".join))
    @example(text="")
    @example(text="{*}}")
    @example(text="{b,*}{{a}")
    @example(text="a{b1,b2}*d*")
    def test_same_pattern_or_same_error(self, text):
        assert _outcome(Pattern.from_string, text) == _outcome(
            parse_pattern_by_char, text
        )


class TestLengths:
    def test_example_from_paper(self):
        # The paper: a{b1,b2}*d* is of length 5 and L-length 3.
        pattern = Pattern.from_string("a{b1,b2}*d*")
        assert len(pattern) == 5
        assert pattern.l_length == 3
        assert pattern.letter_count == 4

    def test_trivial_lengths(self):
        pattern = Pattern.dont_care(3)
        assert pattern.l_length == 0
        assert pattern.letter_count == 0

    def test_letters_view(self):
        pattern = Pattern.from_string("a*b")
        assert pattern.letters == frozenset({(0, "a"), (2, "b")})

    def test_sorted_letters_order(self):
        pattern = Pattern.from_string("{b,a}c*")
        assert pattern.sorted_letters() == [(0, "a"), (0, "b"), (1, "c")]


class TestRelations:
    def test_subpattern_examples_from_paper(self):
        # a*b*** and *{b,c}** style relations from Section 2.
        full = Pattern.from_string("a{b1,b2}*d*")
        assert Pattern.from_string("a****").is_subpattern_of(full)
        assert Pattern.from_string("a{b1}*d*").is_subpattern_of(full)
        assert Pattern.from_string("*{b1,b2}***").is_subpattern_of(full)
        assert not Pattern.from_string("a*c**").is_subpattern_of(full)

    def test_subpattern_is_reflexive(self):
        pattern = Pattern.from_string("ab*")
        assert pattern.is_subpattern_of(pattern)

    def test_superpattern(self):
        small = Pattern.from_string("a**")
        big = Pattern.from_string("ab*")
        assert big.is_superpattern_of(small)
        assert not small.is_superpattern_of(big)

    def test_subpattern_requires_equal_periods(self):
        with pytest.raises(PatternError):
            Pattern.from_string("a*").is_subpattern_of(Pattern.from_string("a**"))

    def test_union(self):
        left = Pattern.from_string("a**")
        right = Pattern.from_string("*b*")
        assert str(left.union(right)) == "ab*"

    def test_union_merges_same_position(self):
        left = Pattern.from_string("{b1}**")
        right = Pattern.from_string("{b2}**")
        assert left.union(right).positions[0] == frozenset({"b1", "b2"})

    def test_union_period_mismatch(self):
        with pytest.raises(PatternError):
            Pattern.from_string("a*").union(Pattern.from_string("a**"))

    def test_intersection(self):
        left = Pattern.from_string("ab*")
        right = Pattern.from_string("a*c")
        assert str(left.intersection(right)) == "a**"

    def test_intersection_period_mismatch(self):
        with pytest.raises(PatternError):
            Pattern.from_string("a*").intersection(Pattern.from_string("a**"))

    def test_without_letter(self):
        pattern = Pattern.from_string("a{b1,b2}*d*")
        smaller = pattern.without_letter(1, "b1")
        assert str(smaller) == "a{b2}*d*"

    def test_without_absent_letter_rejected(self):
        with pytest.raises(PatternError):
            Pattern.from_string("a**").without_letter(1, "b")


class TestMatching:
    def segment(self, *slots):
        return tuple(frozenset(slot) for slot in slots)

    def test_true_in_segment(self):
        # Section 2: pattern is true when all letters occur in the slot sets.
        pattern = Pattern.from_string("a{b1,b2}*")
        segment = self.segment({"a"}, {"b1", "b2", "x"}, {"q"})
        assert pattern.matches(segment)

    def test_missing_letter_fails(self):
        pattern = Pattern.from_string("a{b1,b2}*")
        segment = self.segment({"a"}, {"b1"}, {"q"})
        assert not pattern.matches(segment)

    def test_trivial_matches_everything(self):
        assert Pattern.dont_care(2).matches(self.segment(set(), set()))

    def test_length_mismatch_rejected(self):
        with pytest.raises(PatternError):
            Pattern.from_string("ab").matches(self.segment({"a"}))

    def test_restrict_to_segment_is_the_hit(self):
        # Paper Section 3.1.2: hit of segment (a,{b2},d) for C_max
        # a{b1,b2}*d* is ab2*d*.
        cmax = Pattern.from_string("a{b1,b2}*d*")
        segment = self.segment({"a"}, {"b2"}, {"q"}, {"d"}, set())
        assert str(cmax.restrict_to_segment(segment)) == "a{b2}*d*"

    def test_restrict_length_mismatch(self):
        with pytest.raises(PatternError):
            Pattern.from_string("ab").restrict_to_segment(self.segment({"a"}))


class TestEnumeration:
    def test_subpatterns_of_two_letter_pattern(self):
        pattern = Pattern.from_string("ab")
        subs = {str(sub) for sub in pattern.subpatterns()}
        assert subs == {"a*", "*b", "ab"}

    def test_subpatterns_min_letters(self):
        pattern = Pattern.from_string("abc")
        subs = list(pattern.subpatterns(min_letters=3))
        assert subs == [pattern]

    def test_subpattern_count_is_powerset(self):
        pattern = Pattern.from_string("a{b1,b2}c")
        assert sum(1 for _ in pattern.subpatterns(min_letters=0)) == 2**4


class TestDunder:
    def test_equality_and_hash(self):
        one = Pattern.from_string("ab*")
        two = Pattern(["a", "b", None])
        assert one == two
        assert hash(one) == hash(two)
        assert one != Pattern.from_string("a**")

    def test_equality_with_other_types(self):
        assert Pattern.from_string("a*") != "a*"

    def test_ordering_is_total_and_deterministic(self):
        patterns = [
            Pattern.from_string(text) for text in ("ab*", "a**", "*b*", "abc")
        ]
        ordered = sorted(patterns)
        assert sorted(ordered) == ordered
        assert ordered[0] < ordered[-1]
        assert ordered[0] <= ordered[0]

    def test_repr_roundtrip_hint(self):
        assert repr(Pattern.from_string("ab*")) == "Pattern('ab*')"

    def test_module_alias(self):
        assert letters_to_pattern(2, [(0, "a")]) == Pattern.from_string("a*")

    def test_dont_care_constant(self):
        assert DONT_CARE == "*"


class TestRotation:
    def test_rotated_shifts_offsets(self):
        pattern = Pattern.from_string("ab**")
        assert str(pattern.rotated(1)) == "*ab*"
        assert str(pattern.rotated(3)) == "b**a"  # wraps cyclically

    def test_negative_shift(self):
        pattern = Pattern.from_string("*ab*")
        assert str(pattern.rotated(-1)) == "ab**"

    def test_full_rotation_is_identity(self):
        pattern = Pattern.from_string("a{b,c}*d")
        assert pattern.rotated(pattern.period) == pattern
        assert pattern.rotated(0) == pattern

    def test_phase_matches(self):
        left = Pattern.from_string("ab**")
        right = Pattern.from_string("**ab")
        assert left.phase_matches(right)
        assert not left.phase_matches(Pattern.from_string("a*b*"))

    def test_phase_matches_different_periods(self):
        assert not Pattern.from_string("ab").phase_matches(
            Pattern.from_string("ab*")
        )

    def test_phase_matches_is_symmetric(self):
        left = Pattern.from_string("a*c*")
        right = left.rotated(2)
        assert left.phase_matches(right)
        assert right.phase_matches(left)
