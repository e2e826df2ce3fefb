"""Constraint-based partial periodicity mining.

Section 6 lists "query- and constraint-based mining of partial
periodicity" (citing Ng, Lakshmanan, Han & Pang, SIGMOD'98) among the
natural follow-ups.  This module implements the constraint classes that
push down cleanly into the hit-set pipeline:

* **anti-monotone** constraints (violated by a pattern ⇒ violated by every
  superpattern) are pushed into the F1 filter and the derivation:
  allowed offsets, forbidden features, maximum letters / L-length;
* **monotone** constraints (satisfied by a pattern ⇒ satisfied by every
  superpattern) are applied as a post-filter, with their counts already
  exact: required features, minimum letters.

Pushing the anti-monotone constraints down shrinks ``C_max`` itself, so
scan 2 and the hit table only ever touch the constrained search space.  The
scans and the derivation are :mod:`repro.core.hitset`'s pipeline, with
the letter constraints as its F1 filter and ``max_letters`` as its
derivation cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.counting import check_min_conf
from repro.core.errors import MiningError
from repro.core.hitset import _derive, _series_scans, _two_scans
from repro.core.pattern import Letter, Pattern
from repro.core.result import MiningResult
from repro.timeseries.feature_series import FeatureSeries


@dataclass(frozen=True, slots=True)
class MiningConstraints:
    """A conjunctive constraint on the patterns to mine.

    Attributes
    ----------
    offsets:
        If set, patterns may only use these offsets (anti-monotone).
    forbidden_features:
        Features that may not appear in any pattern (anti-monotone).
    max_letters:
        Maximum letter count (anti-monotone).
    max_l_length:
        Maximum number of distinct non-``*`` offsets (anti-monotone).
    required_features:
        Every returned pattern must mention all of these features at some
        offset (monotone; post-filter).
    min_letters:
        Minimum letter count of returned patterns (monotone; post-filter).
    """

    offsets: frozenset[int] | None = None
    forbidden_features: frozenset[str] = field(default_factory=frozenset)
    max_letters: int | None = None
    max_l_length: int | None = None
    required_features: frozenset[str] = field(default_factory=frozenset)
    min_letters: int = 1

    def __post_init__(self) -> None:
        if self.max_letters is not None and self.max_letters < 1:
            raise MiningError(
                f"max_letters must be >= 1, got {self.max_letters}"
            )
        if self.max_l_length is not None and self.max_l_length < 1:
            raise MiningError(
                f"max_l_length must be >= 1, got {self.max_l_length}"
            )
        if self.min_letters < 1:
            raise MiningError(
                f"min_letters must be >= 1, got {self.min_letters}"
            )
        if self.max_letters is not None and self.min_letters > self.max_letters:
            raise MiningError(
                f"min_letters ({self.min_letters}) exceeds max_letters "
                f"({self.max_letters})"
            )

    # -- constraint checks -------------------------------------------------

    def admits_letter(self, letter: Letter) -> bool:
        """Anti-monotone letter-level check (offsets + forbidden features)."""
        offset, feature = letter
        if self.offsets is not None and offset not in self.offsets:
            return False
        return feature not in self.forbidden_features

    def within_size_caps(self, pattern: Pattern) -> bool:
        """Anti-monotone size check."""
        if self.max_letters is not None and pattern.letter_count > self.max_letters:
            return False
        if self.max_l_length is not None and pattern.l_length > self.max_l_length:
            return False
        return True

    def satisfied_by(self, pattern: Pattern) -> bool:
        """Full check: anti-monotone parts plus the monotone post-filters."""
        if not all(self.admits_letter(letter) for letter in pattern.letters):
            return False
        if not self.within_size_caps(pattern):
            return False
        if pattern.letter_count < self.min_letters:
            return False
        present = {feature for _, feature in pattern.letters}
        return self.required_features <= present

    @classmethod
    def about(cls, *features: str, **kwargs: Any) -> "MiningConstraints":
        """Shorthand for "patterns mentioning all of these features"."""
        return cls(required_features=frozenset(features), **kwargs)


def mine_with_constraints(
    series: FeatureSeries,
    period: int,
    min_conf: float,
    constraints: MiningConstraints,
) -> MiningResult:
    """Hit-set mining with constraint push-down (two scans).

    Anti-monotone constraints prune F1 before ``C_max`` is formed, so the
    hit table and the derivation only explore admissible letters; size caps
    bound the derivation depth; monotone constraints filter the final
    output.  Counts are exact frequency counts in all cases.
    """
    check_min_conf(min_conf)
    if constraints.offsets is not None:
        bad = [o for o in constraints.offsets if not 0 <= o < period]
        if bad:
            raise MiningError(
                f"constraint offsets {bad} out of range for period {period}"
            )
    one_patterns, table, stats = _two_scans(
        _series_scans(series, period),
        min_conf,
        admits=constraints.admits_letter,
    )
    # Letter count is anti-monotone, so it caps the level-wise derivation
    # directly.  L-length is checked exactly in the post-filter (letters
    # at a shared offset keep L-length below the letter count, so capping
    # depth at max_l_length would lose patterns).
    derived = _derive(
        "constrained-hitset",
        min_conf,
        one_patterns,
        table,
        stats,
        max_letters=constraints.max_letters,
    )
    return MiningResult(
        algorithm=derived.algorithm,
        period=period,
        min_conf=min_conf,
        num_periods=derived.num_periods,
        counts={
            pattern: count
            for pattern, count in derived.items()
            if constraints.satisfied_by(pattern)
        },
        stats=stats,
    )
