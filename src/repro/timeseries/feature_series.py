"""The feature time series — the input of all mining algorithms.

The paper (Section 2) assumes the raw, timestamped data sets have already
been turned into a *feature series* ``D_1 ... D_N`` where every ``D_i`` is a
set of categorical features describing time instant ``i``.
:class:`FeatureSeries` is that object: an immutable sequence of feature sets
with period-segmentation helpers.

Derivation of a feature series from raw inputs lives in the sibling modules
:mod:`repro.timeseries.events` (timestamped event databases) and
:mod:`repro.timeseries.discretize` (numeric series).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Union, cast, overload

from repro.core.errors import SeriesError

#: Anything acceptable as one slot of a series.
SlotLike = Union[str, None, Iterable[str]]

#: One period segment: a tuple of ``period`` feature sets.
Segment = tuple[frozenset[str], ...]


def _normalize_slot(value: SlotLike) -> frozenset[str]:
    """Coerce one slot into a frozenset of feature strings.

    ``None`` or ``""`` mean "no features observed at this instant".  A plain
    string is a single feature; other iterables are feature collections.
    """
    if value is None:
        return frozenset()
    if isinstance(value, str):
        if not value:
            return frozenset()
        return frozenset((value,))
    features = frozenset(value)
    for feature in features:
        if not isinstance(feature, str) or not feature:
            raise SeriesError(f"features must be non-empty strings, got {feature!r}")
    return features


def _intern_slots(values: Iterable[SlotLike]) -> tuple[frozenset[str], ...]:
    """Normalize every slot, validating each distinct content once.

    Equal slots come back as one shared frozenset, so a repeated slot
    costs one dictionary lookup instead of a per-feature check.
    """
    interned: dict[str | frozenset[str] | None, frozenset[str]] = {}
    slots: list[frozenset[str]] = []
    for value in values:
        if value is None or isinstance(value, str):
            slot = interned.get(value)
            if slot is None:
                slot = _normalize_slot(value)
                slot = interned[value] = interned.setdefault(slot, slot)
        else:
            fresh = frozenset(value)
            slot = interned.setdefault(fresh, fresh)
            if slot is fresh:  # first of its content: validate it
                _normalize_slot(fresh)
        slots.append(slot)
    return tuple(slots)


class FeatureSeries:
    """An immutable sequence of feature sets with period segmentation.

    Parameters
    ----------
    slots:
        One entry per time instant.  Each entry is ``None``/``""`` for an
        empty instant, a feature string, or an iterable of feature strings.

    Examples
    --------
    >>> series = FeatureSeries.from_symbols("abdabcabd")
    >>> len(series), series.num_periods(3)
    (9, 3)
    >>> series.segment(3, 1)
    (frozenset({'a'}), frozenset({'b'}), frozenset({'c'}))
    """

    __slots__ = ("_slots", "_digest")

    def __init__(self, slots: Iterable[SlotLike]):
        self._slots: tuple[frozenset[str], ...] = _intern_slots(slots)
        self._digest: str | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_symbols(cls, text: str) -> "FeatureSeries":
        """One single-character feature per instant; ``*`` means empty slot.

        Convenient for paper examples such as ``"abdabcabd"``.
        """
        return cls(None if char == "*" else char for char in text)

    @classmethod
    def from_sets(cls, slots: Iterable[Iterable[str]]) -> "FeatureSeries":
        """Explicit constructor from an iterable of feature collections."""
        return cls(slots)

    @classmethod
    def _from_normalized(
        cls, slots: tuple[frozenset[str], ...]
    ) -> "FeatureSeries":
        """Wrap already-normalized slots without re-validating them.

        Internal fast path for slots known to be exactly the validated
        tuple-of-frozensets representation: unpickling, slicing,
        concatenation and :func:`repro.timeseries.io.load_series`.
        """
        series = cls.__new__(cls)
        series._slots = slots
        series._digest = None
        return series

    def __reduce__(
        self,
    ) -> tuple[
        Callable[[tuple[frozenset[str], ...]], FeatureSeries],
        tuple[tuple[frozenset[str], ...]],
    ]:
        # Cheap pickling: restore through the normalized fast path instead
        # of re-coercing every slot in __init__ (which is O(total features)).
        return (FeatureSeries._from_normalized, (self._slots,))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def slots(self) -> tuple[frozenset[str], ...]:
        """The underlying tuple of feature sets."""
        return self._slots

    @property
    def alphabet(self) -> frozenset[str]:
        """The set of all features occurring anywhere in the series."""
        return frozenset(feature for slot in self._slots for feature in slot)

    def content_digest(self) -> str:
        """A stable short digest of the series content, computed once.

        Hashes the canonical line-oriented text form (sorted features per
        slot, one slot per line), so equal series always digest equally
        regardless of how their slots were constructed.  The series is
        immutable, so the digest is memoized on first use — repeated
        identity checks (count-cache keys, serve registry fingerprints,
        store spill names) cost one pass total, not one pass each.  The
        canonical text of each distinct slot is built once and reused.
        """
        if self._digest is None:
            import hashlib

            digest = hashlib.sha256()
            slots = self._slots
            canonical: dict[frozenset[str], str] = {}
            # Chunked updates: one join + encode per block beats two
            # digest.update calls per slot by a wide margin.
            for start in range(0, len(slots), 8192):
                lines = []
                for slot in slots[start : start + 8192]:
                    line = canonical.get(slot)
                    if line is None:
                        line = canonical[slot] = " ".join(sorted(slot))
                    lines.append(line)
                digest.update("\n".join(lines).encode("utf-8"))
                digest.update(b"\n")
            self._digest = digest.hexdigest()[:16]
        return self._digest

    def __len__(self) -> int:
        return len(self._slots)

    @overload
    def __getitem__(self, index: int) -> frozenset[str]: ...

    @overload
    def __getitem__(self, index: slice) -> FeatureSeries: ...

    def __getitem__(self, index: int | slice) -> frozenset[str] | FeatureSeries:
        if isinstance(index, slice):
            return FeatureSeries._from_normalized(self._slots[index])
        return self._slots[index]

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self._slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureSeries):
            return NotImplemented
        return self._slots == other._slots

    def __hash__(self) -> int:
        return hash(self._slots)

    def __add__(self, other: "FeatureSeries") -> "FeatureSeries":
        if not isinstance(other, FeatureSeries):
            return NotImplemented
        return FeatureSeries._from_normalized(self._slots + other._slots)

    def __repr__(self) -> str:
        preview = self.to_text(limit=24)
        return f"FeatureSeries(len={len(self)}, {preview})"

    def to_text(self, limit: int | None = None) -> str:
        """Human-readable rendering, e.g. ``a b{c,d}*a`` (``*`` = empty slot)."""
        rendered: list[str] = []
        slots = self._slots if limit is None else self._slots[:limit]
        for slot in slots:
            if not slot:
                rendered.append("*")
            elif len(slot) == 1:
                (feature,) = slot
                rendered.append(feature if len(feature) == 1 else "{" + feature + "}")
            else:
                rendered.append("{" + ",".join(sorted(slot)) + "}")
        suffix = "..." if limit is not None and len(self._slots) > limit else ""
        return "".join(rendered) + suffix

    # ------------------------------------------------------------------
    # Period segmentation
    # ------------------------------------------------------------------

    def num_periods(self, period: int) -> int:
        """Number of whole period segments, the paper's ``m = floor(N/p)``."""
        self._check_period(period)
        return len(self._slots) // period

    def segment(self, period: int, index: int) -> Segment:
        """The ``index``-th whole period segment (0-based)."""
        count = self.num_periods(period)
        if not 0 <= index < count:
            raise SeriesError(
                f"segment index {index} out of range (0..{count - 1}) "
                f"for period {period}"
            )
        start = index * period
        return self._slots[start : start + period]

    def segments(self, period: int) -> Iterator[Segment]:
        """Iterate over all whole period segments, in order.

        One full consumption of this iterator corresponds to one *scan* of
        the time-series database in the paper's cost accounting; see
        :class:`repro.timeseries.scan.ScanCountingSeries` for the version
        that actually counts scans.
        """
        count = self.num_periods(period)
        for index in range(count):
            start = index * period
            yield self._slots[start : start + period]

    def iter_slots(self) -> Iterator[frozenset[str]]:
        """Iterate raw slots in order — one full consumption is one scan.

        The shared multi-period miner (Algorithm 3.4) uses slot-level
        iteration so that a *single* pass serves every period at once.
        """
        return iter(self._slots)

    def _check_period(self, period: int) -> None:
        if period < 1:
            raise SeriesError(f"period must be >= 1, got {period}")
        if period > len(self._slots):
            raise SeriesError(
                f"period {period} exceeds series length {len(self._slots)}"
            )


#: Duck-type union accepted by the miners: anything with ``num_periods``,
#: ``segments`` and ``__len__`` works (``FeatureSeries`` or a scan-counting
#: wrapper).
SeriesLike = FeatureSeries


def as_feature_series(data: object) -> FeatureSeries:
    """Coerce common inputs into a series the miners can scan.

    Accepts an existing series or any scan-protocol object such as
    :class:`~repro.timeseries.scan.ScanCountingSeries` (returned unchanged),
    a string of symbols, or any iterable of slots.
    """
    if isinstance(data, FeatureSeries):
        return data
    if all(
        hasattr(data, name) for name in ("segments", "num_periods", "iter_slots")
    ):
        # Duck-typed scan wrapper; keep its accounting intact.  The cast
        # records that scan-protocol objects substitute for a series.
        return cast(FeatureSeries, data)
    if isinstance(data, str):
        return FeatureSeries.from_symbols(data)
    if isinstance(data, Sequence) or isinstance(data, Iterable):
        return FeatureSeries(data)
    raise SeriesError(f"cannot interpret {type(data).__name__} as a feature series")


def series_fingerprint(series: Iterable[Iterable[str]]) -> str:
    """A stable content digest of a series (order- and set-insensitive).

    The identity the count cache and the serve registry key on: for a
    :class:`FeatureSeries` it is the memoized :meth:`FeatureSeries.content_digest`;
    any other iterable of slots is hashed the same way, so equal series
    always fingerprint equally regardless of how their slots were built.
    """
    if isinstance(series, FeatureSeries):
        return series.content_digest()
    import hashlib

    digest = hashlib.sha256()
    for slot in series:
        digest.update(" ".join(sorted(slot)).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]
