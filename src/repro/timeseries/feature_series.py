"""The feature time series — the input of all mining algorithms.

The paper (Section 2) assumes the raw, timestamped data sets have already
been turned into a *feature series* ``D_1 ... D_N`` where every ``D_i`` is a
set of categorical features describing time instant ``i``.
:class:`FeatureSeries` is that object: an immutable sequence of feature sets
with period-segmentation helpers.  The miners read it through its interned
slot column (:meth:`FeatureSeries.slot_column`); the frozenset view and
the column are each built once, from the other, when first needed.

Derivation of a feature series from raw inputs lives in the sibling modules
:mod:`repro.timeseries.events` (timestamped event databases) and
:mod:`repro.timeseries.discretize` (numeric series).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Union, cast, overload

from repro.core.errors import ReproError, SeriesError
from repro.core.pattern import feature_problem
from repro.kernels.slots import SlotColumn, intern_slots

#: Anything acceptable as one slot of a series.
SlotLike = Union[str, None, Iterable[str]]

#: One period segment: a tuple of ``period`` feature sets.
Segment = tuple[frozenset[str], ...]


def _normalize_slot(
    value: SlotLike, error: type[ReproError] = SeriesError
) -> frozenset[str]:
    """Coerce one slot into a frozenset of feature strings.

    ``None`` or ``""`` mean "no features observed at this instant".  A plain
    string is a single feature; other iterables are feature collections.
    Every feature must pass :func:`~repro.core.pattern.feature_problem`
    (no ``*``, ``{``, ``}`` or ``,``), or ``error`` (the caller's error
    class) names it.
    """
    if value is None or (isinstance(value, str) and not value):
        return frozenset()
    features = frozenset((value,) if isinstance(value, str) else value)
    for feature in features:
        # A letter-and-digit name (the common case) needs no closer look.
        if not (isinstance(feature, str) and feature.isalnum()):
            problem = feature_problem(feature)
            if problem is not None:
                raise error(problem)
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

    __slots__ = ("_slots", "_digest", "_column")

    def __init__(self, slots: Iterable[SlotLike]):
        self._slots: tuple[frozenset[str], ...] | None = _intern_slots(slots)
        self._digest: str | None = None
        self._column: SlotColumn | None = None

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
        tuple-of-frozensets representation: unpickling, slicing and
        concatenation.
        """
        series = cls.__new__(cls)
        series._slots = slots
        series._digest = None
        series._column = None
        return series

    @classmethod
    def _from_column(cls, column: "SlotColumn") -> "FeatureSeries":
        """Wrap a slot column of validated slots; :attr:`slots` is built lazily.

        :func:`repro.timeseries.io.load_series` parses straight into this
        form, so mining a loaded file never builds one frozenset per slot.
        """
        series = cls.__new__(cls)
        series._slots = None
        series._digest = None
        series._column = column
        return series

    def __reduce__(
        self,
    ) -> tuple[
        Callable[[tuple[frozenset[str], ...]], FeatureSeries],
        tuple[tuple[frozenset[str], ...]],
    ]:
        # Cheap pickling: restore through the normalized fast path instead
        # of re-coercing every slot in __init__ (which is O(total features)).
        return (FeatureSeries._from_normalized, (self.slots,))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def slots(self) -> tuple[frozenset[str], ...]:
        """The underlying tuple of feature sets (built once from the column)."""
        if self._slots is None:
            assert self._column is not None
            self._slots = self._column.table.slots_of(self._column.ids)
        return self._slots

    @property
    def alphabet(self) -> frozenset[str]:
        """The set of all features occurring anywhere in the series."""
        return frozenset(feature for slot in self.slots for feature in slot)

    def content_digest(self) -> str:
        """A stable short digest of the series content, computed once.

        Hashes the canonical line-oriented text form (sorted features per
        slot, one slot per line), so equal series always digest equally
        regardless of how their slots were constructed.  The series is
        immutable, so the digest is memoized on first use — repeated
        identity checks (count-cache keys, serve registry fingerprints)
        cost one pass total, not one pass each.  The
        digest is read off the interned slot column, so the canonical text
        of each distinct slot is built once and reused.
        """
        if self._digest is None:
            import hashlib

            digest = hashlib.sha256()
            column = self.slot_column()
            texts = [" ".join(sorted(slot)) for slot in column.table.slots]
            ids = column.ids
            # Chunked updates: one join + encode per block beats two
            # digest.update calls per slot by a wide margin.
            for start in range(0, len(ids), 8192):
                block = map(texts.__getitem__, ids[start : start + 8192].tolist())
                digest.update("\n".join(block).encode("utf-8"))
                digest.update(b"\n")
            self._digest = digest.hexdigest()[:16]
        return self._digest

    def slot_column(self) -> "SlotColumn":
        """The interned slot column every in-memory scan reads.

        One :class:`~repro.kernels.slots.SlotTable` of the distinct slots
        plus one ``int32`` slot id per slot.  A loaded series arrives with
        it; any other builds it on first use.  The series is immutable,
        so the column is memoized (pickling drops it).
        """
        if self._column is None:
            self._column = intern_slots(self.slots)
        return self._column

    def __len__(self) -> int:
        if self._slots is None:
            assert self._column is not None
            return len(self._column.ids)
        return len(self._slots)

    @overload
    def __getitem__(self, index: int) -> frozenset[str]: ...

    @overload
    def __getitem__(self, index: slice) -> FeatureSeries: ...

    def __getitem__(self, index: int | slice) -> frozenset[str] | FeatureSeries:
        if isinstance(index, slice):
            return FeatureSeries._from_normalized(self.slots[index])
        return self.slots[index]

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureSeries):
            return NotImplemented
        return self.slots == other.slots

    def __hash__(self) -> int:
        return hash(self.slots)

    def __add__(self, other: "FeatureSeries") -> "FeatureSeries":
        if not isinstance(other, FeatureSeries):
            return NotImplemented
        return FeatureSeries._from_normalized(self.slots + other.slots)

    def __repr__(self) -> str:
        preview = self.to_text(limit=24)
        return f"FeatureSeries(len={len(self)}, {preview})"

    def to_text(self, limit: int | None = None) -> str:
        """Human-readable rendering, e.g. ``a b{c,d}*a`` (``*`` = empty slot)."""
        rendered: list[str] = []
        slots = self.slots if limit is None else self.slots[:limit]
        for slot in slots:
            if not slot:
                rendered.append("*")
            elif len(slot) == 1:
                (feature,) = slot
                rendered.append(feature if len(feature) == 1 else "{" + feature + "}")
            else:
                rendered.append("{" + ",".join(sorted(slot)) + "}")
        suffix = "..." if limit is not None and len(self) > limit else ""
        return "".join(rendered) + suffix

    # ------------------------------------------------------------------
    # Period segmentation
    # ------------------------------------------------------------------

    def num_periods(self, period: int) -> int:
        """Number of whole period segments, the paper's ``m = floor(N/p)``."""
        self._check_period(period)
        return len(self) // period

    def segment(self, period: int, index: int) -> Segment:
        """The ``index``-th whole period segment (0-based)."""
        count = self.num_periods(period)
        if not 0 <= index < count:
            raise SeriesError(
                f"segment index {index} out of range (0..{count - 1}) "
                f"for period {period}"
            )
        start = index * period
        return self.slots[start : start + period]

    def segments(self, period: int) -> Iterator[Segment]:
        """Iterate over all whole period segments, in order.

        One full consumption of this iterator corresponds to one *scan* of
        the time-series database in the paper's cost accounting; see
        :class:`repro.timeseries.scan.ScanCountingSeries` for the version
        that actually counts scans.
        """
        count = self.num_periods(period)
        slots = self.slots
        for index in range(count):
            start = index * period
            yield slots[start : start + period]

    def iter_slots(self) -> Iterator[frozenset[str]]:
        """Iterate raw slots in order — one full consumption is one scan."""
        return iter(self.slots)

    def _check_period(self, period: int) -> None:
        if period < 1:
            raise SeriesError(f"period must be >= 1, got {period}")
        if period > len(self):
            raise SeriesError(
                f"period {period} exceeds series length {len(self)}"
            )


#: Duck-type union accepted by the miners: anything with ``num_periods``,
#: ``segments``, ``slot_column`` and ``__len__`` works (``FeatureSeries``
#: or a scan-counting wrapper).
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
        hasattr(data, name)
        for name in ("segments", "num_periods", "iter_slots", "slot_column")
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
