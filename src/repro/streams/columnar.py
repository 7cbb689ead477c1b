"""Struct-of-arrays tuple batches: the columnar currency of the batch path.

The vectorized kernels (PR 1) made the *math* array-shaped, but the
operator pipeline still moved one Python :class:`UncertainTuple` object
per stream element — and the sharded path pickled every one of them over
IPC, which is exactly the per-event-object overhead Diao et al. warn
against at high volume.  A :class:`ColumnarBatch` stores one batch of
tuples as NumPy columns instead:

* ``float`` / ``int`` attributes become ``float64`` / ``int64`` columns;
* ``DfSized(GaussianDistribution, n)`` attributes — the accuracy-carrying
  workhorse of the paper's pipelines — become three parallel columns
  ``(mu, sigma2, n)`` with ``-1`` marking an exact (``None``) sample
  size;
* equal-length 1-D ``float64`` arrays (raw per-item data points) become
  one ``(batch, k)`` matrix;
* bin-free accuracy records emitted by the batched accuracy stages
  travel as an :class:`AccuracyColumn` of interval-bound arrays, built
  into records only when a row is read;
* anything else falls back to a narrow *object column* (a plain list)
  for truly opaque payloads.

Membership probabilities and timestamps get their own columns.  The
batch implements the ``Sequence[UncertainTuple]`` protocol, so any
operator that only knows about tuples keeps working — ``batch[i]``
materializes one tuple on demand — while batch-aware operators read and
write columns directly and never materialize at all.

Boundary adapters are exact: ``from_tuples(to_tuples(batch)) == batch``,
and materialized tuples are *byte-identical* (per-element
``pickle.dumps``) to the tuples the per-tuple path would have produced,
which is what lets the sharded determinism contract survive the
columnar refactor.  Exactness is why inference is deliberately strict:
a value only lands in a typed column when its round trip is the
identity (``type(x) is float``, not ``isinstance`` — a ``np.float64``
would come back as a different pickle).

Transport (:meth:`ColumnarBatch.to_payload` /
:meth:`ColumnarBatch.from_payload`) flattens a batch into its numeric
blocks so the sharded executor can ship them through the
:mod:`repro.parallel.shm` shared-memory transport as
:class:`~repro.parallel.shm.SharedSpec` handles instead of pickled
tuple lists.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.accuracy import AccuracyInfo
from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.errors import StreamError
from repro.streams.tuples import UncertainTuple

__all__ = [
    "ColumnarBatch",
    "ColumnarPayload",
    "FloatColumn",
    "IntColumn",
    "GaussianDfColumn",
    "ArrayColumn",
    "ObjectColumn",
    "AccuracyColumn",
    "EXACT_SIZE",
    "as_columnar",
]

#: Numeric blocks smaller than this are pickled directly; shared-memory
#: segments only pay off once the copy they avoid is non-trivial.
SHM_MIN_BYTES = 4096

#: Sentinel in a :class:`GaussianDfColumn` size column for a ``None``
#: (exact / effectively infinite) sample size.
EXACT_SIZE = -1


def _as_f8(values: Sequence[float]) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class _ArrayColumn:
    """The column protocol for columns backed by equal-length arrays.

    A subclass names its arrays in ``_FIELDS`` (row ``i`` is entry ``i``
    of each) and may carry picklable metadata (:meth:`_meta`); slicing,
    transport and merging are then the same array operation applied to
    every field.  Two columns merge only when their metadata and row
    shapes agree.
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def _meta(self) -> object:
        return None

    @classmethod
    def _build(cls, meta: object, arrays: list[np.ndarray]):
        return cls(*arrays)

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self._FIELDS]

    def _like(self, arrays: list[np.ndarray]):
        return self._build(self._meta(), arrays)

    def __len__(self) -> int:
        return len(getattr(self, self._FIELDS[0]))

    def take(self, indices: np.ndarray):
        return self._like([x[indices] for x in self.arrays()])

    def slice(self, a: int, b: int):
        return self._like([x[a:b] for x in self.arrays()])

    def export(self) -> tuple[object, list[np.ndarray], object]:
        return self._meta(), self.arrays(), None

    @classmethod
    def restore(cls, meta: object, arrays: list[np.ndarray], objects: object):
        return cls._build(meta, arrays)

    def _check_mergeable(self, other: "_ArrayColumn") -> None:
        if self._meta() != other._meta() or any(
            x.shape[1:] != y.shape[1:]
            for x, y in zip(self.arrays(), other.arrays())
        ):
            raise StreamError(
                f"cannot merge {self.kind} columns of different metadata "
                f"or row shapes: {self._meta()} vs {other._meta()}"
            )

    @classmethod
    def concat(cls, parts: list):
        first = parts[0]
        for part in parts[1:]:
            first._check_mergeable(part)
        return first._like(
            [
                np.concatenate(blocks)
                for blocks in zip(*(p.arrays() for p in parts))
            ]
        )

    @classmethod
    def allocate(cls, total: int, template: "_ArrayColumn"):
        return template._like(
            [
                np.empty((total,) + x.shape[1:], dtype=x.dtype)
                for x in template.arrays()
            ]
        )

    def scatter(self, target: "_ArrayColumn", indices: np.ndarray) -> None:
        target._check_mergeable(self)
        for source, dest in zip(self.arrays(), target.arrays()):
            dest[indices] = source

    def equal(self, other: "_ArrayColumn") -> bool:
        # Bitwise, so NaN == NaN and the round-trip property is exact.
        return self._meta() == other._meta() and all(
            x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in zip(self.arrays(), other.arrays())
        )


class FloatColumn(_ArrayColumn):
    """A column of Python ``float`` values, stored as one f8 array."""

    kind = "f8"
    _FIELDS = ("data",)
    __slots__ = _FIELDS

    def __init__(self, data: np.ndarray) -> None:
        self.data = data

    def get(self, i: int) -> float:
        return float(self.data[i])

    def values(self) -> list:
        """Materialized Python values, one per row."""
        return self.data.tolist()


class IntColumn(_ArrayColumn):
    """A column of Python ``int`` values (int64 range), as one i8 array."""

    kind = "i8"
    _FIELDS = ("data",)
    __slots__ = _FIELDS

    def __init__(self, data: np.ndarray) -> None:
        self.data = data

    def get(self, i: int) -> int:
        return int(self.data[i])

    def values(self) -> list:
        return self.data.tolist()


class GaussianDfColumn(_ArrayColumn):
    """``DfSized(GaussianDistribution(mu, sigma2), n)`` as three columns.

    This is the accuracy-carrying value of the paper's pipelines —
    learned Gaussians plus their Lemma-3 sample size — so it gets a
    first-class decomposition instead of the object-column fallback.
    ``sizes`` uses ``-1`` for an exact (``None``) sample size.
    """

    kind = "gaussian-df"
    _FIELDS = ("mu", "sigma2", "sizes")
    __slots__ = _FIELDS

    def __init__(
        self, mu: np.ndarray, sigma2: np.ndarray, sizes: np.ndarray
    ) -> None:
        self.mu = mu
        self.sigma2 = sigma2
        self.sizes = sizes

    def get(self, i: int) -> DfSized:
        size = int(self.sizes[i])
        return DfSized(
            GaussianDistribution(float(self.mu[i]), float(self.sigma2[i])),
            None if size == EXACT_SIZE else size,
        )

    def values(self) -> list:
        return [self.get(i) for i in range(len(self.mu))]

    def moments(self) -> tuple[list, list, list]:
        """Python ``(mu, sigma2, size)`` lists; exact sizes are ``None``."""
        sizes = self.sizes.tolist()
        if EXACT_SIZE in sizes:
            sizes = [None if n == EXACT_SIZE else n for n in sizes]
        return self.mu.tolist(), self.sigma2.tolist(), sizes


class ArrayColumn(_ArrayColumn):
    """Equal-length 1-D float64 payloads as one ``(batch, k)`` matrix.

    The Fig 5 workload's 20 raw data points per item travel here: one
    contiguous block instead of ``batch`` small array objects.
    """

    kind = "f8-matrix"
    _FIELDS = ("matrix",)
    __slots__ = _FIELDS

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix

    def get(self, i: int) -> np.ndarray:
        return self.matrix[i]

    def values(self) -> list:
        return list(self.matrix)


class ObjectColumn:
    """Fallback column for truly opaque payloads (a plain list).

    Whatever does not decompose into numeric columns — strings, mixed
    types, non-Gaussian distributions, accuracy records with histogram
    bins — rides here and is pickled as-is at the IPC
    boundary.  Keeping this column *narrow* (few attributes, small
    values) is what keeps the transport fast.
    """

    kind = "object"
    __slots__ = ("data",)

    def __init__(self, data: list) -> None:
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def get(self, i: int) -> object:
        return self.data[i]

    def values(self) -> list:
        return self.data

    def take(self, indices: np.ndarray) -> "ObjectColumn":
        data = self.data
        return ObjectColumn([data[i] for i in indices])

    def slice(self, a: int, b: int) -> "ObjectColumn":
        return ObjectColumn(self.data[a:b])

    def export(self) -> tuple[object, list[np.ndarray], object]:
        return None, [], self.data

    @staticmethod
    def restore(meta: object, arrays: list[np.ndarray], objects: object):
        return ObjectColumn(objects)

    @staticmethod
    def concat(parts: "list[ObjectColumn]") -> "ObjectColumn":
        data: list = []
        for p in parts:
            data.extend(p.data)
        return ObjectColumn(data)

    @staticmethod
    def allocate(total: int, template: "ObjectColumn") -> "ObjectColumn":
        return ObjectColumn([None] * total)

    def scatter(self, target: "ObjectColumn", indices: np.ndarray) -> None:
        data = target.data
        for value, i in zip(self.data, indices):
            data[i] = value

    def equal(self, other: "ObjectColumn") -> bool:
        if len(self.data) != len(other.data):
            return False
        return all(
            a is b or _values_equal(a, b)
            for a, b in zip(self.data, other.data)
        )


class AccuracyColumn(_ArrayColumn):
    """Bin-free :class:`~repro.core.accuracy.AccuracyInfo` records as arrays.

    The batched accuracy stages emit one record per row; building each
    as three frozen dataclasses cost more than all the interval math.
    This column keeps the mean/variance bounds and sample sizes as f8/i8
    arrays and the bootstrap counters (``values_used``,
    ``values_dropped``, ``draws_used``, ``rounds``) as i8 arrays;
    ``confidence`` and ``method`` are column metadata.  ``get(i)`` builds
    the record only when a row is read, through
    :meth:`AccuracyInfo.from_bounds` — the row builder the per-row
    kernels use — so it pickles byte-identically to theirs.

    Records with histogram bins or a sketch synopsis error stay in an
    :class:`ObjectColumn`.  Build through :meth:`from_bounds`, which
    validates every row up front, so reading a row never raises.
    """

    kind = "accuracy"
    _FIELDS = (
        "mean_lo", "mean_hi", "var_lo", "var_hi", "sample_size",
        "values_used", "values_dropped", "draws_used", "rounds",
    )
    __slots__ = _FIELDS + ("confidence", "method")

    def __init__(
        self, arrays: Sequence[np.ndarray], confidence: float, method: str
    ) -> None:
        for name, array in zip(self._FIELDS, arrays):
            setattr(self, name, array)
        self.confidence = confidence
        self.method = method

    def _meta(self) -> tuple[float, str]:
        return self.confidence, self.method

    @classmethod
    def _build(cls, meta, arrays: list[np.ndarray]) -> "AccuracyColumn":
        return cls(arrays, *meta)

    @classmethod
    def from_bounds(
        cls,
        mean_lo: np.ndarray,
        mean_hi: np.ndarray,
        var_lo: np.ndarray,
        var_hi: np.ndarray,
        sample_size: "np.ndarray | int",
        confidence: float,
        method: str = "analytic",
        values_used: "np.ndarray | int" = 0,
        values_dropped: "np.ndarray | int" = 0,
        draws_used: "np.ndarray | int" = 0,
        rounds: "np.ndarray | int" = 0,
    ) -> "AccuracyColumn":
        """A validated column; each integer field is an array or one
        value shared by every row.

        One vectorized pass finds any row the per-row builder would
        reject (NaN bound, inverted interval, negative count); that row
        is then built eagerly, so the error is the per-row path's own
        and is raised now, not when the row is first read.
        """
        shape = (len(mean_lo),)
        ints = [
            np.broadcast_to(np.asarray(value, dtype=np.int64), shape).copy()
            for value in (
                sample_size, values_used, values_dropped, draws_used, rounds
            )
        ]
        column = cls(
            [mean_lo, mean_hi, var_lo, var_hi] + ints, confidence, method
        )
        bad = (
            np.isnan(mean_lo)
            | np.isnan(mean_hi)
            | (mean_hi < mean_lo)
            | np.isnan(var_lo)
            | np.isnan(var_hi)
            | (var_hi < var_lo)
        )
        for array in ints:
            bad |= array < 0
        valid_meta = 0.0 < confidence < 1.0 and method in (
            "analytic", "bootstrap"
        )
        for i in np.flatnonzero(bad) if valid_meta else range(shape[0]):
            column.get(int(i))  # raises the per-row error
        return column

    def get(self, i: int) -> AccuracyInfo:
        return AccuracyInfo.from_bounds(
            float(self.mean_lo[i]),
            float(self.mean_hi[i]),
            float(self.var_lo[i]),
            float(self.var_hi[i]),
            self.confidence,
            int(self.sample_size[i]),
            self.method,
            int(self.values_used[i]),
            int(self.values_dropped[i]),
            int(self.draws_used[i]),
            int(self.rounds[i]),
        )

    def values(self) -> list:
        build = AccuracyInfo.from_bounds
        confidence, method = self.confidence, self.method
        return [
            build(a, b, c, d, confidence, n, method, used, dropped, draws, r)
            for a, b, c, d, n, used, dropped, draws, r in zip(
                *(array.tolist() for array in self.arrays())
            )
        ]


_COLUMN_TYPES = {
    cls.kind: cls
    for cls in (FloatColumn, IntColumn, GaussianDfColumn, ArrayColumn,
                ObjectColumn, AccuracyColumn)
}

Column = (
    FloatColumn | IntColumn | GaussianDfColumn | ArrayColumn | ObjectColumn
    | AccuracyColumn
)


def _values_equal(a: object, b: object) -> bool:
    """Equality that treats NaN as equal to itself (for object columns)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return (
            a.shape == b.shape
            and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
        )
    try:
        return bool(a == b)
    except Exception:  # noqa: BLE001 - arbitrary payload comparison
        return False


def _infer_column(values: list) -> Column:
    """Pick the narrowest exact representation for one attribute.

    Strictness is deliberate: a value joins a typed column only when its
    round trip is the *identity* under ``pickle`` — ``type(x) is float``
    rather than ``isinstance`` — so materialized tuples stay
    byte-identical to what the per-tuple path would carry.
    """
    if all(type(v) is float for v in values):
        return FloatColumn(_as_f8(values))
    if all(type(v) is int for v in values):
        try:
            return IntColumn(np.array(values, dtype=np.int64))
        except OverflowError:
            return ObjectColumn(values)
    if all(
        type(v) is DfSized
        and type(v.distribution) is GaussianDistribution
        and (v.sample_size is None or type(v.sample_size) is int)
        for v in values
    ):
        try:
            sizes = np.array(
                [
                    EXACT_SIZE if v.sample_size is None else v.sample_size
                    for v in values
                ],
                dtype=np.int64,
            )
        except OverflowError:
            return ObjectColumn(values)
        return GaussianDfColumn(
            _as_f8([v.distribution.mu for v in values]),
            _as_f8([v.distribution.sigma2 for v in values]),
            sizes,
        )
    if all(
        type(v) is np.ndarray and v.ndim == 1 and v.dtype == np.float64
        for v in values
    ):
        widths = {len(v) for v in values}
        if len(widths) == 1:
            return ArrayColumn(np.array(values, dtype=np.float64))
    return ObjectColumn(values)


def _scalar_column(values: list) -> "np.ndarray | list":
    """Probability/timestamp storage: f8 array when exactly representable."""
    if all(type(v) is float for v in values):
        return _as_f8(values)
    return values


def _stored(values: "np.ndarray | list | Column") -> "Column":
    """Probabilities or timestamps as a column (arrays as f8 columns)."""
    if isinstance(values, (FloatColumn, ObjectColumn)):
        return values
    if isinstance(values, np.ndarray):
        return FloatColumn(values)
    return ObjectColumn(values)


class ColumnarPayload:
    """Flattened, picklable form of a batch for the IPC boundary.

    ``kinds``/``metas``/``counts`` describe the named columns, then the
    probabilities, then the timestamps (when present); ``blocks`` holds
    their numeric arrays in that order, each an ndarray (pickled — one
    buffer copy) or a :class:`~repro.parallel.shm.SharedSpec` handle
    into shared memory, and ``objects`` the object-column lists by
    position.  Build with :meth:`ColumnarBatch.to_payload`, rebuild with
    :meth:`ColumnarBatch.from_payload`.
    """

    __slots__ = (
        "length", "names", "kinds", "metas", "counts", "blocks", "objects",
    )

    def __init__(
        self,
        length: int,
        names: tuple[str, ...],
        kinds: tuple[str, ...],
        metas: tuple[object, ...],
        counts: tuple[int, ...],
        blocks: list,
        objects: dict[int, object],
    ) -> None:
        self.length = length
        self.names = names
        self.kinds = kinds
        self.metas = metas
        self.counts = counts
        self.blocks = blocks
        self.objects = objects


class ColumnarBatch(Sequence):
    """One batch of uncertain tuples in struct-of-arrays layout.

    Construct with :meth:`from_tuples` (strict exact inference) or
    directly from columns (batch-aware operators building outputs).
    Behaves as an immutable ``Sequence[UncertainTuple]``; treat the
    underlying arrays as frozen — slices and ``take`` share buffers.
    """

    __slots__ = ("_length", "_names", "_columns", "_prob", "_ts")

    def __init__(
        self,
        length: int,
        names: tuple[str, ...],
        columns: dict[str, Column],
        probabilities: "np.ndarray | list | None" = None,
        timestamps: "np.ndarray | list | None" = None,
    ) -> None:
        self._length = length
        self._names = tuple(names)
        self._columns = columns
        if probabilities is None:
            probabilities = np.ones(length, dtype=np.float64)
        # Probabilities and timestamps are stored as columns too (f8, or
        # objects when not all Python floats), so every reshaping and
        # transport step treats them like the named columns.
        self._prob = _stored(probabilities)
        self._ts = None if timestamps is None else _stored(timestamps)
        for name in self._names:
            if len(columns[name]) != length:
                raise StreamError(
                    f"column {name!r} has {len(columns[name])} rows, "
                    f"batch has {length}"
                )

    # -- boundary adapters ---------------------------------------------------

    @classmethod
    def from_tuples(
        cls, tuples: "Sequence[UncertainTuple]"
    ) -> "ColumnarBatch":
        """Columnarize a uniform tuple batch (exact round trip).

        Every tuple must carry the same attribute names in the same
        order — the layout of a stream, not of an arbitrary bag of
        tuples.  Raises :class:`StreamError` otherwise; use
        :func:`as_columnar` for a fallible conversion.
        """
        if isinstance(tuples, ColumnarBatch):
            return tuples
        tuples = list(tuples)
        if not tuples:
            return cls.empty()
        names = tuple(tuples[0].attributes.keys())
        for tup in tuples:
            if tuple(tup.attributes.keys()) != names:
                raise StreamError(
                    "columnar batches need a uniform attribute layout; got "
                    f"{tuple(tup.attributes.keys())} after {names}"
                )
        columns = {
            name: _infer_column([tup.attributes[name] for tup in tuples])
            for name in names
        }
        probabilities = _scalar_column([tup.probability for tup in tuples])
        ts_values = [tup.timestamp for tup in tuples]
        timestamps: np.ndarray | list | None
        if all(v is None for v in ts_values):
            timestamps = None
        else:
            timestamps = _scalar_column(ts_values)
        return cls(len(tuples), names, columns, probabilities, timestamps)

    @classmethod
    def empty(cls) -> "ColumnarBatch":
        return cls(0, (), {}, np.empty(0, dtype=np.float64), None)

    def to_tuples(self) -> list[UncertainTuple]:
        """Materialize every row as an :class:`UncertainTuple`."""
        return list(self)

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def probability(self, i: int) -> float:
        value = self._prob.get(i)
        return float(value) if type(value) is np.float64 else value

    def timestamp(self, i: int) -> "float | None":
        if self._ts is None:
            return None
        value = self._ts.get(i)
        return float(value) if type(value) is np.float64 else value

    def __getitem__(self, index):
        if isinstance(index, slice):
            a, b, step = index.indices(self._length)
            if step != 1:
                raise StreamError("columnar batches support step-1 slices")
            return self.slice(a, b)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        attributes = {
            name: self._columns[name].get(index) for name in self._names
        }
        return UncertainTuple(
            attributes, self.probability(index), self.timestamp(index)
        )

    def __iter__(self) -> Iterator[UncertainTuple]:
        getters = [
            (name, self._columns[name].get) for name in self._names
        ]
        for i in range(self._length):
            yield UncertainTuple(
                {name: get(i) for name, get in getters},
                self.probability(i),
                self.timestamp(i),
            )

    # -- column access for batch-aware operators -----------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def probabilities(self) -> "np.ndarray | list":
        return self._prob.data

    @property
    def timestamps(self) -> "np.ndarray | list | None":
        return None if self._ts is None else self._ts.data

    def _all_columns(self) -> list:
        """The named columns, then probabilities, then any timestamps."""
        columns = [self._columns[n] for n in self._names] + [self._prob]
        if self._ts is not None:
            columns.append(self._ts)
        return columns

    @classmethod
    def _from_all(
        cls, length: int, names: tuple[str, ...], columns: list
    ) -> "ColumnarBatch":
        k = len(names)
        return cls(
            length,
            names,
            dict(zip(names, columns)),
            columns[k],
            columns[k + 1] if len(columns) > k + 1 else None,
        )

    def column(self, name: str) -> "Column | None":
        """The named column, or ``None`` when the batch lacks it."""
        return self._columns.get(name)

    def gaussian_column(self, name: str) -> "GaussianDfColumn | None":
        """The named column if it is Gaussian-with-sample-size, else None.

        The common gate of the columnar operator fast paths: accuracy
        kernels consume ``(mu, sigma2, n)`` directly when this hits.
        """
        column = self._columns.get(name)
        return column if isinstance(column, GaussianDfColumn) else None

    def with_column(self, name: str, column: Column) -> "ColumnarBatch":
        """A new batch with ``column`` appended (or replaced) as ``name``.

        Mirrors ``UncertainTuple.with_attributes`` for whole batches:
        untouched columns are shared, not copied.
        """
        if len(column) != self._length:
            raise StreamError(
                f"column {name!r} has {len(column)} rows, "
                f"batch has {self._length}"
            )
        columns = dict(self._columns)
        columns[name] = column
        names = (
            self._names if name in self._columns else self._names + (name,)
        )
        return ColumnarBatch(
            self._length, names, columns, self._prob, self._ts
        )

    def project(self, names: Sequence[str]) -> "ColumnarBatch":
        """Keep only the named columns (shared, not copied)."""
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise StreamError(f"batch has no columns {missing}")
        return ColumnarBatch(
            self._length,
            tuple(names),
            {n: self._columns[n] for n in names},
            self._prob,
            self._ts,
        )

    # -- reshaping -----------------------------------------------------------

    def slice(self, a: int, b: int) -> "ColumnarBatch":
        """Zero-copy contiguous sub-batch (the run_batched fast path)."""
        return self._from_all(
            b - a, self._names, [c.slice(a, b) for c in self._all_columns()]
        )

    def take(self, indices: Sequence[int]) -> "ColumnarBatch":
        """Row subset in the given order (shard partitioning)."""
        idx = np.asarray(indices, dtype=np.intp)
        return self._from_all(
            len(idx), self._names, [c.take(idx) for c in self._all_columns()]
        )

    def schema_signature(self) -> tuple:
        """Names + column kinds; two batches merge iff these match."""
        return (
            self._names,
            tuple(c.kind for c in self._all_columns()),
            self._ts is None,
        )

    @classmethod
    def _checked(
        cls, batches: "Sequence[ColumnarBatch]", action: str
    ) -> "ColumnarBatch":
        signature = batches[0].schema_signature()
        if any(b.schema_signature() != signature for b in batches[1:]):
            raise StreamError(
                f"cannot {action} columnar batches with different schemas"
            )
        return batches[0]

    @classmethod
    def concat(cls, batches: "Sequence[ColumnarBatch]") -> "ColumnarBatch":
        """Shard-order concatenation (the ``merge='concat'`` reassembly)."""
        parts = [b for b in batches if len(b)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        first = cls._checked(parts, "concatenate")
        columns = [
            type(group[0]).concat(list(group))
            for group in zip(*(p._all_columns() for p in parts))
        ]
        return cls._from_all(sum(map(len, parts)), first._names, columns)

    @classmethod
    def interleave(
        cls,
        batches: "Sequence[ColumnarBatch]",
        positions: Sequence[Sequence[int]],
        total: int,
    ) -> "ColumnarBatch":
        """Scatter shard outputs back to their global input positions.

        The columnar form of the ``merge='interleave'`` reassembly: each
        shard's rows land at the input indices they were computed from,
        reproducing the serial order exactly.  Requires one output per
        input position (callers verify before choosing this mode).
        """
        parts = [
            (batch, np.asarray(pos, dtype=np.intp))
            for batch, pos in zip(batches, positions)
            if len(batch)
        ]
        if not parts:
            return cls.empty()
        first = cls._checked([batch for batch, _ in parts], "interleave")
        columns = []
        for group in zip(*(batch._all_columns() for batch, _ in parts)):
            target = type(group[0]).allocate(total, group[0])
            for column, (_, pos) in zip(group, parts):
                column.scatter(target, pos)
            columns.append(target)
        return cls._from_all(total, first._names, columns)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarBatch):
            return NotImplemented
        return (
            self._length == other._length
            and self.schema_signature() == other.schema_signature()
            and all(
                a.equal(b)
                for a, b in zip(self._all_columns(), other._all_columns())
            )
        )

    __hash__ = None  # type: ignore[assignment] - mutable buffers

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{n}:{type(self._columns[n]).kind}" for n in self._names
        )
        return f"ColumnarBatch({self._length} rows; {kinds})"

    # -- IPC transport -------------------------------------------------------

    def to_payload(
        self, use_shm: bool = True
    ) -> "tuple[ColumnarPayload, list]":
        """Flatten for the IPC boundary.

        Numeric blocks of at least :data:`SHM_MIN_BYTES` are published
        as shared-memory segments (:class:`SharedSpec` handles) when
        ``use_shm``; smaller blocks and object columns pickle directly.
        Returns ``(payload, owners)`` — the caller must ``release()``
        every owner after the consuming tasks have finished (the parent
        owns segment lifetimes; see :mod:`repro.parallel.shm`).
        """
        from repro.parallel.shm import share_array

        owners: list = []
        blocks: list = []
        kinds: list[str] = []
        metas: list[object] = []
        counts: list[int] = []
        objects: dict[int, object] = {}
        for position, column in enumerate(self._all_columns()):
            meta, arrays, obj = column.export()
            kinds.append(column.kind)
            metas.append(meta)
            counts.append(len(arrays))
            for array in arrays:
                shared = (
                    share_array(array)
                    if use_shm and array.nbytes >= SHM_MIN_BYTES
                    else None
                )
                if shared is not None:
                    owners.append(shared)
                blocks.append(array if shared is None else shared.spec)
            if obj is not None:
                objects[position] = obj
        payload = ColumnarPayload(
            self._length, self._names, tuple(kinds), tuple(metas),
            tuple(counts), blocks, objects,
        )
        return payload, owners

    @classmethod
    def from_payload(cls, payload: ColumnarPayload) -> "ColumnarBatch":
        """Rebuild a batch on the worker side of the IPC boundary.

        Shared-memory blocks are copied out (one ``memcpy`` per column)
        and the segments closed immediately, so the parent can unlink
        them as soon as every task has completed.
        """
        from repro.parallel.shm import SharedSpec, attach_array

        def load(block: object) -> np.ndarray:
            if isinstance(block, SharedSpec):
                view, segment = attach_array(block)
                array = np.array(view, copy=True)
                del view
                segment.close()
                return array
            return block  # a plain (pickled) ndarray

        blocks = iter(payload.blocks)
        columns = [
            _COLUMN_TYPES[kind].restore(
                meta,
                [load(next(blocks)) for _ in range(count)],
                payload.objects.get(position),
            )
            for position, (kind, meta, count) in enumerate(
                zip(payload.kinds, payload.metas, payload.counts)
            )
        ]
        return cls._from_all(payload.length, payload.names, columns)


def gaussian_column_of(
    tuples: "Sequence[UncertainTuple]", name: str
) -> "GaussianDfColumn | None":
    """The named Gaussian column when ``tuples`` is a columnar batch.

    The gate of the columnar operator fast paths: ``None`` sends tuple
    lists and other column kinds down the per-tuple path.
    """
    if isinstance(tuples, ColumnarBatch):
        return tuples.gaussian_column(name)
    return None


def as_columnar(
    source: "Sequence[UncertainTuple]",
) -> "ColumnarBatch | None":
    """Columnarize when possible; ``None`` for non-uniform tuple layouts.

    The fallible twin of :meth:`ColumnarBatch.from_tuples` for callers
    with a tuple-list fallback (the sharded executor).
    """
    if isinstance(source, ColumnarBatch):
        return source
    try:
        return ColumnarBatch.from_tuples(source)
    except StreamError:
        return None
