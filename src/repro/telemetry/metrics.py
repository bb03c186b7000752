"""Counters, gauges, and streaming histograms with label support.

The registry is the substrate every instrumented module writes into.
Metric names follow the ``layer.component.event`` convention
(``scan.probes_sent``, ``dot.handshake.ok``, ``client.query.latency``).
Labels are free-form string pairs; a metric name plus its sorted label
set identifies one time series.

Histograms use a fixed log-bucket scheme (geometric bucket boundaries,
``GROWTH`` per bucket) so quantile estimation is O(buckets) with a
bounded relative error, never stores raw samples, and — crucially for
reproducibility — produces identical state for identical observation
streams regardless of arrival order.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

LabelPairs = Tuple[Tuple[str, str], ...]

#: Metrics under this prefix describe *scheduling* (worker clamping,
#: dispatch mode, pool lifecycle) rather than the experiment itself.
#: Deterministic exports and manifest totals exclude them: scheduling
#: telemetry legitimately varies with the worker count, and including
#: it would break the byte-identity contract the parallel equivalence
#: suite proves. Non-deterministic snapshots, Prometheus, and tables
#: still show it.
SCHEDULING_NAMESPACE = "parallel."


def is_scheduling_metric(name: str) -> bool:
    return name.startswith(SCHEDULING_NAMESPACE)

#: Version tag leading every registry wire payload.
WIRE_VERSION = 1


def _labelkey(labels: Dict[str, str]) -> LabelPairs:
    """Canonical (sorted) label tuple — determinism satellite."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count of events."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def merge_from(self, other: "Counter") -> None:
        """Fold another shard's counter in: plain sum (commutative)."""
        self.value += other.value

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}

    # -- wire codec (see MetricsRegistry.to_wire) --------------------------

    def to_wire_payload(self) -> tuple:
        return (self.value,)

    def load_wire_payload(self, payload: tuple) -> None:
        (self.value,) = payload


class Gauge:
    """A value that can go up and down (queue depths, cache sizes)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        #: Merge-ordering token. Sharded runs stamp each fragment's
        #: gauges with the shard index before merging, so "last write
        #: wins" is defined by shard order, not merge-call order.
        self.origin = -1

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def merge_from(self, other: "Gauge") -> None:
        """Last-write-wins keyed on ``(origin, value)``.

        The lexicographic key makes the merge a total-order max, hence
        associative and commutative even when two fragments share an
        origin (the larger value then wins deterministically).
        """
        if (other.origin, other.value) >= (self.origin, self.value):
            self.value = other.value
            self.origin = other.origin

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}

    def to_wire_payload(self) -> tuple:
        return (self.value, self.origin)

    def load_wire_payload(self, payload: tuple) -> None:
        self.value, self.origin = payload


class Histogram:
    """A streaming histogram over geometric (log-spaced) buckets.

    Bucket ``i`` covers ``(GROWTH**(i-1), GROWTH**i]`` for positive
    values; zero and negative observations land in dedicated buckets
    (negative values occur for *overhead* series, which can be
    legitimately below zero). Quantiles are estimated at the geometric
    midpoint of the winning bucket, giving a relative error bounded by
    ``sqrt(GROWTH) - 1`` (~4.4% with the default growth of 2**(1/8)).
    """

    kind = "histogram"

    #: Geometric bucket growth factor; 2**(1/8) = 96 buckets per 1000x.
    GROWTH = 2.0 ** 0.125
    _LOG_GROWTH = math.log(GROWTH)

    #: The quantiles every exporter reports, as ``(key, q)`` pairs. The
    #: p99.9 entry exists for serving-scale tail latency: at 10k+
    #: queries per protocol the worst ten queries are exactly the ones
    #: an admission-control bug hides from p99.
    QUANTILE_PRESETS: Tuple[Tuple[str, float], ...] = (
        ("p50", 0.50),
        ("p90", 0.90),
        ("p95", 0.95),
        ("p99", 0.99),
        ("p999", 0.999),
    )

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: bucket index -> count. Index 0 holds exact zeros; positive
        #: indices hold positive values; negative indices mirror the
        #: positive scheme for negative values.
        self._buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = self._bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @classmethod
    def _bucket_index(cls, value: float) -> int:
        if value == 0.0:
            return 0
        magnitude = abs(value)
        # ceil(log_G(m)), shifted so magnitudes <= 1 share bucket 1.
        index = max(1, 1 + math.ceil(math.log(magnitude) / cls._LOG_GROWTH))
        return index if value > 0 else -index

    @classmethod
    def _bucket_midpoint(cls, index: int) -> float:
        if index == 0:
            return 0.0
        sign = 1.0 if index > 0 else -1.0
        magnitude = abs(index)
        if magnitude == 1:
            return sign * 0.5
        upper = cls.GROWTH ** (magnitude - 1)
        return sign * upper / math.sqrt(cls.GROWTH)

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the q-quantile (0 <= q <= 1) from bucket counts.

        Returns ``None`` for an empty histogram: a never-touched series
        has no quantiles, and reporting 0.0 would be indistinguishable
        from a real all-zero observation stream.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return None
        if q <= 0.0:
            return self.min if self.min is not None else 0.0
        if q >= 1.0:
            return self.max if self.max is not None else 0.0
        rank = q * self.count
        seen = 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                estimate = self._bucket_midpoint(index)
                # Clamp into the observed range so tiny histograms
                # cannot report quantiles outside [min, max].
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
        return self.max if self.max is not None else 0.0

    def merge_from(self, other: "Histogram") -> None:
        """Bucket-wise addition: the merged state is exactly the state a
        single histogram would reach observing both streams (in any
        order), which is what makes sharded telemetry order-free."""
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min,
                                                              other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max,
                                                              other.max)
        for index, bucket_count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + bucket_count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def buckets(self) -> List[Tuple[int, int]]:
        """Sorted (bucket index, count) pairs."""
        return sorted(self._buckets.items())

    def as_dict(self) -> dict:
        if self.count == 0:
            # No observations: no quantiles to report. Exporters drop
            # empty histograms entirely, but keep the minimal shape
            # here so direct as_dict() callers stay well-defined.
            return {"type": "histogram", "count": 0, "sum": 0.0}
        document = {
            "type": "histogram",
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": round(self.min, 6) if self.min is not None else None,
            "max": round(self.max, 6) if self.max is not None else None,
        }
        for key, q in self.QUANTILE_PRESETS:
            document[key] = round(self.quantile(q), 6)
        return document

    def to_wire_payload(self) -> tuple:
        # Floats travel verbatim (no rounding): decode must reconstruct
        # the exact histogram state so merged snapshots stay
        # byte-identical to merging the live registry.
        return (self.count, self.sum, self.min, self.max,
                tuple(sorted(self._buckets.items())))

    def load_wire_payload(self, payload: tuple) -> None:
        self.count, self.sum, self.min, self.max, buckets = payload
        self._buckets = dict(buckets)


class MetricsRegistry:
    """Holds every metric of one run, keyed by (name, sorted labels)."""

    def __init__(self):
        self._metrics: Dict[Tuple[str, LabelPairs], object] = {}

    def _get(self, factory, name: str, labels: Dict[str, str]):
        key = (name, _labelkey(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {factory.__name__}")
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- convenience write paths (keep call sites one-line) ---------------

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        self.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.histogram(name, **labels).observe(value)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        self.gauge(name, **labels).set(value)

    # -- sharded-run merge --------------------------------------------------

    def stamp_origin(self, origin: int) -> None:
        """Tag every gauge with the shard index that produced it.

        Called on a per-shard fragment before :meth:`merge`, this defines
        the "last write" in the gauge merge law as the highest shard
        index rather than whichever fragment happened to merge last.
        """
        for metric in self._metrics.values():
            if isinstance(metric, Gauge):
                metric.origin = int(origin)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's state into this one.

        Merge laws (pinned by ``tests/test_parallel_properties.py``):

        * counters add,
        * gauges keep the ``(origin, value)``-maximal write,
        * histograms add bucket-wise (count/sum/min/max/buckets),
        * the empty registry is the identity.

        Under these laws a serial run and any sharded run that
        partitions the same observation stream reach identical registry
        state, which is what makes sharded telemetry snapshots
        byte-identical across worker counts.
        """
        for key in sorted(other._metrics):
            theirs = other._metrics[key]
            mine = self._metrics.get(key)
            if mine is None:
                mine = type(theirs)(theirs.name, key[1])
                self._metrics[key] = mine
            elif type(mine) is not type(theirs):
                raise TypeError(
                    f"metric {theirs.name!r} is a "
                    f"{type(mine).__name__} here but a "
                    f"{type(theirs).__name__} in the merged registry")
            mine.merge_from(theirs)
        return self

    # -- read paths --------------------------------------------------------

    def __iter__(self) -> Iterator:
        """Metrics in deterministic (name, labels) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels: str):
        """The metric object, or None if never written."""
        return self._metrics.get((name, _labelkey(labels)))

    def value(self, name: str, **labels: str) -> float:
        """Counter/gauge value (0.0 when absent) — handy in assertions."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0.0
        return getattr(metric, "value", 0.0)

    def total(self, name: str) -> float:
        """Sum of a counter across every label combination."""
        total = 0.0
        for (metric_name, _), metric in self._metrics.items():
            if metric_name == name and isinstance(metric, Counter):
                total += metric.value
        return total

    def names(self) -> List[str]:
        return sorted({name for name, _ in self._metrics})

    def clear(self) -> None:
        self._metrics.clear()

    # -- compact wire format -----------------------------------------------
    #
    # Shard results cross the process boundary as flat tuples instead of
    # pickled object graphs: one row per series, each row carrying only
    # the metric's algebraic state (a counter's value, a gauge's
    # (value, origin) write, a histogram's count/sum/min/max plus sorted
    # (bucket index, count) pairs). ``from_wire(to_wire())`` reconstructs
    # a registry whose merge behaviour — and therefore every exported
    # byte — is identical to shipping the objects themselves; the
    # equivalence is pinned by tests/test_parallel_wire.py.

    _WIRE_KINDS = {"c": Counter, "g": Gauge, "h": Histogram}

    def to_wire(self) -> tuple:
        """Flat, picklable snapshot of the registry state."""
        rows = []
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            rows.append((metric.kind[0], key[0], key[1],
                         metric.to_wire_payload()))
        return (WIRE_VERSION, tuple(rows))

    @classmethod
    def from_wire(cls, wire: tuple) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_wire` output."""
        version, rows = wire
        if version != WIRE_VERSION:
            raise ValueError(f"unsupported registry wire version {version}")
        registry = cls()
        for kind, name, labels, payload in rows:
            factory = cls._WIRE_KINDS[kind]
            metric = factory(name, tuple(tuple(pair) for pair in labels))
            metric.load_wire_payload(payload)
            registry._metrics[(metric.name, metric.labels)] = metric
        return registry


# -- bound handles -----------------------------------------------------------
#
# The convenience write paths above cost a ``get_registry()`` call, a
# kwargs dict build, a ``_labelkey`` sort, and a dict lookup on *every*
# increment — measurable on the hot paths (cache hits, transport
# exchanges, retry attempts) that fire millions of times per campaign.
#
# A bound handle amortises all of that: it is declared once at module
# level (``_HIT = BoundCounter("resolver.cache.hit")``) and resolves the
# underlying metric object lazily against whichever registry is
# currently installed, re-resolving only when the active registry is
# swapped (``reset_registry`` / ``install`` — which the sharded executor
# does around every shard). Between swaps, ``inc()`` is one identity
# check plus a plain method call on the same ``Counter`` object the
# string-keyed path would return, so snapshots stay byte-identical.

#: The registry bound handles write into. ``repro.telemetry`` keeps this
#: pointing at its default registry (it assigns on import and inside
#: ``reset_registry``/``install``); never mutate it from anywhere else.
_active_registry: Optional[MetricsRegistry] = None


class _BoundHandle:
    """Lazily-resolved view onto one metric of the active registry."""

    __slots__ = ("name", "labels", "_registry", "_metric")

    _factory = None  # Counter / Gauge / Histogram, set by subclasses

    def __init__(self, name: str, **labels: str):
        self.name = name
        self.labels = labels
        self._registry: Optional[MetricsRegistry] = None
        self._metric = None

    def resolve(self):
        """The live metric in the active registry (rebinding if needed)."""
        registry = _active_registry
        if registry is not self._registry:
            if registry is None:
                raise RuntimeError(
                    f"no active registry for bound metric {self.name!r}")
            self._metric = registry._get(self._factory, self.name,
                                         self.labels)
            self._registry = registry
        return self._metric


class BoundCounter(_BoundHandle):
    _factory = Counter

    def inc(self, amount: float = 1.0) -> None:
        self.resolve().inc(amount)


class BoundGauge(_BoundHandle):
    _factory = Gauge

    def set(self, value: float) -> None:
        self.resolve().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self.resolve().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.resolve().dec(amount)


class BoundHistogram(_BoundHandle):
    _factory = Histogram

    def observe(self, value: float) -> None:
        self.resolve().observe(value)


class _BoundFamily:
    """A bound handle over one metric name with *varying* label values.

    For call sites whose labels are dynamic (``protocol="tcp"``,
    ``op=label``) a single handle cannot pre-bind the metric, but the
    family can cache the resolved metric per label-value tuple:

        _REQUESTS = BoundCounterFamily("netsim.requests", "protocol")
        _REQUESTS.get(protocol).inc()

    The per-tuple cache is cleared whenever the active registry swaps.
    """

    __slots__ = ("name", "label_names", "_registry", "_metrics")

    _factory = None

    def __init__(self, name: str, *label_names: str):
        self.name = name
        self.label_names = label_names
        self._registry: Optional[MetricsRegistry] = None
        self._metrics: Dict[Tuple[str, ...], object] = {}

    def get(self, *label_values: str):
        """The live metric for these label values in the active registry."""
        registry = _active_registry
        if registry is not self._registry:
            if registry is None:
                raise RuntimeError(
                    f"no active registry for bound metric {self.name!r}")
            self._metrics = {}
            self._registry = registry
        metric = self._metrics.get(label_values)
        if metric is None:
            labels = dict(zip(self.label_names, label_values))
            metric = registry._get(self._factory, self.name, labels)
            self._metrics[label_values] = metric
        return metric


class BoundCounterFamily(_BoundFamily):
    _factory = Counter


class BoundGaugeFamily(_BoundFamily):
    _factory = Gauge


class BoundHistogramFamily(_BoundFamily):
    _factory = Histogram
