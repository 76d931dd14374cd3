"""Helpers of the Amber benchmark: percentiles, span self time, the ladder
search for the highest rate that meets the latency limit, and the
comparability rule for two results. run.py uses them; tests/ checks them."""

import math
import statistics

# Result documents carry this schema number; results of different schemas
# are never compared.
RESULT_SCHEMA = 1

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10  # a reported percentile needs this many samples beyond it


def percentile(values, p):
    """Nearest-rank percentile of `values` (refusals may be math.inf)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported(n, p, min_beyond=MIN_BEYOND):
    """True when n samples leave at least `min_beyond` beyond percentile p."""
    return n * (100.0 - p) / 100.0 >= min_beyond - 1e-9


def tail_percentile(values, min_beyond=MIN_BEYOND):
    """The highest ladder percentile with at least `min_beyond` samples
    beyond it, as (p, value, n); None when not even p50 qualifies."""
    n = len(values)
    best = None
    for p in PERCENTILE_LADDER:
        if supported(n, p, min_beyond):
            best = p
    if best is None:
        return None
    return best, percentile(values, best), n


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover. `spans` holds (parent, start, end) tuples,
    parent being an index into `spans` or -1."""
    children = [[] for _ in spans]
    for i, (parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def backlog_growing(arrivals, latencies, factor=1.5):
    """True when requests queue up over a run: the median latency of the
    last quarter of arrivals exceeds `factor` times that of the second
    quarter. Refused requests (latency < 0) count as unbounded."""
    ordered = [lat if lat >= 0 else math.inf for _, lat in sorted(zip(arrivals, latencies))]
    q = len(ordered) // 4
    if q == 0:
        return False
    second = statistics.median(ordered[q:2 * q])
    last = statistics.median(ordered[3 * q:])
    return last > factor * second


def rung_meets_limit(arrivals, latencies, limit_ns, p=99.0):
    """A rung meets the limit when its p-th percentile latency, refusals
    counted as misses, is within `limit_ns` and its backlog is not growing."""
    lat = [x if x >= 0 else math.inf for x in latencies]
    return percentile(lat, p) <= limit_ns and not backlog_growing(arrivals, latencies)


def max_rate(rungs, limit_ns, p=99.0):
    """The highest offered rate whose rung meets the limit. `rungs` holds
    (rate, arrivals, latencies); 0.0 when no rung does."""
    best = 0.0
    for rate, arrivals, latencies in rungs:
        if rung_meets_limit(arrivals, latencies, limit_ns, p):
            best = max(best, rate)
    return best


class ComparisonRefused(Exception):
    """Two results measured different things and must not be compared."""


def check_comparable(a, b):
    """Raises ComparisonRefused unless results `a` and `b` share the schema,
    workload, run length, build type and every workload parameter."""
    if a.get("schema") != b.get("schema"):
        raise ComparisonRefused(f"schema {a.get('schema')} != {b.get('schema')}")
    pa, pb = a.get("provenance", {}), b.get("provenance", {})
    for key in ("workload", "seconds", "trace", "build_type", "params"):
        if pa.get(key) != pb.get(key):
            raise ComparisonRefused(f"{key} differs: {pa.get(key)!r} != {pb.get(key)!r}")
    if set(a.get("metrics", {})) != set(b.get("metrics", {})):
        raise ComparisonRefused("metric sets differ")
