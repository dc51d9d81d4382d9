"""Statistics for the repo benchmark: best-of-rounds, tail percentiles and
span self times. Pure functions over the driver's raw run; run.py applies
them and test_benchstats.py checks their arithmetic."""

import math
import statistics

# Percentile whose tail must hold at least this many samples to be reported
# as a tail measure (choosing-metrics rule: ten samples beyond it).
MIN_TAIL_SAMPLES = 10

# Layers of a round's span tree, in report order. A span's layer is its name
# up to the first dot; the root span of a round belongs to the harness.
LAYERS = ("harness", "record", "profile", "core", "sim", "frontend",
          "backend", "workload", "trace_io")


def best(values):
    """The fastest of a run's identical rounds: noise only ever adds time."""
    values = list(values)
    if not values:
        raise ValueError("best() of no rounds")
    return min(values)


def best_per_op(op_lists):
    """Each op's fastest time over the rounds; every round ran the same ops."""
    op_lists = [list(ops) for ops in op_lists]
    if not op_lists or any(len(ops) != len(op_lists[0]) for ops in op_lists):
        raise ValueError("rounds ran different op counts")
    return [min(times) for times in zip(*op_lists)]


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, q):
    """(value, samples beyond it, ok): ok when at least MIN_TAIL_SAMPLES
    samples lie strictly above the q-quantile."""
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return value, beyond, beyond >= MIN_TAIL_SAMPLES


def layer_of(name):
    return "harness" if name == "round" else name.split(".", 1)[0]


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans, root):
    """Per-layer self time of the span tree under index `root`.

    spans: list of (name, start, end, parent, round). A span's self time is
    its duration minus the part of it covered by its child spans, so the
    self times of a tree sum to its root's duration."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    out = {layer: 0.0 for layer in LAYERS}
    stack = [root]
    while stack:
        i = stack.pop()
        name, start, end = spans[i][0], spans[i][1], spans[i][2]
        kids = children.get(i, [])
        covered = _covered([(spans[k][1], spans[k][2]) for k in kids],
                           start, end)
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + (end - start) - covered
        stack.extend(kids)
    return out


def round_root(spans, round_id):
    """Index of the "round" root span of round `round_id`."""
    for i, s in enumerate(spans):
        if s[0] == "round" and s[3] == -1 and s[4] == round_id:
            return i
    raise KeyError(f"no span tree for round {round_id}")


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")
