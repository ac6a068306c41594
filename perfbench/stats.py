"""Statistics helpers of the ERMES benchmark, with their self-test.

Timings are reported as a median plus the highest percentile that has at
least ten samples beyond it, with the sample count stated. Layer times come
from Chrome trace JSON: a span's self time is its duration minus the part
of it that its direct child spans cover.

Run `python3 perfbench/stats.py` to execute the self-test on fixed inputs;
perfbench/run.py also runs it before every measurement.
"""

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def tail(samples):
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND samples
    strictly beyond its rank, as (p, value); the median, as (50.0, median),
    when no percentile qualifies."""
    n = len(samples)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return p, percentile(samples, p)
    return 50.0, statistics.median(samples)


def summary(samples):
    """Median, tail percentile label and value, and count of a sample list."""
    p, v = tail(samples)
    return {"p50": statistics.median(samples), "tail_p": p, "tail": v, "n": len(samples)}


def self_times(events, slack_us=1.0):
    """Self time in seconds per span name of one pass of Chrome trace
    events ("X" events of one thread), plus the number of calls per name.

    A span's direct children are the spans nested inside it; its self time
    is its duration minus theirs. `slack_us` absorbs the 0.1 us rounding of
    the exported timestamps."""
    spans = sorted(
        (e for e in events if e.get("ph") == "X"),
        key=lambda e: (e.get("tid", 0), e["ts"], -e["dur"]),
    )
    self_us = {}
    calls = {}
    stack = []  # open spans: (tid, end, name)
    for e in spans:
        tid, start, dur, name = e.get("tid", 0), e["ts"], e["dur"], e["name"]
        while stack and (stack[-1][0] != tid or start >= stack[-1][1] - slack_us):
            stack.pop()
        if stack:
            self_us[stack[-1][2]] -= dur
        self_us[name] = self_us.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        stack.append((tid, start + dur, name))
    return {k: max(0.0, v) / 1e6 for k, v in self_us.items()}, calls


def totals(events):
    """Summed duration in seconds per span name."""
    out = {}
    for e in events:
        if e.get("ph") == "X":
            out[e["name"]] = out.get(e["name"], 0.0) + e["dur"] / 1e6
    return out


def counters(events):
    """Final value per counter name ("C" events)."""
    return {e["name"]: e["args"]["value"] for e in events if e.get("ph") == "C"}


def self_test():
    xs = list(range(1, 1001))
    assert percentile(xs, 50) == 500
    assert percentile(xs, 99) == 990
    assert tail(xs) == (99.0, 990), tail(xs)  # 10 samples beyond 990
    assert tail(list(range(1, 1000)))[0] == 95.0  # 999 samples: 9 beyond p99
    assert tail(list(range(1, 101))) == (90.0, 90)
    assert tail(list(range(1, 40))) == (50.0, 20)  # p75 is rank 30 of 39: 9 beyond
    assert tail(list(range(1, 41))) == (75.0, 30)  # rank 30 of 40, 10 beyond
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert tail([4.0, 1.0]) == (50.0, 2.5)
    s = summary([5.0] * 40)
    assert s == {"p50": 5.0, "tail_p": 75.0, "tail": 5.0, "n": 40}, s
    ev = [
        {"name": "op", "ph": "X", "tid": 0, "ts": 0.0, "dur": 100.0},
        {"name": "a", "ph": "X", "tid": 0, "ts": 10.0, "dur": 30.0},
        {"name": "b", "ph": "X", "tid": 0, "ts": 15.0, "dur": 10.0},
        {"name": "a", "ph": "X", "tid": 0, "ts": 50.0, "dur": 40.1},
        {"name": "k", "ph": "C", "tid": 0, "ts": 99.0, "args": {"value": 7}},
    ]
    st, calls = self_times(ev)
    assert calls == {"op": 1, "a": 2, "b": 1}, calls
    assert math.isclose(st["op"], 29.9e-6), st
    assert math.isclose(st["a"], 60.1e-6), st
    assert math.isclose(st["b"], 10e-6), st
    assert counters(ev) == {"k": 7}
    assert math.isclose(totals(ev)["a"], 70.1e-6)


if __name__ == "__main__":
    self_test()
    print("stats self-test: ok")
