"""Pure helpers of the benchmark: percentiles, best-of-replays, answer
comparison, CPU accounting and span self-times. No I/O except what the
caller hands in, so test_perfbench.py can check each one directly."""

import math

INF = float("inf")

# Answer check tolerances (see NOTES.md, "Answer check").
SCORE_TOL = 1e-4
MIN_COSINE = 1.0 - 1e-4


def percentile(values, q):
    """Nearest-rank percentile q (0 < q <= 100) of `values`; +inf entries
    (failed requests) sort last, so they only move the tail."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies, failed):
    """p50 and p99 of the latencies of the answered requests plus `failed`
    requests that count as +inf, the sample count, and how many samples lie
    beyond the p99 rank."""
    values = list(latencies) + [INF] * failed
    n = len(values)
    rank99 = max(1, math.ceil(0.99 * n))
    return {
        "p50": percentile(values, 50),
        "p99": percentile(values, 99),
        "samples": n,
        "beyond_p99": n - rank99,
    }


def best_of(replays):
    """Per position, the lowest value across replays of the same work (the
    same request slot, the same training step). A position that failed
    (+inf) in any replay stays +inf, so a replay that succeeded never hides
    a failure. Replays of unequal length are compared over their common
    prefix."""
    out = []
    for values in zip(*replays):
        out.append(INF if INF in values else min(values))
    return out


def proc_stat_cpu_ms(stat_text, clk_tck):
    """utime + stime in ms from the text of /proc/<pid>/stat. The command
    name (field 2) may contain spaces and parentheses, so fields are counted
    from the last ')'."""
    fields = stat_text[stat_text.rindex(")") + 2:].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) * 1000.0 / clk_tck


def cpu_ms_per_request(before_ms, after_ms, succeeded):
    """CPU time the processes spent between two readings, per successful
    request. `before_ms` and `after_ms` map pid -> cumulative CPU ms."""
    if succeeded <= 0:
        raise ValueError("no successful requests to charge CPU to")
    spent = sum(after_ms[pid] - before_ms[pid] for pid in before_ms)
    return spent / succeeded


def ranked_match(served, reference, tol=SCORE_TOL):
    """True when two ranked lists of (key, score) agree: same length, the
    score at every rank within `tol`, and the same key at every rank except
    where the served key is a near-tie of the reference key at that rank
    (their reference scores differ by less than `tol`). A key the reference
    did not rank may only appear as a near-tie of the reference's last
    score, where it can have fallen either side of the cut-off."""
    if len(served) != len(reference):
        return False
    ref_score = dict(reference)
    for (s_key, s_score), (r_key, r_score) in zip(served, reference):
        if abs(s_score - r_score) >= tol:
            return False
        if s_key == r_key:
            continue
        tie = ref_score[s_key] if s_key in ref_score else reference[-1][1]
        if abs(tie - r_score) >= tol or abs(s_score - tie) >= tol:
            return False
    return True


def cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def answers_match(served, reference):
    """Compares one served reply with the in-process reference reply (both
    parsed wire JSON)."""
    if not served.get("ok") or not reference.get("ok"):
        return False
    if served.get("op") != reference.get("op"):
        return False
    if "vector" in reference:
        a, b = served.get("vector", []), reference["vector"]
        return len(a) == len(b) and cosine(a, b) >= MIN_COSINE
    for field, key in (("results", "name"), ("docs", "doc_id")):
        if (field in reference) != (field in served):
            return False
        if field in reference:
            s = [(item[key], item["score"]) for item in served[field]]
            r = [(item[key], item["score"]) for item in reference[field]]
            if not ranked_match(s, r):
                return False
    return True


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    its children cover. `spans` maps span id -> (name, start, end, parent
    id or None). Returns span id -> self time."""
    children = {}
    for sid, (_, _, _, parent) in spans.items():
        if parent is not None:
            children.setdefault(parent, []).append(sid)
    out = {}
    for sid, (_, start, end, _) in spans.items():
        covered = 0.0
        cursor = start
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(sid, []))
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out

