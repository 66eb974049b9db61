#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from a full `npfbench` run (experiments_full.txt).

Keeps the measured output verbatim (it is deterministic) and wraps each
experiment with the paper's expectation and a verdict. Every number a
verdict cites, the paper's included, is parsed from the run (or computed
from numbers it printed), and each ✓/≈/✗ mark is derived from those
numbers, so a run that moves a result moves its verdict with it.
"""
import re
import sys

RUN = "experiments_full.txt"
OUT = "EXPERIMENTS.md"

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (§6), regenerated on the
simulated stack with:

```
go run ./cmd/npfbench -parallel 2 > experiments_full.txt
python3 scripts/mkexperiments.py
```

The measured blocks below are quoted verbatim from that full run
(`experiments_full.txt`, committed alongside); the simulation is
deterministic, so rerunning reproduces them exactly, and `scripts/ci.sh`
fails when the code no longer prints the committed file. Each verdict is
computed from the block above it by `scripts/mkexperiments.py`: the
numbers it cites are parsed from the run, and so is its mark (✓ the
paper's shape and rough magnitude hold, ≈ the shape holds but a magnitude
does not, ✗ the shape does not hold). `internal/bench`'s shape tests check
each experiment's orderings on every `go test` run.

**Reading the comparisons.** The substrate is a calibrated simulator, not
the authors' testbed. Microsecond-level mechanism latencies (Figure 3,
Table 4) are calibrated directly. Application-level throughputs are
*scaled* (each experiment notes its scale); what must match — the
deliverable — is the paper's *shape*: who wins, by roughly what factor,
and where crossovers fall.
"""

OK, NEAR, MISS = "✓", "≈", "✗"


def grab(pattern, text, *groups):
    """The groups of pattern's first match in text (a str for one group)."""
    m = re.search(pattern, text, re.M | re.S)
    if m is None:
        sys.exit(f"mkexperiments: {pattern!r} not found in the run")
    got = m.groups() if not groups else m.group(*groups)
    return got[0] if isinstance(got, tuple) and len(got) == 1 else got


def table(text, header, after=""):
    """The rows (lists of cells) of the aligned table whose header line
    starts with header, searching from the first line that starts with
    after. Rows end at a blank line or a line with a colon."""
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith(after))
    h = next(i for i in range(start, len(lines))
             if lines[i].startswith(header))
    rows = []
    for line in lines[h + 2:]:
        if not line.strip() or ":" in line:
            break
        rows.append(re.split(r"\s{2,}", line.strip()))
    return rows


def col(rows, i):
    return [r[i] for r in rows]


def mark(ok, near):
    return OK if ok else NEAR if near else MISS


def pct(a, b):
    """How far a is from b, in percent of b."""
    return 100 * abs(a - b) / b


def x(v):
    return f"{v:.2f}×"


def fig3(body):
    t = {r[0]: r for r in table(body, "msg")}
    p4k, hw, p4m = map(float, grab(
        r"paper: 4KB ≈ (\d+) µs \(~(\d+)% hardware\), 4MB ≈ (\d+) µs", body))
    tot4k, tot4m = float(t["4KB"][5]), float(t["4MB"][5])
    share = 100 * (float(t["4KB"][1]) + float(t["4KB"][4])) / tot4k
    mapped, lo, hi = grab(r"^\s+mapped page:\s+([\d.]+)\s+\(paper: ≈(\d+)-(\d+)\)", body)
    unmapped, pun = grab(r"unmapped page:\s+([\d.]+)\s+\(paper: ≈(\d+)", body)
    mapped, lo, hi, unm, pun = (float(v) for v in (mapped, lo, hi, unmapped, pun))
    a = mark(pct(tot4k, p4k) <= 10 and pct(tot4m, p4m) <= 10, True)
    b = mark(lo <= mapped <= hi and pct(unm, pun) <= 20, mapped > 2 * unm)
    return (f"{a} Fig 3a: {t['4KB'][5]} µs at 4 KB and {t['4MB'][5]} µs at "
            f"4 MB against the paper's ≈{p4k:.0f} and ≈{p4m:.0f} µs. The "
            f"hardware columns (trigger + resume) are {share:.0f}% of the 4 KB "
            f"fault against the paper's ~{hw:.0f}%; the rest is the driver "
            f"and the page-table update, and the driver column grows from "
            f"{t['4KB'][2]} to {t['4MB'][2]} µs with the page count. "
            f"{b} Fig 3b: the unmapped fast path costs {unmapped} µs "
            f"against ≈{pun:.0f}, but the mapped invalidation costs "
            f"{mapped:.1f} µs against ≈{lo:.0f}–{hi:.0f} µs, a known gap that "
            f"is recorded, not recalibrated (DESIGN §4). The fast path is "
            f"still {mapped / unm:.1f}× cheaper than the mapped path.")


def table4(body):
    rows = {r[0]: [float(v) for v in r[1:]] for r in table(body, "message size")}
    paper = {k: [float(v) for v in grab(rf"{k} (\d+)/(\d+)/(\d+)/(\d+)", body)]
             for k in rows}
    gaps = [(pct(rows[k][i], paper[k][i]), k, q, i)
            for k in rows for i, q in enumerate(("p50", "p95", "p99"))]
    worst, wk, wq, wi = max(gaps)
    tails = {k: rows[k][3] / rows[k][0] for k in rows}
    ptails = {k: paper[k][3] / paper[k][0] for k in rows}
    regime = all(1.5 <= v <= 3 for v in tails.values())
    m = mark(worst <= 15 and regime, regime)
    return (f"{m} p50/p95/p99 are within {worst:.0f}% of the paper (the "
            f"largest gap is {wk} {wq}: {rows[wk][wi]:.0f} µs against "
            f"{paper[wk][wi]:.0f}). The max is "
            + " and ".join(f"{tails[k]:.2f}× the median at {k} (paper "
                           f"{ptails[k]:.2f}×)" for k in rows)
            + ": the same long firmware tail, drawn from a calibrated "
            "log-normal plus a rare firmware hiccup, not a fitted trace.")


def fig4a(body):
    series = {}
    for name, samples in re.findall(r"^(\w+):\n((?:  t=.*\n?)+)", body, re.M):
        series[name] = [(int(t), float(v)) for t, v in
                        re.findall(r"t=\s*(\d+)s\s+([\d.]+)", samples)]
    full = max(v for _, v in series["pin"])
    first_full = {k: next(t for t, v in s if v >= 0.99 * full)
                  for k, s in series.items()}
    outage = [t for t, v in series["drop"] if v < 0.01 * full]
    steps = sorted({v for _, v in series["drop"] if v >= 0.01 * full})
    fast = first_full["pin"] <= 1 and first_full["backup"] <= 1
    m = mark(fast and len(outage) >= 10, fast and outage)
    return (f"{m} Pin and backup reach the full {full:.2f} KTPS by t="
            f"{first_full['pin']} s and t={first_full['backup']} s. Drop "
            f"stays below 1% of it for {len(outage)} s (t={outage[0]}–"
            f"{outage[-1]} s) and then recovers in steps ("
            + ", ".join(f"{v:.2f}" for v in steps)
            + f"), reaching full rate at t={first_full['drop']} s. The "
            "ordering is the paper's, and so is the mechanism (drops → "
            "backoff → starvation), but the outage lasts seconds, not tens "
            "of seconds: once the handshake measures an RTT our TCP's RTO "
            "falls to its floor (DESIGN §4). The throughput axis is "
            "simulation-scaled KTPS.")


def fig4b(body):
    rows = table(body, "ring")
    ring = [int(v) for v in col(rows, 0)]
    drop, backup, pin = ([float(v) for v in col(rows, i)] for i in (1, 2, 3))
    pmin, pmin_ring = grab(r">(\d+)s even at (\d+) entries", body)
    pfail = grab(r"at >=(\d+)", body)
    rising = all(a < b for a, b in zip(drop, drop[1:]))
    flat = min(pin) == max(pin)
    slower = [d / b for d, b in zip(drop, backup)]
    m = mark(False, rising and flat and min(slower) > 1)
    return (f"{m} The ordering holds: drop grows monotonically from "
            f"{rows[0][1]} s at {ring[0]} entries to {rows[-1][1]} s at "
            f"{ring[-1]} (each cold descriptor costs a TCP timeout round), "
            f"backup stays between {min(backup):.2f} and {max(backup):.2f} s "
            f"with a mild upward slope (per-descriptor fault service), and "
            f"pin is flat at {pin[0]:.2f} s. Drop is {min(slower):.0f}–"
            f"{max(slower):.0f}× slower than backup. Two paper results do not "
            f"reproduce: drop takes {rows[0][1]} s at {pmin_ring} entries "
            f"where the paper needs more than {pmin} s, and no ring size "
            f"fails where the paper's connections fail at {pfail} entries or "
            "more, because our TCP resets its retry counter on any forward "
            "progress (DESIGN §4).")


def table5(body):
    rows = {r[0]: r[1:] for r in table(body, "memcached instances")}
    npf = [float(v) for v in rows["NPF"]]
    pin = rows["pinning"]
    pnpf = [float(v) for v in grab(r"paper: NPF (\d+)/(\d+)/(\d+)/(\d+)", body)]
    scale = grab(r"scaled (1/\d+)", body)
    linear = all(a < b for a, b in zip(npf, npf[1:]))
    pin_ok = pin[:2] == rows["NPF"][:2] and pin[2:] == ["N/A", "N/A"]
    m = mark(linear and pin_ok and npf[-1] / npf[0] >= pnpf[-1] / pnpf[0],
             linear and pin_ok)
    return (f"{m} At {scale} memory scale NPF grows {npf[-1] / npf[0]:.2f}× "
            f"from 1 to {len(npf)} instances, closer to linear than the "
            f"paper's {pnpf[-1] / pnpf[0]:.2f}×. Pinning equals NPF at 1–2 and is "
            "N/A at 3–4 for exactly the paper's reason: `StaticPinAll` "
            "returns OOM.")


def fig7(body):
    flip = int(grab(r"flipping at t=(\d+)s", body))
    series = {}
    for name, part in re.findall(r"^\((\w+)\).*?\n((?:\s+\d+\s.*\n?)+)", body, re.M):
        series[name] = [tuple(map(float, l.split()))
                        for l in part.splitlines() if l.strip()]
    npf, pin = series["npf"], series["pin"]
    full = max(r[3] for r in npf)
    dip = min(r[3] for r in npf if r[0] >= flip)
    back = next(r[0] for r in npf if r[0] > flip and r[3] >= full)
    before = [r for r in pin if 0 < r[0] < flip]
    after = [r for r in pin if r[0] >= flip + 2]
    swap = (all(r[2] < r[1] for r in before) and all(r[1] < r[2] for r in after))
    steady = [r[3] for r in pin if r[0] > 0]
    below = 100 * (1 - sum(steady) / len(steady) / full)
    m = mark(swap and below > 0 and back - flip <= 10, swap and below > 0)
    return (f"{m} NPF dips to {dip:.2f} KHPS combined at the flip and is back "
            f"at the full {full:.2f} KHPS {back - flip:.0f} s later, both "
            f"instances at full rate. With pinning the suffering instance "
            f"swaps sides at the flip (shrink before t={flip} s, grow "
            f"after), and its combined hits average {below:.0f}% below NPF's "
            f"full rate.")


def fig8a(body):
    rows = table(body, "memory")
    fails = [r[0] for r in rows if r[2].startswith("N/A")]
    both = [(r[0], float(r[1]), float(r[2])) for r in rows
            if not r[2].startswith("N/A")]
    ahead = [(mem, n / p) for mem, n, p in both if n > p]
    equal = [mem for mem, n, p in both if n == p]
    pup = float(grab(r"NPF up to ([\d.]+)x", body))
    scale = grab(r"run at (1/\d+)", body)
    peak = max(r for _, r in ahead)
    shape = bool(fails) and bool(ahead) and bool(equal)
    m = mark(shape and pct(peak, pup) <= 25, shape)
    return (f"{m} At {scale} scale pin fails to load at "
            f"{' and '.join(fails)} (the pinned communication buffers exceed "
            f"the locked-memory budget, our stand-in for the "
            f"paper's unexplained load threshold; DESIGN.md), NPF runs at "
            f"every size. NPF is ahead "
            + ", ".join(f"{x(r)} at {mem}" for mem, r in ahead)
            + f", and the two are equal from {equal[0]} up. The peak "
            f"advantage, {x(peak)}, is larger than the paper's {pup}×: the "
            "shape holds, the magnitude is not yet explained (ROADMAP item "
            "17 questions this rig's shared NPF driver).")


def fig8b(body):
    rows = table(body, "sessions")
    pin, n512, n64 = ([float(v) for v in col(rows, i)] for i in (1, 2, 3))
    flat = min(pin) == max(pin)
    grows = n512[-1] > n512[0]
    below = max(n64) < min(pin)
    m = mark(flat and grows and below, flat and grows)
    return (f"{m} Pin is flat at {pin[0]:.2f} GB; npf-512KB grows "
            f"{rows[0][2]}→{rows[-1][2]} GB across {rows[0][0]}→{rows[-1][0]} "
            f"sessions; npf-64KB stays at or below {max(n64):.2f} GB.")


def fig9(body):
    benches = re.findall(r"^(\w+):\n", body, re.M)
    ratio = {}
    npfpin = []
    for b in benches:
        rows = table(body, "msg", after=b + ":")
        ratio[b] = [float(v.rstrip("x")) for v in col(rows, 4)]
        npfpin += [float(v) for v in col(rows, 5)]
    paper = {b: tuple(map(float, grab(rf"{b} ([\d.]+)→([\d.]+)x", body)))
             for b in benches if re.search(rf"{b} [\d.]+→", body)}
    # A benchmark the paper quotes a range for is marked against it: ✓
    # when copy/pin grows at least half as much as the paper's.
    marks = {b: mark(ratio[b][-1] / ratio[b][0] - 1 >= (p[1] / p[0] - 1) / 2,
                     ratio[b][-1] > ratio[b][0])
             for b, p in paper.items()}
    grows = all(ratio[b][-1] > ratio[b][0] for b in benches)
    tracks = max(pct(v, 1) for v in npfpin) <= 2
    m = mark(tracks and grows and all(v == OK for v in marks.values()),
             tracks and grows)
    slopes = "; ".join(
        f"{marks[b]} {b} {ratio[b][0]:.2f}→{ratio[b][-1]:.2f}× (paper "
        f"{paper[b][0]}→{paper[b][1]}×)" if b in paper else
        f"{b} {ratio[b][0]:.2f}→{ratio[b][-1]:.2f}× (no paper range)"
        for b in benches)
    return (f"{m} npf/pin is {min(npfpin):.2f}–{max(npfpin):.2f} everywhere. "
            f"copy/pin grows with message size in every benchmark: {slopes}. "
            "The direction is the paper's, the slope is shallower, and for "
            "alltoall it is nearly flat. Our copy baseline pays only a "
            "memcpy at `mem.MemcpyBps`, none of the cache pollution a real "
            "machine adds; whether that explains the gap is ROADMAP item "
            "6's question.")


def table6(body):
    pin, npf, copy = (float(v) for v in table(body, "pinning")[0])
    ppin, pnpf, pcopy = (float(v) for v in
                         grab(r"paper: (\d+) / (\d+) / (\d+)", body))
    same = pct(npf, pin)
    r, pr = pin / copy, ppin / pcopy
    m = mark(same <= 1 and pct(r, pr) <= 25, same <= 1 and r > 1)
    return (f"{m} pin ≈ NPF within {same:.2f}% ({pin:.0f} against "
            f"{npf:.0f} MB/s). Copying loses, but by {x(r)} ({copy:.0f} "
            f"MB/s) where the paper's copying loses by {x(pr)}: our copy baseline "
            "pays only a memcpy at `mem.MemcpyBps`, not the cache pollution "
            "a real machine adds (ROADMAP item 6).")


def fig10(body):
    eth = table(body, "freq", after="Ethernet")
    ib = table(body, "freq", after="InfiniBand")
    line = max(float(v) for r in eth for v in r[1:])
    mb, jb, md, jd = ([float(v) for v in col(eth, i)] for i in (1, 2, 3, 4))
    beats = all(b >= d for b, d in zip(mb, md)) and \
        all(b > d for b, d in zip(mb, md) if d < line)
    same = md == jd
    degrades = all(j <= b for j, b in zip(jb, mb)) and jb[0] < mb[0]
    ibpct = col(ib, 2)
    wastes = float(ibpct[0].rstrip("%")) < 100 * mb[0] / line
    m = mark(beats and same and degrades and wastes, False)
    return (f"{m} All four orderings hold; fault frequency is per received "
            f"4KB page. Minor brng holds the {line:.2f} Gb/s line rate at "
            f"every frequency, dropping falls to {md[0]:.2f} Gb/s at "
            f"{eth[0][0]} and drop minor == drop major exactly, major brng "
            f"falls to {jb[0]:.2f} Gb/s, and IB rises from {ibpct[0]} to "
            f"{ibpct[-1]} of optimum as faults rarify, so it wastes more of "
            "the link than the backup ring.")


def ablate(body):
    batched, bms = grab(r"batched:\s+(\d+) fault events,\s+([\d.]+) ms", body)
    pages, pms = grab(r"page-wise:\s+(\d+) fault events,\s+([\d.]+) ms", body)
    pclaim = grab(r"would cost >(\d+) ms", body)
    cache = re.findall(r"^\s+(\d+) MB:\s+([\d.]+) ms", body, re.M)
    rnr = re.findall(r"^\s+(\d+) µs:\s+([\d.]+) ms/msg", body, re.M)
    on = grab(r"suppression on:\s+(\d+)", body)
    off = grab(r"suppression off:\s+(\d+)", body)
    flat, nested = grab(r"flat:\s+([\d.]+) Gb/s\n\s+nested:\s+([\d.]+)", body)
    (wb, tb), (wr, tr) = re.findall(
        r":\s+(\d+) wasted chunks,\s+([\d.]+) ms", body)
    m1 = mark(float(pms) > float(pclaim), False)
    m2 = mark(float(cache[0][1]) > float(cache[-1][1]), False)
    rms = [float(v) for _, v in rnr]
    m3 = mark(rms.index(min(rms)) not in (0, len(rms) - 1), rms[-1] > rms[0])
    m4 = mark(int(off) > int(on), False)
    m5 = mark(flat == nested, float(nested) >= 0.95 * float(flat))
    m6 = mark(int(wr) < int(wb), False)
    return (f"{m1} Batching: one cold 4 MB message takes {batched} fault "
            f"event(s) and {bms} ms batched, {pages} events and {pms} ms page "
            f"by page (the paper: more than {pclaim} ms). "
            f"{m2} Small pin-down caches thrash: {cache[0][0]} MB runs "
            f"alltoall in {cache[0][1]} ms, {cache[-1][0]} MB in "
            f"{cache[-1][1]} ms. "
            f"{m3} RNR timeout: latency grows with the timeout from "
            f"{rnr[0][1]} ms/msg at {rnr[0][0]} µs to {rnr[-1][1]} at "
            f"{rnr[-1][0]} µs; the shortest timeout is also the fastest, so "
            "the too-short side of the tradeoff (wasted retries) does not "
            f"show. {m4} The in-flight bitmap cuts driver fault reports from "
            f"{off} to {on} on a cold-ring burst. "
            f"{m5} Guest-table (2D) protection: {nested} Gb/s nested against "
            f"{flat} flat. {m6} The read-RNR extension cuts wasted response "
            f"chunks from {wb} to {wr} ({int(wb) / int(wr):.0f}×); the "
            f"transfer time is {tb} against {tr} ms, so the gain is link "
            "capacity, not latency.")


def loc(body):
    n = int(grab(r"pin-down cache implementation: (\d+) LOC", body))
    sites = grab(r"(\d+) call site", body)
    tgt = grab(r"tgt port to NPFs ≈ (\d+) LOC", body)
    fire = grab(r"Firehose: ≈([\d.]+K) LOC", body)
    return (f"{mark(True, False)} Measured on this repository: the pin-down "
            f"cache alone is {n} LOC of mechanism before any policy, and the "
            f"MPI middleware's entire ODP strategy is its {sites} "
            f"registration call site(s) (the paper: ≈{tgt} LOC for tgt; "
            f"Firehose ≈{fire} LOC).")


# Per experiment: (title, the paper's expectation, the verdict function).
COMMENTARY = {
    "fig3": (
        "Figure 3 — NPF and invalidation execution breakdown",
        "A minor NPF costs ≈220 µs for a 4 KB message (≈90% in "
        "firmware/hardware) and ≈350 µs for 4 MB (the software share grows "
        "with the page count); invalidations cost ≈55–60 µs when the page "
        "was device-mapped and ≈10 µs on the unmapped fast path.",
        fig3,
    ),
    "table4": (
        "Table 4 — tail latency of NPFs",
        "4 KB 215/250/261/464 µs and 4 MB 352/431/440/687 µs for "
        "p50/p95/p99/max — a long firmware tail roughly 2× the median.",
        table4,
    ),
    "fig4a": (
        "Figure 4(a) — cold-ring startup, 64-entry receive ring",
        "Pinning reaches steady state immediately; the backup ring "
        "matches pinning; dropping faulting packets leaves throughput at "
        "≈0 for tens of seconds (TCP treats rNPF loss as congestion and "
        "backs off exactly when the receiver needs packets to warm up).",
        fig4a,
    ),
    "fig4b": (
        "Figure 4(b) — time for 10,000 operations vs ring size",
        "Drop takes >10 s even with 16 entries and fails (TCP "
        "retry limit) at ≥128; backup degrades gracefully with ring size; "
        "pin is flat.",
        fig4b,
    ),
    "table5": (
        "Table 5 — memcached VM overcommitment",
        "NPF scales 186/311/407/484 KTPS for 1–4 VMs; pinning "
        "matches for 1–2 VMs and cannot start 3–4 (9 GB of pinned virtual "
        "memory exceeds the 8 GB host).",
        table5,
    ),
    "fig7": (
        "Figure 7 — dynamic working sets (100↔900 MB flip)",
        "With NPFs both instances converge to equal, full-rate "
        "service after a short transition; with pinning the instance whose "
        "working set exceeds its static half always suffers; combined "
        "NPF > pin.",
        fig7,
    ),
    "fig8a": (
        "Figure 8(a) — storage bandwidth vs memory",
        "The pinned tgt fails to load below 5 GB; NPF runs at 4 GB; "
        "NPF up to 1.9× faster mid-range; the two converge once the pinned "
        "configuration can cache the whole disk (≥7 GB).",
        fig8a,
    ),
    "fig8b": (
        "Figure 8(b) — tgt memory usage vs initiator sessions",
        "Pinning holds 1 GB regardless; with NPFs memory follows "
        "actual use — growing with sessions for 512 KB blocks (each "
        "transaction touches its whole fixed 512 KB chunk) and staying far "
        "lower for 64 KB blocks (7/8 of every chunk is never touched).",
        fig8b,
    ),
    "fig9": (
        "Figure 9 — IMB runtime vs message size (off_cache)",
        "copy/pin grows with message size (sendrecv 1.1→2.1×, "
        "alltoall 1.2→2.2×); NPF tracks the pin-down cache (npf/pin ≈ 1).",
        fig9,
    ),
    "table6": (
        "Table 6 — beff-style accumulated bandwidth",
        "16,410 (pin) ≈ 16,440 (NPF) MB/s, both ≈2× copying "
        "(8,020).",
        table6,
    ),
    "fig10": (
        "Figure 10 — what-if: throughput vs synthetic rNPF frequency",
        "The backup ring beats dropping at every frequency; for "
        "dropping the fault type is irrelevant (TCP's RTO dwarfs even a "
        "major fault); the backup ring degrades under major faults; the "
        "InfiniBand RNR-based hardware solution recovers quickly but "
        "wastes more of the link than the backup ring.",
        fig10,
    ),
    "ablate": (
        "Ablations — §4 design choices and the §4 future-work extension",
        "(§4) Batching scatter-gather fault resolution is what "
        "keeps a cold 4 MB send under ~350 µs — one page per PRI request "
        "'would have been prohibitive (more than 220 milliseconds)'; the "
        "in-flight bitmap keeps duplicate reports off the slow firmware "
        "path; and the paper recommends extending RC end-to-end flow "
        "control to remote reads.",
        ablate,
    ),
    "loc": (
        "§6.3 — programming complexity",
        "Porting tgt to NPFs changed ≈40 LOC, while pin-down cache "
        "machinery costs thousands of lines (Firehose ≈8.5 K LOC).",
        loc,
    ),
}


def main():
    text = open(RUN).read()
    out = [HEADER]
    # Blocks render in the order the run printed them.
    for m in re.finditer(r"^==== (\w+) ====\n(.*?)(?=^==== |\Z)",
                         text, re.M | re.S):
        key, body = m.group(1), m.group(2).strip("\n")
        if key not in COMMENTARY:
            print(f"warning: {key} has no commentary; not rendered",
                  file=sys.stderr)
            continue
        title, paper, verdict = COMMENTARY[key]
        verdict = verdict(body)
        # Figure 4a's series is long; keep only every 4th sample line.
        if key == "fig4a":
            kept, i = [], 0
            for line in body.splitlines():
                if line.startswith("  t="):
                    if i % 4 == 0:
                        kept.append(line)
                    i += 1
                else:
                    i = 0
                    kept.append(line)
            body = "\n".join(kept)
        if key == "fig7":
            kept, i = [], 0
            for line in body.splitlines():
                if re.match(r"^\s+\d+\s", line):
                    t = int(line.split()[0])
                    if t % 5 == 0 or 19 <= t <= 25:
                        kept.append(line)
                else:
                    kept.append(line)
            body = "\n".join(kept)
        out.append(f"\n## {title}\n\n**Paper.** {paper}\n\n"
                   f"**Measured.**\n\n```\n{body}\n```\n\n"
                   f"**Verdict.** {verdict}\n")

    out.append("""
## Scaling and substitutions (summary)

| Experiment | Scale / substitution |
|---|---|
| Fig. 3, Table 4 | none — latencies calibrated to the paper |
| Fig. 4 | throughput axis is simulated-server KTPS; TCP parameters are Linux-3.x defaults |
| Table 5 | memory 1/32 (host 8 GB→256 MB, VM 3 GB→96 MB, working set <2 GB→48 MB) |
| Fig. 7 | memory 1/16; flip at t=20 s instead of 50 s; 16 KB items for 20 KB |
| Fig. 8 | memory 1/8 (LUN 4 GB→512 MB, buffers 1 GB→128 MB); pinned-load failure via a 20%-of-RAM locked-memory budget; IB MTU 64 KB for event-count tractability |
| Fig. 9, Table 6 | 8 ranks as in the paper; IB MTU 16 KB; per-message MPI software overhead 5 µs |
| Fig. 10 | fault frequency interpreted per received 4 KB page; 64 MB (Ethernet) / 128 MB (IB) transfers per point |

Full substitution rationale: DESIGN.md §1.
""")
    with open(OUT, "w") as f:
        f.write("\n".join(out))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
