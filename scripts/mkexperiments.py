#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from a full `npfbench` run (experiments_full.txt).

Keeps the measured output verbatim (it is deterministic) and wraps each
experiment with the paper-vs-measured commentary.
"""
import re
import sys

RUN = "experiments_full.txt"
OUT = "EXPERIMENTS.md"

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (§6), regenerated on the
simulated stack with:

```
go run ./cmd/npfbench | tee experiments_full.txt
```

The measured blocks below are quoted verbatim from one full run
(`experiments_full.txt`, committed alongside); the simulation is
deterministic, so rerunning reproduces them exactly. `internal/bench`'s
shape tests assert every claim marked ✓ on each `go test` run, so the
reproduction cannot silently regress.

**Reading the comparisons.** The substrate is a calibrated simulator, not
the authors' testbed. Microsecond-level mechanism latencies (Figure 3,
Table 4) are calibrated directly and match absolutely. Application-level
throughputs are *scaled* (each experiment notes its scale); what must
match — the deliverable — is the paper's *shape*: who wins, by roughly
what factor, and where crossovers fall.
"""

# Per-experiment commentary: (title, paper expectation, verdict notes)
COMMENTARY = {
    "fig3": (
        "Figure 3 — NPF and invalidation execution breakdown",
        "A minor NPF costs ≈220 µs for a 4 KB message (≈90% in "
        "firmware/hardware) and ≈350 µs for 4 MB (the software share grows "
        "with the page count); invalidations cost ≈55–60 µs when the page "
        "was device-mapped and ≈10 µs on the unmapped fast path.",
        "✓ Calibrated match: 213 µs / 351 µs with the hardware components "
        "(trigger + resume) dominating; invalidation fast path ≈5× cheaper "
        "than the mapped path, as in the paper.",
    ),
    "table4": (
        "Table 4 — tail latency of NPFs",
        "4 KB 215/250/261/464 µs and 4 MB 352/431/440/687 µs for "
        "p50/p95/p99/max — a long firmware tail roughly 2× the median.",
        "✓ p50/p95/p99 within a few percent of the paper; max lands in the "
        "same ≈2×-median regime (the tail is a calibrated log-normal + "
        "rare firmware hiccup, not a fitted trace).",
    ),
    "fig4a": (
        "Figure 4(a) — cold-ring startup, 64-entry receive ring",
        "Pinning reaches steady state immediately; the backup ring "
        "matches pinning; dropping faulting packets leaves throughput at "
        "≈0 for tens of seconds (TCP treats rNPF loss as congestion and "
        "backs off exactly when the receiver needs packets to warm up).",
        "✓ Shape: pin and backup reach full rate within the first second; "
        "drop is ≈0 for several seconds and then staircase-recovers as "
        "each RTO round warms one descriptor. Our outage is shorter than "
        "the paper's ≈60 s because our TCP converges its RTO to the 200 ms "
        "floor once the handshake measures an RTT, where the paper-era "
        "stack spent longer in 1 s-initial-RTO territory; the collapse "
        "mechanism (drops → backoff → starvation) is identical. Throughput "
        "axis is simulation-scaled KTPS.",
    ),
    "fig4b": (
        "Figure 4(b) — time for 10,000 operations vs ring size",
        "Drop takes >10 s even with 16 entries and fails (TCP "
        "retry limit) at ≥128; backup degrades gracefully with ring size; "
        "pin is flat.",
        "≈ Shape: drop grows monotonically from ~3.7 s at 16 entries to "
        "~154 s at 4096 (each cold descriptor costs a TCP timeout round); "
        "backup stays in fractions of a second with a mild upward slope "
        "(per-descriptor fault service); pin is flat. The paper's outright "
        "FAILED entries do not reproduce because our TCP resets its retry "
        "counter on any forward progress — the drop configuration is "
        "instead 500–1000× slower than backup, which tells the same story.",
    ),
    "table5": (
        "Table 5 — memcached VM overcommitment",
        "NPF scales 186/311/407/484 KTPS for 1–4 VMs; pinning "
        "matches for 1–2 VMs and cannot start 3–4 (9 GB of pinned virtual "
        "memory exceeds the 8 GB host).",
        "✓ Shape at 1/32 memory scale: NPF scales near-linearly to 4 "
        "instances; pinning equals NPF at 1–2 and is N/A at 3–4 for "
        "exactly the paper's reason (StaticPinAll returns OOM).",
    ),
    "fig7": (
        "Figure 7 — dynamic working sets (100↔900 MB flip)",
        "With NPFs both instances converge to equal, full-rate "
        "service after a short transition; with pinning the instance whose "
        "working set exceeds its static half always suffers; combined "
        "NPF > pin.",
        "✓ Shape at 1/16 scale (flip at t=20 s instead of 50 s): NPF shows "
        "a ~4-second transition dip then both instances at the full rate; "
        "pinning shows the suffering instance swap sides at the flip with "
        "combined throughput ≈21% below NPF throughout.",
    ),
    "fig8a": (
        "Figure 8(a) — storage bandwidth vs memory",
        "The pinned tgt fails to load below 5 GB; NPF runs at 4 GB; "
        "NPF up to 1.9× faster mid-range; the two converge once the pinned "
        "configuration can cache the whole disk (≥7 GB).",
        "✓ Shape at 1/8 scale: pin N/A at 4–4.5 GB (the 1 GB pinned "
        "communication buffers exceed the 20%-of-RAM locked-memory "
        "budget — our stand-in for the paper's unexplained 5 GB load "
        "threshold, documented in DESIGN.md), NPF ahead 1.9–2.9× from 5 to "
        "6.5 GB, exact convergence at 7 GB.",
    ),
    "fig8b": (
        "Figure 8(b) — tgt memory usage vs initiator sessions",
        "Pinning holds 1 GB regardless; with NPFs memory follows "
        "actual use — growing with sessions for 512 KB blocks (each "
        "transaction touches its whole fixed 512 KB chunk) and staying far "
        "lower for 64 KB blocks (7/8 of every chunk is never touched).",
        "✓ Shape: pin flat at 1.00 GB; npf-512KB grows 0.02→1.00 GB "
        "across 1→80 sessions; npf-64KB stays ≤0.12 GB.",
    ),
    "fig9": (
        "Figure 9 — IMB runtime vs message size (off_cache)",
        "copy/pin grows with message size (sendrecv 1.1→2.1×, "
        "alltoall 1.2→2.2×); NPF tracks the pin-down cache (npf/pin ≈ 1).",
        "✓ Shape: npf/pin = 0.99–1.00 everywhere; copy/pin grows with "
        "size in every benchmark (sendrecv 1.17→1.74×, bcast 1.13→1.36×, "
        "alltoall 1.11→1.24×) — same direction, slightly shallower slope "
        "than the paper's testbed.",
    ),
    "table6": (
        "Table 6 — beff-style accumulated bandwidth",
        "16,410 (pin) ≈ 16,440 (NPF) MB/s, both ≈2× copying "
        "(8,020).",
        "✓ pin ≈ NPF within 0.1%; copying clearly loses (≈1.4× rather "
        "than 2× — our copy baseline only pays memcpy, not the cache "
        "pollution a real machine adds).",
    ),
    "fig10": (
        "Figure 10 — what-if: throughput vs synthetic rNPF frequency",
        "The backup ring beats dropping at every frequency; for "
        "dropping the fault type is irrelevant (TCP's RTO dwarfs even a "
        "major fault); the backup ring degrades under major faults; the "
        "InfiniBand RNR-based hardware solution recovers quickly but "
        "wastes more of the link than the backup ring.",
        "✓ All four orderings hold; fault frequency is per received 4 KB "
        "page. minor-brng holds line rate until faults outrun the "
        "resolver; drop minor == drop major exactly; IB rises from 35% to "
        "100% of optimum as faults rarify, mirroring the right panel.",
    ),
    "ablate": (
        "Ablations — §4 design choices and the §4 future-work extension",
        "(§4) Batching scatter-gather fault resolution is what "
        "keeps a cold 4 MB send under ~350 µs — one page per PRI request "
        "'would have been prohibitive (more than 220 milliseconds)'; the "
        "in-flight bitmap keeps duplicate reports off the slow firmware "
        "path; and the paper recommends extending RC end-to-end flow "
        "control to remote reads.",
        "✓ Page-wise resolution costs 290 ms — the paper's claim, "
        "reproduced. The bitmap suppresses ~50× duplicate reports on a "
        "cold-ring burst. Small pin-down caches thrash. The read-RNR "
        "extension cuts wasted response chunks ~20× versus drop-and-"
        "rewind. Guest-table (2D) protection is free at stream rates.",
    ),
    "loc": (
        "§6.3 — programming complexity",
        "Porting tgt to NPFs changed ≈40 LOC, while pin-down cache "
        "machinery costs thousands of lines (Firehose ≈8.5 K LOC).",
        "✓ Measured on this repository: the pin-down cache alone is ~80 "
        "LOC of mechanism before any policy, and the MPI middleware's "
        "entire ODP 'strategy' is its registration call sites.",
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
