#!/bin/sh
# cycle-drift's comparison: the exact metrics of a benchmark run at the merge
# base against the same run at HEAD.
#
#   .github/cycle-drift.sh <base checkout> <head checkout>
#
# Both checkouts hold benchmark/out/result.json (all four workloads, untraced)
# and benchmark/out/result-{cold_code,indirect_dispatch,sys_events}-traced.json.
# Compared, per workload: `sim_cycles`, `sim_speedup` (the QEMU-style
# baseline's cycles over Captive's, so a drift in code only the baseline runs
# shows too) and `ops_failed`; on `cold_code` the exact JIT-output metrics; on
# `indirect_dispatch` the exact dispatch ratios; on `sys_events` what the
# guest-walk caches did (both hit rates) under the two event counts the
# benchmark fixes by construction (host page faults, context-generation
# bumps), and what translation work the run did around them (tier-0 installs,
# SMC invalidations, reuse hits and misses, host TLB flushes).
#
# Every one of them must be identical — unless <head checkout>/.github/rebaseline
# exists.  That file is how a pull request says "this drift is the point".
# Lines are `<workload> <metric> lower|higher` (`#` starts a comment); a listed
# metric must then move *strictly* in the stated direction, everything unlisted
# is still held identical, and a line naming something this job does not compare,
# or something that did not move, fails the job — so the file cannot outlive the
# pull request it was written for: the next one has to delete it.
set -eu
base=$1
head=$2

jit='["captive.code_bytes", "encode.bytes_per_guest_insn", "regalloc.dead_share",
  "opt.lir_removed_share", "idiom.rewrites", "gen.lir_per_guest_insn",
  "captive.translations", "captive.cache_hit_rate", "tier.requests", "tier.installed"]'
dispatch='["runtime.itlb_hit_rate", "captive.cache_hit_rate", "captive.slow_dispatch_share",
  "captive.chain_share", "captive.translations",
  "machine.host_insns_per_guest_insn", "machine.cycles_per_guest_insn"]'
walks='["runtime.dtlb_hit_rate", "runtime.itlb_hit_rate", "machine.page_faults",
  "runtime.ctx_gen_bumps", "captive.translations", "runtime.smc_invalidations",
  "tier.reuse_hits", "tier.reuse_misses", "machine.tlb_flushes"]'

# One `<workload> <metric> <value>` line per compared number.
traced() {
    jq -r --argjson keys "$2" '.workloads[0] | .name as $w | .metrics | to_entries[]
        | select(.key | IN($keys[])) | "\($w) \(.key) \(.value.value)"' "$1"
}
flat() {
    jq -r '.workloads[] | "\(.name) sim_cycles \(.metrics.sim_cycles.value)",
        "\(.name) sim_speedup \(.metrics.sim_speedup.value)",
        "\(.name) ops_failed \(.ops_failed)"' "$1/benchmark/out/result.json"
    traced "$1/benchmark/out/result-cold_code-traced.json" "$jit"
    traced "$1/benchmark/out/result-indirect_dispatch-traced.json" "$dispatch"
    traced "$1/benchmark/out/result-sys_events-traced.json" "$walks"
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
flat "$base" > "$work/base"
flat "$head" > "$work/head"
# 4 workloads x 3, 10 JIT-output metrics, 7 dispatch ratios, 9 system-event
# numbers: a renamed metric must not silently drop out of the comparison.
test "$(wc -l < "$work/head")" -eq 38
test "$(wc -l < "$work/base")" -eq 38

rebaseline=$head/.github/rebaseline
[ -f "$rebaseline" ] || rebaseline=/dev/null

awk -v rebaseline="$rebaseline" -v basefile="$work/base" '
    FILENAME == rebaseline {
        sub(/#.*/, "")
        if (NF == 0) next
        if (NF != 3 || ($3 != "lower" && $3 != "higher")) {
            print "rebaseline: cannot read line " FNR ": " $0
            bad = 1
            next
        }
        want[$1 " " $2] = $3
        next
    }
    FILENAME == basefile { was[$1 " " $2] = $3; next }
    {
        key = $1 " " $2
        if (!(key in was)) {
            print "only at HEAD: " key
            bad = 1
        } else if (key in want) {
            moved = want[key] == "lower" ? $3 + 0 < was[key] + 0 : $3 + 0 > was[key] + 0
            print (moved ? "rebaselined " : "NOT ") want[key] ": " key " " was[key] " -> " $3
            if (!moved) bad = 1
            delete want[key]
        } else if ($3 != was[key]) {
            print "drift: " key " " was[key] " -> " $3
            bad = 1
        }
    }
    END {
        for (key in want) {
            print "rebaseline lists " key ", which this job does not compare"
            bad = 1
        }
        exit bad
    }
' "$rebaseline" "$work/base" "$work/head"
