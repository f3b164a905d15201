#!/usr/bin/env sh
# Count the out-of-line calls each app kernel makes to the scalar DSM
# accessors (Dsm::read, Dsm::write, HlrcNode::read_u64, HlrcNode::write_u64)
# and to their fault paths (HlrcNode::read_slow, HlrcNode::write_slow), in a
# release binary. Calls through the GOT are resolved to their targets.
#
#   cargo build --release --manifest-path perfbench/Cargo.toml
#   ./scripts/accessor_calls.sh perfbench/target/release/ccl-perfbench
#
# Needs binutils (objdump, readelf). A no-fault access inlined into the
# kernels shows as 0 accessor calls; the fault paths stay out of line.
set -eu

bin=${1:?usage: accessor_calls.sh <release binary>}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

readelf -rW "$bin" | awk '$3 == "R_X86_64_RELATIVE" { print $1, $4 }' >"$tmp/got"
objdump -d --no-show-raw-insn -C "$bin" >"$tmp/dis"

awk -v gotfile="$tmp/got" '
    # Hex addresses in one canonical spelling: no 0x, no leading zeros.
    function hex(h) {
        sub(/^0x/, "", h)
        sub(/^0+/, "", h)
        return h
    }
    BEGIN {
        while ((getline line < gotfile) > 0) {
            split(line, f, " ")
            got[hex(f[1])] = hex(f[2])
        }
        n = split("ccl_apps::shallow::run ccl_apps::water::run ccl_apps::fft3d::run ccl_apps::mg::sweep", kernels, " ")
        for (i = 1; i <= n; i++) want[kernels[i]] = 1
    }
    /^[0-9a-f]+ <.*>:$/ {
        addr = hex($1)
        name = substr($0, index($0, "<") + 1)
        name = substr(name, 1, length(name) - 2)
        sym[addr] = name
        cur = (name in want) ? name : ""
        next
    }
    cur != "" && $2 == "call" {
        if ($3 ~ /^\*/) {
            # call *0x...(%rip)  # <got slot> <...>
            slot = hex($(NF - 1))
            target = got[slot]
        } else {
            target = hex($3)
        }
        calls[cur, ++ncalls[cur]] = target
    }
    END {
        for (i = 1; i <= n; i++) {
            k = kernels[i]
            acc = 0; slow = 0
            for (j = 1; j <= ncalls[k]; j++) {
                s = sym[calls[k, j]]
                if (s ~ /^ccl_core::dsm::Dsm::(read|write)(<.*>)?$/ || s ~ /^hlrc::node::HlrcNode::(read|write)_u64$/) acc++
                if (s ~ /^hlrc::node::HlrcNode::(read|write)_slow$/) slow++
            }
            printf "%-24s accessor calls %3d   fault-path calls %3d\n", k, acc, slow
        }
    }' "$tmp/dis"
