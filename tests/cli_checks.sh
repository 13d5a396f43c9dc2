#!/usr/bin/env bash
# Checks that drive the built binaries end to end, one function per
# check. tests/CMakeLists.txt registers each as the ctest case
# cli.<check>:
#
#   bash tests/cli_checks.sh CHECK BUILD_DIR SOURCE_DIR
#
# A case runs in its own mktemp -d, which is also its TMPDIR, and its
# EXIT trap kills every process it started before removing that
# directory. Only two files outlive a case, in BUILD_DIR for CI to
# upload: analyze-findings.jsonl and crashsim-oplog.jsonl.
set -euo pipefail

check=$1
build=$(cd "$2" && pwd)
src=$(cd "$3" && pwd)
work=$(mktemp -d)
export TMPDIR=$work
pids=()

cleanup() {
    for pid in "${pids[@]}"; do
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

fail() {
    echo "cli.$check: $*" >&2
    exit 1
}

quickstart=$build/examples/quickstart
fault_sweep=$build/examples/fault_sweep
analyze=$build/tools/analyze/softwatt-analyze
client=$build/tools/serve/softwatt-serve-client

# Poll every 0.1 s, for at most 60 s, until `test ARGS` holds or
# process PID has exited.
wait_for() {
    local pid=$1
    shift
    for _ in $(seq 600); do
        if test "$@" || ! kill -0 "$pid" 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
}

# Start CMD in the background and SIGKILL it once FILE is non-empty.
# The kill must land mid-run: FILE must exist and the run's out=
# document DOC must not, or what follows proves nothing.
kill_once() {
    local file=$1 doc=$2
    shift 2
    "$@" &
    local pid=$!
    pids+=("$pid")
    wait_for "$pid" -s "$file"
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    test -s "$file" || fail "$file never appeared"
    test ! -e "$doc" || fail "the run wrote $doc before it was killed"
}

# HARNESS KEY=VALUE...: jobs=1 and jobs=4 must print the same stdout
# and write the same out= document.
same_at_any_jobs() {
    local harness=$1
    shift
    "$build/bench/$harness" "$@" jobs=1 out=serial.json > serial.txt
    "$build/bench/$harness" "$@" jobs=4 out=parallel.json > parallel.txt
    cmp serial.json parallel.json
    cmp serial.txt parallel.txt
}

check_paper_jobs() { same_at_any_jobs bench_paper scale=0.05; }
check_fig34_jobs() { same_at_any_jobs bench_fig34 scale=0.05; }
check_pareto_jobs() { same_at_any_jobs bench_pareto scale=0.05; }

# SIGKILL a sweep once its journal holds a finished run; resume=1
# must re-execute only the missing runs and write the same document
# as an uninterrupted sweep.
check_resume() {
    "$fault_sweep" scale=0.03 jobs=1 out=ref.json
    kill_once res.json.journal.jsonl res.json \
        "$fault_sweep" scale=0.03 jobs=1 out=res.json
    "$fault_sweep" scale=0.03 jobs=1 out=res.json resume=1
    cmp ref.json res.json
}

# A journal entry answers only the config it was written under, so
# resuming a finished sweep with only the power-manager keys edited
# must run everything again.
check_resume_edited() {
    local sweep=("$fault_sweep" scale=0.03 jobs=1 rates=0)
    "${sweep[@]}" out=edit.json
    "${sweep[@]}" out=edit.json resume=1 dvfs=1 power_budget_w=6
    "${sweep[@]}" out=dvfs.json dvfs=1 power_budget_w=6
    cmp edit.json dvfs.json
}

# BENCH KEY=VALUE...: SIGKILL an autosaving quickstart run after its
# first autosave, verify the autosave, restore it, and compare the
# final document with an uninterrupted run at the same cadence
# (checkpoints perturb deterministically).
restore_after_kill() {
    local ckpt=res.json.$1.ckpt
    shift
    "$quickstart" "$@" out=ref.json
    kill_once "$ckpt" res.json "$quickstart" "$@" out=res.json
    "$build/tools/ckpt_inspect/softwatt-ckpt" "$ckpt"
    "$quickstart" "$@" restore="$ckpt" out=res.json
    cmp ref.json res.json
}

check_restore_mxs() {
    restore_after_kill jess scale=0.3 checkpoint_every_s=0.0005
}

# The in-order model charges stall spans in one step.
check_restore_inorder() {
    restore_after_kill jess scale=0.3 cpu.model=inorder \
        checkpoint_every_s=0.0005
}

# 2000-cycle windows under the DVFS governor with an adaptive
# spin-down disk: each autosave carries thousands of stored windows.
check_restore_managed() {
    restore_after_kill javac bench=javac scale=0.3 cpu.model=inorder \
        disk.config=spindown adaptive_spindown=1 dvfs=1 \
        power_budget_w=6 sample_window=2000 checkpoint_every_s=0.001
}

# The daemon executes the first request, replays the second from its
# journal, both match a cold in-process run, and the first SIGTERM
# drains it and removes its socket.
check_serve() {
    local sock=$work/sw.sock spec="bench=jess scale=0.05"
    "$build/tools/serve/softwatt-serve" serve_socket="$sock" \
        serve_state=swstate serve_warm_s=0.0001 &
    local pid=$!
    pids+=("$pid")
    wait_for "$pid" -S "$sock"
    "$client" socket="$sock" id=j1 client=ci spec="$spec" out=warm.json
    "$client" socket="$sock" id=j2 client=ci spec="$spec" out=again.json
    cmp warm.json again.json
    "$client" cold=1 warm_s=0.0001 spec="$spec" out=cold.json
    cmp warm.json cold.json
    kill -TERM "$pid"
    wait "$pid"
    test ! -e "$sock" || fail "the drained daemon left $sock behind"
}

check_serve_stress() { "$build/bench/bench_serve_stress"; }

check_crashsim() {
    "$build/bench/bench_crashsim" state=crashsim-state \
        oplog_out="$build/crashsim-oplog.jsonl"
}

# rates=1.0 gives up on every request: a structured io-failed row,
# exit 0, no abort.
check_fault_sweep() { "$fault_sweep" scale=0.03 rates=0,0.2,1.0; }

# Fig. 9 and disk_policy_explorer set only each run's disk policy, so
# disk.fault.* keys reach their runs and change what they print.
check_fig9_faults() {
    local faults=(disk.fault.enabled=1 disk.fault.transient_rate=0.2)
    "$build/bench/bench_fig9" scale=0.1 > plain.txt
    "$build/bench/bench_fig9" scale=0.1 "${faults[@]}" > faults.txt
    if cmp -s plain.txt faults.txt; then
        fail "bench_fig9 ignored ${faults[*]}"
    fi
    local explorer=$build/examples/disk_policy_explorer
    "$explorer" bench=jess scale=0.05 thresholds=1 > plain.txt
    "$explorer" bench=jess scale=0.05 thresholds=1 "${faults[@]}" \
        > faults.txt
    if cmp -s plain.txt faults.txt; then
        fail "disk_policy_explorer ignored ${faults[*]}"
    fi
}

# The token and whole-program source rules over the three trees.
check_analyze() {
    "$analyze" --suppressions "$src/tools/lint/suppressions.txt" \
        --experiments "$src/EXPERIMENTS.md" \
        --json="$build/analyze-findings.jsonl" \
        "$src/src" "$src/bench" "$src/examples"
}

# CMD...: writing an output to /dev/full must exit nonzero and name
# the path.
fails_on_full_disk() {
    if "$@" 2> err.txt; then
        fail "exit 0 although /dev/full took no bytes"
    fi
    grep "cannot write.*/dev/full" err.txt ||
        fail "no 'cannot write /dev/full' message: $(cat err.txt)"
}

check_full_disk_client() {
    fails_on_full_disk "$client" cold=1 warm_s=0.0001 \
        spec="bench=jess scale=0.02" out=/dev/full
}

check_full_disk_crashsim() {
    fails_on_full_disk "$build/bench/bench_crashsim" scale=0.02 \
        state=crashsim-state oplog_out=/dev/full
}

# A clean tree writes no findings, so give the checker one.
check_full_disk_analyze() {
    mkdir src
    echo 'int roll() { return rand(); }' > src/roll.cc
    fails_on_full_disk "$analyze" --json=/dev/full src
}

"check_$check"
