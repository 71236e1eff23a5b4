#!/usr/bin/env bash
# Builds and runs the test suite under ASan+UBSan and under TSan, using the
# presets from CMakePresets.json. The concurrency machinery (simulated
# network, per-host threads, fault injection, phase-5 receiver threads) is
# exactly the code most likely to hide races and lifetime bugs, so both
# sanitizers are part of the pre-merge checklist.
#
# Usage: tests/run_sanitized.sh [asan-ubsan|tsan|ubsan|tsan-recovery|
# tsan-obs|asan-memory|tsan-service|tsan-commbuf|asan-core|tsan-core|
# tsan-analytics]
# (default: both full suites; tsan-commbuf runs the comm and commbuf labels).
# `tsan-recovery` builds the TSan preset but runs only the recovery code's
# labels: `degraded` (eviction, buddy replication, degraded recovery),
# `splitbrain` (quorum fencing, the run's write fence, suspicion tracking),
# `storage` (the storage fault injector, the run's ENOSPC latch, the
# straggler monitor read from concurrent receivers), `chaos` (corruption
# recovery and mixed-fault pipeline runs) and `fuzz` (the FaultPlanFuzz
# battery over crashes, storage faults, stragglers and degraded mode). The
# resilient drivers tear down and respawn host threads mid-run and share
# one recovery context across them, which is where TSan earns its keep.
# `tsan-obs` runs the `obs` label under TSan: the metrics registry and
# trace buffer are hammered concurrently by every host thread, so their
# lock/atomic discipline gets its own cheap lane. `asan-memory` runs the
# `memory` label under ASan+UBSan: the memory governor moves the pipeline's
# buffers through charge/release pairs, spill files and takeVector()
# handoffs, so leaks and use-after-release there are exactly what ASan
# catches. `tsan-service` runs the `service` label under TSan: the daemon's
# worker pool, the engine's shared partition cache and host-pool semaphore,
# the journal, and the concurrent attach/detach hammering of the three
# process-wide seams (test_seams) are the service layer's concurrency
# surface, so it gets its own lane. `tsan-commbuf` runs the `comm` and
# `commbuf` labels
# under TSan (test_comm for the bare send/sendReliable/BufferedSender path,
# test_comm_buffered for the aggregated one): both paths share one attempt
# loop and one mailbox enqueue, the send-aggregation channels are written
# by sender threads holding the channel mutex while blocked receivers
# age-pull and flush them, and the cached mailbox-backlog counter is bumped
# from every enqueue/dedup/evict path — the lock-ordering and atomic
# discipline the seeded fault battery exercises hardest. `asan-core` runs the `core`
# label (test_partitioner + test_dist_graph) under ASan+UBSan: the preset
# also defines _GLIBCXX_ASSERTIONS, so every operator[] on the
# partitioner's dense per-node master and local-id tables is
# bounds-checked. `tsan-core` runs the same `core` label under TSan: with
# threadsPerHost > 1 every host splits each window chunk (the whole
# resident window, or one streaming chunk) across threads whose buffered
# senders live for the whole pass, and those threads share the dense
# tables, the mirror bitsets and the insert cursors. `tsan-analytics` runs
# the `analytics` and `chaos` labels under TSan (test_analytics for the
# plain drivers; test_corruption and test_chaos_pipeline for the resilient
# ones): the superstep kernels set and clear their bitsets with
# single-writer, non-locked word updates, which is correct only while each
# bitset has one writer thread, and this lane is what checks that. `ubsan`
# is a standalone UBSan build for when an ASan report needs to be separated
# from a UB report.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("${@:-asan-ubsan tsan}")
if [ $# -eq 0 ]; then
  presets=(asan-ubsan tsan)
fi

jobs="$(nproc 2>/dev/null || echo 4)"

for preset in "${presets[@]}"; do
  label_args=()
  build_preset="$preset"
  if [ "$preset" = "tsan-recovery" ]; then
    build_preset="tsan"
    label_args=(-L '^(degraded|splitbrain|storage|chaos|fuzz)$')
  elif [ "$preset" = "tsan-obs" ]; then
    build_preset="tsan"
    label_args=(-L obs)
  elif [ "$preset" = "asan-memory" ]; then
    build_preset="asan-ubsan"
    label_args=(-L memory)
  elif [ "$preset" = "tsan-service" ]; then
    build_preset="tsan"
    label_args=(-L service)
  elif [ "$preset" = "tsan-commbuf" ]; then
    build_preset="tsan"
    label_args=(-L '^(comm|commbuf)$')
  elif [ "$preset" = "asan-core" ]; then
    build_preset="asan-ubsan"
    label_args=(-L '^core$')
  elif [ "$preset" = "tsan-core" ]; then
    build_preset="tsan"
    label_args=(-L '^core$')
  elif [ "$preset" = "tsan-analytics" ]; then
    build_preset="tsan"
    label_args=(-L '^(analytics|chaos)$')
  fi
  echo "==== [$preset] configure ===="
  cmake --preset "$build_preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$build_preset" -j "$jobs"
  echo "==== [$preset] test ===="
  ctest --preset "$build_preset" -j "$jobs" "${label_args[@]}"
done
echo "==== all sanitized suites passed ===="
