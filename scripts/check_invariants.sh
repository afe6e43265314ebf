#!/usr/bin/env bash
# Greppable concurrency invariants, run as part of the tier-1 CI gate.
# These are the textual contracts behind the thread-safety annotations in
# src/util/sync.h — cheap to enforce on any compiler, including the GCC
# builds where the Clang -Wthread-safety analysis itself is unavailable.
#
#   1. No raw std synchronization primitives outside src/util/sync.h.
#      Every lock goes through util::Mutex / util::CondVar / util::MutexLock
#      so the Clang analysis sees every acquire and release.
#   2. No std::thread constructed outside src/sched/task_graph_runner.*:
#      every worker thread in the repo is a TaskGraphRunner worker, and an
#      engine that wants threads runs its work as tasks on a runner instead
#      of a private loop. Queries (hardware_concurrency, this_thread) are
#      fine anywhere.
#   3. A .cpp that touches a GUARDED_BY field must include the header that
#      declares it (directly, or via that header's own includes) — no
#      poking at guarded state through forward declarations or externs.
#   4. A file using the annotation macros must include src/util/sync.h so
#      the macros expand consistently (never re-defined locally).
#   5. Self-check: the GUARDED_BY inventory rules 3 and 4 run on must
#      actually see the annotated subsystems (task-graph runner, serving
#      runtime). An empty scan would make rules 3/4 pass vacuously, so
#      known anchor fields are asserted present.
#   6. Raw GEMM accumulation loops (an indexed element += a product of
#      indexed loads) live only in src/tensor/kernels/. Everything else
#      goes through tensor::ops so the KernelRegistry dispatch (naive
#      oracle vs tiled+SIMD) covers every matmul in the tree. Self-checked
#      like rule 5: the naive kernels must trip the scan.
#
# Exit status: 0 = all invariants hold, 1 = at least one violation
# (each printed with file:line).

set -u
cd "$(dirname "$0")/.."

fail=0
violation() {
  # $1 = rule title, $2 = offending file:line lines (possibly empty)
  if [ -n "$2" ]; then
    echo "INVARIANT VIOLATED: $1"
    echo "$2" | sed 's/^/  /'
    fail=1
  fi
}

SRC_FILES=$(find src -name '*.h' -o -name '*.cpp' | sort)

# --- Rule 1: raw std primitives only inside util/sync.h -------------------
hits=$(grep -nE 'std::(mutex|condition_variable|recursive_mutex|shared_mutex|timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock)\b' \
         $SRC_FILES /dev/null | grep -v '^src/util/sync\.h:')
violation "raw std synchronization primitive outside src/util/sync.h (use util::Mutex / util::CondVar / util::MutexLock)" "$hits"

# --- Rule 2: std::thread construction confined to TaskGraphRunner ---------
hits=$(grep -nE 'std::thread\b' $SRC_FILES /dev/null |
         grep -vE 'std::thread::hardware_concurrency' |
         grep -vE '^src/sched/task_graph_runner\.(h|cpp):')
violation "std::thread constructed outside src/sched/task_graph_runner.* (run the work as tasks on a sched::TaskGraphRunner)" "$hits"

# --- Rules 3 & 4 ----------------------------------------------------------
# Collect GUARDED_BY field declarations: "header field" pairs.
decls=$(grep -nE 'GUARDED_BY\(' $SRC_FILES /dev/null |
          sed -nE 's/^([^:]+):[0-9]+:.*[^A-Za-z0-9_]([A-Za-z0-9_]+_)[[:space:]]+GUARDED_BY\(.*/\1 \2/p' |
          sort -u)

# Rule 3: every .cpp naming a guarded field includes a declaring header.
includes_of() {  # prints the "..."-form includes of $1
  grep -hE '^#include "' "$1" 2>/dev/null | sed -E 's/#include "(.*)"/\1/'
}
hits=$(
  while read -r header field; do
    [ -n "$field" ] || continue
    declarers=$(echo "$decls" | awk -v f="$field" '$2 == f { print $1 }')
    for cpp in $(grep -lrE "[^A-Za-z0-9_]${field}[^A-Za-z0-9_]" src --include='*.cpp' 2>/dev/null); do
      direct=$(includes_of "$cpp")
      reach="$direct"
      for inc in $direct; do  # one-level transitive closure
        [ -f "$inc" ] && reach="$reach
$(includes_of "$inc")"
      done
      ok=0
      for d in $declarers; do
        if echo "$reach" | grep -qx "$d"; then ok=1; break; fi
      done
      if [ "$ok" -eq 0 ]; then
        declarers_flat=$(echo "$declarers" | paste -sd, -)
        grep -nE "[^A-Za-z0-9_]${field}[^A-Za-z0-9_]" "$cpp" /dev/null | head -1 |
          sed "s|\$| (field '${field}' declared in ${declarers_flat}; header not included)|"
      fi
    done
  done <<< "$decls" | sort -u
)
violation ".cpp touches a GUARDED_BY field without including its declaring header" "$hits"

# Rule 4: annotation macros only with src/util/sync.h in scope.
hits=$(
  grep -lE '(GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|EXCLUDES|TRY_ACQUIRE|CAPABILITY|SCOPED_CAPABILITY)\(' \
      $SRC_FILES 2>/dev/null | grep -v '^src/util/sync\.h$' |
    while read -r f; do
      if ! grep -qE '^#include "src/util/sync\.h"' "$f"; then
        echo "$f:1 (uses annotation macros without including src/util/sync.h)"
      fi
    done
)
violation "thread-safety annotation macros used without src/util/sync.h" "$hits"

# --- Rule 6: hand-rolled GEMM loops confined to src/tensor/kernels/ -------
# Signature of a GEMM/axpy-style accumulation: an indexed LHS accumulating
# a product that loads through an index, e.g. `c[j] += av * b[j]`. Exempt:
#   src/nn/norm.cpp — LayerNorm's dgamma column reduction
#     (grad[j] += dy[j] * xhat[j]) is a [rows,cols] -> [cols] reduction
#     whose sequential row order is the spec, not a matmul to dispatch.
GEMM_RE='\[[^]]*\][[:space:]]*\+=[[:space:]]*[^;]*\*[^;]*\['
hits=$(grep -nE "$GEMM_RE" $SRC_FILES /dev/null |
         grep -v '^src/tensor/kernels/' |
         grep -v '^src/nn/norm\.cpp:')
violation "raw GEMM accumulation loop outside src/tensor/kernels/ (route it through tensor::ops so the kernel registry covers it)" "$hits"

# Rule 6 self-check: the naive GEMM kernels must trip the scan regex; if
# they stop matching, the rule above is passing vacuously.
if ! grep -qE "$GEMM_RE" src/tensor/kernels/gemm_naive.cpp 2>/dev/null; then
  violation "GEMM-loop scan self-check failed (regex or anchor file rotted)" \
    "src/tensor/kernels/gemm_naive.cpp:1 (expected the naive GEMM kernels to match the scan)"
fi

# --- Rule 5: scan self-check ----------------------------------------------
# Rules 3/4 pass vacuously if the GUARDED_BY extraction regex rots and the
# inventory comes up empty. Anchor on fields that must stay guarded: the
# task-graph runner's barrier, wakeup and generation state (shared by
# training and serving), and the serving runtime's state
# (src/serve/ is all-mutable-state-under-one-mutex by design).
hits=$(
  for anchor in \
      "src/sched/task_graph_runner.h generation_" \
      "src/sched/task_graph_runner.h push_version_" \
      "src/sched/task_graph_runner.h remaining_" \
      "src/serve/request_queue.h q_" \
      "src/serve/request_queue.h closed_" \
      "src/serve/pipeline_server.h slot_busy_" \
      "src/serve/pipeline_server.h counters_"; do
    header=${anchor% *}
    field=${anchor#* }
    if ! echo "$decls" | grep -qx "$header $field"; then
      echo "$header:1 (GUARDED_BY scan did not find expected guarded field '$field')"
    fi
  done
)
violation "GUARDED_BY inventory self-check failed (scan regex or annotations rotted)" "$hits"

if [ "$fail" -eq 0 ]; then
  echo "check_invariants: all concurrency invariants hold"
fi
exit "$fail"
