#!/usr/bin/env bash
# Tier-1 check: full build + test suite, then the fault-tolerance,
# memory/spill, observability, vectorized/columnar, expression-kernel,
# value-type and data source tests again under AddressSanitizer/UBSan (retry,
# cancellation, reservation accounting, spill-file cleanup, concurrent
# span/counter updates, selection-vector indexing into raw column banks,
# lane kernels over boxed rows, and encoded chunks read from disk exercise
# concurrent code and raw buffers worth running instrumented), then the concurrency, vectorized, columnar and data source
# suites under ThreadSanitizer, then the chaos harness under both — including a
# batch_size=1 lane over cached (natively columnar) tables. Finishes with a
# quick overhead sanity pass of bench_observe (profiled vs un-profiled
# execution).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
(cd build && ctest --output-on-failure -j "$(nproc)")

cmake -B build-sanitize -S . -DSSQL_SANITIZE=address >/dev/null
cmake --build build-sanitize -j --target test_fault_tolerance --target test_memory --target test_observability --target test_system_tables --target test_statistics --target test_chaos --target test_vectorized --target test_columnar --target test_property_end_to_end --target test_flight_recorder --target test_aggregate --target test_exec --target test_datasources --target test_codegen --target test_value_types --target test_expressions >/dev/null
./build-sanitize/tests/test_fault_tolerance
./build-sanitize/tests/test_memory
./build-sanitize/tests/test_observability
./build-sanitize/tests/test_system_tables
./build-sanitize/tests/test_statistics
# The vectorized/columnar suites under ASan: selection vectors index into
# raw column banks, null slots must hold defined zeros, and FilterView
# windows alias parent batches — all pointer-arithmetic surface. The
# end-to-end property suite rides along because its batched-vs-row
# equivalence sweep (batch_size 1 and 1024) is the strongest detector of
# out-of-bounds lane reads turning into wrong-but-plausible answers.
./build-sanitize/tests/test_vectorized
./build-sanitize/tests/test_columnar
./build-sanitize/tests/test_property_end_to_end
# The expression kernels under ASan/UBSan: row loads keep pointers into
# boxed rows, string lanes point into scratch and fallback lanes, and
# register banks resize between runs over inputs of different sizes.
./build-sanitize/tests/test_codegen
# The value order under UBSan: Value::Compare, Decimal::Compare's scale
# alignment (a signed overflow in int64 before it moved to 128 bits),
# HashDouble's range-checked cast and the interpreter's predicates. A
# UBSan report fails these two runs instead of only printing.
UBSAN_OPTIONS=halt_on_error=1 ./build-sanitize/tests/test_value_types
UBSAN_OPTIONS=halt_on_error=1 ./build-sanitize/tests/test_expressions
# The data source suite under ASan: the chunk reader indexes dictionary
# codes, runs and string views into encoded payloads read from disk, the
# colf byte-mutation smoke test feeds it corrupt files, and the CSV scan
# splits records into views over its range buffers.
./build-sanitize/tests/test_datasources
# The CSV mutation fuzz test again under ASan with three more seeds: the
# tokenizer and the typed parse walk byte buffers the mutations reshape.
# SSQL_FUZZ_SEED=<n> replays a failing seed.
for seed in 1 2 3; do
  echo "CSV fuzz seed ${seed} (ASan)"
  SSQL_FUZZ_SEED="${seed}" ./build-sanitize/tests/test_datasources --gtest_filter='CsvFuzz*'
done
# The aggregation sweep under ASan: the group table's open-addressing
# index, arena-backed string keys and spill drain are raw-memory surface.
./build-sanitize/tests/test_aggregate
# The join sweep under ASan: every hash join builds a key table (typed
# lanes, an arena holding strings past one 64 KiB block, first/next row
# chains) and probes it by raw bank pointers, in memory and per Grace
# bucket.
./build-sanitize/tests/test_exec
# Flight recorder under ASan: the journal's fixed-size slots and detail
# truncation are raw-buffer surface; bundle writing walks directories.
./build-sanitize/tests/test_flight_recorder

# The concurrency suite (N driver threads on one SqlContext) again under
# ThreadSanitizer: races between QueryContexts, the admission gate, and the
# shared memory pool are exactly what TSan exists to catch. The system-table
# suite joins it because its scans read live engine state (active query list,
# metrics registry, memory pool) while other threads mutate it, and the
# fault-tolerance suite joins it because speculation deliberately races two
# attempts of one partition against an exactly-once commit (plus the
# watchdog thread scanning heartbeats that task threads publish). The
# statistics suite joins both lanes: ANALYZE TABLE racing queries,
# re-registration and the copy-on-write staleness swap are its TSan
# surface, and the HLL/histogram buffers its ASan surface.
cmake -B build-tsan -S . -DSSQL_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target test_concurrency --target test_system_tables --target test_fault_tolerance --target test_statistics --target test_chaos --target test_vectorized --target test_property_end_to_end --target test_flight_recorder --target test_aggregate --target test_observability --target test_exec --target test_columnar --target test_datasources --target test_memory >/dev/null
./build-tsan/tests/test_concurrency
./build-tsan/tests/test_system_tables
./build-tsan/tests/test_fault_tolerance
./build-tsan/tests/test_statistics
# Vectorized suites under TSan: batch partitions are produced by parallel
# tasks sharing decoded column vectors (shared_ptr columns aliased by
# FilterView windows across task boundaries), and the property sweep runs
# the same shapes through the speculatable task runner.
./build-tsan/tests/test_vectorized
./build-tsan/tests/test_property_end_to_end
# Columnar suite under TSan: cache chunks and colf row groups are read by
# parallel scan tasks that share one chunk reader and the immutable
# encoded columns.
./build-tsan/tests/test_columnar
# Data source suite under TSan: every scan of the cache, of colf and of
# CSV, row mode included, runs as parallel ScanBatches tasks sharing one
# chunk reader.
./build-tsan/tests/test_datasources
# Flight recorder under TSan: emitters on every engine thread race
# snapshot readers, the ticker thread's sampler, and a mid-flight
# reconfigure.
./build-tsan/tests/test_flight_recorder
# Aggregation sweep under TSan: partition tasks fill group tables against
# one shared memory budget and spill under it.
./build-tsan/tests/test_aggregate
# Join sweep under TSan: every probe task of a broadcast join reads the one
# shared key table — index, string arena and row chains — concurrently.
./build-tsan/tests/test_exec
# Observability under TSan: task threads add profile counters while a
# finishing query folds its totals into the shared registry and the engine
# ticker thread scans heartbeats and samples the registry.
./build-tsan/tests/test_observability
# Memory suite under TSan: parallel sort, aggregation and Grace join tasks
# grow and release reservations against one query budget and the engine
# pool, and write and delete spill files concurrently.
./build-tsan/tests/test_memory

# Chaos harness: seeded rounds of concurrent queries with random fault
# injection at every I/O boundary — speculation, the watchdog and corrupt
# spill-bit rules armed — checking post-round invariants (memory pool
# drained, disk quota released, spill dir empty, no stuck admission
# tickets). 10 distinct seeds, each under both ASan and TSan — faults take
# error paths the happy-path suites never reach, which is exactly where
# use-after-free and lock-order bugs hide. (SSQL_CHAOS_SPECULATION=0
# disarms speculation when bisecting a failing seed.)
for seed in 1 2 3 4 5 6 7 8 9 10; do
  echo "chaos seed ${seed} (ASan)"
  SSQL_CHAOS_SEED="${seed}" ./build-sanitize/tests/test_chaos
  echo "chaos seed ${seed} (TSan)"
  SSQL_CHAOS_SEED="${seed}" ./build-tsan/tests/test_chaos
done

# Vectorized chaos lane: same fault storm over the batched pipeline with a
# degenerate batch size (SSQL_BATCH_SIZE=1 caches the workload tables and
# forces one row per batch — the maximum rate of batch-boundary crossings,
# where selection-vector and null-mask bugs live).
for seed in 1 2 3; do
  echo "chaos seed ${seed} batch_size=1 (ASan)"
  SSQL_BATCH_SIZE=1 SSQL_CHAOS_SEED="${seed}" ./build-sanitize/tests/test_chaos
  echo "chaos seed ${seed} batch_size=1 (TSan)"
  SSQL_BATCH_SIZE=1 SSQL_CHAOS_SEED="${seed}" ./build-tsan/tests/test_chaos
done

# Smoke the instrumentation-overhead benchmark (a few quick repetitions; the
# full comparison is a manual/CI readout, not a gate).
./build/bench/bench_observe --benchmark_min_time=0.05
