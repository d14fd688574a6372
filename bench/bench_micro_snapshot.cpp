// Microbenchmarks (google-benchmark) for the snapshot engine: capture and
// restore throughput versus heap size and typed-array payload, plus the
// text-expansion factor the partitioner's estimate relies on.
#include <benchmark/benchmark.h>

#include "src/jsvm/snapshot.h"

namespace {

using namespace offload;

std::string heap_program(int objects) {
  std::string src =
      "var root = [];\n"
      "for (var i = 0; i < " + std::to_string(objects) + "; i++) {\n"
      "  root.push({id: i, name: 'node' + i, tags: [i, i * 2], child: null});\n"
      "  if (i > 0) { root[i].child = root[i - 1]; }\n"
      "}\n";
  return src;
}

void BM_SnapshotCaptureHeap(benchmark::State& state) {
  jsvm::Interpreter interp;
  interp.eval_program(heap_program(static_cast<int>(state.range(0))));
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto snap = jsvm::capture_snapshot(interp);
    bytes = snap.stats.total_bytes;
    benchmark::DoNotOptimize(snap);
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(bytes) * static_cast<double>(state.iterations()) /
          1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotCaptureHeap)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotRestoreHeap(benchmark::State& state) {
  jsvm::Interpreter interp;
  interp.eval_program(heap_program(static_cast<int>(state.range(0))));
  auto snap = jsvm::capture_snapshot(interp);
  for (auto _ : state) {
    jsvm::Interpreter fresh;
    jsvm::restore_snapshot(fresh, snap.program);
    benchmark::DoNotOptimize(fresh.globals());
  }
}
BENCHMARK(BM_SnapshotRestoreHeap)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// A realm holding one n-element Float32Array of feature-like values.
void fill_feature(jsvm::Interpreter& interp, std::int64_t n) {
  interp.eval_program(
      "var feature = Float32Array(" + std::to_string(n) + ");\n"
      "for (var i = 0; i < feature.length; i++) {\n"
      "  feature[i] = i * 0.001 - 17.5;\n"
      "}\n");
}

// Feature-data path: one big Float32Array. The text/base64 pairs run at the
// same sizes so each pair compares like with like within one run.
void typed_array_capture(benchmark::State& state, bool base64) {
  jsvm::Interpreter interp;
  const auto n = state.range(0);
  fill_feature(interp, n);
  jsvm::SnapshotOptions opts;
  opts.base64_typed_arrays = base64;
  std::uint64_t payload_bytes = 0;
  for (auto _ : state) {
    auto snap = jsvm::capture_snapshot(interp, opts);
    payload_bytes = snap.stats.typed_array_bytes;
    benchmark::DoNotOptimize(snap);
  }
  state.counters["text_expansion"] =
      static_cast<double>(payload_bytes) / (static_cast<double>(n) * 4.0);
}

void typed_array_restore(benchmark::State& state, bool base64) {
  jsvm::Interpreter interp;
  fill_feature(interp, state.range(0));
  jsvm::SnapshotOptions opts;
  opts.base64_typed_arrays = base64;
  const auto snap = jsvm::capture_snapshot(interp, opts);
  for (auto _ : state) {
    jsvm::Interpreter fresh;
    jsvm::restore_snapshot(fresh, snap.program);
    benchmark::DoNotOptimize(fresh.globals());
  }
  state.counters["snapshot_bytes"] =
      static_cast<double>(snap.stats.total_bytes);
}

void BM_SnapshotTypedArray(benchmark::State& state) {
  typed_array_capture(state, /*base64=*/false);
}
void BM_SnapshotTypedArrayBase64(benchmark::State& state) {
  typed_array_capture(state, /*base64=*/true);
}
void BM_SnapshotRestoreTypedArray(benchmark::State& state) {
  typed_array_restore(state, /*base64=*/false);
}
void BM_SnapshotRestoreTypedArrayBase64(benchmark::State& state) {
  typed_array_restore(state, /*base64=*/true);
}

void typed_array_sizes(benchmark::internal::Benchmark* b) {
  b->Arg(10'000)
      ->Arg(100'000)
      ->Arg(802'816)  // GoogLeNet conv1 feature (64x112x112)
      ->Unit(benchmark::kMillisecond);
}
BENCHMARK(BM_SnapshotTypedArray)->Apply(typed_array_sizes);
BENCHMARK(BM_SnapshotTypedArrayBase64)->Apply(typed_array_sizes);
BENCHMARK(BM_SnapshotRestoreTypedArray)->Apply(typed_array_sizes);
BENCHMARK(BM_SnapshotRestoreTypedArrayBase64)->Apply(typed_array_sizes);

void BM_SnapshotRoundTripWithPendingEvent(benchmark::State& state) {
  jsvm::Interpreter interp;
  interp.eval_program(
      "var n = 0;\n"
      "var btn = document.createElement('button');\n"
      "document.body.appendChild(btn);\n"
      "btn.addEventListener('go', function() { n = n + 1; });\n"
      "btn.dispatchEvent('go');\n");
  auto snap = jsvm::capture_snapshot(interp);
  for (auto _ : state) {
    jsvm::Interpreter fresh;
    jsvm::restore_snapshot(fresh, snap.program);
    fresh.run_events();
    benchmark::DoNotOptimize(fresh.stats());
  }
}
BENCHMARK(BM_SnapshotRoundTripWithPendingEvent)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
