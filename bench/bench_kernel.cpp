// Microbenchmarks for the discrete-event kernel: raw event throughput,
// coroutine process spawn/await cost, resource contention handling, and the
// fast-path split between handle-resume events (no allocation) and callback
// events (side-slab std::function slots).
//
// Besides the google-benchmark console table this emits the same
// "gemsd.results.v1" document as the figure benches (default
// results/BENCH_kernel.json, see --metrics-json/--no-json): one run per
// micro-benchmark, named after it, with the wall-clock numbers in `extra`.
// gemsd_analyze --compare matches kernel runs by name and reports their
// deltas, but never gates on them — wall-clock time is machine-dependent,
// unlike the simulated metrics. A results file that cannot be written
// exits 1.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace {

using namespace gemsd::sim;

void BM_ScheduleCallbacks(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler s;
    long hits = 0;
    for (int i = 0; i < 10000; ++i) {
      s.schedule_call(i * 1e-6, [&hits] { ++hits; });
    }
    s.run_all();
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ScheduleCallbacks);

Task<void> hopper(Scheduler& s, int hops) {
  for (int i = 0; i < hops; ++i) co_await s.delay(1e-6);
}

void BM_ProcessDelayHops(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler s;
    for (int p = 0; p < 100; ++p) s.spawn(hopper(s, 100));
    s.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 100 * 100);
}
BENCHMARK(BM_ProcessDelayHops);

Task<void> contender(Scheduler& s, Resource& r) {
  for (int i = 0; i < 20; ++i) co_await r.use(1e-5);
  (void)s;
}

void BM_ResourceContention(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler s;
    Resource r(s, 4);
    for (int p = 0; p < 200; ++p) s.spawn(contender(s, r));
    s.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 200 * 20);
}
BENCHMARK(BM_ResourceContention);

// Mixed workload: the realistic event stream of a full simulation —
// coroutine resumes (page waits, CPU grants) interleaved with timer-style
// callbacks (arrival generators). One in every `ratio` events is a callback;
// the rest ride the allocation-free handle lane.
void BM_MixedHandleCallback(benchmark::State& state) {
  const int ratio = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler s;
    long hits = 0;
    const int procs = 50;
    for (int p = 0; p < procs; ++p) s.spawn(hopper(s, 100));
    for (int i = 0; i < procs * 100 / ratio; ++i) {
      s.schedule_call(i * 1e-6, [&hits] { ++hits; });
    }
    s.run_all();
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          (50 * 100 + 50 * 100 / state.range(0)));
}
BENCHMARK(BM_MixedHandleCallback)->Arg(2)->Arg(10)->Arg(100);

// Queue-depth sweep: schedule `depth` pending events before draining so the
// heap's sift cost (log depth) and memory traffic dominate. The flat 24-byte
// entries keep deep queues cache-resident where Ev{handle, std::function}
// (56+ bytes, heap-backed) thrashed.
void BM_QueueDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler s;
    for (int p = 0; p < depth; ++p) s.spawn(hopper(s, 10));
    s.run_all();
  }
  state.SetItemsProcessed(state.iterations() * depth * 10);
}
BENCHMARK(BM_QueueDepth)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

// Sharded-GLT throughput: the full System model on a GLT-bound debit-credit
// configuration (GEM entry ops at 100 us dominate), swept over gem_shards
// {1,2,4,8}. items_per_second counts committed transactions per wall-clock
// second; the interesting readout is how commits/s recovers as the single
// lock-server queue is split across shards — the simulated-throughput shape
// is asserted in sharded_glt_test.cpp, this bench tracks the wall-clock cost
// of running the sharded routing layer.
void BM_ShardedGlt(benchmark::State& state) {
  gemsd::SystemConfig cfg = gemsd::make_debit_credit_config();
  cfg.nodes = 10;
  cfg.coupling = gemsd::Coupling::GemLocking;
  cfg.update = gemsd::UpdateStrategy::NoForce;
  cfg.routing = gemsd::Routing::Random;
  cfg.buffer_pages = 1000;
  cfg.gem.entry_access = 100e-6;
  cfg.gem.shards = static_cast<int>(state.range(0));
  cfg.warmup = 0.5;
  cfg.measure = 2.0;
  std::uint64_t commits = 0;
  for (auto _ : state) {
    const gemsd::RunResult r = gemsd::run_debit_credit(cfg);
    commits = r.commits;
    benchmark::DoNotOptimize(r.resp_ms);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(commits));
}
BENCHMARK(BM_ShardedGlt)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Console output as usual, plus a copy of every per-iteration run for the
// results document. Counters are already rate-adjusted when they reach the
// reporter, so items_per_second can be read off directly.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double items_per_second = 0.0;
    double real_time_ns = 0.0;  ///< wall time per iteration
    double cpu_time_ns = 0.0;   ///< CPU time per iteration
    double iterations = 0.0;
  };
  std::vector<Captured> captured;

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      Captured c;
      c.name = r.benchmark_name();
      const auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) c.items_per_second = it->second.value;
      c.real_time_ns = r.GetAdjustedRealTime();
      c.cpu_time_ns = r.GetAdjustedCPUTime();
      c.iterations = static_cast<double>(r.iterations);
      captured.push_back(std::move(c));
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gemsd;

  // Split the command line: google-benchmark owns the --benchmark_* flags
  // (it aborts on unknown ones), parse_bench_args owns the rest (and exits
  // with usage on anything it doesn't know).
  std::vector<char*> bargv{argv[0]};
  std::vector<char*> gargv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      bargv.push_back(argv[i]);
    } else {
      gargv.push_back(argv[i]);
    }
  }
  int gargc = static_cast<int>(gargv.size());
  const BenchOptions opt = parse_bench_args(gargc, gargv.data());

  int bargc = static_cast<int>(bargv.size());
  benchmark::Initialize(&bargc, bargv.data());

  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // The kernel benches run no simulation: config is the default SystemConfig
  // (one shared config hash), the RunResult stays zero, and the measured
  // numbers ride in `extra` keyed by the benchmark name.
  std::vector<BenchRun> runs(reporter.captured.size());
  for (std::size_t i = 0; i < reporter.captured.size(); ++i) {
    const auto& c = reporter.captured[i];
    runs[i].name = c.name;
    runs[i].extra = {{"items_per_second", c.items_per_second},
                     {"real_time_ns", c.real_time_ns},
                     {"cpu_time_ns", c.cpu_time_ns},
                     {"iterations", c.iterations}};
  }
  try {
    for (const Artifact& a : write_artifacts(
             "kernel", "Discrete-event kernel microbenchmarks (wall clock)",
             opt, runs, {})) {
      std::printf("%s: %s\n", a.label.c_str(), a.path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
