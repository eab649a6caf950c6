// The trace replay's cross-checks (src/obs/critpath.*): phase totals
// against the reported breakdown, per-page waits, conflict pairs, the
// wait-for graph replay against the simulator's deadlock counter, and the
// Chrome-trace round trip the gemsd_analyze CLI rides on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/system.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"
#include "workload/workload.hpp"

namespace gemsd {
namespace {

using workload::PageRef;
using workload::TxnSpec;

constexpr std::uint64_t tid(int node, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(node) << 40) | seq;
}

// ------------------------------------------------------------ pure analysis

TEST(Analyze, EmptyTraceYieldsZeroAnalysis) {
  const obs::CritPathAnalysis a = obs::critical_path({}, 0);
  EXPECT_EQ(a.events, 0u);
  EXPECT_EQ(a.events_dropped, 0u);
  EXPECT_EQ(a.txns, 0u);
  EXPECT_TRUE(a.nodes.empty());
  EXPECT_TRUE(a.hot_pages.empty());
  EXPECT_TRUE(a.conflicts.empty());
  EXPECT_EQ(a.wait_edges, 0u);
  EXPECT_EQ(a.cycles, 0u);
  // Formatting an empty analysis must not crash and must stay well-formed.
  const std::string s = obs::format_critical_path(a, 10);
  EXPECT_NE(s.find("0 events"), std::string::npos);
  EXPECT_NE(s.find("(none)"), std::string::npos);
}

TEST(Analyze, SyntheticTwoPartyCycleIsCounted) {
  const std::uint64_t a_id = tid(0, 1), b_id = tid(1, 1);
  obs::TraceRecorder rec(64);
  // A waits for B, then B waits for A: the second batch closes the cycle.
  rec.instant(obs::TraceName::kWaitEdge, 0, a_id, 1.0,
              static_cast<double>(b_id));
  rec.instant(obs::TraceName::kWaitEdge, 1, b_id, 2.0,
              static_cast<double>(a_id));
  const obs::CritPathAnalysis an = obs::critical_path(rec.take(), 0);
  EXPECT_EQ(an.wait_edges, 2u);
  EXPECT_EQ(an.cycles, 1u);
  // Conflict pairs carry the waiter node and the holder's node (from the id).
  ASSERT_EQ(an.conflicts.size(), 2u);
  EXPECT_EQ(an.conflicts[0].waiter_node, 0);
  EXPECT_EQ(an.conflicts[0].holder_node, 1);
}

TEST(Analyze, SyntheticThreePartyCycle) {
  const std::uint64_t a = tid(0, 1), b = tid(1, 1), c = tid(2, 1);
  obs::TraceRecorder rec(64);
  rec.instant(obs::TraceName::kWaitEdge, 0, a, 1.0, static_cast<double>(b));
  rec.instant(obs::TraceName::kWaitEdge, 1, b, 2.0, static_cast<double>(c));
  rec.instant(obs::TraceName::kWaitEdge, 2, c, 3.0, static_cast<double>(a));
  const obs::CritPathAnalysis an = obs::critical_path(rec.take(), 0);
  EXPECT_EQ(an.wait_edges, 3u);
  EXPECT_EQ(an.cycles, 1u);
}

TEST(Analyze, GrantRetiresEdgesBeforeCycleForms) {
  const std::uint64_t a = tid(0, 1), b = tid(1, 1);
  obs::TraceRecorder rec(64);
  rec.instant(obs::TraceName::kWaitEdge, 0, a, 1.0, static_cast<double>(b));
  // A's wait ends in a grant (lock.wait span) — its edge must retire.
  rec.span(obs::TraceName::kLockWait, 0, a, 1.0, 2.0, /*page=*/7.0,
           /*aux=*/0);
  rec.instant(obs::TraceName::kWaitEdge, 1, b, 3.0, static_cast<double>(a));
  const obs::CritPathAnalysis an = obs::critical_path(rec.take(), 0);
  EXPECT_EQ(an.wait_edges, 2u);
  EXPECT_EQ(an.cycles, 0u);
  // The lock.wait span also feeds the hot-page table.
  ASSERT_EQ(an.hot_pages.size(), 1u);
  EXPECT_EQ(an.hot_pages[0].page, 7);
  EXPECT_EQ(an.hot_pages[0].waits, 1u);
}

TEST(Analyze, CommitAndRestartRetireEdges) {
  const std::uint64_t a = tid(0, 1), b = tid(1, 1);
  obs::TraceRecorder rec(64);
  rec.instant(obs::TraceName::kWaitEdge, 0, a, 1.0, static_cast<double>(b));
  rec.instant(obs::TraceName::kCommit, 0, a, 2.0);
  rec.instant(obs::TraceName::kWaitEdge, 1, b, 3.0, static_cast<double>(a));
  rec.instant(obs::TraceName::kRestart, 1, b, 4.0);
  rec.instant(obs::TraceName::kWaitEdge, 0, a, 5.0, static_cast<double>(b));
  const obs::CritPathAnalysis an = obs::critical_path(rec.take(), 0);
  EXPECT_EQ(an.cycles, 0u);
}

// ------------------------------------------------- analysis of real traces

SystemConfig traced_config(int nodes = 2) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = nodes;
  cfg.coupling = Coupling::GemLocking;
  cfg.update = UpdateStrategy::NoForce;
  cfg.routing = Routing::Random;
  cfg.warmup = 1.0;
  cfg.measure = 3.0;
  cfg.seed = 42;
  cfg.obs.trace = true;
  cfg.obs.trace_capacity = 1 << 20;
  return cfg;
}

/// The run's metrics as the gemsd.results.v1 "metrics" object (the exact
/// JSON gemsd_analyze --results consumes).
obs::JsonValue metrics_json(const RunResult& r) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("resp_ms", r.resp_ms);
  w.kv("commits", r.commits);
  w.key("breakdown_ms");
  w.begin_object();
  w.kv("cpu", r.brk_cpu_ms);
  w.kv("cpu_wait", r.brk_cpu_wait_ms);
  w.kv("io", r.brk_io_ms);
  w.kv("cc", r.brk_cc_ms);
  w.kv("queue", r.brk_queue_ms);
  w.end_object();
  w.end_object();
  obs::JsonValue doc;
  std::string err;
  EXPECT_TRUE(obs::json_parse(w.take(), doc, err)) << err;
  return doc;
}

TEST(Analyze, AttributionReconcilesWithReportedBreakdown) {
  const RunResult r = run_debit_credit(traced_config());
  ASSERT_TRUE(r.telemetry && r.telemetry->trace_enabled);
  ASSERT_EQ(r.telemetry->events_dropped, 0u);
  const obs::CritPathAnalysis a =
      obs::critical_path(r.telemetry->events, r.telemetry->events_dropped);
  EXPECT_EQ(a.txns, r.commits);

  const obs::JsonValue m = metrics_json(r);
  const obs::Reconciliation rec = obs::reconcile(a, m, 0.01);
  EXPECT_TRUE(rec.ok) << obs::format_reconciliation(rec);
  EXPECT_LE(rec.worst_rel_err, 0.01);
  ASSERT_EQ(rec.lines.size(), 5u);
}

TEST(Analyze, ChromeTraceRoundTripMatchesNativeAnalysis) {
  const RunResult r = run_debit_credit(traced_config());
  ASSERT_TRUE(r.telemetry);
  const obs::CritPathAnalysis native =
      obs::critical_path(r.telemetry->events, r.telemetry->events_dropped);

  const std::string json = obs::chrome_trace_json(*r.telemetry, {});
  std::vector<obs::TraceEvent> events;
  std::uint64_t dropped = 0;
  std::string err;
  ASSERT_TRUE(obs::parse_chrome_trace(json, events, dropped, err)) << err;
  const obs::CritPathAnalysis parsed = obs::critical_path(events, dropped);

  const auto lock_waits = [](const obs::CritPathAnalysis& a) {
    std::uint64_t n = 0;
    for (const obs::HotPage& hp : a.hot_pages) n += hp.waits;
    return n;
  };
  EXPECT_EQ(parsed.txns, native.txns);
  EXPECT_EQ(lock_waits(parsed), lock_waits(native));
  EXPECT_EQ(parsed.wait_edges, native.wait_edges);
  EXPECT_EQ(parsed.cycles, native.cycles);
  EXPECT_EQ(parsed.deadlock_instants, native.deadlock_instants);
  EXPECT_EQ(parsed.hot_pages.size(), native.hot_pages.size());
  // Timestamps go through a fixed-point microsecond encoding; phase sums
  // (cpu, io) survive to within a microsecond per transaction.
  for (const std::size_t k : {0, 2}) {
    EXPECT_NEAR(parsed.phase_s[k], native.phase_s[k],
                1e-6 * static_cast<double>(native.txns) + 1e-9);
  }
}

TEST(Analyze, ParserRejectsForeignDocuments) {
  std::string err;
  std::vector<obs::TraceEvent> events;
  std::uint64_t dropped = 0;
  EXPECT_FALSE(
      obs::parse_chrome_trace("{\"traceEvents\":[]}", events, dropped, err));
  EXPECT_FALSE(err.empty());
}

// The import converts traceEvents element by element, so it must not depend
// on where otherData sits, and a cut-off array must fail like any other
// malformed document.
obs::RunTelemetry small_telemetry() {
  obs::RunTelemetry tel;
  tel.trace_enabled = true;
  tel.events_dropped = 5;
  obs::TraceRecorder rec(64);
  rec.span(obs::TraceName::kTxn, 0, tid(0, 1), 1.0, 1.25, 0.0);
  rec.phase_total(obs::TraceName::kPhaseCpu, 0, tid(0, 1), 1.25, 0.01);
  rec.span(obs::TraceName::kLockWait, 1, tid(1, 2), 1.1, 1.2, 17.0, 2);
  rec.instant(obs::TraceName::kWaitEdge, 1, tid(1, 2), 1.1,
              static_cast<double>(tid(0, 1)));
  rec.flow(obs::TraceKind::FlowBegin, 0, 9, 1.05, /*long_msg=*/true);
  tel.events = rec.take();
  return tel;
}

TEST(ChromeImport, OtherDataAfterTraceEventsYieldsTheSameEvents) {
  const std::string json = obs::chrome_trace_json(small_telemetry(), {});
  std::vector<obs::TraceEvent> first;
  std::uint64_t first_dropped = 0;
  std::string err;
  ASSERT_TRUE(obs::parse_chrome_trace(json, first, first_dropped, err)) << err;
  ASSERT_EQ(first_dropped, 5u);
  ASSERT_FALSE(first.empty());

  // Move the otherData member behind traceEvents.
  const std::size_t od = json.find("\"otherData\":");
  const std::size_t te = json.find(",\"traceEvents\":");
  ASSERT_NE(od, std::string::npos);
  ASSERT_NE(te, std::string::npos);
  ASSERT_LT(od, te);
  const std::string other = json.substr(od, te - od);
  std::string moved = json.substr(0, od) + json.substr(te + 1);
  moved.insert(moved.size() - 1, "," + other);
  ASSERT_NE(moved, json);

  std::vector<obs::TraceEvent> second;
  std::uint64_t second_dropped = 0;
  ASSERT_TRUE(obs::parse_chrome_trace(moved, second, second_dropped, err))
      << err;
  EXPECT_EQ(second_dropped, first_dropped);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(std::memcmp(&first[i], &second[i], sizeof first[i]), 0) << i;
  }

  // Without otherData, wherever it would be, the document is foreign.
  const std::string foreign = json.substr(0, od) + json.substr(te + 1);
  EXPECT_FALSE(obs::parse_chrome_trace(foreign, second, second_dropped, err));
  EXPECT_NE(err.find("gemsd.trace.v1"), std::string::npos) << err;
  EXPECT_TRUE(second.empty());
}

TEST(ChromeImport, TruncatedTraceEventsFailsWithTheParserError) {
  const std::string json = obs::chrome_trace_json(small_telemetry(), {});
  // Cut inside the last event, then right after a complete one.
  const std::size_t last = json.rfind("{\"name\"");
  ASSERT_NE(last, std::string::npos);
  for (const std::string& cut :
       {json.substr(0, last + 10), json.substr(0, last - 1)}) {
    std::vector<obs::TraceEvent> events;
    std::uint64_t dropped = 0;
    std::string err;
    EXPECT_FALSE(obs::parse_chrome_trace(cut, events, dropped, err));
    obs::JsonValue doc;
    std::string parser_err;
    ASSERT_FALSE(obs::json_parse(cut, doc, parser_err));
    EXPECT_EQ(err, parser_err);
    EXPECT_TRUE(events.empty());
  }
}

TEST(Analyze, RingDropsAreSurfacedAndSurvivable) {
  SystemConfig cfg = traced_config();
  cfg.obs.trace_capacity = 1 << 10;  // deliberately too small
  const RunResult r = run_debit_credit(cfg);
  ASSERT_TRUE(r.telemetry);
  ASSERT_GT(r.telemetry->events_dropped, 0u);
  // Partial spans (txn commits whose start fell off the ring) must not
  // derail the analysis; the drop count travels with the result.
  const obs::CritPathAnalysis a =
      obs::critical_path(r.telemetry->events, r.telemetry->events_dropped);
  EXPECT_EQ(a.events_dropped, r.telemetry->events_dropped);
  EXPECT_GT(a.txns, 0u);
  EXPECT_LT(a.txns, r.commits);
}

// ------------------------------------------ wait-for replay vs the simulator

class ModGla : public workload::GlaMap {
 public:
  explicit ModGla(int nodes) : nodes_(nodes) {}
  NodeId gla(PageId p) const override {
    return static_cast<NodeId>(p.page % nodes_);
  }

 private:
  int nodes_;
};

struct NullGen : workload::WorkloadGenerator {
  TxnSpec next(sim::Rng&) override { return {}; }
  int num_types() const override { return 1; }
};

/// Deadlock-prone workload: short transactions locking random pages of a
/// tiny hot partition in random order (the stress-test recipe, seeded).
void run_hostile(SystemConfig cfg, std::uint64_t seed, RunResult& out,
                 std::vector<obs::TraceEvent>& events,
                 std::uint64_t& dropped) {
  // Deep lock queues emit one wait.edge per blocker, so keep the MPL modest
  // or the ring (which must hold the WHOLE run for an exact replay) blows up.
  cfg.mpl = 30;
  cfg.partitions.resize(1);
  auto& pc = cfg.partitions[0];
  pc.name = "T";
  pc.pages_per_unit = 48;
  pc.locked = true;
  pc.disks_per_unit = 8;
  cfg.obs.trace = true;
  cfg.obs.trace_capacity = 1 << 21;

  System::Workload wl;
  wl.gen = std::make_unique<NullGen>();
  wl.router = std::make_unique<workload::RandomRouter>(cfg.nodes);
  wl.gla = std::make_unique<ModGla>(cfg.nodes);
  System sys(cfg, std::move(wl));

  sim::Rng rng(seed);
  const int kTxns = 300;
  for (int i = 0; i < kTxns; ++i) {
    TxnSpec t;
    const int len = static_cast<int>(rng.uniform_int(2, 6));
    for (int k = 0; k < len; ++k) {
      t.refs.push_back(PageRef{PageId{0, rng.uniform_int(0, 47)},
                               rng.bernoulli(0.5)});
    }
    sys.submit(static_cast<NodeId>(rng.uniform_int(0, cfg.nodes - 1)), t);
  }
  sys.scheduler().run_all();
  out = sys.collect();
  ASSERT_TRUE(out.telemetry && out.telemetry->trace_enabled);
  events = out.telemetry->events;
  dropped = out.telemetry->events_dropped;
}

class WaitForReplay : public ::testing::TestWithParam<Coupling> {};

TEST_P(WaitForReplay, CycleCountMatchesDeadlockCounter) {
  SystemConfig cfg;
  cfg.nodes = 3;
  cfg.coupling = GetParam();
  cfg.update = GetParam() == Coupling::LockEngine ? UpdateStrategy::Force
                                                  : UpdateStrategy::NoForce;

  RunResult r;
  std::vector<obs::TraceEvent> events;
  std::uint64_t dropped = 0;
  run_hostile(cfg, 1234, r, events, dropped);
  ASSERT_EQ(dropped, 0u);
  ASSERT_GT(r.deadlocks, 0u) << "workload not hostile enough to deadlock";

  const obs::CritPathAnalysis a = obs::critical_path(events, dropped);
  EXPECT_EQ(a.deadlock_instants, r.deadlocks);
  EXPECT_EQ(a.cycles, r.deadlocks)
      << "replayed wait-for cycles diverge from the simulator's verdicts";
  EXPECT_GT(a.wait_edges, 0u);
}

INSTANTIATE_TEST_SUITE_P(Couplings, WaitForReplay,
                         ::testing::Values(Coupling::GemLocking,
                                           Coupling::PrimaryCopy,
                                           Coupling::LockEngine),
                         [](const auto& info) {
                           switch (info.param) {
                             case Coupling::GemLocking: return "GEM";
                             case Coupling::PrimaryCopy: return "PCL";
                             case Coupling::LockEngine: return "LE";
                           }
                           return "?";
                         });

}  // namespace
}  // namespace gemsd
