// Telemetry layer: JSON writer/parser/schema validator, the trace recorder
// ring, Chrome trace-event export (golden bytes), config fingerprints, and —
// the properties the whole subsystem is built around — observation does not
// perturb the simulation, and traces are bit-identical at any --jobs value.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "obs/fingerprint.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace gemsd {
namespace {

SystemConfig quick_config(int nodes = 2) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = nodes;
  cfg.coupling = Coupling::GemLocking;
  cfg.update = UpdateStrategy::NoForce;
  cfg.routing = Routing::Random;
  cfg.warmup = 1.0;
  cfg.measure = 3.0;
  cfg.seed = 42;
  return cfg;
}

// ---------------------------------------------------------------- JSON core

TEST(Json, WriterParserRoundtrip) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("name", "a \"quoted\"\nstring");
  w.kv("count", std::int64_t{-3});
  w.kv("ratio", 0.25);
  w.kv("flag", true);
  w.key("missing");
  w.value_null();
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{18446744073709551615ull});
  w.value(1.5e-9);
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.kv("x", 1.0);
  w.end_object();
  w.end_object();

  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(w.str(), doc, err)) << err;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("name")->str, "a \"quoted\"\nstring");
  EXPECT_DOUBLE_EQ(doc.find("count")->num, -3.0);
  EXPECT_DOUBLE_EQ(doc.find("ratio")->num, 0.25);
  EXPECT_TRUE(doc.find("flag")->b);
  EXPECT_EQ(doc.find("missing")->kind, obs::JsonValue::Kind::Null);
  ASSERT_EQ(doc.find("list")->arr.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.find("nested")->find("x")->num, 1.0);
}

TEST(Json, NumbersMatchPrintf) {
  // The writer formats with std::to_chars; its documents must keep the
  // bytes of the %lld / %.12g formatting they were defined with.
  const auto printf_number = [](double v) {
    char buf[40];
    if (!std::isfinite(v)) return std::string("0");
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof buf, "%.12g", v);
    }
    return std::string(buf);
  };
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1e-300, 5e-324, -2.5e-310, 1e15,
      1e15 - 1, 999999999999999.5, 1e16, 123456789012.5, 1e21, 1e22, 1e300,
      1.7976931348623157e308, 0.000123456789012345, 1234.5678, 9.99999999999995,
      std::numeric_limits<double>::infinity(), std::nan("")};
  std::mt19937_64 eng(7);
  for (int i = 0; i < 20000; ++i) {
    // Random bit patterns cover every exponent; scaled uniforms cover the
    // ranges traces and metrics actually hold.
    const std::uint64_t bits = eng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    values.push_back(d);
    const double u = static_cast<double>(eng() >> 11) * 0x1p-53;
    values.push_back(u * std::pow(10.0, static_cast<double>(i % 24 - 12)));
  }
  for (double v : values) {
    ASSERT_EQ(obs::JsonWriter::number(v), printf_number(v)) << v;
    obs::JsonWriter w;
    w.value(v);
    ASSERT_EQ(w.str(), printf_number(v));
  }
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1},
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    obs::JsonWriter w;
    w.value(v);
    EXPECT_EQ(w.str(), std::to_string(v));
  }
  obs::JsonWriter w;
  w.value(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(w.str(), "18446744073709551615");
}

TEST(Json, ParserRejectsMalformedInput) {
  obs::JsonValue doc;
  std::string err;
  EXPECT_FALSE(obs::json_parse("{\"a\":}", doc, err));
  EXPECT_FALSE(obs::json_parse("[1,2", doc, err));
  EXPECT_FALSE(obs::json_parse("{} trailing", doc, err));
  EXPECT_FALSE(obs::json_parse("", doc, err));
}

// The parser recurses once per level: 512 levels parse, and anything deeper
// fails with an error, not a stack overflow, through both entry points.
TEST(Json, NestingDeeperThan512LevelsFails) {
  const auto nested = [](std::size_t levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  const std::function<void(const obs::JsonValue&)> drop =
      [](const obs::JsonValue&) {};
  for (const bool each : {false, true}) {
    SCOPED_TRACE(each ? "json_parse_each" : "json_parse");
    const auto parse = [&](const std::string& text, std::string& err) {
      obs::JsonValue doc;
      return each ? obs::json_parse_each(text, "runs", drop, doc, err)
                  : obs::json_parse(text, doc, err);
    };
    std::string err;
    EXPECT_TRUE(parse(nested(512), err)) << err;
    for (const std::size_t levels : {std::size_t{513}, std::size_t{100000}}) {
      EXPECT_FALSE(parse(nested(levels), err));
      EXPECT_EQ(err, "nesting too deep");
    }
  }
  // The streamed member counts as a level: the top object, the array, and
  // 510 levels inside one element make 512.
  const auto doc_with = [&](std::size_t inner) {
    return "{\"runs\":[" + nested(inner) + "]}";
  };
  obs::JsonValue doc;
  std::string err;
  std::size_t elements = 0;
  const std::function<void(const obs::JsonValue&)> count =
      [&elements](const obs::JsonValue&) { ++elements; };
  EXPECT_TRUE(obs::json_parse_each(doc_with(510), "runs", count, doc, err))
      << err;
  EXPECT_EQ(elements, 1u);
  EXPECT_FALSE(obs::json_parse_each(doc_with(511), "runs", count, doc, err));
  EXPECT_EQ(err, "nesting too deep");
}

TEST(Json, SchemaAcceptsAndRejects) {
  const std::string schema_text = R"({
    "type": "object",
    "required": ["schema", "runs"],
    "properties": {
      "schema": {"type": "string", "enum": ["gemsd.results.v1"]},
      "runs": {
        "type": "array",
        "minItems": 1,
        "items": {"type": "object", "required": ["resp_ms"],
                  "properties": {"resp_ms": {"type": "number"}}}
      }
    }
  })";
  obs::JsonValue schema;
  std::string err;
  ASSERT_TRUE(obs::json_parse(schema_text, schema, err)) << err;

  obs::JsonValue doc;
  std::vector<std::string> problems;
  ASSERT_TRUE(obs::json_parse(
      R"({"schema":"gemsd.results.v1","runs":[{"resp_ms":12.5}]})", doc, err));
  EXPECT_TRUE(obs::json_schema_validate(schema, doc, problems))
      << (problems.empty() ? "" : problems.front());

  // Missing required key inside items.
  problems.clear();
  ASSERT_TRUE(obs::json_parse(R"({"schema":"gemsd.results.v1","runs":[{}]})",
                              doc, err));
  EXPECT_FALSE(obs::json_schema_validate(schema, doc, problems));
  EXPECT_FALSE(problems.empty());

  // Wrong enum value.
  problems.clear();
  ASSERT_TRUE(obs::json_parse(R"({"schema":"v2","runs":[{"resp_ms":1}]})",
                              doc, err));
  EXPECT_FALSE(obs::json_schema_validate(schema, doc, problems));

  // Wrong type.
  problems.clear();
  ASSERT_TRUE(obs::json_parse(
      R"({"schema":"gemsd.results.v1","runs":[{"resp_ms":"slow"}]})", doc,
      err));
  EXPECT_FALSE(obs::json_schema_validate(schema, doc, problems));

  // minItems violated.
  problems.clear();
  ASSERT_TRUE(
      obs::json_parse(R"({"schema":"gemsd.results.v1","runs":[]})", doc, err));
  EXPECT_FALSE(obs::json_schema_validate(schema, doc, problems));
}

// ------------------------------------------------------------ trace recorder

TEST(TraceRecorder, RingOverwritesOldestAndCountsDropped) {
  obs::TraceRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    rec.instant(obs::TraceName::kCommit, 0, static_cast<std::uint64_t>(i + 1),
                static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto events = rec.take();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (t=0, t=1) were overwritten; the rest come back in order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].t,
                     static_cast<double>(i + 2));
  }
}

TEST(TraceRecorder, ClearResetsRingAndDropCounter) {
  obs::TraceRecorder rec(2);
  for (int i = 0; i < 5; ++i) {
    rec.instant(obs::TraceName::kCommit, 0, 1, static_cast<double>(i));
  }
  EXPECT_GT(rec.dropped(), 0u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  rec.instant(obs::TraceName::kCommit, 0, 1, 9.0);
  const auto events = rec.take();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].t, 9.0);
}

TEST(TraceRecorder, TakeHandsOverTheWrappedRingInOrder) {
  obs::TraceRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    rec.instant(obs::TraceName::kCommit, 0, static_cast<std::uint64_t>(i + 1),
                static_cast<double>(i));
  }
  // Indexed reads (the auditor's cursor) see the ring in order, unrotated.
  EXPECT_DOUBLE_EQ(rec[0].t, 2.0);
  EXPECT_DOUBLE_EQ(rec[3].t, 5.0);
  const std::vector<obs::TraceEvent> events = rec.take();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].t, static_cast<double>(i + 2));
  }
  EXPECT_EQ(rec.dropped(), 2u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.take().empty());
}

TEST(TraceRecorder, UnreservableCapacityNamesTheFlag) {
  // Above max_size() reserve throws before it allocates anything (a
  // merely huge request would reach the allocator, which a sanitizer build
  // turns into an abort instead of bad_alloc).
  const std::size_t too_many = std::vector<obs::TraceEvent>().max_size() + 1;
  try {
    obs::TraceRecorder rec(too_many);
    FAIL() << "a ring of " << too_many << " events was reserved";
  } catch (const std::length_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--trace-capacity"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(too_many) + " trace events"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("bytes"), std::string::npos) << what;
  }
}

TEST(SlowTxnLog, KeepsKSlowestInDeterministicOrder) {
  obs::SlowTxnLog log(3);
  for (int i = 0; i < 10; ++i) {
    obs::SlowTxn t;
    t.id = static_cast<std::uint64_t>(i);
    t.arrival = static_cast<double>(i);
    t.response = static_cast<double>((i * 7) % 10);  // 0,7,4,1,8,5,2,9,6,3
    log.add(t);
  }
  const auto slowest = log.sorted();
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_DOUBLE_EQ(slowest[0].response, 9.0);
  EXPECT_DOUBLE_EQ(slowest[1].response, 8.0);
  EXPECT_DOUBLE_EQ(slowest[2].response, 7.0);
}

// ------------------------------------------------------------- trace export

TEST(ChromeTrace, GoldenSnippet) {
  obs::RunTelemetry tel;
  tel.stats_start = 0.5;
  tel.end = 2.0;
  tel.trace_enabled = true;

  obs::TraceRecorder rec(64);
  rec.span(obs::TraceName::kTxn, 0, 3, 1.0, 1.05, 2.0);
  rec.phase_total(obs::TraceName::kPhaseCpu, 0, 3, 1.05, 0.010);
  rec.phase_total(obs::TraceName::kPhaseIo, 0, 3, 1.05, 0.030);
  rec.instant(obs::TraceName::kCommit, 0, 3, 1.05);
  rec.flow(obs::TraceKind::FlowBegin, 0, 7, 1.01, false);
  rec.flow(obs::TraceKind::FlowEnd, 1, 7, 1.02, false);
  tel.events = rec.take();

  const std::string json = obs::chrome_trace_json(tel, {{"seed", "42"}});

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\","
      "\"otherData\":{\"schema\":\"gemsd.trace.v1\",\"seed\":42,"
      "\"stats_start_s\":0.5,\"end_s\":2,\"events_dropped\":0},"
      "\"traceEvents\":["
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
      "\"args\":{\"name\":\"cluster\"}},"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
      "\"args\":{\"name\":\"node0\"}},"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"background\"}},"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,"
      "\"args\":{\"name\":\"node1\"}},"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"background\"}},"
      "{\"name\":\"txn\",\"cat\":\"txn\",\"ph\":\"X\",\"pid\":1,\"tid\":4,"
      "\"ts\":1000000,\"dur\":50000,"
      "\"args\":{\"id\":3,\"cpu_ms\":10,\"cpu_wait_ms\":0,\"io_ms\":30,"
      "\"cc_ms\":0,\"mpl_wait_ms\":0,\"restarts\":0,\"type\":2}},"
      "{\"name\":\"commit\",\"cat\":\"txn\",\"ph\":\"i\",\"pid\":1,"
      "\"tid\":4,\"ts\":1050000,\"args\":{\"id\":3},\"s\":\"t\"},"
      "{\"name\":\"msg\",\"cat\":\"net\",\"ph\":\"s\",\"pid\":1,\"tid\":0,"
      "\"ts\":1010000,\"id\":7},"
      "{\"name\":\"msg\",\"cat\":\"net\",\"ph\":\"f\",\"pid\":2,\"tid\":0,"
      "\"ts\":1020000,\"bp\":\"e\",\"id\":7}"
      "]}";
  EXPECT_EQ(json, expected);

  // The golden bytes must themselves be valid JSON.
  obs::JsonValue doc;
  std::string err;
  EXPECT_TRUE(obs::json_parse(json, doc, err)) << err;
}

TEST(ChromeTrace, StreamedExportEqualsInMemoryRender) {
  const RunResult r = run_debit_credit([] {
    SystemConfig cfg = quick_config();
    cfg.obs.trace = true;
    return cfg;
  }());
  ASSERT_TRUE(r.telemetry && r.telemetry->trace_enabled);
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"seed", "42"}};
  const std::string whole = obs::chrome_trace_json(*r.telemetry, meta);
  ASSERT_GT(whole.size(), 4 * obs::JsonWriter::kFlushBytes);

  // Through a sink: several chunks, none far beyond the flush size.
  std::string joined;
  std::size_t chunks = 0, largest = 0;
  {
    obs::JsonWriter w([&](std::string_view chunk) {
      joined += chunk;
      ++chunks;
      largest = std::max(largest, chunk.size());
    });
    obs::chrome_trace_json(w, *r.telemetry, meta);
    w.flush();
  }
  EXPECT_EQ(joined, whole);
  EXPECT_GE(chunks, 4u);
  EXPECT_LE(largest, obs::JsonWriter::kFlushBytes + 1024);

  // Through the streaming file writer, as write_artifacts does it.
  const std::string path = ::testing::TempDir() + "gemsd_streamed_trace_" +
                           std::to_string(::getpid()) + ".json";
  ASSERT_EQ(obs::write_file(path,
                            [&](const obs::ByteSink& sink) {
                              obs::JsonWriter w(sink);
                              obs::chrome_trace_json(w, *r.telemetry, meta);
                              w.flush();
                            }),
            "");
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_EQ(file, whole);
}

// ------------------------------------------------------------- fingerprints

TEST(Fingerprint, ObsSettingsDoNotChangeConfigIdentity) {
  SystemConfig a = quick_config();
  SystemConfig b = a;
  b.obs.trace = true;
  b.obs.sample_every = 0.25;
  b.obs.slow_k = 10;
  EXPECT_EQ(obs::config_hash(a), obs::config_hash(b));

  SystemConfig c = a;
  c.seed = a.seed + 1;
  EXPECT_NE(obs::config_hash(a), obs::config_hash(c));
  SystemConfig d = a;
  d.buffer_pages = a.buffer_pages + 1;
  EXPECT_NE(obs::config_hash(a), obs::config_hash(d));

  EXPECT_EQ(obs::config_hash_hex(a).size(), 16u);
}

TEST(Fingerprint, ConfigJsonIsValidJson) {
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(obs::config_json(quick_config()), doc, err))
      << err;
  EXPECT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.find("nodes")->num, 2.0);
}

// ----------------------------------------------------- observation in a run

TEST(Observation, DisabledRunRecordsNoEvents) {
  SystemConfig cfg = quick_config();
  ASSERT_FALSE(cfg.obs.trace);
  const RunResult r = run_debit_credit(cfg);
  ASSERT_TRUE(r.telemetry);
  EXPECT_FALSE(r.telemetry->trace_enabled);
  EXPECT_TRUE(r.telemetry->events.empty());
  EXPECT_EQ(r.telemetry->events_dropped, 0u);
  EXPECT_TRUE(r.telemetry->slowest.empty());
  // The detail dump is always collected.
  EXPECT_FALSE(r.telemetry->detail.empty());
}

TEST(Observation, DoesNotPerturbTheSimulation) {
  const SystemConfig plain = quick_config();
  SystemConfig observed = plain;
  observed.obs.trace = true;
  observed.obs.trace_capacity = 1 << 16;
  observed.obs.slow_k = 5;

  const RunResult a = run_debit_credit(plain);
  const RunResult b = run_debit_credit(observed);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.resp_ms, b.resp_ms);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.cpu_util, b.cpu_util);
  EXPECT_EQ(a.brk_io_ms, b.brk_io_ms);

  ASSERT_TRUE(b.telemetry);
  EXPECT_TRUE(b.telemetry->trace_enabled);
  EXPECT_FALSE(b.telemetry->events.empty());
  EXPECT_FALSE(b.telemetry->slowest.empty());
}

// The heartbeat never perturbs results: a period that can't elapse still
// installs the hook on the hot path, and every metric stays identical.
TEST(Observation, ProgressHeartbeatDoesNotPerturbMetrics) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = 2;
  cfg.warmup = 0.1;
  cfg.measure = 0.4;
  const RunResult off = run_debit_credit(cfg);
  cfg.obs.progress_every_s = 3600.0;
  const RunResult on = run_debit_credit(cfg);
  EXPECT_EQ(on.commits, off.commits);
  EXPECT_DOUBLE_EQ(on.throughput, off.throughput);
  EXPECT_DOUBLE_EQ(on.resp_ms, off.resp_ms);
  EXPECT_DOUBLE_EQ(on.cpu_util, off.cpu_util);
}

// The scheduler self-metrics in the detail block read the one Scheduler
// that drives the run, under the `sched.` prefix; no key starts with
// `engine`.
TEST(Observation, DetailCarriesSchedulerCounters) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = 2;
  cfg.warmup = 0.1;
  cfg.measure = 0.2;
  System sys(cfg, make_debit_credit_workload(cfg));
  const RunResult r = sys.run();
  ASSERT_TRUE(r.telemetry);
  double events = -1, maxq = -1, wall = -1;
  for (const auto& kv : r.telemetry->detail) {
    EXPECT_NE(kv.first.rfind("engine", 0), 0u) << kv.first;
    if (kv.first == "sched.events") events = kv.second;
    if (kv.first == "sched.max_queue_depth") maxq = kv.second;
    if (kv.first == "sched.wall_events_per_s") wall = kv.second;
  }
  EXPECT_GT(events, 0);
  EXPECT_EQ(events,
            static_cast<double>(sys.scheduler().events_processed()));
  EXPECT_EQ(maxq, static_cast<double>(sys.scheduler().max_queued()));
  EXPECT_GT(wall, 0);
}

TEST(Observation, TraceIsBitIdenticalAtAnyJobCount) {
  std::vector<SystemConfig> cfgs;
  for (int n : {1, 2, 3}) {
    SystemConfig cfg = quick_config(n);
    cfg.warmup = 0.5;
    cfg.measure = 2.0;
    cfgs.push_back(cfg);
  }
  cfgs[1].obs.trace = true;
  cfgs[1].obs.trace_capacity = 1 << 16;
  cfgs[1].obs.slow_k = 5;

  const std::vector<RunResult> serial = SweepRunner(1).run_debit_credit(cfgs);
  const std::vector<RunResult> parallel = SweepRunner(4).run_debit_credit(cfgs);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);

  const std::vector<std::pair<std::string, std::string>> meta = {
      {"seed", "42"}};
  ASSERT_TRUE(serial[1].telemetry && parallel[1].telemetry);
  const std::string trace_serial =
      obs::chrome_trace_json(*serial[1].telemetry, meta);
  const std::string trace_parallel =
      obs::chrome_trace_json(*parallel[1].telemetry, meta);
  EXPECT_EQ(trace_serial, trace_parallel);
  EXPECT_FALSE(serial[1].telemetry->events.empty());

  // The slow-transaction log is part of the same guarantee.
  const auto& slow_serial = serial[1].telemetry->slowest;
  const auto& slow_parallel = parallel[1].telemetry->slowest;
  ASSERT_EQ(slow_serial.size(), slow_parallel.size());
  for (std::size_t i = 0; i < slow_serial.size(); ++i) {
    EXPECT_EQ(slow_serial[i].id, slow_parallel[i].id);
    EXPECT_EQ(slow_serial[i].response, slow_parallel[i].response);
  }
}

TEST(Observation, TxnPhaseTotalsReconcileWithReportedBreakdown) {
  SystemConfig cfg = quick_config();
  cfg.obs.trace = true;
  cfg.obs.trace_capacity = 1 << 20;  // keep every event, no ring drops
  const RunResult r = run_debit_credit(cfg);
  ASSERT_TRUE(r.telemetry && r.telemetry->trace_enabled);
  ASSERT_EQ(r.telemetry->events_dropped, 0u);
  ASSERT_GT(r.commits, 0u);

  double cpu = 0, cpu_wait = 0, io = 0, cc = 0, queue = 0;
  std::uint64_t txn_spans = 0;
  for (const auto& e : r.telemetry->events) {
    if (e.kind == obs::TraceKind::Span && e.name == obs::TraceName::kTxn) {
      ++txn_spans;
    }
    if (e.kind != obs::TraceKind::PhaseTotal) continue;
    switch (e.name) {
      case obs::TraceName::kPhaseCpu: cpu += e.value; break;
      case obs::TraceName::kPhaseCpuWait: cpu_wait += e.value; break;
      case obs::TraceName::kPhaseIo: io += e.value; break;
      case obs::TraceName::kPhaseCc: cc += e.value; break;
      case obs::TraceName::kPhaseQueue: queue += e.value; break;
      default: break;
    }
  }
  EXPECT_EQ(txn_spans, r.commits);

  const double per_txn_ms = 1e3 / static_cast<double>(r.commits);
  const auto within_1pct = [](double got, double want) {
    return std::abs(got - want) <= 0.01 * std::max(want, 1e-9) + 1e-9;
  };
  EXPECT_TRUE(within_1pct(cpu * per_txn_ms, r.brk_cpu_ms))
      << cpu * per_txn_ms << " vs " << r.brk_cpu_ms;
  EXPECT_TRUE(within_1pct(cpu_wait * per_txn_ms, r.brk_cpu_wait_ms))
      << cpu_wait * per_txn_ms << " vs " << r.brk_cpu_wait_ms;
  EXPECT_TRUE(within_1pct(io * per_txn_ms, r.brk_io_ms))
      << io * per_txn_ms << " vs " << r.brk_io_ms;
  EXPECT_TRUE(within_1pct(cc * per_txn_ms, r.brk_cc_ms))
      << cc * per_txn_ms << " vs " << r.brk_cc_ms;
  EXPECT_TRUE(within_1pct(queue * per_txn_ms, r.brk_queue_ms))
      << queue * per_txn_ms << " vs " << r.brk_queue_ms;
}

}  // namespace
}  // namespace gemsd
