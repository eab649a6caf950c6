#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <regex>
#include <stdexcept>
#include <string_view>

#include "core/parse_number.hpp"
#include "obs/fingerprint.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "obs/resources.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace gemsd {

System::Workload make_trace_workload(const SystemConfig& cfg,
                                     const workload::Trace& trace) {
  System::Workload wl;
  wl.gen = std::make_unique<workload::TraceWorkload>(trace);
  const auto profile = workload::profile_trace(trace);
  const auto share = workload::make_affinity_routing(profile, cfg.nodes);
  if (cfg.routing == Routing::Random) {
    wl.router = std::make_unique<workload::RandomRouter>(cfg.nodes);
  } else {
    wl.router = std::make_unique<workload::TableRouter>(share);
  }
  // GLA allocation is coordinated with the affinity routing in both cases
  // (the paper computes the GLA from the reference distribution heuristics).
  wl.gla = std::make_unique<workload::FileGlaMap>(
      workload::make_gla_assignment(profile, share, cfg.nodes));
  return wl;
}

SystemConfig make_trace_config(const workload::Trace& trace) {
  SystemConfig c;
  c.arrival_rate_per_node = 50.0;
  c.buffer_pages = 1000;
  c.update = UpdateStrategy::NoForce;
  c.pcl_read_optimization = true;
  // Trace transactions are ~20x larger than debit-credit; keep the input
  // queue from becoming the bottleneck ("MPL high enough to avoid queuing
  // delays at the transaction manager").
  c.mpl = 400;
  // CPU path lengths sized so a ~57-reference transaction costs ~350k
  // instructions (the paper kept CPU and device characteristics as for
  // debit-credit; GEM runs showed ~45 % utilization at 50 TPS/node).
  c.path.bot_instr = 25000;
  c.path.per_ref_instr = 4200;
  c.path.eot_instr = 25000;
  c.partitions.resize(static_cast<std::size_t>(trace.num_files));
  for (int f = 0; f < trace.num_files; ++f) {
    auto& pc = c.partitions[static_cast<std::size_t>(f)];
    pc.name += 'F';
    pc.name += std::to_string(f);
    pc.pages_per_unit = 66000;  // upper bound; page ids come from the trace
    pc.blocking_factor = 1;
    pc.locked = true;
    // The trace DB size is constant, but the paper gives every configuration
    // "a sufficient number of disks to avoid I/O bottlenecks" — the spindle
    // count scales with the offered throughput (nodes), not the data volume.
    pc.scale_with_nodes = true;
    pc.disks_per_unit = 12;
    pc.storage = StorageKind::Disk;
  }
  return c;
}

RunResult run_trace(const SystemConfig& cfg, const workload::Trace& trace) {
  System sys(cfg, make_trace_workload(cfg, trace));
  return sys.run();
}

namespace {

/// Parse "--flag=value" into value iff `a` starts with "--flag=".
bool value_of(const std::string& a, const char* flag, std::string& out) {
  const std::size_t n = std::strlen(flag);
  if (a.compare(0, n, flag) != 0 || a.size() < n + 1 || a[n] != '=') {
    return false;
  }
  out = a.substr(n + 1);
  return true;
}

}  // namespace

std::string try_parse_bench_args(const std::vector<std::string>& args,
                                 BenchOptions& o) {
  for (const std::string& a : args) {
    std::string v;
    bool num_ok = true;
    if (a == "--quick") {
      o.warmup = 2.0;
      o.measure = 6.0;
    } else if (value_of(a, "--measure", v)) {
      num_ok = parse_number(v, o.measure) && std::isfinite(o.measure) &&
               o.measure > 0;
    } else if (value_of(a, "--warmup", v)) {
      num_ok = parse_number(v, o.warmup) && std::isfinite(o.warmup) &&
               o.warmup >= 0;
    } else if (value_of(a, "--max-nodes", v)) {
      num_ok = parse_number(v, o.max_nodes) && o.max_nodes >= 1;
    } else if (value_of(a, "--jobs", v)) {
      num_ok = parse_number(v, o.jobs);
    } else if (value_of(a, "--seed", v)) {
      num_ok = parse_number(v, o.seed);
    } else if (a == "--full") {
      o.full = true;
    } else if (a == "--csv") {
      o.csv = true;
    } else if (value_of(a, "--slow-k", v)) {
      num_ok = parse_number(v, o.slow_k);
    } else if (value_of(a, "--metrics-json", v)) {
      o.metrics_json = v;
    } else if (a == "--no-json") {
      o.no_json = true;
    } else if (value_of(a, "--trace", v)) {
      o.trace_file = v;
    } else if (value_of(a, "--trace-run", v)) {
      num_ok = parse_number(v, o.trace_run);
    } else if (value_of(a, "--trace-capacity", v)) {
      num_ok = parse_number(v, o.trace_capacity) && o.trace_capacity >= 1;
    } else if (value_of(a, "--trace-filter", v)) {
      // Validate here: a bad regex must refuse to start the sweep, not throw
      // out of a worker thread mid-run.
      try {
        (void)obs::trace_name_filter(v);
      } catch (const std::regex_error&) {
        return "malformed value in '" + a + "' (not a valid regex)";
      }
      o.trace_filter = v;
    } else if (a == "--audit") {
      o.audit = true;
    } else if (a == "--progress") {
      o.progress_every_s = 10.0;
    } else if (value_of(a, "--progress", v)) {
      num_ok = parse_number(v, o.progress_every_s) && o.progress_every_s > 0;
    } else if (a == "--timeseries") {
      o.timeseries = true;
    } else if (value_of(a, "--timeseries", v)) {
      o.timeseries = true;
      o.timeseries_file = v;
    } else if (value_of(a, "--timeseries-window", v)) {
      o.timeseries = true;
      num_ok =
          parse_number(v, o.timeseries_window) && o.timeseries_window > 0;
    } else if (a == "--resources") {
      o.resources = true;
    } else if (value_of(a, "--resources", v)) {
      o.resources = true;
      o.resources_file = v;
    } else {
      // Catches typos ("--job=4"), unknown flags, and the space form
      // ("--warmup 5", which arrives as a bare "--warmup" plus a stray
      // value) — running a full sweep with silently-defaulted settings is
      // worse than refusing to start.
      return "unknown argument '" + a + "' (value flags take --flag=value)";
    }
    if (!num_ok) return "malformed value in '" + a + "'";
  }
  return "";
}

std::string bench_usage(const std::vector<std::string>& omit) {
  static const char kUsage[] =
      "  --quick            shorter measurement interval (CI-friendly):\n"
      "                     warmup 2 s, measure 6 s. Later flags win, so\n"
      "                     '--quick --warmup=5' restores the default cut\n"
      "  --measure=S        measurement seconds, finite and > 0 (default 20)\n"
      "  --warmup=S         warm-up seconds, finite and >= 0 (default 5, the\n"
      "                     SystemConfig::warmup default; check it after the\n"
      "                     fact with gemsd_analyze --timeseries)\n"
      "  --max-nodes=N      cap the node sweep, >= 1\n"
      "  --jobs=N           worker threads (0 = hardware_concurrency)\n"
      "  --seed=S           simulation seed, 0 .. 2^64 - 1\n"
      "  --full             verbose per-run diagnostics\n"
      "  --csv              machine-readable output\n"
      "  --slow-k=K         record the K slowest transactions per run\n"
      "  --metrics-json=F   structured results file\n"
      "  --no-json          skip the structured results file\n"
      "  --trace=F          Chrome trace-event JSON of one sweep point\n"
      "  --trace-run=I      which sweep point gets traced (default 0)\n"
      "  --trace-capacity=N trace ring-buffer capacity [events], >= 1\n"
      "  --trace-filter=RE  record only events whose name matches the regex\n"
      "  --audit            online invariant auditors (fail fast)\n"
      "  --progress[=SECS]  stderr JSONL heartbeat (default 10s period)\n"
      "  --timeseries[=F]   per-window time series of the --trace-run point\n"
      "                     (gemsd.timeseries.v1 JSON; default\n"
      "                     results/TIMESERIES_<bench>.json)\n"
      "  --timeseries-window=S  window width [sim s] (default 0.5; doubles\n"
      "                     when the window cap is hit)\n"
      "  --resources[=F]    per-resource operational snapshot of the\n"
      "                     --trace-run point (gemsd.resources.v1 JSON;\n"
      "                     default results/RESOURCES_<bench>.json; analyze\n"
      "                     with gemsd_analyze --bottleneck)\n"
      "Each file is written to <file>.<pid>.tmp and renamed into place; a\n"
      "file that cannot be written exits 1.\n";
  // An entry is a "  --flag..." line plus its deeper-indented continuation
  // lines; entries whose flag is in `omit` are left out.
  std::string out;
  bool skip = false;
  for (std::string_view rest = kUsage; !rest.empty();) {
    const std::string_view line = rest.substr(0, rest.find('\n') + 1);
    rest.remove_prefix(line.size());
    if (line.starts_with("  --")) {
      const std::string_view flag =
          line.substr(2, line.find_first_of("=[ ", 2) - 2);
      skip = std::find(omit.begin(), omit.end(), flag) != omit.end();
    } else if (!line.starts_with("   ")) {
      skip = false;
    }
    if (!skip) out += line;
  }
  return out;
}

BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions o;
  const std::string err = try_parse_bench_args(
      std::vector<std::string>(argv + 1, argv + argc), o);
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\nusage: %s [flags]\n%s", err.c_str(),
                 argc > 0 ? argv[0] : "bench", bench_usage().c_str());
    std::exit(2);
  }
  return o;
}

std::vector<std::string> debit_credit_partition_names() {
  return {"B/T", "ACCT", "HIST"};
}

std::size_t traced_run(const BenchOptions& opt, std::size_t runs) {
  return static_cast<std::size_t>(opt.trace_run < 0 ? 0 : opt.trace_run) %
         (runs == 0 ? 1 : runs);
}

void apply_obs_options(std::vector<SystemConfig>& cfgs,
                       const BenchOptions& opt) {
  const std::size_t picked = traced_run(opt, cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    auto& obs = cfgs[i].obs;
    obs.slow_k = opt.slow_k;
    obs.audit = opt.audit;
    obs.progress_every_s = opt.progress_every_s;
    if (i != picked) continue;
    if (!opt.trace_file.empty()) {
      obs.trace = true;
      obs.trace_capacity = opt.trace_capacity;
      obs.trace_filter = opt.trace_filter;
    }
    if (opt.timeseries) {
      obs.timeseries = true;
      obs.timeseries_window = opt.timeseries_window;
    }
    if (opt.resources) obs.resources = true;
  }
}

namespace {

void write_metrics_object(obs::JsonWriter& w, const RunResult& r,
                          const std::vector<std::string>& partition_names) {
  w.begin_object();
  w.kv("label", r.label());
  w.kv("nodes", static_cast<std::int64_t>(r.nodes));
  w.kv("coupling", to_string(r.coupling));
  w.kv("update", to_string(r.update));
  w.kv("routing", to_string(r.routing));
  w.kv("buffer_pages", static_cast<std::int64_t>(r.buffer_pages));
  w.kv("arrival_rate_per_node", r.arrival_rate_per_node);
  w.kv("resp_ms", r.resp_ms);
  w.kv("resp_ci_ms", r.resp_ci_ms);
  w.kv("resp_p95_ms", r.resp_p95_ms);
  w.kv("resp_norm_ms", r.resp_norm_ms);
  w.kv("throughput", r.throughput);
  w.kv("commits", static_cast<std::uint64_t>(r.commits));
  w.kv("aborts", static_cast<std::uint64_t>(r.aborts));
  w.kv("deadlocks", static_cast<std::uint64_t>(r.deadlocks));
  w.kv("cpu_util", r.cpu_util);
  w.kv("cpu_util_max", r.cpu_util_max);
  w.kv("gem_util", r.gem_util);
  w.kv("net_util", r.net_util);
  w.kv("tps_per_node_at_80", r.tps_per_node_at_80);
  w.key("hit_ratio");
  w.begin_object();
  for (std::size_t p = 0; p < r.hit_ratio.size(); ++p) {
    const std::string name =
        p < partition_names.size() ? partition_names[p] : std::to_string(p);
    w.kv(name, r.hit_ratio[p]);
  }
  w.end_object();
  w.kv("invalidations_per_txn", r.invalidations_per_txn);
  w.kv("page_requests_per_txn", r.page_requests_per_txn);
  w.kv("page_request_delay_ms", r.page_request_delay_ms);
  w.kv("evict_writes_per_txn", r.evict_writes_per_txn);
  w.kv("force_writes_per_txn", r.force_writes_per_txn);
  w.kv("local_lock_fraction", r.local_lock_fraction);
  w.kv("lock_waits_per_txn", r.lock_waits_per_txn);
  w.kv("lock_wait_ms", r.lock_wait_ms);
  w.kv("messages_per_txn", r.messages_per_txn);
  w.kv("revocations_per_txn", r.revocations_per_txn);
  w.key("breakdown_ms");
  w.begin_object();
  w.kv("cpu", r.brk_cpu_ms);
  w.kv("cpu_wait", r.brk_cpu_wait_ms);
  w.kv("io", r.brk_io_ms);
  w.kv("cc", r.brk_cc_ms);
  w.kv("queue", r.brk_queue_ms);
  w.end_object();
  // Additive v1 extension: tail percentiles of the response time and of each
  // breakdown phase (ms).
  w.key("percentiles");
  w.begin_object();
  const auto pct = [&w](const char* key, const RunResult::Percentiles& p) {
    w.key(key);
    w.begin_object();
    w.kv("p50", p.p50);
    w.kv("p95", p.p95);
    w.kv("p99", p.p99);
    w.end_object();
  };
  pct("response_ms", r.pct_resp);
  pct("cpu_ms", r.pct_cpu);
  pct("cpu_wait_ms", r.pct_cpu_wait);
  pct("io_ms", r.pct_io);
  pct("cc_ms", r.pct_cc);
  pct("queue_ms", r.pct_queue);
  w.end_object();
  // Additive v1 extension: per-GEM-shard rows (one row when gem_shards=1).
  w.key("gem_shards");
  w.begin_array();
  for (const auto& gs : r.gem_shards) {
    w.begin_object();
    w.kv("util", gs.util);
    w.kv("queue_mean", gs.queue_mean);
    w.kv("wait_ms", gs.wait_ms);
    w.kv("completions", static_cast<std::uint64_t>(gs.completions));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_telemetry_members(obs::JsonWriter& w, const obs::RunTelemetry* tel) {
  w.key("detail");
  w.begin_object();
  if (tel) {
    for (const auto& [name, value] : tel->detail) w.kv(name, value);
  }
  w.end_object();

  w.key("slowest");
  w.begin_array();
  if (tel) {
    for (const auto& t : tel->slowest) {
      w.begin_object();
      w.kv("id", static_cast<std::uint64_t>(t.id));
      w.kv("node", static_cast<std::int64_t>(t.node));
      w.kv("type", static_cast<std::int64_t>(t.type));
      w.kv("restarts", static_cast<std::int64_t>(t.restarts));
      w.kv("arrival_s", t.arrival);
      w.kv("response_ms", t.response * 1e3);
      w.key("breakdown_ms");
      w.begin_object();
      w.kv("cpu", t.cpu * 1e3);
      w.kv("cpu_wait", t.cpu_wait * 1e3);
      w.kv("io", t.io * 1e3);
      w.kv("cc", t.cc * 1e3);
      w.kv("queue", t.queue * 1e3);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
}

/// The gemsd.results.v1 document (see write_artifacts).
void results_json(obs::JsonWriter& w, const std::string& bench,
                  const std::string& caption, const BenchOptions& opt,
                  const std::vector<BenchRun>& runs,
                  const std::vector<std::string>& partition_names) {
  w.begin_object();
  w.kv("schema", "gemsd.results.v1");
  w.kv("bench", bench);
  w.kv("caption", caption);
  w.kv("git", obs::build_git_describe());
  // Process footprint at emission time: the peak covers every run in the
  // file, which is what `gemsd_analyze --memory-budget` gates on.
  // Best-effort zeros off Linux; wall-clock-side only, so metrics stay
  // bit-identical.
  const obs::MemoryUsage mem = obs::memory_usage();
  w.key("memory");
  w.begin_object();
  w.kv("current_rss_bytes", mem.current_rss_bytes);
  w.kv("peak_rss_bytes", mem.peak_rss_bytes);
  w.kv("heap_bytes", mem.heap_bytes);
  w.end_object();
  w.key("options");
  w.begin_object();
  w.kv("warmup", opt.warmup);
  w.kv("measure", opt.measure);
  w.kv("max_nodes", static_cast<std::int64_t>(opt.max_nodes));
  w.kv("seed", static_cast<std::uint64_t>(opt.seed));
  w.kv("slow_k", static_cast<std::int64_t>(opt.slow_k));
  w.kv("audit", opt.audit);
  w.kv("trace_filter", opt.trace_filter);
  w.end_object();
  w.key("partitions");
  w.begin_array();
  for (const auto& p : partition_names) w.value(p);
  w.end_array();

  w.key("runs");
  w.begin_array();
  for (const auto& run : runs) {
    w.begin_object();
    w.kv("config_hash", obs::config_hash_hex(run.config));
    w.key("config");
    w.raw(obs::config_json(run.config));
    w.key("metrics");
    write_metrics_object(w, run.result, partition_names);
    w.key("extra");
    w.begin_object();
    for (const auto& [name, value] : run.extra) w.kv(name, value);
    w.end_object();
    write_telemetry_members(w, run.result.telemetry.get());
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::vector<Artifact> write_artifacts(
    const std::string& bench, const std::string& caption,
    const BenchOptions& opt, const std::vector<BenchRun>& runs,
    const std::vector<std::string>& partition_names) {
  using Emit = std::function<void(obs::JsonWriter&)>;
  std::vector<Artifact> written;
  // Each document streams through a JsonWriter into its file.
  const auto put = [&written](const char* label, const std::string& path,
                              const Emit& emit) {
    const std::string err =
        obs::write_file(path, [&emit](const obs::ByteSink& sink) {
          obs::JsonWriter w(sink);
          emit(w);
          w.flush();
        });
    if (!err.empty()) throw std::runtime_error(err);
    written.push_back({label, path});
  };
  if (!opt.no_json) {
    put("results",
        opt.metrics_json.empty() ? "results/BENCH_" + bench + ".json"
                                 : opt.metrics_json,
        [&](obs::JsonWriter& w) {
          results_json(w, bench, caption, opt, runs, partition_names);
        });
  }
  if (runs.empty()) return written;

  // The traced run's artifacts, each stamped with the same {git, seed,
  // config_hash} (pre-serialized JSON values); the trace adds the config.
  const std::size_t idx = traced_run(opt, runs.size());
  const BenchRun& run = runs[idx];
  const obs::RunTelemetry* tel = run.result.telemetry.get();
  const auto json = [](auto v) {
    obs::JsonWriter w;
    w.value(v);
    return w.take();
  };
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"git", json(obs::build_git_describe())},
      {"seed", json(static_cast<std::uint64_t>(run.config.seed))},
      {"config_hash", json(obs::config_hash_hex(run.config))},
  };
  const auto or_default = [&bench](const std::string& file, const char* kind) {
    return file.empty() ? "results/" + std::string(kind) + "_" + bench + ".json"
                        : file;
  };
  // The time series and the resources are small documents (a few hundred
  // windows, one row per station); only the trace is worth streaming.
  struct Row {
    const char* label;
    bool requested;
    std::string path;
    bool recorded;
    Emit emit;
  };
  const Row rows[] = {
      {"trace", !opt.trace_file.empty(), opt.trace_file,
       tel && tel->trace_enabled,
       [&](obs::JsonWriter& w) {
         auto m = meta;
         m.emplace_back("config", obs::config_json(run.config));
         obs::chrome_trace_json(w, *tel, m);
       }},
      {"timeseries", opt.timeseries,
       or_default(opt.timeseries_file, "TIMESERIES"),
       tel && tel->timeseries,
       [&](obs::JsonWriter& w) {
         w.raw(obs::timeseries_json(*tel->timeseries, meta));
       }},
      {"resources", opt.resources, or_default(opt.resources_file, "RESOURCES"),
       tel && tel->resources,
       [&](obs::JsonWriter& w) {
         w.raw(obs::resources_json(*tel->resources, meta));
       }},
  };
  for (const Row& row : rows) {
    if (!row.requested) continue;
    if (!row.recorded) {
      std::fprintf(stderr, "warning: --%s given but run %zu recorded none\n",
                   row.label, idx);
      continue;
    }
    put(row.label, row.path, row.emit);
  }
  return written;
}

std::string fingerprint_line(const std::string& bench,
                             const SystemConfig& cfg) {
  std::string s = bench;
  s += " git=";
  s += obs::build_git_describe();
  s += " seed=" + std::to_string(cfg.seed);
  s += " config=" + obs::config_hash_hex(cfg);
  return s;
}

}  // namespace gemsd
