#include "core/report.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/telemetry.hpp"

namespace gemsd {

std::string RunResult::label() const {
  std::string s = to_string(coupling);
  s += "/";
  s += to_string(update);
  s += "/";
  s += to_string(routing);
  return s;
}

void for_each_value(const RunResult& r,
                    const std::function<void(std::string_view, double)>& fn) {
  fn("nodes", r.nodes);
  fn("coupling", static_cast<double>(r.coupling));
  fn("update", static_cast<double>(r.update));
  fn("routing", static_cast<double>(r.routing));
  fn("buffer_pages", r.buffer_pages);
  fn("arrival_rate_per_node", r.arrival_rate_per_node);
  fn("resp_ms", r.resp_ms);
  fn("resp_ci_ms", r.resp_ci_ms);
  fn("resp_p95_ms", r.resp_p95_ms);
  fn("resp_norm_ms", r.resp_norm_ms);
  fn("throughput", r.throughput);
  fn("commits", static_cast<double>(r.commits));
  fn("aborts", static_cast<double>(r.aborts));
  fn("deadlocks", static_cast<double>(r.deadlocks));
  fn("cpu_util", r.cpu_util);
  fn("cpu_util_max", r.cpu_util_max);
  fn("gem_util", r.gem_util);
  fn("net_util", r.net_util);
  fn("tps_per_node_at_80", r.tps_per_node_at_80);
  for (std::size_t p = 0; p < r.hit_ratio.size(); ++p) {
    fn("hit_ratio." + std::to_string(p), r.hit_ratio[p]);
  }
  fn("invalidations_per_txn", r.invalidations_per_txn);
  fn("page_requests_per_txn", r.page_requests_per_txn);
  fn("page_request_delay_ms", r.page_request_delay_ms);
  fn("evict_writes_per_txn", r.evict_writes_per_txn);
  fn("force_writes_per_txn", r.force_writes_per_txn);
  fn("local_lock_fraction", r.local_lock_fraction);
  fn("lock_waits_per_txn", r.lock_waits_per_txn);
  fn("lock_wait_ms", r.lock_wait_ms);
  fn("messages_per_txn", r.messages_per_txn);
  fn("revocations_per_txn", r.revocations_per_txn);
  fn("brk_cpu_ms", r.brk_cpu_ms);
  fn("brk_cpu_wait_ms", r.brk_cpu_wait_ms);
  fn("brk_io_ms", r.brk_io_ms);
  fn("brk_cc_ms", r.brk_cc_ms);
  fn("brk_queue_ms", r.brk_queue_ms);
  const std::pair<const char*, const RunResult::Percentiles*> pcts[] = {
      {"resp", &r.pct_resp}, {"cpu", &r.pct_cpu},
      {"cpu_wait", &r.pct_cpu_wait}, {"io", &r.pct_io},
      {"cc", &r.pct_cc}, {"queue", &r.pct_queue}};
  for (const auto& [name, p] : pcts) {
    const std::string pre = std::string("pct_") + name;
    fn(pre + ".p50", p->p50);
    fn(pre + ".p95", p->p95);
    fn(pre + ".p99", p->p99);
  }
  for (std::size_t s = 0; s < r.gem_shards.size(); ++s) {
    const std::string pre = "gem_shard" + std::to_string(s) + ".";
    fn(pre + "util", r.gem_shards[s].util);
    fn(pre + "queue_mean", r.gem_shards[s].queue_mean);
    fn(pre + "wait_ms", r.gem_shards[s].wait_ms);
    fn(pre + "completions", static_cast<double>(r.gem_shards[s].completions));
  }
  if (r.telemetry) {
    for (const auto& [k, x] : r.telemetry->detail) {
      if (k.rfind("engine.", 0) != 0 && k.rfind("sched.", 0) != 0) fn(k, x);
    }
  }
}

std::uint64_t run_digest(const RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for_each_value(r, [&mix](std::string_view name, double x) {
    mix(name.data(), name.size());
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    mix(&bits, sizeof bits);
  });
  return h;
}

std::string run_failure(const RunResult& r) {
  if (r.commits == 0) return "no transaction committed";
  if (!r.telemetry) return "no detail block";
  for (const auto& [k, x] : r.telemetry->detail) {
    if (k == "cc.coherency_violations" && x != 0) return "coherency violation";
  }
  std::string bad;
  for_each_value(r, [&bad](std::string_view name, double x) {
    if (bad.empty() && !std::isfinite(x)) {
      bad = "non-finite value " + std::string(name);
    }
  });
  return bad;
}

void print_table(const std::string& caption,
                 const std::vector<RunResult>& runs,
                 const std::vector<std::string>& partition_names, bool full) {
  std::printf("\n== %s ==\n", caption.c_str());
  std::printf("%-22s %3s %5s | %9s %8s | %7s %7s %7s", "config", "N", "buf",
              "resp[ms]", "tps", "cpu", "gem", "net");
  for (const auto& p : partition_names) {
    std::printf(" %8.8s", ("hit:" + p).c_str());
  }
  std::printf(" | %7s %7s %7s %7s\n", "locLck", "msg/tx", "pgrq/tx", "inv/tx");
  for (const auto& r : runs) {
    std::printf("%-22s %3d %5d | %9.2f %8.1f | %6.1f%% %6.2f%% %6.1f%%",
                r.label().c_str(), r.nodes, r.buffer_pages, r.resp_ms,
                r.throughput, r.cpu_util * 100, r.gem_util * 100,
                r.net_util * 100);
    for (std::size_t p = 0; p < partition_names.size(); ++p) {
      const double h = p < r.hit_ratio.size() ? r.hit_ratio[p] : 0.0;
      std::printf(" %7.1f%%", h * 100);
    }
    std::printf(" | %6.1f%% %7.2f %7.2f %7.2f\n", r.local_lock_fraction * 100,
                r.messages_per_txn, r.page_requests_per_txn,
                r.invalidations_per_txn);
    if (full) {
      std::printf(
          "    ci95=+-%.2fms p95=%.1fms norm=%.2fms tps80/node=%.1f cpuMax=%.1f%% "
          "waits/tx=%.3f lockWait=%.2fms dl=%llu aborts=%llu "
          "evW/tx=%.2f fW/tx=%.2f rev/tx=%.3f\n",
          r.resp_ci_ms, r.resp_p95_ms, r.resp_norm_ms, r.tps_per_node_at_80,
          r.cpu_util_max * 100, r.lock_waits_per_txn, r.lock_wait_ms,
          static_cast<unsigned long long>(r.deadlocks),
          static_cast<unsigned long long>(r.aborts), r.evict_writes_per_txn,
          r.force_writes_per_txn, r.revocations_per_txn);
      std::printf(
          "    breakdown[ms]: cpu=%.1f cpuWait=%.1f io=%.1f cc=%.1f "
          "queue=%.1f\n",
          r.brk_cpu_ms, r.brk_cpu_wait_ms, r.brk_io_ms, r.brk_cc_ms,
          r.brk_queue_ms);
    }
  }
}

void print_csv(const std::vector<RunResult>& runs,
               const std::vector<std::string>& partition_names) {
  std::printf("coupling,update,routing,nodes,buffer,resp_ms,resp_p95_ms,"
              "resp_norm_ms,tps,cpu_util,cpu_util_max,gem_util,net_util,"
              "tps80_per_node,local_lock_frac,msgs_per_txn,page_req_per_txn,"
              "page_req_ms,inval_per_txn,lock_waits_per_txn,deadlocks");
  for (const auto& p : partition_names) std::printf(",hit_%s", p.c_str());
  std::printf("\n");
  for (const auto& r : runs) {
    std::printf("%s,%s,%s,%d,%d,%.3f,%.3f,%.3f,%.2f,%.4f,%.4f,%.5f,%.4f,%.2f,"
                "%.4f,%.3f,%.3f,%.3f,%.4f,%.4f,%llu",
                to_string(r.coupling), to_string(r.update),
                to_string(r.routing), r.nodes, r.buffer_pages, r.resp_ms,
                r.resp_p95_ms, r.resp_norm_ms, r.throughput, r.cpu_util,
                r.cpu_util_max, r.gem_util, r.net_util, r.tps_per_node_at_80,
                r.local_lock_fraction, r.messages_per_txn,
                r.page_requests_per_txn, r.page_request_delay_ms,
                r.invalidations_per_txn, r.lock_waits_per_txn,
                static_cast<unsigned long long>(r.deadlocks));
    for (std::size_t p = 0; p < partition_names.size(); ++p) {
      std::printf(",%.4f", p < r.hit_ratio.size() ? r.hit_ratio[p] : 0.0);
    }
    std::printf("\n");
  }
}

}  // namespace gemsd
