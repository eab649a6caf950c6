#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/config.hpp"
#include "core/report.hpp"

namespace gemsd {

namespace workload {
struct Trace;
}

/// Executes a sweep of independent, deterministic simulations on a
/// fixed-size thread pool. Each run owns its own System, Scheduler and Rng
/// and runs on exactly one thread (a run is never split across threads), so
/// a sweep of N configurations produces bit-identical results at any job
/// count, and results always come back in submission order: tables and CSV
/// output are byte-identical to the serial path.
///
/// jobs == 1 runs every task inline on the calling thread (no pool, exactly
/// today's serial behavior); jobs == 0 resolves to hardware_concurrency.
class SweepRunner {
 public:
  explicit SweepRunner(int jobs = 0);

  int jobs() const { return jobs_; }
  static int default_jobs();

  /// Run all tasks, return their results in submission order. T must be
  /// default-constructible and movable.
  template <typename T>
  std::vector<T> map(std::vector<std::function<T()>> tasks) const {
    std::vector<T> out(tasks.size());
    for_each_index(tasks.size(),
                   [&](std::size_t i) { out[i] = tasks[i](); });
    return out;
  }

  /// Convenience: one debit-credit experiment per config.
  std::vector<RunResult> run_debit_credit(
      std::vector<SystemConfig> cfgs) const;

  /// Convenience: one trace-driven experiment per config, all replaying the
  /// same (read-only, shared) trace.
  std::vector<RunResult> run_trace(std::vector<SystemConfig> cfgs,
                                   const workload::Trace& trace) const;

 private:
  /// Invoke body(0..n-1), each index exactly once, work-stealing over the
  /// pool. The first exception thrown by any task is rethrown on the calling
  /// thread after all workers have drained.
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& body) const;

  int jobs_;
};

}  // namespace gemsd
