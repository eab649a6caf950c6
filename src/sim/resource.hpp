#pragma once

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/ring_queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gemsd::sim {

/// A k-server FCFS queueing station (CPU set, disk arm, GEM port, network
/// link, MPL slot pool...). Collects utilization, queue-length and waiting
/// time statistics, plus the exact integrals operational analysis needs:
/// arrivals, in-horizon waiting time of completed and still-queued waiters,
/// and the running queue maximum, so Little's law can be checked as an
/// identity on the time-integrals rather than an estimate.
class Resource {
 public:
  Resource(Scheduler& sched, int capacity, std::string name = "");

  /// Awaitable: acquire one server (FIFO). Resumes with the waiting time.
  auto acquire() {
    struct Awaiter {
      Resource& r;
      SimTime enq = -1.0;  // <0: granted without waiting
      bool await_ready() {
        ++r.arrivals_;
        if (r.busy_ < r.cap_) {
          r.grant_now();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        enq = r.sched_.now();
        r.q_.push_back(Waiter{h, enq});
        r.qlen_tw_.set(enq, static_cast<double>(r.q_.size()));
        if (r.q_.size() > r.queue_max_) r.queue_max_ = r.q_.size();
      }
      double await_resume() {
        const double w = enq < 0.0 ? 0.0 : r.sched_.now() - enq;
        r.note_granted(enq, w);
        return w;
      }
    };
    return Awaiter{*this};
  }

  /// Release one server; hands the slot to the oldest waiter if any.
  void release();

  /// Awaitable returned by use(). With a server free it needs no coroutine
  /// of its own: it grants the server, records the zero wait and schedules
  /// the caller at now + service (or, for service <= 0 or when the
  /// scheduler can fast-forward to now + service, does not suspend);
  /// await_resume releases. With every server busy it starts a child
  /// coroutine running acquire/delay/release, which it owns, so the child
  /// lives in (and is destroyed with) the caller's frame. Either way the
  /// schedule calls and statistics are those of acquire(), delay(service),
  /// release().
  class [[nodiscard]] Use {
   public:
    Use(Resource& r, SimTime service) : r_(r), service_(service) {}

    bool await_ready() {
      if (r_.busy_ >= r_.cap_) return false;
      ++r_.arrivals_;
      r_.grant_now();
      r_.note_granted(-1.0, 0.0);
      held_ = true;
      return service_ <= 0.0 ||
             r_.sched_.try_advance(r_.sched_.now() + service_);
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      if (held_) {
        r_.sched_.schedule(r_.sched_.now() + service_, h);
        return std::noop_coroutine();
      }
      // Start the child the way `co_await child_` would: it runs now and
      // resumes `h` when it finishes.
      child_ = r_.queue_and_hold(service_);
      return std::move(child_).operator co_await().await_suspend(h);
    }
    double await_resume() {
      if (!held_) return std::move(child_).operator co_await().await_resume();
      r_.release();
      return 0.0;
    }

   private:
    Resource& r_;
    SimTime service_;
    bool held_ = false;
    Task<double> child_;
  };

  /// Acquire, hold for `service`, release. Resumes with the waiting time.
  Use use(SimTime service) { return Use{*this, service}; }

  int capacity() const { return cap_; }
  int busy() const { return busy_; }
  std::size_t queue_length() const { return q_.size(); }
  const std::string& name() const { return name_; }

  /// Fraction of server-time busy since the last reset.
  double utilization() const {
    return busy_tw_.mean(sched_.now()) / static_cast<double>(cap_);
  }
  /// Busy server-seconds since the last reset (the utilization numerator
  /// before dividing by horizon and capacity; the time-series recorder
  /// differences this per window).
  double busy_time() const { return busy_tw_.integral(sched_.now()); }
  double mean_queue_length() const { return qlen_tw_.mean(sched_.now()); }
  /// Queue-length time-integral (waiter-seconds) since the last reset: the
  /// left-hand side of the exact Little identity
  ///   queue_integral == waited_time + pending_wait_time.
  double queue_integral() const { return qlen_tw_.integral(sched_.now()); }
  /// Largest queue length observed since the last reset.
  std::size_t queue_max() const { return queue_max_; }
  const MeanStat& wait_stat() const { return wait_; }
  /// Acquisitions started since the last reset (immediate grants and
  /// enqueues alike); symmetric to completions().
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t completions() const { return completions_; }
  /// In-horizon waiting time (waiter-seconds) of waits that were *granted*
  /// since the last reset; waits that straddle the reset only count the part
  /// inside the horizon.
  double waited_time() const { return waited_s_; }
  /// In-horizon waiting time accrued so far by waiters still in the queue.
  double pending_wait_time() const {
    const SimTime now = sched_.now();
    double s = 0.0;
    for (std::size_t i = 0; i < q_.size(); ++i) {
      const SimTime enq = q_[i].enq;
      s += now - (enq > horizon_start_ ? enq : horizon_start_);
    }
    return s;
  }
  /// Jobs in the station (busy servers + queue) at the last reset; closes
  /// the flow-balance identity
  ///   arrivals - completions == in_system_now - in_system_at_reset.
  std::uint64_t in_system_at_reset() const { return in_system_at_reset_; }
  std::uint64_t in_system() const {
    return static_cast<std::uint64_t>(busy_) +
           static_cast<std::uint64_t>(q_.size());
  }

  /// Observer-owned wait sketch: when set, every acquisition's waiting time
  /// is counted into `buckets[layout->index(w)]`. The obs layer owns both
  /// and must keep them alive; null (the default) keeps the hot path to a
  /// single branch and the schedule untouched either way.
  void set_wait_buckets(const LogBuckets* layout,
                        std::vector<std::uint64_t>* buckets) {
    wait_layout_ = layout;
    wait_buckets_ = buckets;
  }

  void reset_stats();

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    SimTime enq;
  };

  void grant_now();
  /// use()'s body when no server is free: queue, hold, release.
  Task<double> queue_and_hold(SimTime service);
  void note_granted(SimTime enq, double wait) {
    wait_.add(wait);
    if (enq >= 0.0) {
      const SimTime from = enq > horizon_start_ ? enq : horizon_start_;
      waited_s_ += sched_.now() - from;
    }
    if (wait_buckets_) ++(*wait_buckets_)[wait_layout_->index(wait)];
  }

  Scheduler& sched_;
  int cap_;
  int busy_ = 0;
  std::string name_;
  RingQueue<Waiter> q_;
  TimeWeighted busy_tw_;
  TimeWeighted qlen_tw_;
  MeanStat wait_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t completions_ = 0;
  double waited_s_ = 0.0;
  std::size_t queue_max_ = 0;
  SimTime horizon_start_ = 0.0;
  std::uint64_t in_system_at_reset_ = 0;
  const LogBuckets* wait_layout_ = nullptr;
  std::vector<std::uint64_t>* wait_buckets_ = nullptr;
};

}  // namespace gemsd::sim
