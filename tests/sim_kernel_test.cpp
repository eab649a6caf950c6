// Unit tests for the discrete-event kernel: scheduler ordering, coroutine
// task composition, resources (FCFS k-server), one-shot futures, RNG and
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "sim/oneshot.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace gemsd::sim {
namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

TEST(Scheduler, RunsCallbacksInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_call(3.0, [&] { order.push_back(3); });
  s.schedule_call(1.0, [&] { order.push_back(1); });
  s.schedule_call(2.0, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Scheduler, SameTimeEventsAreFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_call(5.0, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler s;
  int hits = 0;
  s.schedule_call(1.0, [&] { ++hits; });
  s.schedule_call(2.5, [&] { ++hits; });
  s.schedule_call(7.0, [&] { ++hits; });
  EXPECT_EQ(s.run_until(3.0), 2u);
  EXPECT_EQ(hits, 2);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  s.run_all();
  EXPECT_EQ(hits, 3);
}

Task<void> delayer(Scheduler& s, double d, double* done_at) {
  co_await s.delay(d);
  *done_at = s.now();
}

TEST(Scheduler, SpawnedProcessDelays) {
  Scheduler s;
  double done = -1.0;
  s.spawn(delayer(s, 4.5, &done));
  s.run_all();
  EXPECT_DOUBLE_EQ(done, 4.5);
  EXPECT_EQ(s.live_processes(), 0u);
}

Task<int> add_after(Scheduler& s, double d, int a, int b) {
  co_await s.delay(d);
  co_return a + b;
}

Task<void> parent(Scheduler& s, int* out) {
  const int x = co_await add_after(s, 1.0, 2, 3);
  const int y = co_await add_after(s, 2.0, x, 10);
  *out = y;
}

// The --progress heartbeat's plumbing: the hook fires between events, once
// per `every` processed events.
TEST(Scheduler, ProgressHookFiresEveryNEvents) {
  Scheduler s;
  int fired = 0;
  s.set_progress_hook([&] { ++fired; }, 10);
  for (int i = 0; i < 25; ++i) {
    s.schedule_call(0.001 * (i + 1), [] {});
  }
  s.run_until(1.0);
  EXPECT_EQ(fired, 2);  // after events 10 and 20
}

Task<void> sleep_for(Scheduler& s, double d) { co_await s.delay(d); }

Task<void> resume_at(Scheduler& s, double t) {
  co_await s.suspend([&s, t](std::coroutine_handle<> h) { s.schedule(t, h); });
}

// The kernel's time guard holds in every build, NDEBUG included: a NaN,
// infinite or past event time ends the run, printing the time and the clock.
// Without it, a NaN delay with an empty heap would fast-forward the clock to
// NaN.
TEST(SchedulerDeathTest, NonFiniteOrPastTimeAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // With the clock at 2: a callback, or a process resumed through schedule.
  const auto call_at = [](double t) {
    Scheduler s;
    s.schedule_call(2.0, [&s, t] { s.schedule_call(t, [] {}); });
    s.run_all();
  };
  const auto resume_process_at = [](double t) {
    Scheduler s;
    s.schedule_call(2.0, [&s, t] { s.spawn(resume_at(s, t)); });
    s.run_all();
  };
  for (const auto& at : {+call_at, +resume_process_at}) {
    EXPECT_DEATH(at(nan), "event scheduled at t=-?nan with the clock at 2");
    EXPECT_DEATH(at(kNever), "event scheduled at t=inf with the clock at 2");
    EXPECT_DEATH(at(2.0 - 1.0), "event scheduled at t=1 with the clock at 2");
  }
  // A delay from the only process, at clock 0 (what fast-forward would
  // take). A non-positive delay is no time: the process goes on at once.
  const auto delay_by = [](double d) {
    Scheduler s;
    s.spawn(sleep_for(s, d));
    s.run_all();
    return s.now();
  };
  EXPECT_DEATH(delay_by(nan), "event scheduled at t=-?nan with the clock at 0");
  EXPECT_DEATH(delay_by(kNever), "event scheduled at t=inf with the clock at 0");
  EXPECT_EQ(delay_by(-1.0), 0.0);
}

TEST(Task, NestedAwaitPropagatesValuesAndTime) {
  Scheduler s;
  int out = 0;
  s.spawn(parent(s, &out));
  s.run_all();
  EXPECT_EQ(out, 15);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

Task<void> forever(Scheduler& s, int* steps) {
  for (;;) {
    co_await s.delay(1.0);
    ++*steps;
  }
}

TEST(Scheduler, TeardownDestroysSuspendedProcesses) {
  int steps = 0;
  {
    Scheduler s;
    s.spawn(forever(s, &steps));
    s.spawn(forever(s, &steps));
    s.run_until(10.0);
    EXPECT_EQ(s.live_processes(), 2u);
  }  // destructor must free both frames (ASAN/valgrind would flag leaks)
  EXPECT_EQ(steps, 20);
}

// --- Order oracle ------------------------------------------------------------

/// Drives one Scheduler with a seeded random mix of callbacks and processes.
/// Every schedule call is stamped (t, n), n counting schedule calls in call
/// order; the oracle checks what the kernel promises: dispatch in strictly
/// increasing (t, n), each event exactly once, and a queue high-water mark
/// equal to the oracle's own count of pending events. Processes also aim
/// delays at the edges of fast-forward dispatch: exactly the end of the
/// run_until in progress (may fast-forward), exactly the time of the
/// earliest pending event after now (a tie: must queue behind it) and past
/// the end (must wait for a later run_until).
struct OrderOracle {
  struct Stamp {
    double t;
    std::uint64_t n;
  };

  Scheduler s;
  Rng rng{20260417};
  int budget = 4000;  ///< schedule calls the random mix may still make
  std::vector<double> stamped_t;  ///< t of stamp n
  std::vector<int> runs;          ///< dispatches of stamp n
  std::vector<Stamp> dispatched;
  std::size_t pending = 0, high_water = 0;
  std::multiset<double> pending_t;  ///< times of the pending stamps
  double end = 0.0;   ///< end of the run_until in progress (inf: run_all)
  int lane_hits = 0;  ///< stamps at t == now
  /// Delays that landed exactly on `end` and were fast-forwarded, landed
  /// exactly on a pending event's time, and landed past `end`.
  int ff_on_end = 0, on_pending = 0, past_end = 0;

  Stamp stamp(double t) {
    if (t == s.now()) ++lane_hits;
    stamped_t.push_back(t);
    runs.push_back(0);
    pending_t.insert(t);
    if (++pending > high_water) high_water = pending;
    return Stamp{t, stamped_t.size() - 1};
  }
  void ran(Stamp st) {
    --pending;
    pending_t.erase(pending_t.find(st.t));
    EXPECT_EQ(s.now(), st.t) << "stamp " << st.n;
    ++runs[st.n];
    dispatched.push_back(st);
  }

  /// A schedule time: now, now + d, now + an increment that rounds back to
  /// now, or a point of a coarse future grid that many events share.
  double pick_time() {
    const double now = s.now();
    switch (rng.uniform_int(0, 3)) {
      case 0:
        return now;
      case 1:
        return now + rng.exponential(0.3);
      case 2: {
        const double tiny = now * 1e-17;
        EXPECT_EQ(now + tiny, now);
        return now + tiny;
      }
      default:  // a quarter point after now: 0.25 .. 1.5 ahead
        return std::floor(now * 4.0) / 4.0 +
               0.25 * static_cast<double>(rng.uniform_int(1, 6));
    }
  }

  void call_at(double t) {
    const Stamp st = stamp(t);
    s.schedule_call(t, [this, st] {
      ran(st);
      for (auto k = rng.uniform_int(0, 2); k > 0 && budget > 0; --k) {
        random_event();
      }
    });
  }
  void spawn_process();
  void random_event() {
    --budget;
    if (rng.bernoulli(0.2)) {
      spawn_process();
    } else {
      call_at(pick_time());
    }
  }
};

Task<void> oracle_process(OrderOracle& o, OrderOracle::Stamp first) {
  o.ran(first);
  while (o.budget > 0) {
    --o.budget;
    if (o.rng.bernoulli(0.5)) {
      // delay(d) schedules at now + d, computed exactly as here; d may be
      // so small that the sum rounds back to now.
      const double now = o.s.now();
      const auto later = o.pending_t.upper_bound(now);
      double d = o.rng.exponential(0.3);
      switch (o.rng.uniform_int(0, 5)) {
        case 0:
          if (now > 0.0) d = now * 1e-17;
          break;
        case 1:  // onto the end of the run_until in progress
          if (now < o.end && o.end < kNever) d = o.end - now;
          break;
        case 2:  // onto the earliest pending time after now
          if (later != o.pending_t.end()) d = *later - now;
          break;
        case 3:  // past the end
          if (o.end < kNever) d += o.end - now;
          break;
        default:
          break;
      }
      const double t = now + d;
      const bool on_end = t == o.end;
      const bool on_pending = later != o.pending_t.end() && t == *later;
      const bool past_end = t > o.end;
      const OrderOracle::Stamp st = o.stamp(t);
      const std::uint64_t ff0 = o.s.fast_forwards();
      const std::size_t ran0 = o.dispatched.size();
      co_await o.s.delay(d);
      // Fast-forwarded: no other event ran, and the kernel counted one.
      const bool ff =
          o.dispatched.size() == ran0 && o.s.fast_forwards() == ff0 + 1;
      EXPECT_FALSE(ff && (on_pending || past_end))
          << "stamp " << st.n << " at t=" << t << " skipped the queue";
      o.ff_on_end += on_end && ff;
      o.on_pending += on_pending;
      o.past_end += past_end;
      o.ran(st);
    } else {
      const double t = o.pick_time();
      const OrderOracle::Stamp st = o.stamp(t);
      co_await o.s.suspend(
          [&o, t](std::coroutine_handle<> h) { o.s.schedule(t, h); });
      o.ran(st);
    }
    if (o.rng.bernoulli(0.3) && o.budget > 0) o.random_event();
  }
}

void OrderOracle::spawn_process() {
  s.spawn(oracle_process(*this, stamp(s.now())));
}

TEST(SchedulerOracle, DispatchOrderIsStrictlyTimeThenScheduleOrder) {
  OrderOracle o;
  for (int i = 0; i < 8; ++i) o.random_event();
  // Several run_until boundaries, including one at now and ones on the
  // coarse grid; new events are injected at each boundary.
  for (const double end : {0.0, 0.6, 1.25, 1.25, 2.0, 3.1, 4.5}) {
    o.end = end;
    o.s.run_until(end);
    EXPECT_EQ(o.s.now(), end);
    for (std::size_t n = 0; n < o.runs.size(); ++n) {
      EXPECT_EQ(o.runs[n], o.stamped_t[n] <= end ? 1 : 0)
          << "stamp " << n << " at t=" << o.stamped_t[n] << ", end " << end;
    }
    EXPECT_EQ(o.s.queued_events(), o.pending);
    for (int i = 0; i < 4 && o.budget > 0; ++i) o.random_event();
  }
  o.end = kNever;
  o.s.run_all();

  ASSERT_EQ(o.pending, 0u);
  ASSERT_EQ(o.dispatched.size(), o.stamped_t.size());
  for (std::size_t n = 0; n < o.runs.size(); ++n) {
    EXPECT_EQ(o.runs[n], 1) << "stamp " << n;
  }
  for (std::size_t i = 1; i < o.dispatched.size(); ++i) {
    const auto& a = o.dispatched[i - 1];
    const auto& b = o.dispatched[i];
    ASSERT_TRUE(a.t < b.t || (a.t == b.t && a.n < b.n))
        << "dispatch " << i << ": (" << a.t << ", " << a.n << ") then ("
        << b.t << ", " << b.n << ")";
  }
  EXPECT_EQ(o.s.max_queued(), o.high_water);
  EXPECT_EQ(o.s.events_processed(), o.stamped_t.size());
  // The mix must actually exercise the same-instant lane against the heap,
  // fast-forwards against queued events, and each fast-forward edge.
  EXPECT_GT(o.lane_hits, 500);
  EXPECT_GT(o.stamped_t.size(), 3000u);
  EXPECT_GT(o.s.fast_forwards(), 40u);  // measured 75
  EXPECT_GT(o.s.heap_pushes(), 1000u);
  EXPECT_EQ(o.s.fast_forwards() + o.s.heap_pushes() + o.s.lane_events(),
            o.stamped_t.size());
  EXPECT_GT(o.ff_on_end, 0);     // measured 2
  EXPECT_GT(o.on_pending, 50);  // measured 172
  EXPECT_GT(o.past_end, 50);    // measured 254
}

/// One process against one queued callback at t = 2 (logged as -t): a delay
/// onto the end of run_until(1) fast-forwards, one onto the callback's time
/// queues behind it, and one past the end of run_until(3) waits for the
/// next run.
Task<void> edge_walker(Scheduler& s, std::vector<double>& log) {
  s.schedule_call(2.0, [&s, &log] { log.push_back(-s.now()); });
  co_await s.delay(1.0);
  log.push_back(s.now());
  co_await s.delay(1.0);
  log.push_back(s.now());
  co_await s.delay(2.0);
  log.push_back(s.now());
}

Task<void> queue_then_sleep(Scheduler& s) {
  s.schedule_call(5.0, [] {});
  co_await s.delay(1.0);
}

TEST(SchedulerOracle, FastForwardOnlyTakesTheNextDueEvent) {
  Scheduler s;
  std::vector<double> log;
  int beats = 0;
  s.set_progress_hook([&] { ++beats; }, 1);
  s.spawn(edge_walker(s, log));
  s.run_until(1.0);
  EXPECT_EQ(log, (std::vector<double>{1.0}));
  EXPECT_EQ(s.fast_forwards(), 1u);
  EXPECT_EQ(s.events_processed(), 2u);
  s.run_until(3.0);
  EXPECT_EQ(log, (std::vector<double>{1.0, -2.0, 2.0}));
  EXPECT_EQ(s.fast_forwards(), 1u);
  EXPECT_EQ(s.queued_events(), 1u);
  EXPECT_EQ(s.now(), 3.0);
  s.run_all();
  EXPECT_EQ(log, (std::vector<double>{1.0, -2.0, 2.0, 4.0}));
  EXPECT_EQ(s.events_processed(), 5u);
  EXPECT_EQ(beats, 5);

  // A fast-forward counts as queued: the process's own spawn event was the
  // only one queued before, the callback and the delay make two.
  Scheduler q;
  q.spawn(queue_then_sleep(q));
  q.run_all();
  EXPECT_EQ(q.fast_forwards(), 1u);
  EXPECT_EQ(q.max_queued(), 2u);
}

Task<void> worker(Resource& r, double service, int* done) {
  co_await r.use(service);
  ++*done;
}

Task<int> answer(int x) { co_return x + 1; }

TEST(FramePool, DestroyedFrameBlockIsReusedBySameSizeClass) {
  // A frame's block goes back to its size class when the frame is
  // destroyed, and the next frame of that size gets the same block: the
  // model's steady state recycles frames instead of calling malloc. (Under
  // ASan the parked block is poisoned in between, so a use-after-free of
  // the destroyed frame would still report.)
  auto first = answer(1).release();
  void* block = first.address();
  first.destroy();
  auto second = answer(2).release();
  EXPECT_EQ(second.address(), block);
  second.destroy();
}

TEST(Resource, SingleServerSerializesFcfs) {
  Scheduler s;
  Resource r(s, 1, "disk");
  int done = 0;
  for (int i = 0; i < 4; ++i) s.spawn(worker(r, 2.0, &done));
  s.run_all();
  EXPECT_EQ(done, 4);
  EXPECT_DOUBLE_EQ(s.now(), 8.0);  // 4 jobs x 2.0 serialized
  EXPECT_EQ(r.completions(), 4u);
}

TEST(Resource, MultiServerRunsInParallel) {
  Scheduler s;
  Resource r(s, 4, "cpu");
  int done = 0;
  for (int i = 0; i < 4; ++i) s.spawn(worker(r, 2.0, &done));
  s.run_all();
  EXPECT_EQ(done, 4);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Resource, UtilizationAccounting) {
  Scheduler s;
  Resource r(s, 2, "cpu");
  int done = 0;
  // Two jobs of 3s on 2 servers over a 6s horizon -> utilization 0.5.
  for (int i = 0; i < 2; ++i) s.spawn(worker(r, 3.0, &done));
  s.run_until(6.0);
  EXPECT_NEAR(r.utilization(), 0.5, 1e-12);
}

TEST(Resource, WaitTimesMeasured) {
  Scheduler s;
  Resource r(s, 1);
  int done = 0;
  for (int i = 0; i < 3; ++i) s.spawn(worker(r, 1.0, &done));
  s.run_all();
  // Waits: 0, 1, 2 -> mean 1.0
  EXPECT_NEAR(r.wait_stat().mean(), 1.0, 1e-12);
  EXPECT_EQ(r.wait_stat().count(), 3u);
}

// --- Resource::use against acquire/delay/release --------------------------

struct JobLog {
  std::vector<double> service, wait, done;
};

/// One job: arrive at `at`, hold a server for `service`, log the wait and
/// completion time. `via_use` selects use() or the explicit reference path.
Task<void> station_job(Scheduler& s, Resource& r, JobLog& log, std::size_t i,
                       double at, double service, bool via_use) {
  co_await s.delay(at);
  double w;
  if (via_use) {
    w = co_await r.use(service);
  } else {
    w = co_await r.acquire();
    co_await s.delay(service);
    r.release();
  }
  log.wait[i] = w;
  log.done[i] = s.now();
}

struct StationRun {
  JobLog log;
  std::uint64_t arrivals, completions, processed;
  MeanStat wait;
  double waited, queue_integral, busy;
};

StationRun run_station(int capacity, bool via_use) {
  Scheduler s;
  Resource r(s, capacity, "station");
  Rng rng(77);
  constexpr std::size_t kJobs = 400;
  StationRun out;
  out.log.wait.assign(kJobs, -1.0);
  out.log.done.assign(kJobs, -1.0);
  double at = 0.0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    // Utilization ~0.8 with bursts of simultaneous arrivals: the queue
    // builds up and drains again, so jobs find both a free server and a
    // full station. A fifth of the jobs hold for zero time.
    if (!rng.bernoulli(0.4)) at += rng.exponential(1.0);
    const double service =
        rng.bernoulli(0.2) ? 0.0 : rng.exponential(0.6 * capacity);
    out.log.service.push_back(service);
    s.spawn(station_job(s, r, out.log, i, at, service, via_use));
  }
  s.run_until(at * 0.1);
  r.reset_stats();  // a horizon that may start mid-queue
  s.run_all();
  out.arrivals = r.arrivals();
  out.completions = r.completions();
  out.processed = s.events_processed();
  out.wait = r.wait_stat();
  out.waited = r.waited_time();
  out.queue_integral = r.queue_integral();
  out.busy = r.busy_time();
  return out;
}

TEST(Resource, UseMatchesAcquireDelayReleaseExactly) {
  for (const int capacity : {1, 3}) {
    const StationRun a = run_station(capacity, true);
    const StationRun b = run_station(capacity, false);
    EXPECT_EQ(a.log.wait, b.log.wait) << "capacity " << capacity;
    EXPECT_EQ(a.log.done, b.log.done) << "capacity " << capacity;
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.processed, b.processed);
    EXPECT_EQ(a.wait.count(), b.wait.count());
    EXPECT_EQ(a.wait.mean(), b.wait.mean());
    EXPECT_EQ(a.wait.variance(), b.wait.variance());
    EXPECT_EQ(a.wait.min(), b.wait.min());
    EXPECT_EQ(a.wait.max(), b.wait.max());
    EXPECT_EQ(a.waited, b.waited);
    EXPECT_EQ(a.queue_integral, b.queue_integral);
    EXPECT_EQ(a.busy, b.busy);
    // The mix must cover every path through use(): zero and positive
    // service, each with a free server and after queueing.
    int paths[2][2] = {};
    for (std::size_t i = 0; i < a.log.wait.size(); ++i) {
      ++paths[a.log.service[i] > 0.0][a.log.wait[i] > 0.0];
    }
    for (const auto& by_service : paths) {
      for (const int n : by_service) EXPECT_GT(n, 5) << "capacity " << capacity;
    }
  }
}

struct Tracked {
  int* destroyed;
  ~Tracked() { ++*destroyed; }
};

Task<void> parked_job(Resource& r, double service, int* destroyed) {
  Tracked t{destroyed};
  co_await r.use(service);
}

TEST(Resource, TeardownDestroysJobsParkedInUse) {
  int destroyed = 0;
  {
    Scheduler s;
    Resource r(s, 2, "station");
    // Two jobs hold servers (their frames wait in the event queue), three
    // wait for one (their use() children wait in the station queue).
    for (int i = 0; i < 5; ++i) s.spawn(parked_job(r, 10.0, &destroyed));
    s.run_until(1.0);
    EXPECT_EQ(r.busy(), 2);
    EXPECT_EQ(r.queue_length(), 3u);
    EXPECT_EQ(s.live_processes(), 5u);
  }  // ASan flags a leaked or doubly freed frame here
  EXPECT_EQ(destroyed, 5);
}

Task<void> producer(Scheduler& s, OneShot<int>& o) {
  co_await s.delay(5.0);
  o.set(42);
}

Task<void> consumer(Scheduler& s, OneShot<int>& o, int* got, double* at) {
  *got = co_await o.wait();
  *at = s.now();
}

TEST(OneShot, WaitThenSet) {
  Scheduler s;
  OneShot<int> o(s);
  int got = 0;
  double at = 0;
  s.spawn(consumer(s, o, &got, &at));
  s.spawn(producer(s, o));
  s.run_all();
  EXPECT_EQ(got, 42);
  EXPECT_DOUBLE_EQ(at, 5.0);
}

TEST(OneShot, SetThenWait) {
  Scheduler s;
  OneShot<int> o(s);
  o.set(7);
  int got = 0;
  double at = -1;
  s.spawn(consumer(s, o, &got, &at));
  s.run_all();
  EXPECT_EQ(got, 7);
  EXPECT_DOUBLE_EQ(at, 0.0);
}

TEST(Stats, MeanStatBasics) {
  MeanStat m;
  for (double x : {1.0, 2.0, 3.0, 4.0}) m.add(x);
  EXPECT_DOUBLE_EQ(m.mean(), 2.5);
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), 4.0);
  EXPECT_NEAR(m.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(m.count(), 4u);
}

TEST(Stats, TimeWeightedMean) {
  TimeWeighted tw;
  tw.set(0.0, 1.0);   // value 1 over [0,4)
  tw.set(4.0, 3.0);   // value 3 over [4,8)
  EXPECT_NEAR(tw.mean(8.0), 2.0, 1e-12);
  tw.reset(8.0);
  EXPECT_NEAR(tw.mean(10.0), 3.0, 1e-12);
}

TEST(Stats, HistogramQuantiles) {
  Histogram h(1e-4, 10.0, 200);
  for (int i = 1; i <= 1000; ++i) h.add(i * 1e-3);  // 1ms..1s uniform
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.05);
  EXPECT_NEAR(h.quantile(0.95), 0.95, 0.08);
}

TEST(Rng, ExponentialMean) {
  Rng rng(1);
  MeanStat m;
  for (int i = 0; i < 200000; ++i) m.add(rng.exponential(0.01));
  EXPECT_NEAR(m.mean(), 0.01, 2e-4);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

// The engine is std::mt19937_64 written out: over 3,200 twists per seed,
// from the seeds the simulator uses, the extremes and both default seeds.
TEST(Rng, EngineMatchesStdMt19937_64) {
  constexpr int kDraws = 1000000;
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{42},
        std::uint64_t{1993}, UINT64_MAX,
        std::uint64_t{std::mt19937_64::default_seed},
        std::uint64_t{0x9e3779b97f4a7c15ULL}}) {
    Mt19937_64 eng(seed);
    std::mt19937_64 oracle(seed);
    int i = 0;
    while (i < kDraws && eng() == oracle()) ++i;
    EXPECT_EQ(i, kDraws) << "seed " << seed << ": first mismatch at draw " << i;
  }
}

// The split conversion gives static_cast<double>'s double: at the exact
// powers, at round-to-even ties and beside them, and at random words of
// every magnitude.
TEST(Rng, UniformConversionIsExact) {
  const std::uint64_t p53 = std::uint64_t{1} << 53;
  const std::uint64_t p63 = std::uint64_t{1} << 63;
  std::vector<std::uint64_t> words = {
      0,           1,           0xffffffffULL, 0x100000000ULL,
      p53 - 1,     p53 + 1,     p53 + 3,       p63 - 1,
      p63,         p63 + 1,     p63 + 1024,    p63 + 3 * 1024,
      0 - 2048ULL, 0 - 1024ULL, UINT64_MAX};
  std::mt19937_64 eng(3);
  for (int i = 0; i < 1000000; ++i) words.push_back(eng() >> (i % 64));
  for (const std::uint64_t x : words) {
    ASSERT_EQ(u64_to_double(x), static_cast<double>(x)) << x;
  }
  EXPECT_EQ(Rng::canonical(UINT64_MAX), std::nextafter(1.0, 0.0));
  EXPECT_EQ(Rng::canonical(0), 0.0);
  EXPECT_EQ(Rng::canonical(p63), 0.5);
}

// The first draws at seed 42, recorded from a build that drew through
// libstdc++'s <random> distributions and std::shuffle. They hold on any
// standard library now that every draw is spelled out.
TEST(Rng, DrawsMatchPinnedValues) {
  const std::vector<double> uniform = {
      0x1.82a3befaddcbcp-1, 0x1.472f1f73724ap-1,  0x1.81192cfe1cbcfp-1,
      0x1.171621fc50d6ap-3, 0x1.ce79451c9a6c3p-1, 0x1.814dc629c7f4fp-4,
      0x1.262e1432cba85p-1, 0x1.7dd645e8fadeep-2, 0x1.187273d8bae7fp-2,
      0x1.8fa32b81059dfp-2, 0x1.95c23685de9fap-7, 0x1.0c232392c1217p-1,
      0x1.5edbe0cab8d12p-1, 0x1.46512f5c3114fp-1, 0x1.a73187936056bp-1,
      0x1.e432978fab2edp-1};
  const std::vector<double> exponential = {
      0x1.6839cf27d4febp+1, 0x1.04dad7f4d36f5p+1, 0x1.6518f721dc864p+1,
      0x1.2c073b00cefa3p-2, 0x1.2afc2ebddc163p+2, 0x1.94a643d16da9bp-3,
      0x1.b5956a434e0d1p+0, 0x1.ddd4297f06367p-1, 0x1.47b66ef1d5197p-1,
      0x1.fa9d40259d0b2p-1, 0x1.984ab27b98ddap-6, 0x1.7bc29b48f2f9ap+0,
      0x1.27f283e6e0448p+1, 0x1.03a8247979a28p+1, 0x1.c07a31149229cp+1,
      0x1.74e3d78356066p+2};
  const std::vector<std::int64_t> small = {7, 6, 7, 1, 9, 0, 5, 3,
                                           2, 3, 0, 5, 6, 6, 8, 9};
  const std::vector<std::int64_t> wide = {
      830302289262, 702622448055, 826992393997, 149833400197,
      993154731597, 103429202584, 631746730340, 409994361403,
      301127759403, 429107372094, 13615000838,  575820384606,
      753463747931, 700760698391, 908801067440, 1039806482390};
  const std::vector<std::size_t> zipf = {1044, 327, 1013, 1,   4574, 0,
                                         172,  22,  8,    26,  0,    103,
                                         520,  322, 2128, 6983};
  const auto draws = [](auto draw) {
    Rng rng(42);
    std::vector<decltype(draw(rng))> v;
    for (int i = 0; i < 16; ++i) v.push_back(draw(rng));
    return v;
  };
  EXPECT_EQ(draws([](Rng& r) { return r.uniform(); }), uniform);
  EXPECT_EQ(draws([](Rng& r) { return r.exponential(2.0); }), exponential);
  EXPECT_EQ(draws([](Rng& r) { return r.uniform_int(0, 9); }), small);
  EXPECT_EQ(draws([](Rng& r) { return r.uniform_int(-5, 1LL << 40); }), wide);
  const ZipfGenerator z(12000, 1.0);
  EXPECT_EQ(draws([&z](Rng& r) { return z.sample(r); }), zipf);

  Rng rng(42);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{6, 9, 1, 4, 5, 3, 0, 7, 8, 2}));
}

#ifdef __GLIBCXX__
// Every draw replays libstdc++'s distribution of the same name on the same
// engine, across seeds, bounded-integer spans of 0, 2^k - 1, 2^k, 2^k + 1 and
// 2^64 - 1, and shuffles of odd and even lengths.
TEST(Rng, DrawsMatchLibstdcxxDistributions) {
  std::vector<std::uint64_t> spans = {0, UINT64_MAX, UINT64_MAX - 1};
  for (int k = 1; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    spans.insert(spans.end(), {p - 1, p, p + 1});
  }
  constexpr int kDraws = 1000000;
  for (const std::uint64_t seed : {1u, 7u, 42u, 1993u}) {
    Rng rng(seed);
    std::mt19937_64 eng(seed);

    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < kDraws; ++i) ASSERT_EQ(rng.uniform(), unit(eng));

    for (int i = 0; i < kDraws; ++i) {
      const double mean = 0.25 + (i % 11);
      std::exponential_distribution<double> d(1.0 / mean);
      ASSERT_EQ(rng.exponential(mean), d(eng)) << "mean " << mean;
    }

    for (int i = 0; i < kDraws; ++i) {
      const std::uint64_t span = spans[static_cast<std::size_t>(i) %
                                       spans.size()];
      // Centre the range where it fits, else start at the lowest value.
      const std::int64_t lo =
          span < (std::uint64_t{1} << 62)
              ? -static_cast<std::int64_t>(span / 3) + i % 5
              : INT64_MIN;
      const auto hi =
          static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + span);
      std::uniform_int_distribution<std::int64_t> d(lo, hi);
      ASSERT_EQ(rng.uniform_int(lo, hi), d(eng)) << "span " << span;
    }

    int shuffled = 0;
    for (std::size_t n = 0; shuffled < kDraws; n = (n + 1) % 40) {
      std::vector<std::size_t> a(n), b(n);
      for (std::size_t k = 0; k < n; ++k) a[k] = b[k] = k;
      rng.shuffle(a.begin(), a.end());
      std::shuffle(b.begin(), b.end(), eng);
      ASSERT_EQ(a, b) << "n " << n;
      shuffled += static_cast<int>(n);
    }
  }
}
#endif

TEST(Zipf, GuideTableMatchesLowerBound) {
  Rng rng(5);
  for (const std::size_t n : {1u, 2u, 17u, 4096u, 4097u, 12000u}) {
    for (const double theta : {0.0, 0.6, 1.0, 1.5}) {
      const ZipfGenerator z(n, theta);
      const std::vector<double>& cdf = z.cdf();
      ASSERT_EQ(cdf.back(), 1.0);
      ASSERT_TRUE(std::has_single_bit(z.buckets()));
      ASSERT_GE(z.buckets(), n);
      std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
      const double g = static_cast<double>(z.buckets());
      for (std::size_t j = 0; j < z.buckets(); ++j) {
        const double edge = static_cast<double>(j) / g;
        us.push_back(edge);
        if (j > 0) us.push_back(std::nextafter(edge, 0.0));
        us.push_back(std::nextafter(edge, 1.0));
      }
      for (int i = 0; i < 100000; ++i) us.push_back(rng.uniform());
      for (const double u : us) {
        const auto expected = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        ASSERT_EQ(z.rank(u), expected)
            << "n " << n << " theta " << theta << " u " << u;
      }
    }
  }
}

TEST(Zipf, SkewIncreasesHeadMass) {
  Rng rng(3);
  ZipfGenerator flat(100, 0.0), skew(100, 1.0);
  int flat_head = 0, skew_head = 0;
  for (int i = 0; i < 20000; ++i) {
    if (flat.sample(rng) < 10) ++flat_head;
    if (skew.sample(rng) < 10) ++skew_head;
  }
  EXPECT_GT(skew_head, flat_head * 2);
  EXPECT_NEAR(flat_head / 20000.0, 0.10, 0.02);
}

TEST(Zipf, RanksWithinRange) {
  Rng rng(4);
  ZipfGenerator z(17, 0.8);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(z.sample(rng), 17u);
}

}  // namespace
}  // namespace gemsd::sim
