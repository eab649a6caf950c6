#include "obs/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "obs/json.hpp"
#include "sim/stats.hpp"

namespace gemsd::obs {

namespace {

/// Timestamp tolerance: Chrome export rounds microsecond timestamps through
/// %.12g, so an imported trace can be off by ~1e-11 s from the native one.
constexpr double kTol = 1e-9;

struct Span {
  double t0 = 0, t1 = 0;
  TraceName name = TraceName::kTxn;
  double value = 0;
  std::int32_t aux = 0;
};

/// Coverage priority when spans overlap: the most specific wait wins (a lock
/// wait encloses the message rounds that implement it; commit I/O encloses
/// the log append; a CPU burst may enclose a GEM access).
int priority(TraceName n) {
  switch (n) {
    case TraceName::kLockWait: return 7;
    case TraceName::kPageRequest: return 6;
    case TraceName::kCommitIo: return 5;
    case TraceName::kIoRead:
    case TraceName::kIoWrite:
    case TraceName::kIoLog: return 4;
    case TraceName::kGemAccess: return 3;
    case TraceName::kCpu: return 2;
    case TraceName::kMplWait: return 1;
    default: return 0;
  }
}

bool is_activity(TraceName n) { return priority(n) > 0; }

struct TxnData {
  std::vector<Span> spans;       ///< own activity spans, sorted by t0
  std::vector<double> restarts;  ///< restart instant times
  /// Blocker-set timeline: each wait.edge batch REPLACES the set (one entry
  /// per batch); grants / deadlocks / restarts push an empty set. The set
  /// live at time t is the last entry with timestamp <= t.
  std::vector<std::pair<double, std::vector<std::uint64_t>>> blockers;
  bool committed = false;
  double arrival = 0, commit = 0;
  int node = -1;
};

void CritBreakdownAddHolder(CritBreakdown& b, TraceName n, double s) {
  switch (n) {
    case TraceName::kCpu: b.lock_holder_cpu_s += s; break;
    case TraceName::kIoRead:
    case TraceName::kIoWrite:
    case TraceName::kIoLog:
    case TraceName::kCommitIo:
    case TraceName::kPageRequest: b.lock_holder_io_s += s; break;
    case TraceName::kLockWait: b.lock_holder_lock_s += s; break;
    case TraceName::kGemAccess: b.lock_holder_gem_s += s; break;
    default: b.lock_holder_other_s += s; break;
  }
}

/// Attribute [x, y) x scale to the holder's concurrent activity: a boundary
/// sweep over the holder's spans clipped to the window, highest priority
/// wins, uncovered time counts as holder_other (the holder was between
/// spans — message processing, scheduling).
void attribute_holder(const TxnData* holder, double x, double y, double scale,
                      CritBreakdown& b) {
  if (!holder) {
    b.lock_holder_other_s += (y - x) * scale;
    return;
  }
  std::vector<double> bounds{x, y};
  for (const Span& s : holder->spans) {
    if (s.t1 <= x || s.t0 >= y) continue;
    bounds.push_back(std::max(s.t0, x));
    bounds.push_back(std::min(s.t1, y));
  }
  std::sort(bounds.begin(), bounds.end());
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const double a = bounds[i], c = bounds[i + 1];
    if (c - a <= 0) continue;
    const double mid = 0.5 * (a + c);
    const Span* best = nullptr;
    int bp = 0;
    for (const Span& s : holder->spans) {
      if (s.t0 <= mid && mid < s.t1 && priority(s.name) > bp) {
        bp = priority(s.name);
        best = &s;
      }
    }
    if (best) {
      CritBreakdownAddHolder(b, best->name, (c - a) * scale);
    } else {
      b.lock_holder_other_s += (c - a) * scale;
    }
  }
}

constexpr int kNodeShift = 40;  ///< txn id layout: (node << 40) | sequence

/// Live wait-for edges: waiter -> the txns it waits on. Mirrors the lock
/// table's waiting set as the trace replays.
using WaitFor = std::map<std::uint64_t, std::vector<std::uint64_t>>;

/// Does `start` reach itself through the live wait-for edges?
bool closes_cycle(const WaitFor& out, std::uint64_t start) {
  std::set<std::uint64_t> visited;
  std::vector<std::uint64_t> stack;
  auto it = out.find(start);
  if (it == out.end()) return false;
  stack.insert(stack.end(), it->second.begin(), it->second.end());
  while (!stack.empty()) {
    const std::uint64_t t = stack.back();
    stack.pop_back();
    if (t == start) return true;
    if (!visited.insert(t).second) continue;
    auto oi = out.find(t);
    if (oi != out.end()) {
      stack.insert(stack.end(), oi->second.begin(), oi->second.end());
    }
  }
  return false;
}

/// A transaction's locks dropped (commit, restart, deadlock abort): it can no
/// longer block anyone, and until it waits again it waits on nothing. Remove
/// its out-edges AND every stale edge pointing to it — wait edges are
/// snapshots of the queue at enqueue time, and a restarted transaction reuses
/// its id, so leftover incoming edges would close cycles the simulator never
/// saw.
void retire_txn(WaitFor& out, std::uint64_t id) {
  out.erase(id);
  for (auto& [waiter, edges] : out) {
    edges.erase(std::remove(edges.begin(), edges.end(), id), edges.end());
  }
}

/// Is `f` a wait.edge of the same batch as `e` (same waiter, same time)?
bool same_batch(const TraceEvent& f, const TraceEvent& e) {
  return f.kind == TraceKind::Instant && f.name == TraceName::kWaitEdge &&
         f.id == e.id && f.t == e.t;
}

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

void CritBreakdown::add(const CritBreakdown& o) {
  cpu_s += o.cpu_s;
  cpu_wait_s += o.cpu_wait_s;
  mpl_wait_s += o.mpl_wait_s;
  io_s += o.io_s;
  commit_io_s += o.commit_io_s;
  page_fetch_s += o.page_fetch_s;
  gem_s += o.gem_s;
  lock_wait_s += o.lock_wait_s;
  lock_holder_cpu_s += o.lock_holder_cpu_s;
  lock_holder_io_s += o.lock_holder_io_s;
  lock_holder_lock_s += o.lock_holder_lock_s;
  lock_holder_gem_s += o.lock_holder_gem_s;
  lock_holder_other_s += o.lock_holder_other_s;
  lock_unattributed_s += o.lock_unattributed_s;
  msg_s += o.msg_s;
  backoff_s += o.backoff_s;
  other_s += o.other_s;
}

CritPathAnalysis critical_path(const std::vector<TraceEvent>& events,
                               std::uint64_t dropped) {
  CritPathAnalysis a;
  a.events = events.size();
  a.events_dropped = dropped;

  // ---- pass 1: bucket the stream per transaction / per node, and replay
  // the phase totals, per-page waits and the wait-for graph --------------
  struct NodeMsgs {
    std::vector<std::pair<double, double>> iv;  ///< sorted by start
    double max_dur = 0;  ///< bounds the overlap-scan window
  };
  std::map<std::uint64_t, TxnData> txns;
  std::map<int, NodeMsgs> msgs;
  std::map<std::pair<std::int32_t, std::int64_t>, HotPage> pages;
  std::map<std::pair<int, int>, std::uint64_t> conflicts;
  WaitFor wait_for;
  constexpr auto kFirstPhase = static_cast<std::size_t>(TraceName::kPhaseCpu);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    switch (e.kind) {
      case TraceKind::PhaseTotal:
        if (const auto k = static_cast<std::size_t>(e.name) - kFirstPhase;
            k < a.phase_s.size()) {
          a.phase_s[k] += e.value;
        }
        break;
      case TraceKind::Span:
        if (e.name == TraceName::kLockWait) {
          HotPage& hp = pages[{e.aux, static_cast<std::int64_t>(e.value)}];
          hp.partition = e.aux;
          hp.page = static_cast<std::int64_t>(e.value);
          ++hp.waits;
          hp.wait_s += e.dur;
          wait_for.erase(e.id);  // the wait ended in a grant
        }
        if (e.name == TraceName::kMsgSend || e.name == TraceName::kMsgRecv) {
          if (e.node >= 0) {
            NodeMsgs& m = msgs[e.node];
            m.iv.emplace_back(e.t, e.t + e.dur);
            m.max_dur = std::max(m.max_dur, e.dur);
          }
        } else if (e.name == TraceName::kTxn) {
          TxnData& d = txns[e.id];
          d.committed = true;
          d.arrival = e.t;
          d.commit = e.t + e.dur;
          d.node = e.node;
        } else if (e.id != 0 && is_activity(e.name)) {
          txns[e.id].spans.push_back(
              Span{e.t, e.t + e.dur, e.name, e.value, e.aux});
        }
        break;
      case TraceKind::Instant:
        if (e.id == 0) break;  // transaction ids start at 1
        switch (e.name) {
          case TraceName::kWaitEdge: {
            // One batch of consecutive instants (same waiter, same time
            // stamp) is a full snapshot of that waiter's blocker set: the
            // lock table re-emits a waiter's edges whenever its page's queue
            // mutates, so a batch REPLACES whatever the waiter waited on
            // before. The cycle check runs once, after the batch's last
            // edge — exactly like the simulator's single check after
            // enqueueing the waiter.
            auto& edges = wait_for[e.id];
            if (i == 0 || !same_batch(events[i - 1], e)) edges.clear();
            const auto holder = static_cast<std::uint64_t>(e.value);
            edges.push_back(holder);
            ++a.wait_edges;
            ++conflicts[{e.node, static_cast<int>(holder >> kNodeShift)}];
            if ((i + 1 == events.size() || !same_batch(events[i + 1], e)) &&
                closes_cycle(wait_for, e.id)) {
              ++a.cycles;
              wait_for.erase(e.id);  // the waiter is the victim
            }
            auto& bl = txns[e.id].blockers;
            if (!bl.empty() && bl.back().first == e.t &&
                !bl.back().second.empty()) {
              bl.back().second.push_back(holder);  // same batch
            } else {
              bl.emplace_back(e.t, std::vector<std::uint64_t>{holder});
            }
            break;
          }
          case TraceName::kLockGrant:
            // Granted at the logical grant instant (the kLockWait span
            // records later, when the waiter's coroutine resumes).
            wait_for.erase(e.id);
            txns[e.id].blockers.emplace_back(e.t,
                                             std::vector<std::uint64_t>{});
            break;
          case TraceName::kDeadlock:
            ++a.deadlock_instants;
            retire_txn(wait_for, e.id);
            txns[e.id].blockers.emplace_back(e.t,
                                             std::vector<std::uint64_t>{});
            break;
          case TraceName::kRestart: {
            retire_txn(wait_for, e.id);
            TxnData& d = txns[e.id];
            d.restarts.push_back(e.t);
            d.blockers.emplace_back(e.t, std::vector<std::uint64_t>{});
            break;
          }
          case TraceName::kCommit:
            retire_txn(wait_for, e.id);
            break;
          default:
            break;
        }
        break;
      default:
        break;  // flows are not path inputs
    }
  }
  for (auto& [node, m] : msgs) {
    (void)node;
    std::sort(m.iv.begin(), m.iv.end());
  }
  for (auto& [id, d] : txns) {
    (void)id;
    std::stable_sort(d.spans.begin(), d.spans.end(),
                     [](const Span& x, const Span& y) { return x.t0 < y.t0; });
    std::stable_sort(d.blockers.begin(), d.blockers.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
  }

  // ---- pass 2: per-committed-txn boundary sweep -------------------------
  sim::Histogram resp_hist;
  std::vector<TxnCritPath> paths;
  std::map<int, NodeCrit> nodes;
  std::map<std::int32_t, PartitionCrit> parts;

  for (const auto& [id, d] : txns) {
    if (!d.committed || d.commit <= d.arrival) continue;
    const double a0 = d.arrival, a1 = d.commit;

    TxnCritPath p;
    p.id = id;
    p.node = d.node;
    p.arrival_s = a0;
    p.response_s = a1 - a0;
    p.restarts = static_cast<int>(d.restarts.size());

    std::vector<double> bounds{a0, a1};
    for (const Span& s : d.spans) {
      if (s.t1 <= a0 || s.t0 >= a1) continue;
      bounds.push_back(std::max(s.t0, a0));
      bounds.push_back(std::min(s.t1, a1));
      if (s.name == TraceName::kCpu) {
        const double split = s.t0 + s.value;  // queueing wait comes first
        if (split > a0 && split < a1) bounds.push_back(split);
      }
    }
    for (double r : d.restarts) {
      if (r > a0 && r < a1) bounds.push_back(r);
    }
    for (const auto& [t, set] : d.blockers) {
      (void)set;
      if (t > a0 && t < a1) bounds.push_back(t);
    }
    std::sort(bounds.begin(), bounds.end());

    // Uncovered elementary intervals merge into gap runs so a multi-boundary
    // gap (e.g. a restart delay crossed by blocker-timeline entries) is
    // classified once, by where the run starts.
    double gap_start = 0, gap_end = 0;
    bool in_gap = false;
    const auto flush_gap = [&] {
      if (!in_gap) return;
      in_gap = false;
      const double len = gap_end - gap_start;
      if (len <= 0) return;
      for (double r : d.restarts) {
        if (std::fabs(r - gap_start) <= kTol) {
          p.path.backoff_s += len;
          return;
        }
      }
      // Message gap: any message processing at this node overlaps the run
      // (the request leaves during the gap and/or the reply lands at its
      // end).
      auto mi = msgs.find(d.node);
      if (mi != msgs.end()) {
        const auto& iv = mi->second.iv;
        auto j = std::lower_bound(
            iv.begin(), iv.end(),
            std::make_pair(gap_start - mi->second.max_dur - kTol, 0.0));
        for (; j != iv.end() && j->first < gap_end - kTol; ++j) {
          if (j->second > gap_start + kTol) {
            p.path.msg_s += len;
            return;
          }
        }
      }
      p.path.other_s += len;
    };

    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      const double x = bounds[i], y = bounds[i + 1];
      if (y - x <= 0) continue;
      const double mid = 0.5 * (x + y);
      const Span* best = nullptr;
      int bp = 0;
      for (const Span& s : d.spans) {
        if (s.t0 <= mid && mid < s.t1 && priority(s.name) > bp) {
          bp = priority(s.name);
          best = &s;
        }
      }
      if (!best) {
        if (in_gap && std::fabs(gap_end - x) <= kTol) {
          gap_end = y;
        } else {
          flush_gap();
          in_gap = true;
          gap_start = x;
          gap_end = y;
        }
        continue;
      }
      flush_gap();
      const double len = y - x;
      switch (best->name) {
        case TraceName::kLockWait: {
          p.path.lock_wait_s += len;
          parts[best->aux].lock_wait_s += len;
          // Resolve the wait to the holders' concurrent activity.
          const std::vector<std::uint64_t>* set = nullptr;
          for (const auto& [t, s] : d.blockers) {
            if (t <= mid) set = &s;
            else break;
          }
          if (!set || set->empty()) {
            p.path.lock_unattributed_s += len;
          } else {
            const double share = 1.0 / static_cast<double>(set->size());
            for (std::uint64_t h : *set) {
              auto hi = txns.find(h);
              attribute_holder(hi == txns.end() ? nullptr : &hi->second, x, y,
                               share, p.path);
            }
          }
          break;
        }
        case TraceName::kPageRequest:
          p.path.page_fetch_s += len;
          parts[best->aux].page_fetch_s += len;
          break;
        case TraceName::kCommitIo: p.path.commit_io_s += len; break;
        case TraceName::kIoRead:
        case TraceName::kIoWrite:
        case TraceName::kIoLog:
          p.path.io_s += len;
          parts[best->aux].io_s += len;
          break;
        case TraceName::kGemAccess: p.path.gem_s += len; break;
        case TraceName::kCpu:
          if (mid < best->t0 + best->value) p.path.cpu_wait_s += len;
          else p.path.cpu_s += len;
          break;
        case TraceName::kMplWait: p.path.mpl_wait_s += len; break;
        default: break;
      }
    }
    flush_gap();

    // Partition lock-wait counts (one per blocked request on the path).
    for (const Span& s : d.spans) {
      if (s.name == TraceName::kLockWait && s.t1 > a0 && s.t0 < a1) {
        ++parts[s.aux].lock_waits;
      }
    }

    const double rel =
        std::fabs(p.path.total_s() - p.response_s) /
        std::max(p.response_s, 1e-12);
    if (rel <= 0.01) ++a.txns_within_tol;
    a.worst_rel_err = std::max(a.worst_rel_err, rel);

    ++a.txns;
    a.restarts += static_cast<std::uint64_t>(p.restarts);
    a.response_s += p.response_s;
    a.total.add(p.path);
    NodeCrit& nc = nodes[d.node];
    nc.node = d.node;
    ++nc.txns;
    nc.response_s += p.response_s;
    nc.sum.add(p.path);
    resp_hist.add(p.response_s);
    paths.push_back(std::move(p));
  }

  // ---- percentiles and tail cohorts -------------------------------------
  const double p50 = resp_hist.quantile(0.50);
  const double p90 = resp_hist.quantile(0.90);
  const double p99 = resp_hist.quantile(0.99);
  a.p50_ms = p50 * 1e3;
  a.p90_ms = p90 * 1e3;
  a.p99_ms = p99 * 1e3;

  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, std::pair<double, double>> bands[] = {
      {"all", {0.0, inf}},
      {"<=p50", {0.0, p50}},
      {"p50-p90", {p50, p90}},
      {"p90-p99", {p90, p99}},
      {">p99", {p99, inf}},
  };
  for (const auto& [label, band] : bands) {
    CohortCrit c;
    c.label = label;
    c.lo_s = band.first;
    c.hi_s = band.second;
    a.cohorts.push_back(c);
  }
  for (const TxnCritPath& p : paths) {
    const auto tally = [&](CohortCrit& c) {
      ++c.txns;
      c.response_s += p.response_s;
      c.sum.add(p.path);
    };
    tally(a.cohorts[0]);
    if (p.response_s <= p50) tally(a.cohorts[1]);
    else if (p.response_s <= p90) tally(a.cohorts[2]);
    else if (p.response_s <= p99) tally(a.cohorts[3]);
    else tally(a.cohorts[4]);
  }

  a.nodes.reserve(nodes.size());
  for (const auto& [n, nc] : nodes) {
    (void)n;
    a.nodes.push_back(nc);
  }
  a.partitions.reserve(parts.size());
  for (const auto& [pid, pc] : parts) {
    PartitionCrit out = pc;
    out.partition = pid;
    a.partitions.push_back(out);
  }
  std::sort(a.partitions.begin(), a.partitions.end(),
            [](const PartitionCrit& x, const PartitionCrit& y) {
              if (x.lock_wait_s != y.lock_wait_s) {
                return x.lock_wait_s > y.lock_wait_s;
              }
              return x.partition < y.partition;
            });

  a.hot_pages.reserve(pages.size());
  for (const auto& [key, hp] : pages) {
    (void)key;
    a.hot_pages.push_back(hp);
  }
  std::sort(a.hot_pages.begin(), a.hot_pages.end(),
            [](const HotPage& x, const HotPage& y) {
              if (x.wait_s != y.wait_s) return x.wait_s > y.wait_s;
              if (x.partition != y.partition) return x.partition < y.partition;
              return x.page < y.page;
            });
  a.conflicts.reserve(conflicts.size());
  for (const auto& [key, edges] : conflicts) {
    a.conflicts.push_back(ConflictPair{key.first, key.second, edges});
  }
  std::sort(a.conflicts.begin(), a.conflicts.end(),
            [](const ConflictPair& x, const ConflictPair& y) {
              if (x.edges != y.edges) return x.edges > y.edges;
              if (x.waiter_node != y.waiter_node) {
                return x.waiter_node < y.waiter_node;
              }
              return x.holder_node < y.holder_node;
            });
  return a;
}

// ------------------------------------------------------------- formatting

namespace {

/// Mean per-txn milliseconds for one class, plus share of the response.
void line(std::string& out, const char* label, double class_s, double txns,
          double resp_s) {
  const double mean_ms = txns > 0 ? class_s * 1e3 / txns : 0.0;
  const double share = resp_s > 0 ? 100.0 * class_s / resp_s : 0.0;
  append(out, "  %-18s %9.3f ms  %5.1f%%\n", label, mean_ms, share);
}

}  // namespace

std::string format_critical_path(const CritPathAnalysis& a, int top_k) {
  std::string out;
  append(out, "critical-path profile: %llu committed txns, %llu events",
         static_cast<unsigned long long>(a.txns),
         static_cast<unsigned long long>(a.events));
  if (a.events_dropped > 0) {
    append(out, " (%llu dropped; early spans may land in 'other')",
           static_cast<unsigned long long>(a.events_dropped));
  }
  append(out, "\n");
  const double txns = static_cast<double>(a.txns);
  append(out,
         "response: mean %.3f ms  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms\n",
         a.txns > 0 ? a.response_s * 1e3 / txns : 0.0, a.p50_ms, a.p90_ms,
         a.p99_ms);
  append(out,
         "reconciliation: %llu/%llu txns within 1%% of traced response "
         "(worst rel err %.2e)\n\n",
         static_cast<unsigned long long>(a.txns_within_tol),
         static_cast<unsigned long long>(a.txns), a.worst_rel_err);

  append(out, "per-txn critical path (mean, share of response):\n");
  const CritBreakdown& b = a.total;
  line(out, "cpu", b.cpu_s, txns, a.response_s);
  line(out, "cpu.wait", b.cpu_wait_s, txns, a.response_s);
  line(out, "mpl.wait", b.mpl_wait_s, txns, a.response_s);
  line(out, "io", b.io_s, txns, a.response_s);
  line(out, "commit.io", b.commit_io_s, txns, a.response_s);
  line(out, "page.fetch", b.page_fetch_s, txns, a.response_s);
  line(out, "gem", b.gem_s, txns, a.response_s);
  line(out, "lock.wait", b.lock_wait_s, txns, a.response_s);
  line(out, "  holder.cpu", b.lock_holder_cpu_s, txns, a.response_s);
  line(out, "  holder.io", b.lock_holder_io_s, txns, a.response_s);
  line(out, "  holder.lock", b.lock_holder_lock_s, txns, a.response_s);
  line(out, "  holder.gem", b.lock_holder_gem_s, txns, a.response_s);
  line(out, "  holder.other", b.lock_holder_other_s, txns, a.response_s);
  line(out, "  unattributed", b.lock_unattributed_s, txns, a.response_s);
  line(out, "msg", b.msg_s, txns, a.response_s);
  line(out, "backoff", b.backoff_s, txns, a.response_s);
  line(out, "other", b.other_s, txns, a.response_s);

  append(out, "\ntail cohorts (mean ms per txn):\n");
  append(out,
         "  %-8s %6s %9s %8s %8s %8s %8s %8s %8s\n", "cohort", "txns",
         "resp", "cpu", "io", "lock", "gem", "msg", "queue");
  for (const CohortCrit& c : a.cohorts) {
    const double n = c.txns > 0 ? static_cast<double>(c.txns) : 1.0;
    append(out, "  %-8s %6llu %9.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n",
           c.label.c_str(), static_cast<unsigned long long>(c.txns),
           c.response_s * 1e3 / n,
           (c.sum.cpu_s + c.sum.cpu_wait_s) * 1e3 / n,
           (c.sum.io_s + c.sum.commit_io_s + c.sum.page_fetch_s) * 1e3 / n,
           c.sum.lock_wait_s * 1e3 / n, c.sum.gem_s * 1e3 / n,
           c.sum.msg_s * 1e3 / n,
           (c.sum.mpl_wait_s + c.sum.backoff_s) * 1e3 / n);
  }

  if (!a.nodes.empty()) {
    append(out, "\nper-node (mean ms per txn):\n");
    append(out, "  %-5s %6s %9s %8s %8s %8s %8s\n", "node", "txns", "resp",
           "cpu", "io", "lock", "gem");
    for (const NodeCrit& nc : a.nodes) {
      const double n = nc.txns > 0 ? static_cast<double>(nc.txns) : 1.0;
      append(out, "  %-5d %6llu %9.3f %8.3f %8.3f %8.3f %8.3f\n", nc.node,
             static_cast<unsigned long long>(nc.txns),
             nc.response_s * 1e3 / n,
             (nc.sum.cpu_s + nc.sum.cpu_wait_s) * 1e3 / n,
             (nc.sum.io_s + nc.sum.commit_io_s + nc.sum.page_fetch_s) * 1e3 /
                 n,
             nc.sum.lock_wait_s * 1e3 / n, nc.sum.gem_s * 1e3 / n);
    }
  }

  if (!a.partitions.empty()) {
    append(out, "\ntop partitions by lock wait:\n");
    append(out, "  %-9s %10s %12s %12s %12s\n", "partition", "lock.waits",
           "lock.wait_s", "page.fetch_s", "io_s");
    int shown = 0;
    for (const PartitionCrit& pc : a.partitions) {
      if (shown++ >= top_k) break;
      append(out, "  %-9d %10llu %12.4f %12.4f %12.4f\n", pc.partition,
             static_cast<unsigned long long>(pc.lock_waits), pc.lock_wait_s,
             pc.page_fetch_s, pc.io_s);
    }
  }

  append(out, "\nhot pages (top %d by lock-wait time):\n", top_k);
  const std::size_t np =
      std::min(a.hot_pages.size(), static_cast<std::size_t>(top_k));
  for (std::size_t i = 0; i < np; ++i) {
    const HotPage& hp = a.hot_pages[i];
    append(out, "  part %d page %lld: %llu waits, %.3f ms total\n",
           hp.partition, static_cast<long long>(hp.page),
           static_cast<unsigned long long>(hp.waits), hp.wait_s * 1e3);
  }
  if (a.hot_pages.empty()) append(out, "  (none)\n");

  append(out, "lock-conflict pairs (waiter node -> holder node):\n");
  const std::size_t nc =
      std::min(a.conflicts.size(), static_cast<std::size_t>(top_k));
  for (std::size_t i = 0; i < nc; ++i) {
    const ConflictPair& c = a.conflicts[i];
    append(out, "  %d -> %d: %llu edges\n", c.waiter_node, c.holder_node,
           static_cast<unsigned long long>(c.edges));
  }
  if (a.conflicts.empty()) append(out, "  (none)\n");

  append(out,
         "wait-for graph: %llu edges, %llu cycles (deadlock events: %llu)\n",
         static_cast<unsigned long long>(a.wait_edges),
         static_cast<unsigned long long>(a.cycles),
         static_cast<unsigned long long>(a.deadlock_instants));
  return out;
}

namespace {

void write_breakdown(JsonWriter& w, const CritBreakdown& b) {
  w.begin_object();
  w.kv("cpu_s", b.cpu_s);
  w.kv("cpu_wait_s", b.cpu_wait_s);
  w.kv("mpl_wait_s", b.mpl_wait_s);
  w.kv("io_s", b.io_s);
  w.kv("commit_io_s", b.commit_io_s);
  w.kv("page_fetch_s", b.page_fetch_s);
  w.kv("gem_s", b.gem_s);
  w.kv("lock_wait_s", b.lock_wait_s);
  w.kv("lock_holder_cpu_s", b.lock_holder_cpu_s);
  w.kv("lock_holder_io_s", b.lock_holder_io_s);
  w.kv("lock_holder_lock_s", b.lock_holder_lock_s);
  w.kv("lock_holder_gem_s", b.lock_holder_gem_s);
  w.kv("lock_holder_other_s", b.lock_holder_other_s);
  w.kv("lock_unattributed_s", b.lock_unattributed_s);
  w.kv("msg_s", b.msg_s);
  w.kv("backoff_s", b.backoff_s);
  w.kv("other_s", b.other_s);
  w.kv("total_s", b.total_s());
  w.end_object();
}

}  // namespace

std::string critical_path_json(const CritPathAnalysis& a) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "gemsd.critpath.v1");
  w.kv("events", a.events);
  w.kv("events_dropped", a.events_dropped);
  w.kv("txns", a.txns);
  w.kv("restarts", a.restarts);
  w.kv("response_s", a.response_s);
  w.key("percentiles_ms");
  w.begin_object();
  w.kv("p50", a.p50_ms);
  w.kv("p90", a.p90_ms);
  w.kv("p99", a.p99_ms);
  w.end_object();
  w.key("reconciliation");
  w.begin_object();
  w.kv("txns", a.txns);
  w.kv("within_1pct", a.txns_within_tol);
  w.kv("fraction",
       a.txns > 0 ? static_cast<double>(a.txns_within_tol) /
                        static_cast<double>(a.txns)
                  : 1.0);
  w.kv("worst_rel_err", a.worst_rel_err);
  w.end_object();
  w.key("total");
  write_breakdown(w, a.total);
  w.key("nodes");
  w.begin_array();
  for (const NodeCrit& nc : a.nodes) {
    w.begin_object();
    w.kv("node", static_cast<std::int64_t>(nc.node));
    w.kv("txns", nc.txns);
    w.kv("response_s", nc.response_s);
    w.key("path");
    write_breakdown(w, nc.sum);
    w.end_object();
  }
  w.end_array();
  w.key("partitions");
  w.begin_array();
  for (const PartitionCrit& pc : a.partitions) {
    w.begin_object();
    w.kv("partition", static_cast<std::int64_t>(pc.partition));
    w.kv("lock_waits", pc.lock_waits);
    w.kv("lock_wait_s", pc.lock_wait_s);
    w.kv("page_fetch_s", pc.page_fetch_s);
    w.kv("io_s", pc.io_s);
    w.end_object();
  }
  w.end_array();
  w.key("cohorts");
  w.begin_array();
  for (const CohortCrit& c : a.cohorts) {
    w.begin_object();
    w.kv("label", c.label);
    w.kv("lo_ms", c.lo_s * 1e3);
    // -1 marks an unbounded upper edge (JSON has no infinity).
    w.kv("hi_ms", std::isfinite(c.hi_s) ? c.hi_s * 1e3 : -1.0);
    w.kv("txns", c.txns);
    w.kv("response_s", c.response_s);
    w.key("path");
    write_breakdown(w, c.sum);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

Reconciliation reconcile(const CritPathAnalysis& a, const JsonValue& metrics,
                         double tolerance) {
  Reconciliation r;
  const JsonValue* brk = metrics.find("breakdown_ms");
  const double txns = a.txns > 0 ? static_cast<double>(a.txns)
                                 : metrics.num_or("commits", 0.0);
  const double per_txn_ms = txns > 0 ? 1e3 / txns : 0.0;

  const char* const keys[] = {"cpu", "cpu_wait", "io", "cc", "queue"};
  r.ok = true;
  for (std::size_t k = 0; k < a.phase_s.size(); ++k) {
    ReconcileLine line;
    line.phase = keys[k];
    line.trace_ms = a.phase_s[k] * per_txn_ms;
    line.reported_ms = brk ? brk->num_or(keys[k], 0.0) : 0.0;
    line.rel_err = std::abs(line.trace_ms - line.reported_ms) /
                   std::max(std::abs(line.reported_ms), 1e-9);
    // Phases that are essentially zero on both sides always reconcile (the
    // relative error on a 1e-12 ms bucket is meaningless).
    if (line.trace_ms < 1e-6 && line.reported_ms < 1e-6) line.rel_err = 0.0;
    r.worst_rel_err = std::max(r.worst_rel_err, line.rel_err);
    if (line.rel_err > tolerance) r.ok = false;
    r.lines.push_back(line);
  }
  return r;
}

std::string format_reconciliation(const Reconciliation& r) {
  std::string s;
  append(s, "reconciliation (trace phase sums vs reported breakdown_ms):\n");
  for (const ReconcileLine& l : r.lines) {
    append(s, "  %-9s trace %10.4f ms  reported %10.4f ms  rel err %6.3f%%\n",
           l.phase.c_str(), l.trace_ms, l.reported_ms, l.rel_err * 1e2);
  }
  append(s, "  worst relative error %.3f%% -> %s\n", r.worst_rel_err * 1e2,
         r.ok ? "OK" : "MISMATCH");
  return s;
}

}  // namespace gemsd::obs
