#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

namespace gemsd::obs {

namespace {

constexpr int kNodeShift = 40;  ///< txn id layout: (node << 40) | sequence

NodeAttribution& node_slot(std::map<int, NodeAttribution>& nodes, int node) {
  auto [it, inserted] = nodes.try_emplace(node);
  if (inserted) it->second.node = node;
  return it->second;
}

void add_phase(NodeAttribution& a, TraceName n, double seconds) {
  switch (n) {
    case TraceName::kPhaseCpu: a.cpu_s += seconds; break;
    case TraceName::kPhaseCpuWait: a.cpu_wait_s += seconds; break;
    case TraceName::kPhaseIo: a.io_s += seconds; break;
    case TraceName::kPhaseCc: a.cc_s += seconds; break;
    case TraceName::kPhaseQueue: a.queue_s += seconds; break;
    default: break;
  }
}

/// Does `start` reach itself through the live wait-for edges?
bool closes_cycle(
    const std::map<std::uint64_t, std::vector<std::uint64_t>>& out,
    std::uint64_t start) {
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

double num_or(const JsonValue* v, double fallback) {
  return v && v->is_number() ? v->num : fallback;
}

/// A transaction's locks dropped (commit, restart, deadlock abort): it can no
/// longer block anyone, and until it waits again it waits on nothing. Remove
/// its out-edges AND every stale edge pointing to it — wait edges are
/// snapshots of the queue at enqueue time, and a restarted transaction reuses
/// its id, so leftover incoming edges would close cycles the simulator never
/// saw.
void retire_txn(std::map<std::uint64_t, std::vector<std::uint64_t>>& out,
                std::uint64_t id) {
  out.erase(id);
  for (auto& [waiter, edges] : out) {
    edges.erase(std::remove(edges.begin(), edges.end(), id), edges.end());
  }
}

}  // namespace

TraceAnalysis analyze_trace(const std::vector<TraceEvent>& events,
                            std::uint64_t dropped) {
  TraceAnalysis a;
  a.events = events.size();
  a.events_dropped = dropped;

  std::map<int, NodeAttribution> nodes;
  std::map<std::pair<std::int32_t, std::int64_t>, HotPage> pages;
  std::map<std::pair<int, int>, std::uint64_t> conflicts;
  // Live wait-for edges: waiter -> the txns it waits on. Mirrors the lock
  // table's waiting set as the trace replays.
  std::map<std::uint64_t, std::vector<std::uint64_t>> out;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const int node = e.node;
    switch (e.kind) {
      case TraceKind::PhaseTotal:
        add_phase(a.total, e.name, e.value);
        add_phase(node_slot(nodes, node), e.name, e.value);
        break;
      case TraceKind::Span:
        switch (e.name) {
          case TraceName::kTxn:
            ++a.total.txns;
            ++node_slot(nodes, node).txns;
            a.total.resp_s += e.dur;
            node_slot(nodes, node).resp_s += e.dur;
            break;
          case TraceName::kLockWait: {
            ++a.total.lock_waits;
            ++node_slot(nodes, node).lock_waits;
            a.total.lock_wait_s += e.dur;
            node_slot(nodes, node).lock_wait_s += e.dur;
            auto key = std::make_pair(e.aux,
                                      static_cast<std::int64_t>(e.value));
            HotPage& hp = pages[key];
            hp.partition = key.first;
            hp.page = key.second;
            ++hp.waits;
            hp.wait_s += e.dur;
            // The wait ended in a grant: retire this waiter's edges.
            out.erase(e.id);
            break;
          }
          case TraceName::kPageRequest:
            ++a.total.page_fetches;
            ++node_slot(nodes, node).page_fetches;
            a.total.page_fetch_s += e.dur;
            node_slot(nodes, node).page_fetch_s += e.dur;
            break;
          default:
            break;
        }
        break;
      case TraceKind::Instant:
        switch (e.name) {
          case TraceName::kWaitEdge: {
            // One batch of consecutive instants (same waiter, same time
            // stamp) is a full snapshot of that waiter's blocker set: the
            // lock table re-emits a waiter's edges whenever its page's queue
            // mutates, so a batch REPLACES whatever the waiter waited on
            // before. Apply it, then run the cycle check once — exactly like
            // the simulator's single check after enqueueing the waiter.
            const std::uint64_t waiter = e.id;
            auto& edges = out[waiter];
            edges.clear();
            std::size_t j = i;
            for (; j < events.size(); ++j) {
              const TraceEvent& f = events[j];
              if (f.kind != TraceKind::Instant ||
                  f.name != TraceName::kWaitEdge || f.id != waiter ||
                  f.t != e.t) {
                break;
              }
              const auto holder = static_cast<std::uint64_t>(f.value);
              edges.push_back(holder);
              ++a.wait_edges;
              ++conflicts[{f.node, static_cast<int>(holder >> kNodeShift)}];
            }
            i = j - 1;
            if (closes_cycle(out, waiter)) {
              ++a.cycles;
              out.erase(waiter);  // the waiter is the victim; wait cancelled
            }
            break;
          }
          case TraceName::kLockGrant:
            // Granted at the logical grant instant: the txn waits on nothing
            // until it blocks again. (The kLockWait span records later, when
            // the — possibly remote — waiter's coroutine resumes.)
            out.erase(e.id);
            break;
          case TraceName::kDeadlock:
            ++a.deadlock_instants;
            retire_txn(out, e.id);
            break;
          case TraceName::kRestart:
            ++a.total.restarts;
            ++node_slot(nodes, node).restarts;
            retire_txn(out, e.id);
            break;
          case TraceName::kCommit:
            retire_txn(out, e.id);
            break;
          default:
            break;
        }
        break;
      case TraceKind::FlowBegin:
      case TraceKind::FlowEnd:
        break;
    }
  }

  const auto finish = [](NodeAttribution& n) {
    n.other_cc_s =
        std::max(0.0, n.cc_s - n.lock_wait_s - n.page_fetch_s);
  };
  finish(a.total);
  a.nodes.reserve(nodes.size());
  for (auto& [id, attr] : nodes) {
    (void)id;
    finish(attr);
    a.nodes.push_back(attr);
  }

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

// ------------------------------------------------------------ trace parsing

namespace {

/// Reverse of to_string() for names that appear as spans or instants.
bool name_from_string(const std::string& s, TraceName& out) {
  for (int i = 0; i < static_cast<int>(TraceName::kCount); ++i) {
    const auto n = static_cast<TraceName>(i);
    if (s == to_string(n)) {
      out = n;
      return true;
    }
  }
  return false;
}

/// Append the native events of one traceEvents element to `out`.
void import_event(const JsonValue& je, std::vector<TraceEvent>& out) {
  if (!je.is_object()) return;
  const JsonValue* ph = je.find("ph");
  const JsonValue* name = je.find("name");
  if (!ph || !ph->is_string() || !name || !name->is_string()) return;
  if (ph->str == "s" || ph->str == "f") {
    // Message flow: begin/end pairs stitched by the top-level id; the
    // optional top-level "v" is the long-message flag.
    TraceEvent e;
    e.kind = ph->str == "s" ? TraceKind::FlowBegin : TraceKind::FlowEnd;
    e.name = e.kind == TraceKind::FlowBegin ? TraceName::kMsgSend
                                            : TraceName::kMsgRecv;
    e.node = static_cast<std::int16_t>(num_or(je.find("pid"), 0.0) - 1.0);
    e.t = num_or(je.find("ts"), 0.0) * 1e-6;
    e.id = static_cast<std::uint64_t>(num_or(je.find("id"), 0.0));
    e.value = num_or(je.find("v"), 0.0);
    out.push_back(e);
    return;
  }
  // Metadata records ("M") are presentation-only and stay behind, as do
  // the counter tracks ("C") of traces written before the sampler was
  // retired.
  if (ph->str != "X" && ph->str != "i") return;
  TraceName tn;
  if (!name_from_string(name->str, tn)) return;

  TraceEvent e;
  e.name = tn;
  e.node = static_cast<std::int16_t>(num_or(je.find("pid"), 0.0) - 1.0);
  e.t = num_or(je.find("ts"), 0.0) * 1e-6;
  const JsonValue* args = je.find("args");
  e.id = static_cast<std::uint64_t>(
      args ? num_or(args->find("id"), 0.0) : 0.0);
  if (args) {
    e.value = num_or(args->find("v"), 0.0);
    e.aux = static_cast<std::int32_t>(num_or(args->find("p"), 0.0));
  }

  if (ph->str == "X") {
    e.kind = TraceKind::Span;
    e.dur = num_or(je.find("dur"), 0.0) * 1e-6;
    if (tn == TraceName::kTxn && args) {
      e.value = num_or(args->find("type"), 0.0);
      out.push_back(e);
      // Re-expand the folded phase totals (recorded at commit = span end).
      const sim::SimTime tc = e.t + e.dur;
      const std::pair<TraceName, const char*> phases[] = {
          {TraceName::kPhaseCpu, "cpu_ms"},
          {TraceName::kPhaseCpuWait, "cpu_wait_ms"},
          {TraceName::kPhaseIo, "io_ms"},
          {TraceName::kPhaseCc, "cc_ms"},
          {TraceName::kPhaseQueue, "mpl_wait_ms"},
      };
      for (const auto& [pn, key] : phases) {
        TraceEvent p;
        p.name = pn;
        p.kind = TraceKind::PhaseTotal;
        p.node = e.node;
        p.id = e.id;
        p.t = tc;
        p.value = num_or(args->find(key), 0.0) * 1e-3;
        out.push_back(p);
      }
      return;
    }
  } else {
    e.kind = TraceKind::Instant;
  }
  out.push_back(e);
}

/// The checks on everything but traceEvents; "" when `doc` is a gemsd trace.
std::string check_trace_document(const JsonValue& doc) {
  if (!doc.is_object()) return "trace document is not a JSON object";
  const JsonValue* other = doc.find("otherData");
  const JsonValue* schema = other ? other->find("schema") : nullptr;
  if (!schema || !schema->is_string() || schema->str != "gemsd.trace.v1") {
    return "not a gemsd.trace.v1 document (otherData.schema missing)";
  }
  const JsonValue* evs = doc.find("traceEvents");
  if (!evs || !evs->is_array()) return "traceEvents array missing";
  return "";
}

}  // namespace

bool parse_chrome_trace(const std::string& text, std::vector<TraceEvent>& out,
                        std::uint64_t& dropped, std::string& error) {
  out.clear();
  dropped = 0;
  JsonValue doc;  // everything but the elements of traceEvents
  const bool parsed = json_parse_each(
      text, "traceEvents",
      [&out](const JsonValue& je) { import_event(je, out); }, doc, error);
  if (parsed) error = check_trace_document(doc);
  if (!parsed || !error.empty()) {
    out.clear();
    return false;
  }
  dropped = static_cast<std::uint64_t>(
      num_or(doc.find("otherData")->find("events_dropped"), 0.0));
  return true;
}

// ------------------------------------------------------------ reconciliation

Reconciliation reconcile(const TraceAnalysis& a, const JsonValue& metrics,
                         double tolerance) {
  Reconciliation r;
  const JsonValue* brk = metrics.find("breakdown_ms");
  const double commits = num_or(metrics.find("commits"), 0.0);
  const double txns =
      a.total.txns > 0 ? static_cast<double>(a.total.txns) : commits;
  const double per_txn_ms = txns > 0 ? 1e3 / txns : 0.0;

  const std::pair<const char*, double> buckets[] = {
      {"cpu", a.total.cpu_s},       {"cpu_wait", a.total.cpu_wait_s},
      {"io", a.total.io_s},         {"cc", a.total.cc_s},
      {"queue", a.total.queue_s},
  };
  r.ok = true;
  for (const auto& [key, sum_s] : buckets) {
    ReconcileLine line;
    line.phase = key;
    line.trace_ms = sum_s * per_txn_ms;
    line.reported_ms = brk ? num_or(brk->find(key), 0.0) : 0.0;
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

// -------------------------------------------------------------- formatting

std::string format_analysis(const TraceAnalysis& a, int top_k) {
  std::string s;
  append(s, "trace: %llu events, %llu dropped\n",
         static_cast<unsigned long long>(a.events),
         static_cast<unsigned long long>(a.events_dropped));
  append(s,
         "%5s %8s %8s %10s | per-txn ms: %8s %8s %8s %9s %9s %8s %8s\n",
         "node", "txns", "restarts", "resp_ms", "cpu", "cpu_wait", "io",
         "lock_wait", "page_fet", "other_cc", "queue");
  const auto row = [&s](const NodeAttribution& n, const char* name) {
    const double per =
        n.txns > 0 ? 1e3 / static_cast<double>(n.txns) : 0.0;
    append(s,
           "%5s %8llu %8llu %10.2f |             %8.3f %8.3f %8.3f %9.3f "
           "%9.3f %8.3f %8.3f\n",
           name, static_cast<unsigned long long>(n.txns),
           static_cast<unsigned long long>(n.restarts), n.resp_s * per,
           n.cpu_s * per, n.cpu_wait_s * per, n.io_s * per,
           n.lock_wait_s * per, n.page_fetch_s * per, n.other_cc_s * per,
           n.queue_s * per);
  };
  row(a.total, "all");
  char buf[16];
  for (const NodeAttribution& n : a.nodes) {
    std::snprintf(buf, sizeof buf, "%d", n.node);
    row(n, buf);
  }

  append(s, "hot pages (top %d by lock-wait time):\n", top_k);
  const std::size_t np =
      std::min(a.hot_pages.size(), static_cast<std::size_t>(top_k));
  for (std::size_t i = 0; i < np; ++i) {
    const HotPage& hp = a.hot_pages[i];
    append(s, "  part %d page %lld: %llu waits, %.3f ms total\n", hp.partition,
           static_cast<long long>(hp.page),
           static_cast<unsigned long long>(hp.waits), hp.wait_s * 1e3);
  }
  if (a.hot_pages.empty()) append(s, "  (none)\n");

  append(s, "lock-conflict pairs (waiter node -> holder node):\n");
  const std::size_t nc =
      std::min(a.conflicts.size(), static_cast<std::size_t>(top_k));
  for (std::size_t i = 0; i < nc; ++i) {
    const ConflictPair& c = a.conflicts[i];
    append(s, "  %d -> %d: %llu edges\n", c.waiter_node, c.holder_node,
           static_cast<unsigned long long>(c.edges));
  }
  if (a.conflicts.empty()) append(s, "  (none)\n");

  append(s, "wait-for graph: %llu edges, %llu cycles (deadlock events: %llu)\n",
         static_cast<unsigned long long>(a.wait_edges),
         static_cast<unsigned long long>(a.cycles),
         static_cast<unsigned long long>(a.deadlock_instants));
  return s;
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
