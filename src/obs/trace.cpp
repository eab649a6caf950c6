#include "obs/trace.hpp"

#include <array>
#include <cstdio>
#include <regex>
#include <stdexcept>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace gemsd::obs {

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {
  try {
    buf_.reserve(capacity_);
  } catch (const std::exception&) {
    // length_error above max_size() (nothing is allocated), else bad_alloc.
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "--trace-capacity: cannot reserve a ring of %zu trace "
                  "events (%.4g bytes)",
                  capacity_,
                  static_cast<double>(capacity_) * sizeof(TraceEvent));
    throw std::length_error(msg);
  }
}

const char* to_string(TraceName n) {
  switch (n) {
    case TraceName::kTxn: return "txn";
    case TraceName::kMplWait: return "mpl.wait";
    case TraceName::kCpu: return "cpu";
    case TraceName::kLockWait: return "lock.wait";
    case TraceName::kPageRequest: return "page.request";
    case TraceName::kIoRead: return "io.read";
    case TraceName::kIoWrite: return "io.write";
    case TraceName::kIoLog: return "io.log";
    case TraceName::kCommitIo: return "commit.io";
    case TraceName::kMsgSend: return "msg";
    case TraceName::kMsgRecv: return "msg";
    case TraceName::kRestart: return "restart";
    case TraceName::kDeadlock: return "deadlock";
    case TraceName::kWaitEdge: return "wait.edge";
    case TraceName::kLockGrant: return "lock.grant";
    case TraceName::kGemAccess: return "gem.access";
    case TraceName::kCommit: return "commit";
    case TraceName::kPhaseCpu: return "phase.cpu";
    case TraceName::kPhaseCpuWait: return "phase.cpu_wait";
    case TraceName::kPhaseIo: return "phase.io";
    case TraceName::kPhaseCc: return "phase.cc";
    case TraceName::kPhaseQueue: return "phase.queue";
    case TraceName::kCount: break;
  }
  return "?";
}

const char* category(TraceName n) {
  switch (n) {
    case TraceName::kTxn:
    case TraceName::kMplWait:
    case TraceName::kCpu:
    case TraceName::kCommitIo:
    case TraceName::kRestart:
    case TraceName::kCommit:
      return "txn";
    case TraceName::kLockWait:
    case TraceName::kPageRequest:
    case TraceName::kDeadlock:
    case TraceName::kWaitEdge:
    case TraceName::kLockGrant:
    case TraceName::kGemAccess:
      return "cc";
    case TraceName::kIoRead:
    case TraceName::kIoWrite:
    case TraceName::kIoLog:
      return "io";
    case TraceName::kMsgSend:
    case TraceName::kMsgRecv:
      return "net";
    default:
      return "txn";  // phase totals: exported inside the txn span's args
  }
}

std::array<bool, static_cast<std::size_t>(TraceName::kCount)>
trace_name_filter(const std::string& pattern) {
  std::array<bool, static_cast<std::size_t>(TraceName::kCount)> mask;
  if (pattern.empty()) {
    mask.fill(true);
    return mask;
  }
  const std::regex re(pattern);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = std::regex_search(to_string(static_cast<TraceName>(i)), re);
  }
  return mask;
}

namespace {

constexpr std::uint64_t kTxnSeqMask = (std::uint64_t{1} << 40) - 1;

bool txn_scoped(const TraceEvent& e) {
  return e.id != 0 && e.name != TraceName::kMsgSend &&
         e.name != TraceName::kMsgRecv;
}

/// Events whose `value` is a page number and `aux` the page's partition.
bool page_scoped(TraceName n) {
  return n == TraceName::kLockWait || n == TraceName::kPageRequest ||
         n == TraceName::kIoRead || n == TraceName::kIoWrite ||
         n == TraceName::kDeadlock || n == TraceName::kLockGrant;
}

/// Chrome "tid": per-transaction lane inside the node's process (the txn id
/// low bits are the per-node sequence number), lane 0 for node background
/// work (write-backs, messages).
double event_tid(const TraceEvent& e) {
  return txn_scoped(e) ? static_cast<double>(e.id & kTxnSeqMask) + 1.0 : 0.0;
}

struct PhaseTotals {
  std::array<double, 5> sec{};  // cpu, cpu_wait, io, cc, queue
  int restarts = 0;
};

void emit_common(JsonWriter& w, const char* ph, const TraceEvent& e,
                 double pid) {
  w.kv("ph", ph);
  w.key("pid");
  w.value(pid);
  w.key("tid");
  w.value(event_tid(e));
  w.key("ts");
  w.value(e.t * 1e6);  // Chrome trace timestamps are microseconds
}

}  // namespace

void chrome_trace_json(
    JsonWriter& w, const RunTelemetry& tel,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  // Pass 1: fold per-txn phase totals into the txn span's args, and find the
  // node set for process-name metadata.
  std::unordered_map<std::uint64_t, PhaseTotals> phases;
  std::vector<char> node_seen;  // indexed by node id
  for (const TraceEvent& e : tel.events) {
    if (e.node >= 0) {
      const auto n = static_cast<std::size_t>(e.node);
      if (n >= node_seen.size()) node_seen.resize(n + 1, 0);
      node_seen[n] = 1;
    }
    if (e.kind == TraceKind::PhaseTotal) {
      auto& pt = phases[e.id];
      switch (e.name) {
        case TraceName::kPhaseCpu: pt.sec[0] = e.value; break;
        case TraceName::kPhaseCpuWait: pt.sec[1] = e.value; break;
        case TraceName::kPhaseIo: pt.sec[2] = e.value; break;
        case TraceName::kPhaseCc: pt.sec[3] = e.value; break;
        case TraceName::kPhaseQueue: pt.sec[4] = e.value; break;
        default: break;
      }
    } else if (e.kind == TraceKind::Instant &&
               e.name == TraceName::kRestart) {
      ++phases[e.id].restarts;
    }
  }

  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.kv("schema", "gemsd.trace.v1");
  for (const auto& [k, raw] : metadata) {
    w.key(k);
    w.raw(raw);
  }
  w.key("stats_start_s");
  w.value(tel.stats_start);
  w.key("end_s");
  w.value(tel.end);
  w.key("events_dropped");
  w.value(tel.events_dropped);
  w.end_object();

  w.key("traceEvents");
  w.begin_array();

  // Process/thread naming: pid 0 is the cluster (events without a node), pid
  // n+1 is node n; lane 0 of each node holds background work.
  w.begin_object();
  w.kv("ph", "M");
  w.kv("name", "process_name");
  w.key("pid");
  w.value(std::int64_t{0});
  w.key("args");
  w.begin_object();
  w.kv("name", "cluster");
  w.end_object();
  w.end_object();
  for (std::size_t i = 0; i < node_seen.size(); ++i) {
    if (!node_seen[i]) continue;
    const auto n = static_cast<std::int64_t>(i);
    w.begin_object();
    w.kv("ph", "M");
    w.kv("name", "process_name");
    w.key("pid");
    w.value(n + 1);
    w.key("args");
    w.begin_object();
    w.kv("name", "node" + std::to_string(n));
    w.end_object();
    w.end_object();
    w.begin_object();
    w.kv("ph", "M");
    w.kv("name", "thread_name");
    w.key("pid");
    w.value(n + 1);
    w.key("tid");
    w.value(std::int64_t{0});
    w.key("args");
    w.begin_object();
    w.kv("name", "background");
    w.end_object();
    w.end_object();
  }

  for (const TraceEvent& e : tel.events) {
    const double pid = e.node >= 0 ? static_cast<double>(e.node) + 1.0 : 0.0;
    switch (e.kind) {
      case TraceKind::PhaseTotal:
        break;  // folded into the txn span args
      case TraceKind::Span: {
        w.begin_object();
        w.kv("name", to_string(e.name));
        w.kv("cat", category(e.name));
        emit_common(w, "X", e, pid);
        w.key("dur");
        w.value(e.dur * 1e6);
        w.key("args");
        w.begin_object();
        if (e.id != 0) {
          w.key("id");
          w.value(e.id);
        }
        if (e.name == TraceName::kTxn) {
          auto it = phases.find(e.id);
          const PhaseTotals pt =
              it != phases.end() ? it->second : PhaseTotals{};
          w.key("cpu_ms");
          w.value(pt.sec[0] * 1e3);
          w.key("cpu_wait_ms");
          w.value(pt.sec[1] * 1e3);
          w.key("io_ms");
          w.value(pt.sec[2] * 1e3);
          w.key("cc_ms");
          w.value(pt.sec[3] * 1e3);
          w.key("mpl_wait_ms");
          w.value(pt.sec[4] * 1e3);
          w.key("restarts");
          w.value(static_cast<std::int64_t>(pt.restarts));
          w.key("type");
          w.value(e.value);
        } else if (page_scoped(e.name)) {
          w.key("v");
          w.value(e.value);
          w.key("p");
          w.value(static_cast<std::int64_t>(e.aux));
        } else if (e.value != 0.0) {
          w.key("v");
          w.value(e.value);
        }
        w.end_object();
        w.end_object();
        break;
      }
      case TraceKind::Instant: {
        w.begin_object();
        w.kv("name", to_string(e.name));
        w.kv("cat", category(e.name));
        emit_common(w, "i", e, pid);
        // Payload args so instants round-trip through the analyzer's trace
        // parser (wait.edge carries the blocked-on txn in v, deadlock the
        // victim's contended page in v/p).
        if (e.id != 0 || e.value != 0.0 || page_scoped(e.name)) {
          w.key("args");
          w.begin_object();
          if (e.id != 0) {
            w.key("id");
            w.value(e.id);
          }
          if (e.value != 0.0 || page_scoped(e.name)) {
            w.key("v");
            w.value(e.value);
          }
          if (page_scoped(e.name)) {
            w.key("p");
            w.value(static_cast<std::int64_t>(e.aux));
          }
          w.end_object();
        }
        w.kv("s", "t");
        w.end_object();
        break;
      }
      case TraceKind::FlowBegin:
      case TraceKind::FlowEnd: {
        w.begin_object();
        w.kv("name", "msg");
        w.kv("cat", "net");
        emit_common(w, e.kind == TraceKind::FlowBegin ? "s" : "f", e, pid);
        if (e.kind == TraceKind::FlowEnd) w.kv("bp", "e");
        w.key("id");
        w.value(e.id);
        // Long-message flag (only when set, so short-message flows keep their
        // golden byte shape); lets the importer round-trip flows losslessly.
        if (e.value != 0.0) {
          w.key("v");
          w.value(e.value);
        }
        w.end_object();
        break;
      }
    }
  }

  w.end_array();
  w.end_object();
}

std::string chrome_trace_json(
    const RunTelemetry& tel,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  JsonWriter w;
  chrome_trace_json(w, tel, metadata);
  return w.take();
}

// ------------------------------------------------------------ trace import

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
    e.node = static_cast<std::int16_t>(je.num_or("pid", 0.0) - 1.0);
    e.t = je.num_or("ts", 0.0) * 1e-6;
    e.id = static_cast<std::uint64_t>(je.num_or("id", 0.0));
    e.value = je.num_or("v", 0.0);
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
  e.node = static_cast<std::int16_t>(je.num_or("pid", 0.0) - 1.0);
  e.t = je.num_or("ts", 0.0) * 1e-6;
  const JsonValue* args = je.find("args");
  if (args) {
    e.id = static_cast<std::uint64_t>(args->num_or("id", 0.0));
    e.value = args->num_or("v", 0.0);
    e.aux = static_cast<std::int32_t>(args->num_or("p", 0.0));
  }

  if (ph->str == "X") {
    e.kind = TraceKind::Span;
    e.dur = je.num_or("dur", 0.0) * 1e-6;
    if (tn == TraceName::kTxn && args) {
      e.value = args->num_or("type", 0.0);
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
        p.value = args->num_or(key, 0.0) * 1e-3;
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
      doc.find("otherData")->num_or("events_dropped", 0.0));
  return true;
}

}  // namespace gemsd::obs
