#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace gemsd::obs {

class JsonWriter;
struct TsSeries;
struct ResourceSet;

/// Phase breakdown of one (slow) transaction, recorded at commit.
struct SlowTxn {
  std::uint64_t id = 0;
  std::int16_t node = -1;
  int type = 0;
  int restarts = 0;
  sim::SimTime arrival = 0.0;
  double response = 0.0;  ///< seconds
  double cpu = 0.0, cpu_wait = 0.0, io = 0.0, cc = 0.0, queue = 0.0;
};

/// Keeps the K slowest transactions seen since the last clear() (a min-heap
/// on response time; O(log K) per committed transaction, K is small).
class SlowTxnLog {
 public:
  explicit SlowTxnLog(std::size_t k = 0) : k_(k) {}

  void set_capacity(std::size_t k) { k_ = k; }
  std::size_t capacity() const { return k_; }

  void add(const SlowTxn& t) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(t);
      std::push_heap(heap_.begin(), heap_.end(), faster);
      return;
    }
    if (t.response <= heap_.front().response) return;
    std::pop_heap(heap_.begin(), heap_.end(), faster);
    heap_.back() = t;
    std::push_heap(heap_.begin(), heap_.end(), faster);
  }

  void clear() { heap_.clear(); }

  /// Slowest first; ties broken by (arrival, id) so the order is
  /// deterministic at any --jobs value.
  std::vector<SlowTxn> sorted() const {
    std::vector<SlowTxn> out = heap_;
    std::sort(out.begin(), out.end(), [](const SlowTxn& a, const SlowTxn& b) {
      if (a.response != b.response) return a.response > b.response;
      if (a.arrival != b.arrival) return a.arrival < b.arrival;
      return a.id < b.id;
    });
    return out;
  }

 private:
  static bool faster(const SlowTxn& a, const SlowTxn& b) {
    if (a.response != b.response) return a.response > b.response;
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  }

  std::size_t k_;
  std::vector<SlowTxn> heap_;
};

/// Everything one simulation run observed beyond the headline RunResult:
/// attached to RunResult as a shared_ptr so it flows through sweeps and
/// reporting without touching the table/CSV paths.
struct RunTelemetry {
  sim::SimTime stats_start = 0.0;  ///< measurement interval start
  sim::SimTime end = 0.0;          ///< simulation time at collection

  /// Flat {name, value} dump of every Metrics field plus Resource
  /// utilizations, queue depths and completion counts (the structured
  /// metrics exporter writes these under "detail").
  std::vector<std::pair<std::string, double>> detail;

  std::vector<SlowTxn> slowest;  ///< top-K by response, slowest first

  bool trace_enabled = false;
  std::vector<TraceEvent> events;    ///< measurement-interval trace
  std::uint64_t events_dropped = 0;  ///< overwritten in the ring

  /// Per-window time series (--timeseries; null when off). Simulation-time
  /// deterministic: bit-identical at any --jobs value.
  std::shared_ptr<const TsSeries> timeseries;

  /// Per-resource queueing snapshot (--resources; null when off). Read from
  /// counters sim::Resource maintains anyway, so it is simulation-time
  /// deterministic like the time series.
  std::shared_ptr<const ResourceSet> resources;
};

/// Serialize a run's trace as Chrome trace-event JSON (loadable in Perfetto
/// or chrome://tracing) through `w`; a streaming writer never holds the
/// whole document. `metadata` entries are {key, pre-serialized JSON value}
/// pairs merged into "otherData" (config fingerprint, seed, git).
/// Deterministic: same run -> same bytes, at any --jobs value.
void chrome_trace_json(
    JsonWriter& w, const RunTelemetry& tel,
    const std::vector<std::pair<std::string, std::string>>& metadata);

/// The same document as one string (tests, goldens).
std::string chrome_trace_json(
    const RunTelemetry& tel,
    const std::vector<std::pair<std::string, std::string>>& metadata);

/// The reverse: parse the text of a "gemsd.trace.v1" document back into
/// native events. traceEvents is converted one element at a time, never
/// held as a parsed tree, and otherData may come before or after it.
/// Spans, instants and message flows all round-trip; per-txn phase args are
/// re-expanded into PhaseTotal records. Presentation metadata ("M" records)
/// and the counter tracks ("C") of older traces stay behind. Returns false
/// with `error` set on malformed JSON (the parser's message) and on
/// documents that are not gemsd traces.
bool parse_chrome_trace(const std::string& text, std::vector<TraceEvent>& out,
                        std::uint64_t& dropped, std::string& error);

}  // namespace gemsd::obs
