#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/workload.hpp"

namespace gemsd::workload {

struct TraceStats;
struct TraceProfile;

/// A database trace: a sequence of transactions, each with its type and page
/// reference string (Section 3.1, trace-driven workload generator). Traces
/// can be loaded from / saved to a portable text format so that real traces
/// can be substituted for the synthetic one.
///
/// The store is flat, so a trace costs 8 bytes per reference: one packed
/// word per reference (partition in 16 bits, page in 47, the write flag in
/// 1) and one 16-byte record per transaction.
class Trace {
 public:
  /// Limits of the packed reference: partitions below kMaxFiles, pages in
  /// [0, kMaxPage].
  static constexpr int kMaxFiles = 1 << 16;
  static constexpr std::int64_t kMaxPage = (std::int64_t{1} << 47) - 1;

  int num_types = 0;
  int num_files = 0;  ///< page partitions referenced by the trace

  /// Transactions in the trace.
  std::size_t size() const { return txns_.size(); }
  /// Page references of all transactions together.
  std::size_t references() const { return refs_.size(); }
  /// Transaction i as the SOURCE submits it; its affinity key is its type.
  TxnSpec txn(std::size_t i) const;

  /// Sizes the store for `txns` transactions and `refs` references, so a
  /// generator that knows about how large its trace is builds it without
  /// regrowing; a trace that outgrows it still grows.
  void reserve(std::size_t txns, std::size_t refs) {
    txns_.reserve(txns);
    refs_.reserve(refs);
  }
  /// Appends a transaction without references. Throws std::invalid_argument
  /// when `type` is outside [0, num_types).
  void add_txn(std::int64_t type);
  /// Appends a reference to the last transaction. Throws
  /// std::invalid_argument when there is none, when `partition` is outside
  /// [0, num_files) or `page` outside [0, kMaxPage].
  void add_ref(std::int64_t partition, std::int64_t page, bool write);
  /// Permutes the transactions (Rng::shuffle).
  void shuffle(sim::Rng& rng);

  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;
  /// Parses the text format line by line. Throws std::runtime_error naming
  /// the line on a bad header, an unknown record, a malformed or extra
  /// field, a type, partition or page out of range, a transaction with
  /// fewer or more references than its `t` line announces, or a trace
  /// without transactions.
  static Trace load(std::istream& is);
  /// load() on a file; errors also name the file.
  static Trace load_file(const std::string& path);

 private:
  /// Transaction: references refs_[first, first + count).
  struct Txn {
    std::uint64_t first = 0;
    std::uint32_t count = 0;
    std::int32_t type = 0;
  };
  std::vector<Txn> txns_;
  std::vector<std::uint64_t> refs_;

  friend TraceStats compute_stats(const Trace& t);
  friend TraceProfile profile_trace(const Trace& t);
};

/// Aggregate characteristics of a trace (used to validate the synthetic
/// trace against the figures the paper reports for the real one).
struct TraceStats {
  std::size_t transactions = 0;
  std::size_t references = 0;
  std::size_t distinct_pages = 0;
  double write_ref_fraction = 0.0;
  double update_txn_fraction = 0.0;
  std::size_t largest_txn = 0;
  double mean_refs = 0.0;
};
TraceStats compute_stats(const Trace& t);

/// Workload generator that replays a trace: transactions are submitted in
/// their original order (cycling when the arrival process outruns the trace),
/// per the common-arrival-rate replay mode of Section 3.1.
class TraceWorkload : public WorkloadGenerator {
 public:
  explicit TraceWorkload(const Trace& trace) : trace_(trace) {}
  TxnSpec next(sim::Rng&) override {
    TxnSpec t = trace_.txn(pos_);
    pos_ = (pos_ + 1) % trace_.size();
    return t;
  }
  int num_types() const override { return trace_.num_types; }

 private:
  const Trace& trace_;
  std::size_t pos_ = 0;
};

/// Per-type reference profile of a trace: input to the workload-allocation
/// and GLA heuristics [Ra92b].
struct TraceProfile {
  int num_types = 0;
  int num_files = 0;
  std::vector<double> type_load;                    ///< total refs by type
  std::vector<std::vector<double>> type_file_refs;  ///< [type][file]
};
TraceProfile profile_trace(const Trace& t);

/// Affinity-based workload allocation: a fractional routing table
/// share[type][node] (rows sum to 1) balancing load while maximizing the
/// file-profile overlap of the types co-located on a node.
std::vector<std::vector<double>> make_affinity_routing(const TraceProfile& p,
                                                       int nodes);

/// GLA assignment coordinated with a routing table: each file's lock
/// authority goes to the node that references it most, subject to balance.
std::vector<NodeId> make_gla_assignment(
    const TraceProfile& p, const std::vector<std::vector<double>>& share,
    int nodes);

/// GlaMap over a per-file assignment.
class FileGlaMap : public GlaMap {
 public:
  explicit FileGlaMap(std::vector<NodeId> by_file)
      : by_file_(std::move(by_file)) {}
  NodeId gla(PageId page) const override {
    return by_file_[static_cast<std::size_t>(page.partition)];
  }

 private:
  std::vector<NodeId> by_file_;
};

}  // namespace gemsd::workload
