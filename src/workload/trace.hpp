#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
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
/// The store is flat and bit-packed: every reference takes the same number
/// of bits, bit_width(num_files - 1) for the partition, bit_width(largest
/// page) for the page and 1 for the write flag (never more than 64), and
/// each transaction a 16-byte record. The synthetic trace's references take
/// 19 bits (13 files, pages below 12,000), about 2.5 MB for 1 M. A
/// reference whose partition or page needs more bits widens every
/// reference already stored, in place.
class Trace {
 public:
  /// Limits of the packed reference: partitions below kMaxFiles, pages in
  /// [0, kMaxPage].
  static constexpr int kMaxFiles = 1 << 16;
  static constexpr std::int64_t kMaxPage = (std::int64_t{1} << 47) - 1;
  /// Limits of a loaded header, which bound the per-type tables (one
  /// statistic and one routing row per type) and the routing heuristic's
  /// work, which sums a node's whole per-file row for every type it places:
  /// at most 65,536 types and 2^24 type-file cells.
  static constexpr int kMaxTypes = 1 << 16;
  static constexpr std::int64_t kMaxTypeFileCells = std::int64_t{1} << 24;

  int num_types = 0;
  int num_files = 0;  ///< page partitions referenced by the trace

  /// Transactions in the trace.
  std::size_t size() const { return txns_.size(); }
  /// Page references of all transactions together.
  std::size_t references() const { return refs_; }
  /// Transaction i as the SOURCE submits it; its affinity key is its type.
  /// Its references are a view of this store, read in place: valid while
  /// this Trace lives, and still correct after a later reference widens
  /// the store.
  TxnSpec txn(std::size_t i) const;

  /// Sizes the store for `txns` transactions and `refs` references with
  /// pages up to `largest_page`, and fixes the reference width from
  /// num_files and `largest_page`, so a generator that knows about how
  /// large its trace is builds it without regrowing or widening; a trace
  /// that outgrows it still grows. Throws std::invalid_argument when
  /// `largest_page` is outside [0, kMaxPage].
  void reserve(std::size_t txns, std::size_t refs, std::int64_t largest_page);
  /// Appends a transaction without references. Throws std::invalid_argument
  /// when `type` is outside [0, num_types).
  void add_txn(std::int64_t type);
  /// Appends a reference to the last transaction. Throws
  /// std::invalid_argument when there is none, when `partition` is outside
  /// [0, num_files) or `page` outside [0, kMaxPage].
  ///
  /// Inline, as it runs once per reference: a reference that fits the
  /// widths and the buffer is ORed into the word holding the end (zero from
  /// the end on), its high bits, or zero, written into the next word.
  void add_ref(std::int64_t partition, std::int64_t page, bool write) {
    const auto part = static_cast<std::uint64_t>(partition);
    const auto pg = static_cast<std::uint64_t>(page);
    if (txns_.empty() || txns_.back().count == UINT32_MAX ||
        partition >= num_files ||
        ((part >> partition_bits_) | (pg >> page_bits_)) != 0 ||
        ((refs_ * width_) >> 6) + 2 > capacity_) [[unlikely]] {
      make_room(partition, page);
    }
    const std::uint64_t bit = refs_ * width_;
    const std::size_t w = bit >> 6;
    const unsigned off = bit & 63;
    const std::uint64_t v = pack(part, pg, write, partition_bits_);
    words_[w] |= v << off;
    words_[w + 1] = (v >> 1) >> (63 - off);
    ++refs_;
    ++txns_.back().count;
  }
  /// Permutes the transactions (Rng::shuffle).
  void shuffle(sim::Rng& rng);

  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;
  /// Parses the text format line by line. Throws std::runtime_error naming
  /// the line on a bad header (types above kMaxTypes, files above
  /// kMaxFiles, or more than kMaxTypeFileCells types × files), an unknown
  /// record, a malformed or extra field, a type, partition or page out of
  /// range, a transaction with fewer or more references than its `t` line
  /// announces, or a trace without transactions.
  static Trace load(std::istream& is);
  /// load() on a file; errors also name the file.
  static Trace load_file(const std::string& path);

 private:
  /// Transaction: references [first, first + count) of the store.
  struct Txn {
    std::uint64_t first = 0;
    std::uint32_t count = 0;
    std::int32_t type = 0;
  };
  /// A range-checked reference packed with `partition_bits` for the
  /// partition: page above partition above the write flag.
  static std::uint64_t pack(std::uint64_t partition, std::uint64_t page,
                            bool write, unsigned partition_bits) {
    return (page << (partition_bits + 1)) | (partition << 1) |
           static_cast<std::uint64_t>(write);
  }
  /// Reference i of the store: the one decoder of the packed format.
  PageRef ref(std::uint64_t i) const;
  /// add_ref's checks, and the widening and growth a reference needs.
  void make_room(std::int64_t partition, std::int64_t page);
  /// Makes room for `partition` and `page` (and every partition below
  /// num_files): widens the fields that need it, repacking any stored
  /// references, and does nothing when both fit.
  void widen(std::int64_t partition, std::int64_t page);
  /// Rewrites the stored references at `width` bits with `partition_bits`
  /// for the partition; the members still describe the old layout.
  void repack(unsigned width, unsigned partition_bits);
  /// Moves the store into a buffer of `words` words.
  void grow(std::size_t words);

  std::vector<Txn> txns_;
  /// References at `width_` bits each (pack()), reference i at bit
  /// i * width_. The words up to the one holding the end bit are zero from
  /// it on, and the word after each reference's first word is written, so
  /// a reference is read with two loads.
  std::unique_ptr<std::uint64_t[]> words_;
  std::size_t capacity_ = 0;  ///< words in words_
  std::uint64_t refs_ = 0;    ///< references stored
  unsigned partition_bits_ = 0;
  unsigned page_bits_ = 0;
  unsigned width_ = 0;  ///< 1 + partition_bits_ + page_bits_; 0 before widen

  friend class RefList;
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
/// per the common-arrival-rate replay mode of Section 3.1. Each one views its
/// references in the trace (Trace::txn), so the trace must outlive every
/// transaction handed out.
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
/// and GLA heuristics [Ra92b]. Sparse: a type's row lists only the files it
/// references, so the profile grows with the (type, file) pairs a trace
/// uses, not with types × files.
struct TraceProfile {
  /// A type's references to one file.
  struct FileRefs {
    int file = 0;
    double refs = 0.0;
  };
  int num_types = 0;
  int num_files = 0;
  std::vector<double> type_load;  ///< total refs by type
  /// [type]: the files the type references, in ascending file order.
  std::vector<std::vector<FileRefs>> type_file_refs;
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
