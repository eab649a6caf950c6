#include "workload/trace.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "core/parse_number.hpp"

namespace gemsd::workload {

namespace {

/// Words that hold the references below bit `end`, plus the word read past
/// the last reference's first word.
std::size_t words_for(std::uint64_t end) { return (end >> 6) + 2; }

/// Bits that `v` needs (0 for 0); `v` is range-checked, so not negative.
unsigned bits_for(std::int64_t v) {
  return static_cast<unsigned>(std::bit_width(static_cast<std::uint64_t>(v)));
}

void check_page(std::int64_t page) {
  if (page < 0 || page > Trace::kMaxPage) {
    throw std::invalid_argument("page " + std::to_string(page) +
                                " outside [0, " +
                                std::to_string(Trace::kMaxPage) + "]");
  }
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("trace line " + std::to_string(line) + ": " + what);
}

/// The whitespace-separated fields of one line; `n` counts past the array
/// when there are more.
struct Fields {
  std::array<std::string_view, 3> f;
  std::size_t n = 0;
};

Fields split(std::string_view s) {
  Fields out;
  std::size_t i = 0;
  while (true) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i == s.size()) return out;
    const std::size_t b = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (out.n < out.f.size()) out.f[out.n] = s.substr(b, i - b);
    ++out.n;
  }
}

template <typename T>
T parse(std::string_view s, std::size_t line, const char* what) {
  T v{};
  if (!parse_number(s, v)) {
    fail(line, std::string("malformed ") + what + " '" + std::string(s) + "'");
  }
  return v;
}

/// Header line `key <count>` with count in [1, max].
int header_count(const Fields& f, const char* key, int max, std::size_t line) {
  if (f.n != 2 || f.f[0] != key) {
    fail(line, std::string("expected '") + key + " <count>'");
  }
  const auto v = parse<std::int64_t>(f.f[1], line, key);
  if (v < 1 || v > max) {
    fail(line, std::string(key) + " " + std::to_string(v) + " outside [1, " +
                   std::to_string(max) + "]");
  }
  return static_cast<int>(v);
}

}  // namespace

TxnSpec Trace::txn(std::size_t i) const {
  const Txn& t = txns_[i];
  TxnSpec s;
  s.type = t.type;
  s.affinity_key = t.type;
  s.refs = RefList(*this, t.first, t.count);
  return s;
}

PageRef RefList::view_ref(std::size_t k) const {
  return trace_->ref(first_ + k);
}

PageRef Trace::ref(std::uint64_t i) const {
  const std::uint64_t bit = i * width_;
  const std::size_t w = bit >> 6;
  const unsigned off = bit & 63;
  // The next word's bits go above the first's: `<< 1 << (63 - off)` shifts
  // by 64 - off, and to nothing at off = 0, where a single shift by 64
  // would be undefined; `~0 >> (64 - width_)` is the mask up to width 64.
  const std::uint64_t v =
      ((words_[w] >> off) | ((words_[w + 1] << 1) << (63 - off))) &
      (~std::uint64_t{0} >> (64 - width_));
  const std::uint64_t partition_mask =
      (std::uint64_t{1} << partition_bits_) - 1;
  return PageRef{PageId{static_cast<PartitionId>((v >> 1) & partition_mask),
                        static_cast<std::int64_t>(v >> (partition_bits_ + 1))},
                 (v & 1) != 0};
}

void Trace::reserve(std::size_t txns, std::size_t refs,
                    std::int64_t largest_page) {
  check_page(largest_page);
  txns_.reserve(txns);
  widen(0, largest_page);
  const std::size_t words = words_for(refs * width_);
  if (words > capacity_) grow(words);
}

void Trace::grow(std::size_t words) {
  // Uninitialized: the words past the references are written as they fill,
  // so a reserve that is not used costs no memory that is touched.
  auto bigger = std::make_unique_for_overwrite<std::uint64_t[]>(words);
  const std::uint64_t end = refs_ * width_;
  const std::size_t keep = capacity_ == 0 ? 0 : (end >> 6) + 1;
  std::copy_n(words_.get(), keep, bigger.get());
  std::fill(bigger.get() + keep, bigger.get() + words_for(end), 0);
  words_ = std::move(bigger);
  capacity_ = words;
}

void Trace::widen(std::int64_t partition, std::int64_t page) {
  const int files = std::clamp(num_files, 1, kMaxFiles);
  const unsigned partition_bits = std::max(
      {partition_bits_, bits_for(files - 1), bits_for(partition)});
  const unsigned page_bits = std::max(page_bits_, bits_for(page));
  const unsigned width = 1 + partition_bits + page_bits;
  if (width == width_) return;
  if (refs_ != 0) repack(width, partition_bits);
  partition_bits_ = partition_bits;
  page_bits_ = page_bits;
  width_ = width;
}

void Trace::repack(unsigned width, unsigned partition_bits) {
  const std::uint64_t end = refs_ * width_;
  const std::size_t words = words_for(refs_ * width);
  if (words > capacity_) grow(words);
  std::fill(words_.get() + (end >> 6) + 1, words_.get() + words, 0);
  // Back to front: reference i moves to bit i * width, at or past its old
  // place, so it overwrites only references that have already moved.
  const std::uint64_t mask = ~std::uint64_t{0} >> (64 - width);
  for (std::uint64_t i = refs_; i-- > 0;) {
    const PageRef r = ref(i);
    const std::uint64_t v =
        pack(static_cast<std::uint64_t>(r.page.partition),
             static_cast<std::uint64_t>(r.page.page), r.write, partition_bits);
    const std::uint64_t bit = i * width;
    const std::size_t w = bit >> 6;
    const unsigned off = bit & 63;
    words_[w] = (words_[w] & ~(mask << off)) | (v << off);
    words_[w + 1] = (words_[w + 1] & ~((mask >> 1) >> (63 - off))) |
                    ((v >> 1) >> (63 - off));
  }
}

void Trace::add_txn(std::int64_t type) {
  if (type < 0 || type >= num_types) {
    throw std::invalid_argument("type " + std::to_string(type) +
                                " outside [0, " + std::to_string(num_types) +
                                ")");
  }
  txns_.push_back(Txn{refs_, 0, static_cast<std::int32_t>(type)});
}

void Trace::make_room(std::int64_t partition, std::int64_t page) {
  if (txns_.empty()) throw std::invalid_argument("reference before any 't'");
  const int files = std::min(num_files, kMaxFiles);
  if (partition < 0 || partition >= files) {
    throw std::invalid_argument("partition " + std::to_string(partition) +
                                " outside [0, " + std::to_string(files) + ")");
  }
  check_page(page);
  if (txns_.back().count == UINT32_MAX) {
    throw std::invalid_argument("more than 2^32 - 1 references in one 't'");
  }
  widen(partition, page);
  const std::size_t words = words_for(refs_ * width_);
  if (words > capacity_) grow(std::max(words, 2 * capacity_));
}

void Trace::shuffle(sim::Rng& rng) { rng.shuffle(txns_.begin(), txns_.end()); }

void Trace::save(std::ostream& os) const {
  os << "gemsd-trace 1\n";
  os << "types " << num_types << "\n";
  os << "files " << num_files << "\n";
  for (const Txn& t : txns_) {
    os << "t " << t.type << " " << t.count << "\n";
    for (std::size_t k = 0; k < t.count; ++k) {
      const PageRef r = ref(t.first + k);
      os << (r.write ? "w " : "r ") << r.page.partition << " " << r.page.page
         << "\n";
    }
  }
}

void Trace::save_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file for writing: " + path);
  save(f);
}

Trace Trace::load(std::istream& is) {
  Trace tr;
  std::string text;
  std::size_t line = 0;
  int header = 0;                // header lines read: magic, types, files
  std::size_t txn_line = 0;      // line of the last 't'
  std::uint64_t announced = 0;   // references that 't' announced
  const auto check_complete = [&] {
    if (!tr.txns_.empty() && tr.txns_.back().count < announced) {
      fail(txn_line, "'t' announces " + std::to_string(announced) +
                         " references, " +
                         std::to_string(tr.txns_.back().count) + " follow");
    }
  };
  while (std::getline(is, text)) {
    ++line;
    const Fields f = split(text);
    if (f.n == 0) continue;
    if (header == 0) {
      if (f.n != 2 || f.f[0] != "gemsd-trace" || f.f[1] != "1") {
        fail(line, "not a gemsd trace (expected 'gemsd-trace 1')");
      }
    } else if (header == 1) {
      tr.num_types = header_count(f, "types", kMaxTypes, line);
    } else if (header == 2) {
      tr.num_files = header_count(f, "files", kMaxFiles, line);
      const std::int64_t cells =
          std::int64_t{tr.num_types} * std::int64_t{tr.num_files};
      if (cells > kMaxTypeFileCells) {
        fail(line, "files " + std::to_string(tr.num_files) + " with types " +
                       std::to_string(tr.num_types) + ": " +
                       std::to_string(cells) + " type-file cells, more than " +
                       std::to_string(kMaxTypeFileCells));
      }
    }
    if (header < 3) {
      ++header;
      continue;
    }
    const std::string_view mode = f.f[0];
    if (mode != "t" && mode != "r" && mode != "w") {
      fail(line, "unknown record '" + std::string(mode) + "'");
    }
    if (f.n != 3) {
      std::string msg(1, '\'');
      msg.append(mode).append("' takes 2 fields, got ");
      msg += std::to_string(f.n - 1);
      fail(line, msg);
    }
    try {
      if (mode == "t") {
        check_complete();
        const auto type = parse<std::int64_t>(f.f[1], line, "type");
        announced = parse<std::uint64_t>(f.f[2], line, "reference count");
        txn_line = line;
        tr.add_txn(type);
      } else {
        if (!tr.txns_.empty() && tr.txns_.back().count == announced) {
          fail(line, "reference beyond the " + std::to_string(announced) +
                         " announced at line " + std::to_string(txn_line));
        }
        tr.add_ref(parse<std::int64_t>(f.f[1], line, "partition"),
                   parse<std::int64_t>(f.f[2], line, "page"), mode == "w");
      }
    } catch (const std::invalid_argument& e) {
      fail(line, e.what());
    }
  }
  if (header < 3) fail(line + 1, "end of file in the header");
  check_complete();
  if (tr.txns_.empty()) fail(line + 1, "end of file before the first 't'");
  return tr;
}

Trace Trace::load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  try {
    return load(f);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

TraceStats compute_stats(const Trace& t) {
  TraceStats s;
  s.transactions = t.size();
  s.references = t.references();
  std::unordered_set<std::uint64_t> pages;
  std::size_t writes = 0, updates = 0;
  for (const auto& txn : t.txns_) {
    s.largest_txn = std::max<std::size_t>(s.largest_txn, txn.count);
    bool upd = false;
    for (std::size_t k = 0; k < txn.count; ++k) {
      const PageRef r = t.ref(txn.first + k);
      pages.insert(r.page.key());
      if (r.write) {
        ++writes;
        upd = true;
      }
    }
    if (upd) ++updates;
  }
  s.distinct_pages = pages.size();
  if (s.references)
    s.write_ref_fraction =
        static_cast<double>(writes) / static_cast<double>(s.references);
  if (s.transactions) {
    s.update_txn_fraction =
        static_cast<double>(updates) / static_cast<double>(s.transactions);
    s.mean_refs =
        static_cast<double>(s.references) / static_cast<double>(s.transactions);
  }
  return s;
}

TraceProfile profile_trace(const Trace& t) {
  TraceProfile p;
  p.num_types = t.num_types;
  p.num_files = t.num_files;
  const auto types = static_cast<std::size_t>(t.num_types);
  p.type_load.assign(types, 0.0);
  p.type_file_refs.resize(types);
  // The transactions grouped by type, in trace order (a counting sort), so
  // one per-file count serves each type in turn; emptying it lists the
  // type's files in ascending order (types × files steps in all, which
  // Trace::load bounds by kMaxTypeFileCells).
  std::vector<std::size_t> start(types + 1, 0);
  for (const auto& txn : t.txns_) {
    ++start[static_cast<std::size_t>(txn.type) + 1];
  }
  for (std::size_t ty = 0; ty < types; ++ty) start[ty + 1] += start[ty];
  std::vector<std::size_t> by_type(t.txns_.size());
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < t.txns_.size(); ++i) {
      by_type[next[static_cast<std::size_t>(t.txns_[i].type)]++] = i;
    }
  }
  std::vector<std::uint64_t> count(static_cast<std::size_t>(t.num_files), 0);
  std::vector<TraceProfile::FileRefs> row;  // copied out at its own size
  for (std::size_t ty = 0; ty < types; ++ty) {
    for (std::size_t j = start[ty]; j < start[ty + 1]; ++j) {
      const auto& txn = t.txns_[by_type[j]];
      p.type_load[ty] += static_cast<double>(txn.count);
      for (std::size_t k = 0; k < txn.count; ++k) {
        ++count[static_cast<std::size_t>(t.ref(txn.first + k).page.partition)];
      }
    }
    for (std::size_t f = 0; f < count.size(); ++f) {
      if (count[f] != 0) {
        row.push_back({static_cast<int>(f), static_cast<double>(count[f])});
        count[f] = 0;
      }
    }
    p.type_file_refs[ty] = row;
    row.clear();
  }
  return p;
}

namespace {

/// Cosine of a type's file row and a node's dense one. Each file the row
/// leaves out would add exactly +0.0 to `dot` and `na`, so both sums equal
/// the dense ones bit for bit; `nb` sums the whole node row.
double cosine(const std::vector<TraceProfile::FileRefs>& a,
              const std::vector<double>& b) {
  double dot = 0, na = 0, nb = 0;
  for (const auto& [f, refs] : a) {
    dot += refs * b[static_cast<std::size_t>(f)];
    na += refs * refs;
  }
  for (const double v : b) nb += v * v;
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

}  // namespace

std::vector<std::vector<double>> make_affinity_routing(const TraceProfile& p,
                                                       int nodes) {
  const auto T = static_cast<std::size_t>(p.num_types);
  const auto N = static_cast<std::size_t>(nodes);
  std::vector<std::vector<double>> share(T, std::vector<double>(N, 0.0));

  double total = 0.0;
  for (double l : p.type_load) total += l;
  const double capacity = total / static_cast<double>(nodes);

  // Types in decreasing load order (LPT-style), fractional water-filling:
  // each chunk of a type's load goes to the node with the best mix of file
  // overlap (affinity) and remaining capacity (balance).
  std::vector<std::size_t> order(T);
  for (std::size_t i = 0; i < T; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return p.type_load[a] > p.type_load[b];
  });

  std::vector<double> node_load(N, 0.0);
  std::vector<std::vector<double>> node_files(
      N, std::vector<double>(static_cast<std::size_t>(p.num_files), 0.0));

  for (std::size_t ty : order) {
    double remaining = p.type_load[ty];
    if (remaining <= 0.0) continue;
    int guard = 0;
    while (remaining > 1e-9 && guard++ < 4 * nodes) {
      std::size_t best = 0;
      double best_score = -1e30;
      for (std::size_t n = 0; n < N; ++n) {
        const double overlap = cosine(p.type_file_refs[ty], node_files[n]);
        const double balance = node_load[n] / capacity;
        const double score = overlap - 2.0 * balance;
        if (score > best_score) {
          best_score = score;
          best = n;
        }
      }
      const double room = std::max(capacity * 1.02 - node_load[best], 0.0);
      const double take = (room > 1e-9) ? std::min(remaining, room) : remaining;
      share[ty][best] += take / p.type_load[ty];
      node_load[best] += take;
      // The files the type leaves out would each add +0.0.
      for (const auto& [f, refs] : p.type_file_refs[ty]) {
        node_files[best][static_cast<std::size_t>(f)] +=
            refs * take / p.type_load[ty];
      }
      remaining -= take;
    }
  }
  // Normalize rows against rounding drift.
  for (auto& row : share) {
    double s = 0;
    for (double v : row) s += v;
    if (s > 0)
      for (double& v : row) v /= s;
    else
      row[0] = 1.0;
  }
  return share;
}

std::vector<NodeId> make_gla_assignment(
    const TraceProfile& p, const std::vector<std::vector<double>>& share,
    int nodes) {
  const auto F = static_cast<std::size_t>(p.num_files);
  const auto N = static_cast<std::size_t>(nodes);
  // refs[n][f]: expected references to file f issued from node n under the
  // routing table (the files a type leaves out would each add +0.0).
  std::vector<std::vector<double>> refs(N, std::vector<double>(F, 0.0));
  for (std::size_t ty = 0; ty < share.size(); ++ty) {
    for (std::size_t n = 0; n < N; ++n) {
      for (const auto& [f, r] : p.type_file_refs[ty]) {
        refs[n][static_cast<std::size_t>(f)] += share[ty][n] * r;
      }
    }
  }
  std::vector<double> file_total(F, 0.0);
  double total = 0.0;
  for (std::size_t f = 0; f < F; ++f) {
    for (std::size_t n = 0; n < N; ++n) file_total[f] += refs[n][f];
    total += file_total[f];
  }
  const double capacity = total / static_cast<double>(nodes);

  std::vector<std::size_t> order(F);
  for (std::size_t i = 0; i < F; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return file_total[a] > file_total[b];
  });

  std::vector<NodeId> gla(F, 0);
  std::vector<double> gla_load(N, 0.0);
  for (std::size_t f : order) {
    std::size_t best = 0;
    double best_score = -1e30;
    for (std::size_t n = 0; n < N; ++n) {
      const double local = file_total[f] > 0 ? refs[n][f] / file_total[f] : 0;
      const double score = local - 1.0 * (gla_load[n] / capacity);
      if (score > best_score) {
        best_score = score;
        best = n;
      }
    }
    gla[f] = static_cast<NodeId>(best);
    gla_load[best] += file_total[f];
  }
  return gla;
}

}  // namespace gemsd::workload
