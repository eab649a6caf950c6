#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "workload/trace_generator.hpp"

namespace gemsd {

/// One raw `key = value` pair in spec syntax: a scalar `[system]` key or a
/// flat per-partition form (`storage.<name>`, `cache_pages.<name>`,
/// `disk_cache_pages.<name>`, `gem_cache_pages.<name>`).
struct SpecKey {
  std::string key, value;
  int line = 0;  ///< spec file line it came from; 0 when generated
};
using SpecKeyValues = std::vector<SpecKey>;

/// Largest `trace_txns`: the synthetic trace keeps about 60 references of
/// 19 bits and a 16-byte record per transaction, about 160 bytes, so 10^6
/// transactions are about 0.16 GB of trace.
inline constexpr std::int64_t kMaxTraceTxns = 1000000;

/// A complete experiment specification parsed from a small INI-style file —
/// the no-C++-required entry point (tools/gemsd_run). Each key's range is
/// given after it; validate() holds the rules. Integer keys take plain
/// decimal integers ("2.0" and "1e3" are not integers); time and cost keys
/// take any decimal number.
///
/// ```ini
/// # lines starting with # are comments
/// [system]
/// nodes      = 4            # >= 1
/// coupling   = gem          # gem | pcl | engine (engine needs update = force)
/// update     = noforce      # noforce | force
/// routing    = affinity     # affinity | random
/// tps        = 100          # arrivals per node [1/s], finite, > 0
/// buffer     = 200          # buffer pages per node, >= 1
/// mpl        = 50           # multiprogramming level per node, >= 1
/// warmup     = 5            # [s], finite, >= 0
/// measure    = 20           # [s], finite, > 0
/// seed       = 42           # 0 .. 2^64 - 1
/// log        = disk         # disk | gem
/// group_commit = false      # true | false (also yes | no, on | off, 1 | 0)
/// pcl_read_opt = false
/// gem_read_auth = false
/// transport  = network      # network | gem
/// cpu_procs  = 4            # processors per node, >= 1
/// log_disks  = 2            # log disks per node, >= 1
/// gem_entry_us = 2          # GEM entry access time [us], finite, >= 0
/// msg_short_instr = 5000    # CPU instr per short send/receive, finite, >= 0
/// msg_long_instr  = 8000    # CPU instr per long send/receive, finite, >= 0
/// lock_engine_us  = 200     # [Yu87] engine lock service time [us],
///                           # finite, >= 0
/// gem_shards = 1            # GEM servers of the lock authority, >= 1
/// storage.BRANCH/TELLER = gem  # per-partition storage, flat form
///
/// [workload]
/// kind = debit_credit       # debit_credit | trace
/// trace_file =              # empty => synthetic trace
/// trace_txns = 17500        # synthetic trace size, 1 .. 1000000
///                           # (kMaxTraceTxns)
///
/// [partition.BRANCH/TELLER] # storage overrides, section form
/// storage = gem             # disk | vcache | nvcache | gemcache | gem
/// cache_pages = 2000        # sets both disk- and GEM-cache capacity
///                           # (disk_cache_pages, gem_cache_pages), >= 0;
///                           # >= 1 for the cache the storage kind uses
///                           # (vcache, nvcache: disk; gemcache: GEM)
/// ```
///
/// A file may instead describe a whole sweep — the format gemsd_bench
/// --export-spec generates: the base sections above plus one `[run]` section
/// per sweep point, each holding the keys that differ from the base:
///
/// ```ini
/// [scenario]
/// name = fig_4_1
/// caption = Fig 4.1: ...
///
/// [system]
/// tps = 100
///
/// [run]
/// nodes = 1
/// routing = affinity
///
/// [run]
/// nodes = 2
/// routing = random
/// ```
struct RunSpec {
  enum class Kind { DebitCredit, Trace };
  Kind kind = Kind::DebitCredit;
  SystemConfig cfg;           ///< fully resolved configuration (debit-credit)
  std::string trace_file;     ///< optional trace to load
  std::size_t trace_txns = workload::SyntheticTraceConfig{}.transactions;
  /// The raw keys that produced `cfg`, base-section keys first. Trace runs
  /// re-apply them onto make_trace_config() (their partition layout comes
  /// from the trace, not from the debit-credit schema).
  SpecKeyValues keys;
};

/// A parsed spec file: one RunSpec per `[run]` section, or exactly one when
/// the file has none (the original single-run format).
struct SpecDoc {
  std::string scenario;  ///< optional [scenario] name
  std::string caption;   ///< optional [scenario] caption
  std::vector<RunSpec> runs;
};

/// Parse a spec; throws std::runtime_error with a line-numbered message on
/// malformed input, unknown keys or values, or a debit-credit run that
/// fails validate() (each violation on the line of the key that set it).
/// The file form prefixes the message with the path.
SpecDoc parse_spec_doc(std::istream& in);
SpecDoc parse_spec_doc_file(const std::string& path);

/// Single-run wrapper (throws if the spec declares multiple [run] sections).
RunSpec parse_run_spec(std::istream& in);

/// Apply raw spec keys onto an existing config, then validate the result;
/// throws on unknown keys, malformed values, partition names the config
/// does not have, or a validate() violation, naming the key's line. Used to
/// rebuild trace-run configs and by the spec exporter's round-trip check.
void apply_spec_keys(SystemConfig& cfg, const SpecKeyValues& keys);

/// One out-of-range setting: the spec key that sets it and what is wrong,
/// e.g. {"mpl", "must be >= 1, got 0"}.
struct ConfigError {
  std::string key, message;
};

/// The range rules of every user-settable field (the spec keys above and
/// the flags that set the same fields): every violation in spec-key order,
/// empty when `cfg` may run. Fields no key can set (device times, path
/// lengths, the failure model) have no rule. Builds no string unless a rule
/// fails. The spec parser and System::System both call it.
std::vector<ConfigError> validate(const SystemConfig& cfg);

/// Serialize every supported spec key of `cfg`, formatted so that
/// apply_spec_keys reproduces the config bit-identically. Partition storage
/// settings appear only where they differ from the plain-disk default.
SpecKeyValues spec_keys(const SystemConfig& cfg);

}  // namespace gemsd
