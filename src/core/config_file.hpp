#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace gemsd {

/// One raw `key = value` pair in spec syntax: a scalar `[system]` key or a
/// flat per-partition form (`storage.<name>`, `cache_pages.<name>`,
/// `disk_cache_pages.<name>`, `gem_cache_pages.<name>`).
struct SpecKey {
  std::string key, value;
  int line = 0;  ///< spec file line it came from; 0 when generated
};
using SpecKeyValues = std::vector<SpecKey>;

/// A complete experiment specification parsed from a small INI-style file —
/// the no-C++-required entry point (tools/gemsd_run):
///
/// ```ini
/// # lines starting with # are comments
/// [system]
/// nodes      = 4
/// coupling   = gem          # gem | pcl | engine
/// update     = noforce      # noforce | force
/// routing    = affinity     # affinity | random
/// tps        = 100
/// buffer     = 200
/// warmup     = 5
/// measure    = 20
/// seed       = 42
/// log        = disk         # disk | gem
/// group_commit = false
/// pcl_read_opt = false
/// gem_read_auth = false
/// transport  = network      # network | gem
/// cpu_procs  = 4            # processors per node
/// log_disks  = 2            # log disks per node
/// gem_entry_us = 2          # GEM entry access time [us]
/// msg_short_instr = 5000    # CPU instr per short send/receive
/// msg_long_instr  = 8000    # CPU instr per long send/receive
/// lock_engine_us  = 200     # [Yu87] engine lock service time [us]
/// storage.BRANCH/TELLER = gem  # per-partition storage, flat form
///
/// [workload]
/// kind = debit_credit       # debit_credit | trace
/// trace_file =              # empty => synthetic trace
/// trace_txns = 17500
///
/// [partition.BRANCH/TELLER] # storage overrides, section form
/// storage = gem             # disk | vcache | nvcache | gemcache | gem
/// cache_pages = 2000        # sets both disk- and GEM-cache capacity
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
  std::size_t trace_txns = 17500;
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
/// malformed input or unknown keys/values.
SpecDoc parse_spec_doc(std::istream& in);
SpecDoc parse_spec_doc_file(const std::string& path);

/// Single-run wrappers (throw if the file declares multiple [run] sections).
RunSpec parse_run_spec(std::istream& in);
RunSpec parse_run_spec_file(const std::string& path);

/// Apply raw spec keys onto an existing config; throws on unknown keys,
/// malformed values, or partition names the config does not have, naming
/// the key's line. Used to rebuild trace-run configs and by the spec
/// exporter's round-trip check.
void apply_spec_keys(SystemConfig& cfg, const SpecKeyValues& keys);

/// Serialize every supported spec key of `cfg`, formatted so that
/// apply_spec_keys reproduces the config bit-identically. Partition storage
/// settings appear only where they differ from the plain-disk default.
SpecKeyValues spec_keys(const SystemConfig& cfg);

}  // namespace gemsd
