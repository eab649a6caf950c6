#include "core/config_file.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/parse_number.hpp"

namespace gemsd {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("run spec, line " + std::to_string(line) + ": " +
                           what);
}

/// The double that `s` reads back as; NaN when it does not parse.
double reread(const char* s) {
  double d = std::nan("");
  parse_number(s, d);
  return d;
}

/// Shortest decimal form that parse_number reads back as the same double.
/// Integral values print as plain integers ("100", not "1e+02").
std::string fmt_num(double v) {
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<std::int64_t>(v))) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (reread(buf) == v) break;
  }
  return buf;
}

/// Format a seconds value as microseconds such that the parser's `us * 1e-6`
/// reproduces the original double exactly. Prefers the shortest (often
/// integral) microsecond count over the exact but noisy `v * 1e6` digits.
std::string fmt_us(double v) {
  const double us = v * 1e6;
  if (const std::string s = std::to_string(std::llround(us));
      reread(s.c_str()) * 1e-6 == v) {
    return s;
  }
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, us);
    if (reread(buf) * 1e-6 == v) break;
  }
  return buf;
}

/// A seconds field that the spec writes in microseconds.
template <typename D>
struct Micros {
  D& seconds;
};
template <typename D>
Micros(D&) -> Micros<D>;

/// The spec names of an enum's (or a bool's) values; a value prints as the
/// first name that maps to it.
template <typename E>
using Names = std::span<const std::pair<const char*, E>>;

constexpr std::pair<const char*, bool> kBools[] = {
    {"true", true}, {"false", false}, {"yes", true}, {"no", false},
    {"on", true},   {"off", false},   {"1", true},   {"0", false}};
constexpr std::pair<const char*, Coupling> kCouplings[] = {
    {"gem", Coupling::GemLocking},
    {"pcl", Coupling::PrimaryCopy},
    {"engine", Coupling::LockEngine}};
constexpr std::pair<const char*, UpdateStrategy> kUpdates[] = {
    {"noforce", UpdateStrategy::NoForce}, {"force", UpdateStrategy::Force}};
constexpr std::pair<const char*, Routing> kRoutings[] = {
    {"affinity", Routing::Affinity}, {"random", Routing::Random}};
constexpr std::pair<const char*, StorageKind> kLogDevices[] = {
    {"disk", StorageKind::Disk}, {"gem", StorageKind::Gem}};
constexpr std::pair<const char*, StorageKind> kStorages[] = {
    {"disk", StorageKind::Disk},
    {"vcache", StorageKind::DiskVolatileCache},
    {"nvcache", StorageKind::DiskNvCache},
    {"gemcache", StorageKind::DiskGemCache},
    {"gem", StorageKind::Gem}};
constexpr std::pair<const char*, MsgTransport> kTransports[] = {
    {"network", MsgTransport::Network}, {"gem", MsgTransport::GemStore}};

/// An enum or bool field together with its spec names.
template <typename E>
struct Named {
  E& value;
  Names<std::remove_const_t<E>> names;
};
template <typename E>
Named<E> named(E& value, Names<std::remove_const_t<E>> names) {
  return {value, names};
}

/// Every scalar [system] key with the field it sets, in export order: one
/// list drives both the parser and the exporter, so the two cannot drift
/// apart. Calls f(key, field) with an arithmetic field, a Micros or a Named.
template <typename Config, typename F>
void for_each_system_key(Config& c, F&& f) {
  f("nodes", c.nodes);
  f("tps", c.arrival_rate_per_node);
  f("coupling", named(c.coupling, kCouplings));
  f("update", named(c.update, kUpdates));
  f("routing", named(c.routing, kRoutings));
  f("buffer", c.buffer_pages);
  f("mpl", c.mpl);
  f("warmup", c.warmup);
  f("measure", c.measure);
  f("seed", c.seed);
  f("log", named(c.log_storage, kLogDevices));
  f("log_disks", c.log_disks_per_node);
  f("group_commit", named(c.log_group_commit, kBools));
  f("pcl_read_opt", named(c.pcl_read_optimization, kBools));
  f("gem_read_auth", named(c.gem_read_authorizations, kBools));
  f("transport", named(c.comm.transport, kTransports));
  f("cpu_procs", c.cpu.processors);
  f("gem_entry_us", Micros{c.gem.entry_access});
  f("msg_short_instr", c.comm.short_instr);
  f("msg_long_instr", c.comm.long_instr);
  f("lock_engine_us", Micros{c.lock_engine_service});
}

/// Read a spec value into a field. Syntax only: ranges are validate()'s.
template <typename T>
  requires std::is_arithmetic_v<T>
void read(const SpecKey& k, T& field) {
  if (!parse_number(k.value, field)) {
    fail(k.line, k.key + ": expected " +
                     (std::is_floating_point_v<T> ? "a number"
                      : std::is_signed_v<T>       ? "an integer"
                                                  : "a non-negative integer") +
                     ", got '" + k.value + "'");
  }
}

template <typename D>
void read(const SpecKey& k, Micros<D> f) {
  double us = 0;
  read(k, us);
  f.seconds = us * 1e-6;
}

template <typename E>
void read(const SpecKey& k, Named<E> f) {
  const std::string v = lower(k.value);
  for (const auto& [name, value] : f.names) {
    if (v == name) {
      f.value = value;
      return;
    }
  }
  std::string msg = k.key + ": expected";
  const char* sep = " ";
  for (const auto& n : f.names) {
    msg += sep;
    msg += n.first;
    sep = " | ";
  }
  fail(k.line, msg + ", got '" + k.value + "'");
}

std::string show(int v) { return std::to_string(v); }
std::string show(std::uint64_t v) { return std::to_string(v); }
std::string show(double v) { return fmt_num(v); }
template <typename D>
std::string show(Micros<D> f) {
  return fmt_us(f.seconds);
}
template <typename E>
std::string show(Named<E> f) {
  for (const auto& [name, value] : f.names) {
    if (value == f.value) return name;
  }
  return "?";
}

PartitionConfig* find_partition(SystemConfig& cfg, const std::string& name) {
  for (auto& pc : cfg.partitions) {
    if (pc.name == name) return &pc;
  }
  return nullptr;
}

/// Apply one raw key onto the config. Partition names are case-sensitive
/// (they are data, not syntax); everything else is lower-cased by the
/// caller.
void apply_one(SystemConfig& cfg, const SpecKey& k) {
  // Emitted by spec_keys only when it differs from the default, like the
  // per-partition keys below, so shipped single-GEM specs keep their bytes.
  if (k.key == "gem_shards") return read(k, cfg.gem.shards);
  const auto dot = k.key.find('.');
  if (dot != std::string::npos) {
    const std::string field = k.key.substr(0, dot);
    const std::string pname = k.key.substr(dot + 1);
    PartitionConfig* pc = find_partition(cfg, pname);
    if (!pc) fail(k.line, "unknown partition '" + pname + "'");
    if (field == "storage") return read(k, named(pc->storage, kStorages));
    if (field == "disk_cache_pages") return read(k, pc->disk_cache_pages);
    if (field == "gem_cache_pages") return read(k, pc->gem_cache_pages);
    if (field != "cache_pages") {
      fail(k.line, "unknown partition key '" + field + "'");
    }
    read(k, pc->disk_cache_pages);
    pc->gem_cache_pages = pc->disk_cache_pages;
    return;
  }
  bool known = false;
  for_each_system_key(cfg, [&](const char* key, auto&& field) {
    if (!known && k.key == key) {
      read(k, field);
      known = true;
    }
  });
  if (!known) fail(k.line, "unknown [system] key '" + k.key + "'");
}

/// Whether spec key `key` sets the field validate() reports as `field`:
/// itself, or `cache_pages.<P>` for `disk_cache_pages.<P>` and
/// `gem_cache_pages.<P>`.
bool sets(const std::string& key, const std::string& field) {
  const auto dot = field.find('.');
  const std::string kind = field.substr(0, dot);
  return key == field || ((kind == "disk_cache_pages" ||
                           kind == "gem_cache_pages") &&
                          key == "cache_pages" + field.substr(dot));
}

/// Validate a resolved run: one error lists every violation, each on the
/// line of the key that last set the field.
void check(const SystemConfig& cfg, const SpecKeyValues& keys) {
  const std::vector<ConfigError> errors = validate(cfg);
  if (errors.empty()) return;
  std::string msg = "run spec";
  for (const ConfigError& e : errors) {
    int line = 0;
    for (const SpecKey& k : keys) {
      if (sets(k.key, e.key)) line = k.line;
    }
    msg += &e == &errors.front() ? ", " : "; ";
    if (line) msg += "line " + std::to_string(line) + ": ";
    msg += e.key + ": " + e.message;
  }
  throw std::runtime_error(msg);
}

}  // namespace

SpecDoc parse_spec_doc(std::istream& in) {
  SpecDoc doc;
  RunSpec proto;  // workload settings shared by every run
  SpecKeyValues base;
  std::vector<SpecKeyValues> run_keys;  // one per [run] section

  std::string section;
  std::string line_s;
  int line = 0;
  while (std::getline(in, line_s)) {
    ++line;
    std::string s = trim(line_s);
    if (s.empty() || s[0] == '#' || s[0] == ';') continue;
    if (s.front() == '[') {
      if (s.back() != ']') fail(line, "unterminated section header");
      section = s.substr(1, s.size() - 2);
      if (section == "run") run_keys.emplace_back();
      continue;
    }
    const auto eq = s.find('=');
    if (eq == std::string::npos) fail(line, "expected key = value");
    const std::string key = trim(s.substr(0, eq));
    const std::string val = trim(s.substr(eq + 1));
    // Lower-case the key, but never a partition name: in the flat
    // `field.NAME` form only the field part is syntax.
    const auto key_dot = key.find('.');
    const std::string lkey =
        key_dot == std::string::npos
            ? lower(key)
            : lower(key.substr(0, key_dot)) + key.substr(key_dot);

    if (section == "scenario") {
      if (lkey == "name") doc.scenario = val;
      else if (lkey == "caption") doc.caption = val;
      else fail(line, "unknown [scenario] key '" + key + "'");
      continue;
    }
    if (section == "workload") {
      if (lkey == "kind") {
        const std::string k = lower(val);
        if (k == "debit_credit" || k == "debit-credit") {
          proto.kind = RunSpec::Kind::DebitCredit;
        } else if (k == "trace") {
          proto.kind = RunSpec::Kind::Trace;
        } else {
          fail(line, "unknown workload kind '" + val + "'");
        }
      } else if (lkey == "trace_file") {
        proto.trace_file = val;
      } else if (lkey == "trace_txns") {
        std::int64_t txns = 0;
        read({lkey, val, line}, txns);
        if (txns < 1 || txns > kMaxTraceTxns) {
          std::string msg = "trace_txns: must be in [1, ";
          msg += std::to_string(kMaxTraceTxns);
          msg += "], got ";
          msg += val;
          fail(line, msg);
        }
        proto.trace_txns = static_cast<std::size_t>(txns);
      } else {
        fail(line, "unknown [workload] key '" + key + "'");
      }
      continue;
    }
    if (section.rfind("partition.", 0) == 0) {
      // Section form translates to the flat per-partition keys; the
      // partition name keeps its case.
      const std::string pname = section.substr(10);
      if (lkey != "storage" && lkey != "cache_pages" &&
          lkey != "disk_cache_pages" && lkey != "gem_cache_pages") {
        fail(line, "unknown [partition] key '" + key + "'");
      }
      base.push_back({lkey + "." + pname, val, line});
      continue;
    }
    if (section == "run") {
      run_keys.back().push_back({lkey, val, line});
      continue;
    }
    if (section != "system" && !section.empty()) {
      fail(line, "unknown section [" + section + "]");
    }
    base.push_back({lkey, val, line});
  }

  // One run per [run] section; a file without any is a single run of the
  // base sections alone.
  if (run_keys.empty()) run_keys.emplace_back();
  for (const auto& extra : run_keys) {
    RunSpec spec = proto;
    spec.cfg = make_debit_credit_config();
    spec.keys = base;
    spec.keys.insert(spec.keys.end(), extra.begin(), extra.end());
    for (const SpecKey& k : spec.keys) {
      // Trace runs rebuild their partitions from the trace later; their
      // partition keys cannot be applied to the debit-credit schema, so
      // they, and the validation of the resolved run, wait for
      // apply_spec_keys.
      if (spec.kind == RunSpec::Kind::Trace &&
          k.key.find('.') != std::string::npos) {
        continue;
      }
      apply_one(spec.cfg, k);
    }
    if (spec.kind == RunSpec::Kind::DebitCredit) check(spec.cfg, spec.keys);
    doc.runs.push_back(std::move(spec));
  }
  return doc;
}

SpecDoc parse_spec_doc_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open run spec: " + path);
  try {
    return parse_spec_doc(f);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

RunSpec parse_run_spec(std::istream& in) {
  SpecDoc doc = parse_spec_doc(in);
  if (doc.runs.size() != 1) {
    throw std::runtime_error(
        "run spec: expected a single-run spec, got " +
        std::to_string(doc.runs.size()) + " [run] sections");
  }
  return std::move(doc.runs.front());
}

void apply_spec_keys(SystemConfig& cfg, const SpecKeyValues& keys) {
  for (const SpecKey& k : keys) apply_one(cfg, k);
  check(cfg, keys);
}

SpecKeyValues spec_keys(const SystemConfig& cfg) {
  SpecKeyValues out;
  for_each_system_key(cfg, [&out](const char* key, auto&& field) {
    out.push_back({key, show(field)});
  });
  if (cfg.gem.shards != 1) {
    out.push_back({"gem_shards", show(cfg.gem.shards)});
  }
  for (const auto& pc : cfg.partitions) {
    if (pc.storage != StorageKind::Disk) {
      out.push_back({"storage." + pc.name, show(named(pc.storage, kStorages))});
    }
    if (pc.disk_cache_pages != 0) {
      out.push_back({"disk_cache_pages." + pc.name,
                     std::to_string(pc.disk_cache_pages)});
    }
    if (pc.gem_cache_pages != 0) {
      out.push_back({"gem_cache_pages." + pc.name,
                     std::to_string(pc.gem_cache_pages)});
    }
  }
  return out;
}

std::vector<ConfigError> validate(const SystemConfig& c) {
  std::vector<ConfigError> errors;
  // Counts become capacities and loop bounds: a zero buffer evicts from an
  // empty LRU forever, a negative one wraps to an unbounded buffer, and a
  // station (CPU, log group, GEM shard) needs at least one server.
  const auto at_least_one = [&errors](const char* key, std::int64_t v) {
    if (v < 1) {
      errors.push_back({key, "must be >= 1, got " + std::to_string(v)});
    }
  };
  // Times and costs become event times and service times: a non-finite one
  // never ends or never starts, a negative one moves the clock back or runs
  // as free hardware, and a zero rate makes arrivals that never advance time.
  const auto finite = [&errors](const char* key, double v, bool positive,
                                std::string (*fmt)(double) = fmt_num) {
    if (std::isfinite(v) && (positive ? v > 0 : v >= 0)) return;
    errors.push_back({key, std::string("must be a finite number ") +
                               (positive ? "> 0" : ">= 0") + ", got " +
                               fmt(v)});
  };
  at_least_one("nodes", c.nodes);
  finite("tps", c.arrival_rate_per_node, true);
  // [Yu87]'s coherency scheme (broadcast invalidation, storage always
  // current) is only sound with FORCE.
  if (c.coupling == Coupling::LockEngine &&
      c.update != UpdateStrategy::Force) {
    errors.push_back({"coupling", "engine requires update = force"});
  }
  at_least_one("buffer", c.buffer_pages);
  at_least_one("mpl", c.mpl);
  finite("warmup", c.warmup, false);
  finite("measure", c.measure, true);
  at_least_one("log_disks", c.log_disks_per_node);
  at_least_one("cpu_procs", c.cpu.processors);
  finite("gem_entry_us", c.gem.entry_access, false, fmt_us);
  finite("msg_short_instr", c.comm.short_instr, false);
  finite("msg_long_instr", c.comm.long_instr, false);
  finite("lock_engine_us", c.lock_engine_service, false, fmt_us);
  at_least_one("gem_shards", c.gem.shards);
  for (const PartitionConfig& pc : c.partitions) {
    // A cache the storage kind uses needs a page; zero ran as one page.
    const auto pages = [&](const char* field, std::int64_t n, bool used) {
      if (n < 0) {
        errors.push_back({field + ("." + pc.name),
                          "must be >= 0, got " + std::to_string(n)});
      } else if (n == 0 && used) {
        errors.push_back({"storage." + pc.name,
                          show(named(pc.storage, kStorages)) + " needs " +
                              field + "." + pc.name + " >= 1, got 0"});
      }
    };
    pages("disk_cache_pages", pc.disk_cache_pages,
          pc.storage == StorageKind::DiskVolatileCache ||
              pc.storage == StorageKind::DiskNvCache);
    pages("gem_cache_pages", pc.gem_cache_pages,
          pc.storage == StorageKind::DiskGemCache);
  }
  return errors;
}

}  // namespace gemsd
