#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/json.hpp"

namespace gemsd::obs {

// --- sketch ----------------------------------------------------------------

void TsSketch::add(const sim::LogBuckets& lb, double x) {
  if (buckets.empty()) buckets.assign(static_cast<std::size_t>(lb.size()), 0);
  ++buckets[static_cast<std::size_t>(lb.index(x))];
  ++count;
  sum_s += x;
}

void TsSketch::merge_from(const TsSketch& o) {
  if (o.count == 0) return;
  if (buckets.empty()) {
    buckets = o.buckets;
  } else {
    if (o.buckets.size() > buckets.size()) buckets.resize(o.buckets.size(), 0);
    for (std::size_t i = 0; i < o.buckets.size(); ++i) {
      buckets[i] += o.buckets[i];
    }
  }
  count += o.count;
  sum_s += o.sum_s;
}

// --- window ----------------------------------------------------------------

void TsWindow::merge_from(const TsWindow& o) {
  commits += o.commits;
  aborts += o.aborts;
  resp.merge_from(o.resp);
  if (o.nodes.size() > nodes.size()) nodes.resize(o.nodes.size());
  for (std::size_t n = 0; n < o.nodes.size(); ++n) {
    nodes[n].commits += o.nodes[n].commits;
    nodes[n].aborts += o.nodes[n].aborts;
    nodes[n].resp_sum_s += o.nodes[n].resp_sum_s;
  }
  events += o.events;
  lock_waits += o.lock_waits;
  deadlocks += o.deadlocks;
  hits += o.hits;
  misses += o.misses;
  msgs += o.msgs;
  cpu_busy_s += o.cpu_busy_s;
  gem_busy_s += o.gem_busy_s;
  net_busy_s += o.net_busy_s;
  disk_busy_s += o.disk_busy_s;
  if (o.station_busy_s.size() > station_busy_s.size()) {
    station_busy_s.resize(o.station_busy_s.size(), 0.0);
  }
  for (std::size_t i = 0; i < o.station_busy_s.size(); ++i) {
    station_busy_s[i] += o.station_busy_s[i];
  }
}

double TsSeries::window_end(std::size_t i) const {
  const double t1 = static_cast<double>(i + 1) * window_s;
  return end > 0 && end < t1 ? end : t1;
}

// --- recorder ---------------------------------------------------------------

TimeSeriesRecorder::TimeSeriesRecorder(double window_s, std::size_t cap,
                                       int nodes, sim::LogBuckets layout)
    : base_window_s_(window_s > 0 ? window_s : 0.5),
      window_s_(base_window_s_),
      cap_(std::max<std::size_t>(cap, 2)),
      nodes_(nodes),
      layout_(layout) {}

void TimeSeriesRecorder::set_capacities(double cpu, double gem, double net,
                                        double disk) {
  cpu_cap_ = cpu;
  gem_cap_ = gem;
  net_cap_ = net;
  disk_cap_ = disk;
}

void TimeSeriesRecorder::coarsen() {
  std::vector<TsWindow> merged((windows_.size() + 1) / 2);
  for (std::size_t j = 0; j < merged.size(); ++j) {
    merged[j] = std::move(windows_[2 * j]);
    if (2 * j + 1 < windows_.size()) merged[j].merge_from(windows_[2 * j + 1]);
  }
  windows_ = std::move(merged);
  window_s_ *= 2.0;
  ++coarsenings_;
  last_idx_ /= 2;
}

std::size_t TimeSeriesRecorder::index_for(sim::SimTime t) {
  if (t < 0) t = 0;
  auto idx = static_cast<std::size_t>(t / window_s_);
  while (idx >= cap_) {
    coarsen();
    idx = static_cast<std::size_t>(t / window_s_);
  }
  if (idx >= windows_.size()) {
    TsWindow fresh;
    fresh.nodes.resize(static_cast<std::size_t>(nodes_ > 0 ? nodes_ : 0));
    windows_.resize(idx + 1, fresh);
  }
  return idx;
}

TsWindow& TimeSeriesRecorder::window_for(sim::SimTime t) {
  return windows_[index_for(t)];
}

void TimeSeriesRecorder::poll_and_fold(sim::SimTime now) {
  if (now < prev_t_) now = prev_t_;
  TsCumulative cum = prev_;
  if (poller_) poller_(cum);
  const double span = now - prev_t_;
  if (span > 0) {
    // Counters are monotonic between rebases; guard the unsigned difference
    // anyway so a missed rebase degrades to a zero delta, never a wrap.
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
      return a >= b ? static_cast<double>(a - b) : 0.0;
    };
    const double d_events = delta(cum.events, prev_.events);
    const double d_lock_waits = delta(cum.lock_waits, prev_.lock_waits);
    const double d_deadlocks = delta(cum.deadlocks, prev_.deadlocks);
    const double d_hits = delta(cum.hits, prev_.hits);
    const double d_misses = delta(cum.misses, prev_.misses);
    const double d_msgs = delta(cum.msgs, prev_.msgs);
    const double d_cpu = cum.cpu_busy_s - prev_.cpu_busy_s;
    const double d_gem = cum.gem_busy_s - prev_.gem_busy_s;
    const double d_net = cum.net_busy_s - prev_.net_busy_s;
    const double d_disk = cum.disk_busy_s - prev_.disk_busy_s;
    std::vector<double> d_station(stations_.size(), 0.0);
    for (std::size_t i = 0; i < d_station.size(); ++i) {
      const double c =
          i < cum.station_busy_s.size() ? cum.station_busy_s[i] : 0.0;
      const double p =
          i < prev_.station_busy_s.size() ? prev_.station_busy_s[i] : 0.0;
      d_station[i] = c - p;
    }

    sim::SimTime t0 = prev_t_;
    while (t0 < now) {
      const std::size_t idx = index_for(t0);
      double seg_end =
          std::min<double>(now, static_cast<double>(idx + 1) * window_s_);
      if (seg_end <= t0) seg_end = now;  // fp guard: always make progress
      const double f = (seg_end - t0) / span;
      TsWindow& w = windows_[idx];
      w.events += f * d_events;
      w.lock_waits += f * d_lock_waits;
      w.deadlocks += f * d_deadlocks;
      w.hits += f * d_hits;
      w.misses += f * d_misses;
      w.msgs += f * d_msgs;
      w.cpu_busy_s += f * d_cpu;
      w.gem_busy_s += f * d_gem;
      w.net_busy_s += f * d_net;
      w.disk_busy_s += f * d_disk;
      if (!d_station.empty() && w.station_busy_s.size() < d_station.size()) {
        w.station_busy_s.resize(d_station.size(), 0.0);
      }
      for (std::size_t i = 0; i < d_station.size(); ++i) {
        w.station_busy_s[i] += f * d_station[i];
      }
      t0 = seg_end;
    }
  }
  prev_ = cum;
  prev_t_ = now;
}

void TimeSeriesRecorder::on_commit(sim::SimTime t, int node,
                                   double response_s) {
  std::size_t idx = index_for(t);
  if (idx != last_idx_) {
    poll_and_fold(t);
    idx = index_for(t);  // the fold may have coarsened
    last_idx_ = idx;
  }
  TsWindow& w = windows_[idx];
  ++w.commits;
  w.resp.add(layout_, response_s);
  if (node >= 0 && static_cast<std::size_t>(node) < w.nodes.size()) {
    ++w.nodes[static_cast<std::size_t>(node)].commits;
    w.nodes[static_cast<std::size_t>(node)].resp_sum_s += response_s;
  }
}

void TimeSeriesRecorder::on_abort(sim::SimTime t, int node) {
  std::size_t idx = index_for(t);
  if (idx != last_idx_) {
    poll_and_fold(t);
    idx = index_for(t);
    last_idx_ = idx;
  }
  TsWindow& w = windows_[idx];
  ++w.aborts;
  if (node >= 0 && static_cast<std::size_t>(node) < w.nodes.size()) {
    ++w.nodes[static_cast<std::size_t>(node)].aborts;
  }
}

void TimeSeriesRecorder::fold(sim::SimTime now) {
  poll_and_fold(now);
  if (!windows_.empty()) last_idx_ = windows_.size() - 1;
}

void TimeSeriesRecorder::rebase(sim::SimTime now) {
  TsCumulative cum{};
  if (poller_) poller_(cum);
  prev_ = cum;
  prev_t_ = now;
}

TsSeries TimeSeriesRecorder::snapshot(sim::SimTime end) const {
  TsSeries s;
  s.base_window_s = base_window_s_;
  s.window_s = window_s_;
  s.coarsenings = coarsenings_;
  s.cap = cap_;
  s.nodes = nodes_;
  s.layout = layout_;
  s.stats_start = stats_start_;
  s.end = end;
  s.cpu_capacity = cpu_cap_;
  s.gem_capacity = gem_cap_;
  s.net_capacity = net_cap_;
  s.disk_capacity = disk_cap_;
  s.stations = stations_;
  s.windows = windows_;
  return s;
}

// --- JSON export / import ---------------------------------------------------

std::string timeseries_json(
    const TsSeries& s,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "gemsd.timeseries.v1");
  for (const auto& [key, raw] : metadata) {
    w.key(key);
    w.raw(raw);
  }
  w.kv("base_window_s", s.base_window_s);
  w.kv("window_s", s.window_s);
  w.kv("coarsenings", static_cast<std::int64_t>(s.coarsenings));
  w.kv("cap", static_cast<std::uint64_t>(s.cap));
  w.kv("nodes", static_cast<std::int64_t>(s.nodes));
  w.kv("stats_start_s", s.stats_start);
  w.kv("end_s", s.end);
  w.key("sketch");
  w.begin_object();
  w.kv("lo_s", s.layout.lo());
  w.kv("hi_s", s.layout.hi());
  w.kv("bins", static_cast<std::int64_t>(s.layout.bins()));
  w.end_object();
  w.key("capacity");
  w.begin_object();
  w.kv("cpu", s.cpu_capacity);
  w.kv("gem", s.gem_capacity);
  w.kv("net", s.net_capacity);
  w.kv("disk", s.disk_capacity);
  w.end_object();
  // Additive v1 extension: the tracked-station list plus a per-window
  // "station_busy_s" array in the same order. Omitted entirely when no
  // station list was installed — documents written without the extension
  // keep their exact bytes.
  if (!s.stations.empty()) {
    w.key("stations");
    w.begin_array();
    for (const TsStation& st : s.stations) {
      w.begin_object();
      w.kv("name", st.name);
      w.kv("capacity", st.capacity);
      w.end_object();
    }
    w.end_array();
  }
  w.key("windows");
  w.begin_array();
  for (std::size_t i = 0; i < s.windows.size(); ++i) {
    const TsWindow& win = s.windows[i];
    w.begin_object();
    w.kv("t0_s", static_cast<double>(i) * s.window_s);
    w.kv("t1_s", s.window_end(i));
    w.kv("commits", static_cast<std::uint64_t>(win.commits));
    w.kv("aborts", static_cast<std::uint64_t>(win.aborts));
    w.kv("events", win.events);
    w.kv("lock_waits", win.lock_waits);
    w.kv("deadlocks", win.deadlocks);
    w.kv("hits", win.hits);
    w.kv("misses", win.misses);
    w.kv("msgs", win.msgs);
    w.key("busy_s");
    w.begin_object();
    w.kv("cpu", win.cpu_busy_s);
    w.kv("gem", win.gem_busy_s);
    w.kv("net", win.net_busy_s);
    w.kv("disk", win.disk_busy_s);
    w.end_object();
    if (!s.stations.empty()) {
      w.key("station_busy_s");
      w.begin_array();
      for (std::size_t b = 0; b < s.stations.size(); ++b) {
        w.value(b < win.station_busy_s.size() ? win.station_busy_s[b] : 0.0);
      }
      w.end_array();
    }
    w.key("resp");
    w.begin_object();
    w.kv("count", static_cast<std::uint64_t>(win.resp.count));
    w.kv("sum_s", win.resp.sum_s);
    // Sparse [index, count] pairs: response sketches occupy a handful of
    // the 162 buckets, so the dense vector never hits the wire.
    w.key("buckets");
    w.begin_array();
    for (std::size_t b = 0; b < win.resp.buckets.size(); ++b) {
      if (win.resp.buckets[b] == 0) continue;
      w.begin_array();
      w.value(static_cast<std::uint64_t>(b));
      w.value(static_cast<std::uint64_t>(win.resp.buckets[b]));
      w.end_array();
    }
    w.end_array();
    w.end_object();
    w.key("per_node");
    w.begin_array();
    for (const TsNodeWindow& n : win.nodes) {
      w.begin_object();
      w.kv("commits", static_cast<std::uint64_t>(n.commits));
      w.kv("aborts", static_cast<std::uint64_t>(n.aborts));
      w.kv("resp_sum_s", n.resp_sum_s);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

namespace {

double num_at(const JsonValue& v, const char* key, double dflt = 0.0) {
  const JsonValue* f = v.find(key);
  return f && f->is_number() ? f->num : dflt;
}

std::uint64_t u64_at(const JsonValue& v, const char* key) {
  return static_cast<std::uint64_t>(num_at(v, key));
}

}  // namespace

bool timeseries_from_json(const JsonValue& doc, TsSeries& out,
                          std::string& error) {
  if (!doc.is_object()) {
    error = "not a JSON object";
    return false;
  }
  const JsonValue* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->str != "gemsd.timeseries.v1") {
    error = "not a gemsd.timeseries.v1 document";
    return false;
  }
  out = TsSeries{};
  out.base_window_s = num_at(doc, "base_window_s", 0.5);
  out.window_s = num_at(doc, "window_s", out.base_window_s);
  if (out.window_s <= 0) {
    error = "window_s must be positive";
    return false;
  }
  out.coarsenings = static_cast<int>(num_at(doc, "coarsenings"));
  out.cap = static_cast<std::size_t>(num_at(doc, "cap", 512));
  out.nodes = static_cast<int>(num_at(doc, "nodes"));
  out.stats_start = num_at(doc, "stats_start_s");
  out.end = num_at(doc, "end_s");
  if (const JsonValue* sk = doc.find("sketch"); sk && sk->is_object()) {
    out.layout = sim::LogBuckets(num_at(*sk, "lo_s", 1e-6),
                                 num_at(*sk, "hi_s", 100.0),
                                 static_cast<int>(num_at(*sk, "bins", 160)));
  }
  if (const JsonValue* cp = doc.find("capacity"); cp && cp->is_object()) {
    out.cpu_capacity = num_at(*cp, "cpu");
    out.gem_capacity = num_at(*cp, "gem");
    out.net_capacity = num_at(*cp, "net");
    out.disk_capacity = num_at(*cp, "disk");
  }
  if (const JsonValue* st = doc.find("stations"); st && st->is_array()) {
    for (const JsonValue& js : st->arr) {
      TsStation s;
      if (const JsonValue* nm = js.find("name"); nm && nm->is_string()) {
        s.name = nm->str;
      }
      s.capacity = num_at(js, "capacity");
      out.stations.push_back(std::move(s));
    }
  }
  const JsonValue* windows = doc.find("windows");
  if (!windows || !windows->is_array()) {
    error = "missing windows array";
    return false;
  }
  out.windows.reserve(windows->arr.size());
  for (const JsonValue& jw : windows->arr) {
    TsWindow w;
    w.commits = u64_at(jw, "commits");
    w.aborts = u64_at(jw, "aborts");
    w.events = num_at(jw, "events");
    w.lock_waits = num_at(jw, "lock_waits");
    w.deadlocks = num_at(jw, "deadlocks");
    w.hits = num_at(jw, "hits");
    w.misses = num_at(jw, "misses");
    w.msgs = num_at(jw, "msgs");
    if (const JsonValue* b = jw.find("busy_s"); b && b->is_object()) {
      w.cpu_busy_s = num_at(*b, "cpu");
      w.gem_busy_s = num_at(*b, "gem");
      w.net_busy_s = num_at(*b, "net");
      w.disk_busy_s = num_at(*b, "disk");
    }
    if (const JsonValue* sb = jw.find("station_busy_s");
        sb && sb->is_array()) {
      for (const JsonValue& v : sb->arr) {
        w.station_busy_s.push_back(v.is_number() ? v.num : 0.0);
      }
    }
    if (const JsonValue* r = jw.find("resp"); r && r->is_object()) {
      w.resp.count = u64_at(*r, "count");
      w.resp.sum_s = num_at(*r, "sum_s");
      if (const JsonValue* bk = r->find("buckets");
          bk && bk->is_array() && w.resp.count > 0) {
        w.resp.buckets.assign(static_cast<std::size_t>(out.layout.size()), 0);
        for (const JsonValue& pair : bk->arr) {
          if (!pair.is_array() || pair.arr.size() != 2 ||
              !pair.arr[0].is_number() || !pair.arr[1].is_number()) {
            error = "malformed sketch bucket (expected [index, count])";
            return false;
          }
          const auto idx = static_cast<std::size_t>(pair.arr[0].num);
          if (idx >= w.resp.buckets.size()) {
            error = "sketch bucket index out of range";
            return false;
          }
          w.resp.buckets[idx] +=
              static_cast<std::uint64_t>(pair.arr[1].num);
        }
      }
    }
    if (const JsonValue* pn = jw.find("per_node"); pn && pn->is_array()) {
      for (const JsonValue& jn : pn->arr) {
        TsNodeWindow n;
        n.commits = u64_at(jn, "commits");
        n.aborts = u64_at(jn, "aborts");
        n.resp_sum_s = num_at(jn, "resp_sum_s");
        w.nodes.push_back(n);
      }
    }
    out.windows.push_back(std::move(w));
  }
  return true;
}

// --- analysis ---------------------------------------------------------------

namespace {

/// MSER truncation over a per-window series: the cut d minimizing the
/// squared standard error of the retained mean, sum((x_i - mean_d)^2) /
/// (n-d)^2 over i in [d, n). Restricted to d <= n/2 (the usual guard
/// against truncating into pure noise). Ties keep the smallest d.
std::size_t mser_cut(const std::vector<double>& x) {
  const std::size_t n = x.size();
  if (n < 4) return 0;
  // Suffix sums: O(n) for all candidate cuts.
  std::vector<double> s1(n + 1, 0.0), s2(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    s1[i] = s1[i + 1] + x[i];
    s2[i] = s2[i + 1] + x[i] * x[i];
  }
  std::size_t best = 0;
  double best_z = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d <= n / 2; ++d) {
    const double m = static_cast<double>(n - d);
    const double var_sum = s2[d] - s1[d] * s1[d] / m;
    const double z = std::max(var_sum, 0.0) / (m * m);
    if (z < best_z * (1.0 - 1e-12)) {
      best_z = z;
      best = d;
    }
  }
  return best;
}

/// MSER-5 (White): apply the MSER scan to batch means of 5 windows, not raw
/// windows. On a stationary series the raw statistic decays like 1/(n-d),
/// so any residual noise drags the cut toward the n/2 guard; batching damps
/// that while initialization bias still dominates the early batches. Falls
/// back to the raw scan when there are fewer than 4 batches. Returns the
/// cut in windows.
std::size_t mser5_cut(const std::vector<double>& x) {
  constexpr std::size_t kBatch = 5;
  const std::size_t k = x.size() / kBatch;
  if (k < 4) return mser_cut(x);
  std::vector<double> means(k);
  for (std::size_t j = 0; j < k; ++j) {
    double s = 0;
    for (std::size_t q = 0; q < kBatch; ++q) s += x[j * kBatch + q];
    means[j] = s / static_cast<double>(kBatch);
  }
  return mser_cut(means) * kBatch;
}

double tail_mean(const std::vector<double>& x, std::size_t from) {
  if (from >= x.size()) return 0;
  double s = 0;
  for (std::size_t i = from; i < x.size(); ++i) s += x[i];
  return s / static_cast<double>(x.size() - from);
}

/// The configured cut is fine when keeping [cfg, n) instead of MSER's
/// [cut, n) moves the retained mean by under 2.5% — deeper truncation that
/// does not change the answer is a statistical nicety, not a warm-up bug.
bool cut_bias_negligible(const std::vector<double>& x, std::size_t cfg,
                         std::size_t cut) {
  const double kept = tail_mean(x, cfg);
  const double mser = tail_mean(x, cut);
  return std::abs(kept - mser) <= 0.025 * std::max(std::abs(mser), 1e-12);
}

/// OLS trend over batch points (t_j, y_j): drift = statistically significant
/// slope AND a fitted change that matters relative to the mean.
TsTrend ols_trend(const std::vector<double>& t, const std::vector<double>& y) {
  TsTrend out;
  const std::size_t n = t.size();
  if (n < 4 || y.size() != n) return out;
  out.batches = static_cast<int>(n);
  double st = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    st += t[i];
    sy += y[i];
  }
  const double tbar = st / static_cast<double>(n);
  const double ybar = sy / static_cast<double>(n);
  double sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxx += (t[i] - tbar) * (t[i] - tbar);
    sxy += (t[i] - tbar) * (y[i] - ybar);
  }
  if (sxx <= 0) return out;
  const double slope = sxy / sxx;
  double sse = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double fit = ybar + slope * (t[i] - tbar);
    sse += (y[i] - fit) * (y[i] - fit);
  }
  const double se =
      std::sqrt(std::max(sse, 0.0) / static_cast<double>(n - 2) / sxx);
  out.mean = ybar;
  out.slope_per_s = slope;
  out.t_stat = se > 0 ? slope / se : (slope == 0 ? 0.0 : 1e12);
  const double span = t.back() - t.front();
  out.rel_change =
      std::abs(slope) * span / std::max(std::abs(ybar), 1e-12);
  // |t| > 3.5 is ~p < 0.01 two-sided at the batch counts used here; the 5%
  // relative-change guard keeps statistically-detectable-but-tiny slopes
  // (long steady runs have tight standard errors) from failing CI.
  out.drifting = std::abs(out.t_stat) > 3.5 && out.rel_change > 0.05;
  return out;
}

}  // namespace

TsReport analyze_timeseries(const TsSeries& s) {
  TsReport r;
  r.windows = s.windows.size();
  r.window_s = s.window_s;
  r.configured_warmup_s = s.stats_start;
  if (s.windows.empty() || s.window_s <= 0) return r;

  const auto width = [&](std::size_t i) {
    return std::max(s.window_end(i) - static_cast<double>(i) * s.window_s,
                    1e-12);
  };

  // MSER warm-up estimate over the full run (recording starts at t=0).
  std::vector<double> thr(s.windows.size());
  bool all_committed = true;
  for (std::size_t i = 0; i < s.windows.size(); ++i) {
    thr[i] = static_cast<double>(s.windows[i].commits) / width(i);
    all_committed = all_committed && s.windows[i].resp.count > 0;
  }
  std::vector<double> resp;
  std::size_t cut = mser5_cut(thr);
  if (all_committed) {
    resp.resize(s.windows.size());
    for (std::size_t i = 0; i < s.windows.size(); ++i) {
      resp[i] = s.windows[i].resp.mean_s();
    }
    cut = std::max(cut, mser5_cut(resp));
  }
  r.mser_warmup_s = static_cast<double>(cut) * s.window_s;
  r.warmup_safe = r.configured_warmup_s >= r.mser_warmup_s - 1e-9;
  if (!r.warmup_safe) {
    // First window at/after the configured cut.
    std::size_t cfg_idx = s.windows.size();
    for (std::size_t i = 0; i < s.windows.size(); ++i) {
      if (static_cast<double>(i) * s.window_s >= s.stats_start - 1e-9) {
        cfg_idx = i;
        break;
      }
    }
    r.warmup_safe = cut_bias_negligible(thr, cfg_idx, cut) &&
                    (resp.empty() || cut_bias_negligible(resp, cfg_idx, cut));
  }

  // Stationarity over the measurement interval: batch the per-window series
  // and test the batch means for a trend.
  std::vector<std::size_t> meas;
  for (std::size_t i = 0; i < s.windows.size(); ++i) {
    if (static_cast<double>(i) * s.window_s >= s.stats_start - 1e-9) {
      meas.push_back(i);
    }
  }
  r.meas_windows = meas.size();
  const std::size_t b = std::min<std::size_t>(10, meas.size() / 2);
  if (b >= 4) {
    const std::size_t k = meas.size() / b;
    const std::size_t skip = meas.size() - b * k;  // drop the oldest remainder
    std::vector<double> bt, b_thr, b_resp;
    bool resp_ok = true;
    for (std::size_t j = 0; j < b; ++j) {
      double commits = 0, span = 0, resp_sum = 0, t_sum = 0;
      std::uint64_t resp_n = 0;
      for (std::size_t q = 0; q < k; ++q) {
        const std::size_t i = meas[skip + j * k + q];
        commits += static_cast<double>(s.windows[i].commits);
        span += width(i);
        resp_sum += s.windows[i].resp.sum_s;
        resp_n += s.windows[i].resp.count;
        t_sum += (static_cast<double>(i) + 0.5) * s.window_s;
      }
      bt.push_back(t_sum / static_cast<double>(k));
      b_thr.push_back(commits / std::max(span, 1e-12));
      if (resp_n == 0) resp_ok = false;
      b_resp.push_back(resp_n ? resp_sum / static_cast<double>(resp_n) : 0.0);
    }
    r.throughput = ols_trend(bt, b_thr);
    if (resp_ok) r.response = ols_trend(bt, b_resp);
  }
  r.drifting = r.throughput.drifting || r.response.drifting;
  return r;
}

namespace {

void append_trend(std::string& out, const char* name, const TsTrend& t,
                  double scale, const char* unit) {
  char buf[256];
  if (t.batches == 0) {
    std::snprintf(buf, sizeof(buf),
                  "  %-11s not enough measurement windows (inconclusive)\n",
                  name);
    out += buf;
    return;
  }
  std::snprintf(buf, sizeof(buf),
                "  %-11s mean %.4g %s, slope %+.4g %s/s, t=%.2f, "
                "change %.1f%% -> %s\n",
                name, t.mean * scale, unit, t.slope_per_s * scale, unit,
                t.t_stat, t.rel_change * 100.0,
                t.drifting ? "DRIFTING" : "steady");
  out += buf;
}

}  // namespace

std::string format_ts_report(const TsSeries& s, const TsReport& r) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "time series: %zu windows x %.4g s (%d coarsening%s), "
                "%zu in the measurement interval\n",
                r.windows, r.window_s, s.coarsenings,
                s.coarsenings == 1 ? "" : "s", r.meas_windows);
  out += buf;
  // A cut shorter than the recommendation can still be safe when the deeper
  // truncation would not move the retained means (cut_bias_negligible).
  const bool by_bias =
      r.warmup_safe && r.configured_warmup_s < r.mser_warmup_s - 1e-9;
  std::snprintf(buf, sizeof(buf),
                "warm-up: configured cut %.4g s, MSER-5 recommends %.4g s -> "
                "%s\n",
                r.configured_warmup_s, r.mser_warmup_s,
                r.warmup_safe
                    ? (by_bias ? "safe (no residual bias)" : "safe")
                    : "TOO SHORT");
  out += buf;
  out += "stationarity over the measurement interval (batch-means trend):\n";
  append_trend(out, "throughput:", r.throughput, 1.0, "tps");
  append_trend(out, "response:", r.response, 1e3, "ms");
  out += r.drifting ? "verdict: DRIFTING\n" : "verdict: steady\n";
  return out;
}

std::string timeseries_csv(const TsSeries& s) {
  std::string out =
      "t0_s,t1_s,in_warmup,commits,aborts,throughput_tps,resp_mean_ms,"
      "resp_p50_ms,resp_p95_ms,resp_p99_ms,events_per_s,lock_waits_per_s,"
      "deadlocks_per_s,hit_ratio,msgs_per_s,cpu_util,gem_util,net_util,"
      "disk_util";
  // Additive per-station utilization columns; absent for documents without
  // the station list, so existing consumers see the exact header they did.
  for (const TsStation& st : s.stations) out += ",util_" + st.name;
  out += "\n";
  const auto n = [](double v) { return JsonWriter::number(v); };
  for (std::size_t i = 0; i < s.windows.size(); ++i) {
    const TsWindow& w = s.windows[i];
    const double t0 = static_cast<double>(i) * s.window_s;
    const double t1 = s.window_end(i);
    const double width = std::max(t1 - t0, 1e-12);
    const bool warm = s.stats_start > 0 && t0 < s.stats_start;
    const double q50 = w.resp.quantile(s.layout, 0.50);
    const double q95 = w.resp.quantile(s.layout, 0.95);
    const double q99 = w.resp.quantile(s.layout, 0.99);
    out += n(t0) + "," + n(t1) + "," + (warm ? "1" : "0") + "," +
           std::to_string(w.commits) + "," + std::to_string(w.aborts) + "," +
           n(static_cast<double>(w.commits) / width) + "," +
           n(w.resp.mean_s() * 1e3) + "," + n(q50 * 1e3) + "," +
           n(q95 * 1e3) + "," + n(q99 * 1e3) + "," + n(w.events / width) +
           "," + n(w.lock_waits / width) + "," + n(w.deadlocks / width) +
           "," + n(sim::safe_ratio(w.hits, w.hits + w.misses)) + "," +
           n(w.msgs / width) + "," +
           n(sim::safe_ratio(w.cpu_busy_s, width * s.cpu_capacity)) + "," +
           n(sim::safe_ratio(w.gem_busy_s, width * s.gem_capacity)) + "," +
           n(sim::safe_ratio(w.net_busy_s, width * s.net_capacity)) + "," +
           n(sim::safe_ratio(w.disk_busy_s, width * s.disk_capacity));
    for (std::size_t b = 0; b < s.stations.size(); ++b) {
      const double busy =
          b < w.station_busy_s.size() ? w.station_busy_s[b] : 0.0;
      out += ',';
      out += n(sim::safe_ratio(busy, width * s.stations[b].capacity));
    }
    out += "\n";
  }
  return out;
}

}  // namespace gemsd::obs
