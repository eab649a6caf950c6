#include "obs/audit.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace gemsd::obs {

namespace {

const char* kind_tag(TraceKind k) {
  switch (k) {
    case TraceKind::Span: return "span";
    case TraceKind::Instant: return "inst";
    case TraceKind::FlowBegin: return "flow>";
    case TraceKind::FlowEnd: return ">flow";
    case TraceKind::PhaseTotal: return "phase";
  }
  return "?";
}

}  // namespace

void Auditor::check(bool ok, const char* name, sim::SimTime t,
                    std::uint64_t txn, int node, const char* fmt, ...) {
  ++checks_;
  if (ok) return;

  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);

  AuditViolation v;
  v.check = name;
  v.what = buf;
  v.t = t;
  v.txn = txn;
  v.node = node;
  report(v);
  violations_.push_back(std::move(v));
  if (fail_fast_) std::abort();
}

void Auditor::report(const AuditViolation& v) const {
  std::fprintf(stderr,
               "AUDIT VIOLATION [%s] t=%.9f txn=%llu node=%d: %s\n",
               v.check.c_str(), v.t,
               static_cast<unsigned long long>(v.txn), v.node,
               v.what.c_str());
  if (!trace_) {
    std::fprintf(stderr, "  (no trace ring attached; rerun with --trace for "
                         "a cursor)\n");
    return;
  }
  constexpr std::size_t kCursor = 12;
  const std::size_t n = trace_->size();
  const std::size_t first = n > kCursor ? n - kCursor : 0;
  std::fprintf(stderr,
               "  trace cursor (last %zu of %zu events, %llu dropped):\n",
               n - first, n,
               static_cast<unsigned long long>(trace_->dropped()));
  for (std::size_t i = first; i < n; ++i) {
    const TraceEvent& e = (*trace_)[i];
    std::fprintf(stderr,
                 "    t=%.9f %-5s %-12s txn=%llu node=%d value=%g aux=%d\n",
                 e.t, kind_tag(e.kind), to_string(e.name),
                 static_cast<unsigned long long>(e.id), e.node, e.value,
                 e.aux);
  }
}

}  // namespace gemsd::obs
