#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/obs.h"

namespace perfbench {

using namespace llmib;

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void print_rounds(const std::string& tag, const std::vector<double>& per_round) {
  std::printf("rounds %s:", tag.c_str());
  for (double v : per_round) std::printf(" %.6g", v);
  std::printf("\n");
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

SpanTotals TraceSummary::span(const std::string& name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? SpanTotals{} : it->second;
}

void check_trace(const TraceSummary& ts, Outcome& out) {
  std::printf("trace: events=%zu dropped=%llu valid=%d\n", ts.events,
              static_cast<unsigned long long>(ts.dropped), ts.valid ? 1 : 0);
  out.check(ts.valid, "trace failed validation: " + ts.error);
  out.check(ts.dropped == 0, "trace dropped " + std::to_string(ts.dropped) + " events");
  out.check(ts.events > 0, "traced round recorded no events");
}

double TraceSummary::self_us_per_call(const std::string& name) const {
  const SpanTotals s = span(name);
  return s.count > 0 ? s.self_us / static_cast<double>(s.count) : 0.0;
}

void start_trace() {
  obs::TraceBuffer::global().set_capacity_per_thread(kTraceCapacity);  // implies clear()
  obs::set_tracing(true);
}

TraceSummary stop_trace() {
  obs::set_tracing(false);
  auto& buf = obs::TraceBuffer::global();
  TraceSummary out;
  out.dropped = buf.dropped();
  std::vector<obs::SpanEvent> events = buf.events();
  out.events = events.size();
  const obs::TraceCheck chk = obs::validate_chrome_trace(obs::chrome_trace_json(events));
  out.valid = chk.ok();
  out.error = chk.error;

  // Self time: walk each thread's wall spans in start order (parents before
  // children that share their start) with a stack of open spans; a span's
  // direct children never overlap one another, so their summed durations
  // are the covered part of the parent.
  std::vector<const obs::SpanEvent*> wall;
  for (const auto& e : events) {
    if (!e.simulated && !e.instant) wall.push_back(&e);
  }
  std::stable_sort(wall.begin(), wall.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
    return a->depth < b->depth;
  });
  struct Open {
    const obs::SpanEvent* ev;
    double child_us;
  };
  std::vector<Open> stack;
  const auto close = [&](const Open& o) {
    SpanTotals& t = out.spans[o.ev->name];
    ++t.count;
    t.total_us += o.ev->dur_us;
    t.self_us += std::max(0.0, o.ev->dur_us - o.child_us);
  };
  std::uint32_t tid = 0;
  for (const auto* e : wall) {
    if (e->tid != tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
      tid = e->tid;
    }
    while (!stack.empty() && e->depth <= stack.back().ev->depth) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_us += e->dur_us;
    stack.push_back({e, 0.0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  buf.clear();
  return out;
}

}  // namespace perfbench
