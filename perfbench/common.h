#pragma once

// Shared plumbing of the host-speed benchmark: run options, the result a
// workload hands back, timing/percentile helpers, the allocation counter and
// the span-trace summary used by traced runs.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One invocation: `--workload W --seed N --seconds S --trace 0|1`.
/// `self_test` shrinks every input and runs a single round.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

/// What a workload reports. `values` holds end-to-end metrics on untraced
/// runs and per-layer metrics on traced runs (units live in main.cpp).
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> errors;

  /// Records a failed correctness check (and keeps going, so every broken
  /// property is listed).
  void check(bool ok, const std::string& what);
};

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

/// Heap allocations made through operator new since process start.
std::uint64_t allocations();

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// FNV-1a over a string: the simulated-statistics digest.
std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ull);

/// Prints one line with every round's value, so spread within a run shows.
void print_rounds(const std::string& tag, const std::vector<double>& per_round);

/// "%.17g" so a digest keeps every bit of a double.
std::string exact(double v);

/// Median wall time of `repeats` calls to `setup` (the first calls pay
/// page faults and cold caches; the median reflects a warm set-up).
template <class F>
double time_setup(int repeats, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    setup();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Repeats `round` until `seconds` have elapsed (at least once, whole rounds
/// only), or exactly once when `seconds` <= 0. Returns rounds run.
template <class F>
int run_rounds(double seconds, F&& round) {
  const auto t0 = Clock::now();
  int n = 0;
  do {
    round(n);
    ++n;
  } while (seconds > 0 && seconds_since(t0) < seconds);
  return n;
}

/// Per-name totals of the wall-clock spans of one traced section.
struct SpanTotals {
  std::int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  ///< duration minus the part direct children cover
};

struct TraceSummary {
  bool valid = false;          ///< obs::validate_chrome_trace accepted it
  std::uint64_t dropped = 0;   ///< ring overwrites (must be 0)
  std::size_t events = 0;
  std::string error;
  std::map<std::string, SpanTotals> spans;

  SpanTotals span(const std::string& name) const;
  /// Mean self time per span of this name, microseconds (0 if none).
  double self_us_per_call(const std::string& name) const;
};

/// Ring size for traced rounds: large enough that nothing is dropped.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 21;

/// Clears the global trace buffer, sizes its ring to kTraceCapacity and
/// switches tracing on.
void start_trace();
/// Prints the trace size and records the ring/validation checks.
void check_trace(const TraceSummary& ts, Outcome& out);

/// Switches tracing off, exports + validates the Chrome trace and reduces
/// the wall-clock spans to per-name totals and self times.
TraceSummary stop_trace();

}  // namespace perfbench
