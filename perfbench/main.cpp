// perfbench: host-speed benchmark of the simulator and the mini-engine.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// Prints digest and probe lines, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. See README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every untraced run reports all of these, whatever the workload.
const MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"steps_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every traced run reports all of these; a layer the workload does not run
// reads 0.
const MetricDef kPerLayer[] = {
    {"sim.loop_s", "s"},
    {"sim.host_us_per_iter", "us"},
    {"sim.allocs_per_iter", "count"},
    {"sim.price_decode_us", "us"},
    {"sim.price_prefill_us", "us"},
    {"sim.point_ms", "ms"},
    {"sim.large_batch_point_ms", "ms"},
    {"cluster.loop_s", "s"},
    {"cluster.host_us_per_iter", "us"},
    {"cluster.allocs_per_iter", "count"},
    {"parallel.stepped_point_ms", "ms"},
    {"sched.plan_us", "us"},
    {"engine.step_ms", "ms"},
    {"engine.decode_ms", "ms"},
    {"engine.admit_ms", "ms"},
    {"engine.layer_self_ms", "ms"},
    {"attn.scores_ms", "ms"},
    {"attn.av_ms", "ms"},
    {"engine.allocs_per_token", "count"},
    {"engine.ttft_p50_ms", "ms"},
    {"engine.ttft_p90_ms", "ms"},
    {"engine.itl_p50_ms", "ms"},
    {"engine.itl_p99_ms", "ms"},
    {"kv.prefix_hit_ratio", "ratio"},
    {"kv.hit_tokens", "count"},
    {"kernels.matvec_gbps", "GB/s"},
    {"kernels.matmul_gflops", "GFLOP/s"},
    {"kernels.attn_scores_gbps", "GB/s"},
    {"kernels.attn_av_gbps", "GB/s"},
    {"obs.trace_overhead", "ratio"},
};

using Runner = Outcome (*)(const Options&);
const std::pair<const char*, Runner> kWorkloads[] = {
    {"sim-serve", perfbench::run_sim_serve},
    {"sim-cluster-chat", perfbench::run_sim_cluster_chat},
    {"sim-sweep", perfbench::run_sim_sweep},
    {"engine-serve", perfbench::run_engine_serve},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n"
               "       perfbench --self-test\n"
               "workloads: sim-serve sim-cluster-chat sim-sweep engine-serve\n");
}

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      o->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o->trace = v == "1";
    } else {
      return false;
    }
  }
  return o->self_test || !o->workload.empty();
}

void print_result(const Options& opts, const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& m) {
    const auto it = out.values.find(m.name);
    const double v = it == out.values.end() ? 0.0 : it->second;
    json += first ? "" : ", ";
    first = false;
    json += '"';
    json += m.name;
    json += "\": {\"value\": ";
    json += perfbench::exact(v);
    json += ", \"unit\": \"";
    json += m.unit;
    json += "\"}";
  };
  if (opts.trace) {
    for (const auto& m : kPerLayer) emit(m);
  } else {
    for (const auto& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

Outcome run_one(const Options& opts, Runner fn) {
  Outcome out;
  try {
    out = fn(opts);
  } catch (const std::exception& e) {
    out.check(false, std::string("unexpected exception: ") + e.what());
  }
  out.values["peak_rss_mb"] = perfbench::peak_rss_mb();
  for (const auto& e : out.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("%s: attempted %lld, failed %lld, correct %s\n", opts.workload.c_str(),
              static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
              out.correct ? "yes" : "no");
  return out;
}

// Every workload at reduced size, untraced and traced, all checks on.
int self_test() {
  bool ok = true;
  for (const auto& [name, fn] : kWorkloads) {
    for (bool traced : {false, true}) {
      Options o;
      o.workload = name;
      o.seed = 7;
      o.seconds = 0;
      o.trace = traced;
      o.self_test = true;
      const Outcome out = run_one(o, fn);
      const bool pass = out.correct && out.attempted > 0;
      std::printf("self-test %s trace=%d: %s\n", name, traced ? 1 : 0,
                  pass ? "PASS" : "FAIL");
      ok = ok && pass;
    }
  }
  std::printf("self-test: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse(argc, argv, &opts)) {
    usage();
    return 2;
  }
  if (opts.self_test && opts.workload.empty()) return self_test();
  for (const auto& [name, fn] : kWorkloads) {
    if (opts.workload != name) continue;
    const Outcome out = run_one(opts, fn);
    print_result(opts, out);
    return 0;
  }
  std::fprintf(stderr, "unknown workload: %s\n", opts.workload.c_str());
  usage();
  return 2;
}
