// The three simulator workloads: sim-serve (one large single-replica
// replay), sim-cluster-chat (multi-turn chat + tenant mix on a 4-replica
// cluster with faults) and sim-sweep (the paper's point grid). Only host
// time is measured; simulated results feed the checks and the digest.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/suite.h"
#include "models/config.h"
#include "parallel/plan.h"
#include "sim/serving.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "sim/workloads.h"
#include "util/check.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace llmib;
namespace {

using sim::SimConfig;
using sim::TraceRequest;

// Set-ups take milliseconds here; 21 of them put the median well past the
// cold first calls.
constexpr int kSetupRepeats = 21;

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  return seed * 0x9e3779b97f4a7c15ull + k * 0xbf58476d1ce4e5b9ull + 1;
}

/// `llmib serve` defaults: LLaMA-3-8B on A100 with vLLM, concurrency 32,
/// the runner's automatic parallel plan.
SimConfig serve_config(const core::BenchmarkRunner& runner) {
  SimConfig cfg;
  cfg.max_concurrent = 32;
  if (const auto plan =
          runner.auto_plan(cfg.model, cfg.accelerator, cfg.framework, cfg.precision)) {
    cfg.plan = *plan;
  }
  return cfg;
}

/// Per-device weight bytes, computed from the model's parameter count.
double weight_bytes_per_device(const SimConfig& cfg) {
  const auto& model = models::ModelRegistry::builtin().get(cfg.model);
  return static_cast<double>(model.total_params()) * hw::bytes_per_element(cfg.precision) *
         parallel::weight_shard_fraction(cfg.plan);
}

/// Lower bound on one step that reads every weight once: per-device weight
/// bytes over the accelerator's datasheet bandwidth.
double weight_read_s(const SimConfig& cfg) {
  const auto& accel = hw::AcceleratorRegistry::builtin().get(cfg.accelerator);
  return weight_bytes_per_device(cfg) / (accel.hbm_bandwidth_gbs * 1e9);
}

std::int64_t trace_tokens(const std::vector<TraceRequest>& reqs) {
  std::int64_t n = 0;
  for (const auto& r : reqs) n += r.prompt_tokens + r.output_tokens;
  return n;
}

int setup_repeats(const Options& opts) { return opts.self_test ? 1 : kSetupRepeats; }

/// Public decode_step/prefill_step on a fixed (batch, ctx) grid: mean host
/// microseconds per call.
void price_probes(const SimConfig& base, const Options& opts, Outcome& out) {
  const sim::InferenceSimulator sim;
  const int reps = opts.self_test ? 3 : 300;
  double sink = 0.0;
  std::int64_t calls = 0;
  auto t0 = Clock::now();
  for (std::int64_t batch : {1, 8, 32, 64}) {
    for (double ctx : {128.0, 512.0, 2048.0}) {
      sim::StepBreakdown s;
      for (int i = 0; i < reps; ++i, ++calls) {
        s = sim.decode_step(base, batch, ctx);
        sink += s.total_s;
      }
      std::printf("probe price.decode batch=%lld ctx=%.0f sim_step_s=%s compute_s=%s "
                  "memory_s=%s\n",
                  static_cast<long long>(batch), ctx, exact(s.total_s).c_str(),
                  exact(s.compute_s).c_str(), exact(s.memory_s).c_str());
    }
  }
  out.values["sim.price_decode_us"] = seconds_since(t0) * 1e6 / static_cast<double>(calls);
  calls = 0;
  t0 = Clock::now();
  for (std::int64_t batch : {1, 4, 8}) {
    for (std::int64_t len : {128, 512, 2048}) {
      sim::StepBreakdown s;
      for (int i = 0; i < reps; ++i, ++calls) {
        s = sim.prefill_step(base, batch, len);
        sink += s.total_s;
      }
      std::printf("probe price.prefill batch=%lld len=%lld sim_step_s=%s compute_s=%s "
                  "memory_s=%s\n",
                  static_cast<long long>(batch), static_cast<long long>(len),
                  exact(s.total_s).c_str(), exact(s.compute_s).c_str(),
                  exact(s.memory_s).c_str());
    }
  }
  out.values["sim.price_prefill_us"] = seconds_since(t0) * 1e6 / static_cast<double>(calls);
  out.check(sink > 0, "pricing probes returned zero cost");
}

std::string snapshot_csv(const sim::ServingMetrics& m) { return m.to_snapshot().to_csv(); }

// ---------------------------------------------------------------- sim-serve

struct ServeInputs {
  SimConfig cfg;
  std::vector<TraceRequest> reqs;
};

ServeInputs make_serve_inputs(const Options& opts) {
  const core::BenchmarkRunner runner;
  ServeInputs in;
  in.cfg = serve_config(runner);
  sim::ServingWorkload wl;  // prompt 64-512, output 32-256 (llmib serve defaults)
  wl.arrival_rate_rps = 2.0;
  wl.num_requests = opts.self_test ? 2000 : 100000;
  wl.seed = mix(opts.seed, 1);
  in.reqs = sim::RequestTrace::from_workload(wl).requests();
  return in;
}

struct ServeRun {
  sim::ServingSimulator::Result res;
  double wall_s = 0.0;
  std::uint64_t allocs = 0;
};

ServeRun replay_single(const SimConfig& cfg, const std::vector<TraceRequest>& reqs) {
  ServeRun run;
  const auto a0 = allocations();
  const auto t0 = Clock::now();
  const sim::InferenceSimulator sim;
  const sim::ServingSimulator serving(sim);
  run.res = serving.run_trace(cfg, reqs, sim::TraceOptions{});
  run.wall_s = seconds_since(t0);
  run.allocs = allocations() - a0;
  return run;
}

void check_serve(const ServeInputs& in, const sim::ServingSimulator::Result& r,
                 Outcome& out) {
  const auto& m = r.metrics;
  const auto n = static_cast<double>(in.reqs.size());
  out.check(r.ok(), "sim-serve replay not ok: " + r.status_detail);
  out.check(std::llround(m.availability * n) == static_cast<long long>(in.reqs.size()),
            "sim-serve: not every request completed");
  out.check(m.shed_requests + m.timed_out_requests + m.failed_requests == 0,
            "sim-serve: requests shed/timed out/failed with faults off");
  const double tokens = m.throughput_tps * m.makespan_s;
  const auto expect = static_cast<double>(trace_tokens(in.reqs));
  out.check(std::fabs(tokens - expect) <= 1e-6 * expect,
            "sim-serve: completed tokens " + exact(tokens) + " != trace total " +
                exact(expect));
  out.check(m.ttft_p50_s <= m.e2e_p50_s && m.ttft_p95_s <= m.e2e_p95_s &&
                m.ttft_p99_s <= m.e2e_p99_s,
            "sim-serve: TTFT exceeds e2e at some percentile");
  // Each output token needs at least one step that reads every weight.
  const double t_w = weight_read_s(in.cfg);
  double bound = 0.0;
  for (const auto& q : in.reqs) {
    bound = std::max(bound, q.arrival_s - in.reqs.front().arrival_s +
                                static_cast<double>(q.output_tokens) * t_w);
  }
  out.check(m.makespan_s >= bound, "sim-serve: makespan " + exact(m.makespan_s) +
                                       " below weight-streaming bound " + exact(bound));
}

void print_serve_digest(const char* tag, const sim::ServingMetrics& m) {
  std::printf("digest %s: makespan_s=%s ttft_p50_s=%s ttft_p99_s=%s e2e_p99_s=%s "
              "itl_p50_s=%s iterations=%lld snapshot_fnv=%016llx\n",
              tag, exact(m.makespan_s).c_str(), exact(m.ttft_p50_s).c_str(),
              exact(m.ttft_p99_s).c_str(), exact(m.e2e_p99_s).c_str(),
              exact(m.itl_p50_s).c_str(), static_cast<long long>(m.phases.iterations),
              static_cast<unsigned long long>(fnv1a(snapshot_csv(m))));
}

}  // namespace

Outcome run_sim_serve(const Options& opts) {
  Outcome out;
  ServeInputs in;
  out.values["setup_s"] =
      time_setup(setup_repeats(opts), [&] { in = make_serve_inputs(opts); });
  const auto n = static_cast<std::int64_t>(in.reqs.size());

  std::vector<ServeRun> runs;
  std::string first_csv;
  obs::Snapshot first_snap;
  const auto round = [&](int) {
    ServeRun run = replay_single(in.cfg, in.reqs);
    out.attempted += n;
    if (!run.res.ok()) out.failed += n;
    runs.push_back(std::move(run));
  };
  run_rounds(opts.self_test ? 0 : opts.seconds, round);
  if (runs.size() < 2) round(0);  // the determinism check needs two replays

  std::vector<double> req_rate, step_rate, wall;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& m = runs[i].res.metrics;
    if (i == 0) {
      check_serve(in, runs[0].res, out);
      first_csv = snapshot_csv(m);
      first_snap = m.to_snapshot();
      print_serve_digest("sim-serve", m);
    } else {
      out.check(m.to_snapshot().deterministic_equal(first_snap) &&
                    snapshot_csv(m) == first_csv,
                "sim-serve: replay " + std::to_string(i) + " differs from the first");
    }
    const auto iters = static_cast<double>(m.phases.iterations);
    req_rate.push_back(static_cast<double>(n) / runs[i].wall_s);
    step_rate.push_back(iters / runs[i].wall_s);
    wall.push_back(runs[i].wall_s);
  }
  const auto iters0 = static_cast<double>(runs[0].res.metrics.phases.iterations);
  print_rounds("sim-serve req/s", req_rate);
  if (!opts.trace) {
    out.values["ops_per_s"] = median(req_rate);
    out.values["steps_per_s"] = median(step_rate);
    return out;
  }
  out.values["sim.loop_s"] = median(wall);
  out.values["sim.host_us_per_iter"] = median(wall) * 1e6 / iters0;
  out.values["sim.allocs_per_iter"] = static_cast<double>(runs[0].allocs) / iters0;

  // Traced round on the first 5000 requests (the full trace would not fit
  // the ring), timed untraced first for the overhead.
  const std::vector<TraceRequest> head(
      in.reqs.begin(), in.reqs.begin() + std::min<std::int64_t>(n, 5000));
  const double untraced = replay_single(in.cfg, head).wall_s;
  start_trace();
  const ServeRun traced = replay_single(in.cfg, head);
  const TraceSummary ts = stop_trace();
  check_trace(ts, out);
  out.check(traced.res.ok(), "sim-serve traced replay failed");
  out.values["obs.trace_overhead"] = traced.wall_s / untraced;
  out.values["sched.plan_us"] = ts.self_us_per_call("sched.plan");
  price_probes(in.cfg, opts, out);
  return out;
}

// --------------------------------------------------------- sim-cluster-chat

namespace {

constexpr int kRetries = 3;

struct ClusterScenario {
  std::string name;
  std::vector<TraceRequest> reqs;
  sim::TraceOptions topts;
  std::int64_t claimed_shared = 0;  ///< sum of per-request prefix claims
  bool chat = false;
  bool known_stall = false;  ///< the long-session replay (see README)
};

struct ClusterInputs {
  SimConfig cfg;
  cluster::ClusterOptions copts;
  std::vector<ClusterScenario> scenarios;
};

sim::TraceOptions faulty_options(std::uint64_t fault_seed) {
  sim::TraceOptions t;
  t.faults.seed = fault_seed;
  t.faults.device_mtbf_s = 60.0;
  t.faults.device_restart_s = 2.0;
  t.resilience.retry.max_retries = kRetries;
  return t;
}

ClusterScenario chat_scenario(const std::string& name, std::int64_t conversations,
                              std::uint64_t trace_seed, std::uint64_t fault_seed) {
  sim::ChatScenario sc;
  sc.conversations = conversations;
  sc.start_rate_rps = 5.0;
  sc.seed = trace_seed;
  ClusterScenario s;
  s.name = name;
  s.reqs = sim::chat_trace(sc).requests();
  s.topts = faulty_options(fault_seed);
  s.chat = true;
  for (const auto& r : s.reqs) s.claimed_shared += r.shared_prefix_tokens;
  return s;
}

ClusterInputs make_cluster_inputs(const Options& opts) {
  const core::BenchmarkRunner runner;
  ClusterInputs in;
  in.cfg = serve_config(runner);
  in.cfg.prefix_caching = true;
  in.copts.replicas = 4;
  in.copts.router = cluster::RouterPolicy::kAffinity;

  const std::int64_t convs = opts.self_test ? 32 : 256;
  for (std::uint64_t k = 0; k < 4; ++k) {
    in.scenarios.push_back(chat_scenario("chat" + std::to_string(k), convs,
                                         mix(opts.seed, 10 + k), mix(opts.seed, 20 + k)));
  }

  // Two tenants under the fair-credit arbiter: a latency-bound chat tenant
  // and a throughput-bound batch tenant with long outputs.
  const std::int64_t per_tenant = opts.self_test ? 200 : 3000;
  std::vector<sim::TenantStream> streams(2);
  streams[0] = {0, 3.0, per_tenant, 64, 256, 32, 128, 0.0};
  streams[1] = {1, 3.0, per_tenant, 256, 1024, 128, 512, 0.0};
  ClusterScenario t;
  t.name = "tenants";
  t.reqs = sim::multi_tenant_trace(streams, mix(opts.seed, 30));
  t.topts = faulty_options(mix(opts.seed, 31));
  t.topts.tenancy.policy = sched::FairPolicy::kFairCredit;
  sched::TenantSpec chat_t, batch_t;
  chat_t.id = 0;
  chat_t.name = "chat";
  chat_t.slo = sched::SloClass::kLatencyBound;
  chat_t.slo_ttft_s = 1.0;
  batch_t.id = 1;
  batch_t.name = "batch";
  batch_t.slo = sched::SloClass::kThroughputBound;
  t.topts.tenancy.tenants = {chat_t, batch_t};
  in.scenarios.push_back(std::move(t));

  // The long-session replay: fixed inputs, independent of --seed. Finished
  // conversations' cached context is never evicted from the analytic prefix
  // cache, so the loop stalls once it reserves the whole KV pool.
  // Fault injection is off here: a failure would flush a replica's cache.
  ClusterScenario longs = chat_scenario("long-session", 1000, 1234, 42);
  longs.topts = sim::TraceOptions{};
  longs.known_stall = true;
  in.scenarios.push_back(std::move(longs));
  return in;
}

struct ClusterRun {
  cluster::ClusterSimulator::Result res;
  bool threw = false;
  std::string error;
  double wall_s = 0.0;
  std::uint64_t allocs = 0;
  std::int64_t iterations = 0;
};

ClusterRun replay_cluster(const ClusterInputs& in, const ClusterScenario& s) {
  ClusterRun run;
  const auto a0 = allocations();
  const auto t0 = Clock::now();
  try {
    const sim::InferenceSimulator sim;
    const cluster::ClusterSimulator cs(sim);
    run.res = cs.run_trace(in.cfg, s.reqs, s.topts, in.copts);
  } catch (const util::ContractViolation& e) {
    run.threw = true;
    run.error = e.what();
  }
  run.wall_s = seconds_since(t0);
  run.allocs = allocations() - a0;
  for (const auto& r : run.res.cluster.replicas) run.iterations += r.iterations;
  return run;
}

void check_cluster(const ClusterScenario& s, const ClusterRun& run, Outcome& out) {
  const auto& m = run.res.metrics;
  const auto& c = run.res.cluster;
  const auto n = static_cast<std::int64_t>(s.reqs.size());
  const std::string tag = "sim-cluster-chat/" + s.name + ": ";
  out.check(run.res.ok(), tag + "not ok: " + run.res.status_detail);
  const auto completed = static_cast<std::int64_t>(
      std::llround(m.availability * static_cast<double>(n)));
  out.check(completed + m.shed_requests + m.timed_out_requests + m.failed_requests == n,
            tag + "completed + shed + timed out + failed != N");
  std::int64_t per_replica = 0;
  for (const auto& r : c.replicas) per_replica += r.completed;
  out.check(per_replica == completed, tag + "per-replica completions do not sum to total");
  if (s.chat) {
    out.check(m.prefix_hit_tokens > 0, tag + "no prefix-hit tokens");
    out.check(m.prefix_hit_tokens <= s.claimed_shared,
              tag + "prefix-hit tokens " + std::to_string(m.prefix_hit_tokens) +
                  " exceed the trace's claims " + std::to_string(s.claimed_shared));
  }
  // Each request is evicted at most once per attempt, so the distinct
  // evicted requests lie in [evictions / attempts, evictions]; every one of
  // them must end recovered or lost.
  const std::int64_t resolved = c.recovered_requests + c.lost_requests;
  const std::int64_t min_distinct = (m.fault_evictions + kRetries) / (kRetries + 1);
  out.check(resolved >= min_distinct && resolved <= m.fault_evictions,
            tag + "fault-evicted requests not all recovered or lost (evictions " +
                std::to_string(m.fault_evictions) + ", recovered+lost " +
                std::to_string(resolved) + ")");
  if (!s.topts.tenancy.tenants.empty()) {
    std::int64_t submitted = 0;
    for (const auto& t : m.tenants) {
      submitted += t.submitted;
      out.check(t.completed + t.shed + t.timed_out + t.failed == t.submitted,
                tag + "tenant " + t.name + " outcomes do not sum to its submissions");
    }
    out.check(submitted == n, tag + "tenant submissions do not sum to N");
  }
}

std::string cluster_csv(const ClusterRun& run) {
  return run.res.metrics.to_snapshot().to_csv() + run.res.cluster.to_snapshot().to_csv();
}

}  // namespace

Outcome run_sim_cluster_chat(const Options& opts) {
  Outcome out;
  ClusterInputs in;
  out.values["setup_s"] =
      time_setup(setup_repeats(opts), [&] { in = make_cluster_inputs(opts); });

  std::vector<std::string> first_csv(in.scenarios.size());
  std::vector<double> req_rate, step_rate, wall;
  std::uint64_t allocs0 = 0;
  std::int64_t iters0 = 0;
  const auto round = [&](int r) {
    double ok_wall = 0.0;
    std::int64_t ok_reqs = 0, ok_iters = 0;
    for (std::size_t i = 0; i < in.scenarios.size(); ++i) {
      const ClusterScenario& s = in.scenarios[i];
      const ClusterRun run = replay_cluster(in, s);
      const auto n = static_cast<std::int64_t>(s.reqs.size());
      // One operation per replay: request counts vary with the seed, the
      // number of replays per round does not.
      ++out.attempted;
      if (run.threw) {
        ++out.failed;
        if (r == 0) {
          std::printf("FAILED %s (%lld requests): %s\n", s.name.c_str(),
                      static_cast<long long>(n), run.error.c_str());
        }
        out.check(s.known_stall, "sim-cluster-chat/" + s.name + " threw: " + run.error);
        if (s.known_stall) {
          out.check(run.error.find("stalled with no work") != std::string::npos,
                    "long-session replay failed with an unexpected message: " + run.error);
        }
        continue;
      }
      if (s.known_stall && r == 0) {
        std::printf("NOTE long-session replay completed: the prefix-cache stall is gone\n");
      }
      ok_wall += run.wall_s;
      ok_reqs += n;
      ok_iters += run.iterations;
      if (r == 0) {
        check_cluster(s, run, out);
        first_csv[i] = cluster_csv(run);
        allocs0 += run.allocs;
        iters0 += run.iterations;
        std::printf("digest sim-cluster-chat/%s: makespan_s=%s completed=%s "
                    "prefix_hit_tokens=%lld "
                    "failovers=%lld iterations=%lld snapshot_fnv=%016llx\n",
                    s.name.c_str(), exact(run.res.metrics.makespan_s).c_str(),
                    exact(run.res.metrics.availability * static_cast<double>(n)).c_str(),
                    static_cast<long long>(run.res.metrics.prefix_hit_tokens),
                    static_cast<long long>(run.res.cluster.failovers),
                    static_cast<long long>(run.iterations),
                    static_cast<unsigned long long>(fnv1a(first_csv[i])));
      } else {
        out.check(cluster_csv(run) == first_csv[i],
                  "sim-cluster-chat/" + s.name + ": replay differs from the first round");
      }
    }
    if (ok_wall > 0) {
      req_rate.push_back(static_cast<double>(ok_reqs) / ok_wall);
      step_rate.push_back(static_cast<double>(ok_iters) / ok_wall);
      wall.push_back(ok_wall);
    }
  };
  run_rounds(opts.self_test ? 0 : opts.seconds, round);
  print_rounds("sim-cluster-chat req/s", req_rate);

  if (!opts.trace) {
    out.values["ops_per_s"] = median(req_rate);
    out.values["steps_per_s"] = median(step_rate);
    return out;
  }
  out.values["cluster.loop_s"] = median(wall);
  out.values["cluster.host_us_per_iter"] =
      median(wall) * 1e6 / static_cast<double>(std::max<std::int64_t>(1, iters0));
  out.values["cluster.allocs_per_iter"] =
      static_cast<double>(allocs0) / static_cast<double>(std::max<std::int64_t>(1, iters0));

  const ClusterScenario& s = in.scenarios.front();
  const double untraced = replay_cluster(in, s).wall_s;
  start_trace();
  const ClusterRun traced = replay_cluster(in, s);
  const TraceSummary ts = stop_trace();
  check_trace(ts, out);
  out.check(!traced.threw && traced.res.ok(), "sim-cluster-chat traced replay failed");
  out.values["obs.trace_overhead"] = traced.wall_s / untraced;
  out.values["sched.plan_us"] = ts.self_us_per_call("sched.plan");
  price_probes(in.cfg, opts, out);
  return out;
}

// ---------------------------------------------------------------- sim-sweep

namespace {

enum class PointKind { kGrid, kLargeBatch, kStepped, kSingleDevice };

struct SweepPoint {
  SimConfig cfg;
  PointKind kind = PointKind::kGrid;
};

struct SweepInputs {
  std::vector<SweepPoint> points;  ///< canonical order
  std::vector<std::size_t> order;  ///< seeded execution order
};

SweepInputs make_sweep_inputs(const Options& opts) {
  const core::BenchmarkRunner runner;
  const auto& fws = frameworks::FrameworkRegistry::builtin();
  const std::vector<std::string> models =
      opts.self_test ? std::vector<std::string>{"LLaMA-2-7B", "LLaMA-3-70B"}
                     : std::vector<std::string>{"LLaMA-2-7B", "LLaMA-3-8B", "Mistral-7B",
                                                "Qwen2-7B", "LLaMA-2-70B", "LLaMA-3-70B",
                                                "Qwen2-72B"};
  const std::vector<std::string> accels = {"A100", "H100", "GH200", "MI250",
                                           "MI300X", "Gaudi2", "SN40L"};
  const std::vector<std::string> frameworks = {"TensorRT-LLM", "vLLM", "DeepSpeed-MII",
                                               "llama.cpp", "SambaFlow"};
  const std::vector<std::int64_t> batches =
      opts.self_test ? std::vector<std::int64_t>{1, 64}
                     : std::vector<std::int64_t>{1, 16, 32, 64};
  const std::vector<std::int64_t> lengths =
      opts.self_test ? std::vector<std::int64_t>{128, 2048}
                     : std::vector<std::int64_t>{128, 256, 512, 1024, 2048};
  SweepInputs in;
  // The paper's grid on automatically planned devices, plus the same
  // (model, hw, fw) on one device, where the 70B models cannot fit.
  for (const auto& model : models) {
    for (const auto& accel : accels) {
      for (const auto& fw : frameworks) {
        if (!fws.get(fw).supports_hw(accel)) continue;
        const auto plan = runner.auto_plan(model, accel, fw, hw::Precision::kFP16);
        for (std::int64_t batch : batches) {
          for (std::int64_t len : lengths) {
            SweepPoint p;
            p.cfg.model = model;
            p.cfg.accelerator = accel;
            p.cfg.framework = fw;
            p.cfg.batch_size = batch;
            p.cfg.input_tokens = p.cfg.output_tokens = len;
            if (plan) {
              p.cfg.plan = *plan;
              in.points.push_back(p);
            }
          }
        }
        SweepPoint one;
        one.cfg.model = model;
        one.cfg.accelerator = accel;
        one.cfg.framework = fw;
        one.kind = PointKind::kSingleDevice;
        in.points.push_back(one);
      }
    }
  }
  // A few large-batch points: the wave loop at batch >= 1024.
  for (const auto& [accel, batch] :
       std::vector<std::pair<std::string, std::int64_t>>{{"A100", 1024}, {"H100", 1024},
                                                         {"H100", 4096}}) {
    SweepPoint p;
    p.cfg.model = "LLaMA-3-8B";
    p.cfg.accelerator = accel;
    p.cfg.framework = "vLLM";
    p.cfg.batch_size = opts.self_test ? batch / 8 : batch;
    p.cfg.input_tokens = p.cfg.output_tokens = 128;
    p.kind = PointKind::kLargeBatch;
    in.points.push_back(p);
  }
  // TP >= 2 priced through the stepped collective schedules.
  for (const auto& accel : {"A100", "H100", "MI250", "Gaudi2"}) {
    for (int tp : {2, 4, 8}) {
      for (std::int64_t batch : {16, 64}) {
        SweepPoint p;
        p.cfg.model = "LLaMA-3-70B";
        p.cfg.accelerator = accel;
        p.cfg.framework = "vLLM";
        p.cfg.plan.tp = tp;
        p.cfg.comm_backend = parallel::CommBackend::kStepped;
        p.cfg.batch_size = batch;
        p.cfg.input_tokens = p.cfg.output_tokens = 512;
        p.kind = PointKind::kStepped;
        if (fws.get(p.cfg.framework).supports_hw(accel)) in.points.push_back(p);
      }
    }
  }
  util::Rng rng(mix(opts.seed, 40));
  in.order = rng.permutation(in.points.size());
  return in;
}

std::string point_digest(const sim::SimResult& r) {
  return sim::run_status_name(r.status) + "," + exact(r.ttft_s) + "," +
         exact(r.e2e_latency_s) + "," + exact(r.throughput_tps) + "," +
         std::to_string(r.waves) + "," + std::to_string(r.phases.iterations) + ";";
}

void check_point(const SweepPoint& p, const sim::SimResult& r, Outcome& out) {
  const auto& c = p.cfg;
  const std::string tag = "sim-sweep " + c.model + "/" + c.accelerator + "/" + c.framework +
                          " tp" + std::to_string(c.plan.tp) + " pp" +
                          std::to_string(c.plan.pp) + " b" + std::to_string(c.batch_size) +
                          " len" + std::to_string(c.input_tokens) + ": ";
  const auto& accel = hw::AcceleratorRegistry::builtin().get(c.accelerator);
  const double capacity = (accel.memory_gb + accel.tier3_memory_gb) * double(1ull << 30);
  if (weight_bytes_per_device(c) > capacity) {
    out.check(r.status == sim::RunStatus::kOom, tag + "weights exceed device memory but " +
                                                    sim::run_status_name(r.status));
  }
  if (!r.ok()) return;
  const double tokens = static_cast<double>(c.batch_size * (c.input_tokens + c.output_tokens));
  out.check(std::fabs(r.throughput_tps - tokens / r.e2e_latency_s) <= 1e-9 * r.throughput_tps,
            tag + "throughput breaks eq. (2)");
  out.check(r.ttft_s <= r.e2e_latency_s, tag + "TTFT exceeds e2e");
  const double bound = static_cast<double>(c.output_tokens) * weight_read_s(c);
  out.check(r.e2e_latency_s >= bound, tag + "e2e " + exact(r.e2e_latency_s) +
                                          " below weight-streaming bound " + exact(bound));
}

}  // namespace

Outcome run_sim_sweep(const Options& opts) {
  Outcome out;
  SweepInputs in;
  out.values["setup_s"] =
      time_setup(setup_repeats(opts), [&] { in = make_sweep_inputs(opts); });
  const auto n = static_cast<std::int64_t>(in.points.size());

  std::vector<double> point_rate, step_rate;
  std::vector<double> grid_ms, large_ms, stepped_ms;
  std::string first_digest;
  std::vector<sim::SimResult> results(in.points.size());
  std::vector<double> point_ms(in.points.size());
  const auto round = [&](int r) {
    const auto t0 = Clock::now();
    const core::BenchmarkRunner runner;
    std::int64_t iters = 0;
    for (std::size_t idx : in.order) {
      const auto p0 = Clock::now();
      results[idx] = runner.run_point(in.points[idx].cfg).result;
      point_ms[idx] = seconds_since(p0) * 1e3;
      iters += results[idx].phases.iterations;
    }
    const double wall = seconds_since(t0);
    out.attempted += n;
    point_rate.push_back(static_cast<double>(n) / wall);
    step_rate.push_back(static_cast<double>(iters) / wall);

    std::string digest;
    for (std::size_t i = 0; i < in.points.size(); ++i) {
      digest += point_digest(results[i]);
      const PointKind k = in.points[i].kind;
      (k == PointKind::kLargeBatch ? large_ms
       : k == PointKind::kStepped  ? stepped_ms
                                   : grid_ms)
          .push_back(point_ms[i]);
      if (r == 0) check_point(in.points[i], results[i], out);
    }
    if (r == 0) {
      first_digest = digest;
      std::int64_t ok = 0, oom = 0;
      for (const auto& res : results) {
        ok += res.ok();
        oom += res.status == sim::RunStatus::kOom;
      }
      std::printf("digest sim-sweep: points=%lld ok=%lld oom=%lld iterations=%lld "
                  "results_fnv=%016llx\n",
                  static_cast<long long>(n), static_cast<long long>(ok),
                  static_cast<long long>(oom), static_cast<long long>(iters),
                  static_cast<unsigned long long>(fnv1a(digest)));
    } else {
      out.check(digest == first_digest, "sim-sweep: round results differ from the first");
    }
  };
  run_rounds(opts.self_test ? 0 : opts.seconds, round);
  print_rounds("sim-sweep points/s", point_rate);

  if (!opts.trace) {
    out.values["ops_per_s"] = median(point_rate);
    out.values["steps_per_s"] = median(step_rate);
    return out;
  }
  out.values["sim.point_ms"] = median(grid_ms);
  out.values["sim.large_batch_point_ms"] = median(large_ms);
  out.values["parallel.stepped_point_ms"] = median(stepped_ms);

  // Traced round: every stepped point and every fourth other point except
  // the large batches (all of them would overflow the ring with simulated
  // spans), untraced first for the overhead.
  std::vector<SimConfig> subset;
  for (std::size_t i = 0; i < in.points.size(); ++i) {
    const PointKind k = in.points[i].kind;
    if (k == PointKind::kStepped || (k != PointKind::kLargeBatch && i % 4 == 0)) {
      subset.push_back(in.points[i].cfg);
    }
  }
  const auto run_subset = [&] {
    const auto t0 = Clock::now();
    const core::BenchmarkRunner runner;
    for (const auto& cfg : subset) runner.run_point(cfg);
    return seconds_since(t0);
  };
  const double untraced = run_subset();
  start_trace();
  const double traced = run_subset();
  const TraceSummary ts = stop_trace();
  check_trace(ts, out);
  out.values["obs.trace_overhead"] = traced / untraced;
  out.values["sched.plan_us"] = ts.self_us_per_call("sched.plan");
  return out;
}

}  // namespace perfbench
