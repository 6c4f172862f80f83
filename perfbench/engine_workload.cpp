// engine-serve: the real ServingEngine (batched decode, radix prefix cache,
// paged fp32 KV, no preemption) over chat-like prompts that share a system
// prompt and a handful of topic preambles. Arrivals are keyed to engine
// steps, so every round does identical work whatever the host speed.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/generator.h"
#include "engine/kernels/kernels.h"
#include "engine/model.h"
#include "engine/weights.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace llmib;
namespace {

using engine::TokenId;

constexpr int kSetupRepeats = 7;

models::ModelConfig engine_model() {
  models::ModelConfig cfg;
  cfg.name = "perfbench-engine";
  cfg.n_layers = 2;
  cfg.hidden_size = 128;
  cfg.attention = models::AttentionKind::kGQA;
  cfg.n_heads = 4;
  cfg.n_kv_heads = 2;
  cfg.ffn_intermediate = 256;
  cfg.max_seq_len = 512;
  cfg.vocab_size = 512;
  return cfg;
}

engine::ServingEngine::Config engine_config() {
  engine::ServingEngine::Config c;
  c.pool_blocks = 1024;
  c.block_size = 16;
  c.max_batch = 8;
  c.batched_decode = true;
  c.prefix_caching = true;
  return c;
}

struct EngineRequest {
  std::vector<TokenId> prompt;
  std::int64_t max_new_tokens = 0;
  std::int64_t arrival_step = 0;
};

/// System prompt (64 tokens) + one of 12 topic preambles (32 tokens) + a
/// fresh user turn (4-36 tokens); 8-40 new tokens; arrivals 2-6 engine steps
/// apart, about three quarters of what batch 8 serves. The shapes (lengths,
/// topic choice, arrival steps) come from a fixed schedule so every seed
/// costs the same; the seed draws the token ids (and, in the caller, the
/// weights).
std::vector<EngineRequest> make_requests(std::uint64_t seed, std::size_t n,
                                         std::int64_t vocab) {
  util::Rng shape(0x5eed), ids(seed);
  const auto tokens = [&](std::size_t len) {
    std::vector<TokenId> t(len);
    for (auto& x : t) x = static_cast<TokenId>(ids.uniform_int(0, vocab - 1));
    return t;
  };
  const std::vector<TokenId> system = tokens(64);
  std::vector<std::vector<TokenId>> topics;
  for (int i = 0; i < 12; ++i) topics.push_back(tokens(32));
  std::vector<EngineRequest> reqs(n);
  std::int64_t step = 0;
  for (auto& r : reqs) {
    step += shape.uniform_int(2, 6);
    r.arrival_step = step;
    r.prompt = system;
    const auto& topic = topics[static_cast<std::size_t>(shape.uniform_int(0, 11))];
    r.prompt.insert(r.prompt.end(), topic.begin(), topic.end());
    const auto user = tokens(static_cast<std::size_t>(shape.uniform_int(4, 36)));
    r.prompt.insert(r.prompt.end(), user.begin(), user.end());
    r.max_new_tokens = shape.uniform_int(8, 40);
  }
  return reqs;
}

struct EngineRound {
  std::vector<std::vector<TokenId>> outputs;
  std::vector<double> ttft_ms, itl_ms;
  std::int64_t tokens = 0;
  std::int64_t steps = 0;
  engine::ServingEngine::PrefixStats prefix;
  double wall_s = 0.0;
  std::uint64_t allocs = 0;
};

EngineRound serve_round(const engine::MiniTransformer& model,
                        const std::vector<EngineRequest>& reqs) {
  EngineRound r;
  const auto a0 = allocations();
  const auto t0 = Clock::now();
  engine::ServingEngine eng(model, engine_config());
  const std::size_t n = reqs.size();
  std::vector<sched::RequestId> ids(n);
  std::vector<Clock::time_point> submitted(n), last_emit(n);
  std::vector<std::int64_t> emitted(n, 0);
  std::vector<std::size_t> outstanding;
  std::size_t next = 0;
  std::int64_t step = 0;
  while (true) {
    while (next < n && reqs[next].arrival_step <= step) {
      ids[next] = eng.submit(reqs[next].prompt, reqs[next].max_new_tokens);
      submitted[next] = Clock::now();
      outstanding.push_back(next);
      ++next;
    }
    if (!eng.step()) {
      if (next >= n) break;
      step = reqs[next].arrival_step;  // idle: jump to the next arrival
      continue;
    }
    ++step;
    const auto now = Clock::now();
    std::size_t keep = 0;
    for (std::size_t i : outstanding) {
      const bool done = eng.finished(ids[i]);
      const std::int64_t gen =
          done ? static_cast<std::int64_t>(eng.output(ids[i]).size())
          : eng.scheduler().is_live(ids[i]) ? eng.scheduler().generated_tokens(ids[i])
                                            : 0;
      if (gen > emitted[i]) {
        const auto since = emitted[i] == 0 ? submitted[i] : last_emit[i];
        (emitted[i] == 0 ? r.ttft_ms : r.itl_ms)
            .push_back(std::chrono::duration<double, std::milli>(now - since).count());
        emitted[i] = gen;
        last_emit[i] = now;
      }
      if (!done) outstanding[keep++] = i;
    }
    outstanding.resize(keep);
  }
  r.wall_s = seconds_since(t0);
  r.allocs = allocations() - a0;
  r.steps = eng.iterations();
  r.prefix = eng.prefix_stats();
  for (std::size_t i = 0; i < n; ++i) {
    r.outputs.push_back(eng.finished(ids[i]) ? eng.output(ids[i]) : std::vector<TokenId>{});
    r.tokens += static_cast<std::int64_t>(r.outputs.back().size());
  }
  return r;
}

void check_first_round(const engine::MiniTransformer& model,
                       const std::vector<EngineRequest>& reqs, const EngineRound& r,
                       Outcome& out) {
  std::size_t mismatched = 0, short_len = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto& got = r.outputs[i];
    short_len += static_cast<std::int64_t>(got.size()) != reqs[i].max_new_tokens;
    engine::GenerateOptions g;
    g.max_new_tokens = reqs[i].max_new_tokens;
    mismatched += engine::generate(model, reqs[i].prompt, g).tokens != got;
  }
  out.check(short_len == 0, "engine-serve: " + std::to_string(short_len) +
                                " requests did not return max_new_tokens");
  out.check(mismatched == 0, "engine-serve: " + std::to_string(mismatched) +
                                 " requests differ from engine::generate");
  out.check(r.prefix.hits > 0, "engine-serve: no prefix-cache hits");
}

std::uint64_t outputs_digest(const EngineRound& r) {
  std::string s;
  for (const auto& o : r.outputs) {
    for (TokenId t : o) s += std::to_string(t) + ",";
    s += ";";
  }
  return fnv1a(s);
}

/// Repeats `fn` `reps` times; nanoseconds per call.
template <class F>
double ns_per_call(int reps, F&& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return seconds_since(t0) * 1e9 / reps;
}

/// Public kernel calls at the engine model's shapes. Bytes and FLOPs are
/// computed from the tensor sizes, not measured.
void kernel_probes(const models::ModelConfig& m, const Options& opts, Outcome& out) {
  const auto& ks = engine::kernels::active();
  const std::size_t hidden = static_cast<std::size_t>(m.hidden_size);
  const auto ffn = static_cast<std::size_t>(m.ffn_intermediate);
  const auto head_dim = static_cast<std::size_t>(m.head_dim());
  const std::size_t kv_dim = head_dim * static_cast<std::size_t>(m.n_kv_heads);
  const std::size_t batch = 8, ctx = 128;
  util::Rng rng(opts.seed);
  const auto randv = [&](std::size_t n) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
  };
  const auto w = randv(ffn * hidden), x = randv(batch * hidden), k = randv(ctx * kv_dim),
             q = randv(head_dim), sc = randv(ctx);
  std::vector<float> y(batch * ffn), scores(ctx), o(head_dim);
  const int reps = opts.self_test ? 20 : 4000;
  float sink = 0.0f;
  const auto report = [&](const char* name, const char* shape, double bytes, double flops,
                          double ns) {
    std::printf("probe kernels.%s backend=%s shape=%s bytes=%.0f flops=%.0f ns_per_call=%.1f "
                "gbps=%.3f gflops=%.3f\n",
                name, ks.name, shape, bytes, flops, ns, bytes / ns, flops / ns);
  };
  double ns = ns_per_call(reps, [&] { sink += ks.dot(w.data(), x.data(), hidden); });
  report("dot", "n=hidden", 8.0 * hidden, 2.0 * hidden, ns);

  ns = ns_per_call(reps, [&] {
    ks.matvec(w.data(), x.data(), y.data(), ffn, hidden);
    sink += y[0];
  });
  double bytes = 4.0 * (ffn * hidden + hidden + ffn);
  report("matvec", "ffn x hidden", bytes, 2.0 * ffn * hidden, ns);
  out.values["kernels.matvec_gbps"] = bytes / ns;

  ns = ns_per_call(reps / 4 + 1, [&] {
    ks.matmul_nt(w.data(), x.data(), y.data(), ffn, hidden, batch);
    sink += y[0];
  });
  const double flops = 2.0 * ffn * hidden * batch;
  report("matmul_nt", "ffn x hidden, batch 8", 4.0 * (ffn * hidden + batch * (hidden + ffn)),
         flops, ns);
  out.values["kernels.matmul_gflops"] = flops / ns;

  const float scale = 1.0f / static_cast<float>(head_dim);
  ns = ns_per_call(reps, [&] {
    ks.attn_scores(q.data(), k.data(), head_dim, kv_dim, ctx, scale, scores.data());
    sink += scores[0];
  });
  bytes = 4.0 * (ctx * head_dim + head_dim + ctx);
  report("attn_scores", "ctx 128, head_dim", bytes, 2.0 * ctx * head_dim, ns);
  out.values["kernels.attn_scores_gbps"] = bytes / ns;

  ns = ns_per_call(reps, [&] {
    std::fill(o.begin(), o.end(), 0.0f);
    ks.attn_av(sc.data(), k.data(), head_dim, kv_dim, ctx, o.data());
    sink += o[0];
  });
  bytes = 4.0 * (ctx * head_dim + ctx + 2 * head_dim);
  report("attn_av", "ctx 128, head_dim", bytes, 2.0 * ctx * head_dim, ns);
  out.values["kernels.attn_av_gbps"] = bytes / ns;
  std::printf("probe kernels.sink=%g\n", static_cast<double>(sink));
}

}  // namespace

Outcome run_engine_serve(const Options& opts) {
  Outcome out;
  const models::ModelConfig mcfg = engine_model();
  engine::TransformerWeights weights;
  out.values["setup_s"] = time_setup(opts.self_test ? 1 : kSetupRepeats, [&] {
    weights = engine::TransformerWeights::random(mcfg, opts.seed);
    const engine::MiniTransformer m(weights);
    const engine::ServingEngine eng(m, engine_config());
  });
  const engine::MiniTransformer model(weights);
  const auto reqs = make_requests(opts.seed, opts.self_test ? 24 : 128,
                                  mcfg.vocab_size);

  std::vector<double> tok_rate, step_rate, ttft, itl;
  std::uint64_t first_digest = 0;
  EngineRound first;
  const auto round = [&](int i) {
    EngineRound r = serve_round(model, reqs);
    out.attempted += static_cast<std::int64_t>(reqs.size());
    tok_rate.push_back(static_cast<double>(r.tokens) / r.wall_s);
    step_rate.push_back(static_cast<double>(r.steps) / r.wall_s);
    if (opts.trace) {  // kept only where reported, so RSS does not grow with rounds
      ttft.insert(ttft.end(), r.ttft_ms.begin(), r.ttft_ms.end());
      itl.insert(itl.end(), r.itl_ms.begin(), r.itl_ms.end());
    }
    const std::uint64_t d = outputs_digest(r);
    if (i == 0) {
      first_digest = d;
      first = std::move(r);
    } else {
      out.check(d == first_digest && r.prefix.hit_tokens == first.prefix.hit_tokens,
                "engine-serve: round " + std::to_string(i) + " differs from the first");
    }
  };
  run_rounds(opts.self_test ? 0 : opts.seconds, round);
  print_rounds("engine-serve tokens/s", tok_rate);
  check_first_round(model, reqs, first, out);
  std::printf("digest engine-serve: requests=%zu tokens=%lld steps=%lld prefix_hits=%lld "
              "hit_tokens=%lld outputs_fnv=%016llx\n",
              reqs.size(), static_cast<long long>(first.tokens),
              static_cast<long long>(first.steps), static_cast<long long>(first.prefix.hits),
              static_cast<long long>(first.prefix.hit_tokens),
              static_cast<unsigned long long>(first_digest));

  if (!opts.trace) {
    out.values["ops_per_s"] = median(tok_rate);
    out.values["steps_per_s"] = median(step_rate);
    return out;
  }
  out.values["engine.ttft_p50_ms"] = percentile(ttft, 0.50);
  out.values["engine.ttft_p90_ms"] = percentile(ttft, 0.90);
  out.values["engine.itl_p50_ms"] = percentile(itl, 0.50);
  out.values["engine.itl_p99_ms"] = percentile(itl, 0.99);
  out.values["engine.allocs_per_token"] =
      static_cast<double>(first.allocs) / static_cast<double>(first.tokens);
  out.values["kv.prefix_hit_ratio"] =
      first.prefix.lookups > 0
          ? static_cast<double>(first.prefix.hits) / static_cast<double>(first.prefix.lookups)
          : 0.0;
  out.values["kv.hit_tokens"] = static_cast<double>(first.prefix.hit_tokens);

  const double untraced = serve_round(model, reqs).wall_s;
  start_trace();
  const EngineRound traced = serve_round(model, reqs);
  const TraceSummary ts = stop_trace();
  check_trace(ts, out);
  out.check(outputs_digest(traced) == first_digest, "engine-serve: traced round differs");
  out.values["obs.trace_overhead"] = traced.wall_s / untraced;
  const double steps = static_cast<double>(traced.steps);
  const auto per_step_ms = [&](const char* name, bool self) {
    const SpanTotals s = ts.span(name);
    return (self ? s.self_us : s.total_us) / 1e3 / steps;
  };
  out.values["engine.step_ms"] = per_step_ms("engine.step", false);
  out.values["engine.decode_ms"] = per_step_ms("engine.decode", false);
  out.values["engine.admit_ms"] = per_step_ms("engine.admit", false);
  out.values["engine.layer_self_ms"] = per_step_ms("engine.layer", true);
  out.values["attn.scores_ms"] = per_step_ms("attn.scores", false);
  out.values["attn.av_ms"] = per_step_ms("attn.av", false);
  out.values["sched.plan_us"] = ts.self_us_per_call("sched.plan");
  kernel_probes(mcfg, opts, out);
  return out;
}

}  // namespace perfbench
