#pragma once

#include "common.h"

namespace perfbench {

// Each workload builds its inputs from opts.seed, times whole rounds for
// opts.seconds, checks the outputs and returns its metrics: end-to-end ones
// when opts.trace is false, per-layer ones when it is true.
Outcome run_sim_serve(const Options& opts);
Outcome run_sim_cluster_chat(const Options& opts);
Outcome run_sim_sweep(const Options& opts);
Outcome run_engine_serve(const Options& opts);

}  // namespace perfbench
