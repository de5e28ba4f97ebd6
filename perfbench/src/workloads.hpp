// The four workloads. Each fills the Report with its end-to-end metrics
// (untraced run) or its per-layer metrics (traced run), its correctness
// checks and its run context. Definitions: perfbench/README.md.
#pragma once

#include "report.hpp"

namespace perfbench {

/// Closed loop, one lane: exp::run_many(threads=1) over the paper's settings.
void run_paper_batch(const Options& options, Report& report);

/// One warmed 20k-device scalability_xl world, replayed from a snapshot.
void run_xl_steady(const Options& options, Report& report);

/// netsel_serve over its socket, 4 closed-loop connections. `burst` selects
/// serve_burst (tiny jobs, two tenants, stats requests) over serve_ckpt
/// (paper-scale jobs that checkpoint).
void run_serve(const Options& options, Report& report, bool burst);

}  // namespace perfbench
