// The traced run: per-layer numbers timed from outside the library.
//
// Nothing here reaches inside src/. Spans sit around calls into each
// module's public functions: a forwarding ehsim::CurrentSource around
// the resolved PV source, a forwarding gov::Governor around the resolved
// governor, and timers around sweep::resolve_control/resolve_source and
// sim::run_pv_control. The sweep.* numbers come from a plain runner pass
// observed only through SweepRunnerOptions::on_outcome. Per-call clock
// reads are expensive, so no end-to-end number ever comes from here.
#pragma once

#include "workloads.hpp"

namespace perfbench {

/// Runs the workload's runner pass (and, for param_grid, the journalled
/// search and its resume pass) and a traced pass over the same rows,
/// checks that all of them publish identical bytes, and adds every
/// per-layer metric to `report`.
void run_traced(const Options& opt, const Prepared& p, Report& report);

}  // namespace perfbench
