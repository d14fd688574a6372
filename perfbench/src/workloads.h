// The three workloads. Each builds its inputs from the seed, measures for
// the requested seconds in whole rounds, checks every output, and returns
// end-to-end metrics (untraced) or per-layer metrics (traced).
#pragma once

#include "perfbench/src/common.h"

namespace perfbench {

/// New OffloadingRuntime session per op: model pre-send + one offload.
Report run_cold_presend(const Options& opt);
/// One click per op on six warm sessions (model already on the edge).
Report run_warm_stream(const Options& opt);
/// Open-loop population against a modeled fleet; one op = one sim minute.
Report run_population(const Options& opt);

}  // namespace perfbench
