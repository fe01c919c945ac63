// The three benchmark workloads. Each runs set-up several times, then its
// measured loop for opt.seconds, and fills the Run's samples and checks.
#pragma once

#include "run_state.hpp"

namespace perfbench {

/// Paper Sec. 3.2 line: repeated cold A3(H3) builds plus certification and
/// a short serve of each fresh ROM.
void run_build_a3(Run& run);

/// 72x72 power grid: repeated cold k1-only certified-family builds plus a
/// short ROM-vs-full transient and a serve of the family.
void run_build_sparse(Run& run);

/// Warm resident models and a hosted family served over loopback by a
/// closed loop of clients.
void run_serve_wire(Run& run);

}  // namespace perfbench
