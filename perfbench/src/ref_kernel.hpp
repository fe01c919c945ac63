// The reference kernel every benchmark timing is normalised by.
//
// The host's speed drifts by up to 2x between half-second windows while the
// code under test stays the same, so a raw wall time mostly measures the
// host. Timing a fixed unit of work right before and right after each
// sample, and reporting the sample in units of that work, cancels the drift
// the two share. The kernel is compiled in its own library with a pinned
// optimisation level and links nothing from atmor, so no change to the
// library or to the repository's flags can move it.
#pragma once

namespace perfbench {

/// Run `units` fixed units of dense complex elimination plus a short
/// streaming pass; returns a checksum so the work cannot be elided.
double ref_work(int units);

/// Wall seconds of one ref_work(units) call.
double ref_seconds(int units);

}  // namespace perfbench
