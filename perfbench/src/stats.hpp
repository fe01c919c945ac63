// Statistics helpers of the benchmark driver: exact order statistics over
// raw samples and the reference normaliser.
//
// Percentiles are computed from the sorted samples themselves (nearest
// rank), never from util::LatencyHistogram: its bucket edges sit 15.5%
// apart, so a one-bucket shift would read as a regression larger than a
// 10% bound.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, p in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it. Exact on the raw samples.
inline double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) throw std::invalid_argument("percentile of no samples");
    if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("percentile outside (0, 100]");
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
    const std::size_t idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

inline double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

/// Reference normalisation. Each sample is bracketed by two timings of a
/// fixed reference kernel and rescaled to the host speed at which that
/// kernel takes `nominal_seconds`:
///
///     normalised = raw * nominal / mean(ref_before, ref_after)
///
/// Host slowdowns that hit the sample and the kernel alike cancel, so the
/// median of normalised samples moves when the code changes, not when the
/// host does. `RefTimer` is any callable returning the kernel's wall
/// seconds (the driver passes perfbench::ref_seconds; tests pass fakes).
template <class RefTimer>
class Normaliser {
public:
    Normaliser(RefTimer ref, double nominal_seconds)
        : ref_(std::move(ref)), nominal_(nominal_seconds) {
        if (!(nominal_ > 0.0)) throw std::invalid_argument("nominal reference time must be > 0");
    }

    /// Time the reference kernel once; the value opens the next bracket
    /// (and closes the previous one, so back-to-back samples share it).
    double mark() {
        last_ref_ = ref_();
        refs_.push_back(last_ref_);
        return last_ref_;
    }

    /// Normalise a raw duration measured between the last mark() and a
    /// fresh one taken now. Returns the normalised value; the scale factor
    /// applied is kept in last_scale() for stage times inside the sample.
    double close(double raw) {
        const double before = last_ref_;
        const double after = mark();
        last_scale_ = scale_for(before > 0.0 ? before : after, after);
        return raw * last_scale_;
    }

    /// The scale for a sample bracketed by reference timings `before` and
    /// `after` (for brackets that enclose other brackets).
    [[nodiscard]] double scale_for(double before, double after) const {
        return nominal_ / (0.5 * (before + after));
    }

    [[nodiscard]] double last_scale() const { return last_scale_; }
    [[nodiscard]] const std::vector<double>& refs() const { return refs_; }

private:
    RefTimer ref_;
    double nominal_;
    double last_ref_ = 0.0;
    double last_scale_ = 1.0;
    std::vector<double> refs_;
};

}  // namespace perfbench
