// Per-run state shared by the three workloads: options, the tracer, the
// reference normaliser, the seeded generator, correctness accounting and
// the raw samples every metric is computed from.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "ref_kernel.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Reference-kernel size and its nominal time. One call of
/// ref_seconds(kRefUnits) takes about kRefNominalSeconds on an unloaded
/// 4-core x86-64 VM (GCC 12, -O2); normalised timings read as seconds on a
/// host running the kernel at that speed.
constexpr int kRefUnits = 14;
constexpr double kRefNominalSeconds = 2.0e-3;

/// Concurrency used by every workload. None exceeds the machine's core
/// count on the 4-core reference host; the driver clamps them to nproc.
constexpr int kPoolThreads = 2;
constexpr int kDaemonWorkers = 2;
constexpr int kClients = 2;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;  ///< span dump path (traced runs); empty: none
};

/// Raw measurements with the normaliser's scale for each; the normalised
/// value of sample i is raw[i] * scale[i].
struct Samples {
    std::vector<double> raw;
    std::vector<double> scale;

    void add(double raw_value, double scale_value) {
        raw.push_back(raw_value);
        scale.push_back(scale_value);
    }
    [[nodiscard]] std::vector<double> normalised() const {
        std::vector<double> out(raw.size());
        for (std::size_t i = 0; i < raw.size(); ++i) out[i] = raw[i] * scale[i];
        return out;
    }
    [[nodiscard]] bool empty() const { return raw.empty(); }
    [[nodiscard]] std::size_t size() const { return raw.size(); }
};

struct RefClock {
    double operator()() const { return ref_seconds(kRefUnits); }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Run {
    explicit Run(Options o)
        : opt(std::move(o)),
          tracer(opt.trace),
          norm(RefClock{}, kRefNominalSeconds),
          rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1) {}

    Options opt;
    Tracer tracer;
    Normaliser<RefClock> norm;
    std::mt19937_64 rng;

    int pool_threads = kPoolThreads;
    int daemon_workers = kDaemonWorkers;
    int clients = kClients;

    // -- Correctness accounting. ---------------------------------------------
    long attempted = 0;
    long failed = 0;
    void check(bool ok, const std::string& what) {
        ++attempted;
        if (ok) return;
        ++failed;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }

    /// Uniform double in [lo, hi) from the workload seed.
    double uniform(double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    }

    // -- End-to-end samples. -------------------------------------------------
    Samples setup_s;              ///< one per set-up repetition
    Samples build_s;              ///< one per cold build
    Samples rom_step_us;          ///< one per ROM transient
    Samples full_step_us;         ///< one per full-model transient
    Samples latency_ms;           ///< one per wire request
    Samples request_s;            ///< one per closed-loop round: wall / requests
    double rom_err_max = 0.0;
    int rom_order = 0;
    long rom_steps = 0;
    long rom_newton = 0;

    // -- Per-layer samples: stage -> one normalised self time per build. ----
    std::map<std::string, std::vector<double>> stage_s;
    std::vector<double> coverage;  ///< stage self-time sum / the library build before it
    Samples traced_s;              ///< decomposed builds with the tracer on
    Samples untraced_s;            ///< the same builds with the tracer off
    long traced_pairs = 0;
    std::map<std::string, double> counters;
};

}  // namespace perfbench
