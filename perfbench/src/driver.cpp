// End-to-end benchmark driver: runs one workload for a fixed time, checks
// every answer, and prints the run context and then, as the last line of
// standard output, one JSON object with the run's metrics.
//
//   perfbench --workload build_a3|build_sparse|serve_wire --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//             [--commit ID]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// every library call, writes them to --trace-out, and reports the
// per-layer metrics instead.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "la/simd.hpp"
#include "run_state.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

double median_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }

double median_or_zero(const Samples& v) { return median_or_zero(v.normalised()); }

double counter(const Run& run, const std::string& name) {
    const auto it = run.counters.find(name);
    return it == run.counters.end() ? 0.0 : it->second;
}

double stage(const Run& run, const std::string& name) {
    const auto it = run.stage_s.find(name);
    return it == run.stage_s.end() ? 0.0 : median_or_zero(it->second);
}

std::vector<Metric> end_to_end(const Run& run) {
    return {
        {"setup_s", median_or_zero(run.setup_s), "s"},
        {"build_s", median_or_zero(run.build_s), "s"},
        {"rom_err_max", run.rom_err_max, "ratio"},
        {"rom_order", static_cast<double>(run.rom_order), "count"},
        {"rom_step_us", median_or_zero(run.rom_step_us), "us"},
        {"serve_p50_ms", median_or_zero(run.latency_ms), "ms"},
        {"serve_rps", run.request_s.empty() ? 0.0 : 1.0 / median_or_zero(run.request_s), "1/s"},
    };
}

std::vector<Metric> per_layer(const Run& run) {
    // Each traced decomposed build is paired with an untraced one of the
    // same code; the median of the pair ratios is the cost of tracing.
    const std::vector<double> traced = run.traced_s.normalised();
    const std::vector<double> untraced = run.untraced_s.normalised();
    std::vector<double> pair_ratio;
    for (std::size_t i = 0; i < std::min(traced.size(), untraced.size()); ++i)
        if (untraced[i] > 0.0) pair_ratio.push_back(traced[i] / untraced[i]);
    const double newton_per_step =
        run.rom_steps > 0
            ? static_cast<double>(run.rom_newton) / static_cast<double>(run.rom_steps)
            : 0.0;
    return {
        {"volterra.h1_s", stage(run, "volterra.h1"), "s"},
        {"volterra.a2h2_s", stage(run, "volterra.a2h2"), "s"},
        {"volterra.a3h3_s", stage(run, "volterra.a3h3"), "s"},
        {"la.schur_s", stage(run, "la.schur"), "s"},
        {"la.factor_s", stage(run, "la.factor"), "s"},
        {"la.orth_s", stage(run, "la.orth"), "s"},
        {"core.project_s", stage(run, "core.project"), "s"},
        {"mor.estimate_s", stage(run, "mor.estimate"), "s"},
        {"la.factorizations", counter(run, "la.factorizations"), "count"},
        {"la.solves", counter(run, "la.solves"), "count"},
        {"la.cache_hit_ratio", counter(run, "la.cache_hit_ratio"), "ratio"},
        {"pmor.candidates", counter(run, "pmor.candidates"), "count"},
        {"pmor.cross_estimates", counter(run, "pmor.cross_estimates"), "count"},
        {"ode.newton_per_step", newton_per_step, "ratio"},
        {"ode.full_step_us", median_or_zero(run.full_step_us), "us"},
        {"rom.busy_ms", counter(run, "rom.busy_ms"), "ms"},
        {"rom.coalesced_share", counter(run, "rom.coalesced_share"), "ratio"},
        {"net.overhead_ms", counter(run, "net.overhead_ms"), "ms"},
        {"net.rtt_p99_ms", counter(run, "net.rtt_p99_ms"), "ms"},
        {"la.max_factor_dim", counter(run, "la.max_factor_dim"), "count"},
        {"rom.registry_builds", counter(run, "rom.registry_builds"), "count"},
        {"net.overloaded", counter(run, "net.overloaded"), "count"},
        {"net.protocol_errors", counter(run, "net.protocol_errors"), "count"},
        {"trace.overhead_pct",
         pair_ratio.empty() ? 0.0 : (median(pair_ratio) - 1.0) * 100.0, "%"},
        {"trace.coverage_pct", median_or_zero(run.coverage) * 100.0, "%"},
    };
}

std::string json_number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

void print_context(const Run& run, int nproc, const std::string& commit) {
    std::string out = "{\"context\": {";
    const auto field = [&out](const std::string& k, const std::string& v) {
        if (out.back() != '{') out += ", ";
        out += json_string(k) + ": " + v;
    };
    field("workload", json_string(run.opt.workload));
    field("seed", std::to_string(run.opt.seed));
    field("seconds", json_number(run.opt.seconds));
    field("trace", run.opt.trace ? "true" : "false");
    field("nproc", std::to_string(nproc));
    field("pool_threads", std::to_string(run.pool_threads));
    field("daemon_workers", std::to_string(run.daemon_workers));
    field("clients", std::to_string(run.clients));
#if defined(__VERSION__)
    field("compiler", json_string(__VERSION__));
#endif
    field("simd", json_string(atmor::la::simd::active_level()));
    field("commit", json_string(commit));
    field("ref_nominal_s", json_number(kRefNominalSeconds));
    field("ref_median_s", json_number(median_or_zero(run.norm.refs())));
    field("ref_samples", std::to_string(run.norm.refs().size()));
    field("builds", std::to_string(run.build_s.size()));
    field("build_raw_s", json_number(median_or_zero(run.build_s.raw)));
    field("requests", std::to_string(run.latency_ms.size()));
    field("serve_p50_raw_ms", json_number(median_or_zero(run.latency_ms.raw)));
    field("rom_steps_sampled", std::to_string(run.rom_step_us.size()));
    out += "}}";
    std::printf("%s\n", out.c_str());
}

void print_result(const Run& run, const std::vector<Metric>& metrics) {
    std::string out = "{\"correct\": ";
    out += run.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(std::max(run.attempted, 1L));
    out += ", \"failed\": " + std::to_string(run.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) out += ", ";
        out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
               ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload build_a3|build_sparse|serve_wire "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
                 "[--commit ID]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::atof(v.c_str());
        } else if (a == "--trace") {
            opt.trace = v == "1";
        } else if (a == "--trace-out") {
            opt.trace_out = v;
        } else if (a == "--commit") {
            commit = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    const std::map<std::string, std::function<void(Run&)>> workloads = {
        {"build_a3", run_build_a3},
        {"build_sparse", run_build_sparse},
        {"serve_wire", run_serve_wire},
    };
    const auto wl = workloads.find(opt.workload);
    if (wl == workloads.end()) return usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

    const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    Run run(opt);
    // On serve_wire the daemon's workers are the concurrency: each answers
    // its request on its own thread instead of fanning out over the pool.
    run.pool_threads = opt.workload == "serve_wire" ? 1 : std::min(kPoolThreads, nproc);
    run.daemon_workers = std::min(kDaemonWorkers, nproc);
    run.clients = std::min(kClients, nproc);
    atmor::util::ThreadPool::set_global_threads(run.pool_threads);

    try {
        wl->second(run);
    } catch (const std::exception& e) {
        run.check(false, std::string("workload threw: ") + e.what());
    }
    if (run.opt.trace && !run.opt.trace_out.empty())
        run.check(run.tracer.write_json(run.opt.trace_out),
                  "trace written to " + run.opt.trace_out);

    print_context(run, nproc, commit);
    print_result(run, run.opt.trace ? per_layer(run) : end_to_end(run));
    return 0;
}
