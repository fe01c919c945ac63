// Offline build scaling: per-stage moment-generation times of the proposed
// method on the current-source NLTL as the line grows, and the fitted power
// law of the A3(H3) stage (the one whose cost grows fastest).
//
// For each n in {30, 50, 70, 100, 150} (n/2 stages) it times, on a fresh
// AssociatedTransform at sigma0 = 1 with the paper's (k1, k2, k3) = (6, 3, 2):
//   schur   the complex Schur form of G1 (shared by the A2/A3 chains),
//   h1      H1 moments (sparse/dense resolvent chain),
//   a2h2    A2(H2) moments (G1 (+) G1 solves),
//   a3h3    A3(H3) moments (the (+)^3 sweep and the G2 coupling in Schur
//           coordinates).
// Each time is a median over repetitions. The A3(H3) exponent is the
// least-squares slope of log t against log n over n >= 50; n = 30 is mostly
// fixed overhead. The Schur-coordinate chain costs O(n^4) per moment, so the
// gate requires a slope below 4.6. The H1 and Schur times are sub-millisecond
// here, so they are recorded in microseconds (`_us`) and the perf gate
// treats them as information only. The `_seconds` arrays are gated.
//
//   usage: bench_build_scaling [max_n] [--threads N] [--json-out=PATH]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "circuits/nltl.hpp"
#include "volterra/associated.hpp"

namespace {

std::string json_list(const std::vector<double>& v) {
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v[i]);
        out << (i ? ", " : "") << buf;
    }
    out << "]";
    return out.str();
}

/// "<cpu model> (<threads> hardware threads)" from /proc/cpuinfo, so the
/// record states the machine it was taken on.
std::string machine_description() {
    std::ifstream in("/proc/cpuinfo");
    std::string line, model = "unknown cpu";
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            model = line.substr(line.find(':') + 2);
            break;
        }
    return model + " (" + std::to_string(std::thread::hardware_concurrency()) +
           " hardware threads)";
}

bool all_finite(const std::vector<atmor::la::ZMatrix>& moments) {
    for (const auto& m : moments)
        for (int i = 0; i < m.rows(); ++i)
            for (int j = 0; j < m.cols(); ++j)
                if (!std::isfinite(std::abs(m(i, j)))) return false;
    return !moments.empty();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace atmor;
    const int threads = bench::init_threads(argc, argv);
    const std::string json_path = bench::json_out_arg(argc, argv, "BENCH_build_scaling.json");
    const int max_n = bench::arg_int(argc, argv, 1, 150);

    const la::Complex sigma0(1.0, 0.0);
    const int k1 = 6, k2 = 3, k3 = 2;
    std::printf("=== Build scaling: current-source NLTL, (k1,k2,k3) = (%d,%d,%d), sigma0 = 1, "
                "%d threads ===\n",
                k1, k2, k3, threads);

    bench::InvariantChecker inv;
    std::vector<double> ns, schur_us, h1_us, a2_s, a3_s;
    util::Table table({"n", "schur (us)", "H1 (us)", "A2(H2) (s)", "A3(H3) (s)", "A3 / n^4 (ns)"});
    for (const int n : {30, 50, 70, 100, 150}) {
        if (n > max_n) break;
        circuits::NltlOptions copt;
        copt.stages = n / 2;
        const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
        const int reps = n >= 100 ? 3 : 5;
        std::vector<double> t_schur, t_h1, t_a2, t_a3;
        bool finite = true;
        for (int r = 0; r < reps; ++r) {
            const volterra::AssociatedTransform at(sys);
            util::Timer t;
            (void)at.schur_g1();
            t_schur.push_back(t.seconds());
            t = util::Timer();
            finite = all_finite(at.h1_moments(k1, sigma0)) && finite;
            t_h1.push_back(t.seconds());
            t = util::Timer();
            finite = all_finite(at.a2h2_moments(k2, sigma0)) && finite;
            t_a2.push_back(t.seconds());
            t = util::Timer();
            finite = all_finite(at.a3h3_moments(k3, sigma0)) && finite;
            t_a3.push_back(t.seconds());
        }
        inv.require(finite, "all moments finite at n = " + std::to_string(n));
        const auto median = [](std::vector<double> v) {
            std::sort(v.begin(), v.end());
            return v[v.size() / 2];
        };
        ns.push_back(sys.order());
        schur_us.push_back(median(t_schur) * 1e6);
        h1_us.push_back(median(t_h1) * 1e6);
        a2_s.push_back(median(t_a2));
        a3_s.push_back(median(t_a3));
        table.add_row({std::to_string(sys.order()), util::Table::num(schur_us.back(), 3),
                       util::Table::num(h1_us.back(), 3), util::Table::num(a2_s.back(), 4),
                       util::Table::num(a3_s.back(), 4),
                       util::Table::num(a3_s.back() / std::pow(sys.order(), 4) * 1e9, 3)});
    }
    table.print(std::cout);

    // Least-squares slope of log t_a3 against log n over n >= 50.
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    int pts = 0;
    for (std::size_t i = 0; i < ns.size(); ++i) {
        if (ns[i] < 50) continue;
        const double x = std::log(ns[i]), y = std::log(a3_s[i]);
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
        ++pts;
    }
    const double exponent = pts >= 2 ? (pts * sxy - sx * sy) / (pts * sxx - sx * sx) : 0.0;
    std::printf("\nA3(H3) fitted exponent over n >= 50: %.2f (O(n^4) per moment)\n", exponent);
    inv.require(pts < 2 || exponent < 4.6, "A3(H3) time grows no faster than ~n^4");

    bench::Json json;
    json.str("bench", "build_scaling");
    bench::add_env_header(json);
    json.str("machine", machine_description());
    json.num("threads", threads);
    json.raw("n", json_list(ns));
    json.raw("schur_us", json_list(schur_us));
    json.raw("h1_us", json_list(h1_us));
    json.raw("a2h2_seconds", json_list(a2_s));
    json.raw("a3h3_seconds", json_list(a3_s));
    json.num("a3h3_exponent", exponent);
    json.boolean("a3h3_scaling_ok", inv.ok());
    if (!bench::write_json(json, json_path)) return 1;
    return inv.exit_code();
}
