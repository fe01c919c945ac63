// Adaptive expansion-point selection: the a-posteriori estimator tracks the
// true transfer-function error, the greedy loop certifies its tolerance and
// beats the legacy hand-picked grids, results are bit-reproducible under any
// thread count, tolerance-tagged registry artifacts coexist, and old-format
// (v1) .atmor-rom artifacts still load.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "circuits/nltl.hpp"
#include "core/atmor.hpp"
#include "mor/adaptive.hpp"
#include "mor/error_estimator.hpp"
#include "rom/io.hpp"
#include "rom/registry.hpp"
#include "rom/serve_engine.hpp"
#include "test_serve_helpers.hpp"
#include "util/thread_pool.hpp"

namespace atmor {
namespace {

using la::Complex;

volterra::Qldae small_nltl(int stages = 12) {
    circuits::NltlOptions copt;
    copt.stages = stages;
    return circuits::current_source_line(copt).to_qldae();
}

core::MorResult fixed_rom(const volterra::Qldae& sys, int k1, int k2,
                          const std::vector<Complex>& points) {
    core::AtMorOptions opt;
    opt.k1 = k1;
    opt.k2 = k2;
    opt.k3 = 0;
    opt.expansion_points = points;
    return core::reduce_associated(sys, opt);
}

TEST(ErrorEstimator, CorrectedModeMatchesTrueH1Error) {
    // The corrected estimate is the residual pushed through the exact full
    // resolvent, so it IS the true linear output error (up to solver
    // round-off) -- at every frequency, for ROMs of any quality.
    const volterra::Qldae sys = small_nltl();
    const mor::ErrorEstimator est(sys);
    const auto grid = mor::ErrorEstimator::jomega_grid(0.25, 4.0, 7);
    for (int k1 : {1, 3, 5}) {
        const core::MorResult rom = fixed_rom(sys, k1, 0, {Complex(1.0, 0.0)});
        for (const Complex s : grid) {
            const double estimated = est.h1_error(rom, s);
            const double truth = est.true_h1_error(rom, s);
            EXPECT_NEAR(estimated, truth, 1e-7 * (1.0 + truth))
                << "k1 = " << k1 << ", s = " << s;
        }
    }
}

TEST(ErrorEstimator, ResidualModeTracksTrueErrorWithinConstant) {
    // The matvec-only surrogate is off by the resolvent norm, which is
    // bounded over a fixed band: the ratio to the true error must stay
    // within a modest constant across ROM qualities and frequencies.
    const volterra::Qldae sys = small_nltl();
    const mor::ErrorEstimator residual(sys, nullptr, mor::EstimateMode::residual);
    const mor::ErrorEstimator truth(sys);
    const auto grid = mor::ErrorEstimator::jomega_grid(0.25, 4.0, 7);
    for (int k1 : {1, 2, 3, 4, 5}) {
        const core::MorResult rom = fixed_rom(sys, k1, 0, {Complex(1.0, 0.0)});
        for (const Complex s : grid) {
            const double estimated = residual.h1_error(rom, s);
            const double exact = truth.true_h1_error(rom, s);
            if (exact < 1e-14) continue;  // both at round-off
            const double ratio = estimated / exact;
            EXPECT_GT(ratio, 0.02) << "k1 = " << k1 << ", s = " << s;
            EXPECT_LT(ratio, 50.0) << "k1 = " << k1 << ", s = " << s;
        }
    }
}

TEST(ErrorEstimator, SecondOrderEstimateSeesQuadraticDirections) {
    // An H1-identical pair of ROMs that differ only in A2(H2) directions:
    // the linear estimate cannot separate them, the second-order one must.
    const volterra::Qldae sys = small_nltl();
    const std::vector<Complex> points{Complex(1.0, 0.0)};
    const core::MorResult linear_only = fixed_rom(sys, 4, 0, points);
    const core::MorResult with_h2 = fixed_rom(sys, 4, 2, points);
    const mor::ErrorEstimator est(sys, nullptr, mor::EstimateMode::corrected, true);
    const Complex s(0.0, 1.0);
    EXPECT_LT(est.h2_error(with_h2, s), 0.5 * est.h2_error(linear_only, s));
}

TEST(Adaptive, MeetsToleranceWithFewerPointsThanLegacyGrid) {
    const volterra::Qldae sys = small_nltl(25);
    mor::AdaptiveOptions opt;
    opt.omega_min = 0.25;
    opt.omega_max = 4.0;
    opt.band_grid = 25;
    opt.tol = 5e-4;
    opt.point_order = {4, 2, 0};
    opt.max_points = 6;
    const mor::AdaptiveResult result = core::reduce_adaptive(sys, opt);

    ASSERT_TRUE(result.converged);
    EXPECT_LE(result.model.provenance.estimated_error, opt.tol);
    EXPECT_FALSE(result.error_history.empty());
    EXPECT_EQ(result.model.provenance.method, "adaptive");
    EXPECT_EQ(result.model.provenance.tol, opt.tol);
    EXPECT_EQ(result.model.provenance.band_min, opt.omega_min);
    EXPECT_EQ(result.model.provenance.band_max, opt.omega_max);
    EXPECT_EQ(result.model.provenance.point_orders.size(),
              result.model.provenance.expansion_points.size());

    // The legacy hand-picked family the repo used before adaptivity: how
    // many of its points are needed to certify the same tolerance?
    const std::vector<std::vector<Complex>> legacy = {
        {{1.0, 0.0}},
        {{1.0, 0.0}, {1.0, 2.0}},
        {{0.5, 0.0}, {1.0, 0.0}, {1.0, 4.0}},
        {{0.5, 0.0}, {1.0, 0.0}, {1.0, 2.0}, {1.0, 4.0}},
        {{0.5, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}, {1.0, 4.0}},
    };
    const mor::ErrorEstimator est(sys, nullptr, mor::EstimateMode::corrected, true);
    const auto grid = mor::band_grid(opt);
    int legacy_needed = -1;
    for (const auto& pts : legacy) {
        const core::MorResult rom =
            fixed_rom(sys, opt.point_order.k1, opt.point_order.k2, pts);
        if (est.band_error(rom, grid).max_rel <= opt.tol) {
            legacy_needed = static_cast<int>(pts.size());
            break;
        }
    }
    ASSERT_GT(legacy_needed, 0) << "no legacy grid certifies the tolerance at all";
    EXPECT_LT(static_cast<int>(result.model.provenance.expansion_points.size()),
              legacy_needed);
}

TEST(Adaptive, TrimmingShrinksOrdersWithoutLosingTheCertificate) {
    const volterra::Qldae sys = small_nltl(25);
    mor::AdaptiveOptions opt;
    opt.tol = 5e-3;
    mor::AdaptiveOptions no_trim = opt;
    no_trim.trim_orders = false;
    const mor::AdaptiveResult trimmed = mor::reduce_adaptive(sys, opt);
    const mor::AdaptiveResult untrimmed = mor::reduce_adaptive(sys, no_trim);
    ASSERT_TRUE(trimmed.converged);
    ASSERT_TRUE(untrimmed.converged);
    EXPECT_GT(trimmed.trimmed, 0);
    EXPECT_LT(trimmed.model.order, untrimmed.model.order);
    EXPECT_LE(trimmed.model.provenance.estimated_error, opt.tol);
}

TEST(Adaptive, DeterministicAcrossThreadCounts) {
    const volterra::Qldae sys = small_nltl(25);
    mor::AdaptiveOptions opt;
    opt.tol = 5e-4;
    util::ThreadPool::set_global_threads(1);
    const mor::AdaptiveResult serial = mor::reduce_adaptive(sys, opt);
    util::ThreadPool::set_global_threads(4);
    const mor::AdaptiveResult parallel = mor::reduce_adaptive(sys, opt);
    util::ThreadPool::set_global_threads(util::ThreadPool::default_thread_count());

    // Bit-reproducible: identical points, orders, basis and certificate.
    EXPECT_EQ(serial.model.provenance.expansion_points,
              parallel.model.provenance.expansion_points);
    EXPECT_TRUE(serial.model.provenance.point_orders ==
                parallel.model.provenance.point_orders);
    EXPECT_EQ(serial.model.provenance.basis_hash, parallel.model.provenance.basis_hash);
    EXPECT_EQ(serial.model.provenance.estimated_error,
              parallel.model.provenance.estimated_error);
    EXPECT_EQ(serial.error_history, parallel.error_history);
}

TEST(Adaptive, ToleranceKeyedRegistryArtifactsCoexist) {
    const volterra::Qldae sys = small_nltl();
    circuits::NltlOptions copt;
    copt.stages = 12;

    mor::AdaptiveOptions loose;
    loose.tol = 1e-2;
    mor::AdaptiveOptions tight = loose;
    tight.tol = 1e-4;
    const std::string key_loose = "nltl_current:" + copt.key() + "|" + loose.key();
    const std::string key_tight = "nltl_current:" + copt.key() + "|" + tight.key();
    ASSERT_NE(key_loose, key_tight);

    const std::string dir =
        (std::filesystem::temp_directory_path() / "atmor_adaptive_registry_test").string();
    std::filesystem::remove_all(dir);
    rom::RegistryOptions ropt;
    ropt.artifact_dir = dir;
    auto registry = std::make_shared<rom::Registry>(ropt);
    ASSERT_NE(registry->artifact_path(key_loose), registry->artifact_path(key_tight));

    const auto build_with = [&](const mor::AdaptiveOptions& o) {
        return [&sys, o, &copt] {
            core::MorResult m = mor::reduce_adaptive(sys, o).model;
            m.provenance.source = copt.key();
            return m;
        };
    };
    const auto loose_model = registry->get_or_build(key_loose, build_with(loose));
    const auto tight_model = registry->get_or_build(key_tight, build_with(tight));
    EXPECT_EQ(registry->stats().builds, 2);
    EXPECT_EQ(loose_model->provenance.tol, 1e-2);
    EXPECT_EQ(tight_model->provenance.tol, 1e-4);
    EXPECT_LE(tight_model->provenance.estimated_error, 1e-4);
    EXPECT_TRUE(std::filesystem::exists(registry->artifact_path(key_loose)));
    EXPECT_TRUE(std::filesystem::exists(registry->artifact_path(key_tight)));

    // A fresh registry over the same directory serves both accuracies from
    // disk, and the engine surfaces each one's certificate per query.
    auto registry2 = std::make_shared<rom::Registry>(ropt);
    rom::ServeEngine engine(registry2);
    const rom::ErrorCertificate cert_loose =
        test::serve_ok(engine, test::certificate_request(key_loose)).certificate;
    const rom::ErrorCertificate cert_tight =
        test::serve_ok(engine, test::certificate_request(key_tight)).certificate;
    EXPECT_EQ(registry2->stats().disk_hits, 2);
    EXPECT_EQ(registry2->stats().builds, 0);
    EXPECT_TRUE(cert_loose.certified());
    EXPECT_TRUE(cert_tight.certified());
    EXPECT_EQ(cert_loose.method, "adaptive");
    EXPECT_EQ(cert_loose.tol, 1e-2);
    EXPECT_EQ(cert_tight.tol, 1e-4);
    EXPECT_LE(cert_tight.estimated_error, cert_tight.tol);
    EXPECT_EQ(engine.stats().certificate_queries, 2);
    std::filesystem::remove_all(dir);
}

TEST(Adaptive, AdaptiveProvenanceRoundTripsThroughIo) {
    const volterra::Qldae sys = small_nltl();
    mor::AdaptiveOptions opt;
    opt.tol = 1e-2;
    const core::MorResult model = mor::reduce_adaptive(sys, opt).model;
    const std::string path =
        (std::filesystem::temp_directory_path() / "atmor_adaptive_v2.atmor-rom").string();
    rom::save_model(model, path);
    const rom::ReducedModel loaded = rom::load_model(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.provenance.method, "adaptive");
    EXPECT_EQ(loaded.provenance.tol, model.provenance.tol);
    EXPECT_EQ(loaded.provenance.band_min, model.provenance.band_min);
    EXPECT_EQ(loaded.provenance.band_max, model.provenance.band_max);
    EXPECT_EQ(loaded.provenance.estimated_error, model.provenance.estimated_error);
    EXPECT_TRUE(loaded.provenance.point_orders == model.provenance.point_orders);
}

TEST(Adaptive, OldVersionArtifactStillLoads) {
    // Forge a v1 artifact (the pre-accuracy-provenance layout) byte for
    // byte and check the v2 reader accepts it with defaulted new fields.
    const volterra::Qldae sys = small_nltl();
    core::MorResult model = fixed_rom(sys, 3, 2, {Complex(1.0, 0.0)});
    model.provenance.source = "test:v1-artifact";

    rom::Writer w;
    w.str(model.provenance.source);
    w.str(model.provenance.method);
    w.u64(model.provenance.expansion_points.size());
    for (const Complex s0 : model.provenance.expansion_points) w.complex(s0);
    w.i32(model.provenance.k1);
    w.i32(model.provenance.k2);
    w.i32(model.provenance.k3);
    w.i32(model.provenance.full_order);
    w.u64(model.provenance.basis_hash);
    w.f64(model.build_seconds);
    w.i32(model.raw_vectors);
    w.i32(model.order);
    w.qldae(model.rom);
    w.matrix(model.v);
    const std::string bytes = rom::frame(w.bytes(), 1);

    const rom::ReducedModel loaded = rom::deserialize_model(bytes);
    EXPECT_EQ(loaded.provenance.source, model.provenance.source);
    EXPECT_EQ(loaded.provenance.method, model.provenance.method);
    EXPECT_EQ(loaded.provenance.expansion_points, model.provenance.expansion_points);
    EXPECT_EQ(loaded.provenance.k1, model.provenance.k1);
    EXPECT_EQ(loaded.provenance.basis_hash, model.provenance.basis_hash);
    EXPECT_EQ(loaded.order, model.order);
    // New fields default to "no accuracy record".
    EXPECT_TRUE(loaded.provenance.point_orders.empty());
    EXPECT_EQ(loaded.provenance.tol, 0.0);
    EXPECT_EQ(loaded.provenance.band_min, 0.0);
    EXPECT_EQ(loaded.provenance.band_max, 0.0);
    EXPECT_EQ(loaded.provenance.estimated_error, 0.0);

    // Unsupported versions (0 and future) are still rejected outright.
    for (const std::uint32_t bad : {0u, rom::kFormatVersion + 1}) {
        try {
            (void)rom::deserialize_model(rom::frame(w.bytes(), bad));
            FAIL() << "expected version_mismatch for version " << bad;
        } catch (const rom::IoError& e) {
            EXPECT_EQ(e.kind(), rom::IoErrorKind::version_mismatch);
        }
    }
}

TEST(Adaptive, PerPointOrdersOverrideUniformCounts) {
    const volterra::Qldae sys = small_nltl();
    const std::vector<Complex> points{Complex(1.0, 0.0), Complex(1.0, 2.0)};
    core::AtMorOptions uniform;
    uniform.k1 = 3;
    uniform.k2 = 0;
    uniform.k3 = 0;
    uniform.expansion_points = points;
    const core::MorResult full = core::reduce_associated(sys, uniform);

    core::AtMorOptions trimmed = uniform;
    trimmed.per_point_orders = {{3, 0, 0}, {1, 0, 0}};
    const core::MorResult mixed = core::reduce_associated(sys, trimmed);

    EXPECT_LT(mixed.raw_vectors, full.raw_vectors);
    EXPECT_LT(mixed.order, full.order);
    EXPECT_TRUE(mixed.provenance.point_orders == trimmed.per_point_orders);
    EXPECT_EQ(mixed.provenance.k1, 3);  // per-point maximum

    core::AtMorOptions bad = uniform;
    bad.per_point_orders = {{3, 0, 0}};  // one entry for two points
    EXPECT_THROW((void)core::reduce_associated(sys, bad), util::PreconditionError);
}

}  // namespace
}  // namespace atmor
