// Parametric ROM families: ParamSpace geometry, typed Options binding, the
// greedy FamilyBuilder, the v3 Family artifact round-trip, and certified
// parametric serving (member path, blending, fallback rejection path).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "circuits/nltl.hpp"
#include "core/atmor.hpp"
#include "pmor/family_builder.hpp"
#include "pmor/param_space.hpp"
#include "rom/io.hpp"
#include "rom/registry.hpp"
#include "rom/serve_engine.hpp"
#include "test_serve_helpers.hpp"
#include "util/check.hpp"

namespace atmor {
namespace {

using la::Complex;
using pmor::Point;
using test::parametric_request;
using test::serve_ok;

pmor::ParamSpace two_axis_space() {
    return pmor::ParamSpace({{"alpha", 20.0, 60.0, pmor::Scale::linear},
                             {"freq", 0.1, 10.0, pmor::Scale::log}});
}

/// NLTL current-source family over the diode nonlinearity (the knob that
/// shifts both G1 -- linearised diode conductance -- and the lifted
/// quadratic G2 rows). Small line so per-member builds stay in the
/// millisecond range.
pmor::FamilyDesign nltl_design(int stages = 8) {
    circuits::NltlOptions base;
    base.stages = stages;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 20.0, 60.0);
    return pmor::make_design("nltl_current", binder, [](const circuits::NltlOptions& o) {
        return circuits::current_source_line(o).to_qldae();
    });
}

mor::AdaptiveOptions fast_adaptive(double tol = 2e-3) {
    mor::AdaptiveOptions a;
    a.tol = tol;
    a.omega_min = 0.25;
    a.omega_max = 2.0;
    a.band_grid = 7;
    a.max_points = 2;
    a.point_order = rom::PointOrder{3, 1, 0};
    a.trim_orders = false;  // keep member builds fast and deterministic
    return a;
}

// ---------------------------------------------------------------------------
// ParamSpace geometry.
// ---------------------------------------------------------------------------

TEST(ParamSpace, NormalizeRoundTripsLinearAndLog) {
    const pmor::ParamSpace space = two_axis_space();
    const Point p{35.0, 1.0};
    const std::vector<double> unit = space.normalize(p);
    EXPECT_NEAR(unit[0], (35.0 - 20.0) / 40.0, 1e-15);
    EXPECT_NEAR(unit[1], std::log(1.0 / 0.1) / std::log(10.0 / 0.1), 1e-15);
    const Point back = space.denormalize(unit);
    EXPECT_NEAR(back[0], p[0], 1e-12);
    EXPECT_NEAR(back[1], p[1], 1e-12);
    // The box center takes the geometric mean on the log axis.
    const Point c = space.center();
    EXPECT_NEAR(c[0], 40.0, 1e-12);
    EXPECT_NEAR(c[1], 1.0, 1e-12);
}

TEST(ParamSpace, DistanceIsNormalizedAndBounded) {
    const pmor::ParamSpace space = two_axis_space();
    const Point lo{20.0, 0.1};
    const Point hi{60.0, 10.0};
    // Opposite corners sit at distance 1 in the sqrt(d)-scaled metric.
    EXPECT_NEAR(space.distance(lo, hi), 1.0, 1e-12);
    EXPECT_EQ(space.distance(lo, lo), 0.0);
}

TEST(ParamSpace, GridAndOffsetGridNeverCoincide) {
    const pmor::ParamSpace space = two_axis_space();
    const std::vector<Point> train = space.grid(3);
    const std::vector<Point> held_out = space.offset_grid(2);
    EXPECT_EQ(train.size(), 9u);
    EXPECT_EQ(held_out.size(), 4u);
    for (const Point& h : held_out) {
        EXPECT_TRUE(space.contains(h));
        for (const Point& t : train) EXPECT_GT(space.distance(h, t), 1e-6);
    }
    // Deterministic ordering: last axis fastest, endpoints included.
    EXPECT_NEAR(train.front()[0], 20.0, 1e-12);
    EXPECT_NEAR(train.front()[1], 0.1, 1e-12);
    EXPECT_NEAR(train.back()[0], 60.0, 1e-12);
    EXPECT_NEAR(train.back()[1], 10.0, 1e-12);
}

TEST(ParamSpace, NormalizeIsFiniteOnLogAxesWithTinyMin) {
    // contains() admits points down to min - slack; with a tiny log-axis min
    // the slack (relative to max) reaches below zero, and to_unit must not
    // feed a value <= 0 into std::log. NaN unit coordinates would silently
    // poison nearest-cell selection in parametric serving.
    const pmor::ParamSpace space({{"leak", 1e-300, 1.0, pmor::Scale::log}});
    for (const double v : {0.0, -5e-13, 1e-300, 1.0}) {
        const Point p{v};
        ASSERT_TRUE(space.contains(p)) << "v=" << v;
        const std::vector<double> unit = space.normalize(p);
        EXPECT_TRUE(std::isfinite(unit[0])) << "v=" << v << " unit=" << unit[0];
        EXPECT_GE(unit[0], 0.0);
        EXPECT_LE(unit[0], 1.0);
    }
    // Same guard on linear axes: slack-admitted points clamp to the box.
    const pmor::ParamSpace lin({{"r", 0.0, 1.0, pmor::Scale::linear}});
    const std::vector<double> u = lin.normalize({-5e-13});
    EXPECT_GE(u[0], 0.0);
    // distance() between slack-admitted and in-box points stays finite.
    EXPECT_TRUE(std::isfinite(space.distance({0.0}, {1.0})));
}

TEST(ParamSpace, SingleSampleOffsetGridIsDistinctFromGrid) {
    // A 1-sample "held-out" grid must not certify against the 1-sample
    // training grid: both collapsing to the box center makes hold-out
    // validation vacuous. The offset point must also avoid grid(2)'s nodes
    // (the documented resolution <= per_dim + 1 guarantee).
    const pmor::ParamSpace space = two_axis_space();
    const std::vector<Point> train = space.grid(1);
    const std::vector<Point> held_out = space.offset_grid(1);
    ASSERT_EQ(train.size(), 1u);
    ASSERT_EQ(held_out.size(), 1u);
    EXPECT_TRUE(space.contains(held_out[0]));
    EXPECT_GT(space.distance(held_out[0], train[0]), 1e-6);
    for (const Point& t : space.grid(2))
        EXPECT_GT(space.distance(held_out[0], t), 1e-6);
}

TEST(ParamSpace, KeysAreStableAndFaithful) {
    const pmor::ParamSpace space = two_axis_space();
    EXPECT_EQ(space.key({35.0, 1.0}), "alpha=35,freq=1");
    EXPECT_NE(space.key({35.0, 1.0}), space.key({35.000001, 1.0}));
}

TEST(ParamSpace, InvalidDescriptorsAreTypedErrors) {
    EXPECT_THROW(pmor::ParamSpace({{"", 0.0, 1.0, pmor::Scale::linear}}),
                 util::PreconditionError);
    EXPECT_THROW(pmor::ParamSpace({{"x", 2.0, 1.0, pmor::Scale::linear}}),
                 util::PreconditionError);
    EXPECT_THROW(pmor::ParamSpace({{"x", 0.0, 1.0, pmor::Scale::log}}),
                 util::PreconditionError);
    const pmor::ParamSpace space = two_axis_space();
    EXPECT_FALSE(space.contains({35.0}));        // wrong arity
    EXPECT_FALSE(space.contains({19.0, 1.0}));   // outside the box
    EXPECT_THROW(space.normalize({19.0, 1.0}), util::PreconditionError);
}

TEST(ParamSpace, TypedBinderAppliesDoubleAndIntFields) {
    circuits::NltlOptions base;
    base.stages = 8;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 20.0, 60.0)
        .param("stages", &circuits::NltlOptions::stages, 4, 16);
    const circuits::NltlOptions at = binder.at({30.0, 11.7});
    EXPECT_EQ(at.diode_alpha, 30.0);
    EXPECT_EQ(at.stages, 12);  // int axes round to nearest
    EXPECT_EQ(at.resistance, base.resistance);
    EXPECT_THROW((void)binder.at({30.0}), util::PreconditionError);
}

// ---------------------------------------------------------------------------
// FamilyBuilder.
// ---------------------------------------------------------------------------

TEST(FamilyBuilder, ZeroAxisSpaceIsATypedError) {
    pmor::FamilyDesign design;
    design.family_id = "empty";
    design.build_system = [](const Point&) {
        return circuits::current_source_line({}).to_qldae();
    };
    design.system_key = [](const Point&) { return std::string("k"); };
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive();
    opt.tol = 1e-2;
    EXPECT_THROW(pmor::FamilyBuilder(design, opt), util::PreconditionError);
}

TEST(FamilyBuilder, CoversTheTrainingGridWithinBudget) {
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive();
    opt.tol = 1e-2;
    opt.training_grid_per_dim = 5;
    opt.max_members = 5;  // one per training point at worst: convergence guaranteed
    const pmor::FamilyBuildResult result = core::build_family(nltl_design(), opt);
    const rom::Family& fam = result.family;

    EXPECT_TRUE(fam.converged);
    EXPECT_LE(fam.max_training_error, opt.tol);
    EXPECT_EQ(fam.cells.size(), 5u);
    EXPECT_GE(fam.members.size(), 1u);
    EXPECT_LE(static_cast<int>(fam.members.size()), opt.max_members);
    for (const rom::CoverageCell& cell : fam.cells) {
        ASSERT_GE(cell.best, 0);
        EXPECT_LE(cell.best_error, opt.tol);
    }
    for (const rom::FamilyMember& m : fam.members) {
        EXPECT_EQ(m.model.provenance.method, "adaptive");
        EXPECT_LE(m.certified_error, opt.tol);
    }
    // The greedy history never worsens: each inserted member only lowers
    // per-candidate minima.
    for (std::size_t i = 1; i < result.error_history.size(); ++i)
        EXPECT_LE(result.error_history[i], result.error_history[i - 1] + 1e-15);
    EXPECT_EQ(result.stats.candidates, 5);
    EXPECT_EQ(result.stats.members_built, static_cast<int>(fam.members.size()));

    // Bounding estimator residency (evict + rebuild every column) changes
    // memory, never results: the family is identical under the tightest
    // possible bound.
    pmor::FamilyBuildOptions bounded = opt;
    bounded.max_resident_estimators = 1;
    const rom::Family refam = core::build_family(nltl_design(), bounded).family;
    ASSERT_EQ(refam.members.size(), fam.members.size());
    EXPECT_EQ(refam.max_training_error, fam.max_training_error);
    for (std::size_t c = 0; c < fam.cells.size(); ++c) {
        EXPECT_EQ(refam.cells[c].best, fam.cells[c].best);
        EXPECT_EQ(refam.cells[c].best_error, fam.cells[c].best_error);
    }
}

TEST(FamilyBuilder, BuildsThroughTheRegistrySingleFlight) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "atmor_pmor_registry").string();
    std::filesystem::remove_all(dir);
    rom::RegistryOptions ropt;
    ropt.artifact_dir = dir;
    auto registry = std::make_shared<rom::Registry>(ropt);

    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive();
    opt.tol = 1e-2;
    opt.training_grid_per_dim = 3;
    opt.max_members = 3;
    opt.registry = registry;
    const pmor::FamilyBuildResult first = core::build_family(nltl_design(), opt);
    const long builds_after_first = registry->stats().builds;
    EXPECT_EQ(builds_after_first, static_cast<long>(first.family.members.size()));

    // A second identical family build resolves every member from the
    // registry (memory tier) instead of reducing again.
    const pmor::FamilyBuildResult second = core::build_family(nltl_design(), opt);
    EXPECT_EQ(registry->stats().builds, builds_after_first);
    EXPECT_EQ(second.family.members.size(), first.family.members.size());
    std::filesystem::remove_all(dir);
}

TEST(FamilyBuilder, MemberKeyIsStableAndAccuracyTagged) {
    const pmor::FamilyDesign design = nltl_design();
    const mor::AdaptiveOptions a = fast_adaptive();
    const std::string k = pmor::member_key(design, a, {40.0});
    EXPECT_NE(k.find("nltl_current:"), std::string::npos);
    EXPECT_NE(k.find("alpha=40"), std::string::npos);  // NltlOptions::key at the point
    EXPECT_NE(k.find("adaptive(tol="), std::string::npos);
    mor::AdaptiveOptions tighter = a;
    tighter.tol = a.tol / 10.0;
    EXPECT_NE(pmor::member_key(design, tighter, {40.0}), k);
}

// ---------------------------------------------------------------------------
// Family artifact round-trip (io format v3).
// ---------------------------------------------------------------------------

rom::Family build_small_family(double tol = 1e-2) {
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive();
    opt.tol = tol;
    opt.training_grid_per_dim = 3;
    opt.max_members = 3;
    return core::build_family(nltl_design(), opt).family;
}

TEST(FamilyIo, SaveLoadRoundTripIsExact) {
    const rom::Family fam = build_small_family();
    const std::string path =
        (std::filesystem::temp_directory_path() / "atmor_family.atmor-fam").string();
    rom::save_family(fam, path);
    const rom::Family loaded = rom::load_family(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.family_id, fam.family_id);
    EXPECT_EQ(loaded.tol, fam.tol);
    EXPECT_EQ(loaded.training_grid_per_dim, fam.training_grid_per_dim);
    EXPECT_EQ(loaded.max_training_error, fam.max_training_error);
    EXPECT_EQ(loaded.converged, fam.converged);
    ASSERT_EQ(loaded.space.dims(), fam.space.dims());
    for (int d = 0; d < fam.space.dims(); ++d) {
        EXPECT_EQ(loaded.space.descriptor(d).name, fam.space.descriptor(d).name);
        EXPECT_EQ(loaded.space.descriptor(d).min, fam.space.descriptor(d).min);
        EXPECT_EQ(loaded.space.descriptor(d).max, fam.space.descriptor(d).max);
        EXPECT_EQ(loaded.space.descriptor(d).scale, fam.space.descriptor(d).scale);
    }
    ASSERT_EQ(loaded.members.size(), fam.members.size());
    for (std::size_t m = 0; m < fam.members.size(); ++m) {
        EXPECT_EQ(loaded.members[m].coords, fam.members[m].coords);
        EXPECT_EQ(loaded.members[m].certified_error, fam.members[m].certified_error);
        EXPECT_EQ(loaded.members[m].coverage_radius, fam.members[m].coverage_radius);
        EXPECT_EQ(loaded.members[m].model.provenance.basis_hash,
                  fam.members[m].model.provenance.basis_hash);
        EXPECT_EQ(loaded.members[m].model.order, fam.members[m].model.order);
    }
    ASSERT_EQ(loaded.cells.size(), fam.cells.size());
    for (std::size_t c = 0; c < fam.cells.size(); ++c) {
        EXPECT_EQ(loaded.cells[c].coords, fam.cells[c].coords);
        EXPECT_EQ(loaded.cells[c].best, fam.cells[c].best);
        EXPECT_EQ(loaded.cells[c].best_error, fam.cells[c].best_error);
        EXPECT_EQ(loaded.cells[c].second, fam.cells[c].second);
        EXPECT_EQ(loaded.cells[c].second_error, fam.cells[c].second_error);
    }
}

TEST(FamilyIo, KindTagsKeepModelAndFamilyArtifactsApart) {
    const rom::Family fam = build_small_family();
    const std::string family_bytes = rom::serialize_family(fam);
    // A family artifact fed to the model loader is a typed corrupt error,
    // not a misparse.
    try {
        (void)rom::deserialize_model(family_bytes);
        FAIL() << "expected IoError";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::corrupt);
    }
    // And vice versa.
    const std::string model_bytes = rom::serialize_model(fam.members.front().model);
    try {
        (void)rom::deserialize_family(model_bytes);
        FAIL() << "expected IoError";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::corrupt);
    }
    // Pre-v3 artifacts cannot hold families: forging the family payload
    // into a v2 frame is rejected outright.
    try {
        (void)rom::deserialize_family(rom::frame(rom::unframe(family_bytes), 2));
        FAIL() << "expected IoError";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::corrupt);
    }
}

// ---------------------------------------------------------------------------
// Parametric serving.
// ---------------------------------------------------------------------------

TEST(ServeParametric, CertifiedMemberPathServesWithCellCertificate) {
    const rom::Family fam = build_small_family();
    ASSERT_TRUE(fam.converged);
    auto engine = rom::ServeEngine(std::make_shared<rom::Registry>());
    engine.host_family(fam);
    std::vector<Complex> grid;
    for (int g = 1; g <= 8; ++g) grid.emplace_back(0.0, 0.25 * g);

    const Point query{fam.cells[1].coords};  // exactly on a training cell
    const rom::ServeResponse ans = serve_ok(engine, parametric_request(fam.family_id, query, grid));
    EXPECT_FALSE(ans.fallback);
    EXPECT_EQ(ans.member, fam.cells[1].best);
    EXPECT_EQ(ans.blended_with, -1);
    EXPECT_EQ(ans.response.size(), grid.size());
    EXPECT_LE(ans.certificate.estimated_error, fam.tol);
    EXPECT_EQ(ans.certificate.estimated_error, fam.cells[1].best_error);
    EXPECT_EQ(ans.certificate.tol, fam.tol);
    EXPECT_EQ(ans.certificate.method, "adaptive");

    // The served response IS the member ROM's output H1 sweep.
    const rom::FamilyMember& m = fam.members[static_cast<std::size_t>(ans.member)];
    const volterra::TransferEvaluator te(m.model.rom);
    const std::vector<la::ZMatrix> expected = te.output_h1_sweep(grid);
    for (std::size_t g = 0; g < grid.size(); ++g)
        EXPECT_EQ(ans.response[g](0, 0), expected[g](0, 0));

    const rom::ServeStats stats = engine.stats();
    EXPECT_EQ(stats.parametric_queries, 1);
    EXPECT_EQ(stats.parametric_fallbacks, 0);
}

TEST(ServeParametric, BlendingMixesTwoCertifiedMembers) {
    // Seed members at both ends with a deliberately loose family tol (the
    // cross error between far-apart diode laws is O(1)): every cell is
    // certified by both members, so blending always has a runner-up.
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive();
    opt.tol = 10.0;
    opt.training_grid_per_dim = 3;
    opt.max_members = 2;
    opt.initial_points = {Point{20.0}, Point{60.0}};
    const rom::Family fam = core::build_family(nltl_design(), opt).family;
    ASSERT_EQ(fam.members.size(), 2u);

    auto engine = rom::ServeEngine(std::make_shared<rom::Registry>());
    engine.host_family(fam);
    const std::vector<Complex> grid{Complex(0.0, 0.5), Complex(0.0, 1.0)};
    const Point query{40.0};  // between the members

    const rom::ServeResponse ans =
        serve_ok(engine, parametric_request(fam.family_id, query, grid, 0.0, /*blend=*/true));
    ASSERT_FALSE(ans.fallback);
    ASSERT_GE(ans.blended_with, 0);
    EXPECT_NE(ans.member, ans.blended_with);
    EXPECT_GT(ans.blend_weight, 0.0);
    EXPECT_LT(ans.blend_weight, 1.0);

    // The blend is the convex combination of the two members' sweeps.
    const auto sweep = [&](int idx) {
        const volterra::TransferEvaluator te(
            fam.members[static_cast<std::size_t>(idx)].model.rom);
        return te.output_h1_sweep(grid);
    };
    const std::vector<la::ZMatrix> a = sweep(ans.member);
    const std::vector<la::ZMatrix> b = sweep(ans.blended_with);
    for (std::size_t g = 0; g < grid.size(); ++g) {
        const Complex expected =
            ans.blend_weight * a[g](0, 0) + (1.0 - ans.blend_weight) * b[g](0, 0);
        EXPECT_NEAR(std::abs(ans.response[g](0, 0) - expected), 0.0, 1e-14);
    }
    // Certificate covers both blended members.
    const int cell = fam.locate(query);
    ASSERT_GE(cell, 0);
    EXPECT_EQ(ans.certificate.estimated_error,
              std::max(fam.cells[static_cast<std::size_t>(cell)].best_error,
                       fam.cells[static_cast<std::size_t>(cell)].second_error));
    EXPECT_EQ(engine.stats().parametric_blended, 1);
}

/// A family no member of which certifies anything (an impossible
/// tolerance), so every query is a rejection.
rom::Family uncoverable_family() {
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive(1e-13);
    opt.tol = 1e-13;
    opt.training_grid_per_dim = 3;
    opt.max_members = 1;
    return core::build_family(nltl_design(), opt).family;
}

/// Host defaults whose fallback builds a dedicated adaptive model.
rom::ParametricOptions adaptive_fallback(const pmor::FamilyDesign& design) {
    rom::ParametricOptions popt;
    popt.fallback_build = [design](const Point& p) {
        mor::AdaptiveResult r = mor::reduce_adaptive(design.build_system(p), fast_adaptive());
        return std::move(r.model);
    };
    return popt;
}

TEST(ServeParametric, UncoveredQueryRoutesToFallbackBuildOnce) {
    const rom::Family fam = uncoverable_family();
    ASSERT_FALSE(fam.converged);

    auto registry = std::make_shared<rom::Registry>();
    rom::ServeEngine engine(registry);
    const std::vector<Complex> grid{Complex(0.0, 1.0)};
    const Point query{33.0};
    const auto query_at_tol = [&](double tol) {
        return serve_ok(engine, parametric_request(fam.family_id, query, grid, tol));
    };

    // Hosted without a fallback builder, the rejection is a typed error.
    engine.host_family(fam);
    EXPECT_EQ(engine.serve(parametric_request(fam.family_id, query, grid)).error.code,
              util::ErrorCode::precondition);

    const pmor::FamilyDesign design = nltl_design();
    const rom::ParametricOptions popt = adaptive_fallback(design);
    engine.host_family(fam, popt);
    const rom::ServeResponse ans = query_at_tol(0.0);
    EXPECT_TRUE(ans.fallback);
    EXPECT_EQ(ans.member, -1);
    // The fallback certificate is the freshly built model's own a-posteriori
    // estimate (the on-demand adaptive run converged to ITS tolerance).
    EXPECT_GT(ans.certificate.estimated_error, 0.0);
    EXPECT_LE(ans.certificate.estimated_error, fast_adaptive().tol);
    EXPECT_EQ(registry->stats().builds, 1);

    // The same uncovered point served again resolves from the registry.
    (void)query_at_tol(0.0);
    EXPECT_EQ(registry->stats().builds, 1);
    rom::ServeStats stats = engine.stats();
    EXPECT_EQ(stats.parametric_queries, 2);
    EXPECT_EQ(stats.parametric_fallbacks, 2);
    // Parametric traffic must NOT masquerade as keyed frequency sweeps.
    EXPECT_EQ(stats.frequency_queries, 0);

    // A DIFFERENT effective tolerance at the same point is a different
    // fallback key: the looser cached model must not be silently reused
    // (both tolerances here sit below anything a member certifies, so both
    // queries take the rejection path).
    (void)query_at_tol(1e-5);
    EXPECT_EQ(registry->stats().builds, 2);

    // With an explicit fallback_key the host opts back into sharing
    // (e.g. pmor::member_key when the builder's accuracy is fixed).
    rom::ParametricOptions keyed = popt;
    keyed.fallback_key = [&](const Point& p) {
        return pmor::member_key(design, fast_adaptive(), p);
    };
    engine.host_family(fam, keyed);
    (void)query_at_tol(1e-5);
    const long builds_after_keyed = registry->stats().builds;
    (void)query_at_tol(1e-6);  // different tol, same keyed builder accuracy: shared
    EXPECT_EQ(registry->stats().builds, builds_after_keyed);
}

TEST(ServeParametric, AllowFallbackGatesTheHostFallback) {
    const rom::Family fam = uncoverable_family();
    auto registry = std::make_shared<rom::Registry>();
    rom::ServeEngine engine(registry);
    engine.host_family(fam, adaptive_fallback(nltl_design()));
    const std::vector<Complex> grid{Complex(0.0, 1.0)};
    const Point query{47.0};

    // allow_fallback = false disables the host's fallback: a typed
    // rejection, and nothing is built.
    const rom::ServeResponse denied = engine.serve(
        parametric_request(fam.family_id, query, grid, 0.0, false, /*allow_fallback=*/false));
    EXPECT_EQ(denied.error.code, util::ErrorCode::precondition);
    EXPECT_NE(denied.error.message.find("disallows the fallback"), std::string::npos)
        << denied.error.message;
    EXPECT_EQ(registry->stats().builds, 0);
    EXPECT_EQ(engine.stats().parametric_fallbacks, 0);

    // allow_fallback = true (the default) takes the host's fallback build.
    const rom::ServeResponse allowed =
        serve_ok(engine, parametric_request(fam.family_id, query, grid));
    EXPECT_TRUE(allowed.fallback);
    EXPECT_EQ(allowed.member, -1);
    EXPECT_EQ(allowed.response.size(), grid.size());
    EXPECT_EQ(registry->stats().builds, 1);
}

TEST(ServeParametric, EmptyInputsAreTypedErrors) {
    const rom::Family fam = build_small_family();
    auto engine = rom::ServeEngine(std::make_shared<rom::Registry>());
    engine.host_family(fam);
    const auto error = [&engine](const std::string& id, Point coords,
                                 std::vector<Complex> grid) {
        return engine.serve(parametric_request(id, std::move(coords), std::move(grid))).error;
    };
    const auto code = [&error](const std::string& id, Point coords, std::vector<Complex> grid) {
        return error(id, std::move(coords), std::move(grid)).code;
    };
    const util::ErrorCode precondition = util::ErrorCode::precondition;
    // Empty frequency grid.
    EXPECT_EQ(code(fam.family_id, {40.0}, {}), precondition);
    // Point outside the box / wrong arity.
    const std::vector<Complex> grid{Complex(0.0, 1.0)};
    EXPECT_EQ(code(fam.family_id, {19.0}, grid), precondition);
    EXPECT_EQ(code(fam.family_id, {40.0, 1.0}, grid), precondition);
    // Empty family.
    rom::Family empty;
    empty.family_id = "empty";
    engine.host_family(empty);
    const rom::ServeError empty_error = error("empty", {}, grid);
    EXPECT_EQ(empty_error.code, precondition);
    EXPECT_NE(empty_error.message.find("family is empty"), std::string::npos)
        << empty_error.message;
    // A hand-built family whose coverage table references a missing member
    // is a typed error too, never an out-of-bounds read (load_family guards
    // this invariant on disk; the serve path guards it for aggregates).
    rom::Family bogus = fam;
    bogus.family_id = "bogus";
    bogus.cells.front().best = static_cast<int>(bogus.members.size()) + 3;
    engine.host_family(bogus);
    const rom::ServeError bogus_error = error("bogus", bogus.cells.front().coords, grid);
    EXPECT_EQ(bogus_error.code, precondition);
    EXPECT_NE(bogus_error.message.find("references a missing member"), std::string::npos)
        << bogus_error.message;
    EXPECT_EQ(engine.stats().parametric_queries, 0);
}

TEST(ServeParametric, ServingSurvivesTheArtifactRoundTrip) {
    const rom::Family fam = build_small_family();
    const std::string path =
        (std::filesystem::temp_directory_path() / "atmor_family_serve.atmor-fam").string();
    rom::save_family(fam, path);
    const rom::Family loaded = rom::load_family(path);
    std::remove(path.c_str());

    // SEPARATE engines: the member-state cache keys on family id + basis
    // hash, so serving both families through one engine would replay the
    // original family's evaluators and never touch the deserialized models.
    rom::ServeEngine original_engine(std::make_shared<rom::Registry>());
    rom::ServeEngine loaded_engine(std::make_shared<rom::Registry>());
    original_engine.host_family(fam);
    loaded_engine.host_family(loaded);
    const std::vector<Complex> grid{Complex(0.0, 0.5), Complex(0.0, 1.5)};
    const Point query = fam.space.center();
    const rom::ServeResponse a =
        serve_ok(original_engine, parametric_request(fam.family_id, query, grid));
    const rom::ServeResponse b =
        serve_ok(loaded_engine, parametric_request(loaded.family_id, query, grid));
    EXPECT_EQ(a.member, b.member);
    EXPECT_EQ(a.fallback, b.fallback);
    EXPECT_EQ(a.certificate.estimated_error, b.certificate.estimated_error);
    // Bit-exact artifact => bit-exact served response.
    for (std::size_t g = 0; g < grid.size(); ++g)
        EXPECT_EQ(a.response[g](0, 0), b.response[g](0, 0));
}

}  // namespace
}  // namespace atmor
