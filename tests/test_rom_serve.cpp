// rom::ServeEngine: the online path. A warm engine must answer concurrent
// frequency-sweep and transient queries with ZERO reductions and ZERO
// full-order factorisations -- asserted through the registry/backend
// counters, exactly as the acceptance criterion demands. Models are made
// resident with ServeEngine::model and then served by key through serve().
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/atmor.hpp"
#include "ode/transient.hpp"
#include "rom/serve_engine.hpp"
#include "test_qldae_helpers.hpp"
#include "test_serve_helpers.hpp"
#include "util/rng.hpp"
#include "volterra/transfer.hpp"

namespace atmor {
namespace {

using rom::WaveformSpec;
using test::serve_ok;
using test::sweep_request;
using test::transient_request;

constexpr int kFullOrder = 16;

volterra::Qldae full_system() {
    util::Rng rng(11);
    test::QldaeOptions qopt;
    qopt.n = kFullOrder;
    qopt.nl_scale = 0.05;  // mild nonlinearity: frozen-Jacobian Newton converges
    return test::random_qldae(qopt, rng);
}

struct Fixture {
    volterra::Qldae sys = full_system();
    std::shared_ptr<rom::Registry> registry = std::make_shared<rom::Registry>();
    rom::ServeEngine engine{registry};
    std::atomic<int> builds{0};

    rom::Registry::Builder builder() {
        return [this] {
            ++builds;
            core::AtMorOptions mor;
            mor.k1 = 4;
            mor.k2 = 2;
            mor.k3 = 0;
            core::MorResult r = core::reduce_associated(sys, mor);
            r.provenance.source = "test:serve";
            return r;
        };
    }
};

TEST(RomServe, FrequencyResponseMatchesDirectEvaluation) {
    Fixture f;
    std::vector<la::Complex> grid;
    for (int g = 0; g < 6; ++g) grid.emplace_back(0.0, 0.3 * (g + 1));
    const auto model = f.engine.model("m", f.builder());
    const auto swept = serve_ok(f.engine, sweep_request("m", grid)).response;
    const volterra::TransferEvaluator te(model->rom);
    ASSERT_EQ(swept.size(), grid.size());
    for (std::size_t g = 0; g < grid.size(); ++g) {
        const la::ZMatrix direct = te.output_h1(grid[g]);
        for (int i = 0; i < direct.rows(); ++i)
            for (int j = 0; j < direct.cols(); ++j)
                EXPECT_LT(std::abs(swept[g](i, j) - direct(i, j)), 1e-12);
    }
    EXPECT_EQ(f.builds.load(), 1);
}

TEST(RomServe, TransientBatchTracksTheRom) {
    Fixture f;
    ode::TransientOptions topt;
    topt.t_end = 0.5;
    topt.dt = 1e-2;
    topt.method = ode::Method::trapezoidal;
    const std::vector<WaveformSpec> inputs = {WaveformSpec::sine(0.05, 1.0),
                                              WaveformSpec::step(0.05, 0.1)};
    const auto model = f.engine.model("m", f.builder());
    const auto served = serve_ok(f.engine, transient_request("m", inputs, topt)).transients;
    ASSERT_EQ(served.size(), inputs.size());

    // Reference: the same waveforms simulated directly on the ROM (fresh
    // Jacobian). The engine's zero-state warm start is a different but
    // equally converged Newton path, so compare within the Newton tolerance
    // headroom rather than bitwise.
    for (std::size_t w = 0; w < inputs.size(); ++w) {
        const auto direct = ode::simulate(model->rom, inputs[w].instantiate(), topt);
        ASSERT_EQ(served[w].t.size(), direct.t.size());
        EXPECT_LT(ode::peak_relative_error(direct, served[w]), 1e-7);
    }
    EXPECT_EQ(f.builds.load(), 1);
}

TEST(RomServe, WarmEngineServesConcurrentlyWithZeroFullOrderWork) {
    Fixture f;
    std::vector<la::Complex> grid;
    for (int g = 0; g < 8; ++g) grid.emplace_back(0.0, 0.25 * (g + 1));
    ode::TransientOptions topt;
    topt.t_end = 0.4;
    topt.dt = 1e-2;
    topt.method = ode::Method::trapezoidal;

    // Warm up: one build, one warm Jacobian stamp, factor caches filled.
    const int rom_order = f.engine.model("m", f.builder())->order;
    (void)serve_ok(f.engine, sweep_request("m", grid));
    (void)serve_ok(f.engine, transient_request("m", {WaveformSpec::sine(0.05, 1.0)}, topt));
    const rom::ServeStats warm = f.engine.stats();
    ASSERT_LT(rom_order, kFullOrder);

    // Concurrent mixed queries against the warm engine.
    constexpr int kThreads = 6;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            if (t % 2 == 0) {
                (void)serve_ok(f.engine, sweep_request("m", grid));
            } else {
                (void)serve_ok(f.engine,
                               transient_request(
                                   "m", {WaveformSpec::sine(0.04 + 0.01 * t, 1.0)}, topt));
            }
        });
    for (auto& t : threads) t.join();

    const rom::ServeStats stats = f.engine.stats();
    // Zero reductions while warm...
    EXPECT_EQ(f.builds.load(), 1);
    EXPECT_EQ(stats.registry.builds, 1);
    EXPECT_EQ(stats.registry.builds, warm.registry.builds);
    // ...zero full-order factorisations EVER inside the engine (the serving
    // backends never see the full system)...
    EXPECT_LE(stats.solver.max_factor_dim, rom_order);
    // ...and the repeated grid replays the factor caches instead of
    // refactoring: no new cached-path misses after warm-up.
    EXPECT_EQ(stats.solver.cache_misses, warm.solver.cache_misses);
    EXPECT_GT(stats.solver.cache_hits, warm.solver.cache_hits);
    // Latency accounting saw every query.
    EXPECT_EQ(stats.frequency_queries, 1 + kThreads / 2);
    EXPECT_EQ(stats.transient_queries, 1 + kThreads / 2);
    EXPECT_GT(stats.busy_seconds, 0.0);
}

TEST(RomServe, WarmJacobianIsReplayedAcrossBatches) {
    Fixture f;
    ode::TransientOptions topt;
    topt.t_end = 0.4;
    topt.dt = 1e-2;
    topt.method = ode::Method::trapezoidal;
    (void)f.engine.model("m", f.builder());
    const auto batch = [&f, &topt](double amplitude) {
        (void)serve_ok(f.engine,
                       transient_request("m", {WaveformSpec::sine(amplitude, 1.0)}, topt));
    };
    batch(0.05);
    const long after_first = f.engine.stats().solver.factorizations;
    for (int rep = 0; rep < 3; ++rep) batch(0.05 + 0.01 * rep);
    // The mild waveforms converge on the frozen warm Jacobian, so replayed
    // batches add ZERO factorisations.
    EXPECT_EQ(f.engine.stats().solver.factorizations, after_first);

    // A different step size gets its own warm start: exactly one restamp...
    topt.dt = 5e-3;
    batch(0.05);
    EXPECT_EQ(f.engine.stats().solver.factorizations, after_first + 1);
    // ...and alternating between the two configurations replays BOTH (the
    // per-configuration warm map; a single slot would restamp every switch).
    for (int rep = 0; rep < 3; ++rep) {
        topt.dt = (rep % 2 == 0) ? 1e-2 : 5e-3;
        batch(0.05);
    }
    EXPECT_EQ(f.engine.stats().solver.factorizations, after_first + 1);
}

TEST(RomServe, EmptyQueriesAreTypedErrors) {
    // An empty waveform batch or frequency grid is a caller bug surfaced as
    // a typed precondition error, never a silent empty answer (and never a
    // registry resolution / model build).
    Fixture f;
    ode::TransientOptions topt;
    topt.t_end = 0.4;
    topt.dt = 1e-2;
    EXPECT_EQ(f.engine.serve(transient_request("m", {}, topt)).error.code,
              util::ErrorCode::precondition);
    EXPECT_EQ(f.engine.serve(sweep_request("m", {})).error.code, util::ErrorCode::precondition);
    EXPECT_EQ(f.builds.load(), 0);
    EXPECT_EQ(f.engine.stats().registry.lookups, 0);
    EXPECT_EQ(f.engine.stats().transient_queries, 0);
    EXPECT_EQ(f.engine.stats().frequency_queries, 0);
}

TEST(RomServe, RegistryEvictedModelStillResidentServesByKey) {
    // Nine keys through a default registry (8 models in memory) evict the
    // first from the registry while the engine still holds its state. A
    // by-key re-serve must answer from that state: no rebuild, no new
    // factorisation at the shifts it already cached.
    Fixture f;
    ASSERT_EQ(f.registry->options().max_memory_models, 8u);
    const std::vector<la::Complex> grid = {{0.0, 0.5}, {0.0, 1.5}};
    std::vector<std::vector<la::ZMatrix>> first(9);
    for (int k = 0; k < 9; ++k) {
        const std::string key = "m" + std::to_string(k);
        (void)f.engine.model(key, f.builder());
        first[static_cast<std::size_t>(k)] = serve_ok(f.engine, sweep_request(key, grid)).response;
    }
    ASSERT_EQ(f.registry->cached("m0"), nullptr) << "m0 must have left the registry";
    const rom::ServeStats before = f.engine.stats();
    ASSERT_EQ(before.registry.builds, 9);

    const rom::ServeResponse again = serve_ok(f.engine, sweep_request("m0", grid));
    const rom::ServeStats after = f.engine.stats();
    EXPECT_EQ(after.registry.builds, 9);
    EXPECT_EQ(f.builds.load(), 9);
    EXPECT_EQ(after.solver.factorizations, before.solver.factorizations);
    EXPECT_EQ(after.solver.cache_misses, before.solver.cache_misses);
    ASSERT_EQ(again.response.size(), grid.size());
    for (std::size_t g = 0; g < grid.size(); ++g)
        EXPECT_EQ(la::max_abs(again.response[g] - first[0][g]), 0.0);

    // A key neither the registry nor the engine holds stays unresolved.
    EXPECT_EQ(f.engine.serve(sweep_request("never-built", grid)).error.code,
              util::ErrorCode::serve_unresolved);

    // A registry hit with a different instance still replaces the state: the
    // rebuilt m0 serves from a fresh state, which factors its shifts anew.
    (void)f.registry->get_or_build("m0", f.builder());
    EXPECT_EQ(f.builds.load(), 10);
    (void)serve_ok(f.engine, sweep_request("m0", grid));
    EXPECT_GT(f.engine.stats().solver.cache_misses, after.solver.cache_misses);
}

}  // namespace
}  // namespace atmor
