// Concurrency contracts of the sharded rom::ServeEngine (run under TSan in
// CI): a mixed 8-thread query storm over shared and distinct models must
// produce answers BIT-IDENTICAL to serial replay, cross-request coalescing
// must merge concurrent sweeps without losing or double-counting a single
// per-request stat, and a slow single-flight build must never hold a lock
// that blocks warm serves of already-resident models.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/atmor.hpp"
#include "ode/transient.hpp"
#include "rom/serve_engine.hpp"
#include "test_qldae_helpers.hpp"
#include "test_serve_helpers.hpp"
#include "util/rng.hpp"

namespace atmor {
namespace {

using test::serve_ok;
using test::sweep_request;

constexpr int kFullOrder = 16;
constexpr int kThreads = 8;

volterra::Qldae full_system() {
    util::Rng rng(23);
    test::QldaeOptions qopt;
    qopt.n = kFullOrder;
    qopt.nl_scale = 0.05;
    return test::random_qldae(qopt, rng);
}

struct Fixture {
    volterra::Qldae sys = full_system();
    std::shared_ptr<rom::Registry> registry = std::make_shared<rom::Registry>();
    std::atomic<int> builds{0};

    rom::Registry::Builder builder(int seed_point = 0) {
        return [this, seed_point] {
            ++builds;
            core::AtMorOptions mor;
            mor.k1 = 4;
            mor.k2 = 2;
            mor.k3 = 0;
            mor.expansion_points = {la::Complex(1.0 + 0.2 * seed_point, 0.0)};
            core::MorResult r = core::reduce_associated(sys, mor);
            r.provenance.source = "test:concurrent";
            return r;
        };
    }
};

/// Four 8-point grids with pairwise overlap, so coalesced batches have
/// shared shifts to dedup AND private shifts to scatter.
std::vector<std::vector<la::Complex>> overlapping_grids() {
    std::vector<std::vector<la::Complex>> grids(4);
    for (int g = 0; g < 4; ++g)
        for (int j = 0; j < 8; ++j)
            grids[static_cast<std::size_t>(g)].emplace_back(0.0, 0.25 * (j + 1 + g));
    return grids;
}

bool identical(const std::vector<la::ZMatrix>& a, const std::vector<la::ZMatrix>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t g = 0; g < a.size(); ++g) {
        if (a[g].rows() != b[g].rows() || a[g].cols() != b[g].cols()) return false;
        for (int r = 0; r < a[g].rows(); ++r)
            for (int c = 0; c < a[g].cols(); ++c)
                if (a[g](r, c) != b[g](r, c)) return false;
    }
    return true;
}

/// Release-together start gate: every worker parks on the shared future and
/// main releases them only once all are parked, so the storm actually
/// overlaps instead of serialising on thread-spawn latency.
struct StartGate {
    std::promise<void> open;
    std::shared_future<void> go = open.get_future().share();
    std::atomic<int> parked{0};

    void wait() {
        parked.fetch_add(1);
        go.wait();
    }
    void release(int expected) {
        while (parked.load() < expected) std::this_thread::yield();
        open.set_value();
    }
};

TEST(ServeConcurrent, MixedStressIsBitIdenticalToSerialReplayWithExactStats) {
    Fixture f;
    rom::ServeEngine engine{f.registry};
    const auto grids = overlapping_grids();
    ode::TransientOptions topt;
    topt.t_end = 0.4;
    topt.dt = 1e-2;
    topt.method = ode::Method::trapezoidal;

    // Threads 0-3 hammer ONE shared model (sweeps racing into the
    // coalescer); threads 4-7 each own a distinct model (shard
    // independence). Odd threads add transient batches on the same keys, so
    // the warm-start map and the sweep path race on the same ModelState.
    constexpr int kReps = 4;
    const auto key_of = [](int t) {
        return t < 4 ? std::string("hot") : "m" + std::to_string(t);
    };
    std::vector<std::vector<std::vector<la::ZMatrix>>> answers(
        kThreads, std::vector<std::vector<la::ZMatrix>>(kReps));
    StartGate gate;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            gate.wait();
            // The four "hot" threads race into one single-flight build.
            (void)engine.model(key_of(t), f.builder(t < 4 ? 0 : t));
            for (int rep = 0; rep < kReps; ++rep) {
                answers[static_cast<std::size_t>(t)][static_cast<std::size_t>(rep)] =
                    serve_ok(engine,
                             sweep_request(key_of(t),
                                           grids[static_cast<std::size_t>((t + rep) % 4)]))
                        .response;
                if (t % 2 == 1)
                    (void)serve_ok(engine,
                                   test::transient_request(
                                       key_of(t), {rom::WaveformSpec::sine(0.03 + 0.01 * t, 1.0)},
                                       topt));
            }
        });
    gate.release(kThreads);
    for (std::thread& th : threads) th.join();

    // Bit-identity: a fresh engine over the SAME registry (same model
    // instances) replays every request serially; coalescing and shard
    // scheduling must not have changed a single bit.
    rom::ServeEngine serial{f.registry};
    for (int t = 0; t < kThreads; ++t)
        for (int rep = 0; rep < kReps; ++rep)
            EXPECT_TRUE(identical(
                answers[static_cast<std::size_t>(t)][static_cast<std::size_t>(rep)],
                serve_ok(serial,
                         sweep_request(key_of(t), grids[static_cast<std::size_t>((t + rep) % 4)]))
                    .response))
                << "thread " << t << " rep " << rep;

    // Exact accounting: coalescing must neither lose nor double-count a
    // request. Every sweep grid has 8 points; 4 odd threads ran kReps
    // transient batches of one waveform each.
    const rom::ServeStats stats = engine.stats();
    EXPECT_EQ(stats.frequency_queries, kThreads * kReps);
    EXPECT_EQ(stats.frequency_points, kThreads * kReps * 8);
    EXPECT_EQ(stats.transient_queries, 4 * kReps);
    EXPECT_EQ(stats.transient_waveforms, 4 * kReps);
    EXPECT_GT(stats.busy_seconds, 0.0);
    EXPECT_GT(stats.max_query_seconds, 0.0);
    // Single-flight: 5 distinct keys -> exactly 5 builds despite 4 threads
    // racing on the shared one.
    EXPECT_EQ(f.builds.load(), 5);
    EXPECT_EQ(stats.registry.builds, 5);
    // Serving never factored above reduced order.
    const int rom_order = serial.model("hot", f.builder(0))->order;
    EXPECT_LE(stats.solver.max_factor_dim, rom_order);
}

TEST(ServeConcurrent, CoalescedBatchesAreEquivalentAndAccounted) {
    Fixture f;
    // A deliberate collection window: the first sweep leader waits 250 ms,
    // so the whole gated storm provably lands in its batch.
    rom::ServeOptions opt;
    opt.coalesce_window_seconds = 0.25;
    rom::ServeEngine engine{f.registry, opt};
    const auto grids = overlapping_grids();
    (void)engine.model("hot", f.builder());  // build outside the timed storm

    std::vector<std::vector<la::ZMatrix>> answers(kThreads);
    StartGate gate;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            gate.wait();
            // Threads 0-5 request grid 0, threads 6-7 grid 1 (7 of its 8
            // points shared with grid 0): the union has 9 unique shifts
            // for 64 requested points when one batch captures the storm.
            answers[static_cast<std::size_t>(t)] =
                serve_ok(engine, sweep_request("hot", grids[t < 6 ? 0 : 1])).response;
        });
    gate.release(kThreads);
    for (std::thread& th : threads) th.join();

    // Equivalence: every thread got exactly the serial answer for ITS grid.
    rom::ServeEngine serial{f.registry};
    for (int t = 0; t < kThreads; ++t)
        EXPECT_TRUE(identical(answers[static_cast<std::size_t>(t)],
                              serve_ok(serial, sweep_request("hot", grids[t < 6 ? 0 : 1]))
                                  .response))
            << "thread " << t;

    const rom::ServeStats stats = engine.stats();
    // All 8 requests accounted at their REQUESTED size...
    EXPECT_EQ(stats.frequency_queries, kThreads);
    EXPECT_EQ(stats.frequency_points, kThreads * 8);
    // ...while the released-together storm demonstrably merged: followers
    // joined a leader's batch and shared shifts were evaluated once. (The
    // exact split depends on scheduling; the gate + 250 ms window make at
    // least one join and one full-grid dedup effectively certain.)
    EXPECT_GE(stats.coalesced_queries, 1);
    EXPECT_GE(stats.coalesced_batches, 1);
    EXPECT_GE(stats.deduped_points, 6);
    EXPECT_EQ(f.builds.load(), 1);
}

TEST(ServeConcurrent, SlowSingleFlightBuildDoesNotBlockWarmServes) {
    Fixture f;
    rom::ServeEngine engine{f.registry};
    std::vector<la::Complex> grid;
    for (int j = 0; j < 6; ++j) grid.emplace_back(0.0, 0.3 * (j + 1));
    (void)engine.model("warm", f.builder());  // make resident

    // A builder that parks mid-build until RELEASED: the latch (not a
    // timing heuristic) proves any lock it held would stall the warm serves
    // issued while it is parked.
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> release_f = release.get_future().share();
    const rom::Registry::Builder slow = [&] {
        entered.set_value();
        release_f.wait();
        core::AtMorOptions mor;
        mor.k1 = 4;
        mor.k2 = 2;
        mor.k3 = 0;
        core::MorResult r = core::reduce_associated(f.sys, mor);
        r.provenance.source = "test:slow";
        return r;
    };
    const auto serve_cold = [&] {
        (void)engine.model("cold", slow);
        (void)serve_ok(engine, sweep_request("cold", grid));
    };
    std::thread cold(serve_cold);
    entered.get_future().wait();  // the build is now in flight and parked

    // Warm serves of the RESIDENT model must complete while the build is
    // parked -- asserted by finishing BEFORE the latch is released.
    for (int q = 0; q < 3; ++q) {
        std::future<std::vector<la::ZMatrix>> warm_answer =
            std::async(std::launch::async,
                       [&] { return serve_ok(engine, sweep_request("warm", grid)).response; });
        ASSERT_EQ(warm_answer.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "warm serve " << q << " stalled behind the in-flight build";
        EXPECT_EQ(warm_answer.get().size(), grid.size());
    }
    // A second tenant joining the in-flight build must also not disturb the
    // warm path: it blocks on the build's future, holding no registry lock.
    std::thread joiner(serve_cold);
    {
        std::future<std::vector<la::ZMatrix>> warm_answer =
            std::async(std::launch::async,
                       [&] { return serve_ok(engine, sweep_request("warm", grid)).response; });
        ASSERT_EQ(warm_answer.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "warm serve stalled behind a coalesced waiter";
    }

    release.set_value();
    cold.join();
    joiner.join();
    // Single flight across both cold tenants: the parked builder ran once
    // (the joiner either coalesced onto it or hit the memory tier after).
    EXPECT_EQ(engine.stats().registry.builds, 2);  // "warm" + one "cold"
}

}  // namespace
}  // namespace atmor
