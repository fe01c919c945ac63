#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuits/nltl.hpp"
#include "circuits/power_grid.hpp"
#include "core/atmor.hpp"
#include "core/projection.hpp"
#include "la/orth.hpp"
#include "la/solver_backend.hpp"
#include "mor/adaptive.hpp"
#include "mor/error_estimator.hpp"
#include "ode/transient.hpp"
#include "pmor/family_builder.hpp"
#include "pmor/param_space.hpp"
#include "volterra/associated.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

using namespace atmor;
using la::Complex;

/// Spans of the decomposed build, one per stage; their self times are the
/// per-layer build metrics. "build" encloses them all.
const char* const kStages[] = {"volterra.transform", "la.schur",      "la.factor",
                               "volterra.h1",        "volterra.a2h2", "volterra.a3h3",
                               "la.orth",            "core.project",  "mor.estimate",
                               "circuits.system"};

/// Peak transient error a certified ROM must stay under on every workload.
constexpr double kRomErrTol = 1e-2;

struct Certified {
    rom::ReducedModel model;
    mor::BandError band;
};

void add_solver_stats(la::SolverStats& into, const la::SolverStats& s) {
    into.factorizations += s.factorizations;
    into.cache_hits += s.cache_hits;
    into.cache_misses += s.cache_misses;
    into.solves += s.solves;
    into.max_factor_dim = std::max(into.max_factor_dim, s.max_factor_dim);
}

/// The la counters of one decomposed build (every backend it used).
void record_solver_counters(Run& run, const la::SolverStats& s) {
    run.counters["la.factorizations"] = static_cast<double>(s.factorizations);
    run.counters["la.solves"] = static_cast<double>(s.solves);
    const long lookups = s.cache_hits + s.cache_misses;
    run.counters["la.cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(s.cache_hits) / static_cast<double>(lookups) : 0.0;
}

/// Raw duration of fn() in a reference bracket; its scale is left in
/// run.norm.last_scale().
template <class Fn>
double timed(Run& run, Fn&& fn) {
    run.norm.mark();
    const auto t0 = Clock::now();
    fn();
    const double raw = seconds_since(t0);
    run.norm.close(raw);
    return raw;
}

/// Moment counts at expansion point p (reduce_associated's rule: the
/// per-point override when given, else the uniform k1/k2/k3).
rom::PointOrder order_for(const core::AtMorOptions& opt, std::size_t p) {
    if (!opt.per_point_orders.empty()) return opt.per_point_orders[p];
    return rom::PointOrder{opt.k1, opt.k2, opt.k3};
}

/// The moment chains, orthogonalisation and projection of
/// core::reduce_associated, one public call per stage, each in its span.
/// Mirrors the library's enumeration order exactly, so the basis (and its
/// hash) must equal reduce_associated's. Points run one after another here
/// (the library fans them out over the pool; the basis is the same).
rom::ReducedModel decomposed_reduce(Run& run, const volterra::AssociatedTransform& at,
                                    const core::AtMorOptions& opt) {
    Tracer& tr = run.tracer;
    const volterra::Qldae& sys = at.system();
    const int n = sys.order();
    const int m = sys.inputs();
    bool kron = false;
    rom::PointOrder kmax{0, 0, 0};
    for (std::size_t p = 0; p < opt.expansion_points.size(); ++p) {
        const rom::PointOrder po = order_for(opt, p);
        kron = kron || po.k2 > 0 || po.k3 > 0;
        kmax.k1 = std::max(kmax.k1, po.k1);
        kmax.k2 = std::max(kmax.k2, po.k2);
        kmax.k3 = std::max(kmax.k3, po.k3);
    }
    {
        auto span = tr.span("la.schur");
        if (kron || n <= core::kEigenGuardMaxOrder) (void)at.schur_g1()->eigenvalues();
    }
    {
        auto span = tr.span("la.factor");
        if (!kron && n > core::kEigenGuardMaxOrder)
            for (const Complex s0 : opt.expansion_points)
                (void)la::shift_pivot_ratio(*at.backend(), sys.g1_op(), s0);
    }
    struct PointMoments {
        std::vector<la::ZMatrix> h1, a2h2, a3h3;
    };
    std::vector<PointMoments> moments(opt.expansion_points.size());
    for (std::size_t p = 0; p < opt.expansion_points.size(); ++p) {
        const Complex s0 = opt.expansion_points[p];
        const rom::PointOrder po = order_for(opt, p);
        {
            auto span = tr.span("volterra.h1");
            moments[p].h1 = at.h1_moments(po.k1, s0);
        }
        {
            auto span = tr.span("volterra.a2h2");
            moments[p].a2h2 = at.a2h2_moments(po.k2, s0);
        }
        {
            auto span = tr.span("volterra.a3h3");
            moments[p].a3h3 = at.a3h3_moments(po.k3, s0);
        }
    }
    la::Matrix v;
    int raw = 0;
    {
        auto span = tr.span("la.orth");
        la::BasisBuilder basis(n, opt.deflation_tol);
        for (const PointMoments& mm : moments) {
            for (const auto& mom : mm.h1) {
                for (int col = 0; col < mom.cols(); ++col, ++raw) basis.stage_complex(mom.col(col));
                basis.flush();
            }
            for (const auto& mom : mm.a2h2) {
                for (int i = 0; i < m; ++i)
                    for (int j = i; j < m; ++j, ++raw) basis.stage_complex(mom.col(i * m + j));
                basis.flush();
            }
            for (const auto& mom : mm.a3h3) {
                for (int i = 0; i < m; ++i)
                    for (int j = i; j < m; ++j)
                        for (int k = j; k < m; ++k, ++raw)
                            basis.stage_complex(mom.col((i * m + j) * m + k));
                basis.flush();
            }
        }
        v = basis.matrix();
    }
    volterra::Qldae reduced = [&] {
        auto span = tr.span("core.project");
        return core::galerkin_reduce(sys, v);
    }();
    rom::ReducedModel model{std::move(reduced), v, 0.0, raw, v.cols(), {}};
    model.provenance.method = kron ? "atmor" : "linear";
    model.provenance.expansion_points = opt.expansion_points;
    model.provenance.k1 = kmax.k1;
    model.provenance.k2 = kmax.k2;
    model.provenance.k3 = kmax.k3;
    model.provenance.point_orders = opt.per_point_orders;
    model.provenance.full_order = n;
    model.provenance.basis_hash = rom::basis_hash(v);
    return model;
}

void certify(Certified& c, const std::vector<Complex>& band) {
    c.model.provenance.band_min = band.front().imag();
    c.model.provenance.band_max = band.back().imag();
    c.model.provenance.estimated_error = c.band.max_rel;
}

/// A certified ROM as a user builds one: reduce_associated with fresh
/// backends, then the a-posteriori band estimate of its H1 error.
Certified library_build(const volterra::Qldae& sys, const core::AtMorOptions& mor,
                        const std::vector<Complex>& band) {
    Certified c{core::reduce_associated(sys, mor), {}};
    const mor::ErrorEstimator est(sys);
    c.band = est.band_error(c.model, band);
    certify(c, band);
    return c;
}

/// The same build through decomposed_reduce, every stage in its span.
Certified decomposed_build(Run& run, const volterra::Qldae& sys,
                           const core::AtMorOptions& mor, const std::vector<Complex>& band) {
    Tracer& tr = run.tracer;
    std::unique_ptr<volterra::AssociatedTransform> at;
    {
        auto span = tr.span("volterra.transform");
        at = std::make_unique<volterra::AssociatedTransform>(sys, mor.backend);
    }
    Certified c{decomposed_reduce(run, *at, mor), {}};
    la::SolverStats solver = at->backend()->stats();
    {
        auto span = tr.span("mor.estimate");
        const mor::ErrorEstimator est(sys);
        c.band = est.band_error(c.model, band);
        add_solver_stats(solver, est.backend()->stats());
    }
    record_solver_counters(run, solver);
    certify(c, band);
    return c;
}

/// mor::reduce_adaptive for a first-order-only configuration (no
/// second-order estimate, no trimming), one public call per stage: reduce,
/// estimate, and insert a point at the worst band frequency (or enrich the
/// nearest point's k1) until the tolerance or the budget is reached.
rom::ReducedModel decomposed_adaptive(Run& run, const volterra::Qldae& sys,
                                      const mor::AdaptiveOptions& opt,
                                      la::SolverStats& solver) {
    Tracer& tr = run.tracer;
    const std::size_t slots = 2 * static_cast<std::size_t>(opt.band_grid) +
                              static_cast<std::size_t>(opt.max_points) + 16;
    std::shared_ptr<la::SolverBackend> backend = std::make_shared<la::SparseLuBackend>(slots);
    std::unique_ptr<volterra::AssociatedTransform> at;
    {
        auto span = tr.span("volterra.transform");
        at = std::make_unique<volterra::AssociatedTransform>(sys, backend);
    }
    const mor::ErrorEstimator est(sys, backend, opt.estimate_mode, false);
    const std::vector<Complex> grid = mor::band_grid(opt);
    const double spacing = (opt.omega_max - opt.omega_min) / static_cast<double>(opt.band_grid - 1);
    const int max_ref = opt.max_refinements > 0 ? opt.max_refinements : 2 * opt.max_points;
    core::AtMorOptions mor;
    mor.expansion_points = {opt.initial_point};
    mor.per_point_orders = {opt.point_order};
    mor.deflation_tol = opt.deflation_tol;
    const auto reduce_and_estimate = [&](mor::BandError& band) {
        rom::ReducedModel model = decomposed_reduce(run, *at, mor);
        auto span = tr.span("mor.estimate");
        band = est.band_error(model, grid);
        return model;
    };
    mor::BandError band;
    rom::ReducedModel model = reduce_and_estimate(band);
    for (int refinements = 0; band.max_rel > opt.tol && refinements < max_ref; ++refinements) {
        const double omega_worst = grid[static_cast<std::size_t>(band.worst_index)].imag();
        std::size_t nearest = 0;
        double nearest_dist = std::abs(mor.expansion_points[0].imag() - omega_worst);
        for (std::size_t p = 1; p < mor.expansion_points.size(); ++p) {
            const double d = std::abs(mor.expansion_points[p].imag() - omega_worst);
            if (d < nearest_dist) {
                nearest_dist = d;
                nearest = p;
            }
        }
        if (nearest_dist > 0.5 * spacing &&
            static_cast<int>(mor.expansion_points.size()) < opt.max_points) {
            mor.expansion_points.emplace_back(opt.insert_real, omega_worst);
            mor.per_point_orders.push_back(opt.point_order);
        } else {
            mor.per_point_orders[nearest].k1 += 1;
        }
        model = reduce_and_estimate(band);
    }
    add_solver_stats(solver, backend->stats());
    return model;
}

/// Record the stage self times of the decomposed build whose spans start
/// at `cursor` and whose raw total is `raw_total`, scaled like the total,
/// and their sum against the library build timed just before.
void record_stages(Run& run, std::size_t cursor, double raw_total) {
    const std::map<std::string, double> self = run.tracer.self_times(cursor);
    const double scale = run.norm.last_scale();
    double staged = 0.0;
    for (const char* stage : kStages) {
        const auto it = self.find(stage);
        const double s = it == self.end() ? 0.0 : it->second;
        staged += s;
        run.stage_s[stage].push_back(s * scale);
    }
    const double library = run.build_s.raw.back() * run.build_s.scale.back();
    run.coverage.push_back(staged * scale / library);
    run.traced_s.add(raw_total, scale);
}

/// Traced runs: the decomposed build `fn` twice, once with spans (its stage
/// self times are recorded) and once with the tracer off, the order
/// alternating from pair to pair, so trace.overhead_pct compares one code
/// path with itself. Returns the traced build's result.
template <class Fn>
auto decomposed_pair(Run& run, Fn&& fn) {
    std::optional<decltype(fn())> traced;
    const auto with_spans = [&] {
        const std::size_t cursor = run.tracer.cursor();
        const double t = timed(run, [&] {
            auto span = run.tracer.span("build");
            traced = fn();
        });
        record_stages(run, cursor, t);
    };
    const auto without_spans = [&] {
        run.tracer.set_enabled(false);
        const double t = timed(run, [&] { (void)fn(); });
        run.tracer.set_enabled(true);
        run.untraced_s.add(t, run.norm.last_scale());
    };
    if (run.traced_pairs++ % 2 == 0) {
        with_spans();
        without_spans();
    } else {
        without_spans();
        with_spans();
    }
    return std::move(*traced);
}

/// The full-order reference transient a ROM is certified against (part of
/// set-up); records the full model's step time.
ode::TransientResult reference_transient(Run& run, const volterra::Qldae& full,
                                         const rom::WaveformSpec& drive,
                                         const ode::TransientOptions& topt) {
    ode::TransientResult yf;
    run.norm.mark();
    {
        auto span = run.tracer.span("ode.full");
        yf = ode::simulate(full, drive.instantiate(), topt);
    }
    run.norm.close(yf.solve_seconds);
    run.full_step_us.add(yf.solve_seconds / static_cast<double>(yf.steps) * 1e6,
                         run.norm.last_scale());
    return yf;
}

/// The ROM transient under the reference's drive; returns its peak
/// relative error against the full-order reference.
double certify_transient(Run& run, const ode::TransientResult& reference,
                         const rom::ReducedModel& m, const rom::WaveformSpec& drive,
                         const ode::TransientOptions& topt) {
    ode::TransientResult yr;
    {
        auto span = run.tracer.span("ode.rom");
        yr = ode::simulate(m.rom, drive.instantiate(), topt);
    }
    const double err = ode::peak_relative_error(reference, yr);
    run.check(std::isfinite(err) && err <= kRomErrTol,
              "ROM transient error " + std::to_string(err) + " <= " + std::to_string(kRomErrTol));
    run.rom_err_max = std::max(run.rom_err_max, err);
    return err;
}

/// `sims` back-to-back ROM transients, each in its own reference bracket
/// (consecutive brackets share a reference timing); one normalised per-step
/// time per transient.
void rom_step_block(Run& run, const volterra::Qldae& rom, const ode::InputFn& u,
                    const ode::TransientOptions& topt, int sims) {
    run.norm.mark();
    for (int s = 0; s < sims; ++s) {
        ode::TransientResult r;
        {
            auto span = run.tracer.span("ode.rom_step");
            r = ode::simulate(rom, u, topt);
        }
        run.norm.close(r.solve_seconds);
        run.rom_step_us.add(r.solve_seconds / static_cast<double>(r.steps) * 1e6,
                            run.norm.last_scale());
        run.rom_steps += r.steps;
        run.rom_newton += r.newton_iterations;
    }
}

ode::TransientOptions transient_options(double t_end, double dt, int stride) {
    ode::TransientOptions topt;
    topt.t_end = t_end;
    topt.dt = dt;
    topt.method = ode::Method::trapezoidal;
    topt.record_stride = stride;
    return topt;
}

// -- Wire requests. ---------------------------------------------------------

/// `count` drives scaled from `base` (0.8x upwards in 10% steps) in a
/// seeded order. Transient cost depends on the drive through the Newton
/// iteration count, so every seed serves the same drives: the seed changes
/// their order, not the work.
std::vector<rom::WaveformSpec> served_drives(Run& run, const rom::WaveformSpec& base,
                                             int count) {
    std::vector<rom::WaveformSpec> out;
    for (int k = 0; k < count; ++k) {
        out.push_back(base);
        out.back().amplitude *= 0.8 + 0.1 * k;
    }
    std::shuffle(out.begin(), out.end(), run.rng);
    return out;
}

std::vector<Complex> sweep_grid(int points, double omega0, double step) {
    std::vector<Complex> grid;
    for (int j = 0; j < points; ++j) grid.emplace_back(0.0, omega0 + step * j);
    return grid;
}

rom::ServeRequest sweep_request(const std::string& key, std::vector<Complex> grid) {
    rom::ServeRequest req;
    req.tenant = "perfbench";
    req.body = rom::FrequencySweepRequest{rom::ModelRef::by_key(key), std::move(grid)};
    return req;
}

rom::ServeRequest transient_request(const std::string& key,
                                    std::vector<rom::WaveformSpec> inputs,
                                    const ode::TransientOptions& topt) {
    rom::TransientBatchRequest tb;
    tb.model = rom::ModelRef::by_key(key);
    tb.inputs = std::move(inputs);
    tb.options = rom::TransientSpec::from_options(topt);
    rom::ServeRequest req;
    req.tenant = "perfbench";
    req.body = std::move(tb);
    return req;
}

rom::ServeRequest certificate_request(const std::string& key) {
    rom::ServeRequest req;
    req.tenant = "perfbench";
    req.body = rom::CertificateRequest{rom::ModelRef::by_key(key)};
    return req;
}

rom::ServeRequest parametric_batch_request(const std::string& family_id,
                                           std::vector<pmor::Point> coords,
                                           std::vector<Complex> grid) {
    rom::ParametricBatchRequest pb;
    pb.family_id = family_id;
    pb.coords = std::move(coords);
    pb.grid = std::move(grid);
    pb.allow_fallback = false;
    rom::ServeRequest req;
    req.tenant = "perfbench";
    req.body = std::move(pb);
    return req;
}

/// Seeded point inside a family's parameter box (kept off the edges).
pmor::Point family_point(Run& run, const pmor::ParamSpace& space) {
    std::vector<double> unit(static_cast<std::size_t>(space.dims()));
    for (double& x : unit) x = run.uniform(0.1, 0.9);
    return space.denormalize(unit);
}

/// One closed-loop round in a reference bracket over `clients` clients (0:
/// all): normalised latencies and round throughput, plus `identity_checks`
/// seeded byte-identity checks.
void serve_round(Run& run, WireStack& wire, const std::vector<rom::ServeRequest>& reqs,
                 int identity_checks, std::size_t clients = 0) {
    run.norm.mark();
    const WireStack::Round r = wire.round(run, reqs, clients);
    run.norm.close(r.wall_s);
    const double scale = run.norm.last_scale();
    for (double s : r.latency_s) run.latency_ms.add(s * 1e3, scale);
    run.request_s.add(r.wall_s / static_cast<double>(reqs.size()), scale);
    for (int c = 0; c < identity_checks; ++c) {
        const std::size_t i = static_cast<std::size_t>(run.rng() % reqs.size());
        wire.check_identical(run, reqs[i], r.answers[i]);
    }
}

/// The serving guards, checked once the measured loop is over, and the
/// serve-side per-layer counters.
void finish_serving(Run& run, WireStack& wire) {
    const rom::ServeStats es = wire.engine().stats();
    run.check(es.solver.max_factor_dim == wire.max_answer_order(),
              "serving factors at ROM order: max_factor_dim " +
                  std::to_string(es.solver.max_factor_dim) + " == " +
                  std::to_string(wire.max_answer_order()));
    const long registry_builds = wire.registry()->stats().builds - wire.published();
    run.check(registry_builds == 0, "no registry build while serving");
    const net::DaemonStats ds = wire.stop();
    run.check(ds.requests_admitted == wire.sent() && ds.responses_sent == ds.requests_admitted,
              "daemon drains with admitted (" + std::to_string(ds.requests_admitted) +
                  ") == responses sent (" + std::to_string(ds.responses_sent) + ")");
    const long overloaded = ds.overloaded_queue + ds.overloaded_tenant;
    run.check(overloaded == 0 && ds.protocol_errors == 0, "no overloaded or protocol errors");

    const long queries = es.frequency_queries + es.transient_queries + es.certificate_queries +
                         es.parametric_queries;
    const double busy_ms = queries > 0 ? es.busy_seconds / static_cast<double>(queries) * 1e3 : 0.0;
    double mean_rtt_ms = 0.0;
    for (double ms : run.latency_ms.raw) mean_rtt_ms += ms;
    if (!run.latency_ms.empty()) mean_rtt_ms /= static_cast<double>(run.latency_ms.size());
    run.counters["rom.busy_ms"] = busy_ms;
    run.counters["rom.coalesced_share"] =
        es.frequency_queries > 0
            ? static_cast<double>(es.coalesced_queries) / static_cast<double>(es.frequency_queries)
            : 0.0;
    run.counters["net.overhead_ms"] = mean_rtt_ms - busy_ms;
    run.counters["net.rtt_p99_ms"] =
        run.latency_ms.empty() ? 0.0 : percentile(run.latency_ms.raw, 99.0);
    run.counters["la.max_factor_dim"] = es.solver.max_factor_dim;
    run.counters["rom.registry_builds"] = static_cast<double>(registry_builds);
    run.counters["net.overloaded"] = static_cast<double>(overloaded);
    run.counters["net.protocol_errors"] = static_cast<double>(ds.protocol_errors);
}

/// Set up `reps` times (the last set-up is kept), recording each
/// repetition's time. Set-up brackets its own reference timings because the
/// work inside it (reference transients, builds) opens brackets of its own.
template <class State, class Fn>
void repeated_setup(Run& run, int reps, std::unique_ptr<State>& state, Fn&& make) {
    for (int r = 0; r < reps; ++r) {
        state.reset();
        auto span = run.tracer.span("setup");
        const double before = run.norm.mark();
        const auto t0 = Clock::now();
        state = make(r);
        const double raw = seconds_since(t0);
        run.setup_s.add(raw, run.norm.scale_for(before, run.norm.mark()));
    }
}

bool out_of_time(const Run& run, Clock::time_point start, int iterations, int min_iterations) {
    return iterations >= min_iterations && seconds_since(start) >= run.opt.seconds;
}

}  // namespace

// ===========================================================================
// build_a3: the paper's Sec. 3.2 current-source NLTL, 35 stages (n = 70),
// (k1, k2, k3) = (6, 3, 2) at sigma0 = 1. A3(H3) dominates the build; sparse
// LU plays no part.
// ===========================================================================
void run_build_a3(Run& run) {
    circuits::NltlOptions copt;
    copt.stages = 35;
    core::AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 2;
    mor.expansion_points = {Complex(1.0, 0.0)};
    const std::vector<Complex> band = mor::ErrorEstimator::jomega_grid(0.05, 1.0, 8);
    const rom::WaveformSpec drive = rom::WaveformSpec::pulse(0.5, 0.5, 1.0, 5.0, 1.5);
    const ode::TransientOptions certify_opt = transient_options(10.0, 1e-2, 10);
    const ode::TransientOptions step_opt = transient_options(5.0, 1e-2, 50);
    const ode::InputFn step_drive = drive.instantiate();

    struct State {
        volterra::Qldae full;
        ode::TransientResult reference;
        WireStack wire;
        State(Run& r, volterra::Qldae f, const rom::WaveformSpec& drive,
              const ode::TransientOptions& topt)
            : full(std::move(f)),
              reference(reference_transient(r, full, drive, topt)),
              wire(r.daemon_workers, r.clients) {}
    };
    std::unique_ptr<State> st;
    repeated_setup(run, 9, st, [&](int) {
        volterra::Qldae full = [&] {
            auto span = run.tracer.span("circuits.system");
            return circuits::current_source_line(copt).to_qldae();
        }();
        return std::make_unique<State>(run, std::move(full), drive, certify_opt);
    });

    const auto start = Clock::now();
    for (int it = 0; !out_of_time(run, start, it, 3); ++it) {
        std::optional<Certified> built;
        const double t = timed(run, [&] {
            auto span = run.tracer.span("build");
            built = library_build(st->full, mor, band);
        });
        run.build_s.add(t, run.norm.last_scale());
        Certified& c = *built;
        if (run.opt.trace) {
            const Certified d =
                decomposed_pair(run, [&] { return decomposed_build(run, st->full, mor, band); });
            run.check(d.model.provenance.basis_hash == c.model.provenance.basis_hash,
                      "decomposed basis hash equals reduce_associated's");
        }
        run.check(run.rom_order == 0 || run.rom_order == c.model.order, "ROM order is stable");
        run.rom_order = c.model.order;
        run.check(std::isfinite(c.band.max_rel), "band certificate is finite");

        certify_transient(run, st->reference, c.model, drive, certify_opt);
        rom_step_block(run, c.model.rom, step_drive, step_opt, 16);

        // Serve the fresh ROM from one client, so each answer's latency is
        // its own: the certificate, then transient batches (the first one
        // stamps the warm Newton factorisation).
        const std::string key = "perfbench:nltl35:" + std::to_string(it);
        c.model.provenance.source = key;
        st->wire.publish(key, c.model);
        for (int round = 0; round < 2; ++round) {
            std::vector<rom::ServeRequest> reqs = {certificate_request(key)};
            for (const rom::WaveformSpec& d : served_drives(run, drive, 4))
                reqs.push_back(transient_request(key, {d}, step_opt));
            serve_round(run, st->wire, reqs, 1, 1);
        }
    }
    finish_serving(run, st->wire);
}

// ===========================================================================
// build_sparse: the 72x72 power grid with 8 clamps (n = 5192), a 1-axis
// clamp-strength family built k1-only (PointOrder{8,0,0}) through
// pmor::FamilyBuilder, as in bench_scenarios. SparseLu/RCM, the H1 chain,
// tall orthogonalisation, projection and error estimation do the work;
// A2(H2) and A3(H3) do none.
// ===========================================================================
void run_build_sparse(Run& run) {
    circuits::PowerGridOptions gopt;
    gopt.rows = 72;
    gopt.cols = 72;
    gopt.clamps = 8;
    gopt.pitch_resistance = 0.02;
    gopt.decap = 0.2;
    gopt.load_conductance = 0.02;
    pmor::FamilyBuildOptions gfam;
    gfam.tol = 5e-2;
    gfam.max_members = 2;
    gfam.training_grid_per_dim = 2;
    gfam.adaptive.tol = 1e-2;
    gfam.adaptive.omega_min = 0.25;
    gfam.adaptive.omega_max = 2.0;
    gfam.adaptive.band_grid = 5;
    gfam.adaptive.max_points = 3;
    gfam.adaptive.point_order = rom::PointOrder{8, 0, 0};
    gfam.adaptive.trim_orders = false;
    const std::vector<Complex> band = mor::band_grid(gfam.adaptive);
    const rom::WaveformSpec drive = rom::WaveformSpec::pulse(0.1, 0.2, 1.0, 2.0, 1.0);
    const ode::TransientOptions certify_opt = transient_options(4.0, 1e-2, 10);
    const ode::TransientOptions step_opt = transient_options(5.0, 1e-2, 50);
    const ode::InputFn step_drive = drive.instantiate();

    struct State {
        pmor::FamilyDesign design;
        volterra::Qldae center;
        ode::TransientResult reference;
        WireStack wire;
        State(Run& r, pmor::FamilyDesign d, const rom::WaveformSpec& drive,
              const ode::TransientOptions& topt)
            : design(std::move(d)),
              center(design.build_system(design.space.center())),
              reference(reference_transient(r, center, drive, topt)),
              wire(r.daemon_workers, r.clients) {}
    };
    std::unique_ptr<State> st;
    repeated_setup(run, 5, st, [&](int) {
        pmor::OptionsBinder<circuits::PowerGridOptions> binder(gopt);
        binder.param("clamp_alpha", &circuits::PowerGridOptions::clamp_alpha, 6.0, 10.0);
        return std::make_unique<State>(
            run, pmor::make_design("perfbench_power_grid", binder,
                                   [&run](const circuits::PowerGridOptions& o) {
                                       auto span = run.tracer.span("circuits.system");
                                       return circuits::power_grid(o).to_qldae();
                                   }),
            drive, certify_opt);
    });
    run.check(st->center.order() == 5192 && st->center.g1_op().is_sparse(),
              "power grid is the n = 5192 sparse system");

    const std::string member_key = "perfbench:grid:member0";
    rom::Family family;
    const auto start = Clock::now();
    for (int it = 0; !out_of_time(run, start, it, 3); ++it) {
        pmor::FamilyBuildResult built;
        const double t = timed(run, [&] {
            auto span = run.tracer.span("build");
            built = pmor::FamilyBuilder(st->design, gfam).build();
        });
        run.build_s.add(t, run.norm.last_scale());
        run.counters["pmor.candidates"] = built.stats.candidates;
        run.counters["pmor.cross_estimates"] = static_cast<double>(built.stats.cross_estimates);
        family = std::move(built.family);
        run.check(family.converged && family.members.size() == 1,
                  "power-grid family converges with one member");
        if (run.opt.trace) {
            // FamilyBuilder's work for this configuration, one public call
            // per stage: the centre member's adaptive k1-only reduction, then
            // one cross estimate per training candidate.
            (void)decomposed_pair(run, [&] {
                la::SolverStats solver;
                const volterra::Qldae sys = st->design.build_system(st->design.space.center());
                rom::ReducedModel model = decomposed_adaptive(run, sys, gfam.adaptive, solver);
                run.check(!family.members.empty() &&
                              model.provenance.basis_hash ==
                                  family.members[0].model.provenance.basis_hash,
                          "decomposed member basis hash equals FamilyBuilder's");
                const std::vector<pmor::Point> candidates =
                    st->design.space.grid(gfam.training_grid_per_dim);
                for (std::size_t c = 0; c < candidates.size(); ++c) {
                    const volterra::Qldae cand = st->design.build_system(candidates[c]);
                    auto cb = std::make_shared<la::SparseLuBackend>(
                        2 * static_cast<std::size_t>(gfam.adaptive.band_grid) + 8);
                    double e = 0.0;
                    {
                        auto span = run.tracer.span("mor.estimate");
                        const mor::ErrorEstimator est(cand, cb, gfam.adaptive.estimate_mode, false);
                        e = est.band_error(model, band).max_rel;
                    }
                    add_solver_stats(solver, cb->stats());
                    run.check(c < family.cells.size() && e == family.cells[c].best_error,
                              "decomposed cross estimate equals FamilyBuilder's");
                }
                record_solver_counters(run, solver);
                return model;
            });
        }
        const rom::FamilyMember& member = family.members.front();
        run.rom_order = std::max(run.rom_order, member.model.order);
        run.check(member.coords == st->design.space.center(), "the member sits at the centre");
        certify_transient(run, st->reference, member.model, drive, certify_opt);
        rom_step_block(run, member.model.rom, step_drive, step_opt, 16);

        // Serve the fresh family from one client: a parametric batch, the
        // member's certificate, and transient batches on the member.
        if (it == 0) st->wire.publish(member_key, member.model);
        st->wire.host(family);
        for (int round = 0; round < 3; ++round) {
            std::vector<pmor::Point> pts;
            for (int p = 0; p < 4; ++p) pts.push_back(family_point(run, family.space));
            std::vector<rom::ServeRequest> reqs = {
                parametric_batch_request(family.family_id, pts,
                                         sweep_grid(16, run.uniform(0.25, 0.3), 0.1)),
                certificate_request(member_key),
            };
            for (const rom::WaveformSpec& d : served_drives(run, drive, 6))
                reqs.push_back(transient_request(member_key, {d}, step_opt));
            serve_round(run, st->wire, reqs, 1, 1);
        }
    }
    finish_serving(run, st->wire);
}

// ===========================================================================
// serve_wire: four warm resident NLTL ROMs and a hosted NLTL family behind
// an in-process daemon, driven by a closed loop of clients. Half of the
// sweeps land on one hot model, in pairs sent at once, so they coalesce. No
// build layer runs in the measured loop: the builds happen in set-up
// (build_s reports them).
// ===========================================================================
void run_serve_wire(Run& run) {
    constexpr int kModels = 4;
    circuits::NltlOptions base;
    base.stages = 20;
    const std::vector<Complex> band = mor::ErrorEstimator::jomega_grid(0.05, 1.0, 8);
    const auto model_options = [](int m) {
        core::AtMorOptions mor;
        mor.k1 = 4;
        mor.k2 = 2;
        mor.k3 = 0;
        mor.expansion_points = {Complex(1.0 + 0.3 * m, 0.0)};
        return mor;
    };
    circuits::NltlOptions fbase;
    fbase.stages = 12;
    pmor::FamilyBuildOptions fopt;
    fopt.tol = 1e-1;
    fopt.max_members = 3;
    fopt.training_grid_per_dim = 3;
    fopt.adaptive.tol = 2e-3;
    fopt.adaptive.omega_min = 0.25;
    fopt.adaptive.omega_max = 2.0;
    fopt.adaptive.band_grid = 9;
    fopt.adaptive.max_points = 3;
    fopt.adaptive.point_order = rom::PointOrder{4, 2, 0};
    const ode::TransientOptions certify_opt = transient_options(10.0, 1e-2, 10);
    const ode::TransientOptions step_opt = transient_options(5.0, 1e-2, 50);
    std::vector<rom::WaveformSpec> drives;
    for (int s = 0; s < 2; ++s)
        drives.push_back(rom::WaveformSpec::pulse(0.4 + 0.05 * s, 0.5, 1.0, 2.0 + 0.2 * s, 1.5));
    const ode::InputFn step_drive = drives.front().instantiate();

    struct State {
        volterra::Qldae full;
        ode::TransientResult reference;
        std::vector<rom::ReducedModel> models;
        rom::Family family;
        WireStack wire;
        State(Run& r, volterra::Qldae f, const rom::WaveformSpec& drive,
              const ode::TransientOptions& topt)
            : full(std::move(f)),
              reference(reference_transient(r, full, drive, topt)),
              wire(r.daemon_workers, r.clients) {}
    };
    std::unique_ptr<State> st;
    repeated_setup(run, 6, st, [&](int) {
        volterra::Qldae full = [&] {
            auto span = run.tracer.span("circuits.system");
            return circuits::current_source_line(base).to_qldae();
        }();
        auto s = std::make_unique<State>(run, std::move(full), drives.front(), certify_opt);
        for (int m = 0; m < kModels; ++m) {
            const core::AtMorOptions mor = model_options(m);
            std::optional<Certified> built;
            const double t = timed(run, [&] {
                auto span = run.tracer.span("build");
                built = library_build(s->full, mor, band);
            });
            run.build_s.add(t, run.norm.last_scale());
            Certified& c = *built;
            if (run.opt.trace) {
                const Certified d =
                    decomposed_pair(run, [&] { return decomposed_build(run, s->full, mor, band); });
                run.check(d.model.provenance.basis_hash == c.model.provenance.basis_hash,
                          "decomposed basis hash equals reduce_associated's");
            }
            c.model.provenance.source = "perfbench:nltl20:" + std::to_string(m);
            s->models.push_back(std::move(c.model));
        }
        pmor::OptionsBinder<circuits::NltlOptions> binder(fbase);
        binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 32.0, 48.0);
        const pmor::FamilyDesign design =
            pmor::make_design("perfbench_nltl", binder, [](const circuits::NltlOptions& o) {
                return circuits::current_source_line(o).to_qldae();
            });
        pmor::FamilyBuildResult built;
        {
            auto span = run.tracer.span("pmor.build");
            built = pmor::FamilyBuilder(design, fopt).build();
        }
        run.counters["pmor.candidates"] = built.stats.candidates;
        run.counters["pmor.cross_estimates"] = static_cast<double>(built.stats.cross_estimates);
        s->family = std::move(built.family);
        for (const rom::ReducedModel& m : s->models) s->wire.publish(m.provenance.source, m);
        s->wire.host(s->family);
        return s;
    });

    // Certifying transients of the resident models against the full line.
    for (const rom::ReducedModel& m : st->models)
        certify_transient(run, st->reference, m, drives.front(), certify_opt);
    run.rom_order = st->models.front().order;

    // The closed-loop mix. Each round is 16 requests over the clients.
    const auto key = [&](int m) {
        return st->models[static_cast<std::size_t>(m)].provenance.source;
    };
    std::vector<std::vector<Complex>> hot_grids;
    for (int g = 0; g < 4; ++g) hot_grids.push_back(sweep_grid(32, 0.05 + 0.02 * g, 0.03));
    // Synthetic traffic, an equal share of each request class (as in
    // bench_serve_load's per-class mix): every round of 16 holds 4
    // certificates, 4 transient batches, 4 parametric batches and 4 32-point
    // sweeps. Half of the sweeps hit the hot model; the round opens with
    // those two, so each client sends one of them at the same moment and
    // they coalesce. The other 14 requests come in a seeded order.
    const auto make_round = [&]() {
        std::vector<rom::ServeRequest> reqs;
        for (int h = 0; h < 2; ++h)
            reqs.push_back(
                sweep_request(key(0), hot_grids[static_cast<std::size_t>(run.rng() % 4)]));
        for (int r = 0; r < 2; ++r)
            reqs.push_back(sweep_request(key(1 + static_cast<int>(run.rng() % (kModels - 1))),
                                         sweep_grid(32, run.uniform(0.02, 0.1), 0.03)));
        for (int r = 0; r < 4; ++r) {
            reqs.push_back(certificate_request(key(static_cast<int>(run.rng() % kModels))));
            reqs.push_back(
                transient_request(key(static_cast<int>(run.rng() % kModels)), drives, step_opt));
            std::vector<pmor::Point> pts;
            for (int p = 0; p < 4; ++p) pts.push_back(family_point(run, st->family.space));
            reqs.push_back(parametric_batch_request(st->family.family_id, pts,
                                                    sweep_grid(16, run.uniform(0.25, 0.3), 0.1)));
        }
        std::shuffle(reqs.begin() + 2, reqs.end(), run.rng);
        return reqs;
    };

    // Warm every resident model and the family before measuring.
    {
        std::vector<rom::ServeRequest> warm;
        for (int m = 0; m < kModels; ++m) {
            warm.push_back(sweep_request(key(m), hot_grids[0]));
            warm.push_back(transient_request(key(m), drives, step_opt));
        }
        warm.push_back(parametric_batch_request(st->family.family_id,
                                                {st->family.space.center()},
                                                sweep_grid(16, 0.25, 0.1)));
        (void)st->wire.round(run, warm);
    }

    const auto start = Clock::now();
    for (int it = 0; !out_of_time(run, start, it, 3); ++it) {
        serve_round(run, st->wire, make_round(), 2);
        rom_step_block(run, st->models.front().rom, step_drive, step_opt, 2);
    }
    finish_serving(run, st->wire);
}

}  // namespace perfbench
