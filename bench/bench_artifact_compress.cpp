// Compressed family artifact bench: v4 sectioned union-basis storage vs the
// v3 inline raw-double container, plus the mmap lazy-serving path.
//
// Offline, a 2-D NLTL family is built once and encoded four ways (f64 /
// f32 / q16 / q8 payload tiers); the q8 artifact doubles as the CI sample
// (family_compressed.atmor-fam). Invariants (nonzero exit on violation):
//   * the q8 sectioned artifact is >= 5x smaller than the v3 container;
//   * the family still certifies EVERY held-out query after lossy encoding
//     (the measured rounding error is folded into the stored certificates,
//     so a converged compressed family serves under the same tol);
//   * the mmap reader answers bit-identically to the eager decode;
//   * cold-serving ONE member through the mmap reader beats eagerly
//     decoding the whole artifact, and leaves less resident.
//
//   usage: bench_artifact_compress [stages] [--threads N] [--json-out=PATH]
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/nltl.hpp"
#include "pmor/family_builder.hpp"
#include "rom/family_artifact.hpp"
#include "rom/family_codec.hpp"
#include "rom/io.hpp"
#include "rom/serve_engine.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
    using namespace atmor;
    bench::init_threads(argc, argv);
    const std::string json_path =
        bench::json_out_arg(argc, argv, "BENCH_artifact_compress.json");
    const int stages = bench::arg_int(argc, argv, 1, 12);

    std::printf("=== family artifact compression: v4 sectioned tiers vs v3 inline ===\n");

    // Same design space as bench_pmor_family: diode nonlinearity x series
    // resistance over a 12-stage NLTL line.
    circuits::NltlOptions base;
    base.stages = stages;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 32.0, 48.0)
        .param("resistance", &circuits::NltlOptions::resistance, 0.98, 1.06);
    const pmor::FamilyDesign design =
        pmor::make_design("nltl_current", binder, [](const circuits::NltlOptions& o) {
            return circuits::current_source_line(o).to_qldae();
        });

    pmor::FamilyBuildOptions fopt;
    fopt.tol = 1e-1;
    fopt.max_members = 8;
    fopt.training_grid_per_dim = 4;
    fopt.adaptive.tol = 2e-3;
    fopt.adaptive.omega_min = 0.25;
    fopt.adaptive.omega_max = 2.0;
    fopt.adaptive.band_grid = 9;
    fopt.adaptive.max_points = 3;
    fopt.adaptive.point_order = rom::PointOrder{4, 2, 0};

    util::Timer build_timer;
    const rom::Family family = pmor::FamilyBuilder(design, fopt).build().family;
    const double family_build_seconds = build_timer.seconds();
    std::printf("family: %zu members, tol %g, converged %s (built in %.2f s)\n",
                family.members.size(), family.tol, family.converged ? "yes" : "no",
                family_build_seconds);

    bench::InvariantChecker inv;
    inv.require(family.converged, "the uncompressed family converges under tol");

    // -- Storage: one v3 inline container, three v4 tiers. ------------------
    const std::size_t v3_bytes = rom::serialize_family(family).size();
    struct TierRecord {
        rom::EncodingTier tier;
        rom::CompressedFamily cf;
        std::size_t bytes = 0;
        double encoding_eta = 0.0;
    };
    std::vector<TierRecord> tiers;
    for (const rom::EncodingTier tier :
         {rom::EncodingTier::f64, rom::EncodingTier::f32, rom::EncodingTier::q16,
          rom::EncodingTier::q8}) {
        rom::CompressOptions copt;
        copt.tier = tier;
        rom::CompressStats stats;
        TierRecord rec;
        rec.tier = tier;
        rec.cf = rom::compress_family(family, copt, &stats);
        rec.bytes = rom::serialize_family_artifact(rec.cf).size();
        rec.encoding_eta = stats.max_encoding_error;
        std::printf("v4 %s: %zu bytes (%.1fx smaller than v3's %zu), "
                    "union basis %zu <- %zu columns, measured eta %.2e, converged %s\n",
                    rom::to_string(tier), rec.bytes,
                    static_cast<double>(v3_bytes) / static_cast<double>(rec.bytes), v3_bytes,
                    stats.basis_columns_union, stats.basis_columns_in, rec.encoding_eta,
                    rec.cf.converged ? "yes" : "no");
        tiers.push_back(std::move(rec));
    }
    const TierRecord& q8 = tiers.back();
    {
        std::size_t basis = 0, coeff = 0, meta = 0;
        for (const rom::BasisGroup& g : q8.cf.basis_groups) basis += g.bytes.size();
        for (const rom::CompressedMember& m : q8.cf.members) {
            coeff += m.coeff_bytes.size();
            meta += m.meta_bytes.size();
        }
        std::printf("q8 payload breakdown: basis %zu, coefficients %zu, member meta %zu\n",
                    basis, coeff, meta);
    }
    const double compression = static_cast<double>(v3_bytes) / static_cast<double>(q8.bytes);
    inv.require(compression >= 5.0,
                "the q8 sectioned artifact is >= 5x smaller than the v3 container");
    inv.require(q8.cf.converged,
                "the family still converges after q8 encoding (certificates inflated by "
                "the measured rounding error stay under tol)");

    // The CI sample artifact (uploaded + fuzzed by the workflow).
    const std::string artifact = "family_compressed.atmor-fam";
    rom::save_family_artifact(q8.cf, artifact);
    std::printf("\nsample artifact: %s (%zu bytes on disk)\n", artifact.c_str(),
                static_cast<std::size_t>(std::filesystem::file_size(artifact)));

    // -- Certification: every held-out query, lossy tier included. ----------
    std::vector<la::Complex> grid;
    for (int g = 1; g <= 24; ++g) grid.emplace_back(0.0, 2.0 * g / 24.0);
    const std::vector<pmor::Point> held_out = design.space.offset_grid(3);

    const rom::Family eager = rom::decode_family(q8.cf);
    const rom::FamilyArtifact mapped = rom::FamilyArtifact::open(artifact);
    inv.require(mapped.lazy(), "the artifact opens through the mmap reader");
    rom::ServeEngine eager_engine(std::make_shared<rom::Registry>());
    rom::ServeEngine lazy_engine(std::make_shared<rom::Registry>());
    eager_engine.host_family(eager);
    lazy_engine.host_family(mapped);
    const auto query = [&grid, &family](const pmor::Point& q) {
        rom::ServeRequest req;
        req.body = rom::ParametricQueryRequest{family.family_id, q, grid};
        return req;
    };

    int certified = 0;
    bool identical = true;
    for (const pmor::Point& q : held_out) {
        const rom::ServeResponse a = eager_engine.serve(query(q));
        const rom::ServeResponse b = lazy_engine.serve(query(q));
        if (a.ok() && !a.fallback && a.certificate.estimated_error <= family.tol) ++certified;
        identical = identical && a.ok() && b.ok() && a.member == b.member &&
                    a.certificate.estimated_error == b.certificate.estimated_error;
        for (std::size_t g = 0; identical && g < grid.size(); ++g)
            identical = la::max_abs(a.response[g] - b.response[g]) == 0.0;
    }
    std::printf("held-out queries: %d / %zu certified under tol %g from the q8 tier, "
                "mmap answers %s\n",
                certified, held_out.size(), family.tol,
                identical ? "bit-identical to the eager decode" : "DIVERGED");
    inv.require(certified == static_cast<int>(held_out.size()),
                "EVERY held-out query is still certified after lossy encoding");
    inv.require(identical, "mmap serving is bit-identical to the eager decode");
    std::printf("mmap reader touched %d of %d members to answer the sweep\n",
                mapped.materialized_members(), mapped.member_count());

    // -- Cold-load: one member through mmap vs the whole artifact eagerly. --
    const pmor::Point probe = held_out.front();
    const double eager_cold_seconds =
        bench::median_timed([&] { (void)rom::load_family(artifact); });
    const double mmap_cold_seconds = bench::median_timed([&] {
        const rom::FamilyArtifact art = rom::FamilyArtifact::open(artifact);
        (void)art.member(art.cells()[static_cast<std::size_t>(art.locate(probe))].best);
    });
    const rom::FamilyArtifact cold = rom::FamilyArtifact::open(artifact);
    (void)cold.member(cold.cells()[static_cast<std::size_t>(cold.locate(probe))].best);
    const std::size_t mmap_resident = cold.resident_bytes();
    const std::size_t eager_resident = rom::resident_bytes(eager);
    std::printf("cold path to first answer: mmap single member %.3e s / %zu resident bytes, "
                "eager whole artifact %.3e s / %zu resident bytes (%.1fx faster, %.1fx lighter)\n",
                mmap_cold_seconds, mmap_resident, eager_cold_seconds, eager_resident,
                eager_cold_seconds / mmap_cold_seconds,
                static_cast<double>(eager_resident) / static_cast<double>(mmap_resident));
    inv.require(mmap_cold_seconds < eager_cold_seconds,
                "mmap cold-load of a single member beats the eager whole-artifact load");
    inv.require(mmap_resident < eager_resident,
                "a single materialized member leaves less resident than the whole family");

    bench::Json json;
    json.str("bench", "artifact_compress");
    bench::add_env_header(json);
    json.num("members", static_cast<long>(family.members.size()));
    json.num("tol", family.tol);
    json.num("family_build_seconds", family_build_seconds);
    json.num("v3_family_bytes", static_cast<long>(v3_bytes));
    json.num("artifact_f64_bytes", static_cast<long>(tiers[0].bytes));
    json.num("artifact_f32_bytes", static_cast<long>(tiers[1].bytes));
    json.num("artifact_q16_bytes", static_cast<long>(tiers[2].bytes));
    json.num("artifact_bytes", static_cast<long>(q8.bytes));
    json.num("compression_ratio", compression);
    json.num("q8_encoding_eta", q8.encoding_eta);
    json.num("held_out_queries", static_cast<long>(held_out.size()));
    json.num("held_out_certified", certified);
    json.num("cold_load_seconds", eager_cold_seconds);
    json.num("mmap_cold_serve_seconds", mmap_cold_seconds);
    json.num("resident_bytes_after_load", static_cast<long>(mmap_resident));
    json.num("eager_resident_bytes", static_cast<long>(eager_resident));
    json.boolean("compression_gate_ok", compression >= 5.0);
    json.boolean("lossy_certification_ok", certified == static_cast<int>(held_out.size()));
    json.boolean("mmap_identity_ok", identical);
    json.boolean("artifact_invariants_ok", inv.ok());
    if (!bench::write_json(json, json_path)) return 1;
    return inv.exit_code();
}
