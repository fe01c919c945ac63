// The v4 sectioned family artifact stack: tier block codec, union-basis
// compression with measured-and-folded encoding certificates, sectioned
// save/load, the mmap lazy reader (identical serving, O(touched members)
// materialization, concurrent safety), the ATMOR_EAGER_LOAD escape hatch,
// and the registry's cross-artifact block dedup.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuits/nltl.hpp"
#include "core/atmor.hpp"
#include "pmor/family_builder.hpp"
#include "rom/family_artifact.hpp"
#include "rom/family_codec.hpp"
#include "rom/io.hpp"
#include "rom/registry.hpp"
#include "rom/serve_engine.hpp"
#include "test_serve_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "volterra/transfer.hpp"

namespace atmor {
namespace {

using la::Complex;
using pmor::Point;
using test::parametric_request;
using test::serve_ok;

std::string temp_dir(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / ("atmor_famart_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

pmor::FamilyDesign nltl_design(int stages = 8) {
    circuits::NltlOptions base;
    base.stages = stages;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 20.0, 60.0);
    return pmor::make_design("nltl_current", binder, [](const circuits::NltlOptions& o) {
        return circuits::current_source_line(o).to_qldae();
    });
}

pmor::FamilyBuildOptions family_options() {
    pmor::FamilyBuildOptions opt;
    opt.adaptive.tol = 2e-3;
    opt.adaptive.omega_min = 0.25;
    opt.adaptive.omega_max = 2.0;
    opt.adaptive.band_grid = 7;
    opt.adaptive.max_points = 2;
    opt.adaptive.point_order = rom::PointOrder{3, 1, 0};
    opt.adaptive.trim_orders = false;
    opt.tol = 1e-2;
    opt.training_grid_per_dim = 5;
    opt.max_members = 5;
    return opt;
}

/// One converged family shared across the tests (member builds are the
/// expensive part; the codec and artifact paths under test are cheap).
const rom::Family& test_family() {
    static const rom::Family fam =
        core::build_family(nltl_design(), family_options()).family;
    return fam;
}

std::vector<Complex> probe_grid() {
    std::vector<Complex> grid;
    for (int g = 0; g < 5; ++g) grid.emplace_back(0.0, 0.3 + 0.35 * g);
    return grid;
}

// ---------------------------------------------------------------------------
// Tier block codec.
// ---------------------------------------------------------------------------

TEST(FamilyCodec, BlockCodecRoundTripsEveryTier) {
    util::Rng rng(7);
    la::Matrix m(13, 4);
    for (int i = 0; i < m.rows(); ++i)
        for (int j = 0; j < m.cols(); ++j) m(i, j) = rng.uniform(-3.0, 3.0);

    for (const rom::EncodingTier tier :
         {rom::EncodingTier::f64, rom::EncodingTier::f32, rom::EncodingTier::q16,
          rom::EncodingTier::q8}) {
        const std::string bytes = rom::encode_matrix_block(m, tier);
        EXPECT_EQ(bytes.size(), rom::encoded_matrix_bytes(m.rows(), m.cols(), tier))
            << rom::to_string(tier);
        const la::Matrix back =
            rom::decode_matrix_block(bytes.data(), bytes.size(), m.rows(), m.cols(), tier);
        double max_err = 0.0;
        for (int i = 0; i < m.rows(); ++i)
            for (int j = 0; j < m.cols(); ++j)
                max_err = std::max(max_err, std::abs(back(i, j) - m(i, j)));
        switch (tier) {
            case rom::EncodingTier::f64:
                EXPECT_EQ(max_err, 0.0);  // bit-exact
                break;
            case rom::EncodingTier::f32:
                EXPECT_LT(max_err, 3.0 * 1.2e-7);  // float mantissa on |x| <= 3
                break;
            case rom::EncodingTier::q16:
                EXPECT_LT(max_err, 6.0 / 65535.0);  // column range / code range
                break;
            case rom::EncodingTier::q8:
                EXPECT_LT(max_err, 6.0 / 255.0);
                break;
        }
    }
    // The sizes actually shrink tier by tier.
    EXPECT_LT(rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::f32),
              rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::f64));
    EXPECT_LT(rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::q16),
              rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::f32));
    EXPECT_LT(rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::q8),
              rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::q16));
}

TEST(FamilyCodec, WrongBlockLengthIsTypedCorrupt) {
    la::Matrix m(3, 3);
    const std::string bytes = rom::encode_matrix_block(m, rom::EncodingTier::f32);
    try {
        (void)rom::decode_matrix_block(bytes.data(), bytes.size() - 1, 3, 3,
                                       rom::EncodingTier::f32);
        FAIL() << "short block must throw";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::corrupt);
    }
}

// ---------------------------------------------------------------------------
// Union-basis compression + certificates.
// ---------------------------------------------------------------------------

TEST(FamilyCodec, F64TierMeasuresExactlyZeroEncodingError) {
    const rom::Family& fam = test_family();
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::f64;
    rom::CompressStats stats;
    const rom::CompressedFamily cf = rom::compress_family(fam, copt, &stats);

    EXPECT_EQ(stats.max_encoding_error, 0.0);
    ASSERT_EQ(cf.members.size(), fam.members.size());
    for (std::size_t i = 0; i < cf.members.size(); ++i) {
        EXPECT_EQ(cf.members[i].encoding_error, 0.0);
        EXPECT_EQ(cf.members[i].certified_error, fam.members[i].certified_error);
    }
    for (std::size_t c = 0; c < cf.cells.size(); ++c)
        EXPECT_EQ(cf.cells[c].best_error, fam.cells[c].best_error);
    EXPECT_EQ(cf.max_training_error, fam.max_training_error);
    EXPECT_TRUE(cf.converged);
}

TEST(FamilyCodec, LossyTiersFoldMeasuredErrorIntoEveryCertificate) {
    const rom::Family& fam = test_family();
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::q16;
    rom::CompressStats stats;
    const rom::CompressedFamily cf = rom::compress_family(fam, copt, &stats);

    // The union basis never grows past the stacked member bases.
    EXPECT_LE(stats.basis_columns_union, stats.basis_columns_in);
    ASSERT_EQ(cf.members.size(), fam.members.size());
    for (std::size_t i = 0; i < cf.members.size(); ++i) {
        EXPECT_GE(cf.members[i].encoding_error, 0.0);
        // The stored certificate is the original inflated by the MEASURED
        // response deviation of the decoded member -- never deflated.
        EXPECT_DOUBLE_EQ(cf.members[i].certified_error,
                         fam.members[i].certified_error + cf.members[i].encoding_error);
    }
    for (std::size_t c = 0; c < cf.cells.size(); ++c)
        EXPECT_GE(cf.cells[c].best_error, fam.cells[c].best_error);
    double worst = 0.0;
    for (const rom::CoverageCell& cell : cf.cells) worst = std::max(worst, cell.best_error);
    EXPECT_EQ(cf.max_training_error, worst);
    EXPECT_EQ(cf.converged, worst <= cf.tol);
}

TEST(FamilyCodec, DecodeIsDeterministicAndCertifiedAgainstTheDecodedModel) {
    const rom::Family& fam = test_family();
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::q16;
    const rom::CompressedFamily cf = rom::compress_family(fam, copt);
    const rom::Family a = rom::decode_family(cf);
    const rom::Family b = rom::decode_family(cf);
    ASSERT_EQ(a.members.size(), b.members.size());

    const std::vector<Complex> grid = probe_grid();
    for (std::size_t i = 0; i < a.members.size(); ++i) {
        // Deterministic materialization: both decodes produce the same basis
        // (hash included) and bit-identical responses.
        EXPECT_EQ(a.members[i].model.provenance.basis_hash,
                  b.members[i].model.provenance.basis_hash);
        const auto ra = volterra::TransferEvaluator(a.members[i].model.rom).output_h1_sweep(grid);
        const auto rb = volterra::TransferEvaluator(b.members[i].model.rom).output_h1_sweep(grid);
        const auto orig =
            volterra::TransferEvaluator(fam.members[i].model.rom).output_h1_sweep(grid);
        double dev = 0.0;
        double denom = 0.0;
        for (std::size_t g = 0; g < grid.size(); ++g) {
            EXPECT_EQ(la::max_abs(ra[g] - rb[g]), 0.0);
            dev = std::max(dev, la::max_abs(ra[g] - orig[g]));
            denom = std::max(denom, la::max_abs(orig[g]));
        }
        // The measured encoding certificate genuinely bounds the deviation
        // of the member that decode_family serves (probe points here lie
        // inside the certified band the measurement sampled).
        EXPECT_LE(dev / denom, cf.members[i].encoding_error * 1.5 + 1e-12);
    }
}

// ---------------------------------------------------------------------------
// Sectioned save/load + mmap reader.
// ---------------------------------------------------------------------------

TEST(FamilyArtifact, SectionedArtifactRoundTripsThroughEagerLoad) {
    const std::string dir = temp_dir("eager_roundtrip");
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::q16;
    const rom::CompressedFamily cf = rom::compress_family(test_family(), copt);
    const std::string path = dir + "/fam" + rom::kFamilyExtension;
    rom::save_family_artifact(cf, path);

    const rom::Family direct = rom::decode_family(cf);
    const rom::Family loaded = rom::load_family(path);  // eager sectioned path
    ASSERT_EQ(loaded.members.size(), direct.members.size());
    EXPECT_EQ(loaded.family_id, direct.family_id);
    EXPECT_EQ(loaded.max_training_error, direct.max_training_error);
    for (std::size_t i = 0; i < loaded.members.size(); ++i) {
        EXPECT_EQ(loaded.members[i].model.provenance.basis_hash,
                  direct.members[i].model.provenance.basis_hash);
        EXPECT_EQ(loaded.members[i].certified_error, direct.members[i].certified_error);
        EXPECT_EQ(la::max_abs(loaded.members[i].model.v - direct.members[i].model.v), 0.0);
    }
    std::filesystem::remove_all(dir);
}

TEST(FamilyArtifact, MmapReaderMaterializesOnlyTouchedMembers) {
    const std::string dir = temp_dir("lazy");
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::q16;
    const rom::CompressedFamily cf = rom::compress_family(test_family(), copt);
    const std::string path = dir + "/fam" + rom::kFamilyExtension;
    rom::save_family_artifact(cf, path);

    const rom::FamilyArtifact art = rom::FamilyArtifact::open(path);
    EXPECT_TRUE(art.lazy());
    EXPECT_EQ(art.member_count(), static_cast<int>(cf.members.size()));
    EXPECT_EQ(art.materialized_members(), 0);  // cold open decodes nothing
    const std::size_t cold = art.resident_bytes();
    EXPECT_GT(cold, 0u);  // the verified directory
    EXPECT_EQ(art.file_bytes(), std::filesystem::file_size(path));

    const auto m0 = art.member(0);
    EXPECT_EQ(art.materialized_members(), 1);
    EXPECT_GT(art.resident_bytes(), cold);
    // Repeated access shares the one materialization.
    EXPECT_EQ(art.member(0).get(), m0.get());
    EXPECT_EQ(art.materialized_members(), 1);

    // The lazy view matches the eager decode exactly.
    const rom::Family direct = rom::decode_family(cf);
    EXPECT_EQ(m0->model.provenance.basis_hash, direct.members[0].model.provenance.basis_hash);
    EXPECT_EQ(la::max_abs(m0->model.v - direct.members[0].model.v), 0.0);
    EXPECT_EQ(m0->certified_error, direct.members[0].certified_error);

    const rom::Family all = art.to_family();
    EXPECT_EQ(art.materialized_members(), art.member_count());
    ASSERT_EQ(all.members.size(), direct.members.size());
    for (std::size_t i = 0; i < all.members.size(); ++i)
        EXPECT_EQ(la::max_abs(all.members[i].model.v - direct.members[i].model.v), 0.0);
    std::filesystem::remove_all(dir);
}

TEST(FamilyArtifact, MmapServingAnswersIdenticallyToEagerFamily) {
    const std::string dir = temp_dir("serve");
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::q16;
    const rom::CompressedFamily cf = rom::compress_family(test_family(), copt);
    ASSERT_TRUE(cf.converged);  // lossy rounding stays inside the family tol
    const std::string path = dir + "/fam" + rom::kFamilyExtension;
    rom::save_family_artifact(cf, path);

    const rom::Family eager = rom::decode_family(cf);
    const rom::FamilyArtifact lazy = rom::FamilyArtifact::open(path);
    rom::ServeEngine eager_engine(std::make_shared<rom::Registry>());
    rom::ServeEngine lazy_engine(std::make_shared<rom::Registry>());
    eager_engine.host_family(eager);
    lazy_engine.host_family(lazy);
    const std::vector<Complex> grid = probe_grid();

    for (const Point& q : eager.space.offset_grid(3)) {
        const rom::ServeResponse a =
            serve_ok(eager_engine, parametric_request(eager.family_id, q, grid));
        const rom::ServeResponse b =
            serve_ok(lazy_engine, parametric_request(lazy.family_id(), q, grid));
        EXPECT_EQ(a.member, b.member);
        EXPECT_EQ(a.fallback, b.fallback);
        EXPECT_EQ(a.certificate.estimated_error, b.certificate.estimated_error);
        ASSERT_EQ(a.response.size(), b.response.size());
        for (std::size_t g = 0; g < a.response.size(); ++g)
            EXPECT_EQ(la::max_abs(a.response[g] - b.response[g]), 0.0);
    }
    // Serving the sweep touched only the members the queries routed to.
    EXPECT_LE(lazy.materialized_members(), lazy.member_count());
    std::filesystem::remove_all(dir);
}

TEST(FamilyArtifact, ConcurrentLazyMaterializationIsSafeAndShared) {
    const std::string dir = temp_dir("threads");
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::f32;
    const rom::CompressedFamily cf = rom::compress_family(test_family(), copt);
    const std::string path = dir + "/fam" + rom::kFamilyExtension;
    rom::save_family_artifact(cf, path);

    const rom::FamilyArtifact art = rom::FamilyArtifact::open(path);
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const rom::FamilyMember>> seen(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            // Everyone hammers every member; the caches must hand every
            // thread the same immutable materializations.
            for (int i = 0; i < art.member_count(); ++i) (void)art.member(i);
            seen[static_cast<std::size_t>(t)] = art.member(0);
        });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(art.materialized_members(), art.member_count());
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0].get(), seen[t].get());
    std::filesystem::remove_all(dir);
}

TEST(FamilyArtifact, EagerLoadEscapeHatchAndInlineFallback) {
    const std::string dir = temp_dir("fallback");
    const rom::Family& fam = test_family();

    // A classic inline-members artifact opens through the same interface,
    // just eagerly.
    const std::string inline_path = dir + "/inline" + rom::kFamilyExtension;
    rom::save_family(fam, inline_path);
    const rom::FamilyArtifact inline_art = rom::FamilyArtifact::open(inline_path);
    EXPECT_FALSE(inline_art.lazy());
    EXPECT_EQ(inline_art.member_count(), static_cast<int>(fam.members.size()));
    EXPECT_EQ(inline_art.materialized_members(), inline_art.member_count());
    EXPECT_EQ(la::max_abs(inline_art.member(0)->model.v - fam.members[0].model.v), 0.0);

    // ATMOR_EAGER_LOAD=1 forces even a sectioned artifact down the eager
    // whole-file path (same answers, lazy() false).
    const rom::CompressedFamily cf = rom::compress_family(fam);
    const std::string sectioned_path = dir + "/sectioned" + rom::kFamilyExtension;
    rom::save_family_artifact(cf, sectioned_path);
    ::setenv("ATMOR_EAGER_LOAD", "1", 1);
    const rom::FamilyArtifact forced = rom::FamilyArtifact::open(sectioned_path);
    ::unsetenv("ATMOR_EAGER_LOAD");
    EXPECT_FALSE(forced.lazy());
    EXPECT_EQ(forced.materialized_members(), forced.member_count());
    const rom::FamilyArtifact mapped = rom::FamilyArtifact::open(sectioned_path);
    EXPECT_TRUE(mapped.lazy());
    EXPECT_EQ(la::max_abs(forced.member(0)->model.v - mapped.member(0)->model.v), 0.0);
    std::filesystem::remove_all(dir);
}

TEST(FamilyArtifact, DamagedSectionsAreTypedErrorsOnWhicheverPathTouchesThem) {
    const std::string dir = temp_dir("damage");
    const rom::CompressedFamily cf = rom::compress_family(test_family());
    const std::string path = dir + "/fam" + rom::kFamilyExtension;
    rom::save_family_artifact(cf, path);
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }

    // Flip one byte inside the LAST block (member payload territory): the
    // directory still verifies, open succeeds, but materializing the member
    // whose section was hit must throw a typed checksum error -- and only
    // then (lazy integrity is per-section).
    std::string damaged = bytes;
    damaged[damaged.size() - 9] ^= 0x40;  // inside the final block, before the envelope checksum
    const std::string bad_path = dir + "/damaged" + rom::kFamilyExtension;
    {
        std::ofstream out(bad_path, std::ios::binary);
        out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    const rom::FamilyArtifact art = rom::FamilyArtifact::open(bad_path);
    int typed = 0;
    for (int i = 0; i < art.member_count(); ++i) {
        try {
            (void)art.member(i);
        } catch (const rom::IoError& e) {
            EXPECT_EQ(e.kind(), rom::IoErrorKind::checksum_mismatch);
            ++typed;
        }
    }
    EXPECT_GE(typed, 1);

    // Flip a byte inside the directory: open itself must reject.
    std::string bad_dir = bytes;
    bad_dir[40] ^= 0x01;  // inside the framed directory region
    const std::string bad_dir_path = dir + "/baddir" + rom::kFamilyExtension;
    {
        std::ofstream out(bad_dir_path, std::ios::binary);
        out.write(bad_dir.data(), static_cast<std::streamsize>(bad_dir.size()));
    }
    EXPECT_THROW((void)rom::FamilyArtifact::open(bad_dir_path), rom::IoError);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Registry family tier + cross-artifact block dedup.
// ---------------------------------------------------------------------------

TEST(FamilyArtifact, RegistryDedupsSharedBlocksAcrossArtifacts) {
    const std::string dir = temp_dir("registry");
    rom::RegistryOptions ropt;
    ropt.artifact_dir = dir;
    rom::Registry registry(ropt);

    rom::CompressedFamily cf = rom::compress_family(test_family());
    const std::string path = registry.put_family(cf);
    EXPECT_TRUE(std::filesystem::exists(path));
    const rom::RegistryStats first = registry.stats();
    EXPECT_EQ(first.family_saves, 1);
    EXPECT_GT(first.blocks_written, 0);
    EXPECT_EQ(first.blocks_shared, 0);

    // A second family with identical payload blocks (a re-build of the same
    // design under a new id) shares every externalized block on disk.
    rom::CompressedFamily clone = cf;
    clone.family_id = cf.family_id + ":clone";
    (void)registry.put_family(clone);
    const rom::RegistryStats second = registry.stats();
    EXPECT_EQ(second.family_saves, 2);
    EXPECT_EQ(second.blocks_written, first.blocks_written);  // nothing new hit disk
    EXPECT_GT(second.blocks_shared, 0);

    // Externalized artifacts load back through the shared block store, lazy.
    const rom::FamilyArtifact art = registry.open_family(clone.family_id);
    EXPECT_TRUE(art.lazy());
    const rom::Family direct = rom::decode_family(cf);
    for (int i = 0; i < art.member_count(); ++i)
        EXPECT_EQ(la::max_abs(art.member(i)->model.v -
                              direct.members[static_cast<std::size_t>(i)].model.v),
                  0.0);
    EXPECT_GT(registry.stats().family_loads, 0);
    std::filesystem::remove_all(dir);
}

TEST(FamilyArtifact, BuilderCompressOptionProducesServableArtifact) {
    const std::string dir = temp_dir("builder");
    rom::RegistryOptions ropt;
    ropt.artifact_dir = dir;
    pmor::FamilyBuildOptions opt = family_options();
    opt.registry = std::make_shared<rom::Registry>(ropt);
    opt.compress = true;
    opt.compress_options.tier = rom::EncodingTier::q16;
    const pmor::FamilyBuildResult result = core::build_family(nltl_design(), opt);

    ASSERT_TRUE(result.compressed.has_value());
    EXPECT_FALSE(result.artifact_path.empty());
    EXPECT_TRUE(std::filesystem::exists(result.artifact_path));
    EXPECT_EQ(result.compressed->members.size(), result.family.members.size());
    EXPECT_LE(result.compress_stats.basis_columns_union,
              result.compress_stats.basis_columns_in);

    // The persisted artifact serves certified answers end to end.
    const rom::FamilyArtifact art = opt.registry->open_family(result.family.family_id);
    rom::ServeEngine engine(opt.registry);
    engine.host_family(art);
    const rom::ServeResponse ans = serve_ok(
        engine, parametric_request(art.family_id(), result.family.space.center(), probe_grid()));
    EXPECT_FALSE(ans.fallback);
    EXPECT_LE(ans.certificate.estimated_error, ans.certificate.tol);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace atmor
