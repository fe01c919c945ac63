#include <gtest/gtest.h>

#include "la/orth.hpp"
#include "la/vector_ops.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace atmor {
namespace {

using la::Matrix;
using la::Vec;

/// Stage one vector and flush it on its own; returns how many columns it
/// added (0 when deflated).
int ingest(la::BasisBuilder& b, const Vec& v) {
    b.stage(v);
    return b.flush();
}

TEST(BasisBuilder, BuildsOrthonormalBasis) {
    util::Rng rng(800);
    la::BasisBuilder b(10);
    for (int k = 0; k < 4; ++k) b.stage(test::random_vector(10, rng));
    EXPECT_EQ(b.flush(), 4);
    EXPECT_EQ(b.size(), 4);
    const Matrix v = b.matrix();
    const Matrix vtv = la::matmul(la::transpose(v), v);
    EXPECT_LT(la::max_abs(vtv - Matrix::identity(4)), 1e-12);
}

TEST(BasisBuilder, DeflatesDependentVector) {
    // One flush per vector: each candidate is projected against the basis.
    la::BasisBuilder b(3);
    EXPECT_EQ(ingest(b, Vec{1.0, 0.0, 0.0}), 1);
    EXPECT_EQ(ingest(b, Vec{1.0, 1.0, 0.0}), 1);
    EXPECT_EQ(ingest(b, Vec{3.0, -2.0, 0.0}), 0);  // in span of the first two
    EXPECT_EQ(ingest(b, Vec{0.0, 0.0, 5.0}), 1);
    EXPECT_EQ(b.size(), 3);
}

TEST(BasisBuilder, RejectsZeroAndNonFinite) {
    la::BasisBuilder b(2);
    EXPECT_EQ(ingest(b, Vec{0.0, 0.0}), 0);
    EXPECT_EQ(ingest(b, Vec{std::numeric_limits<double>::quiet_NaN(), 1.0}), 0);
    EXPECT_EQ(b.size(), 0);
    EXPECT_EQ(b.flush(), 0);  // an empty flush is a no-op
}

TEST(BasisBuilder, SpanIsPreserved) {
    // Projecting the inputs onto the basis must reproduce them.
    util::Rng rng(801);
    la::BasisBuilder b(8);
    std::vector<Vec> inputs;
    for (int k = 0; k < 5; ++k) {
        inputs.push_back(test::random_vector(8, rng));
        b.stage(inputs.back());
        if (k == 1) b.flush();  // a second panel projects against the first
    }
    b.flush();
    const Matrix v = b.matrix();
    for (const auto& x : inputs) {
        // r = x - V V^T x should vanish.
        Vec proj = la::matvec(v, la::matvec_transposed(v, x));
        EXPECT_LT(la::dist2(proj, x), 1e-10 * (1.0 + la::norm2(x)));
    }
}

TEST(BasisBuilder, StageComplexSplitsRealImag) {
    la::BasisBuilder b(4);
    la::ZVec v(4);
    v[0] = la::Complex(1.0, 0.0);
    v[1] = la::Complex(0.0, 2.0);
    b.stage_complex(v);
    EXPECT_EQ(b.flush(), 2);
    // A purely real vector adds only one direction.
    la::ZVec w(4);
    w[2] = la::Complex(3.0, 0.0);
    b.stage_complex(w);
    EXPECT_EQ(b.flush(), 1);
    EXPECT_EQ(b.size(), 3);
}

TEST(BasisBuilder, MatrixRequiresAFlush) {
    la::BasisBuilder b(3);
    b.stage(Vec{1.0, 0.0, 0.0});
    EXPECT_THROW((void)b.matrix(), util::PreconditionError);
    b.flush();
    EXPECT_EQ(b.matrix().cols(), 1);
}

TEST(OrthonormalizeColumns, RankDeficientInput) {
    util::Rng rng(802);
    const Matrix u = test::random_matrix(12, 3, rng);
    const Matrix w = test::random_matrix(3, 7, rng);
    const Matrix a = la::matmul(u, w);  // rank 3, 7 columns
    const Matrix q = la::orthonormalize_columns(a, 1e-8);
    EXPECT_EQ(q.cols(), 3);
    EXPECT_LT(la::max_abs(la::matmul(la::transpose(q), q) - Matrix::identity(3)), 1e-11);
}

}  // namespace
}  // namespace atmor
