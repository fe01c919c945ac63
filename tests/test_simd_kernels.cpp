// Kernel-layer contract tests (see src/la/simd.hpp):
//   * elementwise kernels (axpy, scale, zaxpy) are BIT-IDENTICAL to the
//     scalar reference in every build configuration;
//   * reduction kernels (dot, nrm2sq, spmv_row, zspmv_row) match the scalar
//     reference to tolerance only (the fold is reassociated);
//   * the blocked Householder orthogonalisation (panel BasisBuilder, blocked
//     QR) agrees with the sequential MGS path on span, rank and
//     orthogonality, including ill-conditioned and rank-deficient input.
// Inputs cover random data plus the adversarial shapes that break unrolled
// kernels: empty rows, single elements, lengths straddling the unroll width,
// and denormal-adjacent magnitudes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "la/matrix.hpp"
#include "la/orth.hpp"
#include "la/qr.hpp"
#include "la/simd.hpp"
#include "la/vector_ops.hpp"
#include "util/rng.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::Vec;
using la::ZVec;
namespace simd = la::simd;

/// RAII reset of the scalar escape hatch (tests flip it to compare tiers).
struct ScalarGuard {
    ScalarGuard() : was(simd::scalar_forced()) {}
    ~ScalarGuard() { simd::force_scalar(was); }
    bool was;
};

Vec random_vec(std::size_t n, std::uint64_t seed, double scale = 1.0) {
    util::Rng rng(seed);
    Vec v(n);
    for (auto& x : v) x = scale * rng.gaussian();
    return v;
}

Matrix random_matrix(int rows, int cols, std::uint64_t seed) {
    util::Rng rng(seed);
    Matrix m(rows, cols);
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
    return m;
}

// Lengths straddling every unroll/tail boundary of the kernels (4- and
// 8-wide main loops with scalar tails).
const std::size_t kLens[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100, 257};

// ---------------------------------------------------------------------------
// Elementwise kernels: bitwise equality against the scalar reference.
// ---------------------------------------------------------------------------

TEST(SimdKernels, AxpyBitIdenticalToScalar) {
    ScalarGuard guard;
    simd::force_scalar(false);
    for (std::size_t n : kLens) {
        for (double mag : {1.0, 1e-305, 1e300}) {
            const Vec x = random_vec(n, 11 + n, mag);
            Vec y_vec = random_vec(n, 13 + n, mag);
            Vec y_ref = y_vec;
            const double alpha = -0.7357 * mag;
            simd::axpy(alpha, x.data(), y_vec.data(), n);
            simd::scalar::axpy(alpha, x.data(), y_ref.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(y_vec[i], y_ref[i]) << "n=" << n << " mag=" << mag << " i=" << i;
        }
    }
}

TEST(SimdKernels, ScaleBitIdenticalToScalar) {
    ScalarGuard guard;
    simd::force_scalar(false);
    for (std::size_t n : kLens) {
        Vec x_vec = random_vec(n, 17 + n);
        Vec x_ref = x_vec;
        simd::scale(0.3183, x_vec.data(), n);
        simd::scalar::scale(0.3183, x_ref.data(), n);
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x_vec[i], x_ref[i]) << "n=" << n;
    }
}

TEST(SimdKernels, ZaxpyBitIdenticalToScalar) {
    ScalarGuard guard;
    simd::force_scalar(false);
    for (std::size_t n : kLens) {
        util::Rng rng(19 + n);
        ZVec x(n), y_vec(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = Complex(rng.gaussian(), rng.gaussian());
            y_vec[i] = Complex(rng.gaussian(), rng.gaussian());
        }
        ZVec y_ref = y_vec;
        const Complex alpha(-1.25, 0.5 + static_cast<double>(n));
        simd::zaxpy(alpha, x.data(), y_vec.data(), n);
        simd::scalar::zaxpy(alpha, x.data(), y_ref.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(y_vec[i].real(), y_ref[i].real()) << "n=" << n << " i=" << i;
            EXPECT_EQ(y_vec[i].imag(), y_ref[i].imag()) << "n=" << n << " i=" << i;
        }
    }
}

// The std::complex "-=" formula the blocked solves replaced must also agree
// bitwise with zaxpy(-m, ...) -- this is the identity the LU exactness pins
// rest on (IEEE negation commutes exactly through multiply and subtract).
TEST(SimdKernels, ZaxpyNegatedMatchesComplexSubtract) {
    ScalarGuard guard;
    simd::force_scalar(false);
    util::Rng rng(23);
    const std::size_t n = 33;
    ZVec x(n), y_kernel(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = Complex(rng.gaussian(), rng.gaussian());
        y_kernel[i] = Complex(rng.gaussian(), rng.gaussian());
    }
    ZVec y_manual = y_kernel;
    const Complex m(0.87, -1.43);
    simd::zaxpy(-m, x.data(), y_kernel.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const double xr = x[i].real(), xi = x[i].imag();
        y_manual[i] = Complex(y_manual[i].real() - (m.real() * xr - m.imag() * xi),
                              y_manual[i].imag() - (m.real() * xi + m.imag() * xr));
    }
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(y_kernel[i].real(), y_manual[i].real()) << i;
        EXPECT_EQ(y_kernel[i].imag(), y_manual[i].imag()) << i;
    }
}

// ---------------------------------------------------------------------------
// Reduction kernels: tolerance equality against the scalar reference.
// ---------------------------------------------------------------------------

TEST(SimdKernels, DotMatchesScalarToTolerance) {
    ScalarGuard guard;
    simd::force_scalar(false);
    for (std::size_t n : kLens) {
        for (double mag : {1.0, 1e-305}) {  // denormal-adjacent magnitudes too
            const Vec a = random_vec(n, 29 + n, mag);
            const Vec b = random_vec(n, 31 + n, mag);
            const double vec = simd::dot(a.data(), b.data(), n);
            const double ref = simd::scalar::dot(a.data(), b.data(), n);
            const double tol =
                1e-14 * static_cast<double>(n + 1) * mag * mag * static_cast<double>(n + 1);
            EXPECT_NEAR(vec, ref, tol) << "n=" << n << " mag=" << mag;
        }
    }
}

TEST(SimdKernels, Nrm2sqMatchesScalarToTolerance) {
    ScalarGuard guard;
    simd::force_scalar(false);
    for (std::size_t n : kLens) {
        const Vec a = random_vec(n, 37 + n);
        const double vec = simd::nrm2sq(a.data(), n);
        const double ref = simd::scalar::nrm2sq(a.data(), n);
        EXPECT_NEAR(vec, ref, 1e-13 * (ref + 1.0)) << "n=" << n;
        EXPECT_GE(vec, 0.0);
    }
}

TEST(SimdKernels, SpmvRowMatchesScalarToTolerance) {
    ScalarGuard guard;
    simd::force_scalar(false);
    const Vec x = random_vec(512, 41);
    util::Rng rng(43);
    for (std::size_t nnz : kLens) {
        std::vector<int> cols(nnz);
        Vec vals(nnz);
        for (std::size_t k = 0; k < nnz; ++k) {
            cols[k] = rng.uniform_int(0, 511);
            vals[k] = rng.gaussian();
        }
        const double vec = simd::spmv_row(vals.data(), cols.data(), nnz, x.data());
        const double ref = simd::scalar::spmv_row(vals.data(), cols.data(), nnz, x.data());
        EXPECT_NEAR(vec, ref, 1e-13 * static_cast<double>(nnz + 1)) << "nnz=" << nnz;
    }
    // Empty row and single-element row are exact by construction.
    EXPECT_EQ(simd::spmv_row(nullptr, nullptr, 0, x.data()), 0.0);
    const int c0 = 7;
    const double v0 = -3.25;
    EXPECT_EQ(simd::spmv_row(&v0, &c0, 1, x.data()), v0 * x[7]);
}

TEST(SimdKernels, ZspmvRowMatchesScalarToTolerance) {
    ScalarGuard guard;
    simd::force_scalar(false);
    util::Rng rng(47);
    ZVec x(256);
    for (auto& z : x) z = Complex(rng.gaussian(), rng.gaussian());
    for (std::size_t nnz : kLens) {
        std::vector<int> cols(nnz);
        Vec vals(nnz);
        for (std::size_t k = 0; k < nnz; ++k) {
            cols[k] = rng.uniform_int(0, 255);
            vals[k] = rng.gaussian();
        }
        const Complex vec = simd::zspmv_row(vals.data(), cols.data(), nnz, x.data());
        const Complex ref = simd::scalar::zspmv_row(vals.data(), cols.data(), nnz, x.data());
        EXPECT_LT(std::abs(vec - ref), 1e-13 * static_cast<double>(nnz + 1)) << "nnz=" << nnz;
    }
    EXPECT_EQ(simd::zspmv_row(nullptr, nullptr, 0, x.data()), Complex(0));
}

// The escape hatch must actually reroute: active_level flips to "scalar" and
// dispatched reductions return the scalar fold exactly.
TEST(SimdKernels, EscapeHatchDispatchesScalar) {
    ScalarGuard guard;
    simd::force_scalar(true);
    EXPECT_STREQ(simd::active_level(), "scalar");
    const Vec a = random_vec(257, 53);
    const Vec b = random_vec(257, 59);
    EXPECT_EQ(simd::dot(a.data(), b.data(), a.size()),
              simd::scalar::dot(a.data(), b.data(), a.size()));
    simd::force_scalar(false);
    EXPECT_STREQ(simd::active_level(), simd::compiled_level());
}

// ---------------------------------------------------------------------------
// Blocked Householder QR: multi-panel shapes, ill-conditioning, rank
// deficiency -- judged by orthogonality and reconstruction, and against the
// sequential MGS path on span.
// ---------------------------------------------------------------------------

double orthogonality_error(const Matrix& q) {
    const Matrix g = la::matmul(la::transpose(q), q);
    double err = 0.0;
    for (int i = 0; i < g.rows(); ++i)
        for (int j = 0; j < g.cols(); ++j)
            err = std::max(err, std::abs(g(i, j) - (i == j ? 1.0 : 0.0)));
    return err;
}

TEST(BlockedQr, MultiPanelOrthogonalityAndReconstruction) {
    // 70 columns = two full panels + a partial one (kPanel = 32).
    const Matrix a = random_matrix(200, 70, 61);
    const la::QrFactorization qr(a);
    const Matrix q = qr.thin_q();
    const Matrix r = qr.r();
    EXPECT_LT(orthogonality_error(q), 1e-13);
    const Matrix a_rec = la::matmul(q, r);
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) EXPECT_NEAR(a_rec(i, j), a(i, j), 1e-12);
    // R strictly upper triangular with positive diagonal (the make_householder
    // sign convention).
    for (int i = 0; i < r.rows(); ++i) {
        EXPECT_GT(r(i, i), 0.0);
        for (int j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
    }
}

TEST(BlockedQr, IllConditionedStaysOrthogonal) {
    // Columns graded over 12 orders of magnitude: cond(A) ~ 1e12. Householder
    // orthogonality is condition-independent -- this is exactly where plain
    // Gram-Schmidt loses orthogonality.
    Matrix a = random_matrix(150, 40, 67);
    for (int j = 0; j < a.cols(); ++j) {
        const double s = std::pow(10.0, -12.0 * j / (a.cols() - 1));
        for (int i = 0; i < a.rows(); ++i) a(i, j) *= s;
    }
    const la::QrFactorization qr(a);
    EXPECT_LT(orthogonality_error(qr.thin_q()), 1e-13);
}

TEST(BlockedQr, LeastSquaresOnMultiPanelShape) {
    const Matrix a = random_matrix(120, 50, 71);
    const Vec x_true = random_vec(50, 73);
    const Vec b = la::matvec(a, x_true);
    const la::QrFactorization qr(a);
    const Vec x = qr.solve_least_squares(b);
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(PanelBasisBuilder, RankDeficientPanelDeflates) {
    // 6 candidates spanning only 3 directions.
    const Matrix base = random_matrix(50, 3, 79);
    Matrix cand(50, 6);
    util::Rng rng(83);
    for (int j = 0; j < 6; ++j) {
        Vec mix(50, 0.0);
        for (int k = 0; k < 3; ++k) {
            const double w = rng.gaussian();
            for (int i = 0; i < 50; ++i)
                mix[static_cast<std::size_t>(i)] += w * base(i, k);
        }
        cand.set_col(j, mix);
    }
    const Matrix q = la::orthonormalize_columns(cand);
    EXPECT_EQ(q.cols(), 3);
    EXPECT_LT(orthogonality_error(q), 1e-12);
}

/// Test-local oracle: modified Gram-Schmidt with one reorthogonalisation
/// pass, one candidate at a time, under the BasisBuilder deflation rule.
Matrix mgs_oracle(const Matrix& cand, double tol = 1e-10) {
    std::vector<Vec> q;
    for (int j = 0; j < cand.cols(); ++j) {
        Vec w = cand.col(j);
        const double original = la::norm2(w);
        for (int pass = 0; pass < 2; ++pass)
            for (const Vec& qi : q) la::axpy(-la::dot(qi, w), qi, w);
        const double residual = la::norm2(w);
        if (residual <= tol * original) continue;
        la::scale(1.0 / residual, w);
        q.push_back(std::move(w));
    }
    Matrix out(cand.rows(), static_cast<int>(q.size()));
    for (int j = 0; j < out.cols(); ++j) out.set_col(j, q[static_cast<std::size_t>(j)]);
    return out;
}

/// Largest deviation from 1 of the squared norm of a's columns projected
/// onto the (orthonormal) columns of b: 0 when span(a) lies in span(b).
double span_defect(const Matrix& a, const Matrix& b) {
    const Matrix c = la::matmul(la::transpose(b), a);
    double worst = 0.0;
    for (int j = 0; j < c.cols(); ++j) {
        double s = 0.0;
        for (int i = 0; i < c.rows(); ++i) s += c(i, j) * c(i, j);
        worst = std::max(worst, std::abs(s - 1.0));
    }
    return worst;
}

TEST(PanelBasisBuilder, FlushedSpanMatchesEagerMgs) {
    const Matrix cand = random_matrix(80, 12, 89);

    la::BasisBuilder panel(80);
    for (int j = 0; j < cand.cols(); ++j) panel.stage(cand.col(j));
    panel.flush();
    const Matrix qp = panel.matrix();
    const Matrix qe = mgs_oracle(cand);

    ASSERT_EQ(qp.cols(), qe.cols());
    EXPECT_LT(orthogonality_error(qp), 1e-12);
    // Same subspace: projecting the panel basis onto the MGS one loses
    // nothing.
    EXPECT_LT(span_defect(qp, qe), 1e-10) << "panel basis leaves the MGS span";
}

TEST(PanelBasisBuilder, StageComplexAppliesImaginaryZeroRule) {
    la::BasisBuilder b(20);
    util::Rng rng(97);
    ZVec v(20);
    for (auto& z : v) z = Complex(rng.gaussian(), 1e-12 * rng.gaussian());
    b.stage_complex(v);  // imaginary part numerically zero: one candidate
    EXPECT_EQ(b.staged(), 1);
    for (auto& z : v) z = Complex(rng.gaussian(), rng.gaussian());
    b.stage_complex(v);  // genuine imaginary part: two candidates
    EXPECT_EQ(b.staged(), 3);
    EXPECT_EQ(b.flush(), 3);
    EXPECT_EQ(b.staged(), 0);
}

TEST(PanelBasisBuilder, EscapeHatchPanelPathMatchesVectorisedTier) {
    // Under the scalar-kernel escape hatch flush() runs the same panel path
    // (blocked Gram-Schmidt + Householder QR) on the scalar kernels: an
    // orthonormal basis of the same span as the vectorised tier's. Two
    // flushes, so the blocked sweeps against an existing basis run too.
    ScalarGuard guard;
    const Matrix cand = random_matrix(40, 8, 101);
    const auto build = [&cand](bool scalar) {
        simd::force_scalar(scalar);
        la::BasisBuilder b(40);
        for (int j = 0; j < cand.cols(); ++j) {
            b.stage(cand.col(j));
            if (j == 3) b.flush();
        }
        b.flush();
        return b.matrix();
    };
    const Matrix qs = build(true);
    const Matrix qv = build(false);

    ASSERT_EQ(qs.cols(), qv.cols());
    EXPECT_LT(orthogonality_error(qs), 1e-12);
    EXPECT_LT(span_defect(qs, qv), 1e-12) << "scalar-tier basis leaves the vectorised span";
}

}  // namespace
}  // namespace atmor
