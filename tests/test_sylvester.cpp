#include <gtest/gtest.h>

#include <cmath>

#include "la/lu.hpp"
#include "la/schur.hpp"
#include "la/sylvester.hpp"
#include "la/vector_ops.hpp"
#include "test_helpers.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::ZMatrix;

class SylvesterSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SylvesterSizes, DenseSylvesterResidual) {
    const auto [m, p] = GetParam();
    util::Rng rng(700 + static_cast<std::uint64_t>(m * 17 + p));
    const Matrix a = test::random_stable_matrix(m, rng);
    const Matrix b = test::random_stable_matrix(p, rng);
    const Matrix c = test::random_matrix(m, p, rng);
    // A stable, B stable => spectra(A) and -spectra(B) disjoint.
    const Matrix x = la::solve_sylvester(a, b, c);
    const Matrix residual = la::matmul(a, x) + la::matmul(x, b) - c;
    EXPECT_LT(la::max_abs(residual), 1e-8 * (1.0 + la::max_abs(x)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SylvesterSizes,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 3}, std::pair{5, 5},
                                           std::pair{10, 4}, std::pair{25, 25},
                                           std::pair{40, 12}));

TEST(Lyapunov, ResidualSmall) {
    util::Rng rng(701);
    const int n = 20;
    const Matrix a = test::random_stable_matrix(n, rng);
    const Matrix q = test::random_matrix(n, n, rng);
    const Matrix p = la::solve_lyapunov(a, q);
    const Matrix residual = la::matmul(a, p) + la::matmul(p, la::transpose(a)) - q;
    EXPECT_LT(la::max_abs(residual), 1e-8 * (1.0 + la::max_abs(p)));
}

TEST(Lyapunov, GramianIsSymmetricPositive) {
    util::Rng rng(702);
    const int n = 12;
    const Matrix a = test::random_stable_matrix(n, rng);
    const Matrix b = test::random_matrix(n, 2, rng);
    const Matrix p = la::controllability_gramian(a, b);
    EXPECT_LT(la::max_abs(p - la::transpose(p)), 1e-9 * (1.0 + la::max_abs(p)));
    // x^T P x >= 0 for random probes.
    for (int trial = 0; trial < 5; ++trial) {
        const la::Vec x = test::random_vector(n, rng);
        EXPECT_GE(la::dot(x, la::matvec(p, x)), -1e-9);
    }
}

TEST(KronSumResolvent, MatchesDenseOracle) {
    // (sigma I - A (+) A)^{-1} vec(C) computed structurally must equal the
    // dense n^2 x n^2 solve.
    util::Rng rng(703);
    const int n = 6;
    const Matrix a = test::random_stable_matrix(n, rng);
    const Matrix c = test::random_matrix(n, n, rng);
    const la::ComplexSchur cs(a);
    const Complex sigma(0.4, 0.9);

    const ZMatrix x = la::resolvent_kron_sum_solve(cs, sigma, la::complexify(c));

    // Dense oracle in vec coordinates: vec(X) stacks columns, and
    // (A (+) A) vec(X) = vec(A X + X A^T)  <=>  kron(I, A) + kron(A, I).
    const Matrix ks = test::dense_kron_sum(a, a);
    ZMatrix m = la::complexify(ks);
    m *= Complex(-1.0, 0.0);
    for (int i = 0; i < n * n; ++i) m(i, i) += sigma;
    la::ZVec vc(static_cast<std::size_t>(n * n));
    for (int col = 0; col < n; ++col)
        for (int row = 0; row < n; ++row)
            vc[static_cast<std::size_t>(col * n + row)] = Complex(c(row, col), 0.0);
    const la::ZVec vx = la::solve(m, vc);

    double err = 0.0;
    for (int col = 0; col < n; ++col)
        for (int row = 0; row < n; ++row)
            err = std::max(err,
                           std::abs(x(row, col) - vx[static_cast<std::size_t>(col * n + row)]));
    EXPECT_LT(err, 1e-9);
}

TEST(KronSumResolvent, RealShiftRealData) {
    util::Rng rng(704);
    const int n = 8;
    const Matrix a = test::random_stable_matrix(n, rng);
    const Matrix c = test::random_matrix(n, n, rng);
    const la::ComplexSchur cs(a);
    const ZMatrix x = la::resolvent_kron_sum_solve(cs, Complex(0.0, 0.0), la::complexify(c));
    // Solution of a real equation must be real.
    EXPECT_LT(la::max_abs(la::imag_part(x)), 1e-9 * (1.0 + la::max_abs(x)));
    // Residual: sigma X - A X - X A^T = C with sigma = 0.
    const Matrix xr = la::real_part(x);
    const Matrix residual =
        (la::matmul(a, xr) + la::matmul(xr, la::transpose(a))) * (-1.0) - c;
    EXPECT_LT(la::max_abs(residual), 1e-8 * (1.0 + la::max_abs(xr)));
}

TEST(TriSylvester, ShiftedSingularPencilThrows) {
    // T1 = T2 = 0 (1x1), sigma = 0 makes the pencil singular.
    ZMatrix t1(1, 1), t2(1, 1), c(1, 1);
    c(0, 0) = Complex(1.0, 0.0);
    EXPECT_THROW(la::tri_sylvester_shifted(t1, t2, Complex(0.0, 0.0), c), util::InternalError);
}

TEST(TriSylvester, SymmetricSweepMatchesGeneral) {
    // T1 = T2 = T and C = C^T: the half sweep (lower triangles, mirrored)
    // equals the full one and never reads C's strict upper triangle.
    util::Rng rng(706);
    const int n = 7;
    const la::ComplexSchur cs(test::random_stable_matrix(n, rng));
    const ZMatrix tt = la::transpose(cs.t());
    ZMatrix c(n, n);  // symmetric, so row-major and column-major agree
    for (int i = 0; i < n; ++i)
        for (int j = 0; j <= i; ++j) c(i, j) = c(j, i) = Complex(rng.gaussian(), rng.gaussian());
    ZMatrix full = c, half = c;
    // Read column-major, half(i, j) is row j of column i: i > j is above the diagonal.
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < i; ++j) half(i, j) = Complex(std::nan(""), 0.0);
    const Complex sigma(0.2, -0.7);
    la::tri_sylvester_sweep(tt, cs.t(), sigma, full.data());
    la::tri_sylvester_sweep(tt, cs.t(), sigma, half.data(), true);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            EXPECT_LT(std::abs(full(i, j) - half(i, j)), 1e-12 * (1.0 + std::abs(full(i, j))));
}

TEST(SylvesterEquationFromPaper, PiDecouplingEquationSolvable) {
    // The paper's eq. (18) Sylvester equation G1 Pi + G2 = Pi (G1 (+) G1)
    // in dense miniature: solve A X - X B = -C with A = G1, B = kron-sum.
    util::Rng rng(705);
    const int n = 4;
    const Matrix g1 = test::random_stable_matrix(n, rng);
    const Matrix ks = test::dense_kron_sum(g1, g1);
    const Matrix g2 = test::random_matrix(n, n * n, rng);
    // G1 Pi - Pi (G1+G1) = -G2  <=>  solve_sylvester(G1, -(G1(+)G1), -G2).
    const Matrix pi = la::solve_sylvester(g1, ks * -1.0, g2 * -1.0);
    const Matrix residual = la::matmul(g1, pi) + g2 - la::matmul(pi, ks);
    EXPECT_LT(la::max_abs(residual), 1e-8 * (1.0 + la::max_abs(pi)));
}

}  // namespace
}  // namespace atmor
