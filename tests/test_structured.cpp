#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "la/lu.hpp"
#include "la/vector_ops.hpp"
#include "tensor/kronecker.hpp"
#include "tensor/structured.hpp"
#include "test_helpers.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::ZMatrix;
using la::ZVec;
namespace tn = atmor::tensor;

/// Oracle: x = (sigma I - M)^{-1} b via dense complex LU.
ZVec dense_shifted_solve(const Matrix& m, Complex sigma, const ZVec& b) {
    ZMatrix a = la::complexify(m);
    a *= Complex(-1.0, 0.0);
    for (int i = 0; i < a.rows(); ++i) a(i, i) += sigma;
    return la::solve(a, b);
}

std::shared_ptr<const la::ComplexSchur> schur_of(const Matrix& a) {
    return std::make_shared<const la::ComplexSchur>(a);
}

TEST(KronSum2Solver, MatchesDenseOracle) {
    util::Rng rng(1401);
    const int n = 5;
    const Matrix a = test::random_stable_matrix(n, rng);
    tn::KronSum2Solver solver(schur_of(a));
    ASSERT_EQ(solver.dim(), n * n);
    const Complex sigma(0.25, 0.6);
    const ZVec b = test::random_zvector(n * n, rng);
    const ZVec x = solver.solve(sigma, b);
    const ZVec x_ref = dense_shifted_solve(tn::kron_sum(a, a), sigma, b);
    EXPECT_LT(la::dist2(x, x_ref), 1e-8 * (1.0 + la::norm2(x_ref)));
}

TEST(KronSum2Solver, ApplyMatchesDense) {
    util::Rng rng(1402);
    const int n = 4;
    const Matrix a = test::random_matrix(n, n, rng);
    tn::KronSum2Solver solver(schur_of(a));
    const ZVec x = test::random_zvector(n * n, rng);
    const ZVec y = solver.apply(x);
    const ZVec y_ref = la::matvec(la::complexify(tn::kron_sum(a, a)), x);
    EXPECT_LT(la::dist2(y, y_ref), 1e-9);
}

// ---------------------------------------------------------------------------
// (+)^3 sweep. These carry over the oracle tests of the nested solvers it
// replaced: the left Kronecker-sum solver, its (+)^3 factory and the Gt2 block
// solver (dense oracle, apply consistency, Theorem 1 kernel identity), and the
// commuted solver (mode-swap symmetry).
// ---------------------------------------------------------------------------

/// (M (x) M (x) M) x for an n^3 vector in kron3 order.
ZVec kron3_apply(const ZMatrix& m, ZVec x) {
    const int n = m.rows();
    for (const int stride : {1, n, n * n}) {
        ZVec y(x.size());
        for (int hi = 0; hi < n * n * n / (stride * n); ++hi)
            for (int r = 0; r < n; ++r)
                for (int lo = 0; lo < stride; ++lo) {
                    Complex acc(0);
                    for (int k = 0; k < n; ++k)
                        acc += m(r, k) * x[static_cast<std::size_t>((hi * n + k) * stride + lo)];
                    y[static_cast<std::size_t>((hi * n + r) * stride + lo)] = acc;
                }
        x = std::move(y);
    }
    return x;
}

std::size_t at3(int n, int j, int b, int a) {
    return static_cast<std::size_t>((j * n + b) * n + a);
}

/// Random n^3 tensor with every slice symmetric in (a, b); otherwise full rank.
ZVec random_inner_symmetric(int n, util::Rng& rng) {
    ZVec x(static_cast<std::size_t>(n * n * n));
    for (int j = 0; j < n; ++j)
        for (int b = 0; b < n; ++b)
            for (int a = b; a < n; ++a)
                x[at3(n, j, b, a)] = x[at3(n, j, a, b)] = Complex(rng.gaussian(), rng.gaussian());
    return x;
}

/// (sigma I - (+)^3 A)^{-1} rhs through the Schur-coordinate sweep.
ZVec sweep_solve(const la::ComplexSchur& cs, Complex sigma, const ZVec& rhs) {
    ZVec x = kron3_apply(la::adjoint(cs.z()), rhs);
    tn::kron_sum3_sweep(cs.t(), sigma, x.data());
    return kron3_apply(cs.z(), x);
}

TEST(KronSum3Sweep, MatchesDenseKronSumOracle) {
    // Full-rank right-hand side at a complex shift.
    for (const int n : {3, 5, 6}) {
        util::Rng rng(1404 + static_cast<std::uint64_t>(n));
        const Matrix a = test::random_stable_matrix(n, rng);
        const Matrix ks3 = tn::kron_sum(a, tn::kron_sum(a, a));
        const Complex sigma(0.15, -0.4);
        const ZVec rhs = random_inner_symmetric(n, rng);
        const ZVec x = sweep_solve(la::ComplexSchur(a), sigma, rhs);
        const ZVec x_ref = dense_shifted_solve(ks3, sigma, rhs);
        EXPECT_LT(la::dist2(x, x_ref), 1e-9 * (1.0 + la::norm2(x_ref))) << "n = " << n;
    }
}

TEST(KronSum3Sweep, ReadsOnlyLowerTriangles) {
    // The strict upper triangle of each input slice is never read: poisoning
    // it with NaN changes nothing, and the output is symmetric again.
    util::Rng rng(1408);
    const int n = 5;
    const la::ComplexSchur cs(test::random_stable_matrix(n, rng));
    const ZVec rhs = random_inner_symmetric(n, rng);
    ZVec clean = rhs, poisoned = rhs;
    for (int j = 0; j < n; ++j)
        for (int b = 0; b < n; ++b)
            for (int a = 0; a < b; ++a) poisoned[at3(n, j, b, a)] = Complex(std::nan(""), 0.0);
    tn::kron_sum3_sweep(cs.t(), Complex(0.3, 0.1), clean.data());
    tn::kron_sum3_sweep(cs.t(), Complex(0.3, 0.1), poisoned.data());
    for (std::size_t e = 0; e < clean.size(); ++e) EXPECT_EQ(clean[e], poisoned[e]);
}

TEST(KronSum3Sweep, ResidualOnTriangularOperator) {
    // sigma x - (T (+) T (+) T) x must reproduce the right-hand side for an
    // arbitrary complex upper-triangular T.
    util::Rng rng(1405);
    const int n = 4;
    ZMatrix t(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = i; j < n; ++j) t(i, j) = Complex(rng.gaussian(), rng.gaussian());
    const Complex sigma(2.5, 1.5);
    const ZVec rhs = random_inner_symmetric(n, rng);
    ZVec x = rhs;
    tn::kron_sum3_sweep(t, sigma, x.data());

    ZVec res(x.size());
    for (int j = 0; j < n; ++j)
        for (int b = 0; b < n; ++b)
            for (int a = 0; a < n; ++a) {
                Complex op(0);
                for (int k = 0; k < n; ++k)
                    op += t(j, k) * x[at3(n, k, b, a)] + t(b, k) * x[at3(n, j, k, a)] +
                          t(a, k) * x[at3(n, j, b, k)];
                res[at3(n, j, b, a)] = sigma * x[at3(n, j, b, a)] - op;
            }
    EXPECT_LT(la::dist2(res, rhs), 1e-10 * (1.0 + la::norm2(rhs)));
}

TEST(KronSum3Sweep, RankOneKernelIdentity) {
    // Paper Theorem 1 in operator form, on the A3 chain's right-hand side
    // b1 (x) sym(b2 (x) b3): the structured solve equals the dense resolvent.
    util::Rng rng(1407);
    const int n = 4;
    const Matrix a = test::random_stable_matrix(n, rng);
    const la::Vec b1 = test::random_vector(n, rng);
    const la::Vec b2 = test::random_vector(n, rng);
    const la::Vec b3 = test::random_vector(n, rng);
    la::Vec w = tn::kron3(b1, b2, b3);
    la::axpy(1.0, tn::kron3(b1, b3, b2), w);
    la::scale(0.5, w);
    const Complex s(0.9, 0.0);
    const ZVec rhs = la::complexify(w);
    const ZVec lhs = sweep_solve(la::ComplexSchur(a), s, rhs);
    const ZVec ref = dense_shifted_solve(tn::kron_sum(a, tn::kron_sum(a, a)), s, rhs);
    EXPECT_LT(la::dist2(lhs, ref), 1e-9 * (1.0 + la::norm2(ref)));
    // A real shift on real data gives a real solution.
    double imag = 0.0;
    for (const Complex& v : lhs) imag = std::max(imag, std::abs(v.imag()));
    EXPECT_LT(imag, 1e-10 * (1.0 + la::norm2(ref)));
}

TEST(KronSum3Sweep, KeepsFullSymmetry) {
    // (+)^3 A commutes with every permutation of its modes, so a fully
    // symmetric right-hand side (the cubic term's) has a fully symmetric
    // solution: swapping the outer mode with an inner one leaves it fixed.
    util::Rng rng(1406);
    const int n = 4;
    const la::ComplexSchur cs(test::random_stable_matrix(n, rng));
    const ZVec u = test::random_zvector(n, rng), v = test::random_zvector(n, rng);
    ZVec rhs(static_cast<std::size_t>(n * n * n));
    for (int j = 0; j < n; ++j)
        for (int b = 0; b < n; ++b)
            for (int a = 0; a < n; ++a)
                rhs[at3(n, j, b, a)] = u[j] * u[b] * v[a] + u[j] * v[b] * u[a] + v[j] * u[b] * u[a];
    ZVec x = kron3_apply(la::adjoint(cs.z()), rhs);
    tn::kron_sum3_sweep(cs.t(), Complex(0.35, 0.2), x.data());
    for (int j = 0; j < n; ++j)
        for (int b = 0; b < n; ++b)
            for (int a = 0; a < n; ++a)
                EXPECT_LT(std::abs(x[at3(n, j, b, a)] - x[at3(n, a, b, j)]),
                          1e-12 * (1.0 + std::abs(x[at3(n, j, b, a)])));
}

TEST(KronSum3Sweep, ZeroPivotThrowsTyped) {
    // sigma = -7 = (-1) + (-2) + (-4) is an eigenvalue triple sum of
    // diag(-1, -2, -4): the sweep must throw, not return inf/NaN.
    ZMatrix t(3, 3);
    t(0, 0) = Complex(-1.0);
    t(1, 1) = Complex(-2.0);
    t(2, 2) = Complex(-4.0);
    ZVec x(27, Complex(1.0));
    EXPECT_THROW(tn::kron_sum3_sweep(t, Complex(-7.0), x.data()), util::InternalError);
    // A regular shift on the same operator is fine and finite.
    ZVec y(27, Complex(1.0));
    tn::kron_sum3_sweep(t, Complex(-7.5), y.data());
    for (const Complex& v : y) EXPECT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
}

}  // namespace
}  // namespace atmor
