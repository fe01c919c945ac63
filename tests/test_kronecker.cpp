#include <gtest/gtest.h>

#include "la/vector_ops.hpp"
#include "tensor/kronecker.hpp"
#include "test_helpers.hpp"

namespace atmor {
namespace {

using la::Matrix;
using la::Vec;
namespace tn = atmor::tensor;

TEST(Kronecker, VectorKronIndexing) {
    const Vec x{1.0, 2.0};
    const Vec y{3.0, 4.0, 5.0};
    const Vec k = tn::kron(x, y);
    ASSERT_EQ(k.size(), 6u);
    // (x kron y)[i*ny + j] = x_i y_j.
    EXPECT_DOUBLE_EQ(k[0], 3.0);
    EXPECT_DOUBLE_EQ(k[2], 5.0);
    EXPECT_DOUBLE_EQ(k[3], 6.0);
    EXPECT_DOUBLE_EQ(k[5], 10.0);
}

TEST(Kronecker, MixedProductProperty) {
    // (A kron B)(C kron D) = (AC) kron (BD).
    util::Rng rng(1300);
    const Matrix a = test::random_matrix(3, 2, rng);
    const Matrix b = test::random_matrix(2, 4, rng);
    const Matrix c = test::random_matrix(2, 3, rng);
    const Matrix d = test::random_matrix(4, 2, rng);
    const Matrix lhs = la::matmul(tn::kron(a, b), tn::kron(c, d));
    const Matrix rhs = tn::kron(la::matmul(a, c), la::matmul(b, d));
    EXPECT_LT(la::max_abs(lhs - rhs), 1e-12);
}

TEST(Kronecker, MatrixVectorKronConsistency) {
    // (A kron B)(x kron y) = (A x) kron (B y).
    util::Rng rng(1301);
    const Matrix a = test::random_matrix(3, 3, rng);
    const Matrix b = test::random_matrix(4, 4, rng);
    const Vec x = test::random_vector(3, rng);
    const Vec y = test::random_vector(4, rng);
    const Vec lhs = la::matvec(tn::kron(a, b), tn::kron(x, y));
    const Vec rhs = tn::kron(la::matvec(a, x), la::matvec(b, y));
    EXPECT_LT(la::dist2(lhs, rhs), 1e-12);
}

TEST(Kronecker, VecIdentity) {
    // (M kron N) vec(X) = vec(N X M^T).
    util::Rng rng(1302);
    const Matrix m = test::random_matrix(3, 3, rng);
    const Matrix n = test::random_matrix(2, 2, rng);
    const Matrix x = test::random_matrix(2, 3, rng);
    const Vec lhs = la::matvec(tn::kron(m, n), tn::vec_of(x));
    const Vec rhs = tn::vec_of(la::matmul(n, la::matmul(x, la::transpose(m))));
    EXPECT_LT(la::dist2(lhs, rhs), 1e-12);
}

TEST(Kronecker, KronSumActsAsSylvesterOperator) {
    // (A (+) B) vec(X) = vec(B X + X A^T), X in R^{p x m}.
    util::Rng rng(1303);
    const int m = 3, p = 4;
    const Matrix a = test::random_matrix(m, m, rng);
    const Matrix b = test::random_matrix(p, p, rng);
    const Matrix x = test::random_matrix(p, m, rng);
    const Vec lhs = la::matvec(tn::kron_sum(a, b), tn::vec_of(x));
    const Vec rhs = tn::vec_of(la::matmul(b, x) + la::matmul(x, la::transpose(a)));
    EXPECT_LT(la::dist2(lhs, rhs), 1e-12);
}

TEST(Kronecker, VecUnvecRoundtrip) {
    util::Rng rng(1304);
    const Matrix x = test::random_matrix(4, 3, rng);
    EXPECT_LT(la::max_abs(tn::unvec(tn::vec_of(x), 4, 3) - x), 0.0 + 1e-15);
}

TEST(Kronecker, KronOfVecsIsVecOfOuterProduct) {
    // x (x) y = vec(y x^T).
    util::Rng rng(1305);
    const Vec x = test::random_vector(3, rng);
    const Vec y = test::random_vector(5, rng);
    Matrix outer(5, 3);
    for (int r = 0; r < 5; ++r)
        for (int c = 0; c < 3; ++c)
            outer(r, c) = y[static_cast<std::size_t>(r)] * x[static_cast<std::size_t>(c)];
    EXPECT_LT(la::dist2(tn::kron(x, y), tn::vec_of(outer)), 1e-13);
}

TEST(Kronecker, KronSumEigenvaluesAreSums) {
    // Known: eig(A (+) B) = {lambda_i + mu_j}. Use diagonal matrices.
    Matrix a{{1.0, 0.0}, {0.0, 2.0}};
    Matrix b{{10.0, 0.0}, {0.0, 20.0}};
    const Matrix ks = tn::kron_sum(a, b);
    // Diagonal entries must be {11, 21, 12, 22} in kron ordering.
    EXPECT_DOUBLE_EQ(ks(0, 0), 11.0);
    EXPECT_DOUBLE_EQ(ks(1, 1), 21.0);
    EXPECT_DOUBLE_EQ(ks(2, 2), 12.0);
    EXPECT_DOUBLE_EQ(ks(3, 3), 22.0);
}

}  // namespace
}  // namespace atmor
