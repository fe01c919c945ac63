// Multi-RHS blocked solves must be BIT-FOR-BIT equivalent to repeated
// single-RHS solves on every backend: the parallel/batched pipeline promises
// reduced models identical to the serial pipeline, and that guarantee
// bottoms out here.
#include <gtest/gtest.h>

#include <memory>

#include "circuits/nltl.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/solver_backend.hpp"
#include "sparse/csr.hpp"
#include "sparse/splu.hpp"
#include "util/rng.hpp"
#include "volterra/qldae.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::Vec;
using la::ZMatrix;
using la::ZVec;

Matrix random_matrix(int rows, int cols, std::uint64_t seed) {
    util::Rng rng(seed);
    Matrix m(rows, cols);
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
    return m;
}

ZMatrix random_zmatrix(int rows, int cols, std::uint64_t seed) {
    util::Rng rng(seed);
    ZMatrix m(rows, cols);
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j) m(i, j) = Complex(rng.gaussian(), rng.gaussian());
    return m;
}

Matrix diagonally_dominant(int n, std::uint64_t seed) {
    Matrix a = random_matrix(n, n, seed);
    for (int i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
    return a;
}

/// Exact (bitwise) equality of column c of a block result and a single-RHS
/// solve -- EXPECT_EQ on doubles is exact comparison.
template <class T>
void expect_identical_columns(const la::DenseMatrix<T>& block, const std::vector<T>& single,
                              int c) {
    ASSERT_EQ(static_cast<std::size_t>(block.rows()), single.size());
    for (int i = 0; i < block.rows(); ++i)
        EXPECT_EQ(block(i, c), single[static_cast<std::size_t>(i)])
            << "row " << i << " col " << c;
}

// ---------------------------------------------------------------------------
// Factor-level blocked solves.
// ---------------------------------------------------------------------------

TEST(MultiRhs, DenseLuBlockedMatchesSingleBitForBit) {
    const int n = 40, k = 7;
    const Matrix a = diagonally_dominant(n, 1);
    const Matrix b = random_matrix(n, k, 2);
    const la::Lu lu(a);
    const Matrix x = lu.solve(b);
    for (int c = 0; c < k; ++c) expect_identical_columns(x, lu.solve(b.col(c)), c);
}

TEST(MultiRhs, DenseComplexLuBlockedMatchesSingleBitForBit) {
    const int n = 33, k = 5;
    ZMatrix a = random_zmatrix(n, n, 3);
    for (int i = 0; i < n; ++i) a(i, i) += Complex(n, n);
    const ZMatrix b = random_zmatrix(n, k, 4);
    const la::ZLu lu(a);
    const ZMatrix x = lu.solve(b);
    for (int c = 0; c < k; ++c) expect_identical_columns(x, lu.solve(b.col(c)), c);
}

TEST(MultiRhs, SparseLuBlockedMatchesSingleBitForBit) {
    // Lifted NLTL: the pipeline's actual sparsity pattern (with pivoting and
    // the minimum-degree permutation exercised).
    circuits::NltlOptions copt;
    copt.stages = 30;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    const int n = sys.order(), k = 9;
    const sparse::SpLu lu = sparse::splu_shifted(*sys.g1_csr(), 1.0);
    const Matrix b = random_matrix(n, k, 5);
    const Matrix x = lu.solve(b);
    for (int c = 0; c < k; ++c) expect_identical_columns(x, lu.solve(b.col(c)), c);
}

TEST(MultiRhs, SparseComplexLuBlockedMatchesSingleBitForBit) {
    circuits::NltlOptions copt;
    copt.stages = 20;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    const int n = sys.order(), k = 6;
    const sparse::ZSpLu lu = sparse::splu_shifted(*sys.g1_csr(), Complex(0.8, 1.3));
    const ZMatrix b = random_zmatrix(n, k, 6);
    const ZMatrix x = lu.solve(b);
    for (int c = 0; c < k; ++c) expect_identical_columns(x, lu.solve(b.col(c)), c);
}

// ---------------------------------------------------------------------------
// Backend-level blocked solves: dense-LU, sparse-LU and Schur backends must
// all hold the bit-for-bit block == single contract, real and complex.
// ---------------------------------------------------------------------------

class BackendKinds : public ::testing::TestWithParam<const char*> {
protected:
    static std::shared_ptr<la::SolverBackend> make(const std::string& kind) {
        if (kind == "dense-lu") return std::make_shared<la::DenseLuBackend>();
        if (kind == "sparse-lu") return std::make_shared<la::SparseLuBackend>();
        return std::make_shared<la::SchurBackend>();
    }
};

TEST_P(BackendKinds, BlockSolveMatchesRepeatedSingleBitForBit) {
    const int n = 30, k = 8;
    const auto op = la::make_dense_operator(diagonally_dominant(n, 7));
    auto backend = make(GetParam());
    const Complex shift(2.5, 1.5);
    const ZMatrix b = random_zmatrix(n, k, 8);

    const ZMatrix x = backend->solve_shifted(*op, shift, b);
    for (int c = 0; c < k; ++c) {
        const ZVec single = backend->solve_shifted(*op, shift, b.col(c));
        expect_identical_columns(x, single, c);
    }
    EXPECT_EQ(backend->stats().solves, k + k);  // block counted k RHS
}

TEST_P(BackendKinds, RealBlockSolveMatchesRepeatedSingleBitForBit) {
    const int n = 26, k = 5;
    const auto op = la::make_dense_operator(diagonally_dominant(n, 9));
    auto backend = make(GetParam());
    const Matrix b = random_matrix(n, k, 10);

    const Matrix x = backend->solve_shifted(*op, 3.0, b);
    for (int c = 0; c < k; ++c) {
        const Vec single = backend->solve_shifted(*op, 3.0, b.col(c));
        expect_identical_columns(x, single, c);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendKinds,
                         ::testing::Values("dense-lu", "sparse-lu", "schur"));

TEST(MultiRhs, SparseBackendOnCsrOperatorBitForBit) {
    circuits::NltlOptions copt;
    copt.stages = 25;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    la::SparseLuBackend backend;
    const int k = 10;
    const ZMatrix b = random_zmatrix(sys.order(), k, 11);
    const ZMatrix x = backend.solve_shifted(sys.g1_op(), Complex(1.0, 0.0), b);
    for (int c = 0; c < k; ++c) {
        const ZVec single = backend.solve_shifted(sys.g1_op(), Complex(1.0, 0.0), b.col(c));
        expect_identical_columns(x, single, c);
    }
}

// ---------------------------------------------------------------------------
// SpMM and blocked GEMM.
// ---------------------------------------------------------------------------

// spmm accumulates elementwise (axpy across the block); matvec reduces each
// row with the reassociated spmv kernel. Per the kernel-layer numerical
// policy, reductions are pinned by tolerance, not bit-for-bit -- only the
// blocked-SOLVE paths keep exactness pins.
TEST(MultiRhs, CsrSpmmMatchesMatvecTightly) {
    circuits::NltlOptions copt;
    copt.stages = 15;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    const sparse::CsrMatrix& a = *sys.g1_csr();
    const Matrix x = random_matrix(a.cols(), 6, 12);
    const Matrix y = a.matmul(x);
    for (int c = 0; c < 6; ++c) {
        const Vec yc = a.matvec(x.col(c));
        for (int i = 0; i < y.rows(); ++i)
            EXPECT_NEAR(y(i, c), yc[static_cast<std::size_t>(i)], 1e-12)
                << "row " << i << " col " << c;
    }

    const ZMatrix zx = random_zmatrix(a.cols(), 4, 13);
    const ZMatrix zy = a.matmul(zx);
    for (int c = 0; c < 4; ++c) {
        const ZVec zyc = a.matvec(zx.col(c));
        for (int i = 0; i < zy.rows(); ++i)
            EXPECT_LT(std::abs(zy(i, c) - zyc[static_cast<std::size_t>(i)]), 1e-12)
                << "row " << i << " col " << c;
    }
}

TEST(MultiRhs, BlockedGemmMatchesMatmulBitForBit) {
    // Dimensions straddling the tile size so partial tiles are exercised.
    const Matrix a = random_matrix(70, 101, 14);
    const Matrix b = random_matrix(101, 53, 15);
    const Matrix c_ref = la::matmul(a, b);
    const Matrix c_blk = la::matmul_blocked(a, b);
    ASSERT_EQ(c_blk.rows(), c_ref.rows());
    ASSERT_EQ(c_blk.cols(), c_ref.cols());
    for (int i = 0; i < c_ref.rows(); ++i)
        for (int j = 0; j < c_ref.cols(); ++j) EXPECT_EQ(c_blk(i, j), c_ref(i, j));
}

}  // namespace
}  // namespace atmor
