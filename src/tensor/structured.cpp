#include "tensor/structured.hpp"

#include "la/sylvester.hpp"
#include "tensor/kronecker.hpp"
#include "util/check.hpp"

namespace atmor::tensor {

using la::Complex;
using la::ZMatrix;
using la::ZVec;

// ---------------------------------------------------------------------------
// KronSum2Solver
// ---------------------------------------------------------------------------

KronSum2Solver::KronSum2Solver(std::shared_ptr<const la::ComplexSchur> schur_a)
    : schur_(std::move(schur_a)) {
    ATMOR_REQUIRE(schur_ != nullptr, "KronSum2Solver: null Schur factor");
    n_ = schur_->dim();
}

ZVec KronSum2Solver::apply(const ZVec& x) const {
    ATMOR_REQUIRE(static_cast<int>(x.size()) == dim(), "KronSum2Solver::apply: size mismatch");
    // vec(A X + X A^T): column c of X maps through A; rows map through A^T.
    const ZMatrix xm = unvec(x, n_, n_);
    ZMatrix out(n_, n_);
    // A X: apply A to each column.
    for (int c = 0; c < n_; ++c) out.set_col(c, schur_->apply(xm.col(c)));
    // + X A^T = (A X^T)^T: apply A to each column of X^T (= row of X).
    for (int r = 0; r < n_; ++r) {
        const ZVec row = xm.row(r);
        const ZVec arow = schur_->apply(row);
        for (int c = 0; c < n_; ++c) out(r, c) += arow[static_cast<std::size_t>(c)];
    }
    return vec_of(out);
}

ZVec KronSum2Solver::solve(Complex sigma, const ZVec& rhs) const {
    ATMOR_REQUIRE(static_cast<int>(rhs.size()) == dim(), "KronSum2Solver::solve: size mismatch");
    const ZMatrix c = unvec(rhs, n_, n_);
    const ZMatrix x = la::resolvent_kron_sum_solve(*schur_, sigma, c);
    return vec_of(x);
}

// ---------------------------------------------------------------------------
// (+)^3 sweep
// ---------------------------------------------------------------------------

void kron_sum3_sweep(const la::ZMatrix& t, Complex sigma, Complex* x) {
    ATMOR_REQUIRE(t.square(), "kron_sum3_sweep: T must be square");
    const auto n = static_cast<std::size_t>(t.rows());
    const ZMatrix tt = la::transpose(t);
    // (T (x) I (x) I) couples slice j to slices k > j through T(j, k), here
    // over the lower triangles (column b, rows b..); the remaining
    // I (x) (T (+) T) part is a 2-D Sylvester solve per slice.
    for (std::size_t j = n; j-- > 0;) {
        Complex* xj = x + j * n * n;
        const Complex* tj = t.row_ptr(static_cast<int>(j));
        for (std::size_t k = j + 1; k < n; ++k) {
            if (tj[k] == Complex(0)) continue;
            for (std::size_t b = 0; b < n; ++b)
                la::simd::zaxpy(tj[k], x + k * n * n + b * n + b, xj + b * n + b, n - b);
        }
        la::tri_sylvester_sweep(tt, t, sigma - tj[j], xj, true);
    }
}

}  // namespace atmor::tensor
