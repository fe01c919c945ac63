#include "la/orth.hpp"

#include <cmath>
#include <iterator>
#include <utility>

#include "la/qr.hpp"
#include "la/simd.hpp"
#include "la/vector_ops.hpp"
#include "util/check.hpp"

namespace atmor::la {

BasisBuilder::BasisBuilder(int dim, double deflation_tol) : dim_(dim), tol_(deflation_tol) {
    ATMOR_REQUIRE(dim > 0, "BasisBuilder: dimension must be positive");
    ATMOR_REQUIRE(deflation_tol > 0.0 && deflation_tol < 1.0,
                  "BasisBuilder: tolerance must be in (0,1)");
}

void BasisBuilder::stage(const Vec& v) {
    ATMOR_REQUIRE(static_cast<int>(v.size()) == dim_, "BasisBuilder::stage: dimension mismatch");
    staged_.push_back(v);
}

void BasisBuilder::stage_complex(const ZVec& v) {
    ATMOR_REQUIRE(static_cast<int>(v.size()) == dim_,
                  "BasisBuilder::stage_complex: dimension mismatch");
    staged_.push_back(real_part(v));
    // Skip a numerically-zero imaginary part: at real expansion points the
    // solves leave O(eps)-relative imaginary round-off that must not inject
    // noise directions into the basis.
    Vec im = imag_part(v);
    if (norm2(im) > 1e-8 * (norm2(v) + 1e-300)) staged_.push_back(std::move(im));
}

int BasisBuilder::flush() {
    std::vector<Vec> panel = std::move(staged_);
    staged_.clear();
    if (panel.empty()) return 0;

    // Drop zero / non-finite candidates up front, keeping the original norms
    // the deflation rule compares residuals against.
    std::vector<Vec> cand;
    std::vector<double> orig;
    cand.reserve(panel.size());
    orig.reserve(panel.size());
    for (Vec& v : panel) {
        const double n = norm2(v);
        if (n == 0.0 || !std::isfinite(n)) continue;
        cand.push_back(std::move(v));
        orig.push_back(n);
    }

    // QrFactorization needs rows >= cols; wider panels (only possible when a
    // flush stages more than dim_ vectors) go through in dim_-sized chunks,
    // each orthogonalised against the basis grown by its predecessors.
    int added = 0;
    const std::size_t chunk = static_cast<std::size_t>(dim_);
    for (std::size_t c0 = 0; c0 < cand.size(); c0 += chunk) {
        const std::size_t c1 = std::min(cand.size(), c0 + chunk);
        added += flush_chunk(
            std::vector<Vec>(std::make_move_iterator(cand.begin() + static_cast<std::ptrdiff_t>(c0)),
                             std::make_move_iterator(cand.begin() + static_cast<std::ptrdiff_t>(c1))),
            std::vector<double>(orig.begin() + static_cast<std::ptrdiff_t>(c0),
                                orig.begin() + static_cast<std::ptrdiff_t>(c1)));
    }
    return added;
}

int BasisBuilder::flush_chunk(std::vector<Vec> panel, std::vector<double> orig) {
    const int p = static_cast<int>(panel.size());
    const int q = size();
    // Project the whole panel against the existing basis: two blocked
    // classical Gram-Schmidt sweeps, H = Q^T W then W -= Q H, each a
    // GEMM-shaped pass over the kernels ("twice is enough").
    for (int pass = 0; pass < 2 && q > 0; ++pass) {
        Matrix h(q, p);
        for (int i = 0; i < q; ++i) {
            const Vec& qi = basis_[static_cast<std::size_t>(i)];
            for (int j = 0; j < p; ++j)
                h(i, j) = simd::dot(qi.data(), panel[static_cast<std::size_t>(j)].data(),
                                    qi.size());
        }
        for (int i = 0; i < q; ++i) {
            const Vec& qi = basis_[static_cast<std::size_t>(i)];
            for (int j = 0; j < p; ++j)
                if (h(i, j) != 0.0)
                    simd::axpy(-h(i, j), qi.data(), panel[static_cast<std::size_t>(j)].data(),
                               qi.size());
        }
    }

    // Within-panel orthonormalisation by blocked Householder QR. A column
    // whose R diagonal falls below the deflation threshold is dependent on
    // its predecessors (|R_jj| is exactly its orthogonal residual); drop it
    // and refactor the survivors so later diagonals are not polluted by the
    // discarded direction.
    std::vector<int> keep(static_cast<std::size_t>(p));
    for (int j = 0; j < p; ++j) keep[static_cast<std::size_t>(j)] = j;
    while (!keep.empty()) {
        Matrix w(dim_, static_cast<int>(keep.size()));
        for (int j = 0; j < static_cast<int>(keep.size()); ++j)
            w.set_col(j, panel[static_cast<std::size_t>(keep[static_cast<std::size_t>(j)])]);
        const QrFactorization qr(std::move(w));
        const Matrix r = qr.r();
        int drop = -1;
        for (int j = 0; j < r.cols(); ++j) {
            const double thresh =
                tol_ * orig[static_cast<std::size_t>(keep[static_cast<std::size_t>(j)])];
            if (std::abs(r(j, j)) <= thresh) {
                drop = j;
                break;
            }
        }
        if (drop < 0) {
            const Matrix qthin = qr.thin_q();
            for (int j = 0; j < qthin.cols(); ++j) basis_.push_back(qthin.col(j));
            return qthin.cols();
        }
        keep.erase(keep.begin() + drop);
    }
    return 0;
}

Matrix BasisBuilder::matrix() const {
    ATMOR_REQUIRE(staged_.empty(),
                  "BasisBuilder::matrix: " << staged_.size() << " staged vectors not flushed");
    Matrix m(dim_, size());
    for (int j = 0; j < size(); ++j)
        for (int i = 0; i < dim_; ++i) m(i, j) = basis_[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
    return m;
}

Matrix orthonormalize_columns(const Matrix& m, double deflation_tol) {
    BasisBuilder b(m.rows(), deflation_tol);
    for (int j = 0; j < m.cols(); ++j) b.stage(m.col(j));
    b.flush();
    return b.matrix();
}

}  // namespace atmor::la
