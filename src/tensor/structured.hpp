// Structured shifted-resolvent solvers.
//
// The associated transform turns high-order Volterra transfer functions into
// single-s LTI realisations whose state matrices are built from Kronecker
// sums and block-triangular couplings of G1 (paper eqs. 15-17):
//
//   A2(H2):  Gt2 = [[G1, G2], [0, G1 (+) G1]]           (dim n + n^2)
//   A3(H3):  resolvents of G1 (+) Gt2 and Gt2 (+) G1    (dim n(n+n^2))
//
// None of these operators is formed. Everything runs through the complex
// Schur form G1 = Z T Z^H (the paper's Sec. 2.3):
//   * KronSum2Solver answers (sigma I - G1 (+) G1)^{-1} rhs for the A2 chain,
//     O(n^3) per solve (two basis changes plus one triangular sweep).
//   * kron_sum3_sweep is (sigma I - T (+) T (+) T)^{-1} on an n^3 tensor that
//     is already in Schur coordinates. The A3(H3) moment chain
//     (volterra::AssociatedTransform) keeps its n^3 block in those
//     coordinates from start to finish. Per moment it costs ~0.75 n^4 for
//     the sweep plus at most n^4 for the G2 coupling. The earlier nested
//     solver went through the Schur basis and back for each of its n outer
//     columns, about 7.5 n^4 complex multiply-adds per moment.
#pragma once

#include <memory>

#include "la/matrix.hpp"
#include "la/schur.hpp"

namespace atmor::tensor {

/// Op = A (+) A on vec(X), X in C^{n x n}: (A (+) A) vec(X) = vec(A X + X A^T).
/// Solves are O(n^3) triangular Sylvester recurrences via the Schur form of A.
class KronSum2Solver {
public:
    explicit KronSum2Solver(std::shared_ptr<const la::ComplexSchur> schur_a);

    [[nodiscard]] int dim() const { return n_ * n_; }
    [[nodiscard]] la::ZVec apply(const la::ZVec& x) const;
    [[nodiscard]] la::ZVec solve(la::Complex sigma, const la::ZVec& rhs) const;

private:
    std::shared_ptr<const la::ComplexSchur> schur_;
    int n_;
};

/// In place x <- (sigma*I - T (+) T (+) T)^{-1} x for an upper-triangular T
/// (n x n), on an n^3 tensor in Schur coordinates whose every slice is
/// symmetric: x[(j*n + b)*n + a] = x[(j*n + a)*n + b]. The A3(H3) chain lives
/// in that subspace (b (x) sym(u (x) v) and the fully symmetric cubic
/// right-hand side), and the solution stays in it. The layout is contiguous:
/// outer slice j, then column b, then row a, which is the kron3 index, so a
/// Kronecker-ordered vector needs no reshuffle. Slices descend: each one
/// takes its coupling to the solved slices k > j through simd::zaxpy and is
/// then a symmetric n x n la::tri_sylvester_sweep at shift sigma - T(j,j).
/// Only lower triangles are read and swept, ~0.75 n^4 complex multiply-adds,
/// and each slice's upper triangle is mirrored on return. Throws
/// util::InternalError on a zero pivot (sigma equal to an eigenvalue triple
/// sum), never returns inf/NaN for one.
void kron_sum3_sweep(const la::ZMatrix& t, la::Complex sigma, la::Complex* x);

}  // namespace atmor::tensor
