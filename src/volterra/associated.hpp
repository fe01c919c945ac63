// Associated transforms of the high-order Volterra transfer functions --
// the paper's central contribution (Sec. 2.2-2.3).
//
// The association of variables A_n collapses H_n(s1,...,sn) to a single-s
// function H_n(s) whose inverse Laplace transform is h_n(t,...,t). Theorems
// 1 and 2 of the paper give, for the QLDAE (2):
//
//   A2(H2)(s) = (sI - G1)^{-1} ( G2 (sI - G1 (+) G1)^{-1} b~ + d0 )   (eq. 17)
//        with b~ = sym(b_i (x) b_j), d0 = sym(D1_i b_j),
//   A3(H3)(s) = (sI - G1)^{-1} ( G2 H~3(s) + D1^2 b + G3 (sI - (+)^3 G1)^{-1} b(x)3 )
//        with H~3(s) = (I (x) c~2)(sI - G1 (+) Gt2)^{-1}(b (x) b~2)
//                    + (c~2 (x) I)(sI - Gt2 (+) G1)^{-1}(b~2 (x) b),
//
// where Gt2 = [[G1, G2], [0, G1 (+) G1]], b~2 = [d0; b~], c~2 = [I 0] is the
// (n + n^2)-order realisation of A2(H2). Nothing of size n^2 or larger is
// ever factorised densely. A2(H2) solves through tensor::KronSum2Solver. The
// A3(H3) chain stays in the Schur coordinates of G1 = Z T Z^H from start to
// finish:
//   * The rank-1 right-hand side b (x) b~2 enters them through the O(n^2)
//     products Z^H b and Z^H d0.
//   * The n^3 block is solved by tensor::kron_sum3_sweep, and successive
//     moments reuse it with no basis change in between. Each of its slices
//     is symmetric (b~ is), so the sweep solves half of it.
//   * The G2 coupling is evaluated only at G2's stored entries, fanned out
//     over the thread pool by slice.
//   * The n x n up block is one triangular Sylvester sweep.
//   * Only that up block returns to original coordinates, where the
//     Gt2 (+) G1 term is its transpose.
//   * The cubic G3 term runs through the same sweep and the same
//     entries-only evaluation.
// That is ~0.75 n^4 + (at most) n^4 complex multiply-adds per moment. The
// nested G1 (+) Gt2 solver it replaces cost ~7.5 n^4, most of it basis
// changes.
//
// This class provides pointwise evaluation of the associated transfer
// functions and their moment sequences about arbitrary complex expansion
// points -- the inputs to the proposed MOR (core::AtMor).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "la/matrix.hpp"
#include "la/schur.hpp"
#include "la/solver_backend.hpp"
#include "tensor/structured.hpp"
#include "volterra/qldae.hpp"

namespace atmor::volterra {

class AssociatedTransform {
public:
    /// @param backend solver used for every n-dimensional resolvent
    ///        (sI - G1)^{-1}. Defaults to sparse LU for sparse-first systems
    ///        and Schur for dense ones (la::make_resolvent_backend). The
    ///        n^2/n^3 Kronecker-structured solvers always need the Schur
    ///        factors and build them lazily, only when A2(H2)/A3(H3) moments
    ///        are actually requested -- a k1-only reduction of a sparse
    ///        system never performs a dense n x n factorisation.
    explicit AssociatedTransform(Qldae sys,
                                 std::shared_ptr<la::SolverBackend> backend = nullptr);

    /// H1(s) = (sI - G1)^{-1} B : n x m.
    [[nodiscard]] la::ZMatrix h1(la::Complex s) const;

    /// A2(H2)(s) : n x m^2 (column i*m + j for the ordered input pair).
    [[nodiscard]] la::ZMatrix a2h2(la::Complex s) const;

    /// A3(H3)(s) : n x m^3 (column (i*m + j)*m + k).
    [[nodiscard]] la::ZMatrix a3h3(la::Complex s) const;

    /// Moment sequences about sigma0: the j-th element is the j-th Taylor
    /// coefficient of the associated transfer function in (s - sigma0).
    [[nodiscard]] std::vector<la::ZMatrix> h1_moments(int count, la::Complex sigma0) const;
    [[nodiscard]] std::vector<la::ZMatrix> a2h2_moments(int count, la::Complex sigma0) const;
    [[nodiscard]] std::vector<la::ZMatrix> a3h3_moments(int count, la::Complex sigma0) const;

    [[nodiscard]] const Qldae& system() const { return sys_; }
    /// Schur factors of G1, built on first use (dense O(n^3) work).
    [[nodiscard]] const std::shared_ptr<const la::ComplexSchur>& schur_g1() const;
    /// The resolvent solver backend (shared; exposes cache statistics).
    [[nodiscard]] const std::shared_ptr<la::SolverBackend>& backend() const {
        return backend_;
    }

    /// b~2^{(ij)} = [sym D1 b ; sym b_i (x) b_j] of the eq.-17 realisation.
    [[nodiscard]] la::ZVec btilde2(int i, int j) const;
    /// d0^{(ij)} = (D1_i b_j + D1_j b_i)/2 = h2^{(ij)}(0+, 0+) (the paper's D1 b).
    [[nodiscard]] la::ZVec d0(int i, int j) const;

    /// The (sigma I - G1 (+) G1)^{-1} solver of the A2(H2) chain (exposed for
    /// the MOR layer); built lazily together with the Schur factors.
    [[nodiscard]] const std::shared_ptr<tensor::KronSum2Solver>& kron_sum2() const;

private:
    /// sym(b_i (x) b_j) lifted vector (length n^2).
    [[nodiscard]] la::ZVec sym_lift(int i, int j) const;

    /// (sI - G1)^{-1} rhs through the backend's factorization cache.
    [[nodiscard]] la::ZVec resolvent(la::Complex s, const la::ZVec& rhs) const;

    /// Build the Schur factors + Kronecker solvers on demand.
    void ensure_schur() const;

    /// Inner moment sequences g_c (n-vectors per column) of the bracketed
    /// part of A2(H2)/A3(H3), composed with the leading resolvent series.
    [[nodiscard]] std::vector<la::ZMatrix> compose_with_leading_resolvent(
        const std::vector<la::ZMatrix>& inner, la::Complex sigma0) const;

    Qldae sys_;
    std::shared_ptr<la::SolverBackend> backend_;
    /// Guards the lazy construction of the Schur factors and the A2 solver,
    /// so moment generation can fan out across threads (the multipoint loop
    /// in core::reduce_associated). Once built, both are immutable and used
    /// without locking.
    mutable std::mutex lazy_mutex_;
    mutable std::shared_ptr<const la::ComplexSchur> schur_;
    mutable std::shared_ptr<tensor::KronSum2Solver> ks2_;
};

}  // namespace atmor::volterra
