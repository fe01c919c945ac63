// Sparse LU factorisation P A = L U with partial pivoting.
//
// Left-looking column algorithm in the style of CSparse (cs_lu): each column
// is a sparse triangular solve against the L computed so far, with the
// nonzero pattern discovered by a depth-first reach over L's column graph.
// The matrix is pre-permuted symmetrically by approximate minimum degree on
// the pattern of A + A^T (amd_order, src/sparse/amd.cpp). Minimum degree
// eliminates a path from its ends, so the MNA ladders (NLTL, RF receiver)
// still factor all but fill-free -- lifting orders their states [voltages;
// diode states], which strings local couplings across an O(n) span, and
// the degree order recovers the interleaving. On a 2-D mesh it is what keeps
// the factor sparse: a band ordering of the 72x72 power grid fills L + U
// with ~72 entries per column (514,700 nonzeros at n = 5192), minimum
// degree with about a third of that, and the factorisation time falls with
// it. This is the workhorse behind la::SparseLuBackend: the shifted
// resolvents (sI - G1)^{-1} and the implicit-integrator Jacobians factor in
// near-O(nnz) time for ladder circuits and far below the O(n^3) of dense LU
// on meshes.
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "sparse/csr.hpp"

namespace atmor::sparse {

/// Sparse compressed-sparse-column triplet of a square matrix.
template <class T>
struct Csc {
    int n = 0;
    std::vector<int> col_ptr;  ///< size n + 1
    std::vector<int> row_idx;  ///< size nnz
    std::vector<T> values;     ///< size nnz
};

/// CSC assembly of (shift*I - A) from a real CSR matrix. The diagonal entry
/// is always present (it carries the shift), so the factorisation of shifted
/// resolvents never loses a structurally required pivot.
Csc<double> shifted_csc(const CsrMatrix& a, double shift);
Csc<la::Complex> shifted_csc(const CsrMatrix& a, la::Complex shift);

/// Plain CSC view of A itself.
Csc<double> csc_of(const CsrMatrix& a);

/// Symmetric fill-reducing permutation of the pattern of A + A^T by
/// approximate minimum degree (src/sparse/amd.cpp). Returns q with
/// q[new] = old; the order depends on the sparsity pattern alone.
template <class T>
std::vector<int> amd_order(const Csc<T>& a);

/// LU factorisation with partial pivoting over T in {double, complex}.
/// The matrix is pre-permuted symmetrically with amd_order() before the
/// factorisation; solve() maps right-hand sides through the permutation.
template <class T>
class SparseLu {
public:
    /// Factor from CSC. Throws util::InternalError on exact singularity.
    explicit SparseLu(const Csc<T>& a);

    /// Solve A x = b.
    [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const;

    /// Blocked multi-RHS solve A X = B (B is n x k). One pass over the L and
    /// U factors serves all k columns: each factor entry is loaded once and
    /// applied across a contiguous k-wide row of X, amortising the index
    /// traversal that dominates single-RHS sparse backsolves. Column c of the
    /// result is bit-for-bit identical to solve(B.col(c)).
    [[nodiscard]] la::DenseMatrix<T> solve(const la::DenseMatrix<T>& b) const;

    [[nodiscard]] int dim() const { return n_; }

    /// Fill-in diagnostics: nonzeros of L + U.
    [[nodiscard]] long factor_nnz() const {
        return static_cast<long>(lx_.size() + ux_.size());
    }

    /// min |pivot| / max |pivot| -- cheap conditioning probe, mirroring
    /// la::LuFactorization::pivot_ratio().
    [[nodiscard]] double pivot_ratio() const;

private:
    void factor(const Csc<T>& a);

    int n_ = 0;
    // L: unit lower triangular, diagonal stored first in each column.
    std::vector<int> lp_, li_;
    std::vector<T> lx_;
    // U: upper triangular, diagonal stored last in each column.
    std::vector<int> up_, ui_;
    std::vector<T> ux_;
    std::vector<int> pinv_;  ///< pinv_[permuted row] = pivot position
    std::vector<int> q_;     ///< fill-reducing order, q_[new] = old
    /// Blocked-solve row maps: the block solve keeps its working storage in
    /// OUTPUT index order, so pivot-space row k lives at storage row q_[k]
    /// and is seeded from b row src_[k] = q_[pinv^-1[k]]. This folds the
    /// final un-permute into the substitution indexing -- one pass and one
    /// n x k buffer fewer than permute-solve-permute.
    std::vector<int> src_;
};

using SpLu = SparseLu<double>;
using ZSpLu = SparseLu<la::Complex>;

/// Convenience: factor A itself.
SpLu splu(const CsrMatrix& a);
/// Convenience: factor (shift*I - A).
SpLu splu_shifted(const CsrMatrix& a, double shift);
ZSpLu splu_shifted(const CsrMatrix& a, la::Complex shift);

}  // namespace atmor::sparse
