// Sylvester and Lyapunov solvers (Bartels-Stewart) built on the complex
// Schur form.
//
// The central primitive is `resolvent_kron_sum_solve`, which evaluates
//     (sigma*I - A (+) A)^{-1} vec(C)  as the matrix equation
//     sigma*X - A X - X A^T = C
// in O(n^3) through the Schur factors of A -- this is exactly how the paper
// (Sec. 2.3) proposes to make the n^2-dimensional blocks of the associated
// realisation (eq. 17) tractable.
#pragma once

#include "la/matrix.hpp"
#include "la/schur.hpp"

namespace atmor::la {

/// The one triangular Sylvester kernel: solve sigma*Y - T1 Y - Y T2^T = C
/// in place for upper-triangular T1 (m x m) and T2 (p x p), with C/Y held
/// COLUMN-major at y (column j contiguous at y + j*m). Takes t1t = T1^T so
/// the backsolve runs column-oriented (contiguous rows of T1^T): columns
/// descend, each couples to the solved ones through simd::zaxpy and is then
/// a shifted triangular backsolve. With `symmetric` (T1 = T2 and C = C^T,
/// hence Y = Y^T) only the lower triangle of each column is read and solved
/// -- half the work -- and the upper triangle is mirrored from it. Throws
/// util::InternalError on a zero pivot (sigma equal to an eigenvalue sum).
void tri_sylvester_sweep(const ZMatrix& t1t, const ZMatrix& t2, Complex sigma, Complex* y,
                         bool symmetric = false);

/// Solve sigma*Y - T1 Y - Y T2^T = C where T1 (m x m) and T2 (p x p) are
/// upper triangular; Y and C are m x p (row-major ZMatrix, repacked for
/// tri_sylvester_sweep).
ZMatrix tri_sylvester_shifted(const ZMatrix& t1, const ZMatrix& t2, Complex sigma, ZMatrix c);

/// Solve T1 Y + Y T2 = C with both T1 (m x m) and T2 (p x p) upper
/// triangular; ascending column recurrence.
ZMatrix tri_sylvester_sum(const ZMatrix& t1, const ZMatrix& t2, ZMatrix c);

/// Solve sigma*X - A X - X A^T = C given the complex Schur form of A.
/// This is (sigma*I - A (+) A)^{-1} in vec() coordinates.
ZMatrix resolvent_kron_sum_solve(const ComplexSchur& schur_a, Complex sigma, const ZMatrix& c);

/// Dense real Sylvester A X + X B = C (A: m x m, B: p x p, C/X: m x p).
/// Requires spectra(A) and -spectra(B) disjoint.
Matrix solve_sylvester(const Matrix& a, const Matrix& b, const Matrix& c);

/// Dense real Lyapunov A P + P A^T = Q.
Matrix solve_lyapunov(const Matrix& a, const Matrix& q);

/// Controllability gramian P solving A P + P A^T + B B^T = 0 (A Hurwitz).
Matrix controllability_gramian(const Matrix& a, const Matrix& b);

}  // namespace atmor::la
