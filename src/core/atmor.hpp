// The proposed nonlinear MOR via associated transforms -- the paper's
// headline algorithm.
//
// For requested moment counts (k1, k2, k3) and expansion points {sigma_0},
// the projection basis V gathers the moment vectors of the SINGLE-s
// associated transfer functions H1(s), A2(H2)(s), A3(H3)(s); its size is
// O(k1 + k2 + k3) per point (paper Remark 1), in contrast to the
// combinatorial moment sets of classical Volterra-Krylov NMOR (see norm.hpp).
// The reduced model is obtained by Galerkin projection and is again a QLDAE.
#pragma once

#include <memory>
#include <vector>

#include "la/matrix.hpp"
#include "la/solver_backend.hpp"
#include "rom/reduced_model.hpp"
#include "volterra/associated.hpp"
#include "volterra/qldae.hpp"

namespace atmor::mor {
struct AdaptiveOptions;
struct AdaptiveResult;
}  // namespace atmor::mor

namespace atmor::pmor {
struct FamilyDesign;
struct FamilyBuildOptions;
struct FamilyBuildResult;
}  // namespace atmor::pmor

namespace atmor::core {

/// Largest order for which the MOR front-ends run the dense eigenvalue sweep
/// that validates expansion points against the spectrum of G1. Beyond this
/// the sweep's O(n^3) Schur pass would dominate a sparse reduction, so large
/// sparse systems rely on factorisation-time singularity detection instead.
inline constexpr int kEigenGuardMaxOrder = 512;

/// The default expansion-point set: the single DC point sigma0 = 0 (the
/// low-pass accurate expansion the paper's experiments use). Shared by
/// AtMorOptions and reduce_linear so the literal is spelled exactly once.
inline const std::vector<la::Complex> kDcExpansionPoints{la::Complex(0.0, 0.0)};

struct AtMorOptions {
    int k1 = 6;  ///< moments of H1(s) matched (per expansion point)
    int k2 = 3;  ///< moments of A2(H2)(s)
    int k3 = 2;  ///< moments of A3(H3)(s)
    /// Expansion points; the DC default matches the paper. Complex points
    /// contribute Re/Im pairs (Remark 3: multipoint expansion is
    /// straightforward in single-s form).
    std::vector<la::Complex> expansion_points = kDcExpansionPoints;
    /// Optional per-expansion-point moment counts. When non-empty it must
    /// have exactly one entry per expansion point and OVERRIDES k1/k2/k3 for
    /// that point -- the hook the adaptive front-end uses to trim orders
    /// point by point instead of enriching every point uniformly.
    std::vector<rom::PointOrder> per_point_orders;
    /// Additionally match `markov_moments` Markov parameters of H1 (the
    /// s = infinity expansion K_p(G1, b) the paper's Sec. 2.3 contrasts with
    /// the K_p(G1^{-1}, G1^{-1} b) low-pass expansion). Improves the early
    /// transient / high-frequency fit.
    int markov_moments = 0;
    double deflation_tol = 1e-8;
    /// Resolvent solver backend for the moment chains. nullptr selects the
    /// default: sparse LU with the (operator, shift) factorisation cache for
    /// sparse-first systems, Schur for dense ones.
    std::shared_ptr<la::SolverBackend> backend;
};

/// Outcome of a reduction. Since the offline/online split this IS the
/// serializable rom:: artifact -- the reduced QLDAE, the basis, the build
/// bookkeeping the paper's tables report, plus provenance (method, expansion
/// points, moment counts, basis hash), which every reduce_* front-end fills.
/// A result can therefore go straight into rom::save_model / rom::Registry;
/// set provenance.source to the circuit key before persisting.
using MorResult = rom::ReducedModel;

/// Reduce with the proposed associated-transform method.
MorResult reduce_associated(const volterra::Qldae& sys, const AtMorOptions& opt);

/// Same, reusing an existing AssociatedTransform (shares Schur factors).
MorResult reduce_associated(const volterra::AssociatedTransform& at, const AtMorOptions& opt);

/// Linear (H1-only) Krylov baseline: k2 = k3 = 0.
MorResult reduce_linear(const volterra::Qldae& sys, int k1,
                        const std::vector<la::Complex>& expansion_points = kDcExpansionPoints,
                        double deflation_tol = 1e-8);

/// Adaptive multi-point expansion: greedy a-posteriori-driven point insertion
/// plus per-point order trimming until mor::AdaptiveOptions::tol is met over
/// the target band. Declared here so the reduce_* front-ends live side by
/// side; implemented in mor/adaptive.cpp (include mor/adaptive.hpp for the
/// option/result types).
mor::AdaptiveResult reduce_adaptive(const volterra::Qldae& sys, const mor::AdaptiveOptions& opt);

/// Parametric family: greedy parameter-space sampling over a FamilyDesign
/// (typed descriptors on circuits::*Options) with per-point reduce_adaptive
/// members, producing a certified rom::Family ready for save_family /
/// ServeEngine::host_family. Declared here so the reduce/build
/// front-ends live side by side; implemented in pmor/family_builder.cpp
/// (include pmor/family_builder.hpp for the option/result types).
pmor::FamilyBuildResult build_family(const pmor::FamilyDesign& design,
                                     const pmor::FamilyBuildOptions& opt);

}  // namespace atmor::core
