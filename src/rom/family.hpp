// The parametric ROM family artifact: many member ROMs covering a sampled
// parameter box, with the offline certification metadata that makes online
// member selection a lookup instead of a full-order solve.
//
// A Family is what pmor::FamilyBuilder produces and rom::ServeEngine hosts
// for parametric queries: the parameter space, the member ROMs with their
// parameter coordinates, and a COVERAGE TABLE over the training grid -- for
// every training point, which member approximates it best and at what
// certified (a-posteriori, mor::ErrorEstimator) cross error, plus the
// runner-up for two-member blending. Serving a query then reduces to
// locating the nearest training cell and reading its certificate; a cell no
// member certifies routes the query to the on-demand fallback build.
//
// Serialized as io format v3 (rom/io.hpp: save_family/load_family); v1/v2
// single-model artifacts remain loadable.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "pmor/param_space.hpp"
#include "rom/reduced_model.hpp"

namespace atmor::rom {

/// One member ROM pinned at a parameter point.
struct FamilyMember {
    pmor::Point coords;            ///< parameter coordinates the ROM was built at
    /// Worst certified cross error over the training cells this member
    /// covers (the certificate served for any query landing in them).
    double certified_error = 0.0;
    /// Largest normalized distance from `coords` to a covered training cell
    /// (informational: how far this member's certified region reaches).
    double coverage_radius = 0.0;
    ReducedModel model;
};

/// One training-grid cell of the coverage table.
struct CoverageCell {
    pmor::Point coords;  ///< training point (cell site)
    /// Member with the SMALLEST cross error here (-1 only when every member
    /// was structurally incompatible, i.e. infinite error). The cell is
    /// certified iff best >= 0 AND best_error <= the serving tolerance --
    /// an unconverged family has cells whose best member exceeds tol.
    int best = -1;
    double best_error = std::numeric_limits<double>::infinity();
    int second = -1;     ///< runner-up member (for blending); -1 when absent
    double second_error = std::numeric_limits<double>::infinity();
};

struct Family {
    std::string family_id;
    pmor::ParamSpace space;
    double tol = 0.0;               ///< certified cross-error target
    int training_grid_per_dim = 0;  ///< coverage-table resolution
    /// Worst best_error over the whole table (<= tol iff converged).
    double max_training_error = 0.0;
    bool converged = false;
    std::vector<FamilyMember> members;
    std::vector<CoverageCell> cells;

    /// Index of the training cell nearest to `coords` (normalized metric);
    /// -1 for an empty table.
    [[nodiscard]] int locate(const pmor::Point& coords) const;

    /// Index of the member nearest to `coords`; -1 for an empty family.
    [[nodiscard]] int nearest_member(const pmor::Point& coords) const;
};

/// Approximate heap footprint of every materialized member (sum of
/// rom::resident_bytes over the members). What an eager whole-artifact load
/// keeps resident; the lazy mmap reader (rom/family_artifact.hpp) reports
/// only its touched subset.
std::size_t resident_bytes(const Family& f);

}  // namespace atmor::rom
