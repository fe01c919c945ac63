// Request builders for the serving tests. In-process callers talk to
// rom::ServeEngine exactly like a net::ServeClient does: they build a
// ServeRequest and call serve().
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ode/transient.hpp"
#include "rom/serve_engine.hpp"

namespace atmor::test {

inline rom::ServeRequest sweep_request(const std::string& key, std::vector<la::Complex> grid) {
    rom::ServeRequest req;
    req.body = rom::FrequencySweepRequest{rom::ModelRef::by_key(key), std::move(grid)};
    return req;
}

inline rom::ServeRequest transient_request(const std::string& key,
                                           std::vector<rom::WaveformSpec> inputs,
                                           const ode::TransientOptions& opt) {
    rom::ServeRequest req;
    req.body = rom::TransientBatchRequest{rom::ModelRef::by_key(key), std::move(inputs),
                                          rom::TransientSpec::from_options(opt)};
    return req;
}

inline rom::ServeRequest certificate_request(const std::string& key) {
    rom::ServeRequest req;
    req.body = rom::CertificateRequest{rom::ModelRef::by_key(key)};
    return req;
}

inline rom::ServeRequest parametric_request(const std::string& family_id, pmor::Point coords,
                                            std::vector<la::Complex> grid, double tol = 0.0,
                                            bool blend = false, bool allow_fallback = true) {
    rom::ParametricQueryRequest body;
    body.family_id = family_id;
    body.coords = std::move(coords);
    body.grid = std::move(grid);
    body.tol = tol;
    body.blend = blend;
    body.allow_fallback = allow_fallback;
    rom::ServeRequest req;
    req.body = std::move(body);
    return req;
}

inline rom::ServeRequest parametric_batch_request(const std::string& family_id,
                                                  std::vector<pmor::Point> coords,
                                                  std::vector<la::Complex> grid,
                                                  double tol = 0.0, bool blend = false) {
    rom::ParametricBatchRequest body;
    body.family_id = family_id;
    body.coords = std::move(coords);
    body.grid = std::move(grid);
    body.tol = tol;
    body.blend = blend;
    rom::ServeRequest req;
    req.body = std::move(body);
    return req;
}

/// serve() for a request that must succeed: a typed error fails the test
/// with its code and message.
inline rom::ServeResponse serve_ok(rom::ServeEngine& engine, const rom::ServeRequest& req) {
    rom::ServeResponse resp = engine.serve(req);
    EXPECT_TRUE(resp.ok()) << rom::to_string(req.kind()) << " answered error "
                           << static_cast<int>(resp.error.code) << ": " << resp.error.message;
    return resp;
}

}  // namespace atmor::test
