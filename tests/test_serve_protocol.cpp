// The serving wire contract, pinned from both ends:
//   * every ServeRequest alternative and a fully-populated ServeResponse
//     survive encode -> decode -> re-encode byte-identically;
//   * in-process-only fields (builder lambdas, raw input closures, family
//     pointers) are REJECTED at encode time with a typed precondition, not
//     silently dropped;
//   * the frame envelope classifies every way a socket can damage a frame
//     -- truncation at EVERY byte boundary, a bit flip at EVERY byte
//     position behind a valid length prefix, oversized announcements,
//     garbage magic -- as the right typed ProtocolError, never a crash or a
//     mis-parse;
//   * the numeric codes shared with the wire (util/error_codes.hpp) are
//     frozen at their documented values.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "rom/family.hpp"
#include "rom/io.hpp"
#include "rom/serve_api.hpp"
#include "util/check.hpp"

namespace {

using namespace atmor;

rom::ServeRequest frequency_request() {
    rom::ServeRequest req;
    req.tenant = "tenant-a";
    rom::FrequencySweepRequest body;
    body.model = rom::ModelRef::by_key("plant|atmor(k1=4,k2=2)");
    for (int j = 0; j < 7; ++j) body.grid.emplace_back(0.25 * j, 0.5 + 0.125 * j);
    req.body = body;
    return req;
}

rom::ServeRequest transient_request() {
    rom::ServeRequest req;
    req.tenant = "tenant-b";
    rom::TransientBatchRequest body;
    body.model = rom::ModelRef::from_artifact("/models/plant.atmor");
    body.inputs = {rom::WaveformSpec::zero(2), rom::WaveformSpec::step(0.75, 0.25),
                   rom::WaveformSpec::pulse(0.4, 0.5, 1.0, 2.0, 1.5),
                   rom::WaveformSpec::sine(0.2, 3.5), rom::WaveformSpec::surge(1.0, 0.5, 2.0),
                   rom::WaveformSpec::multi_tone({0.3, 0.2}, {1.5, 2.25}, {0.1, -0.4}),
                   rom::WaveformSpec::am(0.5, 3.0, 0.25, 0.8)};
    body.options.t_end = 4.0;
    body.options.dt = 5e-3;
    body.options.method = ode::Method::trapezoidal;
    body.options.record_stride = 25;
    body.options.newton_tol = 1e-11;
    body.options.newton_max_iter = 17;
    body.options.rkf_tol = 1e-7;
    body.options.dt_min = 1e-6;
    body.options.dt_max = 0.5;
    body.options.refactor_every_step = true;
    req.body = body;
    return req;
}

rom::ServeRequest parametric_request() {
    rom::ServeRequest req;
    req.tenant = "tenant-c";
    rom::ParametricQueryRequest body;
    body.family_id = "nltl_family";
    body.coords = {37.5, 1.01};
    for (int j = 0; j < 5; ++j) body.grid.emplace_back(0.0, 0.05 * (j + 1));
    body.tol = 2e-3;
    body.blend = true;
    body.allow_fallback = false;
    req.body = body;
    return req;
}

rom::ServeRequest certificate_request() {
    rom::ServeRequest req;
    req.tenant = "tenant-d";
    rom::BuildSpec spec;
    spec.recipe = "nltl";
    spec.params = {8.0, 40.0, 1.0, 4.0, 2.0, 1.5};
    req.body = rom::CertificateRequest{rom::ModelRef::from_spec(spec)};
    return req;
}

rom::ServeRequest batch_request() {
    rom::ServeRequest req;
    req.tenant = "tenant-e";
    rom::ParametricBatchRequest body;
    body.family_id = "grid_family";
    body.coords = {{37.5, 1.01}, {12.0, 1.5}, {80.0, 0.99}};
    for (int j = 0; j < 4; ++j) body.grid.emplace_back(0.0, 0.1 * (j + 1));
    body.tol = 5e-4;
    body.blend = false;
    body.allow_fallback = true;
    req.body = body;
    return req;
}

std::vector<rom::ServeRequest> all_requests() {
    return {frequency_request(), transient_request(), parametric_request(),
            certificate_request(), batch_request()};
}

// ---------------------------------------------------------------------------
// serve_api payload codec.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsEveryAlternative) {
    for (const rom::ServeRequest& req : all_requests()) {
        const std::string bytes = rom::encode_request(req);
        const rom::ServeRequest back = rom::decode_request(bytes);
        EXPECT_EQ(back.tenant, req.tenant);
        EXPECT_EQ(back.kind(), req.kind());
        // Re-encoding the decoded request must reproduce the bytes exactly:
        // the codec has one canonical spelling per request.
        EXPECT_EQ(rom::encode_request(back), bytes)
            << "re-encode differs for kind " << rom::to_string(req.kind());
        EXPECT_EQ(rom::peek_tenant(bytes), req.tenant);
    }
}

TEST(ServeProtocol, TransientFieldsSurviveTheWire) {
    const rom::ServeRequest back =
        rom::decode_request(rom::encode_request(transient_request()));
    const auto& body = std::get<rom::TransientBatchRequest>(back.body);
    ASSERT_EQ(body.inputs.size(), 7u);
    EXPECT_EQ(body.inputs[0].kind, rom::WaveformSpec::Kind::zero);
    EXPECT_EQ(body.inputs[0].arity, 2);
    EXPECT_EQ(body.inputs[2].kind, rom::WaveformSpec::Kind::pulse);
    EXPECT_EQ(body.inputs[2].rise, 1.0);
    EXPECT_EQ(body.inputs[4].tau_decay, 2.0);
    EXPECT_EQ(body.inputs[5].kind, rom::WaveformSpec::Kind::multi_tone);
    EXPECT_EQ(body.inputs[5].tone_amplitudes, (std::vector<double>{0.3, 0.2}));
    EXPECT_EQ(body.inputs[5].tones_hz, (std::vector<double>{1.5, 2.25}));
    EXPECT_EQ(body.inputs[5].tone_phases, (std::vector<double>{0.1, -0.4}));
    EXPECT_EQ(body.inputs[6].kind, rom::WaveformSpec::Kind::am);
    EXPECT_EQ(body.inputs[6].mod_hz, 0.25);
    EXPECT_EQ(body.inputs[6].mod_depth, 0.8);
    EXPECT_EQ(body.options.method, ode::Method::trapezoidal);
    EXPECT_EQ(body.options.newton_tol, 1e-11);
    EXPECT_EQ(body.options.newton_max_iter, 17);
    EXPECT_EQ(body.options.rkf_tol, 1e-7);
    EXPECT_EQ(body.options.dt_min, 1e-6);
    EXPECT_EQ(body.options.dt_max, 0.5);
    EXPECT_TRUE(body.options.refactor_every_step);
    // The spec instantiates to the exact circuits:: closed forms.
    const ode::InputFn pulse = body.inputs[2].instantiate();
    EXPECT_EQ(pulse(1.0)[0], 0.2);  // halfway up the linear rise
    EXPECT_EQ(pulse(1.75)[0], 0.4);
}

TEST(ServeProtocol, ResponseRoundTripsFullyPopulated) {
    rom::ServeResponse resp;
    resp.kind = rom::RequestKind::parametric_query;
    resp.error.code = util::ErrorCode::ok;
    resp.certificate.method = "atmor";
    resp.certificate.estimated_error = 1.25e-4;
    resp.response.push_back(la::ZMatrix(2, 3));
    resp.response.back()(1, 2) = la::Complex(0.5, -0.25);
    ode::TransientResult tr;
    tr.t = {0.0, 0.5, 1.0};
    tr.y = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    tr.x_final = {0.125, -0.25};
    tr.steps = 200;
    tr.newton_iterations = 310;
    tr.factorizations = 4;
    resp.transients.push_back(tr);
    resp.member = 1;
    resp.blended_with = 0;
    resp.blend_weight = 0.75;
    resp.fallback = true;

    const std::string bytes = rom::encode_response(resp);
    const rom::ServeResponse back = rom::decode_response(bytes);
    EXPECT_EQ(back.kind, resp.kind);
    EXPECT_TRUE(back.ok());
    EXPECT_EQ(back.certificate.estimated_error, 1.25e-4);
    ASSERT_EQ(back.response.size(), 1u);
    EXPECT_EQ(back.response[0](1, 2), la::Complex(0.5, -0.25));
    ASSERT_EQ(back.transients.size(), 1u);
    EXPECT_EQ(back.transients[0].y, tr.y);
    EXPECT_EQ(back.transients[0].newton_iterations, 310);
    EXPECT_EQ(back.member, 1);
    EXPECT_EQ(back.blended_with, 0);
    EXPECT_EQ(back.blend_weight, 0.75);
    EXPECT_TRUE(back.fallback);
    EXPECT_EQ(rom::encode_response(back), bytes);
}

TEST(ServeProtocol, BatchRequestFieldsSurviveTheWire) {
    const rom::ServeRequest back = rom::decode_request(rom::encode_request(batch_request()));
    const auto& body = std::get<rom::ParametricBatchRequest>(back.body);
    EXPECT_EQ(body.family_id, "grid_family");
    ASSERT_EQ(body.coords.size(), 3u);
    EXPECT_EQ(body.coords[1], (pmor::Point{12.0, 1.5}));
    EXPECT_EQ(body.grid.size(), 4u);
    EXPECT_EQ(body.tol, 5e-4);
    EXPECT_FALSE(body.blend);
    EXPECT_TRUE(body.allow_fallback);
}

TEST(ServeProtocol, BatchResponseRecordsSurviveTheWire) {
    rom::ServeResponse resp;
    resp.kind = rom::RequestKind::parametric_batch;
    resp.certificate.estimated_error = 3e-4;
    resp.response.push_back(la::ZMatrix(1, 1));
    resp.response.push_back(la::ZMatrix(1, 1));
    resp.batch_member = {0, 2};
    resp.batch_error = {1e-4, 3e-4};
    resp.batch_fallback = {0, 1};
    const std::string bytes = rom::encode_response(resp);
    const rom::ServeResponse back = rom::decode_response(bytes);
    EXPECT_EQ(back.kind, rom::RequestKind::parametric_batch);
    EXPECT_EQ(back.batch_member, resp.batch_member);
    EXPECT_EQ(back.batch_error, resp.batch_error);
    EXPECT_EQ(back.batch_fallback, resp.batch_fallback);
    EXPECT_EQ(rom::encode_response(back), bytes);
}

TEST(ServeProtocol, ResponseEncodingZeroesWallClock) {
    // solve_seconds is the one nondeterministic TransientResult field; the
    // codec zeroes it so wire answers are bit-comparable across runs.
    rom::ServeResponse resp;
    resp.kind = rom::RequestKind::transient_batch;
    ode::TransientResult tr;
    tr.t = {0.0};
    tr.x_final = {1.0};
    tr.solve_seconds = 123.456;
    resp.transients.push_back(tr);
    const rom::ServeResponse back = rom::decode_response(rom::encode_response(resp));
    EXPECT_EQ(back.transients[0].solve_seconds, 0.0);
    tr.solve_seconds = 99.0;
    rom::ServeResponse resp2 = resp;
    resp2.transients[0] = tr;
    EXPECT_EQ(rom::encode_response(resp2), rom::encode_response(resp));
}

TEST(ServeProtocol, PayloadTruncationAtEveryBoundaryIsTyped) {
    for (const rom::ServeRequest& req : all_requests()) {
        const std::string bytes = rom::encode_request(req);
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            EXPECT_THROW((void)rom::decode_request(bytes.substr(0, cut)), rom::IoError)
                << "prefix of " << cut << "/" << bytes.size() << " bytes decoded";
        }
        EXPECT_THROW((void)rom::decode_request(bytes + '\0'), rom::IoError)
            << "trailing byte accepted";
    }
}

// ---------------------------------------------------------------------------
// Frame envelope.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTrip) {
    const std::string payload = rom::encode_request(frequency_request());
    const std::string frame = net::frame_message(net::FrameKind::request, payload);
    EXPECT_EQ(frame.size(),
              net::kFrameHeaderBytes + payload.size() + net::kFrameChecksumBytes);
    net::FrameKind kind = net::FrameKind::response;
    EXPECT_EQ(net::unframe_message(frame, &kind), payload);
    EXPECT_EQ(kind, net::FrameKind::request);

    // Incremental form: a frame with trailing bytes of the NEXT frame parses
    // the first and reports its length.
    std::string two = frame + frame;
    std::string out;
    const std::size_t consumed = net::try_unframe(two, &kind, &out);
    EXPECT_EQ(consumed, frame.size());
    EXPECT_EQ(out, payload);
}

TEST(ServeProtocol, TruncationAtEveryFrameBoundary) {
    const std::string payload = rom::encode_request(certificate_request());
    const std::string frame = net::frame_message(net::FrameKind::request, payload);
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
        const std::string prefix = frame.substr(0, cut);
        // The incremental parser treats every prefix of a valid frame as
        // "read more" -- no spurious errors from short reads.
        net::FrameKind kind;
        std::string out;
        EXPECT_EQ(net::try_unframe(prefix, &kind, &out), 0u) << "cut=" << cut;
        // The strict parser calls the same prefix what it is: truncated.
        try {
            (void)net::unframe_message(prefix, &kind);
            FAIL() << "prefix of " << cut << " bytes parsed as a whole frame";
        } catch (const net::ProtocolError& e) {
            EXPECT_EQ(e.kind(), net::ProtocolErrorKind::truncated) << "cut=" << cut;
        }
    }
}

TEST(ServeProtocol, BitFlipAtEveryPositionIsTyped) {
    const std::string payload = rom::encode_request(parametric_request());
    const std::string frame = net::frame_message(net::FrameKind::request, payload);
    for (std::size_t i = 0; i < frame.size(); ++i) {
        std::string damaged = frame;
        damaged[i] = static_cast<char>(damaged[i] ^ 0x40);
        net::FrameKind kind;
        try {
            const std::string out = net::unframe_message(damaged, &kind);
            // Only the frame-kind byte can absorb a flip without tripping a
            // check (the checksum covers the payload, not the envelope): the
            // request frame turns into a "response" frame. The daemon layer
            // rejects that by kind.
            EXPECT_EQ(i, net::kFrameHeaderBytes - 9u) << "undetected flip at byte " << i;
            EXPECT_EQ(kind, net::FrameKind::response);
            EXPECT_EQ(out, payload);
        } catch (const net::ProtocolError& e) {
            const std::size_t kind_byte = 12, size_lo = 13, size_hi = 20;
            if (i < 8) {
                EXPECT_EQ(e.kind(), net::ProtocolErrorKind::bad_magic) << "byte " << i;
            } else if (i < 12) {
                EXPECT_EQ(e.kind(), net::ProtocolErrorKind::version_mismatch)
                    << "byte " << i;
            } else if (i == kind_byte) {
                EXPECT_EQ(e.kind(), net::ProtocolErrorKind::corrupt) << "byte " << i;
            } else if (i <= size_hi) {
                // A damaged length prefix reads as some other (possibly
                // absurd) frame extent: truncated / oversized / corrupt /
                // checksum_mismatch are all legitimate, crash is not.
                EXPECT_TRUE(e.kind() == net::ProtocolErrorKind::truncated ||
                            e.kind() == net::ProtocolErrorKind::oversized ||
                            e.kind() == net::ProtocolErrorKind::corrupt ||
                            e.kind() == net::ProtocolErrorKind::checksum_mismatch)
                    << "byte " << i << ": " << net::to_string(e.kind());
                (void)size_lo;
            } else {
                // Payload or checksum region behind a VALID length prefix:
                // always checksum_mismatch, the recoverable kind (the daemon
                // skips the frame and keeps the connection).
                EXPECT_EQ(e.kind(), net::ProtocolErrorKind::checksum_mismatch)
                    << "byte " << i;
            }
        }
    }
}

TEST(ServeProtocol, OversizedAnnouncementRejectedFromHeaderAlone) {
    const std::string payload(1024, 'x');
    const std::string frame = net::frame_message(net::FrameKind::request, payload);
    net::FrameKind kind;
    std::string out;
    // Header-only prefix: the length check must fire BEFORE the payload is
    // buffered (a peer cannot make the daemon allocate 64 MiB by announcing
    // it).
    const std::string header = frame.substr(0, net::kFrameHeaderBytes);
    try {
        (void)net::try_unframe(header, &kind, &out, /*max_frame_bytes=*/512);
        FAIL() << "oversized announcement accepted";
    } catch (const net::ProtocolError& e) {
        EXPECT_EQ(e.kind(), net::ProtocolErrorKind::oversized);
    }
    EXPECT_EQ(net::try_unframe(frame, &kind, &out, /*max_frame_bytes=*/2048),
              frame.size());
}

TEST(ServeProtocol, GarbageMagicRejectedAtEightBytes) {
    std::string garbage = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
    net::FrameKind kind;
    std::string out;
    try {
        (void)net::try_unframe(garbage, &kind, &out);
        FAIL() << "garbage accepted";
    } catch (const net::ProtocolError& e) {
        EXPECT_EQ(e.kind(), net::ProtocolErrorKind::bad_magic);
    }
    // Even a 8-byte prefix is enough to classify.
    try {
        (void)net::try_unframe(garbage.substr(0, 8), &kind, &out);
        FAIL() << "garbage prefix accepted";
    } catch (const net::ProtocolError& e) {
        EXPECT_EQ(e.kind(), net::ProtocolErrorKind::bad_magic);
    }
    // 7 bytes cannot be classified yet: read more.
    EXPECT_EQ(net::try_unframe(garbage.substr(0, 7), &kind, &out), 0u);
}

TEST(ServeProtocol, VersionSkewRejected) {
    const std::string payload = "p";
    std::string frame = net::frame_message(net::FrameKind::request, payload);
    std::uint32_t future = net::kProtocolVersion + 1;
    std::memcpy(&frame[8], &future, sizeof(future));
    net::FrameKind kind;
    std::string out;
    try {
        (void)net::try_unframe(frame, &kind, &out);
        FAIL() << "future version accepted";
    } catch (const net::ProtocolError& e) {
        EXPECT_EQ(e.kind(), net::ProtocolErrorKind::version_mismatch);
    }
}

// ---------------------------------------------------------------------------
// Stable numeric codes: part of the wire contract, frozen forever.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, ErrorCodesAreFrozen) {
    using util::ErrorCode;
    static_assert(static_cast<int>(ErrorCode::ok) == 0);
    static_assert(static_cast<int>(ErrorCode::precondition) == 1);
    static_assert(static_cast<int>(ErrorCode::internal) == 2);
    static_assert(static_cast<int>(ErrorCode::io_open_failed) == 10);
    static_assert(static_cast<int>(ErrorCode::io_corrupt) == 15);
    static_assert(static_cast<int>(ErrorCode::proto_socket_failed) == 20);
    static_assert(static_cast<int>(ErrorCode::proto_corrupt) == 26);
    static_assert(static_cast<int>(ErrorCode::serve_unresolved) == 40);
    static_assert(static_cast<int>(ErrorCode::serve_overloaded) == 41);
    EXPECT_EQ(rom::error_code(rom::IoErrorKind::checksum_mismatch),
              ErrorCode::io_checksum_mismatch);
    EXPECT_EQ(net::error_code(net::ProtocolErrorKind::oversized),
              ErrorCode::proto_oversized);
    EXPECT_STREQ(util::to_string(ErrorCode::serve_overloaded), "serve_overloaded");
}

}  // namespace
