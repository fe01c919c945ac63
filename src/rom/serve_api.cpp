#include "rom/serve_api.hpp"

#include <cmath>
#include <utility>

#include "rom/io.hpp"
#include "util/check.hpp"
#include "util/key_format.hpp"

namespace atmor::rom {

namespace {

[[noreturn]] void fail_corrupt(const std::string& what) {
    throw IoError(IoErrorKind::corrupt, "serve_api: " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// BuildSpec / ModelRef
// ---------------------------------------------------------------------------

std::string BuildSpec::key() const {
    std::string out = "spec:" + recipe + "(";
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (i) out += ',';
        out += util::key_num(params[i]);
    }
    out += ')';
    return out;
}

ModelRef ModelRef::by_key(std::string key) {
    ModelRef ref;
    ref.kind = Kind::registry_key;
    ref.key = std::move(key);
    return ref;
}

ModelRef ModelRef::from_artifact(std::string path) {
    ModelRef ref;
    ref.kind = Kind::artifact_path;
    ref.path = std::move(path);
    return ref;
}

ModelRef ModelRef::from_spec(BuildSpec spec) {
    ModelRef ref;
    ref.kind = Kind::build_spec;
    ref.spec = std::move(spec);
    return ref;
}

std::string ModelRef::cache_key() const {
    switch (kind) {
        case Kind::registry_key: return key;
        case Kind::artifact_path: return "artifact:" + path;
        case Kind::build_spec: return spec.key();
    }
    return key;
}

// ---------------------------------------------------------------------------
// WaveformSpec -- same closed forms as the circuits::*_input factories, kept
// here (not by calling circuits/) so the rom layer stays below circuits in
// the layer map. Parameter preconditions mirror the factories exactly.
// ---------------------------------------------------------------------------

WaveformSpec WaveformSpec::zero(int arity) {
    WaveformSpec w;
    w.kind = Kind::zero;
    w.arity = arity;
    return w;
}

WaveformSpec WaveformSpec::step(double amplitude, double t_on) {
    WaveformSpec w;
    w.kind = Kind::step;
    w.amplitude = amplitude;
    w.t_on = t_on;
    return w;
}

WaveformSpec WaveformSpec::pulse(double amplitude, double t_on, double rise, double t_off,
                                 double fall) {
    WaveformSpec w;
    w.kind = Kind::pulse;
    w.amplitude = amplitude;
    w.t_on = t_on;
    w.rise = rise;
    w.t_off = t_off;
    w.fall = fall;
    return w;
}

WaveformSpec WaveformSpec::sine(double amplitude, double frequency_hz) {
    WaveformSpec w;
    w.kind = Kind::sine;
    w.amplitude = amplitude;
    w.frequency_hz = frequency_hz;
    return w;
}

WaveformSpec WaveformSpec::surge(double amplitude, double tau_rise, double tau_decay) {
    WaveformSpec w;
    w.kind = Kind::surge;
    w.amplitude = amplitude;
    w.tau_rise = tau_rise;
    w.tau_decay = tau_decay;
    return w;
}

WaveformSpec WaveformSpec::multi_tone(std::vector<double> amplitudes,
                                      std::vector<double> freqs_hz,
                                      std::vector<double> phases) {
    WaveformSpec w;
    w.kind = Kind::multi_tone;
    w.tone_amplitudes = std::move(amplitudes);
    w.tones_hz = std::move(freqs_hz);
    w.tone_phases = std::move(phases);
    return w;
}

WaveformSpec WaveformSpec::am(double amplitude, double carrier_hz, double mod_hz,
                              double depth) {
    WaveformSpec w;
    w.kind = Kind::am;
    w.amplitude = amplitude;
    w.frequency_hz = carrier_hz;
    w.mod_hz = mod_hz;
    w.mod_depth = depth;
    return w;
}

ode::InputFn WaveformSpec::instantiate() const {
    using la::Vec;
    switch (kind) {
        case Kind::zero: {
            ATMOR_REQUIRE(arity >= 1, "WaveformSpec: zero arity >= 1");
            const int n = arity;
            return [n](double) { return Vec(static_cast<std::size_t>(n), 0.0); };
        }
        case Kind::step: {
            const double a = amplitude, on = t_on;
            return [a, on](double t) { return Vec{t >= on ? a : 0.0}; };
        }
        case Kind::pulse: {
            ATMOR_REQUIRE(rise > 0.0 && fall > 0.0 && t_off >= t_on + rise,
                          "WaveformSpec: inconsistent pulse timing");
            const double a = amplitude, on = t_on, r = rise, off = t_off, f = fall;
            return [a, on, r, off, f](double t) {
                double v = 0.0;
                if (t >= on && t < on + r)
                    v = a * (t - on) / r;
                else if (t >= on + r && t < off)
                    v = a;
                else if (t >= off && t < off + f)
                    v = a * (1.0 - (t - off) / f);
                return Vec{v};
            };
        }
        case Kind::sine: {
            const double a = amplitude;
            const double w = 2.0 * M_PI * frequency_hz;
            return [a, w](double t) { return Vec{a * std::sin(w * t)}; };
        }
        case Kind::surge: {
            ATMOR_REQUIRE(tau_decay > tau_rise && tau_rise > 0.0,
                          "WaveformSpec: need tau_decay > tau_rise > 0");
            const double tr = tau_rise, td = tau_decay;
            const double t_peak = std::log(td / tr) * tr * td / (td - tr);
            const double peak = std::exp(-t_peak / td) - std::exp(-t_peak / tr);
            const double scale = amplitude / peak;
            return [scale, tr, td](double t) {
                if (t <= 0.0) return Vec{0.0};
                return Vec{scale * (std::exp(-t / td) - std::exp(-t / tr))};
            };
        }
        case Kind::multi_tone: {
            ATMOR_REQUIRE(!tone_amplitudes.empty(),
                          "WaveformSpec: multi_tone needs at least one tone");
            ATMOR_REQUIRE(tones_hz.size() == tone_amplitudes.size(),
                          "WaveformSpec: multi_tone amplitude/frequency length mismatch");
            ATMOR_REQUIRE(tone_phases.empty() ||
                              tone_phases.size() == tone_amplitudes.size(),
                          "WaveformSpec: multi_tone phase length mismatch");
            std::vector<double> omegas(tones_hz.size());
            for (std::size_t k = 0; k < tones_hz.size(); ++k)
                omegas[k] = 2.0 * M_PI * tones_hz[k];
            std::vector<double> phases = tone_phases;
            if (phases.empty()) phases.assign(tone_amplitudes.size(), 0.0);
            return [amps = tone_amplitudes, omegas = std::move(omegas),
                    phases = std::move(phases)](double t) {
                double v = 0.0;
                for (std::size_t k = 0; k < amps.size(); ++k)
                    v += amps[k] * std::sin(omegas[k] * t + phases[k]);
                return Vec{v};
            };
        }
        case Kind::am: {
            ATMOR_REQUIRE(mod_depth >= 0.0 && mod_depth <= 1.0,
                          "WaveformSpec: am depth must be in [0, 1]");
            ATMOR_REQUIRE(frequency_hz > 0.0,
                          "WaveformSpec: am carrier frequency must be positive");
            const double a = amplitude, depth = mod_depth;
            const double wc = 2.0 * M_PI * frequency_hz;
            const double wm = 2.0 * M_PI * mod_hz;
            return [a, depth, wc, wm](double t) {
                return Vec{a * (1.0 + depth * std::sin(wm * t)) * std::sin(wc * t)};
            };
        }
    }
    ATMOR_REQUIRE(false, "WaveformSpec: unknown kind");
    return {};
}

// ---------------------------------------------------------------------------
// TransientSpec
// ---------------------------------------------------------------------------

TransientSpec TransientSpec::from_options(const ode::TransientOptions& opt) {
    TransientSpec s;
    s.t_end = opt.t_end;
    s.dt = opt.dt;
    s.method = opt.method;
    s.record_stride = opt.record_stride;
    s.newton_tol = opt.newton_tol;
    s.newton_max_iter = opt.newton_max_iter;
    s.rkf_tol = opt.rkf_tol;
    s.dt_min = opt.dt_min;
    s.dt_max = opt.dt_max;
    s.refactor_every_step = opt.refactor_every_step;
    return s;
}

ode::TransientOptions TransientSpec::to_options() const {
    ode::TransientOptions opt;
    opt.t_end = t_end;
    opt.dt = dt;
    opt.method = method;
    opt.record_stride = record_stride;
    opt.newton_tol = newton_tol;
    opt.newton_max_iter = newton_max_iter;
    opt.rkf_tol = rkf_tol;
    opt.dt_min = dt_min;
    opt.dt_max = dt_max;
    opt.refactor_every_step = refactor_every_step;
    return opt;
}

const char* to_string(RequestKind kind) {
    switch (kind) {
        case RequestKind::frequency_sweep: return "frequency_sweep";
        case RequestKind::transient_batch: return "transient_batch";
        case RequestKind::parametric_query: return "parametric_query";
        case RequestKind::certificate: return "certificate";
        case RequestKind::parametric_batch: return "parametric_batch";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Codec helpers
// ---------------------------------------------------------------------------

namespace {

void write_model_ref(Writer& w, const ModelRef& ref) {
    w.u8(static_cast<std::uint8_t>(ref.kind));
    w.str(ref.key);
    w.str(ref.path);
    w.str(ref.spec.recipe);
    w.vec(ref.spec.params);
}

ModelRef read_model_ref(Reader& r) {
    ModelRef ref;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(ModelRef::Kind::build_spec))
        fail_corrupt("unknown ModelRef kind");
    ref.kind = static_cast<ModelRef::Kind>(kind);
    ref.key = r.str();
    ref.path = r.str();
    ref.spec.recipe = r.str();
    ref.spec.params = r.vec();
    return ref;
}

void write_waveform(Writer& w, const WaveformSpec& spec) {
    w.u8(static_cast<std::uint8_t>(spec.kind));
    w.i32(spec.arity);
    w.f64(spec.amplitude);
    w.f64(spec.t_on);
    w.f64(spec.rise);
    w.f64(spec.t_off);
    w.f64(spec.fall);
    w.f64(spec.frequency_hz);
    w.f64(spec.tau_rise);
    w.f64(spec.tau_decay);
    // Kind-gated extensions keep the original kinds' byte layout untouched.
    if (spec.kind == WaveformSpec::Kind::multi_tone) {
        w.vec(spec.tone_amplitudes);
        w.vec(spec.tones_hz);
        w.vec(spec.tone_phases);
    }
    if (spec.kind == WaveformSpec::Kind::am) {
        w.f64(spec.mod_hz);
        w.f64(spec.mod_depth);
    }
}

WaveformSpec read_waveform(Reader& r) {
    WaveformSpec spec;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(WaveformSpec::Kind::am))
        fail_corrupt("unknown WaveformSpec kind");
    spec.kind = static_cast<WaveformSpec::Kind>(kind);
    spec.arity = r.i32();
    spec.amplitude = r.f64();
    spec.t_on = r.f64();
    spec.rise = r.f64();
    spec.t_off = r.f64();
    spec.fall = r.f64();
    spec.frequency_hz = r.f64();
    spec.tau_rise = r.f64();
    spec.tau_decay = r.f64();
    if (spec.kind == WaveformSpec::Kind::multi_tone) {
        spec.tone_amplitudes = r.vec();
        spec.tones_hz = r.vec();
        spec.tone_phases = r.vec();
    }
    if (spec.kind == WaveformSpec::Kind::am) {
        spec.mod_hz = r.f64();
        spec.mod_depth = r.f64();
    }
    return spec;
}

void write_transient_spec(Writer& w, const TransientSpec& s) {
    w.f64(s.t_end);
    w.f64(s.dt);
    w.u8(static_cast<std::uint8_t>(s.method));
    w.i32(s.record_stride);
    w.f64(s.newton_tol);
    w.i32(s.newton_max_iter);
    w.f64(s.rkf_tol);
    w.f64(s.dt_min);
    w.f64(s.dt_max);
    w.u8(s.refactor_every_step ? 1 : 0);
}

TransientSpec read_transient_spec(Reader& r) {
    TransientSpec s;
    s.t_end = r.f64();
    s.dt = r.f64();
    const std::uint8_t method = r.u8();
    if (method > static_cast<std::uint8_t>(ode::Method::backward_euler))
        fail_corrupt("unknown ode::Method");
    s.method = static_cast<ode::Method>(method);
    s.record_stride = r.i32();
    s.newton_tol = r.f64();
    s.newton_max_iter = r.i32();
    s.rkf_tol = r.f64();
    s.dt_min = r.f64();
    s.dt_max = r.f64();
    s.refactor_every_step = r.u8() != 0;
    return s;
}

void write_zgrid(Writer& w, const std::vector<la::Complex>& grid) {
    w.u64(grid.size());
    for (la::Complex z : grid) w.complex(z);
}

std::vector<la::Complex> read_zgrid(Reader& r) {
    const std::uint64_t n = r.u64();
    std::vector<la::Complex> grid;
    grid.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) grid.push_back(r.complex());
    return grid;
}

void write_certificate(Writer& w, const ErrorCertificate& c) {
    w.str(c.method);
    w.f64(c.tol);
    w.f64(c.band_min);
    w.f64(c.band_max);
    w.f64(c.estimated_error);
    w.i32(c.expansion_points);
    w.i32(c.order);
}

ErrorCertificate read_certificate(Reader& r) {
    ErrorCertificate c;
    c.method = r.str();
    c.tol = r.f64();
    c.band_min = r.f64();
    c.band_max = r.f64();
    c.estimated_error = r.f64();
    c.expansion_points = r.i32();
    c.order = r.i32();
    return c;
}

/// TransientResult minus the wall-time field: solve_seconds encodes as zero
/// so the response bytes are deterministic (bit-identity across daemon and
/// in-process answers is pinned on the encoded form).
void write_transient_result(Writer& w, const ode::TransientResult& res) {
    w.vec(res.t);
    w.u64(res.y.size());
    for (const la::Vec& row : res.y) w.vec(row);
    w.vec(res.x_final);
    w.f64(0.0);  // solve_seconds
    w.u64(static_cast<std::uint64_t>(res.steps));
    w.u64(static_cast<std::uint64_t>(res.newton_iterations));
    w.u64(static_cast<std::uint64_t>(res.factorizations));
}

ode::TransientResult read_transient_result(Reader& r) {
    ode::TransientResult res;
    res.t = r.vec();
    const std::uint64_t ny = r.u64();
    res.y.reserve(static_cast<std::size_t>(ny));
    for (std::uint64_t i = 0; i < ny; ++i) res.y.push_back(r.vec());
    res.x_final = r.vec();
    res.solve_seconds = r.f64();
    res.steps = static_cast<long>(r.u64());
    res.newton_iterations = static_cast<long>(r.u64());
    res.factorizations = static_cast<long>(r.u64());
    return res;
}

}  // namespace

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

std::string encode_request(const ServeRequest& req) {
    Writer w;
    w.str(req.tenant);
    w.u8(static_cast<std::uint8_t>(req.kind()));
    switch (req.kind()) {
        case RequestKind::frequency_sweep: {
            const auto& body = std::get<FrequencySweepRequest>(req.body);
            write_model_ref(w, body.model);
            write_zgrid(w, body.grid);
            break;
        }
        case RequestKind::transient_batch: {
            const auto& body = std::get<TransientBatchRequest>(req.body);
            write_model_ref(w, body.model);
            w.u64(body.inputs.size());
            for (const WaveformSpec& spec : body.inputs) write_waveform(w, spec);
            write_transient_spec(w, body.options);
            break;
        }
        case RequestKind::parametric_query: {
            const auto& body = std::get<ParametricQueryRequest>(req.body);
            w.str(body.family_id);
            w.vec(body.coords);
            write_zgrid(w, body.grid);
            w.f64(body.tol);
            w.u8(body.blend ? 1 : 0);
            w.u8(body.allow_fallback ? 1 : 0);
            break;
        }
        case RequestKind::certificate: {
            const auto& body = std::get<CertificateRequest>(req.body);
            write_model_ref(w, body.model);
            break;
        }
        case RequestKind::parametric_batch: {
            const auto& body = std::get<ParametricBatchRequest>(req.body);
            w.str(body.family_id);
            w.u64(body.coords.size());
            for (const pmor::Point& p : body.coords) w.vec(p);
            write_zgrid(w, body.grid);
            w.f64(body.tol);
            w.u8(body.blend ? 1 : 0);
            w.u8(body.allow_fallback ? 1 : 0);
            break;
        }
    }
    return w.bytes();
}

ServeRequest decode_request(const std::string& payload) {
    Reader r(payload);
    ServeRequest req;
    req.tenant = r.str();
    const std::uint8_t kind = r.u8();
    switch (kind) {
        case static_cast<std::uint8_t>(RequestKind::frequency_sweep): {
            FrequencySweepRequest body;
            body.model = read_model_ref(r);
            body.grid = read_zgrid(r);
            req.body = std::move(body);
            break;
        }
        case static_cast<std::uint8_t>(RequestKind::transient_batch): {
            TransientBatchRequest body;
            body.model = read_model_ref(r);
            const std::uint64_t n = r.u64();
            body.inputs.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) body.inputs.push_back(read_waveform(r));
            body.options = read_transient_spec(r);
            req.body = std::move(body);
            break;
        }
        case static_cast<std::uint8_t>(RequestKind::parametric_query): {
            ParametricQueryRequest body;
            body.family_id = r.str();
            body.coords = r.vec();
            body.grid = read_zgrid(r);
            body.tol = r.f64();
            body.blend = r.u8() != 0;
            body.allow_fallback = r.u8() != 0;
            req.body = std::move(body);
            break;
        }
        case static_cast<std::uint8_t>(RequestKind::certificate): {
            CertificateRequest body;
            body.model = read_model_ref(r);
            req.body = std::move(body);
            break;
        }
        case static_cast<std::uint8_t>(RequestKind::parametric_batch): {
            ParametricBatchRequest body;
            body.family_id = r.str();
            const std::uint64_t n = r.u64();
            body.coords.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) body.coords.push_back(r.vec());
            body.grid = read_zgrid(r);
            body.tol = r.f64();
            body.blend = r.u8() != 0;
            body.allow_fallback = r.u8() != 0;
            req.body = std::move(body);
            break;
        }
        default: fail_corrupt("unknown ServeRequest kind");
    }
    if (!r.at_end()) fail_corrupt("trailing bytes after ServeRequest");
    return req;
}

std::string peek_tenant(const std::string& payload) {
    Reader r(payload);
    return r.str();
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

std::string encode_response(const ServeResponse& resp) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(resp.kind));
    w.i32(static_cast<std::int32_t>(resp.error.code));
    w.str(resp.error.message);
    write_certificate(w, resp.certificate);
    w.u64(resp.response.size());
    for (const la::ZMatrix& m : resp.response) w.zmatrix(m);
    w.u64(resp.transients.size());
    for (const ode::TransientResult& t : resp.transients) write_transient_result(w, t);
    w.i32(resp.member);
    w.i32(resp.blended_with);
    w.f64(resp.blend_weight);
    w.u8(resp.fallback ? 1 : 0);
    w.u64(resp.batch_member.size());
    for (const int m : resp.batch_member) w.i32(m);
    w.vec(resp.batch_error);
    w.u64(resp.batch_fallback.size());
    for (const std::uint8_t f : resp.batch_fallback) w.u8(f);
    return w.bytes();
}

ServeResponse decode_response(const std::string& payload) {
    Reader r(payload);
    ServeResponse resp;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(RequestKind::parametric_batch))
        fail_corrupt("unknown ServeResponse kind");
    resp.kind = static_cast<RequestKind>(kind);
    resp.error.code = static_cast<util::ErrorCode>(r.i32());
    resp.error.message = r.str();
    resp.certificate = read_certificate(r);
    const std::uint64_t nresp = r.u64();
    resp.response.reserve(static_cast<std::size_t>(nresp));
    for (std::uint64_t i = 0; i < nresp; ++i) resp.response.push_back(r.zmatrix());
    const std::uint64_t ntrans = r.u64();
    resp.transients.reserve(static_cast<std::size_t>(ntrans));
    for (std::uint64_t i = 0; i < ntrans; ++i)
        resp.transients.push_back(read_transient_result(r));
    resp.member = r.i32();
    resp.blended_with = r.i32();
    resp.blend_weight = r.f64();
    resp.fallback = r.u8() != 0;
    const std::uint64_t nbm = r.u64();
    resp.batch_member.reserve(static_cast<std::size_t>(nbm));
    for (std::uint64_t i = 0; i < nbm; ++i) resp.batch_member.push_back(r.i32());
    resp.batch_error = r.vec();
    const std::uint64_t nbf = r.u64();
    resp.batch_fallback.reserve(static_cast<std::size_t>(nbf));
    for (std::uint64_t i = 0; i < nbf; ++i) resp.batch_fallback.push_back(r.u8());
    if (!r.at_end()) fail_corrupt("trailing bytes after ServeResponse");
    return resp;
}

}  // namespace atmor::rom
