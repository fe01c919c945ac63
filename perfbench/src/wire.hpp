// The serving half every workload ends with: an in-process net::Daemon on
// loopback over a rom::ServeEngine, driven in closed-loop rounds by a fixed
// set of net::ServeClients, plus an in-process reference engine that a
// seeded sample of wire answers is compared against byte for byte.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/daemon.hpp"
#include "rom/registry.hpp"
#include "rom/serve_api.hpp"
#include "rom/serve_engine.hpp"
#include "run_state.hpp"

namespace perfbench {

class WireStack {
public:
    WireStack(int workers, int clients)
        : registry_(std::make_shared<atmor::rom::Registry>(registry_options())),
          engine_(std::make_shared<atmor::rom::ServeEngine>(registry_)),
          reference_(registry_) {
        atmor::net::DaemonOptions dopt;
        dopt.workers = workers;
        // Closed loop: at most `clients` requests are ever queued, so a
        // shed request would be a defect, not load.
        dopt.max_queue_depth = static_cast<std::size_t>(clients) + 1;
        daemon_ = std::make_unique<atmor::net::Daemon>(engine_, dopt);
        daemon_->start();
        for (int c = 0; c < clients; ++c) clients_.emplace_back("127.0.0.1", daemon_->port());
    }

    ~WireStack() { stop(); }
    WireStack(const WireStack&) = delete;
    WireStack& operator=(const WireStack&) = delete;

    /// Make a model resident under `key` in the shared registry (both the
    /// daemon's engine and the reference engine resolve through it).
    void publish(const std::string& key, const atmor::rom::ReducedModel& model) {
        (void)registry_->get_or_build(key, [&] { return model; });
        ++published_;
    }

    /// Host a family on the daemon's engine and on the reference engine.
    void host(const atmor::rom::Family& family) {
        engine_->host_family(family);
        reference_.host_family(family);
    }

    /// One closed-loop round over the first `active` clients (all when 0):
    /// client c sends requests c, c + active, ... back to back. Latencies
    /// (raw seconds) and answer bytes land in request order.
    struct Round {
        std::vector<double> latency_s;
        std::vector<std::string> answers;
        double wall_s = 0.0;
    };

    Round round(Run& run, const std::vector<atmor::rom::ServeRequest>& reqs,
                std::size_t active = 0) {
        Round out;
        out.latency_s.assign(reqs.size(), 0.0);
        out.answers.assign(reqs.size(), std::string());
        std::vector<std::string> payloads;
        payloads.reserve(reqs.size());
        for (const auto& r : reqs) payloads.push_back(atmor::rom::encode_request(r));
        const long first_id = next_request_;
        next_request_ += static_cast<long>(reqs.size());
        const std::size_t nclients =
            active == 0 ? clients_.size() : std::min(active, clients_.size());
        std::vector<std::string> errors(nclients);
        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        threads.reserve(nclients);
        for (std::size_t c = 0; c < nclients; ++c) {
            threads.emplace_back([&, c] {
                try {
                    for (std::size_t i = c; i < reqs.size(); i += nclients) {
                        auto span = run.tracer.span("net.call", first_id + static_cast<long>(i));
                        const auto t = Clock::now();
                        out.answers[i] = clients_[c].call_raw(payloads[i]);
                        out.latency_s[i] = seconds_since(t);
                    }
                } catch (const std::exception& e) {
                    errors[c] = e.what();
                }
            });
        }
        for (std::thread& t : threads) t.join();
        out.wall_s = seconds_since(t0);
        for (const std::string& e : errors) run.check(e.empty(), "wire client: " + e);
        sent_ += static_cast<long>(reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            bool ok = false;
            try {
                const atmor::rom::ServeResponse resp = atmor::rom::decode_response(out.answers[i]);
                ok = resp.ok();
                if (ok && resp.kind != atmor::rom::RequestKind::certificate)
                    max_answer_order_ = std::max(max_answer_order_, resp.certificate.order);
            } catch (const std::exception&) {
                ok = false;
            }
            run.check(ok, std::string("wire answer ok: ") +
                              atmor::rom::to_string(reqs[i].kind()));
        }
        return out;
    }

    /// Byte-identity of one wire answer against the in-process engine.
    void check_identical(Run& run, const atmor::rom::ServeRequest& req,
                         const std::string& wire_answer) {
        auto span = run.tracer.span("rom.reference_serve");
        const std::string expected = atmor::rom::encode_response(reference_.serve(req));
        run.check(expected == wire_answer, std::string("wire answer byte-identical to ") +
                                               "in-process serve: " +
                                               atmor::rom::to_string(req.kind()));
    }

    /// Drain the daemon once; returns its final counters.
    atmor::net::DaemonStats stop() {
        if (daemon_ && !stopped_) {
            clients_.clear();
            daemon_->stop();
            stopped_ = true;
        }
        return daemon_ ? daemon_->stats() : atmor::net::DaemonStats{};
    }

    [[nodiscard]] atmor::rom::ServeEngine& engine() { return *engine_; }
    [[nodiscard]] const std::shared_ptr<atmor::rom::Registry>& registry() const {
        return registry_;
    }
    [[nodiscard]] long published() const { return published_; }
    [[nodiscard]] long sent() const { return sent_; }
    /// Largest model order any computed answer reports: the most the
    /// serving solvers should ever factor.
    [[nodiscard]] int max_answer_order() const { return max_answer_order_; }

private:
    static atmor::rom::RegistryOptions registry_options() {
        atmor::rom::RegistryOptions ropt;
        ropt.max_memory_models = 64;
        return ropt;
    }

    std::shared_ptr<atmor::rom::Registry> registry_;
    std::shared_ptr<atmor::rom::ServeEngine> engine_;
    atmor::rom::ServeEngine reference_;
    std::unique_ptr<atmor::net::Daemon> daemon_;
    std::vector<atmor::net::ServeClient> clients_;
    bool stopped_ = false;
    long published_ = 0;
    long sent_ = 0;
    long next_request_ = 0;
    int max_answer_order_ = 0;
};

}  // namespace perfbench
