// In-memory span recorder for the traced benchmark run.
//
// The driver opens a span around each call it makes into a library layer
// (name "layer.stage"), so a span's parent is the span open on the same
// thread when it started, and spans of one wire request share its request
// id. Spans stay in memory and are written out once, at exit. A layer's
// self time is its span's duration minus the durations of its children.
// With tracing off, Scope records nothing and costs a branch.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer's epoch
    double end = 0.0;
    int parent = -1;     ///< index of the enclosing span on the same thread
    long request = -1;   ///< wire request id (-1 outside requests)
    double child_seconds = 0.0;
};

class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    class Scope {
    public:
        Scope(Tracer* tracer, const char* name, long request) : tracer_(tracer) {
            if (tracer_ != nullptr) id_ = tracer_->open(name, request);
        }
        ~Scope() {
            if (tracer_ != nullptr) tracer_->close(id_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        int id_ = -1;
    };

    /// RAII span; a no-op when tracing is off.
    [[nodiscard]] Scope span(const char* name, long request = -1) {
        return Scope(enabled_ ? this : nullptr, name, request);
    }

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Switch recording on or off between spans (no span may be open on
    /// another thread): the traced run times one build both ways to measure
    /// what tracing costs.
    void set_enabled(bool on) { enabled_ = on; }

    /// Number of spans recorded so far (a cursor for self_times()).
    [[nodiscard]] std::size_t cursor() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /// Self seconds per span name over the spans recorded since `from`.
    [[nodiscard]] std::map<std::string, double> self_times(std::size_t from = 0) const {
        std::lock_guard<std::mutex> lock(mutex_);
        std::map<std::string, double> out;
        for (std::size_t i = from; i < spans_.size(); ++i) {
            const SpanRecord& s = spans_[i];
            out[s.name] += (s.end - s.start) - s.child_seconds;
        }
        return out;
    }

    /// Write every span as one JSON array; false when the file cannot be
    /// written.
    bool write_json(const std::string& path) const {
        std::lock_guard<std::mutex> lock(mutex_);
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return false;
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord& s = spans_[i];
            std::fprintf(f,
                         "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                         "\"parent\": %d, \"request\": %ld, \"self_s\": %.9f}%s\n",
                         i, s.name.c_str(), s.start, s.end, s.parent, s.request,
                         (s.end - s.start) - s.child_seconds, i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        return std::fclose(f) == 0;
    }

private:
    using Clock = std::chrono::steady_clock;

    double now() const { return std::chrono::duration<double>(Clock::now() - epoch_).count(); }

    int open(const char* name, long request) {
        std::vector<int>& stack = thread_stack();
        const double t = now();
        std::lock_guard<std::mutex> lock(mutex_);
        SpanRecord rec;
        rec.name = name;
        rec.start = t;
        rec.parent = stack.empty() ? -1 : stack.back();
        rec.request = request >= 0 || rec.parent < 0
                          ? request
                          : spans_[static_cast<std::size_t>(rec.parent)].request;
        spans_.push_back(std::move(rec));
        const int id = static_cast<int>(spans_.size()) - 1;
        stack.push_back(id);
        return id;
    }

    void close(int id) {
        const double t = now();
        thread_stack().pop_back();
        std::lock_guard<std::mutex> lock(mutex_);
        SpanRecord& s = spans_[static_cast<std::size_t>(id)];
        s.end = t;
        if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_seconds += t - s.start;
    }

    static std::vector<int>& thread_stack() {
        thread_local std::vector<int> stack;
        return stack;
    }

    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;  ///< guards spans_
    std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
