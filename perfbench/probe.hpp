// Measurement plumbing for the perfbench driver: wall-clock spans kept in
// memory, obs counter deltas captured at the same call points, a
// process-level thread/RSS probe and per-run metric samples.
//
// Everything here is timed from outside the library: spans wrap the
// driver's own calls into the library's public API, and counters are read
// through obs::snapshot(), so the library is built and run unmodified.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- process probe ---------------------------------------------------------

/// Value (in the file's own unit) of a `Key:` line of /proc/self/status, or
/// -1 when absent. Uses only open/read/close so the thread sampler's signal
/// handler may call it.
inline long status_field(const char* key) {
  char buf[4096];
  const int fd = ::open("/proc/self/status", O_RDONLY);
  if (fd < 0) return -1;
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return -1;
  buf[n] = '\0';
  const std::size_t klen = std::strlen(key);
  for (char* line = buf; line != nullptr && *line != '\0';) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      long v = 0;
      for (const char* p = line + klen + 1; *p != '\0' && *p != '\n'; ++p)
        if (*p >= '0' && *p <= '9') v = v * 10 + (*p - '0');
      return v;
    }
    line = std::strchr(line, '\n');
    if (line != nullptr) ++line;
  }
  return -1;
}

/// Peak of the `Threads:` field of /proc/self/status, sampled every 5 ms by
/// an interval timer. A signal handler rather than a sampler thread, so the
/// probe adds no thread to the count it measures.
class ThreadPeak {
 public:
  static void start() {
    sample();
    struct sigaction sa {};
    sa.sa_handler = [](int) { sample(); };
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGALRM, &sa, nullptr);
    itimerval tv{};
    tv.it_interval.tv_usec = 5000;
    tv.it_value.tv_usec = 5000;
    ::setitimer(ITIMER_REAL, &tv, nullptr);
  }
  static void stop() {
    itimerval tv{};
    ::setitimer(ITIMER_REAL, &tv, nullptr);
    sample();
  }
  static long peak() { return peak_.load(); }

 private:
  static void sample() {
    const int saved_errno = errno;
    const long t = status_field("Threads");
    long cur = peak_.load(std::memory_order_relaxed);
    while (t > cur && !peak_.compare_exchange_weak(cur, t)) {
    }
    errno = saved_errno;
  }

  static inline std::atomic<long> peak_{0};
};

// ---- metric samples --------------------------------------------------------

inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// One reported metric: its value (a per-run statistic), unit and the
/// number of samples the statistic was taken over.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

using MetricMap = std::map<std::string, Metric>;

// ---- spans -----------------------------------------------------------------

/// One timed call. `unit` groups the spans of one measured unit of work
/// (negative for set-up and coverage probes); `counters` holds the obs
/// counter deltas over the span when counts were requested.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;
  int unit = -1;
  std::vector<std::uint64_t> counters;  ///< empty unless captured

  double duration() const { return end - start; }
  /// Layer = the span name up to the first '.'.
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// In-memory span recorder. When off, every call is a no-op; the driver
/// turns it on only for traced units, so untraced units run the exact
/// same code with no bookkeeping.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  bool on() const { return on_; }
  /// Switch tracing (and obs collection with it). Call between units.
  void set_on(bool on) {
    on_ = on;
    because::obs::set_enabled(on);
  }
  void set_unit(int unit) { unit_ = unit; }

  int open(std::string name, bool counts) {
    if (!on_) return -1;
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.unit = unit_;
    if (counts) s.counters = counter_values();
    s.start = now();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    if (!s.counters.empty()) {
      const std::vector<std::uint64_t> after = counter_values();
      for (std::size_t i = 0; i < after.size(); ++i)
        s.counters[i] = after[i] - s.counters[i];
    }
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Index of a catalogue counter in Span::counters.
  std::size_t counter_index(const std::string& name) {
    if (names_.empty()) counter_values();
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it == names_.end()) {
      std::fprintf(stderr, "perfbench: unknown obs counter %s\n", name.c_str());
      std::abort();
    }
    return static_cast<std::size_t>(it - names_.begin());
  }

  /// Counter delta of a span (0 when the span captured no counts).
  std::uint64_t count(const Span& s, const std::string& counter) {
    const std::size_t i = counter_index(counter);
    return i < s.counters.size() ? s.counters[i] : 0;
  }

  /// Self time of every span: its duration minus the part its direct
  /// children cover (children never overlap: one thread opens them).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration();
    for (const Span& s : spans_)
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration();
    return self;
  }

  /// Write every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::vector<double> self = self_times();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"self_s\": %.9f, \"parent\": %d, "
                   "\"unit\": %d}\n",
                   i, s.name.c_str(), s.start, s.end, self[i], s.parent,
                   s.unit);
    }
    return std::fclose(out) == 0;
  }

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }

  /// The catalogue counters: the snapshot's first kCounterCount rows, whose
  /// order is fixed (later registrations sort after them).
  std::vector<std::uint64_t> counter_values() {
    const because::obs::MetricsSnapshot snap = because::obs::snapshot();
    const std::size_t n = because::obs::kCounterCount;
    std::vector<std::uint64_t> values;
    values.reserve(n);
    if (names_.empty())
      for (std::size_t i = 0; i < n; ++i) names_.push_back(snap.counters[i].name);
    for (std::size_t i = 0; i < n; ++i) values.push_back(snap.counters[i].value);
    return values;
  }

  Clock::time_point epoch_;
  bool on_ = false;
  int unit_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::string> names_;
};

/// RAII span: `Scope s(tracer, "core.mh");`.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, bool counts = false)
      : tracer_(tracer), id_(tracer.open(std::move(name), counts)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
