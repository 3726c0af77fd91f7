// Shared pieces of the workloads: the clock, the result record
// every workload fills, and the in-memory span tracer behind --trace 1.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Busy-wait until `deadline_ns` (the skewed workload's per-episode
/// work: exact on any core speed, and it keeps the core busy the way
/// real compute would).
inline void spin_until(std::int64_t deadline_ns) {
  while (now_ns() < deadline_ns) {
  }
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced one; `details`
/// carries the human-readable context printed before the result line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> details;

  void fail(const std::string& what, std::uint64_t count = 1) {
    failed += count;
    if (failures.size() < 16) failures.push_back(what);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// In-memory spans, written at exit as Chrome trace-event JSON. Each
/// track has one writer (or serializes its writers itself) and a fixed
/// capacity; spans past it are counted as dropped, so tracing never
/// allocates on the measured path.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Register a track (not thread-safe: call before the writers start).
  std::size_t track(const std::string& name, std::size_t capacity);
  /// A stable C string for span names built at run time.
  const char* intern(const std::string& s);

  void span(std::size_t track, const char* name, std::int64_t start_ns,
            std::int64_t end_ns) {
    Track& t = tracks_[track];
    if (t.spans.size() < t.capacity)
      t.spans.push_back(Span{name, start_ns, end_ns});
    else
      ++t.dropped;
  }

  [[nodiscard]] std::uint64_t dropped() const;

  /// Chrome trace-event JSON: one "X" slice per span (microseconds from
  /// `origin_ns`), one thread per track, named by metadata events.
  [[nodiscard]] std::string chrome_json(std::int64_t origin_ns) const;

 private:
  struct Track {
    std::string name;
    std::size_t capacity = 0;
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
  };

  bool enabled_;
  std::deque<Track> tracks_;  // deque: references stay valid on growth
  std::deque<std::string> names_;
};

/// Write the trace and its companion imbar.metrics.v1 snapshot under
/// `cfg.out_dir`, validate the trace with the repo's own checker, and
/// record the outcome (and slice count) in `res`.
void write_trace_files(const RunConfig& cfg, const Tracer& tracer,
                       std::int64_t origin_ns, const std::string& metrics_json,
                       Result& res);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

Result run_barrier(const RunConfig& cfg, bool skewed);
Result run_service(const RunConfig& cfg);

/// host.t_c_ns / host.t_c_contended_ns: one fetch_add on a single cache
/// line, alone and with `threads` threads hammering the same line.
double measure_t_c_ns();
double measure_t_c_contended_ns(std::size_t threads);

}  // namespace perfbench
