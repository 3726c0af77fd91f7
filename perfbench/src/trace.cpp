#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/trace_export.hpp"

namespace perfbench {

std::size_t Tracer::track(const std::string& name, std::size_t capacity) {
  Track& t = tracks_.emplace_back();
  t.name = name;
  t.capacity = enabled_ ? capacity : 0;
  t.spans.reserve(t.capacity);
  return tracks_.size() - 1;
}

const char* Tracer::intern(const std::string& s) {
  return names_.emplace_back(s).c_str();
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t n = 0;
  for (const Track& t : tracks_) n += t.dropped;
  return n;
}

std::string Tracer::chrome_json(std::int64_t origin_ns) const {
  imbar::obs::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  w.begin_object()
      .kv("ph", "M")
      .kv("name", "process_name")
      .kv("pid", 1)
      .kv("tid", 0)
      .key("args")
      .begin_object()
      .kv("name", "perfbench")
      .end_object()
      .end_object();
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const Track& t = tracks_[i];
    const auto tid = static_cast<std::int64_t>(i + 1);
    w.begin_object()
        .kv("ph", "M")
        .kv("name", "thread_name")
        .kv("pid", 1)
        .kv("tid", tid)
        .key("args")
        .begin_object()
        .kv("name", t.name)
        .end_object()
        .end_object();
    std::vector<Span> spans = t.spans;
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span& a, const Span& b) {
                       return a.start_ns < b.start_ns;
                     });
    for (const Span& s : spans) {
      w.begin_object()
          .kv("ph", "X")
          .kv("name", s.name)
          .kv("pid", 1)
          .kv("tid", tid)
          .kv("ts", static_cast<double>(s.start_ns - origin_ns) / 1e3)
          .kv("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          .end_object();
    }
  }
  w.end_array().end_object();
  return w.str();
}

void write_trace_files(const RunConfig& cfg, const Tracer& tracer,
                       std::int64_t origin_ns, const std::string& metrics_json,
                       Result& res) {
  const std::string stem = cfg.out_dir + "/trace-" + cfg.workload + "-" +
                           std::to_string(cfg.seed);
  const std::string trace = tracer.chrome_json(origin_ns);
  try {
    const std::size_t slices = imbar::obs::validate_chrome_trace(
        imbar::obs::json::parse(trace));
    res.details["trace_slices"] = std::to_string(slices);
    res.details["trace_dropped_spans"] = std::to_string(tracer.dropped());
  } catch (const std::exception& e) {
    res.fail(std::string("chrome trace invalid: ") + e.what());
  }
  std::ofstream(stem + ".json", std::ios::binary | std::ios::trunc) << trace;
  std::ofstream(stem + ".metrics.json", std::ios::binary | std::ios::trunc)
      << metrics_json << '\n';
  res.details["trace_file"] = stem + ".json";
  res.details["metrics_file"] = stem + ".metrics.json";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
