// imbar_perfbench — the repo benchmark's binary. Normally started by
// perfbench/run.py, which builds it and checks its output:
//
//   imbar_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> [--out-dir <dir>] [--commit <sha>]
//
// Prints one JSON line describing the host and configuration, then the
// result line {"correct", "attempted", "failed", "metrics"}.
#include <cpuid.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"

namespace {

using perfbench::Result;
using perfbench::RunConfig;

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "imbar_perfbench: %s\nusage: imbar_perfbench --workload "
               "<barrier_lockstep|barrier_skewed|service_journal> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <sha>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") cfg.workload = val;
      else if (key == "--seed") cfg.seed = std::stoull(val);
      else if (key == "--seconds") cfg.seconds = std::stod(val);
      else if (key == "--trace") cfg.trace = std::stoi(val) != 0;
      else if (key == "--out-dir") cfg.out_dir = val;
      else if (key == "--commit") commit = val;
      else usage(("unknown option " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");

  Result res;
  try {
    if (cfg.workload == "barrier_lockstep") res = perfbench::run_barrier(cfg, false);
    else if (cfg.workload == "barrier_skewed") res = perfbench::run_barrier(cfg, true);
    else if (cfg.workload == "service_journal") res = perfbench::run_service(cfg);
    else usage(("unknown workload " + cfg.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "imbar_perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& [name, m] : res.metrics)
    if (!std::isfinite(m.value)) res.fail(name + " is not finite");

  imbar::obs::JsonWriter config;
  config.begin_object().key("perfbench").begin_object();
  config.kv("workload", cfg.workload)
      .kv("seed", static_cast<std::uint64_t>(cfg.seed))
      .kv("seconds", cfg.seconds)
      .kv("trace", cfg.trace)
      .kv("nproc", nproc())
      .kv("cpu", cpu_model())
      .kv("compiler", std::string(__VERSION__))
      .kv("build_type", PERFBENCH_BUILD_TYPE)
      .kv("commit", commit);
  for (const auto& [k, v] : res.details) config.kv(k, v);
  config.key("failures").begin_array();
  for (const std::string& f : res.failures) config.value(f);
  config.end_array().end_object().end_object();
  std::printf("%s\n", config.str().c_str());

  // Hand-written so values keep every digit (JsonWriter rounds to 12).
  std::string line = "{\"correct\": ";
  line += res.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(res.attempted);
  line += ", \"failed\": " + std::to_string(res.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : res.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    line += (first ? "\"" : ", \"") + imbar::obs::JsonWriter::escape(name) +
            "\": {\"value\": " + buf + ", \"unit\": \"" +
            imbar::obs::JsonWriter::escape(m.unit) + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
