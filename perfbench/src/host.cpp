// Host yardsticks: t_c, the cost of one counter update on a shared
// cache line (the paper's unit), alone and under contention. They
// should move with the host, never with a change to the library.
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"
#include "util/cacheline.hpp"

namespace perfbench {

namespace {
constexpr int kOps = 1'000'000;
constexpr int kReps = 5;
}  // namespace

double measure_t_c_ns() {
  imbar::PaddedAtomic<std::uint64_t> line;
  std::vector<double> per_op;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kOps; ++i)
      line.value.fetch_add(1, std::memory_order_acq_rel);
    per_op.push_back(static_cast<double>(now_ns() - t0) / kOps);
  }
  return median(per_op);
}

double measure_t_c_contended_ns(std::size_t threads) {
  imbar::PaddedAtomic<std::uint64_t> line;
  std::atomic<std::size_t> ready{0};
  std::vector<double> per_op(threads, 0.0);
  std::vector<std::thread> crew;
  for (std::size_t t = 0; t < threads; ++t) {
    crew.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kOps; ++i)
        line.value.fetch_add(1, std::memory_order_acq_rel);
      per_op[t] = static_cast<double>(now_ns() - t0) / kOps;
    });
  }
  for (auto& th : crew) th.join();
  return median(per_op);
}

}  // namespace perfbench
