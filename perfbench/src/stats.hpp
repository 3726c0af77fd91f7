// The benchmark's own arithmetic: nearest-rank percentiles, the
// tail-percentile rule, the roster geometric mean, a log-bucketed
// histogram for pooling millions of samples in fixed memory, and the
// open-loop due-time accounting. Header-only, so the self-test links
// nothing else (perfbench/tests/selftest.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// The 1-based nearest rank of `pct` among `n` samples: ceil(pct/100 * n),
/// clamped to [1, n]. The tolerance keeps 99.9% of 10000 at rank 9990
/// although 99.9 / 100 * 10000 rounds to just above it.
inline std::uint64_t rank_of(std::uint64_t n, double pct) {
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::max(r, 0.0)),
                                   1, std::max<std::uint64_t>(n, 1));
}

/// Nearest-rank percentile of ascending `sorted`: the sample at rank_of.
/// Throws on no samples.
inline double nearest_rank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) throw std::invalid_argument("nearest_rank: no samples");
  return sorted[rank_of(sorted.size(), pct) - 1];
}

/// Median of unsorted values (nearest rank), by copy.
inline double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return nearest_rank(xs, 50.0);
}

/// Percentiles the tail rule tries, highest first.
inline constexpr std::array<double, 5> kTailLadder = {99.99, 99.9, 99.0, 90.0,
                                                      50.0};

/// Samples strictly beyond the nearest rank of `pct` among `n`.
inline std::size_t beyond_rank(std::size_t n, double pct) {
  return n == 0 ? 0 : n - rank_of(n, pct);
}

/// The highest ladder percentile with at least ten samples beyond it,
/// reported with its value and the sample count. pct == 0 when there
/// are too few samples for even the median to qualify.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t n = 0;
};

inline Tail tail_percentile(const std::vector<double>& sorted) {
  Tail t;
  t.n = sorted.size();
  for (double pct : kTailLadder) {
    if (beyond_rank(t.n, pct) >= 10) {
      t.pct = pct;
      t.value = nearest_rank(sorted, pct);
      return t;
    }
  }
  return t;
}

/// Geometric mean of strictly positive values (the roster summary: a
/// configuration twice as slow counts the same wherever it sits).
inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("geomean: no values");
  double log_sum = 0.0;
  for (double x : xs) {
    if (!(x > 0.0)) throw std::invalid_argument("geomean: non-positive value");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Fixed-memory histogram with logarithmic buckets of ~1% relative
/// width over [kLo, kHi); values outside are clamped into the end
/// buckets. percentile() applies the nearest-rank rule to the bucket
/// counts and interpolates geometrically inside the bucket that holds
/// the rank, so its error is below one bucket width.
class LogHistogram {
 public:
  static constexpr double kLo = 1e-3;  // smallest resolved value
  static constexpr double kHi = 1e7;   // largest resolved value
  static constexpr double kGrowth = 1.01;

  LogHistogram() : counts_(bucket_count(), 0) {}

  void add(double x) {
    ++counts_[bucket_of(x)];
    ++n_;
  }

  void merge(const LogHistogram& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }

  /// Nearest-rank percentile; 0 when empty.
  [[nodiscard]] double percentile(double pct) const {
    if (n_ == 0) return 0.0;
    const std::uint64_t rank = rank_of(n_, pct);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (seen + counts_[i] >= rank) {
        // Rank r of c in the bucket sits at fraction (r - 0.5) / c.
        const double frac = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(counts_[i]);
        return lower_edge(i) * std::pow(kGrowth, frac);
      }
      seen += counts_[i];
    }
    return lower_edge(counts_.size() - 1);
  }

  /// The tail rule over the pooled counts.
  [[nodiscard]] Tail tail() const {
    Tail t;
    t.n = static_cast<std::size_t>(n_);
    for (double pct : kTailLadder) {
      if (beyond_rank(t.n, pct) >= 10) {
        t.pct = pct;
        t.value = percentile(pct);
        return t;
      }
    }
    return t;
  }

  static std::size_t bucket_count() {
    return static_cast<std::size_t>(
               std::ceil(std::log(kHi / kLo) / std::log(kGrowth))) + 1;
  }

 private:
  static std::size_t bucket_of(double x) {
    if (!(x > kLo)) return 0;
    const auto b = static_cast<std::size_t>(std::log(x / kLo) /
                                            std::log(kGrowth));
    return std::min(b, bucket_count() - 1);
  }
  static double lower_edge(std::size_t b) {
    return kLo * std::pow(kGrowth, static_cast<double>(b));
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

/// Open-loop schedule: arrival i is due at t0 + i / rate. Latency is
/// charged from the due time, not the (possibly late) send time, so a
/// stall that delays later sends is counted against them.
struct OpenLoop {
  std::int64_t t0_ns = 0;
  double rate_per_s = 1.0;

  [[nodiscard]] std::int64_t due_ns(std::uint64_t i) const {
    return t0_ns + std::llround(static_cast<double>(i) * 1e9 / rate_per_s);
  }
  /// Completion latency in microseconds, from arrival `i`'s due time.
  [[nodiscard]] double latency_us(std::uint64_t i, std::int64_t done_ns) const {
    return static_cast<double>(done_ns - due_ns(i)) / 1e3;
  }
  /// How late the generator sent arrival `i` (never negative: an early
  /// send would be a generator bug, and counts as on time).
  [[nodiscard]] double lag_us(std::uint64_t i, std::int64_t sent_ns) const {
    return std::max<double>(0.0, static_cast<double>(sent_ns - due_ns(i)) / 1e3);
  }
};

}  // namespace perfbench
