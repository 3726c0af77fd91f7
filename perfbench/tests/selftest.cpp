// Self-test of the benchmark's own arithmetic and input generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "inputs.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(NearestRank, TextbookCases) {
  // Five samples: p30 is rank ceil(1.5) = 2, p50 rank 3, p100 rank 5.
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(nearest_rank(v, 30), 20);
  EXPECT_EQ(nearest_rank(v, 40), 20);
  EXPECT_EQ(nearest_rank(v, 50), 35);
  EXPECT_EQ(nearest_rank(v, 100), 50);
  EXPECT_EQ(nearest_rank(v, 0), 15);
  EXPECT_EQ(nearest_rank(one_to(100), 99), 99);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_THROW((void)nearest_rank({}, 50), std::invalid_argument);
}

TEST(TailPercentile, HighestWithTenBeyond) {
  // 1000 samples: p99 is rank 990 with 10 beyond; p99.9 has 1 beyond.
  Tail t = tail_percentile(one_to(1000));
  EXPECT_EQ(t.pct, 99.0);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.n, 1000u);
  // 999 samples: p99 rank 990 leaves 9 beyond, so p90 (rank 900).
  t = tail_percentile(one_to(999));
  EXPECT_EQ(t.pct, 90.0);
  EXPECT_EQ(t.value, 900);
  // 10000 samples reach p99.9 (rank 9990, 10 beyond).
  EXPECT_EQ(tail_percentile(one_to(10000)).pct, 99.9);
  // Too few for even the median.
  t = tail_percentile(one_to(19));
  EXPECT_EQ(t.pct, 0.0);
  EXPECT_EQ(t.n, 19u);
  EXPECT_EQ(tail_percentile(one_to(20)).pct, 50.0);
}

TEST(Geomean, RosterSummary) {
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 8.0, 4.0}), 4.0, 1e-12);
  // Scaling one configuration by k scales the summary by k^(1/n).
  EXPECT_NEAR(geomean({2.0, 8.0, 32.0}) / geomean({2.0, 8.0, 4.0}), 2.0, 1e-12);
  EXPECT_THROW((void)geomean({}), std::invalid_argument);
  EXPECT_THROW((void)geomean({1.0, 0.0}), std::invalid_argument);
}

TEST(LogHistogram, MatchesNearestRankWithinOneBucket) {
  Rng rng(7);
  std::vector<double> xs;
  LogHistogram h;
  for (int i = 0; i < 20000; ++i) {
    const double x = std::exp(rng.normal()) * 3.0;  // log-normal, in us
    xs.push_back(x);
    h.add(x);
  }
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(h.count(), xs.size());
  for (double pct : {1.0, 50.0, 90.0, 99.0, 99.9}) {
    const double exact = nearest_rank(xs, pct);
    EXPECT_NEAR(h.percentile(pct) / exact, 1.0, LogHistogram::kGrowth - 1.0)
        << "p" << pct;
  }
  const Tail t = h.tail();
  EXPECT_EQ(t.pct, 99.9);
  EXPECT_EQ(t.n, 20000u);

  LogHistogram a, b;
  a.add(1.0);
  b.add(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.percentile(100), 100.0, 1.0);
  EXPECT_EQ(LogHistogram().percentile(50), 0.0);
}

TEST(OpenLoop, DueTimeLatencyAndLag) {
  const OpenLoop loop{1'000'000, 250'000.0};  // 4 us apart
  EXPECT_EQ(loop.due_ns(0), 1'000'000);
  EXPECT_EQ(loop.due_ns(10), 1'040'000);
  // Latency is charged from the due time, even if sent late.
  EXPECT_DOUBLE_EQ(loop.latency_us(10, 1'050'000), 10.0);
  EXPECT_DOUBLE_EQ(loop.lag_us(10, 1'043'000), 3.0);
  // Sending early (never expected) counts as on time.
  EXPECT_DOUBLE_EQ(loop.lag_us(10, 1'039'000), 0.0);
  // A stall that delays arrival 10 by 20 us shows up in its latency.
  EXPECT_DOUBLE_EQ(loop.latency_us(10, 1'060'000) - loop.lag_us(10, 1'060'000),
                   0.0);
}

TEST(Inputs, SameSeedSameBytes) {
  EXPECT_EQ(make_barrier_inputs(42, true, 3, 30, 4).bytes(),
            make_barrier_inputs(42, true, 3, 30, 4).bytes());
  EXPECT_NE(make_barrier_inputs(42, true, 3, 30, 4).bytes(),
            make_barrier_inputs(43, true, 3, 30, 4).bytes());
  EXPECT_EQ(make_service_inputs(42, 2).bytes(),
            make_service_inputs(42, 2).bytes());
  EXPECT_NE(make_service_inputs(42, 2).bytes(),
            make_service_inputs(43, 2).bytes());
}

TEST(Inputs, BarrierWorkShape) {
  const BarrierInputs lock = make_barrier_inputs(1, false, 3, 30, 2);
  for (const auto& w : lock.work_ns)
    EXPECT_TRUE(std::all_of(w.begin(), w.end(), [](auto x) { return x == 0; }));
  const BarrierInputs skew = make_barrier_inputs(1, true, 3, 30, 2);
  std::vector<std::uint32_t> bias = skew.bias_ns;
  std::sort(bias.begin(), bias.end());
  const auto step = static_cast<std::uint32_t>(BarrierInputs::kBiasStepUs * 1e3);
  EXPECT_EQ(bias, (std::vector<std::uint32_t>{0, step, 2 * step}));
  const auto base = static_cast<std::uint32_t>(BarrierInputs::kBaseWorkUs * 1e3);
  for (std::size_t t = 0; t < 3; ++t)
    for (auto x : skew.work_ns[t]) EXPECT_GE(x, skew.bias_ns[t] + base);
  for (const auto& o : skew.order) {
    std::vector<std::uint16_t> s = o;
    std::sort(s.begin(), s.end());
    for (std::uint16_t i = 0; i < 30; ++i) EXPECT_EQ(s[i], i);
  }
}

TEST(Inputs, ServiceScheduleIsARoundByRoundPermutation) {
  const ServiceInputs in = make_service_inputs(5, 3);
  EXPECT_EQ(in.members_total, 10u * 2048 + 30u * 256 + 160u * 16);
  EXPECT_EQ(in.arrivals(), 3ull * in.members_total);
  for (std::uint32_t r = 0; r < in.rounds; ++r) {
    std::vector<std::uint32_t> count(ServiceInputs::kGroups, 0);
    for (std::uint32_t j = 0; j < in.members_total; ++j) {
      const std::uint32_t i = r * in.members_total + j;
      const GroupSpec& g = in.groups[in.group_of[i]];
      ASSERT_LT(in.member_of[i], g.n);
      // index_of inverts the schedule.
      EXPECT_EQ(in.index_of[r * in.members_total + g.member_base +
                            in.member_of[i]],
                i);
      ++count[in.group_of[i]];
      // The release point is the k-th (quorum) or n-th (strict) arrival.
      const std::uint32_t need = g.k ? g.k : g.n;
      if (count[in.group_of[i]] == need) {
        EXPECT_EQ(in.release_at[r * ServiceInputs::kGroups + in.group_of[i]], i);
      }
    }
    for (std::uint32_t g = 0; g < ServiceInputs::kGroups; ++g)
      EXPECT_EQ(count[g], in.groups[g].n);
  }
  std::uint32_t quorum = 0;
  for (const GroupSpec& g : in.groups) quorum += g.k != 0;
  EXPECT_EQ(quorum, 20u);  // 10% of each class
}

}  // namespace
}  // namespace perfbench
