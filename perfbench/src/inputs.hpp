// Seeded input generation. Everything a workload feeds the program is
// made here, from --seed, before any timing starts: per-episode work
// for the barrier workloads and the roster order of each pass, and the
// arrival interleaving for the service workloads. The generator is the
// benchmark's own (not the library's PRNG), so a change to the library
// never changes the inputs it is measured on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound);
  /// Uniform in [0, 1).
  double uniform();
  /// Standard normal (Box-Muller).
  double normal();

 private:
  std::uint64_t s_[4];
};

/// Per-episode work of the barrier workloads, in nanoseconds: for
/// thread t and episode e, work[t][e % kWorkTable]. Lockstep inputs
/// are all zero; skewed inputs are W + bias[t] + |N(0, sigma)|.
struct BarrierInputs {
  static constexpr std::size_t kWorkTable = 4096;
  // sigma is ~100x the contended t_c (the paper's imbalanced regime),
  // but episodes stay short: with sigma = 100 us, a vCPU the host stole
  // mid-episode pushed waiters into the sleep tiers, and every such sync
  // delay became a timer wake-up whose latency is the host's.
  static constexpr double kBaseWorkUs = 10.0;   // W
  static constexpr double kBiasStepUs = 5.0;    // bias[t] = step * rank
  static constexpr double kSigmaUs = 10.0;      // sigma

  bool skewed = false;
  std::vector<std::uint32_t> bias_ns;               // [thread]
  std::vector<std::vector<std::uint32_t>> work_ns;  // [thread][episode]
  std::vector<std::vector<std::uint16_t>> order;    // [pass] roster order

  /// Canonical byte serialization (same seed => same bytes).
  [[nodiscard]] std::string bytes() const;
};

[[nodiscard]] BarrierInputs make_barrier_inputs(std::uint64_t seed,
                                                bool skewed,
                                                std::size_t threads,
                                                std::size_t roster,
                                                std::size_t passes);

/// One logical group of the service population.
struct GroupSpec {
  std::uint32_t n = 0;            // participants
  std::uint32_t k = 0;            // quorum (0 = strict)
  std::uint32_t cls = 0;          // index into kClassNames
  std::uint32_t member_base = 0;  // offset of member 0 in per-round tables
};

inline constexpr const char* kClassNames[3] = {"small", "medium", "large"};

/// The service population and its arrival schedule. The population is
/// fixed (the soak's 80/15/5 small/medium/large mix at n = 16/256/2048,
/// the first 10% of each class quorum k = n/2 with zero budget); the
/// seed drives only the interleaving. Each round every member of every
/// group arrives exactly once: groups enter a window of kWindow active
/// groups in a seeded order, and each arrival is drawn from a uniformly
/// chosen active group, whose members arrive in a seeded order.
/// Global arrival index i = round * members_total + position in round.
struct ServiceInputs {
  static constexpr std::uint32_t kGroups = 200;
  static constexpr std::uint32_t kWindow = 32;

  std::vector<GroupSpec> groups;  // index == GroupId
  std::uint32_t members_total = 0;
  std::uint32_t rounds = 0;
  std::vector<std::uint16_t> group_of;   // [i] group of arrival i
  std::vector<std::uint16_t> member_of;  // [i] member of arrival i
  /// [round * groups + g]: index of the arrival that makes (g, round)
  /// releasable — the n-th of the round (strict) or the k-th (quorum).
  std::vector<std::uint32_t> release_at;
  /// [round * members_total + member_base + m]: index of member m's
  /// arrival in that round.
  std::vector<std::uint32_t> index_of;

  [[nodiscard]] std::uint64_t arrivals() const {
    return static_cast<std::uint64_t>(rounds) * members_total;
  }
  [[nodiscard]] std::string bytes() const;
};

[[nodiscard]] ServiceInputs make_service_inputs(std::uint64_t seed,
                                                std::uint32_t rounds);

}  // namespace perfbench
