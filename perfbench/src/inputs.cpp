#include "inputs.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

template <typename T>
void put(std::string& out, const std::vector<T>& v) {
  const std::uint64_t n = v.size();
  out.append(reinterpret_cast<const char*>(&n), sizeof n);
  if (!v.empty())
    out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Modulo bias is below bound / 2^64: irrelevant for these bounds.
  return next() % bound;
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double Rng::normal() {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::string BarrierInputs::bytes() const {
  std::string out;
  out.push_back(skewed ? 1 : 0);
  put(out, bias_ns);
  for (const auto& w : work_ns) put(out, w);
  for (const auto& o : order) put(out, o);
  return out;
}

BarrierInputs make_barrier_inputs(std::uint64_t seed, bool skewed,
                                  std::size_t threads, std::size_t roster,
                                  std::size_t passes) {
  Rng rng(seed);
  BarrierInputs in;
  in.skewed = skewed;
  // Persistent bias: a seeded permutation of 0, step, 2*step, ... so
  // arrival order is predictable but which thread is late is not fixed.
  std::vector<std::uint32_t> rank(threads);
  std::iota(rank.begin(), rank.end(), 0u);
  shuffle(rank, rng);
  in.bias_ns.assign(threads, 0);
  in.work_ns.assign(threads,
                    std::vector<std::uint32_t>(BarrierInputs::kWorkTable, 0));
  if (skewed) {
    for (std::size_t t = 0; t < threads; ++t) {
      in.bias_ns[t] = static_cast<std::uint32_t>(
          std::lround(BarrierInputs::kBiasStepUs * 1e3 * rank[t]));
      for (auto& w : in.work_ns[t]) {
        const double us = BarrierInputs::kBaseWorkUs +
                          std::fabs(rng.normal()) * BarrierInputs::kSigmaUs;
        w = in.bias_ns[t] + static_cast<std::uint32_t>(std::lround(us * 1e3));
      }
    }
  }
  in.order.resize(passes);
  for (auto& o : in.order) {
    o.resize(roster);
    std::iota(o.begin(), o.end(), std::uint16_t{0});
    shuffle(o, rng);
  }
  return in;
}

std::string ServiceInputs::bytes() const {
  std::string out;
  std::vector<std::uint32_t> g;
  for (const GroupSpec& s : groups) {
    g.push_back(s.n);
    g.push_back(s.k);
    g.push_back(s.cls);
    g.push_back(s.member_base);
  }
  put(out, g);
  put(out, group_of);
  put(out, member_of);
  put(out, release_at);
  put(out, index_of);
  return out;
}

ServiceInputs make_service_inputs(std::uint64_t seed, std::uint32_t rounds) {
  ServiceInputs in;
  in.rounds = rounds;
  // Fixed population, largest class first so the ten large groups
  // spread over the shards (GroupId % shards) the same way every seed.
  constexpr std::uint32_t kCount[3] = {160, 30, 10};  // 80/15/5
  constexpr std::uint32_t kN[3] = {16, 256, 2048};
  for (int c = 2; c >= 0; --c) {
    const std::uint32_t quorum_groups = kCount[c] / 10;
    for (std::uint32_t i = 0; i < kCount[c]; ++i) {
      GroupSpec g;
      g.n = kN[c];
      g.k = i < quorum_groups ? kN[c] / 2 : 0;
      g.cls = static_cast<std::uint32_t>(c);
      g.member_base = in.members_total;
      in.members_total += g.n;
      in.groups.push_back(g);
    }
  }
  if (in.groups.size() != ServiceInputs::kGroups)
    throw std::logic_error("service population size");

  const std::uint32_t G = ServiceInputs::kGroups;
  const std::uint64_t total = in.arrivals();
  if (total > 0xFFFFFFFFULL) throw std::invalid_argument("too many rounds");
  in.group_of.resize(total);
  in.member_of.resize(total);
  in.release_at.assign(static_cast<std::size_t>(rounds) * G, 0);
  in.index_of.assign(total, 0);

  Rng rng(seed);
  std::uint32_t i = 0;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    std::vector<std::uint16_t> entry(G);
    std::iota(entry.begin(), entry.end(), std::uint16_t{0});
    shuffle(entry, rng);
    std::vector<std::vector<std::uint16_t>> members(G);
    std::vector<std::uint32_t> emitted(G, 0);
    std::vector<std::uint16_t> window;
    std::size_t next_entry = 0;
    const auto admit = [&] {
      const std::uint16_t g = entry[next_entry++];
      members[g].resize(in.groups[g].n);
      std::iota(members[g].begin(), members[g].end(), std::uint16_t{0});
      shuffle(members[g], rng);
      window.push_back(g);
    };
    while (window.size() < ServiceInputs::kWindow && next_entry < G) admit();
    while (!window.empty()) {
      const std::size_t w = rng.below(window.size());
      const std::uint16_t g = window[w];
      const GroupSpec& spec = in.groups[g];
      const std::uint16_t m = members[g][emitted[g]];
      in.group_of[i] = g;
      in.member_of[i] = m;
      in.index_of[static_cast<std::size_t>(r) * in.members_total +
                  spec.member_base + m] = i;
      ++emitted[g];
      if (emitted[g] == (spec.k != 0 ? spec.k : spec.n))
        in.release_at[static_cast<std::size_t>(r) * G + g] = i;
      ++i;
      if (emitted[g] == spec.n) {
        window[w] = window.back();
        window.pop_back();
        if (next_entry < G) admit();
      }
    }
  }
  return in;
}

}  // namespace perfbench
