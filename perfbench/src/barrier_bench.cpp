// barrier_lockstep / barrier_skewed: three participant threads run
// episodes through every roster configuration — the ten kinds (trees
// at degree 2) plus five decorator stacks over each of flat and
// central — in seeded order, several passes per run. Each thread
// stamps its own arrive_and_wait call on entry and on return; the sync
// delay of an episode is the last return minus the last arrival.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "barrier/factory.hpp"
#include "bench.hpp"
#include "control/controlled_barrier.hpp"
#include "inputs.hpp"
#include "obs/instrumented_barrier.hpp"
#include "obs/metrics_registry.hpp"
#include "robust/membership.hpp"
#include "robust/quorum_barrier.hpp"
#include "robust/robust_barrier.hpp"
#include "stats.hpp"
#include "util/cacheline.hpp"

namespace perfbench {

namespace {

using imbar::BarrierConfig;
using imbar::BarrierCounters;
using imbar::BarrierKind;

constexpr std::size_t kThreads = 3;
constexpr std::size_t kPasses = 6;
constexpr std::size_t kSetupReps = 21;         // roster builds timed
constexpr std::size_t kWarmup = 8;             // episodes dropped per slice
constexpr std::size_t kSliceCap = 1u << 18;    // stamp buffer, episodes
constexpr std::size_t kSpansPerSlice = 64;     // traced spans per track

enum class Decor { kNone, kInstrumented, kRobust, kQuorum, kMembership,
                   kControlled };

struct StackSpec {
  std::string name;  // metric key: kind name, or <decor>_<kind>
  BarrierKind kind;
  Decor decor;
};

std::vector<StackSpec> make_roster() {
  const std::pair<const char*, BarrierKind> kinds[] = {
      {"central", BarrierKind::kCentral},
      {"combining", BarrierKind::kCombiningTree},
      {"mcs", BarrierKind::kMcsTree},
      {"dynamic", BarrierKind::kDynamicPlacement},
      {"dissemination", BarrierKind::kDissemination},
      {"tournament", BarrierKind::kTournament},
      {"mcs_local", BarrierKind::kMcsLocalSpin},
      {"adaptive", BarrierKind::kAdaptive},
      {"sense", BarrierKind::kSenseReversing},
      {"flat", BarrierKind::kFlat},
  };
  const std::pair<const char*, Decor> decors[] = {
      {"instrumented", Decor::kInstrumented},
      {"robust", Decor::kRobust},
      {"quorum", Decor::kQuorum},
      {"membership", Decor::kMembership},
      {"controlled", Decor::kControlled},
  };
  std::vector<StackSpec> r;
  for (const auto& [name, kind] : kinds) r.push_back({name, kind, Decor::kNone});
  for (const auto& [base, kind] :
       {std::pair{"flat", BarrierKind::kFlat},
        std::pair{"central", BarrierKind::kCentral}})
    for (const auto& [dname, decor] : decors)
      r.push_back({std::string(dname) + "_" + base, kind, decor});
  return r;
}

/// One roster configuration, behind a uniform arrive call that reports
/// whether the decorator returned an ok status.
class Stack {
 public:
  virtual ~Stack() = default;
  virtual bool arrive(std::size_t tid) = 0;
  [[nodiscard]] virtual BarrierCounters counters() const = 0;
  [[nodiscard]] virtual std::uint64_t swaps() const { return 0; }
};

/// Bare kinds and the instrumented decorator: Barrier::arrive_and_wait.
class PlainStack final : public Stack {
 public:
  explicit PlainStack(std::unique_ptr<imbar::Barrier> b) : b_(std::move(b)) {}
  bool arrive(std::size_t tid) override {
    b_->arrive_and_wait(tid);
    return true;
  }
  [[nodiscard]] BarrierCounters counters() const override {
    return b_->counters();
  }

 private:
  std::unique_ptr<imbar::Barrier> b_;
};

class ControlledStack final : public Stack {
 public:
  explicit ControlledStack(const BarrierConfig& c)
      : b_(imbar::control::make_controlled(c)) {}
  bool arrive(std::size_t tid) override {
    b_->arrive_and_wait(tid);
    return true;
  }
  [[nodiscard]] BarrierCounters counters() const override {
    return b_->counters();
  }
  [[nodiscard]] std::uint64_t swaps() const override { return b_->swaps(); }

 private:
  std::unique_ptr<imbar::control::ControlledBarrier> b_;
};

/// Decorators whose arrive_and_wait returns a status enum.
template <typename B, auto kOk, typename Opts>
class StatusStack final : public Stack {
 public:
  StatusStack(const BarrierConfig& c, Opts opts) : b_(c, std::move(opts)) {}
  bool arrive(std::size_t tid) override { return b_.arrive_and_wait(tid) == kOk; }
  [[nodiscard]] BarrierCounters counters() const override {
    return b_.counters();
  }

 private:
  B b_;
};

std::unique_ptr<Stack> build(const StackSpec& s) {
  BarrierConfig c;
  c.kind = s.kind;
  c.participants = kThreads;
  c.degree = 2;
  switch (s.decor) {
    case Decor::kNone:
      return std::make_unique<PlainStack>(imbar::make_barrier(c));
    case Decor::kInstrumented:
      return std::make_unique<PlainStack>(imbar::obs::make_instrumented(c));
    case Decor::kRobust:
      return std::make_unique<StatusStack<imbar::robust::RobustBarrier,
                                          imbar::robust::BarrierStatus::kOk,
                                          imbar::robust::RobustOptions>>(
          c, imbar::robust::RobustOptions{});
    case Decor::kQuorum:
      // k = n: the strict path with the quorum ledger running. The
      // budget is far beyond any episode, so no phase degrades.
      c.quorum.quorum = kThreads;
      c.quorum.deadline_budget = std::chrono::seconds(1);
      return std::make_unique<StatusStack<imbar::robust::QuorumBarrier,
                                          imbar::robust::QuorumStatus::kOk,
                                          imbar::robust::QuorumOptions>>(
          c, imbar::robust::QuorumOptions{});
    case Decor::kMembership:
      return std::make_unique<StatusStack<imbar::robust::MembershipGroup,
                                          imbar::robust::MemberStatus::kOk,
                                          imbar::robust::MembershipOptions>>(
          c, imbar::robust::MembershipOptions{});
    case Decor::kControlled:
      return std::make_unique<ControlledStack>(c);
  }
  throw std::logic_error("unknown decorator");
}

/// Persistent participant threads. run() hands them one slice: every
/// thread runs episodes on the stack until the shared stop ordinal,
/// which thread 0 lowers once the slice's time is up (or the stamp
/// buffers fill). Threads are at most one episode apart, so a stop
/// ordinal two past thread 0's current episode is one every thread
/// still reaches.
class Crew {
 public:
  explicit Crew(const BarrierInputs& in) : in_(in) {
    for (std::size_t t = 0; t < kThreads; ++t) {
      arrive_[t].assign(kSliceCap, 0);
      return_[t].assign(kSliceCap, 0);
    }
    for (std::size_t t = 0; t < kThreads; ++t)
      threads_.emplace_back([this, t] { loop(t); });
  }

  ~Crew() {
    stopping_ = true;
    gen_.fetch_add(1, std::memory_order_release);
    gen_.notify_all();
    for (auto& th : threads_) th.join();
  }

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// Run one slice; returns the episodes completed.
  std::size_t run(Stack& stack, std::int64_t end_ns, std::size_t work_offset) {
    stack_ = &stack;
    end_ns_ = end_ns;
    work_offset_ = work_offset;
    stop_at_.store(kSliceCap, std::memory_order_relaxed);
    for (auto& o : ordinal_) o.value.store(0, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    gen_.notify_all();
    for (std::size_t d; (d = done_.load(std::memory_order_acquire)) < kThreads;)
      done_.wait(d, std::memory_order_acquire);
    return episodes_;
  }

  const std::vector<std::int64_t>& arrivals(std::size_t t) const {
    return arrive_[t];
  }
  const std::vector<std::int64_t>& returns(std::size_t t) const {
    return return_[t];
  }
  std::uint64_t take_bad_status() { return std::exchange(bad_status_, 0); }
  std::uint64_t take_overtakes() { return std::exchange(overtakes_, 0); }

 private:
  void loop(std::size_t tid) {
    std::uint64_t seen = 0;
    for (;;) {
      for (std::uint64_t g; (g = gen_.load(std::memory_order_acquire)) == seen;)
        gen_.wait(g, std::memory_order_acquire);
      seen = gen_.load(std::memory_order_acquire);
      if (stopping_) return;
      slice(tid);
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == kThreads)
        done_.notify_all();
    }
  }

  void slice(std::size_t tid) {
    Stack& st = *stack_;
    auto& arr = arrive_[tid];
    auto& ret = return_[tid];
    const auto& work = in_.work_ns[tid];
    std::uint64_t bad = 0, overtakes = 0;
    std::size_t e = 0;
    for (; e < stop_at_.load(std::memory_order_acquire); ++e) {
      if (in_.skewed)
        spin_until(now_ns() +
                   work[(work_offset_ + e) % BarrierInputs::kWorkTable]);
      // No-overtake check: publish this episode's ordinal before
      // arriving; after returning, every peer must have published it
      // and be at most one episode further.
      ordinal_[tid].value.store(e + 1, std::memory_order_release);
      const std::int64_t t0 = now_ns();
      const bool ok = st.arrive(tid);
      const std::int64_t t1 = now_ns();
      arr[e] = t0;
      ret[e] = t1;
      if (!ok) ++bad;
      for (std::size_t p = 0; p < kThreads; ++p) {
        const std::uint64_t o = ordinal_[p].value.load(std::memory_order_acquire);
        if (o < e + 1 || o > e + 2) ++overtakes;
      }
      if (tid == 0 && t1 >= end_ns_ &&
          stop_at_.load(std::memory_order_relaxed) > e + 2)
        stop_at_.store(e + 2, std::memory_order_release);
    }
    {
      const std::lock_guard<std::mutex> lk(mu_);
      bad_status_ += bad;
      overtakes_ += overtakes;
      episodes_ = e;
    }
  }

  const BarrierInputs& in_;
  std::vector<std::int64_t> arrive_[kThreads];
  std::vector<std::int64_t> return_[kThreads];
  imbar::PaddedAtomic<std::uint64_t> ordinal_[kThreads];
  std::atomic<std::size_t> stop_at_{kSliceCap};
  std::atomic<std::uint64_t> gen_{0};
  std::atomic<std::size_t> done_{0};
  Stack* stack_ = nullptr;
  std::int64_t end_ns_ = 0;
  std::size_t work_offset_ = 0;
  bool stopping_ = false;
  std::mutex mu_;  // guards the three totals below
  std::uint64_t bad_status_ = 0;
  std::uint64_t overtakes_ = 0;
  std::size_t episodes_ = 0;
  std::vector<std::thread> threads_;  // last: joins before the rest dies
};

struct ConfigStats {
  LogHistogram sync_us, last_arriver_us, wake_lag_us;
  std::uint64_t episodes = 0;
  std::uint64_t counted_episodes = 0;  // BarrierCounters::episodes delta
  std::uint64_t updates = 0;           // BarrierCounters::updates delta
  std::uint64_t swaps = 0;
};

/// Pooled per-configuration stats, plus each pass's roster summary: the
/// end-to-end figures are medians over passes, so a burst of host noise
/// during one pass does not move them.
struct Passes {
  std::vector<ConfigStats> stats;
  std::vector<double> p50_us, p90_us, p99_us, episodes_per_s;  // per pass
  std::uint64_t attempted = 0;
  std::int64_t loop_ns = 0;
  std::uint64_t episodes = 0;
};

std::vector<std::unique_ptr<Stack>> build_roster(
    const std::vector<StackSpec>& roster) {
  std::vector<std::unique_ptr<Stack>> stacks;
  stacks.reserve(roster.size());
  for (const StackSpec& s : roster) stacks.push_back(build(s));
  return stacks;
}

/// Fold one slice's stamps into the configuration's histograms.
void fold_slice(const Crew& crew, std::size_t episodes, ConfigStats& cs,
                LogHistogram& pass_sync_us, LogHistogram& pass_period_us) {
  for (std::size_t e = kWarmup; e < episodes; ++e) {
    pass_period_us.add(
        static_cast<double>(crew.returns(0)[e] - crew.returns(0)[e - 1]) / 1e3);
    std::size_t last = 0;
    std::int64_t last_arrival = crew.arrivals(0)[e];
    std::int64_t last_return = crew.returns(0)[e];
    for (std::size_t t = 1; t < kThreads; ++t) {
      if (crew.arrivals(t)[e] > last_arrival) {
        last_arrival = crew.arrivals(t)[e];
        last = t;
      }
      last_return = std::max(last_return, crew.returns(t)[e]);
    }
    const double sync_us = static_cast<double>(last_return - last_arrival) / 1e3;
    cs.sync_us.add(sync_us);
    pass_sync_us.add(sync_us);
    cs.last_arriver_us.add(
        static_cast<double>(crew.returns(last)[e] - last_arrival) / 1e3);
    for (std::size_t t = 0; t < kThreads; ++t)
      if (t != last)
        cs.wake_lag_us.add(
            static_cast<double>(crew.returns(t)[e] - last_arrival) / 1e3);
    ++cs.episodes;
  }
}

/// Run `passes` passes over the roster within `seconds`.
Passes run_passes(const std::vector<StackSpec>& roster, const BarrierInputs& in,
                  Crew& crew, std::size_t first_pass, std::size_t passes,
                  double seconds, Tracer* tracer,
                  const std::vector<std::size_t>& tracks, Result& res) {
  Passes out;
  out.stats.resize(roster.size());
  const auto slice_ns = static_cast<std::int64_t>(
      seconds * 1e9 / static_cast<double>(passes * roster.size()));
  std::vector<const char*> span_names;
  if (tracer)
    for (const StackSpec& s : roster) span_names.push_back(tracer->intern(s.name));
  for (std::size_t p = first_pass; p < first_pass + passes; ++p) {
    const std::int64_t b0 = now_ns();
    const auto stacks = build_roster(roster);
    if (tracer) tracer->span(tracks.back(), "build_roster", b0, now_ns());
    std::vector<LogHistogram> pass_sync_us(roster.size());
    std::vector<LogHistogram> pass_period_us(roster.size());
    std::int64_t pass_ns = 0;
    std::uint64_t pass_episodes = 0;
    for (const std::uint16_t c : in.order[p]) {
      Stack& st = *stacks[c];
      ConfigStats& cs = out.stats[c];
      const BarrierCounters before = st.counters();
      const std::int64_t t0 = now_ns();
      const std::size_t eps = crew.run(st, t0 + slice_ns, p * 1031);
      const std::int64_t t1 = now_ns();
      const BarrierCounters after = st.counters();
      pass_ns += t1 - t0;
      pass_episodes += eps;
      out.attempted += eps * kThreads;
      cs.counted_episodes += after.episodes - before.episodes;
      cs.updates += after.updates - before.updates;
      if (const std::uint64_t bad = crew.take_bad_status())
        res.fail(roster[c].name + ": non-ok decorator status", bad);
      if (const std::uint64_t o = crew.take_overtakes())
        res.fail(roster[c].name + ": episode overtaken", o);
      fold_slice(crew, eps, cs, pass_sync_us[c], pass_period_us[c]);
      if (tracer) {
        const std::size_t n = std::min(eps, kSpansPerSlice);
        for (std::size_t t = 0; t < kThreads; ++t)
          for (std::size_t e = 0; e < n; ++e)
            tracer->span(tracks[t], span_names[c], crew.arrivals(t)[e],
                        crew.returns(t)[e]);
      }
    }
    // A stack whose slice was preempted below kWarmup episodes has no
    // samples this pass; the pass summary is over the stacks that do.
    std::vector<double> p50s, p90s, p99s, rates;
    for (std::size_t c = 0; c < roster.size(); ++c) {
      out.stats[c].swaps += stacks[c]->swaps();
      if (pass_sync_us[c].count() == 0) continue;
      p50s.push_back(pass_sync_us[c].percentile(50));
      p90s.push_back(pass_sync_us[c].percentile(90));
      p99s.push_back(pass_sync_us[c].percentile(99));
      rates.push_back(1e6 / pass_period_us[c].percentile(50));
    }
    out.loop_ns += pass_ns;
    out.episodes += pass_episodes;
    if (p50s.empty()) continue;
    out.p50_us.push_back(geomean(p50s));
    out.p90_us.push_back(geomean(p90s));
    out.p99_us.push_back(geomean(p99s));
    out.episodes_per_s.push_back(geomean(rates));
  }
  return out;
}

}  // namespace

Result run_barrier(const RunConfig& cfg, bool skewed) {
  Result res;
  const std::vector<StackSpec> roster = make_roster();
  const std::size_t passes = cfg.trace ? 2 * kPasses : kPasses;
  const BarrierInputs in =
      make_barrier_inputs(cfg.seed, skewed, kThreads, roster.size(), passes);
  Crew crew(in);
  Tracer tracer(cfg.trace);
  std::vector<std::size_t> tracks;
  for (std::size_t t = 0; t < kThreads; ++t)
    tracks.push_back(tracer.track("participant " + std::to_string(t),
                                  kPasses * roster.size() * kSpansPerSlice));
  tracks.push_back(tracer.track("main", kPasses));
  const std::int64_t origin = now_ns();

  // Set-up time: building the whole roster, several times, median.
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const std::int64_t b0 = now_ns();
    const auto stacks = build_roster(roster);
    setup_s.push_back(static_cast<double>(now_ns() - b0) / 1e9);
  }

  // A traced run first repeats the untraced measurement over half its
  // time, so it can report its own overhead against it.
  Passes plain;
  if (cfg.trace)
    plain = run_passes(roster, in, crew, 0, kPasses, cfg.seconds / 2, nullptr,
                       tracks, res);
  const Passes run = run_passes(
      roster, in, crew, cfg.trace ? kPasses : 0, kPasses,
      cfg.trace ? cfg.seconds / 2 : cfg.seconds, cfg.trace ? &tracer : nullptr,
      tracks, res);
  res.attempted = plain.attempted + run.attempted;

  std::string roster_names;
  for (const StackSpec& s : roster)
    roster_names += (roster_names.empty() ? "" : ",") + s.name;
  res.details["roster"] = roster_names;
  res.details["threads"] = std::to_string(kThreads);
  res.details["passes"] = std::to_string(kPasses);
  res.details["skew"] =
      skewed ? "W=" + std::to_string(BarrierInputs::kBaseWorkUs) +
                   "us bias_step=" + std::to_string(BarrierInputs::kBiasStepUs) +
                   "us sigma=" + std::to_string(BarrierInputs::kSigmaUs) + "us"
             : "none";

  if (!cfg.trace) {
    res.set("latency_p50_us", median(run.p50_us), "us");
    res.set("throughput_per_s", median(run.episodes_per_s), "1/s");
    res.set("setup_s", median(setup_s), "s");
    res.set("rss_mb", peak_rss_mb(), "MiB");
    // The workload-specific names, with the tail rule's sample counts.
    res.details["sync_delay_p50_us"] = std::to_string(median(run.p50_us));
    res.details["sync_delay_p90_us"] = std::to_string(median(run.p90_us));
    res.details["sync_delay_p99_us"] = std::to_string(median(run.p99_us));
    res.details["episodes_per_s"] = std::to_string(median(run.episodes_per_s));
    res.details["episodes_per_s_in_loops"] = std::to_string(
        static_cast<double>(run.episodes) / (static_cast<double>(run.loop_ns) / 1e9));
    std::size_t min_n = SIZE_MAX;
    double min_tail = 100;
    for (const ConfigStats& cs : run.stats) {
      const Tail t = cs.sync_us.tail();
      min_n = std::min(min_n, t.n);
      min_tail = std::min(min_tail, t.pct);
    }
    res.details["sync_delay_samples_min"] = std::to_string(min_n);
    res.details["sync_delay_tail_pct_min"] = std::to_string(min_tail);
    return res;
  }

  imbar::obs::MetricsRegistry registry;
  std::map<std::string, double> bare_p50;
  for (std::size_t c = 0; c < roster.size(); ++c) {
    const StackSpec& s = roster[c];
    const ConfigStats& cs = run.stats[c];
    const double p50 = cs.sync_us.percentile(50);
    const double p99 = cs.sync_us.percentile(99);
    registry.set_counter("perfbench.barrier." + s.name + ".episodes",
                         cs.episodes);
    registry.set_counter("perfbench.barrier." + s.name + ".updates", cs.updates);
    if (s.decor == Decor::kNone) {
      const std::string k = "barrier." + s.name + ".";
      bare_p50[s.name] = p50;
      res.set(k + "sync_p50_us", p50, "us");
      res.set(k + "sync_p99_us", p99, "us");
      res.set(k + "last_arriver_p50_us", cs.last_arriver_us.percentile(50), "us");
      res.set(k + "wake_lag_p50_us", cs.wake_lag_us.percentile(50), "us");
      res.set(k + "updates_per_ep",
              cs.counted_episodes ? static_cast<double>(cs.updates) /
                                        static_cast<double>(cs.counted_episodes)
                                  : 0.0,
              "1/ep");
    }
  }
  for (std::size_t c = 0; c < roster.size(); ++c) {
    const StackSpec& s = roster[c];
    if (s.decor == Decor::kNone) continue;
    const ConfigStats& cs = run.stats[c];
    const std::string k = "decor." + s.name + ".";
    const std::string base = s.kind == BarrierKind::kFlat ? "flat" : "central";
    res.set(k + "sync_p50_us", cs.sync_us.percentile(50), "us");
    res.set(k + "sync_p99_us", cs.sync_us.percentile(99), "us");
    res.set(k + "overhead_us", cs.sync_us.percentile(50) - bare_p50[base], "us");
    if (s.decor == Decor::kControlled)
      res.set(k + "swaps", static_cast<double>(cs.swaps), "count");
  }
  res.set("host.t_c_ns", measure_t_c_ns(), "ns");
  res.set("host.t_c_contended_ns", measure_t_c_contended_ns(kThreads), "ns");
  res.set("trace.overhead_pct",
          (median(plain.episodes_per_s) / median(run.episodes_per_s) - 1.0) * 100.0,
          "%");
  write_trace_files(cfg, tracer, origin, registry.snapshot_json(), res);
  return res;
}

}  // namespace perfbench
