// service_journal: one generator thread drives a BarrierService (8
// shards, 64 slots, 2 TaskPool workers, a FileBackend journal flushed
// per op, FileSnapshotStore snapshots) with the soak's population, one
// logical arrival per call, in a seeded interleaving. Each trial builds
// a fresh service, runs an open-loop phase at a fixed offered rate and
// then an unpaced saturation phase, checks the ledger, destroys the
// service and recovers a new one from the same files. Trials repeat
// until the run's time is spent; metrics pool over trials.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>

#include "bench.hpp"
#include "inputs.hpp"
#include "obs/exec_metrics.hpp"
#include "obs/metrics_registry.hpp"
#include "service/barrier_service.hpp"
#include "service/service_metrics.hpp"
#include "service/snapshot.hpp"
#include "service/storage.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace svc = imbar::service;

constexpr std::size_t kShards = 8;
constexpr std::size_t kSlots = 64;
constexpr std::size_t kWorkers = 2;
constexpr std::uint64_t kSnapshotInterval = 2048;  // ops per shard
constexpr std::size_t kGeneratorSpans = 20000;
constexpr std::size_t kStorageSpans = 20000;
constexpr std::uint64_t kSubmitSample = 8;         // time 1 in 8 arrive()
constexpr std::size_t kSetupReps = 16;             // extra set-ups per half
// Open loop: well below the lowest saturation seen (26-120K arrivals/s,
// with the host's vCPU steal), so a dip in capacity does not turn it
// into a growing queue.
constexpr double kOfferedPerS = 15'000.0;
constexpr std::uint32_t kOpenRounds = 1;
constexpr std::uint32_t kSatRounds = 1;

/// Per-layer timings the traced run collects through the wrappers.
struct StorageStats {
  LogHistogram append_us, flush_us, save_us;
  std::uint64_t flushes = 0;
  std::uint64_t bytes = 0;
  std::uint64_t saves = 0;
};

/// Times every call into the journal's FileBackend. The service calls
/// append/flush under its journal mutex, so one writer at a time.
class TimedBackend final : public svc::StorageBackend {
 public:
  TimedBackend(std::shared_ptr<svc::StorageBackend> inner, StorageStats& st,
               Tracer& tr, std::size_t track)
      : inner_(std::move(inner)), st_(st), tr_(tr), track_(track) {}

  void append(std::string_view bytes) override {
    const std::int64_t t0 = now_ns();
    inner_->append(bytes);
    const std::int64_t t1 = now_ns();
    st_.append_us.add(static_cast<double>(t1 - t0) / 1e3);
    st_.bytes += bytes.size();
    tr_.span(track_, "storage.append", t0, t1);
  }
  void flush() override {
    const std::int64_t t0 = now_ns();
    inner_->flush();
    const std::int64_t t1 = now_ns();
    st_.flush_us.add(static_cast<double>(t1 - t0) / 1e3);
    ++st_.flushes;
    tr_.span(track_, "storage.flush", t0, t1);
  }
  std::string read_all() override {
    const std::int64_t t0 = now_ns();
    std::string out = inner_->read_all();
    tr_.span(track_, "storage.read_all", t0, now_ns());
    return out;
  }
  void truncate(std::size_t size) override { inner_->truncate(size); }
  std::size_t durable_size() override { return inner_->durable_size(); }
  void crash() override { inner_->crash(); }

 private:
  std::shared_ptr<svc::StorageBackend> inner_;
  StorageStats& st_;
  Tracer& tr_;
  std::size_t track_;
};

/// Times snapshot saves (shard actors, concurrently) and loads.
class TimedSnapshots final : public svc::SnapshotStore {
 public:
  TimedSnapshots(std::shared_ptr<svc::SnapshotStore> inner, StorageStats& st,
                 Tracer& tr, std::size_t track)
      : inner_(std::move(inner)), st_(st), tr_(tr), track_(track) {}

  void save(std::size_t shard, const std::string& blob) override {
    const std::int64_t t0 = now_ns();
    inner_->save(shard, blob);
    const std::int64_t t1 = now_ns();
    const std::lock_guard<std::mutex> lk(mu_);
    st_.save_us.add(static_cast<double>(t1 - t0) / 1e3);
    ++st_.saves;
    tr_.span(track_, "snapshot.save", t0, t1);
  }
  std::string load(std::size_t shard) override {
    const std::int64_t t0 = now_ns();
    std::string out = inner_->load(shard);
    const std::lock_guard<std::mutex> lk(mu_);
    tr_.span(track_, "snapshot.load", t0, now_ns());
    return out;
  }

 private:
  std::shared_ptr<svc::SnapshotStore> inner_;
  StorageStats& st_;
  Tracer& tr_;
  std::size_t track_;
  std::mutex mu_;  // serializes the stats and the track
};

/// Completion accounting for one shard. Only the shard's actor runs
/// its callbacks, one at a time, so no locking.
struct ShardSink {
  LogHistogram completion_us;  // open loop: from the releasing send
  LogHistogram due_us;         // open loop: from the releasing due time
  std::uint64_t completions = 0;
  std::uint64_t unexpected = 0;
};

/// Everything pooled over the trials of one half of a run.
struct Pooled {
  LogHistogram completion_us, due_us, submit_us, lag_us;
  std::vector<double> trial_p50_us, trial_p90_us, trial_p99_us;
  std::vector<double> setup_s, drain_ms, recover_s, replayed, loaded,
      shard_max_ms;
  double sat_arrivals = 0;
  double busy_ns = 0, worker_ns = 0, tasks = 0;
  double slot_grants = 0, slot_evictions = 0, ready_enqueues = 0,
         arrivals = 0;
  StorageStats storage;
  std::uint64_t trials = 0;
};

class ServiceRun {
 public:
  ServiceRun(const RunConfig& cfg, Result& res)
      : seed_(cfg.seed),
        in_(make_service_inputs(cfg.seed, kOpenRounds + kSatRounds)),
        res_(res),
        tracer_(cfg.trace),
        dir_(cfg.out_dir + "/service-" + std::to_string(getpid())) {
    gen_track_ = tracer_.track("generator", kGeneratorSpans);
    main_track_ = tracer_.track("main", 4096);
    storage_track_ = tracer_.track("journal", kStorageSpans);
    snap_track_ = tracer_.track("snapshots", kStorageSpans);
    for (const GroupSpec& g : in_.groups) quorum_groups_ += g.k != 0;
    sent_ns_.assign(static_cast<std::size_t>(kOpenRounds) * in_.members_total, 0);
  }

  ~ServiceRun() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  ServiceRun(const ServiceRun&) = delete;
  ServiceRun& operator=(const ServiceRun&) = delete;

  /// Trials until `seconds` are spent (at least one).
  Pooled run(double seconds, bool traced) {
    Pooled pool;
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t r = 0; r < kSetupReps; ++r) set_up(pool, false);
    do {
      // Each trial gets its own interleaving, drawn from (seed, trial),
      // so a run averages over schedules instead of riding on one.
      in_ = make_service_inputs(seed_ ^ (0x9E3779B97F4A7C15ULL * ++trial_index_),
                                kOpenRounds + kSatRounds);
      trial(pool, traced);
      ++pool.trials;
    } while (now_ns() < end);
    return pool;
  }

  const std::string& metrics_json() const { return last_metrics_; }
  const ServiceInputs& inputs() const { return in_; }
  Tracer& tracer() { return tracer_; }

 private:
  svc::BarrierService::Options options(StorageStats& st, bool traced) {
    svc::BarrierService::Options o;
    o.shards = kShards;
    o.slots = kSlots;
    o.workers = kWorkers;
    std::shared_ptr<svc::StorageBackend> backend =
        std::make_shared<svc::FileBackend>(dir_ + "/journal.bin");
    std::shared_ptr<svc::SnapshotStore> snaps =
        std::make_shared<svc::FileSnapshotStore>(dir_ + "/snap");
    if (traced) {
      backend =
          std::make_shared<TimedBackend>(backend, st, tracer_, storage_track_);
      snaps = std::make_shared<TimedSnapshots>(snaps, st, tracer_, snap_track_);
    }
    o.durability.journal = std::move(backend);
    o.durability.snapshots = std::move(snaps);
    o.durability.snapshot_interval = kSnapshotInterval;
    o.durability.flush_every = 1;
    return o;
  }

  void on_complete(std::size_t s, const svc::Completion& c) {
    ShardSink& sink = sinks_[s];
    ++sink.completions;
    const GroupSpec& g = in_.groups[c.group];
    std::uint64_t round = 0, ref = 0;
    switch (c.kind) {
      case svc::CompletionKind::kReleased:
      case svc::CompletionKind::kQuorum:
        // One sample per released phase, at its first callback: a large
        // group's release would otherwise weigh 2048 times a small one's.
        if (c.phase < released_[c.group]) return;
        released_[c.group] = c.phase + 1;
        round = c.phase;
        ref = in_.release_at[round * ServiceInputs::kGroups + c.group];
        break;
      case svc::CompletionKind::kLate:
        // Settled after its phase released, so the group is one ahead.
        round = c.phase - 1;
        ref = in_.index_of[round * in_.members_total + g.member_base + c.member];
        break;
      default:
        ++sink.unexpected;
        return;
    }
    if (round >= kOpenRounds) return;
    const std::int64_t now = now_ns();
    sink.completion_us.add(static_cast<double>(now - sent_ns_[ref]) / 1e3);
    sink.due_us.add(open_.latency_us(ref, now));
  }

  /// One arrive(). In the saturation phase (`timed`), 1 in
  /// kSubmitSample calls is timed: the acknowledgement latency, with the
  /// generator unpaced.
  void submit(svc::BarrierService& s, std::uint64_t i, bool traced, bool timed,
              Pooled& pool) {
    const std::uint16_t g = in_.group_of[i];
    if (!timed || i % kSubmitSample != 0) {
      s.arrive(g, in_.member_of[i]);
      return;
    }
    const std::int64_t t0 = now_ns();
    s.arrive(g, in_.member_of[i]);
    const std::int64_t t1 = now_ns();
    pool.submit_us.add(static_cast<double>(t1 - t0) / 1e3);
    if (traced) tracer_.span(gen_track_, "service.arrive", t0, t1);
  }

  /// Fresh files, fresh sinks, a new service with the population
  /// created. setup_s times construction and the create_group() calls;
  /// the drain that settles them is left out, because its cross-thread
  /// hand-offs measure how much vCPU time the host steals.
  std::unique_ptr<svc::BarrierService> set_up(Pooled& pool, bool traced) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    for (ShardSink& sink : sinks_) sink = ShardSink{};
    std::fill(released_.begin(), released_.end(), 0);
    const std::int64_t s0 = now_ns();
    auto service = std::make_unique<svc::BarrierService>(
        options(pool.storage, traced));
    for (std::uint32_t g = 0; g < ServiceInputs::kGroups; ++g) {
      svc::GroupOptions go;
      go.participants = in_.groups[g].n;
      go.group_class = kClassNames[in_.groups[g].cls];
      go.quorum.quorum = in_.groups[g].k;  // zero budget: release at k
      go.on_complete = [this, s = g % kShards](const svc::Completion& c) {
        on_complete(s, c);
      };
      service->create_group(g, std::move(go));
    }
    const std::int64_t s1 = now_ns();
    service->drain();
    pool.setup_s.push_back(static_cast<double>(s1 - s0) / 1e9);
    if (traced) tracer_.span(main_track_, "setup", s0, s1);
    return service;
  }

  void trial(Pooled& pool, bool traced) {
    auto service = set_up(pool, traced);

    // Open loop: arrival i is due at t0 + i / rate, sent no earlier.
    const std::uint64_t open_n =
        static_cast<std::uint64_t>(kOpenRounds) * in_.members_total;
    open_ = OpenLoop{now_ns() + 1'000'000, kOfferedPerS};
    for (std::uint64_t i = 0; i < open_n; ++i) {
      const std::int64_t due = open_.due_ns(i);
      std::int64_t t = now_ns();
      while (t < due) t = now_ns();
      pool.lag_us.add(open_.lag_us(i, t));
      sent_ns_[i] = t;
      submit(*service, i, traced, false, pool);
    }
    const std::int64_t d0 = now_ns();
    service->drain();
    if (traced) tracer_.span(gen_track_, "service.drain", d0, now_ns());

    // Saturation: unpaced, from the first submit to drain() returning.
    const auto m0 = service->pool().metrics();
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = open_n; i < in_.arrivals(); ++i)
      submit(*service, i, traced, true, pool);
    const std::int64_t d1 = now_ns();
    service->drain();
    const std::int64_t t1 = now_ns();
    if (traced) tracer_.span(gen_track_, "service.drain", d1, t1);
    const auto m1 = service->pool().metrics();
    pool.drain_ms.push_back(static_cast<double>(t1 - d1) / 1e6);
    pool.sat_arrivals += static_cast<double>(in_.arrivals() - open_n);
    for (std::size_t w = 0; w < m1.busy_ns_per_worker.size(); ++w)
      pool.busy_ns += static_cast<double>(m1.busy_ns_per_worker[w] -
                                          m0.busy_ns_per_worker[w]);
    pool.worker_ns += static_cast<double>(t1 - t0) *
                      static_cast<double>(m1.busy_ns_per_worker.size());
    pool.tasks += static_cast<double>(m1.executed - m0.executed);

    const svc::ServiceCounters c = service->counters();
    check_ledger(c);
    pool.slot_grants += static_cast<double>(c.slot_grants);
    pool.slot_evictions += static_cast<double>(c.slot_evictions);
    pool.ready_enqueues += static_cast<double>(c.ready_enqueues);
    pool.arrivals += static_cast<double>(c.arrivals);
    res_.attempted += in_.arrivals();
    LogHistogram trial_us;
    for (const ShardSink& sink : sinks_) trial_us.merge(sink.completion_us);
    pool.trial_p50_us.push_back(trial_us.percentile(50));
    pool.trial_p90_us.push_back(trial_us.percentile(90));
    pool.trial_p99_us.push_back(trial_us.percentile(99));
    pool.completion_us.merge(trial_us);
    for (const ShardSink& sink : sinks_) {
      pool.due_us.merge(sink.due_us);
      if (sink.unexpected) res_.fail("unexpected completion kind", sink.unexpected);
    }
    if (traced) {
      imbar::obs::MetricsRegistry reg;
      svc::fold_service_metrics(*service, reg);
      imbar::obs::fold_exec_metrics(service->pool(), reg);
      last_metrics_ = reg.snapshot_json();
    }

    // Kill and restart: a fresh service recovers from the same files.
    service.reset();
    const std::int64_t r0 = now_ns();
    service = std::make_unique<svc::BarrierService>(
        options(pool.storage, traced));
    const svc::RecoveryReport& rep = service->recover();
    const std::int64_t r1 = now_ns();
    if (traced) tracer_.span(main_track_, "service.recover", r0, r1);
    pool.recover_s.push_back(static_cast<double>(r1 - r0) / 1e9);
    pool.replayed.push_back(static_cast<double>(rep.replayed_ops));
    pool.loaded.push_back(static_cast<double>(rep.snapshots_loaded));
    std::uint64_t shard_max = 0;
    for (std::uint64_t us : rep.shard_recover_us)
      shard_max = std::max(shard_max, us);
    pool.shard_max_ms.push_back(static_cast<double>(shard_max) / 1e3);
    res_.attempted += 1;
    if (rep.truncated_records != 0) res_.fail("recovery truncated records");
    if (!same_counters(c, service->counters()))
      res_.fail("recovered counters differ from pre-kill counters");
  }

  static bool same_counters(const svc::ServiceCounters& a,
                            const svc::ServiceCounters& b) {
    return a.groups_created == b.groups_created &&
           a.groups_destroyed == b.groups_destroyed &&
           a.arrivals == b.arrivals &&
           a.completions_strict == b.completions_strict &&
           a.completions_quorum == b.completions_quorum &&
           a.completions_late == b.completions_late &&
           a.cancelled == b.cancelled && a.rejected == b.rejected &&
           a.releases_strict == b.releases_strict &&
           a.releases_quorum == b.releases_quorum &&
           a.owed_outstanding == b.owed_outstanding;
  }

  void check_ledger(const svc::ServiceCounters& c) {
    const std::uint64_t rounds = in_.rounds;
    std::uint64_t completions = 0;
    for (const ShardSink& sink : sinks_) completions += sink.completions;
    if (c.rejected != 0) res_.fail("rejected ops", c.rejected);
    if (c.cancelled != 0) res_.fail("cancelled arrivals", c.cancelled);
    if (c.arrivals != in_.arrivals()) res_.fail("arrival count mismatch");
    // Every group releases exactly one phase per round. A quorum group
    // whose arrivals queued for a slot may release with more than k
    // present (strictly, if all n queued), so only strict groups' kind
    // is fixed.
    if (c.releases_strict + c.releases_quorum != rounds * ServiceInputs::kGroups)
      res_.fail("release count mismatch");
    if (c.releases_quorum > rounds * quorum_groups_)
      res_.fail("quorum releases from strict groups");
    if (c.owed_outstanding != 0) res_.fail("owed ledger not settled");
    // The ledger identity: strict + quorum + late + owed == released
    // participants.
    if (c.completions_strict + c.completions_quorum + c.completions_late +
            c.owed_outstanding !=
        rounds * in_.members_total)
      res_.fail("ledger identity violated");
    if (completions != in_.arrivals())
      res_.fail("completion callbacks != arrivals");
  }

 private:
  std::string last_metrics_ = "{}";  // metrics.v1 of the last traced trial
  std::uint64_t seed_;
  std::uint64_t trial_index_ = 0;
  ServiceInputs in_;
  Result& res_;
  Tracer tracer_;
  std::string dir_;
  std::size_t gen_track_ = 0, main_track_ = 0, storage_track_ = 0,
              snap_track_ = 0;
  std::uint64_t quorum_groups_ = 0;
  ShardSink sinks_[kShards];
  // Per group: phases whose release was sampled (shard actor only).
  std::vector<std::uint64_t> released_ =
      std::vector<std::uint64_t>(ServiceInputs::kGroups, 0);
  OpenLoop open_;
  // When each open-loop arrival was sent, so a completion can be timed
  // from the send of the arrival that made its phase releasable.
  std::vector<std::int64_t> sent_ns_;
};

double per_karr(double count, double arrivals) {
  return arrivals > 0 ? count / (arrivals / 1e3) : 0.0;
}

}  // namespace

Result run_service(const RunConfig& cfg) {
  Result res;
  ServiceRun run(cfg, res);
  const std::int64_t origin = now_ns();

  res.details["offered_per_s"] = std::to_string(kOfferedPerS);
  res.details["open_rounds"] = std::to_string(kOpenRounds);
  res.details["sat_rounds"] = std::to_string(kSatRounds);
  res.details["arrivals_per_round"] = std::to_string(run.inputs().members_total);
  res.details["groups"] = std::to_string(ServiceInputs::kGroups);
  res.details["threads"] = "1 generator + " + std::to_string(kWorkers) +
                           " TaskPool workers";
  res.details["shards_slots"] =
      std::to_string(kShards) + " shards, " + std::to_string(kSlots) + " slots";

  // A traced run first repeats the untraced measurement over half its
  // time, so it can report its own overhead against it.
  Pooled plain;
  if (cfg.trace) plain = run.run(cfg.seconds / 2, false);
  const Pooled pool = run.run(cfg.trace ? cfg.seconds / 2 : cfg.seconds,
                              cfg.trace);
  // The bottleneck's rate, measured where host stalls cannot move it:
  // every arrive() writes the journal synchronously while the workers
  // idle (exec.busy_frac ~0.1), so arrivals/s is one over the median
  // arrive().
  const auto rate = [](const Pooled& p) {
    return 1e6 / p.submit_us.percentile(50);
  };
  const double arrivals_per_s = rate(pool);
  res.details["trials"] = std::to_string(pool.trials);
  // Due-time latency, for reference: it also charges every
  // generator stall (a host vCPU steal included) to the arrivals behind it.
  res.details["completion_from_due_p50_us"] =
      std::to_string(pool.due_us.percentile(50));
  res.details["completion_from_due_p90_us"] =
      std::to_string(pool.due_us.percentile(90));

  if (!cfg.trace) {
    // Acknowledgement latency: how long a client blocks in arrive().
    res.set("latency_p50_us", pool.submit_us.percentile(50), "us");
    res.set("throughput_per_s", arrivals_per_s, "1/s");
    res.set("setup_s", median(pool.setup_s), "s");
    res.set("rss_mb", peak_rss_mb(), "MiB");
    const Tail t = pool.completion_us.tail();
    res.details["arrivals_per_s"] = std::to_string(arrivals_per_s);
    res.details["ack_p50_us"] = std::to_string(pool.submit_us.percentile(50));
    res.details["completion_p50_us"] = std::to_string(median(pool.trial_p50_us));
    res.details["completion_p90_us"] = std::to_string(median(pool.trial_p90_us));
    res.details["completion_p99_us"] = std::to_string(median(pool.trial_p99_us));
    res.details["completion_tail"] = "p" + std::to_string(t.pct) + "=" +
                                     std::to_string(t.value) + "us n=" +
                                     std::to_string(t.n);
    res.details["gen_lag_p99_us"] = std::to_string(pool.lag_us.percentile(99));
    res.details["recover_s"] = std::to_string(median(pool.recover_s));
    return res;
  }

  const double arr = pool.arrivals;
  res.set("service.submit_p50_us", pool.submit_us.percentile(50), "us");
  res.set("service.submit_p99_us", pool.submit_us.percentile(99), "us");
  res.set("service.queue_to_complete_p50_us", pool.completion_us.percentile(50),
          "us");
  res.set("service.drain_ms", median(pool.drain_ms), "ms");
  res.set("service.slot_grants_per_karr", per_karr(pool.slot_grants, arr),
          "count/karr");
  res.set("service.slot_evictions_per_karr", per_karr(pool.slot_evictions, arr),
          "count/karr");
  res.set("service.ready_enqueues_per_karr", per_karr(pool.ready_enqueues, arr),
          "count/karr");
  res.set("exec.busy_frac", pool.busy_ns / pool.worker_ns, "frac");
  res.set("exec.tasks_per_karr", per_karr(pool.tasks, pool.sat_arrivals),
          "count/karr");
  const StorageStats& st = pool.storage;
  res.set("storage.append_p50_us", st.append_us.percentile(50), "us");
  res.set("storage.flush_p50_us", st.flush_us.percentile(50), "us");
  res.set("storage.flush_p99_us", st.flush_us.percentile(99), "us");
  res.set("storage.flushes_per_karr",
          per_karr(static_cast<double>(st.flushes), arr), "count/karr");
  res.set("storage.bytes_per_arrival",
          arr > 0 ? static_cast<double>(st.bytes) / arr : 0.0, "B");
  res.set("snapshot.save_p50_us", st.save_us.percentile(50), "us");
  res.set("snapshot.saves",
          static_cast<double>(st.saves) / static_cast<double>(pool.trials),
          "count");
  res.set("recovery.recover_s", median(pool.recover_s), "s");
  res.set("recovery.replayed_ops", median(pool.replayed), "count");
  res.set("recovery.snapshots_loaded", median(pool.loaded), "count");
  res.set("recovery.shard_max_ms", median(pool.shard_max_ms), "ms");
  res.set("gen.lag_p99_us", pool.lag_us.percentile(99), "us");
  res.set("host.t_c_ns", measure_t_c_ns(), "ns");
  res.set("host.t_c_contended_ns", measure_t_c_contended_ns(3), "ns");
  res.set("trace.overhead_pct", (rate(plain) / arrivals_per_s - 1.0) * 100.0,
          "%");
  write_trace_files(cfg, run.tracer(), origin, run.metrics_json(), res);
  return res;
}

}  // namespace perfbench
