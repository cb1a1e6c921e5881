#include "serve/serving_cell.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/check.h"
#include "histogram/stholes.h"
#include "histogram/trivial.h"

namespace sthist {

namespace {

/// Clamps an oracle-reported domain total into something a root bucket can
/// hold (drift or an injected fault can hand back NaN/negative).
double ClampTotal(double total) {
  if (!std::isfinite(total) || total < 0.0) return 0.0;
  return total;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

CellMetrics CellMetrics::Export(obs::MetricsRegistry* registry,
                                const std::string& prefix) {
  static constexpr std::pair<CellCounters::Event, const char*> kCounters[] = {
      {CellCounters::kReads, ".reads"},
      {CellCounters::kAccepted, ".feedback_accepted"},
      {CellCounters::kDroppedFull, ".feedback_dropped_full"},
      {CellCounters::kDroppedStopped, ".feedback_dropped_stopped"},
      {CellCounters::kApplied, ".feedback_applied"},
      {CellCounters::kPublishes, ".publishes"}};
  CellMetrics m;
  for (const auto& [event, name] : kCounters) {
    m.events[event] = registry->counter(prefix + name);
  }
  m.queue_depth = registry->gauge(prefix + ".queue_depth");
  m.publish_seconds = registry->latency(prefix + ".publish_seconds");
  return m;
}

void AwaitHorizons(DrainSignal* signal,
                   const std::vector<DrainTarget>& targets) {
  std::unique_lock<std::mutex> lock(signal->mutex);
  signal->cv.wait(lock, [&targets] {
    for (const auto& [cell, horizon] : targets) {
      if (cell->published() < horizon) return false;
    }
    return true;
  });
}

std::shared_ptr<const Histogram> ServingCell::PublishableSnapshot(
    const Histogram& h, bool clone_publish) {
  // The COW snapshot is O(touched path) (DESIGN.md §17); clone_publish keeps
  // the deep clone selectable for benches and as an escape hatch.
  return clone_publish ? std::shared_ptr<const Histogram>(h.Clone())
                       : h.Snapshot();
}

ServingCell::ServingCell(std::unique_ptr<Histogram> initial,
                         std::shared_ptr<const Histogram> first,
                         const CardinalityOracle& oracle,
                         const ServiceConfig& config, const Owner& owner,
                         const CellMetrics& metrics)
    : config_(config),
      oracle_(oracle),
      owner_(owner),
      metrics_(metrics),
      working_(std::move(initial)),
      snapshot_(std::move(first)),
      queue_(config.queue_capacity) {
  STHIST_CHECK(working_ != nullptr && snapshot_.load() != nullptr);
  STHIST_CHECK(config_.publish_batch > 0);
  STHIST_CHECK(owner_.pool != nullptr && owner_.signal != nullptr);
  if (config_.faults.rate > 0.0) {
    refiner_faults_ = std::make_unique<FaultyOracle>(oracle_, config_.faults);
    refine_oracle_ = refiner_faults_.get();
  } else {
    refine_oracle_ = &oracle_;
  }

  if (config_.reinit.enabled) {
    const ReinitConfig& reinit = config_.reinit;
    STHIST_CHECK_MSG(reinit.domain.dim() > 0,
                     "ReinitConfig::domain is required when re-init is on");
    STHIST_CHECK(Validate(reinit.detector).ok());
    STHIST_CHECK(Validate(reinit.reservoir).ok());
    detector_ = std::make_unique<StagnationDetector>(reinit.detector);
    reservoir_ = std::make_unique<FeedbackReservoir>(reinit.domain.dim(),
                                                     reinit.reservoir);
    // The trivial control always reads the clean oracle: it is the
    // normalization baseline, not part of the faulted feedback path.
    trivial_ = std::make_unique<TrivialHistogram>(
        reinit.domain, ClampTotal(oracle_.Count(reinit.domain)));
    replay_.reserve(
        std::min<size_t>(reinit.replay_capacity, config_.queue_capacity));
  }
}

ServingCell::~ServingCell() {
  if (builder_.joinable()) builder_.join();
}

void ServingCell::Count(CellCounters::Event e, uint64_t n) {
  counters_.Add(e, n);
  if (owner_.totals != nullptr) owner_.totals->Add(e, n);
  metrics_.events[e].Inc(n);
  metrics_.label[e].Inc(n);
}

double ServingCell::Estimate(const Box& query) {
  Count(CellCounters::kReads);
  return snapshot_.load()->Estimate(query);
}

std::vector<double> ServingCell::EstimateBatch(std::span<const Box> queries) {
  Count(CellCounters::kReads, queries.size());
  std::shared_ptr<const Histogram> snap = snapshot_.load();
  return snap->EstimateBatch(queries, config_.estimate_threads);
}

FeedbackOutcome ServingCell::Submit(const Box& query, double served_estimate) {
  // The detector grades served estimates; a caller that did not capture one
  // gets the current snapshot sampled here, at submit time — afterwards the
  // working copy has already learned this very query and would grade itself
  // on the answer sheet.
  if (detector_ != nullptr && !std::isfinite(served_estimate)) {
    served_estimate = snapshot_.load()->Estimate(query);
  }
  switch (queue_.TryPush(Feedback{query, served_estimate})) {
    case PushResult::kAccepted:
      Count(CellCounters::kAccepted);
      metrics_.queue_depth.Add(1.0);
      Schedule();
      return FeedbackOutcome::kAccepted;
    case PushResult::kFull:
      Count(CellCounters::kDroppedFull);
      return FeedbackOutcome::kQueueFull;
    case PushResult::kClosed:
      break;
  }
  Count(CellCounters::kDroppedStopped);
  return FeedbackOutcome::kStopped;
}

void ServingCell::Close(bool retire) {
  if (retire) retired_.store(true, std::memory_order_release);
  queue_.Close();
  Schedule();
}

void ServingCell::Schedule() {
  // Exactly one thread wins kIdle→kQueued and submits the run; a running
  // cell is marked dirty instead, and the runner re-queues it on release.
  // Every path submits one task, records the need for one, or observes
  // that one is already pending. A failed CAS reloads `state`; re-dispatch.
  uint32_t state = in_flight_.load(std::memory_order_relaxed);
  while (state == kIdle || state == kRunning) {
    const uint32_t next = state == kIdle ? kQueued : kRunningDirty;
    if (in_flight_.compare_exchange_weak(state, next,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      if (next == kQueued) {
        owner_.pool->Submit([self = shared_from_this()] { self->Run(); });
      }
      return;
    }
  }
}

void ServingCell::Run() {
  // kQueued→kRunning: this worker now owns the working histogram. Earlier
  // runs' refinements are visible through the claim chain (their release is
  // acquired by the CAS that queued this run, and the pool orders the rest).
  in_flight_.store(kRunning, std::memory_order_release);
  Count(CellCounters::kRuns);

  // Non-blocking and FIFO: a worker never parks on an empty queue, and the
  // batch bound keeps one backlogged cell from monopolizing the pool.
  std::vector<Feedback> batch;
  const size_t n = queue_.TryPopBatch(&batch, config_.publish_batch);
  for (const Feedback& feedback : batch) ApplyFeedback(feedback);
  if (n > 0) {
    Count(CellCounters::kApplied, n);
    metrics_.queue_depth.Add(-static_cast<double>(n));
  }
  // A finished background rebuild scheduled this run. A closed, drained
  // queue (shutdown) waits for one still in flight rather than leak the
  // builder, so the final snapshot includes its outcome.
  bool swapped = false;
  if (rebuild_inflight_ &&
      (rebuild_ready_.load(std::memory_order_acquire) ||
       (queue_.closed() && queue_.size() == 0))) {
    swapped = CompleteSwap();
  }
  // One publish per run: under load one per publish_batch items, when idle
  // one per item. A landed swap publishes even on an idle queue, so readers
  // never stay on the pre-swap snapshot waiting for feedback.
  if (n > 0 || swapped) Publish();

  // Release the claim. A failed kRunning→kIdle CAS means a producer marked
  // the cell dirty mid-run: resubmit. After a clean release, anything still
  // queued (beyond the batch bound, or racing the pop) gets a fresh claim.
  uint32_t expected = kRunning;
  if (!in_flight_.compare_exchange_strong(expected, kIdle,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
    STHIST_CHECK(expected == kRunningDirty);
    in_flight_.store(kQueued, std::memory_order_release);
    owner_.pool->Submit([self = shared_from_this()] { self->Run(); });
  } else if (queue_.size() > 0) {
    Schedule();
  }
}

void ServingCell::ApplyFeedback(const Feedback& feedback) {
  if (detector_ != nullptr) {
    // The detector grades the estimate that was SERVED for this query
    // (captured at submit time) against what executing it observed. The
    // actual flows through the (possibly faulted) refiner oracle — the
    // detector sees the same feedback the histogram does; the trivial
    // control is deterministic and oracle-free.
    const double actual = refine_oracle_->Count(feedback.query);
    const double trivial_estimate = trivial_->Estimate(feedback.query);
    const bool fired = detector_->Observe(feedback.served_estimate,
                                          trivial_estimate, actual);
    reservoir_->Add(feedback.query, actual);
    reservoir_size_.store(reservoir_->size(), std::memory_order_relaxed);
    metrics_.reservoir_size.Set(static_cast<double>(reservoir_->size()));
    const double nae = detector_->RollingNae();
    if (std::isfinite(nae)) {
      rolling_nae_.store(nae, std::memory_order_relaxed);
      metrics_.rolling_nae.Set(nae);
    }
    if (fired && !rebuild_inflight_) StartRebuild();

    if (config_.reinit.trivial_refresh > 0 &&
        ++observed_since_refresh_ >= config_.reinit.trivial_refresh) {
      observed_since_refresh_ = 0;
      trivial_ = std::make_unique<TrivialHistogram>(
          config_.reinit.domain,
          ClampTotal(oracle_.Count(config_.reinit.domain)));
    }
  }
  working_->Refine(feedback.query, *refine_oracle_);
  if (rebuild_inflight_ && replay_.size() < config_.reinit.replay_capacity) {
    replay_.push_back(feedback);
  }
}

void ServingCell::Publish() {
  // A retired cell applies and counts its remaining feedback but publishes
  // nothing: only its watermark moves, so drains over it still terminate.
  std::shared_ptr<const Histogram> snap;
  double seconds = 0.0;
  const bool retired = retired_.load(std::memory_order_acquire);
  if (!retired) {
    // Timed: the latency of making the publishable snapshot.
    const auto start = std::chrono::steady_clock::now();
    snap = PublishableSnapshot(*working_, config_.clone_publish);
    STHIST_CHECK(snap != nullptr);
    seconds = SecondsSince(start);
    metrics_.publish_seconds.Observe(seconds);
  }
  const uint64_t applied = counters_[CellCounters::kApplied];
  const uint64_t accepted = counters_[CellCounters::kAccepted];
  {
    // Snapshot pointer and watermark move together under the signal lock:
    // anyone observing the watermark under this mutex (a drain predicate,
    // Published()'s paired read) also observes the snapshot it describes.
    std::lock_guard<std::mutex> lock(owner_.signal->mutex);
    if (!retired) {
      // exchange: the previous epoch is released below, outside the lock.
      snap = snapshot_.exchange(std::move(snap));
      Count(CellCounters::kPublishes);
      metrics_.staleness.Set(
          static_cast<double>(accepted > applied ? accepted - applied : 0));
      last_publish_seconds_ = seconds;
      if (seconds > max_publish_seconds_) max_publish_seconds_ = seconds;
    }
    published_.store(applied, std::memory_order_relaxed);
  }
  owner_.signal->cv.notify_all();
}

void ServingCell::StartRebuild() {
  STHIST_CHECK(!rebuild_inflight_);
  Count(CellCounters::kTriggers);
  // Materialize the sample here — the builder must never touch the live
  // reservoir (which keeps absorbing feedback mid-rebuild).
  rebuild_sample_ = reservoir_->ToDataset();
  rebuilt_.reset();
  rebuild_ready_.store(false, std::memory_order_release);
  replay_.clear();
  rebuild_inflight_ = true;
  if (config_.reinit.background) {
    builder_ = std::thread([this] {
      RunRebuild();
      rebuild_ready_.store(true, std::memory_order_release);
      Schedule();  // The run that swaps the rebuild in.
    });
  } else {
    RunRebuild();
    CompleteSwap();
  }
}

void ServingCell::RunRebuild() {
  const auto start = std::chrono::steady_clock::now();
  const ReinitConfig& reinit = config_.reinit;

  // The rebuild reads the clean oracle through its own fault injector when
  // configured — FaultyOracle is stateful, so the builder thread must not
  // share the refiner's instance.
  std::unique_ptr<FaultyOracle> faults;
  const CardinalityOracle* oracle = &oracle_;
  if (reinit.rebuild_faults.rate > 0.0) {
    faults = std::make_unique<FaultyOracle>(oracle_, reinit.rebuild_faults);
    oracle = faults.get();
  }

  // A corrupted domain total (non-finite or negative — exactly what fault
  // injection produces) fails the rebuild outright: every bucket frequency
  // would inherit the garbage, so degrading to the incumbent is strictly
  // better than clamping and serving a zero-mass histogram.
  const double total = oracle->Count(reinit.domain);
  std::unique_ptr<Histogram> fresh;
  if (!std::isfinite(total) || total < 0.0) {
    // Leave `fresh` null: abort.
  } else if (reinit.rebuild_override) {
    fresh = reinit.rebuild_override(rebuild_sample_, total);
  } else if (rebuild_sample_.size() > 0) {
    std::vector<SubspaceCluster> clusters =
        RunMineClus(rebuild_sample_, reinit.domain, reinit.mineclus);
    STHolesConfig hist_config;
    hist_config.max_buckets = reinit.max_buckets;
    hist_config.metrics = config_.metrics;
    auto stholes =
        std::make_unique<STHoles>(reinit.domain, total, hist_config);
    InitializeHistogram(clusters, reinit.domain, *oracle, reinit.initializer,
                        stholes.get());
    fresh = std::move(stholes);
  }

  // Validation gate: never swap in a histogram that cannot answer sanely —
  // a faulted rebuild degrades to the incumbent instead of serving a
  // half-built snapshot.
  if (fresh != nullptr) {
    const double probe = fresh->Estimate(reinit.domain);
    if (fresh->bucket_count() < 1 || !std::isfinite(probe) || probe < 0.0 ||
        fresh->Clone() == nullptr) {
      fresh.reset();
    }
  }
  rebuilt_ = std::move(fresh);
  metrics_.rebuild_seconds.Observe(SecondsSince(start));
}

bool ServingCell::CompleteSwap() {
  if (builder_.joinable()) builder_.join();
  rebuild_inflight_ = false;
  rebuild_ready_.store(false, std::memory_order_release);
  rebuild_sample_ = Dataset(rebuild_sample_.dim());
  if (rebuilt_ == nullptr) {
    // Rebuild failed (or validation rejected it): the incumbent keeps
    // serving, the detector's cooldown/backstop decides when to try again.
    Count(CellCounters::kSwapsAborted);
    replay_.clear();
    return false;
  }
  // Replay the rebuild window so the swap does not forget the feedback that
  // arrived while the builder worked, then make the rebuilt histogram the
  // working copy. The next Publish makes it visible to readers.
  for (const Feedback& feedback : replay_) {
    rebuilt_->Refine(feedback.query, *refine_oracle_);
  }
  Count(CellCounters::kReplayed, replay_.size());
  replay_.clear();
  working_ = std::move(rebuilt_);
  detector_->NoteSwap();
  Count(CellCounters::kSwapsCompleted);
  return true;
}

std::pair<std::shared_ptr<const Histogram>, uint64_t> ServingCell::Published()
    const {
  std::lock_guard<std::mutex> lock(owner_.signal->mutex);
  return {snapshot_.load(), published_.load(std::memory_order_relaxed)};
}

ServiceStats ServingCell::Stats() const {
  ServiceStats s;
  s.reads_served = counters_[CellCounters::kReads];
  s.feedback_accepted = counters_[CellCounters::kAccepted];
  s.feedback_dropped_full = counters_[CellCounters::kDroppedFull];
  s.feedback_dropped_stopped = counters_[CellCounters::kDroppedStopped];
  s.feedback_applied = counters_[CellCounters::kApplied];
  s.publishes = counters_[CellCounters::kPublishes];
  s.snapshot_epoch = s.publishes;
  s.queue_depth = queue_.size();
  const uint64_t published = published_.load(std::memory_order_relaxed);
  s.staleness =
      s.feedback_accepted > published ? s.feedback_accepted - published : 0;
  s.reinit_triggers = counters_[CellCounters::kTriggers];
  s.reinit_swaps_completed = counters_[CellCounters::kSwapsCompleted];
  s.reinit_swaps_aborted = counters_[CellCounters::kSwapsAborted];
  s.reinit_replayed = counters_[CellCounters::kReplayed];
  s.reservoir_size = reservoir_size_.load(std::memory_order_relaxed);
  s.rolling_nae = rolling_nae_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(owner_.signal->mutex);
  s.last_publish_seconds = last_publish_seconds_;
  s.max_publish_seconds = max_publish_seconds_;
  return s;
}

}  // namespace sthist
