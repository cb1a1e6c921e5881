#include "serve/histogram_service.h"

#include <chrono>
#include <utility>

#include "core/check.h"
#include "histogram/registry.h"
#include "serve/snapshot_io.h"

namespace sthist {

namespace {

/// The serve.service.* metrics, plus serve.reinit.* when re-init is on.
CellMetrics ServiceMetrics(obs::MetricsRegistry* registry, bool reinit) {
  CellMetrics m = CellMetrics::Export(registry, "serve.service");
  m.staleness = registry->gauge("serve.service.staleness");
  if (reinit) {
    m.events[CellCounters::kTriggers] =
        registry->counter("serve.reinit.triggers");
    m.events[CellCounters::kSwapsCompleted] =
        registry->counter("serve.reinit.swaps_completed");
    m.events[CellCounters::kSwapsAborted] =
        registry->counter("serve.reinit.swaps_aborted");
    m.events[CellCounters::kReplayed] =
        registry->counter("serve.reinit.replayed_feedback");
    m.reservoir_size = registry->gauge("serve.reinit.reservoir_size");
    m.rolling_nae = registry->gauge("serve.reinit.rolling_nae");
    m.rebuild_seconds = registry->latency("serve.reinit.rebuild_seconds");
  }
  return m;
}

}  // namespace

HistogramService::HistogramService(std::unique_ptr<Histogram> initial,
                                   const CardinalityOracle& oracle,
                                   const ServiceConfig& config)
    : config_(config),
      registry_(config.metrics != nullptr ? config.metrics
                                          : obs::GlobalMetrics()) {
  STHIST_CHECK(initial != nullptr);
  std::shared_ptr<const Histogram> first = initial->Snapshot();
  STHIST_CHECK_MSG(first != nullptr,
                   "HistogramService needs a histogram supporting Clone()");
  snapshot_saves_ = registry_->counter("serve.snapshot.saves");
  snapshot_bytes_ = registry_->gauge("serve.snapshot.bytes");
  snapshot_save_seconds_ = registry_->latency("serve.snapshot.save_seconds");
  pool_ = std::make_unique<ThreadPool>(1, registry_);
  cell_ = std::make_shared<ServingCell>(
      std::move(initial), std::move(first), oracle, config_,
      ServingCell::Owner{pool_.get(), &signal_, nullptr},
      ServiceMetrics(registry_, config_.reinit.enabled));
}

HistogramService::~HistogramService() { Stop(); }

double HistogramService::Estimate(const Box& query) const {
  return cell_->Estimate(query);
}

std::vector<double> HistogramService::EstimateBatch(
    std::span<const Box> queries) const {
  return cell_->EstimateBatch(queries);
}

std::shared_ptr<const Histogram> HistogramService::snapshot() const {
  return cell_->snapshot();
}

FeedbackOutcome HistogramService::SubmitFeedback(const Box& query,
                                                 double served_estimate) {
  return cell_->Submit(query, served_estimate);
}

Status HistogramService::Drain() {
  AwaitHorizons(&signal_, {{cell_, cell_->accepted()}});
  return Status::Ok();
}

void HistogramService::Stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  cell_->Close();
  pool_->Wait();
}

Status HistogramService::SaveSnapshot(const std::string& path) const {
  const auto start = std::chrono::steady_clock::now();
  // Paired read: this watermark describes exactly this snapshot. Only the
  // pointer-sized reads happen under the lock; serialization runs on the
  // caller's thread afterwards.
  auto [snap, applied] = cell_->Published();
  snapshot_io::ServiceSnapshot out;
  out.applied_feedback = config_.restored_feedback + applied;
  out.histogram = snap->SerializeBinary();
  if (out.histogram.empty()) {
    return Status::InvalidArgument(
        "served histogram does not support binary snapshots "
        "(SerializeBinary returned empty)");
  }
  out.estimator = EstimatorNameForBlob(out.histogram);
  const std::string bytes = snapshot_io::EncodeServiceSnapshot(out);
  STHIST_RETURN_IF_ERROR(snapshot_io::WriteFileAtomic(path, bytes));
  snapshot_saves_.Inc();
  snapshot_bytes_.Set(static_cast<double>(bytes.size()));
  snapshot_save_seconds_.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return Status::Ok();
}

ServiceStats HistogramService::stats() const { return cell_->Stats(); }

}  // namespace sthist
