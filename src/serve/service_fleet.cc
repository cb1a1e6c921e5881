#include "serve/service_fleet.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "core/check.h"
#include "core/rng.h"
#include "histogram/registry.h"
#include "serve/snapshot_io.h"

namespace sthist {

namespace {

/// FNV-1a over the tenant key's bytes: the structured input DeriveSeed mixes
/// with the fleet seed. FNV alone is too weak for seed independence, but as
/// the `role` of a SplitMix64 double-mix it only has to separate distinct
/// keys, which it does.
uint64_t HashKey(std::string_view key) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Maximum characters of a tenant key carried into a metric label: names
/// must stay short and printable whatever the caller uses as keys.
constexpr size_t kMaxLabelChars = 24;

/// Folds a tenant key into a metric-name-safe label: [A-Za-z0-9_] kept,
/// everything else replaced by '_', truncated, never empty. Distinct keys
/// may collide after sanitization — acceptable, because per-shard cells are
/// a capped debugging aid, not the source of truth (the fleet's own
/// totals are).
std::string SanitizeLabel(std::string_view key) {
  std::string label;
  label.reserve(std::min(key.size(), kMaxLabelChars));
  for (const char c : key) {
    if (label.size() >= kMaxLabelChars) break;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    label.push_back(ok ? c : '_');
  }
  if (label.empty()) label.push_back('t');
  return label;
}

}  // namespace

ServiceFleet::ServiceFleet(const FleetConfig& config)
    : config_(config),
      registry_(config.metrics != nullptr ? config.metrics
                                          : obs::GlobalMetrics()) {
  STHIST_CHECK(config_.refiners > 0);
  STHIST_CHECK(config_.queue_capacity > 0);
  STHIST_CHECK(config_.publish_batch > 0);

  cell_metrics_ = CellMetrics::Export(registry_, "serve.fleet");
  cell_metrics_.events[CellCounters::kRuns] =
      registry_->counter("serve.fleet.shard_runs");
  tenants_gauge_ = registry_->gauge("serve.fleet.tenants");
  tenants_added_metric_ = registry_->counter("serve.fleet.tenants_added");
  tenants_removed_metric_ = registry_->counter("serve.fleet.tenants_removed");
  snapshot_saves_ = registry_->counter("serve.snapshot.saves");
  snapshot_bytes_ = registry_->gauge("serve.snapshot.bytes");
  snapshot_save_seconds_ = registry_->latency("serve.snapshot.save_seconds");

  pool_ = std::make_unique<ThreadPool>(config_.refiners, registry_);
}

ServiceFleet::~ServiceFleet() {
  Stop();
  // Join the workers before any member they touch is destroyed.
  pool_.reset();
}

Status ServiceFleet::UnknownTenant(std::string_view key) {
  return StatusF(StatusCode::kNotFound, "unknown tenant '%.*s'",
                 static_cast<int>(key.size()), key.data());
}

Status ServiceFleet::AddTenant(std::string_view key,
                               std::unique_ptr<Histogram> initial,
                               const CardinalityOracle& oracle) {
  if (key.empty()) {
    return Status::InvalidArgument("tenant key must be non-empty");
  }
  if (initial == nullptr) {
    return Status::InvalidArgument("tenant histogram must be non-null");
  }
  std::shared_ptr<const Histogram> first = initial->Snapshot();
  if (first == nullptr) {
    return StatusF(StatusCode::kInvalidArgument,
                   "tenant '%.*s' needs a histogram supporting Clone()",
                   static_cast<int>(key.size()), key.data());
  }
  ServiceConfig cell_config;
  cell_config.queue_capacity = config_.queue_capacity;
  cell_config.publish_batch = config_.publish_batch;
  cell_config.metrics = registry_;

  std::unique_lock<std::shared_mutex> lock(map_mutex_);
  if (stopped_) {
    return Status::Unavailable("fleet is stopped; no tenants can be added");
  }
  std::string owned_key(key);
  if (cells_.count(owned_key) > 0) {
    return StatusF(StatusCode::kInvalidArgument,
                   "tenant '%s' already exists", owned_key.c_str());
  }
  // Per-shard cells, capped: the first top_k tenants ever added get their
  // own label, everyone after shares "other" (DESIGN.md §13 — the name set
  // must stay bounded however many tenants come and go).
  std::string prefix = "serve.fleet_shard_";
  if (labels_assigned_ < config_.top_k_shard_labels) {
    ++labels_assigned_;
    prefix += SanitizeLabel(key);
  } else {
    prefix += "other";
  }
  CellMetrics metrics = cell_metrics_;
  metrics.label[CellCounters::kReads] = registry_->counter(prefix + ".reads");
  metrics.label[CellCounters::kApplied] =
      registry_->counter(prefix + ".applied");
  cells_.emplace(std::move(owned_key),
                 std::make_shared<ServingCell>(
                     std::move(initial), std::move(first), oracle,
                     cell_config, ServingCell::Owner{pool_.get(), &signal_,
                                                     &totals_},
                     metrics));
  ++tenants_added_;
  tenants_gauge_.Set(static_cast<double>(cells_.size()));
  tenants_added_metric_.Inc();
  return Status::Ok();
}

Status ServiceFleet::RemoveTenant(std::string_view key) {
  Cell cell;
  {
    std::unique_lock<std::shared_mutex> lock(map_mutex_);
    auto it = cells_.find(std::string(key));
    if (it == cells_.end()) return UnknownTenant(key);
    cell = std::move(it->second);
    cells_.erase(it);
    ++tenants_removed_;
    tenants_gauge_.Set(static_cast<double>(cells_.size()));
    tenants_removed_metric_.Inc();
  }
  // Drain what the queue still holds (counters must converge to
  // applied == accepted) without publishing further snapshots. Readers that
  // already hold the snapshot keep it; the cell itself dies with its last
  // pool task.
  cell->Close(/*retire=*/true);
  return Status::Ok();
}

bool ServiceFleet::HasTenant(std::string_view key) const {
  return FindCell(key) != nullptr;
}

std::vector<std::string> ServiceFleet::TenantKeys() const {
  std::vector<std::string> keys;
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    keys.reserve(cells_.size());
    for (const auto& [key, cell] : cells_) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

uint64_t ServiceFleet::TenantId(std::string_view key) const {
  return DeriveSeed(config_.seed, HashKey(key));
}

ServiceFleet::Cell ServiceFleet::FindCell(std::string_view key) const {
  std::shared_lock<std::shared_mutex> lock(map_mutex_);
  auto it = cells_.find(std::string(key));
  return it == cells_.end() ? nullptr : it->second;
}

StatusOr<double> ServiceFleet::Estimate(std::string_view key,
                                        const Box& query) const {
  Cell cell = FindCell(key);
  if (cell == nullptr) return UnknownTenant(key);
  return cell->Estimate(query);
}

StatusOr<std::vector<double>> ServiceFleet::EstimateBatch(
    std::string_view key, std::span<const Box> queries) const {
  Cell cell = FindCell(key);
  if (cell == nullptr) return UnknownTenant(key);
  return cell->EstimateBatch(queries);
}

std::shared_ptr<const Histogram> ServiceFleet::Snapshot(
    std::string_view key) const {
  Cell cell = FindCell(key);
  return cell == nullptr ? nullptr : cell->snapshot();
}

StatusOr<FleetFeedbackOutcome> ServiceFleet::SubmitFeedback(
    std::string_view key, const Box& query) {
  Cell cell = FindCell(key);
  if (cell == nullptr) return UnknownTenant(key);
  return cell->Submit(query, std::numeric_limits<double>::quiet_NaN());
}

Status ServiceFleet::Drain() {
  // The horizon is per cell: everything each cell had accepted when Drain
  // was called. Removed tenants advance their watermark without publishing.
  std::vector<DrainTarget> targets;
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    targets.reserve(cells_.size());
    for (const auto& [key, cell] : cells_) {
      targets.emplace_back(cell, cell->accepted());
    }
  }
  AwaitHorizons(&signal_, targets);
  return Status::Ok();
}

Status ServiceFleet::DrainTenant(std::string_view key) {
  Cell cell = FindCell(key);
  if (cell == nullptr) return UnknownTenant(key);
  const uint64_t horizon = cell->accepted();
  AwaitHorizons(&signal_, {{std::move(cell), horizon}});
  return Status::Ok();
}

void ServiceFleet::Stop() {
  std::vector<Cell> all;
  {
    std::unique_lock<std::shared_mutex> lock(map_mutex_);
    if (stopped_) return;
    stopped_ = true;
    all.reserve(cells_.size());
    for (const auto& [key, cell] : cells_) all.push_back(cell);
  }
  // Close every queue (new feedback now sheds as kStopped) and flush what
  // they hold through the pool. A run that leaves a queue non-empty
  // reschedules itself from inside the pool, so Wait() cannot return before
  // every queue is drained.
  for (const Cell& cell : all) cell->Close();
  pool_->Wait();
}

Status ServiceFleet::SaveSnapshot(const std::string& path) const {
  const auto start = std::chrono::steady_clock::now();
  snapshot_io::FleetSnapshot out;
  out.seed = config_.seed;
  // Grab the snapshot handles under the shared lock (pointer reads only),
  // then serialize lock-free — each handle is a frozen epoch, so readers and
  // refiners keep running while the encode does its O(total buckets) work.
  std::vector<std::pair<std::string, std::shared_ptr<const Histogram>>> snaps;
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    snaps.reserve(cells_.size());
    for (const auto& [key, cell] : cells_) {
      snaps.emplace_back(key, cell->snapshot());
    }
  }
  std::sort(snaps.begin(), snaps.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.tenants.reserve(snaps.size());
  for (auto& [key, snap] : snaps) {
    snapshot_io::FleetTenant tenant;
    tenant.histogram = snap->SerializeBinary();
    if (tenant.histogram.empty()) {
      return StatusF(StatusCode::kInvalidArgument,
                     "tenant '%s' does not support binary snapshots "
                     "(SerializeBinary returned empty)",
                     key.c_str());
    }
    tenant.estimator = EstimatorNameForBlob(tenant.histogram);
    tenant.key = std::move(key);
    out.tenants.push_back(std::move(tenant));
  }
  const std::string bytes = snapshot_io::EncodeFleetSnapshot(out);
  STHIST_RETURN_IF_ERROR(snapshot_io::WriteFileAtomic(path, bytes));
  snapshot_saves_.Inc();
  snapshot_bytes_.Set(static_cast<double>(bytes.size()));
  snapshot_save_seconds_.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return Status::Ok();
}

FleetStats ServiceFleet::stats() const {
  FleetStats s;
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    s.tenants = cells_.size();
    s.tenants_added = tenants_added_;
    s.tenants_removed = tenants_removed_;
  }
  s.reads_served = totals_[CellCounters::kReads];
  s.feedback_accepted = totals_[CellCounters::kAccepted];
  s.feedback_dropped_full = totals_[CellCounters::kDroppedFull];
  s.feedback_dropped_stopped = totals_[CellCounters::kDroppedStopped];
  s.feedback_applied = totals_[CellCounters::kApplied];
  s.publishes = totals_[CellCounters::kPublishes];
  s.shard_runs = totals_[CellCounters::kRuns];
  // Popped items are applied in the same run, so what is accepted but not
  // yet applied is what waits in (or is being drained from) shard queues.
  s.queue_depth = s.feedback_accepted > s.feedback_applied
                      ? s.feedback_accepted - s.feedback_applied
                      : 0;
  return s;
}

}  // namespace sthist
