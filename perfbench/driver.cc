// sthist_perfbench: the repository benchmark driver.
//
//   sthist_perfbench --workload paper-sky|paper-gauss|serve-sky|fleet-cross
//                    --seed N --seconds S --trace 0|1
//                    [--size full|tiny] [--tmp-dir DIR]
//
// Runs one workload in this process, checks its outputs, and prints a
// human-readable report followed by one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// alternates untraced and traced passes of the same input and reports the
// per-layer set (span self times, library counters, tracing overhead), and
// writes the spans to DIR/spans-<workload>.json. See README.md.
#include <sys/resource.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <array>
#include <bit>
#include <cstdarg>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "clustering/mineclus.h"
#include "core/rng.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "histogram/registry.h"
#include "histogram/stholes.h"
#include "histogram/trivial.h"
#include "init/initializer.h"
#include "instrument.h"
#include "obs/metrics.h"
#include "serve/histogram_service.h"
#include "serve/service_fleet.h"
#include "serve/snapshot_io.h"
#include "tracer.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using sthist::Box;
using sthist::DeriveSeed;
using sthist::Workload;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = std::min(values.size() - 1,
                                static_cast<size_t>(std::max(rank, 1.0)) - 1);
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  char buffer[32];
  for (double v : values) {
    std::snprintf(buffer, sizeof(buffer), "%s%.4g", out.empty() ? "" : " ", v);
    out += buffer;
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// FNV-1a over 64-bit words, byte by byte.
constexpr uint64_t kDigestSeed = 1469598103934665603ULL;
void FoldDigest(uint64_t value, uint64_t* digest) {
  for (int byte = 0; byte < 8; ++byte) {
    *digest ^= (value >> (8 * byte)) & 0xffu;
    *digest *= 1099511628211ULL;
  }
}
void FoldDouble(double value, uint64_t* digest) {
  FoldDigest(std::bit_cast<uint64_t>(value), digest);
}

// Readers and the producer sleep until scheduled times; the default 50 us
// timer slack would add to every wake-up.
void TightenTimerSlack() {
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

// Readers sleep until each scheduled send. A reader that spins instead keeps
// a core busy and slows the refiner it shares the machine with. How late the
// sleep ends is host behaviour; it is reported as gen_late_p99_us and kept
// out of the end-to-end read latency (see ReaderResult::queued_s).
void WaitUntil(Clock::time_point when) { std::this_thread::sleep_until(when); }

// ---------------------------------------------------------------------------
// Options, result bookkeeping and output
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;
  std::string tmp_dir = ".bench_build/perfbench-tmp";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operation and output-check accounting shared by every workload.
class Ledger {
 public:
  void Ok(uint64_t n = 1) { attempted_ += n; }
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
  void Merge(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Library counters over a window: the difference of two registry
/// snapshots, accumulated over every traced pass.
class RegistryDelta {
 public:
  void Add(const sthist::obs::MetricsSnapshot& before,
           const sthist::obs::MetricsSnapshot& after) {
    for (const auto& c : after.counters) {
      uint64_t base = 0;
      for (const auto& b : before.counters) {
        if (b.name == c.name) base = b.value;
      }
      counters_[c.name] += static_cast<double>(c.value - base);
    }
    for (const auto& l : after.latencies) {
      Latency& acc = latencies_[l.name];
      const sthist::obs::MetricsSnapshot::LatencyValue* base = nullptr;
      for (const auto& b : before.latencies) {
        if (b.name == l.name) base = &b;
      }
      acc.sum_seconds += l.sum_seconds - (base ? base->sum_seconds : 0.0);
      acc.max_seconds = std::max(acc.max_seconds, l.max_seconds);
      for (size_t i = 0; i < l.buckets.size(); ++i) {
        acc.buckets[i] += l.buckets[i] - (base ? base->buckets[i] : 0);
      }
    }
  }
  double counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  double seconds(const std::string& name) const {
    auto it = latencies_.find(name);
    return it == latencies_.end() ? 0.0 : it->second.sum_seconds;
  }
  /// q-quantile from the log-scale buckets: linear within the bucket that
  /// holds it, capped at the largest observation.
  double quantile_seconds(const std::string& name, double q) const {
    auto it = latencies_.find(name);
    if (it == latencies_.end()) return 0.0;
    const auto& buckets = it->second.buckets;
    uint64_t total = 0;
    for (uint64_t c : buckets) total += c;
    if (total == 0) return 0.0;
    const double rank = q * static_cast<double>(total);
    double seen = 0.0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      const auto count = static_cast<double>(buckets[i]);
      if (count > 0.0 && seen + count >= rank) {
        const auto& bounds = sthist::obs::kLatencyBounds;
        const double lo = i == 0 ? 0.0 : bounds[i - 1];
        const double hi =
            i < bounds.size() ? bounds[i] : it->second.max_seconds;
        const double at = lo + (hi - lo) * (rank - seen) / count;
        return std::min(at, it->second.max_seconds);
      }
      seen += count;
    }
    return it->second.max_seconds;
  }

 private:
  struct Latency {
    double sum_seconds = 0.0;
    double max_seconds = 0.0;
    std::array<uint64_t, sthist::obs::kLatencyBuckets> buckets{};
  };
  std::map<std::string, double> counters_;
  std::map<std::string, Latency> latencies_;
};

/// Everything one workload run reports.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // Human-readable lines, printed first.
};

void AddNote(Report* report, const char* format, ...)
    __attribute__((format(printf, 2, 3)));
void AddNote(Report* report, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  report->notes.emplace_back(buffer);
}

// ---------------------------------------------------------------------------
// Shared per-layer reporting
// ---------------------------------------------------------------------------

/// Traced-pass measurements that workloads fill in where they apply; the
/// rest stay 0 so every per-layer metric is printed for every workload.
struct LayerInputs {
  double passes = 1.0;
  double data_generate_s = 0.0;
  double workload_generate_s = 0.0;
  double kdtree_build_s = 0.0;
  double clusters_fed = 0.0;
  double synopsis_bytes = 0.0;
  double publishes = 0.0;
  double applied = 0.0;
  double submit_attempts = 0.0;
  double queue_full = 0.0;
  double shard_runs = 0.0;
  double staleness_p99 = 0.0;
  double gen_late_p99_us = 0.0;
  double read_call_p50_us = 0.0;
  double read_call_p99_us = 0.0;
  double read_sched_p50_us = 0.0;
  double read_sched_p99_us = 0.0;
  double estimate_samples = 0.0;
  double overhead_share = 0.0;
};

std::vector<Metric> PerLayerMetrics(const TraceReport& trace,
                                    const RegistryDelta& reg,
                                    const LayerInputs& in) {
  const double p = in.passes;
  const LayerStats& refine = trace.at(Layer::kRefine);
  const LayerStats& count = trace.at(Layer::kOracleCount);
  const LayerStats& submit = trace.at(Layer::kServiceSubmit);
  const LayerStats& fleet_submit = trace.at(Layer::kFleetSubmit);
  const double refines = reg.counter("histogram.stholes.refines");
  const double merge_search = reg.seconds("histogram.stholes.refine_seconds") -
                              reg.seconds("histogram.stholes.drill_seconds") -
                              reg.seconds("histogram.stholes.merge_seconds");
  const double publishes = in.publishes;
  return {
      {"data.generate_s", in.data_generate_s, "s"},
      {"workload.generate_s", in.workload_generate_s, "s"},
      {"index.kdtree.build_s", in.kdtree_build_s, "s"},
      {"index.kdtree.counts", static_cast<double>(count.count) / p, "count"},
      {"index.kdtree.count_s", count.total_s / p, "s"},
      {"index.flat.builds", reg.counter("index.bucket_tree.builds") / p,
       "count"},
      {"index.flat.node_visits_per_probe",
       Ratio(reg.counter("index.bucket_tree.node_visits"),
             reg.counter("index.bucket_tree.probes")),
       "ratio"},
      {"clustering.mineclus_s", trace.at(Layer::kMineClus).total_s / p, "s"},
      {"clustering.rounds", reg.counter("clustering.mineclus.rounds") / p,
       "count"},
      {"init.feed_s", trace.at(Layer::kInitialize).total_s / p, "s"},
      {"init.clusters_fed", in.clusters_fed, "count"},
      {"histogram.refines", static_cast<double>(refine.count) / p, "count"},
      {"histogram.refine_s", refine.total_s / p, "s"},
      {"histogram.refine_p50_us", Percentile(refine.durations_s, 0.5) * 1e6,
       "us"},
      {"histogram.refine_p99_us", Percentile(refine.durations_s, 0.99) * 1e6,
       "us"},
      {"histogram.refine_self_s", refine.self_s / p, "s"},
      {"histogram.merge_search_s", merge_search / p, "s"},
      {"histogram.drills_per_refine",
       Ratio(reg.counter("histogram.stholes.drills"), refines), "ratio"},
      {"histogram.merges_per_refine",
       Ratio(reg.counter("histogram.stholes.merges"), refines), "ratio"},
      {"histogram.synopsis_bytes", in.synopsis_bytes, "bytes"},
      {"histogram.cow_copied_nodes_per_publish",
       Ratio(reg.counter("histogram.cow.copied_nodes"), publishes), "ratio"},
      {"eval.train_s", trace.at(Layer::kTrain).total_s / p, "s"},
      {"eval.simulate_s", trace.at(Layer::kSimulate).total_s / p, "s"},
      {"serve.service.submit_p99_us", Percentile(submit.durations_s, 0.99) * 1e6,
       "us"},
      {"serve.service.queue_full_share",
       submit.count > 0 ? Ratio(in.queue_full, in.submit_attempts) : 0.0,
       "ratio"},
      {"serve.service.applied_per_publish",
       submit.count > 0 ? Ratio(in.applied, publishes) : 0.0, "ratio"},
      {"serve.service.staleness_p99", in.staleness_p99, "count"},
      {"serve.service.drain_s", trace.at(Layer::kServiceDrain).total_s / p,
       "s"},
      {"serve.fleet.shard_runs", in.shard_runs / p, "count"},
      {"serve.fleet.applied_per_run",
       fleet_submit.count > 0 ? Ratio(in.applied, in.shard_runs) : 0.0,
       "ratio"},
      {"serve.fleet.submit_p99_us",
       Percentile(fleet_submit.durations_s, 0.99) * 1e6, "us"},
      {"serve.fleet.drain_s", trace.at(Layer::kFleetDrain).total_s / p, "s"},
      {"core.pool.tasks", reg.counter("pool.thread_pool.tasks") / p, "count"},
      {"core.pool.queue_wait_p99_us",
       reg.quantile_seconds("pool.thread_pool.queue_wait_seconds", 0.99) * 1e6,
       "us"},
      {"serve.read_call_p50_us", in.read_call_p50_us, "us"},
      {"serve.read_call_p99_us", in.read_call_p99_us, "us"},
      {"serve.read_sched_p50_us", in.read_sched_p50_us, "us"},
      {"serve.read_sched_p99_us", in.read_sched_p99_us, "us"},
      {"gen_late_p99_us", in.gen_late_p99_us, "us"},
      {"estimate_samples", in.estimate_samples, "count"},
      {"trace.overhead_share", in.overhead_share, "ratio"},
      {"trace.span_coverage", trace.loop_coverage, "ratio"},
      {"trace.spans", static_cast<double>(trace.spans) / p, "count"},
  };
}

void AddSpanTable(const TraceReport& trace, double passes, Report* report) {
  AddNote(report, "%-26s %10s %12s %12s  (per traced pass)", "span", "count",
          "total_s", "self_s");
  for (size_t i = 0; i < trace.layers.size(); ++i) {
    const LayerStats& stats = trace.layers[i];
    if (stats.count == 0) continue;
    AddNote(report, "%-26s %10.0f %12.6f %12.6f",
            LayerName(static_cast<Layer>(i)),
            static_cast<double>(stats.count) / passes, stats.total_s / passes,
            stats.self_s / passes);
  }
}

// ---------------------------------------------------------------------------
// Probe checks shared by every workload
// ---------------------------------------------------------------------------

bool ValidEstimate(double estimate) {
  return std::isfinite(estimate) && estimate >= 0.0;
}

/// Estimates every probe on `hist`: the estimate must be finite and
/// non-negative and equal EstimateLinear bit for bit. Folds the estimates
/// into `digest` and returns the mean absolute error against `oracle`.
double CheckProbes(const sthist::Histogram& hist, const Workload& probes,
                   const sthist::CardinalityOracle& oracle, uint64_t* digest,
                   Ledger* ledger) {
  double abs_error = 0.0;
  uint64_t bad = 0;
  for (const Box& probe : probes) {
    const double estimate = hist.Estimate(probe);
    const double linear = hist.EstimateLinear(probe);
    if (!ValidEstimate(estimate) ||
        std::bit_cast<uint64_t>(estimate) != std::bit_cast<uint64_t>(linear)) {
      ++bad;
    }
    FoldDouble(estimate, digest);
    abs_error += std::abs(estimate - oracle.Count(probe));
  }
  ledger->Merge(probes.size(), bad);
  if (bad > 0) {
    std::fprintf(stderr, "FAILED: %llu probe estimates bad or != linear\n",
                 static_cast<unsigned long long>(bad));
  }
  return probes.empty() ? 0.0 : abs_error / static_cast<double>(probes.size());
}

/// Mean absolute error of the trivial one-bucket histogram on `queries`, the
/// denominator of the paper's NAE (eq. 10).
double TrivialMae(const Box& domain, double tuples, const Workload& queries,
                  const sthist::CardinalityOracle& oracle) {
  return sthist::MeanAbsoluteError(sthist::TrivialHistogram(domain, tuples),
                                   queries, oracle);
}

Workload MakeQueries(const sthist::GeneratedData& g, size_t n, uint64_t seed,
                     sthist::CenterDistribution centers) {
  sthist::WorkloadConfig wc;
  wc.num_queries = n;
  wc.volume_fraction = 0.01;
  wc.centers = centers;
  wc.seed = seed;
  return sthist::MakeWorkload(g.domain, wc, &g.data);
}

// Stream roles for DeriveSeed: every input of a run derives from --seed.
enum Stream : uint64_t {
  kDataStream = 1,
  kTrainStream,
  kSimStream,
  kProbeStream,
  kMineClusStream,
  kPretrainStream,
  kFeedbackStream,
  kReadStream,
  kInstanceBase = 1000,
};

// ---------------------------------------------------------------------------
// Paper loop: cluster -> initialize -> train -> simulate
// ---------------------------------------------------------------------------

/// An untraced run measures independent inputs ("units") until --seconds
/// are used, and always at least `output_units`. The outputs a seed must
/// reproduce exactly (NAE, digest) cover the first `output_units` units only,
/// so they do not depend on how many units the host's speed allowed.
struct UnitPlan {
  size_t output_units = 2;
};

// Closed-loop reads over the probe set per paper-workload unit.
constexpr size_t kProbeReadRounds = 4;

struct PaperSpec {
  bool sky = true;
  size_t tuples = 0;
  size_t buckets = 0;
  size_t train = 0;
  size_t sim = 0;
  size_t probes = 0;
  UnitPlan plan;
};

/// Wall time of one unit's set-up and of its parts.
struct SetupCost {
  double setup_s = 0.0;
  double data_generate_s = 0.0;
  double workload_generate_s = 0.0;
  double kdtree_build_s = 0.0;
};

struct PaperInstance : SetupCost {
  explicit PaperInstance(sthist::GeneratedData generated)
      : g(std::move(generated)) {}
  sthist::GeneratedData g;
  std::unique_ptr<sthist::Executor> executor;
  Workload train, sim, probes;
  uint64_t seed = 0;
};

std::unique_ptr<PaperInstance> MakePaperInstance(const PaperSpec& spec,
                                                 uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  sthist::GeneratedData g = [&] {
    if (spec.sky) {
      sthist::SkyConfig config;
      config.tuples = spec.tuples;
      config.seed = DeriveSeed(seed, kDataStream);
      return sthist::MakeSky(config);
    }
    sthist::GaussConfig config;
    config.cluster_tuples = spec.tuples * 10 / 11;
    config.noise_tuples = spec.tuples / 11;
    config.seed = DeriveSeed(seed, kDataStream);
    return sthist::MakeGauss(config);
  }();
  auto inst = std::make_unique<PaperInstance>(std::move(g));
  inst->seed = seed;
  const Clock::time_point t1 = Clock::now();
  inst->executor = std::make_unique<sthist::Executor>(inst->g.data);
  const Clock::time_point t2 = Clock::now();
  inst->train = MakeQueries(inst->g, spec.train, DeriveSeed(seed, kTrainStream),
                            sthist::CenterDistribution::kUniform);
  inst->sim = MakeQueries(inst->g, spec.sim, DeriveSeed(seed, kSimStream),
                          sthist::CenterDistribution::kUniform);
  inst->probes = MakeQueries(inst->g, spec.probes,
                             DeriveSeed(seed, kProbeStream),
                             sthist::CenterDistribution::kData);
  const Clock::time_point t3 = Clock::now();
  inst->data_generate_s = SecondsBetween(t0, t1);
  inst->kdtree_build_s = SecondsBetween(t1, t2);
  inst->workload_generate_s = SecondsBetween(t2, t3);
  inst->setup_s = SecondsBetween(t0, t3);
  return inst;
}

/// What one measured pass over one unit's input produced.
struct Pass {
  double loop_s = 0.0;
  double feedback_items = 0.0;  // Refinements folded in the measured phase.
  double feedback_s = 0.0;      // Wall time of that phase.
  double nae = 0.0;
  uint64_t digest = kDigestSeed;
  size_t clusters_fed = 0;
  size_t synopsis_bytes = 0;
  std::vector<double> estimate_s;  // Read service times.
  std::vector<double> queued_s;    // Open-loop reads: see ReaderResult.
  std::vector<double> sched_s;     // Open-loop reads: from scheduled send.
  std::vector<double> late_s;      // Open-loop generator lateness.
  std::vector<double> staleness;   // Sampled ServiceStats::staleness.
  double attempts = 0.0;           // Submit calls, including rejections.
  double queue_full = 0.0;
  double publishes = 0.0;
  double applied = 0.0;
  double shard_runs = 0.0;
  /// The pass's own serve.* (and, for the fleet, pool.*) registry.
  sthist::obs::MetricsSnapshot serving_metrics;
};

Pass RunPaperPass(const PaperSpec& spec, const PaperInstance& inst,
                       Tracer& tracer, Ledger* ledger) {
  Pass pass;
  CountingOracle oracle(*inst.executor, tracer);
  const double tuples = static_cast<double>(inst.g.data.size());
  sthist::STHolesConfig hc;
  hc.max_buckets = spec.buckets;
  TimedHistogram hist(
      std::make_unique<sthist::STHoles>(inst.g.domain, tuples, hc), tracer);
  sthist::MineClusConfig mc;
  mc.seed = DeriveSeed(inst.seed, kMineClusStream);

  double mae = 0.0;
  double feedback_s = 0.0;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan loop(tracer, Layer::kLoop);
    std::vector<sthist::SubspaceCluster> clusters;
    {
      ScopedSpan span(tracer, Layer::kMineClus);
      clusters = sthist::RunMineClus(inst.g.data, inst.g.domain, mc);
    }
    {
      ScopedSpan span(tracer, Layer::kInitialize);
      pass.clusters_fed = sthist::InitializeHistogram(
          clusters, inst.g.domain, oracle, sthist::InitializerConfig{}, &hist);
    }
    const Clock::time_point feedback_start = Clock::now();
    {
      ScopedSpan span(tracer, Layer::kTrain);
      sthist::Train(&hist, inst.train, oracle);
    }
    {
      ScopedSpan span(tracer, Layer::kSimulate);
      mae = sthist::SimulateAndMeasure(&hist, inst.sim, oracle, oracle,
                                       /*learn=*/true, /*threads=*/1);
    }
    feedback_s = SecondsBetween(feedback_start, Clock::now());
  }
  pass.loop_s = SecondsBetween(start, Clock::now());
  // Train refines once per training query; SimulateAndMeasure estimates and
  // then refines once per simulation query.
  pass.feedback_items = static_cast<double>(inst.train.size() + inst.sim.size());
  pass.feedback_s = feedback_s;
  ledger->Ok(pass.clusters_fed + inst.train.size() + 2 * inst.sim.size());

  // Output checks, outside the timed loop.
  const auto& stholes = static_cast<const sthist::STHoles&>(hist.inner());
  stholes.CheckInvariants();  // Aborts on a broken bucket tree.
  ledger->Check(stholes.bucket_count() <= spec.buckets,
                "bucket budget exceeded");
  CheckProbes(hist, inst.probes, *inst.executor, &pass.digest, ledger);
  // Read latency: a closed loop over the probe set on the final histogram,
  // repeated so that a unit's p99 rests on several thousand reads.
  uint64_t bad_reads = 0;
  for (size_t round = 0; round < kProbeReadRounds; ++round) {
    for (const Box& probe : inst.probes) {
      const Clock::time_point sent = Clock::now();
      const double estimate = hist.Estimate(probe);
      pass.estimate_s.push_back(SecondsBetween(sent, Clock::now()));
      if (!ValidEstimate(estimate)) ++bad_reads;
    }
  }
  ledger->Merge(kProbeReadRounds * inst.probes.size(), bad_reads);
  pass.nae = Ratio(mae, TrivialMae(inst.g.domain, tuples, inst.sim,
                                   *inst.executor));
  ledger->Check(std::isfinite(pass.nae) && pass.nae > 0.0,
                "simulation NAE not finite and positive");
  FoldDouble(pass.nae, &pass.digest);
  pass.synopsis_bytes = hist.SerializeBinary().size();
  ledger->Check(pass.synopsis_bytes > 0, "SerializeBinary returned empty");
  return pass;
}

// ---------------------------------------------------------------------------
// Serving loop: submit feedback -> refine -> publish -> read
// ---------------------------------------------------------------------------

/// Open-loop reader: sends reads at a fixed rate, timing each from its
/// scheduled send time, until `stop` is set.
struct ReaderResult {
  std::vector<double> service_s;  // Send to completion.
  // Scheduled send time to completion on an on-time generator: a read waits
  // for the reads queued before it, but not for the reader's own late
  // wake-up from sleep.
  std::vector<double> queued_s;
  std::vector<double> sched_s;  // Scheduled send time to actual completion.
  std::vector<double> late_s;   // Scheduled to actual send.
  std::vector<double> staleness;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void OpenLoopReader(double rate_per_s, Clock::time_point start,
                    const std::atomic<bool>& stop,
                    const std::function<bool(size_t)>& read,
                    const std::function<double()>& sample_staleness,
                    ReaderResult* out) {
  TightenTimerSlack();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate_per_s));
  // When an on-time generator's previous read completes: a read sent at
  // `due` starts once the reads before it are done.
  Clock::time_point free_at = start;
  // The first read is always sent, so even a pass that ends before the
  // reader thread is scheduled has a latency sample.
  for (size_t k = 0; k == 0 || !stop.load(std::memory_order_relaxed); ++k) {
    const Clock::time_point due = start + period * static_cast<int64_t>(k);
    WaitUntil(due);
    const Clock::time_point sent = Clock::now();
    const bool ok = read(k);
    const Clock::time_point done = Clock::now();
    ++out->attempted;
    if (!ok) ++out->failed;
    free_at = std::max(due, free_at) + (done - sent);
    out->service_s.push_back(SecondsBetween(sent, done));
    out->queued_s.push_back(SecondsBetween(due, free_at));
    out->sched_s.push_back(SecondsBetween(due, done));
    out->late_s.push_back(SecondsBetween(due, sent));
    if (sample_staleness && k % 16 == 0) {
      out->staleness.push_back(sample_staleness());
    }
  }
}

void TakeReads(const ReaderResult& reads, Pass* pass, Ledger* ledger) {
  pass->estimate_s.insert(pass->estimate_s.end(), reads.service_s.begin(),
                          reads.service_s.end());
  pass->queued_s.insert(pass->queued_s.end(), reads.queued_s.begin(),
                        reads.queued_s.end());
  pass->sched_s.insert(pass->sched_s.end(), reads.sched_s.begin(),
                       reads.sched_s.end());
  pass->late_s.insert(pass->late_s.end(), reads.late_s.begin(),
                      reads.late_s.end());
  pass->staleness.insert(pass->staleness.end(), reads.staleness.begin(),
                         reads.staleness.end());
  ledger->Merge(reads.attempted, reads.failed);
}

/// Restores a serialized histogram through the registry and checks its
/// probe estimates against `expected` bit for bit.
bool RestoredMatches(const std::string& blob, const Workload& probes,
                     const sthist::Histogram& expected) {
  sthist::HistogramConfig config;
  sthist::StatusOr<std::unique_ptr<sthist::Histogram>> restored =
      sthist::RestoreHistogram(blob, config);
  if (!restored.ok()) return false;
  for (const Box& probe : probes) {
    if (std::bit_cast<uint64_t>((*restored)->Estimate(probe)) !=
        std::bit_cast<uint64_t>(expected.Estimate(probe))) {
      return false;
    }
  }
  return true;
}

enum class Submitted { kAccepted, kQueueFull, kFailed };

/// Closed-loop producer step: submits until accepted, backing off on a full
/// queue. Returns false on a failed submit (stopped service or error).
template <typename Submit>
bool SubmitWithBackoff(const Submit& submit, double* attempts,
                       double* queue_full) {
  while (true) {
    const Submitted outcome = submit();
    *attempts += 1.0;
    if (outcome == Submitted::kAccepted) return true;
    if (outcome == Submitted::kFailed) return false;
    *queue_full += 1.0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

struct ServingSpec {
  // serve-sky
  size_t tuples = 0;
  size_t buckets = 0;
  size_t pretrain = 0;
  size_t feedback = 0;
  size_t reads = 0;
  size_t probes = 0;
  double read_rate = 0.0;  // Per reader thread, reads/s.
  size_t readers = 0;
  // fleet-cross
  size_t tenants = 0;
  size_t per_tenant = 0;
  size_t warmup = 0;
  size_t refiners = 0;
  UnitPlan plan;
};

// --- serve-sky ---------------------------------------------------------------

struct ServeSetup : SetupCost {
  explicit ServeSetup(sthist::GeneratedData generated)
      : g(std::move(generated)) {}
  sthist::GeneratedData g;
  std::unique_ptr<sthist::Executor> executor;
  Workload feedback, reads, probes;
  std::unique_ptr<sthist::Histogram> pretrained;
};

std::unique_ptr<ServeSetup> MakeServeSetup(const ServingSpec& spec,
                                           uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  sthist::SkyConfig config;
  config.tuples = spec.tuples;
  config.seed = DeriveSeed(seed, kDataStream);
  auto setup = std::make_unique<ServeSetup>(sthist::MakeSky(config));
  const Clock::time_point t1 = Clock::now();
  setup->executor = std::make_unique<sthist::Executor>(setup->g.data);
  const Clock::time_point t2 = Clock::now();
  const Workload pretrain =
      MakeQueries(setup->g, spec.pretrain, DeriveSeed(seed, kPretrainStream),
                  sthist::CenterDistribution::kUniform);
  setup->feedback =
      MakeQueries(setup->g, spec.feedback, DeriveSeed(seed, kFeedbackStream),
                  sthist::CenterDistribution::kUniform);
  setup->reads = MakeQueries(setup->g, spec.reads, DeriveSeed(seed, kReadStream),
                             sthist::CenterDistribution::kData);
  setup->probes =
      MakeQueries(setup->g, spec.probes, DeriveSeed(seed, kProbeStream),
                  sthist::CenterDistribution::kData);
  const Clock::time_point t3 = Clock::now();
  sthist::STHolesConfig hc;
  hc.max_buckets = spec.buckets;
  setup->pretrained = std::make_unique<sthist::STHoles>(
      setup->g.domain, static_cast<double>(setup->g.data.size()), hc);
  sthist::Train(setup->pretrained.get(), pretrain, *setup->executor);
  const Clock::time_point t4 = Clock::now();
  setup->data_generate_s = SecondsBetween(t0, t1);
  setup->kdtree_build_s = SecondsBetween(t1, t2);
  setup->workload_generate_s = SecondsBetween(t2, t3);
  setup->setup_s = SecondsBetween(t0, t4);
  return setup;
}

Pass RunServeRound(const Options& opt, const ServingSpec& spec,
                          const ServeSetup& setup, Tracer& tracer,
                          Ledger* ledger) {
  Pass round;
  CountingOracle oracle(*setup.executor, tracer);
  // ServiceStats is a view over the service's registry cells, so each round's
  // service gets a fresh registry: a view over the process registry would
  // count every earlier round's feedback too.
  sthist::obs::MetricsRegistry round_registry;
  // Library defaults for queue capacity and publish batch, as serve-sim.
  sthist::ServiceConfig config;
  config.metrics = &round_registry;
  sthist::HistogramService service(
      std::make_unique<TimedHistogram>(setup.pretrained->Clone(), tracer),
      oracle, config);

  std::atomic<bool> stop{false};
  const Clock::time_point start = Clock::now();
  std::vector<ReaderResult> reader_results(spec.readers);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < spec.readers; ++r) {
    readers.emplace_back([&, r] {
      OpenLoopReader(
          spec.read_rate, start, stop,
          [&, r](size_t k) {
            const Box& q =
                setup.reads[(k * spec.readers + r) % setup.reads.size()];
            ScopedSpan span(tracer, Layer::kServiceEstimate);
            return ValidEstimate(service.Estimate(q));
          },
          [&] { return static_cast<double>(service.stats().staleness); },
          &reader_results[r]);
    });
  }

  bool producer_ok = true;
  sthist::Status drained;
  {
    ScopedSpan loop(tracer, Layer::kLoop);
    const Clock::time_point first_submit = Clock::now();
    for (const Box& q : setup.feedback) {
      producer_ok &= SubmitWithBackoff(
          [&] {
            ScopedSpan span(tracer, Layer::kServiceSubmit);
            switch (service.SubmitFeedback(q)) {
              case sthist::FeedbackOutcome::kAccepted:
                return Submitted::kAccepted;
              case sthist::FeedbackOutcome::kQueueFull:
                return Submitted::kQueueFull;
              case sthist::FeedbackOutcome::kStopped:
                break;
            }
            return Submitted::kFailed;
          },
          &round.attempts, &round.queue_full);
    }
    {
      ScopedSpan span(tracer, Layer::kServiceDrain);
      drained = service.Drain();
    }
    round.loop_s = SecondsBetween(first_submit, Clock::now());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  for (const ReaderResult& r : reader_results) TakeReads(r, &round, ledger);
  ledger->Ok(static_cast<uint64_t>(round.attempts - round.queue_full));
  ledger->Check(producer_ok, "SubmitFeedback answered kStopped");
  ledger->Check(drained.ok(), "Drain: " + drained.ToString());
  round.feedback_items = static_cast<double>(setup.feedback.size());
  round.feedback_s = round.loop_s;

  // Output checks on the drained snapshot.
  const sthist::ServiceStats stats = service.stats();
  round.publishes = static_cast<double>(stats.publishes);
  round.applied = static_cast<double>(stats.feedback_applied);
  ledger->Check(stats.feedback_applied == setup.feedback.size() &&
                    stats.feedback_accepted == setup.feedback.size() &&
                    stats.staleness == 0,
                "drained service did not apply the whole stream");
  std::shared_ptr<const sthist::Histogram> snapshot = service.snapshot();
  const double mae = CheckProbes(*snapshot, setup.probes, *setup.executor,
                                 &round.digest, ledger);
  round.nae = Ratio(mae, TrivialMae(setup.g.domain,
                                    static_cast<double>(setup.g.data.size()),
                                    setup.probes, *setup.executor));
  ledger->Check(std::isfinite(round.nae) && round.nae > 0.0,
                "probe NAE not finite and positive");
  const std::string path = opt.tmp_dir + "/serve-snapshot.bin";
  const sthist::Status saved = service.SaveSnapshot(path);
  sthist::StatusOr<std::string> bytes = sthist::snapshot_io::ReadFile(path);
  bool restored = saved.ok() && bytes.ok();
  if (restored) {
    sthist::StatusOr<sthist::snapshot_io::ServiceSnapshot> decoded =
        sthist::snapshot_io::DecodeServiceSnapshot(*bytes);
    restored = decoded.ok() &&
               decoded->applied_feedback == setup.feedback.size() &&
               RestoredMatches(decoded->histogram, setup.probes, *snapshot);
    if (decoded.ok()) round.synopsis_bytes = decoded->histogram.size();
  }
  ledger->Check(restored, "snapshot save/decode/restore is not bit-identical");
  service.Stop();
  round.serving_metrics = round_registry.Snapshot();
  return round;
}

// --- fleet-cross -------------------------------------------------------------

struct FleetVariant {
  explicit FleetVariant(sthist::GeneratedData generated)
      : g(std::move(generated)) {}
  sthist::GeneratedData g;
  std::unique_ptr<sthist::Executor> executor;
  Workload reads, probes;
};

struct FleetSetup : SetupCost {
  std::vector<std::unique_ptr<FleetVariant>> variants;
  std::vector<std::string> keys;
  std::vector<Workload> streams;  // Per tenant.
  std::vector<std::unique_ptr<sthist::Histogram>> pretrained;  // Per tenant.
};

std::unique_ptr<FleetSetup> MakeFleetSetup(const ServingSpec& spec,
                                           uint64_t seed) {
  auto setup = std::make_unique<FleetSetup>();
  const Clock::time_point t0 = Clock::now();
  double kd_s = 0.0;
  // fleet-sim's two small Cross variants.
  for (size_t v = 0; v < 2; ++v) {
    sthist::CrossConfig config;
    config.tuples_per_cluster = 600 - 200 * v;
    config.noise_tuples = config.tuples_per_cluster / 5;
    config.seed = DeriveSeed(seed, 101 + v);
    auto variant = std::make_unique<FleetVariant>(sthist::MakeCross(config));
    const Clock::time_point kd_start = Clock::now();
    variant->executor = std::make_unique<sthist::Executor>(variant->g.data);
    kd_s += SecondsBetween(kd_start, Clock::now());
    setup->variants.push_back(std::move(variant));
  }
  const Clock::time_point t1 = Clock::now();
  for (size_t v = 0; v < setup->variants.size(); ++v) {
    FleetVariant& variant = *setup->variants[v];
    variant.reads = MakeQueries(variant.g, 1024,
                                DeriveSeed(seed, kReadStream + 16 * v),
                                sthist::CenterDistribution::kData);
    variant.probes = MakeQueries(variant.g, spec.probes,
                                 DeriveSeed(seed, kProbeStream + 16 * v),
                                 sthist::CenterDistribution::kData);
  }
  std::vector<Workload> warmups;
  for (size_t t = 0; t < spec.tenants; ++t) {
    const FleetVariant& variant = *setup->variants[t % 2];
    setup->keys.push_back("tenant_" + std::to_string(t));
    const uint64_t tenant_seed = DeriveSeed(seed, kInstanceBase + t);
    setup->streams.push_back(
        MakeQueries(variant.g, spec.per_tenant,
                    DeriveSeed(tenant_seed, kFeedbackStream),
                    sthist::CenterDistribution::kUniform));
    warmups.push_back(MakeQueries(variant.g, spec.warmup,
                                  DeriveSeed(tenant_seed, kPretrainStream),
                                  sthist::CenterDistribution::kUniform));
  }
  const Clock::time_point t2 = Clock::now();
  sthist::STHolesConfig hc;
  hc.max_buckets = spec.buckets;
  for (size_t t = 0; t < spec.tenants; ++t) {
    const FleetVariant& variant = *setup->variants[t % 2];
    auto hist = std::make_unique<sthist::STHoles>(
        variant.g.domain, static_cast<double>(variant.g.data.size()), hc);
    sthist::Train(hist.get(), warmups[t], *variant.executor);
    setup->pretrained.push_back(std::move(hist));
  }
  const Clock::time_point t3 = Clock::now();
  setup->data_generate_s = SecondsBetween(t0, t1) - kd_s;
  setup->kdtree_build_s = kd_s;
  setup->workload_generate_s = SecondsBetween(t1, t2);
  setup->setup_s = SecondsBetween(t0, t3);
  return setup;
}

Pass RunFleetRound(const Options& opt, const ServingSpec& spec,
                          const FleetSetup& setup, Tracer& tracer,
                          Ledger* ledger) {
  Pass round;
  std::vector<std::unique_ptr<CountingOracle>> oracles;
  for (const auto& variant : setup.variants) {
    oracles.push_back(
        std::make_unique<CountingOracle>(*variant->executor, tracer));
  }
  // Fresh registry per round, as for serve-sky: FleetStats views its cells.
  // Library defaults for queue capacity and publish batch, as fleet-sim.
  sthist::obs::MetricsRegistry round_registry;
  sthist::FleetConfig config;
  config.refiners = spec.refiners;
  config.seed = opt.seed;
  config.metrics = &round_registry;
  sthist::ServiceFleet fleet(config);
  const size_t tenants = setup.keys.size();
  for (size_t t = 0; t < tenants; ++t) {
    const sthist::Status added = fleet.AddTenant(
        setup.keys[t],
        std::make_unique<TimedHistogram>(setup.pretrained[t]->Clone(), tracer),
        *oracles[t % 2]);
    ledger->Check(added.ok(), "AddTenant: " + added.ToString());
  }

  std::atomic<bool> stop{false};
  ReaderResult reads;
  const Clock::time_point start = Clock::now();
  std::thread reader([&] {
    OpenLoopReader(
        spec.read_rate, start, stop,
        [&](size_t k) {
          const size_t t = (k * 7919) % tenants;
          const Workload& reads = setup.variants[t % 2]->reads;
          ScopedSpan span(tracer, Layer::kFleetEstimate);
          sthist::StatusOr<double> estimate =
              fleet.Estimate(setup.keys[t], reads[k % reads.size()]);
          return estimate.ok() && ValidEstimate(*estimate);
        },
        nullptr, &reads);
  });

  bool producer_ok = true;
  sthist::Status drained;
  {
    ScopedSpan loop(tracer, Layer::kLoop);
    const Clock::time_point first_submit = Clock::now();
    for (size_t i = 0; i < spec.per_tenant; ++i) {
      for (size_t t = 0; t < tenants; ++t) {
        const Box& q = setup.streams[t][i];
        producer_ok &= SubmitWithBackoff(
            [&] {
              ScopedSpan span(tracer, Layer::kFleetSubmit);
              sthist::StatusOr<sthist::FleetFeedbackOutcome> outcome =
                  fleet.SubmitFeedback(setup.keys[t], q);
              if (!outcome.ok()) return Submitted::kFailed;
              switch (*outcome) {
                case sthist::FleetFeedbackOutcome::kAccepted:
                  return Submitted::kAccepted;
                case sthist::FleetFeedbackOutcome::kQueueFull:
                  return Submitted::kQueueFull;
                case sthist::FleetFeedbackOutcome::kStopped:
                  break;
              }
              return Submitted::kFailed;
            },
            &round.attempts, &round.queue_full);
      }
    }
    {
      ScopedSpan span(tracer, Layer::kFleetDrain);
      drained = fleet.Drain();
    }
    round.loop_s = SecondsBetween(first_submit, Clock::now());
  }
  stop.store(true);
  reader.join();
  TakeReads(reads, &round, ledger);
  ledger->Ok(static_cast<uint64_t>(round.attempts - round.queue_full));
  ledger->Check(producer_ok, "fleet SubmitFeedback failed or was stopped");
  ledger->Check(drained.ok(), "fleet Drain: " + drained.ToString());
  const size_t items = tenants * spec.per_tenant;
  round.feedback_items = static_cast<double>(items);
  round.feedback_s = round.loop_s;

  const sthist::FleetStats stats = fleet.stats();
  round.publishes = static_cast<double>(stats.publishes);
  round.applied = static_cast<double>(stats.feedback_applied);
  round.shard_runs = static_cast<double>(stats.shard_runs);
  ledger->Check(stats.feedback_applied == items &&
                    stats.feedback_accepted == items,
                "drained fleet did not apply every stream");

  // Digest and checks over every tenant in sorted key order.
  const std::string path = opt.tmp_dir + "/fleet-snapshot.bin";
  const sthist::Status saved = fleet.SaveSnapshot(path);
  sthist::StatusOr<std::string> bytes = sthist::snapshot_io::ReadFile(path);
  sthist::StatusOr<sthist::snapshot_io::FleetSnapshot> decoded =
      bytes.ok() ? sthist::snapshot_io::DecodeFleetSnapshot(*bytes)
                 : sthist::StatusOr<sthist::snapshot_io::FleetSnapshot>(
                       bytes.status());
  ledger->Check(saved.ok() && decoded.ok() &&
                    decoded->tenants.size() == tenants,
                "fleet snapshot save/decode failed");
  double abs_error = 0.0;
  double trivial_error = 0.0;
  size_t probes = 0;
  size_t restored_ok = 0;
  std::vector<double> trivial_mae;
  for (const auto& variant : setup.variants) {
    trivial_mae.push_back(TrivialMae(
        variant->g.domain, static_cast<double>(variant->g.data.size()),
        variant->probes, *variant->executor));
  }
  for (const std::string& key : fleet.TenantKeys()) {
    const size_t t = static_cast<size_t>(std::stoul(key.substr(7)));
    const FleetVariant& variant = *setup.variants[t % 2];
    std::shared_ptr<const sthist::Histogram> snapshot = fleet.Snapshot(key);
    if (snapshot == nullptr) {
      ledger->Check(false, "lost snapshot " + key);
      continue;
    }
    FoldDigest(t, &round.digest);
    const double mae = CheckProbes(*snapshot, variant.probes,
                                   *variant.executor, &round.digest, ledger);
    const auto n = static_cast<double>(variant.probes.size());
    abs_error += mae * n;
    trivial_error += trivial_mae[t % 2] * n;
    probes += variant.probes.size();
    if (decoded.ok()) {
      for (const auto& tenant : decoded->tenants) {
        if (tenant.key == key &&
            RestoredMatches(tenant.histogram, variant.probes, *snapshot)) {
          ++restored_ok;
          round.synopsis_bytes += tenant.histogram.size();
        }
      }
    }
  }
  ledger->Check(restored_ok == tenants,
                "fleet snapshot restore is not bit-identical");
  round.nae = Ratio(abs_error, trivial_error);
  ledger->Check(std::isfinite(round.nae) && round.nae > 0.0 && probes > 0,
                "fleet probe NAE not finite and positive");
  fleet.Stop();
  round.serving_metrics = round_registry.Snapshot();
  return round;
}

// --- shared serving driver -----------------------------------------------------

// ---------------------------------------------------------------------------
// Run driver shared by every workload
// ---------------------------------------------------------------------------

/// Untraced run: sets up and measures independent inputs until --seconds are
/// used (see UnitPlan), unit i seeded from DeriveSeed(--seed, kInstanceBase +
/// i). It reports medians over units (read-latency percentiles are taken per
/// unit, then the median over units, so one unit hit by a host stall does not
/// set the run's tail) and the mean NAE. Traced run: alternates untraced and
/// traced passes over unit 0's input while time remains and reports the
/// per-layer metrics of the traced passes.
template <typename MakeSetup, typename RunPass>
Report RunWorkload(const Options& opt, const UnitPlan& plan, Tracer& tracer,
                   sthist::obs::MetricsRegistry& registry, Ledger* ledger,
                   const MakeSetup& make_setup, const RunPass& run_pass) {
  Report report;
  const Clock::time_point run_start = Clock::now();
  uint64_t digest = kDigestSeed;
  double queue_full = 0.0;
  double attempts = 0.0;
  double feedback_items = 0.0;
  double feedback_s = 0.0;
  if (!opt.trace) {
    // Per-unit figures only: pooling every read of a run would make the
    // driver's own sample buffers part of peak_rss_mb.
    std::vector<double> unit_wall, setup_s, loop, rate, naes, p50s, p99s,
        call_p50s, call_p99s, sched_p99s, late_p99s;
    size_t samples = 0;
    for (size_t i = 0;; ++i) {
      const Clock::time_point unit_start = Clock::now();
      if (i >= plan.output_units &&
          SecondsBetween(run_start, unit_start) + Median(unit_wall) >
              opt.seconds) {
        break;
      }
      auto setup = make_setup(DeriveSeed(opt.seed, kInstanceBase + i));
      Pass pass = run_pass(*setup);
      unit_wall.push_back(SecondsBetween(unit_start, Clock::now()));
      setup_s.push_back(setup->setup_s);
      loop.push_back(pass.loop_s);
      rate.push_back(Ratio(pass.feedback_items, pass.feedback_s));
      feedback_items += pass.feedback_items;
      feedback_s += pass.feedback_s;
      if (i < plan.output_units) {
        naes.push_back(pass.nae);
        FoldDigest(pass.digest, &digest);
      }
      // Serving reads are timed from their scheduled send. The paper
      // workloads read in a closed loop, where the send is the call.
      const std::vector<double>& read_s =
          pass.queued_s.empty() ? pass.estimate_s : pass.queued_s;
      if (!read_s.empty()) {
        p50s.push_back(Percentile(read_s, 0.5) * 1e6);
        p99s.push_back(Percentile(read_s, 0.99) * 1e6);
        call_p50s.push_back(Percentile(pass.estimate_s, 0.5) * 1e6);
        call_p99s.push_back(Percentile(pass.estimate_s, 0.99) * 1e6);
      }
      if (!pass.sched_s.empty()) {
        sched_p99s.push_back(Percentile(pass.sched_s, 0.99) * 1e6);
        late_p99s.push_back(Percentile(pass.late_s, 0.99) * 1e6);
      }
      samples += read_s.size();
      queue_full += pass.queue_full;
      attempts += pass.attempts;
    }
    AddNote(&report, "units %zu (outputs cover the first %zu): setup_s %s",
            loop.size(), plan.output_units, Join(setup_s).c_str());
    AddNote(&report, "loop_s per unit: %s", Join(loop).c_str());
    AddNote(&report, "feedback_per_s per unit: %s", Join(rate).c_str());
    AddNote(&report, "nae per unit: %s", Join(naes).c_str());
    AddNote(&report, "estimate_p50_us per unit: %s", Join(p50s).c_str());
    AddNote(&report, "estimate_p99_us per unit: %s", Join(p99s).c_str());
    AddNote(&report,
            "estimate samples %zu; medians over units: in call p50 %.3f p99 "
            "%.3f us",
            samples, Median(call_p50s), Median(call_p99s));
    if (!sched_p99s.empty()) {
      AddNote(&report,
              "open-loop reads as sent (late wake-ups included), median over "
              "units: p99 %.3f us; gen_late_p99_us %.3f",
              Median(sched_p99s), Median(late_p99s));
    }
    AddNote(&report, "queue-full answers %.0f of %.0f submits (backpressure)",
            queue_full, attempts);
    AddNote(&report, "digest %016llx nae %.17g",
            static_cast<unsigned long long>(digest), Mean(naes));
    AddNote(&report, "wall %.3f s", SecondsBetween(run_start, Clock::now()));
    report.end_to_end = {
        {"setup_s", Median(setup_s), "s"},
        {"loop_s", Median(loop), "s"},
        {"feedback_per_s", Ratio(feedback_items, feedback_s), "items/s"},
        {"estimate_p50_us", Median(p50s), "us"},
        {"estimate_p99_us", Median(p99s), "us"},
        {"nae", Mean(naes), "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    return report;
  }

  auto setup = make_setup(DeriveSeed(opt.seed, kInstanceBase));
  std::vector<double> untraced, traced, estimate_s, sched_s, late_s,
      staleness;
  RegistryDelta delta;
  LayerInputs in;
  std::optional<uint64_t> first_digest;
  tracer.Start();
  tracer.Stop();
  auto elapsed = [&] { return SecondsBetween(run_start, Clock::now()); };
  while (traced.empty() ||
         elapsed() + Median(untraced) + Median(traced) <= opt.seconds) {
    const Pass plain = run_pass(*setup);
    untraced.push_back(plain.loop_s);
    const sthist::obs::MetricsSnapshot before = registry.Snapshot();
    tracer.Resume();
    const Pass pass = run_pass(*setup);
    tracer.Stop();
    delta.Add(before, registry.Snapshot());
    delta.Add({}, pass.serving_metrics);
    traced.push_back(pass.loop_s);
    if (!first_digest) first_digest = plain.digest;
    ledger->Check(plain.digest == *first_digest && pass.digest == *first_digest,
                  "repeated passes over one input changed its outputs");
    in.clusters_fed = static_cast<double>(pass.clusters_fed);
    in.synopsis_bytes = static_cast<double>(pass.synopsis_bytes);
    in.queue_full += pass.queue_full;
    in.submit_attempts += pass.attempts;
    in.publishes += pass.publishes;
    in.applied += pass.applied;
    in.shard_runs += pass.shard_runs;
    estimate_s.insert(estimate_s.end(), pass.estimate_s.begin(),
                      pass.estimate_s.end());
    late_s.insert(late_s.end(), pass.late_s.begin(), pass.late_s.end());
    sched_s.insert(sched_s.end(), pass.sched_s.begin(), pass.sched_s.end());
    staleness.insert(staleness.end(), pass.staleness.begin(),
                     pass.staleness.end());
  }
  const TraceReport trace = tracer.Analyze();
  in.passes = static_cast<double>(traced.size());
  in.data_generate_s = setup->data_generate_s;
  in.workload_generate_s = setup->workload_generate_s;
  in.kdtree_build_s = setup->kdtree_build_s;
  in.staleness_p99 = Percentile(staleness, 0.99);
  in.gen_late_p99_us = Percentile(late_s, 0.99) * 1e6;
  in.read_call_p50_us = Percentile(estimate_s, 0.5) * 1e6;
  in.read_call_p99_us = Percentile(estimate_s, 0.99) * 1e6;
  in.read_sched_p50_us = Percentile(sched_s, 0.5) * 1e6;
  in.read_sched_p99_us = Percentile(sched_s, 0.99) * 1e6;
  in.estimate_samples = static_cast<double>(estimate_s.size());
  in.overhead_share = Median(traced) / Median(untraced) - 1.0;
  report.per_layer = PerLayerMetrics(trace, delta, in);
  AddNote(&report, "traced passes %zu, untraced loop_s %.4f, traced %.4f",
          traced.size(), Median(untraced), Median(traced));
  AddNote(&report, "digest %016llx (unit 0)",
          static_cast<unsigned long long>(first_digest.value_or(0)));
  AddSpanTable(trace, in.passes, &report);
  if (!tracer.WriteChromeTrace(opt.tmp_dir + "/spans-" + opt.workload +
                               ".json")) {
    ledger->Check(false, "writing the span file");
  }
  return report;
}

// ---------------------------------------------------------------------------
// Workload table and main
// ---------------------------------------------------------------------------

PaperSpec PaperSkySpec(bool tiny) {
  PaperSpec spec;
  spec.sky = true;
  spec.tuples = tiny ? 20000 : 50000;
  spec.buckets = tiny ? 60 : 250;
  spec.train = tiny ? 20 : 40;
  spec.sim = tiny ? 20 : 80;
  spec.probes = tiny ? 100 : 1000;
  spec.plan = {tiny ? 2u : 6u};
  return spec;
}

PaperSpec PaperGaussSpec(bool tiny) {
  PaperSpec spec;
  spec.sky = false;
  spec.tuples = tiny ? 11000 : 55000;
  spec.buckets = tiny ? 20 : 50;
  spec.train = tiny ? 30 : 200;
  spec.sim = tiny ? 30 : 200;
  spec.probes = tiny ? 100 : 1000;
  spec.plan = {tiny ? 2u : 12u};
  return spec;
}

ServingSpec ServeSkySpec(bool tiny) {
  ServingSpec spec;
  spec.tuples = tiny ? 20000 : 50000;
  spec.buckets = 100;
  spec.pretrain = tiny ? 20 : 40;
  spec.feedback = tiny ? 100 : 120;
  spec.reads = 4096;
  spec.probes = tiny ? 100 : 1000;
  spec.read_rate = 5000.0;
  spec.readers = 2;
  spec.plan = {tiny ? 2u : 8u};
  return spec;
}

ServingSpec FleetCrossSpec(bool tiny) {
  ServingSpec spec;
  spec.buckets = 24;
  spec.tenants = tiny ? 16 : 256;
  spec.per_tenant = tiny ? 8 : 64;
  spec.warmup = tiny ? 4 : 16;
  spec.refiners = 2;
  spec.probes = tiny ? 16 : 64;
  spec.read_rate = 2000.0;
  spec.readers = 1;
  spec.plan = {tiny ? 2u : 10u};
  return spec;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: sthist_perfbench --workload "
               "paper-sky|paper-gauss|serve-sky|fleet-cross --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--tmp-dir DIR]\n",
               message);
  return 2;
}

void PrintJson(const Report& report, bool trace, const Ledger& ledger) {
  const std::vector<Metric>& metrics =
      trace ? report.per_layer : report.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ledger.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing flag value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return Usage("bad --size");
      opt.tiny = value == "tiny";
    } else if (flag == "--tmp-dir") {
      opt.tmp_dir = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload) return Usage("--workload is required");
  std::error_code ec;
  std::filesystem::create_directories(opt.tmp_dir, ec);
  if (ec) return Usage("cannot create --tmp-dir");

  // Same process-wide registry installation as sthist_cli's main().
  sthist::obs::MetricsRegistry registry;
  registry.EnableTracing();
  sthist::obs::SetGlobalMetrics(&registry);

  TightenTimerSlack();  // The main thread is the serving producer.
  Tracer tracer;
  Ledger ledger;
  Report report;
  auto paper = [&](const PaperSpec& spec) {
    return RunWorkload(
        opt, spec.plan, tracer, registry, &ledger,
        [&](uint64_t seed) { return MakePaperInstance(spec, seed); },
        [&](const PaperInstance& inst) {
          return RunPaperPass(spec, inst, tracer, &ledger);
        });
  };
  if (opt.workload == "paper-sky") {
    report = paper(PaperSkySpec(opt.tiny));
  } else if (opt.workload == "paper-gauss") {
    report = paper(PaperGaussSpec(opt.tiny));
  } else if (opt.workload == "serve-sky") {
    const ServingSpec spec = ServeSkySpec(opt.tiny);
    report = RunWorkload(
        opt, spec.plan, tracer, registry, &ledger,
        [&](uint64_t seed) { return MakeServeSetup(spec, seed); },
        [&](const ServeSetup& setup) {
          return RunServeRound(opt, spec, setup, tracer, &ledger);
        });
  } else if (opt.workload == "fleet-cross") {
    const ServingSpec spec = FleetCrossSpec(opt.tiny);
    report = RunWorkload(
        opt, spec.plan, tracer, registry, &ledger,
        [&](uint64_t seed) { return MakeFleetSetup(spec, seed); },
        [&](const FleetSetup& setup) {
          return RunFleetRound(opt, spec, setup, tracer, &ledger);
        });
  } else {
    return Usage("unknown workload");
  }
  sthist::obs::SetGlobalMetrics(nullptr);

  std::printf("workload %s seed %llu trace %d%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              opt.tiny ? " size tiny" : "");
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  for (const Metric& m : opt.trace ? report.per_layer : report.end_to_end) {
    std::printf("%-40s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintJson(report, opt.trace, ledger);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
