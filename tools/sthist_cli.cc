// sthist command-line tool: generate datasets, run clustering, and run
// initialized/uninitialized histogram experiments without writing C++.
//
//   sthist_cli generate --dataset sky --tuples 100000 --out sky.csv
//   sthist_cli cluster --dataset gauss --alpha 0.02
//   sthist_cli cluster --data my.csv --alpha 0.05 --beta 0.25 --width 0.05
//   sthist_cli experiment --dataset cross --buckets 100 --init
//   sthist_cli experiment --data my.csv --buckets 200 --train 1000 --sim 1000
//   sthist_cli experiment --dataset gauss --fault-rate 0.05 --fault-seed 7
//   sthist_cli sweep --dataset cross --buckets 50,100,250 --seeds 21,22
//       --both --threads 8
//   sthist_cli inspect --dataset cross --buckets 20 --train 100
//
// Exit codes: 0 success; 1 runtime failure (unreadable/malformed input,
// failed write — the Status message is printed to stderr); 2 usage error
// (unknown subcommand or flag).

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clustering/clique.h"
#include "clustering/clusterer.h"
#include "clustering/doc.h"
#include "clustering/mineclus.h"
#include "core/binfmt.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "data/csv.h"
#include "data/generators.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "histogram/census.h"
#include "histogram/registry.h"
#include "histogram/stholes.h"
#include "histogram/trivial.h"
#include "init/initializer.h"
#include "obs/metrics.h"
#include "serve/histogram_service.h"
#include "serve/service_fleet.h"
#include "serve/snapshot_io.h"
#include "testing/fault_injection.h"
#include "workload/drift.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace {

using namespace sthist;

// Exit codes (documented in README.md).
constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;

// ---------------------------------------------------------------------------
// Tiny flag parser: --name value and boolean --name.
// ---------------------------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = Status::InvalidArgument("unexpected argument: " + arg);
        return;
      }
      std::string name = arg.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[name] = argv[++i];
      } else {
        values_[name] = "";  // Boolean flag.
      }
    }
  }

  const Status& error() const { return error_; }

  /// Rejects any flag not in `allowed`, so typos fail loudly instead of
  /// silently falling back to defaults.
  Status CheckAllowed(std::initializer_list<const char*> allowed) const {
    for (const auto& [name, unused_value] : values_) {
      bool known = false;
      for (const char* candidate : allowed) {
        if (name == candidate) {
          known = true;
          break;
        }
      }
      if (!known) {
        return Status::InvalidArgument("unknown flag: --" + name);
      }
    }
    return Status::Ok();
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string Str(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  double Num(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(),
                                                        nullptr);
  }

  size_t Size(const std::string& name, size_t fallback) const {
    return static_cast<size_t>(Num(name, static_cast<double>(fallback)));
  }

 private:
  std::map<std::string, std::string> values_;
  Status error_;
};

// Flag groups shared by several subcommands. Every subcommand accepts
// --metrics-json <path>: main() installs a process-wide MetricsRegistry
// before dispatching and exports its JSON snapshot afterwards (DESIGN.md
// §13), so whatever layers the command exercised show up in the file.
#define STHIST_COMMON_FLAGS "metrics-json"
#define STHIST_DATASET_FLAGS "data", "dataset", "tuples", "dim", "seed"
#define STHIST_CLUSTER_FLAGS                                          \
  "clusterer", "alpha", "beta", "width", "max-clusters", "xi", "tau", \
      "max-dims"
#define STHIST_FAULT_FLAGS \
  "fault-rate", "fault-seed", "fault-noise", "fault-data"
#define STHIST_DRIFT_FLAGS                                             \
  "drift", "drift-phases", "drift-seed", "drift-tuples", "drift-span", \
      "pace"
#define STHIST_REINIT_FLAGS                                              \
  "no-reinit", "reinit-window", "reinit-trigger", "reinit-rearm",        \
      "reinit-cooldown", "reinit-backstop", "reinit-reservoir",          \
      "reinit-buckets", "reinit-sync", "fault-reinit-rate",              \
      "fault-reinit-seed"

// ---------------------------------------------------------------------------
// Dataset resolution: either a named generator or a CSV file.
// ---------------------------------------------------------------------------

StatusOr<GeneratedData> ResolveDataset(const Flags& flags) {
  if (flags.Has("data")) {
    StatusOr<Dataset> data = ReadCsv(flags.Str("data", ""));
    if (!data.ok()) return data.status();
    GeneratedData g{*std::move(data), Box(), {}};
    g.domain = g.data.Bounds();
    if (g.domain.Volume() <= 0.0) {
      return Status::InvalidArgument(
          flags.Str("data", "") +
          ": dataset has zero volume (all tuples equal in some attribute)");
    }
    return g;
  }

  std::string name = flags.Str("dataset", "cross");
  uint64_t seed = static_cast<uint64_t>(flags.Num("seed", 0));
  if (name == "cross" || name == "crossnd") {
    CrossConfig config;
    config.dim = flags.Size("dim", 2);
    config.tuples_per_cluster = flags.Size("tuples", 10000 * config.dim) /
                                std::max<size_t>(config.dim, 1);
    config.noise_tuples = config.tuples_per_cluster * config.dim / 10;
    if (seed != 0) config.seed = seed;
    STHIST_RETURN_IF_ERROR(Validate(config));
    return MakeCross(config);
  }
  if (name == "gauss") {
    GaussConfig config;
    config.dim = flags.Size("dim", 6);
    config.cluster_tuples = flags.Size("tuples", 110000) * 10 / 11;
    config.noise_tuples = flags.Size("tuples", 110000) / 11;
    if (seed != 0) config.seed = seed;
    STHIST_RETURN_IF_ERROR(Validate(config));
    return MakeGauss(config);
  }
  if (name == "sky") {
    SkyConfig config;
    config.tuples = flags.Size("tuples", 200000);
    if (seed != 0) config.seed = seed;
    STHIST_RETURN_IF_ERROR(Validate(config));
    return MakeSky(config);
  }
  if (name == "particle") {
    ParticleConfig config;
    size_t tuples = flags.Size("tuples", 100000);
    config.cluster_tuples = tuples * 4 / 5;
    config.noise_tuples = tuples / 5;
    if (seed != 0) config.seed = seed;
    STHIST_RETURN_IF_ERROR(Validate(config));
    return MakeParticle(config);
  }
  return Status::NotFound("unknown dataset: " + name +
                          " (try cross, gauss, sky, particle, or "
                          "--data file.csv)");
}

FaultConfig FaultsFromFlags(const Flags& flags) {
  FaultConfig faults;
  faults.rate = flags.Num("fault-rate", 0.0);
  faults.seed = static_cast<uint64_t>(flags.Num("fault-seed", 99));
  faults.noise_factor = flags.Num("fault-noise", faults.noise_factor);
  return faults;
}

// Applies --fault-data: corrupts ~rate of the tuples, then repairs the
// dataset the way a service ingesting it would (drop non-finite tuples).
Status MaybeInjectDataFaults(const Flags& flags, GeneratedData* g) {
  if (!flags.Has("fault-data")) return Status::Ok();
  FaultConfig faults = FaultsFromFlags(flags);
  if (faults.rate <= 0.0) {
    return Status::InvalidArgument("--fault-data needs --fault-rate > 0");
  }
  g->data = CorruptDataset(g->data, g->domain, faults);
  Status validation = g->data.Validate();
  std::fprintf(stderr, "fault-data: %s\n", validation.ToString().c_str());
  size_t dropped = 0;
  g->data = DropNonFiniteTuples(g->data, &dropped);
  std::fprintf(stderr, "fault-data: dropped %zu corrupted tuples, %zu kept\n",
               dropped, g->data.size());
  if (g->data.size() == 0) {
    return Status::InvalidArgument("all tuples corrupted away");
  }
  return Status::Ok();
}

MineClusConfig MineClusFromFlags(const Flags& flags) {
  MineClusConfig config;
  config.alpha = flags.Num("alpha", config.alpha);
  config.beta = flags.Num("beta", config.beta);
  config.width_fraction = flags.Num("width", config.width_fraction);
  config.max_clusters = flags.Size("max-clusters", config.max_clusters);
  return config;
}

// Builds the clusterer selected by --clusterer (mineclus | clique | doc).
StatusOr<std::unique_ptr<SubspaceClusterer>> ClustererFromFlags(
    const Flags& flags) {
  std::string name = flags.Str("clusterer", "mineclus");
  if (name == "mineclus") {
    return std::unique_ptr<SubspaceClusterer>(
        std::make_unique<MineClusClusterer>(MineClusFromFlags(flags)));
  }
  if (name == "clique") {
    CliqueConfig config;
    config.xi = flags.Size("xi", config.xi);
    config.tau = flags.Num("tau", config.tau);
    config.max_dims = flags.Size("max-dims", config.max_dims);
    return std::unique_ptr<SubspaceClusterer>(
        std::make_unique<CliqueClusterer>(config));
  }
  if (name == "doc") {
    DocConfig config;
    config.alpha = flags.Num("alpha", config.alpha);
    config.beta = flags.Num("beta", config.beta);
    config.width_fraction = flags.Num("width", config.width_fraction);
    return std::unique_ptr<SubspaceClusterer>(
        std::make_unique<DocClusterer>(config));
  }
  return Status::NotFound("unknown clusterer: " + name +
                          " (try mineclus, clique, doc)");
}

// Parses a comma-separated list of non-negative integers ("50,100,250").
StatusOr<std::vector<size_t>> ParseSizeList(const std::string& text) {
  std::vector<size_t> values;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    std::string item = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    char* end = nullptr;
    unsigned long value = std::strtoul(item.c_str(), &end, 10);
    if (item.empty() || end == nullptr || *end != '\0') {
      return Status::InvalidArgument("malformed list item: '" + item + "'");
    }
    values.push_back(static_cast<size_t>(value));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return values;
}

// Folds the little-endian bytes of `value` into an FNV-1a digest.
void FoldDigest(uint64_t value, uint64_t* digest) {
  for (int byte = 0; byte < 8; ++byte) {
    *digest ^= (value >> (8 * byte)) & 0xffu;
    *digest *= 1099511628211ULL;
  }
}

constexpr uint64_t kDigestSeed = 1469598103934665603ULL;  // FNV offset basis.

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

Status RunGenerate(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(
      flags.CheckAllowed({STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, "out"}));
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  std::string out = flags.Str("out", "");
  if (out.empty()) {
    return Status::InvalidArgument("generate requires --out <file.csv>");
  }
  STHIST_RETURN_IF_ERROR(WriteCsv(g->data, out));
  std::printf("wrote %zu tuples x %zu dims to %s\n", g->data.size(),
              g->data.dim(), out.c_str());
  return Status::Ok();
}

Status RunCluster(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(
      flags.CheckAllowed(
          {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, STHIST_CLUSTER_FLAGS}));
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  StatusOr<std::unique_ptr<SubspaceClusterer>> clusterer =
      ClustererFromFlags(flags);
  if (!clusterer.ok()) return clusterer.status();
  std::vector<SubspaceCluster> clusters =
      (*clusterer)->Cluster(g->data, g->domain);
  std::printf("clusterer: %s\n", (*clusterer)->name().c_str());

  TablePrinter table({"cluster", "relevant dims", "members", "score"});
  for (size_t i = 0; i < clusters.size(); ++i) {
    std::string dims;
    for (size_t d : clusters[i].relevant_dims) {
      if (!dims.empty()) dims += ",";
      dims += std::to_string(d);
    }
    table.AddRow({std::string("C").append(std::to_string(i)), dims,
                  FormatSize(clusters[i].members.size()),
                  FormatDouble(clusters[i].score, 0)});
  }
  table.Print();
  std::printf("%zu clusters over %zu tuples\n", clusters.size(),
              g->data.size());
  return Status::Ok();
}

/// Validates --estimator against the registry so a typo is a flag error
/// naming the registered estimators, not a crash deep in the runner.
StatusOr<std::string> EstimatorFromFlags(const Flags& flags) {
  std::string name = flags.Str("estimator", "stholes");
  for (const std::string& known : RegisteredNames()) {
    if (known == name) return name;
  }
  std::string known_list;
  for (const std::string& known : RegisteredNames()) {
    if (!known_list.empty()) known_list += ", ";
    known_list += known;
  }
  return StatusF(StatusCode::kNotFound,
                 "--estimator %s is not registered (choose from: %s)",
                 name.c_str(), known_list.c_str());
}

Status RunExperiment(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckAllowed(
      {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, STHIST_CLUSTER_FLAGS,
       STHIST_FAULT_FLAGS, "buckets", "train", "sim", "volume", "init",
       "reversed", "freeze", "data-centers", "batch", "estimator"}));
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  STHIST_RETURN_IF_ERROR(MaybeInjectDataFaults(flags, &*g));
  Experiment experiment(*std::move(g));

  ExperimentConfig config;
  StatusOr<std::string> estimator = EstimatorFromFlags(flags);
  if (!estimator.ok()) return estimator.status();
  config.estimator = *std::move(estimator);
  config.buckets = flags.Size("buckets", 100);
  config.train_queries = flags.Size("train", 400);
  config.sim_queries = flags.Size("sim", 400);
  config.volume_fraction = flags.Num("volume", 0.01);
  config.initialize = flags.Has("init");
  config.initializer.reversed = flags.Has("reversed");
  config.learn_during_sim = !flags.Has("freeze");
  config.mineclus = MineClusFromFlags(flags);
  config.faults = FaultsFromFlags(flags);
  if (flags.Has("data-centers")) {
    config.centers = CenterDistribution::kData;
  }
  // Batched estimation for the measurement passes. Bare --batch means
  // hardware concurrency (0); --batch N pins the worker count. Estimates are
  // bitwise-identical at any value — this is purely a throughput knob.
  if (flags.Has("batch")) {
    config.estimate_threads = flags.Size("batch", 0);
  }
  if (config.faults.rate < 0.0 || config.faults.rate > 1.0) {
    return StatusF(StatusCode::kInvalidArgument,
                   "--fault-rate must be in [0,1], got %g",
                   config.faults.rate);
  }

  ExperimentResult result = experiment.Run(config);
  TablePrinter table({"metric", "value"});
  table.AddRow({"MAE", FormatDouble(result.mae, 3)});
  table.AddRow({"trivial MAE", FormatDouble(result.trivial_mae, 3)});
  table.AddRow({"NAE", FormatDouble(result.nae, 4)});
  table.AddRow({"final buckets", FormatSize(result.final_buckets)});
  table.AddRow({"subspace buckets", FormatSize(result.subspace_buckets)});
  table.AddRow({"clusters found", FormatSize(result.clusters_found)});
  table.AddRow({"clusters fed", FormatSize(result.clusters_fed)});
  table.AddRow({"clustering s", FormatDouble(result.clustering_seconds, 2)});
  table.AddRow({"train s", FormatDouble(result.train_seconds, 2)});
  table.AddRow({"sim s", FormatDouble(result.sim_seconds, 2)});
  if (config.faults.rate > 0.0 || result.robustness.total() > 0) {
    table.AddRow({"faults injected", FormatSize(result.faults_injected)});
    table.AddRow(
        {"rejected queries", FormatSize(result.robustness.rejected_queries)});
    table.AddRow({"sanitized queries",
                  FormatSize(result.robustness.sanitized_queries)});
    table.AddRow(
        {"clamped feedback", FormatSize(result.robustness.clamped_feedback)});
    table.AddRow(
        {"repaired buckets", FormatSize(result.robustness.repaired_buckets)});
  }
  table.Print();
  return Status::Ok();
}

// Runs a grid of experiment cells (bucket budgets x workload seeds x
// variants) concurrently via RunSweep and prints one row per cell. The
// variants are uninitialized by default, initialized with --init, or both
// with --both.
Status RunSweepCommand(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckAllowed(
      {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, STHIST_CLUSTER_FLAGS,
       STHIST_FAULT_FLAGS, "buckets", "seeds", "train", "sim", "volume",
       "init", "both", "reversed", "freeze", "data-centers", "threads",
       "estimator"}));
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  STHIST_RETURN_IF_ERROR(MaybeInjectDataFaults(flags, &*g));
  Experiment experiment(*std::move(g));

  StatusOr<std::vector<size_t>> buckets =
      ParseSizeList(flags.Str("buckets", "50,100,250"));
  if (!buckets.ok()) return buckets.status();
  StatusOr<std::vector<size_t>> seeds =
      ParseSizeList(flags.Str("seeds", "21"));
  if (!seeds.ok()) return seeds.status();
  if (buckets->empty() || seeds->empty()) {
    return Status::InvalidArgument("--buckets and --seeds must be non-empty");
  }

  size_t threads = flags.Size("threads", 0);  // 0 = hardware concurrency.

  ExperimentConfig base;
  StatusOr<std::string> estimator = EstimatorFromFlags(flags);
  if (!estimator.ok()) return estimator.status();
  base.estimator = *std::move(estimator);
  base.train_queries = flags.Size("train", 400);
  base.sim_queries = flags.Size("sim", 400);
  base.volume_fraction = flags.Num("volume", 0.01);
  base.initializer.reversed = flags.Has("reversed");
  base.learn_during_sim = !flags.Has("freeze");
  base.mineclus = MineClusFromFlags(flags);
  base.faults = FaultsFromFlags(flags);
  if (flags.Has("data-centers")) base.centers = CenterDistribution::kData;
  if (base.faults.rate < 0.0 || base.faults.rate > 1.0) {
    return StatusF(StatusCode::kInvalidArgument,
                   "--fault-rate must be in [0,1], got %g", base.faults.rate);
  }

  std::vector<bool> variants;
  if (flags.Has("both")) {
    variants = {false, true};
  } else {
    variants = {flags.Has("init")};
  }

  std::vector<ExperimentConfig> configs;
  for (size_t seed : *seeds) {
    for (size_t b : *buckets) {
      for (bool init : variants) {
        ExperimentConfig config = base;
        config.workload_seed = seed;
        config.buckets = b;
        config.initialize = init;
        configs.push_back(config);
      }
    }
  }

  auto start = std::chrono::steady_clock::now();
  std::vector<ExperimentResult> results =
      RunSweep(experiment, configs, threads);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  TablePrinter table({"seed", "buckets", "init", "NAE", "final buckets",
                      "subspace", "clusters fed"});
  for (size_t i = 0; i < configs.size(); ++i) {
    table.AddRow({FormatSize(configs[i].workload_seed),
                  FormatSize(configs[i].buckets),
                  configs[i].initialize ? "yes" : "no",
                  FormatDouble(results[i].nae, 4),
                  FormatSize(results[i].final_buckets),
                  FormatSize(results[i].subspace_buckets),
                  FormatSize(results[i].clusters_fed)});
  }
  table.Print();
  std::printf("%zu cells in %.2f s (threads=%zu)\n", configs.size(), seconds,
              threads == 0 ? DefaultThreadCount() : threads);
  return Status::Ok();
}

Status RunInspect(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckAllowed(
      {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, STHIST_CLUSTER_FLAGS,
       "buckets", "train", "volume", "init", "out"}));
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  Experiment experiment(*std::move(g));

  STHolesConfig hc;
  hc.max_buckets = flags.Size("buckets", 20);
  STHoles hist(experiment.domain(), experiment.total_tuples(), hc);

  if (flags.Has("init")) {
    InitializeHistogram(experiment.Clusters(MineClusFromFlags(flags)),
                        experiment.domain(), experiment.executor(),
                        InitializerConfig{}, &hist);
  }
  ExperimentConfig wc_config;
  wc_config.train_queries = flags.Size("train", 100);
  wc_config.sim_queries = 1;
  wc_config.volume_fraction = flags.Num("volume", 0.01);
  auto [train, sim] = experiment.MakeWorkloads(wc_config);
  for (const Box& q : train) hist.Refine(q, experiment.executor());

  std::fputs(FormatBucketTree(hist).c_str(), stdout);
  CensusResult census = CensusSubspaceBuckets(hist);
  std::printf("%zu buckets, %zu subspace\n", hist.bucket_count(),
              census.subspace_buckets);
  if (flags.Has("out")) {
    std::string path = flags.Str("out", "");
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return Status::IoError("cannot write " + path);
    }
    std::string text = hist.Serialize();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("serialized histogram to %s\n", path.c_str());
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// snapshot save/load/verify: versioned binary snapshot files (DESIGN.md §17).
// ---------------------------------------------------------------------------

// `snapshot save`: train an estimator (--estimator, default stholes) exactly
// like `inspect` does, then persist its versioned binary blob ("STHB",
// "STHK", ...) atomically. The printed digest is FNV-1a over the file bytes,
// so two saves agree iff the files do.
Status RunSnapshotSave(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckAllowed(
      {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, STHIST_CLUSTER_FLAGS,
       "buckets", "train", "volume", "init", "out", "estimator"}));
  std::string out = flags.Str("out", "");
  if (out.empty()) {
    return Status::InvalidArgument("snapshot save requires --out <file>");
  }
  StatusOr<std::string> estimator = EstimatorFromFlags(flags);
  if (!estimator.ok()) return estimator.status();
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  Experiment experiment(*std::move(g));

  HistogramConfig hc;
  hc.domain = experiment.domain();
  hc.total_tuples = experiment.total_tuples();
  hc.data = &experiment.data();
  hc.buckets = flags.Size("buckets", 100);
  StatusOr<std::unique_ptr<Histogram>> made = MakeHistogram(*estimator, hc);
  if (!made.ok()) return made.status();
  Histogram& hist = **made;
  if (flags.Has("init")) {
    InitializeHistogram(experiment.Clusters(MineClusFromFlags(flags)),
                        experiment.domain(), experiment.executor(),
                        InitializerConfig{}, &hist);
  }
  ExperimentConfig wc_config;
  wc_config.train_queries = flags.Size("train", 200);
  wc_config.sim_queries = 1;
  wc_config.volume_fraction = flags.Num("volume", 0.01);
  auto [train, sim] = experiment.MakeWorkloads(wc_config);
  for (const Box& q : train) hist.Refine(q, experiment.executor());

  const std::string blob = hist.SerializeBinary();
  if (blob.empty()) {
    return StatusF(StatusCode::kInvalidArgument,
                   "estimator %s does not support binary snapshots",
                   estimator->c_str());
  }
  STHIST_RETURN_IF_ERROR(snapshot_io::WriteFileAtomic(out, blob));
  std::printf("wrote %s: %s, %zu buckets, %zu bytes, digest %016llx\n",
              out.c_str(), estimator->c_str(), hist.bucket_count(),
              blob.size(),
              static_cast<unsigned long long>(binfmt::Fnv1a(blob)));
  return Status::Ok();
}

// `snapshot load` / `snapshot verify`: decode a snapshot file through every
// layer it contains, dispatching on the magic ("STHB" histogram blob, "STHS"
// service container, "STHF" fleet container). Any framing or payload
// violation surfaces as the decoder's Status (exit 1) — this is the
// command-line face of the fail-closed contract the fuzz tests hold. load
// prints a table of the contents; verify prints one OK line for scripts.
Status RunSnapshotLoad(const Flags& flags, bool verify_only) {
  STHIST_RETURN_IF_ERROR(
      flags.CheckAllowed({STHIST_COMMON_FLAGS, "in", "buckets"}));
  std::string path = flags.Str("in", "");
  if (path.empty()) {
    return Status::InvalidArgument(
        std::string("snapshot ") + (verify_only ? "verify" : "load") +
        " requires --in <file>");
  }
  StatusOr<std::string> bytes = snapshot_io::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() < 4) {
    return StatusF(StatusCode::kInvalidArgument,
                   "%s: %zu bytes is too short to hold a snapshot magic",
                   path.c_str(), bytes->size());
  }
  // The bucket budget only matters if the loaded histogram is refined
  // further; decoding never merges, so any value is safe here. Histogram
  // blobs are self-describing (registry.h): RestoreHistogram dispatches on
  // the blob's own magic, so the file works regardless of which estimator
  // wrote it.
  HistogramConfig hc;
  hc.buckets = flags.Size("buckets", 100);
  const unsigned long long file_digest =
      static_cast<unsigned long long>(binfmt::Fnv1a(*bytes));

  std::string kind(bytes->data(), 4);
  if (kind == "STHB" || kind == "STHK") {
    const std::string estimator(EstimatorNameForBlob(*bytes));
    StatusOr<std::unique_ptr<Histogram>> hist = RestoreHistogram(*bytes, hc);
    if (!hist.ok()) return hist.status();
    if (verify_only) {
      std::printf("snapshot OK: %s histogram, %zu buckets, digest %016llx\n",
                  estimator.c_str(), (*hist)->bucket_count(), file_digest);
      return Status::Ok();
    }
    TablePrinter table({"field", "value"});
    table.AddRow({"kind", "histogram (" + kind + ")"});
    table.AddRow({"estimator", estimator});
    table.AddRow({"buckets", FormatSize((*hist)->bucket_count())});
    table.AddRow({"file bytes", FormatSize(bytes->size())});
    table.Print();
  } else if (kind == "STHS") {
    StatusOr<snapshot_io::ServiceSnapshot> snap =
        snapshot_io::DecodeServiceSnapshot(*bytes);
    if (!snap.ok()) return snap.status();
    StatusOr<std::unique_ptr<Histogram>> hist =
        RestoreHistogram(snap->histogram, hc);
    if (!hist.ok()) return hist.status();
    if (verify_only) {
      std::printf(
          "snapshot OK: service (%s), %zu buckets, %llu feedback applied, "
          "digest %016llx\n",
          snap->estimator.c_str(), (*hist)->bucket_count(),
          static_cast<unsigned long long>(snap->applied_feedback),
          file_digest);
      return Status::Ok();
    }
    TablePrinter table({"field", "value"});
    table.AddRow({"kind", "service (STHS)"});
    table.AddRow({"estimator", snap->estimator});
    table.AddRow({"buckets", FormatSize((*hist)->bucket_count())});
    table.AddRow({"feedback applied",
                  FormatSize(static_cast<size_t>(snap->applied_feedback))});
    table.AddRow({"file bytes", FormatSize(bytes->size())});
    table.Print();
  } else if (kind == "STHF") {
    StatusOr<snapshot_io::FleetSnapshot> snap =
        snapshot_io::DecodeFleetSnapshot(*bytes);
    if (!snap.ok()) return snap.status();
    size_t total_buckets = 0;
    for (const snapshot_io::FleetTenant& tenant : snap->tenants) {
      StatusOr<std::unique_ptr<Histogram>> hist =
          RestoreHistogram(tenant.histogram, hc);
      if (!hist.ok()) {
        return StatusF(StatusCode::kInvalidArgument, "tenant '%s': %s",
                       tenant.key.c_str(), hist.status().message().c_str());
      }
      total_buckets += (*hist)->bucket_count();
    }
    if (verify_only) {
      std::printf(
          "snapshot OK: fleet, %zu tenants, %zu buckets, digest %016llx\n",
          snap->tenants.size(), total_buckets, file_digest);
      return Status::Ok();
    }
    TablePrinter table({"field", "value"});
    table.AddRow({"kind", "fleet (STHF)"});
    table.AddRow({"tenants", FormatSize(snap->tenants.size())});
    table.AddRow({"total buckets", FormatSize(total_buckets)});
    table.AddRow({"seed", FormatSize(static_cast<size_t>(snap->seed))});
    table.AddRow({"file bytes", FormatSize(bytes->size())});
    table.Print();
  } else {
    return StatusF(StatusCode::kInvalidArgument,
                   "%s: unrecognized snapshot magic \"%.4s\"", path.c_str(),
                   bytes->data());
  }
  std::printf("digest %016llx\n", file_digest);
  return Status::Ok();
}

// Drift-mode serving simulation (`serve-sim --drift <scenario>`): a
// deterministic replay driver streams a DriftSchedule's phases through the
// service (estimate, then feedback) while optional read-only probe threads
// hammer the published snapshot, and — unless --no-reinit — the stagnation
// detector + reservoir re-initialization recover from the drift online
// (DESIGN.md §14). The driver Drains at phase boundaries and on queue-full,
// so the run is replayable: same flags, same trigger/swap sequence.
Status RunServeSimDrift(const Flags& flags) {
  StatusOr<DriftScenario> scenario =
      ParseDriftScenario(flags.Str("drift", "cross-move"));
  if (!scenario.ok()) return scenario.status();

  DriftConfig dc;
  dc.scenario = *scenario;
  dc.phases = flags.Size("drift-phases", 4);
  dc.seed = static_cast<uint64_t>(flags.Num("drift-seed", 17));
  dc.dim = flags.Size("dim", 2);
  dc.tuples = flags.Size("drift-tuples", 22000);
  dc.move_span = flags.Num("drift-span", 0.6);

  const size_t total_queries = flags.Size("queries", 20000);
  if (total_queries == 0) {
    return Status::InvalidArgument("--queries must be > 0");
  }
  WorkloadConfig wc;
  wc.num_queries =
      std::max<size_t>(total_queries / std::max<size_t>(dc.phases, 1), 1);
  wc.volume_fraction = flags.Num("volume", 0.01);

  StatusOr<DriftSchedule> schedule = MakeDriftSchedule(dc, wc);
  if (!schedule.ok()) return schedule.status();
  PhasedOracle oracle(*schedule);
  const Box& domain = schedule->domain();

  // The service starts on a histogram trained for phase 0 (with --init, the
  // paper's MineClus-seeded initialization over the phase-0 snapshot), so
  // the drift — not a cold start — is what degrades it.
  STHolesConfig hc;
  hc.max_buckets = flags.Size("buckets", 100);
  auto hist = std::make_unique<STHoles>(domain, oracle.Count(domain), hc);
  if (flags.Has("init")) {
    std::vector<SubspaceCluster> clusters = RunMineClus(
        schedule->phase(0).data.data, domain, MineClusFromFlags(flags));
    InitializeHistogram(clusters, domain, oracle, InitializerConfig{},
                        hist.get());
  }
  WorkloadConfig train_wc = wc;
  train_wc.num_queries = flags.Size("train", 200);
  train_wc.centers = CenterDistribution::kData;
  train_wc.seed = DeriveSeed(dc.seed, 0x7A);
  StatusOr<Workload> train =
      MakeWorkloadChecked(domain, train_wc, &schedule->phase(0).data.data);
  if (!train.ok()) return train.status();
  for (const Box& q : *train) hist->Refine(q, oracle);

  ServiceConfig sc;
  sc.queue_capacity = flags.Size("queue-cap", sc.queue_capacity);
  sc.publish_batch = flags.Size("publish-batch", sc.publish_batch);
  if (sc.queue_capacity == 0 || sc.publish_batch == 0) {
    return Status::InvalidArgument(
        "--queue-cap and --publish-batch must be > 0");
  }
  sc.metrics = obs::GlobalMetrics();
  sc.faults = FaultsFromFlags(flags);

  ReinitConfig& reinit = sc.reinit;
  reinit.enabled = !flags.Has("no-reinit");
  reinit.domain = domain;
  reinit.detector.window = flags.Size("reinit-window", 128);
  reinit.detector.trigger_nae =
      flags.Num("reinit-trigger", reinit.detector.trigger_nae);
  reinit.detector.rearm_nae =
      flags.Num("reinit-rearm", reinit.detector.rearm_nae);
  reinit.detector.cooldown = flags.Size("reinit-cooldown", 256);
  reinit.detector.retrigger_backstop =
      flags.Size("reinit-backstop", reinit.detector.retrigger_backstop);
  reinit.reservoir.capacity =
      flags.Size("reinit-reservoir", reinit.reservoir.capacity);
  reinit.mineclus = MineClusFromFlags(flags);
  reinit.max_buckets = flags.Size("reinit-buckets", hc.max_buckets);
  reinit.background = !flags.Has("reinit-sync");
  reinit.rebuild_faults.rate = flags.Num("fault-reinit-rate", 0.0);
  reinit.rebuild_faults.seed =
      static_cast<uint64_t>(flags.Num("fault-reinit-seed", 99));
  if (reinit.enabled) {
    // Validate before construction: the service CHECK-aborts on bad knobs,
    // the CLI reports them.
    STHIST_RETURN_IF_ERROR(Validate(reinit.detector));
    STHIST_RETURN_IF_ERROR(Validate(reinit.reservoir));
  }
  HistogramService service(std::move(hist), oracle, sc);

  // Read-only probe threads: they measure that the snapshot stays servable
  // through rebuilds but never submit feedback, so they cannot perturb the
  // deterministic replay below.
  const size_t readers = flags.Size("readers", 2);
  std::atomic<bool> probes_stop{false};
  std::vector<std::thread> probes;
  probes.reserve(readers);
  std::atomic<double> sink{0.0};
  for (size_t r = 0; r < readers; ++r) {
    probes.emplace_back([&, r] {
      const Workload& queries = schedule->phase(0).queries;
      double local = 0.0;
      for (size_t i = 0; !probes_stop.load(std::memory_order_relaxed); ++i) {
        local += service.Estimate(queries[(r * 31 + i) % queries.size()]);
      }
      sink.fetch_add(local);
    });
  }

  // The replay driver: one thread, FIFO feedback, Drain at every phase
  // boundary (the oracle must not change phase under queued feedback) and
  // on backpressure.
  // Pacing: Drain every `pace` submissions. A free-running driver outraces
  // the refiner by a whole queue, so every served estimate in a phase would
  // come from the previous phase's histogram no matter how well re-init
  // works; draining at a bounded cadence emulates a production arrival rate
  // the refiner can keep up with, without giving up replayability.
  const size_t pace = std::max<size_t>(flags.Size("pace", sc.publish_batch),
                                       1);
  struct PhaseRow {
    double mae = 0.0;
    double trivial_mae = 0.0;
    size_t queries = 0;
    size_t triggers = 0;
    size_t swaps = 0;
    double rolling_nae = 0.0;
  };
  std::vector<PhaseRow> rows(schedule->phase_count());
  auto t0 = std::chrono::steady_clock::now();
  size_t since_drain = 0;
  for (size_t p = 0; p < schedule->phase_count(); ++p) {
    oracle.SetPhase(p);
    TrivialHistogram trivial(domain, oracle.Count(domain));
    PhaseRow& row = rows[p];
    for (const Box& q : schedule->phase(p).queries) {
      const double est = service.Estimate(q);
      const double actual = oracle.Count(q);
      row.mae += std::abs(est - actual);
      row.trivial_mae += std::abs(trivial.Estimate(q) - actual);
      ++row.queries;
      if (service.SubmitFeedback(q, est) == FeedbackOutcome::kQueueFull) {
        STHIST_RETURN_IF_ERROR(service.Drain());
        (void)service.SubmitFeedback(q, est);
      }
      if (++since_drain >= pace) {
        since_drain = 0;
        STHIST_RETURN_IF_ERROR(service.Drain());
      }
    }
    STHIST_RETURN_IF_ERROR(service.Drain());
    ServiceStats at_phase_end = service.stats();
    row.triggers = at_phase_end.reinit_triggers;
    row.swaps = at_phase_end.reinit_swaps_completed;
    row.rolling_nae = at_phase_end.rolling_nae;
  }
  double drive_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  probes_stop.store(true);
  for (std::thread& t : probes) t.join();
  service.Stop();

  std::printf("drift scenario: %s (%zu phases, %zu queries/phase)\n",
              DriftScenarioName(schedule->scenario()),
              schedule->phase_count(), wc.num_queries);
  TablePrinter phases({"phase", "queries", "MAE", "NAE", "NAE(roll)",
                       "triggers", "swaps"});
  for (size_t p = 0; p < rows.size(); ++p) {
    const PhaseRow& row = rows[p];
    const double n = static_cast<double>(std::max<size_t>(row.queries, 1));
    const double nae =
        row.trivial_mae > 0.0 ? row.mae / row.trivial_mae : 0.0;
    phases.AddRow({FormatSize(p), FormatSize(row.queries),
                   FormatDouble(row.mae / n, 1), FormatDouble(nae, 4),
                   FormatDouble(row.rolling_nae, 4), FormatSize(row.triggers),
                   FormatSize(row.swaps)});
  }
  phases.Print();

  ServiceStats stats = service.stats();
  TablePrinter table({"metric", "value"});
  table.AddRow({"probe readers", FormatSize(readers)});
  table.AddRow({"reads served", FormatSize(stats.reads_served)});
  table.AddRow({"feedback accepted", FormatSize(stats.feedback_accepted)});
  table.AddRow({"feedback dropped", FormatSize(stats.feedback_dropped())});
  table.AddRow({"feedback applied", FormatSize(stats.feedback_applied)});
  table.AddRow({"snapshot epoch", FormatSize(stats.snapshot_epoch)});
  table.AddRow({"reinit triggers", FormatSize(stats.reinit_triggers)});
  table.AddRow({"swaps completed", FormatSize(stats.reinit_swaps_completed)});
  table.AddRow({"swaps aborted", FormatSize(stats.reinit_swaps_aborted)});
  table.AddRow({"replayed feedback", FormatSize(stats.reinit_replayed)});
  table.AddRow({"reservoir size", FormatSize(stats.reservoir_size)});
  table.AddRow({"rolling NAE", FormatDouble(stats.rolling_nae, 4)});
  table.AddRow({"drive s", FormatDouble(drive_seconds, 2)});
  table.Print();

  const Histogram& snapshot = *service.snapshot();
  std::printf("final snapshot: %zu buckets, robustness events %zu\n",
              snapshot.bucket_count(), snapshot.robustness().total());
  std::printf("--- metrics ---\n%s", obs::GlobalMetrics()->ToText().c_str());
  return Status::Ok();
}

// Deterministic serve-sim replay (`serve-sim --pace P`, `--snapshot FILE`,
// `--snapshot-every N`, `--restore FILE`): a single driver thread streams the
// simulation workload through the service in FIFO order, draining every
// `pace` submissions, so the final snapshot — and the "serve digest" printed
// at the end — is a pure function of the flags. `--snapshot-every N` cuts a
// Drain-barriered STHS snapshot every N queries; `--restore FILE` starts
// from such a snapshot instead of pre-training and skips the queries its
// watermark says were already applied. Because refinement consumes only the
// executed queries (never the served estimates), a restored run replays to
// the bit-identical digest of the uninterrupted run — the warm-restart
// contract CI's crash-recovery smoke and tests/snapshot_persist_test.cc
// hold. The restored run must use the same dataset/workload/bucket flags as
// the saved one; only --restore and the snapshot flags may differ.
Status RunServeSimReplay(const Flags& flags) {
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  Experiment experiment(*std::move(g));

  const size_t total_queries = flags.Size("queries", 20000);
  if (total_queries == 0) {
    return Status::InvalidArgument("--queries must be > 0");
  }

  STHolesConfig hc;
  hc.max_buckets = flags.Size("buckets", 100);
  std::unique_ptr<Histogram> hist;
  size_t skip = 0;  // Queries already baked into the restored histogram.
  if (flags.Has("restore")) {
    const std::string from = flags.Str("restore", "");
    StatusOr<std::string> bytes = snapshot_io::ReadFile(from);
    if (!bytes.ok()) return bytes.status();
    StatusOr<snapshot_io::ServiceSnapshot> snap =
        snapshot_io::DecodeServiceSnapshot(*bytes);
    if (!snap.ok()) return snap.status();
    // Registry dispatch on the blob's own magic: the replay restores
    // whichever estimator family the snapshot was saved from.
    HistogramConfig rc;
    rc.buckets = hc.max_buckets;
    StatusOr<std::unique_ptr<Histogram>> restored =
        RestoreHistogram(snap->histogram, rc);
    if (!restored.ok()) return restored.status();
    hist = *std::move(restored);
    skip = static_cast<size_t>(snap->applied_feedback);
    std::fprintf(stderr,
                 "restored %s (%s): %zu buckets, resuming after %zu queries\n",
                 from.c_str(), snap->estimator.c_str(), hist->bucket_count(),
                 skip);
  } else {
    hist = std::make_unique<STHoles>(experiment.domain(),
                                     experiment.total_tuples(), hc);
    if (flags.Has("init")) {
      InitializeHistogram(experiment.Clusters(MineClusFromFlags(flags)),
                          experiment.domain(), experiment.executor(),
                          InitializerConfig{}, hist.get());
    }
  }

  // Both runs build identical workloads; the restored one just skips the
  // pre-train refines (they are part of the snapshot) and the first `skip`
  // simulation queries (the watermark says the refiner already applied them).
  ExperimentConfig wc_config;
  wc_config.train_queries = flags.Size("train", 200);
  wc_config.sim_queries = total_queries;
  wc_config.volume_fraction = flags.Num("volume", 0.01);
  auto [train, sim] = experiment.MakeWorkloads(wc_config);
  if (!flags.Has("restore")) {
    for (const Box& q : train) hist->Refine(q, experiment.executor());
  }
  if (skip > sim.size()) {
    return StatusF(StatusCode::kInvalidArgument,
                   "snapshot watermark %zu exceeds --queries %zu "
                   "(was the snapshot saved by a longer run?)",
                   skip, sim.size());
  }

  ServiceConfig sc;
  sc.queue_capacity = flags.Size("queue-cap", sc.queue_capacity);
  sc.publish_batch = flags.Size("publish-batch", sc.publish_batch);
  if (sc.queue_capacity == 0 || sc.publish_batch == 0) {
    return Status::InvalidArgument(
        "--queue-cap and --publish-batch must be > 0");
  }
  sc.clone_publish = flags.Has("clone-publish");
  sc.restored_feedback = skip;
  sc.metrics = obs::GlobalMetrics();
  HistogramService service(std::move(hist), experiment.executor(), sc);

  const size_t pace = std::max<size_t>(flags.Size("pace", 1), 1);
  const size_t snapshot_every = flags.Size("snapshot-every", 0);
  const std::string snapshot_path = flags.Str("snapshot", "serve.snap");
  if (snapshot_every > 0 && !flags.Has("snapshot")) {
    return Status::InvalidArgument("--snapshot-every needs --snapshot <file>");
  }

  auto t0 = std::chrono::steady_clock::now();
  double sink = 0.0;
  size_t saves = 0;
  for (size_t i = skip; i < sim.size(); ++i) {
    const Box& q = sim[i];
    sink += service.Estimate(q);
    if (service.SubmitFeedback(q) == FeedbackOutcome::kQueueFull) {
      // Drain-and-resubmit instead of shedding: the replay must apply every
      // query or the watermark would no longer count queries.
      STHIST_RETURN_IF_ERROR(service.Drain());
      (void)service.SubmitFeedback(q);
    }
    if ((i + 1 - skip) % pace == 0) {
      STHIST_RETURN_IF_ERROR(service.Drain());
    }
    if (snapshot_every > 0 && (i + 1) % snapshot_every == 0) {
      STHIST_RETURN_IF_ERROR(service.Drain());
      STHIST_RETURN_IF_ERROR(service.SaveSnapshot(snapshot_path));
      ++saves;
    }
  }
  STHIST_RETURN_IF_ERROR(service.Drain());
  if (flags.Has("snapshot")) {
    STHIST_RETURN_IF_ERROR(service.SaveSnapshot(snapshot_path));
    ++saves;
  }
  double drive_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  service.Stop();

  ServiceStats stats = service.stats();
  TablePrinter table({"metric", "value"});
  table.AddRow({"queries replayed", FormatSize(sim.size() - skip)});
  table.AddRow({"queries skipped", FormatSize(skip)});
  table.AddRow({"feedback applied", FormatSize(stats.feedback_applied)});
  table.AddRow({"snapshot epoch", FormatSize(stats.snapshot_epoch)});
  table.AddRow({"snapshot saves", FormatSize(saves)});
  table.AddRow({"drive s", FormatDouble(drive_seconds, 2)});
  table.Print();

  // The determinism digest: FNV-1a over the final snapshot's estimates on
  // the full simulation workload (skipped prefix included, so interrupted
  // and uninterrupted runs fold the same probes).
  std::shared_ptr<const Histogram> snapshot = service.snapshot();
  uint64_t digest = kDigestSeed;
  for (const Box& probe : sim) {
    FoldDigest(std::bit_cast<uint64_t>(snapshot->Estimate(probe)), &digest);
  }
  std::printf("final snapshot: %zu buckets\n", snapshot->bucket_count());
  std::printf("serve digest: %016llx\n",
              static_cast<unsigned long long>(digest));
  std::printf("--- metrics ---\n%s", obs::GlobalMetrics()->ToText().c_str());
  return Status::Ok();
}

// Simulates production serving: R reader threads issue estimates against
// the published snapshot while every executed query's feedback streams back
// through the service's bounded queue into the single refiner. Prints the
// ServiceStats counters plus read throughput.
Status RunServeSim(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckAllowed(
      {STHIST_COMMON_FLAGS, STHIST_DATASET_FLAGS, STHIST_CLUSTER_FLAGS,
       STHIST_FAULT_FLAGS, STHIST_DRIFT_FLAGS, STHIST_REINIT_FLAGS,
       "buckets", "train", "queries", "readers", "volume", "init",
       "queue-cap", "publish-batch", "batch", "snapshot", "snapshot-every",
       "restore", "clone-publish"}));
  if (flags.Has("drift")) return RunServeSimDrift(flags);
  if (flags.Has("pace") || flags.Has("snapshot") ||
      flags.Has("snapshot-every") || flags.Has("restore")) {
    return RunServeSimReplay(flags);
  }
  StatusOr<GeneratedData> g = ResolveDataset(flags);
  if (!g.ok()) return g.status();
  Experiment experiment(*std::move(g));

  const size_t readers = flags.Size("readers", 4);
  const size_t total_queries = flags.Size("queries", 20000);
  if (readers == 0 || total_queries == 0) {
    return Status::InvalidArgument("--readers and --queries must be > 0");
  }

  // Pre-train the histogram the service starts from.
  STHolesConfig hc;
  hc.max_buckets = flags.Size("buckets", 100);
  auto hist = std::make_unique<STHoles>(experiment.domain(),
                                        experiment.total_tuples(), hc);
  if (flags.Has("init")) {
    InitializeHistogram(experiment.Clusters(MineClusFromFlags(flags)),
                        experiment.domain(), experiment.executor(),
                        InitializerConfig{}, hist.get());
  }
  ExperimentConfig wc_config;
  wc_config.train_queries = flags.Size("train", 200);
  wc_config.sim_queries = std::max<size_t>(total_queries / readers, 1);
  wc_config.volume_fraction = flags.Num("volume", 0.01);
  auto [train, sim] = experiment.MakeWorkloads(wc_config);
  for (const Box& q : train) hist->Refine(q, experiment.executor());

  ServiceConfig sc;
  sc.queue_capacity = flags.Size("queue-cap", sc.queue_capacity);
  sc.publish_batch = flags.Size("publish-batch", sc.publish_batch);
  // Batched estimation threads for the final pass below. Defaults to a
  // small pool (not hardware concurrency) so the pool layer shows up in the
  // metrics dump even on a single-core box; results are bitwise-identical
  // at any value, so oversubscription only costs wall clock. --batch N
  // overrides; --batch 0 (or bare --batch) = hardware concurrency.
  sc.estimate_threads = flags.Has("batch") ? flags.Size("batch", 0) : 4;
  if (sc.queue_capacity == 0 || sc.publish_batch == 0) {
    return Status::InvalidArgument(
        "--queue-cap and --publish-batch must be > 0");
  }
  // --fault-* applies to the serving loop too: the refiner's oracle answers
  // (detector observations and Refine feedback counts) flow through a
  // deterministic FaultyOracle. Readers never consult the oracle.
  sc.faults = FaultsFromFlags(flags);
  // The service's serve.service.* counters land in the same process-wide
  // registry as everything else, so the final /metrics dump is one document.
  sc.metrics = obs::GlobalMetrics();
  HistogramService service(std::move(hist), experiment.executor(), sc);

  // Readers: estimate, then feed the executed query back — the full online
  // loop, except reads never wait for the refiner.
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(readers);
  std::atomic<double> sink{0.0};
  const size_t per_reader = std::max<size_t>(total_queries / readers, 1);
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      while (!start.load()) std::this_thread::yield();
      double local = 0.0;
      for (size_t i = 0; i < per_reader; ++i) {
        const Box& q = sim[(r * 17 + i) % sim.size()];
        local += service.Estimate(q);
        (void)service.SubmitFeedback(q);
      }
      sink.fetch_add(local);
    });
  }
  auto t0 = std::chrono::steady_clock::now();
  start.store(true);
  for (std::thread& t : threads) t.join();
  double read_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  service.Stop();  // Drain the backlog and publish the final snapshot.
  double total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // One batched pass over the simulation workload against the final
  // snapshot: exercises the EstimateBatch fan-out (and with it the thread
  // pool) on the exact histogram the readers ended on.
  std::vector<double> batched = service.EstimateBatch(sim);
  double batched_sum = 0.0;
  for (double est : batched) batched_sum += est;

  ServiceStats stats = service.stats();
  TablePrinter table({"metric", "value"});
  table.AddRow({"reader threads", FormatSize(readers)});
  table.AddRow({"reads served", FormatSize(stats.reads_served)});
  table.AddRow(
      {"reads/s", FormatDouble(static_cast<double>(stats.reads_served) /
                                   read_seconds,
                               0)});
  table.AddRow({"feedback accepted", FormatSize(stats.feedback_accepted)});
  table.AddRow({"feedback dropped", FormatSize(stats.feedback_dropped())});
  table.AddRow({"feedback applied", FormatSize(stats.feedback_applied)});
  table.AddRow({"snapshot epoch", FormatSize(stats.snapshot_epoch)});
  table.AddRow({"final staleness", FormatSize(stats.staleness)});
  table.AddRow({"last publish ms",
                FormatDouble(stats.last_publish_seconds * 1e3, 2)});
  table.AddRow({"max publish ms",
                FormatDouble(stats.max_publish_seconds * 1e3, 2)});
  table.AddRow({"drain+total s", FormatDouble(total_seconds, 2)});
  table.AddRow({"batched queries", FormatSize(batched.size())});
  table.AddRow({"batched mean est",
                FormatDouble(batched.empty()
                                 ? 0.0
                                 : batched_sum /
                                       static_cast<double>(batched.size()),
                             1)});
  table.Print();

  const Histogram& snapshot = *service.snapshot();
  std::printf("final snapshot: %zu buckets, robustness events %zu\n",
              snapshot.bucket_count(), snapshot.robustness().total());

  // The /metrics-style dump: every layer the simulation touched, one line
  // per metric (DESIGN.md §13).
  std::printf("--- metrics ---\n%s", obs::GlobalMetrics()->ToText().c_str());
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// fleet-sim: sharded multi-tenant serving through a shared refiner pool.
// ---------------------------------------------------------------------------

Status RunFleetSim(const Flags& flags) {
  STHIST_RETURN_IF_ERROR(flags.CheckAllowed(
      {STHIST_COMMON_FLAGS, "tenants", "refiners", "queries", "buckets",
       "readers", "pace", "seed", "queue-cap", "publish-batch", "snapshot",
       "restore", "clone-publish"}));

  size_t tenants = flags.Size("tenants", 16);
  const size_t per_tenant = flags.Size("queries", 64);
  const size_t buckets = flags.Size("buckets", 24);
  const size_t readers = flags.Size("readers", 0);
  const size_t pace = flags.Size("pace", 0);
  uint64_t seed = static_cast<uint64_t>(flags.Num("seed", 1));

  // --restore hands the fleet off from an "STHF" snapshot: tenant count,
  // keys, seed, and per-tenant histograms all come from the file (so the
  // digest of a `--queries 0` restore matches the digest the saving run
  // printed); --tenants/--seed are ignored. The keys must be fleet-sim's own
  // tenant_<index> keys — the index recovers which data variant the tenant
  // serves.
  snapshot_io::FleetSnapshot restored;
  const bool restoring = flags.Has("restore");
  if (restoring) {
    StatusOr<std::string> bytes =
        snapshot_io::ReadFile(flags.Str("restore", ""));
    if (!bytes.ok()) return bytes.status();
    StatusOr<snapshot_io::FleetSnapshot> snap =
        snapshot_io::DecodeFleetSnapshot(*bytes);
    if (!snap.ok()) return snap.status();
    restored = *std::move(snap);
    tenants = restored.tenants.size();
    seed = restored.seed;
    std::fprintf(stderr, "restored %s: %zu tenants, seed %llu\n",
                 flags.Str("restore", "").c_str(), tenants,
                 static_cast<unsigned long long>(seed));
  }
  if (tenants == 0 || buckets == 0 || (per_tenant == 0 && !restoring)) {
    return Status::InvalidArgument(
        "--tenants, --queries, and --buckets must be > 0");
  }

  FleetConfig fc;
  fc.refiners = flags.Size("refiners", fc.refiners);
  fc.queue_capacity = flags.Size("queue-cap", fc.queue_capacity);
  fc.publish_batch = flags.Size("publish-batch", fc.publish_batch);
  fc.seed = seed;
  fc.clone_publish = flags.Has("clone-publish");
  fc.metrics = obs::GlobalMetrics();
  if (fc.refiners == 0 || fc.queue_capacity == 0 || fc.publish_batch == 0) {
    return Status::InvalidArgument(
        "--refiners, --queue-cap, and --publish-batch must be > 0");
  }

  // Shared data variants: tenants alternate over two small cross datasets —
  // a fleet of many histograms over few underlying tables, the multi-tenant
  // shape DESIGN.md §16 targets. Dataset seeds derive from --seed so the
  // whole simulation is one seed away from reproducible.
  struct Variant {
    explicit Variant(GeneratedData generated) : g(std::move(generated)) {}
    GeneratedData g;
    std::unique_ptr<Executor> executor;
  };
  std::vector<std::unique_ptr<Variant>> variants;
  for (size_t v = 0; v < std::min<size_t>(tenants, 2); ++v) {
    CrossConfig config;
    config.tuples_per_cluster = 600 - 200 * v;
    config.noise_tuples = config.tuples_per_cluster / 5;
    config.seed = DeriveSeed(seed, 101 + v);
    STHIST_RETURN_IF_ERROR(Validate(config));
    auto variant = std::make_unique<Variant>(MakeCross(config));
    variant->executor = std::make_unique<Executor>(variant->g.data);
    variants.push_back(std::move(variant));
  }

  ServiceFleet fleet(fc);
  std::vector<std::string> keys;
  std::vector<Workload> streams;
  keys.reserve(tenants);
  streams.reserve(tenants);
  for (size_t t = 0; t < tenants; ++t) {
    size_t variant_index = t;
    STHolesConfig hc;
    hc.max_buckets = buckets;
    std::unique_ptr<Histogram> hist;
    if (restoring) {
      const snapshot_io::FleetTenant& tenant = restored.tenants[t];
      const std::string& key = tenant.key;
      keys.push_back(key);
      const size_t underscore = key.rfind('_');
      char* end = nullptr;
      variant_index = underscore == std::string::npos
                          ? 0
                          : std::strtoul(key.c_str() + underscore + 1, &end,
                                         10);
      if (underscore == std::string::npos || end == nullptr || *end != '\0') {
        return StatusF(StatusCode::kInvalidArgument,
                       "tenant key '%s' is not a fleet-sim tenant_<index> "
                       "key; cannot map it to a data variant",
                       key.c_str());
      }
      // Self-describing tenant blobs: the registry restores whichever
      // estimator family each tenant was saved from.
      HistogramConfig rc;
      rc.buckets = buckets;
      StatusOr<std::unique_ptr<Histogram>> decoded =
          RestoreHistogram(tenant.histogram, rc);
      if (!decoded.ok()) return decoded.status();
      hist = *std::move(decoded);
    } else {
      keys.push_back("tenant_" + std::to_string(t));
      Variant& v = *variants[t % variants.size()];
      hist = std::make_unique<STHoles>(
          v.g.domain, static_cast<double>(v.g.data.size()), hc);
    }
    Variant& v = *variants[variant_index % variants.size()];
    STHIST_RETURN_IF_ERROR(
        fleet.AddTenant(keys.back(), std::move(hist), *v.executor));
    // Each tenant's feedback stream is seeded from its fleet identity:
    // pure in (--seed, key), so the streams — and with --pace 1 the final
    // snapshots — replay bit-identically at any --refiners.
    WorkloadConfig wc;
    wc.num_queries = per_tenant;
    wc.volume_fraction = 0.01;
    wc.seed = fleet.TenantId(keys.back());
    streams.push_back(MakeWorkload(v.g.domain, wc));
  }

  // Optional background readers: pure snapshot traffic across the fleet
  // while the driver below writes. CI's determinism smoke runs --readers 0;
  // interactive runs use readers to put load on the shared-lock map path.
  std::atomic<bool> readers_stop{false};
  std::vector<std::thread> reader_threads;
  reader_threads.reserve(readers);
  for (size_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      size_t i = 0;
      while (!readers_stop.load(std::memory_order_relaxed)) {
        size_t t = (r * 7 + i) % tenants;
        (void)fleet.Estimate(keys[t], streams[t][i % streams[t].size()]);
        ++i;
      }
    });
  }

  // Deterministic driver: tenant-major round-robin, estimate + feed back.
  // --pace P drains the whole fleet every P submissions; --pace 1 is the
  // fully serialized replay the determinism smoke diffs.
  auto t0 = std::chrono::steady_clock::now();
  double sink = 0.0;
  size_t submitted = 0;
  size_t shed = 0;
  // A restored fleet serves the handed-off histograms as-is: the driver is
  // skipped so the digest below can be diffed against the one the saving
  // run printed (same --queries, zero new feedback).
  for (size_t i = 0; !restoring && i < per_tenant; ++i) {
    for (size_t t = 0; t < tenants; ++t) {
      const Box& q = streams[t][i];
      StatusOr<double> est = fleet.Estimate(keys[t], q);
      if (!est.ok()) return est.status();
      sink += *est;
      StatusOr<FleetFeedbackOutcome> outcome = fleet.SubmitFeedback(keys[t], q);
      if (!outcome.ok()) return outcome.status();
      if (*outcome != FleetFeedbackOutcome::kAccepted) ++shed;
      ++submitted;
      if (pace != 0 && submitted % pace == 0) {
        STHIST_RETURN_IF_ERROR(fleet.Drain());
      }
    }
  }
  STHIST_RETURN_IF_ERROR(fleet.Drain());
  if (flags.Has("snapshot")) {
    const std::string path = flags.Str("snapshot", "");
    if (path.empty()) return Status::InvalidArgument("--snapshot needs a path");
    STHIST_RETURN_IF_ERROR(fleet.SaveSnapshot(path));
    std::fprintf(stderr, "saved fleet snapshot to %s\n", path.c_str());
  }
  double drive_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  readers_stop.store(true);
  for (std::thread& rt : reader_threads) rt.join();
  fleet.Stop();

  // Determinism digest: FNV-1a over every tenant's identity and its final
  // snapshot's probe estimates (the tenant's own stream), in sorted key
  // order. Identical digests across runs/refiner counts == identical
  // published histograms, bit for bit.
  uint64_t digest = kDigestSeed;
  std::vector<std::string> sorted_keys = fleet.TenantKeys();
  for (const std::string& key : sorted_keys) {
    FoldDigest(fleet.TenantId(key), &digest);
    std::shared_ptr<const Histogram> snap = fleet.Snapshot(key);
    if (snap == nullptr) return Status::NotFound("lost snapshot: " + key);
    size_t t = 0;
    while (t < tenants && keys[t] != key) ++t;
    for (const Box& probe : streams[t]) {
      FoldDigest(std::bit_cast<uint64_t>(snap->Estimate(probe)), &digest);
    }
  }

  FleetStats stats = fleet.stats();
  TablePrinter table({"metric", "value"});
  table.AddRow({"tenants", FormatSize(stats.tenants)});
  table.AddRow({"refiners", FormatSize(fc.refiners)});
  table.AddRow({"reader threads", FormatSize(readers)});
  table.AddRow({"reads served", FormatSize(stats.reads_served)});
  table.AddRow({"feedback accepted", FormatSize(stats.feedback_accepted)});
  table.AddRow({"feedback shed", FormatSize(stats.feedback_dropped())});
  table.AddRow({"feedback applied", FormatSize(stats.feedback_applied)});
  table.AddRow({"publishes", FormatSize(stats.publishes)});
  table.AddRow({"shard runs", FormatSize(stats.shard_runs)});
  table.AddRow({"driver shed", FormatSize(shed)});
  table.AddRow({"drive s", FormatDouble(drive_seconds, 2)});
  table.AddRow(
      {"mean estimate",
       FormatDouble(
           submitted == 0 ? 0.0 : sink / static_cast<double>(submitted), 1)});
  table.Print();

  std::printf("fleet digest: %016llx\n",
              static_cast<unsigned long long>(digest));
  std::printf("--- metrics ---\n%s", obs::GlobalMetrics()->ToText().c_str());
  return Status::Ok();
}

void PrintUsage() {
  std::fputs(
      "usage: sthist_cli <command> [--flag value ...]\n"
      "\n"
      "commands:\n"
      "  generate    write a synthetic dataset to CSV\n"
      "              --dataset cross|gauss|sky|particle --tuples N --dim D\n"
      "              --seed S --out file.csv\n"
      "  cluster     run subspace clustering and print the clusters\n"
      "              --dataset ...|--data file.csv\n"
      "              --clusterer mineclus|clique|doc\n"
      "              mineclus/doc: --alpha A --beta B --width W\n"
      "              clique: --xi N --tau T --max-dims K\n"
      "  experiment  train/simulate an estimator and report errors\n"
      "              --estimator NAME picks the family (default stholes;\n"
      "              trivial|equiwidth|avi|sampling|mhist|stgrid|isomer|\n"
      "              stholes|kde — see histogram/registry.h)\n"
      "              --buckets N --train N --sim N --volume F [--init]\n"
      "              [--reversed] [--freeze] [--data-centers] + cluster "
      "flags\n"
      "              [--batch [N]] batch measurement estimates over N\n"
      "              threads (bare --batch = all cores); same results,\n"
      "              faster measurement\n"
      "              fault injection: --fault-rate R --fault-seed S\n"
      "              --fault-noise F [--fault-data]\n"
      "  sweep       run a grid of experiment cells across threads\n"
      "              --buckets 50,100,250 --seeds 21,22 [--init|--both]\n"
      "              --threads N (0 = all cores) [--estimator NAME]\n"
      "              + experiment flags\n"
      "  inspect     print the bucket tree after training\n"
      "              --buckets N --train N [--init] [--out hist.txt]\n"
      "  snapshot    versioned binary snapshot files (DESIGN.md §17)\n"
      "              save:   train a histogram and persist it\n"
      "                      --out file.snap [--estimator NAME]\n"
      "                      + inspect's training flags\n"
      "              load:   decode a .snap file and print its contents\n"
      "              verify: decode, fail closed on any corruption\n"
      "                      --in file.snap (histogram, service, or fleet\n"
      "                      snapshots are auto-detected by magic)\n"
      "  serve-sim   concurrent serving simulation: reader threads estimate\n"
      "              against published snapshots while the refiner drains\n"
      "              their feedback; ends with a /metrics-style dump\n"
      "              --readers N --queries N --buckets N --train N [--init]\n"
      "              --queue-cap N --publish-batch N [--batch [N]]\n"
      "              + cluster flags; --fault-rate R injects faults into\n"
      "              the refiner's oracle answers\n"
      "              drift mode: --drift cross-move|churn|hotspot|adversarial\n"
      "              --drift-phases N --drift-seed S --drift-tuples N\n"
      "              --drift-span F --dim D; stagnation re-init is on by\n"
      "              default (--no-reinit disables): --reinit-window N\n"
      "              --reinit-trigger F --reinit-rearm F --reinit-cooldown N\n"
      "              --reinit-backstop N --reinit-reservoir N\n"
      "              --reinit-buckets N [--reinit-sync]\n"
      "              --fault-reinit-rate R --fault-reinit-seed S inject\n"
      "              faults into the rebuild path (aborted swaps keep the\n"
      "              incumbent serving)\n"
      "              replay mode (--pace, --snapshot, --snapshot-every, or\n"
      "              --restore without --drift): one deterministic driver\n"
      "              thread, drains every --pace P queries, prints a\n"
      "              'serve digest' that is a pure function of the flags;\n"
      "              --snapshot f.snap [--snapshot-every N] saves\n"
      "              Drain-barriered snapshots, --restore f.snap warm-starts\n"
      "              from one and replays to the uninterrupted run's digest\n"
      "              (same dataset/workload flags required);\n"
      "              --clone-publish uses deep-clone publishes instead of\n"
      "              copy-on-write snapshots (identical estimates)\n"
      "  fleet-sim   sharded multi-tenant serving: N tenant histograms share\n"
      "              K pooled refiner threads; ends with a determinism\n"
      "              digest over the final snapshots and a metrics dump\n"
      "              --tenants N --refiners K --queries N --buckets N\n"
      "              --readers N --seed S --queue-cap N --publish-batch N\n"
      "              --pace P drains the fleet every P submissions\n"
      "              (--pace 1 = serialized replay: the digest is invariant\n"
      "              across runs and --refiners values)\n"
      "              --snapshot f.snap saves the drained fleet as an STHF\n"
      "              snapshot; --restore f.snap hands the fleet off from one\n"
      "              (tenants/seed come from the file, the driver is skipped,\n"
      "              and with the saving run's --queries the digest matches\n"
      "              it); --clone-publish uses deep-clone publishes\n"
      "\n"
      "every command accepts --metrics-json <path>: export the run's\n"
      "metrics registry (counters, gauges, latency histograms) as JSON\n"
      "\n"
      "exit codes: 0 ok, 1 runtime failure, 2 usage error\n",
      stderr);
}

// Writes the registry's JSON snapshot to the --metrics-json path, if given.
Status MaybeWriteMetricsJson(const Flags& flags,
                             const obs::MetricsRegistry& registry) {
  if (!flags.Has("metrics-json")) return Status::Ok();
  std::string path = flags.Str("metrics-json", "");
  if (path.empty()) {
    return Status::InvalidArgument("--metrics-json needs a file path");
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::string json = registry.ToJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_error = std::fclose(f);
  if (written != json.size() || close_error != 0) {
    return Status::IoError("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return kExitUsage;
  }
  std::string command = argv[1];
  // `snapshot` takes a mode word (save/load/verify) before its flags.
  std::string mode;
  int first_flag = 2;
  if (command == "snapshot") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr, "snapshot requires a mode: save, load, verify\n");
      PrintUsage();
      return kExitUsage;
    }
    mode = argv[2];
    first_flag = 3;
  }
  Flags flags(argc, argv, first_flag);
  if (!flags.error().ok()) {
    std::fprintf(stderr, "%s\n", flags.error().ToString().c_str());
    PrintUsage();
    return kExitUsage;
  }

  // Process-wide metrics: installed before any instrumented component is
  // constructed, exported after the command finishes (--metrics-json).
  obs::MetricsRegistry registry;
  obs::SetGlobalMetrics(&registry);

  Status status;
  if (command == "generate") {
    status = RunGenerate(flags);
  } else if (command == "cluster") {
    status = RunCluster(flags);
  } else if (command == "experiment") {
    status = RunExperiment(flags);
  } else if (command == "sweep") {
    status = RunSweepCommand(flags);
  } else if (command == "inspect") {
    status = RunInspect(flags);
  } else if (command == "snapshot") {
    if (mode == "save") {
      status = RunSnapshotSave(flags);
    } else if (mode == "load") {
      status = RunSnapshotLoad(flags, /*verify_only=*/false);
    } else if (mode == "verify") {
      status = RunSnapshotLoad(flags, /*verify_only=*/true);
    } else {
      std::fprintf(stderr, "unknown snapshot mode: %s\n", mode.c_str());
      PrintUsage();
      return kExitUsage;
    }
  } else if (command == "serve-sim") {
    status = RunServeSim(flags);
  } else if (command == "fleet-sim") {
    status = RunFleetSim(flags);
  } else {
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    PrintUsage();
    return kExitUsage;
  }

  // Export metrics even when the command failed — a partial run's counters
  // are exactly what post-mortems want — but never mask the command's error.
  Status metrics_status = MaybeWriteMetricsJson(flags, registry);

  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    if (status.code() == StatusCode::kInvalidArgument &&
        status.message().rfind("unknown flag:", 0) == 0) {
      PrintUsage();
      return kExitUsage;
    }
    return kExitFailure;
  }
  if (!metrics_status.ok()) {
    std::fprintf(stderr, "%s\n", metrics_status.ToString().c_str());
    return kExitFailure;
  }
  return kExitOk;
}
