// Serving-layer throughput harness: read throughput vs reader-thread count,
// with the refiner idle and with it live under a saturating feedback stream.
// The number that matters is the ratio per row: snapshot isolation means a
// publishing refiner costs readers almost nothing (readers never take the
// writer's locks — they only swap shared_ptr refcounts), so throughput keeps
// scaling with reader threads while refinement runs.
//
// Exits non-zero if a read ever blocks long enough to suggest reader/writer
// coupling (concurrent-refinement throughput collapsing far below idle
// throughput at the same thread count).
//
// Every throughput figure comes from a fixed-length read window (250 ms,
// 1 s under STHIST_FULL=1). A live window opens only after the service has
// published feedback from the saturating feeder, so it always measures
// reads racing real publishes rather than the feeder's start-up.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/generators.h"
#include "eval/table.h"
#include "histogram/stholes.h"
#include "serve/histogram_service.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist::bench {
namespace {

struct ServeBenchSetup {
  GeneratedData g;
  std::unique_ptr<Executor> executor;
  Workload feedback;
  Workload probes;
};

ServeBenchSetup MakeServeSetup(const Scale& scale, uint64_t seed_offset) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = scale.full ? 10000 : 3000;
  data_config.noise_tuples = data_config.tuples_per_cluster / 5;
  ServeBenchSetup setup{MakeCross(data_config), {}, {}, {}};
  setup.executor = std::make_unique<Executor>(setup.g.data);

  WorkloadConfig wc;
  wc.num_queries = scale.full ? 1000 : 300;
  wc.volume_fraction = 0.01;
  wc.seed = 31 + seed_offset;
  setup.feedback = MakeWorkload(setup.g.domain, wc);
  wc.num_queries = 256;
  wc.seed = 97 + seed_offset;
  setup.probes = MakeWorkload(setup.g.domain, wc);
  return setup;
}

std::unique_ptr<STHoles> MakeTrainedHistogram(const ServeBenchSetup& setup,
                                              size_t buckets) {
  STHolesConfig config;
  config.max_buckets = buckets;
  auto hist = std::make_unique<STHoles>(
      setup.g.domain, static_cast<double>(setup.g.data.size()), config);
  // Pre-train so the served snapshot has a realistic bucket tree.
  for (const Box& q : setup.feedback) hist->Refine(q, *setup.executor);
  return hist;
}

// One read window. Publishes and feedback applied are counter deltas
// between the window's open and close, so they exclude both the feeder's
// start-up and the backlog Stop() drains after the window.
struct Throughput {
  double reads_per_second = 0.0;
  size_t publishes = 0;
  size_t feedback_applied = 0;
  double max_publish_ms = 0.0;
};

// Reads per second that `readers` threads sustain against `service` over a
// `window` of wall time. With `feed` set, a feeder thread keeps the
// feedback queue saturated (each item tagged with `served_estimate`), and
// the window opens only once the service has published some of that
// feedback; a service that does not publish within 10 s fails the bench.
Throughput ReadWindow(HistogramService& service, const ServeBenchSetup& setup,
                      size_t readers, std::chrono::milliseconds window,
                      bool feed,
                      double served_estimate =
                          std::numeric_limits<double>::quiet_NaN()) {
  std::atomic<bool> stop_feeder{false};
  std::thread feeder;
  if (feed) {
    const size_t published = service.stats().publishes;
    feeder = std::thread([&] {
      size_t i = 0;
      while (!stop_feeder.load()) {
        (void)service.SubmitFeedback(setup.feedback[i % setup.feedback.size()],
                                     served_estimate);
        ++i;
      }
    });
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.stats().publishes == published) {
      if (std::chrono::steady_clock::now() > give_up) {
        std::fprintf(stderr, "FAIL: the feeder's feedback was never "
                             "published\n");
        std::exit(EXIT_FAILURE);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::atomic<double> sink{0.0};  // Defeats dead-code elimination.
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      while (!start.load()) std::this_thread::yield();
      double local = 0.0;
      size_t i = 0;
      for (; !stop.load(std::memory_order_relaxed); ++i) {
        local += service.Estimate(setup.probes[(r + i) % setup.probes.size()]);
      }
      reads.fetch_add(i);
      sink.fetch_add(local);
    });
  }
  const ServiceStats opened = service.stats();
  const auto t0 = std::chrono::steady_clock::now();
  start.store(true);
  std::this_thread::sleep_for(window);
  stop.store(true);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const ServiceStats closed = service.stats();
  for (std::thread& t : threads) t.join();
  stop_feeder.store(true);
  if (feeder.joinable()) feeder.join();

  Throughput result;
  result.reads_per_second = static_cast<double>(reads.load()) / seconds;
  result.publishes = closed.publishes - opened.publishes;
  result.feedback_applied = closed.feedback_applied - opened.feedback_applied;
  return result;
}

// One read window against a fresh service over a pre-trained histogram,
// with the refiner idle or (`refine`) live under a saturating feeder.
Throughput MeasureReads(const ServeBenchSetup& setup, size_t buckets,
                        size_t readers, std::chrono::milliseconds window,
                        bool refine) {
  HistogramService service(MakeTrainedHistogram(setup, buckets),
                           *setup.executor);
  Throughput result = ReadWindow(service, setup, readers, window, refine);
  service.Stop();
  result.max_publish_ms = service.stats().max_publish_seconds * 1e3;
  return result;
}

// COW-vs-clone publish head-to-head. Both services run the identical live
// load (saturating feeder + concurrent readers); the only difference is that
// the clone side serves its histogram through DeepClonePublish, so every
// publish deep-copies the tree. Each run records into a private registry so
// the publish-latency histogram covers exactly that run. The COW publish
// hands out the working tree's shared root in O(touched path), so its
// publish cost must be strictly below the deep clone's — that is the whole
// point of the copy-on-write tree, and the gate in main() enforces it.
struct PublishProfile {
  double live_rps = 0.0;
  double publish_p99_ms = 0.0;
  double publish_mean_ms = 0.0;
  size_t publishes = 0;
};

PublishProfile MeasurePublish(const ServeBenchSetup& setup, size_t buckets,
                              size_t readers, std::chrono::milliseconds window,
                              bool deep_clone) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  std::unique_ptr<Histogram> hist = MakeTrainedHistogram(setup, buckets);
  if (deep_clone) hist = std::make_unique<DeepClonePublish>(std::move(hist));
  HistogramService service(std::move(hist), *setup.executor, config);

  PublishProfile profile;
  profile.live_rps =
      ReadWindow(service, setup, readers, window, true).reads_per_second;
  service.Stop();

  for (const auto& latency : registry.Snapshot().latencies) {
    if (latency.name == "serve.service.publish_seconds") {
      profile.publishes = latency.count;
      profile.publish_p99_ms = ApproxP99Seconds(latency) * 1e3;
      profile.publish_mean_ms =
          latency.count > 0
              ? latency.sum_seconds / static_cast<double>(latency.count) * 1e3
              : 0.0;
    }
  }
  return profile;
}

// Read throughput while a background re-initialization is in flight,
// relative to the live steady state at the same reader count. The builder is
// parked inside the rebuild hook (zero CPU, like a rebuild blocked on a slow
// oracle), so any throughput loss would mean readers couple to the rebuild —
// the hot-swap contract says they never do.
double MeasureRebuildWindowRatio(const ServeBenchSetup& setup, size_t buckets,
                                 size_t readers,
                                 std::chrono::milliseconds window) {
  Throughput steady = MeasureReads(setup, buckets, readers, window, true);

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool builder_entered = false;
  bool release_builder = false;
  std::unique_ptr<STHoles> reference = MakeTrainedHistogram(setup, buckets);
  const STHoles* reference_raw = reference.get();

  ServiceConfig config;
  config.reinit.enabled = true;
  config.reinit.domain = setup.g.domain;
  config.reinit.background = true;
  config.reinit.detector.window = 16;
  config.reinit.detector.trigger_nae = 0.05;
  config.reinit.detector.rearm_nae = 0.01;
  config.reinit.detector.cooldown = 64;
  config.reinit.detector.retrigger_backstop = 1u << 20;  // One rebuild/run.
  config.reinit.rebuild_override = [&](const Dataset&, double) {
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      builder_entered = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return release_builder; });
    }
    return reference_raw->Clone();
  };

  HistogramService service(MakeTrainedHistogram(setup, buckets),
                           *setup.executor, config);

  // Garbage served estimates force the trigger as soon as the window fills.
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    size_t i = 0;
    while (!builder_entered && i < 100000) {
      lock.unlock();
      (void)service.SubmitFeedback(setup.feedback[i % setup.feedback.size()],
                                   1e9);
      ++i;
      lock.lock();
    }
    if (!gate_cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return builder_entered; })) {
      std::fprintf(stderr, "FAIL: stagnation trigger never fired\n");
      std::exit(EXIT_FAILURE);
    }
  }

  // Rebuild parked in flight: measure reads under the same live feedback
  // load as the steady-state row.
  const double rebuild_rps =
      ReadWindow(service, setup, readers, window, true, 1e9).reads_per_second;
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_builder = true;
  }
  gate_cv.notify_all();
  service.Stop();

  std::printf(
      "rebuild window: %.0f reads/s vs steady %.0f reads/s "
      "(%zu readers, swap %s)\n",
      rebuild_rps, steady.reads_per_second, readers,
      service.stats().reinit_swaps_completed > 0 ? "completed" : "pending");
  return rebuild_rps / steady.reads_per_second;
}

}  // namespace
}  // namespace sthist::bench

int main(int argc, char** argv) {
  using namespace sthist;
  using namespace sthist::bench;

  BenchOptions options = ParseBenchOptions(argc, argv);
  Scale scale = GetScale(options);
  PrintBanner("Serving layer: read throughput vs reader threads", scale);

  ServeBenchSetup setup = MakeServeSetup(scale, options.seed);
  const size_t buckets = 100;
  const std::chrono::milliseconds window(scale.full ? 1000 : 250);

  std::printf("cross 2-d, %zu tuples, %zu-bucket STHoles, %lld ms windows\n",
              setup.g.data.size(), buckets,
              static_cast<long long>(window.count()));

  TablePrinter table({"readers", "idle refiner reads/s", "live refiner reads/s",
                      "ratio", "window publishes", "window applied",
                      "max publish ms"});
  double worst_ratio = 1e300;
  for (size_t readers : {1u, 2u, 4u, 8u}) {
    Throughput idle = MeasureReads(setup, buckets, readers, window, false);
    Throughput live = MeasureReads(setup, buckets, readers, window, true);
    double ratio = live.reads_per_second / idle.reads_per_second;
    worst_ratio = std::min(worst_ratio, ratio);
    table.AddRow({FormatSize(readers), FormatDouble(idle.reads_per_second, 0),
                  FormatDouble(live.reads_per_second, 0),
                  FormatDouble(ratio, 2), FormatSize(live.publishes),
                  FormatSize(live.feedback_applied),
                  FormatDouble(live.max_publish_ms, 2)});
  }
  table.Print();

  // COW vs clone-on-publish under the identical live load. Publish cost is
  // machine-independent in *ratio* form: both runs execute on the same box,
  // so the deep clone's per-publish cost must exceed the COW handoff's
  // regardless of absolute speed.
  PublishProfile cow = MeasurePublish(setup, buckets, 2, window, false);
  PublishProfile clone = MeasurePublish(setup, buckets, 2, window, true);
  const double publish_mean_ratio =
      clone.publish_mean_ms / std::max(cow.publish_mean_ms, 1e-12);
  const double publish_p99_ratio =
      clone.publish_p99_ms / std::max(cow.publish_p99_ms, 1e-12);
  const double cow_live_ratio = cow.live_rps / clone.live_rps;
  std::printf(
      "publish cow vs clone: mean %.4f ms vs %.4f ms (%.1fx), p99 %.4f ms "
      "vs %.4f ms (%.1fx), live reads %.0f/s vs %.0f/s (%.2fx), "
      "%zu vs %zu publishes\n",
      cow.publish_mean_ms, clone.publish_mean_ms, publish_mean_ratio,
      cow.publish_p99_ms, clone.publish_p99_ms, publish_p99_ratio,
      cow.live_rps, clone.live_rps, cow_live_ratio, cow.publishes,
      clone.publishes);

  // Hot-swap liveness: read throughput with a rebuild parked in flight must
  // stay within 10% of the live steady state (the ISSUE's acceptance bound)
  // on a machine with cores to spare; tighter boxes only report.
  const double rebuild_ratio =
      MeasureRebuildWindowRatio(setup, buckets, 2, window);
  const bool many_cores = std::thread::hardware_concurrency() > 2;
  const double rebuild_floor = many_cores ? 0.9 : 0.0;

  // On a many-core box the live/idle ratio sits near 1.0 (readers never
  // touch the refiner's locks); on a single core the refiner and feeder
  // legitimately steal CPU time from readers — and COW publishing moves
  // the copy work into refinement, so the refiner's share grows with
  // publish cadence there. Flag only a collapse below what CPU sharing
  // can explain — that would mean readers are *blocking* on the writer.
  const double floor = many_cores ? 0.5 : 0.1;
  // The artifact carries the headline number plus the full metrics
  // registry (publish latency histogram, drop counters, ...).
  if (!WriteBenchArtifact(
          options, "serve",
          {{"worst_live_idle_ratio", worst_ratio},
           {"floor", floor},
           {"rebuild_window_ratio", rebuild_ratio},
           {"rebuild_floor", rebuild_floor},
           {"publish_mean_ms_cow", cow.publish_mean_ms},
           {"publish_mean_ms_clone", clone.publish_mean_ms},
           {"publish_p99_ms_cow", cow.publish_p99_ms},
           {"publish_p99_ms_clone", clone.publish_p99_ms},
           {"publish_mean_ratio", publish_mean_ratio},
           {"publish_p99_ratio", publish_p99_ratio},
           {"cow_live_ratio", cow_live_ratio}})) {
    return EXIT_FAILURE;
  }

  // The COW publish gates. The mean is continuous, so "strictly cheaper" is
  // a robust same-box comparison; the p99 comes from log-scale buckets and
  // only has to not regress (both publishes can land in the lowest bucket).
  // Live read throughput under COW must hold the clone path's level — the
  // zero-copy publish exists to make publishes cheaper, never to tax
  // readers; the threshold leaves room for scheduler noise on busy runners.
  if (cow.publishes == 0 || clone.publishes == 0) {
    std::fprintf(stderr, "FAIL: publish head-to-head never published "
                 "(cow %zu, clone %zu)\n", cow.publishes, clone.publishes);
    return EXIT_FAILURE;
  }
  if (publish_mean_ratio <= 1.0) {
    std::fprintf(stderr,
                 "FAIL: COW publish is not strictly cheaper than the deep "
                 "clone (mean %.4f ms vs %.4f ms)\n",
                 cow.publish_mean_ms, clone.publish_mean_ms);
    return EXIT_FAILURE;
  }
  if (publish_p99_ratio < 1.0) {
    std::fprintf(stderr,
                 "FAIL: COW publish p99 regressed vs the deep clone "
                 "(%.4f ms vs %.4f ms)\n",
                 cow.publish_p99_ms, clone.publish_p99_ms);
    return EXIT_FAILURE;
  }
  // On a box with cores to spare, readers must not pay for the zero-copy
  // publish. On 1-2 cores the path-copy work that COW moves from publish
  // into refinement legitimately competes with readers for CPU, so those
  // machines only report the ratio.
  if (many_cores && cow_live_ratio < 0.9) {
    std::fprintf(stderr,
                 "FAIL: COW publishing dented live read throughput vs the "
                 "clone path (%.2fx)\n",
                 cow_live_ratio);
    return EXIT_FAILURE;
  }

  if (worst_ratio < floor) {
    std::fprintf(stderr,
                 "FAIL: concurrent refinement collapsed read throughput "
                 "(worst live/idle ratio %.2f < %.2f) — readers appear to "
                 "block on the writer\n",
                 worst_ratio, floor);
    return EXIT_FAILURE;
  }
  if (rebuild_ratio < rebuild_floor) {
    std::fprintf(stderr,
                 "FAIL: an in-flight rebuild dented read throughput "
                 "(rebuild/steady ratio %.2f < %.2f) — the hot swap "
                 "appears to block readers\n",
                 rebuild_ratio, rebuild_floor);
    return EXIT_FAILURE;
  }
  std::printf("worst live/idle ratio %.2f (floor %.2f), rebuild-window "
              "ratio %.2f (floor %.2f): readers never block on refinement "
              "or rebuilds\n",
              worst_ratio, floor, rebuild_ratio, rebuild_floor);
  return EXIT_SUCCESS;
}
