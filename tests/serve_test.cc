// Concurrency battery for the snapshot-isolated serving layer
// (serve/histogram_service.h). The heavyweight test runs 8 reader threads
// against a live refiner for >10k reads — the structural race detector for
// the TSan CI job — and then holds the service to the determinism contract:
// after draining, the published snapshot's estimates are bitwise-identical
// (std::bit_cast) to a single-threaded replay of the identical feedback
// sequence.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/bounded_queue.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "histogram/stholes.h"
#include "obs/metrics.h"
#include "serve/histogram_service.h"
#include "serve/snapshot_io.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

struct ServeSetup {
  GeneratedData g;
  std::unique_ptr<Executor> executor;
  Workload train;
  Workload probes;
};

ServeSetup MakeSetup(size_t tuples_per_cluster, size_t train_queries,
                     size_t probe_queries) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = tuples_per_cluster;
  data_config.noise_tuples = tuples_per_cluster / 5;
  ServeSetup setup{MakeCross(data_config), {}, {}, {}};
  setup.executor = std::make_unique<Executor>(setup.g.data);

  WorkloadConfig wc;
  wc.num_queries = train_queries;
  wc.volume_fraction = 0.01;
  wc.seed = 31;
  setup.train = MakeWorkload(setup.g.domain, wc);
  wc.num_queries = probe_queries;
  wc.seed = 97;
  setup.probes = MakeWorkload(setup.g.domain, wc);
  return setup;
}

std::unique_ptr<STHoles> MakeHistogram(const ServeSetup& setup,
                                       size_t buckets) {
  STHolesConfig config;
  config.max_buckets = buckets;
  return std::make_unique<STHoles>(
      setup.g.domain, static_cast<double>(setup.g.data.size()), config);
}

// Replays `feedback` serially onto a fresh histogram and asserts the
// service's final snapshot matches it bit for bit over the probe workload.
void ExpectBitwiseReplayMatch(const ServeSetup& setup, size_t buckets,
                              const std::vector<Box>& feedback,
                              const Histogram& snapshot) {
  std::unique_ptr<STHoles> replay = MakeHistogram(setup, buckets);
  for (const Box& q : feedback) replay->Refine(q, *setup.executor);
  for (const Box& probe : setup.probes) {
    double expected = replay->EstimateLinear(probe);
    EXPECT_TRUE(BitEqual(snapshot.EstimateLinear(probe), expected))
        << "linear estimate diverged on " << probe.ToString();
    EXPECT_TRUE(BitEqual(snapshot.Estimate(probe), expected))
        << "indexed estimate diverged on " << probe.ToString();
  }
}

TEST(ServeTest, InitialSnapshotServesTheSeededHistogram) {
  ServeSetup setup = MakeSetup(800, 20, 30);
  std::unique_ptr<STHoles> hist = MakeHistogram(setup, 30);
  Train(hist.get(), setup.train, *setup.executor);
  // Reference estimates before the service takes ownership.
  std::vector<double> expected;
  for (const Box& probe : setup.probes) {
    expected.push_back(hist->Estimate(probe));
  }

  HistogramService service(std::move(hist), *setup.executor);
  for (size_t i = 0; i < setup.probes.size(); ++i) {
    EXPECT_TRUE(BitEqual(service.Estimate(setup.probes[i]), expected[i]));
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.reads_served, setup.probes.size());
  EXPECT_EQ(stats.snapshot_epoch, 0u);
  EXPECT_EQ(stats.feedback_accepted, 0u);
  EXPECT_EQ(stats.staleness, 0u);
}

TEST(ServeTest, DrainMakesEveryAcceptedFeedbackVisible) {
  ServeSetup setup = MakeSetup(800, 60, 30);
  HistogramService service(MakeHistogram(setup, 40), *setup.executor);

  std::vector<Box> accepted;
  for (const Box& q : setup.train) {
    if (service.SubmitFeedback(q) == FeedbackOutcome::kAccepted) {
      accepted.push_back(q);
    }
  }
  EXPECT_TRUE(service.Drain().ok());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.feedback_accepted, accepted.size());
  EXPECT_EQ(stats.feedback_applied, accepted.size());
  EXPECT_EQ(stats.staleness, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GT(stats.snapshot_epoch, 0u);

  ExpectBitwiseReplayMatch(setup, 40, accepted, *service.snapshot());
}

TEST(ServeTest, PublishCadenceNeverChangesTheDrainedSnapshot) {
  ServeSetup setup = MakeSetup(600, 50, 25);
  for (size_t publish_batch : {1u, 7u, 64u}) {
    ServiceConfig config;
    config.publish_batch = publish_batch;
    HistogramService service(MakeHistogram(setup, 30), *setup.executor,
                             config);
    std::vector<Box> accepted;
    for (const Box& q : setup.train) {
      if (service.SubmitFeedback(q) == FeedbackOutcome::kAccepted) {
        accepted.push_back(q);
      }
    }
    service.Stop();
    ExpectBitwiseReplayMatch(setup, 30, accepted, *service.snapshot());
  }
}

TEST(ServeTest, StopShedsLateFeedbackAndKeepsServing) {
  ServeSetup setup = MakeSetup(600, 20, 20);
  HistogramService service(MakeHistogram(setup, 30), *setup.executor);
  for (const Box& q : setup.train) service.SubmitFeedback(q);
  service.Stop();
  service.Stop();  // Idempotent.

  EXPECT_EQ(service.SubmitFeedback(setup.train.front()),
            FeedbackOutcome::kStopped);
  EXPECT_GE(service.stats().feedback_dropped(), 1u);
  EXPECT_GE(service.stats().feedback_dropped_stopped, 1u);
  // A drain on the stopped service must not hang: the horizon was published
  // by Stop, so it reports OK immediately.
  EXPECT_TRUE(service.Drain().ok());
  // The final snapshot still answers.
  double est = service.Estimate(setup.probes.front());
  EXPECT_TRUE(std::isfinite(est));
}

// A feedback oracle that parks the refiner inside its first Count call until
// released, making queue-full backpressure deterministic to provoke.
class GateOracle : public CardinalityOracle {
 public:
  explicit GateOracle(const CardinalityOracle& inner) : inner_(inner) {}

  double Count(const Box& box) const override {
    entered_.Open();
    release_.Wait();
    return inner_.Count(box);
  }

  void WaitUntilEntered() const { entered_.Wait(); }
  void Release() const { release_.Open(); }

 private:
  // One-shot latch, openable/awaitable from any thread.
  class Flag {
   public:
    void Open() {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        open_ = true;
      }
      cv_.notify_all();
    }
    void Wait() {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return open_; });
    }

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool open_ = false;
  };

  const CardinalityOracle& inner_;
  mutable Flag entered_;
  mutable Flag release_;
};

TEST(ServeTest, FullQueueShedsFeedbackInsteadOfBlocking) {
  ServeSetup setup = MakeSetup(400, 20, 10);
  GateOracle gate(*setup.executor);

  ServiceConfig config;
  config.queue_capacity = 4;
  HistogramService service(MakeHistogram(setup, 20), gate, config);

  // First item: the refiner pops it and parks inside the gated oracle.
  ASSERT_EQ(service.SubmitFeedback(setup.train[0]),
            FeedbackOutcome::kAccepted);
  gate.WaitUntilEntered();

  // Now the queue fills to capacity, then sheds.
  size_t accepted = 0, shed = 0;
  for (size_t i = 0; i < 8; ++i) {
    FeedbackOutcome outcome =
        service.SubmitFeedback(setup.train[i % setup.train.size()]);
    if (outcome == FeedbackOutcome::kAccepted) {
      ++accepted;
    } else {
      EXPECT_EQ(outcome, FeedbackOutcome::kQueueFull)
          << "a live service sheds only on backpressure";
      ++shed;
    }
  }
  EXPECT_EQ(accepted, config.queue_capacity);
  EXPECT_EQ(shed, 8 - config.queue_capacity);
  EXPECT_EQ(service.stats().feedback_dropped(), shed);
  EXPECT_EQ(service.stats().feedback_dropped_full, shed);

  gate.Release();
  service.Stop();
  EXPECT_EQ(service.stats().feedback_applied, accepted + 1);
}

// The battery's centerpiece: 8 reader threads hammer Estimate while the
// refiner folds in live feedback. Every read must be finite and internally
// consistent — the indexed estimate bitwise-equal to the linear scan on the
// *same* snapshot — and the drained end state must equal the serial replay.
TEST(ServeTest, ConcurrentReadersSeeConsistentSnapshots) {
  constexpr size_t kReaders = 8;
  constexpr size_t kReadsPerReader = 1500;  // > 10k reads in total.
  constexpr size_t kBuckets = 40;

  ServeSetup setup = MakeSetup(800, 250, 40);
  HistogramService service(MakeHistogram(setup, kBuckets), *setup.executor);

  std::atomic<bool> start{false};
  std::atomic<size_t> inconsistent{0};
  std::atomic<size_t> nonfinite{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!start.load()) std::this_thread::yield();
      for (size_t i = 0; i < kReadsPerReader; ++i) {
        const Box& q = setup.probes[(r + i) % setup.probes.size()];
        // Pin one snapshot: both paths must agree on it bit for bit even
        // while newer epochs are being published underneath.
        std::shared_ptr<const Histogram> snap = service.snapshot();
        double indexed = snap->Estimate(q);
        double linear = snap->EstimateLinear(q);
        if (!std::isfinite(indexed) || !std::isfinite(linear)) {
          nonfinite.fetch_add(1);
        }
        if (!BitEqual(indexed, linear)) inconsistent.fetch_add(1);
      }
    });
  }

  start.store(true);
  // Feed the refiner from this thread while the readers run; the single
  // producer makes the accepted sequence the submission order.
  std::vector<Box> accepted;
  for (const Box& q : setup.train) {
    if (service.SubmitFeedback(q) == FeedbackOutcome::kAccepted) {
      accepted.push_back(q);
    }
  }
  for (std::thread& t : readers) t.join();
  service.Stop();

  EXPECT_EQ(nonfinite.load(), 0u);
  EXPECT_EQ(inconsistent.load(), 0u);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.feedback_applied, accepted.size());
  EXPECT_EQ(stats.staleness, 0u);

  ExpectBitwiseReplayMatch(setup, kBuckets, accepted, *service.snapshot());
}

TEST(ServeTest, EstimateBatchAnswersFromOneEpoch) {
  ServeSetup setup = MakeSetup(600, 80, 40);
  HistogramService service(MakeHistogram(setup, 30), *setup.executor);

  // Concurrent refinement runs while batches are served; each batch is
  // internally consistent because it holds one snapshot.
  std::thread feeder([&] {
    for (const Box& q : setup.train) (void)service.SubmitFeedback(q);
  });
  for (int round = 0; round < 30; ++round) {
    std::vector<double> batch = service.EstimateBatch(setup.probes);
    ASSERT_EQ(batch.size(), setup.probes.size());
    for (double est : batch) EXPECT_TRUE(std::isfinite(est));
  }
  feeder.join();
  EXPECT_TRUE(service.Drain().ok());

  // Quiescent: one more batch must match the snapshot exactly.
  std::shared_ptr<const Histogram> snap = service.snapshot();
  std::vector<double> batch = service.EstimateBatch(setup.probes);
  for (size_t i = 0; i < setup.probes.size(); ++i) {
    EXPECT_TRUE(BitEqual(batch[i], snap->Estimate(setup.probes[i])));
  }
  EXPECT_GE(service.stats().reads_served,
            31u * setup.probes.size());
}

// Services sharing one metrics registry share its serve.service.* cells, but
// each service's stats, snapshot watermark and Drain horizon must count only
// its own feedback: a later service must not record an earlier one's items
// as applied, and an idle service must not wait for feedback it never got.
TEST(ServeTest, ServicesSharingARegistryKeepTheirOwnHorizons) {
  ServeSetup setup = MakeSetup(400, 100, 10);
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;

  auto feed = [&](HistogramService& service, size_t items) {
    for (size_t i = 0; i < items; ++i) {
      ASSERT_EQ(service.SubmitFeedback(setup.train[i]),
                FeedbackOutcome::kAccepted);
    }
    ASSERT_TRUE(service.Drain().ok());
  };
  {
    HistogramService first(MakeHistogram(setup, 20), *setup.executor, config);
    feed(first, 100);
  }
  HistogramService second(MakeHistogram(setup, 20), *setup.executor, config);
  feed(second, 10);
  const ServiceStats stats = second.stats();
  EXPECT_EQ(stats.feedback_accepted, 10u);
  EXPECT_EQ(stats.feedback_applied, 10u);
  EXPECT_EQ(stats.staleness, 0u);
  // The registry still aggregates both services.
  EXPECT_EQ(registry.counter("serve.service.feedback_accepted").value(), 110u);

  const std::string path = testing::TempDir() + "sthist_shared_registry.snap";
  ASSERT_TRUE(second.SaveSnapshot(path).ok());
  StatusOr<std::string> bytes = snapshot_io::ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  StatusOr<snapshot_io::ServiceSnapshot> saved =
      snapshot_io::DecodeServiceSnapshot(*bytes);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved->applied_feedback, 10u)
      << "the watermark must count only this service's feedback";
  std::remove(path.c_str());

  // An idle third service has nothing to drain. Drain runs on a helper
  // thread so a wrong horizon fails the test instead of hanging it; Stop
  // releases such a drain either way.
  HistogramService idle(MakeHistogram(setup, 20), *setup.executor, config);
  std::future<Status> drained =
      std::async(std::launch::async, [&idle] { return idle.Drain(); });
  const bool returned =
      drained.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  idle.Stop();
  const Status status = drained.get();
  EXPECT_TRUE(returned) << "Drain on an idle service waited for feedback "
                           "accepted by other services";
  EXPECT_TRUE(!returned || status.ok()) << status.ToString();
}

TEST(BoundedQueueTest, PushPopAndCloseSemantics) {
  BoundedQueue<int> queue(3);
  EXPECT_EQ(queue.TryPush(1), PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(2), PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(3), PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(4), PushResult::kFull) << "capacity reached";
  EXPECT_EQ(queue.size(), 3u);

  std::vector<int> batch;
  EXPECT_EQ(queue.PopBatch(&batch, 2), 2u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.TryPush(4), PushResult::kAccepted);

  queue.Close();
  EXPECT_EQ(queue.TryPush(5), PushResult::kClosed)
      << "closed queue refuses items";
  EXPECT_EQ(queue.PopBatch(&batch, 10), 2u) << "drains the remainder";
  EXPECT_EQ(batch, (std::vector<int>{3, 4}));
  EXPECT_EQ(queue.PopBatch(&batch, 10), 0u) << "terminal signal";
}

TEST(BoundedQueueTest, ManyProducersOneConsumerLosesNothing) {
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 2000;
  BoundedQueue<size_t> queue(64);

  std::atomic<size_t> accepted{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        if (queue.TryPush(p * kPerProducer + i) == PushResult::kAccepted) {
          accepted.fetch_add(1);
        }
      }
    });
  }

  size_t consumed = 0;
  std::thread consumer([&] {
    std::vector<size_t> batch;
    while (queue.PopBatch(&batch, 32) > 0) consumed += batch.size();
  });

  for (std::thread& t : producers) t.join();
  queue.Close();
  consumer.join();
  EXPECT_EQ(consumed, accepted.load());
}

}  // namespace
}  // namespace sthist
