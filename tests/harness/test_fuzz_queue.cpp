// Schedule-fuzzed linearizability tests for the queue family.  Each
// schedule serializes the threads at the BGQ_SCHED_POINT markers compiled
// into the queue hot paths and checks the recorded history against the
// structure's sequential spec; a failure prints the seed and decision
// vector for replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "harness_util.hpp"
#include "queue/l2_atomic_queue.hpp"
#include "queue/ordered_l2_queue.hpp"
#include "test_seed.hpp"
#include "verify/scheduler.hpp"

namespace {

using bgq::harness::fuzz_queue_once;
using bgq::harness::QueueFuzzConfig;
using bgq::queue::L2AtomicQueue;
using bgq::queue::OrderedL2Queue;
using bgq::test_support::announce_seed;
using bgq::test_support::harness_scale;
using bgq::verify::exhaust_schedules;
using bgq::verify::FifoQueueSpec;
using bgq::verify::Op;
using bgq::verify::OpKind;

TEST(FuzzQueue, L2AtomicQueuePassesFuzzedSchedules) {
  const std::uint64_t base = announce_seed("FuzzQueue.L2AtomicQueue", 0xBC1);
  struct Shape {
    std::size_t ring;
    int producers, per_producer;
    std::uint64_t seeds;
  };
  // Ring sizes small enough that the overflow spill and bound re-raise are
  // exercised constantly, not just the fast path.
  const Shape shapes[] = {
      {2, 3, 3, 3000},
      {4, 2, 4, 2000},
      {8, 4, 2, 1000},
  };
  for (const Shape& s : shapes) {
    const std::uint64_t n = std::max<std::uint64_t>(s.seeds / harness_scale(), 10);
    for (std::uint64_t i = 0; i < n; ++i) {
      QueueFuzzConfig cfg;
      cfg.ring = s.ring;
      cfg.producers = s.producers;
      cfg.per_producer = s.per_producer;
      cfg.seed = base + i;
      const auto out = fuzz_queue_once<L2AtomicQueue<std::uint64_t*>>(cfg);
      ASSERT_FALSE(out.run.deadlocked)
          << bgq::harness::describe_run(cfg.seed, out.run);
      ASSERT_TRUE(out.lin.ok())
          << "ring=" << s.ring << " "
          << bgq::harness::describe_run(cfg.seed, out.run) << "\n"
          << out.lin.message;
    }
  }
}

TEST(FuzzQueue, OrderedL2QueueIsFifoUnderFuzzedSchedules) {
  const std::uint64_t base = announce_seed("FuzzQueue.OrderedL2Queue", 0xFEED);
  const std::uint64_t n =
      std::max<std::uint64_t>(2000 / harness_scale(), 10);
  for (std::uint64_t i = 0; i < n; ++i) {
    QueueFuzzConfig cfg;
    cfg.ring = 2;
    cfg.producers = 2;
    cfg.per_producer = 3;
    cfg.seed = base + i;
    // The MPI-semantics variant must satisfy the strict FIFO spec even
    // across the ring -> overflow spill boundary.
    const auto out =
        fuzz_queue_once<OrderedL2Queue<std::uint64_t*>, FifoQueueSpec>(cfg);
    ASSERT_FALSE(out.run.deadlocked)
        << bgq::harness::describe_run(cfg.seed, out.run);
    ASSERT_TRUE(out.lin.ok())
        << bgq::harness::describe_run(cfg.seed, out.run) << "\n"
        << out.lin.message;
  }
}

TEST(FuzzQueue, ExhaustiveSmallBoundL2Queue) {
  // Systematically enumerate every interleaving (up to the decision bound)
  // of 2 producers x 2 messages against the consumer on a ring of 2 — the
  // bound-overflow window included — and require a legal linearization of
  // all of them.
  std::uint64_t violations = 0;
  std::string first_bad;
  const std::uint64_t runs = exhaust_schedules(
      10, 30000, [&](const std::vector<std::uint8_t>& prefix) {
        QueueFuzzConfig cfg;
        cfg.ring = 2;
        cfg.producers = 2;
        cfg.per_producer = 2;
        cfg.seed = 7;
        cfg.replay = &prefix;
        cfg.deterministic_fallback = true;
        const auto out = fuzz_queue_once<L2AtomicQueue<std::uint64_t*>>(cfg);
        if (!out.lin.ok() || out.run.deadlocked) {
          ++violations;
          if (first_bad.empty()) {
            first_bad = bgq::harness::describe_run(cfg.seed, out.run) + "\n" +
                        out.lin.message;
          }
        }
        return out.run.trace;
      });
  EXPECT_EQ(violations, 0u) << first_bad;
  // The enumeration must actually branch; a handful of runs would mean the
  // schedule points are dead.
  EXPECT_GT(runs, 100u);
  std::fprintf(stderr, "[ EXHAUST  ] L2AtomicQueue: %llu schedules\n",
               static_cast<unsigned long long>(runs));
}

TEST(FuzzQueue, PerProducerOrderPreservedByOrderedQueue) {
  // Directly assert the MPI match-ordering property on the dequeue stream:
  // each producer's messages arrive in the order it sent them.
  const std::uint64_t base = announce_seed("FuzzQueue.PerProducerOrder", 0xA11);
  const std::uint64_t n = std::max<std::uint64_t>(500 / harness_scale(), 5);
  for (std::uint64_t i = 0; i < n; ++i) {
    QueueFuzzConfig cfg;
    cfg.ring = 2;
    cfg.producers = 3;
    cfg.per_producer = 3;
    cfg.seed = base + i;
    const auto out =
        fuzz_queue_once<OrderedL2Queue<std::uint64_t*>, FifoQueueSpec>(cfg);
    ASSERT_TRUE(out.lin.ok())
        << bgq::harness::describe_run(cfg.seed, out.run) << "\n"
        << out.lin.message;
    std::map<int, std::uint64_t> last_seen;  // producer -> last id
    for (const Op& op : out.history) {
      if (op.kind != OpKind::kDequeue) continue;
      const int producer = static_cast<int>((op.result - 1) / cfg.per_producer);
      ASSERT_GT(op.result, last_seen[producer])
          << "per-producer order broken: "
          << bgq::harness::describe_run(cfg.seed, out.run);
      last_seen[producer] = op.result;
    }
  }
}

}  // namespace
