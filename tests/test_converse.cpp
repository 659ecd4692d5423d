// Integration tests for the Converse-like machine layer (src/converse):
// all three execution modes, eager + rendezvous protocols, intra-process
// pointer exchange, and the L2-atomics / allocator configuration axes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "converse/machine.hpp"

namespace {

using bgq::cvs::HandlerId;
using bgq::cvs::Machine;
using bgq::cvs::MachineConfig;
using bgq::cvs::Message;
using bgq::cvs::Mode;
using bgq::cvs::Pe;

MachineConfig base_config(Mode mode) {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = mode;
  cfg.workers_per_process = 2;
  cfg.processes_per_node = 2;
  cfg.comm_threads = 1;
  return cfg;
}

/// One empty message from PE 0 to PE 1, then stop; returns its handler.
HandlerId run_one_message(Machine& machine) {
  const HandlerId h = machine.register_handler(
      [&](Pe& pe, Message* m) { pe.free_message(m); pe.exit_all(); });
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) pe.send(1, h, nullptr, 0);
  });
  return h;
}

/// Every PE but PE 0 sends `per` messages to PE 0; returns how many arrived.
std::size_t flood_pe0(Machine& machine, int per) {
  const std::size_t total = (machine.pe_count() - 1) * per;
  std::atomic<std::size_t> got{0};
  const HandlerId h = machine.register_handler([&](Pe& pe, Message* m) {
    pe.free_message(m);
    if (got.fetch_add(1) + 1 == total) pe.exit_all();
  });
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) return;
    for (int i = 0; i < per; ++i) pe.send(0, h, &i, sizeof(i));
  });
  return got.load();
}

/// Ping-pong between the first and last PE; verifies payload integrity and
/// round-trip counting in every mode.
void run_pingpong(MachineConfig cfg, int rounds, std::size_t bytes) {
  Machine machine(cfg);
  const auto last = static_cast<bgq::cvs::PeRank>(machine.pe_count() - 1);
  std::atomic<int> bounces{0};

  const HandlerId bounce = machine.register_handler(
      [&, last](Pe& pe, Message* m) {
        // Verify pattern, increment the counter in the payload, reply.
        auto* fill = reinterpret_cast<unsigned char*>(m->payload());
        EXPECT_EQ(fill[m->payload_bytes() - 1],
                  static_cast<unsigned char>(0xC5));
        const int n = bounces.fetch_add(1) + 1;
        if (n >= rounds) {
          pe.free_message(m);
          pe.exit_all();
          return;
        }
        const auto peer = pe.rank() == 0 ? last : 0;
        pe.send_message(peer, m);  // re-use the same buffer: zero copies
      });

  machine.run([&, last](Pe& pe) {
    if (pe.rank() != 0) return;
    Message* m = pe.alloc_message(bytes, bounce);
    std::memset(m->payload(), 0xC5, bytes);
    pe.send_message(last, m);
  });

  EXPECT_GE(bounces.load(), rounds);
}

class AllModes : public ::testing::TestWithParam<Mode> {};

TEST_P(AllModes, PingPongShortMessages) {
  run_pingpong(base_config(GetParam()), 50, 32);
}

TEST_P(AllModes, PingPongEagerMediumMessages) {
  run_pingpong(base_config(GetParam()), 20, 2048);
}

TEST_P(AllModes, PingPongRendezvousLargeMessages) {
  run_pingpong(base_config(GetParam()), 10, 64 * 1024);
}

TEST_P(AllModes, PingPongWithMutexQueuesAndArenaAllocator) {
  MachineConfig cfg = base_config(GetParam());
  cfg.use_l2_atomics = false;
  cfg.use_pool_allocator = false;
  run_pingpong(cfg, 20, 512);
}

INSTANTIATE_TEST_SUITE_P(Modes, AllModes,
                         ::testing::Values(Mode::kNonSmp, Mode::kSmp,
                                           Mode::kSmpCommThreads),
                         [](const auto& info) {
                           switch (info.param) {
                             case Mode::kNonSmp: return "NonSmp";
                             case Mode::kSmp: return "Smp";
                             default: return "SmpCommThreads";
                           }
                         });

TEST(Converse, ConfigDerivations) {
  MachineConfig cfg = base_config(Mode::kNonSmp);
  EXPECT_EQ(cfg.effective_workers_per_process(), 1u);
  EXPECT_EQ(cfg.process_count(), 4u);  // 2 nodes x 2 processes
  EXPECT_EQ(cfg.pe_count(), 4u);
  EXPECT_EQ(cfg.effective_comm_threads(), 0u);

  cfg = base_config(Mode::kSmp);
  EXPECT_EQ(cfg.process_count(), 2u);
  EXPECT_EQ(cfg.pe_count(), 4u);
  EXPECT_EQ(cfg.contexts_per_process(), 2u);  // one per worker

  cfg = base_config(Mode::kSmpCommThreads);
  EXPECT_EQ(cfg.effective_comm_threads(), 1u);
  EXPECT_EQ(cfg.contexts_per_process(), 1u);  // one per comm thread
}

TEST(Converse, IntraProcessSendIsPointerExchange) {
  MachineConfig cfg = base_config(Mode::kSmp);
  cfg.nodes = 2;  // smallest standard partition shape users still 2 nodes
  Machine machine(cfg);

  std::atomic<void*> sent_ptr{nullptr};
  std::atomic<bool> same{false};

  const HandlerId h = machine.register_handler([&](Pe& pe, Message* m) {
    same.store(m->raw() == sent_ptr.load());
    pe.free_message(m);
    pe.exit_all();
  });

  machine.run([&](Pe& pe) {
    if (pe.rank() != 0) return;
    Message* m = pe.alloc_message(64, h);
    sent_ptr.store(m->raw());
    pe.send_message(1, m);  // PE 1 is in the same process (2 workers)
  });

  EXPECT_TRUE(same.load())
      << "same-process delivery must not copy the message";
  EXPECT_GE(machine.metrics().total("pe.sends.intra"), 1u);
}

TEST(Converse, NetworkSendCountsAndDelivers) {
  MachineConfig cfg = base_config(Mode::kSmp);
  Machine machine(cfg);
  const auto last = static_cast<bgq::cvs::PeRank>(machine.pe_count() - 1);

  std::atomic<int> got{0};
  const HandlerId h = machine.register_handler([&](Pe& pe, Message* m) {
    got.fetch_add(1);
    pe.free_message(m);
    if (got.load() == 10) pe.exit_all();
  });

  machine.run([&, last](Pe& pe) {
    if (pe.rank() != 0) return;
    for (int i = 0; i < 10; ++i) pe.send(last, h, &i, sizeof(i));
  });

  EXPECT_EQ(got.load(), 10);
  EXPECT_EQ(machine.metrics().total("pe.sends.network"), 10u);
}

TEST(Converse, BroadcastReachesEveryPe) {
  MachineConfig cfg = base_config(Mode::kSmp);
  Machine machine(cfg);
  const auto npes = machine.pe_count();

  std::atomic<std::size_t> got{0};
  const HandlerId h = machine.register_handler([&](Pe& pe, Message* m) {
    pe.free_message(m);
    if (got.fetch_add(1) + 1 == npes) pe.exit_all();
  });

  machine.run([&](Pe& pe) {
    if (pe.rank() != 0) return;
    const int v = 7;
    pe.broadcast(h, &v, sizeof(v));
  });

  EXPECT_EQ(got.load(), npes);
}

TEST(Converse, ManyToOneStressAllMessagesArrive) {
  // Every PE floods PE 0 — the contended pattern the lockless queues and
  // the pool allocator exist for.
  MachineConfig cfg = base_config(Mode::kSmp);
  cfg.nodes = 2;
  cfg.workers_per_process = 4;
  Machine machine(cfg);
  EXPECT_EQ(flood_pe0(machine, 200), (machine.pe_count() - 1) * 200);
}

TEST(Converse, RendezvousPreservesLargePayloadIntegrity) {
  MachineConfig cfg = base_config(Mode::kSmpCommThreads);
  Machine machine(cfg);
  const auto last = static_cast<bgq::cvs::PeRank>(machine.pe_count() - 1);
  constexpr std::size_t kBytes = 256 * 1024;

  std::atomic<bool> ok{false};
  const HandlerId h = machine.register_handler([&](Pe& pe, Message* m) {
    const auto* p = reinterpret_cast<const std::uint32_t*>(m->payload());
    bool good = m->payload_bytes() == kBytes;
    for (std::size_t i = 0; good && i < kBytes / 4; i += 997) {
      good = p[i] == static_cast<std::uint32_t>(i);
    }
    ok.store(good);
    pe.free_message(m);
    pe.exit_all();
  });

  machine.run([&, last](Pe& pe) {
    if (pe.rank() != 0) return;
    Message* m = pe.alloc_message(kBytes, h);
    auto* p = reinterpret_cast<std::uint32_t*>(m->payload());
    for (std::size_t i = 0; i < kBytes / 4; ++i) {
      p[i] = static_cast<std::uint32_t>(i);
    }
    pe.send_message(last, m);
  });

  EXPECT_TRUE(ok.load());
}

TEST(Converse, BarrierAlignsWorkers) {
  MachineConfig cfg = base_config(Mode::kSmp);
  Machine machine(cfg);
  std::atomic<int> before{0}, after{0};
  std::atomic<bool> violated{false};

  machine.register_handler([](Pe&, Message*) {});
  machine.run([&](Pe& pe) {
    before.fetch_add(1);
    pe.barrier();
    // After the barrier, every PE must have done its pre-barrier step.
    if (before.load() != static_cast<int>(machine.pe_count())) {
      violated.store(true);
    }
    if (after.fetch_add(1) + 1 == static_cast<int>(machine.pe_count())) {
      pe.exit_all();
    }
  });

  EXPECT_FALSE(violated.load());
}

TEST(Converse, TraceRecordsBusyIntervals) {
  MachineConfig cfg = base_config(Mode::kSmp);
  cfg.trace_events = true;
  Machine machine(cfg);
  const HandlerId h = run_one_message(machine);

  // PE 1 executed the handler: its track must carry a closed handler span
  // with a sane timestamp order.
  const auto& flat = machine.trace_session().collect();
  const bgq::trace::Track* pe1 = nullptr;
  for (const auto& t : flat.tracks) {
    if (t.name == "pe1") pe1 = &t;
  }
  ASSERT_NE(pe1, nullptr);
  const auto spans =
      bgq::trace::extract_spans(*pe1, bgq::trace::EventKind::kHandlerBegin);
  ASSERT_GE(spans.size(), 1u);
  EXPECT_EQ(spans[0].arg, h);
  EXPECT_GE(spans[0].t1, spans[0].t0);
}

TEST(Converse, MessageHeaderRoundTrip) {
  MachineConfig cfg = base_config(Mode::kSmp);
  Machine machine(cfg);
  const auto last = static_cast<bgq::cvs::PeRank>(machine.pe_count() - 1);

  std::atomic<std::uint32_t> seen_src{9999}, seen_dst{9999};
  const HandlerId h = machine.register_handler([&](Pe& pe, Message* m) {
    seen_src.store(m->header().src_pe);
    seen_dst.store(m->header().dst_pe);
    pe.free_message(m);
    pe.exit_all();
  });

  machine.run([&, last](Pe& pe) {
    if (pe.rank() != 0) return;
    pe.send(last, h, nullptr, 0);
  });

  EXPECT_EQ(seen_src.load(), 0u);
  EXPECT_EQ(seen_dst.load(), last);
}

// ---------------------------------------------------------------------------
// Chaos fabric: the machine layer over fault injection + reliability
// ---------------------------------------------------------------------------

using bgq::net::FaultPlan;

MachineConfig faulty_config(Mode mode, const char* plan) {
  MachineConfig cfg = base_config(mode);
  cfg.faults = FaultPlan::parse(plan);
  cfg.reliability.rto_ns = 100'000;  // this host's threads schedule far
  cfg.reliability.rto_max_ns = 5'000'000;  // apart; keep recovery quick
  return cfg;
}

class FaultyModes : public ::testing::TestWithParam<Mode> {};

TEST_P(FaultyModes, ManyToOneExactlyOnceUnderDropDupReorder) {
  MachineConfig cfg = faulty_config(
      GetParam(), "drop=0.01,dup=0.01,delay=0.02,seed=1234");
  Machine machine(cfg);
  EXPECT_EQ(flood_pe0(machine, 100), (machine.pe_count() - 1) * 100)
      << "every message delivered exactly once despite drop+dup+reorder";
  const auto report = machine.metrics_report();
  EXPECT_GT(report.value("net.drops") + report.value("net.dups") +
                report.value("net.delays"),
            0u)
      << "the fault plan must actually have fired";
}

INSTANTIATE_TEST_SUITE_P(Modes, FaultyModes,
                         ::testing::Values(Mode::kNonSmp, Mode::kSmp,
                                           Mode::kSmpCommThreads),
                         [](const auto& info) {
                           switch (info.param) {
                             case Mode::kNonSmp: return "NonSmp";
                             case Mode::kSmp: return "Smp";
                             default: return "SmpCommThreads";
                           }
                         });

TEST(ConverseFaults, RetransmitCounterProvesProtocolExercised) {
  MachineConfig cfg =
      faulty_config(Mode::kSmp, "drop=0.05,dup=0.01,delay=0.02,seed=99");
  Machine machine(cfg);
  const std::size_t sent = (machine.pe_count() - 1) * 200;
  ASSERT_EQ(flood_pe0(machine, 200), sent);
  const auto report = machine.metrics_report();
  EXPECT_GT(report.value("net.drops"), 0u);
  EXPECT_GT(report.value("net.retransmits"), 0u)
      << "5% drop over " << sent << " messages must have forced retransmits";
}

TEST(ConverseFaults, RendezvousSurvivesFaultyControlPackets) {
  // The rendezvous req/ack legs are mem-FIFO sends (faulted); the rget
  // data leg models the DMA engine (reliable).  End-to-end integrity must
  // hold with the control packets dropped and duplicated.
  MachineConfig cfg =
      faulty_config(Mode::kSmp, "drop=0.1,dup=0.1,delay=0.1,seed=5");
  Machine machine(cfg);
  const auto last = static_cast<bgq::cvs::PeRank>(machine.pe_count() - 1);
  constexpr std::size_t kBytes = 64 * 1024;

  std::atomic<bool> ok{false};
  const HandlerId h = machine.register_handler([&](Pe& pe, Message* m) {
    const auto* p = reinterpret_cast<const std::uint32_t*>(m->payload());
    bool good = m->payload_bytes() == kBytes;
    for (std::size_t i = 0; good && i < kBytes / 4; i += 97) {
      good = p[i] == static_cast<std::uint32_t>(i);
    }
    ok.store(good);
    pe.free_message(m);
    pe.exit_all();
  });

  machine.run([&, last](Pe& pe) {
    if (pe.rank() != 0) return;
    Message* m = pe.alloc_message(kBytes, h);
    auto* p = reinterpret_cast<std::uint32_t*>(m->payload());
    for (std::size_t i = 0; i < kBytes / 4; ++i) {
      p[i] = static_cast<std::uint32_t>(i);
    }
    pe.send_message(last, m);
  });
  EXPECT_TRUE(ok.load());
}

// ---------------------------------------------------------------------------
// Metric key sets
// ---------------------------------------------------------------------------

// Names every machine reports, as zeros when idle.
const std::vector<std::string> kAlwaysKeys = {
    "comm.backpressure_stalls", "ft.checkpoint_bytes", "ft.checkpoints",
    "ft.checkpoints_skipped", "ft.crashes", "ft.detect_ns", "ft.heartbeats",
    "ft.recoveries", "ft.recovery_ns", "ft.stale_drops", "ft.watchdog_dumps",
    "net.acks.piggybacked", "net.acks.standalone", "net.bitflips",
    "net.blackholed", "net.corrupt_drops", "net.dead_peer_drops",
    "net.dedup.evicted", "net.dedup_drops", "net.delays", "net.drops",
    "net.dup_acks", "net.dups", "net.fifo.rejects", "net.fifo.spills",
    "net.retransmits", "net.transport.injects", "net.transport.polls",
    "net.transport.reconnects", "net.transport.ring_full", "pe.busy_ns",
    "pe.idle.probes", "pe.msgs.executed", "pe.msgs.sent", "pe.sends.intra",
    "pe.sends.network", "trace.ring.drops", "trace.ring.hwm", "tram.appends",
    "tram.batched_msgs", "tram.batches", "tram.bypass.oversize",
    "tram.deagg_msgs", "tram.flush.barrier", "tram.flush.bytes",
    "tram.flush.count", "tram.flush.timeout", "tram.stale_discards"};
// Names reported only with the pool allocator.
const std::vector<std::string> kPoolKeys = {
    "alloc.heap.allocs", "alloc.heap.frees", "alloc.pool.hits",
    "alloc.slab.carves", "alloc.slab.hits"};

/// kAlwaysKeys plus `extra`, sorted.
std::vector<std::string> keys_with(std::vector<std::string> extra) {
  extra.insert(extra.end(), kAlwaysKeys.begin(), kAlwaysKeys.end());
  std::sort(extra.begin(), extra.end());
  return extra;
}

TEST(ConverseMetrics, KeySetIsPinnedPerConfig) {
  MachineConfig arena = base_config(Mode::kNonSmp);
  arena.use_pool_allocator = false;
  MachineConfig ft_tram = base_config(Mode::kSmp);
  ft_tram.tram.enabled = true;
  ft_tram.ft.enabled = true;
  ft_tram.ft.checkpoint_period_ms = 10'000;  // no checkpoint interference
  ft_tram.ft.watchdog_abort = false;
  std::vector<std::string> pool_comm = kPoolKeys;
  pool_comm.insert(pool_comm.end(), {"comm.parks", "comm.sweeps"});
  const struct {
    MachineConfig cfg;
    std::vector<std::string> keys;
  } cases[] = {
      {base_config(Mode::kSmp), keys_with(kPoolKeys)},
      {arena, keys_with({"alloc.arena.contention"})},
      {base_config(Mode::kSmpCommThreads), keys_with(pool_comm)},
      {ft_tram, keys_with(kPoolKeys)},
  };
  for (const auto& c : cases) {
    Machine machine(c.cfg);
    run_one_message(machine);
    std::vector<std::string> keys;
    for (const auto& [k, v] : machine.metrics_report().entries) {
      keys.push_back(k);
    }
    EXPECT_EQ(keys, c.keys) << "case " << &c - cases;
  }
}

TEST(ConverseFaults, DefaultRunEmitsReliabilityCountersAsZeros) {
  Machine machine(base_config(Mode::kSmp));
  run_one_message(machine);

  const auto report = machine.metrics_report();
  for (const std::string& key : kAlwaysKeys) {
    if (key.starts_with("pe.") || key.starts_with("tram.")) continue;
    EXPECT_TRUE(report.has(key)) << key << " missing from report";
    EXPECT_EQ(report.value(key), 0u) << key << " nonzero on lossless run";
  }
}

TEST(ConverseFaults, FifoCapacityIsConfigurableAndSpillsAreCounted) {
  MachineConfig cfg = base_config(Mode::kSmp);
  cfg.rec_fifo_capacity = 8;  // tiny ring: bursts must spill (lossless)
  Machine machine(cfg);
  EXPECT_EQ(flood_pe0(machine, 300), (machine.pe_count() - 1) * 300)
      << "spilling stays lossless";
  // total() is live: read every name before the first report and match it.
  const auto keys = keys_with(kPoolKeys);
  std::vector<std::uint64_t> totals;
  for (const std::string& k : keys) totals.push_back(machine.metrics().total(k));
  const auto report = machine.metrics_report();
  EXPECT_GT(report.value("net.fifo.spills"), 0u);
  ASSERT_EQ(report.entries.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(totals[i], report.value(keys[i])) << keys[i];
  }
}

TEST(Message, HeaderLayoutAndAccessors) {
  using bgq::cvs::MsgHeader;
  static_assert(sizeof(MsgHeader) == 32);
  alignas(16) unsigned char raw[sizeof(MsgHeader) + 48] = {};
  auto* m = bgq::cvs::Message::from_raw(raw);
  m->header().payload_bytes = 48;
  m->header().handler = 7;
  m->header().src_pe = 3;
  m->header().dst_pe = 5;
  m->header().trace_id = (std::uint64_t{4} << 32) | 9;
  EXPECT_EQ(m->payload_bytes(), 48u);
  EXPECT_EQ(m->total_bytes(), sizeof(MsgHeader) + 48u);
  EXPECT_EQ(reinterpret_cast<unsigned char*>(m->payload()),
            raw + sizeof(MsgHeader));
  EXPECT_EQ(m->header().trace_id >> 32, 4u);
}

}  // namespace
