// TRAM-style aggregation: batch codec units and Router edge cases — the
// paths a throughput bench never exercises.  Conservation when batches
// carry the traffic, the timeout flush for an idle sender, the oversize
// bypass, the worker-barrier drain, epoch-stale staging discard, and
// exactly-once delivery when the chaos fabric drops/dups whole batches.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "converse/machine.hpp"
#include "net/fault.hpp"
#include "tram/aggregator.hpp"
#include "tram/batch.hpp"

namespace {

using bgq::cvs::Machine;
using bgq::cvs::MachineConfig;
using bgq::cvs::Message;
using bgq::cvs::Mode;
using bgq::cvs::MsgHeader;
using bgq::cvs::Pe;
using bgq::net::FaultPlan;
using bgq::tram::BatchWriter;
using bgq::tram::for_each_record;
using bgq::tram::record_bytes;

// ---------------------------------------------------------------------------
// Batch codec
// ---------------------------------------------------------------------------

TEST(TramBatch, RecordBytesPadToHeaderAlignment) {
  EXPECT_EQ(record_bytes(0) % alignof(MsgHeader), 0u);
  EXPECT_GE(record_bytes(0), sizeof(MsgHeader));
  EXPECT_EQ(record_bytes(1), record_bytes(16 - sizeof(MsgHeader) % 16));
  for (std::size_t p : {0u, 1u, 15u, 16u, 17u, 100u, 512u}) {
    EXPECT_EQ(record_bytes(p) % alignof(MsgHeader), 0u);
    EXPECT_GE(record_bytes(p), sizeof(MsgHeader) + p);
  }
}

TEST(TramBatch, WriterRoundTripsRecordsInOrder) {
  BatchWriter w;
  for (std::uint32_t i = 0; i < 5; ++i) {
    MsgHeader h{};
    h.payload_bytes = 8 + i;  // deliberately unaligned sizes
    h.handler = static_cast<std::uint16_t>(10 + i);
    h.src_pe = i;
    h.dst_pe = 100 + i;
    std::vector<std::byte> payload(h.payload_bytes,
                                   static_cast<std::byte>(i));
    w.append(h, payload.data());
  }
  EXPECT_EQ(w.count(), 5u);
  std::uint32_t seen = 0;
  const std::size_t n = for_each_record(
      w.data(), w.bytes(), [&](const MsgHeader& h, const std::byte* p) {
        EXPECT_EQ(h.handler, 10 + seen);
        EXPECT_EQ(h.dst_pe, 100 + seen);
        EXPECT_EQ(h.payload_bytes, 8 + seen);
        for (std::uint32_t b = 0; b < h.payload_bytes; ++b) {
          EXPECT_EQ(p[b], static_cast<std::byte>(seen));
        }
        ++seen;
      });
  EXPECT_EQ(n, 5u);
}

TEST(TramBatch, TruncatedTailStopsTheWalkInsteadOfOverreading) {
  BatchWriter w;
  MsgHeader h{};
  h.payload_bytes = 32;
  std::vector<std::byte> payload(32, std::byte{0xAB});
  w.append(h, payload.data());
  w.append(h, payload.data());
  // Chop the second record's payload: the walk must deliver only the
  // first record and stop.
  const std::size_t cut = w.bytes() - 8;
  const std::size_t n =
      for_each_record(w.data(), cut, [](const MsgHeader&, const std::byte*) {});
  EXPECT_EQ(n, 1u);
}

TEST(TramBatch, EmptyBatchAlwaysFitsOneRecord) {
  BatchWriter w;
  EXPECT_TRUE(w.fits(10'000, /*limit_bytes=*/64));
  MsgHeader h{};
  h.payload_bytes = 40;
  std::vector<std::byte> p(40);
  w.append(h, p.data());
  EXPECT_FALSE(w.fits(40, /*limit_bytes=*/64));
  EXPECT_TRUE(w.fits(40, /*limit_bytes=*/4096));
}

// ---------------------------------------------------------------------------
// Router over a live machine
// ---------------------------------------------------------------------------

MachineConfig tram_config() {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 2;
  cfg.tram.enabled = true;
  return cfg;
}

struct FloodResult {
  std::size_t received = 0;
  bgq::trace::Report report;
};

/// PE 0 sends `count` messages of `bytes` to `sink`; the sink acks when
/// it has them all and the machine exits.
FloodResult flood(MachineConfig cfg, std::size_t count, std::size_t bytes,
                  bool sink_remote = true,
                  const std::function<void(Pe&)>& after_send = {}) {
  Machine machine(cfg);
  const bgq::cvs::PeRank sink =
      sink_remote ? static_cast<bgq::cvs::PeRank>(machine.pe_count() - 1)
                  : 1;  // PE 1 shares PE 0's process in SMP mode
  std::atomic<std::size_t> received{0};
  bgq::cvs::HandlerId ack{};
  const bgq::cvs::HandlerId recv = machine.register_handler(
      [&](Pe& pe, Message* m) {
        const bool last =
            received.fetch_add(1, std::memory_order_relaxed) + 1 == count;
        pe.free_message(m);
        if (last) {
          // Oversize on purpose: the completion ack bypasses aggregation,
          // so tram.* counters reflect the flood alone.
          pe.send_message(0, pe.alloc_message(1024, ack));
        }
      });
  ack = machine.register_handler([&](Pe& pe, Message* m) {
    pe.free_message(m);
    pe.exit_all();
  });
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) {
      for (std::size_t i = 0; i < count; ++i) {
        Message* m = pe.alloc_message(bytes, recv);
        std::memset(m->payload(), static_cast<int>(i & 0xFF), bytes);
        pe.send_message(sink, m);
      }
    }
    if (after_send) after_send(pe);  // every PE: barriers are collective
  });
  return {received.load(), machine.metrics_report()};
}

TEST(TramRouter, RemoteSmallMessagesTravelInBatches) {
  const FloodResult r = flood(tram_config(), 400, 32);
  EXPECT_EQ(r.received, 400u);
  EXPECT_EQ(r.report.value("tram.appends"), 400u);
  EXPECT_GT(r.report.value("tram.batches"), 0u);
  EXPECT_LT(r.report.value("tram.batches"), 400u)
      << "batching must actually coalesce, not ship 1-record batches";
  EXPECT_EQ(r.report.value("tram.deagg_msgs"), 400u);
}

TEST(TramRouter, IntraProcessSendsNeverAggregate) {
  // SMP pointer exchange already beats any batch: the Router must not
  // touch same-process traffic.
  const FloodResult r = flood(tram_config(), 100, 32, /*sink_remote=*/false);
  EXPECT_EQ(r.received, 100u);
  EXPECT_EQ(r.report.value("tram.appends"), 0u);
  EXPECT_EQ(r.report.value("tram.batches"), 0u);
}

TEST(TramRouter, IdleSenderFlushesOnTimeout) {
  // A single staged message with no follow-up traffic must still arrive:
  // the scheduler's idle tick flushes buffers older than flush_ns.
  MachineConfig cfg = tram_config();
  cfg.tram.flush_ns = 50'000;  // don't make the test wait long
  const FloodResult r = flood(cfg, 1, 32);
  EXPECT_EQ(r.received, 1u);
  EXPECT_GE(r.report.value("tram.flush.timeout"), 1u);
}

TEST(TramRouter, OversizedMessagesBypassAggregation) {
  MachineConfig cfg = tram_config();  // kMaxMsgBytes = 512
  const FloodResult r = flood(cfg, 10, 1024);
  EXPECT_EQ(r.received, 10u);
  EXPECT_EQ(r.report.value("tram.bypass.oversize"), 11u);  // 10 + the ack
  EXPECT_EQ(r.report.value("tram.appends"), 0u);
}

TEST(TramRouter, WorkerBarrierDrainsStagedRecords) {
  // Far fewer records than any flush threshold, then a machine-wide
  // barrier: the drain at barrier entry must flush them (a collective
  // alignment point never waits on a lazy buffer).
  MachineConfig cfg = tram_config();
  cfg.tram.flush_ns = 10'000'000'000ull;  // timeout can never fire
  const FloodResult r =
      flood(cfg, 5, 32, /*sink_remote=*/true, [](Pe& pe) { pe.barrier(); });
  EXPECT_EQ(r.received, 5u);
  EXPECT_GE(r.report.value("tram.flush.barrier"), 1u);
  EXPECT_EQ(r.report.value("tram.flush.timeout"), 0u);
}

TEST(TramRouter, ExactlyOnceWhenChaosDropsAndDupsBatches) {
  // The reliability layer retransmits/dedups whole batches; records must
  // arrive exactly once — no loss when a batch is dropped, no double
  // delivery when one is duplicated.
  MachineConfig cfg = tram_config();
  cfg.faults = FaultPlan::parse("drop=0.05,dup=0.05,delay=0.1,seed=99");
  const FloodResult r = flood(cfg, 500, 32);
  EXPECT_EQ(r.received, 500u);
  EXPECT_EQ(r.report.value("tram.appends"), 500u);
}

TEST(TramRouter, EpochBumpDiscardsStaleStagedRecords) {
  // Records staged before a rollback epoch bump must never ship: replay
  // comes from the checkpoint, and these were already un-counted when
  // the quiescence counters reset.
  MachineConfig cfg = tram_config();
  cfg.workers_per_process = 1;
  cfg.ft.enabled = true;
  cfg.ft.checkpoint_period_ms = 10'000;  // no checkpoint interference
  cfg.ft.watchdog_abort = false;
  std::atomic<std::size_t> received{0};
  std::uint64_t staged_before = 0, staged_after = 0;
  Machine machine(cfg);
  const bgq::cvs::HandlerId recv = machine.register_handler(
      [&](Pe& pe, Message* m) {
        received.fetch_add(1);
        pe.free_message(m);
      });
  machine.run([&](Pe& pe) {
    if (pe.rank() != 0) {
      pe.exit_all();
      return;
    }
    bgq::tram::Router* tr = machine.tram_router();
    ASSERT_NE(tr, nullptr);
    const bgq::cvs::PeRank sink =
        static_cast<bgq::cvs::PeRank>(machine.pe_count() - 1);
    pe.send_message(sink, pe.alloc_message(32, recv));
    staged_before = tr->staged(0);
    machine.bump_msg_epoch();  // what a rollback does
    pe.send_message(sink, pe.alloc_message(32, recv));
    staged_after = tr->staged(0);
    pe.exit_all();
  });
  EXPECT_EQ(staged_before, 1u);
  EXPECT_EQ(staged_after, 1u)
      << "the pre-bump record must be discarded, the post-bump one staged";
  EXPECT_EQ(machine.metrics_report().value("tram.stale_discards"), 1u);
}

}  // namespace
