// Workload taskbench-tram: in-process SMP, 2 nodes x 2 workers, TRAM on.
//
// First the five Task Bench patterns (width 16, 32 B outputs) are swept
// over task grain to find each pattern's minimum effective task
// granularity, METG(50%): the smallest mean task duration at which task
// compute / (wall x 4 cores) >= 0.5.  Then a streaming flood of 16/32/64 B
// messages (sizes drawn from the seed) runs from PE 0 to the far PE with
// one worker per process.  In a dependence chain a lone TRAM record waits
// for the timeout flush; in the flood batches fill — so a flush-policy
// change that helps one use and hurts the other shows here.
//
// Every graph run is checked against a serial replay of the task
// recurrence written here from the runner's definition (LCG kernel,
// FNV-1a folds, payload formula) with no runtime; every flood against
// the count and sequence-number sum the sink must see.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "charm/chare.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "taskbench/runner.hpp"

namespace perfbench {
namespace {

namespace tb = bgq::taskbench;

constexpr std::uint32_t kWidth = 16;
constexpr std::uint32_t kSteps = 16;
constexpr std::uint32_t kPayload = 32;
constexpr unsigned kCores = 4;
constexpr std::uint64_t kFloodMsgs = 100000;
constexpr std::uint64_t kFloodChunk = 1024;  ///< messages per credit
constexpr std::uint64_t kFloodWindow = 16;   ///< chunks in flight

// ---- serial reference of the task recurrence -------------------------------

constexpr std::uint64_t kLcgA = 6364136223846793005ull;
constexpr std::uint64_t kLcgC = 1442695040888963407ull;
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// x after `n` rounds of x = a*x + c (mod 2^64), by squaring the affine
/// map instead of iterating it.
std::uint64_t lcg_jump(std::uint64_t x, std::uint64_t n) {
  std::uint64_t a = kLcgA, c = kLcgC;  // the map applied 2^k times
  std::uint64_t ra = 1, rc = 0;        // the accumulated map
  for (; n != 0; n >>= 1) {
    if (n & 1) {
      rc = a * rc + c;
      ra = a * ra;
    }
    c = a * c + c;
    a = a * a;
  }
  return ra * x + rc;
}

struct Reference {
  std::uint64_t digest = 0;
  double total = 0;
};

Reference replay(tb::Pattern p, std::uint32_t grain) {
  std::vector<std::uint64_t> state(kWidth), prev(kWidth);
  for (std::uint32_t i = 0; i < kWidth; ++i) {
    state[i] = fnv(kFnvOffset, &i, sizeof(i));
  }
  std::vector<unsigned char> out(kPayload);
  for (std::uint32_t t = 0; t < kSteps; ++t) {
    prev = state;  // outputs consumed at step t were produced at t-1
    for (std::uint32_t i = 0; i < kWidth; ++i) {
      std::uint64_t s = state[i];
      s ^= lcg_jump(s, grain);
      s = fnv(s, &t, sizeof(t));
      for (std::uint32_t d : tb::dependencies(p, kWidth, t, i)) {
        for (std::uint32_t b = 0; b < kPayload; ++b) {
          out[b] = static_cast<unsigned char>(
              (prev[d] >> ((b % 8) * 8)) ^ (std::uint64_t{b} * 131));
        }
        const std::uint64_t slot = fnv(kFnvOffset, out.data(), out.size());
        s = fnv(s, &slot, sizeof(slot));
      }
      state[i] = s;
    }
  }
  Reference r;
  r.digest = kFnvOffset;
  for (std::uint32_t i = 0; i < kWidth; ++i) {
    r.digest = fnv(r.digest, &state[i], sizeof(state[i]));
    r.digest = fnv(r.digest, &kSteps, sizeof(kSteps));
    r.total += static_cast<double>(static_cast<std::uint32_t>(state[i]));
  }
  return r;
}

// ---- graph runs ---------------------------------------------------------------

bgq::cvs::MachineConfig make_config(bool tram, bool traced) {
  bgq::cvs::MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = bgq::cvs::Mode::kSmp;
  cfg.workers_per_process = 2;
  cfg.tram.enabled = tram;
  cfg.trace_events = traced;
  cfg.trace_ring_events = 1 << 18;
  return cfg;
}

struct GraphRun {
  double setup_s = 0;
  double wall_ns = 0;   ///< first application message to run end
  double busy_ns = 0;   ///< measured task compute
  bgq::trace::Report rep;
  RingReadout rings;
};

/// One operation: build, run and check one task graph.
GraphRun run_graph(tb::Pattern p, std::uint32_t grain, bool tram,
                   bool traced, Result& out) {
  tb::Params prm;
  prm.pattern = p;
  prm.width = kWidth;
  prm.steps = kSteps;
  prm.payload_bytes = kPayload;
  prm.grain = grain;
  const Scope span("taskbench.graph");
  GraphRun g;
  const std::uint64_t t0 = bgq::now_ns();
  bgq::cvs::Machine machine(make_config(tram, traced));
  bgq::charm::Runtime rt(machine);
  tb::TaskBenchApp app(rt, prm);
  std::uint64_t t_first = 0;
  machine.run([&](bgq::cvs::Pe& pe) {
    if (pe.rank() != 0) return;
    t_first = bgq::now_ns();
    app.start(pe);
  });
  const std::uint64_t t_end = bgq::now_ns();
  g.setup_s = static_cast<double>(t_first - t0) * 1e-9;
  g.wall_ns = static_cast<double>(t_end - t_first);
  g.busy_ns = static_cast<double>(app.busy_ns());

  ++out.attempted;
  const Reference ref = replay(p, grain);
  const std::uint64_t want_msgs = tb::message_count(p, kWidth, kSteps);
  if (!app.finished() || app.digest() != ref.digest ||
      app.final_total() != ref.total || app.data_messages() != want_msgs) {
    ++out.failed;
    out.wrong(std::string("task graph ") + tb::pattern_name(p) +
              " grain " + std::to_string(grain) +
              " disagrees with the serial replay");
  }
  g.rep = machine.metrics_report();
  if (traced) g.rings = read_rings(machine.trace_session().collect(), 2);
  return g;
}

double efficiency(const GraphRun& g) {
  return g.busy_ns / (g.wall_ns * kCores);
}

double mean_task_us(const GraphRun& g) {
  return g.busy_ns / (kWidth * kSteps) * 1e-3;
}

/// The grain ladder: LCG rounds per task, doubling from about 2 us to
/// about 512 us of task compute on a core that does 535 rounds per us.
/// Fixed, not calibrated, so the same seed always runs the same graphs;
/// METG itself is read off the measured task durations.
constexpr std::uint32_t kLadder = 9;
constexpr std::uint32_t kBaseGrain = 1070;

/// One ladder per pattern: every graph run is an operation, and so is
/// each pattern's METG(50%) search, which fails when no run of the ladder
/// reached 50% efficiency.
struct Round {
  std::vector<double> step_us[5];  ///< wall per step at the smallest grain
  double metg_us[5] = {};  ///< 0 where the search failed
  std::vector<double> setups;
  std::vector<GraphRun> runs;  ///< kept when traced
};

Round ladder_round(bool tram, bool traced, Result& out) {
  Round r;
  for (std::size_t pi = 0; pi < 5; ++pi) {
    const tb::Pattern p = tb::kAllPatterns[pi];
    double lo_d = 0, lo_e = 0, metg = 0;
    for (std::uint32_t k = 0; k < kLadder; ++k) {
      GraphRun g = run_graph(p, kBaseGrain << k, tram, traced, out);
      r.setups.push_back(g.setup_s);
      if (k == 0) {
        // The step time is the round's latency figure: two more runs at
        // the smallest grain give it three samples.
        r.step_us[pi].push_back(g.wall_ns * 1e-3 / kSteps);
        for (int rep = 0; rep < 2; ++rep) {
          GraphRun x = run_graph(p, kBaseGrain, tram, traced, out);
          r.setups.push_back(x.setup_s);
          r.step_us[pi].push_back(x.wall_ns * 1e-3 / kSteps);
          if (traced) r.runs.push_back(std::move(x));
        }
      }
      const double d = mean_task_us(g), e = efficiency(g);
      if (metg == 0 && e >= 0.5) {
        // Interpolate the crossing in log duration between the bracketing
        // runs; the first run already at 50% gives its own duration.
        metg = lo_d == 0 || e <= lo_e
                   ? d
                   : std::exp(std::log(lo_d) + (0.5 - lo_e) / (e - lo_e) *
                                                   (std::log(d) -
                                                    std::log(lo_d)));
      }
      lo_d = d;
      lo_e = e;
      if (traced) r.runs.push_back(std::move(g));
    }
    ++out.attempted;
    if (metg == 0) ++out.failed;
    r.metg_us[pi] = metg;
  }
  return r;
}

// ---- streaming flood ----------------------------------------------------------

struct Flood {
  double setup_s = 0;
  double us_per_msg = 0;
  HeapCount heap;
  std::uint64_t packets = 0, sends_network = 0;
  std::vector<double> send_ns;
};

/// One operation: PE 0 streams kFloodMsgs seeded-size messages to the far
/// PE with at most kFloodWindow chunks of kFloodChunk in flight; the sink
/// returns a credit per chunk received, and a last one after message N.
/// The window bounds the sink's backlog, so the workload's peak memory
/// does not depend on how far the sender happened to run ahead.
Flood run_flood(std::uint64_t seed, bool count_heap, Result& out) {
  const Scope span("taskbench.flood");
  Flood f;
  const std::uint64_t t0 = bgq::now_ns();
  bgq::cvs::MachineConfig cfg = make_config(true, false);
  // One worker per process: the flood is a two-party pipeline.  Deep
  // batches for the streaming regime, as bench_taskbench sets them.
  cfg.workers_per_process = 1;
  cfg.eager_max = 16384;
  cfg.tram.batch_bytes = 16384;
  cfg.tram.batch_msgs = 512;
  bgq::cvs::Machine machine(cfg);
  const auto sink = static_cast<bgq::cvs::PeRank>(machine.pe_count() - 1);
  // Sizes are drawn before the clock starts.
  bgq::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> sizes(kFloodMsgs);
  for (auto& s : sizes) s = static_cast<std::uint8_t>(16u << (rng() % 3));
  if (count_heap) f.send_ns.reserve(kFloodMsgs);

  // Sender and sink state each get a cache line of their own: sharing one
  // would put false sharing between the two PEs into the figure.
  struct alignas(64) Sender {
    std::uint64_t sent = 0, t_first = 0, t_done = 0;
    HeapCount h0;
  } tx;
  struct alignas(64) Sink {
    std::uint64_t received = 0, seq_sum = 0, bad = 0;
  } rx;
  bgq::cvs::HandlerId recv = 0, credit = 0;
  auto send_chunk = [&](bgq::cvs::Pe& pe) {
    const std::uint64_t end = std::min<std::uint64_t>(tx.sent + kFloodChunk,
                                                      kFloodMsgs);
    for (; tx.sent < end; ++tx.sent) {
      bgq::cvs::Message* m = pe.alloc_message(sizes[tx.sent], recv);
      const std::uint64_t seq = tx.sent, tag = seed ^ seq;
      std::memcpy(m->payload(), &seq, 8);
      std::memcpy(m->payload() + 8, &tag, 8);
      if (count_heap) {
        const std::uint64_t s0 = bgq::now_ns();
        pe.send_message(sink, m);
        f.send_ns.push_back(static_cast<double>(bgq::now_ns() - s0));
      } else {
        pe.send_message(sink, m);
      }
    }
  };
  recv = machine.register_handler(
      [&rx, &credit, seed](bgq::cvs::Pe& pe, bgq::cvs::Message* m) {
        std::uint64_t seq, tag;
        std::memcpy(&seq, m->payload(), sizeof(seq));
        std::memcpy(&tag, m->payload() + 8, sizeof(tag));
        if (tag != (seed ^ seq)) ++rx.bad;
        rx.seq_sum += seq;
        pe.free_message(m);
        const std::uint64_t n = ++rx.received;
        if (n % kFloodChunk == 0 || n == kFloodMsgs) {
          bgq::cvs::Message* c = pe.alloc_message(8, credit);
          std::memcpy(c->payload(), &n, sizeof(n));
          pe.send_message(0, c);
        }
      });
  credit = machine.register_handler(
      [&](bgq::cvs::Pe& pe, bgq::cvs::Message* m) {
        std::uint64_t n;
        std::memcpy(&n, m->payload(), sizeof(n));
        pe.free_message(m);
        if (n < kFloodMsgs) {
          send_chunk(pe);
          return;
        }
        tx.t_done = bgq::now_ns();
        if (count_heap) heap_counting(false);
        pe.exit_all();
      });
  machine.run([&](bgq::cvs::Pe& pe) {
    if (pe.rank() != 0) return;
    if (count_heap) {
      heap_counting(true);
      tx.h0 = heap_count();
    }
    tx.t_first = bgq::now_ns();
    for (std::size_t w = 0; w < kFloodWindow; ++w) send_chunk(pe);
  });
  if (count_heap) {
    heap_counting(false);
    const HeapCount h1 = heap_count();
    f.heap = {h1.allocs - tx.h0.allocs, h1.bytes - tx.h0.bytes};
  }
  f.packets = machine.fabric().network_packets();
  f.sends_network = machine.metrics_report().value("pe.sends.network");
  f.setup_s = static_cast<double>(tx.t_first - t0) * 1e-9;
  f.us_per_msg =
      static_cast<double>(tx.t_done - tx.t_first) * 1e-3 / kFloodMsgs;

  ++out.attempted;
  const std::uint64_t n = kFloodMsgs;
  if (rx.received != n || rx.seq_sum != n * (n - 1) / 2 || rx.bad != 0) {
    ++out.failed;
    out.wrong("flood sink saw " + std::to_string(rx.received) +
              " messages, sequence sum " + std::to_string(rx.seq_sum) +
              ", " + std::to_string(rx.bad) + " corrupt");
  }
  return f;
}

}  // namespace

void run_taskbench(const Args& args, Result& out) {
  const std::uint64_t t_end =
      bgq::now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);

  if (!args.trace) {
    // Whole rounds of one ladder per pattern plus two floods, until the
    // time is spent, so every run attempts the same mix of operations.
    std::vector<double> steps[5], setups, flood_us;
    std::uint64_t flood_seed = args.seed;
    for (int rounds = 0; rounds < 2 || bgq::now_ns() < t_end; ++rounds) {
      const Round r = ladder_round(true, false, out);
      for (std::size_t i = 0; i < 5; ++i) {
        steps[i].insert(steps[i].end(), r.step_us[i].begin(),
                        r.step_us[i].end());
      }
      setups.insert(setups.end(), r.setups.begin(), r.setups.end());
      for (int f = 0; f < 2; ++f) {
        flood_us.push_back(run_flood(flood_seed++, false, out).us_per_msg);
      }
    }
    std::vector<double> step;
    for (auto& v : steps) step.push_back(median(v));
    out.set("setup_s", median(setups));
    out.set("peak_rss_mb", usage().peak_rss_mb);
    out.set("primary_us", geomean(step));
    out.set("secondary_us", median(flood_us));
    return;
  }

  // ---- traced pass ----
  // The ladder with and without TRAM (untraced), the TRAM ladder again
  // with the event rings on, and one counted flood.
  const Round tram = ladder_round(true, false, out);
  const Round plain = ladder_round(false, false, out);
  const Round traced = ladder_round(true, true, out);
  std::vector<double> s_tram, s_plain, s_traced;
  for (std::size_t i = 0; i < 5; ++i) {
    s_tram.push_back(median(tram.step_us[i]));
    s_plain.push_back(median(plain.step_us[i]));
    s_traced.push_back(median(traced.step_us[i]));
  }
  out.set("trace.overhead_frac", geomean(s_traced) / geomean(s_tram) - 1.0);
  double added = 0;
  bool all_metg = true;
  for (std::size_t i = 0; i < 5; ++i) {
    const std::string name = tb::pattern_name(tb::kAllPatterns[i]);
    out.set("taskbench.step_us." + name, s_tram[i]);
    out.set("taskbench.metg_us." + name, tram.metg_us[i]);
    added += s_tram[i] - s_plain[i];
    all_metg = all_metg && tram.metg_us[i] > 0 && plain.metg_us[i] > 0;
  }
  out.set("tram.added_us_per_step", added / 5);
  if (all_metg) {
    const std::vector<double> m_tram(std::begin(tram.metg_us),
                                     std::end(tram.metg_us));
    const std::vector<double> m_plain(std::begin(plain.metg_us),
                                      std::end(plain.metg_us));
    out.set("tram.metg_ratio", geomean(m_tram) / geomean(m_plain));
  }

  std::uint64_t batches = 0, batched = 0, timeouts = 0, probes = 0;
  std::uint64_t executed = 0, net_sends = 0, spills = 0, stalls = 0;
  std::vector<double> handler_us, wait_us, busy;
  std::uint64_t spans = 0, drops = 0;
  for (const GraphRun& g : traced.runs) {
    batches += g.rep.value("tram.batches");
    batched += g.rep.value("tram.batched_msgs");
    timeouts += g.rep.value("tram.flush.timeout");
    probes += g.rep.value("pe.idle.probes");
    executed += g.rep.value("pe.msgs.executed");
    net_sends += g.rep.value("pe.sends.network");
    spills += g.rep.value("net.fifo.spills");
    stalls += g.rep.value("comm.backpressure_stalls");
    const RingReadout& r = g.rings;
    handler_us.insert(handler_us.end(), r.handler_us.begin(),
                      r.handler_us.end());
    wait_us.insert(wait_us.end(), r.queue_wait_us.begin(),
                   r.queue_wait_us.end());
    busy.push_back(r.busy_frac);
    spans += r.handler_spans;
    drops += r.dropped;
  }
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.set("tram.records_per_batch",
          per(static_cast<double>(batched), static_cast<double>(batches)));
  out.set("tram.timeout_flush_share",
          per(static_cast<double>(timeouts), static_cast<double>(batches)));
  out.set("converse.idle_probes_per_msg",
          per(static_cast<double>(probes), static_cast<double>(executed)));
  out.set("net.fifo_spills", static_cast<double>(spills));
  out.set("pami.backpressure_stalls", static_cast<double>(stalls));
  out.set("converse.handler_p50_us", median(handler_us));
  out.set("converse.queue_wait_p50_us", median(wait_us));
  out.set("converse.busy_frac", median(busy));
  out.set("trace.ring_drops", static_cast<double>(drops));

  const Flood f = run_flood(args.seed, true, out);
  out.set("alloc.heap_allocs_per_msg",
          static_cast<double>(f.heap.allocs) / kFloodMsgs);
  out.set("alloc.heap_bytes_per_msg",
          static_cast<double>(f.heap.bytes) / kFloodMsgs);
  out.set("converse.send_ns", median(f.send_ns));
  out.set("net.packets_per_msg",
          per(static_cast<double>(f.packets),
              static_cast<double>(f.sends_network)));

  if (spans == 0) out.empty_source("handler spans");
  if (drops != 0) {
    out.empty_source("complete trace rings (" + std::to_string(drops) +
                     " events dropped)");
  }
  if (wait_us.empty()) out.empty_source("queue-wait pairs");
  if (batches == 0) out.empty_source("tram.batches");
  if (executed == 0 || net_sends == 0) out.empty_source("pe counters");
  if (f.send_ns.empty()) out.empty_source("Pe::send_message timer");
  if (f.packets == 0) out.empty_source("fabric packet counter");
}

}  // namespace perfbench
