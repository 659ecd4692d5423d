// Workload pingpong-shm: a closed loop with one 16 B message in flight
// between PE 0 and PE 1, each hosted by its own forked OS process and
// joined by transport::ShmTransport.  Each process runs one PE plus the
// transport poller thread: four threads in all.  TRAM is off, so every
// message pays the whole plain path — pool alloc, Pe::send_message,
// PAMI, fabric, wire codec, shm ring, poller, PE queue, scheduler.
//
// Payloads carry a sequence number and a value derived from the seed;
// PE 1 checks that sequence numbers advance by exactly one and PE 0
// checks that every echo equals what it sent.  One operation = one
// round trip; one-way latency is RTT/2.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "common/rng.hpp"
#include "converse/machine.hpp"
#include "transport/shm.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBytes = 16;
constexpr std::uint64_t kWarmup = 2000;   ///< round trips before sampling
constexpr std::uint64_t kWindow = 20000;  ///< traced steady-state window

struct Ping {
  std::uint64_t seq;
  std::uint64_t value;
};
static_assert(sizeof(Ping) == kBytes);

std::uint64_t ping_value(std::uint64_t seed, std::uint64_t seq) {
  return bgq::SplitMix64(seed * 0x9E3779B97F4A7C15ull + seq).next();
}

/// What one rank learned in one segment.  The child ships its copy to
/// the parent through a pipe, so it is plain data.
struct RankReport {
  std::uint64_t received = 0;    ///< pings (rank 1) or echoes (rank 0)
  std::uint64_t bad = 0;         ///< payload or sequence mismatches
  std::uint64_t win_msgs = 0;    ///< messages received in the window
  std::uint64_t win_allocs = 0;  ///< operator-new calls in the window
  std::uint64_t win_bytes = 0;
  std::uint64_t win_ctx = 0;     ///< context switches in the window
  std::uint64_t polls = 0, injects = 0, ring_full = 0;
  std::uint64_t fifo_spills = 0, stalls = 0;
  std::uint64_t net_packets = 0, sends_network = 0;
  std::uint64_t idle_probes = 0, executed = 0;
  std::uint64_t handler_spans = 0, ring_drops = 0;
  double send_ns_p50 = 0;
  double handler_p50_us = 0;
  double busy_frac = 0;
  double peak_rss_mb = 0;
};

struct Segment {
  double setup_s = 0;
  NsHistogram rtt_ns;  ///< round trips after warm-up
  RankReport r0, r1;
};

/// Runs this process's rank of one ping-pong machine.  Rank 0 drives:
/// it stops at `deadline_ns`, or after the traced window when traced.
RankReport run_rank(const Args& args, unsigned rank,
                    const std::string& session, bool traced,
                    std::uint64_t t_start, std::uint64_t deadline_ns,
                    Segment* seg) {
  bgq::cvs::MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = bgq::cvs::Mode::kSmp;
  cfg.workers_per_process = 1;
  cfg.trace_events = traced;
  cfg.trace_ring_events = 1 << 18;
  cfg.transport.kind = bgq::transport::Kind::kShm;
  cfg.transport.nprocs = 2;
  cfg.transport.rank = rank;
  cfg.transport.session = session;
  bgq::cvs::Machine machine(cfg);

  RankReport rep;
  std::vector<double> send_ns;
  if (traced) send_ns.reserve(2 * (kWarmup + kWindow) + 16);
  std::uint64_t next = 0;     // rank 0: seq of the ping in flight
  std::uint64_t t_sent = 0;
  std::uint64_t expect = 0;   // rank 1: next seq it must see
  HeapCount h0;
  std::uint64_t ctx0 = 0;
  bool counting = false;
  auto open_window = [&] {
    heap_counting(true);
    h0 = heap_count();
    ctx0 = usage().ctx_switches;
    counting = true;
  };
  auto close_window = [&] {
    if (!counting) return;
    counting = false;
    heap_counting(false);
    const HeapCount h1 = heap_count();
    rep.win_allocs = h1.allocs - h0.allocs;
    rep.win_bytes = h1.bytes - h0.bytes;
    rep.win_ctx = usage().ctx_switches - ctx0;
  };

  bgq::cvs::HandlerId handler = 0;
  auto send = [&](bgq::cvs::Pe& pe, bgq::cvs::PeRank dst, const Ping& p) {
    bgq::cvs::Message* m = pe.alloc_message(kBytes, handler);
    std::memcpy(m->payload(), &p, sizeof(p));
    if (!traced) {
      pe.send_message(dst, m);
      return;
    }
    const std::uint64_t s0 = bgq::now_ns();
    pe.send_message(dst, m);
    send_ns.push_back(static_cast<double>(bgq::now_ns() - s0));
  };
  auto send_ping = [&](bgq::cvs::Pe& pe) {
    if (traced && next == kWarmup) open_window();
    t_sent = bgq::now_ns();
    send(pe, 1, Ping{next, ping_value(args.seed, next)});
  };

  handler = machine.register_handler([&](bgq::cvs::Pe& pe,
                                          bgq::cvs::Message* m) {
    const std::uint64_t t1 = bgq::now_ns();
    Ping p;
    std::memcpy(&p, m->payload(), sizeof(p));
    pe.free_message(m);
    ++rep.received;
    if (counting) ++rep.win_msgs;
    if (pe.rank() == 1) {
      if (traced && p.seq == kWarmup) {
        open_window();
        rep.win_msgs = 1;
      }
      if (p.seq != expect || p.value != ping_value(args.seed, p.seq)) {
        ++rep.bad;
      }
      expect = p.seq + 1;
      send(pe, 0, p);  // echo the payload back unchanged
      if (traced && p.seq == kWarmup + kWindow) close_window();
      return;
    }
    if (p.seq != next || p.value != ping_value(args.seed, next)) ++rep.bad;
    if (next >= kWarmup) seg->rtt_ns.record(t1 - t_sent);
    const bool done = traced ? next == kWarmup + kWindow : t1 >= deadline_ns;
    if (done) {
      close_window();
      pe.exit_all();
      return;
    }
    ++next;
    send_ping(pe);
  });

  machine.run([&](bgq::cvs::Pe& pe) {
    if (pe.rank() != 0) return;
    seg->setup_s = static_cast<double>(bgq::now_ns() - t_start) * 1e-9;
    send_ping(pe);
  });
  close_window();

  const bgq::trace::Report r = machine.metrics_report();
  rep.polls = r.value("net.transport.polls");
  rep.injects = r.value("net.transport.injects");
  rep.ring_full = r.value("net.transport.ring_full");
  rep.fifo_spills = r.value("net.fifo.spills");
  rep.stalls = r.value("comm.backpressure_stalls");
  rep.sends_network = r.value("pe.sends.network");
  rep.idle_probes = r.value("pe.idle.probes");
  rep.executed = r.value("pe.msgs.executed");
  rep.net_packets = machine.fabric().network_packets();
  rep.send_ns_p50 = median(send_ns);
  if (traced) {
    const RingReadout rr = read_rings(machine.trace_session().collect(), 1);
    rep.handler_spans = rr.handler_spans;
    rep.ring_drops = rr.dropped;
    rep.handler_p50_us = median(rr.handler_us);
    rep.busy_frac = rr.busy_frac;
  }
  rep.peak_rss_mb = usage().peak_rss_mb;
  return rep;
}

bool read_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Forks rank 1, runs rank 0 here, and collects both reports.
Segment run_segment(const Args& args, int index, double seconds,
                    bool traced) {
  const std::string session = "pb" + std::to_string(::getpid()) + "s" +
                              std::to_string(index);
  const Scope span(traced ? "pingpong.segment.traced" : "pingpong.segment");
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  Segment seg;
  const std::uint64_t t_start = bgq::now_ns();
  const pid_t child = ::fork();
  if (child < 0) throw std::runtime_error("fork failed");
  if (child == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(fds[0]);
    int rc = 1;
    try {
      Segment unused;
      const RankReport rep =
          run_rank(args, 1, session, traced, t_start, 0, &unused);
      rc = ::write(fds[1], &rep, sizeof(rep)) ==
                   static_cast<ssize_t>(sizeof(rep))
               ? 0
               : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: rank 1: %s\n", e.what());
    }
    ::_exit(rc);
  }
  ::close(fds[1]);
  bool ok = false;
  try {
    const std::uint64_t deadline =
        t_start + static_cast<std::uint64_t>(seconds * 1e9);
    seg.r0 = run_rank(args, 0, session, traced, t_start, deadline, &seg);
    ok = read_all(fds[0], &seg.r1, sizeof(seg.r1));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: rank 0: %s\n", e.what());
  }
  ::close(fds[0]);
  // Reap rank 1; a child that outlives its segment by 20 s is killed.
  int status = 0;
  for (int i = 0; i < 2000; ++i) {
    if (::waitpid(child, &status, WNOHANG) == child) break;
    if (i == 1999) {
      ::kill(child, SIGKILL);
      ::waitpid(child, &status, 0);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  bgq::transport::ShmTransport::unlink_session(session);
  if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("ping-pong segment " + std::to_string(index) +
                             " failed");
  }
  return seg;
}

struct Segments {
  NsHistogram rtt_ns;  ///< every segment's round trips
  std::vector<double> setup_s;
  std::vector<RankReport> r0, r1;
  /// One-way latency quantile in us (RTT/2).
  double one_way_us(double q) const {
    return rtt_ns.smoothed_quantile(q) * 0.5e-3;
  }
};

/// Runs `n` segments sharing `seconds`; pools samples and tallies checks.
Segments run_segments(const Args& args, int first, int n, double seconds,
                      bool traced, Result& out) {
  Segments segs;
  std::uint64_t bad = 0;
  for (int i = 0; i < n; ++i) {
    const Segment s = run_segment(args, first + i, seconds / n, traced);
    out.attempted += s.r0.received;
    // A round trip fails when its echo was wrong or rank 1 saw its ping
    // out of sequence or corrupted.
    bad += s.r0.bad + s.r1.bad;
    if (s.r1.received != s.r0.received) {
      out.wrong("rank 1 echoed " + std::to_string(s.r1.received) +
                " pings but rank 0 got " + std::to_string(s.r0.received) +
                " echoes");
    }
    segs.rtt_ns.merge(s.rtt_ns);
    segs.setup_s.push_back(s.setup_s);
    segs.r0.push_back(s.r0);
    segs.r1.push_back(s.r1);
  }
  out.failed += bad;
  if (bad != 0) {
    out.wrong(std::to_string(bad) + " round trips had a wrong payload or "
              "sequence number");
  }
  return segs;
}

}  // namespace

void run_pingpong(const Args& args, Result& out) {
  if (!args.trace) {
    // Eight segments per ten seconds, each with its own fork, attach
    // handshake and machines: that many set-up samples, and latency
    // pooled over processes placed afresh each time.
    const int n = std::max(4, static_cast<int>(args.seconds * 0.8));
    const Segments segs = run_segments(args, 0, n, args.seconds, false, out);
    double rss1 = 0;
    for (const RankReport& r : segs.r1) rss1 = std::max(rss1, r.peak_rss_mb);
    out.set("setup_s", median(segs.setup_s));
    // The two ranks run side by side: the job's peak is the sum.
    out.set("peak_rss_mb", usage().peak_rss_mb + rss1);
    out.set("primary_us", segs.one_way_us(0.50));
    out.set("secondary_us", segs.one_way_us(0.95));
    return;
  }

  // Traced pass: an untraced baseline, then the same loop with the event
  // rings on, a counted steady-state window and the send timer.
  const Segments base =
      run_segments(args, 0, 2, args.seconds * 0.3, false, out);
  const Segments traced =
      run_segments(args, 2, 2, args.seconds * 0.3, true, out);
  const double p50_base = base.one_way_us(0.5);
  const double p50_traced = traced.one_way_us(0.5);
  out.set("trace.overhead_frac", p50_traced / p50_base - 1.0);

  RankReport sum;
  std::vector<double> send_ns, handler_us, busy;
  std::vector<const RankReport*> ranks;
  for (const RankReport& r : traced.r0) ranks.push_back(&r);
  for (const RankReport& r : traced.r1) ranks.push_back(&r);
  for (const RankReport* r : ranks) {
    sum.win_msgs += r->win_msgs;
    sum.win_allocs += r->win_allocs;
    sum.win_bytes += r->win_bytes;
    sum.win_ctx += r->win_ctx;
    sum.polls += r->polls;
    sum.injects += r->injects;
    sum.ring_full += r->ring_full;
    sum.fifo_spills += r->fifo_spills;
    sum.stalls += r->stalls;
    sum.net_packets += r->net_packets;
    sum.sends_network += r->sends_network;
    sum.idle_probes += r->idle_probes;
    sum.executed += r->executed;
    sum.handler_spans += r->handler_spans;
    sum.ring_drops += r->ring_drops;
    send_ns.push_back(r->send_ns_p50);
    handler_us.push_back(r->handler_p50_us);
    busy.push_back(r->busy_frac);
    if (r->handler_spans == 0) out.empty_source("handler spans on a rank");
  }
  const auto per = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  out.set("alloc.heap_allocs_per_msg", per(sum.win_allocs, sum.win_msgs));
  out.set("alloc.heap_bytes_per_msg", per(sum.win_bytes, sum.win_msgs));
  out.set("converse.send_ns", median(send_ns));
  out.set("converse.handler_p50_us", median(handler_us));
  out.set("converse.idle_probes_per_msg",
          per(sum.idle_probes, sum.executed));
  out.set("converse.busy_frac", median(busy));
  out.set("net.packets_per_msg", per(sum.net_packets, sum.sends_network));
  out.set("net.fifo_spills", static_cast<double>(sum.fifo_spills));
  out.set("pami.backpressure_stalls", static_cast<double>(sum.stalls));
  out.set("transport.polls_per_msg", per(sum.polls, sum.injects));
  out.set("transport.ring_full", static_cast<double>(sum.ring_full));
  out.set("transport.ctx_switches_per_msg", per(sum.win_ctx, sum.win_msgs));
  out.set("trace.ring_drops", static_cast<double>(sum.ring_drops));

  if (sum.ring_drops != 0) {
    out.empty_source("complete trace rings (" +
                     std::to_string(sum.ring_drops) + " events dropped)");
  }
  if (sum.win_msgs == 0) out.empty_source("steady-state window messages");
  if (sum.injects == 0 || sum.polls == 0) out.empty_source("transport counters");
  if (sum.sends_network == 0 || sum.net_packets == 0) {
    out.empty_source("network send counters");
  }
  if (sum.executed == 0) out.empty_source("pe.msgs.executed");
  if (send_ns.empty() || median(send_ns) <= 0) {
    out.empty_source("Pe::send_message timer");
  }
}

}  // namespace perfbench
