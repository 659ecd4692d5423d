// Layer microtiming pass: each layer's public API timed on its own, with
// no runtime above it.  Every call batch is wrapped in one of the
// benchmark's spans; the reported figure is the median batch's time per
// call.  The pass also checks that the operator-new counter works.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "alloc/pool_allocator.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "converse/machine.hpp"
#include "fft/fft1d.hpp"
#include "m2m/manytomany.hpp"
#include "md/kernels.hpp"
#include "md/system.hpp"
#include "md/tables.hpp"
#include "queue/l2_atomic_queue.hpp"
#include "transport/shm.hpp"

namespace perfbench {
namespace {

/// Runs `batch` calls of `fn` per span, `batches` times; median ns/call.
/// The batch spans are children of one span for the whole layer.
template <typename Fn>
double per_call_ns(const char* name, int batches, int batch, Fn&& fn) {
  const Scope layer(name);
  std::vector<double> v;
  for (int b = 0; b < batches; ++b) {
    const Scope span("batch", layer.index());
    const std::uint64_t t0 = bgq::now_ns();
    for (int i = 0; i < batch; ++i) fn(i);
    v.push_back(static_cast<double>(bgq::now_ns() - t0) / batch);
  }
  return median(v);
}

double pool_pair_ns(std::uint64_t seed) {
  bgq::alloc::PoolAllocator pool(1);
  bgq::Xoshiro256 rng(seed);
  std::vector<std::size_t> sizes(4096);
  for (auto& s : sizes) s = 16 + rng() % 49;  // 16..64 B
  return per_call_ns("alloc.pool_pair", 40, 20000, [&](int i) {
    void* p = pool.allocate(0, sizes[static_cast<std::size_t>(i) & 4095]);
    static_cast<volatile char*>(p)[0] = 1;
    pool.deallocate(0, p);
  });
}

double queue_pair_ns() {
  bgq::queue::L2AtomicQueue<void*> q(1024);
  static int token;
  return per_call_ns("queue.pair", 40, 20000, [&](int) {
    q.enqueue(&token);
    if (q.try_dequeue() != &token) throw std::runtime_error("queue lost");
  });
}

double fft1d_ns(std::uint64_t seed) {
  bgq::fft::Fft1D plan(32);
  bgq::Xoshiro256 rng(seed);
  std::vector<bgq::fft::cplx> x(32);
  for (auto& c : x) {
    c = {static_cast<double>(rng() % 1000), static_cast<double>(rng() % 1000)};
  }
  return per_call_ns("fft.fft1d", 40, 2000, [&](int) {
    plan.forward(x.data());
    plan.inverse(x.data());
  }) / 2;
}

double nonbonded_ns_per_pair(std::uint64_t seed) {
  bgq::md::BuildOptions opt;
  opt.box = 20.0;
  opt.seed = seed;
  const bgq::md::System sys = bgq::md::build_system(opt);
  bgq::md::ForceTable table(8.0, 0.4, 7.0);
  bgq::md::LjPairTable lj(sys.lj_types);
  const auto pairs = bgq::md::build_pairs(sys.pos, sys.type, lj, sys.box,
                                          8.0, sys.exclusions);
  std::vector<bgq::md::Vec3> f(sys.natoms());
  const double per_call = per_call_ns("md.nonbonded", 15, 10, [&](int) {
    bgq::md::compute_nonbonded_qpx(sys.pos, sys.charge, pairs, table,
                                   sys.box, f);
  });
  return pairs.i.empty() ? 0 : per_call / static_cast<double>(pairs.i.size());
}

/// One all-to-all m2m burst among the 4 PEs of a 2x2 SMP machine, each
/// pair exchanging one 32^3-FFT transpose block (16^3 complex = 64 KB).
double m2m_burst_us() {
  constexpr std::size_t kBlock = 16 * 16 * 16 * sizeof(bgq::fft::cplx);
  constexpr int kBursts = 60;
  bgq::cvs::MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = bgq::cvs::Mode::kSmp;
  cfg.workers_per_process = 2;
  bgq::cvs::Machine machine(cfg);
  bgq::m2m::Coordinator coord(machine);
  const std::size_t pes = machine.pe_count();
  std::vector<std::vector<std::byte>> send(pes), recv(pes);
  std::vector<bgq::m2m::Handle*> h(pes);
  for (std::size_t r = 0; r < pes; ++r) {
    send[r].assign(kBlock * pes, std::byte{static_cast<unsigned char>(r)});
    recv[r].assign(kBlock * pes, std::byte{0});
    h[r] = &coord.create(static_cast<bgq::cvs::PeRank>(r), 900, pes, pes);
    h[r]->set_send_base(send[r].data());
    h[r]->set_recv_base(recv[r].data());
    for (std::size_t i = 0; i < pes; ++i) {
      h[r]->set_send(i, static_cast<bgq::cvs::PeRank>(i),
                     static_cast<std::uint32_t>(r), i * kBlock, kBlock);
      h[r]->set_recv(i, i * kBlock, kBlock);
    }
  }
  std::vector<double> us;
  std::atomic<int> exited{0};
  machine.run([&](bgq::cvs::Pe& pe) {
    bgq::m2m::Handle& mine = *h[pe.rank()];
    for (std::uint64_t e = 1; e <= kBursts; ++e) {
      pe.barrier();
      const std::int32_t sp =
          pe.rank() == 0 ? spans().open("m2m.burst") : -1;
      const std::uint64_t t0 = bgq::now_ns();
      mine.start();
      while (!mine.recv_done(e) || !mine.send_done(e)) {
        if (!pe.pump_one()) std::this_thread::yield();
      }
      if (pe.rank() == 0) {
        us.push_back(static_cast<double>(bgq::now_ns() - t0) * 1e-3);
        spans().close(sp);
      }
    }
    if (exited.fetch_add(1) + 1 == static_cast<int>(pes)) pe.exit_all();
  });
  for (std::size_t r = 0; r < pes; ++r) {
    for (std::size_t i = 0; i < pes; ++i) {
      if (recv[r][i * kBlock] != std::byte{static_cast<unsigned char>(i)}) {
        throw std::runtime_error("m2m burst delivered a wrong block");
      }
    }
  }
  return median(us);
}

/// Counts deliveries; owns (and frees) each packet.
class CountingSink final : public bgq::transport::DeliverySink {
 public:
  void deliver_remote(bgq::net::Packet* p) override {
    delete p;
    n.fetch_add(1, std::memory_order_release);
  }
  std::atomic<std::uint64_t> n{0};
};

bgq::net::Packet* frame(unsigned src, unsigned dst) {
  auto* p = new bgq::net::Packet;
  p->kind = bgq::net::TransferKind::kMemFifo;
  p->src = static_cast<bgq::topo::NodeId>(src);
  p->dst = static_cast<bgq::topo::NodeId>(dst);
  p->dispatch = 1;
  p->payload.assign(16, std::byte{0x5A});
  return p;
}

/// A raw 16 B frame hop through ShmTransport::inject/poll between two
/// forked processes, no runtime above it: RTT/2 of a frame bounced back.
double transport_hop_us() {
  constexpr int kHops = 20000, kWarm = 2000;
  const Scope span("transport.hop");
  const std::string session =
      "pbhop" + std::to_string(::getpid());
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t child = ::fork();
  if (child < 0) throw std::runtime_error("fork failed");
  const unsigned rank = child == 0 ? 1 : 0;
  if (child == 0) ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::vector<double> us;
  int rc = 0;
  try {
    bgq::transport::Config cfg;
    cfg.kind = bgq::transport::Kind::kShm;
    cfg.nprocs = 2;
    cfg.rank = rank;
    cfg.session = session;
    bgq::transport::ShmTransport t(cfg);
    CountingSink sink;
    t.set_sink(&sink);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    auto await = [&](std::uint64_t want) {
      while (sink.n.load(std::memory_order_acquire) < want) {
        t.poll();
        if (std::chrono::steady_clock::now() > deadline) {
          throw std::runtime_error("transport hop timed out");
        }
      }
    };
    for (int i = 0; i < kHops; ++i) {
      const auto n = static_cast<std::uint64_t>(i) + 1;
      if (rank == 0) {
        const std::uint64_t t0 = bgq::now_ns();
        t.inject(frame(0, 1));
        await(n);
        if (i >= kWarm) {
          us.push_back(static_cast<double>(bgq::now_ns() - t0) * 0.5e-3);
        }
      } else {
        await(n);
        t.inject(frame(1, 0));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: transport hop rank %u: %s\n", rank,
                 e.what());
    rc = 1;
  }
  if (child == 0) ::_exit(rc);
  int status = 0;
  ::waitpid(child, &status, 0);
  bgq::transport::ShmTransport::unlink_session(session);
  if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("raw transport hop failed");
  }
  return median(us);
}

}  // namespace

void layer_microtimings(const Args& args, Result& out) {
  // The counter must see exactly the allocation made here.
  heap_counting(true);
  const HeapCount h0 = heap_count();
  void* probe = ::operator new(24);
  const HeapCount h1 = heap_count();
  heap_counting(false);
  ::operator delete(probe);
  if (h1.allocs - h0.allocs != 1 || h1.bytes - h0.bytes != 24) {
    out.empty_source("operator-new counter");
  }

  const std::pair<const char*, double> timings[] = {
      {"alloc.pool_pair_ns", pool_pair_ns(args.seed)},
      {"queue.pair_ns", queue_pair_ns()},
      {"fft.fft1d_ns", fft1d_ns(args.seed)},
      {"md.nonbonded_ns_per_pair", nonbonded_ns_per_pair(args.seed)},
      {"m2m.burst_us", m2m_burst_us()},
      {"transport.hop_us", transport_hop_us()},
  };
  for (const auto& [name, value] : timings) {
    out.set(name, value);
    if (!(value > 0)) out.empty_source(name);
  }
}

}  // namespace perfbench
