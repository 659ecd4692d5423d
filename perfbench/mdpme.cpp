// Workload md-pme: in-process SMP, 2 nodes x 2 workers.  Each segment
// builds one machine that first runs 32^3 fft::Pencil3DFFT
// forward+backward roundtrips, alternating kP2P and kM2M (Table I's two
// columns), and then mini-NAMD (md::ParallelMd) steps with PME every 4
// steps over m2m.  Compute, 64 KB rendezvous transfers and m2m bursts
// dominate; small-message overhead is a minority share here.
//
// Checks, each computed apart from the parallel paths: a roundtrip
// restores its input to 1e-9 relative; the forward output matches a
// direct DFT at seeded sample points; a frozen MD step's potential
// matches the serial potential (cutoff pairs + bonds + angles + serial
// PME + exclusion correction) to 1e-6 relative; NVE drift over every PME
// cycle stays under 5% of the initial kinetic energy.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <memory>

#include "common.hpp"
#include "common/rng.hpp"
#include "converse/machine.hpp"
#include "fft/pencil3d.hpp"
#include "m2m/manytomany.hpp"
#include "md/kernels.hpp"
#include "md/parallel_md.hpp"
#include "md/pme_serial.hpp"
#include "md/system.hpp"

namespace perfbench {
namespace {

using bgq::fft::cplx;
namespace md = bgq::md;

constexpr std::size_t kN = 32;     ///< FFT grid edge
constexpr unsigned kPmeEvery = 4;
constexpr int kSamples = 8;        ///< direct-DFT sample points per check

bgq::cvs::MachineConfig make_config(bool traced) {
  bgq::cvs::MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = bgq::cvs::Mode::kSmp;
  cfg.workers_per_process = 2;
  cfg.trace_events = traced;
  cfg.trace_ring_events = 1 << 18;
  return cfg;
}

md::MdConfig md_config(double dt, unsigned pme_every, std::uint32_t tags) {
  md::MdConfig c;
  c.cutoff = 8.0;
  c.switch_dist = 7.0;
  c.beta = 0.4;
  c.pme_grid = 32;
  c.pme_every = pme_every;
  c.dt = dt;
  c.transport = bgq::fft::Transport::kM2M;
  c.m2m_tag_base = tags;
  return c;
}

/// Serial potential of the initial configuration, the way the parallel
/// MD integration test computes its reference.
double serial_potential(const md::System& sys, const md::MdConfig& cfg) {
  md::ForceTable table(cfg.cutoff, cfg.beta, cfg.switch_dist);
  md::LjPairTable lj(sys.lj_types);
  const auto pairs = md::build_pairs(sys.pos, sys.type, lj, sys.box,
                                     cfg.cutoff, sys.exclusions);
  std::vector<md::Vec3> f(sys.natoms());
  const auto nb = md::compute_nonbonded_scalar(sys.pos, sys.charge, pairs,
                                               table, sys.box, f);
  const double bond = md::compute_bonds(sys.pos, sys.bonds, sys.box, f);
  const double angle = md::compute_angles(sys.pos, sys.angles, sys.box, f);
  md::PmeSerial pme(cfg.pme_grid, cfg.beta, sys.box);
  const double recip = pme.compute(sys.pos, sys.charge).e_recip;
  double excl = 0;
  for (const auto& [a, b] : sys.exclusions) {
    const md::Vec3 d = sys.min_image(sys.pos[a], sys.pos[b]);
    const double r = std::sqrt(d.norm2());
    excl += -md::kCoulomb * sys.charge[a] * sys.charge[b] *
            std::erf(cfg.beta * r) / r;
  }
  return bond + angle + nb.vdw + nb.elec_real + recip + excl;
}

/// The seeded FFT input, as a function of the global grid point.
cplx input_at(std::uint64_t seed, std::size_t x, std::size_t y,
              std::size_t z) {
  bgq::SplitMix64 sm(seed ^ ((x * kN + y) * kN + z) * 0x9E3779B97F4A7C15ull);
  const auto u = [&] {
    return static_cast<double>(sm.next() >> 11) * 0x1.0p-53 - 0.5;
  };
  const double re = u();
  return {re, u()};
}

/// Direct DFT of the seeded input at (kx, ky, kz).
cplx direct_dft(std::uint64_t seed, std::size_t kx, std::size_t ky,
                std::size_t kz) {
  static const std::vector<cplx> w = [] {
    std::vector<cplx> t(kN);
    for (std::size_t k = 0; k < kN; ++k) {
      t[k] = std::polar(1.0, -2.0 * M_PI * static_cast<double>(k) / kN);
    }
    return t;
  }();
  cplx sum = 0;
  for (std::size_t x = 0; x < kN; ++x)
    for (std::size_t y = 0; y < kN; ++y)
      for (std::size_t z = 0; z < kN; ++z)
        sum += input_at(seed, x, y, z) * w[(kx * x + ky * y + kz * z) % kN];
  return sum;
}

struct Sample {
  std::size_t kx, ky, kz;
  cplx want;
};

/// Everything a run of segments measured.  Timings are kept per segment:
/// each segment's buffers land on fresh pages, and its cache placement
/// moves the roundtrip time by several percent, so a run reports the mean
/// of its segments' medians.
struct Tally {
  std::vector<double> setup_s;
  std::vector<std::vector<double>> p2p_us, m2m_us, cycle_ms;
  std::vector<RingReadout> rings;
  std::vector<bgq::trace::Report> reports;
};

double mean_of_medians(const std::vector<std::vector<double>>& per_segment) {
  double sum = 0;
  for (const auto& v : per_segment) sum += median(v);
  return per_segment.empty() ? 0 : sum / static_cast<double>(per_segment.size());
}

class Segment {
 public:
  Segment(const Args& args, const md::System& sys, double ref_potential,
          const std::vector<Sample>& samples, bool traced)
      : samples_(samples), ref_potential_(ref_potential) {
    const std::uint64_t t0 = bgq::now_ns();
    t0_ = t0;
    machine_ = std::make_unique<bgq::cvs::Machine>(make_config(traced));
    coord_ = std::make_unique<bgq::m2m::Coordinator>(*machine_);
    p2p_ = std::make_unique<bgq::fft::Pencil3DFFT>(
        *machine_, kN, bgq::fft::Transport::kP2P, coord_.get(), 100);
    m2m_ = std::make_unique<bgq::fft::Pencil3DFFT>(
        *machine_, kN, bgq::fft::Transport::kM2M, coord_.get(), 110);
    md_ = std::make_unique<md::ParallelMd>(
        *machine_, coord_.get(), sys, md_config(0.2, kPmeEvery, 200));
    probe_ = std::make_unique<md::ParallelMd>(
        *machine_, coord_.get(), sys, md_config(0.0, 1, 300));
    const std::size_t pes = machine_->pe_count();
    inputs_.resize(pes);
    const std::size_t g = p2p_->grid(), b = p2p_->block();
    for (std::size_t r = 0; r < pes; ++r) {
      auto& in = inputs_[r];
      in.resize(p2p_->local_elems());
      const std::size_t row = r / g, col = r % g;
      for (std::size_t bx = 0; bx < b; ++bx)
        for (std::size_t by = 0; by < b; ++by)
          for (std::size_t z = 0; z < kN; ++z)
            in[p2p_->z_index(bx, by, z)] =
                input_at(args.seed, row * b + bx, col * b + by, z);
    }
  }

  /// Runs the FFT phase for `fft_s` seconds and the MD phase for `md_s`.
  void run(double fft_s, double md_s, Result& out, Tally& tally) {
    std::atomic<int> exited{0};
    const int pes = static_cast<int>(machine_->pe_count());
    tally.p2p_us.emplace_back();
    tally.m2m_us.emplace_back();
    tally.cycle_ms.emplace_back();
    machine_->run([&](bgq::cvs::Pe& pe) {
      if (pe.rank() == 0) {
        tally.setup_s.push_back(
            static_cast<double>(bgq::now_ns() - t0_) * 1e-9);
      }
      body(pe, fft_s, md_s, tally.p2p_us.back(), tally.m2m_us.back(),
           tally.cycle_ms.back());
      if (exited.fetch_add(1) + 1 == pes) pe.exit_all();
    });

    // Operations: FFT roundtrips (timed ones plus the checked forward),
    // and MD steps (the frozen probe step plus every timed cycle's four).
    const std::uint64_t ffts = rounds_ * 2 + 1;
    out.attempted += ffts + 1 + cycles_ * kPmeEvery;
    out.failed += fft_bad_.load();
    if (fft_bad_.load() != 0) {
      out.wrong(std::to_string(fft_bad_.load()) +
                " FFT roundtrips missed the input or the direct DFT");
    }
    const double pot = probe_->total_energies(0).potential();
    if (!(std::abs(pot - ref_potential_) <=
          1e-6 * std::abs(ref_potential_) + 1e-6)) {
      ++out.failed;
      out.wrong("frozen MD step potential " + std::to_string(pot) +
                " vs serial " + std::to_string(ref_potential_));
    }
    const md::StepEnergies e0 = md_->total_energies(0);
    for (std::size_t c = 1; c < md_->steps_logged(); ++c) {
      const double drift =
          std::abs(md_->total_energies(c).total() - e0.total());
      if (!(drift < 0.05 * e0.kinetic)) {
        out.failed += kPmeEvery;
        out.wrong("NVE drift " + std::to_string(drift) + " at PME cycle " +
                  std::to_string(c) + " exceeds 5% of kinetic " +
                  std::to_string(e0.kinetic));
      }
    }
    tally.reports.push_back(machine_->metrics_report());
    if (machine_->config().trace_events) {
      tally.rings.push_back(
          read_rings(machine_->trace_session().collect(), 2));
    }
  }

 private:
  /// All PEs agree on whether PE 0's deadline has passed.
  bool past(bgq::cvs::Pe& pe, std::uint64_t deadline) {
    if (pe.rank() == 0) stop_.store(bgq::now_ns() >= deadline);
    pe.barrier();
    const bool s = stop_.load();
    pe.barrier();
    return s;
  }

  void reset(bgq::cvs::Pe& pe, bgq::fft::Pencil3DFFT& f) {
    const auto& in = inputs_[pe.rank()];
    std::copy(in.begin(), in.end(), f.local_data(pe.rank()));
  }

  /// True when max |data - input| is within 1e-9 of the input's largest
  /// magnitude.
  bool restored(bgq::cvs::Pe& pe, bgq::fft::Pencil3DFFT& f) {
    const auto& in = inputs_[pe.rank()];
    const cplx* a = f.local_data(pe.rank());
    double err = 0, mag = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      err = std::max(err, std::abs(a[i] - in[i]));
      mag = std::max(mag, std::abs(in[i]));
    }
    return err <= 1e-9 * mag;
  }

  /// Forward alone, checked against the direct DFT at the sample points
  /// this PE owns in the X-pencil layout, then backward and rescale.
  void checked_forward(bgq::cvs::Pe& pe) {
    bgq::fft::Pencil3DFFT& f = *m2m_;
    reset(pe, f);
    f.forward(pe);
    const std::size_t g = f.grid(), b = f.block();
    const std::size_t row = pe.rank() / g, col = pe.rank() % g;
    bool ok = true;
    for (const Sample& s : samples_) {
      if (s.ky / b != row || s.kz / b != col) continue;
      const cplx got =
          f.local_data(pe.rank())[f.x_index(s.ky % b, s.kz % b, s.kx)];
      // 1e-9 of the transform's scale: sqrt(n^3) times the input's RMS,
      // which is under 1 here.
      ok = ok && std::abs(got - s.want) <=
                     1e-9 * std::sqrt(static_cast<double>(kN * kN * kN));
    }
    f.backward(pe);
    const double scale = 1.0 / static_cast<double>(kN * kN * kN);
    cplx* a = f.local_data(pe.rank());
    for (std::size_t i = 0; i < f.local_elems(); ++i) a[i] *= scale;
    ok = ok && restored(pe, f);
    if (!ok) fft_bad_.fetch_add(1);
  }

  void timed_roundtrip(bgq::cvs::Pe& pe, bgq::fft::Pencil3DFFT& f,
                       std::vector<double>& us) {
    reset(pe, f);
    pe.barrier();
    const std::uint64_t t0 = bgq::now_ns();
    f.roundtrip(pe);
    const std::uint64_t t1 = bgq::now_ns();
    if (pe.rank() == 0) us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (!restored(pe, f)) fft_bad_.fetch_add(1);
  }

  /// Every PE runs this; PE 0 records the timings.
  void body(bgq::cvs::Pe& pe, double fft_s, double md_s,
            std::vector<double>& p2p_us, std::vector<double>& m2m_us,
            std::vector<double>& cycle_ms) {
    probe_->run_steps(pe, 1);
    checked_forward(pe);
    const std::uint64_t t_fft =
        bgq::now_ns() + static_cast<std::uint64_t>(fft_s * 1e9);
    std::uint64_t rounds = 0;
    while (rounds < 2 || !past(pe, t_fft)) {
      const bool lead = pe.rank() == 0;
      std::int32_t sp = lead ? spans().open("fft.roundtrip.p2p") : -1;
      timed_roundtrip(pe, *p2p_, p2p_us);
      if (lead) spans().close(sp);
      sp = lead ? spans().open("fft.roundtrip.m2m") : -1;
      timed_roundtrip(pe, *m2m_, m2m_us);
      if (lead) spans().close(sp);
      ++rounds;
    }
    // MD: the first cycle also computes the initial forces, so it is run
    // but not timed.
    md_->run_steps(pe, kPmeEvery);
    std::uint64_t cycles = 1;
    const std::uint64_t t_md =
        bgq::now_ns() + static_cast<std::uint64_t>(md_s * 1e9);
    while (cycles < 3 || !past(pe, t_md)) {
      const std::int32_t sp =
          pe.rank() == 0 ? spans().open("md.pme_cycle") : -1;
      const std::uint64_t t0 = bgq::now_ns();
      md_->run_steps(pe, kPmeEvery);
      const std::uint64_t t1 = bgq::now_ns();
      if (pe.rank() == 0) {
        spans().close(sp);
        cycle_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      }
      ++cycles;
    }
    if (pe.rank() == 0) {
      rounds_ = rounds;
      cycles_ = cycles;
    }
  }

  const std::vector<Sample>& samples_;
  const double ref_potential_;
  std::uint64_t t0_ = 0;
  std::unique_ptr<bgq::cvs::Machine> machine_;
  std::unique_ptr<bgq::m2m::Coordinator> coord_;
  std::unique_ptr<bgq::fft::Pencil3DFFT> p2p_, m2m_;
  std::unique_ptr<md::ParallelMd> md_, probe_;
  std::vector<std::vector<cplx>> inputs_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> fft_bad_{0};
  std::uint64_t rounds_ = 0, cycles_ = 0;
};

struct Inputs {
  md::System sys;
  double ref_potential = 0;
  std::vector<Sample> samples;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  md::BuildOptions opt;
  opt.box = 20.0;
  opt.seed = seed;
  opt.with_bonds = true;
  in.sys = md::build_system(opt);
  in.ref_potential = serial_potential(in.sys, md_config(0.0, 1, 300));
  bgq::Xoshiro256 rng(seed ^ 0xF0F0F0F0ull);
  for (int i = 0; i < kSamples; ++i) {
    Sample s{rng() % kN, rng() % kN, rng() % kN, {}};
    s.want = direct_dft(seed, s.kx, s.ky, s.kz);
    in.samples.push_back(s);
  }
  return in;
}

Tally run_segments(const Args& args, const Inputs& in, int n, double seconds,
                   bool traced, Result& out) {
  Tally t;
  for (int i = 0; i < n; ++i) {
    Segment seg(args, in.sys, in.ref_potential, in.samples, traced);
    seg.run(seconds / n * 0.4, seconds / n * 0.6, out, t);
  }
  return t;
}

double step_us(const Tally& t) {
  return mean_of_medians(t.cycle_ms) * 1e3 / kPmeEvery;
}

/// Messages per operation, from a dedicated untimed machine: Converse
/// sends plus fabric transfers (m2m chunks and rendezvous pulls move no
/// Converse message).
struct Counts {
  double p2p = 0, m2m = 0, md = 0;
};

Counts count_messages(const md::System& sys) {
  Counts c;
  auto traffic = [](bgq::cvs::Machine& m) {
    return static_cast<double>(m.metrics_report().value("pe.msgs.sent") +
                               m.fabric().transfers());
  };
  constexpr int kOps = 4;
  for (auto tr : {bgq::fft::Transport::kP2P, bgq::fft::Transport::kM2M}) {
    bgq::cvs::Machine m(make_config(false));
    bgq::m2m::Coordinator coord(m);
    bgq::fft::Pencil3DFFT f(m, kN, tr, &coord, 110);
    std::atomic<int> exited{0};
    m.run([&](bgq::cvs::Pe& pe) {
      for (int i = 0; i < kOps; ++i) f.roundtrip(pe);
      if (exited.fetch_add(1) + 1 == 4) pe.exit_all();
    });
    (tr == bgq::fft::Transport::kP2P ? c.p2p : c.m2m) = traffic(m) / kOps;
  }
  // MD: two cycles minus one isolates the steady per-cycle traffic from
  // the initial force computation.
  double per_run[2];
  for (int k = 0; k < 2; ++k) {
    bgq::cvs::Machine m(make_config(false));
    bgq::m2m::Coordinator coord(m);
    md::ParallelMd sim(m, &coord, sys, md_config(0.2, kPmeEvery, 200));
    std::atomic<int> exited{0};
    m.run([&](bgq::cvs::Pe& pe) {
      sim.run_steps(pe, kPmeEvery * static_cast<unsigned>(k + 1));
      if (exited.fetch_add(1) + 1 == 4) pe.exit_all();
    });
    per_run[k] = traffic(m);
  }
  c.md = (per_run[1] - per_run[0]) / kPmeEvery;
  return c;
}

}  // namespace

void run_mdpme(const Args& args, Result& out) {
  const Inputs in = make_inputs(args.seed);

  if (!args.trace) {
    // A segment per second (at least five), each with its own machine.
    const int segs = std::max(5, static_cast<int>(args.seconds));
    const Tally t = run_segments(args, in, segs, args.seconds, false, out);
    out.set("setup_s", median(t.setup_s));
    out.set("peak_rss_mb", usage().peak_rss_mb);
    out.set("primary_us", step_us(t));
    out.set("secondary_us", mean_of_medians(t.m2m_us));
    return;
  }

  const int segs = std::max(2, static_cast<int>(args.seconds * 0.3));
  const Tally base =
      run_segments(args, in, segs, args.seconds * 0.3, false, out);
  const Tally traced =
      run_segments(args, in, segs, args.seconds * 0.3, true, out);
  out.set("trace.overhead_frac", step_us(traced) / step_us(base) - 1.0);
  out.set("fft.p2p_roundtrip_us", mean_of_medians(base.p2p_us));

  std::vector<double> handler_us, wait_us, busy, pme_ms, cutoff_ms;
  std::uint64_t spans_n = 0, drops = 0, phases = 0;
  for (const RingReadout& r : traced.rings) {
    handler_us.insert(handler_us.end(), r.handler_us.begin(),
                      r.handler_us.end());
    wait_us.insert(wait_us.end(), r.queue_wait_us.begin(),
                   r.queue_wait_us.end());
    busy.push_back(r.busy_frac);
    pme_ms.push_back(r.pme_span_ms);
    cutoff_ms.push_back(r.cutoff_span_ms);
    spans_n += r.handler_spans;
    drops += r.dropped;
    phases += r.phase_spans;
  }
  out.set("converse.handler_p50_us", median(handler_us));
  out.set("converse.queue_wait_p50_us", median(wait_us));
  out.set("converse.busy_frac", median(busy));
  out.set("md.pme_span_ms", median(pme_ms));
  out.set("md.cutoff_span_ms", median(cutoff_ms));
  out.set("trace.ring_drops", static_cast<double>(drops));

  std::uint64_t probes = 0, executed = 0, spills = 0, stalls = 0;
  for (const auto& r : traced.reports) {
    probes += r.value("pe.idle.probes");
    executed += r.value("pe.msgs.executed");
    spills += r.value("net.fifo.spills");
    stalls += r.value("comm.backpressure_stalls");
  }
  out.set("converse.idle_probes_per_msg",
          executed ? static_cast<double>(probes) / executed : 0.0);
  out.set("net.fifo_spills", static_cast<double>(spills));
  out.set("pami.backpressure_stalls", static_cast<double>(stalls));

  const Counts c = count_messages(in.sys);
  out.set("fft.msgs_per_roundtrip.p2p", c.p2p);
  out.set("fft.msgs_per_roundtrip.m2m", c.m2m);
  out.set("md.msgs_per_step", c.md);

  if (spans_n == 0) out.empty_source("handler spans");
  if (phases == 0) out.empty_source("MD phase spans");
  if (drops != 0) {
    out.empty_source("complete trace rings (" + std::to_string(drops) +
                     " events dropped)");
  }
  if (wait_us.empty()) out.empty_source("queue-wait pairs");
  if (executed == 0) out.empty_source("pe.msgs.executed");
  if (c.p2p == 0 || c.m2m == 0 || c.md == 0) {
    out.empty_source("message counters");
  }
}

}  // namespace perfbench
