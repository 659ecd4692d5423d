// Process-wide counter registry — the replacement for the PeStats
// fields that used to be scattered through the machine layer.
//
// Names are interned once (setup path, mutex) into dense ids; each traced
// thread of execution owns a *shard*, a plain array of cells indexed by
// id.  Hot-path increments are one non-atomic add on the owning shard —
// exactly the cost of the old `++stats_.messages_executed` — and totals
// are summed across shards at report time.  Like the PeStats they
// replace, totals are exact at quiesce (after Machine::run returns) and
// advisory while threads are live.
//
// A counter that lives outside the shards (allocator, PAMI context,
// fabric, FT, trace rings) is a *reader* its owner registers once, when
// it is built; report() and total() add every reader of a name to that
// name's shard cells, reading the owner's field live at report time.
//
// Naming scheme: lowercase dotted `<subsystem>.<object>.<metric>`, e.g.
// `pe.msgs.executed`, `pe.sends.network`, `alloc.pool.hits`,
// `comm.parks`.  Keep units in the trailing segment when ambiguous
// (`pe.busy_ns`).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/histogram.hpp"

namespace bgq::trace {

/// A flat, name-sorted snapshot of every counter and reader.
struct Report {
  std::vector<std::pair<std::string, std::uint64_t>> entries;

  /// Value of `name`, or 0 when absent.
  std::uint64_t value(std::string_view name) const noexcept {
    for (const auto& [k, v] : entries) {
      if (k == name) return v;
    }
    return 0;
  }
  bool has(std::string_view name) const noexcept {
    for (const auto& [k, v] : entries) {
      if (k == name) return true;
    }
    return false;
  }
};

class Registry {
 public:
  using Id = std::size_t;

  /// One thread's block of counter cells and histogram instances.
  /// add()/get()/record() are owner-thread operations; the registry reads
  /// them only at report time.
  class Shard {
   public:
    void add(Id id, std::uint64_t v = 1) noexcept {
      if (id >= cells_.size()) cells_.resize(id + 1, 0);
      cells_[id] += v;
    }
    std::uint64_t get(Id id) const noexcept {
      return id < cells_.size() ? cells_[id] : 0;
    }
    /// Record one sample into this shard's instance of histogram `id`
    /// (an id from intern_hist, not intern).
    void record(Id id, std::uint64_t v) noexcept {
      if (id >= hists_.size()) hists_.resize(id + 1);
      hists_[id].record(v);
    }
    const Histogram* hist(Id id) const noexcept {
      return id < hists_.size() ? &hists_[id] : nullptr;
    }

   private:
    friend class Registry;
    Shard(std::size_t reserve, std::size_t hist_reserve)
        : cells_(reserve, 0), hists_(hist_reserve) {}
    std::vector<std::uint64_t> cells_;
    std::vector<Histogram> hists_;
  };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Intern `name` into a dense id (idempotent; thread-safe).  Intern all
  /// counters before creating shards so cells never grow on a hot path.
  Id intern(std::string_view name) {
    std::lock_guard<std::mutex> g(mu_);
    for (Id i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return names_.size() - 1;
  }

  /// Intern a histogram name into its own dense id space (idempotent;
  /// thread-safe).  Intern all histograms before creating shards so the
  /// per-shard Histogram vector never grows on a hot path.
  Id intern_hist(std::string_view name) {
    std::lock_guard<std::mutex> g(mu_);
    for (Id i = 0; i < hist_names_.size(); ++i) {
      if (hist_names_[i] == name) return i;
    }
    hist_names_.emplace_back(name);
    return hist_names_.size() - 1;
  }

  /// Create (and own) a shard sized to the counters interned so far.
  Shard* make_shard() {
    std::lock_guard<std::mutex> g(mu_);
    shards_.push_back(std::unique_ptr<Shard>(
        new Shard(names_.size(), hist_names_.size())));
    return shards_.back().get();
  }

  // ---- thread binding -------------------------------------------------
  // Mirrors Session's ring binding: each traced thread binds its shard
  // once, and always-compiled runtime record sites go through the TLS
  // pointer so callers that run on foreign threads (fabric delivery, comm
  // threads) still charge the right shard.  Unbound threads pay one TLS
  // load and a branch.

  static void bind_thread(Shard* s) noexcept { tls_shard_ = s; }

  /// Record into the calling thread's bound shard, if any.
  static void record_here(Id hist_id, std::uint64_t v) noexcept {
    if (Shard* s = tls_shard_) s->record(hist_id, v);
  }

  /// Every interned histogram name with its cross-shard merge, in intern
  /// order (report/export path).
  std::vector<std::pair<std::string, Histogram>> hist_report() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<std::pair<std::string, Histogram>> out;
    out.reserve(hist_names_.size());
    for (Id i = 0; i < hist_names_.size(); ++i) {
      Histogram merged;
      for (const auto& s : shards_) {
        if (const Histogram* h = s->hist(i)) merged.merge(*h);
      }
      out.emplace_back(hist_names_[i], merged);
    }
    return out;
  }

  /// What one reader returns: the owner's counter, read at report time.
  using ReadFn = std::function<std::uint64_t()>;

  /// Unregisters the readers of one add_readers() call.
  struct Unregister {
    std::uint64_t key = 0;
    void operator()(Registry* reg) const { reg->drop_readers(key); }
  };
  /// The handle on one owner's readers.  Destroying or reassigning it
  /// unregisters them, so a handle kept as the last member of the object
  /// its readers read never leaves a reader dangling.
  using Readers = std::unique_ptr<Registry, Unregister>;

  /// Register named readers for counters one object owns (setup path;
  /// thread-safe).  Names need not be interned; several readers of one
  /// name add up.  Readers run under the registry mutex, so dropping a
  /// handle waits out a read in flight; they must not call back into the
  /// registry.
  [[nodiscard]] Readers add_readers(
      std::vector<std::pair<std::string_view, ReadFn>> readers) {
    std::lock_guard<std::mutex> g(mu_);
    const std::uint64_t key = ++last_key_;
    for (auto& [name, read] : readers) {
      readers_.push_back({key, std::string(name), std::move(read)});
    }
    return Readers(this, Unregister{key});
  }

  /// Sum of `name` across all shards plus all its readers (live).
  std::uint64_t total(std::string_view name) const {
    return report().value(name);
  }

  /// Every counter (summed over shards and readers), sorted by name.
  Report report() const {
    std::lock_guard<std::mutex> g(mu_);
    Report rep;
    for (Id i = 0; i < names_.size(); ++i) {
      std::uint64_t sum = 0;
      for (const auto& s : shards_) sum += s->get(i);
      rep.entries.emplace_back(names_[i], sum);
    }
    for (const auto& r : readers_) {
      auto it = std::find_if(rep.entries.begin(), rep.entries.end(),
                             [&](const auto& e) { return e.first == r.name; });
      if (it == rep.entries.end()) {
        rep.entries.emplace_back(r.name, r.read());
      } else {
        it->second += r.read();
      }
    }
    std::sort(rep.entries.begin(), rep.entries.end());
    return rep;
  }

 private:
  struct Reader {
    std::uint64_t key;  // of the add_readers() call that registered it
    std::string name;
    ReadFn read;
  };

  void drop_readers(std::uint64_t key) {
    std::lock_guard<std::mutex> g(mu_);
    std::erase_if(readers_, [key](const Reader& r) { return r.key == key; });
  }

  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::string> hist_names_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Reader> readers_;
  std::uint64_t last_key_ = 0;

  static thread_local Shard* tls_shard_;
};

inline thread_local Registry::Shard* Registry::tls_shard_ = nullptr;

}  // namespace bgq::trace
