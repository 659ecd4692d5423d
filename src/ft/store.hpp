// Double in-memory checkpoint store.
//
// Charm++'s double in-memory scheme keeps rank r's checkpoint on r itself
// and on a buddy (r+1 mod P): one process death leaves every blob
// reachable on a survivor.  The emulation runs all "processes" in one
// address space, so the store is a single structure — but it tracks the
// *holder* of each copy honestly, and a killed process's copies are
// dropped (drop_holder) before recovery reads anything.  A recovery that
// would have been impossible on real hardware (both holders dead) is
// impossible here too.
//
// Epochs are written with put() then sealed with commit(); only the
// latest *committed* epoch is restored from.  The store retains at most
// the two most recent committed epochs (the in-flight one being written
// plus the fallback), mirroring the double-buffering of the real scheme.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace bgq::ft {

class CheckpointStore {
 public:
  /// Store process `proc`'s blob for `epoch` on holders `proc` and
  /// `buddy` (pass buddy == proc to keep a single copy).
  void put(std::uint64_t epoch, unsigned proc, unsigned buddy,
           std::vector<std::byte> blob) {
    std::lock_guard<std::mutex> g(mu_);
    auto& ep = epochs_[epoch];
    ep.copies.push_back({proc, proc, blob});
    if (buddy != proc) ep.copies.push_back({proc, buddy, std::move(blob)});
  }

  /// Seal `epoch`: it becomes restorable, and committed epochs older than
  /// its predecessor are pruned (double buffering).
  void commit(std::uint64_t epoch) {
    std::lock_guard<std::mutex> g(mu_);
    epochs_[epoch].complete = true;
    std::uint64_t keep_from = 0;
    std::uint64_t newest = 0;
    for (const auto& [e, rec] : epochs_) {
      if (!rec.complete) continue;
      keep_from = newest;  // second-newest committed
      newest = e;
    }
    for (auto it = epochs_.begin(); it != epochs_.end();) {
      it = (it->first < keep_from) ? epochs_.erase(it) : std::next(it);
    }
  }

  /// Newest committed epoch, or 0 when nothing is restorable yet.
  std::uint64_t latest_complete() const {
    std::lock_guard<std::mutex> g(mu_);
    std::uint64_t newest = 0;
    for (const auto& [e, rec] : epochs_) {
      if (rec.complete) newest = std::max(newest, e);
    }
    return newest;
  }

  /// All copies held by `proc` vanish with it (called at kill time).
  void drop_holder(unsigned proc) {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& [e, rec] : epochs_) {
      auto& v = rec.copies;
      v.erase(std::remove_if(v.begin(), v.end(),
                             [proc](const Copy& c) {
                               return c.holder == proc;
                             }),
              v.end());
    }
  }

  /// Fetch `proc`'s blob for `epoch` from any surviving holder.
  bool fetch(std::uint64_t epoch, unsigned proc,
             std::vector<std::byte>& out) const {
    std::lock_guard<std::mutex> g(mu_);
    const auto it = epochs_.find(epoch);
    if (it == epochs_.end()) return false;
    for (const auto& c : it->second.copies) {
      if (c.proc == proc) {
        out = c.blob;
        return true;
      }
    }
    return false;
  }

  /// Processes with at least one surviving copy in `epoch`, sorted.
  std::vector<unsigned> procs(std::uint64_t epoch) const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<unsigned> out;
    const auto it = epochs_.find(epoch);
    if (it == epochs_.end()) return out;
    for (const auto& c : it->second.copies) out.push_back(c.proc);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Total bytes resident across all copies (reported as
  /// `ft.checkpoint_bytes`).
  std::uint64_t resident_bytes() const {
    std::lock_guard<std::mutex> g(mu_);
    std::uint64_t n = 0;
    for (const auto& [e, rec] : epochs_) {
      for (const auto& c : rec.copies) n += c.blob.size();
    }
    return n;
  }

 private:
  struct Copy {
    unsigned proc;    ///< whose state this is
    unsigned holder;  ///< which process's memory it lives in
    std::vector<std::byte> blob;
  };
  struct Epoch {
    bool complete = false;
    std::vector<Copy> copies;
  };

  mutable std::mutex mu_;
  std::map<std::uint64_t, Epoch> epochs_;
};

}  // namespace bgq::ft
