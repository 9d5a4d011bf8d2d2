// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Deterministic fault injection for robustness testing.
//
// Fault points are named call sites ("cache_write", "fit", "dispatch",
// "snapshot", ...) that code under test interrogates with
// FaultRegistry::Global().ShouldFail("site"). The registry is configured
// once, from the KNNSHAP_FAULTS environment variable:
//
//   KNNSHAP_FAULTS=cache_write:after=3,fit:p=0.1,dispatch:after=0
//
//   site:after=N  fire on every call strictly after the first N
//                 (after=0 fires always; deterministic regardless of seed)
//   site:p=F      fire each call with probability F, drawn from a
//                 per-site RNG seeded by KNNSHAP_FAULTS_SEED (default 0)
//                 xor'd with the site name hash — a fixed seed gives a
//                 byte-reproducible fault sequence
//
// Cost when unset: Enabled() is one relaxed atomic load (a plain load on
// x86), so a test may reconfigure while other threads poll; every
// injection site is
//   if (FaultInjectionEnabled() && Fault("site")) { ...fail... }
// so production traffic pays a single never-taken branch per site. CI
// proves the compiled-but-unset arm byte-identical to the golden
// transcript.
//
// Tests reconfigure programmatically with Configure()/Reset() — the env
// variable is read once at first Global() use.

#ifndef KNNSHAP_UTIL_FAULT_H_
#define KNNSHAP_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace knnshap {

/// Process-wide registry of armed fault points.
class FaultRegistry {
 public:
  /// The singleton, configured from KNNSHAP_FAULTS on first use.
  static FaultRegistry& Global();

  /// (Re)configure from a spec string ("site:after=N,site:p=F,...").
  /// An empty spec disarms everything. Returns false (and disarms) if the
  /// spec does not parse. `seed` feeds the per-site RNGs for p= entries.
  bool Configure(const std::string& spec, uint64_t seed = 0);

  /// Disarm all fault points.
  void Reset();

  /// True when any fault point is armed. Cheap (plain bool load);
  /// the fast-path guard at every injection site.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Should the fault at `site` fire on this call? Counts the call either
  /// way. Unarmed sites always answer false.
  bool ShouldFail(const std::string& site);

  /// Calls observed at `site` since configuration (test introspection).
  uint64_t CallCount(const std::string& site);

 private:
  struct Site {
    // after-mode: fire when calls_seen (pre-increment) >= threshold.
    bool has_after = false;
    uint64_t after = 0;
    // p-mode: fire with probability p using the xorshift state.
    bool has_p = false;
    double p = 0.0;
    uint64_t rng_state = 1;
    uint64_t calls = 0;
  };

  std::mutex mu_;
  std::unordered_map<std::string, Site> sites_;
  std::atomic<bool> enabled_{false};
};

/// Convenience fast-path guard: `if (FaultInjectionEnabled() && Fault("x"))`.
inline bool FaultInjectionEnabled() { return FaultRegistry::Global().enabled(); }

/// Slow path: asks the registry whether `site` fires now.
inline bool Fault(const std::string& site) {
  return FaultRegistry::Global().ShouldFail(site);
}

}  // namespace knnshap

#endif  // KNNSHAP_UTIL_FAULT_H_
