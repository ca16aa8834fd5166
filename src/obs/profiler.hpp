// Self-profiler: host wall-clock attribution for the simulator's own
// control work (DESIGN.md §15).
//
// The tracer (tracer.hpp) observes *simulated* time; this observes *host*
// time — where the process itself spends its cycles while simulating. It
// exists to diagnose the O(nodes) per-heartbeat control terms (RM offers,
// LATE speculation scans, SkewTune's straggler argmax) that dominate
// per-event cost on the 10k-node grid.
//
// Activation follows the same opt-in idiom as the tracer: a process-global
// pointer, null by default. Every instrumentation site compiles to a single
// pointer test when no profiler is active — zero overhead when off, and no
// effect on simulation state ever (the profiler only reads the host steady
// clock), so golden hashes are byte-identical with profiling on or off.
//
// Threading contract: the scope stack belongs to the thread that called
// `activate()` (the control thread). `FLEXMR_PROF_SCOPE` on any other
// thread is a no-op, which makes it safe to leave instrumentation in code
// that bench harnesses run on worker pools.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace flexmr::obs {

class Profiler {
 public:
  static constexpr const char* kSchema = "flexmr.profile.v1";
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  using Clock = std::chrono::steady_clock;

  /// One node of the scope tree. Identity is (parent, name): the same name
  /// under two different parents is two scopes, so nesting context is kept
  /// (e.g. `rm/offer_all` under `mr/heartbeat` vs under `sim/dispatch`).
  struct Scope {
    const char* name;      ///< String literal from the instrumentation site.
    std::uint32_t parent;  ///< Index into scopes(), kNoParent for roots.
    std::uint64_t count = 0;
    std::uint64_t inclusive_ns = 0;  ///< Wall time with children included.
    std::uint64_t exclusive_ns = 0;  ///< Self time: inclusive minus children.
    std::vector<std::uint32_t> children;
  };

  Profiler();

  /// The process-global profiler, or null (the default: everything off).
  static Profiler* active() noexcept { return active_; }

  /// Installs `p` as the global profiler and binds the scope stack to the
  /// calling thread. Asserts that no other profiler is active.
  static void activate(Profiler& p);

  /// Uninstalls the global profiler (no-op if none is active).
  static void deactivate() noexcept;

  bool on_owner_thread() const noexcept {
    return std::this_thread::get_id() == owner_;
  }

  /// Opens the scope `name` nested under the innermost open scope. Owner
  /// thread only — use FLEXMR_PROF_SCOPE, which checks.
  void enter(const char* name);

  /// Closes the innermost open scope, charging its elapsed wall time.
  void exit();

  // --- Introspection ----------------------------------------------------

  const std::vector<Scope>& scopes() const noexcept { return scopes_; }

  /// First scope with this name anywhere in the tree, or null. Scope names
  /// in the shipped taxonomy are unique per call site, so this is enough
  /// for tests and summaries.
  const Scope* find(const char* name) const noexcept;

  /// Sum of exclusive_ns over all scopes (the self-time denominator).
  std::uint64_t total_exclusive_ns() const noexcept;

  /// The flexmr.profile.v1 document: host metadata, wall time since
  /// construction and the scope table (parents precede children).
  std::string json() const;

 private:
  std::uint32_t intern(std::uint32_t parent, const char* name);

  struct Frame {
    std::uint32_t scope;
    Clock::time_point start;
    std::uint64_t child_ns;  ///< Inclusive time of completed direct children.
  };

  static Profiler* active_;

  std::thread::id owner_{};
  Clock::time_point started_;
  std::vector<Frame> stack_;
  std::vector<Scope> scopes_;
  std::vector<std::uint32_t> roots_;
};

/// RAII scope: opens `name` on construction if a profiler is active on this
/// thread, closes it on destruction. When no profiler is active this is a
/// single pointer test.
class ProfScope {
 public:
  explicit ProfScope(const char* name) noexcept {
    Profiler* p = Profiler::active();
    if (p != nullptr && p->on_owner_thread()) {
      p->enter(name);
      prof_ = p;
    }
  }
  ~ProfScope() {
    if (prof_ != nullptr) prof_->exit();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* prof_ = nullptr;
};

#define FLEXMR_PROF_CONCAT2(a, b) a##b
#define FLEXMR_PROF_CONCAT(a, b) FLEXMR_PROF_CONCAT2(a, b)

/// Attributes the rest of the enclosing block to `name` (a string literal
/// that must outlive the profiler, which literals do).
#define FLEXMR_PROF_SCOPE(name) \
  ::flexmr::obs::ProfScope FLEXMR_PROF_CONCAT(flexmr_prof_scope_, \
                                              __LINE__)(name)

}  // namespace flexmr::obs
