// Machine model.
//
// A machine has a static per-container base processing speed (MiB/s of
// reference-workload input) and a time-varying multiplier in (0, 1] driven
// by an interference model. Speed changes notify registered listeners so
// running tasks can re-integrate their progress (see RateIntegrator).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace flexmr::cluster {

struct MachineSpec {
  std::string model = "generic";
  /// Per-container input processing speed for a cost-1.0 workload, MiB/s.
  MiBps base_ips = 10.0;
  /// Concurrent containers (YARN slots).
  std::uint32_t slots = 4;
  /// NIC bandwidth available to this node, MiB/s (10 GbE ≈ 1192 MiB/s).
  MiBps nic_bandwidth = 1192.0;
  /// Descriptive only (Table I fidelity).
  double memory_gb = 16.0;
};

class Machine {
 public:
  /// Called with (node, new effective per-container IPS) on speed changes.
  using SpeedListener = std::function<void(NodeId, MiBps)>;
  /// Handle returned by add_speed_listener, for targeted removal.
  using SpeedListenerId = std::uint64_t;

  Machine(NodeId id, MachineSpec spec) : id_(id), spec_(std::move(spec)) {
    FLEXMR_ASSERT(spec_.base_ips > 0 && spec_.slots > 0);
  }

  NodeId id() const { return id_; }
  const MachineSpec& spec() const { return spec_; }
  std::uint32_t slots() const { return spec_.slots; }

  double multiplier() const { return multiplier_; }
  MiBps effective_ips() const {
    return spec_.base_ips * multiplier_ * fault_factor_;
  }

  /// Sets the interference multiplier and notifies listeners. Multiplier
  /// must be in (0, 1]: interference can only slow a machine down.
  void set_multiplier(double m) {
    FLEXMR_ASSERT(m > 0.0 && m <= 1.0);
    if (m == multiplier_) return;
    multiplier_ = m;
    notify();
  }

  /// Fault-injection degradation factor in (0, 1], composed with the
  /// interference multiplier (the two are driven independently: the
  /// interference model keeps updating `multiplier_` during a degradation
  /// window and must not erase it, nor vice versa).
  void set_fault_factor(double f) {
    FLEXMR_ASSERT(f > 0.0 && f <= 1.0);
    if (f == fault_factor_) return;
    fault_factor_ = f;
    notify();
  }

  /// Registers a listener and returns a handle the owner MUST use to
  /// unregister before it is destroyed — machines routinely outlive the
  /// drivers listening to them (sequential jobs on one cluster), and a
  /// stale callback is a use-after-free.
  SpeedListenerId add_speed_listener(SpeedListener listener) {
    const SpeedListenerId id = next_listener_id_++;
    listeners_.emplace_back(id, std::move(listener));
    return id;
  }

  /// Removes one listener; safe to call after clear_speed_listeners
  /// already dropped it (returns false then).
  bool remove_speed_listener(SpeedListenerId id) {
    for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
      if (it->first == id) {
        listeners_.erase(it);
        return true;
      }
    }
    return false;
  }

  void clear_speed_listeners() { listeners_.clear(); }

  std::size_t num_speed_listeners() const { return listeners_.size(); }

 private:
  void notify() {
    for (const auto& [id, listener] : listeners_) {
      listener(id_, effective_ips());
    }
  }

  NodeId id_;
  MachineSpec spec_;
  double multiplier_ = 1.0;
  double fault_factor_ = 1.0;
  SpeedListenerId next_listener_id_ = 1;
  std::vector<std::pair<SpeedListenerId, SpeedListener>> listeners_;
};

}  // namespace flexmr::cluster
