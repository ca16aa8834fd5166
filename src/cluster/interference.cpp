#include "cluster/interference.hpp"

#include <algorithm>

namespace flexmr::cluster {

void OnOffInterference::start(Simulator& sim, Machine& machine, Rng& rng) {
  rng_ = rng.split();
  if (params_.start_busy) {
    enter_busy(sim, machine);
  } else {
    enter_idle(sim, machine);
  }
}

void OnOffInterference::enter_idle(Simulator& sim, Machine& machine) {
  machine.set_multiplier(1.0);
  const double duration = rng_.exponential(params_.mean_idle_s);
  sim.schedule_after(duration,
                     [this, &sim, &machine]() { enter_busy(sim, machine); });
}

void OnOffInterference::enter_busy(Simulator& sim, Machine& machine) {
  machine.set_multiplier(rng_.uniform(params_.busy_lo, params_.busy_hi));
  const double duration = rng_.exponential(params_.mean_busy_s);
  sim.schedule_after(duration,
                     [this, &sim, &machine]() { enter_idle(sim, machine); });
}

void RandomWalkInterference::start(Simulator& sim, Machine& machine,
                                   Rng& rng) {
  rng_ = rng.split();
  value_ = params_.start;
  machine.set_multiplier(value_);
  sim.schedule_after(params_.step_period_s,
                     [this, &sim, &machine]() { step(sim, machine); });
}

void RandomWalkInterference::step(Simulator& sim, Machine& machine) {
  value_ = std::clamp(value_ + rng_.normal(0.0, params_.step_stddev),
                      params_.floor, 1.0);
  machine.set_multiplier(value_);
  sim.schedule_after(params_.step_period_s,
                     [this, &sim, &machine]() { step(sim, machine); });
}

}  // namespace flexmr::cluster
