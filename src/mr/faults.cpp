#include "mr/faults.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "mr/simdfs.hpp"

namespace mrmc::mr::faults {

FaultPlan::FaultPlan(std::vector<FaultEvent> events, FaultConfig config)
    : events_(std::move(events)), config_(config) {
  MRMC_REQUIRE(config_.heartbeat_interval_s >= 0.0,
               "heartbeat_interval_s must be non-negative");
  MRMC_REQUIRE(config_.heartbeat_timeout_s >= 0.0,
               "heartbeat_timeout_s must be non-negative");
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.crash_s != b.crash_s) return a.crash_s < b.crash_s;
                     return a.node < b.node;
                   });
}

FaultPlan FaultPlan::random(std::uint64_t seed, std::size_t nodes,
                            std::size_t crashes, double horizon_s,
                            double recover_fraction, FaultConfig config) {
  MRMC_REQUIRE(nodes >= 2, "a random plan needs >= 2 nodes (node 0 survives)");
  MRMC_REQUIRE(horizon_s > 0.0, "horizon_s must be positive");
  common::Xoshiro256 rng(common::mix64(seed ^ 0x5fd4cbe1e5b0a6f3ULL));
  std::vector<FaultEvent> events;
  // Per-node end of the latest down interval drawn so far (drawn intervals
  // on one node must not overlap; kNever blocks further crashes).
  std::vector<double> busy_until(nodes, 0.0);
  std::size_t placed = 0;
  // Bounded rejection sampling: bad draws (overlapping a prior outage on
  // the same node) are skipped, never redrawn, so the sequence of rng
  // consumptions — and therefore the plan — is a pure function of the seed.
  for (std::size_t attempt = 0; attempt < crashes * 16 && placed < crashes;
       ++attempt) {
    FaultEvent event;
    event.node = 1 + static_cast<int>(rng.bounded(nodes - 1));
    event.crash_s = rng.uniform(0.05, 0.95) * horizon_s;
    const bool recovers = rng.chance(recover_fraction);
    const double outage = rng.uniform(0.05, 0.25) * horizon_s;
    if (event.crash_s < busy_until[static_cast<std::size_t>(event.node)]) {
      continue;
    }
    event.recover_s = recovers ? event.crash_s + outage : kNever;
    busy_until[static_cast<std::size_t>(event.node)] = event.recover_s;
    events.push_back(event);
    ++placed;
  }
  FaultPlan plan(std::move(events), config);
  plan.validate(nodes);
  return plan;
}

double FaultPlan::detection_s(double crash_s) const noexcept {
  const double deadline = crash_s + config_.heartbeat_timeout_s;
  if (config_.heartbeat_interval_s <= 0.0) return deadline;
  // The control plane only checks on its heartbeat grid.
  return std::ceil(deadline / config_.heartbeat_interval_s) *
         config_.heartbeat_interval_s;
}

std::size_t FaultPlan::crash_count(int node) const noexcept {
  std::size_t count = 0;
  for (const FaultEvent& event : events_) {
    if (event.node == node) ++count;
  }
  return count;
}

bool FaultPlan::blacklists(int node) const noexcept {
  return crash_count(node) > config_.max_node_failures;
}

void FaultPlan::validate(std::size_t nodes) const {
  std::vector<double> up_since(nodes, 0.0);  // kNever = down for good
  for (const FaultEvent& event : events_) {
    MRMC_REQUIRE(event.node >= 0 &&
                     static_cast<std::size_t>(event.node) < nodes,
                 "fault event names a node outside the cluster");
    MRMC_REQUIRE(event.crash_s >= 0.0, "crash_s must be non-negative");
    MRMC_REQUIRE(event.recover_s > event.crash_s,
                 "recover_s must be after crash_s");
    auto& since = up_since[static_cast<std::size_t>(event.node)];
    MRMC_REQUIRE(since < kNever && event.crash_s >= since,
                 "a node cannot crash while it is already down");
    since = event.recover_s;
  }
  // Any job completes iff some node is schedulable for the whole run:
  // it never goes down for good (all its crashes recover) and is not
  // blacklisted.  Without one, re-queued work could wait forever.
  for (std::size_t node = 0; node < nodes; ++node) {
    if (up_since[node] < kNever && !blacklists(static_cast<int>(node))) {
      return;
    }
  }
  MRMC_REQUIRE(false,
               "fault plan must leave at least one node schedulable for the "
               "whole job (never permanently down, never blacklisted)");
}

bool FaultPlan::leaves_schedulable(std::size_t nodes) const noexcept {
  std::vector<double> up_since(nodes, 0.0);
  for (const FaultEvent& event : events_) {
    if (event.node < 0 || static_cast<std::size_t>(event.node) >= nodes) {
      continue;  // structural problems are validate()'s to report
    }
    auto& since = up_since[static_cast<std::size_t>(event.node)];
    if (since < kNever) since = event.recover_s;
  }
  for (std::size_t node = 0; node < nodes; ++node) {
    if (up_since[node] < kNever && !blacklists(static_cast<int>(node))) {
      return true;
    }
  }
  return false;
}

NodeTracker::NodeTracker(const FaultPlan& plan, std::size_t nodes)
    : plan_(&plan), windows_(nodes), crashes_(nodes) {
  const std::size_t max_failures = plan.config().max_node_failures;
  std::vector<double> up_since(nodes, 0.0);
  std::vector<std::size_t> crash_counts(nodes, 0);
  for (const FaultEvent& event : plan.events()) {
    const auto node = static_cast<std::size_t>(event.node);
    crashes_[node].push_back(event.crash_s);
    NodeDownEvent down;
    down.node = event.node;
    down.crash_s = event.crash_s;
    down.detect_s = plan.detection_s(event.crash_s);
    down.recover_s = event.recover_s < kNever ? event.recover_s : -1.0;
    if (up_since[node] < kNever) {
      windows_[node].push_back({up_since[node], event.crash_s});
      down.blacklisted = ++crash_counts[node] > max_failures;
      if (down.blacklisted) {
        ++blacklisted_;
        down.recover_s = -1.0;  // the scheduler never takes it back
        up_since[node] = kNever;
      } else {
        up_since[node] = event.recover_s;
      }
    }
    down_events_.push_back(down);
  }
  for (std::size_t node = 0; node < nodes; ++node) {
    if (up_since[node] < kNever) {
      windows_[node].push_back({up_since[node], kNever});
    }
  }
}

NodeTracker::Window NodeTracker::next_window(int node, double t) const noexcept {
  for (const Window& window : windows_[static_cast<std::size_t>(node)]) {
    const double start = std::max(window.start, t);
    if (start < window.crash) return {start, window.crash};
  }
  return {};
}

double NodeTracker::crash_in(int node, double from_s,
                             double to_s) const noexcept {
  for (const double crash : crashes_[static_cast<std::size_t>(node)]) {
    if (crash >= to_s) break;
    if (crash >= from_s) return crash;
  }
  return kNever;
}

void apply_to_dfs(const FaultPlan& plan, SimDfs& dfs, double now_s) {
  struct Transition {
    double time_s;
    int node;
    bool up;
  };
  std::vector<Transition> transitions;
  for (const FaultEvent& event : plan.events()) {
    if (event.crash_s <= now_s) {
      transitions.push_back({event.crash_s, event.node, false});
    }
    if (event.recover_s <= now_s) {
      transitions.push_back({event.recover_s, event.node, true});
    }
  }
  std::stable_sort(transitions.begin(), transitions.end(),
                   [](const Transition& a, const Transition& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     return a.node < b.node;
                   });
  for (const Transition& transition : transitions) {
    if (transition.up) {
      dfs.recommission_node(transition.node);
    } else {
      dfs.decommission_node(transition.node);
    }
  }
}

}  // namespace mrmc::mr::faults
