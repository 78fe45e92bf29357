// Randomized ARQ soak: indexed scenarios drive all three policies over
// randomized fault regimes (every class the link can inject, at rates
// up to 10%) and check the guarantees docs/ARQ.md makes:
//
//  A1  termination — every scenario ends with each offered payload
//      delivered or abandoned; the event cap is never hit and the
//      simulator never reports a stall;
//  A2  accounting — every link delivery lands in exactly one receiver
//      outcome counter, and both link directions' delivery counts
//      reconcile with the endpoints' examined counts (run_sim checks
//      these and reports them through SimResult::violation);
//  A3  fault-free fidelity — a scenario with both link plans zeroed
//      delivers every payload bitwise-intact with no retransmissions,
//      no abandonment, and no residual errors;
//  A4  CRC-32 residual — under CRC-32 framing an undetected delivery
//      or silent loss is a ~2^-32 event, unobservable at soak volume,
//      so any occurrence is treated as a violation;
//  A5  determinism — periodically a scenario is run twice and the two
//      results compared field-for-field.
//
// Scenario i of master seed S draws all randomness from
// Rng(S).child(i), so a violation reported as (seed, scenario) replays
// deterministically in isolation via `faultlab arqsoak --scenario`.
#pragma once

#include <cstdint>
#include <string>

#include "arq/sim.hpp"

namespace cksum::arq {

struct ArqSoakConfig {
  std::uint64_t seed = 0xA1A1;
  /// Stop once this many link faults have been injected (0 = no
  /// target; run max_scenarios instead).
  std::uint64_t target_faults = 250'000;
  std::uint64_t max_scenarios = ~std::uint64_t{0};
  bool stop_on_violation = true;
};

struct ArqScenarioResult {
  SimResult sim;
  std::uint64_t faults_injected = 0;  ///< both directions combined
  std::uint64_t violations = 0;
  std::string violation_detail;  ///< empty when clean
};

struct ArqSoakResult {
  std::uint64_t scenarios = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t payloads_offered = 0;
  std::uint64_t delivered_ok = 0;
  std::uint64_t residual_undetected = 0;
  std::uint64_t residual_lost = 0;
  std::uint64_t gave_up = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t violations = 0;
  std::string violation_detail;
  /// Non-empty on violation: a faultlab command line that replays the
  /// offending scenario deterministically.
  std::string reproducer;

  bool ok() const noexcept { return violations == 0; }
  /// Count one scenario in; the first violation's detail is kept.
  void add(const ArqScenarioResult& r);
};

/// Run one indexed scenario. Fully deterministic in (cfg.seed, index).
ArqScenarioResult run_arq_scenario(const ArqSoakConfig& cfg,
                                   std::uint64_t index);

/// Run scenarios 0, 1, 2, ... (policies rotate so all three are
/// always exercised) until the fault target or scenario cap is
/// reached, or an invariant is violated.
ArqSoakResult run_arq_soak(const ArqSoakConfig& cfg);

/// The reproducer command line for one scenario of a soak config.
std::string arq_reproducer_line(const ArqSoakConfig& cfg,
                                std::uint64_t index);

}  // namespace cksum::arq
