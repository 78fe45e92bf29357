#include "arq/soak.hpp"

#include <cstdio>

#include "util/rng.hpp"

namespace cksum::arq {

namespace {

/// Scenario-local randomized link plan: each fault class is enabled
/// independently so single-class and composed regimes both occur.
/// Rates stay at or below the 10% ceiling the guarantees are stated
/// for.
faults::LinkPlan random_link_plan(util::Rng& rng) {
  faults::LinkPlan p;
  if (rng.chance(0.7)) p.drop_rate = rng.uniform01() * 0.10;
  if (rng.chance(0.6)) p.duplicate_rate = rng.uniform01() * 0.10;
  if (rng.chance(0.7)) {
    p.corrupt_rate = rng.uniform01() * 0.10;
    p.burst_bits_min = 1;
    p.burst_bits_max = 1 + static_cast<unsigned>(rng.below(64));
  }
  if (rng.chance(0.4)) p.truncate_rate = rng.uniform01() * 0.08;
  if (rng.chance(0.6)) {
    p.reorder_rate = rng.uniform01() * 0.10;
    p.reorder_delay_max = 1 + rng.below(48);
  }
  return p;
}

bool plan_is_clean(const faults::LinkPlan& p) {
  return p.drop_rate == 0.0 && p.duplicate_rate == 0.0 &&
         p.corrupt_rate == 0.0 && p.truncate_rate == 0.0 &&
         p.reorder_rate == 0.0;
}

alg::Algorithm random_checksum(util::Rng& rng) {
  switch (rng.below(4)) {
    case 0: return alg::Algorithm::kInternet;
    case 1: return alg::Algorithm::kFletcher255;
    case 2: return alg::Algorithm::kFletcher256;
    default: return alg::Algorithm::kCrc32;
  }
}

/// Field-for-field comparison for the determinism re-run (A5).
bool same_result(const SimResult& a, const SimResult& b) {
  return a.delivered_ok == b.delivered_ok &&
         a.residual_undetected == b.residual_undetected &&
         a.residual_lost == b.residual_lost && a.gave_up == b.gave_up &&
         a.payload_bytes_ok == b.payload_bytes_ok && a.ticks == b.ticks &&
         a.events == b.events && a.latency_sum == b.latency_sum &&
         a.sender.data_sent == b.sender.data_sent &&
         a.sender.retransmits == b.sender.retransmits &&
         a.sender.timeouts == b.sender.timeouts &&
         a.sender.dup_acks == b.sender.dup_acks &&
         a.receiver.acks_sent == b.receiver.acks_sent &&
         a.receiver.check_rejects == b.receiver.check_rejects &&
         a.data_link.total_injected() == b.data_link.total_injected() &&
         a.ack_link.total_injected() == b.ack_link.total_injected();
}

SimConfig scenario_config(const ArqSoakConfig& cfg, std::uint64_t index,
                          std::vector<util::Bytes>* payloads) {
  util::Rng rng = util::Rng(cfg.seed).child(index);

  SimConfig sim;
  // Rotate the policy so a soak of any length exercises all three.
  sim.arq.policy = static_cast<Policy>(index % 3);
  sim.arq.checksum = random_checksum(rng);
  sim.arq.window = 1 + rng.below(24);
  sim.link_delay = 1 + rng.below(16);
  // RTO strictly above the round trip, else a clean link still times
  // out spuriously and the A3 no-retransmission check cannot hold.
  sim.arq.rto = 2 * sim.link_delay + 4 + rng.below(128);
  sim.arq.rto_max = sim.arq.rto * (4 + rng.below(8));
  sim.arq.retry_budget = 2 + static_cast<unsigned>(rng.below(10));
  sim.seed = rng.next();

  // Roughly one scenario in seven runs fault-free so A3 is checked
  // continuously, not just by the unit tests.
  if (!rng.chance(1.0 / 7.0)) {
    sim.data_link = random_link_plan(rng);
    sim.ack_link = random_link_plan(rng);
  }

  const std::size_t n = 4 + rng.below(60);
  payloads->clear();
  payloads->reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Zero-length payloads are legal frames; include them sometimes.
    const std::size_t size = rng.chance(0.05) ? 0 : 1 + rng.below(1200);
    util::Bytes p(size);
    rng.fill(p);
    payloads->push_back(std::move(p));
  }
  return sim;
}

}  // namespace

std::string arq_reproducer_line(const ArqSoakConfig& cfg,
                                std::uint64_t index) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "faultlab arqsoak --seed 0x%llx --scenario %llu",
                static_cast<unsigned long long>(cfg.seed),
                static_cast<unsigned long long>(index));
  return std::string(buf);
}

ArqScenarioResult run_arq_scenario(const ArqSoakConfig& cfg,
                                   std::uint64_t index) {
  std::vector<util::Bytes> payloads;
  const SimConfig sim_cfg = scenario_config(cfg, index, &payloads);

  ArqScenarioResult res;
  res.sim = run_sim(sim_cfg, payloads);
  res.faults_injected = res.sim.data_link.total_injected() +
                        res.sim.ack_link.total_injected();

  const auto violate = [&](const std::string& what) {
    ++res.violations;
    if (res.violation_detail.empty()) res.violation_detail = what;
  };

  // A1: termination.
  if (!res.sim.terminated)
    violate("event cap exceeded: protocol failed to terminate");
  // A2: run_sim's internal accounting identities.
  if (!res.sim.violation.empty()) violate(res.sim.violation);
  // Delivered-or-abandoned covers every offered payload.
  if (res.sim.terminated &&
      res.sim.delivered_ok + res.sim.residual_undetected + res.sim.gave_up +
              res.sim.residual_lost <
          res.sim.payloads_offered)
    violate("payload neither delivered nor abandoned");

  // A3: fault-free fidelity.
  if (plan_is_clean(sim_cfg.data_link) && plan_is_clean(sim_cfg.ack_link)) {
    if (res.sim.delivered_ok != res.sim.payloads_offered)
      violate("fault-free scenario did not deliver every payload intact");
    if (res.sim.sender.retransmits != 0 || res.sim.gave_up != 0 ||
        res.sim.residual_undetected != 0 || res.sim.residual_lost != 0)
      violate("fault-free scenario retransmitted, abandoned, or corrupted");
  }

  // A4: CRC-32 residual events are ~2^-32 — any hit is a violation.
  if (sim_cfg.arq.checksum == alg::Algorithm::kCrc32 &&
      (res.sim.residual_undetected != 0 || res.sim.residual_lost != 0))
    violate("residual error under CRC-32 framing");

  return res;
}

void ArqSoakResult::add(const ArqScenarioResult& r) {
  ++scenarios;
  faults_injected += r.faults_injected;
  payloads_offered += r.sim.payloads_offered;
  delivered_ok += r.sim.delivered_ok;
  residual_undetected += r.sim.residual_undetected;
  residual_lost += r.sim.residual_lost;
  gave_up += r.sim.gave_up;
  retransmits += r.sim.sender.retransmits;
  violations += r.violations;
  if (r.violations > 0 && violation_detail.empty())
    violation_detail = r.violation_detail;
}

ArqSoakResult run_arq_soak(const ArqSoakConfig& cfg) {
  ArqSoakResult out;
  for (std::uint64_t i = 0; i < cfg.max_scenarios; ++i) {
    if (cfg.target_faults != 0 && out.faults_injected >= cfg.target_faults)
      break;
    ArqScenarioResult r = run_arq_scenario(cfg, i);

    // A5: every eighth scenario replays and must match exactly.
    if (i % 8 == 0 && r.violations == 0) {
      const ArqScenarioResult again = run_arq_scenario(cfg, i);
      if (!same_result(r.sim, again.sim)) {
        ++r.violations;
        r.violation_detail = "scenario replay diverged (nondeterminism)";
      }
    }

    out.add(r);
    if (r.violations > 0) {
      if (out.reproducer.empty()) out.reproducer = arq_reproducer_line(cfg, i);
      if (cfg.stop_on_violation) break;
    }
  }
  return out;
}

}  // namespace cksum::arq
