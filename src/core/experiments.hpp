// Shared experiment drivers used by the bench binaries and examples.
#pragma once

#include <string>

#include "core/splice_sim.hpp"
#include "fsgen/profile.hpp"

namespace cksum::core {

/// Default flow configuration used throughout the paper's evaluation:
/// 256-byte TCP segments over loopback.
net::FlowConfig paper_flow_config();

/// Run the splice simulation over a named/standard filesystem profile.
SpliceStats run_profile(const fsgen::FsProfile& prof,
                        const net::PacketConfig& pkt_cfg, double scale,
                        bool compress_files = false);

/// Scale factor from the environment variable CKSUMLAB_SCALE
/// (default 1.0) — lets `bench_*` binaries run bigger corpora without
/// recompiling.
double scale_from_env();

}  // namespace cksum::core
