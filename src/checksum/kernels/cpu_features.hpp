// Runtime CPU-feature probe for the carry-less-multiply CRC-32.
//
// Compile-time guards only say what the *binary* contains; whether the
// clmul implementation may actually run is a property of the machine
// executing it. Its availability probe consults this when `best`
// resolves and when availability is reported, so the same binary picks
// clmul on hardware with carry-less multiply and chorba elsewhere.
#pragma once

namespace cksum::alg::kern::impl {

/// True when this CPU can execute the clmul folding loop:
/// x86 PCLMULQDQ + SSE4.1 (cpuid leaf 1, ECX bits 1 and 19), or
/// AArch64 PMULL (getauxval(AT_HWCAP) & HWCAP_PMULL). Probed once on
/// first call and cached; never throws, never raises SIGILL.
bool cpu_has_clmul() noexcept;

}  // namespace cksum::alg::kern::impl
