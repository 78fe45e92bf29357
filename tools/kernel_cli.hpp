// Shared --kernel / CKSUM_KERNEL handling for the CLI drivers.
//
// Both cksumlab and faultlab accept `--kernel best|scalar|list` on
// every subcommand (and the CKSUM_KERNEL environment variable as the
// fallback). This header centralises the contract:
//
//   * `best` (the default) runs each algorithm's last available
//     implementation; `scalar` runs each algorithm's reference.
//   * `--kernel list` (or CKSUM_KERNEL=list) prints every algorithm's
//     implementation list with availability on this machine and what
//     `best` runs — then the tool exits successfully without running a
//     subcommand.
//   * Any other name is a loud error listing the valid names.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checksum/kernels/kernel.hpp"

namespace cksum::tools {

/// One row per (algorithm, implementation), in list order; `*` marks
/// the entry `best` runs on this machine, and unavailable entries say
/// why.
inline void print_kernel_list(std::FILE* out) {
  std::fprintf(out,
               "kernel selections: best (default), scalar; "
               "* marks what best runs here\n");
  alg::kern::for_each_list([out](const auto& list) {
    const auto* best = &list.best();
    for (const auto& entry : list.impls) {
      const char* why = entry.unavailable_reason();
      std::string line = "  " + std::string(list.name);
      line.resize(17, ' ');
      line += entry.name;
      if (&entry == best || why != nullptr) line.resize(26, ' ');
      if (&entry == best) line += "*";
      if (why != nullptr) line += std::string("unavailable: ") + why;
      std::fprintf(out, "%s\n", line.c_str());
    }
  });
}

/// Strip every `--kernel <name>` from `args` (last occurrence wins,
/// CKSUM_KERNEL is the fallback) and act on the choice. Returns
///   0  continue with the subcommand (selection made, or left to the
///      lazy "best" default when nothing was asked),
///   1  `list` was requested and printed — exit 0 without running,
///   2  bad choice (message already printed) — exit 2.
inline int apply_kernel_args(std::vector<std::string>& args,
                             const char* tool) {
  std::string choice;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--kernel") {
      if (it + 1 == args.end()) {
        std::fprintf(stderr, "%s: --kernel requires a name (try list)\n",
                     tool);
        return 2;
      }
      choice = *(it + 1);
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }
  if (choice.empty()) {
    const char* env = std::getenv(alg::kern::kKernelEnv);
    if (env != nullptr) choice = env;
  }
  if (choice.empty()) return 0;  // first dispatch resolves to "best"
  if (choice == "list") {
    print_kernel_list(stdout);
    return 1;
  }
  if (!alg::kern::select_kernel(choice)) {
    std::fprintf(stderr, "%s: unknown kernel '%s'; valid: best scalar list\n",
                 tool, choice.c_str());
    return 2;
  }
  return 0;
}

}  // namespace cksum::tools
