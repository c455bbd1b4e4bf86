#include "examples/cli_common.h"

#include <iostream>

#include "src/core/component_catalog.h"

namespace lgfi::cli {

int parse_args(int argc, const char* const* argv, SweepSpec& spec, const CliUsage& usage) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h" || arg == "help") {
      std::cout << usage.summary << "\n\nusage: " << usage.binary
                << " [key=value ...] [--list]\n\n"
                   "sweep axes (any key; every combination runs as one grid):\n"
                   "  key=[v1,v2,...]        explicit value list\n"
                   "  key=range(lo,hi,step)  lo, lo+step, ... up to and including hi\n\n"
                   "config keys:\n"
                << spec.base().help();
      if (!usage.extra.empty()) std::cout << "\n" << usage.extra;
      std::cout << "\n(--list prints the full component catalog)\n";
      return 0;
    }
    if (arg == "--list") {
      print_component_catalog(std::cout);
      return 0;
    }
  }
  try {
    spec.parse_args(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n(run with --help for the config grammar)\n";
    return 2;
  }
  return -1;
}

int campaign_main(int argc, const char* const* argv, SweepSpec spec, const CliUsage& usage) {
  const int parsed = parse_args(argc, argv, spec, usage);
  if (parsed >= 0) return parsed;
  try {
    CampaignRunner(spec).run_and_report(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n(run with --help for the config grammar)\n";
    return 2;
  }
  if (!usage.outro.empty()) std::cout << usage.outro;
  return 0;
}

}  // namespace lgfi::cli
