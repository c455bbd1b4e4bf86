#pragma once
// The shared argv surface of the example CLIs and the self-checking
// saturation benches.  Every binary used to hand-roll the same
// --help / --list / key=value loop (with its own drift: some had --help,
// some only --list); this is the one copy.
//
//   SweepSpec spec(experiment_config());
//   ...defaults / default axes...
//   return lgfi::cli::campaign_main(argc, argv, std::move(spec), usage);
//
// Tokens go through SweepSpec::parse_token, so every binary linking this
// helper speaks the full sweep grammar: key=value scalars, key=[v1,v2,...]
// lists and key=range(lo,hi,step).

#include <string>

#include "src/core/campaign.h"

namespace lgfi::cli {

struct CliUsage {
  std::string binary;   ///< argv[0] name printed in the usage line
  std::string summary;  ///< one-line description shown by --help
  std::string extra;    ///< extra --help text after the schema ("" for none)
  std::string outro;    ///< note printed after a successful campaign_main run
};

/// Parses the shared surface: --help/-h prints the usage, sweep grammar and
/// config schema; --list prints the component catalog; every other token is
/// parsed into `spec`.  Returns an exit code when the invocation is already
/// done (help/list printed, or a parse error reported on stderr), and -1
/// when the caller should continue with the populated spec.
int parse_args(int argc, const char* const* argv, SweepSpec& spec, const CliUsage& usage);

/// parse_args + CampaignRunner(spec).run_and_report(std::cout) with the
/// shared error rendering — the whole main() of the config-driven CLIs.
int campaign_main(int argc, const char* const* argv, SweepSpec spec, const CliUsage& usage);

}  // namespace lgfi::cli
