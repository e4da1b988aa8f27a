// daos_chaos: drive the chaos campaign engine from the command line.
//
//   daos_chaos run <scenario> <n> [master_seed]
//       Generate and run n campaigns against the scenario. Prints the
//       engine status; on any oracle violation prints the minimized
//       one-line repro(s) and exits 2.
//
//   daos_chaos repro <scenario>
//       Replay the campaign described by $DAOS_FAULTS / $DAOS_FAULT_SEED
//       (the exact line a violation printed). Exits 0 when every oracle
//       holds, 2 when the violation reproduces.
//
//   daos_chaos gen <scenario> <index> [master_seed]
//       Print campaign <index>'s round-trippable text without running it.
//
// Scenarios: workload, tiered, lifecycle, fleet (see src/chaos/scenario.hpp).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chaos/engine.hpp"
#include "util/text.hpp"

namespace {

using namespace daos;

int Usage() {
  std::fprintf(stderr,
               "usage: daos_chaos run <scenario> <n> [master_seed]\n"
               "       daos_chaos repro <scenario>\n"
               "       daos_chaos gen <scenario> <index> [master_seed]\n"
               "scenarios:");
  for (const std::string_view s : chaos::ScenarioNames()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(s.size()), s.data());
  }
  std::fprintf(stderr, "\n");
  return 1;
}

/// Stores a u64 argument into `out`; false, leaving `out`, when malformed.
bool ReadU64Arg(const char* arg, std::uint64_t* out) {
  const auto v = ParseU64(arg);
  if (v) *out = *v;
  return v.has_value();
}

int RunVerb(const std::string& scenario, int argc, char** argv) {
  std::uint64_t n = 0;
  if (argc < 1 || !ReadU64Arg(argv[0], &n) || n == 0) return Usage();
  chaos::ChaosConfig config;
  config.scenario = scenario;
  if (argc >= 2 && !ReadU64Arg(argv[1], &config.master_seed)) return Usage();

  chaos::ChaosEngine engine(config);
  const std::vector<chaos::CampaignRun> runs =
      engine.RunNext(static_cast<std::size_t>(n));
  std::fputs(engine.StatusText().c_str(), stdout);

  bool violated = false;
  for (const chaos::CampaignRun& run : runs) {
    if (run.result.ok()) continue;
    violated = true;
    std::printf("campaign %llu violated:\n",
                static_cast<unsigned long long>(run.index));
    for (const std::string& v : run.result.Violations()) {
      std::printf("  %s\n", v.c_str());
    }
    std::printf("repro: %s\n", run.repro.c_str());
  }
  return violated ? 2 : 0;
}

int ReproVerb(const std::string& scenario) {
  chaos::Campaign campaign;
  campaign.scenario = scenario;

  const char* faults = std::getenv("DAOS_FAULTS");
  if (faults == nullptr || *faults == '\0') {
    std::fprintf(stderr, "daos_chaos repro: DAOS_FAULTS is not set\n");
    return 1;
  }
  std::string error;
  if (!chaos::ParseCampaign(faults, &campaign, &error)) {
    std::fprintf(stderr, "daos_chaos repro: bad DAOS_FAULTS: %s\n",
                 error.c_str());
    return 1;
  }
  if (const char* seed = std::getenv("DAOS_FAULT_SEED")) {
    if (*seed != '\0' && !ReadU64Arg(seed, &campaign.seed)) {
      std::fprintf(stderr,
                   "daos_chaos repro: bad DAOS_FAULT_SEED '%s' "
                   "(want a decimal u64)\n",
                   seed);
      return 1;
    }
  }
  // The campaign grammar is a superset of the plane's: windowed entries
  // would make every System constructor's env-armed plane reject the
  // variable with noise on stderr. The campaign is parsed — drop the env.
  unsetenv("DAOS_FAULTS");
  unsetenv("DAOS_FAULT_SEED");

  std::printf("replaying: %s\n", chaos::ReproLine(campaign).c_str());
  const chaos::ScenarioResult result = chaos::RunScenario(campaign);
  std::printf("signature %llx, faults_fired %llu\n",
              static_cast<unsigned long long>(result.signature),
              static_cast<unsigned long long>(result.faults_fired));
  if (result.ok()) {
    std::printf("all oracles held\n");
    return 0;
  }
  for (const std::string& v : result.Violations()) {
    std::printf("violated %s\n", v.c_str());
  }
  return 2;
}

int GenVerb(const std::string& scenario, int argc, char** argv) {
  std::uint64_t index = 0;
  if (argc < 1 || !ReadU64Arg(argv[0], &index)) return Usage();
  chaos::ChaosConfig config;
  config.scenario = scenario;
  if (argc >= 2 && !ReadU64Arg(argv[1], &config.master_seed)) return Usage();
  const chaos::ChaosEngine engine(config);
  std::fputs(chaos::FormatCampaign(engine.GenerateAt(index)).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string verb = argv[1];
  const std::string scenario = argv[2];
  if (!chaos::KnownScenario(scenario)) {
    std::fprintf(stderr, "daos_chaos: unknown scenario '%s'\n",
                 scenario.c_str());
    return Usage();
  }
  if (verb == "run") return RunVerb(scenario, argc - 3, argv + 3);
  if (verb == "repro") return ReproVerb(scenario);
  if (verb == "gen") return GenVerb(scenario, argc - 3, argv + 3);
  return Usage();
}
