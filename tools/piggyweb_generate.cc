// piggyweb_generate — write a synthetic web log as Common Log Format.
//
//   piggyweb_generate --profile=aiusa --scale=0.1 --out=aiusa.log
//   piggyweb_generate --profile=sun --scale=0.01 --out=sun.log
//       --volumes-out=sun-volumes.txt --pt=0.2 --eff=0.2
//
// Profiles mirror the paper's six logs (aiusa, marimba, apache, sun,
// att_client, digital_client). With --volumes-out the tool also trains
// probability volumes on the generated log and saves them in the
// piggyweb-volumes format for piggyweb_evaluate --volumes=....
#include <cstdio>
#include <fstream>

#include "cli_common.h"
#include "trace/clf.h"
#include "trace/log_stats.h"
#include "trace/profiles.h"
#include "trace_load.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"
#include "volume/serialize.h"

using namespace piggyweb;

int main(int argc, char** argv) {
  tools::FlagSet flags(
      "generate a synthetic web log (Common Log Format) from one of the "
      "paper's log profiles");
  flags.add_string("profile", "aiusa",
                   "aiusa|marimba|apache|sun|att_client|digital_client");
  flags.add_double("scale", 0.05, "request-count scale (1.0 = paper size)");
  flags.add_int("seed", 0, "override the profile's RNG seed (0 = default)");
  flags.add_string("out", "synthetic.log", "output CLF file");
  flags.add_string("volumes-out", "",
                   "also train+save probability volumes to this file");
  flags.add_double("pt", 0.2, "probability threshold for --volumes-out");
  flags.add_double("eff", 0.2,
                   "effectiveness threshold for --volumes-out (0 = off)");
  flags.add_int("min-count", 10,
                "ignore resources with fewer accesses when training");
  tools::add_observability_flags(flags);
  if (!flags.parse(argc, argv)) return 2;
  const auto run_scope =
      tools::make_run_scope(flags, "piggyweb_generate", argc, argv);

  auto profile = trace::profile_by_name(flags.get_string("profile"),
                                        flags.get_double("scale"));
  if (!profile) {
    std::fprintf(stderr, "unknown profile '%s'\n",
                 flags.get_string("profile").c_str());
    return 2;
  }
  if (flags.get_int("seed") != 0) {
    profile->seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  }

  const auto workload = trace::generate(*profile);
  const auto stats = trace::compute_log_stats(workload.trace);
  std::printf("%s: %llu requests, %llu sources, %llu resources over %lld "
              "days\n",
              profile->name.c_str(),
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.distinct_sources),
              static_cast<unsigned long long>(stats.unique_resources),
              static_cast<long long>(stats.span / util::kDay));

  {
    std::ofstream out(flags.get_string("out"));
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n",
                   flags.get_string("out").c_str());
      return 1;
    }
    const auto loss = trace::write_clf(out, workload.trace);
    std::printf("wrote %s\n", flags.get_string("out").c_str());
    tools::warn_clf_loss(flags.get_string("out"), loss);
  }

  const auto volumes_out = flags.get_string("volumes-out");
  if (!volumes_out.empty()) {
    volume::PairCounterConfig pcc;
    const auto counts = volume::PairCounterBuilder(pcc).build(
        workload.trace,
        static_cast<std::uint64_t>(flags.get_int("min-count")));
    volume::ProbabilityVolumeConfig pvc;
    pvc.probability_threshold = flags.get_double("pt");
    pvc.effectiveness_threshold = flags.get_double("eff");
    const auto set =
        volume::build_probability_volumes(workload.trace, counts, pvc);
    std::ofstream out(volumes_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", volumes_out.c_str());
      return 1;
    }
    volume::save_volume_set(out, set, workload.trace.paths());
    const auto vstats = set.stats();
    std::printf("wrote %s (%zu volumes, avg size %.1f)\n",
                volumes_out.c_str(), vstats.volumes,
                vstats.avg_volume_size);
  }
  return 0;
}
