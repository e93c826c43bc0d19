// Figure 3: accuracy of directory-based volumes for the Sun and AIUSA
// logs.
//   (a) fraction predicted (in the last 5 minutes) vs average piggyback
//       size, traced out by sweeping the access filter;
//   (b) update fraction — predicted within 5 min AND previously requested
//       within the last 2 hours — vs average piggyback size (plus the
//       15-minute-window variant the paper quotes for Sun).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/report.h"

using namespace piggyweb;

namespace {

void run_log(const trace::LogProfile& profile, std::size_t threads) {
  const auto workload = trace::generate(profile);
  std::printf("(%s: %zu requests)\n", profile.name.c_str(),
              workload.trace.size());
  sim::Table table({"access filter", "level", "avg piggyback",
                    "fraction predicted", "update fraction (T=5min)",
                    "update fraction (T=15min)"});
  for (const int level : {1, 2}) {
    for (const std::uint32_t filter :
         {1u, 50u, 100u, 250u, 500u, 1000u, 2500u}) {
      sim::EvalConfig config;
      config.filter.min_access_count = filter;
      const auto result =
          bench::eval_directory(workload, level, config, 200, threads);

      sim::EvalConfig config15 = config;
      config15.prediction_window = 900;
      const auto result15 =
          bench::eval_directory(workload, level, config15, 200, threads);

      table.row({sim::Table::count(filter),
                 sim::Table::count(static_cast<std::uint64_t>(level)),
                 sim::Table::num(result.avg_piggyback_size(), 1),
                 sim::Table::pct(result.fraction_predicted()),
                 sim::Table::pct(result.update_fraction()),
                 sim::Table::pct(result15.update_fraction())});
    }
  }
  table.print(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  tools::FlagSet flags("Figure 3: accuracy of directory-based volumes");
  bench::add_threads_flag(flags);
  const auto run_scope =
      bench::parse_flags(flags, "fig3_directory_accuracy", argc, argv);
  const double scale = flags.get_double("scale");
  const std::size_t threads = bench::threads_flag(flags);
  bench::print_banner(
      "Figure 3: accuracy of directory-based volumes (Sun, AIUSA)",
      "(a) fraction predicted rises with piggyback size with diminishing "
      "returns (paper: Sun 1/2-level predict ~60% at ~30 elements, AIUSA "
      "peaks ~80% at smaller sizes); (b) update fraction ~20% for Sun, "
      "5-10% for AIUSA, slightly higher at T=15min");

  run_log(trace::sun_profile(bench::kSunScale * scale), threads);
  run_log(trace::aiusa_profile(bench::kAiusaScale * scale), threads);
  return 0;
}
