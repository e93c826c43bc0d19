// Table 1: update fraction for probability-based volumes, at p_t = 0.25,
// effective probability 0.2, T = 300 s, C = 2 h. Columns follow the
// paper: previous occurrence within 2 h ("cache hits"), within 5 min
// (already fresh), updated-by-piggyback (predicted in the last 5 min with
// the previous occurrence between 5 min and 2 h ago), and the average
// piggyback size.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "sim/report.h"

using namespace piggyweb;

int main(int argc, char** argv) {
  tools::FlagSet flags(
      "Table 1: update fraction for probability-based volumes");
  bench::add_threads_flag(flags);
  const auto run_scope =
      bench::parse_flags(flags, "table1_update_fraction", argc, argv);
  const double scale = flags.get_double("scale");
  const std::size_t threads = bench::threads_flag(flags);
  bench::print_banner(
      "Table 1: update fraction for probability-based volumes",
      "Sun has much the largest cache-hit share and update fraction "
      "(paper: 23.7% / 9.6% / 11.0%, avg size 5.0); Apache and AIUSA are "
      "smaller (paper avg sizes 1.6 and 2.9); parenthesised values are "
      "shares of the <2h 'cache hits'");

  sim::Table table({"Server Log", "prev occ < 2hr", "prev occ < 5min",
                    "updated by piggyback, 5min<prev<2hr",
                    "avg piggyback"});
  const trace::LogProfile profiles[] = {
      trace::aiusa_profile(bench::kAiusaScale * scale),
      trace::apache_profile(bench::kApacheScale * scale),
      trace::sun_profile(bench::kSunScale * scale),
  };
  for (const auto& profile : profiles) {
    const auto workload = trace::generate(profile);
    volume::ProbabilityVolumeConfig pvc;
    pvc.probability_threshold = 0.25;
    pvc.effectiveness_threshold = 0.2;
    sim::EvalConfig config;
    config.prediction_window = 300;
    config.cache_horizon = 2 * util::kHour;
    const auto run =
        bench::eval_probability(workload, pvc, config, 10, threads);
    const auto& r = run.result;
    const auto requests = static_cast<double>(r.requests);
    const auto hits =
        static_cast<double>(r.prev_occurrence_within_horizon);
    const auto fresh = static_cast<double>(r.prev_occurrence_within_window);
    const auto updated = static_cast<double>(r.updated_by_piggyback);
    table.row(
        {profile.name, sim::Table::pct(hits / requests),
         sim::Table::pct(fresh / requests) + " (" +
             sim::Table::pct(hits > 0 ? fresh / hits : 0.0, 0) + ")",
         sim::Table::pct(updated / requests) + " (" +
             sim::Table::pct(hits > 0 ? updated / hits : 0.0, 0) + ")",
         sim::Table::num(r.avg_piggyback_size(), 1)});
  }
  table.print(std::cout);
  std::printf(
      "\npaper: AIUSA 6.5%% / 3.6%% (55%%) / 2.0%% (31%%) / 2.9; Apache "
      "11.5%% / 5.4%% (47%%) / 2.2%% (19%%) / 1.6; Sun 23.7%% / 9.6%% "
      "(41%%) / 11.0%% (46%%) / 5.0.\nupdate fraction = col2 + col3 (Sun: "
      "20.6%% in the paper).\n");
  return 0;
}
