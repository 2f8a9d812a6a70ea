// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Figure 3: "Ingress, redirection, and overall cache efficiency over the
// 1-month period" -- Europe server, 1 TB disk, alpha_F2R = 2, hourly series
// for xLRU / Cafe / Psychic.
//
// Paper's reported shape: a clear diurnal pattern in ingress and redirection
// for all caches; comparable redirection ratios (Cafe slightly higher); a
// significant drop in ingress from xLRU to Cafe/Psychic; average efficiency
// +10.1% (Cafe) and +12.7% (Psychic) over xLRU.
//
// Output: steady-state summary plus a daily-resolution series table (hourly
// data is also written to fig3_series.csv for plotting).

#include <cstdio>
#include <fstream>

#include "bench/bench_common.h"
#include "src/util/str_util.h"

namespace {

// Returns false, after an error on stderr, when the file cannot be written.
bool WriteSeriesCsv(const std::vector<vcdn::sim::ReplayResult>& results, const char* path) {
  std::ofstream out(path);
  out << "hour";
  for (const auto& r : results) {
    out << "," << r.cache_name << "_ingress_pct," << r.cache_name << "_redirect_pct,"
        << r.cache_name << "_efficiency";
  }
  out << "\n";
  size_t hours = results[0].series.size();
  for (size_t h = 0; h < hours; ++h) {
    out << h;
    for (const auto& r : results) {
      const auto& p = r.series[h];
      double ingress = p.served_bytes > 0
                           ? static_cast<double>(p.filled_bytes) / static_cast<double>(p.served_bytes)
                           : 0.0;
      double redirect = p.requested_bytes > 0 ? static_cast<double>(p.redirected_bytes) /
                                                    static_cast<double>(p.requested_bytes)
                                              : 0.0;
      double fill_cost = 2.0 * r.alpha_f2r / (r.alpha_f2r + 1.0);
      double redirect_cost = 2.0 / (r.alpha_f2r + 1.0);
      double efficiency =
          p.requested_bytes > 0
              ? 1.0 -
                    static_cast<double>(p.filled_bytes) / static_cast<double>(p.requested_bytes) *
                        fill_cost -
                    redirect * redirect_cost
              : 0.0;
      out << "," << ingress << "," << redirect << "," << efficiency;
    }
    out << "\n";
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    return false;
  }
  std::printf("Hourly series written to %s\n", path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdn;
  bench::BenchFlags flags = bench::FlagsFromArgs(argc, argv);
  bench::BenchScale scale = bench::ResolveScale(flags);
  bench::BenchObs obs(argc, argv);
  obs.SetWorkload("fig3 timeseries", scale.seed);
  bench::PrintHeader(
      "Figure 3: ingress / redirection / efficiency time series (Europe, 1 TB, alpha=2)",
      "diurnal pattern in ingress & redirects; xLRU ingress >> Cafe ~ Psychic; "
      "Cafe +10.1% and Psychic +12.7% average efficiency over xLRU",
      scale);

  trace::Trace trace = bench::MakeEuropeTrace(scale);
  core::CacheConfig config = bench::PaperConfig(1.0, 2.0, scale);

  std::vector<bench::CacheJob> jobs;
  for (auto kind : {core::CacheKind::kXlru, core::CacheKind::kCafe, core::CacheKind::kPsychic}) {
    jobs.push_back(bench::CacheJob{"europe", kind, config, &trace});
  }
  std::vector<sim::ReplayResult> results = bench::RunCacheJobs(jobs, flags, &obs);

  std::printf("\nSteady-state averages (second half of the month):\n");
  util::TextTable summary({"cache", "efficiency", "ingress %", "redirect %", "delta eff vs xLRU"});
  for (const auto& r : results) {
    summary.AddRow({r.cache_name, util::FormatPercent(r.efficiency),
                    util::FormatPercent(r.ingress_fraction),
                    util::FormatPercent(r.redirect_fraction),
                    util::FormatPercent(r.efficiency - results[0].efficiency)});
  }
  std::printf("%s\n", summary.ToString().c_str());

  // Whole-run ingress/eviction volume (warmup included) -- the same
  // quantities the --obs-json registry counters report.
  std::printf("Whole-run chunk totals:\n");
  for (const auto& r : results) {
    std::printf("  %-8s filled %llu (of which proactive %llu), evicted %llu\n",
                r.cache_name.c_str(),
                static_cast<unsigned long long>(r.totals.filled_chunks),
                static_cast<unsigned long long>(r.totals.proactive_filled_chunks),
                static_cast<unsigned long long>(r.totals.evicted_chunks));
  }
  std::printf("\n");

  // Daily aggregation of the hourly series (readable in a terminal).
  std::printf("Daily series (ingress%% / redirect%% per cache):\n");
  util::TextTable daily({"day", "xLRU in%", "xLRU rd%", "Cafe in%", "Cafe rd%", "Psy in%",
                         "Psy rd%"});
  size_t hours = results[0].series.size();
  for (size_t day = 0; day * 24 < hours; ++day) {
    std::vector<std::string> row{std::to_string(day)};
    for (const auto& r : results) {
      uint64_t requested = 0;
      uint64_t served = 0;
      uint64_t redirected = 0;
      uint64_t filled = 0;
      for (size_t h = day * 24; h < std::min(hours, (day + 1) * 24); ++h) {
        requested += r.series[h].requested_bytes;
        served += r.series[h].served_bytes;
        redirected += r.series[h].redirected_bytes;
        filled += r.series[h].filled_bytes;
      }
      double ingress = served > 0 ? static_cast<double>(filled) / static_cast<double>(served) : 0.0;
      double redirect =
          requested > 0 ? static_cast<double>(redirected) / static_cast<double>(requested) : 0.0;
      row.push_back(util::FormatPercent(ingress));
      row.push_back(util::FormatPercent(redirect));
    }
    daily.AddRow(row);
  }
  std::printf("%s\n", daily.ToString().c_str());

  // A dropped dump is an error (docs/OBSERVABILITY.md), reported at exit.
  const bool csv_written = WriteSeriesCsv(results, "fig3_series.csv");

  // Diurnal check: hour-of-day profile of requested bytes (second half).
  std::printf("\nHour-of-day demand profile (should be diurnal):\n");
  std::vector<double> by_hour(24, 0.0);
  for (size_t h = hours / 2; h < hours; ++h) {
    by_hour[h % 24] += static_cast<double>(results[0].series[h].requested_bytes);
  }
  double peak = 0.0;
  for (double v : by_hour) {
    peak = std::max(peak, v);
  }
  for (int hod = 0; hod < 24; ++hod) {
    int bar = peak > 0 ? static_cast<int>(by_hour[static_cast<size_t>(hod)] / peak * 50) : 0;
    std::printf("%02d:00 %s\n", hod, std::string(static_cast<size_t>(bar), '#').c_str());
  }
  return obs.WriteIfRequested().ok() && csv_written ? 0 : 1;
}
