// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "perfbench/harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/obs/run_metadata.h"
#include "src/util/str_util.h"

namespace perfbench {

namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: vcdn_perfbench --workload fleet-mmap|fleet-churn|edge-openloop "
               "[--seed N] [--seconds S] [--trace 0|1] [--workdir DIR]\n",
               problem.c_str());
  std::exit(2);
}

// JSON string escaping for the few free-text fields (CPU model, kernel).
std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Full precision, and never a non-JSON token.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(std::min(line.size(), colon + 2));
      }
    }
  }
  return "unknown";
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("flag '" + flag + "' is missing its value");
    }
    const std::string value = argv[++i];
    uint64_t parsed = 0;
    double seconds = 0.0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!vcdn::util::ParseUint64(value, &parsed)) {
        Usage("invalid --seed '" + value + "'");
      }
      args.seed = parsed;
    } else if (flag == "--seconds") {
      if (!vcdn::util::ParseDouble(value, &seconds) || !(seconds > 0.0) || seconds > 3600.0) {
        Usage("invalid --seconds '" + value + "'");
      }
      args.seconds = seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("invalid --trace '" + value + "' (want 0 or 1)");
      }
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage("unknown flag '" + flag + "'");
    }
  }
  if (args.workload.empty()) {
    Usage("--workload is required");
  }
  return args;
}

ProcessUsage ReadProcessUsage() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  ProcessUsage out;
  out.cpu_seconds = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                    static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  out.voluntary_switches = static_cast<uint64_t>(usage.ru_nvcsw);
  out.involuntary_switches = static_cast<uint64_t>(usage.ru_nivcsw);
  return out;
}

double ThreadCpuSeconds() {
  struct timespec ts {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  in >> cpu;
  for (uint64_t& field : fields) {
    in >> field;
  }
  // user nice system idle iowait irq softirq steal
  return in && cpu == "cpu" ? fields[7] : 0;
}

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets the peak-RSS high-water mark (Linux >= 4.0). Best effort: if
  // the write is refused the reading covers the process lifetime instead.
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) {
    clear << "5";
  }
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    double kb = 0.0;
    if (std::sscanf(line.c_str(), "VmHWM: %lf kB", &kb) == 1) {
      return kb / 1024.0;
    }
  }
  return 0.0;
}

Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) {
    return q;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"), n=4.
  const long m = static_cast<long>(n) + 1;
  double cuts[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    cuts[i - 1] = (values[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                   values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                  4.0;
  }
  q.q1 = cuts[0];
  q.median = Median(values);
  q.q3 = cuts[2];
  return q;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double SortedPercentile(const std::vector<float>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t index =
      std::min(sorted.size() - 1, static_cast<size_t>(std::max(1.0, rank)) - 1);
  return static_cast<double>(sorted[index]);
}

void Report::Add(const std::string& name, double value, const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::AddMedian(const std::string& name, const std::vector<double>& repeats,
                       const std::string& unit) {
  const Quartiles q = QuartilesOf(repeats);
  std::printf("  %-28s median %-14s q1 %-14s q3 %-14s IQR/median %5.2f%%  (%zu repeats, %s)\n",
              name.c_str(), JsonNumber(q.median).c_str(), JsonNumber(q.q1).c_str(),
              JsonNumber(q.q3).c_str(),
              q.median != 0.0 ? 100.0 * (q.q3 - q.q1) / std::fabs(q.median) : 0.0,
              repeats.size(), unit.c_str());
  Add(name, q.median, unit);
}

void Report::Emit(bool correct, uint64_t attempted, uint64_t failed) const {
  std::printf("\nMetrics:\n");
  for (const Metric& metric : metrics_) {
    std::printf("  %-32s %16s %s\n", metric.name.c_str(), JsonNumber(metric.value).c_str(),
                metric.unit.c_str());
  }
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    line += (i > 0 ? ", " : "") + JsonString(metrics_[i].name) + ": {\"value\": " +
            JsonNumber(metrics_[i].value) + ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string HexDigest(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

void PrintMeta(const Args& args, const std::vector<std::pair<std::string, size_t>>& threads) {
  const vcdn::obs::RunMetadata build = vcdn::obs::CollectRunMetadata();
  struct utsname uts {};
  uname(&uts);
  std::string line = "meta: {\"workload\": " + JsonString(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + JsonNumber(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"cpu_model\": " + JsonString(CpuModel()) +
                     ", \"kernel\": " + JsonString(std::string(uts.sysname) + " " + uts.release) +
                     ", \"git\": " + JsonString(build.git_describe) +
                     ", \"build_type\": " + JsonString(build.build_type) +
                     ", \"compiler\": " + JsonString(build.compiler) + ", \"threads\": {";
  for (size_t i = 0; i < threads.size(); ++i) {
    line += (i > 0 ? ", " : "") + JsonString(threads[i].first) + ": " +
            std::to_string(threads[i].second);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace perfbench
