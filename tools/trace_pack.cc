// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// trace_pack: packs traces into the mmap-replayable VCDNTRS2 format
// (src/trace/trace_file.h, docs/TRACE_FORMAT.md).
//
//   trace_pack --generate six|europe [--scale X] [--days D] [--seed S]
//              --out fleet.vtrs [--verify]
//   trace_pack --csv edge0.csv,edge1.csv --out fleet.vtrs [--verify]
//
// Exactly one input selector (--generate / --csv); each CSV file (the
// interchange format, src/trace/trace_io.h) becomes one server section, in
// argument order. --generate streams window by window straight into the
// writer -- a full-scale month-long fleet packs with peak RSS independent of
// trace length, the same per-server seeding the benches use
// (util::SplitSeed(seed, i)).
//
// --verify re-opens the packed file, runs the eager full scan
// (MmapTrace::Validate) and compares record count and FNV-1a digest against
// the digest accumulated from the source while packing.
//
// --scale (0, 4], --days (a positive number) and --seed shape the synthetic
// workload; their defaults, 0.25 / 30 / 1, match the benches'. Exits 2 on a
// usage error (a flag it does not take, a missing value, a value out of
// range, or no --out or input selector), 1 when packing or the round trip
// fails, and 0 only when the round trip is bit-exact.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/trace/server_profile.h"
#include "src/trace/trace_file.h"
#include "src/trace/trace_io.h"
#include "src/trace/workload_generator.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/str_util.h"

namespace {

using vcdn::trace::RequestDigest;
using vcdn::trace::TraceFileWriter;

void DieOnError(const vcdn::util::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

struct Options {
  std::string out;
  std::string generate;  // "six" or "europe"
  std::vector<std::string> csv;
  double scale = 0.25;
  double days = 30.0;
  uint64_t seed = 1;
  bool verify = false;
};

Options ParseArgs(int argc, char** argv) {
  Options opt;
  std::string csv;
  vcdn::util::Flags flags;
  flags.Text("--out", &opt.out);
  flags.OneOf("--generate", &opt.generate, {"six", "europe"});
  flags.Text("--csv", &csv);
  flags.Number("--scale", &opt.scale, vcdn::trace::kMaxProfileScale);
  flags.Number("--days", &opt.days);
  flags.Count("--seed", &opt.seed);
  flags.Switch("--verify", &opt.verify);
  vcdn::util::ExitOnUsageError(flags.Parse(argc, argv));
  for (std::string_view path : vcdn::util::SplitString(csv, ',')) {
    if (!path.empty()) {
      opt.csv.emplace_back(path);
    }
  }
  if (opt.out.empty()) {
    vcdn::util::ExitOnUsageError(vcdn::util::InvalidArgumentError("flag '--out' is required"));
  }
  if (opt.generate.empty() == opt.csv.empty()) {
    vcdn::util::ExitOnUsageError(vcdn::util::InvalidArgumentError(
        "exactly one of the flags '--generate' and '--csv' is required"));
  }
  return opt;
}

// Streams the synthetic fleet into the writer without ever materializing a
// trace; folds every record into `digest` on the way through.
void PackGenerated(const Options& opt, TraceFileWriter& writer, RequestDigest& digest) {
  std::vector<vcdn::trace::ServerProfile> profiles;
  if (opt.generate == "six") {
    profiles = vcdn::trace::PaperServerProfiles(opt.scale);
  } else {
    profiles = {vcdn::trace::EuropeProfile(opt.scale)};
  }
  for (size_t i = 0; i < profiles.size(); ++i) {
    vcdn::trace::WorkloadConfig config;
    config.profile = profiles[i];
    config.seed = vcdn::util::SplitSeed(opt.seed, i);
    config.duration_seconds = opt.days * 86400.0;
    vcdn::trace::WindowedWorkload windows(config);
    DieOnError(writer.BeginServer(windows.duration(), windows.catalog().videos.size()),
               "begin server");
    std::vector<vcdn::trace::Request> window;
    uint64_t records = 0;
    while (true) {
      window.clear();
      if (!windows.NextWindow(&window)) {
        break;
      }
      DieOnError(writer.Append(window.data(), window.size()), "append window");
      digest.Fold(window.data(), window.size());
      records += window.size();
    }
    std::printf("  server %zu (%s): %llu requests, catalog %zu\n", i, profiles[i].name.c_str(),
                static_cast<unsigned long long>(records), windows.catalog().videos.size());
  }
}

void PackCsvFiles(const std::vector<std::string>& paths, TraceFileWriter& writer,
                  RequestDigest& digest) {
  for (const std::string& path : paths) {
    vcdn::util::Result<vcdn::trace::Trace> read = vcdn::trace::ReadCsvFile(path);
    DieOnError(read.status(), path.c_str());
    const vcdn::trace::Trace& trace = read.value();
    DieOnError(writer.AppendTrace(trace), path.c_str());
    digest.Fold(trace.requests.data(), trace.requests.size());
    std::printf("  %s: %zu requests, duration %.0fs\n", path.c_str(), trace.requests.size(),
                trace.duration);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);

  const size_t server_count = !opt.generate.empty()
                                  ? (opt.generate == "six" ? size_t{6} : size_t{1})
                                  : opt.csv.size();
  std::printf("packing %zu server section(s) -> %s\n", server_count, opt.out.c_str());

  TraceFileWriter writer;
  DieOnError(writer.Open(opt.out, server_count), opt.out.c_str());
  RequestDigest digest;
  if (!opt.generate.empty()) {
    PackGenerated(opt, writer, digest);
  } else {
    PackCsvFiles(opt.csv, writer, digest);
  }
  DieOnError(writer.Finish(), "finish");
  std::printf("packed %llu requests, source digest %016llx\n",
              static_cast<unsigned long long>(digest.count()),
              static_cast<unsigned long long>(digest.value()));

  if (opt.verify) {
    vcdn::util::Result<vcdn::trace::MmapTrace> packed = vcdn::trace::MmapTrace::Open(opt.out);
    DieOnError(packed.status(), "reopen for verify");
    if (packed.value().total_records() != digest.count()) {
      std::fprintf(stderr, "verify FAILED: packed %llu records, source had %llu\n",
                   static_cast<unsigned long long>(packed.value().total_records()),
                   static_cast<unsigned long long>(digest.count()));
      return 1;
    }
    vcdn::util::Result<uint64_t> scanned = packed.value().Validate();
    DieOnError(scanned.status(), "full-scan verify");
    if (scanned.value() != digest.value()) {
      std::fprintf(stderr, "verify FAILED: packed digest %016llx != source %016llx\n",
                   static_cast<unsigned long long>(scanned.value()),
                   static_cast<unsigned long long>(digest.value()));
      return 1;
    }
    std::printf("verify OK: digest %016llx over %llu records\n",
                static_cast<unsigned long long>(scanned.value()),
                static_cast<unsigned long long>(digest.count()));
  }
  return 0;
}
