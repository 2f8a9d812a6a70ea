// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// trace_pack: packs traces into the mmap-replayable VCDNTRS2 format
// (src/trace/trace_file.h, docs/TRACE_FORMAT.md).
//
//   trace_pack --generate six|europe [--scale X] [--days D] [--seed S]
//              --out fleet.vtrs [--verify]
//   trace_pack --csv edge0.csv,edge1.csv --out fleet.vtrs [--verify]
//   trace_pack --bin edge0.trc,edge1.trc --out fleet.vtrs [--verify]
//
// Exactly one input selector (--generate / --csv / --bin); each CSV or
// VCDNTRC1 file becomes one server section, in argument order. --generate
// streams window by window straight into the writer -- a full-scale
// month-long fleet packs with peak RSS independent of trace length, the
// same per-server seeding the benches use (util::SplitSeed(seed, i)).
//
// --verify re-opens the packed file, runs the eager full scan
// (MmapTrace::Validate) and compares record count and FNV-1a digest against
// the digest accumulated from the source while packing. Exit status 0 only
// when the round trip is bit-exact.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/trace/server_profile.h"
#include "src/trace/trace_file.h"
#include "src/trace/trace_io.h"
#include "src/trace/workload_generator.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/str_util.h"

namespace {

using vcdn::trace::RequestDigest;
using vcdn::trace::TraceFileWriter;

[[noreturn]] void Usage(const char* error) {
  if (error != nullptr) {
    std::fprintf(stderr, "error: %s\n\n", error);
  }
  std::fprintf(stderr,
               "usage: trace_pack --out FILE (--generate six|europe | --csv F[,F...] |"
               " --bin F[,F...])\n"
               "                  [--scale X] [--days D] [--seed S] [--verify]\n"
               "\n"
               "Packs traces into the mmap-replayable VCDNTRS2 format. --scale/--days/\n"
               "--seed shape the synthetic workload (defaults 0.25 / 30 / 1, matching\n"
               "the benches); --verify re-opens the output and proves the round trip\n"
               "bit-exact against the source digest.\n");
  std::exit(2);
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= list.size()) {
    const size_t comma = list.find(',', begin);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > begin) {
      out.push_back(list.substr(begin, end - begin));
    }
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return out;
}

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
  std::vector<std::string> bin;
  double scale = 0.25;
  double days = 30.0;
  uint64_t seed = 1;
  bool verify = false;
};

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::string msg = "flag '" + arg + "' is missing its value";
        Usage(msg.c_str());
      }
      return argv[++i];
    };
    if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--generate") {
      opt.generate = value();
      if (opt.generate != "six" && opt.generate != "europe") {
        Usage("--generate takes 'six' or 'europe'");
      }
    } else if (arg == "--csv") {
      opt.csv = SplitCommas(value());
    } else if (arg == "--bin") {
      opt.bin = SplitCommas(value());
    } else if (arg == "--scale" || arg == "--days") {
      double parsed = 0.0;
      if (!vcdn::util::ParseDouble(value(), &parsed) || !std::isfinite(parsed) || parsed <= 0.0) {
        Usage("--scale/--days need a positive number");
      }
      (arg == "--scale" ? opt.scale : opt.days) = parsed;
    } else if (arg == "--seed") {
      uint64_t parsed = 0;
      if (!vcdn::util::ParseUint64(value(), &parsed)) {
        Usage("--seed needs an unsigned integer");
      }
      opt.seed = parsed;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else {
      std::string msg = "unknown argument '" + arg + "'";
      Usage(msg.c_str());
    }
  }
  if (opt.out.empty()) {
    Usage("--out is required");
  }
  const int selectors = (!opt.generate.empty()) + (!opt.csv.empty()) + (!opt.bin.empty());
  if (selectors != 1) {
    Usage("exactly one of --generate / --csv / --bin is required");
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

void PackFiles(const std::vector<std::string>& paths, bool csv, TraceFileWriter& writer,
               RequestDigest& digest) {
  for (const std::string& path : paths) {
    vcdn::util::Result<vcdn::trace::Trace> read =
        csv ? vcdn::trace::ReadCsvFile(path) : vcdn::trace::ReadBinaryFile(path);
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
                                  : (!opt.csv.empty() ? opt.csv.size() : opt.bin.size());
  std::printf("packing %zu server section(s) -> %s\n", server_count, opt.out.c_str());

  TraceFileWriter writer;
  DieOnError(writer.Open(opt.out, server_count), opt.out.c_str());
  RequestDigest digest;
  if (!opt.generate.empty()) {
    PackGenerated(opt, writer, digest);
  } else {
    PackFiles(!opt.csv.empty() ? opt.csv : opt.bin, !opt.csv.empty(), writer, digest);
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
