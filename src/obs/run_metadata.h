// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Self-describing run metadata embedded in every obs artifact (the --obs-json
// dump, --obs-series JSONL header, flight-recorder post-mortems, and
// perfbench's meta line): an artifact must answer "what built this, on what
// workload, with which knobs" without consulting the shell history that
// produced it.
//
// Toolchain fields are compiled in (VCDN_GIT_DESCRIBE / VCDN_BUILD_TYPE come
// from CMake; see src/obs/CMakeLists.txt), so they are identical for every
// run of one binary -- which keeps artifacts byte-reproducible across runs of
// the same build, the property the post-mortem determinism test relies on.
// Run-shaped fields (workload, seed, threads, batch) are filled by the
// caller; empty/zero fields are still emitted so consumers can diff headers
// field by field.

#ifndef VCDN_SRC_OBS_RUN_METADATA_H_
#define VCDN_SRC_OBS_RUN_METADATA_H_

#include <cstdint>
#include <ostream>
#include <string>

namespace vcdn::obs {

struct RunMetadata {
  // Compiled-in provenance (CollectRunMetadata fills these).
  std::string git_describe;  // `git describe --always --dirty` at configure time
  std::string build_type;    // CMAKE_BUILD_TYPE, e.g. "Release"
  std::string compiler;      // __VERSION__ of the compiler that built the binary

  // Run shape (caller-filled; zero/empty when not applicable).
  std::string workload;  // e.g. "fig7 six servers"
  uint64_t seed = 0;
  size_t threads = 0;
  size_t batch = 0;
};

// Metadata with the compiled-in provenance fields populated.
RunMetadata CollectRunMetadata();

// One JSON object: {"git":...,"build_type":...,"compiler":...,"workload":...,
// "seed":...,"threads":...,"batch":...}.
void WriteRunMetadataJson(std::ostream& out, const RunMetadata& meta);

}  // namespace vcdn::obs

#endif  // VCDN_SRC_OBS_RUN_METADATA_H_
