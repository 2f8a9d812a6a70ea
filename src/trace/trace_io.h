// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// CSV trace (de)serialization: human-readable, header
// "arrival_time,video,byte_begin,byte_end"; interoperable with
// spreadsheet/plotting tooling. CSV is the interchange format; the one binary
// format is VCDNTRS2 (src/trace/trace_file.h, packed from CSV by trace_pack).
//
// Real anonymized logs can be replayed through the simulator in place of
// synthetic ones.

#ifndef VCDN_SRC_TRACE_TRACE_IO_H_
#define VCDN_SRC_TRACE_TRACE_IO_H_

#include <iosfwd>
#include <string>

#include "src/trace/request.h"
#include "src/util/status.h"

namespace vcdn::trace {

util::Status WriteCsv(const Trace& trace, std::ostream& out);
util::Status WriteCsvFile(const Trace& trace, const std::string& path);

util::Result<Trace> ReadCsv(std::istream& in);
util::Result<Trace> ReadCsvFile(const std::string& path);

}  // namespace vcdn::trace

#endif  // VCDN_SRC_TRACE_TRACE_IO_H_
