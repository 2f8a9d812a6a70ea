// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Regenerates every measured number of EXPERIMENTS.md:
//
//   ./build/bench/bench_experiments EXPERIMENTS.md
//
// Runs the ten experiments of bench_common.h on seeds 1-10, at the scale of
// the VCDN_BENCH_* and VCDN_FIG2_* variables (VCDN_BENCH_SEED is ignored),
// and rewrites the text between each "<!-- generated: NAME -->" line and the
// next "<!-- end generated -->". NAME is an experiment's name, "header" (the
// scale and the trace each experiment replays) or "appendix" (every seed's
// output). An experiment's block is what its bench prints, less series and
// run detail, with each number as its median [min, max] over the seeds and
// each shape check as "holds on k/10 seeds".
//
// Exits 2 on bad usage, and 1, leaving the file untouched, when a block is
// missing, duplicated, unknown or unterminated, when the seeds' results do
// not line up, or when the write fails.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>

#include "bench/bench_common.h"

namespace vcdn::bench {
namespace {

constexpr size_t kSeeds = 10;  // seeds 1..kSeeds
const std::string kOpen = "<!-- generated: ";
const std::string kClose = "<!-- end generated -->";

ExperimentFn* const kExperiments[] = {
    Fig2OptimalVsPsychic, Fig3Timeseries, Fig4AlphaSweep,           Fig5OperatingPoints,
    Fig6DiskSweep,        Fig7SixServers, AblationCafe,             AblationDiskInterference,
    AblationColocation,   AblationExtensions,
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(1);
}

// A generated block of the file: its name and the span of its contents.
struct Span {
  std::string name;
  size_t begin = 0;
  size_t end = 0;
};

std::vector<Span> FindBlocks(const std::string& text) {
  std::vector<Span> spans;
  for (size_t pos = text.find(kOpen); pos != std::string::npos; pos = text.find(kOpen, pos)) {
    const size_t line_end = text.find('\n', pos);
    const size_t name_end = text.find(" -->", pos);
    if (line_end == std::string::npos || name_end > line_end) {
      Fail("malformed block marker at byte " + std::to_string(pos));
    }
    Span span{text.substr(pos + kOpen.size(), name_end - pos - kOpen.size()), line_end + 1,
              text.find(kClose, line_end)};
    if (span.end == std::string::npos || text.find(kOpen, span.begin) < span.end) {
      Fail("block '" + span.name + "' has no end marker");
    }
    for (const Span& other : spans) {
      if (other.name == span.name) {
        Fail("block '" + span.name + "' is duplicated");
      }
    }
    spans.push_back(span);
    pos = span.end;
  }
  return spans;
}

bool Documented(const Block& block) { return !block.stdout_only && block.csv_path.empty(); }

std::string Labels(const std::vector<Cell>& row) {
  std::string labels;
  for (const Cell& cell : row) {
    labels += (cell.render == nullptr ? cell.text : "#") + '\t';
  }
  return labels;
}

// One cell over the seeds: a label as it is; a number as "median [min, max]"
// in its own format, once when every seed prints it alike, and with the
// count of seeds that have it when some lack it.
Cell Summarize(const std::vector<const Cell*>& cells) {
  const Cell& first = *cells[0];
  std::vector<double> values;
  std::string absent;
  for (const Cell* cell : cells) {
    if (cell->value.has_value()) {
      values.push_back(*cell->value);
    } else {
      absent = cell->text;
    }
  }
  if (first.render == RenderHolds) {
    const auto holds = std::count(values.begin(), values.end(), 1.0);
    return Text(Printf("holds on %td/%zu seeds", holds, cells.size()));
  }
  if (first.render == nullptr || values.empty()) {
    return Text(first.render == nullptr ? first.text : absent);
  }
  std::sort(values.begin(), values.end());
  const size_t k = values.size();
  const double median = k % 2 == 1 ? values[k / 2] : (values[k / 2 - 1] + values[k / 2]) / 2.0;
  const std::string low = first.render(values.front());
  const std::string high = first.render(values.back());
  std::string out = low == high ? low : first.render(median) + " [" + low + ", " + high + "]";
  if (k < cells.size()) {
    out += Printf(" on %zu/%zu seeds, else ", k, cells.size()) + absent;
  }
  return Text(out);
}

// The seeds' documented blocks as one. They must line up: the same blocks,
// rows and labels in the same order.
std::string Summarize(const std::vector<ExperimentResult>& seeds) {
  std::vector<std::vector<const Block*>> blocks(seeds.size());
  for (size_t s = 0; s < seeds.size(); ++s) {
    for (const Block& block : seeds[s].blocks) {
      if (Documented(block)) {
        blocks[s].push_back(&block);
      }
    }
  }
  std::string out;
  for (size_t b = 0; b < blocks[0].size(); ++b) {
    Block summary = *blocks[0][b];
    for (const std::vector<const Block*>& seed : blocks) {
      bool same = seed.size() == blocks[0].size() && seed[b]->header == summary.header &&
                  seed[b]->rows.size() == summary.rows.size();
      for (size_t r = 0; same && r < summary.rows.size(); ++r) {
        same = Labels(seed[b]->rows[r]) == Labels(summary.rows[r]);
      }
      if (!same) {
        Fail(seeds[0].name + ": the seeds' results differ in shape at block " + std::to_string(b));
      }
    }
    for (size_t r = 0; r < summary.rows.size(); ++r) {
      for (size_t c = 0; c < summary.rows[r].size(); ++c) {
        std::vector<const Cell*> cells;
        for (const std::vector<const Block*>& seed : blocks) {
          cells.push_back(&seed[b]->rows[r][c]);
        }
        summary.rows[r][c] = Summarize(cells);
      }
    }
    out += summary.ToString();
  }
  return out;
}

std::string Fenced(const std::string& text) { return "```text\n" + text + "```\n"; }

}  // namespace
}  // namespace vcdn::bench

int main(int argc, char** argv) {
  using namespace vcdn::bench;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s EXPERIMENTS.md\n", argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  std::ifstream in(path);
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  if (!in) {
    Fail("cannot read " + path);
  }
  const std::vector<Span> spans = FindBlocks(text);
  RequireReleaseBuild();

  BenchScale scale = ScaleFromEnv();
  BenchObs obs{BenchFlags{}};
  std::map<std::string, std::string> generated;
  generated["header"] =
      Printf("Scale: workload x%.3g, %.0f days, %.0f chunks per paper-TB; seeds 1-%zu.\n\n",
             scale.workload_scale, scale.days, scale.chunks_per_paper_tb, kSeeds) +
      "| experiment | replays |\n|---|---|\n";
  for (ExperimentFn* experiment : kExperiments) {
    std::vector<ExperimentResult> seeds;
    std::string every_seed;
    for (scale.seed = 1; scale.seed <= kSeeds; ++scale.seed) {
      seeds.push_back(experiment(scale, BenchFlags{}, obs));
      every_seed += Printf("=== seed %zu ===\n", seeds.size());
      for (const Block& block : seeds.back().blocks) {
        every_seed += Documented(block) ? block.ToString() : "";
      }
    }
    const std::string& name = seeds[0].name;
    std::fprintf(stderr, "%s: done\n", name.c_str());
    generated[name] = Fenced(Summarize(seeds));
    generated["header"] += "| " + name + " | " + seeds[0].trace + " |\n";
    generated["appendix"] += "<details><summary>" + name + "</summary>\n\n" +
                             Fenced(every_seed) + "\n</details>\n\n";
  }

  std::string out;
  size_t copied = 0;
  for (const Span& span : spans) {
    auto it = generated.find(span.name);
    if (it == generated.end()) {
      Fail("unknown block '" + span.name + "' in " + path);
    }
    out += text.substr(copied, span.begin - copied) + it->second;
    copied = span.end;
    generated.erase(it);
  }
  if (!generated.empty()) {
    Fail("block '" + generated.begin()->first + "' is missing from " + path);
  }
  out += text.substr(copied);
  const std::string temp = path + ".tmp";
  std::ofstream file(temp, std::ios::binary);
  file << out;
  file.close();
  if (!file || std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    Fail("cannot write " + path);
  }
  std::printf("%s: %zu blocks rewritten\n", path.c_str(), spans.size());
  return 0;
}
