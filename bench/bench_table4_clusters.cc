// Table 4: the clusters MineClus finds in the Sky dataset — per cluster the
// unused (spanned) dimensions and the tuple count, compared against the
// planted ground truth (which mirrors the paper's Table 4 skeleton).

#include <algorithm>

#include "bench_common.h"

#include "eval/table.h"
#include "init/initializer.h"

namespace {

std::string DimsToString(const std::vector<size_t>& dims) {
  if (dims.empty()) return "none";
  std::string out;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(dims[i] + 1);  // 1-indexed like the paper.
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sthist;
  using namespace sthist::bench;

  Scale scale = GetScale(argc, argv);
  PrintBanner("Table 4 — clusters found in Sky", scale);

  Experiment experiment(BenchSky(scale));
  const std::vector<SubspaceCluster>& clusters =
      experiment.Clusters(SkyMineClus());

  size_t full_dim = 0, subspace = 0;
  TablePrinter table({"cluster", "unused dims", "tuples", "score"});
  for (size_t i = 0; i < clusters.size(); ++i) {
    const SubspaceCluster& c = clusters[i];
    std::vector<size_t> unused;
    std::vector<bool> relevant(7, false);
    for (size_t d : c.relevant_dims) relevant[d] = true;
    for (size_t d = 0; d < 7; ++d) {
      if (!relevant[d]) unused.push_back(d);
    }
    if (unused.empty()) {
      ++full_dim;
    } else {
      ++subspace;
    }
    table.AddRow({std::string("C").append(std::to_string(i)),
                  DimsToString(unused), FormatSize(c.members.size()),
                  FormatDouble(c.score, 0)});
  }
  table.Print();

  std::printf("\nfound: %zu clusters (%zu full-dimensional, %zu subspace)\n",
              clusters.size(), full_dim, subspace);
  std::printf("paper (Table 4): 20 clusters (11 full-dimensional, 9 "
              "subspace; unused-dim sets {1}, {1,2}, {1,2,7}, {1,2,3,7}, "
              "{1,2,3,5,6})\n");

  std::printf("\nplanted ground truth at bench scale:\n");
  TablePrinter truth_table({"cluster", "unused dims", "tuples"});
  const GeneratedData& g = experiment.generated();
  for (size_t i = 0; i < g.truth.size(); ++i) {
    std::vector<size_t> unused;
    std::vector<bool> relevant(7, false);
    for (size_t d : g.truth[i].relevant_dims) relevant[d] = true;
    for (size_t d = 0; d < 7; ++d) {
      if (!relevant[d]) unused.push_back(d);
    }
    truth_table.AddRow({std::string("T").append(std::to_string(i)),
                        DimsToString(unused), FormatSize(g.truth[i].tuples)});
  }
  truth_table.Print();
  return 0;
}
