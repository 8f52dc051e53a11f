// Embedding-export CLI: the workflow a downstream user runs to get NetTAG
// embeddings for their own netlists (the paper releases the pre-trained
// model for exactly this).
//
// Usage:
//   embedding_export pretrain <model_prefix>
//       generates a corpus, pre-trains NetTAG, saves the weights.
//   embedding_export embed <model_prefix> <netlist.nl> <out.csv>
//       loads the model, reads a structural netlist (io.hpp format), and
//       writes per-gate embeddings plus the circuit embedding as CSV.
//
// Run with no arguments for a self-contained demo that does both on a
// generated design.
#include <fstream>
#include <iostream>

#include "core/pretrain.hpp"
#include "netlist/io.hpp"

using namespace nettag;

namespace {

int do_pretrain(const std::string& prefix) {
  Rng rng(1);
  CorpusOptions co;
  co.designs_per_family = 4;
  std::cout << "building corpus + pre-training...\n";
  const Corpus corpus = build_corpus(co, rng);
  NetTag model(NetTagConfig{}, 7);
  PretrainOptions po;
  pretrain(model, corpus, po, rng);
  save_checkpoint(model, prefix);
  std::cout << "saved " << prefix << ".ckpt\n";
  return 0;
}

int do_embed(const std::string& prefix, const std::string& netlist_path,
             const std::string& csv_path) {
  const std::unique_ptr<NetTag> model = load_checkpoint(prefix);
  std::ifstream in(netlist_path);
  if (!in) {
    std::cerr << "cannot open netlist " << netlist_path << "\n";
    return 1;
  }
  const Netlist nl = read_netlist(in);
  nl.validate();
  const NetTag::ConeEmbedding emb = model->embed(nl);
  const Mat circuit = model->embed_circuit(nl);

  std::ofstream out(csv_path);
  if (!out) {
    std::cerr << "cannot open output " << csv_path << "\n";
    return 1;
  }
  out << "gate,type";
  for (int j = 0; j < emb.nodes.cols; ++j) out << ",e" << j;
  out << "\n";
  for (const Gate& g : nl.gates()) {
    out << g.name << "," << cell_info(g.type).name;
    for (int j = 0; j < emb.nodes.cols; ++j) {
      out << "," << emb.nodes.at(static_cast<int>(g.id), j);
    }
    out << "\n";
  }
  out << "__circuit__,-";
  for (int j = 0; j < circuit.cols; ++j) out << "," << circuit.at(0, j);
  out << "\n";
  std::cout << "wrote " << nl.size() << "+1 embedding rows to " << csv_path
            << "\n";
  return 0;
}

int demo() {
  const std::string prefix = "/tmp/nettag_export_demo";
  // Reduced budget for the demo.
  Rng rng(1);
  CorpusOptions co;
  co.designs_per_family = 2;
  const Corpus corpus = build_corpus(co, rng);
  NetTag model(NetTagConfig{}, 7);
  PretrainOptions po;
  po.expr_steps = 40;
  po.tag_steps = 30;
  po.aux_steps = 10;
  pretrain(model, corpus, po, rng);
  save_checkpoint(model, prefix);

  // Dump a generated design to disk and embed it through the CLI path.
  const std::string nl_path = "/tmp/nettag_export_demo.nl";
  {
    std::ofstream out(nl_path);
    write_netlist(out, corpus.designs.front().gen.netlist);
  }
  return do_embed(prefix, nl_path, "/tmp/nettag_export_demo.csv");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return demo();
  const std::string mode = argv[1];
  if (mode == "pretrain" && argc == 3) return do_pretrain(argv[2]);
  if (mode == "embed" && argc == 5) return do_embed(argv[2], argv[3], argv[4]);
  std::cerr << "usage:\n  " << argv[0] << "                 (demo)\n  "
            << argv[0] << " pretrain <model_prefix>\n  " << argv[0]
            << " embed <model_prefix> <netlist.nl> <out.csv>\n";
  return 2;
}
