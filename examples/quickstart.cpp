// Quickstart: the 5-minute tour of the NetTAG public API.
//
//  1. Build (or load) a gate-level netlist.
//  2. Formulate it as a text-attributed graph (TAG).
//  3. Chunk a sequential design into register cones.
//  4. Pre-train NetTAG on a small corpus and generate embeddings at all
//     three granularities: gates, register cones, whole circuits.
//  5. Save / reload the pre-trained model.
#include <iostream>

#include "core/pretrain.hpp"
#include "netlist/io.hpp"

using namespace nettag;

int main() {
  // -- 1. A netlist can be built programmatically ...
  Netlist nl("fig3_example");
  const GateId r1 = nl.add_port("R1");
  const GateId r2 = nl.add_port("R2");
  const GateId u1 = nl.add_gate(CellType::kXor2, "U1", {r1, r2});
  const GateId u2 = nl.add_gate(CellType::kInv, "U2", {r2});
  const GateId u3 = nl.add_gate(CellType::kNor2, "U3", {u1, u2});
  nl.mark_output(u3);
  std::cout << "== structural netlist ==\n" << netlist_to_string(nl);

  // ... or parsed back from its textual form.
  const Netlist reloaded = netlist_from_string(netlist_to_string(nl));

  // -- 2. TAG formulation: every gate gets a text attribute combining its
  //       2-hop symbolic expression with physical characteristics.
  const TagGraph tag = build_tag(reloaded, /*k_hop=*/2);
  std::cout << "\n== gate text attributes ==\n";
  for (const auto& attr : tag.attrs) std::cout << "  " << attr << "\n";

  // -- 3. Generate a small corpus (the data-collection substitute) and
  //       chunk a sequential design into register cones.
  Rng rng(42);
  CorpusOptions corpus_options;
  corpus_options.designs_per_family = 2;
  const Corpus corpus = build_corpus(corpus_options, rng);
  const Netlist& seq = corpus.designs.front().gen.netlist;
  const auto cones = extract_register_cones(seq, /*max_gates=*/120);
  std::cout << "\n== cone chunking ==\n"
            << seq.name() << ": " << seq.size() << " gates, "
            << cones.size() << " register cones\n";

  // -- 4. Pre-train NetTAG (scaled-down budget for the quickstart).
  NetTag model(NetTagConfig{}, /*seed=*/7);
  PretrainOptions po;
  po.expr_steps = 30;
  po.tag_steps = 30;
  po.aux_steps = 10;
  const PretrainReport report = pretrain(model, corpus, po, rng);
  std::cout << "\n== pre-training ==\n"
            << "expression contrastive loss: " << report.expr_loss_first
            << " -> " << report.expr_loss_last << "\n"
            << "TAGFormer multi-objective loss: " << report.tag_loss_first
            << " -> " << report.tag_loss_last << "\n";

  // Embeddings at three granularities.
  const NetTag::ConeEmbedding cone_emb = model.embed(cones.front().cone);
  const Mat circuit_emb = model.embed_circuit(seq);
  std::cout << "\n== embeddings ==\n"
            << "gate embeddings: " << cone_emb.nodes.rows << " x "
            << cone_emb.nodes.cols << "\n"
            << "cone [CLS] embedding: 1 x " << cone_emb.cls.cols << "\n"
            << "circuit embedding: 1 x " << circuit_emb.cols
            << " (sum of cone embeddings)\n";

  // -- 5. Persistence.
  save_checkpoint(model, "/tmp/nettag_quickstart");
  const std::unique_ptr<NetTag> restored =
      load_checkpoint("/tmp/nettag_quickstart");
  std::cout << "\nmodel saved to and reloaded from "
               "/tmp/nettag_quickstart.ckpt (weights "
            << (params_fingerprint(*restored) == params_fingerprint(model)
                    ? "equal"
                    : "DIFFER")
            << ")\n";
  return 0;
}
