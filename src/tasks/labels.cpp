#include "tasks/labels.hpp"

namespace nettag {

const std::vector<std::string>& task1_classes() {
  static const std::vector<std::string> classes = {
      "adder", "subtractor", "multiplier", "comparator",
      "interconnect", "logic", "control", "seq_support",
  };
  return classes;
}

int task1_class_id(const std::string& block_label) {
  if (block_label == "add" || block_label == "alu") return 0;
  if (block_label == "sub") return 1;
  if (block_label == "mul") return 2;
  if (block_label == "cmp") return 3;
  if (block_label == "mux" || block_label == "decode" ||
      block_label == "encode") {
    return 4;
  }
  if (block_label == "bitwise" || block_label == "parity" ||
      block_label == "reduce" || block_label == "shift") {
    return 5;
  }
  if (block_label == "fsm") return 6;
  if (block_label == "counter" || block_label == "crc" ||
      block_label == "lfsr") {
    return 7;
  }
  return -1;
}

}  // namespace nettag
