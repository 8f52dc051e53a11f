#include "nn/train_state.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace nettag {

std::vector<float> flatten_param_values(const std::vector<Tensor>& params) {
  std::vector<float> out;
  for (const Tensor& p : params) {
    out.insert(out.end(), p->value.v.begin(), p->value.v.end());
  }
  return out;
}

void restore_param_values(const std::vector<Tensor>& params,
                          const std::vector<float>& values) {
  std::size_t total = 0;
  for (const Tensor& p : params) total += p->value.v.size();
  if (values.size() != total) {
    throw std::runtime_error(
        "restore_param_values: checkpoint holds " +
        std::to_string(values.size()) + " values but the parameter list has " +
        std::to_string(total) +
        " (different architecture or training objectives?)");
  }
  std::size_t at = 0;
  for (const Tensor& p : params) {
    std::copy(values.begin() + static_cast<std::ptrdiff_t>(at),
              values.begin() + static_cast<std::ptrdiff_t>(at + p->value.v.size()),
              p->value.v.begin());
    at += p->value.v.size();
  }
}

}  // namespace nettag
