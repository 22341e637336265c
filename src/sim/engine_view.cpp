#include "sim/engine_view.hpp"

namespace readys::sim {

std::vector<ResourceId> EngineView::idle_resources() const {
  if (engine_) return engine_->idle_resources();
  std::vector<ResourceId> out;
  for (const ResourceId r : *state_->resources) {
    if (is_idle(r)) out.push_back(r);
  }
  return out;
}

}  // namespace readys::sim
