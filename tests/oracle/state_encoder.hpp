#pragma once

#include "dag/features.hpp"
#include "rl/state_encoder.hpp"
#include "sim/engine_view.hpp"

namespace readys::oracle {

/// From-scratch reference encoder for the test suites: every call builds
/// a fresh Observation straight from the engine view — window
/// extraction, every feature row, the dense and CSR Â and the resource
/// summary — with no state carried between calls. rl::IncrementalEncoder
/// must match it field for field on every engine state.
class StateEncoder {
 public:
  StateEncoder(const dag::TaskGraph& graph, const sim::CostModel& costs,
               int window);

  /// Encodes the state at a decision instant for `current` (an idle
  /// resource); see rl::IncrementalEncoder::encode. The overload without
  /// the flag derives the weaker any_running() condition, enough for
  /// standalone encoding.
  rl::Observation encode(const sim::EngineView& engine,
                         sim::ResourceId current, bool allow_idle) const;
  rl::Observation encode(const sim::EngineView& engine,
                         sim::ResourceId current) const;

 private:
  const dag::TaskGraph* graph_;
  dag::StaticFeatures static_;
  sim::CostModel costs_;  ///< copied: tiny, and temporaries stay safe
  int window_;
  double time_scale_;  ///< max expected kernel duration on a CPU
};

}  // namespace readys::oracle
