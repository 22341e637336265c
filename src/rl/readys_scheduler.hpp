#pragma once

#include <array>
#include <memory>
#include <unordered_set>

#include "rl/inference.hpp"
#include "rl/policy_net.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace readys::rl {

/// How a ReadysScheduler evaluates the policy. The defaults keep the
/// f64 reference arithmetic, bit-exact with training.
struct ReadysOptions {
  bool greedy = true;          ///< argmax instead of sampling from π
  std::uint64_t seed = 1;      ///< rng seed (offers + sampling)
  bool random_offer = false;   ///< must match how the policy was trained
  /// Inference arithmetic: kF64Ref reproduces PolicyNet::forward
  /// bit-for-bit; kF32Simd runs the float32 SIMD fast path (argmax
  /// agreement pinned by tests, not bit-exact).
  InferenceBackendKind backend = InferenceBackendKind::kF64Ref;
};

/// Adapter running a (trained) READYS policy under the generic Simulator,
/// so the agent can be compared, traced, and validity-checked exactly
/// like HEFT and MCT. Implements the same decision protocol as
/// SchedulingEnv: random current processor among non-declined idle
/// resources, ∅ parks the processor until the next completion.
///
/// The policy is evaluated through an InferenceBackend built in reset()
/// — per episode, so a kF32Simd weight snapshot stays fresh across
/// train-then-evaluate flows.
///
/// Within one decide() call the engine does not change, and the
/// observation depends on the offered resource only through its type
/// (the current-processor duration column and the cur-is-gpu resource
/// feature) and on allow_idle. An offer whose (type, allow_idle) was
/// already evaluated in the same call therefore reuses that policy output
/// instead of encoding and forwarding again; selection (argmax, or a
/// fresh sample from the same RNG stream) runs as usual, so schedules are
/// bit-identical to forwarding every offer.
class ReadysScheduler : public sim::Scheduler {
 public:
  /// The policy must outlive the scheduler.
  ReadysScheduler(const PolicyNet& net, int window, ReadysOptions opts = {});

  void reset(const sim::EngineView& engine) override;
  std::vector<sim::Assignment> decide(const sim::EngineView& engine) override;
  std::string name() const override { return "READYS"; }

  /// Policy evaluations run since construction (one per distinct offer
  /// key per decide() call).
  std::uint64_t forwards() const noexcept { return forwards_; }
  /// Offers served from an output already computed in the same call.
  std::uint64_t offer_reuses() const noexcept { return offer_reuses_; }

 private:
  /// One slot per (offered ResourceType, allow_idle) key.
  static constexpr std::size_t kOfferSlots = 2 * sim::kNumResourceTypes;

  const PolicyNet* net_;
  int window_;
  ReadysOptions opts_;
  util::Rng rng_;
  std::unique_ptr<InferenceBackend> backend_;
  std::uint64_t backend_version_ = 0;  ///< net weight_version backend_ saw
  std::unique_ptr<IncrementalEncoder> encoder_;  ///< built per reset()
  /// Policy outputs of the current decide() call, by offer slot; the
  /// buffers are reused across calls, the contents never are.
  std::array<InferenceOutput, kOfferSlots> outs_;
  std::unordered_set<int> declined_;
  double last_instant_ = -1.0;
  std::uint64_t forwards_ = 0;
  std::uint64_t offer_reuses_ = 0;
};

/// Registers (or re-registers) the trained policy in sched::registry()
/// under the name "readys", so bench/CLI code can construct it like any
/// heuristic: make_scheduler("readys", {.seed = 3, .greedy = false}), or
/// with per-spec overrides: "readys(backend=f32simd)".
/// `defaults` seeds the options every spec starts from (the CLI routes
/// RunConfig::inference_backend through it), so plain "readys" — and
/// wrapped forms like "guarded:readys" — inherit the configured backend.
/// The net must outlive every scheduler the registry hands out. Lives
/// here — not in sched — because sched cannot depend on rl.
void register_readys_scheduler(const PolicyNet& net, int window,
                               bool random_offer = false,
                               ReadysOptions defaults = {});

}  // namespace readys::rl
