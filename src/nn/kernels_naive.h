#ifndef EQUITENSOR_NN_KERNELS_NAIVE_H_
#define EQUITENSOR_NN_KERNELS_NAIVE_H_

namespace equitensor {
namespace backend {

/// Registers the `reference` kernel set (serial scalar loops, the
/// semantics oracle) with the backend registry. Called by the registry
/// itself on first use — static archives drop unreferenced
/// self-registering TUs, so registration is an explicit call instead
/// of a global constructor. Idempotent.
void RegisterNaiveKernels();

}  // namespace backend
}  // namespace equitensor

#endif  // EQUITENSOR_NN_KERNELS_NAIVE_H_
