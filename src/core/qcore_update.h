// QCore update (paper Algorithm 4): when a stream batch arrives, the current
// QCore is scaled up to the batch size, combined with the batch, and a new
// fixed-size QCore is resampled according to the quantization misses
// observed while the model calibrates. This keeps old and new knowledge in
// one stable-sized structure — no separate rehearsal buffer. These are the
// two halves of the update; ContinualDriver::ProcessBatch (core/continual.h)
// counts the misses between them, over the same forwards that feed the
// bit-flip rounds (Algorithm 3).
#ifndef QCORE_CORE_QCORE_UPDATE_H_
#define QCORE_CORE_QCORE_UPDATE_H_

#include <vector>

#include "data/dataset.h"

namespace qcore {

// Builds the update pool D'_c ∪ D_t of Algorithm 4 line 4: the QCore
// replicated to (at least) the stream batch size, concatenated with the
// batch.
Dataset MakeUpdatePool(const Dataset& qcore, const Dataset& batch, Rng* rng);

// Resamples a QCore of `size` examples from `pool`, stratified by the given
// per-example miss counts (Algorithm 4 lines 11-12).
Dataset ResampleQCore(const Dataset& pool, const std::vector<int>& misses,
                      int size, Rng* rng);

// The pool rows ResampleQCore takes, from the same Rng draws: the pool has
// one row per entry of `misses`.
std::vector<int> ResampleQCoreRows(const std::vector<int>& misses, int size,
                                   Rng* rng);

}  // namespace qcore

#endif  // QCORE_CORE_QCORE_UPDATE_H_
