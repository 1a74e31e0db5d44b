#include "core/qcore_update.h"

#include <algorithm>

#include "core/quant_miss.h"

namespace qcore {

Dataset MakeUpdatePool(const Dataset& qcore, const Dataset& batch, Rng* rng) {
  QCORE_CHECK(rng != nullptr);
  QCORE_CHECK(!qcore.empty());
  if (batch.empty()) return qcore;
  // Algorithm 4 line 4 scales D'_c to exactly |D_t|: replicate when the
  // QCore is smaller, subsample when it is larger. The pool is therefore
  // always balanced between retained and incoming knowledge, independent of
  // the QCore size.
  Dataset scaled =
      qcore.size() <= batch.size()
          ? qcore.ReplicateTo(batch.size(), rng)
          : qcore.Subset(rng->SampleWithoutReplacement(qcore.size(),
                                                       batch.size()));
  return Dataset::Concat(scaled, batch);
}

Dataset ResampleQCore(const Dataset& pool, const std::vector<int>& misses,
                      int size, Rng* rng) {
  QCORE_CHECK_EQ(static_cast<int>(misses.size()), pool.size());
  return pool.Subset(ResampleQCoreRows(misses, size, rng));
}

std::vector<int> ResampleQCoreRows(const std::vector<int>& misses, int size,
                                   Rng* rng) {
  QCORE_CHECK(rng != nullptr);
  const int pool_size = static_cast<int>(misses.size());
  if (size <= pool_size) return SampleByMissDistribution(misses, size, rng);
  // QCore larger than the update pool (big memory budget, small stream
  // batches): keep the whole pool and top up with uniform duplicates.
  std::vector<int> indices(static_cast<size_t>(pool_size));
  for (int i = 0; i < pool_size; ++i) indices[static_cast<size_t>(i)] = i;
  for (int i = pool_size; i < size; ++i) {
    indices.push_back(rng->NextInt(0, pool_size - 1));
  }
  return indices;
}

}  // namespace qcore
