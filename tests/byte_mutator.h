// Seeded byte mutator for decoder tests: damages a valid encoding the way
// storage and transport do, so a test can check that the decoder either
// accepts the result or returns a non-OK Status, and never crashes. Every
// choice comes from the repo's own Rng, so a failing case replays from its
// seed. The mutations are bit flips, truncation, a 4- or 8-byte run of 0xFF
// (an inflated length or count field), and a slice of the input spliced in
// at another offset (a duplicated or misplaced record).
#ifndef QCORE_TESTS_BYTE_MUTATOR_H_
#define QCORE_TESTS_BYTE_MUTATOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace qcore {

class ByteMutator {
 public:
  explicit ByteMutator(uint64_t seed) : rng_(seed) {}

  // A copy of `bytes` with one to three mutations applied.
  std::vector<uint8_t> Mutate(std::vector<uint8_t> bytes) {
    const int mutations = rng_.NextInt(1, 3);
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      const size_t at = Offset(bytes);
      switch (rng_.NextInt(0, 3)) {
        case 0:  // bit flip
          bytes[at] ^= static_cast<uint8_t>(1u << rng_.NextInt(0, 7));
          break;
        case 1:  // truncation
          bytes.resize(at);
          break;
        case 2: {  // inflated length or count field
          const size_t width = rng_.NextBool(0.5) ? 4 : 8;
          std::fill(bytes.data() + at,
                    bytes.data() + std::min(bytes.size(), at + width), 0xFF);
          break;
        }
        default: {  // splice: a copy of [at, at + len) inserted at `to`
          const size_t len = 1 + rng_.NextUint64(bytes.size() - at);
          const std::vector<uint8_t> slice(bytes.data() + at,
                                           bytes.data() + at + len);
          const size_t to = rng_.NextUint64(bytes.size() + 1);
          bytes.insert(bytes.begin() + static_cast<int64_t>(to),
                       slice.begin(), slice.end());
          break;
        }
      }
    }
    return bytes;
  }

 private:
  // A uniform offset into non-empty `bytes`.
  size_t Offset(const std::vector<uint8_t>& bytes) {
    return static_cast<size_t>(rng_.NextUint64(bytes.size()));
  }

  Rng rng_;
};

}  // namespace qcore

#endif  // QCORE_TESTS_BYTE_MUTATOR_H_
